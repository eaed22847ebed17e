"""K-step action generation and its probabilistic bookkeeping.

Every K-step walk steps along one uniform flow-time grid, tau_k = (K-k)/K:
deterministic and stochastic sampling, the chain log-prob recompute and the
PPO trunk rows (``ppo._trunk_rows``) all take step k's times (r, tau) =
(tau_{k+1}, tau_k) from ``flow_times(K)``, Python floats cached per K.
Deterministic sampling takes Euler steps of size exactly 1/K along it; K = 1
collapses to a single forward pass a = z1 - u(z1, 0, 1, obs).
``sample_deterministic`` runs one observation as one unbatched row, 1-D
arrays end to end, so every layer is a matrix-vector product, taken with
``ndarray.dot`` (``kernels``); NumPy computes a (1, d) row's ``@`` product
with the same matrix-vector routine, so the action is bit-identical to the
walk on (1, d) rows. At K = 1 the action is one velocity call and ``z - u``
in place, with no loop and no multiply, since dt is exactly 1.0.
Stochastic sampling wraps each step in a
Gaussian of scale sigma and records everything needed to recompute the
chain's log-probability bit-for-bit later (the PPO old-log-prob contract).
``sample_chain_batch`` samples one chain per environment, with one noise
draw per environment for the whole chain, and returns them as stacked arrays
(``ChainBatch``); ``sample_stochastic`` wraps a single chain in
a ``DenoiseChain``, which alone also stores the prior term ln p0(a^0). That
term is kept out of the transition sum: it has no parameter dependence and
cancels in probability ratios.

There is one chain log-probability: ``chain_logprob_traced`` scores
recorded chains with one head, ``_chain_logpdf``, one tape node over the K
steps' velocities stacked as M-row blocks. The PPO update hands in those
velocities from its one stacked trunk pass; ``chain_logprob`` and any other
caller without them get one M-row pass per step. On plain-array velocities
(the PPO update's array step) the head records nothing and returns the
total with its VJP, the cotangents of the velocities and of sigma.
Sampled terms and that node share one log-density formula and one
summation order, so at unchanged parameters the recomputed log-prob equals
the sampled one up to how the matrix products round each row. With
OpenBLAS, a row that falls in a full block of 4 rows rounds the same
whatever the row count M; the last ``M mod 4`` rows, and M = 1 (a
matrix-vector product), round differently. So the two agree exactly when
both batches are multiples of 4 rows (``n_envs`` and the minibatch size in
stage 2), and to rounding error otherwise.

Exactly K velocity-network evaluations happen per generated action. K must
be an integer >= 1 (``check_K``): a bool or a float K is a ``ValueError``.
Code on the rollout and minibatch paths calls ufuncs and ndarray methods,
not numpy's Python-level wrappers (each costs a measured 0.6-4 us more per
call at these sizes). Every sigma must be > 0; the check tests that, so a
NaN sigma fails it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, concat, loss_head

LOG_2PI = float(np.log(2.0 * np.pi))


def check_K(K) -> None:
    """Raise a ``ValueError`` naming K unless it is an integer >= 1: a
    Python or numpy integer, not a bool or a float."""
    if not isinstance(K, (int, np.integer)) or isinstance(K, bool) or K < 1:
        raise ValueError(f"K must be an integer >= 1, got {K!r}")


def flow_times(K: int) -> tuple:
    """Step k's flow times ``(r, tau) = ((K-k-1)/K, (K-k)/K)``, k = 0 .. K-1,
    as Python floats: the uniform grid 1 = tau_0 > ... > tau_K = 0 that
    every K-step walk (sampling, the chain log-prob, the PPO trunk rows)
    steps along. Each time is one correctly rounded division of two exact
    integers. K is checked before the cached lookup, which would take
    ``True`` or ``1.0`` for the key 1."""
    if type(K) is not int or K < 1:  # one type test for a Python int K
        check_K(K)
        K = int(K)
    return _flow_times(K)


@lru_cache(maxsize=16)
def _flow_times(K: int) -> tuple:
    return tuple(((K - k - 1) / K, (K - k) / K) for k in range(K))


@dataclass
class DenoiseChain:
    """One recorded K-step stochastic generation for a single observation."""

    states: np.ndarray  # (K+1, d_a): a^0 (prior draw) .. a^K (executed action)
    means: np.ndarray  # (K, d_a): mu_k, the deterministic update from a^k
    sigma: np.ndarray  # (d_a,) transition scale (scalar sigma broadcast)
    logprob_terms: np.ndarray  # (K,) per-transition Gaussian log-densities
    total_logprob: float  # sum of transition terms, prior excluded
    prior_logprob: float  # ln p0(a^0), stored separately
    nfe_used: int

    @property
    def K(self) -> int:
        return self.means.shape[0]

    @property
    def action(self) -> np.ndarray:
        return self.states[-1]


def _sigma_vector(sigma, d_a: int) -> np.ndarray:
    sig = np.asarray(sigma, dtype=np.float64)
    if sig.ndim == 0:
        sig = np.full(d_a, float(sig))
    if sig.shape != (d_a,):
        raise ValueError(f"sigma must be scalar or ({d_a},), got shape {sig.shape}")
    if not (sig > 0.0).all():  # what must hold, so a NaN fails it
        raise ValueError("sigma must be positive")
    return sig


def _log_norm(sig: np.ndarray) -> np.ndarray:
    """ln(2 pi) + 2 ln sig, the per-dimension constant of ``_logpdf_rows``."""
    return LOG_2PI + 2.0 * np.log(sig)


def _logpdf_rows(diff: np.ndarray, log_norm: np.ndarray) -> np.ndarray:
    """ln N(x | mu, diag(sig^2)) over the last axis, from diff = (x - mu) / sig
    and ``log_norm = _log_norm(sig)``.

    The one Gaussian log-density formula: sampled terms, the taped
    transition node and the prior term all come from it."""
    return -0.5 * (log_norm + diff * diff).sum(axis=-1)


def gaussian_logpdf(x: np.ndarray, mu: np.ndarray, sigma) -> float:
    """ln N(x | mu, diag(sigma^2)); sigma scalar or per-dimension."""
    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sig = _sigma_vector(sigma, x.shape[-1])
    return float(_logpdf_rows((x - mu) / sig, _log_norm(sig)))


def step_entropy(d_a: int, sigma) -> float:
    """Closed-form entropy of one Gaussian transition N(mu, sigma^2 I)."""
    sig = _sigma_vector(sigma, d_a)
    return float(np.sum(0.5 * (1.0 + LOG_2PI + 2.0 * np.log(sig))))


def policy_entropy(K: int, d_a: int, sigma) -> float:
    """Total chain entropy: K conditional Gaussian transitions."""
    check_K(K)
    return K * step_entropy(d_a, sigma)


def sample_deterministic(net, obs: np.ndarray, K: int, rng: np.random.Generator):
    """Noise-free K-step generation for one observation, ``(d_obs,)`` or
    ``(1, d_obs)``; returns (action, nfe), the action a fresh ``(d_a,)``
    array. nfe == K always.

    The observation, its embedding and the action run as one unbatched row:
    each layer is a matrix-vector product, bit-identical to the same walk on
    ``(1, d)`` rows. The times are ``flow_times(K)``'s Python floats. Each
    step is ``z -= u * dt`` with dt = 1 / K (IEEE multiplication commutes,
    so this is the Euler step ``z - dt * u``).
    K = 1, where dt is 1.0 and the times are (0, 1), is one velocity call
    and one in-place ``z -= u``, with no loop."""
    if type(K) is not int or K < 1:  # one type test for a Python int K
        check_K(K)
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (net.d_obs,):
        if obs.shape != (1, net.d_obs):
            raise ValueError(f"observation of shape {obs.shape} does not fit d_obs={net.d_obs}")
        obs = obs.reshape(-1)
    h = net.encode_arrays(obs)
    z = rng.standard_normal(net.d_a)
    if K == 1:
        z -= net.velocity_arrays(z, 0.0, 1.0, h)
        return z, 1
    dt = 1.0 / K
    for r, tau in flow_times(K):
        z -= net.velocity_arrays(z, r, tau, h) * dt
    return z, K


class ChainBatch(NamedTuple):
    """Stochastic chains for E observations, as stacked arrays."""

    states: np.ndarray  # (E, K+1, d_a): a^0 (prior draw) .. a^K (executed action)
    means: np.ndarray  # (E, K, d_a): mu_k, the deterministic update from a^k
    logprob_terms: np.ndarray  # (E, K) per-transition Gaussian log-densities
    total_logprobs: np.ndarray  # (E,) sum of transition terms, prior excluded


def _obs_row(net, obs) -> np.ndarray:
    """One observation, ``(d_obs,)`` or ``(1, d_obs)``, as a ``(1, d_obs)``
    row; any other shape raises a ``ValueError`` naming it."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape == (net.d_obs,):
        return obs.reshape(1, -1)
    if obs.shape != (1, net.d_obs):
        raise ValueError(f"observation of shape {obs.shape} does not fit (1, d_obs) = (1, {net.d_obs})")
    return obs


def sample_stochastic(net, obs: np.ndarray, K: int, sigma, rng: np.random.Generator) -> DenoiseChain:
    """Gaussian-perturbed chain a^{k+1} = mu_k + sigma * xi_k for one
    observation, ``(d_obs,)`` or ``(1, d_obs)``; records all terms."""
    sig = _sigma_vector(sigma, net.d_a)
    chains = sample_chain_batch(net, _obs_row(net, obs), K, sig, [rng])
    states = chains.states[0]
    return DenoiseChain(
        states=states,
        means=chains.means[0],
        sigma=sig,
        logprob_terms=chains.logprob_terms[0],
        total_logprob=float(chains.total_logprobs[0]),
        prior_logprob=gaussian_logpdf(states[0], np.zeros(net.d_a), 1.0),
        nfe_used=K,
    )


def sample_chain_batch(net, obs: np.ndarray, K: int, sigma, rngs) -> ChainBatch:
    """Vectorized chain sampling across environments with per-env rng streams.

    Each environment's noise comes only from its own generator, in one
    (K+1, d_a) draw: row 0 is a^0 and row k+1 is xi_k. A generator fills an
    array in order, so this is the same numbers, in the same order, leaving
    the generator in the same state, as K+1 separate draws of d_a, and the
    results are independent of batching. Exactly K velocity evaluations
    cover the whole batch, at the times of ``flow_times(K)``.
    """
    check_K(K)
    E = len(rngs)
    if obs.shape != (E, net.d_obs):
        raise ValueError(
            f"observations of shape {obs.shape} do not fit (E, d_obs) = ({E}, {net.d_obs}): one row per rng stream"
        )
    d_a = net.d_a
    sig = _sigma_vector(sigma, d_a)
    log_norm = _log_norm(sig)
    h = net.encode_arrays(obs)

    # the noise is drawn into ``states``; step k reads xi_k from row k+1
    # before writing a^{k+1} over it
    states = np.empty((E, K + 1, d_a))
    for e, rng in enumerate(rngs):
        rng.standard_normal(out=states[e])
    means = np.empty((E, K, d_a))
    terms = np.empty((E, K))
    a = states[:, 0]
    dt = 1.0 / K
    for k, (r, tau) in enumerate(flow_times(K)):
        u = net.velocity_arrays(a, r, tau, h)
        mu = a - dt * u
        a = mu + sig * states[:, k + 1]
        means[:, k] = mu
        states[:, k + 1] = a
        terms[:, k] = _logpdf_rows((a - mu) / sig, log_norm)
    # summed left to right, as ``_chain_logpdf`` sums them
    total = terms[:, 0].copy()
    for k in range(1, K):
        total += terms[:, k]
    return ChainBatch(states, means, terms, total)


def _chain_logpdf(u, states: np.ndarray, sigma_t, K: int, taped: bool):
    """The chain's transition log-density sum per row, as one tape node over
    ``u`` (K M, d_a) and ``sigma_t`` (d_a,): ``u``'s block k (rows k M to
    (k+1) M) is the velocity at step k, and step k's term is ln N(a^{k+1} |
    a^k - dt * u_k, diag(sigma^2)). The K terms are summed left to right, as
    ``sample_chain_batch`` sums them. Not ``taped`` (``u`` an ndarray) it
    records nothing and returns the sums and the node's VJP
    (``autodiff.loss_head``); the VJP gives sigma's cotangent only when
    ``sigma_t`` (a Tensor either way) requires grad."""
    M, d_a = states.shape[0], states.shape[2]
    dt = 1.0 / K
    sig = sigma_t.data
    steps = states.swapaxes(0, 1)  # a^k of every row, step-major: (K+1, M, d_a)
    mu = steps[:K] - dt * (u.data if taped else u).reshape(K, M, d_a)
    diff = (steps[1 : K + 1] - mu) / sig
    terms = _logpdf_rows(diff, _log_norm(sig))
    total = terms[0]
    for k in range(1, K):
        total = total + terms[k]

    def vjp(g):
        # the sum hands every step g
        g_col = g[:, None]
        g_u = (-g_col * diff * (dt / sig)).reshape(K * M, d_a)
        g_sig = (g_col * (diff * diff - 1.0)).reshape(K * M, d_a).sum(axis=0) / sig if sigma_t.requires_grad else None
        return g_u, g_sig

    return loss_head(total, (u, sigma_t), vjp, "gauss_logpdf", taped)


def chain_logprob_traced(policy, states: np.ndarray, obs: np.ndarray, sigma_t, K: int, h=None, u=None):
    """Sum of the K transition log-densities, differentiable in theta (and
    sigma when traced). ``states`` is (M, K+1, d_a); recorded states are
    constants, only the means depend on parameters. ``u`` is the policy's
    velocity at every step, the K steps' M-row blocks stacked (block k at
    a^k and step k's ``flow_times``), when the caller has already traced
    it; otherwise each step runs its own M-row pass on ``h``, the policy's
    embedding of ``obs`` (encoded here when None).

    Outside a ``Graph`` this records nothing. It repeats the arithmetic of
    ``sample_chain_batch``, so on the rows that call sampled, at the same
    parameters, it returns their totals exactly. ``states`` without K+1
    steps is a ``ValueError``.

    An ndarray ``u`` (a training step on plain arrays) gives the same values
    and records nothing: it returns ``(total, vjp)``, and ``vjp(g)`` maps
    the cotangent ``g`` of the total to ``(g_u, g_sigma)``, ``g_sigma``
    None unless ``sigma_t`` requires grad."""
    check_K(K)
    if states.shape[1] != K + 1:
        raise ValueError(f"states must hold K+1 = {K + 1} steps for K={K}, got shape {states.shape}")
    if u is None:
        if h is None:
            h = policy.encode(Tensor(obs))
        M = states.shape[0]
        u = concat([
            policy.velocity(Tensor(states[:, k]), Tensor(np.full((M, 1), r)), Tensor(np.full((M, 1), tau)), h=h)
            for k, (r, tau) in enumerate(flow_times(K))
        ], axis=0)
    return _chain_logpdf(u, states, sigma_t, K, type(u) is not np.ndarray)


def chain_logprob(net, chain: DenoiseChain, obs: np.ndarray, sigma) -> float:
    """Recompute one chain's transition log-probability sum from its
    recorded states with ``chain_logprob_traced``; equals
    ``chain.total_logprob`` exactly when the parameters are unchanged."""
    sig = _sigma_vector(sigma, chain.states.shape[1])
    return float(chain_logprob_traced(net, chain.states[None], _obs_row(net, obs), Tensor(sig), chain.K).data[0])


