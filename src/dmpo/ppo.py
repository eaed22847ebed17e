"""Stage 2 fine-tuning: GAE, the clipped surrogate over denoising chains,
value and entropy terms, behavior-cloning regularization with linear decay,
and the full collect/update loop.

The chain's transition log-probability sum (prior excluded; it cancels in
the ratio) is recomputed each epoch by ``sampler.chain_logprob_traced``,
which repeats the sampler's arithmetic, so the ratio is 1 at theta_old. One
advantage per environment step credits every denoising transition that
produced the executed action. With fixed sigma the entropy term is a
constant reported for the breakdown; an optional learnable per-dimension
log-sigma head makes it (and the ratio) sigma-differentiable.

Per minibatch the policy encoder runs once and its embedding feeds both the
chain log-prob and the BC term. The policy trunk runs once too, over stacked
rows (``_trunk_rows``): the chain's K steps, one block per step, then the BC
rows; the chain head reads the K step blocks and the BC head the last one.
The trunk-weight gradients then sum over all (K+1) M rows in one matmul,
which rounds differently from separate passes. The frozen BC reference runs
on the plain-array forward: ``finetune`` embeds the rollout rows once per
iteration and computes each epoch's targets in one pass. With ``n_envs`` and
the minibatch size multiples of 4, the stacked chain rows and the per-epoch
targets equal per-step and per-minibatch passes bit for bit (rows in full
blocks of 4 round alike; sampler module docstring), so the ratio is exactly
1 at theta_old.

Each loss head (the chain's summed Gaussian log-density, the ratio, the
clipped surrogate, the value loss, the BC distance, the learnable-sigma
entropy) has one definition, a value and a hand-written VJP. Past the chain
head, whose value repeats the sampler's sum, each repeats the arithmetic
of the op chain it replaces, in the same order, so both equal that chain's
bit for bit. ``stage2_loss`` is the taped form: around the MLP
layers (each a ``matmul``, ``add`` and, hidden, ``tanh`` node) every head
is one tape node (``autodiff.custom_op``), and so is the weighted total, so
a K=1 fixed-sigma minibatch tapes 32 nodes. ``finetune`` runs each
minibatch on plain arrays instead (``stage2_step``): the nets' array
forwards, every head and the weighted total untaped (``taped=False``, or an
ndarray ``u``) giving its value and VJP, and the backward through the total,
heads and nets, written straight into ``Adam.grads`` (each parameter
Tensor, log-sigma's too, to its view of Adam's gradient buffer: the
gradient map stage 1 writes as well). It records no tape and calls no
``Graph.backward``, and equals the taped loss and one ``Graph.backward``
bit for bit. Clipping and the Adam update work on that buffer. Each epoch
gathers its rollout rows once, in the epoch's shuffled order, and each
minibatch takes contiguous slices of them. Rollouts are collected as
stacked arrays, one ``[:, t]`` row per step across environments, with one
value-net call over the whole window, and GAE runs as one backward pass
over the whole batch. The loss heads and the
per-minibatch statistics call ufuncs and ndarray methods (``np.clip`` as
``np.minimum(np.maximum(...))``, a mean as ``x.sum() / x.size``), not
numpy's Python-level wrappers, which cost a measured 0.6-4 us more per call at
these sizes for the same bits.

``finetune`` first fixes glibc's heap trim and mmap thresholds
(``_keep_heap_resident``). Each minibatch allocates and frees a few hundred
KB of stacked-row activations; at glibc's defaults the freed top of the heap
goes back to the kernel and the next minibatch faults its pages in again,
about 2,000 minor faults per iteration of the shipped config at one BLAS
thread.
"""

from __future__ import annotations

import ctypes
import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels
from .autodiff import (
    NonFiniteError, Tensor, _check_finite, concat, exp, loss_head, row_sq_mean, split_rows, value_of, weighted_sum
)
from .io import metrics_csv
from .nets import Adam, clip_grad_norm, first_nonfinite_grad, init_value_net
from .sampler import LOG_2PI, chain_logprob_traced, check_K, flow_times, policy_entropy, sample_chain_batch

METRIC_COLUMNS = (
    "iter",
    "mean_return",
    "success_rate",
    "pg",
    "v",
    "ent",
    "bc",
    "lambda_bc",
    "clip_frac",
    "approx_kl",
    "grad_norm",
)


@dataclass
class Stage2Config:
    gamma: float = 0.99
    lam_gae: float = 0.95
    clip_eps: float = 0.2
    lam_value: float = 0.5
    lam_entropy: float = 0.01
    lam_bc_init: float = 1.0
    lam_bc_final: float = 0.0
    bc_decay_start: int = 0
    bc_decay_end: int = 100
    K: int = 1
    sigma: float = 0.01
    sigma_learnable: bool = False
    iterations: int = 100
    epochs: int = 4
    minibatch_size: int = 64
    rollout_steps: int = 320
    n_envs: int = 8
    # sigma=0.01 scales chain log-prob gradients by 1/sigma^2; updates must
    # stay small for the clipped ratios to remain meaningful
    lr: float = 2e-5
    grad_clip: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # each guard tests what must hold, so a NaN fails it
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must be in [0, 1)")
        if not (0.0 <= self.lam_gae <= 1.0):
            raise ValueError("lam_gae must be in [0, 1]")
        if not self.clip_eps > 0:
            raise ValueError("clip_eps must be > 0")
        if not all(c >= 0 for c in (self.lam_value, self.lam_entropy, self.lam_bc_init, self.lam_bc_final)):
            raise ValueError("loss coefficients must be >= 0")
        if self.bc_decay_start >= self.bc_decay_end:
            raise ValueError("bc_decay_start must be < bc_decay_end")
        check_K(self.K)
        if not self.sigma > 0:
            raise ValueError("sigma must be > 0")
        if min(self.iterations, self.epochs) < 0:
            raise ValueError("loop sizes must be nonnegative")
        if self.n_envs < 1 or self.minibatch_size < 1:
            raise ValueError("n_envs and minibatch_size must be >= 1")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if not self.grad_clip >= 0:
            raise ValueError("grad_clip must be >= 0 (0 turns clipping off)")
        if self.seed < 0:  # numpy's seed sequences take no negative seed
            raise ValueError("seed must be >= 0")
        # each env steps rollout_steps // n_envs times per iteration
        if self.rollout_steps < self.n_envs:
            raise ValueError("rollout_steps must be >= n_envs")
        if self.rollout_steps % self.n_envs:
            raise ValueError(
                f"rollout_steps ({self.rollout_steps}) must be a multiple of n_envs ({self.n_envs}); "
                f"the last {self.rollout_steps % self.n_envs} steps would never be collected"
            )


# ---------------------------------------------------------------------------
# advantage estimation


def gae(rewards, values, dones, gamma, lam):
    """Backward-recursion GAE over a sequence of rows.

    ``values`` has one extra trailing entry: the bootstrap (0 at a true
    terminal). A done row neither bootstraps from the next row's value nor
    passes the recursion on, so one call can cover many segments. Returns
    (advantages, returns) with R_t = A_t + V(o_t).
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if values.shape[0] != rewards.shape[0] + 1:
        raise ValueError(
            f"values must have len(rewards)+1 entries, got {values.shape[0]} vs {rewards.shape[0]}"
        )
    if dones.shape[0] != rewards.shape[0]:
        raise ValueError("dones must align with rewards")
    adv = kernels.gae_backward(rewards, values, dones, float(gamma), float(lam))
    return adv, adv + values[:-1]


# ---------------------------------------------------------------------------
# surrogate pieces: one tape node each, or on plain arrays (``taped=False``,
# an ndarray ``u``) the node's value and VJP (``autodiff.loss_head``)


def ppo_ratio(new_logprob, old_logprob, taped=True):
    """exp(new - old) as one tape node; raises OverflowError with
    diagnostics instead of inf.

    The difference is ``new + (-old)`` and the VJP ``g * rho``, as the op
    chain ``exp(new - old)`` computes them; equal log-probs give exactly 1.
    """
    new = value_of(new_logprob)
    old = value_of(old_logprob)
    if not (np.isfinite(new).all() and np.isfinite(old).all()):
        raise ValueError("log-probabilities must be finite")
    diff = new + -old
    if diff.shape != new.shape:
        raise ValueError(f"old log-probs {old.shape} do not match new {new.shape}")
    diff_max = float(diff.max())
    if diff_max > 700.0:
        raise OverflowError(f"probability ratio overflow: max log-prob difference {diff_max:.3f}")
    rho = np.exp(diff)
    return loss_head(rho, (new_logprob,), lambda g: (g * rho,), "ppo_ratio", taped)


def clipped_pg_loss(rho, adv, clip_eps: float, taped=True):
    """mean over the batch of max(-A * rho, -A * clip(rho, 1-eps, 1+eps)).

    One tape node. The gradient of a row follows the unclipped branch unless
    the clipped branch is strictly larger, so at the tie (rho inside the clip
    band, where the two coincide) and at theta == theta_old the gradient is
    the plain policy gradient.
    """
    a = value_of(adv)
    r = value_of(rho)
    lo, hi = 1.0 - clip_eps, 1.0 + clip_eps
    neg_a = -a
    unclipped = neg_a * r
    clipped = neg_a * np.minimum(np.maximum(r, lo), hi)  # np.clip's values, NaN included
    on_clipped = clipped > unclipped

    def vjp(g):
        # the clipped branch passes gradient only where the clip is inactive
        slope = np.where(on_clipped & ((r <= lo) | (r > hi)), 0.0, neg_a)
        return (g * slope / r.size,)

    rows = np.maximum(unclipped, clipped)
    # ``mean`` is the sum divided by the count
    return loss_head(rows.sum() / rows.size, (rho,), vjp, "clipped_pg", taped)


def value_loss(v_pred, returns, taped=True):
    """0.5 * mean squared error between predictions and returns, as one tape
    node with the arithmetic of ``0.5 * square(v - returns).mean()``."""
    v = value_of(v_pred)
    d = v + -value_of(returns)
    if d.shape != v.shape:
        raise ValueError(f"returns do not match predictions {v.shape}")

    def vjp(g):
        # every entry of the broadcast ``(g * 0.5) * (1/n)`` is that one product
        return (((g * 0.5) * (1.0 / d.size)) * (2.0 * d),)

    return loss_head(0.5 * (np.square(d).sum() / d.size), (v_pred,), vjp, "value_loss", taped)


def bc_target(frozen_net, z1: np.ndarray, h_frozen: np.ndarray) -> np.ndarray:
    """The frozen net's one-step actions ``z1 - u(z1, 0, 1)`` from its
    embeddings ``h_frozen``: the BC regression target, on the plain-array
    forward, so it records nothing."""
    return z1 - frozen_net.velocity_arrays(z1, 0.0, 1.0, h_frozen)


def bc_loss(frozen_net, current_net, obs_batch, shared_noise, h=None, u=None, target=None):
    """Squared distance between one-step actions of the two nets from the
    same z1 draws; gradient flows into ``current_net`` only.

    ``h`` is the current net's embedding of ``obs_batch``, and ``u`` its
    velocity at (z1, r=0, tau=1), when the caller has already traced them;
    ``target`` is ``bc_target`` of the frozen net when the caller has
    computed it (``finetune`` does, once per epoch). The distance head
    ``square((z1 - u) - target).sum(1).mean()`` is one tape node; an ndarray
    ``u`` gives its value and VJP instead.
    """
    obs = np.asarray(obs_batch, dtype=np.float64)
    z1 = np.asarray(shared_noise, dtype=np.float64)
    if frozen_net.d_a != current_net.d_a or frozen_net.d_obs != current_net.d_obs:
        raise ValueError("frozen and current nets must share dims")
    if z1.shape != (obs.shape[0], current_net.d_a):
        raise ValueError(f"shared noise must be (B, {current_net.d_a})")
    if target is None:
        target = bc_target(frozen_net, z1, frozen_net.encode_arrays(obs))
    if u is None:
        B = obs.shape[0]
        if h is None:
            h = current_net.encode(Tensor(obs))
        u = current_net.velocity(Tensor(z1), Tensor(np.zeros((B, 1))), Tensor(np.ones((B, 1))), h=h)
    dist, grad = row_sq_mean((z1 + -value_of(u)) + -target)
    return loss_head(dist, (u,), lambda g: (-grad(g),), "bc_dist", type(u) is not np.ndarray)


def bc_schedule(n: int, config: Stage2Config) -> float:
    """Linear decay from lam_bc_init to lam_bc_final over [bc_decay_start, bc_decay_end)."""
    if n < 0:
        raise ValueError("iteration index must be >= 0")
    if n < config.bc_decay_start:
        return config.lam_bc_init
    if n >= config.bc_decay_end:
        return config.lam_bc_final
    frac = (n - config.bc_decay_start) / (config.bc_decay_end - config.bc_decay_start)
    return config.lam_bc_init + frac * (config.lam_bc_final - config.lam_bc_init)


# ---------------------------------------------------------------------------
# the minibatch loss


@lru_cache(maxsize=16)
def _fixed_sigma_entropy(K: int, d_a: int, sigma: float) -> float:
    """The entropy term with fixed sigma: a constant, computed once per
    (K, d_a, sigma) rather than once per minibatch."""
    return -policy_entropy(K, d_a, sigma)


def _learned_sigma_entropy(sigma_t, K: int, taped=True):
    """The entropy term with a learnable sigma, as one tape node (or, not
    ``taped``, its value and VJP): per step the closed form H = sum_d 0.5
    (1 + ln 2pi + 2 log sigma_d), computed as the op chain ``-float(K) *
    ((0.5 * (1 + ln 2pi) * d_a) + log(sigma).sum())`` computes it, and that
    chain's VJP (``g * -K``, passed through the add and the sum, times
    ``1 / sigma``)."""
    sig = value_of(sigma_t)
    log_sig = np.log(sig)
    _check_finite(log_sig, "log")
    ent = -float(K) * ((0.5 * (1.0 + LOG_2PI) * sig.size) + log_sig.sum())
    return loss_head(ent, (sigma_t,), lambda g: ((g * -float(K)) * (1.0 / sig),), "entropy", taped)


def _sigma(nets, config) -> np.ndarray:
    """The current transition scale as a (d_a,) array: ``exp(log_sigma)``,
    checked finite as the taped ``exp`` checks it, when sigma is learnable,
    else ``config.sigma`` in every entry."""
    if nets.log_sigma is None:
        return np.full(nets.policy.d_a, config.sigma)
    sig = np.exp(nets.log_sigma.data)
    _check_finite(sig, "exp")
    return sig


def _sigma_tensor(nets, config):
    """Current transition scale: traced tensor if learnable, else constant."""
    if nets.log_sigma is not None:
        return exp(nets.log_sigma)
    return Tensor(_sigma(nets, config))


@dataclass
class Stage2Nets:
    policy: object
    value: object
    frozen: object
    log_sigma: Tensor | None = None


@dataclass
class MiniBatch:
    obs: np.ndarray  # (M, d_obs)
    states: np.ndarray  # (M, K+1, d_a)
    old_logprobs: np.ndarray  # (M,)
    advantages: np.ndarray  # (M,)
    returns: np.ndarray  # (M,)
    bc_noise: np.ndarray  # (M, d_a)
    bc_target: np.ndarray | None = None  # (M, d_a) bc_target of the frozen net; computed when None


def _trunk_rows(batch: MiniBatch):
    """The policy trunk's stacked input ``(z, r, tau)`` for one minibatch:
    the chain's K steps, one M-row block per step (block k holds a^k at
    step k's ``flow_times``), then the BC rows z1 at (0, 1)."""
    M, K = batch.states.shape[0], batch.states.shape[1] - 1
    z = np.concatenate([*batch.states[:, :K].swapaxes(0, 1), batch.bc_noise])
    r = np.zeros(((K + 1) * M, 1))
    tau = np.ones(((K + 1) * M, 1))
    for k, (r_k, tau_k) in enumerate(flow_times(K)):
        r[k * M : (k + 1) * M] = r_k
        tau[k * M : (k + 1) * M] = tau_k
    return z, r, tau


def stage2_optimizer(nets: Stage2Nets, lr: float) -> Adam:
    """Adam over the stage-2 parameters, listed in the order the taped loss
    first uses them (log-sigma, the policy's, the value net's), so the
    clipping norm sums the gradient in the tape's leaf order and rounds as
    it would over the tape's gradients."""
    first = [] if nets.log_sigma is None else [nets.log_sigma]
    return Adam(first + nets.policy.parameters() + nets.value.parameters(), lr=lr)


def stage2_loss(batch: MiniBatch, nets: Stage2Nets, config: Stage2Config, n: int, grads=None):
    """Total fine-tuning loss and its component breakdown.

    total = L_PG + lam_value * L_V + lam_entropy * L_ent + lam_bc(n) * L_BC

    Given ``grads`` (the ``Adam.grads`` of ``stage2_optimizer``) the
    minibatch runs on plain arrays instead (``stage2_step``): the gradient
    is written there and the total comes back as a float.
    """
    if grads is not None:
        return stage2_step(batch, nets, config, n, grads)
    M, K = batch.states.shape[0], batch.states.shape[1] - 1
    d_a = nets.policy.d_a
    sigma_t = _sigma_tensor(nets, config)

    # One traced encoder pass and one trunk pass over stacked rows serve the
    # chain's K steps and the BC rows (``_trunk_rows``). A row in a full
    # block of 4 rounds as in an M-row pass (sampler module docstring), so
    # at M % 4 == 0 the chain rows equal per-step passes bit for bit.
    h = nets.policy.encode(Tensor(batch.obs))
    z, r, tau = _trunk_rows(batch)
    u = nets.policy.velocity(Tensor(z), Tensor(r), Tensor(tau), h=concat([h] * (K + 1), axis=0))
    u_chain, u_bc = split_rows(u, K * M)
    new_lp = chain_logprob_traced(nets.policy, batch.states, batch.obs, sigma_t, K, u=u_chain)
    rho = ppo_ratio(new_lp, batch.old_logprobs)
    pg = clipped_pg_loss(rho, batch.advantages, config.clip_eps)

    v_pred = nets.value.value(Tensor(batch.obs))
    v = value_loss(v_pred, batch.returns)

    if nets.log_sigma is not None:
        ent = _learned_sigma_entropy(sigma_t, K)
    else:
        ent = Tensor(_fixed_sigma_entropy(K, d_a, config.sigma))

    bc = bc_loss(nets.frozen, nets.policy, batch.obs, batch.bc_noise, u=u_bc, target=batch.bc_target)
    lam_bc = bc_schedule(n, config)

    total = weighted_sum(
        [pg, v, ent, bc], [1.0, config.lam_value, config.lam_entropy, lam_bc], "stage2_total"
    )
    parts = {
        "pg": pg.item(),
        "v": v.item(),
        "ent": ent.item(),
        "bc": bc.item(),
        "lambda_bc": lam_bc,
        "total": total.item(),
        "rho": rho.data,
    }
    return total, parts


def stage2_step(batch: MiniBatch, nets: Stage2Nets, config: Stage2Config, n: int, grads: dict):
    """One fine-tune minibatch on plain arrays: the gradient of the stage-2
    total written into ``grads`` (parameter Tensor -> array, as
    ``Adam.grads``), and ``(total, parts)`` as ``stage2_loss`` gives them,
    the total a float.

    These are the values and gradients of the taped loss and one
    ``Graph.backward``, bit for bit: the same passes (one encoder pass and
    one trunk pass over ``_trunk_rows``) and heads, each head untaped,
    giving its value and its VJP. The weighted total over the head values
    is untaped too (``weighted_sum(..., taped=False)``): its VJP at a seed of
    1.0 gives the cotangents ``w_i`` that seed the heads' VJPs, so no tape
    is recorded and no ``Graph.backward`` runs. Where two cotangents meet,
    they are summed in the tape's reverse
    node order: sigma's entropy part before the chain head's, and h's K+1
    stacked blocks in order, as the taped ``concat``'s VJP sums them.
    """
    policy = nets.policy
    M, K = batch.states.shape[0], batch.states.shape[1] - 1
    learnable = nets.log_sigma is not None
    sig = _sigma(nets, config)
    sigma_t = Tensor(sig, requires_grad=learnable)

    h, enc = policy.encode(batch.obs, keep=True)
    z, r, tau = _trunk_rows(batch)
    u, trunk = policy.velocity((z, None), r, tau, h=np.concatenate([h] * (K + 1)))
    new_lp, lp_vjp = chain_logprob_traced(policy, batch.states, batch.obs, sigma_t, K, u=u[: K * M])
    rho, rho_vjp = ppo_ratio(new_lp, batch.old_logprobs, taped=False)
    pg, pg_vjp = clipped_pg_loss(rho, batch.advantages, config.clip_eps, taped=False)
    v_pred, value_acts = nets.value.value(batch.obs, keep=True)
    v, v_vjp = value_loss(v_pred, batch.returns, taped=False)
    if learnable:
        ent, ent_vjp = _learned_sigma_entropy(sigma_t, K, taped=False)
    else:
        ent = _fixed_sigma_entropy(K, policy.d_a, config.sigma)
    bc, bc_vjp = bc_loss(nets.frozen, policy, batch.obs, batch.bc_noise, u=u[K * M :], target=batch.bc_target)
    lam_bc = bc_schedule(n, config)

    total, total_vjp = weighted_sum(
        (pg, v, ent, bc), (1.0, config.lam_value, config.lam_entropy, lam_bc), "stage2_total", taped=False
    )
    c_pg, c_v, c_ent, c_bc = total_vjp(1.0)

    g_bc = bc_vjp(c_bc)[0]
    nets.value.value_vjp(v_vjp(c_v)[0], value_acts, grads)
    g_u, g_sigma = lp_vjp(rho_vjp(pg_vjp(c_pg)[0])[0])
    g_hh = policy.velocity_vjp(np.concatenate((g_u, g_bc)), trunk, grads)
    g_h = g_hh[:M]
    for k in range(1, K + 1):
        g_h = g_h + g_hh[k * M : (k + 1) * M]
    policy.encode_vjp(g_h, enc, grads)
    if learnable:
        # exp's VJP of the summed cotangent: g * exp(log_sigma)
        np.multiply(ent_vjp(c_ent)[0] + g_sigma, sig, out=grads[nets.log_sigma])

    parts = {
        "pg": float(pg),
        "v": float(v),
        "ent": float(ent),
        "bc": float(bc),
        "lambda_bc": lam_bc,
        "total": float(total),
        "rho": rho,
    }
    return parts["total"], parts


# ---------------------------------------------------------------------------
# rollout collection and the outer loop


@dataclass
class RolloutBatch:
    obs: np.ndarray  # (N, d_obs)
    next_obs: np.ndarray  # (N, d_obs), pre-reset at episode ends
    states: np.ndarray  # (N, K+1, d_a)
    rewards: np.ndarray  # (N,)
    terminals: np.ndarray  # (N,) true termination (bootstrap 0)
    dones: np.ndarray  # (N,) segment ends (termination or truncation)
    values: np.ndarray  # (N,)
    old_logprobs: np.ndarray  # (N,)
    advantages: np.ndarray = field(default=None)
    returns: np.ndarray = field(default=None)
    env_slices: list = field(default_factory=list)  # per-env contiguous ranges


def collect_rollouts(nets: Stage2Nets, envs_list, env_rngs, obs_cur, config: Stage2Config):
    """Lockstep collection: each env contributes rollout_steps / n_envs steps.

    Environments persist across calls (episodes may span iterations, and
    each env's ``episode_return`` carries the running return across them);
    all randomness comes from the per-env generator streams, so results do
    not depend on how rows are batched.
    """
    E = config.n_envs
    for name, given in (("envs_list", envs_list), ("env_rngs", env_rngs), ("obs_cur", obs_cur)):
        if len(given) != E:
            raise ValueError(f"{name} has {len(given)} entries but config.n_envs is {E}")
    T = config.rollout_steps // E
    N = E * T
    d_obs = nets.policy.d_obs
    d_a = nets.policy.d_a
    sig = _sigma(nets, config)

    obs_buf = np.empty((E, T, d_obs))
    next_buf = np.empty((E, T, d_obs))
    states_buf = np.empty((E, T, config.K + 1, d_a))
    rew_buf = np.empty((E, T))
    term_buf = np.zeros((E, T))
    done_buf = np.zeros((E, T))
    lp_buf = np.empty((E, T))
    finished = []  # (return, success) per completed episode

    # the current observations stay one (E, d_obs) array across the window
    # and go back into ``obs_cur`` at its end
    obs_mat = np.stack(obs_cur)
    for t in range(T):
        states, _, _, logprobs = sample_chain_batch(nets.policy, obs_mat, config.K, sig, env_rngs)
        actions = states[:, -1]
        obs_buf[:, t] = obs_mat
        states_buf[:, t] = states
        lp_buf[:, t] = logprobs
        next_t, rew_t = next_buf[:, t], rew_buf[:, t]
        resets = []
        for e, env in enumerate(envs_list):
            next_t[e], r, done = env.step(actions[e])
            rew_t[e] = r
            # episodes span collection windows, so the running return lives on the env
            env.episode_return += r
            if done:
                done_buf[e, t] = 1.0
                if env.terminated:
                    term_buf[e, t] = 1.0
                finished.append((env.episode_return, bool(env.success)))
                resets.append((e, env.reset(int(env_rngs[e].integers(2**63)))))
        # every row moves on to its next observation, a reset row to its
        # reset one
        obs_mat[...] = next_t
        for e, o in resets:
            obs_mat[e] = o
    obs_cur[:] = list(obs_mat)

    # values do not feed actions, so one call covers the window; a row's
    # value equals a per-step call's when both batches are multiples of 4
    # rows (sampler module docstring), and agrees to rounding otherwise
    obs_rows = obs_buf.reshape(N, d_obs)
    batch = RolloutBatch(
        obs=obs_rows,
        next_obs=next_buf.reshape(N, d_obs),
        states=states_buf.reshape(N, config.K + 1, d_a),
        rewards=rew_buf.reshape(N),
        terminals=term_buf.reshape(N),
        dones=done_buf.reshape(N),
        values=nets.value.value(obs_rows),
        old_logprobs=lp_buf.reshape(N),
        env_slices=[(e * T, (e + 1) * T) for e in range(E)],
    )
    return batch, finished


def compute_advantages(batch: RolloutBatch, value_net, config: Stage2Config) -> None:
    """GAE in one backward pass over the env-major batch.

    A row is a cut when it is a done or the last row of its env's window;
    the cuts stop the recursion. A truncated cut (not a true terminal)
    bootstraps from V of its recorded pre-reset next obs, folded into its
    reward as gamma * V; one value call covers every such row. Both steps
    leave each segment's recursion exactly as a separate per-segment pass.
    """
    cuts = batch.dones > 0.5
    cuts[[hi - 1 for _, hi in batch.env_slices]] = True
    rewards = batch.rewards.copy()
    trunc = np.flatnonzero(cuts & (batch.terminals < 0.5))
    if trunc.size:
        rewards[trunc] += config.gamma * value_net.value(batch.next_obs[trunc])
    values = np.append(batch.values, 0.0)
    batch.advantages, batch.returns = gae(rewards, values, cuts, config.gamma, config.lam_gae)


# glibc's ``mallopt`` parameter numbers and the values set: the smallest
# powers of two that leave a fresh fine-tune process with fewer than 30
# minor faults in each iteration after its first (0-10 from the third), at
# 1 and 2 BLAS threads, at K = 1, 5 and 20, K = 3 with learnable sigma, and
# K = 2 over 160-row minibatches
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_TRIM_BYTES = 8 << 20
_HEAP_MMAP_BYTES = 1 << 20


def _keep_heap_resident() -> bool:
    """Keep up to ``_HEAP_TRIM_BYTES`` free at the top of the C heap rather
    than returning it to the kernel, and serve blocks below
    ``_HEAP_MMAP_BYTES`` from the heap rather than from a fresh mapping;
    returns whether ``mallopt`` took both settings.

    The settings cover the whole process and outlive the call. A fixed trim
    threshold alone also stops glibc from raising its mmap threshold as
    mapped blocks are freed, so larger blocks get mapped and faulted in
    afresh on every allocation: at 2 BLAS threads it left 50 faults per
    iteration (blocks between 512 KiB and 1 MiB), where glibc's defaults
    read 0; hence both. Where the C library has no ``mallopt`` (not glibc)
    this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    trimmed = mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_BYTES) == 1
    return mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_BYTES) == 1 and trimmed


def _nonfinite_grad(nets: Stage2Nets, grads: dict, norm: float) -> NonFiniteError:
    """The error for a gradient whose norm is not finite, naming the first
    parameter, in ``stage2_optimizer`` order, whose gradient is not."""
    named = [("log_sigma", nets.log_sigma)] if nets.log_sigma is not None else []
    for net in ("policy", "value"):
        named += [(f"{net} {n}", p) for n, p in getattr(nets, net).params.items()]
    bad = first_nonfinite_grad(named, grads)
    where = f"the gradient of {bad}" if bad else f"a gradient norm of {norm}"
    return NonFiniteError(f"non-finite values produced by op 'backward' in {where}")


def _mean_or_zero(xs) -> float:
    # ``np.mean``'s value, the sum over the count, or 0.0 for no entries
    return float(np.array(xs).sum() / len(xs)) if xs else 0.0


def finetune(pretrained_net, env_factory, config: Stage2Config, metrics_path=None):
    """Full Algorithm: iterate collect -> GAE -> minibatch epochs on the
    joint loss. Returns (policy, value_net, metrics rows); each row is also
    appended to ``metrics_path`` as its iteration ends. The frozen BC
    reference is a clone of the input and is never updated. A non-finite op
    in a minibatch's loss or backward raises ``RuntimeError`` naming the
    iteration, the minibatch (counted across the iteration's epochs) and
    the op; a non-finite gradient norm names op 'backward' and the first
    parameter whose gradient is not finite. Fixes glibc's heap thresholds
    for the whole process first (``_keep_heap_resident``)."""
    _keep_heap_resident()
    policy = pretrained_net.clone()
    frozen = pretrained_net.clone()
    value_net = init_value_net(config.seed, pretrained_net.d_obs)
    log_sigma = None
    if config.sigma_learnable:
        log_sigma = Tensor(np.full(pretrained_net.d_a, np.log(config.sigma)), requires_grad=True)
    nets = Stage2Nets(policy=policy, value=value_net, frozen=frozen, log_sigma=log_sigma)

    opt = stage2_optimizer(nets, config.lr)

    ss = np.random.SeedSequence(config.seed)
    children = ss.spawn(config.n_envs + 1)
    env_rngs = [np.random.default_rng(s) for s in children[: config.n_envs]]
    update_rng = np.random.default_rng(children[-1])

    envs_list = [env_factory() for _ in range(config.n_envs)]
    obs_cur = [env.reset(int(env_rngs[e].integers(2**63))) for e, env in enumerate(envs_list)]

    recent_returns: deque = deque(maxlen=20)
    recent_success: deque = deque(maxlen=20)
    metrics = []
    add_row = metrics_csv(metrics_path, METRIC_COLUMNS)

    for n in range(config.iterations):
        batch, finished = collect_rollouts(nets, envs_list, env_rngs, obs_cur, config)
        for ep_ret, ep_succ in finished:
            recent_returns.append(ep_ret)
            recent_success.append(1.0 if ep_succ else 0.0)
        compute_advantages(batch, value_net, config)

        adv = batch.advantages
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)

        N = batch.obs.shape[0]
        # the frozen reference's embedding of every rollout row, once per iteration
        h_frozen = frozen.encode_arrays(batch.obs)
        parts_acc = {"pg": 0.0, "v": 0.0, "ent": 0.0, "bc": 0.0}
        clip_hits = 0
        kl_sum = 0.0
        norm_sum = 0.0
        n_rows = 0
        n_mb = 0
        for _ in range(config.epochs):
            order = update_rng.permutation(N)
            # The epoch's BC noise in one draw: a generator fills an array in
            # order, so these are the numbers that one draw per minibatch
            # gives, leaving the generator in the same state. Their frozen
            # targets come from one N-row pass, equal to per-minibatch passes
            # when N and the minibatch size are multiples of 4.
            noise = update_rng.standard_normal((N, policy.d_a))
            targets = bc_target(frozen, noise, h_frozen[order])
            obs, states, old_lp, adv_e, ret = (
                x[order] for x in (batch.obs, batch.states, batch.old_logprobs, adv, batch.returns)
            )
            for lo in range(0, N, config.minibatch_size):
                rows = slice(lo, lo + config.minibatch_size)
                mb = MiniBatch(
                    obs=obs[rows],
                    states=states[rows],
                    old_logprobs=old_lp[rows],
                    advantages=adv_e[rows],
                    returns=ret[rows],
                    bc_noise=noise[rows],
                    bc_target=targets[rows],
                )
                try:
                    _, parts = stage2_loss(mb, nets, config, n, opt.grads)
                    # a grad_clip of 0 turns clipping off; the pre-clip norm is logged either way
                    norm = clip_grad_norm(opt._g, config.grad_clip or math.inf)
                    if not math.isfinite(norm):
                        raise _nonfinite_grad(nets, opt.grads, norm)
                except FloatingPointError as e:
                    raise RuntimeError(
                        f"fine-tuning diverged at iteration {n} minibatch {n_mb}: {e}"
                    ) from e
                norm_sum += norm
                opt.step()
                rho = parts.pop("rho")
                rho_1 = rho - 1.0
                clip_hits += int((np.abs(rho_1) > config.clip_eps).sum())
                kl_sum += float((rho_1 - np.log(np.maximum(rho, 1e-300))).sum())
                n_rows += rho.size
                n_mb += 1
                for k in parts_acc:
                    parts_acc[k] += parts[k]

        lam_bc = bc_schedule(n, config)
        metrics.append(
            {
                "iter": n,
                "mean_return": _mean_or_zero(recent_returns),
                "success_rate": _mean_or_zero(recent_success),
                "pg": parts_acc["pg"] / max(n_mb, 1),
                "v": parts_acc["v"] / max(n_mb, 1),
                "ent": parts_acc["ent"] / max(n_mb, 1),
                "bc": parts_acc["bc"] / max(n_mb, 1),
                "lambda_bc": lam_bc,
                "clip_frac": clip_hits / max(n_rows, 1),
                "approx_kl": kl_sum / max(n_rows, 1),
                "grad_norm": norm_sum / max(n_mb, 1),
            }
        )
        add_row(metrics[-1])
    return policy, value_net, metrics
