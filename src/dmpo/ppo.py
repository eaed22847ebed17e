"""Stage 2 fine-tuning: GAE, the clipped surrogate over denoising chains,
value and entropy terms, behavior-cloning regularization with linear decay,
and the full collect/update loop.

The chain's transition log-probability sum (prior excluded; it cancels in
the ratio) is recomputed under the tape each epoch by
``sampler.chain_logprob_traced``, which repeats the sampler's arithmetic,
so the ratio is 1 at theta_old. One advantage per environment step credits
every denoising transition that produced the executed action. With fixed
sigma the entropy term is a constant reported for the breakdown; an
optional learnable per-dimension log-sigma head makes it (and the ratio)
sigma-differentiable.

Per minibatch the policy encoder runs once, traced, and its embedding feeds
both the chain log-prob and the BC term; the frozen BC reference runs on
the plain-array forward and adds nothing to the tape. Around the MLP layers
every loss head is a single tape node with a hand-written VJP
(``autodiff.custom_op``): each transition's Gaussian log-density, the ratio,
the clipped surrogate, the value loss, the BC distance and the weighted
total, so a K=1 fixed-sigma minibatch tapes 20 nodes. Each fused head
repeats the arithmetic of the op chain it replaces, in the same order, so
values and gradients equal that chain's bit for bit. Rollouts are collected
as stacked arrays, one ``[:, t]`` row per step across environments, and GAE
runs as one backward pass over the whole batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .autodiff import Graph, Tensor, as_tensor, custom_op, exp, log, row_sq_mean, value_of, weighted_sum
from .io import write_metrics_csv
from .nets import Adam, clip_grad_norm, init_value_net
from .sampler import LOG_2PI, chain_logprob_traced, sample_chain_batch, step_entropy

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
    normalize_advantages: bool = True
    value_width: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must be in [0, 1)")
        if not (0.0 <= self.lam_gae <= 1.0):
            raise ValueError("lam_gae must be in [0, 1]")
        if self.clip_eps <= 0:
            raise ValueError("clip_eps must be > 0")
        if min(self.lam_value, self.lam_entropy, self.lam_bc_init, self.lam_bc_final) < 0:
            raise ValueError("loss coefficients must be >= 0")
        if self.bc_decay_start >= self.bc_decay_end:
            raise ValueError("bc_decay_start must be < bc_decay_end")
        if self.K < 1 or self.sigma <= 0:
            raise ValueError("need K >= 1 and sigma > 0")
        if min(self.iterations, self.epochs) < 0:
            raise ValueError("loop sizes must be nonnegative")
        if self.n_envs < 1 or self.minibatch_size < 1:
            raise ValueError("n_envs and minibatch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.grad_clip < 0:
            raise ValueError("grad_clip must be >= 0 (0 turns clipping off)")
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
# surrogate pieces (single nodes: usable plain or under a tape)


def ppo_ratio(new_logprob, old_logprob):
    """exp(new - old) as one tape node; raises OverflowError with
    diagnostics instead of inf.

    The difference is ``new + (-old)`` and the VJP ``g * rho``, as the op
    chain ``exp(new - old)`` computes them; equal log-probs give exactly 1.
    """
    new = as_tensor(new_logprob)
    old = value_of(old_logprob)
    if not (np.all(np.isfinite(new.data)) and np.all(np.isfinite(old))):
        raise ValueError("log-probabilities must be finite")
    diff = new.data + -old
    if diff.shape != new.shape:
        raise ValueError(f"old log-probs {old.shape} do not match new {new.shape}")
    diff_max = float(np.max(diff))
    if diff_max > 700.0:
        raise OverflowError(f"probability ratio overflow: max log-prob difference {diff_max:.3f}")
    rho = np.exp(diff)
    return custom_op(rho, (new,), lambda g: (g * rho,), "ppo_ratio")


def clipped_pg_loss(rho, adv, clip_eps: float):
    """mean over the batch of max(-A * rho, -A * clip(rho, 1-eps, 1+eps)).

    One tape node. The gradient of a row follows the unclipped branch unless
    the clipped branch is strictly larger, so at the tie (rho inside the clip
    band, where the two coincide) and at theta == theta_old the gradient is
    the plain policy gradient.
    """
    rho_t = as_tensor(rho)
    a = value_of(adv)
    r = rho_t.data
    lo, hi = 1.0 - clip_eps, 1.0 + clip_eps
    unclipped = -a * r
    clipped = -a * np.clip(r, lo, hi)
    on_clipped = clipped > unclipped

    def vjp(g):
        # the clipped branch passes gradient only where the clip is inactive
        slope = np.where(on_clipped & ((r <= lo) | (r > hi)), 0.0, -a)
        return (g * slope / r.size,)

    return custom_op(np.maximum(unclipped, clipped).mean(), (rho_t,), vjp, "clipped_pg")


def value_loss(v_pred, returns):
    """0.5 * mean squared error between predictions and returns, as one tape
    node with the arithmetic of ``0.5 * square(v - returns).mean()``."""
    v = as_tensor(v_pred)
    d = v.data + -value_of(returns)
    if d.shape != v.shape:
        raise ValueError(f"returns do not match predictions {v.shape}")

    def vjp(g):
        return ((np.broadcast_to(g * 0.5, d.shape) * (1.0 / d.size)) * (2.0 * d),)

    return custom_op(0.5 * np.square(d).mean(), (v,), vjp, "value_loss")


def bc_loss(frozen_net, current_net, obs_batch, shared_noise, h=None):
    """Squared distance between one-step actions of the two nets from the
    same z1 draws; gradient flows into ``current_net`` only.

    ``h`` is the current net's embedding of ``obs_batch`` when the caller
    has already traced it. The frozen reference runs on the plain-array
    forward and records nothing. The distance head
    ``square((z1 - u) - a_frozen).sum(1).mean()`` over the current velocity
    ``u`` is one tape node.
    """
    obs = np.asarray(obs_batch, dtype=np.float64)
    z1 = np.asarray(shared_noise, dtype=np.float64)
    if frozen_net.d_a != current_net.d_a or frozen_net.d_obs != current_net.d_obs:
        raise ValueError("frozen and current nets must share dims")
    if z1.shape != (obs.shape[0], current_net.d_a):
        raise ValueError(f"shared noise must be (B, {current_net.d_a})")
    B = obs.shape[0]
    a_frozen = z1 - frozen_net.velocity_arrays(z1, 0.0, 1.0, frozen_net.encode_arrays(obs))
    if h is None:
        h = current_net.encode(Tensor(obs))
    u_cur = current_net.velocity(Tensor(z1), Tensor(np.zeros((B, 1))), Tensor(np.ones((B, 1))), h=h)
    dist, grad = row_sq_mean((z1 + -u_cur.data) + -a_frozen)
    return custom_op(dist, (u_cur,), lambda g: (-grad(g),), "bc_dist")


def bc_schedule(n: int, config: Stage2Config) -> float:
    """Linear decay from lam_bc_init to lam_bc_final over [bc_decay_start, bc_decay_end)."""
    if n < 0:
        raise ValueError("iteration index must be >= 0")
    if config.bc_decay_start >= config.bc_decay_end:
        raise ValueError("bc_decay_start must be < bc_decay_end")
    if n < config.bc_decay_start:
        return config.lam_bc_init
    if n >= config.bc_decay_end:
        return config.lam_bc_final
    frac = (n - config.bc_decay_start) / (config.bc_decay_end - config.bc_decay_start)
    return config.lam_bc_init + frac * (config.lam_bc_final - config.lam_bc_init)


# ---------------------------------------------------------------------------
# the minibatch loss


def _sigma_tensor(nets, config):
    """Current transition scale: traced tensor if learnable, else constant."""
    if nets.log_sigma is not None:
        return exp(nets.log_sigma)
    return Tensor(np.full(nets.policy.d_a, config.sigma))


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


def stage2_loss(batch: MiniBatch, nets: Stage2Nets, config: Stage2Config, n: int):
    """Total fine-tuning loss and its component breakdown.

    total = L_PG + lam_value * L_V + lam_entropy * L_ent + lam_bc(n) * L_BC
    """
    K = batch.states.shape[1] - 1
    d_a = nets.policy.d_a
    sigma_t = _sigma_tensor(nets, config)

    # one traced encoder pass serves the chain log-prob and the BC term
    h = nets.policy.encode(Tensor(batch.obs))
    new_lp = chain_logprob_traced(nets.policy, batch.states, batch.obs, sigma_t, K, h=h)
    rho = ppo_ratio(new_lp, batch.old_logprobs)
    pg = clipped_pg_loss(rho, batch.advantages, config.clip_eps)

    v_pred = nets.value.value(Tensor(batch.obs))
    v = value_loss(v_pred, batch.returns)

    if nets.log_sigma is not None:
        # differentiable closed form: H = sum_d 0.5 (1 + ln 2pi + 2 log sigma_d) per step
        ent_per_step = (0.5 * (1.0 + LOG_2PI) * d_a) + log(sigma_t).sum()
        ent = -float(K) * ent_per_step
    else:
        ent = Tensor(-float(K) * step_entropy(d_a, config.sigma))

    bc = bc_loss(nets.frozen, nets.policy, batch.obs, batch.bc_noise, h=h)
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


# ---------------------------------------------------------------------------
# rollout collection and the outer loop


@dataclass
class RolloutBatch:
    obs: np.ndarray  # (N, d_obs)
    next_obs: np.ndarray  # (N, d_obs), pre-reset at episode ends
    states: np.ndarray  # (N, K+1, d_a)
    actions: np.ndarray  # (N, d_a) executed (post-clamp)
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
    d_obs = nets.policy.d_obs
    d_a = nets.policy.d_a
    sigma = np.exp(nets.log_sigma.data) if nets.log_sigma is not None else config.sigma

    obs_buf = np.empty((E, T, d_obs))
    next_buf = np.empty((E, T, d_obs))
    states_buf = np.empty((E, T, config.K + 1, d_a))
    act_buf = np.empty((E, T, d_a))
    rew_buf = np.empty((E, T))
    term_buf = np.zeros((E, T))
    done_buf = np.zeros((E, T))
    val_buf = np.empty((E, T))
    lp_buf = np.empty((E, T))
    finished = []  # (return, success) per completed episode

    low = np.stack([env.action_low for env in envs_list])
    high = np.stack([env.action_high for env in envs_list])
    # the current observations stay one (E, d_obs) array across the window
    # and go back into ``obs_cur`` at its end
    obs_mat = np.stack(obs_cur)
    for t in range(T):
        states, _, _, logprobs = sample_chain_batch(nets.policy, obs_mat, config.K, sigma, env_rngs)
        actions = states[:, -1]
        obs_buf[:, t] = obs_mat
        states_buf[:, t] = states
        np.minimum(np.maximum(actions, low), high, out=act_buf[:, t])
        val_buf[:, t] = nets.value.value(obs_mat)
        lp_buf[:, t] = logprobs
        for e, env in enumerate(envs_list):
            nxt, r, done = env.step(actions[e])
            next_buf[e, t] = nxt
            rew_buf[e, t] = r
            # episodes span collection windows, so the running return lives on the env
            env.episode_return += r
            if done:
                done_buf[e, t] = 1.0
                if env.terminated:
                    term_buf[e, t] = 1.0
                finished.append((env.episode_return, bool(env.success)))
                nxt = env.reset(int(env_rngs[e].integers(2**63)))
            obs_mat[e] = nxt
    obs_cur[:] = list(obs_mat)

    N = E * T
    batch = RolloutBatch(
        obs=obs_buf.reshape(N, d_obs),
        next_obs=next_buf.reshape(N, d_obs),
        states=states_buf.reshape(N, config.K + 1, d_a),
        actions=act_buf.reshape(N, d_a),
        rewards=rew_buf.reshape(N),
        terminals=term_buf.reshape(N),
        dones=done_buf.reshape(N),
        values=val_buf.reshape(N),
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


def finetune(pretrained_net, env_factory, config: Stage2Config, metrics_path=None):
    """Full Algorithm: iterate collect -> GAE -> minibatch epochs on the
    joint loss. Returns (policy, value_net, metrics rows). The frozen BC
    reference is a clone of the input and is never updated. A non-finite op
    in a minibatch's loss or backward raises ``RuntimeError`` naming the
    iteration, the minibatch (counted across the iteration's epochs) and
    the op."""
    policy = pretrained_net.clone()
    frozen = pretrained_net.clone()
    value_net = init_value_net(config.seed, pretrained_net.d_obs, config.value_width)
    log_sigma = None
    if config.sigma_learnable:
        log_sigma = Tensor(np.full(pretrained_net.d_a, np.log(config.sigma)), requires_grad=True)
    nets = Stage2Nets(policy=policy, value=value_net, frozen=frozen, log_sigma=log_sigma)

    params = policy.parameters() + value_net.parameters()
    if log_sigma is not None:
        params.append(log_sigma)
    opt = Adam(params, lr=config.lr)

    ss = np.random.SeedSequence(config.seed)
    children = ss.spawn(config.n_envs + 1)
    env_rngs = [np.random.default_rng(s) for s in children[: config.n_envs]]
    update_rng = np.random.default_rng(children[-1])

    envs_list = [env_factory() for _ in range(config.n_envs)]
    obs_cur = [env.reset(int(env_rngs[e].integers(2**63))) for e, env in enumerate(envs_list)]

    recent_returns: deque = deque(maxlen=20)
    recent_success: deque = deque(maxlen=20)
    metrics = []

    for n in range(config.iterations):
        batch, finished = collect_rollouts(nets, envs_list, env_rngs, obs_cur, config)
        for ep_ret, ep_succ in finished:
            recent_returns.append(ep_ret)
            recent_success.append(1.0 if ep_succ else 0.0)
        compute_advantages(batch, value_net, config)

        adv = batch.advantages
        if config.normalize_advantages:
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)

        N = batch.obs.shape[0]
        parts_acc = {"pg": 0.0, "v": 0.0, "ent": 0.0, "bc": 0.0}
        clip_hits = 0
        kl_sum = 0.0
        n_rows = 0
        n_mb = 0
        for _ in range(config.epochs):
            order = update_rng.permutation(N)
            for lo in range(0, N, config.minibatch_size):
                idx = order[lo : lo + config.minibatch_size]
                mb = MiniBatch(
                    obs=np.ascontiguousarray(batch.obs[idx]),
                    states=np.ascontiguousarray(batch.states[idx]),
                    old_logprobs=batch.old_logprobs[idx],
                    advantages=adv[idx],
                    returns=batch.returns[idx],
                    bc_noise=update_rng.standard_normal((idx.size, policy.d_a)),
                )
                try:
                    with Graph() as g:
                        total, parts = stage2_loss(mb, nets, config, n)
                    grads = g.backward(total)
                except FloatingPointError as e:
                    raise RuntimeError(
                        f"fine-tuning diverged at iteration {n} minibatch {n_mb}: {e}"
                    ) from e
                if config.grad_clip > 0:
                    clip_grad_norm(grads, config.grad_clip)
                opt.step(grads)
                rho = parts.pop("rho")
                clip_hits += int(np.sum(np.abs(rho - 1.0) > config.clip_eps))
                kl_sum += float(np.sum((rho - 1.0) - np.log(np.maximum(rho, 1e-300))))
                n_rows += idx.size
                n_mb += 1
                for k in parts_acc:
                    parts_acc[k] += parts[k]

        lam_bc = bc_schedule(n, config)
        metrics.append(
            {
                "iter": n,
                "mean_return": float(np.mean(recent_returns)) if recent_returns else 0.0,
                "success_rate": float(np.mean(recent_success)) if recent_success else 0.0,
                "pg": parts_acc["pg"] / max(n_mb, 1),
                "v": parts_acc["v"] / max(n_mb, 1),
                "ent": parts_acc["ent"] / max(n_mb, 1),
                "bc": parts_acc["bc"] / max(n_mb, 1),
                "lambda_bc": lam_bc,
                "clip_frac": clip_hits / max(n_rows, 1),
                "approx_kl": kl_sum / max(n_rows, 1),
            }
        )

    if metrics_path is not None:
        write_metrics_csv(metrics_path, METRIC_COLUMNS, metrics)
    return policy, value_net, metrics
