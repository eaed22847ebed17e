"""Stage 1 pre-training: interpolation, logit-normal time pairs, the
JVP-derived target velocity, the mean-velocity regression loss, and the
training loop combining it with dispersive regularization.

The target for the regression is self-consistent: it contains the network's
own directional derivative along (v, 0, 1) but is treated as a constant
(stop-gradient), so optimization only flows through the prediction branch.
A training step runs one forward: the encoder once, then one dual-number
velocity pass over recorded Tensors that yields the taped prediction and,
as a constant, its derivative in tau (MeanFlow's ``u, dudt = jvp(...)``).
The squared distance to the target and the total ``mf + alpha * disp`` are
one tape node each, with the arithmetic of the op chains they replace, so a
hinge step tapes 9 nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .autodiff import DualTensor, Graph, Tensor, custom_op, no_record, row_sq_mean, weighted_sum
from .dispersive import DISP_KINDS, dispersive_loss, effective_rank
from .io import write_metrics_csv
from .nets import Adam, VelocityNet, init_velocity_net

METRIC_COLUMNS = ("epoch", "step", "mf_loss", "disp_loss", "total_loss", "d_eff", "wall_ms")


@dataclass
class Stage1Batch:
    obs: np.ndarray  # (B, d_obs)
    actions: np.ndarray  # (B, d_a)
    noise: np.ndarray  # (B, d_a)
    r: np.ndarray  # (B,)
    tau: np.ndarray  # (B,)

    def __post_init__(self):
        B = self.obs.shape[0]
        if not (self.actions.shape[0] == self.noise.shape[0] == self.r.shape[0] == self.tau.shape[0] == B):
            raise ValueError("inconsistent batch sizes")
        if self.actions.shape != self.noise.shape:
            raise ValueError("noise must match action shape")
        if not np.all(np.isfinite(self.noise)):
            raise ValueError("non-finite noise")
        if np.any(self.r > self.tau) or np.any(self.r < 0.0) or np.any(self.tau > 1.0):
            raise ValueError("time pairs must satisfy 0 <= r <= tau <= 1")


@dataclass
class Stage1Config:
    alpha_disp: float = 0.1
    # hinge keeps the tanh encoder healthy at this scale; the nce variants
    # remain selectable (nce-l2's norm-growth numerator saturates it)
    disp_kind: str = "hinge"
    disp_temperature: float = 0.1
    hinge_margin: float = 1.0
    rho_inst: float = 0.1
    full_interval_frac: float = 0.1
    lr: float = 1e-3
    epochs: int = 400
    batch_size: int = 64
    seed: int = 0
    d_h: int = 32
    enc_width: int = 64
    trunk_width: int = 64

    def __post_init__(self):
        if self.alpha_disp < 0:
            raise ValueError("alpha_disp must be >= 0")
        if self.disp_kind not in DISP_KINDS:
            raise ValueError(f"disp_kind must be one of {DISP_KINDS}")
        if self.disp_temperature <= 0:
            raise ValueError("disp_temperature must be > 0")
        if self.hinge_margin <= 0:
            raise ValueError("hinge_margin must be > 0")
        if not (0.0 <= self.rho_inst <= 1.0):
            raise ValueError("rho_inst must be in [0, 1]")
        if not (0.0 <= self.full_interval_frac <= 1.0):
            raise ValueError("full_interval_frac must be in [0, 1]")
        if self.lr <= 0 or self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad optimizer settings")


def interpolate(a, eps, tau):
    """Linear path z_tau = (1 - tau) a + tau eps; tau scalar or per-row column."""
    a = np.asarray(a, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if a.shape != eps.shape:
        raise ValueError(f"action/noise shape mismatch: {a.shape} vs {eps.shape}")
    t = np.asarray(tau, dtype=np.float64)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("tau must lie in [0, 1]")
    return (1.0 - t) * a + t * eps


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def sample_time_pairs(rng: np.random.Generator, n: int, rho_inst: float, full_frac: float = 0.0):
    """Vectorized batch draw; returns (r, tau) arrays of shape (n,).

    ``full_frac`` of the non-instantaneous rows are set to the full interval
    (0, 1): the exact pair one-step inference queries, which the sorted
    sigmoids essentially never reach. Draw order is fixed: normals, then the
    instantaneous mask, then the full-interval mask.
    """
    s = _sigmoid(rng.standard_normal((n, 2)))
    r = s.min(axis=1)
    tau = s.max(axis=1)
    inst = rng.random(n) < rho_inst
    full = (rng.random(n) < full_frac) & ~inst
    r = np.where(inst, tau, r)
    r = np.where(full, 0.0, r)
    tau = np.where(full, 1.0, tau)
    return r, tau


def target_velocity(net, z, r, tau, obs, v, h=None):
    """Self-consistent regression target, as a constant array.

    u_tgt = v - (tau - r) * d/dtau u(z_tau, r, tau, obs), where the total
    derivative is a single dual-number pass along the tangent (v, 0, 1).
    When r == tau the correction term vanishes exactly and u_tgt == v.

    Without ``h`` the pass encodes ``obs`` itself, records nothing and only
    the target is returned. Given the step's embedding ``h`` (traced or
    not), it returns ``(u, u_tgt)``, where ``u`` is the prediction
    u(z, r, tau, h) recorded on the active graph and ``u_tgt`` is the same
    target, bit for bit.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    r_col = np.asarray(r, dtype=np.float64).reshape(-1, 1)
    tau_col = np.asarray(tau, dtype=np.float64).reshape(-1, 1)
    ones = np.ones_like(tau_col)
    if h is None:
        with no_record():
            h = net.encode(Tensor(np.atleast_2d(obs)))
            u = net.velocity(DualTensor(z, v), Tensor(r_col), DualTensor(tau_col, ones), h=h)
        return v - (tau_col - r_col) * u.tangent
    u = net.velocity(DualTensor(z, v), Tensor(r_col), DualTensor(tau_col, ones), h=h)
    return u.primal, v - (tau_col - r_col) * u.tangent


def mf_loss(net: VelocityNet, batch: Stage1Batch, h=None, u_tgt: np.ndarray | None = None) -> Tensor:
    """Mean over the batch of || u(z, r, tau, obs) - sg(u_tgt) ||^2.

    ``h`` is the batch embedding (encoded here when not given). Unless the
    target is supplied, one ``target_velocity`` pass gives both the
    prediction and the target; the returned scalar is differentiable
    through the prediction branch only. The squared distance
    ``square(u - sg(u_tgt)).sum(1).mean()`` is one tape node.
    """
    z = interpolate(batch.actions, batch.noise, batch.tau[:, None])
    if h is None:
        h = net.encode(Tensor(batch.obs))
    if u_tgt is None:
        v = batch.noise - batch.actions
        u, u_tgt = target_velocity(net, z, batch.r, batch.tau, batch.obs, v, h=h)
    else:
        u = net.velocity(Tensor(z), Tensor(batch.r[:, None]), Tensor(batch.tau[:, None]), h=h)
    loss, grad = row_sq_mean(u.data + -u_tgt)
    return custom_op(loss, (u,), lambda g: (grad(g),), "mf_dist")


def pretrain(dataset, config: Stage1Config, metrics_path=None):
    """Minibatch descent on L_MF + alpha * L_disp (Algorithm: per-epoch shuffle,
    fresh noise and time pairs every step). Returns (net, metrics rows)."""
    obs_all = np.asarray(dataset.obs, dtype=np.float64)
    act_all = np.asarray(dataset.actions, dtype=np.float64)
    n = obs_all.shape[0]
    if n < 1:
        raise ValueError("dataset is empty")
    d_obs, d_a = obs_all.shape[1], act_all.shape[1]

    net = init_velocity_net(
        config.seed, d_obs, d_a, d_h=config.d_h,
        enc_width=config.enc_width, trunk_width=config.trunk_width,
    )
    opt = Adam(net.parameters(), lr=config.lr)
    rng = np.random.default_rng(config.seed)
    use_disp = config.alpha_disp > 0.0 and config.disp_kind != "none"
    probe = obs_all[: min(256, n)]

    metrics = []
    step = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        if n < config.batch_size:
            # degenerate datasets: tile rows so each step still averages over
            # a full batch of fresh (eps, r, tau) draws
            order = np.resize(order, config.batch_size)
        mf_sum = disp_sum = total_sum = 0.0
        batches = 0
        for lo in range(0, order.size, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            B = idx.size
            obs, act = obs_all[idx], act_all[idx]
            eps = rng.standard_normal((B, d_a))
            r_arr, tau_arr = sample_time_pairs(rng, B, config.rho_inst, config.full_interval_frac)
            batch = Stage1Batch(obs, act, eps, r_arr, tau_arr)

            try:
                with Graph() as g:
                    h = net.encode(Tensor(obs))
                    mf = mf_loss(net, batch, h=h)
                    if use_disp and B >= 2:
                        disp = dispersive_loss(h, config)
                        total = weighted_sum([mf, disp], [1.0, config.alpha_disp], "stage1_total")
                        disp_val = disp.item()
                    else:
                        total = mf
                        disp_val = 0.0
                grads = g.backward(total)
            except FloatingPointError as e:
                raise RuntimeError(
                    f"pre-training diverged at epoch {epoch} step {step}: {e}"
                ) from e
            opt.step(grads)

            mf_sum += mf.item()
            disp_sum += disp_val
            total_sum += total.item()
            batches += 1
            step += 1

        d_eff = effective_rank(net.encode_arrays(probe)) if probe.shape[0] >= 2 else 0
        wall_ms = (time.perf_counter() - t0) * 1e3
        metrics.append(
            {
                "epoch": epoch,
                "step": step,
                "mf_loss": mf_sum / batches,
                "disp_loss": disp_sum / batches,
                "total_loss": total_sum / batches,
                "d_eff": d_eff,
                "wall_ms": wall_ms,
            }
        )

    if metrics_path is not None:
        write_metrics_csv(metrics_path, METRIC_COLUMNS, metrics)
    return net, metrics
