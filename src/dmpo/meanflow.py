"""Stage 1 pre-training: interpolation, logit-normal time pairs, the
JVP-derived target velocity, the mean-velocity regression loss, and the
training loop combining it with dispersive regularization.

The target for the regression is self-consistent: it contains the network's
own directional derivative along (v, 0, 1) but is treated as a constant
(stop-gradient), so optimization only flows through the prediction branch.
``mf_loss`` on a traced embedding runs one forward: one dual-number
velocity pass over recorded Tensors that yields the taped prediction and,
as a constant, its derivative in tau (MeanFlow's ``u, dudt = jvp(...)``);
the squared distance to the target is one tape node with the arithmetic of
the op chain it replaces.

A training step (``stage1_step``) computes the same values and gradients,
bit for bit, on plain arrays: the encoder once, the same JVP pass (the nets'
array branches), the distance, and the backward through both nets with the
VJPs that ``nets`` keeps beside each forward, written straight into Adam's
gradient buffer. Only the dispersive term is taped, on the embedding as a
leaf, so a hinge step tapes 1 node.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    DualTensor, Graph, Tensor, _check_finite, custom_op, no_record, row_sq_mean, weighted_sum,
)
from .dispersive import DISP_KINDS, dispersive_loss, effective_rank
from .io import metrics_csv
from .nets import Adam, VelocityNet, init_velocity_net, nonfinite_grad

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
        if not np.isfinite(self.noise).all():
            raise ValueError("non-finite noise")
        # one test of what must hold, so a NaN time fails it
        if not ((0.0 <= self.r) & (self.r <= self.tau) & (self.tau <= 1.0)).all():
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
        # each guard tests what must hold, so a NaN fails it
        if not self.alpha_disp >= 0:
            raise ValueError("alpha_disp must be >= 0")
        if self.disp_kind not in DISP_KINDS:
            raise ValueError(f"disp_kind must be one of {DISP_KINDS}")
        if not self.disp_temperature > 0:
            raise ValueError("disp_temperature must be > 0")
        if not self.hinge_margin > 0:
            raise ValueError("hinge_margin must be > 0")
        if not (0.0 <= self.rho_inst <= 1.0):
            raise ValueError("rho_inst must be in [0, 1]")
        if not (0.0 <= self.full_interval_frac <= 1.0):
            raise ValueError("full_interval_frac must be in [0, 1]")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad optimizer settings")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError("seed must be >= 0")
        for key in ("d_h", "enc_width", "trunk_width"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")


def interpolate(a, eps, tau):
    """Linear path z_tau = (1 - tau) a + tau eps; tau scalar or per-row column."""
    a = np.asarray(a, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if a.shape != eps.shape:
        raise ValueError(f"action/noise shape mismatch: {a.shape} vs {eps.shape}")
    t = np.asarray(tau, dtype=np.float64)
    if not ((0.0 <= t) & (t <= 1.0)).all():
        raise ValueError("tau must lie in [0, 1]")
    z = (1.0 - t) * a
    z += t * eps
    return z


def sample_time_pairs(rng: np.random.Generator, n: int, rho_inst: float, full_frac: float = 0.0):
    """Vectorized batch draw; returns (r, tau) arrays of shape (n,).

    ``full_frac`` of the non-instantaneous rows are set to the full interval
    (0, 1): the exact pair one-step inference queries, which the sorted
    sigmoids essentially never reach. Draw order is fixed: normals, then the
    instantaneous mask, then the full-interval mask.
    """
    # the sigmoid 1 / (1 + exp(-x)) in place
    s = rng.standard_normal((n, 2))
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    r = np.minimum(s[:, 0], s[:, 1])
    tau = np.maximum(s[:, 0], s[:, 1])
    inst = rng.random(n) < rho_inst
    full = rng.random(n) < full_frac
    full &= ~inst
    np.copyto(r, tau, where=inst)
    np.copyto(r, 0.0, where=full)
    np.copyto(tau, 1.0, where=full)
    return r, tau


def _rows(x) -> np.ndarray:
    # ``np.atleast_2d`` of the float64 array, without that wrapper's cost
    a = np.asarray(x, dtype=np.float64)
    return a if a.ndim >= 2 else a.reshape(1, -1)


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
    z = _rows(z)
    v = _rows(v)
    r_col = np.asarray(r, dtype=np.float64).reshape(-1, 1)
    tau_col = np.asarray(tau, dtype=np.float64).reshape(-1, 1)
    ones = np.empty(tau_col.shape)
    ones.fill(1.0)
    if h is None:
        with no_record():
            h = net.encode(Tensor(_rows(obs)))
            u = net.velocity(DualTensor(z, v), Tensor(r_col), DualTensor(tau_col, ones), h=h)
        return v - (tau_col - r_col) * u.tangent
    if type(h) is np.ndarray:
        u, dudtau, acts = net.velocity((z, v), r_col, tau_col, h=h)
        return u, v - (tau_col - r_col) * dudtau, acts
    u = net.velocity(DualTensor(z, v), Tensor(r_col), DualTensor(tau_col, ones), h=h)
    return u.primal, v - (tau_col - r_col) * u.tangent


def mf_loss(net: VelocityNet, batch: Stage1Batch, h=None, u_tgt: np.ndarray | None = None) -> Tensor | tuple:
    """Mean over the batch of || u(z, r, tau, obs) - sg(u_tgt) ||^2.

    ``h`` is the batch embedding (encoded here when not given). Unless the
    target is supplied, one ``target_velocity`` pass gives both the
    prediction and the target; the returned scalar is differentiable
    through the prediction branch only. The squared distance
    ``square(u - sg(u_tgt)).sum(1).mean()`` is one tape node.

    An ndarray ``h`` (a training step on plain arrays, ``stage1_step``)
    records nothing and returns ``(loss, g_u, acts)``: the loss value, the
    cotangent of u for a loss cotangent of 1, and the trunk activations
    ``velocity_vjp`` reads; the target is always computed there.
    """
    z = interpolate(batch.actions, batch.noise, batch.tau[:, None])
    v = batch.noise - batch.actions
    if h is None:
        h = net.encode(Tensor(batch.obs))
    if type(h) is np.ndarray:
        u, u_tgt, acts = target_velocity(net, z, batch.r, batch.tau, batch.obs, v, h=h)
        loss, grad = row_sq_mean(u + -u_tgt)
        _check_finite(loss, "mf_dist")
        return loss, grad(1.0), acts
    if u_tgt is None:
        u, u_tgt = target_velocity(net, z, batch.r, batch.tau, batch.obs, v, h=h)
    else:
        u = net.velocity(Tensor(z), Tensor(batch.r[:, None]), Tensor(batch.tau[:, None]), h=h)
    loss, grad = row_sq_mean(u.data + -u_tgt)
    return custom_op(loss, (u,), lambda g: (grad(g),), "mf_dist")


def stage1_step(net: VelocityNet, grads: dict, batch: Stage1Batch, config: Stage1Config):
    """One pre-train step on plain arrays: the gradient of ``mf + alpha *
    disp`` written into ``grads`` (parameter Tensor -> array, as
    ``Adam.grads``), and ``(mf, disp, total)`` as floats.

    These are the values and gradients of the taped step (``mf_loss`` on a
    traced ``h``, ``dispersive_loss``, ``weighted_sum`` and one backward),
    bit for bit: every op keeps its arithmetic and order. Only the
    dispersive term is taped, on ``h`` as a leaf; the embedding's cotangent
    is its part plus the trunk's, as the tape sums them.
    """
    h, enc = net.encode(batch.obs, keep=True)
    mf, g_u, trunk = mf_loss(net, batch, h=h)
    g_h = net.velocity_vjp(g_u, trunk, grads)
    mf = total = float(mf)
    disp = 0.0
    if config.alpha_disp > 0.0 and config.disp_kind != "none" and h.shape[0] >= 2:
        with Graph() as g:
            H = Tensor(h, requires_grad=True)
            disp = dispersive_loss(H, config)
        g_h = g.backward(disp, seed=config.alpha_disp)[H] + g_h
        disp = disp.item()
        total = weighted_sum([mf, disp], [1.0, config.alpha_disp], "stage1_total", taped=False)[0]
    net.encode_vjp(g_h, enc, grads)
    return mf, disp, total


def pretrain(dataset, config: Stage1Config, metrics_path=None):
    """Minibatch descent on L_MF + alpha * L_disp (Algorithm: per-epoch shuffle,
    fresh noise and time pairs every step). Returns (net, metrics rows);
    each row is also appended to ``metrics_path`` as its epoch ends. A
    non-finite op in a step raises ``RuntimeError`` naming the epoch, the
    step and the op; a non-finite gradient names op 'backward' and the first
    parameter whose gradient is not finite, before the update reaches the
    parameters."""
    obs_all = np.asarray(dataset.obs, dtype=np.float64)
    act_all = np.asarray(dataset.actions, dtype=np.float64)
    n = obs_all.shape[0]
    if n < 1:
        raise ValueError("dataset is empty")
    d_obs, d_a = obs_all.shape[1], act_all.shape[1]
    # a data fault, named here rather than as a divergence of the first step
    for name, col in (("obs", obs_all), ("actions", act_all)):
        bad = np.flatnonzero(~np.isfinite(col).all(axis=1))
        if bad.size:
            raise ValueError(f"dataset row {bad[0]} has a non-finite value in column '{name}'")

    net = init_velocity_net(
        config.seed, d_obs, d_a, d_h=config.d_h,
        enc_width=config.enc_width, trunk_width=config.trunk_width,
    )
    opt = Adam(net.parameters(), lr=config.lr)
    rng = np.random.default_rng(config.seed)
    probe = obs_all[: min(256, n)]

    metrics = []
    add_row = metrics_csv(metrics_path, METRIC_COLUMNS)
    step = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        if n < config.batch_size:
            # degenerate datasets: tile rows so each step still averages over
            # a full batch of fresh (eps, r, tau) draws
            order = np.resize(order, config.batch_size)
        # ``stage1_step``'s (mf, disp, total), each summed in step order
        sums = dict.fromkeys(("mf_loss", "disp_loss", "total_loss"), 0.0)
        starts = range(0, order.size, config.batch_size)
        for lo in starts:
            idx = order[lo : lo + config.batch_size]
            B = idx.size
            obs, act = obs_all[idx], act_all[idx]
            eps = rng.standard_normal((B, d_a))
            r_arr, tau_arr = sample_time_pairs(rng, B, config.rho_inst, config.full_interval_frac)
            batch = Stage1Batch(obs, act, eps, r_arr, tau_arr)

            try:
                losses = stage1_step(net, opt.grads, batch, config)
                # ``_check_finite``'s rule: a finite sum of squares proves
                # every entry finite; else the search decides (a square of a
                # finite entry may overflow)
                g = opt._g
                if not math.isfinite(np.vdot(g, g)) and (err := nonfinite_grad(net.params.items(), opt.grads)):
                    raise err
            except FloatingPointError as e:
                raise RuntimeError(
                    f"pre-training diverged at epoch {epoch} step {step}: {e}"
                ) from e
            opt.step()
            for k, x in zip(sums, losses):
                sums[k] += x
            step += 1

        d_eff = 0
        if probe.shape[0] >= 2:
            # the parameters after the epoch's last step: a NaN there would
            # otherwise surface as the eigensolver's error
            emb = net.encode_arrays(probe)
            try:
                _check_finite(emb, "dense")
            except FloatingPointError as e:
                raise RuntimeError(
                    f"pre-training diverged at epoch {epoch} step {step - 1}: {e} (epoch-end rank probe)"
                ) from e
            d_eff = effective_rank(emb)
        wall_ms = (time.perf_counter() - t0) * 1e3
        means = {k: x / len(starts) for k, x in sums.items()}
        metrics.append({"epoch": epoch, "step": step, **means, "d_eff": d_eff, "wall_ms": wall_ms})
        add_row(metrics[-1])
    return net, metrics
