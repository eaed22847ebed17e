"""Shared finite-difference oracles for gradient and JVP checks, and other
references the tests share."""

import csv

import numpy as np

from dmpo.autodiff import Graph, Tensor, weighted_sum
from dmpo.dispersive import dispersive_loss
from dmpo.meanflow import mf_loss


def rel_err(got, want, floor=1e-8):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(got - want) / denom))


def fd_grad(f, x, eps=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return g


def fd_directional(f, xs, ts, eps=1e-5):
    """Central finite difference of f(xs) along direction ts (lists of arrays)."""
    xs = [np.asarray(x, dtype=np.float64) for x in xs]
    ts = [np.asarray(t, dtype=np.float64) for t in ts]
    hi = f(*[x + eps * t for x, t in zip(xs, ts)])
    lo = f(*[x - eps * t for x, t in zip(xs, ts)])
    return (np.asarray(hi) - np.asarray(lo)) / (2.0 * eps)


def into_adam(opt, grads):
    """A tape's gradients (``Graph.backward``'s dict) copied by key into
    ``opt.grads``, the views of its gradient buffer a training step writes;
    returns that buffer."""
    for p, view in opt.grads.items():
        view[...] = grads[p]
    return opt._g


def one_pass_metrics_csv(path, columns, rows):
    """The metrics file written in one pass after a run: the header, then
    every row; a finished run's streamed file must equal it byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(columns)
        for row in rows:
            w.writerow([row[c] for c in columns])
    return path.read_bytes()


def _taped_step(net, batch, cfg):
    """The reference pre-train step, all on one tape: the traced encoder,
    ``mf_loss`` on the traced h (its dual JVP pass through the layers'
    ``matmul``/``add``/``tanh`` ops and the trunk's ``concat``),
    the dispersive term and the weighted total, one backward. Returns
    ``(mf, disp, total)`` and the flat gradient in ``net.parameters()``
    order, which ``stage1_step`` must equal bit for bit."""
    with Graph() as g:
        h = net.encode(Tensor(batch.obs))
        mf = mf_loss(net, batch, h=h)
        disp, total = Tensor(0.0), mf
        if cfg.alpha_disp > 0.0 and cfg.disp_kind != "none" and batch.obs.shape[0] >= 2:
            disp = dispersive_loss(h, cfg)
            total = weighted_sum([mf, disp], [1.0, cfg.alpha_disp], "stage1_total")
    grads = g.backward(total)
    flat = np.concatenate([grads[p].ravel() for p in net.parameters()])
    return (mf.item(), disp.item(), total.item()), flat
