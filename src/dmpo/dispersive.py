"""Batch-repulsion losses on conditional embeddings and the collapse diagnostic.

All four losses operate on an embedding matrix H (B x d_h) and gradients
flow back into the encoder during pre-training. The hinge (the default) is
one ``custom_op`` tape node with an analytic VJP; the others are written
against the autodiff ops. ``effective_rank`` is a pure diagnostic (numpy
eigenvalues or SVD, no graph).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, as_tensor, custom_op, exp, log, sqrt, square, value_of

DISP_KINDS = ("nce-l2", "nce-cos", "hinge", "cov", "none")

_MASK_NEG = -1e30  # additive mask: exp() underflows to exactly 0


def _require_batch(H: Tensor) -> int:
    if H.data.ndim != 2:
        raise ValueError(f"embeddings must be (B, d_h), got {H.data.shape}")
    B = H.data.shape[0]
    if B < 2:
        raise ValueError("pairwise dispersive losses need a batch of at least 2")
    return B


def _pairwise_sq_dists(H: Tensor, sq: Tensor) -> Tensor:
    B = H.data.shape[0]
    return sq.reshape((B, 1)) + sq.reshape((1, B)) - 2.0 * (H @ H.T)


def _logsumexp_rows(M: Tensor) -> Tensor:
    """Row logsumexp, stabilized by a constant row max (gradient-exact)."""
    rowmax = np.max(M.data, axis=1, keepdims=True)
    return log(exp(M - Tensor(rowmax)).sum(axis=1)) + Tensor(rowmax[:, 0])


def nce_l2(H, temperature: float) -> Tensor:
    """InfoNCE over squared Euclidean distances.

    Per row i: -log[ exp(||h_i||^2 / T) / sum_{k != i} exp(-||h_i - h_k||^2 / T) ],
    averaged over the batch. The asymmetric numerator (+norm, not -self-distance)
    is intentional and makes the loss scale-sensitive.
    """
    H = as_tensor(H)
    B = _require_batch(H)
    if not temperature > 0:  # what must hold, so a NaN fails it
        raise ValueError("temperature must be positive")
    sq = square(H).sum(axis=1)
    M = _pairwise_sq_dists(H, sq) * (-1.0 / temperature) + Tensor(np.diag(np.full(B, _MASK_NEG)))
    terms = sq * (1.0 / temperature) - _logsumexp_rows(M)
    return -terms.mean()


def nce_cos(H, temperature: float) -> Tensor:
    """InfoNCE over cosine similarities (constant numerator exp(1/T)).

    Rows with norm < 1e-12 are treated as similarity 0 to every other row so
    the loss stays defined at initialization.
    """
    H = as_tensor(H)
    B = _require_batch(H)
    if not temperature > 0:  # what must hold, so a NaN fails it
        raise ValueError("temperature must be positive")
    nsq = square(H).sum(axis=1)
    norm = sqrt(nsq)
    tiny = norm.data < 1e-12
    involves_tiny = tiny[:, None] | tiny[None, :]
    denom = norm.reshape((B, 1)) * norm.reshape((1, B)) + Tensor(involves_tiny.astype(np.float64))
    sim = (H @ H.T) / denom * Tensor((~involves_tiny).astype(np.float64))
    M = sim * (1.0 / temperature) + Tensor(np.diag(np.full(B, _MASK_NEG)))
    terms = (1.0 / temperature) - _logsumexp_rows(M)
    return -terms.mean()


def hinge(H, margin: float) -> Tensor:
    """Mean over ordered pairs of max(0, margin - ||h_i - h_j||_2).

    One tape node. Squared distances come from the Gram matrix, whose
    diagonal supplies the squared norms, so a row's distance to itself or to
    an identical row is exactly 0. The gradient is 0 at the kinks: for pairs
    at distance 0 (sqrt) and pairs exactly at the margin (relu).
    """
    H = as_tensor(H)
    B = _require_batch(H)
    if not margin > 0:  # what must hold, so a NaN fails it
        raise ValueError("margin must be positive")
    X = H.data
    G = X @ X.T
    sq = G.diagonal().copy()
    d2 = G
    d2 *= -2.0
    d2 += sq[:, None]
    d2 += sq
    np.maximum(d2, 0.0, out=d2)  # relu guards tiny negative fp dust
    dist = np.sqrt(d2, out=d2)
    gap = margin - dist
    gap.ravel()[:: B + 1] = 0.0  # the diagonal of the fresh C-ordered (B, B) array
    np.maximum(gap, 0.0, out=gap)
    scale = 1.0 / (B * (B - 1))

    def vjp(g):
        # w = 2 d loss / d d2_ij = -scale / dist_ij on pairs inside the margin
        # at nonzero distance; d2_ij = |h_i|^2 + |h_j|^2 - 2 h_i.h_j, so
        # d loss / dH = rowsum(w + w^T) H - (w + w^T) H
        w = np.zeros(dist.shape)
        np.divide(-scale * float(g), dist, out=w, where=(gap > 0.0) & (dist > 0.0))
        w += w.T
        return [w.sum(axis=1)[:, None] * X - w @ X]

    return custom_op(gap.sum() * scale, (H,), vjp, "hinge")


def cov_loss(H) -> Tensor:
    """Squared off-diagonal entries of the sample covariance, averaged by d_h."""
    H = as_tensor(H)
    B = _require_batch(H)
    d_h = H.data.shape[1]
    Hc = H - H.mean(axis=0)
    C = (Hc.T @ Hc) * (1.0 / (B - 1))
    off = square(C) * Tensor(1.0 - np.eye(d_h))
    return off.sum() * (1.0 / d_h)


def dispersive_loss(H, config) -> Tensor:
    """Dispatch on ``config.disp_kind``; kind 'none' contributes exactly 0."""
    kind = config.disp_kind
    if kind == "none":
        return Tensor(0.0)
    if kind == "nce-l2":
        return nce_l2(H, config.disp_temperature)
    if kind == "nce-cos":
        return nce_cos(H, config.disp_temperature)
    if kind == "hinge":
        return hinge(H, config.hinge_margin)
    if kind == "cov":
        return cov_loss(H)
    raise ValueError(f"unknown dispersive kind {kind!r}; expected one of {DISP_KINDS}")


def effective_rank(H, tol: float = 1e-3) -> int:
    """Count singular values of the row-centered H above tol * s_max.

    The collapse diagnostic: identical rows give 0; a well-spread batch
    approaches min(B - 1, d_h).

    The count comes from the eigenvalues of the (d_h, d_h) Gram matrix, the
    squared singular values, at about half the cost of the SVD. Rounding
    moves them by ~1e-13 * lambda_max, so whenever one lies within
    1e-9 * lambda_max of the cut tol**2 * lambda_max, or lambda_max is not
    positive, the SVD decides and the count is always the SVD's.
    """
    arr = value_of(H)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("effective_rank needs a (B >= 2, d_h) matrix")
    centered = arr - arr.mean(axis=0)
    if centered.shape[1]:
        lam = np.linalg.eigvalsh(centered.T @ centered)  # ascending
        cut = tol * tol * lam[-1]
        if lam[-1] > 0.0 and not (np.abs(lam - cut) <= 1e-9 * lam[-1]).any():
            return int((lam > cut).sum())
    s = np.linalg.svd(centered, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


__all__ = [
    "DISP_KINDS",
    "nce_l2",
    "nce_cos",
    "hinge",
    "cov_loss",
    "dispersive_loss",
    "effective_rank",
]
