"""The numpy kernels: the affine layers of every net's plain-array forward
(``VelocityNet.encode``, ``VelocityNet.velocity`` and ``ValueNet.value`` on
ndarrays call ``affine_tanh`` and ``affine`` once per layer), the Adam
update over one flat buffer, and the GAE recursion.

Each kernel works in place where it can, with the operations of the plain
numpy expression in the same order, so its results are bit-identical to it.

The affine layers take a rank-1 input's product with ``ndarray.dot``, which
gives the bits of ``@`` at a fraction of the matmul gufunc's dispatch cost
(both hand a contiguous weight, as every net's is, to the same BLAS
matrix-vector routine; on a strided weight view they round differently).
A rank-2 input keeps ``@``: for the five layers of a velocity pass, ``.dot``
against ``@`` measured -45% at 1 row, -43% at 8, -2% at 64, -3% at 128 and
+8% at 256 rows (numpy 2.4, OpenBLAS on one thread), so moving batches to
``.dot`` would slow the large ones, the B=256 serve call among them. The
training steps' products in ``nets`` (forwards, VJPs and JVP tangents at up
to (K+1)*M rows) are another rule: they take ``.dot`` at every row count,
which measured faster there (``nets`` module docstring).

The kernels run on every training step, so they call ufuncs and ndarray
methods only, never numpy's Python-level wrappers, each of which costs a
measured 0.6-4 us more per call. Once Adam's first bias correction
``1 - beta1**t`` rounds to exactly 1.0 (from t = 356 at beta1 = 0.9),
``adam_update`` skips the divide by it: x / 1.0 is x.
"""

from __future__ import annotations

import numpy as np

# There is no jitted path; pipeline_bench's environment stamp reads this flag.
NUMBA_ENABLED = False


def gae_backward(rewards, values, dones, gamma, lam):
    # The recursion runs on Python floats: IEEE doubles like numpy's float64
    # scalars, at a fraction of their cost per op. Each step is
    # ``delta = r + gamma * v' * live - v`` then
    # ``acc = delta + gamma * lam * live * acc``, in that order.
    r, v, d = rewards.tolist(), values.tolist(), dones.tolist()
    gl = gamma * lam
    adv = [0.0] * len(r)
    acc = 0.0
    for t in range(len(r) - 1, -1, -1):
        live = 1.0 - d[t]
        acc = r[t] + gamma * v[t + 1] * live - v[t] + gl * live * acc
        adv[t] = acc
    return np.array(adv)


def adam_update(param, grad, m, v, lr, beta1, beta2, eps, bc1, bc2, work):
    """``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``param -= lr * (m/bc1) / (sqrt(v/bc2) + eps)`` in place, with the two
    rows of ``work`` (shape ``(2, n)``) holding the temporaries. IEEE
    multiplication commutes, so ``g * c`` equals ``c * g`` bit for bit."""
    s, q = work
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=s)
    m += s
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=s)
    s *= grad
    v += s
    if bc1 == 1.0:
        # m / 1.0 is m: 1 - beta1**t rounds to 1.0 from t = 356 on (beta1 = 0.9)
        np.multiply(m, lr, out=s)
    else:
        np.divide(m, bc1, out=s)
        s *= lr
    np.divide(v, bc2, out=q)
    np.sqrt(q, out=q)
    q += eps
    s /= q
    param -= s


# The bias add and tanh work in place on the fresh product: the same ops in
# the same order as ``np.tanh(x @ w + b)``, without its two temporaries. One
# unbatched row's product goes through ``.dot`` (same bits, less dispatch).
def affine(x, w, b):
    y = x.dot(w) if x.ndim == 1 else x @ w
    y += b
    return y


def affine_tanh(x, w, b):
    y = x.dot(w) if x.ndim == 1 else x @ w
    y += b
    return np.tanh(y, out=y)
