"""The numpy kernels: the affine layers behind ``autodiff.dense``'s plain-array
path, the Adam update over one flat buffer, and the GAE recursion.

Each kernel works in place where it can, with the operations of the plain
numpy expression in the same order, so its results are bit-identical to it.
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
    np.divide(m, bc1, out=s)
    s *= lr
    np.divide(v, bc2, out=q)
    np.sqrt(q, out=q)
    q += eps
    s /= q
    param -= s


# The bias add and tanh work in place on the fresh product: the same ops in
# the same order as ``np.tanh(x @ w + b)``, without its two temporaries.
def affine(x, w, b):
    y = x @ w
    y += b
    return y


def affine_tanh(x, w, b):
    y = x @ w
    y += b
    return np.tanh(y, out=y)
