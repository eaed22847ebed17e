"""Hot numeric kernels with optional numba acceleration.

Every kernel has a pure-numpy implementation; when numba is importable and
``DMPO_NO_NUMBA`` is not set, the loop-bound ones are replaced by ``@njit``
versions compiled without fastmath (results must stay deterministic and
bit-stable across the two paths up to normal floating-point reassociation,
so fastmath is off). ``benchmarks/kernel_bench.py`` compares both paths.
"""

from __future__ import annotations

import os

import numpy as np

NUMBA_ENABLED = False
if not os.environ.get("DMPO_NO_NUMBA"):
    try:
        import numba

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        NUMBA_ENABLED = False


def _gae_backward_numpy(rewards, values, dones, gamma, lam):
    T = rewards.shape[0]
    adv = np.empty(T)
    acc = 0.0
    for t in range(T - 1, -1, -1):
        live = 1.0 - dones[t]
        delta = rewards[t] + gamma * values[t + 1] * live - values[t]
        acc = delta + gamma * lam * live * acc
        adv[t] = acc
    return adv


def _adam_update_numpy(param, grad, m, v, lr, beta1, beta2, eps, bc1, bc2):
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    param -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# The bias add and tanh work in place on the fresh product: the same ops in
# the same order as ``np.tanh(x @ w + b)``, without its two temporaries.
def _affine_numpy(x, w, b):
    y = x @ w
    y += b
    return y


def _affine_tanh_numpy(x, w, b):
    y = x @ w
    y += b
    return np.tanh(y, out=y)


if NUMBA_ENABLED:

    @numba.njit(cache=True)
    def _gae_backward_numba(rewards, values, dones, gamma, lam):
        T = rewards.shape[0]
        adv = np.empty(T)
        acc = 0.0
        for t in range(T - 1, -1, -1):
            live = 1.0 - dones[t]
            delta = rewards[t] + gamma * values[t + 1] * live - values[t]
            acc = delta + gamma * lam * live * acc
            adv[t] = acc
        return adv

    @numba.njit(cache=True)
    def _adam_update_numba(param, grad, m, v, lr, beta1, beta2, eps, bc1, bc2):
        n = param.shape[0]
        for i in range(n):
            g = grad[i]
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            param[i] -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)

    @numba.njit(cache=True)
    def _affine_numba(x, w, b):
        return np.dot(x, w) + b

    @numba.njit(cache=True)
    def _affine_tanh_numba(x, w, b):
        return np.tanh(np.dot(x, w) + b)

    gae_backward = _gae_backward_numba
    adam_update = _adam_update_numba
    affine = _affine_numba
    affine_tanh = _affine_tanh_numba
else:
    gae_backward = _gae_backward_numpy
    adam_update = _adam_update_numpy
    affine = _affine_numpy
    affine_tanh = _affine_tanh_numpy

# numpy reference implementations stay importable for the comparison benchmark
NUMPY_IMPLS = {
    "gae_backward": _gae_backward_numpy,
    "adam_update": _adam_update_numpy,
    "affine": _affine_numpy,
    "affine_tanh": _affine_tanh_numpy,
}

ACTIVE_IMPLS = {
    "gae_backward": gae_backward,
    "adam_update": adam_update,
    "affine": affine,
    "affine_tanh": affine_tanh,
}


def warmup():
    """Trigger JIT compilation of every kernel (no-op on the numpy path)."""
    r = np.zeros(2)
    v3 = np.zeros(3)
    gae_backward(r, v3, r.copy(), 0.99, 0.95)
    p = np.zeros(4)
    adam_update(p, p.copy(), p.copy(), p.copy(), 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001)
    x = np.zeros((2, 3))
    w = np.zeros((3, 2))
    b = np.zeros(2)
    affine(x, w, b)
    affine_tanh(x, w, b)
