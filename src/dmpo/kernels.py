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
    T = rewards.shape[0]
    adv = np.empty(T)
    acc = 0.0
    for t in range(T - 1, -1, -1):
        live = 1.0 - dones[t]
        delta = rewards[t] + gamma * values[t + 1] * live - values[t]
        acc = delta + gamma * lam * live * acc
        adv[t] = acc
    return adv


def adam_update(param, grad, m, v, lr, beta1, beta2, eps, bc1, bc2):
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    param -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


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
