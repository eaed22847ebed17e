"""The affine kernels behind ``autodiff.dense``'s plain-array path.

The Adam and GAE kernels are checked against references in ``test_nets``
and ``test_ppo``; ``test_autodiff`` checks ``dense`` against the op chain.
"""

import numpy as np
import pytest

from dmpo import kernels


@pytest.mark.parametrize("name, act", [("affine", lambda y: y), ("affine_tanh", np.tanh)])
@pytest.mark.parametrize("B", [1, 8])
def test_numpy_affine_leaves_inputs_and_returns_fresh_array(name, act, B):
    rng = np.random.default_rng(B)
    x = rng.normal(size=(B, 5))
    w = rng.normal(size=(5, 7))
    b = rng.normal(size=7)
    before = [a.copy() for a in (x, w, b)]
    y = getattr(kernels, name)(x, w, b)
    for a, a0 in zip((x, w, b), before):
        np.testing.assert_array_equal(a, a0)
        assert not np.shares_memory(y, a)
    # the in-place bias add and tanh are the out-of-place ops in the same order
    np.testing.assert_array_equal(y, act(x @ w + b))
