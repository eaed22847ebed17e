"""The numba-accelerated kernels and their numpy fallbacks must agree.

numba is optional at import time: ``dmpo.kernels`` selects the jitted kernels
only when numba is importable and ``DMPO_NO_NUMBA`` is not set. Without numba
every active kernel is its numpy fallback, so the three ``*_paths_agree``
tests then compare the numpy path with itself. The flag test checks
that selection rule in both flag states, each in a fresh interpreter.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dmpo import kernels


@pytest.fixture(autouse=True, scope="module")
def _warm():
    kernels.warmup()


def test_gae_paths_agree():
    rng = np.random.default_rng(0)
    for _ in range(20):
        T = int(rng.integers(1, 50))
        r = rng.normal(size=T)
        v = rng.normal(size=T + 1)
        d = (rng.random(T) < 0.2).astype(float)
        fast = kernels.ACTIVE_IMPLS["gae_backward"](r, v, d, 0.99, 0.95)
        ref = kernels.NUMPY_IMPLS["gae_backward"](r, v, d, 0.99, 0.95)
        np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-14)


def test_adam_paths_agree():
    rng = np.random.default_rng(1)
    p1 = rng.normal(size=64)
    p2 = p1.copy()
    m1 = np.zeros(64)
    v1 = np.zeros(64)
    m2 = np.zeros(64)
    v2 = np.zeros(64)
    for t in range(1, 20):
        g = rng.normal(size=64)
        bc1 = 1 - 0.9**t
        bc2 = 1 - 0.999**t
        kernels.ACTIVE_IMPLS["adam_update"](p1, g.copy(), m1, v1, 1e-3, 0.9, 0.999, 1e-8, bc1, bc2)
        kernels.NUMPY_IMPLS["adam_update"](p2, g.copy(), m2, v2, 1e-3, 0.9, 0.999, 1e-8, bc1, bc2)
    np.testing.assert_allclose(p1, p2, rtol=0, atol=1e-14)


def test_affine_paths_agree():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 5))
    w = rng.normal(size=(5, 7))
    b = rng.normal(size=7)
    np.testing.assert_allclose(
        kernels.ACTIVE_IMPLS["affine"](x, w, b), kernels.NUMPY_IMPLS["affine"](x, w, b),
        rtol=0, atol=1e-14,
    )
    np.testing.assert_allclose(
        kernels.ACTIVE_IMPLS["affine_tanh"](x, w, b), kernels.NUMPY_IMPLS["affine_tanh"](x, w, b),
        rtol=0, atol=1e-14,
    )


@pytest.mark.parametrize("name, act", [("affine", lambda y: y), ("affine_tanh", np.tanh)])
@pytest.mark.parametrize("B", [1, 8])
def test_numpy_affine_leaves_inputs_and_returns_fresh_array(name, act, B):
    rng = np.random.default_rng(B)
    x = rng.normal(size=(B, 5))
    w = rng.normal(size=(5, 7))
    b = rng.normal(size=7)
    before = [a.copy() for a in (x, w, b)]
    y = kernels.NUMPY_IMPLS[name](x, w, b)
    for a, a0 in zip((x, w, b), before):
        np.testing.assert_array_equal(a, a0)
        assert not np.shares_memory(y, a)
    # the in-place bias add and tanh are the out-of-place ops in the same order
    np.testing.assert_array_equal(y, act(x @ w + b))


def _kernel_selection(no_numba: bool) -> dict:
    # the selection happens once, at import, so each flag state needs a fresh
    # interpreter; PYTHONPATH is forwarded so it imports this same dmpo
    env = dict(os.environ)
    env.pop("DMPO_NO_NUMBA", None)
    if no_numba:
        env["DMPO_NO_NUMBA"] = "1"
    src = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import json; from dmpo import kernels; print(json.dumps({"
        "'enabled': kernels.NUMBA_ENABLED, "
        "'numpy': {n: kernels.ACTIVE_IMPLS[n] is f for n, f in kernels.NUMPY_IMPLS.items()}}))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, stdout=subprocess.PIPE,
                         text=True, check=True)
    return json.loads(out.stdout)


def test_env_flag_is_documented_default_on():
    # the documented rule: jitted kernels are active exactly when numba is
    # importable and DMPO_NO_NUMBA is not set; otherwise every kernel is its
    # numpy fallback. Checked in both flag states, whatever the caller exported.
    forced = _kernel_selection(no_numba=True)
    assert forced["enabled"] is False
    assert forced["numpy"] == dict.fromkeys(kernels.NUMPY_IMPLS, True)

    default = _kernel_selection(no_numba=False)
    has_numba = importlib.util.find_spec("numba") is not None
    assert default["enabled"] is has_numba
    assert default["numpy"] == dict.fromkeys(kernels.NUMPY_IMPLS, not has_numba)
