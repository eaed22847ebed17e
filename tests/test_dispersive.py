import math
from dataclasses import dataclass

import numpy as np
import pytest

from dmpo import autodiff as ad
from dmpo.autodiff import Graph, Tensor
from dmpo.dispersive import cov_loss, dispersive_loss, effective_rank, hinge, nce_cos, nce_l2

from helpers import fd_grad, rel_err


# ---------------------------------------------------------------------------
# hand-evaluated values


def test_nce_l2_identical_zero_rows():
    H = np.zeros((2, 1))
    assert nce_l2(H, 1.0).item() == pytest.approx(0.0, abs=1e-10)


def test_nce_l2_unit_separation():
    H = np.array([[0.0], [1.0]])
    assert nce_l2(H, 1.0).item() == pytest.approx(-1.5, abs=1e-10)


def test_nce_l2_decreases_with_scale():
    H = np.array([[0.0], [1.0]])
    assert nce_l2(2.0 * H, 1.0).item() < nce_l2(H, 1.0).item()


def test_nce_cos_antipodal_and_identical():
    up = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert nce_cos(up, 1.0).item() == pytest.approx(-2.0, abs=1e-10)
    same = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert nce_cos(same, 1.0).item() == pytest.approx(0.0, abs=1e-10)


def test_nce_cos_scale_invariant_per_row():
    rng = np.random.default_rng(0)
    H = rng.normal(size=(4, 3))
    scaled = H.copy()
    scaled[2] *= 7.5
    assert nce_cos(scaled, 0.5).item() == pytest.approx(nce_cos(H, 0.5).item(), abs=1e-10)


def test_nce_cos_defined_for_zero_rows():
    H = np.zeros((3, 4))
    val = nce_cos(H, 1.0).item()
    assert math.isfinite(val)


def test_hinge_hand_values():
    apart = np.array([[0.0, 0.0], [5.0, 0.0]])
    assert hinge(apart, 1.0).item() == pytest.approx(0.0, abs=1e-12)
    close = np.array([[0.0, 0.0], [0.4, 0.0]])
    assert hinge(close, 1.0).item() == pytest.approx(0.6, abs=1e-10)
    same = np.array([[0.3, -0.2], [0.3, -0.2]])
    assert hinge(same, 1.0).item() == pytest.approx(1.0, abs=1e-12)


def test_cov_hand_value():
    H = np.array([[1.0, 1.0], [-1.0, -1.0]])
    assert cov_loss(H).item() == pytest.approx(4.0, abs=1e-10)


def test_cov_uncorrelated_columns_give_zero():
    H = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert cov_loss(H).item() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# invariances


@pytest.mark.parametrize(
    "loss",
    [
        lambda H: nce_l2(H, 0.7),
        lambda H: nce_cos(H, 0.7),
        lambda H: hinge(H, 1.3),
        lambda H: cov_loss(H),
    ],
    ids=["nce-l2", "nce-cos", "hinge", "cov"],
)
def test_row_permutation_invariance(loss):
    rng = np.random.default_rng(5)
    H = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    assert loss(H[perm]).item() == pytest.approx(loss(H).item(), abs=1e-10)


def test_translation_invariance_hinge_and_cov():
    rng = np.random.default_rng(6)
    H = rng.normal(size=(5, 3))
    shift = rng.normal(size=3)
    assert hinge(H + shift, 1.0).item() == pytest.approx(hinge(H, 1.0).item(), abs=1e-9)
    assert cov_loss(H + shift).item() == pytest.approx(cov_loss(H).item(), abs=1e-9)


def test_nce_l2_not_translation_invariant():
    H = np.array([[0.0], [1.0]])
    shifted = H + 3.0
    assert abs(nce_l2(shifted, 1.0).item() - nce_l2(H, 1.0).item()) > 1.0


def test_monotone_dispersion_nce_l2_and_hinge():
    def pair(d):
        return np.array([[0.0, 0.0], [d, 0.0]])

    ds = np.linspace(0.1, 3.0, 15)
    nce_vals = [nce_l2(pair(d), 0.5).item() for d in ds]
    hinge_vals = [hinge(pair(d), 1.0).item() for d in ds]
    assert all(b <= a + 1e-12 for a, b in zip(nce_vals, nce_vals[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(hinge_vals, hinge_vals[1:]))
    # hinge saturates at zero past the margin
    assert hinge_vals[-1] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize(
    "loss",
    [
        lambda H: nce_l2(H, 0.5),
        lambda H: nce_cos(H, 0.5),
        lambda H: hinge(H, 1.0),
        lambda H: cov_loss(H),
    ],
    ids=["nce-l2", "nce-cos", "hinge", "cov"],
)
def test_gradients_match_finite_differences(loss):
    rng = np.random.default_rng(7)
    H0 = rng.normal(size=(4, 3))
    H = Tensor(H0, requires_grad=True)
    with Graph() as g:
        out = loss(H)
    grads = g.backward(out)
    want = fd_grad(lambda arr: loss(arr).item(), H0.copy())
    assert rel_err(grads[H], want) < 1e-4


# ---------------------------------------------------------------------------
# the fused hinge: one tape node against the op-composed definition


def _hinge_composed(H, margin):
    """The hinge written with autodiff ops, one node per op (the reference)."""
    H = Tensor(H) if not isinstance(H, Tensor) else H
    B = H.data.shape[0]
    sq = ad.square(H).sum(axis=1)
    d2 = sq.reshape((B, 1)) + sq.reshape((1, B)) - 2.0 * (H @ H.T)
    dist = ad.sqrt(ad.relu(d2))
    contrib = ad.relu(-dist + margin) * Tensor(1.0 - np.eye(B))
    return contrib.sum() * (1.0 / (B * (B - 1)))


def _value_and_grad(loss, H0, margin):
    H = Tensor(H0, requires_grad=True)
    with Graph() as g:
        out = loss(H, margin)
    return out.item(), g.backward(out)[H], [n.op for n in g.nodes]


def test_hinge_value_matches_composed_reference():
    rng = np.random.default_rng(12)
    for B, d, s in [(2, 3, 0.3), (5, 1, 0.5), (17, 8, 0.2), (64, 32, 0.1), (64, 32, 0.02)]:
        H0 = s * rng.normal(size=(B, d))
        got, g_got, _ = _value_and_grad(hinge, H0, 1.0)
        want, g_want, _ = _value_and_grad(_hinge_composed, H0, 1.0)
        assert abs(got - want) <= 1e-12
        np.testing.assert_allclose(g_got, g_want, rtol=0, atol=1e-12)


# dyadic rows keep every product and sum exact, so coincident rows are at
# distance exactly 0 and rows 0 and 1 of the "margin" case exactly 1 apart
_COINCIDENT = np.array([[0.5, -0.25, 0.125], [0.5, -0.25, 0.125], [0.0, 0.25, -0.5],
                        [1.5, 0.5, 0.25], [0.25, 0.375, -0.5]])


@pytest.mark.parametrize(
    "H0",
    [
        np.random.default_rng(13).normal(size=(6, 3)) * 0.4,
        _COINCIDENT,
        np.array([[0.1, -0.2], [0.3, 0.25]]),
    ],
    ids=["random", "coincident-rows", "B=2"],
)
def test_hinge_gradcheck_one_node(H0):
    _, grad, ops = _value_and_grad(hinge, H0, 1.0)
    assert ops == ["hinge"]
    want = fd_grad(lambda arr: hinge(arr, 1.0).item(), H0.copy())
    np.testing.assert_allclose(grad, want, rtol=1e-6, atol=1e-9)
    _, ref, _ = _value_and_grad(_hinge_composed, H0, 1.0)
    np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-12)


def test_hinge_coincident_rows_have_zero_subgradient():
    # a row pair at distance 0 pushes neither row (the sqrt kink); only the
    # other rows move them
    H0 = np.array([[0.5, -0.25], [0.5, -0.25]])
    value, grad, _ = _value_and_grad(hinge, H0, 1.0)
    assert value == 1.0
    np.testing.assert_array_equal(grad, np.zeros_like(H0))


def test_hinge_pair_at_the_margin_has_zero_subgradient():
    # rows 0 and 1 are exactly `margin` apart: relu's kink gives them no pull,
    # which is also the one-sided derivative for moving them apart
    H0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.25, 0.5]])
    value, grad, _ = _value_and_grad(hinge, H0, 1.0)
    want, ref, _ = _value_and_grad(_hinge_composed, H0, 1.0)
    assert abs(value - want) <= 1e-12
    np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-12)
    pair = H0[:2]
    v_pair, g_pair, _ = _value_and_grad(hinge, pair, 1.0)
    assert v_pair == 0.0
    np.testing.assert_array_equal(g_pair, np.zeros_like(pair))
    apart = pair + 1e-6 * np.array([[-1.0, 0.0], [1.0, 0.0]])
    assert hinge(apart, 1.0).item() == 0.0


# ---------------------------------------------------------------------------
# dispatch


@dataclass
class _Cfg:
    disp_kind: str = "nce-l2"
    disp_temperature: float = 0.1
    hinge_margin: float = 1.0


def test_dispatch_none_is_zero():
    cfg = _Cfg(disp_kind="none")
    H = np.random.default_rng(8).normal(size=(4, 3))
    assert dispersive_loss(H, cfg).item() == 0.0


def test_dispatch_matches_direct_call():
    cfg = _Cfg(disp_kind="hinge", hinge_margin=0.8)
    H = np.random.default_rng(9).normal(size=(4, 3))
    assert dispersive_loss(H, cfg).item() == hinge(H, 0.8).item()


def test_dispatch_unknown_kind():
    with pytest.raises(ValueError):
        dispersive_loss(np.ones((2, 2)), _Cfg(disp_kind="bogus"))


def test_weighted_sum_matches_manual():
    cfg = _Cfg(disp_kind="cov")
    H = np.random.default_rng(10).normal(size=(5, 3))
    mf = 0.37
    total = mf + 0.1 * dispersive_loss(H, cfg).item()
    manual = mf + 0.1 * cov_loss(H).item()
    assert total == pytest.approx(manual, abs=1e-12)


def test_batch_too_small():
    with pytest.raises(ValueError):
        nce_l2(np.ones((1, 3)), 1.0)


# ---------------------------------------------------------------------------
# effective rank


def _oracle_singular_values(H):
    """Brute-force: eigenvalues of the centered Gram matrix via char poly."""
    Hc = H - H.mean(axis=0)
    G = Hc.T @ Hc
    eig = np.roots(np.poly(G))
    eig = np.clip(np.real(eig), 0.0, None)
    return np.sqrt(np.sort(eig)[::-1])


def test_effective_rank_identical_rows():
    H = np.tile([1.5, -0.5, 2.0], (4, 1))
    assert effective_rank(H) == 0


@pytest.mark.parametrize("d", [2, 3])
def test_effective_rank_scaled_basis(d):
    H = 2.5 * np.eye(d)
    s = _oracle_singular_values(H)
    want = int(np.sum(s > 1e-3 * s[0]))
    assert effective_rank(H) == want == d - 1


def _svd_rank(H, tol=1e-3):
    s = np.linalg.svd(H - H.mean(axis=0), compute_uv=False)
    return int(np.sum(s > tol * s[0]))


@pytest.mark.parametrize("seed", range(6))
def test_effective_rank_at_the_cut_is_the_svd_count(seed):
    # singular values a relative 1e-12 either side of the cut tol * s_max:
    # far inside the Gram eigenvalues' rounding, so only the SVD can count them
    rng = np.random.default_rng(seed)
    B, d, tol = 256, 32, 1e-3
    U = np.linalg.qr(rng.normal(size=(B, d + 1)) - 1.0)[0]
    U = U - U.mean(axis=0)  # centered columns, so H is its own row-centering
    U = np.linalg.qr(U[:, :d])[0]
    V = np.linalg.qr(rng.normal(size=(d, d)))[0]
    for sign in (1.0, -1.0):
        s = np.geomspace(1.0, 1e-6, d)
        s[[5, 11, 17]] = tol * (1.0 + sign * 1e-12)
        H = 3.0 * (U * s) @ V.T
        assert effective_rank(H) == _svd_rank(H) == int(np.sum(s > tol))


@pytest.mark.parametrize("kind", ["gaussian", "low-rank", "tanh", "rescaled"])
def test_effective_rank_matches_svd_count(kind):
    rng = np.random.default_rng(3)
    for _ in range(50):
        B, d = int(rng.integers(2, 300)), int(rng.integers(1, 40))
        H = rng.normal(size=(B, d))
        if kind == "low-rank":
            r = int(rng.integers(1, d + 1))
            H = rng.normal(size=(B, r)) @ rng.normal(size=(r, d))
        elif kind == "tanh":
            H = np.tanh(5.0 * H @ rng.normal(size=(d, d)))
        elif kind == "rescaled":
            H = H * 10.0 ** rng.uniform(-5.0, 5.0, d)
        assert effective_rank(H) == _svd_rank(H)


def test_effective_rank_permutation_invariant():
    rng = np.random.default_rng(11)
    H = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    assert effective_rank(H[perm]) == effective_rank(H)


@pytest.mark.parametrize("loss", [nce_l2, nce_cos, hinge])
def test_nan_temperature_or_margin_is_rejected(loss):
    H = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
    with pytest.raises(ValueError, match="must be positive"):
        loss(H, float("nan"))
