"""Reverse-mode, forward-mode, and graph-recording checks."""

import numpy as np
import pytest

import dmpo.autodiff as ad
from dmpo.autodiff import (
    DualTensor,
    Graph,
    GraphError,
    NonFiniteError,
    ShapeError,
    Tensor,
    concat,
    jvp,
    stop_gradient,
    trace,
)

from helpers import fd_directional, fd_grad, rel_err


def _rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


# ---------------------------------------------------------------------------
# per-op gradient checks against central finite differences


UNARY_OPS = {
    "tanh": ad.tanh,
    "relu": ad.relu,
    "softplus": ad.softplus,
    "exp": ad.exp,
    "sin": ad.sin,
    "cos": ad.cos,
    "square": ad.square,
    "neg": ad.neg,
}


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
def test_unary_gradcheck(name):
    op = UNARY_OPS[name]
    rng = np.random.default_rng(7)
    x0 = _rand(rng, 3, 4)
    w = _rand(rng, 3, 4)

    def scalar(xarr):
        return float(np.sum(np.asarray(_primal(op(Tensor(xarr)))) * w))

    x = Tensor(x0, requires_grad=True)
    with Graph() as g:
        loss = (op(x) * Tensor(w)).sum()
    grads = g.backward(loss)
    assert rel_err(grads[x], fd_grad(scalar, x0.copy())) < 1e-4


@pytest.mark.parametrize("name", ["log", "sqrt"])
def test_positive_domain_gradcheck(name):
    op = getattr(ad, name)
    rng = np.random.default_rng(8)
    x0 = rng.uniform(0.5, 2.0, size=(3, 4))
    w = _rand(rng, 3, 4)

    def scalar(xarr):
        return float(np.sum(np.asarray(_primal(op(Tensor(xarr)))) * w))

    x = Tensor(x0, requires_grad=True)
    with Graph() as g:
        loss = (op(x) * Tensor(w)).sum()
    grads = g.backward(loss)
    assert rel_err(grads[x], fd_grad(scalar, x0.copy())) < 1e-4


def _primal(t):
    return t.data if isinstance(t, Tensor) else t.primal


BINARY_CASES = [
    ("add", lambda a, b: a + b, (3, 4), (3, 4)),
    ("add_bias", lambda a, b: a + b, (3, 4), (4,)),
    ("sub", lambda a, b: a - b, (3, 4), (3, 4)),
    ("mul", lambda a, b: a * b, (3, 4), (3, 4)),
    ("mul_rowcol", lambda a, b: a * b, (3, 1), (1, 4)),
    ("div", lambda a, b: a / b, (3, 4), (3, 4)),
    ("matmul", lambda a, b: a @ b, (3, 4), (4, 2)),
    ("vecmat", lambda a, b: a @ b, (4,), (4, 2)),
    ("matvec", lambda a, b: a @ b, (3, 4), (4,)),
]


@pytest.mark.parametrize("name,fn,sa,sb", BINARY_CASES)
def test_binary_gradcheck(name, fn, sa, sb):
    rng = np.random.default_rng(11)
    a0 = _rand(rng, *sa)
    b0 = rng.uniform(0.5, 2.0, size=sb)  # keeps div away from zero
    out_shape = np.asarray(fn(Tensor(a0), Tensor(b0)).data).shape
    w = _rand(rng, *out_shape) if out_shape else rng.uniform(-2, 2)

    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    with Graph() as g:
        loss = (fn(a, b) * Tensor(w)).sum()
    grads = g.backward(loss)

    fa = fd_grad(lambda arr: float(np.sum(_primal(fn(Tensor(arr), Tensor(b0))) * w)), a0.copy())
    fb = fd_grad(lambda arr: float(np.sum(_primal(fn(Tensor(a0), Tensor(arr))) * w)), b0.copy())
    assert rel_err(grads[a], fa) < 1e-4
    assert rel_err(grads[b], fb) < 1e-4


@pytest.mark.parametrize("axis", [None, 0, 1])
@pytest.mark.parametrize("red", ["sum", "mean"])
def test_reduction_gradcheck(red, axis):
    rng = np.random.default_rng(13)
    x0 = _rand(rng, 3, 4)
    out = getattr(Tensor(x0), red)(axis)
    w = _rand(rng, *out.data.shape) if out.data.shape else 1.7

    x = Tensor(x0, requires_grad=True)
    with Graph() as g:
        loss = (getattr(x, red)(axis) * Tensor(w)).sum()
    grads = g.backward(loss)
    f = lambda arr: float(np.sum(_primal(getattr(Tensor(arr), red)(axis)) * w))
    assert rel_err(grads[x], fd_grad(f, x0.copy())) < 1e-4


def test_shape_ops_gradcheck():
    rng = np.random.default_rng(17)
    x0 = _rand(rng, 3, 4)
    w = _rand(rng, 2, 3)

    def fn(t):
        return (t.T[:2, :3] * Tensor(w)).sum() + t.reshape((12,))[::2].sum()

    x = Tensor(x0, requires_grad=True)
    with Graph() as g:
        loss = fn(x)
    grads = g.backward(loss)
    f = lambda arr: float(_primal(fn(Tensor(arr))))
    assert rel_err(grads[x], fd_grad(f, x0.copy())) < 1e-4


def test_concat_gradcheck():
    rng = np.random.default_rng(19)
    a0, b0 = _rand(rng, 3, 2), _rand(rng, 3, 3)
    w = _rand(rng, 3, 5)
    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    with Graph() as g:
        loss = (concat([a, b], axis=1) * Tensor(w)).sum()
    grads = g.backward(loss)
    fa = fd_grad(lambda arr: float(np.sum(np.concatenate([arr, b0], axis=1) * w)), a0.copy())
    fb = fd_grad(lambda arr: float(np.sum(np.concatenate([a0, arr], axis=1) * w)), b0.copy())
    assert rel_err(grads[a], fa) < 1e-4
    assert rel_err(grads[b], fb) < 1e-4


# ---------------------------------------------------------------------------
# contract examples


def test_forward_identity_net():
    w = Tensor(np.eye(2))
    x = Tensor([1.0, 2.0])
    out, graph = trace(lambda t: t @ w, x)
    np.testing.assert_array_equal(out.data, [1.0, 2.0])
    assert isinstance(graph, Graph)


def test_forward_affine_hand_case():
    # y = 2x + 3 on x=[1] -> [5]
    x = Tensor([1.0])
    y = x * 2.0 + 3.0
    np.testing.assert_array_equal(y.data, [5.0])


def test_forward_matches_straight_line_reevaluation():
    rng = np.random.default_rng(23)
    w1, b1 = _rand(rng, 3, 5), _rand(rng, 5)
    w2, b2 = _rand(rng, 5, 2), _rand(rng, 2)
    x = _rand(rng, 4, 3)

    out = ad.tanh(Tensor(x) @ Tensor(w1) + Tensor(b1)) @ Tensor(w2) + Tensor(b2)
    oracle = np.tanh(x @ w1 + b1) @ w2 + b2
    assert np.max(np.abs(out.data - oracle)) < 1e-12


def test_backward_square_scalar():
    x = Tensor(3.0, requires_grad=True)
    with Graph() as g:
        loss = ad.square(x)
    grads = g.backward(loss)
    assert grads[x] == pytest.approx(6.0)


def test_backward_linear_case():
    w = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
    x = Tensor([2.0, 3.0])
    with Graph() as g:
        loss = (w @ x).sum()
    grads = g.backward(loss)
    np.testing.assert_allclose(grads[w], [[2.0, 3.0]])


def test_backward_random_mlp_vs_fd():
    rng = np.random.default_rng(29)
    params = {
        "w1": _rand(rng, 4, 8),
        "b1": _rand(rng, 8),
        "w2": _rand(rng, 8, 3),
        "b2": _rand(rng, 3),
    }
    x = _rand(rng, 5, 4)

    def loss_np(p):
        h = np.tanh(x @ p["w1"] + p["b1"])
        return float(np.sum(np.square(h @ p["w2"] + p["b2"])))

    ts = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
    with Graph() as g:
        h = ad.tanh(Tensor(x) @ ts["w1"] + ts["b1"])
        loss = ad.square(h @ ts["w2"] + ts["b2"]).sum()
    grads = g.backward(loss)

    for k in params:
        def f(arr, k=k):
            q = {n: v.copy() for n, v in params.items()}
            q[k] = arr
            return loss_np(q)

        assert rel_err(grads[ts[k]], fd_grad(f, params[k].copy())) < 1e-4


def test_jvp_linear_case():
    # f(z, tau) = A z + b tau with A=[[2]], b=[3]; tangent (1, 1) -> [5]
    A, b = np.array([[2.0]]), np.array([3.0])

    def f(z, tau):
        return z @ Tensor(A) + Tensor(b) * tau

    val, tan = jvp(f, [np.array([1.0]), np.array(1.0)], [np.array([1.0]), np.array(1.0)])
    np.testing.assert_allclose(tan.data, [5.0])
    np.testing.assert_allclose(val.data, [5.0])


def test_jvp_constant_function():
    val, tan = jvp(lambda z: Tensor([4.0, 2.0]), [np.ones(3)], [np.ones(3)])
    np.testing.assert_array_equal(tan.data, [0.0, 0.0])


def test_jvp_random_mlp_vs_fd():
    rng = np.random.default_rng(31)
    w1, b1 = _rand(rng, 4, 8), _rand(rng, 8)
    w2, b2 = _rand(rng, 8, 3), _rand(rng, 3)

    def f(x):
        return ad.tanh(x @ Tensor(w1) + Tensor(b1)) @ Tensor(w2) + Tensor(b2)

    x0 = _rand(rng, 4)
    t0 = _rand(rng, 4)
    _, tan = jvp(f, [x0], [t0])

    def f_np(x):
        return np.tanh(x @ w1 + b1) @ w2 + b2

    want = fd_directional(f_np, [x0], [t0])
    assert rel_err(tan.data, want) < 1e-4


# ---------------------------------------------------------------------------
# invariants


def test_jvp_vjp_consistency():
    rng = np.random.default_rng(37)
    for _ in range(20):
        w1, b1 = _rand(rng, 3, 6), _rand(rng, 6)
        w2 = _rand(rng, 6, 2)

        def f(x):
            return ad.softplus(x @ Tensor(w1) + Tensor(b1)) @ Tensor(w2)

        x0 = _rand(rng, 3)
        t = _rand(rng, 3)
        c = _rand(rng, 2)

        _, tan = jvp(f, [x0], [t])
        lhs = float(c @ tan.data)

        xt = Tensor(x0, requires_grad=True)
        with Graph() as g:
            out = f(xt)
        grads = g.backward(out, seed=c)
        rhs = float(t @ grads[xt])
        assert abs(lhs - rhs) < 1e-10


def test_determinism_bit_identical():
    rng = np.random.default_rng(41)
    w = _rand(rng, 6, 6)
    x = _rand(rng, 2, 6)
    a = ad.tanh(Tensor(x) @ Tensor(w)).data
    b = ad.tanh(Tensor(x) @ Tensor(w)).data
    np.testing.assert_array_equal(a, b)


def test_stop_gradient_blocks_both_modes():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    with Graph() as g:
        loss = (stop_gradient(x * 3.0) * x).sum()
    grads = g.backward(loss)
    np.testing.assert_allclose(grads[x], [6.0, -3.0])  # only the live factor

    d = DualTensor(np.array([1.0]), np.array([1.0]))
    out = stop_gradient(d * 2.0)
    np.testing.assert_array_equal(out.tangent, [0.0])
    np.testing.assert_array_equal(out.primal.data, [2.0])


def test_backward_twice_gives_equal_grads_and_mutates_no_tensor():
    rng = np.random.default_rng(3)
    x, w = Tensor(_rand(rng, 2, 3), requires_grad=True), Tensor(_rand(rng, 3, 2), requires_grad=True)
    with Graph() as g:
        loss = ad.tanh(x @ w).sum()
    recorded = {t: t.data.copy() for n in g.nodes for t in (n.out, *n.parents)}
    first, second = g.backward(loss), g.backward(loss)
    assert list(first) == list(second) == [x, w]
    for t in (x, w):
        assert first[t] is not second[t]
        np.testing.assert_array_equal(first[t], second[t])
    for t, before in recorded.items():
        np.testing.assert_array_equal(t.data, before)
        assert not hasattr(t, "grad")


def test_backward_leaves_in_order_of_first_use():
    # clip_grad_norm sums the gradients in this order, so it fixes the
    # rounding of the global norm
    a, b, c = (Tensor(np.full(2, v), requires_grad=True) for v in (1.0, 2.0, 3.0))
    with Graph() as g:
        hidden = c * b  # c first, then b
        loss = (hidden * a + b).sum() + (c * 0.0).sum()
    assert list(g.backward(loss)) == [c, b, a]
    # a leaf the output does not depend on is left out
    with Graph() as g:
        first = (a * b).sum()
        _ = (c * 2.0).sum()
    assert list(g.backward(first)) == [a, b]


def test_jvp_under_a_graph_records_nothing():
    from dmpo.nets import init_velocity_net

    net = init_velocity_net(5, 3, 2)
    rng = np.random.default_rng(5)
    z, r, tau = rng.normal(size=(4, 2)), np.full((4, 1), 0.2), np.full((4, 1), 0.7)
    h = net.encode(Tensor(rng.normal(size=(4, 3))))
    with Graph() as g:
        value, tangent = jvp(lambda z, tau: net.velocity(z, Tensor(r), tau, h=h), [z, tau],
                             [np.ones((4, 2)), np.ones((4, 1))])
    assert g.nodes == []
    assert not value.requires_grad and value.shape == tangent.shape == (4, 2)


# ---------------------------------------------------------------------------
# error handling


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))) + Tensor(np.ones((2, 4)))


def test_rank3_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 2, 2)))


def test_nonfinite_raises():
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteError):
            ad.log(Tensor([0.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            ad.exp(Tensor([1000.0]))


def test_finite_output_with_overflowing_sum_passes():
    # the one-reduction check must fall back to the exact test, not raise
    with np.errstate(over="ignore"):
        out = Tensor([1e308, 1e308]) + 0.0
    np.testing.assert_array_equal(out.data, [1e308, 1e308])


def test_nan_only_and_mixed_inf_outputs_raise():
    with np.errstate(invalid="ignore"):  # inf + -inf inside the check's sum
        with pytest.raises(NonFiniteError):
            Tensor([np.nan, np.nan]) + 0.0
        with pytest.raises(NonFiniteError):
            Tensor([np.inf, -np.inf, 1.0]) + 0.0


def test_custom_op_single_node_and_vjp():
    x = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
    c = Tensor(np.array([1.0, 2.0, 3.0]))
    with Graph() as g:
        y = ad.custom_op(np.sum(c.data * x.data**2), (x, c), lambda gy: (2.0 * gy * c.data * x.data, None),
                         "weighted_sq")
    assert [n.op for n in g.nodes] == ["weighted_sq"]
    grads = g.backward(y)
    assert set(grads) == {x}
    np.testing.assert_allclose(grads[x], 2.0 * c.data * x.data, atol=1e-15)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError):
            ad.custom_op(np.array([np.nan]), (x,), lambda gy: (gy,), "bad")


def _vjp_pair(fn, xs, seed):
    """(value, cotangents of xs) of scalar-or-array ``fn(*xs)`` under a tape."""
    with Graph() as g:
        out = fn(*xs)
    grads = g.backward(out, seed=seed)
    return out.data, [grads[x] for x in xs]


@pytest.mark.parametrize("weights", [[1.0, 0.5, 0.01, 0.1], [1.0, 0.1], [0.3, 2.0, 0.0]])
def test_weighted_sum_bit_identical_to_op_chain(weights):
    rng = np.random.default_rng(71)
    vals = rng.normal(size=len(weights))
    xs = [Tensor(np.array(v), requires_grad=True) for v in vals]
    seed = np.array(0.37)

    def chain(*ts):
        # the reference: the weighted total as mul/add ops, left to right
        total = weights[0] * ts[0]
        for w, t in zip(weights[1:], ts[1:]):
            total = total + w * t
        return total

    with Graph() as g:
        ad.weighted_sum(xs, weights, "total")
    assert [n.op for n in g.nodes] == ["total"]
    got_v, got_g = _vjp_pair(lambda *ts: ad.weighted_sum(ts, weights, "total"), xs, seed)
    want_v, want_g = _vjp_pair(chain, xs, seed)
    assert np.array_equal(got_v, want_v)
    for a, b in zip(got_g, want_g):
        assert np.array_equal(a, b)
    want = fd_grad(lambda v: float(np.dot(weights, v)), vals.copy())
    assert rel_err(np.array(got_g) / seed, want) < 1e-8


def test_row_sq_mean_head_bit_identical_to_op_chain():
    rng = np.random.default_rng(72)
    x0 = rng.normal(size=(7, 3))
    c = rng.normal(size=(7, 3))
    x = Tensor(x0.copy(), requires_grad=True)
    seed = np.array(1.7)

    def head(t):
        val, grad = ad.row_sq_mean(t.data + -c)
        return ad.custom_op(val, (t,), lambda g: (grad(g),), "dist")

    got_v, (got_g,) = _vjp_pair(head, [x], seed)
    want_v, (want_g,) = _vjp_pair(lambda t: ad.square(t - Tensor(c)).sum(axis=1).mean(), [x], seed)
    assert np.array_equal(got_v, want_v) and np.array_equal(got_g, want_g)
    want = fd_grad(lambda a: float(np.sum((a - c) ** 2, axis=1).mean()), x0.copy())
    assert rel_err(got_g / seed, want) < 1e-6


def test_backward_seed_shape_mismatch():
    x = Tensor(np.ones(3), requires_grad=True)
    with Graph() as g:
        y = x * 2.0
    with pytest.raises(ShapeError):
        g.backward(y, seed=np.ones(4))


def test_backward_foreign_output_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Graph() as g:
        _ = x * 2.0
    with pytest.raises(GraphError):
        g.backward(x * 3.0)


def test_dual_shape_mismatch():
    with pytest.raises(ShapeError):
        DualTensor(np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# the fused dense layer


def _dense_case(seed):
    rng = np.random.default_rng(seed)
    return _rand(rng, 5, 4), 0.5 * _rand(rng, 4, 3), 0.5 * _rand(rng, 3), _rand(rng, 5, 3)


def _dense_np(x, W, b, tanh):
    y = x @ W + b
    return np.tanh(y) if tanh else y


def _op_chain(x, W, b, tanh):
    y = x @ W + b
    return ad.tanh(y) if tanh else y


@pytest.mark.parametrize("tanh", [True, False])
@pytest.mark.parametrize("x_traced", [True, False])
def test_dense_gradcheck(tanh, x_traced):
    x0, W0, b0, w = _dense_case(41)
    x = Tensor(x0, requires_grad=x_traced)
    W, b = Tensor(W0, requires_grad=True), Tensor(b0, requires_grad=True)
    with Graph() as g:
        loss = (ad.dense(x, W, b, tanh) * Tensor(w)).sum()
    assert [n.op for n in g.nodes][0] == "dense"
    grads = g.backward(loss)
    assert (x in grads) is x_traced

    def f(xa, Wa, ba):
        return float(np.sum(_dense_np(xa, Wa, ba, tanh) * w))

    want = {
        W: fd_grad(lambda a: f(x0, a, b0), W0.copy()),
        b: fd_grad(lambda a: f(x0, W0, a), b0.copy()),
    }
    if x_traced:
        want[x] = fd_grad(lambda a: f(a, W0, b0), x0.copy())
    for t, g_fd in want.items():
        assert rel_err(grads[t], g_fd) < 1e-4


@pytest.mark.parametrize("tanh", [True, False])
@pytest.mark.parametrize("x_traced", [True, False])
def test_dense_jvp_vs_fd(tanh, x_traced):
    x0, W0, b0, _ = _dense_case(43)
    t0 = _rand(np.random.default_rng(44), 5, 4)
    W, b = Tensor(W0, requires_grad=True), Tensor(b0, requires_grad=True)
    if x_traced:
        # a Tensor primal: the forward is taped as one node, the tangent is not
        with Graph() as g:
            out = ad.dense(DualTensor(Tensor(x0, requires_grad=True), t0), W, b, tanh)
        assert isinstance(out.primal, Tensor) and [n.op for n in g.nodes] == ["dense"]
        value = out.primal.data
    else:
        out = ad.dense(DualTensor(x0, t0), W, b, tanh)
        value = out.primal.data
    np.testing.assert_array_equal(value, _dense_np(x0, W0, b0, tanh))
    want = fd_directional(lambda x: _dense_np(x, W0, b0, tanh), [x0], [t0])
    assert rel_err(out.tangent, want) < 1e-4


@pytest.mark.parametrize("tanh", [True, False])
def test_dense_bit_identical_to_op_chain(tanh):
    # value, every VJP and the tangent equal the matmul -> add -> tanh chain
    x0, W0, b0, g0 = _dense_case(47)
    t0 = _rand(np.random.default_rng(48), 5, 4)

    def reverse(layer):
        x, W, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, W0, b0))
        with Graph() as g:
            y = layer(x, W, b, tanh)
        grads = g.backward(y, seed=g0)
        return [y.data] + [grads[p] for p in (x, W, b)]

    for got, want in zip(reverse(ad.dense), reverse(_op_chain)):
        np.testing.assert_array_equal(got, want)

    W, b = Tensor(W0), Tensor(b0)
    for primal in (x0, Tensor(x0, requires_grad=True)):
        with Graph():
            got = ad.dense(DualTensor(primal, t0), W, b, tanh)
            want = _op_chain(DualTensor(primal, t0), W, b, tanh)
        np.testing.assert_array_equal(ad.value_of(got), ad.value_of(want))
        np.testing.assert_array_equal(got.tangent, want.tangent)

    # the plain-array path returns an array, not a Tensor, and records nothing
    with Graph() as g:
        plain = ad.dense(x0, Tensor(W0, requires_grad=True), Tensor(b0, requires_grad=True), tanh)
    assert type(plain) is np.ndarray and not g.nodes
    np.testing.assert_array_equal(plain, _op_chain(Tensor(x0), W, b, tanh).data)


def test_dense_checks_the_pre_activation():
    # tanh(inf) is finite, so the check must see x @ W + b, as the chain's
    # matmul and add checks did
    x = Tensor(np.array([[1e308, 1e308]]), requires_grad=True)
    W = Tensor(np.ones((2, 1)), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    with np.errstate(over="ignore"), Graph():
        with pytest.raises(NonFiniteError, match="dense"):
            ad.dense(x, W, b)
