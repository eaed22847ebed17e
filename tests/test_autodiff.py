"""Reverse-mode, forward-mode, and graph-recording checks."""

import re

import numpy as np
import pytest

import dmpo.autodiff as ad
from dmpo import kernels, nets
from dmpo.autodiff import (
    DualTensor,
    Graph,
    GraphError,
    NonFiniteError,
    ShapeError,
    Tensor,
    concat,
    jvp,
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


# Each shape pair with the sums that take an output cotangent back to the
# first and the second operand's shape (leading axes, then kept size-1 axes).
BROADCAST_PAIRS = [
    ((3, 4), (4,), lambda g: g, lambda g: g.sum(axis=0)),
    ((3, 1), (1, 4), lambda g: g.sum(axis=1, keepdims=True), lambda g: g.sum(axis=0, keepdims=True)),
    ((), (3, 4), lambda g: g.sum(axis=0).sum(axis=0), lambda g: g),
]

# op -> (value, VJP of each operand before its sum, tangent) as numpy
# expressions of the data x, y, the cotangent g and the tangents tx, ty
ELEMENTWISE = {
    "add": (lambda x, y: x + y, lambda g, x, y: (g, g), lambda x, y, tx, ty: tx + ty),
    "sub": (lambda x, y: x - y, lambda g, x, y: (g, -g), lambda x, y, tx, ty: tx - ty),
    "mul": (lambda x, y: x * y, lambda g, x, y: (g * y, g * x), lambda x, y, tx, ty: tx * y + x * ty),
    "div": (lambda x, y: x / y, lambda g, x, y: (g / y, -g * x / (y * y)),
            lambda x, y, tx, ty: (tx * y - x * ty) / (y * y)),
}


@pytest.mark.parametrize("name", sorted(ELEMENTWISE))
@pytest.mark.parametrize("sa, sb, sum_a, sum_b", BROADCAST_PAIRS, ids=["row", "outer", "scalar"])
def test_elementwise_ops_equal_numpy_bit_for_bit(name, sa, sb, sum_a, sum_b):
    # the finite-difference checks above allow a tolerance; these see any
    # change of rounding in a value, cotangent or tangent
    op = getattr(ad, name)
    value, vjp, tangent = ELEMENTWISE[name]
    rng = np.random.default_rng(12)
    x, tx = _rand(rng, *sa), _rand(rng, *sa)
    y, ty = rng.uniform(0.5, 2.0, size=sb) * rng.choice([-1.0, 1.0], size=sb), _rand(rng, *sb)
    want = value(x, y)
    g = _rand(rng, *want.shape)

    a, b = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
    with Graph() as graph:
        out = op(a, b)
    grads = graph.backward(out, g)
    ga, gb = vjp(g, x, y)
    np.testing.assert_array_equal(out.data, want, strict=True)
    np.testing.assert_array_equal(grads[a], sum_a(ga), strict=True)
    np.testing.assert_array_equal(grads[b], sum_b(gb), strict=True)

    both = op(DualTensor(x, tx), DualTensor(y, ty))
    np.testing.assert_array_equal(both.primal.data, want, strict=True)
    np.testing.assert_array_equal(both.tangent, tangent(x, y, tx, ty), strict=True)
    # a plain operand's tangent is zero
    zero_a, zero_b = np.zeros(sa), np.zeros(sb)
    first, second = op(DualTensor(x, tx), y), op(x, DualTensor(y, ty))
    for dual, t in ((first, tangent(x, y, tx, zero_b)), (second, tangent(x, y, zero_a, ty))):
        np.testing.assert_array_equal(dual.tangent, np.broadcast_to(t, want.shape), strict=True)


# (x shape, y shape, cotangent of x, cotangent of y) as numpy expressions of
# the data x, y and the output cotangent g
MATMUL_CASES = [
    ((3, 4), (4, 2), lambda g, x, y: g @ y.T, lambda g, x, y: x.T @ g),
    ((4,), (4, 2), lambda g, x, y: y @ g, lambda g, x, y: np.outer(x, g)),
    ((3, 4), (4,), lambda g, x, y: np.outer(g, y), lambda g, x, y: x.T @ g),
]


@pytest.mark.parametrize("sa, sb, ga_of, gb_of", MATMUL_CASES, ids=["matmat", "vecmat", "matvec"])
def test_matmul_equals_numpy_bit_for_bit(sa, sb, ga_of, gb_of):
    rng = np.random.default_rng(15)
    x, tx, y, ty = _rand(rng, *sa), _rand(rng, *sa), _rand(rng, *sb), _rand(rng, *sb)
    want = x @ y
    g = _rand(rng, *want.shape)
    a, b = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
    with Graph() as graph:
        out = a @ b
    assert [n.op for n in graph.nodes] == ["matmul"]
    grads = graph.backward(out, g)
    np.testing.assert_array_equal(out.data, want, strict=True)
    np.testing.assert_array_equal(grads[a], ga_of(g, x, y), strict=True)
    np.testing.assert_array_equal(grads[b], gb_of(g, x, y), strict=True)
    both = DualTensor(x, tx) @ DualTensor(y, ty)
    np.testing.assert_array_equal(both.primal.data, want, strict=True)
    np.testing.assert_array_equal(both.tangent, tx @ y + x @ ty, strict=True)
    # a plain operand's tangent is zero, so its product is skipped
    np.testing.assert_array_equal(ad.matmul(DualTensor(x, tx), y).tangent, tx @ y, strict=True)
    np.testing.assert_array_equal(ad.matmul(x, DualTensor(y, ty)).tangent, x @ ty, strict=True)


def test_neg_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(14)
    x, t, g = _rand(rng, 3, 4), _rand(rng, 3, 4), _rand(rng, 3, 4)
    a = Tensor(x, requires_grad=True)
    with Graph() as graph:
        out = ad.neg(a)
    np.testing.assert_array_equal(out.data, -x, strict=True)
    np.testing.assert_array_equal(graph.backward(out, g)[a], -g, strict=True)
    np.testing.assert_array_equal(ad.neg(DualTensor(x, t)).tangent, -t, strict=True)
    # exact zeros keep their sign through the negation
    assert np.signbit(ad.neg(Tensor(0.0)).data)
    assert not np.signbit(ad.neg(Tensor(-0.0)).data)


OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
             "__rtruediv__", "__neg__", "__matmul__", "__rmatmul__", "__array_ufunc__", "sum", "mean",
             "reshape", "T")


@pytest.mark.parametrize("op", ["+", "*", "@"])
def test_ndarray_on_the_left_is_one_op_equal_to_the_tensor_first_form(op):
    # numpy defers to the reflected operator: one node, not one per entry
    apply = {"+": lambda a, b: a + b, "*": lambda a, b: a * b, "@": lambda a, b: a @ b}[op]
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 2))
    y = rng.normal(size=(3, 2) if op != "@" else (2, 4))
    seed = rng.normal(size=apply(x, y).shape)
    outs = []
    for left in (x, Tensor(x)):
        t = Tensor(y, requires_grad=True)
        with Graph() as g:
            out = apply(left, t)
        assert type(out) is Tensor and len(g.nodes) == 1
        outs.append((out.data, g.backward(out, seed)[t]))
    for a, b in zip(*outs):
        np.testing.assert_array_equal(a, b, strict=True)
    tangent = rng.normal(size=y.shape)
    duals = [apply(left, DualTensor(y, tangent)) for left in (x, Tensor(x))]
    assert all(type(d) is DualTensor for d in duals)
    np.testing.assert_array_equal(duals[0].primal.data, duals[1].primal.data, strict=True)
    np.testing.assert_array_equal(duals[0].tangent, duals[1].tangent, strict=True)


def test_tensor_and_dual_tensor_share_one_operator_set():
    def own(cls):
        # the names a type adds to object's, less its fields
        return set(dir(cls)) - set(dir(object)) - {"__module__", "__slots__", *cls.__slots__}

    assert own(Tensor) - {"shape", "ndim", "item"} == own(DualTensor) - {"shape"} == set(OPERATORS)
    for name in OPERATORS:
        assert getattr(Tensor, name) is getattr(DualTensor, name), name


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
    w, v = _rand(rng, 4, 3), _rand(rng, 12)

    def fn(t):
        return (t.T * Tensor(w)).sum() + (t.reshape((12,)) * Tensor(v)).sum()

    x = Tensor(x0, requires_grad=True)
    with Graph() as g:
        loss = fn(x)
    grads = g.backward(loss)
    f = lambda arr: float(_primal(fn(Tensor(arr))))
    assert rel_err(grads[x], fd_grad(f, x0.copy())) < 1e-4


# op -> numpy expression of an array; each dual op's value and tangent
# must be that expression of the primal and of the tangent
_SHAPE_AND_REDUCTION_OPS = {
    "reshape": (lambda a: a.reshape((2, 6)), lambda x: x.reshape((2, 6))),
    "transpose": (lambda a: a.T, lambda x: x.T),
    "sum": (lambda a: a.sum(), lambda x: np.sum(x)),
    "sum-axis0": (lambda a: a.sum(0), lambda x: np.sum(x, axis=0)),
    "sum-axis1": (lambda a: a.sum(1), lambda x: np.sum(x, axis=1)),
    "mean": (lambda a: a.mean(), lambda x: np.mean(x)),
    "mean-axis0": (lambda a: a.mean(0), lambda x: np.mean(x, axis=0)),
    "mean-axis1": (lambda a: a.mean(1), lambda x: np.mean(x, axis=1)),
}


@pytest.mark.parametrize("name", list(_SHAPE_AND_REDUCTION_OPS))
def test_dual_shape_and_reduction_ops_equal_numpy_bit_for_bit(name):
    op, expr = _SHAPE_AND_REDUCTION_OPS[name]
    rng = np.random.default_rng(23)
    x, t = _rand(rng, 3, 4), _rand(rng, 3, 4)
    out = op(DualTensor(x, t))
    assert isinstance(out, DualTensor)
    np.testing.assert_array_equal(out.primal.data, expr(x), strict=True)
    np.testing.assert_array_equal(out.tangent, expr(t), strict=True)


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


@pytest.mark.parametrize("axis", [0, 1])
def test_dual_concat_tangent_is_the_concatenated_tangents(axis):
    # the primal is the Tensor path's (one recorded node); a non-dual part,
    # Tensor or ndarray, contributes an exact zero tangent
    rng = np.random.default_rng(axis)
    a0, b0, c0 = (_rand(rng, 3, 2) for _ in range(3))
    ta, tc = _rand(rng, 3, 2), _rand(rng, 3, 2)
    b = Tensor(b0, requires_grad=True)
    with Graph() as g:
        out = concat([DualTensor(a0, ta), b, DualTensor(c0, tc), a0], axis=axis)
    assert [n.op for n in g.nodes] == ["concat"]
    np.testing.assert_array_equal(out.primal.data, np.concatenate([a0, b0, c0, a0], axis=axis))
    zero = np.zeros((3, 2))
    np.testing.assert_array_equal(out.tangent, np.concatenate([ta, zero, tc, zero], axis=axis))


def test_dual_concat_of_velocity_inputs_equals_numpy_bit_for_bit():
    # the trunk input [z, h, r, tau] of a JVP pass: dual z and times, a
    # traced embedding; the tangent is the parts' tangents concatenated, a
    # zero block for h, in a fresh array that aliases no part's tangent
    rng = np.random.default_rng(21)
    z, tz, h = _rand(rng, 5, 2), _rand(rng, 5, 2), _rand(rng, 5, 3)
    r, tau = rng.uniform(0.0, 0.5, (5, 1)), rng.uniform(0.5, 1.0, (5, 1))
    parts = [DualTensor(z, tz), Tensor(h, requires_grad=True), DualTensor(r, np.zeros((5, 1))),
             DualTensor(tau, np.ones((5, 1)))]
    with Graph() as g:
        out = concat(parts, axis=1)
    assert [n.op for n in g.nodes] == ["concat"]
    np.testing.assert_array_equal(out.primal.data, np.concatenate([z, h, r, tau], axis=1), strict=True)
    want = np.concatenate([tz, np.zeros((5, 3)), np.zeros((5, 1)), np.ones((5, 1))], axis=1)
    np.testing.assert_array_equal(out.tangent, want, strict=True)
    assert out.tangent.flags.c_contiguous
    out.tangent[...] = 7.0
    assert not (tz == 7.0).any() and not (parts[3].tangent == 7.0).any()


def test_split_rows_inverts_concat_and_gradcheck():
    rng = np.random.default_rng(20)
    x0, wa, wb = _rand(rng, 5, 3), _rand(rng, 2, 3), _rand(rng, 3, 3)
    x = Tensor(x0, requires_grad=True)
    with Graph() as g:
        a, b = ad.split_rows(x, 2)
        both = (a * Tensor(wa)).sum() + (b * Tensor(wb)).sum()
        only_b = (b * Tensor(wb)).sum()
        again = concat([a, b], axis=0)
    assert [n.op for n in g.nodes].count("split_rows") == 1
    assert np.array_equal(a.data, x0[:2]) and np.array_equal(b.data, x0[2:])
    assert np.array_equal(again.data, x0)
    f = lambda arr: float(np.sum(arr[:2] * wa) + np.sum(arr[2:] * wb))
    assert rel_err(g.backward(both)[x], fd_grad(f, x0.copy())) < 1e-4
    # a part nothing used passes back zeros
    gb = g.backward(only_b)[x]
    assert np.array_equal(gb[:2], np.zeros((2, 3))) and np.array_equal(gb[2:], wb)
    np.testing.assert_array_equal(g.backward(again, seed=x0)[x], x0)
    for n in (0, 5):
        with pytest.raises(ShapeError):
            ad.split_rows(x, n)


# ---------------------------------------------------------------------------
# contract examples


def test_forward_identity_net():
    w = Tensor(np.eye(2))
    x = Tensor([1.0, 2.0])
    with Graph() as graph:
        out = x @ w
    np.testing.assert_array_equal(out.data, [1.0, 2.0])
    assert graph.nodes == []  # nothing requires grad, so nothing is taped


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
    # finetune lists Adam's parameters in this order, so the gathered
    # gradient and the rounding of its clipping norm follow it
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


def _layouts(values):
    """``values`` as 0-d (one value), 1-d, 2-d and non-contiguous arrays."""
    v = np.array(values, dtype=np.float64)
    n = v.size
    out = [v, v.reshape(1, n), v.reshape(n, 1), np.array([v, v]).T]
    if n == 1:
        out.append(v.reshape(()))
    buf = np.full((3, 2 * n), 7.0)
    buf[0, ::2] = v
    out += [buf[0, ::2], buf[:1, ::2]]
    assert n == 1 or not (out[-1].flags.c_contiguous or out[-2].flags.c_contiguous)
    return out


def _probe(a):
    # an op whose output is ``a`` itself, so the finite check sees its layout
    return ad.custom_op(a, (), lambda g: (), "probe")


# finite, though their squares or their sum overflow
_FINITE_TABLE = [[1e200, -1e200], [1e308, 1e308], [-1e300], [1.0, -2.0, 0.0]]
# a NaN or an infinity somewhere
_NONFINITE_TABLE = [
    [np.nan, np.nan],
    [np.nan],
    [np.inf, -np.inf, 1.0],
    [-np.inf],
    [1e308, np.inf, 1e308],
    [1e308, 1e308, -1e308, np.inf],
    [1.0, 2.0, 3.0, np.nan],
    [1e200, -np.inf, -1e200],
    [np.inf, np.nan],
]


def test_finite_output_with_overflowing_sum_passes():
    # a fast reduction that overflows must fall back to the exact test, not raise
    with np.errstate(over="ignore"):
        out = Tensor([1e308, 1e308]) + 0.0
    np.testing.assert_array_equal(out.data, [1e308, 1e308])
    for values in _FINITE_TABLE:
        for a in _layouts(values):
            assert _probe(a).data.shape == a.shape


def test_nan_only_and_mixed_inf_outputs_raise():
    with np.errstate(invalid="ignore"):  # inf + -inf inside a summing check
        with pytest.raises(NonFiniteError):
            Tensor([np.nan, np.nan]) + 0.0
        with pytest.raises(NonFiniteError):
            Tensor([np.inf, -np.inf, 1.0]) + 0.0
        for values in _NONFINITE_TABLE:
            for a in _layouts(values):
                with pytest.raises(NonFiniteError, match="probe"):
                    _probe(a)


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


def _numpy_message(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return f"^{re.escape(str(info.value))}$"


def test_shape_errors_carry_numpys_message_on_duals_and_empty_concat():
    dual = DualTensor(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ShapeError, match=_numpy_message(np.concatenate, [])):
        concat([])
    with pytest.raises(ShapeError, match=_numpy_message(np.add, np.ones((2, 3)), np.ones((2, 4)))):
        ad.add(dual, np.ones((2, 4)))
    want = _numpy_message(np.concatenate, [np.ones((2, 3)), np.ones((3, 2))], 1)
    with pytest.raises(ShapeError, match=want):
        concat([dual, np.ones((3, 2))], axis=1)


# (rule the op is written on, the op on a DualTensor x)
_DUAL_OPS = {
    "add": ("_binary", lambda x: ad.add(x, np.ones((3, 2)))),
    "matmul": ("_binary", lambda x: ad.matmul(x, np.ones((2, 4)))),
    "tanh": ("_unary", ad.tanh),
    "sum": ("_linear", lambda x: x.sum(axis=0)),
    "concat": ("concat", lambda x: ad.concat([x, np.ones((3, 1))], axis=1)),
}


@pytest.mark.parametrize("name", sorted(_DUAL_OPS))
def test_dual_op_runs_its_rule_once_and_records_one_node(monkeypatch, name):
    # the rule unwraps the dual operand itself: it does not call the public
    # op again on the primal
    rule, op = _DUAL_OPS[name]
    inner, calls = getattr(ad, rule), []

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(ad, rule, counted)
    x = DualTensor(Tensor(np.full((3, 2), 0.5), requires_grad=True), np.ones((3, 2)))
    with Graph() as g:
        out = op(x)
    assert len(calls) == 1
    assert len(g.nodes) == 1
    assert isinstance(out, DualTensor)


# ---------------------------------------------------------------------------
# the network layer: the matmul -> add -> tanh chain


def _dense_case(seed):
    rng = np.random.default_rng(seed)
    return _rand(rng, 5, 4), 0.5 * _rand(rng, 4, 3), 0.5 * _rand(rng, 3), _rand(rng, 5, 3)


def _dense_np(x, W, b, tanh):
    y = x @ W + b
    return np.tanh(y) if tanh else y


def _op_chain(x, W, b, tanh):
    y = x @ W + b
    return ad.tanh(y) if tanh else y


def _chain_ops(tanh):
    return ["matmul", "add", "tanh"] if tanh else ["matmul", "add"]


@pytest.mark.parametrize("tanh", [True, False])
@pytest.mark.parametrize("x_traced", [True, False])
def test_dense_gradcheck(tanh, x_traced):
    x0, W0, b0, w = _dense_case(41)
    x = Tensor(x0, requires_grad=x_traced)
    W, b = Tensor(W0, requires_grad=True), Tensor(b0, requires_grad=True)
    with Graph() as g:
        loss = (_op_chain(x, W, b, tanh) * Tensor(w)).sum()
    assert [n.op for n in g.nodes] == _chain_ops(tanh) + ["mul", "sum"]
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
        # a Tensor primal: the forward is taped as the traced chain, the
        # tangent is not
        with Graph() as g:
            out = _op_chain(DualTensor(Tensor(x0, requires_grad=True), t0), W, b, tanh)
        assert isinstance(out.primal, Tensor) and [n.op for n in g.nodes] == _chain_ops(tanh)
        value = out.primal.data
    else:
        out = _op_chain(DualTensor(x0, t0), W, b, tanh)
        value = out.primal.data
    np.testing.assert_array_equal(value, _dense_np(x0, W0, b0, tanh))
    want = fd_directional(lambda x: _dense_np(x, W0, b0, tanh), [x0], [t0])
    assert rel_err(out.tangent, want) < 1e-4


@pytest.mark.parametrize("tanh", [True, False])
def test_dense_bit_identical_to_op_chain(tanh):
    # the array layer of the training steps (``nets._checked``'s forward,
    # ``nets._layer_vjp``'s VJP and the JVP tangent ``t.dot(W) * slope``)
    # gives the traced and dual chain's value, cotangents and tangent
    x0, W0, b0, g0 = _dense_case(47)
    t0 = _rand(np.random.default_rng(48), 5, 4)

    def reverse():
        x, W, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, W0, b0))
        with Graph() as g:
            y = _op_chain(x, W, b, tanh)
        grads = g.backward(y, seed=g0)
        return [y.data] + [grads[p] for p in (x, W, b)]

    W, b = Tensor(W0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
    y = nets._checked(x0, W.data, b.data, tanh)
    y, slope = y if tanh else (y, None)
    grads = {W: np.empty(W0.shape), b: np.empty(b0.shape)}
    gx = nets._layer_vjp(x0, g0 if slope is None else slope * g0, W, b, grads)
    traced = reverse()
    for got, want in zip([y, gx, grads[W], grads[b]], traced):
        np.testing.assert_array_equal(got, want)

    # the dual chain: the same values, and, with x traced or not, the traced
    # pass's cotangents; its tangent is the array layer's
    tangent = t0.dot(W0) if slope is None else t0.dot(W0) * slope
    for x_traced in (False, True):
        x = Tensor(x0.copy(), requires_grad=True) if x_traced else x0
        Wd, bd = (Tensor(a.copy(), requires_grad=True) for a in (W0, b0))
        with Graph() as g:
            out = _op_chain(DualTensor(x, t0), Wd, bd, tanh)
        dual_grads = g.backward(out.primal, seed=g0)
        np.testing.assert_array_equal(out.primal.data, y)
        np.testing.assert_array_equal(out.tangent, tangent)
        leaves = (x, Wd, bd) if x_traced else (Wd, bd)
        assert len(dual_grads) == len(leaves)
        for p, ref in zip(leaves, traced[4 - len(leaves):]):
            np.testing.assert_array_equal(dual_grads[p], ref)

    # the plain-array layer each net's array branch calls returns an array,
    # not a Tensor, and records nothing
    with Graph() as g:
        plain = _kernel(tanh)(x0, W0, b0)
    assert type(plain) is np.ndarray and not g.nodes
    np.testing.assert_array_equal(plain, _op_chain(Tensor(x0), Tensor(W0), Tensor(b0), tanh).data)


def _kernel(tanh):
    return kernels.affine_tanh if tanh else kernels.affine


@pytest.mark.parametrize("tanh", [True, False])
@pytest.mark.parametrize("B", [1, 8])
def test_affine_kernels_leave_inputs_and_return_fresh_array(B, tanh):
    # the plain-array layers work in place on a fresh product: the same ops
    # in the same order as the out-of-place numpy expression, inputs untouched
    rng = np.random.default_rng(B)
    x = rng.normal(size=(B, 5))
    W = rng.normal(size=(5, 7))
    b = rng.normal(size=7)
    before = [a.copy() for a in (x, W, b)]
    y = _kernel(tanh)(x, W, b)
    for a, a0 in zip((x, W, b), before):
        np.testing.assert_array_equal(a, a0)
        assert not np.shares_memory(y, a)
    np.testing.assert_array_equal(y, _dense_np(x, W, b, tanh))


def test_dense_checks_the_pre_activation():
    # tanh(inf) is finite, so the training steps' layer checks x @ W + b,
    # before its tanh, and names the check 'dense'
    x = np.array([[1e308, 1e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="'dense'"):
            nets._checked(x, np.ones((2, 1)), np.zeros(1))
