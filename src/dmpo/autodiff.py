"""Dense float64 tensors with reverse-mode gradients and forward-mode JVPs.

Three pieces:

* ``Tensor`` — immutable-by-convention wrapper over a row-major float64
  ndarray. Arithmetic builds no graph unless a ``Graph`` is active and a
  ``requires_grad`` tensor participates.
* ``Graph`` — an explicit tape: ordered node list recorded during a forward
  pass, walked in reverse by :meth:`Graph.backward`.
* ``DualTensor`` — a ``Tensor`` primal with an array tangent, for one-pass
  directional derivatives. Each dual op computes the primal with the
  ordinary Tensor op, so it is recorded on the active graph exactly as that
  op would be, and computes the tangent from the primal data as a constant
  that no node touches: under a graph one pass yields a taped prediction
  and its (untaped) directional derivative. :func:`jvp` runs its pass under
  :func:`no_record` and records nothing. Non-dual operands (parameters,
  constants) have a zero tangent, so their tangent products are skipped.

Every op output is checked for NaN/Inf and raises ``NonFiniteError`` rather
than propagating silently. Supported rank is <= 2; broadcasting follows
numpy within that limit. :func:`custom_op` records a fused computation with
a hand-written VJP as a single tape node; :func:`weighted_sum` (a weighted
total of losses) is one, and :func:`row_sq_mean` gives the loss heads built
that way their squared-distance arithmetic. :func:`dense`, the network
layer, is one node in reverse mode, carries its own tangent rule in forward
mode, and runs plain-array kernels on ndarray input. An op hands the tape
its VJP ``vjp(g) -> [(parent, cotangent), ...]`` directly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels

Array = np.ndarray


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf."""


class GraphError(RuntimeError):
    """Backward was asked something the recorded graph cannot answer."""


def _as_array(x) -> Array:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim > 2:
        raise ShapeError(f"rank {a.ndim} > 2 is unsupported (shape {a.shape})")
    return a


def _check_finite(a: Array, op: str) -> None:
    # one reduction on the common path; the sum of finite entries can still
    # overflow, so the elementwise test decides whenever the sum is not finite
    if not math.isfinite(a.sum()) and not np.isfinite(a).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


_ACTIVE: list["Graph"] = []


class Tensor:
    """A float64 value. ``requires_grad`` marks trainable leaves."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; definitions below once the op functions exist
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None):
        return sum_(self, axis)

    def mean(self, axis=None):
        return mean_(self, axis)

    def reshape(self, shape):
        return reshape(self, shape)

    @property
    def T(self):
        return transpose(self)


class DualTensor:
    """Forward-mode pair: a ``Tensor`` primal (an array-like is wrapped in
    one) and an array tangent of identical shape."""

    __slots__ = ("primal", "tangent")

    def __init__(self, primal, tangent):
        self.primal = as_tensor(primal)
        self.tangent = _as_array(tangent)
        if self.primal.shape != self.tangent.shape:
            raise ShapeError(
                f"tangent shape {self.tangent.shape} != primal shape {self.primal.shape}"
            )

    @property
    def shape(self):
        return self.primal.shape

    def __repr__(self):
        return f"DualTensor(shape={self.primal.shape})"

    __add__ = Tensor.__add__
    __radd__ = Tensor.__radd__
    __sub__ = Tensor.__sub__
    __rsub__ = Tensor.__rsub__
    __mul__ = Tensor.__mul__
    __rmul__ = Tensor.__rmul__
    __truediv__ = Tensor.__truediv__
    __rtruediv__ = Tensor.__rtruediv__
    __neg__ = Tensor.__neg__
    __matmul__ = Tensor.__matmul__
    __getitem__ = Tensor.__getitem__
    sum = Tensor.sum
    mean = Tensor.mean
    reshape = Tensor.reshape
    T = Tensor.T


class _Node:
    __slots__ = ("out", "parents", "vjp", "op")

    def __init__(self, out, parents, vjp, op):
        self.out = out
        self.parents = parents
        self.vjp = vjp
        self.op = op


class Graph:
    """Tape of one computation: nodes in execution (topological) order.

    Use as a context manager around a forward pass; then call
    :meth:`backward` on the recorded output.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._outs: set[Tensor] = set()
        # trainable inputs not produced here, in order of first use
        self._leaves: dict[Tensor, None] = {}

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE.pop()
        assert popped is self
        return False

    def _record(self, out: Tensor, parents: tuple[Tensor, ...], vjp, op: str):
        for p in parents:
            if p not in self._outs:
                self._leaves.setdefault(p)
        self.nodes.append(_Node(out, parents, vjp, op))
        self._outs.add(out)

    def backward(self, output: Tensor, seed: Array | None = None) -> dict[Tensor, Array]:
        """Reverse sweep from ``output``; returns leaf gradients.

        ``seed`` is the cotangent of ``output`` (defaults to ones). The dict
        maps each leaf (a ``requires_grad`` tensor not produced inside this
        graph) that ``output`` depends on to its gradient, in the order the
        forward pass first used the leaves. Nothing is stored on the
        tensors, so the graph can be swept again.
        """
        if not isinstance(output, Tensor) or output not in self._outs:
            raise GraphError("output was not produced under this graph")
        if seed is None:
            seed = np.ones_like(output.data)
        else:
            seed = _as_array(seed)
            if seed.shape != output.data.shape:
                raise ShapeError(
                    f"seed shape {seed.shape} != output shape {output.data.shape}"
                )
        cot: dict[Tensor, Array] = {output: seed}
        for node in reversed(self.nodes):
            g = cot.pop(node.out, None)
            if g is None:
                continue
            for parent, pg in node.vjp(g):
                cot[parent] = cot[parent] + pg if parent in cot else pg
        return {t: cot[t] for t in self._leaves if t in cot}


def trace(fn: Callable, *args) -> tuple[Tensor, Graph]:
    """Run ``fn(*args)`` under a fresh graph; returns (output, graph)."""
    with Graph() as g:
        out = fn(*args)
    return out, g


@contextmanager
def no_record():
    """Temporarily disable graph recording (for constants like sg targets)."""
    saved = _ACTIVE[:]
    _ACTIVE.clear()
    try:
        yield
    finally:
        _ACTIVE.extend(saved)


# ---------------------------------------------------------------------------
# op plumbing


def as_tensor(x) -> Tensor:
    """``x`` itself if it is a Tensor, else a constant Tensor of its value."""
    return x if isinstance(x, Tensor) else Tensor(x)


def value_of(x) -> Array:
    """The array behind a Tensor, a DualTensor's primal, or an array-like."""
    if isinstance(x, DualTensor):
        x = x.primal
    return x.data if isinstance(x, Tensor) else _as_array(x)


def _any_dual(args) -> bool:
    return any(isinstance(a, DualTensor) for a in args)


def _dual_op(fn, args, tangent) -> DualTensor:
    """Apply a dual op: the primal is ``fn`` (the Tensor op, recorded as
    usual) on the primal operands, the tangent ``tangent(y, xs, ts)`` of the
    output data, the operand data and the operand tangents (None for
    non-duals, whose tangent is zero)."""
    operands, ts = [], []
    for a in args:
        p, t = (a.primal, a.tangent) if isinstance(a, DualTensor) else (as_tensor(a), None)
        operands.append(p)
        ts.append(t)
    out = fn(*operands)
    return DualTensor(out, tangent(out.data, [p.data for p in operands], ts))


def _tsum(p, q):
    # sum of tangent terms; None is an exact zero and is skipped
    if p is None:
        return q
    return p if q is None else p + q


def _fit(t: Array, shape) -> Array:
    return t if t.shape == shape else np.broadcast_to(t, shape).copy()


def _add_tangent(y, xs, ts):
    return _fit(_tsum(*ts), y.shape)


def _mul_tangent(y, xs, ts):
    (xa, xb), (ta, tb) = xs, ts
    return _fit(_tsum(None if ta is None else ta * xb, None if tb is None else xa * tb), y.shape)


def _div_tangent(y, xs, ts):
    (xa, xb), (ta, tb) = xs, ts
    num = _tsum(None if ta is None else ta * xb, None if tb is None else -(xa * tb))
    return _fit(num / (xb * xb), y.shape)


def _matmul_tangent(y, xs, ts):
    (xa, xb), (ta, tb) = xs, ts
    return _tsum(None if ta is None else ta @ xb, None if tb is None else xa @ tb)


def _emit(data: Array, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """Create the op output; record a node when grads are being traced.

    ``vjp(g)`` returns ``(parent, cotangent)`` pairs for the parents that
    require grad."""
    _check_finite(data, op)
    return _output(data, parents, vjp, op)


def _output(data: Array, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    # ``_emit`` without the finite check, for ops that check another array
    needs = bool(_ACTIVE) and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=needs)
    if needs:
        _ACTIVE[-1]._record(out, tuple(p for p in parents if p.requires_grad), vjp, op)
    return out


def custom_op(data, parents: Sequence, vjp: Callable, op: str) -> Tensor:
    """Record ``data`` as one op over ``parents`` with a hand-written VJP.

    ``vjp(g)`` maps the output cotangent ``g`` to one cotangent per parent,
    in order; it is called only when some parent requires grad, and the
    entries of parents that do not are ignored (they may be None). The output
    gets the same finite check as every built-in op. Reverse mode only.
    """
    parents = tuple(as_tensor(p) for p in parents)

    def node_vjp(g):
        return [(p, gp) for p, gp in zip(parents, vjp(g)) if p.requires_grad]

    return _emit(_as_array(data), parents, node_vjp, op)


def weighted_sum(terms: Sequence, weights: Sequence[float], op: str) -> Tensor:
    """``w0 * t0 + w1 * t1 + ...`` of scalar Tensors, summed left to right,
    as one node; term i's cotangent is ``g * w_i``.

    These are the values and cotangents of the op chain, bit for bit; a
    weight of 1.0 multiplies exactly, so ``[t0, t1], [1.0, w]`` is
    ``t0 + w * t1``.
    """
    terms = [as_tensor(t) for t in terms]
    ws = [float(w) for w in weights]
    acc = ws[0] * terms[0].data
    for w, t in zip(ws[1:], terms[1:]):
        acc = acc + w * t.data
    return custom_op(acc, terms, lambda g: [g * w for w in ws], op)


def row_sq_mean(e: Array):
    """``square(e).sum(axis=1).mean()`` of a (B, d) array, and the map from
    that scalar's cotangent ``g`` to the cotangent of ``e``.

    Both repeat the op chain's arithmetic (the mean's VJP
    ``broadcast(g) * (1/B)``, then square's ``g * (2e)``), so a loss head
    built on them as one ``custom_op`` node matches the chain bit for bit.
    """
    B = e.shape[0]

    def grad(g):
        return (np.broadcast_to(g, (B,)) * (1.0 / B))[:, None] * (2.0 * e)

    return np.square(e).sum(axis=1).mean(), grad


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# binary ops


def add(a, b):
    if _any_dual((a, b)):
        return _dual_op(add, (a, b), _add_tangent)
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def vjp(g):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(g, a.data.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(g, b.data.shape)))
        return out

    return _emit(data, (a, b), vjp, "add")


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    if _any_dual((a, b)):
        return _dual_op(mul, (a, b), _mul_tangent)
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None
    ad, bd = a.data, b.data

    def vjp(g):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(g * bd, ad.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(g * ad, bd.shape)))
        return out

    return _emit(data, (a, b), vjp, "mul")


def div(a, b):
    if _any_dual((a, b)):
        return _dual_op(div, (a, b), _div_tangent)
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data / b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None
    ad, bd = a.data, b.data

    def vjp(g):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(g / bd, ad.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(-g * ad / (bd * bd), bd.shape)))
        return out

    return _emit(data, (a, b), vjp, "div")


def neg(a):
    if isinstance(a, DualTensor):
        return _dual_op(neg, (a,), lambda y, xs, ts: -ts[0])
    a = as_tensor(a)
    return _emit(-a.data, (a,), lambda g: [(a, -g)], "neg")


def matmul(a, b):
    if _any_dual((a, b)):
        return _dual_op(matmul, (a, b), _matmul_tangent)
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ShapeError("matmul requires rank >= 1 operands")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data
    ad, bd = a.data, b.data

    def vjp(g):
        out = []
        if a.requires_grad:
            if ad.ndim == 1 and bd.ndim == 2:
                ga = bd @ g
            elif ad.ndim == 2 and bd.ndim == 1:
                ga = np.outer(g, bd)
            else:
                ga = g @ bd.T
            out.append((a, ga))
        if b.requires_grad:
            out.append((b, np.outer(ad, g) if ad.ndim == 1 and bd.ndim == 2 else ad.T @ g))
        return out

    return _emit(data, (a, b), vjp, "matmul")


# ---------------------------------------------------------------------------
# unary elementwise ops


def _unary(a, fwd: Callable[[Array], Array], dydx: Callable[[Array, Array], Array], op: str):
    """dydx receives (x, y) and returns the local derivative array."""
    if isinstance(a, DualTensor):
        return _dual_op(
            lambda x: _unary(x, fwd, dydx, op), (a,), lambda y, xs, ts: dydx(xs[0], y) * ts[0]
        )
    a = as_tensor(a)
    y = fwd(a.data)
    x = a.data
    return _emit(y, (a,), lambda g: [(a, g * dydx(x, y))], op)


def tanh(a):
    return _unary(a, np.tanh, lambda x, y: 1.0 - y * y, "tanh")


def dense(x, W, b, tanh: bool = True):
    """One layer, ``tanh(x @ W + b)``, or ``x @ W + b`` with ``tanh`` off.

    ``W`` and ``b`` are the layer's parameter Tensors. ``x`` decides the path:

    * an ndarray runs the plain-array kernels and returns an ndarray,
      untraced and unchecked (inference);
    * a Tensor gives one tape node whose VJP is written out, with one finite
      check on the pre-activation (tanh of a finite value is finite);
    * a DualTensor sends its primal through the Tensor path, recorded as
      that path would be, and carries the tangent ``(1 - y*y) * (t @ W)``.

    Every path runs the ops of ``matmul`` -> ``add`` -> ``tanh`` in their
    order, so values, cotangents and tangents equal that chain's bit for bit.
    """
    if type(x) is np.ndarray:
        if tanh:
            return kernels.affine_tanh(x, W.data, b.data)
        return kernels.affine(x, W.data, b.data)
    if isinstance(x, DualTensor):
        y = _dense_node(x.primal, W, b, tanh)
        yd, tw = y.data, x.tangent @ W.data
        return DualTensor(y, (1.0 - yd * yd) * tw if tanh else tw)
    return _dense_node(as_tensor(x), W, b, tanh)


def _dense_node(x: Tensor, W: Tensor, b: Tensor, tanh: bool) -> Tensor:
    # kept out of ``dense``: the VJP closure would turn that function's
    # arguments into cells and slow its plain-array path
    xd, Wd = x.data, W.data
    if xd.ndim != 2 or xd.shape[1] != Wd.shape[0]:
        raise ShapeError(f"dense input {xd.shape} does not fit weight {Wd.shape}")
    y = xd @ Wd
    y += b.data
    _check_finite(y, "dense")
    if tanh:
        np.tanh(y, out=y)

    def vjp(g):
        gp = g * (1.0 - y * y) if tanh else g
        out = []
        if x.requires_grad:
            out.append((x, gp @ Wd.T))
        if W.requires_grad:
            out.append((W, xd.T @ gp))
        if b.requires_grad:
            out.append((b, gp.sum(axis=0)))
        return out

    return _output(y, (x, W, b), vjp, "dense")


def relu(a):
    return _unary(a, lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0).astype(np.float64), "relu")


def _sigmoid(x: Array) -> Array:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a):
    return _unary(a, lambda x: np.logaddexp(0.0, x), lambda x, y: _sigmoid(x), "softplus")


def exp(a):
    return _unary(a, np.exp, lambda x, y: y, "exp")


def log(a):
    return _unary(a, np.log, lambda x, y: 1.0 / x, "log")


def sqrt(a):
    # subgradient 0 at x == 0 so hinge-style losses stay finite
    def d(x, y):
        return np.where(x > 0, 0.5 / np.where(x > 0, y, 1.0), 0.0)

    return _unary(a, np.sqrt, d, "sqrt")


def sin(a):
    return _unary(a, np.sin, lambda x, y: np.cos(x), "sin")


def cos(a):
    return _unary(a, np.cos, lambda x, y: -np.sin(x), "cos")


def square(a):
    return _unary(a, np.square, lambda x, y: 2.0 * x, "square")


# ---------------------------------------------------------------------------
# shape / reduction ops


def reshape(a, shape):
    if isinstance(a, DualTensor):
        return _dual_op(lambda x: reshape(x, shape), (a,), lambda y, xs, ts: ts[0].reshape(shape))
    a = as_tensor(a)
    old = a.data.shape
    return _emit(a.data.reshape(shape), (a,), lambda g: [(a, g.reshape(old))], "reshape")


def transpose(a):
    if isinstance(a, DualTensor):
        return _dual_op(transpose, (a,), lambda y, xs, ts: ts[0].T)
    a = as_tensor(a)
    return _emit(a.data.T.copy(), (a,), lambda g: [(a, g.T)], "transpose")


def take(a, key):
    """Basic slicing/indexing along any axes (numpy semantics)."""
    if isinstance(a, DualTensor):
        return _dual_op(lambda x: take(x, key), (a,), lambda y, xs, ts: ts[0][key])
    a = as_tensor(a)
    shape = a.data.shape

    def vjp(g):
        full = np.zeros(shape)
        np.add.at(full, key, g)
        return [(a, full)]

    return _emit(a.data[key], (a,), vjp, "slice")


def concat(parts: Sequence, axis: int = 1):
    parts = list(parts)
    if _any_dual(parts):

        def tangent(y, xs, ts):
            return np.concatenate(
                [np.zeros_like(x) if t is None else t for x, t in zip(xs, ts)], axis=axis
            )

        return _dual_op(lambda *ps: concat(ps, axis), parts, tangent)
    ts = [as_tensor(p) for p in parts]
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as e:
        raise ShapeError(str(e)) from None
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        out = []
        sl = [slice(None)] * g.ndim
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl[axis] = slice(lo, hi)
                out.append((t, g[tuple(sl)]))
        return out

    return _emit(data, tuple(ts), vjp, "concat")


def _reduce(a, np_fn, scale_fn, axis, op):
    if isinstance(a, DualTensor):
        return _dual_op(
            lambda x: _reduce(x, np_fn, scale_fn, axis, op), (a,), lambda y, xs, ts: np_fn(ts[0], axis=axis)
        )
    a = as_tensor(a)
    data = np_fn(a.data, axis=axis)
    shape = a.data.shape
    scale = scale_fn(shape, axis)

    def vjp(g):
        if axis is None:
            full = np.broadcast_to(g, shape) * scale
        else:
            full = np.broadcast_to(np.expand_dims(g, axis), shape) * scale
        return [(a, full.copy())]

    return _emit(data, (a,), vjp, op)


def sum_(a, axis=None):
    return _reduce(a, np.sum, lambda shape, ax: 1.0, axis, "sum")


def mean_(a, axis=None):
    def scale(shape, ax):
        n = np.prod(shape) if ax is None else shape[ax]
        return 1.0 / float(n)

    return _reduce(a, np.mean, scale, axis, "mean")


def stop_gradient(a):
    """Pass the value through; block both cotangent and tangent flow."""
    if isinstance(a, DualTensor):
        return DualTensor(stop_gradient(a.primal), np.zeros(a.shape))
    a = as_tensor(a)
    return Tensor(a.data.copy(), requires_grad=False)


# ---------------------------------------------------------------------------
# forward mode entry point


def jvp(fn: Callable, inputs: Iterable, tangents: Iterable) -> tuple[Tensor, Tensor]:
    """Directional derivative of ``fn`` at ``inputs`` along ``tangents``.

    One dual-number forward pass: returns (value, J @ tangents). ``fn`` must
    be built from the ops in this module. The pass records nothing, even
    under an active graph.
    """
    duals = [DualTensor(value_of(x), value_of(t)) for x, t in zip(list(inputs), list(tangents), strict=True)]
    with no_record():
        out = fn(*duals)
    if not isinstance(out, DualTensor):
        # function ignored its inputs entirely; tangent is exactly zero
        out = as_tensor(out)
        return out, Tensor(np.zeros_like(out.data))
    return out.primal, Tensor(out.tangent)
