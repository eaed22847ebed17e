"""Dense float64 tensors with reverse-mode gradients and forward-mode JVPs.

Three pieces:

* ``Tensor`` — immutable-by-convention wrapper over a row-major float64
  ndarray. Arithmetic builds no graph unless a ``Graph`` is active and a
  ``requires_grad`` tensor participates.
* ``Graph`` — an explicit tape: ordered node list recorded during a forward
  pass, walked in reverse by :meth:`Graph.backward`.
* ``DualTensor`` — a ``Tensor`` primal with an array tangent, for one-pass
  directional derivatives. Non-dual operands (parameters, constants) have
  a zero tangent, so their tangent products are skipped.

Every op output is checked for NaN/Inf and raises ``NonFiniteError`` rather
than propagating silently. Supported rank is <= 2; broadcasting follows
numpy within that limit. The ops stand on three shared rules, each holding
its ops' forward, node and VJP once:

* ``_binary``: ``add``, ``mul``, ``div`` and ``matmul`` (a shape mismatch
  is a ``ShapeError`` with numpy's message; each cotangent is summed back
  to its operand's shape);
* ``_unary``: the elementwise ops, ``neg`` included, with a local
  derivative ``dydx(x, y)``;
* ``_linear``: ``reshape``, ``transpose``, ``sum_`` and ``mean_``, whose
  tangent is the op of the tangent.

Every op that takes a DualTensor, :func:`jvp` included, takes its operands
apart once with one rule (``_split``): a DualTensor gives its primal and
tangent, anything else a Tensor and no tangent. The op computes and records
its Tensor output as it would with no tangent about, and wraps a DualTensor
only when some operand has a tangent: a constant computed from the operand
data and tangents, a missing one an exact zero. So under a graph one pass
yields a taped prediction and its (untaped) directional derivative;
``concat``'s tangent is the parts' tangents concatenated, zeros for a
non-dual part. :func:`jvp` runs its pass under :func:`no_record` and records
nothing. Outside the three rules only :func:`concat`, :func:`split_rows`
and :func:`custom_op` build their own nodes. A network layer is no op of
its own: the nets' Tensor branches write it as ``matmul`` -> ``add`` ->
``tanh``, and their array branches call the ``kernels`` layers, which run
the same ops untraced. :func:`custom_op` records a fused computation with
a hand-written VJP as a single tape node; :func:`row_sq_mean` gives the
loss heads built that way their squared-distance arithmetic, and
:func:`loss_head` gives a head's one value and VJP either as that node or,
for a training step on plain arrays, untaped as ``(value, vjp)``.
:func:`weighted_sum` (a weighted total of losses) is such a head, with one
sum for both forms: taped in the reference losses, untaped in the pre-train
and fine-tune steps. An op hands the tape its VJP ``vjp(g) -> [(parent,
cotangent), ...]`` directly.

There is no indexing op: a head that needs part of a value works on
``.data`` inside a ``custom_op``. :func:`split_rows`, the inverse of a
two-part ``concat(axis=0)``, is one node with two outputs, so one stacked
network pass can feed two heads.

Code that runs on every training step calls ufuncs and ndarray methods, not
numpy's Python-level wrappers (``np.ones_like``, ``np.broadcast_to``,
``np.sum`` and the like): on arrays of this package's size each wrapper call
costs a measured 0.6-4 us more than the ufunc or method giving the same bits.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

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
    # One call on the common path: the sum of squares ``vdot(a, a)`` is NaN
    # if an entry is NaN and +inf if one is infinite (squares are >= 0, so
    # they cannot cancel), so a finite result proves every entry finite. A
    # finite entry whose square overflows also reads inf, so the elementwise
    # test decides whenever the fast path is not finite.
    if not math.isfinite(np.vdot(a, a)) and not np.isfinite(a).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


_ACTIVE: list["Graph"] = []


class _Ops:
    """Operator sugar shared by ``Tensor`` and ``DualTensor``: each operator
    calls the module op of that name, which dispatches on the operand types.
    numpy defers to the reflected operator, so an ndarray on the left (``x @
    t``, ``x + t``) is one op too."""

    __slots__ = ()
    __array_ufunc__ = None

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

    def __rmatmul__(self, other):
        return matmul(other, self)

    def sum(self, axis=None):
        return sum_(self, axis)

    def mean(self, axis=None):
        return mean_(self, axis)

    def reshape(self, shape):
        return reshape(self, shape)

    @property
    def T(self):
        return transpose(self)


class Tensor(_Ops):
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


class DualTensor(_Ops):
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


class _Node:
    # ``out`` is the op's output Tensor, or a tuple of them for an op with
    # several outputs, whose ``vjp`` then takes a list of their cotangents
    # (None for an output nothing used)
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
        if type(out) is tuple:
            self._outs.update(out)
        else:
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
            seed = np.empty_like(output.data)
            seed.fill(1.0)
        else:
            seed = _as_array(seed)
            if seed.shape != output.data.shape:
                raise ShapeError(
                    f"seed shape {seed.shape} != output shape {output.data.shape}"
                )
        cot: dict[Tensor, Array] = {output: seed}
        for node in reversed(self.nodes):
            if type(node.out) is tuple:
                g = [cot.pop(o, None) for o in node.out]
                if all(x is None for x in g):
                    continue
            else:
                g = cot.pop(node.out, None)
                if g is None:
                    continue
            for parent, pg in node.vjp(g):
                cot[parent] = cot[parent] + pg if parent in cot else pg
        return {t: cot[t] for t in self._leaves if t in cot}


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


def _split(a):
    """A DualTensor's primal and tangent, or any other operand as a Tensor
    and the tangent None (an exact zero)."""
    if isinstance(a, DualTensor):
        return a.primal, a.tangent
    return as_tensor(a), None


def _tsum(p, q):
    # sum of tangent terms; None is an exact zero and is skipped
    if p is None:
        return q
    return p if q is None else p + q


def _fit(t: Array, shape) -> Array:
    return t if t.shape == shape else np.broadcast_to(t, shape).copy()


def _add_tangent(y, xa, xb, ta, tb):
    return _fit(_tsum(ta, tb), y.shape)


def _mul_tangent(y, xa, xb, ta, tb):
    return _fit(_tsum(None if ta is None else ta * xb, None if tb is None else xa * tb), y.shape)


def _div_tangent(y, xa, xb, ta, tb):
    num = _tsum(None if ta is None else ta * xb, None if tb is None else -(xa * tb))
    return _fit(num / (xb * xb), y.shape)


def _matmul_tangent(y, xa, xb, ta, tb):
    return _tsum(None if ta is None else ta @ xb, None if tb is None else xa @ tb)


def _emit(data: Array, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """Create the op output; record a node when grads are being traced.

    ``vjp(g)`` returns ``(parent, cotangent)`` pairs for the parents that
    require grad."""
    _check_finite(data, op)
    if _ACTIVE:
        traced = [p for p in parents if p.requires_grad]
        if traced:
            out = Tensor(data, requires_grad=True)
            _ACTIVE[-1]._record(out, tuple(traced), vjp, op)
            return out
    return Tensor(data)


def custom_op(data, parents: Sequence, vjp: Callable, op: str) -> Tensor:
    """Record ``data`` as one op over ``parents`` with a hand-written VJP.

    ``vjp(g)`` maps the output cotangent ``g`` to one cotangent per parent,
    in order; it is called only when some parent requires grad, and the
    entries of parents that do not are ignored (they may be None). The output
    gets the same finite check as every built-in op. Reverse mode only.
    """
    parents = tuple([as_tensor(p) for p in parents])

    def node_vjp(g):
        return [(p, gp) for p, gp in zip(parents, vjp(g)) if p.requires_grad]

    return _emit(_as_array(data), parents, node_vjp, op)


def loss_head(data, parents: Sequence, vjp: Callable, op: str, taped: bool = True):
    """A loss head's output: ``custom_op(data, parents, vjp, op)`` when
    ``taped``; otherwise (a step on plain arrays) ``(data, vjp)`` after the
    same finite check, recording nothing, so both forms share one value and
    one VJP."""
    if taped:
        return custom_op(data, parents, vjp, op)
    _check_finite(data, op)
    return data, vjp


def weighted_sum(terms: Sequence, weights: Sequence[float], op: str, taped: bool = True):
    """``w0 * t0 + w1 * t1 + ...``, summed left to right, as a loss head
    (:func:`loss_head`): taped, the terms are scalar Tensors and the total
    is one node; not ``taped`` (a step on plain arrays), the terms are
    scalar values and the result is ``(total, vjp)``, recording nothing.
    Both forms compute one sum over the terms' values, and term i's
    cotangent is ``g * w_i``.

    These are the values and cotangents of the op chain, bit for bit; a
    weight of 1.0 multiplies exactly, so ``[t0, t1], [1.0, w]`` is
    ``t0 + w * t1``.
    """
    ws = [float(w) for w in weights]
    xs = [as_tensor(t).data for t in terms] if taped else terms
    acc = ws[0] * xs[0]
    for w, x in zip(ws[1:], xs[1:]):
        acc = acc + w * x
    return loss_head(acc, terms, lambda g: [g * w for w in ws], op, taped)


def row_sq_mean(e: Array):
    """``square(e).sum(axis=1).mean()`` of a (B, d) array, and the map from
    that scalar's cotangent ``g`` to the cotangent of ``e``.

    Both repeat the op chain's arithmetic (the mean's VJP
    ``broadcast(g) * (1/B)``, then square's ``g * (2e)``), so a loss head
    built on them as one ``custom_op`` node matches the chain bit for bit.
    """
    B = e.shape[0]

    def grad(g):
        # every entry of the broadcast ``g * (1/B)`` is that one product
        return (g * (1.0 / B)) * (2.0 * e)

    # ``mean`` is this sum followed by one true divide by the count
    return np.square(e).sum(axis=1).sum() / B, grad


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


def _binary(a, b, tangent, fwd, da, db, op: str):
    """``fwd`` of the operand data, with the VJP ``da(g, x, y)``, ``db(g, x,
    y)`` for operands of data ``x`` and ``y``, each summed back to its
    operand's shape. A dual operand makes the output a DualTensor with the
    tangent ``tangent(out, x, y, tx, ty)``."""
    (a, ta), (b, tb) = _split(a), _split(b)
    x, y = a.data, b.data
    try:
        data = fwd(x, y)
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def vjp(g):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(da(g, x, y), x.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(db(g, x, y), y.shape)))
        return out

    out = _emit(data, (a, b), vjp, op)
    if ta is None and tb is None:
        return out
    return DualTensor(out, tangent(out.data, x, y, ta, tb))


def _pass(g, x, y):
    return g


def add(a, b):
    return _binary(a, b, _add_tangent, np.add, _pass, _pass, "add")


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    return _binary(a, b, _mul_tangent, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def div(a, b):
    return _binary(
        a, b, _div_tangent, np.true_divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y), "div"
    )


def neg(a):
    return _unary(a, np.negative, lambda x, y: -1.0, "neg")


def _matmul_da(g, x, y):
    if x.ndim == 1 and y.ndim == 2:
        return y @ g
    return np.outer(g, y) if x.ndim == 2 and y.ndim == 1 else g @ y.T


def matmul(a, b):
    return _binary(
        a, b, _matmul_tangent, np.matmul, _matmul_da,
        lambda g, x, y: np.outer(x, g) if x.ndim == 1 and y.ndim == 2 else x.T @ g, "matmul",
    )


# ---------------------------------------------------------------------------
# unary elementwise ops


def _unary(a, fwd: Callable[[Array], Array], dydx: Callable[[Array, Array], Array], op: str):
    """dydx receives (x, y) and returns the local derivative array; a dual
    operand's tangent is that derivative times its tangent."""
    a, t = _split(a)
    x = a.data
    y = fwd(x)
    out = _emit(y, (a,), lambda g: [(a, g * dydx(x, y))], op)
    return out if t is None else DualTensor(out, dydx(x, y) * t)


def tanh(a):
    return _unary(a, np.tanh, lambda x, y: 1.0 - y * y, "tanh")


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


def square(a):
    return _unary(a, np.square, lambda x, y: 2.0 * x, "square")


# ---------------------------------------------------------------------------
# shape / reduction ops


def _linear(a, fwd, back, op: str):
    """The linear op ``fwd`` of one operand's data: a dual operand's tangent
    is ``fwd`` of its tangent, and the VJP of an operand of shape ``s`` is
    ``back(g, s)``."""
    a, t = _split(a)
    shape = a.data.shape
    out = _emit(fwd(a.data), (a,), lambda g: [(a, back(g, shape))], op)
    return out if t is None else DualTensor(out, fwd(t))


def reshape(a, shape):
    return _linear(a, lambda x: x.reshape(shape), lambda g, s: g.reshape(s), "reshape")


def transpose(a):
    return _linear(a, lambda x: x.T.copy(), lambda g, s: g.T, "transpose")


def _blocks(xs: Sequence[Array], axis: int) -> list[tuple]:
    """The index of each array of ``xs`` in their concatenation along ``axis``."""
    sl, lo, out = [slice(None)] * xs[0].ndim, 0, []
    for x in xs:
        sl[axis] = slice(lo, lo + x.shape[axis])
        lo += x.shape[axis]
        out.append(tuple(sl))
    return out


def concat(parts: Sequence, axis: int = 1):
    """The parts joined along ``axis``; with a dual part, a DualTensor whose
    tangent is the parts' tangents joined, a non-dual part's block zero."""
    pairs = [_split(p) for p in parts]
    ps = tuple([p for p, _ in pairs])
    xs = [p.data for p in ps]
    try:
        data = np.concatenate(xs, axis=axis)
    except ValueError as e:
        raise ShapeError(str(e)) from None

    def vjp(g):
        return [(p, g[block]) for p, block in zip(ps, _blocks(xs, axis)) if p.requires_grad]

    out = _emit(data, ps, vjp, "concat")
    if all(t is None for _, t in pairs):
        return out
    tangent = np.zeros(data.shape)
    for block, (_, t) in zip(_blocks(xs, axis), pairs):
        if t is not None:
            tangent[block] = t
    return DualTensor(out, tangent)


def split_rows(a, n: int):
    """``(a[:n], a[n:])`` of a 2-D Tensor, the inverse of ``concat(axis=0)``
    over two parts: one node with two outputs, whose VJP stacks their
    cotangents (zeros for a part nothing used). Reverse mode only."""
    a = as_tensor(a)
    x = a.data
    if x.ndim != 2 or not 0 < n < x.shape[0]:
        raise ShapeError(f"cannot split {x.shape} after row {n}")
    needs = bool(_ACTIVE) and a.requires_grad
    outs = (Tensor(x[:n], requires_grad=needs), Tensor(x[n:], requires_grad=needs))
    if needs:

        def vjp(gs):
            return [(a, np.concatenate([np.zeros(o.shape) if g is None else g for o, g in zip(outs, gs)]))]

        _ACTIVE[-1]._record(outs, (a,), vjp, "split_rows")
    return outs


def _reduce(a, np_fn, scale, axis, op):
    # the VJP spreads g over the reduced entries, times ``scale(n)`` of their count
    def back(g, shape):
        n = np.prod(shape) if axis is None else shape[axis]
        return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape) * scale(n)

    return _linear(a, lambda x: np_fn(x, axis=axis), back, op)


def sum_(a, axis=None):
    return _reduce(a, np.sum, lambda n: 1.0, axis, "sum")


def mean_(a, axis=None):
    return _reduce(a, np.mean, lambda n: 1.0 / float(n), axis, "mean")


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
    # a function that ignored its inputs has a tangent of exactly zero
    out, t = _split(out)
    return out, Tensor(np.zeros_like(out.data) if t is None else t)
