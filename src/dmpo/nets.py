"""Velocity and value networks, seeded init, and Adam over one parameter buffer.

The velocity network u(z, r, tau, obs) is an observation encoder (2-layer
tanh MLP producing the conditional embedding h) and a tanh trunk mapping
concat(z, h, r, tau), with the two flow times raw, to an action-space
velocity. The encoder output is what the dispersive regularizers act on;
trunk parameters never influence ``encode``.

Each net has one forward method with two branches. On Tensors each layer
is the autodiff op chain ``tanh(x @ W + b)`` (``x @ W + b`` for an output
layer) and runs traced (reverse mode) or on duals (forward mode; under a
graph the primal is taped as the traced forward would be, so one pass gives
a taped forward and its directional derivative). On plain arrays it calls
``kernels.affine_tanh`` and ``kernels.affine`` itself, one written-out call
per layer, records nothing and returns arrays (``velocity`` then takes
float times, and one unbatched row runs as 1-D arrays); the layers' ops and
their order are the chain's, so both branches give the same bits.

The training steps run off the tape too: ``encode(obs, keep=True)``,
``velocity((z, v), r, tau, h=h)`` (``v`` None: the trunk pass alone; an
array ``v``: the JVP along (v, 0, 1), the dual pass
``meanflow.target_velocity`` makes on Tensors) and ``ValueNet.value(obs,
keep=True)`` give the values of the taped forward with one finite check
(op 'dense') on each pre-activation, plus the activations that
``encode_vjp``, ``velocity_vjp`` and ``value_vjp`` read. Those backward
passes sit beside their forwards, one written-out VJP of the chain per
layer, and write each parameter's gradient into ``grads[param]``.
``grads`` is the one gradient map of both training steps: ``Adam.grads``,
each parameter Tensor to its view of Adam's flat gradient buffer, keyed as
``Graph.backward`` keys its result. ``clip_grad_norm`` rescales that
buffer in place and ``Adam.step`` updates from it. Both stages stop on a
gradient that is not finite with the one error ``nonfinite_grad`` builds,
naming op 'backward' and the first parameter whose gradient is not.

The training steps take every product with ``ndarray.dot``: the forward's
``x.dot(W)`` (``_checked``), the VJP's ``x.T.dot(gp, out=grads[W])`` and
``gp.dot(W.T)`` (``_layer_vjp``) and the JVP's tangent products. ``.dot``
gives the bits of ``@`` (checked at 1-71 and 128-320 rows, transposed
operands and ``out=`` included, one BLAS thread) for less dispatch: about
-2% per pre-train step and per fine-tune iteration in alternating
in-process runs. The inference forwards
keep ``kernels``' rank rule (``.dot`` for one row, ``@`` for batches).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import kernels
from .autodiff import NonFiniteError, Tensor, _check_finite, as_tensor, concat, tanh, value_of


def _checked(x, W, b, hidden=True):
    # a layer on arrays, the traced chain's ops in order, with one finite
    # check (named 'dense') on the pre-activation, since tanh of a finite
    # value is finite; a hidden layer also returns its tanh slope 1 - y*y
    y = x.dot(W)
    y += b
    _check_finite(y, "dense")
    if not hidden:
        return y
    np.tanh(y, out=y)
    s = y * y
    np.subtract(1.0, s, out=s)
    return y, s


def _layer_vjp(x, gp, W, b, grads, x_cot=True):
    # the VJP of ``matmul`` -> ``add`` for the pre-activation cotangent gp:
    # the gradients of the parameter Tensors W and b written into grads[W]
    # and grads[b], and x's cotangent unless ``x_cot`` is False
    x.T.dot(gp, out=grads[W])
    gp.sum(axis=0, out=grads[b])
    return gp.dot(W.data.T) if x_cot else None


class _MLPBase:
    """Named-parameter container with cloning and checksum support.

    A subclass lists its layers, input to output, in ``layers``, and gives
    each layer's ``(fan_in, fan_out)``, in that order, as ``fans(**dims)``.
    Layer ``l`` holds the parameters ``l_w`` of that shape and ``l_b`` of
    ``(fan_out,)``, and ``param_names`` lists them in layer order. Each
    ``dims`` entry is also a plain attribute (``net.d_obs``).
    """

    layers: tuple[str, ...]
    param_names: tuple[str, ...]

    def __init_subclass__(cls):
        cls.param_names = tuple(f"{layer}_{p}" for layer in cls.layers for p in ("w", "b"))

    def __init__(self, params: dict[str, Tensor], dims: dict[str, int]):
        self.params = params
        self.dims = dims
        self.__dict__.update(dims)

    @classmethod
    def param_shapes(cls, dims: dict[str, int]) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape in a net of ``dims``, in ``param_names``
        order; computed from the dims alone, so nothing is allocated."""
        if min(dims.values()) < 1:
            raise ValueError(f"all dims must be positive: {dims}")
        shapes = {}
        for layer, (fan_in, fan_out) in zip(cls.layers, cls.fans(**dims)):
            shapes[f"{layer}_w"], shapes[f"{layer}_b"] = (fan_in, fan_out), (fan_out,)
        return shapes

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], dims: dict[str, int]):
        """A net of ``dims`` holding copies of ``arrays`` (name -> array-like);
        every shape is compared with ``param_shapes(dims)`` before any copy."""
        shapes = cls.param_shapes(dims)
        arrays = {n: np.asarray(arrays[n], dtype=np.float64) for n in shapes}
        for n, shape in shapes.items():
            if arrays[n].shape != shape:
                raise ValueError(f"parameter {n}: shape {arrays[n].shape} != {shape}")
        return cls({n: Tensor(a.copy(), requires_grad=True) for n, a in arrays.items()}, dict(dims))

    def parameters(self) -> list[Tensor]:
        return [self.params[n] for n in self.param_names]

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {n: self.params[n].data for n in self.param_names}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays`` into the parameters' own buffers, in place."""
        for n, p in self.from_arrays(arrays, self.dims).params.items():
            self.params[n].data[...] = p.data

    def clone(self):
        return self.from_arrays(self.param_arrays(), self.dims)


class VelocityNet(_MLPBase):
    """u(z, r, tau, obs): conditional-embedding encoder + time-conditioned trunk."""

    layers = ("enc0", "enc1", "trunk0", "trunk1", "out")

    @staticmethod
    def fans(d_obs, d_a, d_h, enc_width, trunk_width):
        return [(d_obs, enc_width), (enc_width, d_h), (d_a + d_h + 2, trunk_width), (trunk_width, trunk_width),
                (trunk_width, d_a)]

    def encode(self, obs, keep=False):
        """(B, d_obs) -> conditional embeddings (B, d_h), post-activation.

        On arrays with ``keep`` (a training step) each layer's pre-activation
        gets ``_checked``'s finite check and ``(h, acts)`` is returned,
        ``acts`` being what ``encode_vjp`` reads."""
        p = self.params
        if type(obs) is np.ndarray:
            if not keep:
                x = kernels.affine_tanh(obs, p["enc0_w"].data, p["enc0_b"].data)
                return kernels.affine_tanh(x, p["enc1_w"].data, p["enc1_b"].data)
            x, sx = _checked(obs, p["enc0_w"].data, p["enc0_b"].data)
            h, sh = _checked(x, p["enc1_w"].data, p["enc1_b"].data)
            return h, (obs, x, sx, sh)
        return tanh(tanh(obs @ p["enc0_w"] + p["enc0_b"]) @ p["enc1_w"] + p["enc1_b"])

    def encode_vjp(self, g, acts, grads):
        """Backward of ``encode(obs, keep=True)`` for the cotangent ``g`` of
        h: the chain's VJP ops per layer, each parameter's gradient written
        into ``grads[param]``."""
        obs, x, sx, sh = acts
        p = self.params
        gp = _layer_vjp(x, sh * g, p["enc1_w"], p["enc1_b"], grads)
        gp *= sx
        _layer_vjp(obs, gp, p["enc0_w"], p["enc0_b"], grads, x_cot=False)

    def velocity(self, z, r, tau, h=None, obs=None):
        """Average-velocity prediction; requires r <= tau (a NaN time fails
        it). r and tau are (B, 1) columns, or floats shared across rows when
        ``z`` is an ndarray (the array path), which may be one unbatched row
        ``(d_a,)`` with ``h`` ``(d_h,)``, or ``(B, d_a)``. ``h``, if given, is
        the embedding of ``obs``.

        A pair ``z = (z, v)`` with an array ``h`` and columns r, tau is a
        training step's pass: the trunk input gets the traced ``concat``'s
        finite check and each layer's pre-activation ``_checked``'s. It
        returns ``(u, acts)``, ``acts`` being what ``velocity_vjp`` reads,
        for ``v`` None (no tangent), and ``(u, du/dtau, acts)``, the JVP
        along (v, 0, 1) in (z, r, tau), for an array ``v``."""
        arrays = type(z) is np.ndarray
        if not (r <= tau) if arrays else not (value_of(r) <= value_of(tau)).all():
            raise ValueError("flow interval start r exceeds end tau")
        if h is None:
            if obs is None:
                raise ValueError("need obs or precomputed embedding h")
            h = self.encode(obs)
        # Flow times enter the trunk raw. Sinusoidal embeddings (sin/cos of
        # 2^j pi t) are value-blind at t in {0, 1} while their slopes peak
        # there, which feeds unconstrained derivative noise into the
        # directional-derivative target at the exact (r=0, tau=1) corner
        # one-step sampling queries; a raw time input keeps the
        # time-derivative pathway identified everywhere.
        p = self.params
        if arrays:
            if z.ndim == 1:
                d_a = z.shape[0]
                x = np.empty(d_a + h.shape[0] + 2)
                x[:d_a] = z
                x[d_a:-2] = h
                x[-2] = r
                x[-1] = tau
            else:
                # [z, h, r, tau] filled in place: the values and C layout of
                # the traced ``concat``, so the trunk's matmuls match it
                B, d_a = z.shape
                x = np.empty((B, d_a + h.shape[1] + 2))
                x[:, :d_a] = z
                x[:, d_a:-2] = h
                x[:, -2] = r
                x[:, -1] = tau
            x = kernels.affine_tanh(x, p["trunk0_w"].data, p["trunk0_b"].data)
            x = kernels.affine_tanh(x, p["trunk1_w"].data, p["trunk1_b"].data)
            return kernels.affine(x, p["out_w"].data, p["out_b"].data)
        if type(z) is tuple:
            # the values of the traced (or dual) ``concat`` and layers
            z, v = z
            x = np.concatenate((z, h, r, tau), axis=1)
            _check_finite(x, "concat")
            a1, s1 = _checked(x, p["trunk0_w"].data, p["trunk0_b"].data)
            a2, s2 = _checked(a1, p["trunk1_w"].data, p["trunk1_b"].data)
            u = _checked(a2, p["out_w"].data, p["out_b"].data, False)
            acts = (x, a1, s1, a2, s2)
            if v is None:
                return u, acts
            t = np.zeros(x.shape)
            t[:, : z.shape[1]] = v
            t[:, -1] = 1.0
            t = t.dot(p["trunk0_w"].data)
            t *= s1
            t = t.dot(p["trunk1_w"].data)
            t *= s2
            return u, t.dot(p["out_w"].data), acts
        x = tanh(concat([z, h, r, tau], axis=1) @ p["trunk0_w"] + p["trunk0_b"])
        x = tanh(x @ p["trunk1_w"] + p["trunk1_b"])
        return x @ p["out_w"] + p["out_b"]

    def velocity_vjp(self, g, acts, grads):
        """Backward of the pass ``velocity((z, v), ...)`` for the cotangent
        ``g`` of u: the chain's VJP ops per layer, each parameter's gradient
        written into ``grads[param]``; returns the cotangent of h."""
        x, a1, s1, a2, s2 = acts
        p = self.params
        g = _layer_vjp(a2, g, p["out_w"], p["out_b"], grads)
        g *= s2
        g = _layer_vjp(a1, g, p["trunk1_w"], p["trunk1_b"], grads)
        g *= s1
        g = _layer_vjp(x, g, p["trunk0_w"], p["trunk0_b"], grads)
        return g[:, self.d_a : self.d_a + self.d_h]

    # The names the samplers call on arrays (pipeline_bench times and counts
    # calls to them by these names).
    encode_arrays = encode
    velocity_arrays = velocity


class ValueNet(_MLPBase):
    """V(obs): 2-hidden-layer tanh MLP to a scalar."""

    layers = ("l0", "l1", "out")

    @staticmethod
    def fans(d_obs, width):
        return [(d_obs, width), (width, width), (width, 1)]

    def value(self, obs, keep=False):
        """(B, d_obs) -> values (B,). On arrays with ``keep`` (a training
        step) each layer's pre-activation gets ``_checked``'s finite check
        and ``(v, acts)`` is returned, ``acts`` being what ``value_vjp``
        reads."""
        p = self.params
        if type(obs) is np.ndarray:
            if not keep:
                x = kernels.affine_tanh(obs, p["l0_w"].data, p["l0_b"].data)
                x = kernels.affine_tanh(x, p["l1_w"].data, p["l1_b"].data)
                return kernels.affine(x, p["out_w"].data, p["out_b"].data).reshape((-1,))
            x, sx = _checked(obs, p["l0_w"].data, p["l0_b"].data)
            y, sy = _checked(x, p["l1_w"].data, p["l1_b"].data)
            v = _checked(y, p["out_w"].data, p["out_b"].data, False)
            return v.reshape((-1,)), (obs, x, sx, y, sy)
        x = tanh(tanh(obs @ p["l0_w"] + p["l0_b"]) @ p["l1_w"] + p["l1_b"])
        return (x @ p["out_w"] + p["out_b"]).reshape((-1,))

    def value_vjp(self, g, acts, grads):
        """Backward of ``value(obs, keep=True)`` for the cotangent ``g`` of
        the values: the ``reshape``'s, then the chain's VJP ops per layer,
        each parameter's gradient written into ``grads[param]``."""
        obs, x, sx, y, sy = acts
        p = self.params
        gp = _layer_vjp(y, g.reshape((-1, 1)), p["out_w"], p["out_b"], grads)
        gp *= sy
        gp = _layer_vjp(x, gp, p["l1_w"], p["l1_b"], grads)
        gp *= sx
        _layer_vjp(obs, gp, p["l0_w"], p["l0_b"], grads, x_cot=False)


def _init_net(cls, seed: int, dims: dict[str, int]):
    """A ``cls`` net of ``dims``; each layer, in ``cls.layers`` order, draws
    W, then b, uniform in +-1/sqrt(fan_in) from one rng seeded with ``seed``."""
    shapes = cls.param_shapes(dims)
    rng = np.random.default_rng(seed)
    params = {}
    for layer in cls.layers:
        w, b = f"{layer}_w", f"{layer}_b"
        bound = 1.0 / math.sqrt(shapes[w][0])
        params[w] = Tensor(rng.uniform(-bound, bound, size=shapes[w]), requires_grad=True)
        params[b] = Tensor(rng.uniform(-bound, bound, size=shapes[b]), requires_grad=True)
    return cls(params, dims)


def init_velocity_net(
    seed: int,
    d_obs: int,
    d_a: int,
    d_h: int = 32,
    enc_width: int = 64,
    trunk_width: int = 64,
) -> VelocityNet:
    """Seeded uniform fan-in init; identical seeds give bit-identical nets."""
    dims = {"d_obs": d_obs, "d_a": d_a, "d_h": d_h, "enc_width": enc_width, "trunk_width": trunk_width}
    return _init_net(VelocityNet, seed, dims)


def init_value_net(seed: int, d_obs: int, width: int = 64) -> ValueNet:
    return _init_net(ValueNet, seed, {"d_obs": d_obs, "width": width})


# module-level wrappers matching the operation contracts ------------------------


def encode(net: VelocityNet, obs_batch) -> Tensor:
    obs = as_tensor(obs_batch)
    if obs.data.ndim != 2 or obs.data.shape[1] != net.d_obs:
        raise ValueError(f"obs batch must be (B, {net.d_obs}), got {obs.data.shape}")
    return net.encode(obs)


def predict_velocity(net: VelocityNet, z, r, tau, obs) -> Tensor:
    """Single-sample convenience wrapper: z (d_a,), scalar times, obs (d_obs,)."""
    z_arr = np.asarray(z, dtype=np.float64).reshape(1, -1)
    o_arr = np.asarray(obs, dtype=np.float64).reshape(1, -1)
    if z_arr.shape[1] != net.d_a or o_arr.shape[1] != net.d_obs:
        raise ValueError(f"expected d_a={net.d_a}, d_obs={net.d_obs}")
    out = net.velocity(
        Tensor(z_arr),
        Tensor(np.full((1, 1), float(r))),
        Tensor(np.full((1, 1), float(tau))),
        obs=Tensor(o_arr),
    )
    return Tensor(out.data[0])


def param_checksum(net: _MLPBase) -> str:
    """Order-sensitive content hash of all parameters."""
    import hashlib

    m = hashlib.sha256()
    for n in net.param_names:
        m.update(n.encode())
        m.update(np.ascontiguousarray(net.params[n].data).tobytes())
    return m.hexdigest()


class Adam:
    """Adam with bias correction over one flat parameter buffer.

    The constructor copies the parameters into the contiguous float64 array
    ``flat`` and points each ``Tensor.data`` at its slice, so writes through
    the tensors (``load_arrays``) and the update see the same memory. The
    moments, the gradient buffer and the update's two scratch rows are
    arrays of the same size, allocated once. ``grads`` maps each parameter
    Tensor, in ``params`` order, to its view of the gradient buffer ``_g``,
    shaped like it (the keys ``Graph.backward`` returns): a backward pass
    writes each gradient there, ``clip_grad_norm`` may rescale ``_g`` in
    place, and ``step()`` is one in-place ``kernels.adam_update`` call on it.
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.flat = np.concatenate([p.data.ravel() for p in self.params])
        self._g = np.empty(self.flat.size)
        self.grads = {}
        lo = 0
        for p in self.params:
            n = p.data.size
            p.data = self.flat[lo : lo + n].reshape(p.data.shape)
            self.grads[p] = self._g[lo : lo + n].reshape(p.data.shape)
            lo += n
        self._m = np.zeros(self.flat.size)
        self._v = np.zeros(self.flat.size)
        self._work = np.empty((2, self.flat.size))

    def step(self) -> None:
        """One update from the gradient buffer ``_g``."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        kernels.adam_update(
            self.flat, self._g, self._m, self._v, self.lr, self.beta1, self.beta2, self.eps, bc1, bc2, self._work
        )


def nonfinite_grad(named, grads: dict, norm: float | None = None) -> NonFiniteError | None:
    """The error for a gradient that is not finite, naming op 'backward'
    and the first ``(name, Tensor)`` pair in ``named`` whose gradient in
    ``grads`` (as ``Adam.grads``) has a non-finite entry. When every entry
    is finite: the error naming ``norm`` if one is given (a norm that
    overflowed over finite entries), else None."""
    bad = next((n for n, p in named if not np.isfinite(grads[p]).all()), None)
    if bad is None and norm is None:
        return None
    where = f"a gradient norm of {norm}" if bad is None else f"the gradient of {bad}"
    return NonFiniteError(f"non-finite values produced by op 'backward' in {where}")


def clip_grad_norm(g: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient ``g`` in place so its L2 norm is <= max_norm
    and return the norm before clipping: one sum of squares, and one
    multiply when the norm exceeds the cap. The sum is ``np.einsum``'s, whose
    order numpy's code fixes; BLAS's ``g @ g`` splits a long vector across
    threads, so its last bit would depend on the thread count. The rounding
    still depends on the order of the entries, so ``finetune`` lists its
    parameters in the order the taped loss first uses them. A non-finite
    norm leaves ``g`` as it is, for the caller to name what is not finite."""
    norm = math.sqrt(np.einsum("i,i->", g, g))
    if norm > max_norm and 0.0 < norm < math.inf:
        g *= max_norm / norm
    return norm
