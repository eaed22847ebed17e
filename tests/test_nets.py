import numpy as np
import pytest

from dmpo import kernels
from dmpo.autodiff import Graph, ShapeError, Tensor
from dmpo.nets import (
    Adam,
    clip_grad_norm,
    encode,
    init_value_net,
    init_velocity_net,
    param_checksum,
    predict_velocity,
)

from helpers import into_adam


def _zeroed(net):
    for p in net.parameters():
        p.data[...] = 0.0
    return net


def test_encode_zero_net_gives_zero_embeddings():
    net = _zeroed(init_velocity_net(0, d_obs=3, d_a=2, d_h=8, enc_width=8, trunk_width=8))
    H = encode(net, np.random.default_rng(0).normal(size=(4, 3)))
    np.testing.assert_array_equal(H.data, np.zeros((4, 8)))


def test_encode_batch_independence():
    net = init_velocity_net(1, d_obs=3, d_a=2)
    obs = np.random.default_rng(1).normal(size=(1, 3))
    single = encode(net, obs).data
    double = encode(net, np.vstack([obs, obs])).data
    # rows agree to fp tolerance (BLAS may pick different kernels per batch size)
    assert np.max(np.abs(double - single[0])) < 1e-12
    np.testing.assert_array_equal(double[0], double[1])


def test_encode_deterministic():
    net = init_velocity_net(2, d_obs=3, d_a=2)
    obs = np.random.default_rng(2).normal(size=(5, 3))
    np.testing.assert_array_equal(encode(net, obs).data, encode(net, obs).data)


def test_predict_velocity_zero_net_gives_zero():
    net = _zeroed(init_velocity_net(3, d_obs=3, d_a=2))
    u = predict_velocity(net, np.ones(2), 0.2, 0.7, np.ones(3))
    np.testing.assert_array_equal(u.data, np.zeros(2))


def test_predict_velocity_repeatable():
    net = init_velocity_net(4, d_obs=3, d_a=2)
    a = predict_velocity(net, np.ones(2), 0.1, 0.9, np.ones(3)).data
    b = predict_velocity(net, np.ones(2), 0.1, 0.9, np.ones(3)).data
    np.testing.assert_array_equal(a, b)


def test_predict_velocity_matches_manual_evaluation():
    net = init_velocity_net(5, d_obs=3, d_a=2, d_h=4, enc_width=4, trunk_width=4)
    rng = np.random.default_rng(5)
    z, obs = rng.normal(size=2), rng.normal(size=3)
    r, tau = 0.25, 0.75

    p = {n: t.data for n, t in net.params.items()}
    h = np.tanh(np.tanh(obs @ p["enc0_w"] + p["enc0_b"]) @ p["enc1_w"] + p["enc1_b"])
    x = np.concatenate([z, h, [r], [tau]])
    x = np.tanh(x @ p["trunk0_w"] + p["trunk0_b"])
    x = np.tanh(x @ p["trunk1_w"] + p["trunk1_b"])
    want = x @ p["out_w"] + p["out_b"]

    got = predict_velocity(net, z, r, tau, obs).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_predict_velocity_rejects_r_above_tau():
    net = init_velocity_net(6, d_obs=3, d_a=2)
    with pytest.raises(ValueError):
        predict_velocity(net, np.ones(2), 0.8, 0.3, np.ones(3))


@pytest.mark.parametrize("path", ["tensor-columns", "array-floats"])
def test_velocity_rejects_r_above_tau_on_both_paths(path):
    net = init_velocity_net(6, d_obs=3, d_a=2)
    z, obs = np.ones((2, 2)), np.ones((2, 3))
    with pytest.raises(ValueError, match="r exceeds end tau"):
        if path == "tensor-columns":
            # one row of two out of order is enough
            r, tau = Tensor([[0.2], [0.8]]), Tensor([[0.5], [0.3]])
            net.velocity(Tensor(z), r, tau, obs=Tensor(obs))
        else:
            net.velocity_arrays(z, 0.8, 0.3, net.encode_arrays(obs))


@pytest.mark.parametrize("r, tau", [(np.nan, 0.5), (0.5, np.nan)])
@pytest.mark.parametrize("path", ["tensor-columns", "array-rows", "array-row-1d"])
def test_velocity_rejects_nan_times_on_every_path(path, r, tau):
    # a NaN time fails r <= tau and gets the interval message, not a NaN
    # velocity or another op's finite check
    net = init_velocity_net(6, d_obs=3, d_a=2)
    z, obs = np.ones((2, 2)), np.ones((2, 3))
    with pytest.raises(ValueError, match="r exceeds end tau"):
        if path == "tensor-columns":
            # one NaN row of two is enough
            r_col, tau_col = Tensor([[0.2], [r]]), Tensor([[0.5], [tau]])
            net.velocity(Tensor(z), r_col, tau_col, obs=Tensor(obs))
        elif path == "array-rows":
            net.velocity_arrays(z, r, tau, net.encode_arrays(obs))
        else:
            net.velocity_arrays(z[0], r, tau, net.encode_arrays(obs[0]))


def test_init_checksums():
    a = init_velocity_net(7, d_obs=3, d_a=2)
    b = init_velocity_net(7, d_obs=3, d_a=2)
    c = init_velocity_net(8, d_obs=3, d_a=2)
    assert param_checksum(a) == param_checksum(b)
    assert param_checksum(a) != param_checksum(c)


def test_init_matches_pinned_names_and_checksums():
    # the names, their order and every drawn value, as first released; a
    # reordered draw or a renamed parameter changes a checksum
    net = init_velocity_net(7, d_obs=3, d_a=2)
    vnet = init_value_net(7, d_obs=3)
    assert net.param_names == ("enc0_w", "enc0_b", "enc1_w", "enc1_b", "trunk0_w", "trunk0_b",
                               "trunk1_w", "trunk1_b", "out_w", "out_b")
    assert vnet.param_names == ("l0_w", "l0_b", "l1_w", "l1_b", "out_w", "out_b")
    assert param_checksum(net) == "8772f3213e179446be4cad36a67f3bb22ef52e29fe8c1368caf19a44d3f25236"
    assert param_checksum(vnet) == "f2013042b118c71eaad8413a51490576bdbeb173b69e13ec9db2a947a40b67f9"


def test_dims_are_attributes_and_survive_clone():
    net = init_velocity_net(7, d_obs=3, d_a=2, d_h=5, enc_width=6, trunk_width=7)
    vnet = init_value_net(7, d_obs=3, width=9)
    for n in (net, net.clone()):
        assert (n.d_obs, n.d_a, n.d_h, n.enc_width, n.trunk_width) == (3, 2, 5, 6, 7)
        assert n.dims == {"d_obs": 3, "d_a": 2, "d_h": 5, "enc_width": 6, "trunk_width": 7}
    assert (vnet.clone().d_obs, vnet.clone().width) == (3, 9)
    assert net.params["trunk0_w"].data.shape == (2 + 5 + 2, 7)
    assert vnet.params["out_w"].data.shape == (9, 1)


def test_init_rejects_zero_width():
    with pytest.raises(ValueError):
        init_velocity_net(0, d_obs=3, d_a=2, d_h=0)
    with pytest.raises(ValueError):
        init_value_net(0, d_obs=0)


def test_forward_on_zeros_is_bias_chain():
    net = init_velocity_net(9, d_obs=3, d_a=2, d_h=4, enc_width=4, trunk_width=4)
    p = {n: t.data for n, t in net.params.items()}
    h = np.tanh(np.tanh(p["enc0_b"]) @ p["enc1_w"] + p["enc1_b"])
    x = np.concatenate([np.zeros(2), h, [0.0], [0.0]])
    x = np.tanh(x @ p["trunk0_w"] + p["trunk0_b"])
    x = np.tanh(x @ p["trunk1_w"] + p["trunk1_b"])
    want = x @ p["out_w"] + p["out_b"]
    got = predict_velocity(net, np.zeros(2), 0.0, 0.0, np.zeros(3)).data
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_batch_equivariance():
    net = init_velocity_net(10, d_obs=3, d_a=2)
    rng = np.random.default_rng(10)
    zs = rng.normal(size=(4, 2))
    obs = rng.normal(size=(4, 3))
    rs = rng.uniform(0, 0.4, size=(4, 1))
    taus = rng.uniform(0.5, 1.0, size=(4, 1))

    batch = net.velocity(Tensor(zs), Tensor(rs), Tensor(taus), obs=Tensor(obs)).data
    for i in range(4):
        one = predict_velocity(net, zs[i], rs[i, 0], taus[i, 0], obs[i]).data
        assert np.max(np.abs(batch[i] - one)) < 1e-12


def test_trunk_params_do_not_affect_encode():
    net = init_velocity_net(11, d_obs=3, d_a=2)
    obs = np.random.default_rng(11).normal(size=(4, 3))
    before = encode(net, obs).data.copy()
    for n in ("trunk0_w", "trunk1_b", "out_w", "out_b"):
        net.params[n].data[...] += 1.0
    np.testing.assert_array_equal(encode(net, obs).data, before)


def test_fast_paths_match_traced_forward():
    net = init_velocity_net(12, d_obs=3, d_a=2)
    vnet = init_value_net(12, d_obs=3)
    rng = np.random.default_rng(12)
    z = rng.normal(size=(5, 2))
    obs = rng.normal(size=(5, 3))

    h_fast = net.encode_arrays(obs)
    h_ref = net.encode(Tensor(obs)).data
    assert np.max(np.abs(h_fast - h_ref)) < 1e-12

    u_fast = net.velocity_arrays(z, 0.0, 1.0, h_fast)
    u_ref = net.velocity(
        Tensor(z), Tensor(np.zeros((5, 1))), Tensor(np.ones((5, 1))), obs=Tensor(obs)
    ).data
    assert np.max(np.abs(u_fast - u_ref)) < 1e-12

    v_fast = vnet.value(obs)
    v_ref = vnet.value(Tensor(obs)).data
    assert np.max(np.abs(v_fast - v_ref)) < 1e-12


@pytest.mark.parametrize("B", [1, 8, 256])
@pytest.mark.parametrize("r, tau", [(0.0, 1.0), (0.25, 0.5)])
def test_fast_paths_bit_identical_to_traced_forward(B, r, tau):
    net = init_velocity_net(14, d_obs=4, d_a=2)
    vnet = init_value_net(14, d_obs=4)
    rng = np.random.default_rng(B)
    z = rng.normal(size=(B, 2))
    obs = rng.normal(size=(B, 4))

    h_fast = net.encode_arrays(obs)
    np.testing.assert_array_equal(h_fast, net.encode(Tensor(obs)).data)

    u_fast = net.velocity_arrays(z, r, tau, h_fast)
    u_ref = net.velocity(
        Tensor(z), Tensor(np.full((B, 1), r)), Tensor(np.full((B, 1), tau)), obs=Tensor(obs)
    ).data
    np.testing.assert_array_equal(u_fast, u_ref)
    np.testing.assert_array_equal(net.velocity(z, r, tau, obs=obs), u_ref)  # array path, encoding obs

    np.testing.assert_array_equal(vnet.value(obs), vnet.value(Tensor(obs)).data)


def test_rank1_tensor_input_runs_as_one_row_and_a_width_mismatch_raises_shape_error():
    # a taped forward takes one unbatched observation as the array branch
    # does: the same bits and shapes, and, to rounding, the row of a
    # one-row batch
    net = init_velocity_net(16, d_obs=4, d_a=2)
    vnet = init_value_net(16, d_obs=4)
    obs = np.random.default_rng(16).normal(size=4)
    with Graph() as g:
        h = net.encode(Tensor(obs))
        v = vnet.value(Tensor(obs))
        total = h.sum()
    assert h.shape == (net.d_h,) and v.shape == (1,)
    np.testing.assert_array_equal(h.data, net.encode_arrays(obs))
    np.testing.assert_array_equal(v.data, vnet.value(obs))
    assert np.max(np.abs(h.data - net.encode(Tensor(obs[None])).data[0])) < 1e-12
    assert set(g.backward(total)) == {net.params[n] for n in ("enc0_w", "enc0_b", "enc1_w", "enc1_b")}
    for bad in (np.zeros(5), np.zeros((2, 5))):
        with pytest.raises(ShapeError):
            net.encode(Tensor(bad))
        with pytest.raises(ShapeError):
            vnet.value(Tensor(bad))


def test_value_net_scalar_output():
    vnet = init_value_net(13, d_obs=4)
    obs = np.random.default_rng(13).normal(size=(6, 4))
    assert vnet.value(Tensor(obs)).data.shape == (6,)


def test_adam_minimizes_quadratic():
    p = Tensor(np.array([5.0, -4.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    target = np.array([3.0, 1.0])
    for _ in range(500):
        with Graph() as g:
            loss = ((p - Tensor(target)) * (p - Tensor(target))).sum()
        into_adam(opt, g.backward(loss))
        opt.step()
    np.testing.assert_allclose(p.data, target, atol=1e-3)


def test_adam_deterministic():
    def run():
        p = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        opt = Adam([p], lr=0.05)
        for _ in range(50):
            with Graph() as g:
                loss = (p * p).sum()
            into_adam(opt, g.backward(loss))
            opt.step()
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


def _adam_reference(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    m[...] = beta1 * m + (1.0 - beta1) * grad
    v[...] = beta2 * v + (1.0 - beta2) * grad * grad
    param -= lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)


def test_adam_one_buffer_matches_per_tensor_reference():
    rng = np.random.default_rng(21)
    shapes = [(3, 4), (5,), ()]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    ref = [p.data.copy() for p in params]
    ms = [np.zeros(s) for s in shapes]
    vs = [np.zeros(s) for s in shapes]
    opt = Adam(params, lr=0.01)
    for p, want in zip(params, ref):
        assert np.shares_memory(p.data, opt.flat)
        np.testing.assert_array_equal(p.data, want)
    for t in range(1, 21):
        grads = {p: rng.normal(size=s) for p, s in zip(params, shapes)}
        into_adam(opt, grads)
        opt.step()
        for p, r, m, v in zip(params, ref, ms, vs):
            _adam_reference(r, grads[p], m, v, t, 0.01)
    for p, r in zip(params, ref):
        assert p.data.shape == r.shape
        assert np.shares_memory(p.data, opt.flat)
        np.testing.assert_array_equal(p.data, r)


def test_adam_in_place_step_matches_out_of_place_expression_and_scratch_stays_apart():
    rng = np.random.default_rng(23)
    params = init_value_net(5, d_obs=3, width=8).parameters()
    lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    want = opt.flat.copy()
    m = np.zeros(want.size)
    v = np.zeros(want.size)
    buffers = {"m": opt._m, "v": opt._v, "grads": opt._g, "work0": opt._work[0], "work1": opt._work[1]}
    for t in range(1, 8):
        grads = {p: rng.normal(size=p.data.shape) for p in params}
        given = {p: g.copy() for p, g in grads.items()}
        into_adam(opt, grads)
        opt.step()
        g = np.concatenate([given[p].ravel() for p in params])
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        want = want - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        assert np.array_equal(opt.flat, want)
        assert np.array_equal(opt._m, m) and np.array_equal(opt._v, v)
        for p in params:
            assert np.array_equal(grads[p], given[p])  # the caller's gradients are only read
        names = list(buffers)
        for i, a in enumerate(names):
            assert not np.shares_memory(buffers[a], opt.flat), a
            for b in names[i + 1 :]:
                assert not np.shares_memory(buffers[a], buffers[b]), (a, b)


@pytest.mark.parametrize("t", [1, 355, 356, 2000])
def test_adam_update_matches_out_of_place_expression_on_both_bias_branches(t):
    # from t = 356 on, 1 - 0.9**t is exactly 1.0 and the kernel skips the
    # divide by it; before, it divides
    b1, b2, lr, eps = 0.9, 0.999, 1e-3, 1e-8
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    assert (bc1 == 1.0) == (t >= 356) and bc2 < 1.0
    rng = np.random.default_rng(t)
    g, m, v = rng.normal(size=(3, 50))
    v = np.abs(v)
    # from zero parameters the result is the update itself, to the last bit
    param = np.zeros(50)
    m_want = b1 * m + (1.0 - b1) * g
    v_want = b2 * v + (1.0 - b2) * g * g
    want = param - lr * (m_want / bc1) / (np.sqrt(v_want / bc2) + eps)
    kernels.adam_update(param, g, m, v, lr, b1, b2, eps, bc1, bc2, np.empty((2, 50)))
    assert np.array_equal(param, want)
    assert np.array_equal(m, m_want) and np.array_equal(v, v_want)


def test_adam_sees_load_arrays_after_construction():
    net = init_value_net(3, d_obs=2, width=4)
    opt = Adam(net.parameters(), lr=0.05)
    loaded = init_value_net(4, d_obs=2, width=4).param_arrays()
    net.load_arrays(loaded)
    rng = np.random.default_rng(22)
    grads = {p: rng.normal(size=p.data.shape) for p in net.parameters()}
    into_adam(opt, grads)
    opt.step()
    for n, p in net.params.items():
        want = loaded[n].copy()
        _adam_reference(want, grads[p], np.zeros(want.shape), np.zeros(want.shape), 1, 0.05)
        np.testing.assert_array_equal(p.data, want)


def test_clone_is_independent():
    net = init_velocity_net(14, d_obs=3, d_a=2)
    twin = net.clone()
    assert param_checksum(net) == param_checksum(twin)
    twin.params["out_b"].data[...] += 1.0
    assert param_checksum(net) != param_checksum(twin)


# ---------------------------------------------------------------------------
# gradient clipping


def _flat_grad(seed, scale=1.0):
    return scale * np.random.default_rng(seed).normal(size=22)


def test_clip_grad_norm_returns_pre_clip_norm_and_caps_at_max():
    g = _flat_grad(0)
    want = float(np.linalg.norm(g))
    assert want > 0.5
    norm = clip_grad_norm(g, 0.5)
    assert norm == pytest.approx(want, rel=1e-14)
    assert np.linalg.norm(g) == pytest.approx(0.5, rel=1e-12)


def test_clip_grad_norm_scales_every_gradient_by_one_factor():
    g = _flat_grad(1)
    before = g.copy()
    norm = clip_grad_norm(g, 0.25)
    np.testing.assert_array_equal(g, before * (0.25 / norm))


def test_clip_grad_norm_below_cap_leaves_gradients_unchanged():
    g = _flat_grad(2, scale=1e-3)
    copy = g.copy()
    norm = clip_grad_norm(g, 1.0)
    assert norm == pytest.approx(np.linalg.norm(copy), rel=1e-14)
    np.testing.assert_array_equal(g, copy)


def test_clip_grad_norm_all_zero_and_empty():
    g = _flat_grad(3, scale=0.0)
    assert clip_grad_norm(g, 1.0) == 0.0
    assert not np.any(g)
    assert clip_grad_norm(np.empty(0), 1.0) == 0.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_clip_grad_norm_leaves_a_non_finite_gradient_as_it_is(bad):
    # scaling by max_norm / inf would turn every entry into 0 and the bad
    # one into NaN; left alone, the caller can name the entry
    g = _flat_grad(3)
    g[5] = bad
    want = g.copy()
    norm = clip_grad_norm(g, 1.0)
    assert not np.isfinite(norm) and np.array_equal(g, want, equal_nan=True)


def test_clip_grad_norm_leaves_tensor_grad_unchanged():
    # clipping scales the copy in Adam's gradient buffer; the arrays
    # Graph.backward returned are not written
    x = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    with Graph() as g:
        loss = (x * x).sum()
    grads = g.backward(loss)
    returned = grads[x]
    flat = into_adam(Adam([x]), grads)
    assert clip_grad_norm(flat, 1.0) == pytest.approx(10.0, rel=1e-15)
    np.testing.assert_array_equal(returned, [6.0, 8.0])
    np.testing.assert_allclose(flat, [0.6, 0.8], rtol=1e-15)
