import math

import numpy as np
import pytest

import dmpo.autodiff as ad
from dmpo.autodiff import Graph, Tensor
from dmpo.dispersive import DISP_KINDS
from dmpo.envs import Dataset
from dmpo.meanflow import (
    Stage1Batch,
    Stage1Config,
    interpolate,
    mf_loss,
    pretrain,
    sample_time_pairs,
    stage1_step,
    target_velocity,
)
from dmpo.nets import Adam, init_velocity_net, param_checksum

from helpers import _taped_step, fd_grad, one_pass_metrics_csv, rel_err


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_endpoints():
    a = np.array([1.0, -2.0])
    eps = np.array([0.5, 3.0])
    np.testing.assert_array_equal(interpolate(a, eps, 0.0), a)
    np.testing.assert_array_equal(interpolate(a, eps, 1.0), eps)


def test_interpolate_midpoint():
    np.testing.assert_array_equal(
        interpolate(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5), [0.5, 0.5]
    )


def test_interpolate_rejects_bad_tau():
    with pytest.raises(ValueError):
        interpolate(np.ones(2), np.ones(2), 1.5)
    with pytest.raises(ValueError):
        interpolate(np.ones(2), np.ones(2), -0.1)


def test_interpolate_rejects_nan_tau():
    a = np.ones((2, 2))
    for tau in (np.nan, [[np.nan]], [[0.5], [np.nan]]):
        with pytest.raises(ValueError, match="tau"):
            interpolate(a, a, tau)


def test_interpolate_bit_identical_to_expression():
    rng = np.random.default_rng(21)
    a, eps = rng.normal(size=(64, 3)), rng.standard_normal((64, 3))
    for tau in (rng.uniform(size=(64, 1)), 0.3, 1.0, np.float64(0.7), rng.uniform(size=3)):
        t = np.asarray(tau)
        np.testing.assert_array_equal(interpolate(a, eps, tau), (1.0 - t) * a + t * eps)


def test_displacement_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, eps = rng.normal(size=2), rng.standard_normal(2)
        r, tau = sorted(rng.uniform(0, 1, 2))
        lhs = (tau - r) * (eps - a)
        rhs = interpolate(a, eps, tau) - interpolate(a, eps, r)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# time sampling


class _FixedRng:
    """standard_normal -> zeros; random -> chosen constant."""

    def __init__(self, u):
        self.u = u

    def standard_normal(self, size):
        return np.zeros(size)

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def test_time_pair_zero_normals_give_half():
    r, tau = sample_time_pairs(_FixedRng(1.0), 4, rho_inst=0.1)
    np.testing.assert_array_equal(r, np.full(4, 0.5))
    np.testing.assert_array_equal(tau, np.full(4, 0.5))


def test_time_pair_bounds():
    rng = np.random.default_rng(5)
    r, tau = sample_time_pairs(rng, 2000, rho_inst=0.1)
    assert np.all((0.0 < r) & (r <= tau) & (tau < 1.0))


def test_time_pair_invariant_enforced():
    def batch(r, tau):
        return Stage1Batch(np.zeros((1, 3)), np.zeros((1, 2)), np.zeros((1, 2)), np.array([r]), np.array([tau]))

    batch(0.3, 0.7)
    batch(0.5, 0.5)
    with pytest.raises(ValueError):
        batch(0.7, 0.3)
    with pytest.raises(ValueError):
        batch(-0.1, 0.5)
    with pytest.raises(ValueError):
        batch(0.5, 1.1)
    for r, tau in ((np.nan, 0.5), (0.3, np.nan), (np.nan, np.nan), (0.0, np.nan)):
        with pytest.raises(ValueError, match="time pairs"):
            batch(r, tau)


def _time_pairs_where_reference(rng, n, rho_inst, full_frac):
    # the out-of-place formulation: the same draws, in the same order
    s = 1.0 / (1.0 + np.exp(-rng.standard_normal((n, 2))))
    r, tau = s.min(axis=1), s.max(axis=1)
    inst = rng.random(n) < rho_inst
    full = (rng.random(n) < full_frac) & ~inst
    r = np.where(inst, tau, r)
    r = np.where(full, 0.0, r)
    tau = np.where(full, 1.0, tau)
    return r, tau


@pytest.mark.parametrize("rho_inst", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("full_frac", [0.0, 0.1, 1.0])
def test_time_pair_draw_bit_identical_to_where_reference(rho_inst, full_frac):
    for seed in range(4):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (1, 64, 257):
            r, tau = sample_time_pairs(got_rng, n, rho_inst, full_frac)
            r_ref, tau_ref = _time_pairs_where_reference(want_rng, n, rho_inst, full_frac)
            np.testing.assert_array_equal(r, r_ref)
            np.testing.assert_array_equal(tau, tau_ref)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_instantaneous_fraction_monte_carlo():
    rng = np.random.default_rng(11)
    r, tau = sample_time_pairs(rng, 100_000, rho_inst=0.1)
    frac = float(np.mean(r == tau))
    assert 0.08 <= frac <= 0.12
    assert np.all((r >= 0) & (r <= tau) & (tau <= 1))


def test_full_interval_fraction():
    rng = np.random.default_rng(13)
    r, tau = sample_time_pairs(rng, 100_000, rho_inst=0.1, full_frac=0.2)
    corner = float(np.mean((r == 0.0) & (tau == 1.0)))
    assert 0.16 <= corner <= 0.20  # 0.2 of the non-instantaneous rows
    assert 0.08 <= float(np.mean(r == tau)) <= 0.12  # unchanged by the corner branch


# ---------------------------------------------------------------------------
# target velocity


class _IdentityVelocity:
    """u(z, r, tau, obs) = z; exercises the analytic chain-rule case."""

    d_obs = 1
    d_a = 1

    def encode(self, obs):
        data = obs.data if isinstance(obs, Tensor) else obs
        return Tensor(np.zeros((data.shape[0], 1)))

    def velocity(self, z, r, tau, obs=None, h=None):
        return z


def test_target_equals_v_when_r_equals_tau():
    net = init_velocity_net(1, 3, 2)
    rng = np.random.default_rng(1)
    obs, act, eps = rng.normal(size=(4, 3)), rng.normal(size=(4, 2)), rng.standard_normal((4, 2))
    tau = rng.uniform(0.2, 0.9, 4)
    v = eps - act
    z = interpolate(act, eps, tau[:, None])
    u_tgt = target_velocity(net, z, tau, tau, obs, v)
    np.testing.assert_array_equal(u_tgt, v)


def test_target_identity_net_hand_case():
    # u(z, r, tau) = z: du/dtau = v, so u_tgt = (1 - (tau - r)) v; v=1, tau=.8, r=.3 -> 0.5
    net = _IdentityVelocity()
    u_tgt = target_velocity(net, np.array([[0.4]]), np.array([0.3]), np.array([0.8]),
                            np.array([[0.0]]), np.array([[1.0]]))
    assert u_tgt[0, 0] == pytest.approx(0.5, abs=1e-10)


def test_target_matches_finite_difference_along_trajectory():
    net = init_velocity_net(7, 4, 2)
    rng = np.random.default_rng(7)
    obs, act, eps = rng.normal(size=(6, 4)), 0.2 * rng.normal(size=(6, 2)), rng.standard_normal((6, 2))
    r = rng.uniform(0.0, 0.4, 6)
    tau = rng.uniform(0.5, 1.0, 6)
    v = eps - act
    z = interpolate(act, eps, tau[:, None])
    got = target_velocity(net, z, r, tau, obs, v)

    h = 1e-5

    def u_at(t):
        zz = interpolate(act, eps, t[:, None])
        return net.velocity(Tensor(zz), Tensor(r[:, None]), Tensor(t[:, None]), obs=Tensor(obs)).data

    dudt = (u_at(tau + h) - u_at(tau - h)) / (2 * h)
    want = v - (tau[:, None] - r[:, None]) * dudt
    assert rel_err(got, want, floor=1e-6) < 1e-4


def test_meanflow_identity_residual_coincides():
    # the training residual u - u_tgt IS the identity residual by construction
    from dmpo.autodiff import DualTensor, no_record

    net = init_velocity_net(9, 3, 2)
    rng = np.random.default_rng(9)
    obs, act, eps = rng.normal(size=(5, 3)), rng.normal(size=(5, 2)), rng.standard_normal((5, 2))
    r = rng.uniform(0, 0.3, 5)
    tau = rng.uniform(0.4, 1.0, 5)
    v = eps - act
    z = interpolate(act, eps, tau[:, None])

    u_tgt = target_velocity(net, z, r, tau, obs, v)

    with no_record():
        h = net.encode(Tensor(obs))
        dual = net.velocity(
            DualTensor(z, v),
            DualTensor(r[:, None], np.zeros((5, 1))),
            DualTensor(tau[:, None], np.ones((5, 1))),
            h=DualTensor(h.data, np.zeros_like(h.data)),
        )
    identity_target = v - (tau[:, None] - r[:, None]) * dual.tangent
    np.testing.assert_array_equal(u_tgt, identity_target)


def _jvp_case(seed=61, B=7):
    """A net and a batch with r == tau rows and (0, 1) rows among general ones."""
    net = init_velocity_net(seed, 3, 2, d_h=5, enc_width=6, trunk_width=6)
    rng = np.random.default_rng(seed)
    obs, act, eps = rng.normal(size=(B, 3)), 0.2 * rng.normal(size=(B, 2)), rng.standard_normal((B, 2))
    r = rng.uniform(0.0, 0.4, B)
    tau = rng.uniform(0.5, 1.0, B)
    r[1], r[4] = tau[1], tau[4]
    r[2], tau[2] = 0.0, 1.0
    r[5], tau[5] = 0.0, 1.0
    return net, obs, interpolate(act, eps, tau[:, None]), r, tau, eps - act


def test_taped_jvp_pass_target_equals_untaped_target():
    net, obs, z, r, tau, v = _jvp_case()
    with Graph():
        u, got = target_velocity(net, z, r, tau, obs, v, h=net.encode(Tensor(obs)))
    assert np.array_equal(got, target_velocity(net, z, r, tau, obs, v))
    np.testing.assert_array_equal(got[[1, 4]], v[[1, 4]])


def test_untaped_target_under_a_graph_records_nothing():
    net, obs, z, r, tau, v = _jvp_case()
    with Graph() as g:
        got = target_velocity(net, z, r, tau, obs, v)
    assert g.nodes == []
    assert isinstance(got, np.ndarray) and got.shape == v.shape


def test_taped_jvp_pass_prediction_equals_traced_forward():
    net, obs, z, r, tau, v = _jvp_case()
    with Graph() as g_dual:
        h = net.encode(Tensor(obs))
        u, _ = target_velocity(net, z, r, tau, obs, v, h=h)
    with Graph() as g_plain:
        h2 = net.encode(Tensor(obs))
        u2 = net.velocity(Tensor(z), Tensor(r[:, None]), Tensor(tau[:, None]), h=h2)
    assert isinstance(u, Tensor) and u.requires_grad
    assert np.array_equal(u.data, u2.data)
    # the same nodes, with the same values, and the same gradients
    assert [n.op for n in g_dual.nodes] == [n.op for n in g_plain.nodes]
    for a, b in zip(g_dual.nodes, g_plain.nodes):
        assert np.array_equal(a.out.data, b.out.data)
    seed = np.random.default_rng(0).normal(size=u.data.shape)
    grads_dual, grads_plain = g_dual.backward(u, seed), g_plain.backward(u2, seed)
    assert set(grads_dual) == set(grads_plain) == set(net.parameters())
    for p in net.parameters():
        assert np.array_equal(grads_dual[p], grads_plain[p])


def test_taped_jvp_pass_records_nothing_on_the_tangent(monkeypatch):
    from dmpo.autodiff import DualTensor

    net, obs, z, r, tau, v = _jvp_case()
    seen = []
    real_init = DualTensor.__init__

    def spy(self, primal, tangent):
        real_init(self, primal, tangent)
        seen.append(self.tangent)

    monkeypatch.setattr(DualTensor, "__init__", spy)
    with Graph() as g:
        target_velocity(net, z, r, tau, obs, v, h=net.encode(Tensor(obs)))
    monkeypatch.undo()
    assert seen  # the pass did run on duals
    recorded = [n.out for n in g.nodes] + [p for n in g.nodes for p in n.parents]
    for t in recorded:
        assert not any(t.data is tan or np.shares_memory(t.data, tan) for tan in seen)
    # every node is a forward op over Tensors; none carries a dual
    assert all(isinstance(t, Tensor) for t in recorded)


def test_pretrain_step_encodes_once_and_runs_velocity_once(monkeypatch):
    from dmpo.nets import VelocityNet

    calls = {"encode": 0, "velocity": 0}
    for name in calls:
        real = getattr(VelocityNet, name)

        def counted(self, *a, _real=real, _name=name, **k):
            calls[_name] += 1
            return _real(self, *a, **k)

        monkeypatch.setattr(VelocityNet, name, counted)
    ds = _tiny_dataset(np.random.default_rng(63))
    _, metrics = pretrain(ds, Stage1Config(epochs=1, batch_size=8, seed=0))
    assert metrics[-1]["step"] == 1
    assert calls == {"encode": 1, "velocity": 1}


def test_hinge_pretrain_step_tapes_only_the_hinge(monkeypatch):
    # the encoder, the JVP pass, the mf distance and the total run on plain
    # arrays; the dispersive term alone is taped, one hinge node
    sizes = []
    backward = Graph.backward

    def counted(self, output, seed=None):
        sizes.append([n.op for n in self.nodes])
        return backward(self, output, seed)

    monkeypatch.setattr(Graph, "backward", counted)
    ds = _tiny_dataset(np.random.default_rng(64))
    pretrain(ds, Stage1Config(epochs=2, batch_size=8, seed=0, disp_kind="hinge"))
    assert len(sizes) == 2
    assert sizes == [["hinge"]] * 2


def test_pretrain_nan_parameter_names_epoch_step_and_op(monkeypatch):
    import dmpo.meanflow as mfmod

    class PoisonAfterFirstStep(mfmod.Adam):
        def step(self):
            super().step()
            self.params[4].data[0, 0] = np.nan  # trunk0_w: the first layer of the dual pass

    monkeypatch.setattr(mfmod, "Adam", PoisonAfterFirstStep)
    ds = _tiny_dataset(np.random.default_rng(65))
    with pytest.raises(RuntimeError, match=r"pre-training diverged at epoch 1 step 1: .*op 'dense'"):
        pretrain(ds, Stage1Config(epochs=3, batch_size=8, seed=0))


@pytest.mark.parametrize("name, bad", [("enc0_w", np.nan), ("enc1_b", np.inf), ("trunk0_b", -np.inf)])
def test_pretrain_non_finite_parameter_names_epoch_step_and_op(monkeypatch, name, bad):
    # an infinite bias is caught on the pre-activation: tanh(+-inf) is finite
    import dmpo.meanflow as mfmod
    from dmpo.nets import VelocityNet

    index = VelocityNet.param_names.index(name)

    class PoisonAfterFirstStep(mfmod.Adam):
        # two steps per epoch, so the poisoned net meets the second step
        # before the end-of-epoch rank probe
        def step(self):
            super().step()
            if self.t == 1:
                self.params[index].data.flat[0] = bad

    monkeypatch.setattr(mfmod, "Adam", PoisonAfterFirstStep)
    ds = _tiny_dataset(np.random.default_rng(65))
    with pytest.raises(RuntimeError, match=r"pre-training diverged at epoch 0 step 1: .*op 'dense'"):
        pretrain(ds, Stage1Config(epochs=3, batch_size=4, seed=0))


def test_pretrain_rank_probe_names_epoch_step_and_op(monkeypatch):
    # one step per epoch, so a parameter the step leaves non-finite meets the
    # epoch-end rank probe before any later step; it is named as a
    # divergence, not as the eigensolver's LinAlgError
    import dmpo.meanflow as mfmod

    class PoisonAfterFirstStep(mfmod.Adam):
        def step(self):
            super().step()
            self.params[0].data[0, 0] = np.nan  # enc0_w

    monkeypatch.setattr(mfmod, "Adam", PoisonAfterFirstStep)
    ds = _tiny_dataset(np.random.default_rng(65))
    match = r"pre-training diverged at epoch 0 step 0: .*op 'dense'.*rank probe"
    with pytest.raises(RuntimeError, match=match):
        pretrain(ds, Stage1Config(epochs=3, batch_size=8, seed=0))


@pytest.mark.parametrize("column, bad", [("obs", np.nan), ("actions", np.inf), ("actions", -np.inf)])
def test_pretrain_names_the_first_non_finite_dataset_row_and_column(monkeypatch, column, bad):
    # a data fault is reported before any step, not as a training divergence
    import dmpo.meanflow as mfmod

    ds = _tiny_dataset(np.random.default_rng(67))
    getattr(ds, column)[5, 1] = bad
    getattr(ds, column)[7, 0] = np.nan
    monkeypatch.setattr(mfmod, "stage1_step", None)
    with pytest.raises(ValueError, match=rf"^dataset row 5 has a non-finite value in column '{column}'$"):
        pretrain(ds, Stage1Config(epochs=1, batch_size=8, seed=0))


def test_pretrain_metrics_csv_streams_the_one_pass_file(tmp_path):
    from dmpo.meanflow import METRIC_COLUMNS

    path = tmp_path / "stage1.csv"
    _, rows = pretrain(_tiny_dataset(np.random.default_rng(68)), Stage1Config(epochs=4, batch_size=4, seed=0),
                       metrics_path=path)
    assert len(rows) == 4
    assert path.read_bytes() == one_pass_metrics_csv(tmp_path / "ref.csv", METRIC_COLUMNS, rows)


def test_diverged_pretrain_keeps_the_rows_of_its_finished_epochs(monkeypatch, tmp_path):
    # two steps per epoch; the first step of epoch 3 fails
    import dmpo.meanflow as mfmod

    calls = []
    step = mfmod.stage1_step

    def failing(*args):
        calls.append(None)
        if len(calls) == 7:
            raise FloatingPointError("non-finite values produced by op 'dense'")
        return step(*args)

    monkeypatch.setattr(mfmod, "stage1_step", failing)
    path = tmp_path / "stage1.csv"
    with pytest.raises(RuntimeError, match=r"pre-training diverged at epoch 3 step 6: .*op 'dense'"):
        pretrain(_tiny_dataset(np.random.default_rng(69)), Stage1Config(epochs=5, batch_size=4, seed=0),
                 metrics_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(mfmod.METRIC_COLUMNS)
    assert [line.split(",")[:2] for line in lines[1:]] == [["0", "2"], ["1", "4"], ["2", "6"]]


@pytest.mark.parametrize("name, bad", [("enc0_w", np.inf), ("trunk1_b", -np.inf), ("out_w", np.nan)])
def test_pretrain_non_finite_gradient_names_op_backward_and_the_parameter(monkeypatch, name, bad):
    # a finite loss with a non-finite gradient entry: the run stops at that
    # step, before Adam writes it into the parameters, rather than one step
    # later at a forward op
    import dmpo.meanflow as mfmod

    calls = []
    step = mfmod.stage1_step

    def poisoned(net, grads, batch, config):
        out = step(net, grads, batch, config)
        calls.append(None)
        if len(calls) == 3:
            grads[net.params[name]].flat[-1] = bad
        return out

    monkeypatch.setattr(mfmod, "stage1_step", poisoned)
    match = rf"^pre-training diverged at epoch 1 step 2: non-finite values produced by op 'backward' in the gradient of {name}$"
    with pytest.raises(RuntimeError, match=match):
        pretrain(_tiny_dataset(np.random.default_rng(70)), Stage1Config(epochs=3, batch_size=4, seed=0))
    assert len(calls) == 3


def test_pretrain_goes_on_when_finite_gradients_overflow_their_sum_of_squares(monkeypatch):
    # two entries of 1e154: each square is finite, their sum is not, so the
    # step's vdot reads inf; the search finds no bad entry and Adam takes
    # the step, as the per-op finite checks would
    import dmpo.meanflow as mfmod

    sums = []
    step = mfmod.stage1_step

    def overflowing(net, grads, batch, config):
        out = step(net, grads, batch, config)
        if not sums:
            g = grads[net.params["out_w"]]
            g.flat[:2] = 1e154
            sums.append(np.vdot(g, g))
        return out

    monkeypatch.setattr(mfmod, "stage1_step", overflowing)
    net, rows = pretrain(_tiny_dataset(np.random.default_rng(72)), Stage1Config(epochs=3, batch_size=4, seed=0))
    assert sums == [math.inf]
    assert [row["step"] for row in rows] == [2, 4, 6]
    assert all(np.isfinite(p.data).all() for p in net.parameters())


@pytest.mark.parametrize("key", ["d_h", "enc_width", "trunk_width"])
@pytest.mark.parametrize("value", [0, -3])
def test_stage1_config_rejects_a_width_below_one(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be >= 1$"):
        Stage1Config(**{key: value})
    assert getattr(Stage1Config(**{key: 1}), key) == 1


@pytest.mark.parametrize(
    "kind, B, alpha",
    [(kind, B, 0.1) for kind in DISP_KINDS for B in (64, 57, 1)] + [("hinge", 64, 0.0), ("nce-l2", 57, 0.0)],
)
def test_stage1_step_equals_the_taped_step_bit_for_bit(kind, B, alpha):
    cfg = Stage1Config(disp_kind=kind, alpha_disp=alpha)
    net = init_velocity_net(71, 4, 2)
    rng = np.random.default_rng(B)
    obs, act = rng.normal(size=(B, 4)), 0.3 * rng.normal(size=(B, 2))
    r, tau = sample_time_pairs(rng, B, cfg.rho_inst, cfg.full_interval_frac)
    batch = Stage1Batch(obs, act, rng.standard_normal((B, 2)), r, tau)
    opt = Adam(net.parameters())
    opt._g.fill(np.nan)  # every entry must be written
    losses = stage1_step(net, opt.grads, batch, cfg)
    want_losses, want_grad = _taped_step(net, batch, cfg)
    assert all(type(x) is float for x in losses)
    assert losses == want_losses
    assert np.array_equal(opt._g, want_grad)
    if alpha == 0.0 or kind == "none" or B == 1:
        assert losses[1] == 0.0 and losses[2] == losses[0]


# ---------------------------------------------------------------------------
# mf loss


class _ConstVelocity:
    """Returns a fixed output array regardless of inputs."""

    def __init__(self, out):
        self.out = out

    def encode(self, obs):
        data = obs.data if isinstance(obs, Tensor) else obs
        return Tensor(np.zeros((data.shape[0], 1)))

    def velocity(self, z, r, tau, obs=None, h=None):
        if isinstance(z, Tensor):
            return Tensor(self.out.copy())
        from dmpo.autodiff import DualTensor

        return DualTensor(self.out.copy(), np.zeros_like(self.out))


def _batch_from(rng, B=6, d_obs=3, d_a=2, equal_times=False):
    obs = rng.normal(size=(B, d_obs))
    act = rng.normal(size=(B, d_a))
    eps = rng.standard_normal((B, d_a))
    tau = rng.uniform(0.3, 0.9, B)
    r = tau.copy() if equal_times else rng.uniform(0.0, 0.3, B)
    return Stage1Batch(obs, act, eps, r, tau)


def test_mf_loss_zero_for_perfect_net():
    rng = np.random.default_rng(21)
    batch = _batch_from(rng, equal_times=True)
    net = _ConstVelocity(batch.noise - batch.actions)
    assert mf_loss(net, batch).item() == pytest.approx(0.0, abs=1e-24)


def test_mf_loss_quadratic_in_error():
    rng = np.random.default_rng(23)
    batch = _batch_from(rng, equal_times=True)
    e = np.zeros_like(batch.actions)
    e[:, 0] = 1.0  # uniform error [1, 0]
    net = _ConstVelocity(batch.noise - batch.actions + e)
    assert mf_loss(net, batch).item() == pytest.approx(1.0, abs=1e-12)
    net2 = _ConstVelocity(batch.noise - batch.actions + 2 * e)
    assert mf_loss(net2, batch).item() == pytest.approx(4.0, abs=1e-12)


def test_mf_loss_gradient_vs_fd_with_frozen_target():
    net = init_velocity_net(31, 3, 2, d_h=4, enc_width=4, trunk_width=4)
    rng = np.random.default_rng(31)
    batch = _batch_from(rng, B=4)
    v = batch.noise - batch.actions
    z = interpolate(batch.actions, batch.noise, batch.tau[:, None])
    u_tgt = target_velocity(net, z, batch.r, batch.tau, batch.obs, v)

    with Graph() as g:
        loss = mf_loss(net, batch, u_tgt=u_tgt)
    grads = g.backward(loss)

    for name in ("trunk0_w", "out_b", "enc0_w"):
        p = net.params[name]
        orig = p.data.copy()

        def f(arr):
            p.data[...] = arr
            val = mf_loss(net, batch, u_tgt=u_tgt).item()
            p.data[...] = orig
            return val

        assert rel_err(grads[p], fd_grad(f, orig.copy())) < 1e-3


def test_mf_loss_gradient_ignores_target_path():
    # autodiff gradient must equal the frozen-target FD gradient (stop-grad semantics)
    net = init_velocity_net(33, 3, 2, d_h=4, enc_width=4, trunk_width=4)
    rng = np.random.default_rng(33)
    batch = _batch_from(rng, B=4)

    with Graph() as g:
        loss = mf_loss(net, batch)  # target recomputed internally, outside the tape
    grads = g.backward(loss)

    v = batch.noise - batch.actions
    z = interpolate(batch.actions, batch.noise, batch.tau[:, None])
    u_tgt_frozen = target_velocity(net, z, batch.r, batch.tau, batch.obs, v)
    p = net.params["out_w"]
    orig = p.data.copy()

    def f(arr):
        p.data[...] = arr
        val = mf_loss(net, batch, u_tgt=u_tgt_frozen).item()
        p.data[...] = orig
        return val

    assert rel_err(grads[p], fd_grad(f, orig.copy())) < 1e-3


def _mf_loss_op_chain(net, batch, h):
    # the reference: the one-pass prediction and target, and the distance as
    # add/square/sum/mean ops
    z = interpolate(batch.actions, batch.noise, batch.tau[:, None])
    v = batch.noise - batch.actions
    u, u_tgt = target_velocity(net, z, batch.r, batch.tau, batch.obs, v, h=h)
    return ad.square(u - Tensor(u_tgt)).sum(axis=1).mean()


def test_mf_loss_distance_is_one_node_bit_identical_to_op_chain():
    net = init_velocity_net(34, 3, 2, d_h=4, enc_width=4, trunk_width=4)
    batch = _batch_from(np.random.default_rng(34), B=5)
    seed = np.array(0.6)
    runs = []
    for fn in (lambda h: mf_loss(net, batch, h=h), lambda h: _mf_loss_op_chain(net, batch, h)):
        with Graph() as g:
            loss = fn(net.encode(Tensor(batch.obs)))
        runs.append((loss.data, g.backward(loss, seed=seed), [n.op for n in g.nodes]))
    (hv, hg, hops), (cv, cg, _) = runs
    layer = ["matmul", "add", "tanh"]
    assert hops == layer * 2 + ["concat"] + layer * 2 + ["matmul", "add", "mf_dist"]
    assert np.array_equal(hv, cv)
    assert list(hg) == list(cg) and all(np.array_equal(hg[p], cg[p]) for p in hg)


def test_pretrain_step_total_bit_identical_to_op_chain(monkeypatch):
    # the step's weighted total against ``mf + alpha * disp`` as mul/add ops:
    # the same parameters after two epochs
    import dmpo.meanflow as mfmod

    ds = _tiny_dataset(np.random.default_rng(66))
    cfg = Stage1Config(epochs=2, batch_size=8, seed=0, alpha_disp=0.3)
    fused, _ = pretrain(ds, cfg)
    monkeypatch.setattr(mfmod, "weighted_sum", lambda ts, ws, op, taped: (ts[0] + ws[1] * ts[1], None))
    chained, _ = pretrain(ds, cfg)
    assert param_checksum(fused) == param_checksum(chained)


# ---------------------------------------------------------------------------
# pretrain loop
# ---------------------------------------------------------------------------
# pretrain loop


def _tiny_dataset(rng, n=8):
    return Dataset(rng.normal(size=(n, 3)), 0.2 * rng.normal(size=(n, 2)),
                   np.zeros(n, dtype=int), np.arange(n))


def test_pretrain_alpha_zero_total_equals_mf():
    ds = _tiny_dataset(np.random.default_rng(41))
    cfg = Stage1Config(epochs=3, batch_size=4, alpha_disp=0.0, seed=0)
    _, metrics = pretrain(ds, cfg)
    for row in metrics:
        assert row["total_loss"] == pytest.approx(row["mf_loss"], abs=1e-15)
        assert row["disp_loss"] == 0.0


def test_pretrain_deterministic_checkpoints():
    ds = _tiny_dataset(np.random.default_rng(43))
    cfg = Stage1Config(epochs=3, batch_size=4, seed=7)
    net_a, _ = pretrain(ds, cfg)
    net_b, _ = pretrain(ds, cfg)
    assert param_checksum(net_a) == param_checksum(net_b)


def test_pretrain_divergence_aborts_with_diagnostic():
    # finite-but-extreme actions overflow the squared residual -> abort path
    rng = np.random.default_rng(47)
    ds = Dataset(rng.normal(size=(8, 3)), np.full((8, 2), 1e200),
                 np.zeros(8, dtype=int), np.arange(8))
    cfg = Stage1Config(epochs=2, batch_size=8, seed=0, alpha_disp=0.0)
    with pytest.raises(RuntimeError, match="diverged"):
        with np.errstate(over="ignore"):
            pretrain(ds, cfg)


def test_pretrain_metrics_columns():
    from dmpo.meanflow import METRIC_COLUMNS

    ds = _tiny_dataset(np.random.default_rng(53))
    _, metrics = pretrain(ds, Stage1Config(epochs=2, batch_size=4, seed=0))
    assert set(metrics[0]) == set(METRIC_COLUMNS)


@pytest.mark.parametrize("n, batch_size, steps", [(8, 3, 3), (2, 4, 1)])
def test_pretrain_loss_columns_are_the_epoch_means_of_each_step(monkeypatch, n, batch_size, steps):
    # mf_loss, disp_loss and total_loss: what each of the epoch's steps
    # returned, summed in step order over the step count; 8 rows in batches
    # of 3 end in a 2-row step, and 2 rows tile into one 4-row step
    import dmpo.meanflow as mfmod

    returned = []
    step = mfmod.stage1_step

    def recording(*args):
        returned.append(step(*args))
        return returned[-1]

    monkeypatch.setattr(mfmod, "stage1_step", recording)
    ds = _tiny_dataset(np.random.default_rng(74), n=n)
    _, rows = pretrain(ds, Stage1Config(epochs=3, batch_size=batch_size, seed=0))
    assert [row["step"] for row in rows] == [steps, 2 * steps, 3 * steps] and len(returned) == 3 * steps
    for e, row in enumerate(rows):
        for i, col in enumerate(("mf_loss", "disp_loss", "total_loss")):
            acc = 0.0
            for losses in returned[e * steps : (e + 1) * steps]:
                acc += losses[i]
            assert row[col] == acc / steps, col
        assert row["disp_loss"] != 0.0 and row["total_loss"] != row["mf_loss"]


@pytest.mark.parametrize("field", ["lr", "alpha_disp", "hinge_margin", "disp_temperature"])
def test_stage1_config_rejects_nan(field):
    # each guard tests what must hold; a `<= 0` test let NaN through
    with pytest.raises(ValueError, match=field):
        Stage1Config(**{field: float("nan")})


def test_stage1_config_validation():
    with pytest.raises(ValueError):
        Stage1Config(alpha_disp=-0.1)
    with pytest.raises(ValueError):
        Stage1Config(disp_kind="bogus")
    with pytest.raises(ValueError):
        Stage1Config(rho_inst=1.5)
    with pytest.raises(ValueError):
        Stage1Config(disp_temperature=0.0)
