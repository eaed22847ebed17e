"""Property tests over drawn shapes: the pre-train step and the fine-tune
minibatch on plain arrays against their taped references and against
central differences, recomputed chain log-probs against the sampled ones,
``envs._fma`` against numpy's 2-element dot, checkpoint and dataset round
trips of drawn float64 bit patterns, and drawn byte mutations of a saved
checkpoint, dataset and config file. Each runs a fixed, derandomized set of
examples, so a failure reproduces."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dmpo.ppo as ppo_mod
from dmpo.autodiff import Graph, Tensor
from dmpo.cli import main
from dmpo.dispersive import DISP_KINDS, dispersive_loss
from dmpo.envs import Dataset, _fma, gen_demos
from dmpo.io import CheckpointError, load_checkpoint, load_dataset, save_checkpoint, save_dataset
from dmpo.meanflow import (
    Stage1Batch, Stage1Config, interpolate, mf_loss, sample_time_pairs, stage1_step, target_velocity,
)
from dmpo.nets import Adam, ValueNet, init_value_net, init_velocity_net, param_checksum
from dmpo.ppo import MiniBatch, Stage2Config, Stage2Nets, stage2_loss
from dmpo.sampler import chain_logprob_traced, sample_chain_batch

from helpers import _taped_step, fd_grad, rel_err

FIXED = settings(derandomize=True, database=None, deadline=None)


@settings(FIXED, max_examples=200)
@given(d_obs=st.integers(1, 6), d_a=st.integers(1, 4), d_h=st.integers(1, 70), enc_width=st.integers(1, 70),
       trunk_width=st.integers(1, 70), B=st.integers(1, 70), kind=st.sampled_from(DISP_KINDS),
       alpha=st.sampled_from([0.0, 0.1, 1.0]), seed=st.integers(0, 2**16))
def test_stage1_step_equals_the_taped_step(d_obs, d_a, d_h, enc_width, trunk_width, B, kind, alpha, seed):
    cfg = Stage1Config(disp_kind=kind, alpha_disp=alpha, d_h=d_h, enc_width=enc_width, trunk_width=trunk_width)
    net = init_velocity_net(seed, d_obs, d_a, d_h=d_h, enc_width=enc_width, trunk_width=trunk_width)
    rng = np.random.default_rng(seed)
    obs, act = rng.normal(size=(B, d_obs)), 0.3 * rng.normal(size=(B, d_a))
    r, tau = sample_time_pairs(rng, B, cfg.rho_inst, cfg.full_interval_frac)
    batch = Stage1Batch(obs, act, rng.standard_normal((B, d_a)), r, tau)
    opt = Adam(net.parameters())
    opt._g.fill(np.nan)  # every entry must be written
    losses = stage1_step(net, opt.grads, batch, cfg)
    want_losses, want_grad = _taped_step(net, batch, cfg)
    assert losses == want_losses
    assert np.array_equal(opt._g, want_grad)


def _sampled(net, M, K, sigma, seed):
    # M chains sampled in one call, each on its own generator
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(M, net.d_obs))
    chains = sample_chain_batch(net, obs, K, sigma, [np.random.default_rng([seed, i]) for i in range(M)])
    return obs, chains, rng


@settings(FIXED, max_examples=100)
@given(K=st.integers(1, 6), M=st.integers(1, 70), learnable=st.booleans(),
       lam_bc=st.sampled_from([0.0, 0.1, 1.0]), seed=st.integers(0, 2**16))
def test_stage2_step_equals_the_taped_loss_and_one_backward(K, M, learnable, lam_bc, seed):
    net = init_velocity_net(seed, 4, 2)
    obs, chains, rng = _sampled(net, M, K, 0.05, seed)
    mb = MiniBatch(obs=obs, states=chains.states, old_logprobs=chains.total_logprobs,
                   advantages=rng.normal(size=M), returns=rng.normal(size=M),
                   bc_noise=rng.standard_normal((M, net.d_a)))
    mb.bc_target = ppo_mod.bc_target(net, mb.bc_noise, net.encode_arrays(obs))
    # every parameter moved off theta_old, so no head sits at a special point
    policy, value_net = net.clone(), init_value_net(seed, 4)
    for p in policy.parameters() + value_net.parameters():
        p.data[...] += 1e-3 * rng.standard_normal(p.data.shape)
    log_sigma = None
    if learnable:
        log_sigma = Tensor(np.log([0.05, 0.04]) + 0.1 * rng.standard_normal(2), requires_grad=True)
    nets = Stage2Nets(policy=policy, value=value_net, frozen=net, log_sigma=log_sigma)
    cfg = Stage2Config(K=K, sigma=0.05, sigma_learnable=learnable, lam_bc_init=lam_bc, lam_bc_final=lam_bc)

    with Graph() as g:
        total, parts = stage2_loss(mb, nets, cfg, n=0)
    taped = g.backward(total)
    opt = ppo_mod.stage2_optimizer(nets, cfg.lr)
    assert list(taped) == opt.params
    opt._g.fill(np.nan)
    got_total, got = stage2_loss(mb, nets, cfg, 0, opt.grads)
    assert got_total == total.item()
    assert all(got[k] == parts[k] for k in ("pg", "v", "ent", "bc", "lambda_bc"))
    assert np.array_equal(got["rho"], parts["rho"])
    assert np.array_equal(opt._g, np.concatenate([taped[p].ravel() for p in opt.params]))


def _fd_params(params, f):
    # central differences of the scalar f() in every entry of the parameter
    # Tensors, in ``params`` order, flat as Adam's gradient buffer
    out = []
    for p in params:
        orig = p.data.copy()

        def at(arr, p=p):
            p.data[...] = arr
            return f()

        out.append(fd_grad(at, orig.copy()).ravel())
        p.data[...] = orig
    return np.concatenate(out)


# c02's tolerance; the dims are tiny so that every parameter is differenced
FD_TOL, FD_FLOOR = 1e-3, 1e-6


@settings(FIXED, max_examples=25)
@given(d_obs=st.integers(1, 4), d_a=st.integers(1, 3), d_h=st.integers(1, 6), enc_width=st.integers(1, 6),
       trunk_width=st.integers(1, 6), B=st.integers(2, 8), kind=st.sampled_from(["cov", "nce-l2", "none"]),
       alpha=st.sampled_from([0.0, 0.1, 1.0]), seed=st.integers(0, 2**16))
def test_stage1_step_gradient_matches_central_differences(d_obs, d_a, d_h, enc_width, trunk_width, B, kind, alpha,
                                                          seed):
    # the oracle on the trained path itself: central differences of the
    # MeanFlow loss with its target held at the unperturbed value (the
    # stop-gradient, as c02 holds it), plus alpha times a dispersive term
    # with no kink (hinge and nce-cos have one)
    cfg = Stage1Config(disp_kind=kind, alpha_disp=alpha, d_h=d_h, enc_width=enc_width, trunk_width=trunk_width)
    net = init_velocity_net(seed, d_obs, d_a, d_h=d_h, enc_width=enc_width, trunk_width=trunk_width)
    rng = np.random.default_rng(seed)
    obs, act = rng.normal(size=(B, d_obs)), 0.3 * rng.normal(size=(B, d_a))
    r, tau = sample_time_pairs(rng, B, cfg.rho_inst, cfg.full_interval_frac)
    batch = Stage1Batch(obs, act, rng.standard_normal((B, d_a)), r, tau)
    opt = Adam(net.parameters())
    opt._g.fill(np.nan)
    stage1_step(net, opt.grads, batch, cfg)
    z = interpolate(act, batch.noise, tau[:, None])
    u_tgt = target_velocity(net, z, r, tau, obs, batch.noise - act)

    def total():
        mf = mf_loss(net, batch, u_tgt=u_tgt).item()
        return mf + alpha * dispersive_loss(net.encode(Tensor(obs)), cfg).item()

    assert rel_err(opt._g, _fd_params(opt.params, total), floor=FD_FLOOR) < FD_TOL


@settings(FIXED, max_examples=25)
@given(d_obs=st.integers(1, 4), d_a=st.integers(1, 3), d_h=st.integers(1, 6), enc_width=st.integers(1, 6),
       trunk_width=st.integers(1, 6), M=st.integers(2, 8), K=st.integers(1, 3), learnable=st.booleans(),
       lam_bc=st.sampled_from([0.0, 0.1, 1.0]), seed=st.integers(0, 2**16))
def test_stage2_step_gradient_matches_central_differences(d_obs, d_a, d_h, enc_width, trunk_width, M, K, learnable,
                                                          lam_bc, seed):
    # the oracle on the trained path itself: central differences of the
    # total that ``stage2_step`` returns, in every parameter it trains
    net = init_velocity_net(seed, d_obs, d_a, d_h=d_h, enc_width=enc_width, trunk_width=trunk_width)
    obs, chains, rng = _sampled(net, M, K, 0.05, seed)
    mb = MiniBatch(obs=obs, states=chains.states, old_logprobs=chains.total_logprobs,
                   advantages=rng.normal(size=M), returns=rng.normal(size=M),
                   bc_noise=rng.standard_normal((M, d_a)))
    mb.bc_target = ppo_mod.bc_target(net, mb.bc_noise, net.encode_arrays(obs))
    policy, value_net = net.clone(), init_value_net(seed, d_obs, width=trunk_width)
    for p in policy.parameters() + value_net.parameters():
        p.data[...] += 1e-3 * rng.standard_normal(p.data.shape)
    log_sigma = None
    if learnable:
        log_sigma = Tensor(math.log(0.05) + 0.1 * rng.standard_normal(d_a), requires_grad=True)
    nets = Stage2Nets(policy=policy, value=value_net, frozen=net, log_sigma=log_sigma)
    cfg = Stage2Config(K=K, sigma=0.05, sigma_learnable=learnable, lam_bc_init=lam_bc, lam_bc_final=lam_bc)
    opt = ppo_mod.stage2_optimizer(nets, cfg.lr)
    opt._g.fill(np.nan)
    ppo_mod.stage2_step(mb, nets, cfg, 0, opt.grads)
    grad = opt._g.copy()

    def total():
        return ppo_mod.stage2_step(mb, nets, cfg, 0, opt.grads)[0]

    assert rel_err(grad, _fd_params(opt.params, total), floor=FD_FLOOR) < FD_TOL


@settings(FIXED, max_examples=100)
@given(K=st.integers(1, 6), blocks=st.integers(1, 16), per_dim=st.booleans(), seed=st.integers(0, 2**16))
def test_chain_logprob_recomputes_sampled_chains_exactly(K, blocks, per_dim, seed):
    # rows in full blocks of 4 round alike whatever the matmul's row count,
    # so at M % 4 == 0 both the per-step M-row passes and the training
    # step's one stacked pass give back the sampled totals bit for bit
    M = 4 * blocks
    net = init_velocity_net(seed, 4, 2)
    sigma = np.array([0.05, 0.02]) if per_dim else 0.05
    obs, chains, rng = _sampled(net, M, K, sigma, seed)
    sigma_t = Tensor(np.broadcast_to(sigma, (2,)).copy())
    per_step = chain_logprob_traced(net, chains.states, obs, sigma_t, K)
    assert np.array_equal(per_step.data, chains.total_logprobs)

    mb = MiniBatch(obs=obs, states=chains.states, old_logprobs=chains.total_logprobs,
                   advantages=np.zeros(M), returns=np.zeros(M), bc_noise=rng.standard_normal((M, 2)))
    h, _ = net.encode(obs, keep=True)
    z, r, tau = ppo_mod._trunk_rows(mb)
    u, _ = net.velocity((z, None), r, tau, h=np.concatenate([h] * (K + 1)))
    stacked, _ = chain_logprob_traced(net, chains.states, obs, sigma_t, K, u=u[: K * M])
    assert np.array_equal(stacked, chains.total_logprobs)


@settings(FIXED, max_examples=2000)
@given(d0=st.floats(allow_nan=False, allow_infinity=False), d1=st.floats(allow_nan=False, allow_infinity=False))
# TwoProduct overflowed to NaN where the dot is inf, and its error term
# underflowed where the product is subnormal (one ulp off)
@example(d0=1.11, d1=5e199)
@example(d0=1.3318975699894175e-254, d1=9.90444787926477e-155)
def test_fma_rounds_as_numpys_two_element_dot_on_all_finite_doubles(d0, d1):
    # subnormals and values near overflow are drawn too
    with np.errstate(all="ignore"):
        want = float(np.array([d0, d1]) @ np.array([d0, d1]))
    got = _fma(d1, d1, d0 * d0)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


# float64 bit patterns: any finite or infinite double (-0.0 and subnormals
# included), and NaNs of either sign with any payload, quiet or signalling
_EXP, _FRAC, _QUIET_NAN = 0x7FF << 52, (1 << 52) - 1, 0x7FF8 << 48
_NAN_BITS = st.builds(lambda sign, payload: sign << 63 | _EXP | payload, st.integers(0, 1), st.integers(1, _FRAC))
_BITS = st.one_of(
    st.floats(allow_nan=False, width=64).map(lambda x: int(np.float64(x).view(np.uint64))),
    st.sampled_from([0, 1 << 63, 1, _FRAC, 1 << 63 | 1, _EXP, 1 << 63 | _EXP, _QUIET_NAN, 1 << 63 | _QUIET_NAN,
                     _EXP | 1]),
    _NAN_BITS,
)


def _doubles(bits, shape):
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape)


def _bit_array(n):
    return st.lists(_BITS, min_size=n, max_size=n)


@settings(FIXED, max_examples=100)
@given(d_obs=st.integers(1, 3), width=st.integers(1, 3), data=st.data())
def test_checkpoint_round_trip_keeps_every_bit(d_obs, width, data):
    # parameters and a state array come back byte for byte, every NaN's
    # sign and payload included: the payloads are base64 binary64
    shapes = ValueNet.param_shapes({"d_obs": d_obs, "width": width})
    arrays = {n: _doubles(data.draw(_bit_array(math.prod(s))), s) for n, s in shapes.items()}
    state = _doubles(data.draw(_bit_array(4)), (2, 2))
    net = ValueNet.from_arrays(arrays, {"d_obs": d_obs, "width": width})
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ck.json"
        save_checkpoint(path, {"value": net}, state={"m": state})
        nets, got_state = load_checkpoint(path)
    for n, a in arrays.items():
        assert nets["value"].params[n].data.tobytes() == a.tobytes()
    assert got_state["m"].tobytes() == state.tobytes()


@settings(FIXED, max_examples=100)
@given(N=st.integers(1, 4), d_obs=st.integers(1, 3), d_a=st.integers(1, 2), data=st.data())
def test_dataset_round_trip_keeps_every_bit_but_a_nans_sign_and_payload(N, d_obs, d_a, data):
    # JSON's NaN token carries neither a sign nor a payload, so every NaN
    # reads back as the one quiet NaN; every other double (-0.0, subnormals
    # and +-inf included) and every int64 comes back byte for byte
    obs_bits = data.draw(_bit_array(N * d_obs))
    act_bits = data.draw(_bit_array(N * d_a))
    ints = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=N, max_size=N)
    ds = Dataset(_doubles(obs_bits, (N, d_obs)), _doubles(act_bits, (N, d_a)), data.draw(ints), data.draw(ints))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "demos.jsonl"
        save_dataset(path, ds)
        got = load_dataset(path)
    for col, sent, bits in ((got.obs, ds.obs, obs_bits), (got.actions, ds.actions, act_bits)):
        want = [_QUIET_NAN if b & _EXP == _EXP and b & _FRAC else b for b in bits]
        assert col.shape == sent.shape and col.view(np.uint64).ravel().tolist() == want
    assert np.array_equal(got.episode_ids, ds.episode_ids) and np.array_equal(got.ts, ds.ts)


# ---------------------------------------------------------------------------
# mutated input files: every drawn byte flip, deletion, insertion or
# truncation of a saved checkpoint, dataset or config file ends in a named
# error or in a load that is allowed


def _mutated(data, raw: bytes) -> bytes:
    """``raw`` with one drawn mutation: a byte flipped (xor with a nonzero
    byte), deleted or inserted at a drawn place, or the tail cut off."""
    kind = data.draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
    if kind == "insert":
        i = data.draw(st.integers(0, len(raw)))
        return raw[:i] + bytes([data.draw(st.integers(0, 255))]) + raw[i:]
    i = data.draw(st.integers(0, len(raw) - 1))
    if kind == "flip":
        return raw[:i] + bytes([raw[i] ^ data.draw(st.integers(1, 255))]) + raw[i + 1 :]
    return raw[:i] + raw[i + 1 :] if kind == "delete" else raw[:i]


def _saved(save) -> tuple[bytes, object]:
    """The bytes ``save(path)`` writes, and what it returns."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "saved"
        made = save(path)
        return path.read_bytes(), made


def _write_mutated(d, name: str, data, raw: bytes) -> Path:
    path = Path(d) / name
    path.write_bytes(_mutated(data, raw))
    return path


def _small_checkpoint(path):
    nets = {"policy": init_velocity_net(0, 2, 2, d_h=2, enc_width=2, trunk_width=2), "value": init_value_net(0, 2, 2)}
    state = {"stage": "pretrain", "config": {"lr": 0.001, "epochs": 3, "disp_kind": "hinge"}, "m": np.arange(3.0)}
    save_checkpoint(path, nets, state=state)
    return load_checkpoint(path)


_CHECKPOINT, (_CK_NETS, _CK_STATE) = _saved(_small_checkpoint)


@settings(FIXED, max_examples=300)
@given(data=st.data())
def test_a_mutated_checkpoint_is_a_named_error_or_loads_unchanged(data):
    # the checksum covers the canonical JSON, so only an edit it cannot see
    # (whitespace, a number's spelling) may load, and that load is the original
    with tempfile.TemporaryDirectory() as d:
        path = _write_mutated(d, "ck.json", data, _CHECKPOINT)
        try:
            nets, state = load_checkpoint(path)
        except CheckpointError as e:
            assert str(path) in str(e)
            return
    assert list(nets) == list(_CK_NETS)
    for name, net in nets.items():
        assert net.dims == _CK_NETS[name].dims
        assert param_checksum(net) == param_checksum(_CK_NETS[name])
    assert state.keys() == _CK_STATE.keys() and state["config"] == _CK_STATE["config"]
    assert state["stage"] == _CK_STATE["stage"] and state["m"].tobytes() == _CK_STATE["m"].tobytes()


_DATASET, _ = _saved(lambda path: save_dataset(path, gen_demos("point-reach", 2, 0)))


@settings(FIXED, max_examples=300)
@given(data=st.data())
def test_a_mutated_dataset_is_a_named_error_or_loads(data):
    # a dataset has no checksum: an edit that keeps every line a valid
    # record loads, with the edited values
    with tempfile.TemporaryDirectory() as d:
        path = _write_mutated(d, "demos.jsonl", data, _DATASET)
        try:
            ds = load_dataset(path)
        except ValueError as e:
            assert str(path) in str(e)
            return
    assert ds.obs.dtype == ds.actions.dtype == np.float64 and ds.episode_ids.dtype == ds.ts.dtype == np.int64
    assert ds.obs.ndim == ds.actions.ndim == 2 and len(ds.obs) == len(ds.actions) == len(ds.ts)


_CONFIGS = {
    "pretrain": ({"epochs": 2, "batch_size": 8, "lr": 0.001, "alpha_disp": 0.1, "disp_kind": "hinge", "seed": 0},
                 "--data", "demos.jsonl"),
    "finetune": ({"env_kind": "point-reach", "K": 2, "sigma": 0.01, "iterations": 1, "rollout_steps": 16,
                  "n_envs": 4, "seed": 0}, "--checkpoint", "ck.json"),
}


@settings(FIXED, max_examples=150)
@given(command=st.sampled_from(list(_CONFIGS)), data=st.data())
def test_a_mutated_config_is_an_error_naming_the_file_or_is_taken(command, data):
    # the run's other input is missing, so a config the CLI takes goes on to
    # fail on that file; any other exit names the config file
    cfg_dict, flag, missing = _CONFIGS[command]
    with tempfile.TemporaryDirectory() as d:
        cfg = _write_mutated(d, "cfg.json", data, json.dumps(cfg_dict).encode())
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(cfg), flag, str(Path(d) / missing), "--out", str(Path(d) / "out")])
    assert rc == 1
    msg = err.getvalue()
    assert msg.startswith("error: ") and msg.count("\n") == 1, msg
    assert f"config {cfg}" in msg or missing in msg, msg
