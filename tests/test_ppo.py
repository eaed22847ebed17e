import csv
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmpo.autodiff as ad
from dmpo import kernels
from dmpo.autodiff import Graph, Tensor, concat
from dmpo.envs import gen_demos, make_env
from dmpo.meanflow import Stage1Config, pretrain
from dmpo.nets import init_velocity_net, init_value_net, param_checksum
import dmpo.ppo as ppo_mod
from dmpo.ppo import (
    MiniBatch,
    RolloutBatch,
    Stage2Config,
    Stage2Nets,
    bc_loss,
    bc_schedule,
    chain_logprob_traced,
    clipped_pg_loss,
    collect_rollouts,
    compute_advantages,
    finetune,
    gae,
    ppo_ratio,
    stage2_loss,
    value_loss,
)
from dmpo.sampler import LOG_2PI, sample_chain_batch, sample_stochastic

from helpers import fd_grad, one_pass_metrics_csv, rel_err


# ---------------------------------------------------------------------------
# GAE


def test_gae_single_step():
    adv, ret = gae([2.0], [0.5, 0.3], [0.0], 0.9, 0.8)
    delta = 2.0 + 0.9 * 0.3 - 0.5
    assert adv[0] == pytest.approx(delta)
    assert ret[0] == pytest.approx(delta + 0.5)


def test_gae_hand_case():
    adv, ret = gae([1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0], 1.0, 1.0)
    np.testing.assert_allclose(adv, [2.0, 1.0])
    np.testing.assert_allclose(ret, [2.0, 1.0])


def test_gae_lambda_zero_is_one_step_td():
    rng = np.random.default_rng(0)
    r = rng.normal(size=6)
    v = rng.normal(size=7)
    adv, _ = gae(r, v, np.zeros(6), 0.95, 0.0)
    delta = r + 0.95 * v[1:] - v[:-1]
    np.testing.assert_allclose(adv, delta, atol=1e-12)


def _gae_double_sum(rewards, values, dones, gamma, lam):
    T = len(rewards)
    delta = np.array(
        [rewards[t] + gamma * values[t + 1] * (1 - dones[t]) - values[t] for t in range(T)]
    )
    adv = np.zeros(T)
    for t in range(T):
        acc = 0.0
        scale = 1.0
        for ell in range(T - t):
            acc += scale * delta[t + ell]
            if dones[t + ell]:
                break
            scale *= gamma * lam
        adv[t] = acc
    return adv


def test_gae_matches_double_sum_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        T = int(rng.integers(1, 65))
        r = rng.normal(size=T)
        v = rng.normal(size=T + 1)
        d = (rng.random(T) < 0.1).astype(float)
        gamma = rng.uniform(0.8, 1.0)
        lam = rng.uniform(0.0, 1.0)
        adv, _ = gae(r, v, d, gamma, lam)
        want = _gae_double_sum(r, v, d, gamma, lam)
        assert np.max(np.abs(adv - want)) < 1e-10


def _gae_numpy_scalar_reference(rewards, values, dones, gamma, lam):
    """The recursion on numpy float64 scalars: the reference the
    Python-float kernel must equal bit for bit."""
    adv = np.empty(rewards.shape[0])
    acc = 0.0
    for t in range(rewards.shape[0] - 1, -1, -1):
        live = 1.0 - dones[t]
        delta = rewards[t] + gamma * values[t + 1] * live - values[t]
        acc = delta + gamma * lam * live * acc
        adv[t] = acc
    return adv


@pytest.mark.parametrize("lam", [0.0, 0.95, 1.0])
def test_gae_kernel_bit_identical_to_numpy_scalar_recursion(lam):
    rng = np.random.default_rng(41)
    E, T = 5, 16
    for _ in range(20):
        rewards = rng.normal(size=E * T)
        values = np.append(rng.normal(size=E * T), 0.0)
        cuts = rng.random(E * T) < 0.15  # done rows
        cuts[T - 1 :: T] = True  # each env window's last row
        gamma = float(rng.uniform(0.8, 0.999))
        want = _gae_numpy_scalar_reference(rewards, values, cuts.astype(np.float64), gamma, lam)
        got = kernels.gae_backward(rewards, values, cuts.astype(np.float64), gamma, lam)
        assert type(got) is np.ndarray and got.shape == (E * T,)
        assert np.array_equal(got, want)


def test_gae_length_mismatch():
    with pytest.raises(ValueError):
        gae([1.0, 2.0], [0.0, 0.0], [0.0, 0.0], 0.9, 0.9)


class _RowValueNet:
    """V(obs) from elementwise ops, so a row's value never depends on batching."""

    def value(self, obs):
        return np.tanh(obs[:, 0]) + 0.5 * obs[:, 1] * obs[:, 2]


def _per_segment_advantages(batch, value_net, gamma, lam, n_envs):
    """One gae call per segment, each truncated segment bootstrapped alone;
    the batch holds ``n_envs`` equal windows, one after another."""
    adv = np.empty(batch.rewards.shape[0])
    ret = np.empty_like(adv)
    T = adv.size // n_envs
    for lo, hi in ((e * T, (e + 1) * T) for e in range(n_envs)):
        seg_start = lo
        for i in range(lo, hi):
            if not (batch.dones[i] > 0.5 or i == hi - 1):
                continue
            seg = slice(seg_start, i + 1)
            boot = 0.0 if batch.terminals[i] > 0.5 else float(value_net.value(batch.next_obs[i : i + 1])[0])
            a, r = gae(batch.rewards[seg], np.append(batch.values[seg], boot), batch.terminals[seg], gamma, lam)
            adv[seg], ret[seg] = a, r
            seg_start = i + 1
    return adv, ret


def test_compute_advantages_one_pass_matches_per_segment_reference(monkeypatch):
    rng = np.random.default_rng(31)
    E, T = 4, 7
    N = E * T
    terminals = np.zeros(N)
    dones = np.zeros(N)
    terminals[2] = dones[2] = 1.0  # env 0: terminal mid-window, window ends mid-episode
    dones[T + 3] = 1.0  # env 1: truncation mid-window, window ends mid-episode
    terminals[3 * T - 1] = dones[3 * T - 1] = 1.0  # env 2: terminal on its last row
    dones[3 * T + 1] = 1.0  # env 3: truncation then terminal, then a truncated tail
    terminals[3 * T + 4] = dones[3 * T + 4] = 1.0
    d_obs, d_a, K = 3, 2, 1
    batch = RolloutBatch(
        obs=rng.normal(size=(N, d_obs)),
        next_obs=rng.normal(size=(N, d_obs)),
        states=np.zeros((N, K + 1, d_a)),
        rewards=rng.normal(size=N),
        terminals=terminals,
        dones=dones,
        values=rng.normal(size=N),
        old_logprobs=np.zeros(N),
    )
    cfg = Stage2Config(gamma=0.97, lam_gae=0.9, n_envs=E)
    want_adv, want_ret = _per_segment_advantages(batch, _RowValueNet(), cfg.gamma, cfg.lam_gae, cfg.n_envs)
    rewards = batch.rewards.copy()

    calls = []
    monkeypatch.setattr(ppo_mod, "gae", lambda *a: calls.append(1) or gae(*a))
    compute_advantages(batch, _RowValueNet(), cfg)
    assert len(calls) == 1
    np.testing.assert_array_equal(batch.advantages, want_adv)
    np.testing.assert_array_equal(batch.returns, want_ret)
    # the cuts and bootstraps go into copies; the recorded rows stay as they were
    np.testing.assert_array_equal(batch.dones, np.isin(np.arange(N), [2, T + 3, 3 * T - 1, 3 * T + 1, 3 * T + 4]))
    np.testing.assert_array_equal(batch.rewards, rewards)


@pytest.mark.parametrize("T", [1, 5])
def test_compute_advantages_cuts_each_env_window_at_its_last_row(monkeypatch, T):
    # no done rows: the only cuts are the window ends the env-major layout
    # places at rows T-1, 2T-1 and 3T-1, each bootstrapped as a truncation
    E, N = 3, 3 * T
    rng = np.random.default_rng(T)
    batch = RolloutBatch(obs=rng.normal(size=(N, 3)), next_obs=rng.normal(size=(N, 3)),
                         states=np.zeros((N, 2, 2)), rewards=rng.normal(size=N), terminals=np.zeros(N),
                         dones=np.zeros(N), values=rng.normal(size=N), old_logprobs=np.zeros(N))
    cfg = Stage2Config(n_envs=E, rollout_steps=N)
    seen = []
    monkeypatch.setattr(ppo_mod, "gae", lambda r, v, cuts, *a: seen.append(cuts) or gae(r, v, cuts, *a))
    compute_advantages(batch, _RowValueNet(), cfg)
    np.testing.assert_array_equal(np.flatnonzero(seen[0]), [T - 1, 2 * T - 1, 3 * T - 1])
    want_adv, _ = _per_segment_advantages(batch, _RowValueNet(), cfg.gamma, cfg.lam_gae, E)
    np.testing.assert_array_equal(batch.advantages, want_adv)


@pytest.mark.parametrize("N", [10, 2])
def test_compute_advantages_rejects_a_batch_that_does_not_split_into_env_windows(N):
    batch = RolloutBatch(obs=np.zeros((N, 3)), next_obs=np.zeros((N, 3)), states=np.zeros((N, 2, 2)),
                         rewards=np.zeros(N), terminals=np.zeros(N), dones=np.zeros(N), values=np.zeros(N),
                         old_logprobs=np.zeros(N))
    with pytest.raises(ValueError, match=f"^a batch of {N} rows does not split into n_envs=3 windows$"):
        compute_advantages(batch, _RowValueNet(), Stage2Config(n_envs=3, rollout_steps=12))
    assert batch.advantages is None


# ---------------------------------------------------------------------------
# surrogate pieces


def test_ppo_ratio_basics():
    assert ppo_ratio(0.3, 0.3).item() == pytest.approx(1.0)
    assert ppo_ratio(np.log(2.0), 0.0).item() == pytest.approx(2.0)


def test_ppo_ratio_overflow_error():
    with pytest.raises(OverflowError):
        ppo_ratio(1000.0, 0.0)
    with pytest.raises(ValueError):
        ppo_ratio(np.nan, 0.0)


def test_ppo_ratio_round_trip_at_unchanged_params():
    net = init_velocity_net(2, 3, 2)
    obs = np.random.default_rng(2).normal(size=3)
    chain = sample_stochastic(net, obs, 3, 0.01, np.random.default_rng(3))
    lp = chain_logprob_traced(
        net, chain.states[None], obs[None], Tensor(chain.sigma), 3
    )
    rho = ppo_ratio(lp, np.array([chain.total_logprob]))
    # one chain log-prob code path: the ratio is exactly 1 at theta_old
    assert rho.data[0] == 1.0


def test_clipped_pg_loss_hand_cases():
    assert clipped_pg_loss(np.array([2.0]), np.array([1.0]), 0.2).item() == pytest.approx(-1.2)
    assert clipped_pg_loss(np.array([0.5]), np.array([-1.0]), 0.2).item() == pytest.approx(0.8)


def test_clipped_pg_loss_at_ratio_one():
    rng = np.random.default_rng(4)
    adv = rng.normal(size=32)
    got = clipped_pg_loss(np.ones(32), adv, 0.2).item()
    assert got == pytest.approx(float(np.mean(-adv)), abs=1e-12)


def test_clip_inactive_inside_band():
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.8, 1.2, size=64)
    adv = rng.normal(size=64)
    got = clipped_pg_loss(rho, adv, 0.2).item()
    assert got == pytest.approx(float(np.mean(-adv * rho)), abs=1e-12)


def test_clipped_at_least_unclipped_pointwise():
    rng = np.random.default_rng(6)
    rho = np.exp(rng.normal(0, 1, size=10_000))
    adv = rng.normal(size=10_000)
    for r_, a_ in ((rho, adv),):
        clipped = np.maximum(-a_ * r_, -a_ * np.clip(r_, 0.8, 1.2))
        assert np.all(clipped >= -a_ * r_ - 1e-15)
    got = clipped_pg_loss(rho, adv, 0.2).item()
    assert got >= float(np.mean(-adv * rho)) - 1e-12


def test_clipped_pg_loss_gradcheck_away_from_kinks():
    # both advantage signs; ratios below, inside and above the 0.8-1.2 band
    rho0 = np.array([0.5, 0.9, 1.05, 1.5, 0.6, 0.95, 1.1, 1.7])
    adv = np.array([1.3, 0.7, 2.0, 0.4, -1.1, -0.5, -0.9, -2.2])
    rho = Tensor(rho0.copy(), requires_grad=True)
    with Graph() as g:
        loss = clipped_pg_loss(rho, adv, 0.2)
    assert [n.op for n in g.nodes] == ["clipped_pg"]
    grads = g.backward(loss)
    want = fd_grad(lambda r: clipped_pg_loss(r, adv, 0.2).item(), rho0.copy())
    assert rel_err(grads[rho], want, floor=1e-6) < 1e-8
    # the clipped branch wins (zero gradient) exactly for A > 0, rho > 1.2 and A < 0, rho < 0.8
    np.testing.assert_array_equal(grads[rho] == 0.0, [False, False, False, True, True, False, False, False])


def test_value_loss_cases():
    assert value_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])).item() == 0.0
    assert value_loss(np.array([0.0]), np.array([2.0])).item() == pytest.approx(2.0)


def test_value_loss_gradient():
    v = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    r = np.array([0.0, 1.0, 0.5])
    with Graph() as g:
        loss = value_loss(v, r)
    grads = g.backward(loss)
    np.testing.assert_allclose(grads[v], (v.data - r) / 3.0, atol=1e-12)


def _head_vs_chain(head, chain, x0, seed):
    """Value and cotangent of ``head`` and of its op-composed ``chain`` at x0."""
    out = []
    for fn in (head, chain):
        x = Tensor(x0.copy(), requires_grad=True)
        with Graph() as g:
            y = fn(x)
        out.append((y.data, g.backward(y, seed=seed)[x], [n.op for n in g.nodes]))
    return out


def test_ppo_ratio_is_one_node_bit_identical_to_op_chain():
    rng = np.random.default_rng(40)
    new0, old = rng.normal(size=9), rng.normal(size=9)
    seed = rng.normal(size=9)
    (hv, hg, hops), (cv, cg, _) = _head_vs_chain(
        lambda x: ppo_ratio(x, old), lambda x: ad.exp(x - Tensor(old)), new0, seed
    )
    assert hops == ["ppo_ratio"]
    assert np.array_equal(hv, cv) and np.array_equal(hg, cg)
    want = fd_grad(lambda a: float(np.dot(seed, np.exp(a - old))), new0.copy())
    assert rel_err(hg, want) < 1e-8
    # equal log-probs give a ratio of exactly 1
    assert np.array_equal(ppo_ratio(old, old.copy()).data, np.ones(9))


def test_value_loss_is_one_node_bit_identical_to_op_chain():
    rng = np.random.default_rng(41)
    v0, ret = rng.normal(size=11), rng.normal(size=11)
    seed = np.array(0.8)
    (hv, hg, hops), (cv, cg, _) = _head_vs_chain(
        lambda x: value_loss(x, ret), lambda x: 0.5 * ad.square(x - Tensor(ret)).mean(), v0, seed
    )
    assert hops == ["value_loss"]
    assert np.array_equal(hv, cv) and np.array_equal(hg, cg)
    want = fd_grad(lambda a: 0.5 * float(np.mean((a - ret) ** 2)), v0.copy())
    assert rel_err(hg / seed, want) < 1e-8


def test_ratio_and_value_heads_reject_mismatched_shapes():
    with pytest.raises(ValueError, match="do not match"):
        ppo_ratio(np.zeros(4), np.zeros((4, 1)))
    with pytest.raises(ValueError, match="do not match"):
        value_loss(np.zeros(4), np.zeros((4, 1)))


# ---------------------------------------------------------------------------
# behavior cloning


def test_bc_loss_identical_nets_zero():
    net = init_velocity_net(7, 3, 2)
    obs = np.random.default_rng(7).normal(size=(5, 3))
    noise = np.random.default_rng(8).standard_normal((5, 2))
    assert bc_loss(net, net.clone(), obs, noise).item() == pytest.approx(0.0, abs=1e-24)


def test_bc_loss_constant_offset():
    net = init_velocity_net(9, 3, 2)
    shifted = net.clone()
    shifted.params["out_b"].data[...] += np.array([0.3, -0.4])
    obs = np.random.default_rng(9).normal(size=(6, 3))
    noise = np.random.default_rng(10).standard_normal((6, 2))
    want = 0.3**2 + 0.4**2
    assert bc_loss(net, shifted, obs, noise).item() == pytest.approx(want, abs=1e-10)


def test_bc_loss_gradient_only_into_current():
    frozen = init_velocity_net(11, 3, 2)
    current = init_velocity_net(12, 3, 2)
    obs = np.random.default_rng(11).normal(size=(4, 3))
    noise = np.random.default_rng(12).standard_normal((4, 2))
    with Graph() as g:
        loss = bc_loss(frozen, current, obs, noise)
    grads = g.backward(loss)
    frozen_params = set(map(id, frozen.parameters()))
    assert all(id(p) not in frozen_params for p in grads)
    assert any(id(p) in set(map(id, current.parameters())) for p in grads)


def _bc_loss_op_chain(frozen_net, current_net, obs, z1, u=None):
    # the reference: bc_loss's distance head as neg/add/square/sum/mean ops
    B = obs.shape[0]
    a_frozen = z1 - frozen_net.velocity_arrays(z1, 0.0, 1.0, frozen_net.encode_arrays(obs))
    if u is None:
        h = current_net.encode(Tensor(obs))
        u = current_net.velocity(Tensor(z1), Tensor(np.zeros((B, 1))), Tensor(np.ones((B, 1))), h=h)
    a_cur = Tensor(z1) - u
    return ad.square(a_cur - Tensor(a_frozen)).sum(axis=1).mean()


def test_bc_loss_distance_head_is_one_node_bit_identical_to_op_chain():
    frozen = init_velocity_net(14, 3, 2, d_h=4, enc_width=4, trunk_width=4)
    current = init_velocity_net(15, 3, 2, d_h=4, enc_width=4, trunk_width=4)
    obs = np.random.default_rng(14).normal(size=(5, 3))
    noise = np.random.default_rng(15).standard_normal((5, 2))
    seed = np.array(1.3)
    runs = []
    for fn in (bc_loss, _bc_loss_op_chain):
        with Graph() as g:
            loss = fn(frozen, current, obs, noise)
        runs.append((loss.data, g.backward(loss, seed=seed), [n.op for n in g.nodes]))
    (hv, hg, hops), (cv, cg, _) = runs
    layer = ["matmul", "add", "tanh"]
    assert hops == layer * 2 + ["concat"] + layer * 2 + ["matmul", "add", "bc_dist"]
    assert np.array_equal(hv, cv)
    assert list(hg) == list(cg) and all(np.array_equal(hg[p], cg[p]) for p in hg)
    p = current.params["out_w"]
    orig = p.data.copy()

    def f(arr):
        p.data[...] = arr
        val = bc_loss(frozen, current, obs, noise).item()
        p.data[...] = orig
        return val

    assert rel_err(hg[p] / seed, fd_grad(f, orig.copy()), floor=1e-6) < 1e-6


def test_bc_schedule_branches():
    cfg = Stage2Config(lam_bc_init=1.0, lam_bc_final=0.0, bc_decay_start=10, bc_decay_end=30)
    assert bc_schedule(0, cfg) == 1.0
    assert bc_schedule(9, cfg) == 1.0
    assert bc_schedule(20, cfg) == pytest.approx(0.5)
    assert bc_schedule(30, cfg) == 0.0
    assert bc_schedule(100, cfg) == 0.0


def test_bc_schedule_validation():
    with pytest.raises(ValueError):
        Stage2Config(bc_decay_start=5, bc_decay_end=5)
    cfg = Stage2Config()
    with pytest.raises(ValueError):
        bc_schedule(-1, cfg)


# ---------------------------------------------------------------------------
# stage-2 loss composition


def _make_minibatch(net, seed=0, M=6, K=2, sigma=0.01):
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(M, net.d_obs))
    states, old_lp = [], []
    for i in range(M):
        chain = sample_stochastic(net, obs[i], K, sigma, np.random.default_rng(seed + i))
        states.append(chain.states)
        old_lp.append(chain.total_logprob)
    return MiniBatch(
        obs=obs,
        states=np.stack(states),
        old_logprobs=np.array(old_lp),
        advantages=rng.normal(size=M),
        returns=rng.normal(size=M),
        bc_noise=rng.standard_normal((M, net.d_a)),
    )


def test_stage2_loss_reduces_to_pg_when_coeffs_zero():
    net = init_velocity_net(13, 3, 2)
    vnet = init_value_net(13, 3)
    cfg = Stage2Config(lam_value=0.0, lam_entropy=0.0, lam_bc_init=0.0, lam_bc_final=0.0,
                       K=2, sigma=0.01)
    nets = Stage2Nets(policy=net, value=vnet, frozen=net.clone())
    mb = _make_minibatch(net, K=2)
    total, parts = stage2_loss(mb, nets, cfg, n=0)
    assert total.item() == pytest.approx(parts["pg"], abs=1e-12)


def test_stage2_loss_components_sum_to_total():
    net = init_velocity_net(14, 3, 2)
    vnet = init_value_net(14, 3)
    cfg = Stage2Config(K=2, sigma=0.01)
    nets = Stage2Nets(policy=net, value=vnet, frozen=net.clone())
    mb = _make_minibatch(net, K=2)
    total, parts = stage2_loss(mb, nets, cfg, n=3)
    manual = (
        parts["pg"]
        + cfg.lam_value * parts["v"]
        + cfg.lam_entropy * parts["ent"]
        + parts["lambda_bc"] * parts["bc"]
    )
    assert total.item() == pytest.approx(manual, abs=1e-12)


def test_stage2_pg_at_theta_old_is_unclipped():
    # at unchanged parameters rho == 1 so the pg component is mean(-A)
    net = init_velocity_net(15, 3, 2)
    vnet = init_value_net(15, 3)
    cfg = Stage2Config(K=1, sigma=0.01)
    nets = Stage2Nets(policy=net, value=vnet, frozen=net.clone())
    mb = _make_minibatch(net, K=1)
    _, parts = stage2_loss(mb, nets, cfg, n=0)
    assert parts["pg"] == pytest.approx(float(np.mean(-mb.advantages)), abs=1e-8)


def test_stage2_gradients_match_finite_differences():
    net = init_velocity_net(16, 3, 2, d_h=4, enc_width=4, trunk_width=4)
    vnet = init_value_net(16, 3, width=4)
    cfg = Stage2Config(K=1, sigma=0.05)
    nets = Stage2Nets(policy=net, value=vnet, frozen=net.clone())
    mb = _make_minibatch(net, K=1, sigma=0.05)

    with Graph() as g:
        total, _ = stage2_loss(mb, nets, cfg, n=0)
    grads = g.backward(total)

    from helpers import fd_grad

    for p in (net.params["out_w"], vnet.params["out_w"], net.params["enc0_b"]):
        orig = p.data.copy()

        def f(arr):
            p.data[...] = arr
            val, _ = stage2_loss(mb, nets, cfg, n=0)
            p.data[...] = orig
            return val.item()

        assert rel_err(grads[p], fd_grad(f, orig.copy()), floor=1e-6) < 1e-3


# ---------------------------------------------------------------------------
# the full loop


def _stacked_trunk_pass(policy, mb, h):
    # one trunk pass over the chain's K steps and the BC rows, as stage2_loss
    # makes it: block k holds a^k at ((K-k-1)/K, (K-k)/K), the BC block z1
    # at (0, 1)
    M, K = mb.states.shape[0], mb.states.shape[1] - 1
    z = np.concatenate([mb.states[:, k] for k in range(K)] + [mb.bc_noise])
    r = np.concatenate([np.full((M, 1), (K - k - 1) / K) for k in range(K)] + [np.zeros((M, 1))])
    tau = np.concatenate([np.full((M, 1), (K - k) / K) for k in range(K)] + [np.ones((M, 1))])
    u = policy.velocity(Tensor(z), Tensor(r), Tensor(tau), h=concat([h] * (K + 1), axis=0))
    return ad.split_rows(u, K * M)


def _stage2_loss_op_chain(mb, nets, cfg, n):
    # the reference: stage2_loss with every fused head written as its op chain
    # (learnable sigma, so the entropy term is traced too)
    K = mb.states.shape[1] - 1
    sigma_t = ad.exp(nets.log_sigma)
    h = nets.policy.encode(Tensor(mb.obs))
    u_chain, u_bc = _stacked_trunk_pass(nets.policy, mb, h)
    new_lp = chain_logprob_traced(nets.policy, mb.states, mb.obs, sigma_t, K, u=u_chain)
    pg = clipped_pg_loss(ad.exp(new_lp - Tensor(mb.old_logprobs)), mb.advantages, cfg.clip_eps)
    v = 0.5 * ad.square(nets.value.value(Tensor(mb.obs)) - Tensor(mb.returns)).mean()
    ent = -float(K) * ((0.5 * (1.0 + LOG_2PI) * nets.policy.d_a) + ad.log(sigma_t).sum())
    bc = _bc_loss_op_chain(nets.frozen, nets.policy, mb.obs, mb.bc_noise, u=u_bc)
    return pg + cfg.lam_value * v + cfg.lam_entropy * ent + bc_schedule(n, cfg) * bc


def test_stage2_loss_bit_identical_to_op_composed_heads():
    net = init_velocity_net(25, 3, 2, d_h=4, enc_width=4, trunk_width=4)
    mb = _make_minibatch(net, K=2, sigma=0.05)
    policy = net.clone()
    policy.params["out_b"].data[...] += 0.002  # ratios away from 1, a nonzero BC term
    log_sigma = Tensor(np.log(np.array([0.05, 0.04])), requires_grad=True)
    nets = Stage2Nets(policy=policy, value=init_value_net(25, 3, width=4), frozen=net, log_sigma=log_sigma)
    cfg = Stage2Config(K=2, sigma=0.05, sigma_learnable=True, lam_bc_init=0.3, lam_bc_final=0.3)
    runs = []
    for fn in (lambda: stage2_loss(mb, nets, cfg, n=0)[0], lambda: _stage2_loss_op_chain(mb, nets, cfg, 0)):
        with Graph() as g:
            total = fn()
        runs.append((total.data, g.backward(total)))
    (hv, hg), (cv, cg) = runs
    assert hv == cv and hv != 0.0
    assert list(hg) == list(cg) and all(np.array_equal(hg[p], cg[p]) for p in hg)


def _sampled_minibatch(net, M, K, sigma, seed):
    # chains sampled in one M-row call; at M % 4 == 0 its rows round as
    # collection's 8-row calls do
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(M, net.d_obs))
    chains = sample_chain_batch(net, obs, K, sigma, [np.random.default_rng(seed + 1 + i) for i in range(M)])
    return MiniBatch(
        obs=obs,
        states=chains.states,
        old_logprobs=chains.total_logprobs,
        advantages=rng.normal(size=M),
        returns=rng.normal(size=M),
        bc_noise=rng.standard_normal((M, net.d_a)),
    )


@pytest.mark.parametrize("K", [1, 2, 3])
def test_stacked_trunk_pass_rows_equal_separate_passes_and_rho_is_one_at_theta_old(monkeypatch, K):
    # rows in full blocks of 4 round alike whatever the matmul's row count, so
    # at M % 4 == 0 the stacked pass's chain and BC rows equal separate M-row
    # passes (one per chain step, one for BC) bit for bit, and the ratio at
    # unchanged parameters is exactly 1
    net = init_velocity_net(31, 3, 2)
    nets = Stage2Nets(policy=net, value=init_value_net(31, 3), frozen=net.clone())
    cfg = Stage2Config(K=K, sigma=0.01)
    mb = _sampled_minibatch(net, 64, K, cfg.sigma, seed=31)
    seen = {}
    chain_logprob, bc = ppo_mod.chain_logprob_traced, ppo_mod.bc_loss

    def chain_spy(*args, **kwargs):
        seen["u"] = kwargs["u"].data
        return chain_logprob(*args, **kwargs)

    def bc_spy(*args, **kwargs):
        seen["u_bc"] = kwargs["u"].data
        return bc(*args, **kwargs)

    monkeypatch.setattr(ppo_mod, "chain_logprob_traced", chain_spy)
    monkeypatch.setattr(ppo_mod, "bc_loss", bc_spy)
    with Graph():
        _, parts = stage2_loss(mb, nets, cfg, n=0)
    M = mb.obs.shape[0]
    h = net.encode(Tensor(mb.obs))
    ones = Tensor(np.ones((M, 1)))
    for k in range(K):
        r, tau = Tensor(np.full((M, 1), (K - k - 1) / K)), Tensor(np.full((M, 1), (K - k) / K))
        step = net.velocity(Tensor(mb.states[:, k]), r, tau, h=h)
        assert np.array_equal(seen["u"][k * M : (k + 1) * M], step.data), k
    assert seen["u"].shape == (K * M, net.d_a)
    bc_rows = net.velocity(Tensor(mb.bc_noise), Tensor(np.zeros((M, 1))), ones, h=h)
    assert np.array_equal(seen["u_bc"], bc_rows.data)
    assert np.all(parts["rho"] == 1.0) and parts["bc"] == 0.0


def _stage2_loss_separate_passes(mb, nets, cfg, n):
    # the reference: stage2_loss with one trunk pass per chain step and one
    # for the BC rows, over the shared embedding
    K = mb.states.shape[1] - 1
    sigma_t = ppo_mod._sigma_tensor(nets, cfg)
    h = nets.policy.encode(Tensor(mb.obs))
    new_lp = chain_logprob_traced(nets.policy, mb.states, mb.obs, sigma_t, K, h=h)
    pg = clipped_pg_loss(ppo_ratio(new_lp, mb.old_logprobs), mb.advantages, cfg.clip_eps)
    v = value_loss(nets.value.value(Tensor(mb.obs)), mb.returns)
    ent = Tensor(ppo_mod._fixed_sigma_entropy(K, nets.policy.d_a, cfg.sigma))
    bc = bc_loss(nets.frozen, nets.policy, mb.obs, mb.bc_noise, h=h)
    weights = [1.0, cfg.lam_value, cfg.lam_entropy, bc_schedule(n, cfg)]
    return ad.weighted_sum([pg, v, ent, bc], weights, "stage2_total")


@pytest.mark.parametrize("K", [1, 2])
def test_stacked_trunk_pass_gradients_match_two_separate_passes(K):
    # the stacked pass sums each trunk weight's gradient over (K+1) M rows in
    # one matmul where separate passes summed K+1 M-row matmuls: rounding only
    net = init_velocity_net(32, 3, 2)
    mb = _sampled_minibatch(net, 64, K, 0.01, seed=32)
    policy = net.clone()
    policy.params["out_b"].data[...] += 0.002  # ratios away from 1, a nonzero BC term
    nets = Stage2Nets(policy=policy, value=init_value_net(32, 3), frozen=net)
    cfg = Stage2Config(K=K, sigma=0.01, lam_bc_init=0.3, lam_bc_final=0.3)
    runs = []
    for fn in (lambda: stage2_loss(mb, nets, cfg, n=0)[0], lambda: _stage2_loss_separate_passes(mb, nets, cfg, 0)):
        with Graph() as g:
            total = fn()
        runs.append((total.data, g.backward(total)))
    (sv, sg), (rv, rg) = runs
    assert sv == rv and sv != 0.0
    assert list(sg) == list(rg)
    for p in sg:
        # an entry that cancels to far below its tensor's scale keeps only
        # absolute accuracy (seen: 2e-17 on an entry of 1.07e-6)
        np.testing.assert_allclose(sg[p], rg[p], rtol=1e-12, atol=1e-12 * np.max(np.abs(rg[p])))


def test_epoch_bc_noise_draw_is_the_per_minibatch_draws():
    # a generator fills an array in order: one (N, d_a) draw gives the
    # numbers of the per-minibatch draws and leaves the same state
    for size in (64, 30):
        one, per = np.random.default_rng(33), np.random.default_rng(33)
        whole = one.standard_normal((320, 2))
        parts = [per.standard_normal((min(size, 320 - lo), 2)) for lo in range(0, 320, size)]
        assert np.array_equal(whole, np.concatenate(parts))
        assert one.bit_generator.state == per.bit_generator.state


def _captured_minibatches(monkeypatch, net, cfg):
    seen = []
    loss = ppo_mod.stage2_loss

    def spy(mb, *args, **kwargs):
        seen.append(mb)
        return loss(mb, *args, **kwargs)

    monkeypatch.setattr(ppo_mod, "stage2_loss", spy)
    finetune(net, lambda: make_env("point-reach-shifted"), cfg)
    return seen


@pytest.mark.parametrize("minibatch_size", [64, 30])
def test_finetune_bc_targets_once_per_epoch_equal_per_minibatch_frozen_pass(monkeypatch, minibatch_size):
    # finetune draws each epoch's BC noise at once and computes its frozen
    # targets in one N-row pass; the noise is the per-minibatch stream, and the
    # targets equal per-minibatch frozen passes exactly when the minibatch
    # size is a multiple of 4 (and to rounding otherwise)
    net = _pretrained()
    cfg = Stage2Config(iterations=1, seed=4, minibatch_size=minibatch_size, lam_bc_init=0.1, lam_bc_final=0.1,
                       bc_decay_start=0, bc_decay_end=1)
    mbs = _captured_minibatches(monkeypatch, net, cfg)
    N = cfg.rollout_steps
    update_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(cfg.n_envs + 1)[-1])
    want_noise = []
    for _ in range(cfg.epochs):
        update_rng.permutation(N)
        for lo in range(0, N, minibatch_size):
            want_noise.append(update_rng.standard_normal((min(minibatch_size, N - lo), net.d_a)))
    assert len(mbs) == len(want_noise)
    exact = minibatch_size % 4 == 0
    for mb, noise in zip(mbs, want_noise):
        assert np.array_equal(mb.bc_noise, noise)
        want = ppo_mod.bc_target(net, noise, net.encode_arrays(mb.obs))
        if exact:
            assert np.array_equal(mb.bc_target, want)
        else:
            # measured <= 2.3e-16 on targets of magnitude <= 3.7
            np.testing.assert_allclose(mb.bc_target, want, rtol=0, atol=1e-15)
    # the loss and gradients with the hoisted target, against the target
    # bc_loss computes itself from a per-minibatch frozen pass
    policy = net.clone()
    policy.params["out_b"].data[...] += 0.002
    nets = Stage2Nets(policy=policy, value=init_value_net(4, net.d_obs), frozen=net)
    runs = []
    for mb in (mbs[1], MiniBatch(**{**mbs[1].__dict__, "bc_target": None})):
        with Graph() as g:
            total, parts = stage2_loss(mb, nets, cfg, n=0)
        runs.append((total.data, parts["bc"], g.backward(total)))
    (hv, hbc, hg), (pv, pbc, pg) = runs
    assert hbc != 0.0 and list(hg) == list(pg)
    if exact:
        assert hv == pv and hbc == pbc
        assert all(np.array_equal(hg[p], pg[p]) for p in hg)
    else:
        # measured over every minibatch: equal totals, gradients within
        # 4e-17 of their tensor's largest entry
        assert hv == pytest.approx(pv, rel=1e-13) and hbc == pytest.approx(pbc, rel=1e-13)
        for p in hg:
            np.testing.assert_allclose(hg[p], pg[p], rtol=1e-12, atol=1e-12 * np.max(np.abs(pg[p])))


def _pretrained(seed=0):
    ds = gen_demos("point-reach", 6, seed=seed)
    return pretrain(ds, Stage1Config(epochs=5, seed=seed))[0]


def test_finetune_zero_iterations_identity():
    net = _pretrained()
    cfg = Stage2Config(iterations=0, seed=0)
    policy, _, metrics = finetune(net, lambda: make_env("point-reach"), cfg)
    assert param_checksum(policy) == param_checksum(net)
    assert metrics == []


def test_finetune_deterministic_metrics():
    net = _pretrained()
    cfg = Stage2Config(iterations=2, seed=5, rollout_steps=64, n_envs=4)
    _, _, m1 = finetune(net, lambda: make_env("point-reach"), cfg)
    _, _, m2 = finetune(net, lambda: make_env("point-reach"), cfg)
    assert m1 == m2


def test_finetune_frozen_net_untouched():
    net = _pretrained()
    before = param_checksum(net)
    cfg = Stage2Config(iterations=2, seed=1, rollout_steps=64, n_envs=4)
    finetune(net, lambda: make_env("point-reach"), cfg)
    assert param_checksum(net) == before


def test_old_logprob_freeze_before_update():
    net = _pretrained()
    vnet = init_value_net(0, net.d_obs)
    cfg = Stage2Config(rollout_steps=32, n_envs=4, K=2)
    nets = Stage2Nets(policy=net, value=vnet, frozen=net.clone())
    import numpy.random as npr

    ss = npr.SeedSequence(0)
    env_rngs = [npr.default_rng(s) for s in ss.spawn(4)]
    envs_list = [make_env("point-reach") for _ in range(4)]
    obs_cur = [e.reset(int(env_rngs[i].integers(2**63))) for i, e in enumerate(envs_list)]
    batch, _ = collect_rollouts(nets, envs_list, env_rngs, obs_cur, cfg)

    lp = chain_logprob_traced(net, batch.states, batch.obs, Tensor(np.full(net.d_a, cfg.sigma)), cfg.K)
    rho = ppo_ratio(lp, batch.old_logprobs)
    assert np.max(np.abs(rho.data - 1.0)) < 1e-10


def test_collect_rollouts_hands_back_current_observations():
    net = init_velocity_net(24, 4, 2)
    nets = Stage2Nets(policy=net, value=init_value_net(24, 4), frozen=net.clone())
    cfg = Stage2Config(rollout_steps=60, n_envs=3)
    envs_list = [make_env("point-reach") for _ in range(3)]
    env_rngs = [np.random.default_rng(e) for e in range(3)]
    obs_cur = [env.reset(10 + e) for e, env in enumerate(envs_list)]
    for _ in range(2):
        start = [o.copy() for o in obs_cur]
        batch, _ = collect_rollouts(nets, envs_list, env_rngs, obs_cur, cfg)
        # each window starts from the observations passed in and hands back
        # each env's observation after its last step
        np.testing.assert_array_equal(batch.obs.reshape(cfg.n_envs, -1, 4)[:, 0], np.stack(start))
        assert len(obs_cur) == 3
        for e, env in enumerate(envs_list):
            np.testing.assert_array_equal(obs_cur[e], env._obs())


def _collect_with_value_rows(n_envs, T, seed):
    """One window's batch, and the values that per-step calls over each
    step's (n_envs, d_obs) observations give for its rows."""
    net = init_velocity_net(seed, 4, 2)
    nets = Stage2Nets(policy=net, value=init_value_net(seed + 1, 4), frozen=net.clone())
    cfg = Stage2Config(rollout_steps=n_envs * T, n_envs=n_envs)
    envs_list = [make_env("point-reach") for _ in range(n_envs)]
    env_rngs = [np.random.default_rng(100 + e) for e in range(n_envs)]
    obs_cur = [env.reset(e) for e, env in enumerate(envs_list)]
    batch, _ = collect_rollouts(nets, envs_list, env_rngs, obs_cur, cfg)
    obs = batch.obs.reshape(n_envs, T, -1)
    per_step = [nets.value.value(np.ascontiguousarray(obs[:, t])) for t in range(T)]
    return batch, np.stack(per_step, axis=1).reshape(-1)


def test_collect_rollouts_one_value_call_equals_per_step_calls_at_8_envs():
    # rows in full blocks of 4 round alike whatever the matmul's row count
    # (sampler module docstring), so one call over the window is exact here
    batch, want = _collect_with_value_rows(8, 12, seed=27)
    assert np.array_equal(batch.values, want)


def test_collect_rollouts_one_value_call_rounds_within_tolerance_at_3_envs():
    # 3-row per-step calls round their rows differently from one call over
    # the window; the difference is rounding only (measured <= 1.7e-16 on
    # values of magnitude <= 0.31)
    batch, want = _collect_with_value_rows(3, 12, seed=27)
    np.testing.assert_allclose(batch.values, want, rtol=0, atol=1e-15)


class _FixedHorizonEnv:
    """Every episode ends at step 3, with reward t at step t: by reaching
    its goal (a true terminal) or by a time limit (a truncation)."""

    d_obs, d_a = 4, 2

    def __init__(self, terminates: bool):
        self.terminates = terminates

    def reset(self, seed=None):
        self.t, self.terminated, self.success, self.episode_return = 0, False, False, 0.0
        return self._obs()

    def _obs(self):
        return np.array([float(self.t), 0.5 * self.t, 1.0, -1.0])

    def step(self, action):
        self.t += 1
        done = self.t == 3
        self.terminated = self.success = done and self.terminates
        return self._obs(), float(self.t), done


def test_collect_rollouts_records_true_terminals_and_compute_advantages_bootstraps_zero_there():
    net = init_velocity_net(28, 4, 2)
    nets = Stage2Nets(policy=net, value=init_value_net(28, 4), frozen=net.clone())
    cfg = Stage2Config(rollout_steps=10, n_envs=2, minibatch_size=10)
    envs_list = [_FixedHorizonEnv(terminates=True), _FixedHorizonEnv(terminates=False)]
    env_rngs = [np.random.default_rng(e) for e in range(2)]
    obs_cur = [env.reset() for env in envs_list]
    batch, finished = collect_rollouts(nets, envs_list, env_rngs, obs_cur, cfg)
    # env 0 reaches its goal on its third step, env 1 is cut there; both reset
    np.testing.assert_array_equal(batch.terminals, [0, 0, 1, 0, 0, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(batch.dones, [0, 0, 1, 0, 0, 0, 0, 1, 0, 0])
    np.testing.assert_array_equal(batch.rewards, [1, 2, 3, 1, 2] * 2)
    assert finished == [(6.0, True), (6.0, False)]
    # the ended rows keep their pre-reset next observation; the rows after
    # them start from the reset one
    for end in (2, 7):
        np.testing.assert_array_equal(batch.next_obs[end], [3.0, 1.5, 1.0, -1.0])
        np.testing.assert_array_equal(batch.obs[end + 1], [0.0, 0.0, 1.0, -1.0])

    vnet = _RowValueNet()
    compute_advantages(batch, vnet, cfg)
    want_adv, want_ret = _per_segment_advantages(batch, vnet, cfg.gamma, cfg.lam_gae, cfg.n_envs)
    np.testing.assert_array_equal(batch.advantages, want_adv)
    np.testing.assert_array_equal(batch.returns, want_ret)
    # at a cut row the return is the reward plus the bootstrap: 0 at the
    # terminal, gamma * V(next_obs) at the truncation, which is not 0 here
    boot = cfg.gamma * vnet.value(batch.next_obs[7:8])[0]
    assert abs(boot) > 1.0
    assert batch.returns[2] == pytest.approx(3.0, abs=1e-12)
    assert batch.returns[7] == pytest.approx(3.0 + boot, abs=1e-12)


@pytest.mark.parametrize("short", ["envs_list", "env_rngs", "obs_cur"])
def test_collect_rollouts_rejects_counts_other_than_n_envs(short):
    # three envs under n_envs=4 used to collect 63 of 64 rows without a word
    net = init_velocity_net(26, 4, 2)
    nets = Stage2Nets(policy=net, value=init_value_net(26, 4), frozen=net.clone())
    cfg = Stage2Config(rollout_steps=64, n_envs=4)
    args = {
        "envs_list": [make_env("point-reach") for _ in range(4)],
        "env_rngs": [np.random.default_rng(e) for e in range(4)],
    }
    args["obs_cur"] = [env.reset(e) for e, env in enumerate(args["envs_list"])]
    args[short] = args[short][:3]
    with pytest.raises(ValueError, match=f"{short} has 3 entries but config.n_envs is 4"):
        collect_rollouts(nets, args["envs_list"], args["env_rngs"], args["obs_cur"], cfg)


def test_collect_rollouts_accumulates_declared_episode_return():
    net = init_velocity_net(23, 4, 2)
    nets = Stage2Nets(policy=net, value=init_value_net(23, 4), frozen=net.clone())
    cfg = Stage2Config(rollout_steps=60, n_envs=1)
    env = make_env("point-reach")
    assert env.episode_return == 0.0
    obs_cur = [env.reset(1)]
    batch, finished = collect_rollouts(nets, [env], [np.random.default_rng(0)], obs_cur, cfg)
    ends = np.flatnonzero(batch.dones)
    assert len(finished) == ends.size >= 1
    # the running sum restarts at each reset and carries the open episode forward
    assert finished[0][0] == sum(batch.rewards[: ends[0] + 1].tolist())
    assert env.episode_return == sum(batch.rewards[ends[-1] + 1 :].tolist())


def test_finetune_metrics_columns():
    from dmpo.ppo import METRIC_COLUMNS

    net = _pretrained()
    cfg = Stage2Config(iterations=1, seed=2, rollout_steps=64, n_envs=4)
    _, _, metrics = finetune(net, lambda: make_env("point-reach"), cfg)
    assert set(metrics[0]) == set(METRIC_COLUMNS)


def test_stage2_config_validation():
    with pytest.raises(ValueError):
        Stage2Config(gamma=1.0)
    with pytest.raises(ValueError):
        Stage2Config(clip_eps=0.0)
    with pytest.raises(ValueError):
        Stage2Config(sigma=0.0)
    with pytest.raises(ValueError):
        Stage2Config(lam_value=-1.0)


@pytest.mark.parametrize(
    "field", ["sigma", "lr", "clip_eps", "grad_clip", "lam_value", "lam_entropy", "lam_bc_init", "lam_bc_final"]
)
def test_stage2_config_rejects_nan(field):
    # each guard tests what must hold; a `<= 0` test let NaN through
    with pytest.raises(ValueError):
        Stage2Config(**{field: float("nan")})


@pytest.mark.parametrize("field", ["n_envs", "minibatch_size"])
def test_stage2_config_rejects_zero_envs_and_minibatch(field):
    # each zero used to pass and crash later inside finetune
    with pytest.raises(ValueError, match=">= 1"):
        Stage2Config(**{field: 0})


@pytest.mark.parametrize("lr", [0.0, -1.0])
def test_stage2_config_rejects_nonpositive_lr(lr):
    # a negative lr was accepted, and Adam then ascended the loss
    with pytest.raises(ValueError, match="lr must be > 0"):
        Stage2Config(lr=lr)


def test_stage2_config_rejects_negative_grad_clip():
    with pytest.raises(ValueError, match="grad_clip must be >= 0"):
        Stage2Config(grad_clip=-0.5)
    assert Stage2Config(grad_clip=0.0).grad_clip == 0.0  # 0 turns clipping off


def test_stage2_config_rejects_fewer_rollout_steps_than_envs():
    with pytest.raises(ValueError, match="rollout_steps must be >= n_envs"):
        Stage2Config(rollout_steps=4, n_envs=8)
    with pytest.raises(ValueError, match="rollout_steps must be >= n_envs"):
        Stage2Config(rollout_steps=0, n_envs=1)


def test_stage2_config_rejects_rollout_steps_not_a_multiple_of_envs():
    # 100 // 8 would collect 96 rows and drop 4 without a word
    with pytest.raises(ValueError, match=r"rollout_steps \(100\) must be a multiple of n_envs \(8\).*last 4 steps"):
        Stage2Config(rollout_steps=100, n_envs=8)
    assert Stage2Config(rollout_steps=96, n_envs=8).rollout_steps == 96


def test_c12a_config_minibatch_records_no_tape_and_the_taped_loss_tapes_32_nodes(monkeypatch):
    # K=1, fixed sigma: each minibatch runs on plain arrays, the weighted
    # total included, and never calls Graph.backward; the taped reference
    # stage2_loss still tapes every MLP layer as its matmul, add and tanh
    # nodes, every loss head as one fused node, and one trunk pass over
    # stacked rows
    net = _pretrained()
    tapes = []
    backward = Graph.backward

    def counted(self, output, seed=None):
        tapes.append([n.op for n in self.nodes])
        return backward(self, output, seed)

    monkeypatch.setattr(Graph, "backward", counted)
    cfg = Stage2Config(iterations=1, seed=0, lam_bc_init=0.1, lam_bc_final=0.1, bc_decay_start=0, bc_decay_end=1)
    mbs = _captured_minibatches(monkeypatch, net, cfg)
    assert len(mbs) == cfg.epochs * cfg.rollout_steps // cfg.minibatch_size
    assert tapes == []
    nets = Stage2Nets(policy=net, value=init_value_net(0, net.d_obs), frozen=net.clone())
    with Graph() as g:
        stage2_loss(mbs[0], nets, cfg, n=0)
    layer, out = ["matmul", "add", "tanh"], ["matmul", "add"]
    ops = (
        layer * 2 + ["concat", "concat"] + layer * 2 + out + ["split_rows"]
        + ["gauss_logpdf", "ppo_ratio", "clipped_pg"]
        + layer * 2 + out + ["reshape", "value_loss"]
        + ["bc_dist", "stage2_total"]
    )
    assert [n.op for n in g.nodes] == ops and len(ops) == 32


def test_finetune_nan_parameter_names_iteration_minibatch_and_op(monkeypatch):
    class PoisonAfterFirstStep(ppo_mod.Adam):
        def step(self):
            super().step()
            self.params[4].data[0, 0] = np.nan  # policy trunk0_w: the chain pass's first trunk layer

    monkeypatch.setattr(ppo_mod, "Adam", PoisonAfterFirstStep)
    cfg = Stage2Config(iterations=2, seed=0, rollout_steps=64, n_envs=4, minibatch_size=16)
    with pytest.raises(RuntimeError, match=r"fine-tuning diverged at iteration 0 minibatch 1: .*op 'dense'"):
        finetune(_pretrained(), lambda: make_env("point-reach"), cfg)


@pytest.mark.parametrize("sigma_learnable", [False, True])
def test_finetune_adam_lists_parameters_in_tape_leaf_order(monkeypatch, sigma_learnable):
    # clip_grad_norm's sum of squares rounds by entry order; Adam listing its
    # parameters in the order the taped loss first uses them keeps the
    # clipping norm equal to the one over the taped reference's gradients
    made, steps = [], []

    class Recorded(ppo_mod.Adam):
        def __init__(self, params, **kwargs):
            super().__init__(params, **kwargs)
            made.append(self)

        def step(self):
            steps.append(self.t)
            super().step()

    monkeypatch.setattr(ppo_mod, "Adam", Recorded)
    seen = []
    loss = ppo_mod.stage2_loss

    def spy(mb, nets, config, n, grads=None):
        seen.append((mb, nets, n))
        return loss(mb, nets, config, n, grads)

    monkeypatch.setattr(ppo_mod, "stage2_loss", spy)
    cfg = Stage2Config(iterations=1, seed=0, lam_bc_init=0.1, lam_bc_final=0.1, bc_decay_start=0,
                       bc_decay_end=1, sigma_learnable=sigma_learnable)
    finetune(_pretrained(), lambda: make_env("point-reach-shifted"), cfg)
    (opt,) = made
    assert len(opt.params) == 10 + 6 + sigma_learnable  # policy, value, log-sigma
    assert steps == list(range(cfg.epochs * cfg.rollout_steps // cfg.minibatch_size))
    mb, nets, n = seen[-1]
    with Graph() as g:
        total, _ = loss(mb, nets, cfg, n)
    assert list(g.backward(total)) == opt.params


def _perturbed_stage2(K, sigma_learnable, M, lam_bc, seed):
    # chains sampled at theta_old, then every parameter moved so rho != 1
    net = init_velocity_net(seed, 4, 2)
    rng = np.random.default_rng(seed)
    mb = _sampled_minibatch(net, M, K, 0.05, seed)
    mb.bc_target = ppo_mod.bc_target(net, mb.bc_noise, net.encode_arrays(mb.obs))
    policy = net.clone()
    value_net = init_value_net(seed, 4)
    for p in policy.parameters() + value_net.parameters():
        p.data[...] += 1e-3 * rng.standard_normal(p.data.shape)
    log_sigma = np.log(np.array([0.05, 0.04])) + 0.1 * rng.standard_normal(2)
    log_sigma = Tensor(log_sigma, requires_grad=True) if sigma_learnable else None
    nets = Stage2Nets(policy=policy, value=value_net, frozen=net, log_sigma=log_sigma)
    cfg = Stage2Config(K=K, sigma=0.05, sigma_learnable=sigma_learnable, lam_bc_init=lam_bc, lam_bc_final=lam_bc)
    return mb, nets, cfg


@pytest.mark.parametrize("sigma_learnable", [False, True])
def test_stage2_adam_grads_map_the_tape_leaves_to_views_of_the_gradient_buffer(sigma_learnable):
    # one gradient map for every step: Adam.grads has the keys Graph.backward
    # returns for the taped loss, in Adam.params order, each value that
    # parameter's slice of the flat buffer in the parameter's shape
    mb, nets, cfg = _perturbed_stage2(2, sigma_learnable, 16, 0.1, seed=5)
    with Graph() as g:
        total, _ = stage2_loss(mb, nets, cfg, n=0)
    taped = g.backward(total)
    opt = ppo_mod.stage2_optimizer(nets, cfg.lr)
    assert list(opt.grads) == opt.params == list(taped)
    opt._g[...] = np.arange(opt._g.size)
    lo = 0
    for p, view in opt.grads.items():
        assert view.shape == p.data.shape == taped[p].shape
        assert np.shares_memory(view, opt._g) and np.array_equal(view.ravel(), np.arange(lo, lo + view.size))
        lo += view.size
    assert lo == opt._g.size == opt.flat.size


@pytest.mark.parametrize("lam_bc", [0.0, 0.1])
@pytest.mark.parametrize("M", [64, 57])
@pytest.mark.parametrize("sigma_learnable", [False, True])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_stage2_step_equals_the_taped_step_bit_for_bit(K, sigma_learnable, M, lam_bc):
    mb, nets, cfg = _perturbed_stage2(K, sigma_learnable, M, lam_bc, seed=10 * K + M)
    with Graph() as g:
        total, parts = stage2_loss(mb, nets, cfg, n=0)
    taped = g.backward(total)
    opt = ppo_mod.stage2_optimizer(nets, cfg.lr)
    assert list(taped) == opt.params
    want = np.concatenate([taped[p].ravel() for p in opt.params])
    opt._g.fill(np.nan)
    got_total, got = stage2_loss(mb, nets, cfg, 0, opt.grads)
    assert type(got_total) is float and got_total == total.item() == got["total"]
    for k in ("pg", "v", "ent", "bc", "lambda_bc"):
        assert type(got[k]) is float and got[k] == parts[k], k
    assert np.array_equal(got["rho"], parts["rho"]) and np.any(got["rho"] != 1.0)
    assert np.array_equal(opt._g, want)
    assert got["bc"] != 0.0 and (got["pg"] != 0.0)


@pytest.mark.parametrize("name, learnable, op", [
    ("policy trunk0_w", False, "dense"),
    ("policy enc0_w", False, "dense"),
    ("value l1_b", False, "dense"),
    ("log_sigma", True, "exp"),
])
def test_finetune_non_finite_parameter_names_iteration_minibatch_and_op(monkeypatch, name, learnable, op):
    from dmpo.nets import ValueNet, VelocityNet

    # Adam lists log-sigma (when learnable), the policy's parameters, then the value net's
    if name == "log_sigma":
        index = 0
    else:
        net, param = name.split()
        names = VelocityNet.param_names if net == "policy" else ValueNet.param_names
        index = int(learnable) + (0 if net == "policy" else len(VelocityNet.param_names)) + names.index(param)

    class PoisonAfterFirstStep(ppo_mod.Adam):
        def step(self):
            super().step()
            if self.t == 1:
                self.params[index].data.flat[0] = np.nan

    monkeypatch.setattr(ppo_mod, "Adam", PoisonAfterFirstStep)
    cfg = Stage2Config(iterations=2, seed=0, rollout_steps=64, n_envs=4, minibatch_size=16, sigma_learnable=learnable)
    with pytest.raises(RuntimeError, match=rf"fine-tuning diverged at iteration 0 minibatch 1: .*op '{op}'"):
        finetune(_pretrained(), lambda: make_env("point-reach"), cfg)


_THREADED_FINETUNE = """
from dmpo import Stage1Config, Stage2Config, finetune, gen_demos, make_env, pretrain
from dmpo.nets import param_checksum

net = pretrain(gen_demos("point-reach", 6, seed=0), Stage1Config(epochs=5, seed=0))[0]
for K, learnable in ((1, False), (3, True)):
    cfg = Stage2Config(iterations=2, seed=1, K=K, sigma_learnable=learnable, rollout_steps=64, n_envs=4,
                       minibatch_size=16)
    policy, value, _ = finetune(net, lambda: make_env("point-reach"), cfg)
    print(K, param_checksum(policy), param_checksum(value))
"""


def test_finetune_checksums_do_not_depend_on_the_blas_thread_count():
    # the clipping norm's sum of squares has an order numpy's code fixes;
    # BLAS's ``g @ g`` splits the ~13.6k-entry gradient across threads, and
    # with it both runs here gave different checksums at 1 and 2 threads.
    # K=3 also runs the stacked (K+1) M-row trunk GEMMs.
    import dmpo

    env = dict(os.environ, PYTHONPATH=str(Path(dmpo.__file__).resolve().parent.parent))
    out = []
    for threads in ("1", "2"):
        run = subprocess.run([sys.executable, "-c", _THREADED_FINETUNE], env={**env, "OPENBLAS_NUM_THREADS": threads},
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        out.append(run.stdout.split())
    assert len(out[0]) == 6 and out[0] == out[1]


@pytest.mark.parametrize("name, learnable", [
    ("policy trunk0_w", False),
    ("policy enc0_b", False),
    ("value l1_w", False),
    ("log_sigma", True),
])
def test_finetune_non_finite_gradient_names_op_backward_and_the_parameter(monkeypatch, name, learnable):
    # a finite loss with an infinite gradient entry: the norm is inf, and
    # the run stops at that minibatch rather than one later at a forward op
    loss = ppo_mod.stage2_loss
    made = []

    def poisoned(mb, nets, config, n, grads=None):
        out = loss(mb, nets, config, n, grads)
        made.append(n)
        if len(made) == 2:
            net, _, param = name.partition(" ")
            p = nets.log_sigma if name == "log_sigma" else getattr(nets, net).params[param]
            grads[p].flat[-1] = np.inf
        return out

    monkeypatch.setattr(ppo_mod, "stage2_loss", poisoned)
    cfg = Stage2Config(iterations=2, seed=0, rollout_steps=64, n_envs=4, minibatch_size=16, sigma_learnable=learnable)
    match = rf"fine-tuning diverged at iteration 0 minibatch 1: .*op 'backward' in the gradient of {name}$"
    with pytest.raises(RuntimeError, match=match):
        finetune(_pretrained(), lambda: make_env("point-reach"), cfg)
    assert len(made) == 2


def test_finetune_stops_on_finite_gradients_whose_norm_overflows(monkeypatch):
    # two entries of 1e154: every entry is finite, but the clipping norm's
    # sum of squares overflows, so the run stops at that minibatch and
    # names the norm, there being no bad entry to name
    loss = ppo_mod.stage2_loss
    made = []

    def overflowing(mb, nets, config, n, grads=None):
        out = loss(mb, nets, config, n, grads)
        made.append(n)
        if len(made) == 2:
            grads[nets.policy.params["trunk0_w"]].flat[:2] = 1e154
        return out

    monkeypatch.setattr(ppo_mod, "stage2_loss", overflowing)
    cfg = Stage2Config(iterations=2, seed=0, rollout_steps=64, n_envs=4, minibatch_size=16)
    match = r"^fine-tuning diverged at iteration 0 minibatch 1: .*op 'backward' in a gradient norm of inf$"
    with pytest.raises(RuntimeError, match=match):
        finetune(_pretrained(), lambda: make_env("point-reach"), cfg)
    assert len(made) == 2


def test_finetune_rejects_a_policy_that_does_not_fit_the_env_before_any_reset(tmp_path):
    made = []

    def factory():
        made.append(make_env("point-reach"))
        return made[-1]

    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match=r"^net dims \(d_obs=2, d_a=2\) do not match env PointReach \(4, 2\)$"):
        finetune(init_velocity_net(0, 2, 2), factory, Stage2Config(iterations=1, seed=0), metrics_path=path)
    assert made and all(env._pos is None for env in made)  # no env was reset
    assert not path.exists()


_FAULTS_PER_ITERATION = """
import json, resource
from dmpo import ppo
from dmpo.envs import make_env
from dmpo.nets import init_velocity_net

marks = []
collect = ppo.collect_rollouts


def marked(*args, **kwargs):
    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return collect(*args, **kwargs)


ppo.collect_rollouts = marked
cfg = ppo.Stage2Config(iterations=6, seed=0, n_envs=8, rollout_steps=320, lam_bc_init=0.1, lam_bc_final=0.1,
                       bc_decay_start=0, bc_decay_end=1)
ppo.finetune(init_velocity_net(0, 4, 2), lambda: make_env("point-reach-shifted"), cfg)
marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print(json.dumps([b - a for a, b in zip(marks, marks[1:])]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are glibc's")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_finetune_iterations_after_the_first_take_few_page_faults(threads):
    # at glibc's defaults each minibatch's freed activations go back to the
    # kernel, and at one BLAS thread a 320-step iteration of the c12a config
    # took 1,700-2,200 minor faults re-reading them; at two threads a trim
    # threshold set alone took 50, where the defaults take 0
    import dmpo

    env = dict(os.environ, PYTHONPATH=str(Path(dmpo.__file__).resolve().parent.parent), OPENBLAS_NUM_THREADS=threads)
    run = subprocess.run([sys.executable, "-c", _FAULTS_PER_ITERATION], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    faults = json.loads(run.stdout)
    assert len(faults) == 6 and max(faults[1:]) < 50, faults


def test_keep_heap_resident_is_a_no_op_without_mallopt(monkeypatch):
    monkeypatch.setattr(ppo_mod.ctypes, "CDLL", lambda name: object())  # a C library without mallopt
    assert ppo_mod._keep_heap_resident() is False

    def no_library(name):
        raise OSError("no C library to open")

    monkeypatch.setattr(ppo_mod.ctypes, "CDLL", no_library)
    assert ppo_mod._keep_heap_resident() is False


@pytest.mark.parametrize("grad_clip", [1.0, 0.0])
def test_finetune_grad_norm_column_is_the_mean_pre_clip_norm(monkeypatch, tmp_path, grad_clip):
    # the norm clip_grad_norm returns before it scales; with clipping off
    # (a cap of inf) it is the norm of the gradient Adam steps with
    norms = []
    clip = ppo_mod.clip_grad_norm

    def clip_spy(g, max_norm):
        assert max_norm == (grad_clip or math.inf)
        norms.append(clip(g, max_norm))
        return norms[-1]

    monkeypatch.setattr(ppo_mod, "clip_grad_norm", clip_spy)
    cfg = Stage2Config(iterations=2, seed=1, rollout_steps=64, n_envs=4, minibatch_size=16, grad_clip=grad_clip)
    path = tmp_path / "stage2.csv"
    _, _, metrics = finetune(_pretrained(), lambda: make_env("point-reach"), cfg, metrics_path=path)
    per_iter = cfg.epochs * cfg.rollout_steps // cfg.minibatch_size
    assert len(norms) == 2 * per_iter and min(norms) > 0.0
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == list(ppo_mod.METRIC_COLUMNS) and ppo_mod.METRIC_COLUMNS[-1] == "grad_norm"
    for i, row in enumerate(rows):
        acc = 0.0  # summed in minibatch order, as the other loss columns are
        for norm in norms[i * per_iter : (i + 1) * per_iter]:
            acc += norm
        assert float(row["grad_norm"]) == metrics[i]["grad_norm"] == acc / per_iter
    if grad_clip:
        assert max(norms) > grad_clip  # the column is the norm before clipping


def test_finetune_loss_columns_are_minibatch_means_and_ratio_columns_row_means(monkeypatch):
    # pg, v, ent, bc and grad_norm: each minibatch's value summed in
    # minibatch order over the minibatch count; clip_frac and approx_kl: each
    # minibatch's clipped-row count and k3 KL sum, summed in minibatch order
    # over the row count. 60 rows in minibatches of 16 leave a 12-row last
    # one, so the two counts weigh minibatches differently; a learnable sigma
    # moves ent from minibatch to minibatch
    seen = []
    loss, clip = ppo_mod.stage2_loss, ppo_mod.clip_grad_norm

    def loss_spy(*args):
        total, parts = loss(*args)
        seen.append({k: parts[k] for k in ("pg", "v", "ent", "bc")} | {"rho": parts["rho"].copy()})
        return total, parts

    def clip_spy(g, max_norm):
        seen[-1]["grad_norm"] = clip(g, max_norm)
        return seen[-1]["grad_norm"]

    monkeypatch.setattr(ppo_mod, "stage2_loss", loss_spy)
    monkeypatch.setattr(ppo_mod, "clip_grad_norm", clip_spy)
    cfg = Stage2Config(iterations=2, seed=6, rollout_steps=60, n_envs=4, minibatch_size=16, sigma_learnable=True,
                       lam_bc_init=0.5, lam_bc_final=0.1, bc_decay_end=2)
    _, _, metrics = finetune(_pretrained(), lambda: make_env("point-reach"), cfg)
    per_iter = cfg.epochs * 4
    assert len(metrics) == 2 and len(seen) == 2 * per_iter
    for i, row in enumerate(metrics):
        mbs = seen[i * per_iter : (i + 1) * per_iter]
        assert [mb["rho"].size for mb in mbs] == [16, 16, 16, 12] * cfg.epochs
        for col in ("pg", "v", "ent", "bc", "grad_norm"):
            acc = 0.0
            for mb in mbs:
                acc += mb[col]
            assert row[col] == acc / per_iter, col
        hits, kl = 0, 0.0
        for mb in mbs:
            hits += int((np.abs(mb["rho"] - 1.0) > cfg.clip_eps).sum())
            kl += float(((mb["rho"] - 1.0) - np.log(mb["rho"])).sum())
        assert row["clip_frac"] == hits / (60 * cfg.epochs)
        assert row["approx_kl"] == kl / (60 * cfg.epochs)
        assert row["lambda_bc"] == bc_schedule(i, cfg) and row["iter"] == i
        assert 0.0 < row["clip_frac"] < 1.0 and row["approx_kl"] > 0.0 and row["bc"] > 0.0
    assert metrics[0]["ent"] != metrics[1]["ent"]


def _bandit_policy():
    return pretrain(gen_demos("modal-bandit", 20, seed=0), Stage1Config(epochs=20, seed=0))[0]


@pytest.mark.parametrize("kind", ["modal-bandit", "point-reach"])
def test_finetune_return_and_success_columns_cover_the_last_20_finished_episodes(monkeypatch, kind):
    # modal-bandit: 8 one-step episodes per iteration, so from the third
    # iteration the window reaches back into earlier ones; point-reach with
    # 16 steps per env and iteration: no episode of up to 40 steps has ended
    # after the first, and both columns read 0.0 there
    finished = []
    collect = ppo_mod.collect_rollouts

    def collect_spy(*args):
        batch, done = collect(*args)
        finished.append(list(done))
        return batch, done

    monkeypatch.setattr(ppo_mod, "collect_rollouts", collect_spy)
    net = _bandit_policy() if kind == "modal-bandit" else _pretrained()
    cfg = Stage2Config(iterations=5, seed=2, rollout_steps=8 if kind == "modal-bandit" else 64, n_envs=4, epochs=1)
    _, _, metrics = finetune(net, lambda: make_env(kind), cfg)
    so_far = []
    for row, done in zip(metrics, finished, strict=True):
        so_far += done
        window = so_far[-20:]
        returns = [r for r, _ in window]
        successes = [1.0 if s else 0.0 for _, s in window]
        assert row["mean_return"] == (float(np.mean(returns)) if window else 0.0)
        assert row["success_rate"] == (float(np.mean(successes)) if window else 0.0)
    if kind == "modal-bandit":
        assert [len(done) for done in finished] == [8] * 5
        assert 0.0 < metrics[-1]["success_rate"] < 1.0
    else:
        assert finished[0] == [] and metrics[0]["mean_return"] == metrics[0]["success_rate"] == 0.0
        assert len(so_far) >= 4


def test_finetune_metrics_csv_streams_the_one_pass_file(tmp_path):
    cfg = Stage2Config(iterations=3, seed=1, rollout_steps=64, n_envs=4, minibatch_size=16)
    path = tmp_path / "stage2.csv"
    _, _, rows = finetune(_pretrained(), lambda: make_env("point-reach"), cfg, metrics_path=path)
    assert len(rows) == 3
    assert path.read_bytes() == one_pass_metrics_csv(tmp_path / "ref.csv", ppo_mod.METRIC_COLUMNS, rows)


def test_diverged_finetune_keeps_the_rows_of_its_finished_iterations(monkeypatch, tmp_path):
    loss = ppo_mod.stage2_loss

    def failing(mb, nets, config, n, grads=None):
        if n == 1:
            raise FloatingPointError("non-finite values produced by op 'dense'")
        return loss(mb, nets, config, n, grads)

    monkeypatch.setattr(ppo_mod, "stage2_loss", failing)
    cfg = Stage2Config(iterations=3, seed=1, rollout_steps=64, n_envs=4, minibatch_size=16)
    path = tmp_path / "stage2.csv"
    with pytest.raises(RuntimeError, match=r"fine-tuning diverged at iteration 1 minibatch 0: .*op 'dense'"):
        finetune(_pretrained(), lambda: make_env("point-reach"), cfg, metrics_path=path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == list(ppo_mod.METRIC_COLUMNS)
    assert [row["iter"] for row in rows] == ["0"]


def test_learnable_sigma_mode():
    # optional per-dimension log-sigma head: entropy becomes differentiable
    net = init_velocity_net(20, 3, 2)
    vnet = init_value_net(20, 3)
    log_sigma = Tensor(np.log(np.full(2, 0.05)), requires_grad=True)
    nets = Stage2Nets(policy=net, value=vnet, frozen=net.clone(), log_sigma=log_sigma)
    cfg = Stage2Config(K=1, sigma=0.05, sigma_learnable=True)
    mb = _make_minibatch(net, K=1, sigma=0.05)
    with Graph() as g:
        total, parts = stage2_loss(mb, nets, cfg, n=0)
    grads = g.backward(total)
    assert log_sigma in grads
    assert np.all(np.isfinite(grads[log_sigma]))
    # fixed-sigma entropy value must match the closed form at the same sigma
    from dmpo.sampler import step_entropy

    assert parts["ent"] == pytest.approx(-1 * step_entropy(2, 0.05), abs=1e-12)


def test_learnable_sigma_gradient_matches_finite_differences():
    net = init_velocity_net(21, 3, 2, d_h=4, enc_width=4, trunk_width=4)
    vnet = init_value_net(21, 3, width=4)
    log_sigma = Tensor(np.log(np.array([0.05, 0.04])), requires_grad=True)
    nets = Stage2Nets(policy=net, value=vnet, frozen=net.clone(), log_sigma=log_sigma)
    cfg = Stage2Config(K=2, sigma=0.05, sigma_learnable=True)
    mb = _make_minibatch(net, K=2, sigma=0.05)
    with Graph() as g:
        total, _ = stage2_loss(mb, nets, cfg, n=0)
    grads = g.backward(total)
    orig = log_sigma.data.copy()

    def f(arr):
        log_sigma.data[...] = arr
        val, _ = stage2_loss(mb, nets, cfg, n=0)
        log_sigma.data[...] = orig
        return val.item()

    assert rel_err(grads[log_sigma], fd_grad(f, orig.copy()), floor=1e-6) < 1e-6


def test_stage2_loss_encodes_once_and_frozen_net_stays_off_the_tape(monkeypatch):
    net = init_velocity_net(22, 3, 2)
    frozen = net.clone()
    nets = Stage2Nets(policy=net, value=init_value_net(22, 3), frozen=frozen)
    cfg = Stage2Config(K=2, sigma=0.01)
    mb = _make_minibatch(net, K=2)
    from dmpo.nets import VelocityNet

    callers = []
    encode = VelocityNet.encode

    def counting_encode(self, obs):
        callers.append(self)
        return encode(self, obs)

    monkeypatch.setattr(VelocityNet, "encode", counting_encode)
    with Graph() as g:
        total, parts = stage2_loss(mb, nets, cfg, n=0)
    assert callers == [net]
    frozen_ids = {id(p) for p in frozen.parameters()}
    assert not any(id(p) in frozen_ids for node in g.nodes for p in node.parents)
    grads = g.backward(total)
    assert not frozen_ids & {id(p) for p in grads}
    # a sampled chain at unchanged parameters: rho == 1 and the BC term is 0
    assert parts["bc"] == 0.0
    np.testing.assert_allclose(parts["rho"], 1.0, atol=1e-10)


def test_finetune_learnable_sigma_runs():
    net = _pretrained()
    cfg = Stage2Config(iterations=2, seed=3, rollout_steps=64, n_envs=4, sigma_learnable=True)
    policy, _, metrics = finetune(net, lambda: make_env("point-reach"), cfg)
    assert len(metrics) == 2
