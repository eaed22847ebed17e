"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 10-12 run real (seeded) training; the whole module is the slowest
part of the test suite by design. Run alone with:
    pytest tests/test_acceptance.py -v -s
"""

import csv
import time

import numpy as np
import pytest

import dmpo.autodiff as ad
from dmpo.autodiff import Graph, Tensor, jvp
from dmpo.cli import main
from dmpo.dispersive import cov_loss, effective_rank, hinge, nce_cos, nce_l2
from dmpo.envs import Dataset, evaluate, gen_demos, make_env
from dmpo.io import save_checkpoint
from dmpo.meanflow import (
    Stage1Batch,
    Stage1Config,
    interpolate,
    mf_loss,
    pretrain,
    target_velocity,
)
from dmpo.nets import init_value_net, init_velocity_net, param_checksum
from dmpo.ppo import (
    MiniBatch,
    Stage2Config,
    Stage2Nets,
    bc_loss,
    bc_schedule,
    clipped_pg_loss,
    finetune,
    gae,
    stage2_loss,
)
from dmpo.sampler import sample_deterministic, sample_stochastic, step_entropy

from helpers import fd_grad, rel_err


def _report(num, msg):
    print(f"ACCEPTANCE {num:>2} PASS: {msg}")


# ---------------------------------------------------------------------------
# 1. JVP correctness


def test_c01_jvp_matches_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        d_in = int(rng.integers(2, 6))
        d_hid = int(rng.integers(3, 9))
        d_out = int(rng.integers(1, 4))
        w1 = rng.uniform(-1, 1, (d_in, d_hid))
        b1 = rng.uniform(-1, 1, d_hid)
        w2 = rng.uniform(-1, 1, (d_hid, d_out))

        def f(x):
            return ad.softplus(ad.tanh(x @ Tensor(w1) + Tensor(b1))) @ Tensor(w2)

        def f_np(x):
            return np.logaddexp(0.0, np.tanh(x @ w1 + b1)) @ w2

        x = rng.uniform(-2, 2, d_in)
        t = rng.uniform(-2, 2, d_in)
        _, tan = jvp(f, [x], [t])
        eps = 1e-5
        want = (f_np(x + eps * t) - f_np(x - eps * t)) / (2 * eps)
        worst = max(worst, rel_err(tan.data, want, floor=1e-6))
    elapsed = time.time() - t0
    assert worst < 1e-4
    assert elapsed < 5.0
    _report(1, f"jvp vs central FD on 100 random nets: max rel err {worst:.2e} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. gradient correctness


def _fd_all_params(net, loss_fn):
    worst = 0.0
    with Graph() as g:
        loss = loss_fn()
    grads = g.backward(loss)
    for p in net.parameters():
        orig = p.data.copy()

        def f(arr, p=p, orig=orig):
            p.data[...] = arr
            v = loss_fn().item()
            p.data[...] = orig
            return v

        worst = max(worst, rel_err(grads[p], fd_grad(f, orig.copy()), floor=1e-6))
    return worst


def test_c02_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0

    # mf_loss with the stop-gradded target held fixed
    net = init_velocity_net(202, 2, 2, d_h=3, enc_width=4, trunk_width=4)
    batch = Stage1Batch(
        rng.normal(size=(4, 2)), 0.2 * rng.normal(size=(4, 2)), rng.standard_normal((4, 2)),
        rng.uniform(0, 0.3, 4), rng.uniform(0.4, 1.0, 4),
    )
    v = batch.noise - batch.actions
    z = interpolate(batch.actions, batch.noise, batch.tau[:, None])
    u_tgt = target_velocity(net, z, batch.r, batch.tau, batch.obs, v)
    worst = max(worst, _fd_all_params(net, lambda: mf_loss(net, batch, u_tgt=u_tgt)))

    # all four dispersive losses w.r.t. the embedding batch
    H0 = rng.normal(size=(4, 3))
    for loss_fn in (lambda H: nce_l2(H, 0.5), lambda H: nce_cos(H, 0.5),
                    lambda H: hinge(H, 1.0), lambda H: cov_loss(H)):
        H = Tensor(H0.copy(), requires_grad=True)
        with Graph() as g:
            out = loss_fn(H)
        grads = g.backward(out)
        worst = max(worst, rel_err(grads[H], fd_grad(lambda a: loss_fn(a).item(), H0.copy()),
                                   floor=1e-6))

    # stage-2 loss (pg + value + bc components together)
    policy = init_velocity_net(203, 2, 2, d_h=3, enc_width=4, trunk_width=4)
    value = init_value_net(203, 2, width=4)
    cfg = Stage2Config(K=1, sigma=0.05)
    nets = Stage2Nets(policy=policy, value=value, frozen=policy.clone())
    states, old_lp = [], []
    obs = rng.normal(size=(4, 2))
    for i in range(4):
        ch = sample_stochastic(policy, obs[i], 1, 0.05, np.random.default_rng(300 + i))
        states.append(ch.states)
        old_lp.append(ch.total_logprob)
    mb = MiniBatch(obs=obs, states=np.stack(states), old_logprobs=np.array(old_lp),
                   advantages=rng.normal(size=4), returns=rng.normal(size=4),
                   bc_noise=rng.standard_normal((4, 2)))

    def stage2_total():
        total, _ = stage2_loss(mb, nets, cfg, n=0)
        return total

    for net_ in (policy, value):
        worst = max(worst, _fd_all_params(net_, stage2_total))

    elapsed = time.time() - t0
    assert worst < 1e-3
    assert elapsed < 30.0
    _report(2, f"backward vs FD for mf/dispersive/stage2 losses: max rel err {worst:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. MeanFlow identity plumbing


class _IdentityVelocity:
    def encode(self, obs):
        data = obs.data if isinstance(obs, Tensor) else obs
        return Tensor(np.zeros((data.shape[0], 1)))

    def velocity(self, z, r, tau, obs=None, h=None):
        return z


def test_c03_meanflow_identity_plumbing():
    rng = np.random.default_rng(303)
    net = init_velocity_net(303, 3, 2)
    obs = rng.normal(size=(8, 3))
    act = rng.normal(size=(8, 2))
    eps = rng.standard_normal((8, 2))
    tau = rng.uniform(0.1, 0.95, 8)
    v = eps - act
    z = interpolate(act, eps, tau[:, None])
    u_tgt = target_velocity(net, z, tau, tau, obs, v)
    np.testing.assert_array_equal(u_tgt, v)

    ident = _IdentityVelocity()
    r2 = rng.uniform(0, 0.5, 8)
    tau2 = rng.uniform(0.5, 1.0, 8)
    z2 = rng.normal(size=(8, 2))
    v2 = rng.normal(size=(8, 2))
    got = target_velocity(ident, z2, r2, tau2, obs, v2)
    want = (1.0 - (tau2 - r2))[:, None] * v2
    assert np.max(np.abs(got - want)) < 1e-10
    hand = target_velocity(ident, np.array([[0.4]]), np.array([0.3]), np.array([0.8]),
                           np.array([[0.0]]), np.array([[1.0]]))
    assert abs(hand[0, 0] - 0.5) < 1e-10
    _report(3, "r==tau gives u_tgt == eps - a exactly; identity-net case matches (1-(tau-r))v")


# ---------------------------------------------------------------------------
# 4. sampler algebra


class _CountingConstNet:
    d_obs = 2
    d_a = 2

    def __init__(self, u0):
        self.u0 = np.asarray(u0, float)
        self.calls = 0

    def encode_arrays(self, obs):
        return np.zeros((obs.shape[0], 1))

    def velocity_arrays(self, z, r, tau, h):
        self.calls += 1
        return np.broadcast_to(self.u0, z.shape).copy()


def test_c04_sampler_algebra():
    net = _CountingConstNet([1.0, -0.5])
    a1, nfe1 = sample_deterministic(net, np.zeros(2), 1, np.random.default_rng(4))
    a128, nfe128 = sample_deterministic(net, np.zeros(2), 128, np.random.default_rng(4))
    np.testing.assert_array_equal(a1, a128)
    assert (nfe1, nfe128) == (1, 128)

    for K in (1, 5, 20):
        counting = _CountingConstNet([0.2, 0.1])
        _, nfe = sample_deterministic(counting, np.zeros(2), K, np.random.default_rng(0))
        assert nfe == K == counting.calls
        counting2 = _CountingConstNet([0.2, 0.1])
        chain = sample_stochastic(counting2, np.zeros(2), K, 0.01, np.random.default_rng(0))
        assert chain.nfe_used == K == counting2.calls

    real = init_velocity_net(44, 3, 2)
    obs = np.random.default_rng(5).normal(size=3)
    for K in (1, 4):
        det, _ = sample_deterministic(real, obs, K, np.random.default_rng(44))
        sto = sample_stochastic(real, obs, K, 1e-12, np.random.default_rng(44))
        assert np.max(np.abs(sto.action - det)) < 1e-9
    _report(4, "constant-velocity K=1 == K=128 exactly; NFE == K; sigma->0 matches deterministic")


# ---------------------------------------------------------------------------
# 5. log-prob closed forms


def test_c05_logprob_closed_forms():
    net = init_velocity_net(55, 3, 2)
    obs = np.random.default_rng(6).normal(size=3)
    chain = sample_stochastic(net, obs, 1, 0.01, np.random.default_rng(7))
    from dmpo.sampler import DenoiseChain, chain_logprob

    forced = DenoiseChain(
        states=np.stack([chain.states[0], chain.means[0]]),
        means=chain.means, sigma=chain.sigma, logprob_terms=chain.logprob_terms,
        total_logprob=chain.total_logprob, prior_logprob=chain.prior_logprob, nfe_used=1,
    )
    got = chain_logprob(net, forced, obs, 0.01)
    assert abs(got - (-np.log(2 * np.pi * 1e-4))) < 1e-9
    assert abs(step_entropy(1, 1.0) - 0.5 * (1 + np.log(2 * np.pi))) < 1e-12
    _report(5, "K=1 at-mean chain term == -ln(2 pi 1e-4); unit-sigma step entropy == 0.5(1+ln 2 pi)")


# ---------------------------------------------------------------------------
# 6. GAE oracle equivalence


def test_c06_gae_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(1, 65))
        r = rng.normal(size=T)
        v = rng.normal(size=T + 1)
        d = (rng.random(T) < 0.15).astype(float)
        gamma = rng.uniform(0.0, 1.0)
        lam = rng.uniform(0.0, 1.0)
        adv, ret = gae(r, v, d, gamma, lam)

        delta = r + gamma * v[1:] * (1 - d) - v[:-1]
        want = np.zeros(T)
        for t in range(T):
            acc, scale = 0.0, 1.0
            for ell in range(T - t):
                acc += scale * delta[t + ell]
                if d[t + ell]:
                    break
                scale *= gamma * lam
            want[t] = acc
        worst = max(worst, float(np.max(np.abs(adv - want))))
        np.testing.assert_allclose(ret, adv + v[:-1], atol=1e-12)
    assert worst < 1e-10
    _report(6, f"backward recursion == truncated double-sum on 1000 episodes: max abs err {worst:.1e}")


# ---------------------------------------------------------------------------
# 7. PPO surrogate algebra


def test_c07_ppo_surrogate_algebra():
    rng = np.random.default_rng(707)
    adv = rng.normal(size=256)
    at_one = clipped_pg_loss(np.ones(256), adv, 0.2).item()
    assert at_one == pytest.approx(float(np.mean(-adv)), abs=1e-12)

    assert clipped_pg_loss(np.array([2.0]), np.array([1.0]), 0.2).item() == -max(-2.0, -1.2) * -1
    assert clipped_pg_loss(np.array([2.0]), np.array([1.0]), 0.2).item() == -1.2
    assert clipped_pg_loss(np.array([0.5]), np.array([-1.0]), 0.2).item() == 0.8

    rho = np.exp(rng.normal(0, 1.5, size=100_000))
    a = rng.normal(size=100_000)
    clipped = np.maximum(-a * rho, -a * np.clip(rho, 0.8, 1.2))
    unclipped = -a * rho
    assert np.all(clipped >= unclipped - 1e-15)
    _report(7, "rho=1 loss == mean(-A); hand cases exact; clipped >= unclipped on 1e5 samples")


# ---------------------------------------------------------------------------
# 8. dispersive hand values


def test_c08_dispersive_hand_values():
    assert abs(nce_l2(np.zeros((2, 1)), 1.0).item() - 0.0) < 1e-10
    assert abs(nce_l2(np.array([[0.0], [1.0]]), 1.0).item() - (-1.5)) < 1e-10
    assert abs(hinge(np.array([[0.0, 0.0], [0.4, 0.0]]), 1.0).item() - 0.6) < 1e-10
    assert abs(cov_loss(np.array([[1.0, 1.0], [-1.0, -1.0]])).item() - 4.0) < 1e-10
    anti = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert abs(nce_cos(anti, 1.0).item() - (-2.0)) < 1e-10
    same = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert abs(nce_cos(same, 1.0).item() - 0.0) < 1e-10

    rng = np.random.default_rng(808)
    H = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    for loss in (lambda x: nce_l2(x, 0.7), lambda x: nce_cos(x, 0.7),
                 lambda x: hinge(x, 1.1), cov_loss):
        assert abs(loss(H[perm]).item() - loss(H).item()) < 1e-10
    _report(8, "nce-l2 {0, -1.5}, hinge 0.6, cov 4.0, nce-cos {-2, 0} exact; permutation invariant")


# ---------------------------------------------------------------------------
# 9. BC schedule and freeze


def test_c09_bc_schedule_and_freeze():
    cfg = Stage2Config(lam_bc_init=1.0, lam_bc_final=0.0, bc_decay_start=20, bc_decay_end=60)
    assert bc_schedule(0, cfg) == 1.0
    assert bc_schedule(40, cfg) == pytest.approx(0.5, abs=1e-15)
    assert bc_schedule(60, cfg) == 0.0
    assert bc_schedule(1000, cfg) == 0.0

    net = init_velocity_net(909, 4, 2)
    noise = np.random.default_rng(9).standard_normal((5, 2))
    obs = np.random.default_rng(10).normal(size=(5, 4))
    assert bc_loss(net, net.clone(), obs, noise).item() == 0.0

    before = param_checksum(net)
    run_cfg = Stage2Config(iterations=5, seed=0, rollout_steps=64, n_envs=4)
    finetune(net, lambda: make_env("point-reach"), run_cfg)
    assert param_checksum(net) == before
    _report(9, "three-branch schedule exact; bc_loss(identical)==0; frozen params bit-identical")


# ---------------------------------------------------------------------------
# 10. one-step fitting smoke


def test_c10_single_demo_one_step_fit():
    t0 = time.time()
    obs = np.array([[0.3, -0.2, 0.5, 0.1]])
    act = np.array([[0.12, -0.07]])
    ds = Dataset(obs, act, np.array([0]), np.array([0]))
    # one parameter update per epoch on the tiled batch -> 2000 steps total
    cfg = Stage1Config(epochs=2000, batch_size=64, alpha_disp=0.0, seed=0)
    net, metrics = pretrain(ds, cfg)
    assert metrics[-1]["step"] == 2000
    elapsed = time.time() - t0
    a, _ = sample_deterministic(net, obs[0], 1, np.random.default_rng(42))
    err = float(np.max(np.abs(a - act[0])))
    assert err < 0.05
    assert elapsed < 10.0
    _report(10, f"single-demo one-step L-inf err {err:.4f} after 2000 steps in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 11. collapse-prevention direction


@pytest.mark.slow
def test_c11_collapse_prevention_direction():
    bandit = gen_demos("modal-bandit", 512, seed=0)
    probe = bandit.obs[:256]
    medians = {}
    for alpha in (0.0, 0.1):
        d_effs = []
        for seed in range(5):
            cfg = Stage1Config(epochs=400, alpha_disp=alpha, seed=seed)
            net, _ = pretrain(bandit, cfg)
            d_effs.append(effective_rank(net.encode_arrays(probe)))
        medians[alpha] = float(np.median(d_effs))
    assert medians[0.1] > medians[0.0]

    reach = gen_demos("point-reach", 40, seed=0)
    covered = 0
    for seed in range(5):
        cfg = Stage1Config(epochs=400, alpha_disp=0.1, seed=seed)
        net, _ = pretrain(reach, cfg)
        res = evaluate(net, "point-reach", 50, 1, seed=500 + seed)
        if res.mode_coverage[0] > 0 and res.mode_coverage[1] > 0:
            covered += 1
    assert covered >= 4
    _report(11, f"median d_eff {medians[0.1]:.0f} (alpha=0.1) > {medians[0.0]:.0f} (alpha=0); "
                f"both homotopy classes in {covered}/5 seeds")


# ---------------------------------------------------------------------------
# 12. fine-tuning beyond demonstrations


@pytest.fixture(scope="module")
def shifted_task_baseline():
    reach = gen_demos("point-reach", 40, seed=0)
    net, _ = pretrain(reach, Stage1Config(epochs=400, seed=0))
    base = evaluate(net, "point-reach-shifted", 50, 1, seed=777)
    return net, base


def _finetune_arm(net, lam_bc, seed):
    cfg = Stage2Config(
        iterations=200, seed=seed, lam_bc_init=lam_bc, lam_bc_final=lam_bc,
        bc_decay_start=0, bc_decay_end=1,
    )
    policy, _, _ = finetune(net, lambda: make_env("point-reach-shifted"), cfg)
    return evaluate(policy, "point-reach-shifted", 50, 1, seed=777)


@pytest.mark.slow
def test_c12a_ppo_bc_improves_return(shifted_task_baseline):
    t0 = time.time()
    net, base = shifted_task_baseline
    improved = 0
    results = []
    for seed in range(5):
        after = _finetune_arm(net, 0.1, seed)
        results.append(after.mean_return)
        improved += after.mean_return > base.mean_return
    elapsed = time.time() - t0
    assert improved >= 4
    assert elapsed < 600
    _report(12, f"(a) PPO+BC lambda=0.1: return improved in {improved}/5 seeds "
                f"({base.mean_return:.1f} -> {np.mean(results):.1f} mean) in {elapsed:.0f}s")


@pytest.mark.slow
def test_c12b_no_bc_collapses_below_baseline(shifted_task_baseline):
    # Known-red by design at the shipped configuration (the one where 12a
    # holds): with the task's +-0.2 action box and sigma = 0.01, the
    # lambda=0.1 BC term is ~0.1% of the policy-gradient norm, so toggling it
    # cannot change training outcomes, and the dense distance reward always
    # provides a recovery gradient - the no-BC arm stays as healthy as the BC
    # arm at any learning rate where the BC arm improves. The ablation story
    # does reproduce once lambda is scaled ~10-100x (BC rescues the
    # aggressive-lr regime at lambda 1-10), i.e. the mechanism is real but
    # lambda = 0.1 is mis-scaled for this action range.
    # Measured here: baseline success 0.56; no-BC arm [0.76, 0.84, 0.86, 0.88,
    # 0.72] (0/5 below); BC arm [0.90, 0.76, 0.84, 0.88, 0.76].
    # Action normalization alone does not flip this check while 12a holds. A
    # probe wrapped point-reach(-shifted) so the policy acts in normalized
    # units, pre-trained on normalized demo actions, evaluated through the
    # same wrapper, all other settings shipped:
    #   normalizer        sigma  lr    base  lambda=0.1 (12a)        lambda=0 (12b)
    #   per-dim min/max   0.01   2e-5  0.54  0.36-0.46, 12a breaks   4/5 below
    #   box +-0.2 -> +-1  0.05   2e-5  0.40  0.56-0.82               0/5 below (0.64-0.78)
    #   box               0.05   1e-4  0.40  0.62-0.94               0/5 below (0.54-0.92)
    #   box               0.10   1e-4  0.40  0.92-1.00               0/5 below (0.98-1.00)
    # The one passing setting degraded both arms; where BC carries weight the
    # no-BC arm still improves, because the dense per-step distance reward
    # keeps it stable. Whether the criterion or the task is at fault is not
    # settled by the spec, so the assertion stays as written.
    net, base = shifted_task_baseline
    below = 0
    finals = []
    for seed in range(5):
        after = _finetune_arm(net, 0.0, seed)
        finals.append(after.success_rate)
        below += after.success_rate < base.success_rate
    if below >= 3:
        _report(12, f"(b) no-BC ablation: success below baseline in {below}/5 seeds")
    else:
        print(f"ACCEPTANCE 12 FAIL: (b) no-BC success {finals} vs baseline "
              f"{base.success_rate}: only {below}/5 below (known-red, see test comment)")
    assert below >= 3, (
        f"no-BC success rates {finals} vs baseline {base.success_rate}: "
        f"only {below}/5 below; unattainable at this action scale (see test comment)"
    )


# ---------------------------------------------------------------------------
# 13. NFE speedup accounting


def test_c13_nfe_speedup_accounting(tmp_path):
    net = init_velocity_net(13, 4, 2)
    ck = tmp_path / "bench_ck.json"
    save_checkpoint(ck, {"policy": net})
    out = tmp_path / "bench.csv"
    assert main(["bench", "--checkpoint", str(ck), "--env", "point-reach",
                 "-K", "1,2,5,20", "--samples", "120", "--warmup", "15", "--csv", str(out)]) == 0
    with open(out) as f:
        rows = {int(r["K"]): r for r in csv.DictReader(f)}
    assert all(int(rows[k]["nfe"]) == k for k in (1, 2, 5, 20))
    nfe_ratio = int(rows[20]["nfe"]) / int(rows[1]["nfe"])
    assert nfe_ratio == 20.0
    medians = [float(rows[k]["median_ms"]) for k in (1, 2, 5, 20)]
    assert all(b >= a for a, b in zip(medians, medians[1:]))
    wall_ratio = medians[-1] / medians[0]
    assert wall_ratio >= 5.0
    _report(13, f"NFE ratio exactly 20:1; medians nondecreasing in K; wall ratio {wall_ratio:.1f}x >= 5")
