import numpy as np
import pytest

from dmpo.autodiff import Tensor
from dmpo.envs import gen_demos
from dmpo.meanflow import Stage1Config, pretrain
from dmpo.nets import init_velocity_net
from dmpo.ppo import Stage2Config
from dmpo.sampler import (
    LOG_2PI,
    DenoiseChain,
    chain_logprob,
    chain_logprob_traced,
    flow_times,
    gaussian_logpdf,
    policy_entropy,
    sample_chain_batch,
    sample_deterministic,
    sample_stochastic,
    step_entropy,
)


class _ConstNet:
    """velocity == u0 regardless of inputs; counts evaluations."""

    d_obs = 2
    d_a = 2

    def __init__(self, u0):
        self.u0 = np.asarray(u0, dtype=np.float64)
        self.calls = 0

    def encode_arrays(self, obs):
        return np.zeros((obs.shape[0], 1))

    def velocity_arrays(self, z, r, tau, h):
        self.calls += 1
        return np.broadcast_to(self.u0, z.shape).copy()


class _AffineNet:
    """velocity == z - c: one-step action is exactly c."""

    d_obs = 2
    d_a = 2

    def __init__(self, c):
        self.c = np.asarray(c, dtype=np.float64)

    def encode_arrays(self, obs):
        return np.zeros((obs.shape[0], 1))

    def velocity_arrays(self, z, r, tau, h):
        return z - self.c


def _taus(K):
    """tau_0 .. tau_K as ``flow_times(K)`` gives them: step k's (r, tau) is
    (tau_{k+1}, tau_k)."""
    times = flow_times(K)
    assert all(r == tau for (r, _), (_, tau) in zip(times, times[1:]))
    return np.array([times[0][1]] + [r for r, _ in times])


def test_schedule_endpoints_and_monotonicity():
    for K in (1, 2, 5, 20, 128):
        taus = _taus(K)
        assert taus[0] == 1.0
        assert taus[-1] == 0.0
        assert np.all(np.diff(taus) < 0)
    with pytest.raises(ValueError):
        flow_times(0)


def test_flow_times_are_the_uniform_grid():
    for K in range(1, 129):
        taus = (K - np.arange(K + 1)) / K  # the grid's formula
        times = flow_times(K)
        assert times == tuple(zip(taus[1:].tolist(), taus[:-1].tolist()))
        assert all(type(t) is float for step in times for t in step)
        assert flow_times(np.int64(K)) is times  # one cached tuple per K


def test_flow_times_checks_K_before_its_cache():
    # the cache would take True and 1.0 for its key 1
    assert flow_times(1) == ((0.0, 1.0),)
    for K in (0, True, 1.0):
        with pytest.raises(ValueError, match=f"K must be an integer >= 1, got {K!r}"):
            flow_times(K)


def test_constant_velocity_telescoping_exact():
    # dyadic constant: u/K is exact and the Euler sum rounds at most once
    net = _ConstNet([1.0, -0.5])
    rng_state = 42
    a1, _ = sample_deterministic(net, np.zeros(2), 1, np.random.default_rng(rng_state))
    a128, _ = sample_deterministic(net, np.zeros(2), 128, np.random.default_rng(rng_state))
    np.testing.assert_array_equal(a1, a128)


def test_constant_velocity_telescoping_all_k():
    net = _ConstNet([0.37, -1.21])
    ref, _ = sample_deterministic(net, np.zeros(2), 1, np.random.default_rng(7))
    for K in (2, 3, 5, 20, 64, 127, 128):
        aK, _ = sample_deterministic(net, np.zeros(2), K, np.random.default_rng(7))
        assert np.max(np.abs(aK - ref)) < 1e-12


def test_one_step_inverts_affine_net():
    net = _AffineNet([0.3, -0.7])
    for seed in range(5):
        a, _ = sample_deterministic(net, np.zeros(2), 1, np.random.default_rng(seed))
        np.testing.assert_allclose(a, net.c, atol=1e-14)


def test_one_step_action_equals_traced_forward():
    net = init_velocity_net(15, 4, 2)
    obs = np.random.default_rng(15).normal(size=(10, 4))
    for seed in range(10):
        z = np.random.default_rng(seed).standard_normal((1, 2))
        o = Tensor(obs[seed : seed + 1])
        u = net.velocity(Tensor(z), Tensor(np.zeros((1, 1))), Tensor(np.ones((1, 1))), obs=o)
        a, nfe = sample_deterministic(net, obs[seed], 1, np.random.default_rng(seed))
        assert nfe == 1
        np.testing.assert_array_equal(a, (z - u.data)[0])


@pytest.fixture(scope="module")
def pretrained_reach_net():
    net, _ = pretrain(gen_demos("point-reach", 10, 0), Stage1Config(epochs=5, seed=0))
    return net


def _row_walk(net, obs, K, rng):
    """The K-step walk on (1, d) rows: the reference for the unbatched path."""
    h = net.encode_arrays(obs.reshape(1, -1))
    z = rng.standard_normal((1, net.d_a))
    for k in range(K):
        z = z - (1.0 / K) * net.velocity_arrays(z, (K - k - 1) / K, (K - k) / K, h)
    return z[0]


@pytest.mark.parametrize("K", [1, 2, 5, 20])
def test_unbatched_action_equals_row_walk(pretrained_reach_net, K):
    net = pretrained_reach_net
    obs = np.random.default_rng(100 + K).normal(size=(100, net.d_obs))
    rng, ref_rng = np.random.default_rng(K), np.random.default_rng(K)
    for o in obs:
        a, nfe = sample_deterministic(net, o, K, rng)
        assert nfe == K and a.shape == (net.d_a,)
        assert a.flags.owndata and not np.shares_memory(a, o)
        assert np.array_equal(a, _row_walk(net, o, K, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_unbatched_velocity_equals_one_row_call(pretrained_reach_net):
    # compared with a (1, d) call only: rows of a multi-row call may round
    # differently (see the sampler module docstring)
    net = pretrained_reach_net
    rng = np.random.default_rng(3)
    for r, tau in [(0.0, 1.0), (0.25, 0.5), (0.5, 0.5)]:
        for _ in range(20):
            z, o = rng.normal(size=net.d_a), rng.normal(size=net.d_obs)
            h = net.encode_arrays(o)
            h_row = net.encode_arrays(o.reshape(1, -1))
            assert h.shape == (net.d_h,) and np.array_equal(h, h_row[0])
            u = net.velocity_arrays(z, r, tau, h)
            assert u.shape == (net.d_a,)
            assert np.array_equal(u, net.velocity_arrays(z.reshape(1, -1), r, tau, h_row)[0])


def test_deterministic_observation_shapes():
    net = init_velocity_net(16, 4, 2)
    obs = np.random.default_rng(16).normal(size=4)
    a, _ = sample_deterministic(net, obs, 2, np.random.default_rng(0))
    a_row, _ = sample_deterministic(net, obs.reshape(1, 4), 2, np.random.default_rng(0))
    assert np.array_equal(a, a_row)
    assert np.array_equal(obs, np.random.default_rng(16).normal(size=4))  # input untouched
    for bad in (np.zeros(5), np.zeros(3), np.zeros((2, 4)), np.zeros((4, 1)), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="d_obs=4") as err:
            sample_deterministic(net, bad, 1, np.random.default_rng(0))
        assert str(bad.shape) in str(err.value)


def test_chain_observation_shapes():
    # a mis-sized observation gets a named error on both stochastic entry
    # points, and a 1-D observation of length E is not broadcast to E rows
    net = init_velocity_net(16, 4, 2)
    rngs = [np.random.default_rng(e) for e in range(4)]
    for bad in (np.zeros((3, 5)), np.zeros((4, 3)), np.zeros(4), np.zeros((3, 4)), np.zeros((1, 4, 1))):
        with pytest.raises(ValueError, match=r"d_obs\) = \(4, 4\)") as err:
            sample_chain_batch(net, bad, 1, 0.1, rngs)
        assert str(bad.shape) in str(err.value)
    assert [r.bit_generator.state for r in rngs] == [np.random.default_rng(e).bit_generator.state for e in range(4)]
    for bad in (np.zeros(5), np.zeros(3), np.zeros((2, 4))):
        with pytest.raises(ValueError, match=r"d_obs\) = \(1, 4\)"):
            sample_stochastic(net, bad, 1, 0.1, np.random.default_rng(0))
    sample_chain_batch(net, np.zeros((4, 4)), 2, 0.1, rngs)
    sample_stochastic(net, np.zeros(4), 2, 0.1, np.random.default_rng(0))
    # one observation is exactly (d_obs,) or (1, d_obs), never another shape
    # with d_obs entries, on both single-chain entry points
    chain = sample_stochastic(net, np.arange(4.0), 2, 0.1, np.random.default_rng(0))
    for bad in (np.zeros((2, 2)), np.zeros((4, 1)), np.zeros((1, 1, 4)), np.zeros(5), np.zeros((1, 5))):
        with pytest.raises(ValueError, match=r"d_obs\) = \(1, 4\)") as err:
            sample_stochastic(net, bad, 2, 0.1, np.random.default_rng(0))
        assert str(bad.shape) in str(err.value)
        with pytest.raises(ValueError, match=r"d_obs\) = \(1, 4\)") as err:
            chain_logprob(net, chain, bad, 0.1)
        assert str(bad.shape) in str(err.value)
    row = sample_stochastic(net, np.arange(4.0)[None], 2, 0.1, np.random.default_rng(0))
    assert np.array_equal(row.states, chain.states)
    assert chain_logprob(net, chain, np.arange(4.0), 0.1) == chain_logprob(net, chain, np.arange(4.0)[None], 0.1)


_NAN_SIGMAS = [float("nan"), np.array([0.1, np.nan])]


@pytest.mark.parametrize("sigma", _NAN_SIGMAS, ids=["scalar", "per-dim"])
@pytest.mark.parametrize(
    "entry",
    ["sample_stochastic", "sample_chain_batch", "chain_logprob", "gaussian_logpdf", "step_entropy", "policy_entropy"],
)
def test_nan_sigma_is_rejected(entry, sigma):
    # the check tests sigma > 0, what must hold, so a NaN fails it (a
    # `sigma <= 0` test let it through to NaN actions and log-probs)
    net = init_velocity_net(16, 2, 2)
    chain = sample_stochastic(net, np.zeros(2), 1, 0.1, np.random.default_rng(0))
    calls = {
        "sample_stochastic": lambda: sample_stochastic(net, np.zeros(2), 1, sigma, np.random.default_rng(0)),
        "sample_chain_batch": lambda: sample_chain_batch(net, np.zeros((1, 2)), 1, sigma, [np.random.default_rng(0)]),
        "chain_logprob": lambda: chain_logprob(net, chain, np.zeros(2), sigma),
        "gaussian_logpdf": lambda: gaussian_logpdf(np.zeros(2), np.zeros(2), sigma),
        "step_entropy": lambda: step_entropy(2, sigma),
        "policy_entropy": lambda: policy_entropy(1, 2, sigma),
    }
    with pytest.raises(ValueError, match="sigma must be positive"):
        calls[entry]()


def test_deterministic_times_equal_schedule():
    class _TimeLog(_ConstNet):
        def velocity_arrays(self, z, r, tau, h):
            self.times.append((r, tau))
            return super().velocity_arrays(z, r, tau, h)

    for K in (1, 2, 3, 5, 7, 10, 49, 128):
        net = _TimeLog([0.1, 0.1])
        net.times = []
        sample_deterministic(net, np.zeros(2), K, np.random.default_rng(0))
        taus = _taus(K)
        assert net.times == [(taus[k + 1], taus[k]) for k in range(K)]
        # the chain sampler passes the same float times
        net.times = []
        sample_chain_batch(net, np.zeros((1, 2)), K, 0.1, [np.random.default_rng(0)])
        assert net.times == [(taus[k + 1], taus[k]) for k in range(K)]


def test_deterministic_rejects_k_below_one():
    net = _ConstNet([0.1, 0.1])
    with pytest.raises(ValueError):
        sample_deterministic(net, np.zeros(2), 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_chain_batch(net, np.zeros((1, 2)), 0, 0.1, [np.random.default_rng(0)])
    assert net.calls == 0


@pytest.mark.parametrize("K", [1, 5, 20])
def test_nfe_equals_k(K):
    net = _ConstNet([0.1, 0.1])
    _, nfe = sample_deterministic(net, np.zeros(2), K, np.random.default_rng(0))
    assert nfe == K
    assert net.calls == K

    net2 = _ConstNet([0.1, 0.1])
    chain = sample_stochastic(net2, np.zeros(2), K, 0.01, np.random.default_rng(0))
    assert chain.nfe_used == K
    assert net2.calls == K


def test_stochastic_sigma_zero_limit_matches_deterministic():
    net = init_velocity_net(5, 3, 2)
    obs = np.random.default_rng(1).normal(size=3)
    for K in (1, 7):
        det, _ = sample_deterministic(net, obs, K, np.random.default_rng(11))
        chain = sample_stochastic(net, obs, K, 1e-12, np.random.default_rng(11))
        assert np.max(np.abs(chain.action - det)) < 1e-9


def test_recorded_means_match_recompute():
    net = init_velocity_net(6, 3, 2)
    obs = np.random.default_rng(2).normal(size=3)
    K = 4
    chain = sample_stochastic(net, obs, K, 0.05, np.random.default_rng(3))
    taus = _taus(K)
    h = net.encode_arrays(obs.reshape(1, -1))
    for k in range(K):
        u = net.velocity_arrays(chain.states[k].reshape(1, -1), taus[k + 1], taus[k], h)
        mu = chain.states[k] - (1.0 / K) * u[0]
        np.testing.assert_array_equal(chain.means[k], mu)


def test_noise_scale_monte_carlo():
    # std of a^1 - mu_0 over 1e5 scalar draws at sigma = 0.01 -> within 5%
    net = _ConstNet([0.0, 0.0])
    rngs = [np.random.default_rng(s) for s in range(100)]
    draws = []
    for _ in range(500):
        chains = sample_chain_batch(net, np.zeros((100, 2)), 1, 0.01, rngs)
        draws.extend(chains.states[:, 1] - chains.means[:, 0])
    flat = np.concatenate(draws)
    assert flat.size == 100_000
    assert abs(flat.std() - 0.01) < 0.0005


def test_chain_logprob_closed_form_at_mean():
    net = init_velocity_net(8, 3, 2)
    obs = np.random.default_rng(4).normal(size=3)
    chain = sample_stochastic(net, obs, 1, 0.01, np.random.default_rng(5))
    forced = DenoiseChain(
        states=np.stack([chain.states[0], chain.means[0]]),
        means=chain.means.copy(),
        sigma=chain.sigma.copy(),
        logprob_terms=chain.logprob_terms.copy(),
        total_logprob=chain.total_logprob,
        prior_logprob=chain.prior_logprob,
        nfe_used=1,
    )
    lp = chain_logprob(net, forced, obs, 0.01)
    assert lp == pytest.approx(-np.log(2 * np.pi * 1e-4), abs=1e-9)


def test_logprob_quadratic_scaling():
    mu = np.zeros(3)
    sigma = 0.01
    x = np.array([0.01, -0.02, 0.005])
    base = gaussian_logpdf(mu, mu, sigma)
    lp1 = gaussian_logpdf(x, mu, sigma)
    lp2 = gaussian_logpdf(2 * x, mu, sigma)
    # doubling the offset adds -3 ||x - mu||^2 / (2 sigma^2)
    want = (lp1 - base) * 4
    assert (lp2 - base) == pytest.approx(want, rel=1e-12)


def test_fresh_chain_logprob_is_sum_of_terms():
    net = init_velocity_net(9, 3, 2)
    obs = np.random.default_rng(6).normal(size=3)
    chain = sample_stochastic(net, obs, 5, 0.02, np.random.default_rng(7))
    assert chain.total_logprob == pytest.approx(float(np.sum(chain.logprob_terms)), abs=1e-12)
    recomputed = chain_logprob(net, chain, obs, 0.02)
    assert recomputed == pytest.approx(chain.total_logprob, abs=1e-12)


def test_entropy_closed_forms():
    assert step_entropy(1, 1.0) == pytest.approx(0.5 * (1 + np.log(2 * np.pi)), abs=1e-12)
    assert step_entropy(2, 0.01) == pytest.approx(1 + np.log(2 * np.pi * 1e-4), abs=1e-12)
    assert policy_entropy(7, 2, 0.01) == pytest.approx(7 * step_entropy(2, 0.01), abs=1e-12)


def test_entropy_independent_of_parameters():
    # depends on (K, d_a, sigma) only
    assert policy_entropy(3, 4, 0.5) == policy_entropy(3, 4, 0.5)
    assert policy_entropy(3, 4, 0.5) != policy_entropy(3, 4, 0.6)


def test_sigma_validation():
    net = _ConstNet([0.0, 0.0])
    with pytest.raises(ValueError):
        sample_stochastic(net, np.zeros(2), 1, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        step_entropy(2, -1.0)
    with pytest.raises(ValueError):
        policy_entropy(0, 2, 0.1)


def test_batched_chains_match_single():
    net = init_velocity_net(10, 3, 2)
    obs = np.random.default_rng(8).normal(size=(3, 3))
    rngs = [np.random.default_rng(100 + e) for e in range(3)]
    chains = sample_chain_batch(net, obs, 4, 0.05, rngs)
    for e in range(3):
        solo = sample_stochastic(net, obs[e], 4, 0.05, np.random.default_rng(100 + e))
        assert np.max(np.abs(chains.states[e] - solo.states)) < 1e-12
        assert chains.total_logprobs[e] == pytest.approx(solo.total_logprob, abs=1e-10)


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("sigma", [0.01, np.array([0.02, 0.07])])
def test_sampled_logprobs_equal_traced_walk_exactly(K, sigma):
    net = init_velocity_net(11, 3, 2)
    obs = np.random.default_rng(9).normal(size=(32, 3))
    chains = sample_chain_batch(net, obs, K, sigma, [np.random.default_rng(300 + e) for e in range(32)])
    sig = Tensor(np.broadcast_to(sigma, (2,)).astype(np.float64))
    traced = chain_logprob_traced(net, chains.states, obs, sig, K).data
    np.testing.assert_array_equal(chains.total_logprobs, traced)

    chain = sample_stochastic(net, obs[0], K, sigma, np.random.default_rng(300))
    assert chain_logprob(net, chain, obs[0], sigma) == chain.total_logprob


def _chain_batch_per_draw(net, obs, K, sigma, rngs):
    """Reference: a^0, then each xi_k, drawn separately from each env's
    generator, with the times from ``flow_times``."""
    taus = _taus(K)
    d_a = net.d_a
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (d_a,))
    h = net.encode_arrays(obs)
    a = np.stack([rng.standard_normal(d_a) for rng in rngs])
    states, means, terms = [a], [], []
    for k in range(K):
        u = net.velocity_arrays(a, float(taus[k + 1]), float(taus[k]), h)
        mu = a - (1.0 / K) * u
        xi = np.stack([rng.standard_normal(d_a) for rng in rngs])
        a = mu + sig * xi
        diff = (a - mu) / sig
        states.append(a)
        means.append(mu)
        terms.append(-0.5 * np.sum(LOG_2PI + 2.0 * np.log(sig) + diff * diff, axis=-1))
    total = terms[0].copy()
    for t in terms[1:]:
        total += t
    return np.stack(states, axis=1), np.stack(means, axis=1), np.stack(terms, axis=1), total


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("sigma", [0.05, np.array([0.02, 0.1])])
def test_chain_batch_draws_match_per_step_draws(K, sigma):
    net = init_velocity_net(16, 3, 2)
    obs = np.random.default_rng(16).normal(size=(8, 3))
    rngs = [np.random.default_rng(500 + e) for e in range(8)]
    ref_rngs = [np.random.default_rng(500 + e) for e in range(8)]
    for _ in range(3):  # the streams carry over between batches
        got = sample_chain_batch(net, obs, K, sigma, rngs)
        want = _chain_batch_per_draw(net, obs, K, sigma, ref_rngs)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
    # each generator is left where the per-step draws leave it: the next env
    # reset seed is the same
    assert [r.integers(2**63) for r in rngs] == [r.integers(2**63) for r in ref_rngs]


def _K_entry_points(K):
    net = init_velocity_net(12, 3, 2)
    obs = np.zeros((2, 3))
    rngs = [np.random.default_rng(e) for e in range(2)]
    # K+1 recorded steps for an integer K; a float K gets any shape, since
    # the K check comes first
    states = np.zeros((2, K + 1 if isinstance(K, (int, np.integer)) else 3, 2))
    sigma = Tensor(np.full(2, 0.1))
    return {
        "sample_deterministic": lambda: sample_deterministic(net, obs[0], K, np.random.default_rng(0)),
        "sample_chain_batch": lambda: sample_chain_batch(net, obs, K, 0.1, rngs),
        "chain_logprob_traced": lambda: chain_logprob_traced(net, states, obs, sigma, K),
        # the grid, under the name of the builder it replaced, so the test ids stay
        "make_schedule": lambda: flow_times(K),
        "Stage2Config": lambda: Stage2Config(K=K),
    }


@pytest.mark.parametrize("K", [True, 1.0, 2.0, 0, -1], ids=repr)
@pytest.mark.parametrize("entry", list(_K_entry_points(1)))
def test_K_must_be_an_integer_of_at_least_one(entry, K):
    # a bool or a float K used to return an action (True, 1.0) or fail
    # inside ``range`` with a bare TypeError (2.0)
    with pytest.raises(ValueError, match=f"K must be an integer >= 1, got {K!r}"):
        _K_entry_points(K)[entry]()


@pytest.mark.parametrize("K", [np.int64(2), np.int32(1), 2])
@pytest.mark.parametrize("entry", list(_K_entry_points(1)))
def test_K_accepts_python_and_numpy_integers(entry, K):
    _K_entry_points(K)[entry]()


@pytest.mark.parametrize("K, steps", [(1, 3), (2, 2), (3, 5)])
def test_chain_logprob_traced_rejects_states_without_K_plus_1_steps(K, steps):
    # a K=2 chain scored with K=1 used to score its first transition and
    # ignore the rest
    net = init_velocity_net(12, 3, 2)
    states = np.zeros((2, steps, 2))
    with pytest.raises(ValueError, match=rf"states must hold K\+1 = {K + 1} steps for K={K}, got shape \(2, {steps}, 2\)"):
        chain_logprob_traced(net, states, np.zeros((2, 3)), Tensor(np.full(2, 0.1)), K)
