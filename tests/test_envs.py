import numpy as np
import pytest

from dmpo.envs import (
    Dataset,
    EnvError,
    ModalBandit,
    PointReach,
    _fma,
    _point_reach_expert_action,
    evaluate,
    gen_demos,
    make_env,
)
from dmpo.nets import init_velocity_net


def test_make_env_kinds():
    assert isinstance(make_env("point-reach"), PointReach)
    assert isinstance(make_env("modal-bandit"), ModalBandit)
    shifted = make_env("point-reach-shifted")
    np.testing.assert_allclose(shifted.goal_center, [0.7, 0.2])
    with pytest.raises(ValueError):
        make_env("nope")


def test_point_reach_deterministic_dynamics():
    env = PointReach()
    o1 = env.reset(3)
    o2 = PointReach().reset(3)
    np.testing.assert_array_equal(o1, o2)
    a = np.array([0.1, -0.05])
    s1 = env.step(a)
    env2 = PointReach()
    env2.reset(3)
    s2 = env2.step(a)
    np.testing.assert_array_equal(s1[0], s2[0])
    assert s1[1] == s2[1]


def test_point_reach_clamps_position_and_action():
    env = PointReach()
    env.reset(0)
    env._pos = np.array([0.95, 0.0])
    obs, _, _ = env.step(np.array([10.0, 0.0]))  # action clipped to 0.2
    assert obs[0] <= 1.0
    assert obs[0] == pytest.approx(1.0)


def test_point_reach_obstacle_penalty_is_dense():
    env = PointReach()
    env.reset(0)
    env._pos = np.array([-0.35, 0.0])
    env._goal = np.array([0.9, 0.0])
    _, r1, _ = env.step(np.array([0.2, 0.0]))  # lands at -0.15,0: inside obstacle
    dist = np.linalg.norm(np.array([-0.15, 0.0]) - env._goal)
    assert r1 == pytest.approx(-dist - 1.0)


def test_point_reach_success_bonus_and_termination():
    env = PointReach()
    env.reset(0)
    env._pos = np.array([0.6, 0.0])
    env._goal = np.array([0.7, 0.0])
    _, r, done = env.step(np.array([0.1, 0.0]))
    assert done and env.terminated and env.success
    assert r == pytest.approx(10.0)  # -0 distance + 10
    with pytest.raises(EnvError):
        env.step(np.zeros(2))


def test_point_reach_homotopy_classes():
    env = PointReach()
    env.reset(0)
    env._pos = np.array([-0.1, 0.4])
    env.homotopy_class = 0
    env.step(np.array([0.2, 0.0]))
    assert env.homotopy_class == 1

    env2 = PointReach()
    env2.reset(0)
    env2._pos = np.array([-0.1, -0.4])
    env2.homotopy_class = 0
    env2.step(np.array([0.2, 0.0]))
    assert env2.homotopy_class == -1


def test_fma_rounds_as_numpy_two_element_dot():
    # PointReach.step's distances are sqrt(_fma(d1, d1, d0*d0)), which must
    # round as np.linalg.norm's sqrt(d . d); x*x + y*y differs on about one
    # pair in six here
    rng = np.random.default_rng(29)
    pairs = rng.uniform(-2.5, 2.5, size=(100_000, 2)).tolist()
    pairs += [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0, 0], [np.nan, 0.5], [0.5, np.nan]]
    want = np.array([np.dot(d, d) for d in np.array(pairs)])
    got = np.array([_fma(d1, d1, d0 * d0) for d0, d1 in pairs])
    assert np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(want))
    naive = np.array([d0 * d0 + d1 * d1 for d0, d1 in pairs])
    assert np.sum(naive[:100_000] != want[:100_000]) > 10_000
    # a general product a . b as well, with mixed signs
    ab = rng.uniform(-2.5, 2.5, size=(20_000, 2, 2))
    want = np.array([np.dot(a, b) for a, b in ab])
    assert np.array_equal([_fma(a1, b1, a0 * b0) for (a0, a1), (b0, b1) in ab.tolist()], want)


class _ClipNormPointReach(PointReach):
    """Reference step: the clamps as ``np.clip`` and the distances as
    ``np.linalg.norm``."""

    def step(self, action):
        if self._done:
            raise EnvError("step() called on a finished episode; call reset()")
        a = np.clip(np.asarray(action, dtype=np.float64), self.action_low, self.action_high)
        prev = self._pos
        new = np.clip(prev + a, -1.0, 1.0)
        if self.homotopy_class == 0 and prev[0] < 0.0 <= new[0]:
            frac = (0.0 - prev[0]) / (new[0] - prev[0])
            y_cross = prev[1] + frac * (new[1] - prev[1])
            self.homotopy_class = 1 if y_cross > 0.0 else -1
        self._pos = new
        dist = float(np.linalg.norm(new - self._goal))
        contact = float(np.linalg.norm(new - self.OBSTACLE_CENTER)) <= self.OBSTACLE_RADIUS
        reached = dist < self.REACH_EPS
        reward = -dist + (10.0 if reached else 0.0) - (1.0 if contact else 0.0)
        self._t += 1
        self.terminated = reached
        self.truncated = (not reached) and self._t >= self.max_steps
        self._done = self.terminated or self.truncated
        return self._obs(), reward, self._done


def test_point_reach_step_matches_clip_norm_reference():
    rng = np.random.default_rng(21)
    seen = {"wall": 0, "action_clamp": 0, "contact": 0, "crossing": 0, "reach": 0, "truncated": 0}
    for ep in range(120):
        env, ref = PointReach((0.7, 0.2 * (ep % 2))), _ClipNormPointReach((0.7, 0.2 * (ep % 2)))
        np.testing.assert_array_equal(env.reset(ep), ref.reset(ep))
        side = 1 if ep % 2 else -1
        wild = ep % 3 == 0  # large random actions: wall and action clamps
        done = False
        while not done:
            if wild:
                action = rng.uniform(-0.6, 0.6, 2)
            else:
                action = _point_reach_expert_action(ref._pos, ref._goal, side) + rng.normal(0.0, 0.02, 2)
            got, want = env.step(action), ref.step(action)
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1] and got[2] == want[2]
            assert (env.terminated, env.truncated) == (ref.terminated, ref.truncated)
            assert env.homotopy_class == ref.homotopy_class
            done = want[2]
            seen["wall"] += bool(np.any(np.abs(want[0][:2]) == 1.0))
            seen["action_clamp"] += bool(np.any(np.abs(action) > 0.2))
            seen["contact"] += bool(np.linalg.norm(want[0][:2]) <= PointReach.OBSTACLE_RADIUS)
        seen["crossing"] += ref.homotopy_class != 0
        seen["reach"] += ref.terminated
        seen["truncated"] += ref.truncated
    assert min(seen.values()) > 0, seen


def test_point_reach_step_nan_action_matches_clip():
    env, ref = PointReach(), _ClipNormPointReach()
    env.reset(4)
    ref.reset(4)
    for action in ([np.nan, 0.1], [0.1, 0.1]):
        got, want = env.step(np.array(action)), ref.step(np.array(action))
        np.testing.assert_array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1], equal_nan=True) and got[2] == want[2]


def test_point_reach_step_at_clamp_edges_and_signed_zeros_matches_clip_norm_reference():
    # actions exactly at and just past the +-0.2 box, positions on the +-1.0
    # walls, and -0.0 components: the float comparisons give np.clip's
    # values, signed zeros included
    comps = [0.2, -0.2, 0.0, -0.0, 0.25, -0.25, np.nextafter(0.2, 1.0), 0.1]
    starts = [(1.0, -1.0), (-1.0, 1.0), (0.9, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.1, 0.4), (-0.1, -0.0), (0.65, 0.1)]
    for sx, sy in starts:
        for ax in comps:
            for ay in comps:
                env, ref = PointReach(), _ClipNormPointReach()
                env.reset(5)
                ref.reset(5)
                env._pos, ref._pos = np.array([sx, sy]), np.array([sx, sy])
                action = np.array([ax, ay])
                got, want = env.step(action), ref.step(action)
                assert got[0].tobytes() == want[0].tobytes()  # bitwise, so -0.0 != 0.0
                assert got[1] == want[1] and got[2] == want[2]
                assert (env.terminated, env.truncated, env.homotopy_class) == (
                    ref.terminated,
                    ref.truncated,
                    ref.homotopy_class,
                )


@pytest.mark.parametrize("env_cls", [PointReach, ModalBandit])
@pytest.mark.parametrize("action", [0.1, np.array([0.1]), np.zeros(3), np.zeros((1, 2))], ids=["scalar", "(1,)", "(3,)", "(1,2)"])
def test_step_rejects_actions_not_of_shape_2(env_cls, action):
    # a scalar or a (1,) action must not broadcast to both dimensions
    env = env_cls()
    env.reset(0)
    with pytest.raises(EnvError, match=r"action must have shape \(2,\)"):
        env.step(action)
    env.step(np.zeros(2))  # the rejected action left the episode as it was


def _clip_expert_action(pos, goal, side):
    """The expert as numpy arithmetic: the reference its float version keeps."""
    target = np.array([0.0, side * 0.55]) if pos[0] < -0.02 else goal
    return np.clip(target - pos, -0.2, 0.2)


def test_expert_action_matches_clip_reference():
    rng = np.random.default_rng(31)
    n = 100_000
    pos = rng.uniform(-1.0, 1.0, (n, 2))
    goal = rng.uniform(-1.0, 1.0, (n, 2))
    sides = rng.choice([-1, 1], n)
    # the waypoint switch, actions landing exactly on +-0.2, and NaN
    edges = [
        ((-0.02, 0.3), (0.5, 0.1), 1),
        ((-0.02, -0.0), (-0.0, 0.0), -1),
        ((np.nextafter(-0.02, -1.0), 0.35), (0.5, 0.1), 1),
        ((0.0, 0.0), (0.2, -0.2), 1),
        ((0.0, -0.0), (np.nextafter(0.2, 1.0), np.nextafter(-0.2, 0.0)), -1),
        ((0.0, 0.0), (-0.0, 0.0), 1),
        ((-0.5, 0.75), (0.5, 0.0), 1),
        ((0.0, 0.0), (np.nan, 0.1), 1),
        ((np.nan, 0.0), (0.1, 0.1), 1),
        ((-0.5, np.nan), (0.1, 0.1), -1),
        ((0.0, 0.0), (np.inf, -np.inf), 1),
    ]
    cases = [(p, g, int(s)) for p, g, s in zip(pos, goal, sides)]
    cases += [(np.array(p), np.array(g), s) for p, g, s in edges]
    for p, g, side in cases:
        got = _point_reach_expert_action(p, g, side)
        want = _clip_expert_action(p, g, side)
        assert got.shape == (2,) and got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), (p, g, side)  # bitwise: NaN and -0.0 included
    edge = _point_reach_expert_action(np.zeros(2), np.array([0.2, -0.2]), 1)
    assert edge.tolist() == [0.2, -0.2]


def test_expert_always_succeeds():
    # gen_demos drops failed expert episodes with a warning; demand 100/100
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any expert failure warning -> test failure
        ds = gen_demos("point-reach", 100, seed=123)
    assert len(np.unique(ds.episode_ids)) == 100


def test_modal_bandit_episode_length_one():
    env = ModalBandit()
    env.reset(0)
    _, _, done = env.step(np.zeros(2))
    assert done
    with pytest.raises(EnvError):
        env.step(np.zeros(2))


def test_modal_bandit_reward_is_mixture_logpdf():
    env = ModalBandit()
    obs = env.reset(5)
    mu1, mu2 = env.mixture_means(obs)
    a = mu1.copy()
    _, r, _ = env.step(a)
    s2 = env.MIX_SCALE**2
    d2 = float(np.sum((a - mu2) ** 2))
    want = np.log(
        0.5 * (1 / (2 * np.pi * s2)) * 1.0 + 0.5 * (1 / (2 * np.pi * s2)) * np.exp(-d2 / (2 * s2))
    )
    assert r == pytest.approx(want, rel=1e-9)


def test_expert_actions_cluster_at_mixture_means():
    ds = gen_demos("modal-bandit", 10_000, seed=0)
    env = ModalBandit()
    residuals = ds.actions - 0.5 * ds.obs
    plus = residuals[residuals[:, 0] > 0]
    minus = residuals[residuals[:, 0] <= 0]
    np.testing.assert_allclose(plus.mean(axis=0), env.MODE_OFFSET, atol=0.05)
    np.testing.assert_allclose(minus.mean(axis=0), -env.MODE_OFFSET, atol=0.05)


def test_expert_beats_uniform_on_bandit():
    rng = np.random.default_rng(0)
    env = ModalBandit()
    expert_r, random_r = [], []
    ds = gen_demos("modal-bandit", 200, seed=1)
    for i in range(200):
        env2 = ModalBandit()
        env2._obs_arr = ds.obs[i]
        env2._done = False
        _, r, _ = env2.step(ds.actions[i])
        expert_r.append(r)
        env3 = ModalBandit()
        env3._obs_arr = ds.obs[i]
        env3._done = False
        _, r, _ = env3.step(rng.uniform(-1.5, 1.5, 2))
        random_r.append(r)
    assert np.mean(expert_r) > np.mean(random_r)


def test_dataset_determinism():
    a = gen_demos("point-reach", 10, seed=9)
    b = gen_demos("point-reach", 10, seed=9)
    np.testing.assert_array_equal(a.obs, b.obs)
    np.testing.assert_array_equal(a.actions, b.actions)
    c = gen_demos("point-reach", 10, seed=10)
    assert not np.array_equal(a.obs, c.obs)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(3), np.zeros(3))


def test_dataset_rejects_columns_that_are_not_2d():
    # save_dataset writes one line per row of a 2-D column
    with pytest.raises(ValueError, match=r"obs and actions must be 2-D, got shapes \(3,\) and \(3, 2\)"):
        Dataset(np.zeros(3), np.zeros((3, 2)), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match=r"got shapes \(3, 2\) and \(3, 2, 1\)"):
        Dataset(np.zeros((3, 2)), np.zeros((3, 2, 1)), np.zeros(3), np.zeros(3))


def test_demo_sides_are_mixed():
    ds = gen_demos("point-reach", 40, seed=0)
    # episode-level side: sign of the y-target in the first action
    sides = []
    for ep in np.unique(ds.episode_ids):
        first = ds.actions[ds.episode_ids == ep][0]
        sides.append(np.sign(first[1]))
    sides = np.asarray(sides)
    assert np.sum(sides > 0) >= 10
    assert np.sum(sides < 0) >= 10


def test_evaluate_deterministic_and_nfe():
    net = init_velocity_net(0, 4, 2)
    r1 = evaluate(net, "point-reach", 5, 3, seed=4)
    r2 = evaluate(net, "point-reach", 5, 3, seed=4)
    assert r1 == r2
    assert r1.mean_nfe == 3.0


def test_evaluate_random_net_near_zero_success():
    net = init_velocity_net(1, 4, 2)
    res = evaluate(net, "point-reach", 20, 1, seed=6)
    assert res.success_rate <= 0.1


@pytest.mark.parametrize("n", [0, -1])
def test_evaluate_rejects_no_episodes(n):
    net = init_velocity_net(0, 4, 2)
    with pytest.raises(ValueError, match=f"n_episodes must be >= 1, got {n}"):
        evaluate(net, "point-reach", n, 1, seed=0)


def test_evaluate_dim_mismatch():
    net = init_velocity_net(0, 3, 2)
    with pytest.raises(ValueError):
        evaluate(net, "point-reach", 2, 1, seed=0)
