"""Desk-scale continuous-control tasks, scripted experts, and evaluation.

Two environments cover the two training stages' failure modes:

* ``PointReach`` — 2-D navigation around an obstacle disc to a sampled goal.
  The expert demonstrates two homotopy classes (above/below the obstacle),
  making the demonstration distribution genuinely multimodal. A variant with
  the goal-sampling region shifted by +0.2 in y is the RL fine-tuning
  testbed: demonstrations alone cannot solve it well.
* ``ModalBandit`` — a single-step contextual task whose expert actions come
  from a two-component Gaussian mixture with observation-dependent means;
  reward is the log-density of the executed action under the true mixture.
  It isolates representation collapse without sequential credit assignment.

``PointReach.step`` and the point-reach expert run on Python floats, at a
fraction of the cost of numpy calls on 2-vectors, and stay bitwise equal to
the ``np.clip`` and ``np.linalg.norm`` arithmetic: ``step``'s distances
come from ``_fma``, an exact fused multiply-add that rounds as numpy's
2-element dot (for any finite or non-finite operands: outside TwoProduct's
exact domain it takes numpy's dot itself).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sampler import sample_deterministic


class EnvError(RuntimeError):
    """Protocol misuse (step after done) or invalid environment input."""


@dataclass
class Dataset:
    """Offline demonstration pairs with episode/timestep metadata."""

    obs: np.ndarray  # (N, d_obs)
    actions: np.ndarray  # (N, d_a)
    episode_ids: np.ndarray  # (N,)
    ts: np.ndarray  # (N,)

    def __post_init__(self):
        self.obs = np.asarray(self.obs, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        self.episode_ids = np.asarray(self.episode_ids, dtype=np.int64)
        self.ts = np.asarray(self.ts, dtype=np.int64)
        if self.obs.ndim != 2 or self.actions.ndim != 2:
            raise ValueError(f"obs and actions must be 2-D, got shapes {self.obs.shape} and {self.actions.shape}")
        n = self.obs.shape[0]
        if n == 0:
            raise ValueError("dataset must be nonempty")
        if not (self.actions.shape[0] == self.episode_ids.shape[0] == self.ts.shape[0] == n):
            raise ValueError("dataset arrays have inconsistent lengths")

    def __len__(self):
        return self.obs.shape[0]


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant for doubles


def _fma(a: float, b: float, c: float) -> float:
    """``a * b + c`` with one rounding, on Python floats, as numpy's
    2-element dot ``[c, a] . [1, b]`` rounds it.

    Dekker's TwoProduct writes ``a * b`` exactly as ``p + e``, and
    ``math.fsum`` rounds the exact sum ``p + e + c`` once. That is exact
    while no step overflows and ``a * b`` is 0 or at least ``2**-960`` in
    magnitude, above where ``e`` would underflow. Outside that domain (an
    overflow shows as a non-finite sum or fsum's ``OverflowError``; a tiny
    or NaN product fails the test) the value is numpy's dot itself."""
    p = a * b
    if p >= 2.0**-960 or p <= -2.0**-960 or a == 0.0 or b == 0.0:
        t = _SPLIT * a
        ah = t - (t - a)
        al = a - ah
        t = _SPLIT * b
        bh = t - (t - b)
        bl = b - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        try:
            s = math.fsum((p, e, c))
        except OverflowError:
            s = math.inf
        if s - s == 0.0:  # finite
            return s
    with np.errstate(all="ignore"):
        return float(np.dot((c, a), (1.0, b)))


def _checked_action(action, d_a):
    """``action`` as a float64 array; any shape but ``(d_a,)`` is an error,
    not a broadcast to every dimension."""
    a = np.asarray(action, dtype=np.float64)
    if a.shape != (d_a,):
        raise EnvError(f"action must have shape ({d_a},), got {a.shape}")
    return a


class PointReach:
    """Velocity-controlled point agent; obstacle disc at the origin.

    Observation is [agent_x, agent_y, goal_x, goal_y]. Reward each step is
    the negative post-move distance to goal, +10 on reaching within 0.05
    (terminates), and a dense -1 penalty while touching the obstacle.
    Positions are clamped to [-1, 1]^2 and actions to [-0.2, 0.2]^2.
    """

    d_obs = 4
    d_a = 2
    action_low = np.array([-0.2, -0.2])
    action_high = np.array([0.2, 0.2])
    max_steps = 40

    START = np.array([-0.75, 0.0])
    START_JITTER = 0.05
    OBSTACLE_CENTER = np.array([0.0, 0.0])
    OBSTACLE_RADIUS = 0.3
    GOAL_HALF_WIDTH = 0.15
    REACH_EPS = 0.05

    def __init__(self, goal_center=(0.7, 0.0)):
        self.goal_center = np.asarray(goal_center, dtype=np.float64)
        self._pos = None
        self._goal = None
        self._t = 0
        self._done = True
        self.terminated = False
        self.truncated = False
        self.homotopy_class = 0  # +1 above, -1 below, 0 if never crossed x=0
        self.episode_return = 0.0  # running return, accumulated by the caller

    @property
    def success(self) -> bool:
        return self.terminated

    def reset(self, seed: int | None = None) -> np.ndarray:
        rng = np.random.default_rng(seed)
        self._pos = self.START + rng.uniform(-self.START_JITTER, self.START_JITTER, 2)
        self._goal = self.goal_center + rng.uniform(-self.GOAL_HALF_WIDTH, self.GOAL_HALF_WIDTH, 2)
        self._t = 0
        self._done = False
        self.terminated = False
        self.truncated = False
        self.homotopy_class = 0
        self.episode_return = 0.0
        return self._obs()

    def _obs(self) -> np.ndarray:
        return np.concatenate([self._pos, self._goal])

    def step(self, action):
        if self._done:
            raise EnvError("step() called on a finished episode; call reset()")
        a0, a1 = _checked_action(action, self.d_a).tolist()
        # The move runs on Python floats, with each clamp as comparisons that
        # give np.clip's values and let NaN through as it does.
        lo0, lo1 = self.action_low.tolist()
        hi0, hi1 = self.action_high.tolist()
        p0, p1 = self._pos.tolist()
        x = p0 + (lo0 if a0 < lo0 else (hi0 if a0 > hi0 else a0))
        y = p1 + (lo1 if a1 < lo1 else (hi1 if a1 > hi1 else a1))
        x = -1.0 if x < -1.0 else (1.0 if x > 1.0 else x)
        y = -1.0 if y < -1.0 else (1.0 if y > 1.0 else y)
        if self.homotopy_class == 0 and p0 < 0.0 <= x:
            frac = (0.0 - p0) / (x - p0)
            y_cross = p1 + frac * (y - p1)
            self.homotopy_class = 1 if y_cross > 0.0 else -1
        self._pos = np.array([x, y])
        # the distances are np.linalg.norm's sqrt(d . d), and numpy's
        # 2-element dot rounds as fma(d1, d1, d0*d0), which neither
        # x*x + y*y nor math.hypot reproduces; the obstacle centre is the
        # origin, so (x, y) is the contact vector as it is
        g0, g1 = self._goal.tolist()
        d0, d1 = x - g0, y - g1
        dist = math.sqrt(_fma(d1, d1, d0 * d0))
        contact = math.sqrt(_fma(y, y, x * x)) <= self.OBSTACLE_RADIUS
        reached = dist < self.REACH_EPS
        reward = -dist + (10.0 if reached else 0.0) - (1.0 if contact else 0.0)
        self._t += 1
        self.terminated = reached
        self.truncated = (not reached) and self._t >= self.max_steps
        self._done = self.terminated or self.truncated
        return np.array([x, y, g0, g1]), reward, self._done


class ModalBandit:
    """One-step contextual task with a bimodal expert action distribution.

    Mixture means are mu+-(o) = 0.5 o +- (0.6, 0), component scale 0.1.
    Reward is the log-density of the executed action under the mixture.
    """

    d_obs = 2
    d_a = 2
    action_low = np.array([-1.5, -1.5])
    action_high = np.array([1.5, 1.5])
    max_steps = 1

    MODE_OFFSET = np.array([0.6, 0.0])
    MIX_SCALE = 0.1

    def __init__(self):
        self._obs_arr = None
        self._done = True
        self.terminated = False
        self.truncated = False
        self.success = False
        self.mode_used = 0  # +1 / -1: the mixture component nearest the action
        self.episode_return = 0.0  # running return, accumulated by the caller

    def mixture_means(self, obs):
        base = 0.5 * np.asarray(obs, dtype=np.float64)
        return base + self.MODE_OFFSET, base - self.MODE_OFFSET

    def reset(self, seed: int | None = None) -> np.ndarray:
        rng = np.random.default_rng(seed)
        self._obs_arr = rng.uniform(-1.0, 1.0, 2)
        self._done = False
        self.terminated = False
        self.truncated = False
        self.success = False
        self.mode_used = 0
        self.episode_return = 0.0
        return self._obs_arr.copy()

    def _log_mixture(self, a):
        mu1, mu2 = self.mixture_means(self._obs_arr)
        s2 = self.MIX_SCALE**2
        lp = []
        for mu in (mu1, mu2):
            d = a - mu
            lp.append(-np.log(2.0 * np.pi * s2) - float(d @ d) / (2.0 * s2))
        m = max(lp)
        return m + float(np.log(0.5 * (np.exp(lp[0] - m) + np.exp(lp[1] - m))))

    def step(self, action):
        if self._done:
            raise EnvError("step() called on a finished episode; call reset()")
        a = np.clip(_checked_action(action, self.d_a), self.action_low, self.action_high)
        reward = self._log_mixture(a)
        mu1, mu2 = self.mixture_means(self._obs_arr)
        d1, d2 = np.linalg.norm(a - mu1), np.linalg.norm(a - mu2)
        self.mode_used = 1 if d1 <= d2 else -1
        self.success = min(d1, d2) < 0.3
        self.terminated = True
        self.truncated = False
        self._done = True
        return self._obs_arr.copy(), float(reward), True


ENV_KINDS = ("point-reach", "point-reach-shifted", "modal-bandit")


def make_env(kind: str):
    if kind == "point-reach":
        return PointReach()
    if kind == "point-reach-shifted":
        return PointReach(goal_center=(0.7, 0.2))
    if kind == "modal-bandit":
        return ModalBandit()
    raise ValueError(f"unknown env kind {kind!r}; expected one of {ENV_KINDS}")


# ---------------------------------------------------------------------------
# scripted experts and demonstration generation


def _point_reach_expert_action(pos, goal, side):
    """Waypoint controller: swing above/below the obstacle, then home in.

    Runs on Python floats, as ``PointReach.step`` does: each component of
    ``target - pos`` is clamped to [-0.2, 0.2] with the comparisons that give
    ``np.clip``'s values and let NaN through."""
    p0, p1 = pos.tolist()
    if p0 < -0.02:
        t0, t1 = 0.0, side * 0.55
    else:
        t0, t1 = goal.tolist()
    d0, d1 = t0 - p0, t1 - p1
    return np.array([
        -0.2 if d0 < -0.2 else (0.2 if d0 > 0.2 else d0),
        -0.2 if d1 < -0.2 else (0.2 if d1 > 0.2 else d1),
    ])


def gen_demos(env_kind: str, n_episodes: int, seed: int) -> Dataset:
    """Roll out the scripted expert; failed expert episodes are dropped with
    a warning (never happens for the shipped geometry)."""
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    master = np.random.default_rng(seed)
    obs_rows, act_rows, ep_rows, t_rows = [], [], [], []

    if env_kind == "modal-bandit":
        env = ModalBandit()
        for ep in range(n_episodes):
            obs = env.reset(int(master.integers(2**63)))
            mu1, mu2 = env.mixture_means(obs)
            mu = mu1 if master.random() < 0.5 else mu2
            a = mu + env.MIX_SCALE * master.standard_normal(2)
            obs_rows.append(obs)
            act_rows.append(a)
            ep_rows.append(ep)
            t_rows.append(0)
        return Dataset(np.array(obs_rows), np.array(act_rows), np.array(ep_rows), np.array(t_rows))

    if env_kind not in ("point-reach", "point-reach-shifted"):
        raise ValueError(f"unknown env kind {env_kind!r}")
    env = make_env(env_kind)
    for ep in range(n_episodes):
        obs = env.reset(int(master.integers(2**63)))
        side = 1 if master.random() < 0.5 else -1
        ep_obs, ep_act = [], []
        done = False
        while not done:
            # the env's position and goal hold the observation's two halves
            a = _point_reach_expert_action(env._pos, env._goal, side)
            ep_obs.append(obs)
            ep_act.append(a)
            obs, _, done = env.step(a)
        if not env.success:
            warnings.warn(f"expert failed episode {ep}; excluded from dataset")
            continue
        obs_rows += ep_obs
        act_rows += ep_act
        ep_rows += [ep] * len(ep_obs)
        t_rows += range(len(ep_obs))
    return Dataset(np.array(obs_rows), np.array(act_rows), np.array(ep_rows), np.array(t_rows))


# ---------------------------------------------------------------------------
# policy evaluation


@dataclass
class EvalResult:
    success_rate: float
    mean_return: float
    mean_nfe: float
    mode_coverage: tuple[float, float]  # fraction of successes per mode (+, -)
    n_episodes: int


def evaluate(net, env_kind: str, n_episodes: int, K: int, seed: int) -> EvalResult:
    """Deterministic K-step policy rollout over seeded episodes.

    ``mode_coverage`` is the fraction of *successful* episodes that used
    each mode (homotopy class for PointReach, nearest mixture component for
    ModalBandit); both entries positive means multimodality survived.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    env = make_env(env_kind)
    if net.d_obs != env.d_obs or net.d_a != env.d_a:
        raise ValueError(
            f"net dims (d_obs={net.d_obs}, d_a={net.d_a}) do not match env "
            f"({env.d_obs}, {env.d_a})"
        )
    master = np.random.default_rng(seed)
    action_rng = np.random.default_rng(int(master.integers(2**63)))
    returns, successes, modes = [], [], []
    nfe_total = 0
    n_actions = 0
    for _ in range(n_episodes):
        obs = env.reset(int(master.integers(2**63)))
        done = False
        ret = 0.0
        while not done:
            a, nfe = sample_deterministic(net, obs, K, action_rng)
            nfe_total += nfe
            n_actions += 1
            obs, r, done = env.step(a)
            ret += r
        returns.append(ret)
        successes.append(bool(env.success))
        if isinstance(env, PointReach):
            modes.append(env.homotopy_class)
        else:
            modes.append(getattr(env, "mode_used", 0))

    succ = np.asarray(successes)
    mode_arr = np.asarray(modes)
    n_succ = int(succ.sum())
    if n_succ > 0:
        up = float(np.sum(mode_arr[succ] == 1)) / n_succ
        down = float(np.sum(mode_arr[succ] == -1)) / n_succ
    else:
        up = down = 0.0
    return EvalResult(
        success_rate=float(succ.mean()),
        mean_return=float(np.mean(returns)),
        mean_nfe=nfe_total / max(n_actions, 1),
        mode_coverage=(up, down),
        n_episodes=n_episodes,
    )
