"""The benchmark's workloads, driven through dmpo's public API.

A workload sets up from its seed, then runs units of work until the
measuring time is up. Probes are thin wrappers that stamp op boundaries and
count what the correctness checks need; they are on in every unit. Spans
(tracer.py) are installed only around the traced units of a traced run,
which alternate with untraced ones so that the tracing overhead is measured
on the same work.

Every operation is checked and counted: pre-train steps, fine-tune
iterations and served actions. An exception or a failed check counts its
operations as failed, and the run goes on.

The host is shared: other tenants slow both this process and any code in it
by up to 1.7x, for seconds at a time. So every timed op is paired with a
timing of ``reference()``, a fixed computation of the same shape that does
not use dmpo, taken right next to it, and the gated end-to-end costs are op
time over reference time. Wall-clock figures are printed as well.
"""

from __future__ import annotations

import contextlib
import math
import resource
import time
from array import array
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from dmpo import envs, meanflow, nets, ppo, sampler
from dmpo import io as dio
from layers import TARGETS, layer_metrics, nfe_mismatches
from tracer import Tracer, patched

DEMO_EPISODES = 40
clock = time.perf_counter_ns

_G = np.random.default_rng(0)
_REF_W0, _REF_B0 = _G.standard_normal((36, 64)) / 6.0, _G.standard_normal(64)
_REF_W1, _REF_B1 = _G.standard_normal((64, 64)) / 8.0, _G.standard_normal(64)
_REF_W2, _REF_B2 = _G.standard_normal((64, 2)) / 8.0, _G.standard_normal(2)
_REF_H = _G.standard_normal((256, 32))
_REF_RNG = np.random.default_rng(1)


def reference(rows: int = 1, backward: bool = False) -> int:
    """Nanoseconds taken by a frozen tanh MLP shaped like dmpo's velocity net,
    forward (and with ``backward`` its gradient) over ``rows`` rows.

    It does not use dmpo, so no change to dmpo moves it, while interference
    from other tenants slows it as much as the dmpo op of the same shape.
    """
    t0 = clock()
    z = _REF_RNG.standard_normal((rows, 2))
    x = np.concatenate([z, _REF_H[:rows], np.zeros((rows, 2))], axis=1)
    h0 = np.tanh(x @ _REF_W0 + _REF_B0)
    h1 = np.tanh(h0 @ _REF_W1 + _REF_B1)
    u = h1 @ _REF_W2 + _REF_B2
    if backward:
        g = (u - z) * (2.0 / rows)
        g1 = (g @ _REF_W2.T) * (1.0 - h1 * h1)
        g0 = (g1 @ _REF_W1.T) * (1.0 - h0 * h0)
        h1.T @ g, h0.T @ g1, x.T @ g0
    return clock() - t0


TRAIN_SHAPE = (64, True)  # a B=64 training step; set-up is mostly one too


class SetupError(RuntimeError):
    """Set-up produced inputs the workload cannot run on."""


@dataclass(frozen=True)
class Sizes:
    setup_repeats: int = 5
    setup_stage1_epochs: int = 50  # stage-1 run inside fine-tune and serve set-up
    pretrain_epochs: int = 400  # one pre-train job: the README walkthrough config
    finetune_iterations: int = 10  # one fine-tune job
    serve_warmup_units: int = 30
    batch_calls: int = 10  # B=256 calls per serve unit
    eval_episodes: int = 2  # evaluate() episodes per serve unit


# minimal lengths for the benchmark's own tests
SMOKE = Sizes(setup_repeats=1, setup_stage1_epochs=3, pretrain_epochs=3, finetune_iterations=2,
              serve_warmup_units=1, batch_calls=2, eval_episodes=1)


class Ops:
    """Attempted and failed operation counts, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def record(self, attempted: int, failed: int = 0, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons[why] += failed


class Timings:
    """Op durations, each with the reference time measured next to it."""

    def __init__(self):
        self.ns = array("q")
        self.ref = array("q")

    def add(self, ns: int, ref: int) -> None:
        self.ns.append(ns)
        self.ref.append(ref)

    def __len__(self):
        return len(self.ns)

    def pct_us(self, q: float) -> float:
        return float(np.percentile(self.ns, q)) / 1e3 if len(self) else 0.0

    def cost(self, per: float = 1.0) -> float:
        """Median of op time over reference time, divided by ``per``."""
        if not len(self):
            return 0.0
        return float(np.median(np.asarray(self.ns, float) / np.asarray(self.ref, float))) / per

    def rate(self, per_op: float) -> float:
        total = sum(self.ns)
        return per_op * len(self) / (total / 1e9) if total else 0.0


def _seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


def _finite(*xs) -> bool:
    return all(math.isfinite(x) for x in xs)


class Workload:
    name = ""
    tail_q = 99  # the tail percentile reported; >= 10 samples lie beyond it
    ref_shape = TRAIN_SHAPE  # reference() arguments matching the op

    def __init__(self, seed: int, sizes: Sizes, workdir):
        self.sizes = sizes
        self.workdir = workdir
        self.ops = Ops()
        self.train_refs = array("q")  # every TRAIN_SHAPE reference timing, for setup_s
        demo, stage1, stage2, serve = np.random.SeedSequence(seed).spawn(4)
        self.demo_seed = _seed_int(demo)
        self.stage1_seed = _seed_int(stage1)
        self.stage2_seed = _seed_int(stage2)
        self.serve_seed = _seed_int(serve)

    def ref(self, rows: int, backward: bool = False) -> int:
        """``reference()``, keeping the timings of TRAIN_SHAPE for setup_s."""
        ns = reference(rows, backward)
        if (rows, backward) == TRAIN_SHAPE:
            self.train_refs.append(ns)
        return ns

    def probes(self):
        return []

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed units before measuring; none where a unit is a whole job."""

    def unit(self, record: bool = True) -> None:
        raise NotImplementedError

    def results(self):
        """(end-to-end metrics, named detail metrics), each name -> (value, unit)."""
        raise NotImplementedError

    def _e2e(self, work: Timings, work_per_op: float):
        return {"op_cost_ref": (self.op.cost(), "ref"), "work_cost_ref": (work.cost(work_per_op), "ref")}

    def _demos(self):
        """Expert demos written and read back through dmpo.io, as the CLI does."""
        ds = envs.gen_demos("point-reach", DEMO_EPISODES, self.demo_seed)
        path = self.workdir / "demos.jsonl"
        dio.save_dataset(path, ds)
        loaded = dio.load_dataset(path)
        if not (np.array_equal(loaded.obs, ds.obs) and np.array_equal(loaded.actions, ds.actions)):
            raise SetupError("dataset changed on its round trip through dmpo.io")
        return loaded

    def _stage1_policy(self, ds):
        """A seeded stage-1 run, saved and reloaded as `dmpo pretrain` then
        `dmpo finetune` would."""
        cfg = meanflow.Stage1Config(epochs=self.sizes.setup_stage1_epochs, seed=self.stage1_seed)
        net, _ = meanflow.pretrain(ds, cfg)
        path = self.workdir / "pretrained.json"
        dio.save_checkpoint(path, {"policy": net}, state={"stage": "pretrain", "config": asdict(cfg)})
        policy = dio.load_checkpoint(path)[0]["policy"]
        if nets.param_checksum(policy) != nets.param_checksum(net):
            raise SetupError("policy changed on its round trip through dmpo.io")
        return policy


class PretrainReach(Workload):
    """Stage-1 jobs on point-reach demos, repeated until time is up. The op
    is one pre-train step, timed from one Adam update to the next."""

    name = "pretrain-reach"

    def __init__(self, *a):
        super().__init__(*a)
        self.job_steps: list[tuple[int, int]] = []
        self.op = Timings()  # pre-train steps
        self.samples = 0
        self.final_losses: list[float] = []
        self.ref_checksum = None

    def probes(self):
        def stamp(step):
            def probed(*args, **kwargs):
                out = step(*args, **kwargs)
                end = clock()
                self.job_steps.append((end - self.step_start, self.ref(*self.ref_shape)))
                self.step_start = clock()
                return out
            return probed
        return [(nets.Adam, "step", stamp)]

    def setup(self):
        self.data = self._demos()

    def unit(self, record=True):
        cfg = meanflow.Stage1Config(epochs=self.sizes.pretrain_epochs, seed=self.stage1_seed)
        rows_per_epoch = max(len(self.data), cfg.batch_size)
        planned = cfg.epochs * -(-rows_per_epoch // cfg.batch_size)
        self.job_steps = []
        self.step_start = clock()
        try:
            net, rows = meanflow.pretrain(self.data, cfg)
        except Exception as e:  # noqa: BLE001 - a failed job is counted and the run goes on
            self.ops.record(planned, planned - len(self.job_steps), f"pretrain raised {type(e).__name__}")
            return
        failed, prev = 0, 0
        for row in rows:
            if not _finite(row["mf_loss"], row["disp_loss"], row["total_loss"]):
                failed += row["step"] - prev
            prev = row["step"]
        checksum = nets.param_checksum(net)
        self.ref_checksum = self.ref_checksum or checksum
        if len(rows) != cfg.epochs or prev != planned:
            failed, why = planned, "wrong number of steps"
        elif not rows[-1]["mf_loss"] < rows[0]["mf_loss"]:
            failed, why = planned, "loss did not decrease"
        elif checksum != self.ref_checksum:
            failed, why = planned, "same seed gave different parameters"
        else:
            why = "non-finite loss"
        self.ops.record(planned, failed, why)
        if failed or not record:
            return
        for ns, ref in self.job_steps:
            self.op.add(ns, ref)
        self.samples += cfg.epochs * rows_per_epoch
        self.final_losses.append(rows[-1]["mf_loss"])

    def results(self):
        steps = self.op
        rows_per_step = self.samples / len(steps) if len(steps) else 0.0
        loss = float(np.median(self.final_losses)) if self.final_losses else float("nan")
        e2e = self._e2e(steps, rows_per_step)
        detail = {
            "pretrain_samples_per_s": (steps.rate(rows_per_step), "1/s"),
            "pretrain_mf_loss": (loss, "loss"),
            "pretrain_step_p50_us": (steps.pct_us(50), "us"),
            "pretrain_step_p99_us": (steps.pct_us(self.tail_q), "us"),
            "pretrain_steps_timed": (len(steps), "count"),
        }
        return e2e, detail


class FinetuneShifted(Workload):
    """Stage-2 PPO jobs on point-reach-shifted (the c12a config), repeated.
    The op is one fine-tune iteration, timed from one rollout collection to
    the next."""

    name = "finetune-shifted"
    tail_q = 90

    def __init__(self, *a):
        super().__init__(*a)
        self.cfg = ppo.Stage2Config(
            iterations=self.sizes.finetune_iterations, seed=self.stage2_seed,
            lam_bc_init=0.1, lam_bc_final=0.1, bc_decay_start=0, bc_decay_end=1,
        )
        self.env_steps = 0
        self.marks: list[int] = []  # clock at each rollout collection, and at the job's end
        self.refs: list[tuple[int, int, int]] = []  # (clock, reference ns, ns spent) per optimizer step
        self.iter_ok: list[bool] = []
        self.op = Timings()  # fine-tune iterations
        self.returns: list[float] = []
        self.ref_checksum = None

    def probes(self):
        def count_step(step):
            def probed(*args, **kwargs):
                self.env_steps += 1
                return step(*args, **kwargs)
            return probed

        def sample_ref(step):
            def probed(*args, **kwargs):
                out = step(*args, **kwargs)
                t0 = clock()
                ref = self.ref(*self.ref_shape)
                self.refs.append((t0, ref, clock() - t0))
                return out
            return probed

        def check_collect(collect):
            def probed(*args, **kwargs):
                self.marks.append(clock())
                before = self.env_steps
                batch, finished = collect(*args, **kwargs)
                n = self.cfg.rollout_steps
                self.iter_ok.append(batch.rewards.shape[0] == n and self.env_steps - before == n)
                return batch, finished
            return probed

        return [(envs.PointReach, "step", count_step), (nets.Adam, "step", sample_ref),
                (ppo, "collect_rollouts", check_collect)]

    def setup(self):
        self.policy = self._stage1_policy(self._demos())

    def unit(self, record=True):
        C = self.cfg.iterations
        self.marks = []
        self.refs = []
        self.iter_ok = []
        try:
            policy, _, rows = ppo.finetune(self.policy, lambda: envs.make_env("point-reach-shifted"), self.cfg)
        except Exception as e:  # noqa: BLE001 - a failed job is counted and the run goes on
            done = max(len(self.marks) - 1, 0)
            self.ops.record(C, C - sum(self.iter_ok[:done]), f"finetune raised {type(e).__name__}")
            return
        self.marks.append(clock())
        ok = [
            i < len(self.iter_ok) and self.iter_ok[i] and _finite(row["approx_kl"], row["mean_return"])
            for i, row in enumerate(rows)
        ]
        failed, why = C - sum(ok), "rollout size, approx_kl or return check failed"
        checksum = nets.param_checksum(policy)
        self.ref_checksum = self.ref_checksum or checksum
        if checksum != self.ref_checksum:
            failed, why = C, "same seed gave different parameters"
        self.ops.record(C, failed, why)
        if failed or not record:
            return
        # an iteration's time excludes the reference timings made inside it
        # and is paired with their median
        ref_at, ref_ns, spent = np.array(self.refs, dtype=np.int64).T
        for start, end in zip(self.marks, self.marks[1:]):
            inside = (ref_at >= start) & (ref_at < end)
            self.op.add(end - start - int(spent[inside].sum()), int(np.median(ref_ns[inside])))
        self.returns.append(rows[-1]["mean_return"])

    def results(self):
        ret = float(np.median(self.returns)) if self.returns else float("nan")
        n = self.cfg.rollout_steps
        iters = self.op
        e2e = self._e2e(iters, n)
        detail = {
            "finetune_env_steps_per_s": (iters.rate(n), "1/s"),
            "finetune_return": (ret, "return"),
            "finetune_iteration_p50_us": (iters.pct_us(50), "us"),
            "finetune_iteration_p90_us": (iters.pct_us(self.tail_q), "us"),
            "finetune_iterations_timed": (len(iters), "count"),
        }
        return e2e, detail


class ServeReach(Workload):
    """One closed-loop client at B=1 (K=1 and K=5 rounds interleaved), a
    B=256 batch phase, and evaluate() episodes, in every unit. The op is a
    K=1 action; the work cost is per action of the B=256 phase."""

    name = "serve-reach"
    B = 256
    ref_shape = (1, False)  # one B=1 forward

    def __init__(self, *a):
        super().__init__(*a)
        self.units_run = 0
        self.acts = {1: Timings(), 5: Timings()}
        self.op = self.acts[1]
        self.batches = Timings()
        self.eval_ns = 0
        self.eval_episodes = 0

    def probes(self):
        # every action evaluate() serves is checked like the closed loop's
        def check(sample):
            def probed(net, obs, K, rng):
                a, nfe = sample(net, obs, K, rng)
                bad = nfe != K or not np.all(np.isfinite(a))
                self.ops.record(1, int(bad), "evaluate action non-finite or NFE != K")
                return a, nfe
            return probed
        return [(envs, "sample_deterministic", check)]

    def setup(self):
        ds = self._demos()
        self.policy = self._stage1_policy(ds)
        rng = np.random.default_rng(self.serve_seed)
        self.batch_obs = np.ascontiguousarray(ds.obs[rng.integers(0, len(ds), self.B)])
        self.env = envs.make_env("point-reach")

    def warmup(self):
        for _ in range(self.sizes.serve_warmup_units):
            self.unit(record=False)

    def _episode(self, K, seed, rng, record):
        obs = self.env.reset(seed)
        timings = self.acts[K]
        done = False
        while not done:
            ref = self.ref(*self.ref_shape)
            t0 = clock()
            try:
                a, nfe = sampler.sample_deterministic(self.policy, obs, K, rng)
            except Exception as e:  # noqa: BLE001 - a failed action is counted
                self.ops.record(1, 1, f"sample_deterministic raised {type(e).__name__}")
                return
            dt = clock() - t0
            if nfe != K or not np.all(np.isfinite(a)):
                self.ops.record(1, 1, "action non-finite or NFE != K")
                return
            self.ops.record(1)
            if record:
                timings.add(dt, ref)
            obs, _, done = self.env.step(a)

    def _batch_actions(self, z):
        """One-step actions for B observations: a = z - u(z, 0, 1, obs)."""
        h = self.policy.encode_arrays(self.batch_obs)
        return z - self.policy.velocity_arrays(z, 0.0, 1.0, h)

    def _matches_traced_forward(self, z, a, i) -> bool:
        """Row i of a batch against the autodiff-op forward, an independent path."""
        try:
            u = nets.predict_velocity(self.policy, z[i], 0.0, 1.0, self.batch_obs[i]).data
        except FloatingPointError:  # the op-level finite check fired
            return False
        return bool(np.allclose(a[i], z[i] - u, rtol=1e-9, atol=1e-12))

    def _batch_phase(self, z_rng, record):
        for j in range(self.sizes.batch_calls):
            ref = self.ref(self.B)
            t0 = clock()
            try:
                z = z_rng.standard_normal((self.B, self.policy.d_a))
                a = self._batch_actions(z)
            except Exception as e:  # noqa: BLE001 - a failed call is counted
                self.ops.record(self.B, self.B, f"batch call raised {type(e).__name__}")
                continue
            dt = clock() - t0
            bad = int(np.sum(~np.all(np.isfinite(a), axis=1)))
            if j == 0 and not self._matches_traced_forward(z, a, int(z_rng.integers(self.B))):
                bad = self.B
            self.ops.record(self.B, bad, "batch actions non-finite or off the autodiff-op forward")
            if record:
                self.batches.add(dt, ref)

    def unit(self, record=True):
        seq = np.random.SeedSequence(self.serve_seed, spawn_key=(self.units_run,))
        ep_seed, act_seed, z_seed, eval_seed = (int(s) for s in seq.generate_state(4))
        rng = np.random.default_rng(act_seed)
        for K in (1, 5) if self.units_run % 2 == 0 else (5, 1):
            self._episode(K, ep_seed, rng, record)
        self._batch_phase(np.random.default_rng(z_seed), record)
        t0 = clock()
        try:
            envs.evaluate(self.policy, "point-reach", self.sizes.eval_episodes, 1, eval_seed)
        except Exception as e:  # noqa: BLE001 - the probe counted the actions served before it
            self.ops.record(1, 1, f"evaluate raised {type(e).__name__}")
        else:
            if record:
                self.eval_ns += clock() - t0
                self.eval_episodes += self.sizes.eval_episodes
        self.units_run += 1

    def results(self):
        k1 = self.op
        e2e = self._e2e(self.batches, self.B)
        detail = {
            "serve_act_p50_us": (k1.pct_us(50), "us"),
            "serve_act_p99_us": (k1.pct_us(self.tail_q), "us"),
            "serve_act_k5_p50_us": (self.acts[5].pct_us(50), "us"),
            "serve_batch_actions_per_s": (self.batches.rate(self.B), "1/s"),
            "serve_episodes_per_s": (self.eval_episodes / (self.eval_ns / 1e9) if self.eval_ns else 0.0, "1/s"),
            "serve_k1_actions_timed": (len(k1), "count"),
            "serve_k5_actions_timed": (len(self.acts[5]), "count"),
        }
        return e2e, detail


WORKLOADS = {w.name: w for w in (PretrainReach, FinetuneShifted, ServeReach)}


def _timed_setup(w: Workload) -> tuple[int, list[int]]:
    """(set-up ns, reference ns timed around and during it). Stage-1 runs
    inside set-up take a reference timing after each optimizer step, and
    that time is not counted as set-up."""
    refs = [w.ref(*TRAIN_SHAPE) for _ in range(5)]
    spent = 0

    def sample(step):
        def probed(*args, **kwargs):
            nonlocal spent
            out = step(*args, **kwargs)
            t0 = clock()
            refs.append(w.ref(*TRAIN_SHAPE))
            spent += clock() - t0
            return out
        return probed

    with patched([(nets.Adam, "step", sample)]):
        t0 = clock()
        w.setup()
        dt = clock() - t0 - spent
    refs += [w.ref(*TRAIN_SHAPE) for _ in range(5)]
    return dt, refs


def run(name: str, seed: int, seconds: float, trace: bool, workdir, sizes: Sizes = Sizes()):
    """Set up, then measure for ``seconds``.

    Returns (result, detail, failure reasons). The result holds ``correct``,
    ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics when
    untraced, the per-layer ones when traced. ``detail`` holds the
    workload's named metrics.
    """
    w = WORKLOADS[name](seed, sizes, workdir)
    setup_wall, setup_cost = [], []
    setup_tracer = Tracer()
    for i in range(sizes.setup_repeats):
        traced = trace and i == sizes.setup_repeats - 1
        with setup_tracer.install(TARGETS) if traced else contextlib.nullcontext():
            dt, refs = _timed_setup(w)
        setup_wall.append(dt / 1e9)
        setup_cost.append(dt / np.median(refs))

    with patched(w.probes()):
        w.warmup()
    walls = {False: [0, 0], True: [0, 0]}  # traced? -> [ns, units]
    tracers = []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or walls[False][1] == 0 or (trace and walls[True][1] == 0):
        traced = trace and k % 2 == 1
        for _ in range(3):  # spread over the run, for setup_s's fast decile
            w.ref(*TRAIN_SHAPE)
        tr = Tracer()
        # spans sit inside the probes, so probe work is not charged to a layer
        with tr.install(TARGETS) if traced else contextlib.nullcontext(), patched(w.probes()):
            t0 = clock()
            w.unit()
            walls[traced][0] += clock() - t0
        walls[traced][1] += 1
        if traced:
            tracers.append(tr)
        k += 1

    if trace:
        w.ops.record(0, sum(nfe_mismatches(t) for t in tracers), "measured NFE != K")
        per_unit = {m: ns / n for m, (ns, n) in walls.items()}
        metrics = layer_metrics(tracers, setup_tracer, per_unit[True] / per_unit[False] - 1.0)
        detail = {}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before summarizing
        e2e, detail = w.results()
        # set-up cost in reference units, back in seconds at the fast decile of
        # every timing of that reference in the run
        fast_ref_ns = np.percentile(w.train_refs, 10)
        setup_s = float(np.median(setup_cost)) * fast_ref_ns / 1e9
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"), **e2e}
        detail["setup_wall_s"] = (float(np.median(setup_wall)), "s")
    detail["ops_failed_frac"] = (w.ops.failed / max(w.ops.attempted, 1), "frac")
    result = {
        "correct": w.ops.failed == 0 and w.ops.attempted > 0,
        "attempted": w.ops.attempted,
        "failed": w.ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail, w.ops.reasons
