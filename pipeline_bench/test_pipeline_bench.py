"""Tests of the pipeline benchmark itself, on minimal-length runs.

    python3 -m pytest pipeline_bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (pins BLAS threads before numpy is first imported)

run.import_dmpo()
import numpy as np  # noqa: E402

import dmpo.meanflow  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# the workload-specific metrics each run prints by name
NAMED = {
    "pretrain-reach": ["pretrain_samples_per_s", "pretrain_mf_loss"],
    "finetune-shifted": ["finetune_env_steps_per_s", "finetune_return"],
    "serve-reach": ["serve_act_p50_us", "serve_act_p99_us", "serve_act_k5_p50_us",
                    "serve_batch_actions_per_s", "serve_episodes_per_s"],
}
COMMON = ["setup_s", "peak_rss_mb", "ops_failed_frac"]

# the per-layer metrics that must record calls on each workload
LAYER_WORKLOAD = {
    "pretrain-reach": [
        "autodiff.backward_ms", "autodiff.tape_nodes", "meanflow.target_velocity_ms",
        "meanflow.mf_loss_ms", "meanflow.jvp_useful_frac", "dispersive.loss_ms",
        "dispersive.effective_rank_ms", "nets.adam_step_ms", "nets.encode_calls",
        "nets.velocity_calls", "kernels.adam_update_us", "kernels.affine_tanh_us",
    ],
    "finetune-shifted": [
        "autodiff.backward_ms", "autodiff.tape_nodes", "nets.adam_step_ms", "nets.clip_grad_norm_ms",
        "nets.encode_calls", "nets.velocity_calls", "sampler.chain_batch_ms", "sampler.nfe_per_action",
        "ppo.collect_ms", "ppo.gae_ms", "ppo.loss_ms", "ppo.chain_logprob_ms", "ppo.bc_loss_ms",
        "envs.step_us", "envs.steps", "envs.resets", "kernels.adam_update_us",
        "kernels.affine_tanh_us", "kernels.gae_backward_us", "io.load_checkpoint_ms",
        "io.save_checkpoint_ms",
    ],
    "serve-reach": [
        "nets.encode_arrays_us", "nets.velocity_arrays_us", "sampler.deterministic_us",
        "sampler.nfe_per_action", "envs.step_us", "envs.steps", "envs.resets",
        "kernels.affine_tanh_us", "io.load_checkpoint_ms", "io.save_checkpoint_ms",
    ],
}
EXACT_COUNTS = ["autodiff.tape_nodes", "sampler.nfe_per_action", "nets.encode_calls", "envs.steps"]


def _bench(capsys, workload, trace=0, seed=3, seconds="0.3"):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", seconds,
                     "--trace", str(trace)], workloads.SMOKE) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced smoke runs of each workload with the same seed."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("traced"))
        for w in WORKLOADS:
            out[w] = []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert run.main(["--workload", w, "--seed", "5", "--seconds", "0.3", "--trace", "1"],
                                    workloads.SMOKE) == 0
                out[w].append(json.loads(buf.getvalue().strip().splitlines()[-1]))
    return out


def test_benchmark_json_names_every_workload():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
    assert set(run.WORKLOADS) == set(WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == list(layers.PER_LAYER)
    assert all(m["unit"] == layers.PER_LAYER[m["name"]][0] for m in BENCH["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(capsys, workload):
    result, lines = _bench(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith(workload)}
    for name in NAMED[workload] + COMMON:
        assert name in printed, name
    assert any(line.startswith("stamp ") for line in lines)


def test_stamp_records_the_environment():
    s = run.stamp(7)
    assert s["seed"] == 7 and s["nproc"] >= 1 and s["numpy"] == np.__version__
    assert s["blas_pins"]["OPENBLAS_NUM_THREADS"] == "1"
    assert isinstance(s["numba_enabled"], bool) and s["git_rev"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_records_calls_on_each_mapped_layer(traced, workload):
    result = traced[workload][0]
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {k: v["unit"] for k, v in metrics.items()}
    for name in LAYER_WORKLOAD[workload]:
        assert metrics[name]["value"] > 0, f"{name} recorded no calls on {workload}"
    assert 0.0 <= metrics["ppo.clip_frac"]["value"] <= 1.0


def test_every_layer_metric_maps_to_a_workload():
    mapped = set().union(*LAYER_WORKLOAD.values()) | {"ppo.clip_frac", "tracing.overhead_frac"}
    assert mapped == set(layers.PER_LAYER)


def test_nfe_per_action_equals_k(traced):
    for w in ("finetune-shifted", "serve-reach"):
        assert traced[w][0]["metrics"]["sampler.nfe_per_action"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_with_the_same_seed(traced, workload):
    a, b = (r["metrics"] for r in traced[workload])
    for name in EXACT_COUNTS:
        assert a[name]["value"] == b[name]["value"], name


def test_traced_run_restores_every_wrapper(capsys):
    before = {(o, a): vars(tracer.resolve(o))[a] for o, a, _, _ in layers.TARGETS}
    _bench(capsys, "serve-reach", trace=1)
    assert before == {(o, a): vars(tracer.resolve(o))[a] for o, a, _, _ in layers.TARGETS}


def _poisoned(net):
    for p in net.parameters():
        p.data[...] = np.nan
    return net


@pytest.mark.parametrize("workload", WORKLOADS)
def test_nan_policy_counts_failed_ops(capsys, monkeypatch, workload):
    if workload == "pretrain-reach":
        init = dmpo.meanflow.init_velocity_net
        monkeypatch.setattr(dmpo.meanflow, "init_velocity_net", lambda *a, **k: _poisoned(init(*a, **k)))
    else:
        stage1 = workloads.Workload._stage1_policy
        monkeypatch.setattr(workloads.Workload, "_stage1_policy", lambda self, ds: _poisoned(stage1(self, ds)))
    result, lines = _bench(capsys, workload)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    json.dumps(result, allow_nan=False)
    assert any(line.startswith("failed ") for line in lines)


def test_self_time_is_duration_minus_children():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(1000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    s = tr.summary()
    assert s["inner"][0] == 3 and s["outer"][0] == 1
    _, _, dur = tr.arrays()
    assert s["outer"][1] + s["inner"][1] == pytest.approx(float(dur[0]))


def test_missing_attribute_fails_loudly():
    with pytest.raises(KeyError):
        with tracer.patched([(workloads, "no_such_function", lambda f: f)]):
            pass


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's files."""
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "serve-reach", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
