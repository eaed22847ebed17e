"""Run the pipeline benchmark over seeds and write one BENCH_<n>.json file.

For each workload in ``BENCHMARK.json`` this runs ``pipeline_bench/run.py``
as a subprocess, one run at a time: ``--trace 0`` once per seed, then
``--trace 1`` once on the first seed, each for 20 s. It also runs
``benchmarks/fingerprint.py`` and the tier-1 test command of ROADMAP.md with
``--durations=6``, BLAS threads unpinned as tier-1 runs. The file it writes
holds, per workload, the median and interquartile range (IQR) of each gated
end-to-end metric, of each other printed metric (the wall-clock figures)
and of each run's minor page faults (``ru_minflt`` of the run's process,
set-up and import included), every run's value, the traced per-layer
metrics, and the failed-op counts;
then the fingerprint digests; the tier-1 passed and failed counts, failed
test ids, wall time and the durations of the three slow acceptance tests;
the size and digest of ``src/``, with code lines per module; and the stamp
of the first run.

Run it from anywhere; it takes about 9 minutes and writes the first
``BENCH_<n>.json`` in the repository root that does not exist yet:

    python3 benchmarks/bench.py

``--skip-tier1`` leaves out the tier-1 run (about 2 of the 9 minutes); the
file then holds ``"tier1": null``.

Two files from the same tree have equal fingerprint digests. Their gated
medians differ by host drift: two runs of one tree minutes apart put half
the ``*_cost_ref`` and ``peak_rss_mb`` medians outside the other run's IQR,
0.3-1.8% away. A speed claim rests on alternating parent/change runs.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "pipeline_bench" / "run.py"
FINGERPRINT = ROOT / "benchmarks" / "fingerprint.py"
SEEDS = [1, 2, 3, 4, 5]  # untraced runs per workload; the first seed is also traced
SECONDS = 20.0  # measuring time per run, the benchmark's own
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=6"]
SLOW_TESTS = ("test_c11", "test_c12a", "test_c12b")  # most of tier-1's time
_SKIP_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run: its stamp, its printed metrics, its result and its
    process's minor page faults."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = out.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            printed[parts[1]] = (float(parts[2]), parts[3])
    stamp = next(json.loads(line[len("stamp "):]) for line in lines if line.startswith("stamp "))
    return {"stamp": stamp, "printed": printed, "result": json.loads(lines[-1]), "minor_faults": faults}


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1),
            "unit": unit, "runs": values}


def bench_workload(workload: str) -> tuple[dict, dict]:
    """(the workload's entry, the stamp of its first run)."""
    runs = []
    for seed in SEEDS:
        runs.append(run_once(workload, seed, 0))
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k} {m['value']:.6g}" for k, m in runs[-1]["result"]["metrics"].items())
            + f", minor_faults {runs[-1]['minor_faults']}", file=sys.stderr)
    traced = run_once(workload, SEEDS[0], 1)
    gated = runs[0]["result"]["metrics"]
    entry = {
        "end_to_end": {k: summary([r["result"]["metrics"][k]["value"] for r in runs], m["unit"])
                       for k, m in gated.items()},
        "printed": {k: summary([r["printed"][k][0] for r in runs], unit)
                    for k, (_, unit) in runs[0]["printed"].items() if k not in gated},
        "minor_faults": summary([r["minor_faults"] for r in runs], "count"),
        "per_layer": traced["result"]["metrics"],
        "correct": all(r["result"]["correct"] for r in runs + [traced]),
        "attempted": [r["result"]["attempted"] for r in runs + [traced]],
        "failed": [r["result"]["failed"] for r in runs + [traced]],
    }
    return entry, runs[0]["stamp"]


def fingerprint() -> dict:
    out = subprocess.run([sys.executable, str(FINGERPRINT)], capture_output=True, text=True, check=True).stdout
    return dict(line.split() for line in out.strip().splitlines())


def tier1() -> dict:
    """One tier-1 run: outcome counts, failed test ids, wall time and the
    call durations of ``SLOW_TESTS``. A failing test does not stop it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True, text=True).stdout
    wall = time.perf_counter() - t0
    lines = out.strip().splitlines()
    durations = {}
    for line in lines:
        m = re.match(r"([\d.]+)s call +\S+::((test_c\d+[a-z]?)_\w+)", line)
        if m and m.group(3) in SLOW_TESTS:
            durations[m.group(2)] = float(m.group(1))
    return {
        "command": ["python", *TIER1],
        "counts": {k: int(n) for n, k in re.findall(r"(\d+) (\w+)", lines[-1].split(" in ")[0])},
        "failed_tests": [line.split()[1] for line in lines if line.startswith("FAILED ")],
        "wall_s": wall,
        "durations_s": durations,
    }


def code_lines(source: str) -> int:
    """Lines holding code: not blank, not only a comment, not in a docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP_TOKENS:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def src_size() -> dict:
    """Line counts of ``src/dmpo``, and a digest that names its exact text
    (the stamp's git rev does not cover uncommitted edits)."""
    paths = sorted((ROOT / "src" / "dmpo").glob("*.py"))
    sources = [p.read_text() for p in paths]
    modules = {p.name: code_lines(s) for p, s in zip(paths, sources)}
    return {"wc_lines": sum(s.count("\n") for s in sources), "code_lines": sum(modules.values()),
            "module_code_lines": modules, "sha256": hashlib.sha256("".join(sources).encode()).hexdigest()}


def next_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip-tier1", action="store_true", help="leave out the tier-1 test run")
    args = parser.parse_args()
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    entries, stamp = {}, None
    for w in workloads:
        entries[w], first = bench_workload(w)
        stamp = stamp or first
    stamp.pop("seed")
    bench = {
        "stamp": stamp,
        "seeds": SEEDS,
        "seconds": SECONDS,
        "workloads": entries,
        "fingerprint": fingerprint(),
        "tier1": None,
        "src": src_size(),
    }
    out = next_path()
    # written before tier-1 runs, so the suite's fingerprint test compares
    # this tree's digests with this file rather than an older one
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    if not args.skip_tier1:
        bench["tier1"] = tier1()
        out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
