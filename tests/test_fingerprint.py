"""The seeded fingerprint of the current tree against the latest committed
``BENCH_<n>.json``: a refactor that moves no training or serving bit keeps
every digest."""

import json
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _latest_bench() -> Path:
    found = {int(m.group(1)): p for p in ROOT.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))}
    if not found:
        pytest.skip("no BENCH_<n>.json in the repository root")
    return found[max(found)]


def test_fingerprint_matches_the_latest_bench_file():
    bench = _latest_bench()
    want = json.loads(bench.read_text())
    stamp = want["stamp"]
    here = {"numpy": np.__version__, "python": platform.python_version()}
    for key, version in here.items():
        if stamp[key] != version:
            pytest.skip(f"{bench.name} was stamped with {key} {stamp[key]}, this is {version}; its digests need not hold")
    run = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "fingerprint.py"), "--expect", str(bench)],
                         capture_output=True, text=True, timeout=300)
    got = dict(line.split() for line in run.stdout.splitlines())
    moved = sorted(block for block, digest in want["fingerprint"].items() if got.get(block) != digest)
    assert not moved and run.returncode == 0, f"digests moved against {bench.name}: {moved}\n{run.stderr}"
