"""dmpo pipeline benchmark: one workload per run.

    python3 pipeline_bench/run.py --workload pretrain-reach --seed 1 --seconds 15 --trace 0

Run from the repository root; dmpo is imported from ./src. Prints a stamp
line, one line per named metric, and as the last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 2 without a result when dmpo cannot be imported from ./src.
"""

from __future__ import annotations

import os
import sys

# BLAS must be single-threaded before numpy is first imported
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED_BEFORE_NUMPY = "numpy" not in sys.modules
os.environ.update({v: "1" for v in BLAS_PINS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain-reach", "finetune-shifted", "serve-reach")


def _git_rev(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repo."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_dmpo():
    """Import dmpo from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    for p in (str(src), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)
    import dmpo

    if Path(dmpo.__file__).resolve().parent != src / "dmpo":
        raise ImportError(f"dmpo imported from {dmpo.__file__}, not from {src}")
    return dmpo


def stamp(seed: int) -> dict:
    import numpy as np
    import dmpo.kernels

    return {
        "git_rev": _git_rev(ROOT),
        "numba_enabled": bool(dmpo.kernels.NUMBA_ENABLED),
        "blas_pins": {v: os.environ.get(v) for v in BLAS_PINS},
        "pinned_before_numpy": PINNED_BEFORE_NUMPY,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    """``sizes`` (a ``workloads.Sizes``) shortens the run for the benchmark's tests."""
    args = parse_args(argv)
    try:
        import_dmpo()
    except ImportError as e:
        print(f"error: cannot import dmpo from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import workloads

    workdir = Path.cwd() / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, detail, reasons = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                                workdir, sizes or workloads.Sizes())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    print("stamp " + json.dumps(stamp(args.seed), sort_keys=True))
    for reason, n in sorted(reasons.items()):
        print(f"failed {n} ops: {reason}")
    shown = {**detail, **{k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}}
    for name, (value, unit) in shown.items():
        print(f"{args.workload:17s} {name:28s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
