"""Seeded fingerprint of dmpo's training and serving outputs.

Prints one sha256 digest per block; two trees whose printed digests agree
gave bit-identical results:

* ``pretrain``: the parameter checksum and metric rows (without
  ``wall_ms``) of a seeded pre-train for each ``disp_kind``; the hinge run
  is 500 steps long, past step 356 where Adam's first bias correction
  rounds to 1.0;
* ``finetune``: policy and value checksums and metric rows (without
  ``grad_norm``, a column added after the digests were first recorded;
  the checksums fix the gradients it is taken from) after 3
  point-reach-shifted iterations of the c12a config, at K=1, K=3 and K=2
  with learnable sigma, each with 8 and with 5 environments;
* ``serve``: deterministic actions at K=1 and K=5 for demo observations,
  plus the action generator's next draw;
* ``evaluate``: ``evaluate()`` results on point-reach and
  point-reach-shifted;
* ``data``: the JSON Lines bytes ``save_dataset`` writes for point-reach
  and modal-bandit demos, and the arrays ``load_dataset`` reads back.

The digests do not depend on the BLAS thread count (they were checked at
1 and 2 threads and unpinned, and a tier-1 test compares fine-tune
checksums at 1 and 2 threads); the script still pins OpenBLAS to one
thread before numpy is imported, as ``pipeline_bench`` does. Run it from
anywhere:

    python3 benchmarks/fingerprint.py
    python3 benchmarks/fingerprint.py --expect BENCH_8.json

With ``--expect`` it also compares each digest with the ``fingerprint``
entry of that ``benchmarks/bench.py`` output file, names every block that
differs and exits with status 1 if any does. It imports dmpo from the
``src`` directory next to this script.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from dmpo import Stage1Config, Stage2Config, evaluate, finetune, gen_demos, make_env, pretrain  # noqa: E402
from dmpo.io import load_dataset, save_dataset  # noqa: E402
from dmpo.nets import param_checksum  # noqa: E402
from dmpo.sampler import sample_deterministic  # noqa: E402


def _canon(x):
    """A deterministic text form with every float written exactly."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, np.ndarray):
        return f"{x.dtype}{x.shape}:{x.tobytes().hex()}"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}={_canon(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    return repr(x)


def _digest(items) -> str:
    return hashlib.sha256(_canon(items).encode()).hexdigest()


def pretrain_block(demos):
    items = []
    nets = {}
    for kind in ("hinge", "nce-l2", "nce-cos", "cov", "none"):
        epochs = 100 if kind == "hinge" else 30
        net, rows = pretrain(demos, Stage1Config(epochs=epochs, disp_kind=kind, seed=0))
        items.append((kind, param_checksum(net), [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]))
        nets[kind] = net
    return _digest(items), nets["hinge"]


def finetune_block(net):
    items = []
    for K, learnable in ((1, False), (3, False), (2, True)):
        for n_envs in (8, 5):
            cfg = Stage2Config(
                iterations=3, seed=2, K=K, sigma_learnable=learnable, n_envs=n_envs,
                lam_bc_init=0.1, lam_bc_final=0.1, bc_decay_start=0, bc_decay_end=1,
            )
            policy, value, rows = finetune(net, lambda: make_env("point-reach-shifted"), cfg)
            rows = [{k: v for k, v in r.items() if k != "grad_norm"} for r in rows]
            items.append((K, learnable, n_envs, param_checksum(policy), param_checksum(value), rows))
    return _digest(items)


def serve_block(net, demos):
    items = []
    for K in (1, 5):
        rng = np.random.default_rng(100 + K)
        actions = [sample_deterministic(net, o, K, rng)[0] for o in demos.obs[:200]]
        items.append((K, np.stack(actions), rng.integers(2**63)))
    return _digest(items)


def evaluate_block(net):
    items = []
    for kind, K in (("point-reach", 1), ("point-reach", 5), ("point-reach-shifted", 1)):
        r = evaluate(net, kind, 20, K, seed=500)
        items.append((kind, K, r.success_rate, r.mean_return, r.mean_nfe, r.mode_coverage, r.n_episodes))
    return _digest(items)


def data_block():
    items = []
    with tempfile.TemporaryDirectory() as tmp:
        for kind, episodes, seed in (("point-reach", 40, 0), ("modal-bandit", 64, 1)):
            path = Path(tmp) / f"{kind}.jsonl"
            save_dataset(path, gen_demos(kind, episodes, seed))
            back = load_dataset(path)
            items.append((kind, hashlib.sha256(path.read_bytes()).hexdigest(),
                          back.obs, back.actions, back.episode_ids, back.ts))
    return _digest(items)


def digests() -> dict[str, str]:
    demos = gen_demos("point-reach", 40, seed=0)
    digest, net = pretrain_block(demos)
    return {"pretrain": digest, "finetune": finetune_block(net), "serve": serve_block(net, demos),
            "evaluate": evaluate_block(net), "data": data_block()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", type=Path, help="a BENCH_<n>.json whose fingerprint the digests must equal")
    args = parser.parse_args()
    got = digests()
    for block, digest in got.items():
        print(f"{block:<9} {digest}")
    if args.expect is None:
        return 0
    want = json.loads(args.expect.read_text())["fingerprint"]
    differ = [block for block in got if got[block] != want.get(block)]
    for block in differ:
        print(f"{block}: digest differs from {args.expect} ({want.get(block)})", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
