"""Command-line entry points for the full pipeline.

Subcommands: gen-data, pretrain, finetune, eval, bench, inspect. Every run
writes a fully resolved config echo beside its outputs so it can be
reproduced exactly. Exit codes: 0 success, 1 runtime failure (one-line
machine-parsable error on stderr), 2 bad flags (argparse usage error).
The optional DMPO_LOG environment variable sets log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dispersive import effective_rank
from .envs import ENV_KINDS, evaluate, gen_demos, make_env
from .io import (
    load_checkpoint,
    load_dataset,
    parse_config,
    save_checkpoint,
    save_dataset,
    write_config_echo,
    write_metrics_csv,
)
from .meanflow import Stage1Config, pretrain
from .nets import VelocityNet
from .ppo import Stage2Config, finetune
from .sampler import sample_deterministic

log = logging.getLogger("dmpo")

BENCH_COLUMNS = ("K", "nfe", "median_ms", "samples")


def _setup_logging():
    level = os.environ.get("DMPO_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a key given twice is a ``ValueError``
    naming it (``json`` would keep the last one)."""
    d = {}
    for k, v in pairs:
        if k in d:
            raise ValueError(f"repeated key {k!r}")
        d[k] = v
    return d


def _read_config(path, cls):
    """The ``cls`` config in the JSON file ``path``, and for a
    ``Stage2Config`` the env kind its ``env_kind`` key names (else None).
    Text that is not UTF-8 or not JSON, a repeated key, a top level that is
    no object, a missing or unknown env kind, an unknown key, a value of the
    wrong type and one ``cls`` rejects are each a ``ValueError`` naming the
    file."""
    try:
        with open(path, encoding="utf-8") as f:
            d = json.load(f, object_pairs_hook=_unique_keys)
    except ValueError as e:  # not UTF-8, not JSON, a repeated key, past the digit limit
        raise ValueError(f"config {path}: {e}") from None
    if type(d) is not dict:
        raise ValueError(f"config {path} holds {json.dumps(d)[:40]}, not a JSON object")
    env_kind = d.pop("env_kind", None) if cls is Stage2Config else None
    try:
        if cls is Stage2Config and env_kind not in ENV_KINDS:
            raise ValueError("finetune config must set env_kind" if env_kind is None
                             else f"unknown env_kind {env_kind!r}; expected one of {ENV_KINDS}")
        return parse_config(d, cls), env_kind
    except ValueError as e:  # an unknown key, a wrong type, a value out of range
        raise ValueError(f"config {path}: {e}") from None


def _policy(checkpoint) -> VelocityNet:
    """The policy net saved in ``checkpoint``: a velocity net named
    ``policy``."""
    policy = load_checkpoint(checkpoint)[0].get("policy")
    if not isinstance(policy, VelocityNet):
        raise ValueError("checkpoint does not contain a policy net")
    return policy


def cmd_gen_data(args) -> int:
    ds = gen_demos(args.env, args.episodes, args.seed)
    save_dataset(args.out, ds)
    write_config_echo(
        str(args.out) + ".config.json",
        {"command": "gen-data", "env": args.env, "episodes": args.episodes, "seed": args.seed,
         "out": str(args.out), "records": len(ds)},
    )
    print(f"wrote {len(ds)} records to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg, _ = _read_config(args.config, Stage1Config)
    ds = load_dataset(args.data)
    out = Path(args.out)
    net, metrics = pretrain(ds, cfg, metrics_path=str(out) + ".metrics.csv")
    save_checkpoint(out, {"policy": net}, state={"stage": "pretrain", "config": asdict(cfg)})
    write_config_echo(str(out) + ".config.json", {"command": "pretrain", "data": str(args.data),
                                                  "out": str(out), **asdict(cfg)})
    last = metrics[-1] if metrics else {}
    print(f"pretrained {cfg.epochs} epochs; final mf_loss={last.get('mf_loss', float('nan')):.6f} "
          f"d_eff={last.get('d_eff', 0)}")
    return 0


def cmd_finetune(args) -> int:
    cfg, env_kind = _read_config(args.config, Stage2Config)
    out = Path(args.out)
    policy, value_net, metrics = finetune(
        _policy(args.checkpoint), lambda: make_env(env_kind), cfg, metrics_path=str(out) + ".metrics.csv"
    )
    save_checkpoint(out, {"policy": policy, "value": value_net},
                    state={"stage": "finetune", "env_kind": env_kind, "config": asdict(cfg)})
    write_config_echo(str(out) + ".config.json",
                      {"command": "finetune", "env_kind": env_kind, "checkpoint": str(args.checkpoint),
                       "out": str(out), **asdict(cfg)})
    last = metrics[-1] if metrics else {}
    print(f"finetuned {cfg.iterations} iterations; mean_return={last.get('mean_return', float('nan')):.3f} "
          f"success_rate={last.get('success_rate', float('nan')):.3f}")
    return 0


def cmd_eval(args) -> int:
    res = evaluate(_policy(args.checkpoint), args.env, args.episodes, args.K, args.seed)
    print(f"success_rate={res.success_rate}")
    print(f"mean_return={res.mean_return}")
    print(f"mean_nfe={res.mean_nfe}")
    print(f"mode_coverage={res.mode_coverage[0]},{res.mode_coverage[1]}")
    print(f"episodes={res.n_episodes}")
    return 0


def cmd_bench(args) -> int:
    net = _policy(args.checkpoint)
    ks = [int(k) for k in args.K.split(",")]
    if any(k < 1 for k in ks):
        raise ValueError("all K must be >= 1")
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if args.warmup < 0:
        raise ValueError(f"--warmup must be >= 0, got {args.warmup}")
    env = make_env(args.env)
    obs = env.reset(args.seed)
    rng = np.random.default_rng(args.seed)
    for K in ks:
        for _ in range(args.warmup):
            sample_deterministic(net, obs, K, rng)
    # interleaved rounds, one call per K with the order rotated each round, so
    # a change of machine speed mid-run lands on every K alike
    times = np.empty((len(ks), args.samples))
    nfes = [None] * len(ks)
    for i in range(args.samples):
        for j in np.roll(np.arange(len(ks)), -i):
            t0 = time.perf_counter()
            _, nfes[j] = sample_deterministic(net, obs, ks[j], rng)
            times[j, i] = time.perf_counter() - t0
    rows = [{"K": K, "nfe": nfe, "median_ms": float(np.median(t) * 1e3), "samples": args.samples}
            for K, nfe, t in zip(ks, nfes, times)]
    for row in rows:
        print(f"K={row['K']} nfe={row['nfe']} median_ms={row['median_ms']:.4f} samples={row['samples']}")
    if args.csv:
        write_metrics_csv(args.csv, BENCH_COLUMNS, rows)
    return 0


def cmd_inspect(args) -> int:
    nets, state = load_checkpoint(args.checkpoint)
    print(f"stage={state.get('stage', 'unknown')}")
    for name, net in nets.items():
        dims = " ".join(f"{k}={v}" for k, v in net.dims.items())
        n_params = sum(p.data.size for p in net.parameters())
        print(f"net={name} {dims} params={n_params}")
        if isinstance(net, VelocityNet):
            probe = np.random.default_rng(0).standard_normal((64, net.d_obs))
            print(f"net={name} d_eff={effective_rank(net.encode(probe))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dmpo", description="one-step generative policy pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate scripted-expert demonstrations")
    g.add_argument("--env", required=True, choices=ENV_KINDS)
    g.add_argument("--episodes", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("pretrain", help="stage 1: mean-velocity flow pre-training")
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_pretrain)

    f = sub.add_parser("finetune", help="stage 2: PPO fine-tuning")
    f.add_argument("--config", required=True)
    f.add_argument("--checkpoint", required=True)
    f.add_argument("--out", required=True)
    f.set_defaults(fn=cmd_finetune)

    e = sub.add_parser("eval", help="seeded deterministic evaluation")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--env", required=True, choices=ENV_KINDS)
    e.add_argument("--episodes", type=int, default=50)
    e.add_argument("-K", type=int, default=1)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(fn=cmd_eval)

    b = sub.add_parser("bench", help="per-K latency and NFE accounting")
    b.add_argument("--checkpoint", required=True)
    b.add_argument("--env", default="point-reach", choices=ENV_KINDS)
    b.add_argument("-K", default="1,2,5,20")
    b.add_argument("--csv", default=None)
    b.add_argument("--samples", type=int, default=100)
    b.add_argument("--warmup", type=int, default=10)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(fn=cmd_bench)

    i = sub.add_parser("inspect", help="checkpoint dims and embedding rank")
    i.add_argument("--checkpoint", required=True)
    i.set_defaults(fn=cmd_inspect)
    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        log.debug("traceback", exc_info=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
