"""Checkpoint, dataset, metrics, and config file formats.

Checkpoints are a JSON envelope: named parameter tensors as base64-encoded
little-endian IEEE-754 binary64 payloads, plus dims, a format version, an
arbitrary JSON-safe state blob (config snapshot, rng state, optimizer
state), and a sha256 content hash verified on load. Round trips are
bit-identical. Datasets are JSON Lines with full round-trip float precision;
metrics are plain CSV with a fixed header.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .envs import Dataset
from .nets import ValueNet, VelocityNet, init_value_net, init_velocity_net

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable, wrong-version, or corrupted checkpoint."""


def _encode_array(a: np.ndarray) -> dict:
    le = np.ascontiguousarray(a, dtype="<f8")
    return {
        "__ndarray__": True,
        "shape": list(a.shape),
        "data": base64.b64encode(le.tobytes()).decode("ascii"),
    }


def _decode_array(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return a.reshape(d["shape"])


def _to_jsonable(x):
    if isinstance(x, np.ndarray):
        return _encode_array(x)
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {str(k): _to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_to_jsonable(v) for v in x]
    return x


def _from_jsonable(x):
    if isinstance(x, dict):
        if x.get("__ndarray__"):
            return _decode_array(x)
        return {k: _from_jsonable(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_from_jsonable(v) for v in x]
    return x


# checkpoint kind -> (net class, seeded init the saved arrays are loaded into)
_NET_KINDS = {"velocity": (VelocityNet, init_velocity_net), "value": (ValueNet, init_value_net)}


def _net_kind(net) -> str:
    for kind, (cls, _) in _NET_KINDS.items():
        if isinstance(net, cls):
            return kind
    raise CheckpointError(f"cannot checkpoint object of type {type(net).__name__}")


def _rebuild_net(kind: str, dims: dict, arrays: dict):
    if kind not in _NET_KINDS:
        raise CheckpointError(f"unknown net kind {kind!r}")
    net = _NET_KINDS[kind][1](0, **dims)
    net.load_arrays(arrays)
    return net


def _canonical(envelope: dict) -> bytes:
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode()


def save_checkpoint(path, nets: dict, state: dict | None = None) -> None:
    """Write nets (name -> VelocityNet/ValueNet) plus a JSON-safe state blob."""
    envelope = {
        "format_version": FORMAT_VERSION,
        "nets": {
            name: {
                "kind": _net_kind(net),
                "dims": {k: int(v) for k, v in net.dims.items()},
                "params": {n: _encode_array(a) for n, a in net.param_arrays().items()},
            }
            for name, net in nets.items()
        },
        "state": _to_jsonable(state or {}),
    }
    envelope["checksum"] = hashlib.sha256(_canonical(envelope)).hexdigest()
    Path(path).write_text(json.dumps(envelope), encoding="utf-8")


def load_checkpoint(path):
    """Read (nets dict, state dict); verifies version and content hash."""
    try:
        envelope = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable checkpoint {path}: {e}") from e
    if not isinstance(envelope, dict) or "checksum" not in envelope:
        raise CheckpointError(f"malformed checkpoint {path}")
    stored = envelope.pop("checksum")
    actual = hashlib.sha256(_canonical(envelope)).hexdigest()
    if stored != actual:
        raise CheckpointError(f"checksum mismatch in {path}: file is corrupted")
    if envelope.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {envelope.get('format_version')} != {FORMAT_VERSION}"
        )
    nets = {}
    for name, entry in envelope["nets"].items():
        arrays = {n: _decode_array(d) for n, d in entry["params"].items()}
        nets[name] = _rebuild_net(entry["kind"], entry["dims"], arrays)
    return nets, _from_jsonable(envelope.get("state", {}))


# ---------------------------------------------------------------------------
# dataset JSONL


def save_dataset(path, ds: Dataset) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i in range(len(ds)):
            rec = {
                "obs": ds.obs[i].tolist(),
                "action": ds.actions[i].tolist(),
                "episode": int(ds.episode_ids[i]),
                "t": int(ds.ts[i]),
            }
            f.write(json.dumps(rec) + "\n")


def load_dataset(path) -> Dataset:
    obs, act, ep, ts = [], [], [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            obs.append(rec["obs"])
            act.append(rec["action"])
            ep.append(rec["episode"])
            ts.append(rec["t"])
    return Dataset(np.array(obs), np.array(act), np.array(ep), np.array(ts))


# ---------------------------------------------------------------------------
# metrics CSV and config echo


def write_metrics_csv(path, columns, rows) -> None:
    """Fixed-column CSV with a header row; values via repr round-trip."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(columns)
        for row in rows:
            w.writerow([row[c] for c in columns])


def parse_config(d: dict, cls):
    """Build dataclass ``cls`` from dict ``d``; unknown keys are rejected."""
    if not is_dataclass(cls):
        raise TypeError(f"{cls} is not a dataclass")
    known = {f.name for f in fields(cls)}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cls(**d)


def write_config_echo(path, cfg_dict: dict) -> None:
    """Resolved-config echo written beside every run's outputs."""
    Path(path).write_text(json.dumps(_to_jsonable(cfg_dict), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
