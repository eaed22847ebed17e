"""Checkpoint, dataset, metrics, and config file formats.

Checkpoints are a JSON envelope: named parameter tensors as base64-encoded
little-endian IEEE-754 binary64 payloads, plus dims, a format version, an
arbitrary JSON-safe state blob (config snapshot, rng state, optimizer
state), and a sha256 content hash verified on load, where each net's dims
and parameter names must also be exactly its kind's and each parameter's
shape the one its dims give. Checkpoint round trips are bit-identical.
Datasets are JSON Lines, read strictly line by line; a round trip gives
back every double byte for byte except NaN: JSON's ``NaN`` token carries
neither a sign nor a payload, so every NaN reads back as the one quiet NaN
(bits ``0x7FF8000000000000``). Metrics are plain CSV with a fixed header.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import inspect
import json
from dataclasses import fields, is_dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .envs import Dataset
from .nets import ValueNet, VelocityNet

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


def _field(d: dict, key: str, typ: type, where: str):
    """``d[key]``, which must be exactly a ``typ`` as ``json.loads`` builds
    it (so a bool is no int); else a ``CheckpointError`` naming ``where``
    and the field."""
    if type(d.get(key)) is not typ:
        got = type(d[key]).__name__ if key in d else "missing"
        raise CheckpointError(f"{where}: field {key!r} is {got}; expected {typ.__name__}")
    return d[key]


def _decode_array(d: dict, where: str) -> np.ndarray:
    data, shape = _field(d, "data", str, where), _field(d, "shape", list, where)
    try:
        return np.frombuffer(base64.b64decode(data), dtype="<f8").astype(np.float64).reshape(shape)
    except (TypeError, ValueError) as err:
        # bad base64, a shape entry that is no integer, a payload that does not fill its shape
        raise CheckpointError(f"{where}: {err}") from None


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


def _from_jsonable(x, where: str):
    if isinstance(x, dict):
        if x.get("__ndarray__"):
            return _decode_array(x, where)
        return {k: _from_jsonable(v, f"{where}.{k}") for k, v in x.items()}
    if isinstance(x, list):
        return [_from_jsonable(v, f"{where}[{i}]") for i, v in enumerate(x)]
    return x


# checkpoint kind -> net class
_NET_KINDS = {"velocity": VelocityNet, "value": ValueNet}


def _net_kind(net) -> str:
    for kind, cls in _NET_KINDS.items():
        if isinstance(net, cls):
            return kind
    raise CheckpointError(f"cannot checkpoint object of type {type(net).__name__}")


def _rebuild_net(where: str, entry: dict):
    """The net saved as ``entry`` (its kind, integer dims and encoded
    arrays) in the checkpoint part ``where``; the dims must be the
    arguments of the kind's ``fans`` rule and the arrays its
    ``param_names``, no more, each of the shape the dims give. The arrays
    are checked against those shapes before the net is built, so no dims
    allocate more than the payloads hold."""
    kind, dims, params = (_field(entry, k, t, where) for k, t in (("kind", str), ("dims", dict), ("params", dict)))
    if kind not in _NET_KINDS:
        raise CheckpointError(f"{where}: unknown net kind {kind!r}")
    cls = _NET_KINDS[kind]
    names = list(inspect.signature(cls.fans).parameters)
    for what, saved, wanted, typ in (("dim", dims, names, int),
                                     ("parameter", params, cls.param_names, dict)):
        odd = sorted(set(saved) ^ set(wanted))
        if odd:
            state = "missing" if odd[0] in wanted else "unexpected"
            raise CheckpointError(f"{where}: {what} {odd[0]!r} is {state}")
        for k in saved:
            _field(saved, k, typ, f"{where}: {what}s")
    arrays = {n: _decode_array(d, f"{where}: parameter {n!r}") for n, d in params.items()}
    try:
        return cls.from_arrays(arrays, {k: dims[k] for k in names})
    except ValueError as err:  # a dim below 1, a parameter of the wrong shape
        raise CheckpointError(f"{where}: {err}") from None


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
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, not JSON, past the digit limit
        raise CheckpointError(f"unreadable checkpoint {path}: {e}") from e
    if not isinstance(envelope, dict) or "checksum" not in envelope:
        raise CheckpointError(f"malformed checkpoint {path}")
    stored = envelope.pop("checksum")
    actual = hashlib.sha256(_canonical(envelope)).hexdigest()
    if stored != actual:
        raise CheckpointError(f"checksum mismatch in {path}: file is corrupted")
    where = f"checkpoint {path}"
    if _field(envelope, "format_version", int, where) != FORMAT_VERSION:
        raise CheckpointError(f"{where}: format_version {envelope['format_version']} != {FORMAT_VERSION}")
    saved = _field(envelope, "nets", dict, where)
    nets = {n: _rebuild_net(f"{where}: net {n!r}", _field(saved, n, dict, f"{where}: nets")) for n in saved}
    return nets, _from_jsonable(_field(envelope, "state", dict, where), f"{where}: state")


# ---------------------------------------------------------------------------
# dataset JSONL


_DECODER = json.JSONDecoder()


def _row_texts(col: np.ndarray) -> list[str]:
    """``json.dumps(row)`` for each row of the 2-D ``col``.

    The column is encoded by one ``json.dumps`` and cut between rows: a
    number's text (``NaN`` and ``Infinity`` included) holds no bracket, so
    ``"], ["`` occurs only there."""
    return json.dumps(col.tolist())[1:-1].replace("], [", "]\n[").split("\n")


def save_dataset(path, ds: Dataset) -> None:
    """One JSON object per line, as ``json.dumps`` writes
    ``{"obs": [...], "action": [...], "episode": e, "t": t}``."""
    text = "".join(
        f'{{"obs": {o}, "action": {a}, "episode": {e}, "t": {t}}}\n'
        for o, a, e, t in zip(_row_texts(ds.obs), _row_texts(ds.actions),
                              ds.episode_ids.tolist(), ds.ts.tolist())
    )
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _shape(x):
    """``np.shape(x)``, or None for a ragged nested list."""
    try:
        return np.shape(x)
    except ValueError:
        return None


def _ragged_column(path, key: str, col: tuple, lines: tuple) -> ValueError:
    """The error for a column whose records differ in shape. It names the
    first record that is ragged itself or differs from the first record."""
    first = _shape(col[0])
    i = 0 if first is None else next(i for i, x in enumerate(col) if _shape(x) != first)
    shape = _shape(col[i])
    what = "is a ragged list" if shape is None else f"has shape {shape}, the first record's {first}"
    return ValueError(f"{path} line {lines[i]}: {key!r} {what}")


# per column, in a record's key order: the JSON type its entries must be, the
# Python types ``json`` decodes that to (a bool is neither), the integers the
# column's dtype holds (``float()`` of a larger one overflows), and the dtype
_NUMBER = ("number", {float, int}, range(2**970 - 2**1024 + 1, 2**1024 - 2**970), "float64")
_INTEGER = ("integer", {int}, range(-(2**63), 2**63), "int64")
_COLUMNS = {"obs": _NUMBER, "action": _NUMBER, "episode": _INTEGER, "t": _INTEGER}


def _bad_entry(path, n: int, key: str, v, what: str) -> ValueError:
    text = json.dumps(v)
    text = text if len(text) <= 40 else text[:20] + "..."
    return ValueError(f"{path} line {n}: {key!r} holds {text}, {what}")


def _checked_column(path, key: str, col: tuple, lines: tuple) -> np.ndarray:
    """``col`` as an array, or a ``ValueError`` naming the first bad record:
    ``obs`` and ``action`` must be JSON arrays of one shape holding numbers
    that fit a float64, ``episode`` and ``t`` JSON integers that fit an int64."""
    try:
        arr = np.array(col)
    except ValueError:
        raise _ragged_column(path, key, col, lines) from None
    kind, types, fits, dtype = _COLUMNS[key]
    arrays = kind == "number"  # each record is an array of entries
    if arrays and arr.ndim == 1:  # scalar records (a list among them is ragged)
        raise _bad_entry(path, lines[0], key, col[0], "not a JSON array")
    entries = chain.from_iterable(col) if arrays else col
    if types.issuperset(map(type, entries)) and arr.dtype in (dtype, np.int64):
        return arr
    for n, x in zip(lines, col):
        for v in x if arrays else (x,):
            if type(v) not in types:
                raise _bad_entry(path, n, key, v, f"not a JSON {kind}")
            if type(v) is int and v not in fits:
                raise _bad_entry(path, n, key, v, f"outside {dtype}")
    return arr  # a number column with integers past int64 that fit a float64


def _utf8_fault(path) -> ValueError:
    """The first byte of ``path`` that is not UTF-8, as a ``ValueError``
    naming its 1-based line, counted as text mode counts lines. The text
    reader's error places the byte within its read-ahead chunk, so the file
    is read again as bytes and decoded whole."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as err:
        head = raw[: err.start]
        n = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return ValueError(f"{path} line {n}: not UTF-8 text: {err}")
    return ValueError(f"{path}: not UTF-8 text")  # the file changed after the first read


def load_dataset(path) -> Dataset:
    """Read a dataset line by line. Each non-blank line must hold exactly one
    JSON object with the four keys, and its ``obs`` and ``action`` must be
    JSON arrays of numbers with the shapes of the first record's, and its
    ``episode`` and ``t`` JSON integers, each in its column's float64 or
    int64 range; a bad line, a byte that is not UTF-8 among them, is a
    ``ValueError`` naming the file and the line's 1-based number. Lines end
    as in text mode: at a ``\n``, ``\r\n`` or ``\r``."""
    recs = []  # (line number, obs, action, episode, t) of each record
    decode = _DECODER.raw_decode
    try:
        with open(path, encoding="utf-8") as f:
            for n, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec, end = decode(line)
                except json.JSONDecodeError as err:
                    raise ValueError(f"{path} line {n}: malformed JSON: {err.msg} (column {err.colno})") from None
                except ValueError as err:  # an integer past Python's digit limit
                    raise ValueError(f"{path} line {n}: {err}") from None
                if end != len(line):
                    raise ValueError(f"{path} line {n}: trailing data after the record (column {end + 1})")
                if type(rec) is not dict:
                    raise ValueError(f"{path} line {n}: expected a JSON object, got {type(rec).__name__}")
                try:
                    recs.append((n, rec["obs"], rec["action"], rec["episode"], rec["t"]))
                except KeyError as err:
                    raise ValueError(f"{path} line {n}: missing key {err}") from None
    except UnicodeDecodeError:
        raise _utf8_fault(path) from None
    if not recs:
        raise ValueError(f"{path}: no records")
    lines, *cols = zip(*recs)
    return Dataset(*(_checked_column(path, key, col, lines) for key, col in zip(_COLUMNS, cols)))


# ---------------------------------------------------------------------------
# metrics CSV and config echo


def metrics_csv(path, columns):
    """Start a fixed-column CSV at ``path`` (values via repr round-trip):
    write its header row now and return ``add(row)``, which appends one row
    and closes the file again, so a run that stops early keeps every row it
    finished. ``path`` None writes nothing."""
    if path is None:
        return lambda row: None
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(columns)

    def add(row):
        with open(path, "a", newline="", encoding="utf-8") as f:
            csv.writer(f).writerow([row[c] for c in columns])

    return add


# a config field's declared type -> the JSON type it takes and the Python
# types ``json`` decodes that to (a bool is neither an integer nor a number)
_CONFIG_TYPES = {"int": ("integer", {int}), "float": ("number", {int, float}),
                 "bool": ("boolean", {bool}), "str": ("string", {str})}


def parse_config(d: dict, cls):
    """Build dataclass ``cls`` from dict ``d``; unknown keys, and a value
    that is not of its field's JSON type, are a ``ValueError`` naming the
    key."""
    if not is_dataclass(cls):
        raise TypeError(f"{cls} is not a dataclass")
    known = {f.name: f.type if isinstance(f.type, str) else f.type.__name__ for f in fields(cls)}
    unknown = set(d) - set(known)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, v in d.items():
        kind, types = _CONFIG_TYPES[known[key]]
        if type(v) not in types:
            raise ValueError(f"config key {key!r} must be a JSON {kind}, got {type(v).__name__} {v!r}")
    return cls(**d)


def write_config_echo(path, cfg_dict: dict) -> None:
    """Resolved-config echo written beside every run's outputs."""
    Path(path).write_text(json.dumps(_to_jsonable(cfg_dict), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
