import csv
import json
import re

import numpy as np
import pytest

from dmpo.cli import main
from dmpo.envs import Dataset, gen_demos
from dmpo.io import (
    CheckpointError,
    load_checkpoint,
    load_dataset,
    parse_config,
    save_checkpoint,
    save_dataset,
    write_metrics_csv,
)
from dmpo.meanflow import Stage1Config
from dmpo.ppo import Stage2Config
from dmpo.nets import init_value_net, init_velocity_net, param_checksum


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_identical(tmp_path):
    net = init_velocity_net(3, 4, 2)
    vnet = init_value_net(3, 4)
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"policy": net, "value": vnet}, state={"note": "x", "arr": np.arange(3.0)})
    nets, state = load_checkpoint(path)
    assert param_checksum(nets["policy"]) == param_checksum(net)
    assert param_checksum(nets["value"]) == param_checksum(vnet)
    assert state["note"] == "x"
    np.testing.assert_array_equal(state["arr"], [0.0, 1.0, 2.0])


def test_checkpoint_corruption_detected(tmp_path):
    net = init_velocity_net(4, 3, 2)
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"policy": net})
    raw = path.read_text()
    # flip one base64 payload character
    i = raw.index('"data": "') + len('"data": "') + 5
    ch = "A" if raw[i] != "A" else "B"
    path.write_text(raw[:i] + ch + raw[i + 1 :])
    with pytest.raises(CheckpointError, match="checksum|unreadable"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    import hashlib

    net = init_velocity_net(5, 3, 2)
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"policy": net})
    env = json.loads(path.read_text())
    env.pop("checksum")
    env["format_version"] = 99
    canon = json.dumps(env, sort_keys=True, separators=(",", ":")).encode()
    env["checksum"] = hashlib.sha256(canon).hexdigest()
    path.write_text(json.dumps(env))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated_file(tmp_path):
    net = init_velocity_net(6, 3, 2)
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"policy": net})
    path.write_text(path.read_text()[: 100])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_net_kind_and_non_nets(tmp_path):
    import hashlib

    path = tmp_path / "ck.json"
    with pytest.raises(CheckpointError, match="cannot checkpoint object of type dict"):
        save_checkpoint(path, {"policy": {}})
    save_checkpoint(path, {"policy": init_value_net(7, 3)})
    env = json.loads(path.read_text())
    env.pop("checksum")
    env["nets"]["policy"]["kind"] = "critic"
    canon = json.dumps(env, sort_keys=True, separators=(",", ":")).encode()
    env["checksum"] = hashlib.sha256(canon).hexdigest()
    path.write_text(json.dumps(env))
    with pytest.raises(CheckpointError, match="unknown net kind 'critic'"):
        load_checkpoint(path)


def _edited_checkpoint(path, edit):
    """Rewrite the checkpoint at ``path`` after ``edit(envelope)``, with its
    checksum recomputed so only the edit is wrong."""
    import hashlib

    env = json.loads(path.read_text())
    env.pop("checksum")
    edit(env)
    env["checksum"] = hashlib.sha256(json.dumps(env, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    path.write_text(json.dumps(env))


def _stray_param(env):
    env["nets"]["value"]["params"]["stray_w"] = env["nets"]["value"]["params"]["out_w"]


def _shrunk_out_b(env):
    env["nets"]["policy"]["params"]["out_b"] = env["nets"]["policy"]["params"]["enc0_b"]


@pytest.mark.parametrize("edit, what", [
    (lambda env: env["nets"]["policy"]["params"].pop("out_b"), "net 'policy': parameter 'out_b' is missing"),
    (_stray_param, "net 'value': parameter 'stray_w' is unexpected"),
    (lambda env: env["nets"]["policy"]["dims"].pop("d_h"), "net 'policy': dim 'd_h' is missing"),
    (lambda env: env["nets"]["value"]["dims"].update(d_h=8), "net 'value': dim 'd_h' is unexpected"),
    (lambda env: env["nets"]["value"].update(kind="velocity"), "net 'value': dim 'd_a' is missing"),
    (_shrunk_out_b, r"net 'policy': parameter out_b: shape \(64,\) != \(2,\)"),
    (lambda env: env["nets"]["value"]["dims"].update(width=1.5), "net 'value': "),
], ids=["missing-param", "stray-param", "missing-dim", "unknown-dim", "wrong-kind", "wrong-shape", "float-dim"])
def test_checkpoint_rejects_nets_that_do_not_match_their_kind(tmp_path, edit, what):
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"policy": init_velocity_net(3, 4, 2), "value": init_value_net(3, 4)})
    _edited_checkpoint(path, edit)
    with pytest.raises(CheckpointError, match=what):
        load_checkpoint(path)


@pytest.mark.parametrize("net, dim, what", [
    ("policy", "d_obs", r"net 'policy': parameter enc0_w: shape \(4, 64\) != \(1000000000, 64\)"),
    ("value", "width", r"net 'value': parameter l0_w: shape \(4, 64\) != \(4, 1000000000\)"),
], ids=["velocity-d_obs", "value-width"])
def test_checkpoint_huge_dims_are_rejected_before_anything_is_allocated(tmp_path, monkeypatch, net, dim, what):
    # the saved shapes are compared with the dims' shapes before any net is
    # built; an init reached with these dims would allocate a 1e9-row weight
    import dmpo.nets

    path = tmp_path / "ck.json"
    save_checkpoint(path, {"policy": init_velocity_net(3, 4, 2), "value": init_value_net(3, 4)})
    _edited_checkpoint(path, lambda env: env["nets"][net]["dims"].update({dim: 10**9}))

    def unreachable(*args, **kwargs):
        raise AssertionError("a net was initialised from the checkpoint's dims")

    monkeypatch.setattr(dmpo.nets, "_init_net", unreachable)
    with pytest.raises(CheckpointError, match=what):
        load_checkpoint(path)


def _set(*keys_and_value):
    """An edit that sets ``env[k0][k1]...[kn] = value``."""
    *keys, value = keys_and_value

    def edit(env):
        for k in keys[:-1]:
            env = env[k]
        env[keys[-1]] = value
    return edit


def _drop(*keys):
    """An edit that deletes ``env[k0][k1]...[kn]``."""
    def edit(env):
        for k in keys[:-1]:
            env = env[k]
        del env[keys[-1]]
    return edit


_VALUE_L0 = ("nets", "value", "params", "l0_w")
_STATE_ARR = ("state", "arr")

# (edit, the part and field the error must name); every checksum is
# recomputed, so only the structure is wrong
STRUCTURE_FAULTS = {
    "drop-nets": (_drop("nets"), "field 'nets' is missing"),
    "drop-state": (_drop("state"), "field 'state' is missing"),
    "drop-format-version": (_drop("format_version"), "field 'format_version' is missing"),
    "drop-kind": (_drop("nets", "value", "kind"), "net 'value': field 'kind' is missing"),
    "drop-dims": (_drop("nets", "policy", "dims"), "net 'policy': field 'dims' is missing"),
    "drop-params": (_drop("nets", "value", "params"), "net 'value': field 'params' is missing"),
    "drop-param-data": (_drop(*_VALUE_L0, "data"), "net 'value': parameter 'l0_w': field 'data' is missing"),
    "drop-param-shape": (_drop(*_VALUE_L0, "shape"), "net 'value': parameter 'l0_w': field 'shape' is missing"),
    "drop-state-array-data": (_drop(*_STATE_ARR, "data"), "state.arr: field 'data' is missing"),
    "type-format-version": (_set("format_version", "1"), "field 'format_version' is str; expected int"),
    "type-kind": (_set("nets", "value", "kind", 3), "net 'value': field 'kind' is int; expected str"),
    "type-dim-str": (_set("nets", "value", "dims", "d_obs", "3"), "net 'value': dims: field 'd_obs' is str"),
    "type-dim-bool": (_set("nets", "policy", "dims", "d_a", True), "net 'policy': dims: field 'd_a' is bool"),
    "type-param-data": (_set(*_VALUE_L0, "data", 5), "parameter 'l0_w': field 'data' is int; expected str"),
    "type-param-shape": (_set(*_VALUE_L0, "shape", "3,64"), "parameter 'l0_w': field 'shape' is str; expected list"),
    "type-param-shape-entry": (_set(*_VALUE_L0, "shape", [4, "64"]), "net 'value': parameter 'l0_w': "),
    "type-net": (_set("nets", "value", "value"), "nets: field 'value' is str; expected dict"),
    "list-nets": (_set("nets", []), "field 'nets' is list; expected dict"),
    "list-state": (_set("state", []), "field 'state' is list; expected dict"),
    "list-net": (_set("nets", "value", []), "nets: field 'value' is list; expected dict"),
    "list-dims": (_set("nets", "policy", "dims", []), "net 'policy': field 'dims' is list; expected dict"),
    "list-params": (_set("nets", "value", "params", []), "net 'value': field 'params' is list; expected dict"),
    "list-param": (_set(*_VALUE_L0, []), "net 'value': parameters: field 'l0_w' is list; expected dict"),
    "dict-param-shape": (_set(*_VALUE_L0, "shape", {}), "parameter 'l0_w': field 'shape' is dict; expected list"),
    "short-param-payload": (_set(*_VALUE_L0, "shape", [5, 64]), "net 'value': parameter 'l0_w': "),
    "short-state-payload": (_set(*_STATE_ARR, "shape", [4]), "state.arr: "),
    "nested-state-array": (_drop("state", "log", 1, "w", "shape"), "state.log[1].w: field 'shape' is missing"),
}


@pytest.mark.parametrize("fault", list(STRUCTURE_FAULTS))
def test_checkpoint_structure_faults_name_file_and_field(tmp_path, fault):
    edit, field = STRUCTURE_FAULTS[fault]
    path = tmp_path / "ck.json"
    state = {"arr": np.arange(3.0), "log": [{"w": np.ones(2)}, {"w": np.zeros(2)}]}
    save_checkpoint(path, {"policy": init_velocity_net(3, 4, 2), "value": init_value_net(3, 4)}, state=state)
    load_checkpoint(path)  # intact, it loads
    _edited_checkpoint(path, edit)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert field in str(info.value)


_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff"


@pytest.mark.parametrize("mutate, fault", [
    (lambda raw: b"\xff" + raw[1:], _NOT_UTF8),
    (lambda raw: raw[: len(raw) // 2] + b"\xff" + raw[len(raw) // 2 + 1 :], _NOT_UTF8),
    (lambda raw: raw[:-1] + b"\xff", _NOT_UTF8),
    (lambda raw: b'{"version": ' + b"1" * 5000 + b"}", r"Exceeds the limit \(4300 digits\)"),
], ids=["byte-ff-first", "byte-ff-middle", "byte-ff-last", "digit-limit"])
def test_checkpoint_that_cannot_be_parsed_names_the_file(tmp_path, mutate, fault):
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"policy": init_velocity_net(3, 4, 2)})
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(CheckpointError, match=f"unreadable checkpoint {path}: {fault}"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# datasets and metrics


def test_dataset_jsonl_round_trip(tmp_path):
    ds = gen_demos("point-reach", 5, seed=2)
    path = tmp_path / "d.jsonl"
    save_dataset(path, ds)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.obs, ds.obs)
    np.testing.assert_array_equal(back.actions, ds.actions)
    np.testing.assert_array_equal(back.episode_ids, ds.episode_ids)
    np.testing.assert_array_equal(back.ts, ds.ts)
    # format: one JSON object per line with the documented keys
    line = json.loads(path.read_text().splitlines()[0])
    assert set(line) == {"obs", "action", "episode", "t"}


def _reference_jsonl(ds) -> str:
    """The dataset format: ``json.dumps`` of each record, one per line."""
    return "".join(
        json.dumps({"obs": ds.obs[i].tolist(), "action": ds.actions[i].tolist(),
                    "episode": int(ds.episode_ids[i]), "t": int(ds.ts[i])}) + "\n"
        for i in range(len(ds))
    )


_SPECIAL = np.array([[np.nan, np.inf, -np.inf, -0.0], [5e-324, 1e16, -1e-300, 0.1], [1.0, -2.5, 0.0, 3e300]])


@pytest.mark.parametrize("ds", [
    Dataset(_SPECIAL, _SPECIAL[:, 1:3], np.array([0, 0, 7]), np.array([0, 1, 0])),
    Dataset(_SPECIAL[:, :1], _SPECIAL[:, 3:], np.arange(3), np.zeros(3)),  # d_obs = 1
    Dataset(np.array([[0.25, -0.0]]), np.array([[np.nan, 1e16]]), np.array([3]), np.array([0])),  # one row
    gen_demos("modal-bandit", 16, seed=1),
    gen_demos("point-reach", 3, seed=4),
], ids=["specials", "d_obs=1", "one-row", "modal-bandit", "point-reach"])
def test_dataset_bytes_match_per_record_json_and_round_trip(tmp_path, ds):
    path = tmp_path / "d.jsonl"
    save_dataset(path, ds)
    assert path.read_bytes() == _reference_jsonl(ds).encode("utf-8")
    back = load_dataset(path)
    for got, want in ((back.obs, ds.obs), (back.actions, ds.actions), (back.episode_ids, ds.episode_ids),
                      (back.ts, ds.ts)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bitwise: NaN, -0.0 and 5e-324 survive


_REC = '{"obs": [0.1, 0.2], "action": [0.3, 0.4], "episode": 0, "t": 0}'


@pytest.mark.parametrize("text, line, what", [
    (_REC + "\n" + '{"obs": [0.1, \n', 2, "malformed JSON"),
    (_REC + "\n\n" + _REC + " 5\n", 3, "trailing data"),
    (_REC + "\n" + _REC + _REC + "\n", 2, "trailing data"),
    # one record split over two lines, then a complete one
    ('{"obs": [0.1, 0.2], "action": [0.3, 0.4],\n"episode": 0, "t": 0}\n' + _REC + "\n", 1, "malformed JSON"),
    (_REC + "\n" + "[0.1, 0.2]\n", 2, "expected a JSON object"),
    (_REC + "\n" + '{"action": [0.3, 0.4], "episode": 0, "t": 0}\n', 2, "missing key 'obs'"),
    (_REC + "\n" + '{"obs": [0.1, 0.2], "action": [0.3, 0.4], "episode": 0}\n', 2, "missing key 't'"),
    (_REC + "\n\n" + _REC + "\n" + _REC.replace("[0.1, 0.2]", "[0.1, 0.2, 0.5]") + "\n", 4,
     r"'obs' has shape \(3,\), the first record's \(2,\)"),
    (_REC + "\n" + _REC.replace("[0.3, 0.4]", "[0.3]") + "\n", 2, r"'action' has shape \(1,\)"),
    (_REC.replace("[0.3, 0.4]", "[0.3, [0.4]]") + "\n" + _REC + "\n", 1, "'action' is a ragged list"),
    # records whose obs is a number, not an array, used to load as a 1-D column
    ((_REC.replace("[0.1, 0.2]", "0.5") + "\n") * 2, 1, "'obs' holds 0.5, not a JSON array"),
    ((_REC.replace("[0.3, 0.4]", '"up"') + "\n") * 2, 1, "'action' holds \"up\", not a JSON array"),
    # an integer past Python's digit limit fails inside the JSON decoder
    (_REC + "\n" + _REC.replace('"t": 0', '"t": ' + "1" * 5000) + "\n", 2, "(Exceeds the limit|'t' holds)"),
], ids=["malformed", "trailing", "two-records", "split-record", "non-object", "missing-obs", "missing-t",
        "ragged-obs", "ragged-action", "ragged-first", "scalar-obs", "scalar-action", "digit-limit"])
def test_load_dataset_names_the_bad_line(tmp_path, text, line, what):
    path = tmp_path / "d.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"d.jsonl line {line}: {what}"):
        load_dataset(path)


@pytest.mark.parametrize("old, new, what", [
    ('"episode": 0', '"episode": 1.5', "'episode' holds 1.5, not a JSON integer"),
    ('"episode": 0', '"episode": false', "'episode' holds false, not a JSON integer"),
    ('"t": 0', '"t": true', "'t' holds true, not a JSON integer"),
    ('"t": 0', '"t": 2.0', "'t' holds 2.0, not a JSON integer"),
    ("[0.1, 0.2]", '["a", 0.2]', "'obs' holds \"a\", not a JSON number"),
    ("[0.1, 0.2]", "[true, 0.2]", "'obs' holds true, not a JSON number"),
    ("[0.3, 0.4]", "[0.3, null]", "'action' holds null, not a JSON number"),
    # integers past the column's dtype used to overflow inside numpy or wrap
    ('"episode": 0', '"episode": 100000000000000000000', "'episode' holds 100000000000000000000, outside int64"),
    ('"t": 0', '"t": 9223372036854775808', "'t' holds 9223372036854775808, outside int64"),
    ('"t": 0', '"t": -9223372036854775809', "'t' holds -9223372036854775809, outside int64"),
    ("[0.1, 0.2]", "[0.1, 1" + "0" * 400 + "]", r"'obs' holds 10000000000000000000\.\.\., outside float64"),
], ids=["episode-float", "episode-bool", "t-bool", "t-float", "obs-string", "obs-bool", "action-null",
        "episode-past-int64", "t-past-int64", "t-below-int64", "obs-past-float64"])
def test_load_dataset_rejects_entries_of_the_wrong_json_type(tmp_path, old, new, what):
    # the bad record on line 3 follows a good record and a blank line
    path = tmp_path / "d.jsonl"
    path.write_text(_REC + "\n\n" + _REC.replace(old, new) + "\n" + _REC + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"d.jsonl line 3: {what}"):
        load_dataset(path)
    # every record the same: numpy builds a column of one dtype, which is
    # still the wrong JSON type
    path.write_text((_REC.replace(old, new) + "\n") * 2, encoding="utf-8")
    with pytest.raises(ValueError, match=f"d.jsonl line 1: {what}"):
        load_dataset(path)


def test_load_dataset_accepts_integers_that_fit_float64_and_int64(tmp_path):
    big = 10**30  # past int64, so numpy builds an object column; a float64 holds it
    path = tmp_path / "d.jsonl"
    path.write_text(_REC + "\n" + _REC.replace("[0.1, 0.2]", f"[{big}, -3]").replace('"t": 0', f'"t": {2**63 - 1}')
                    + "\n", encoding="utf-8")
    ds = load_dataset(path)
    np.testing.assert_array_equal(ds.obs, [[0.1, 0.2], [1e30, -3.0]], strict=True)
    np.testing.assert_array_equal(ds.ts, np.array([0, 2**63 - 1]), strict=True)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("line", [1, 2, 300])
def test_load_dataset_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, newline, line):
    # line 300 lies past the text reader's first read-ahead chunk, and a
    # blank line sits before it; the byte is the first of the line's "obs"
    lines = [_REC] * 400
    lines[4] = ""
    path = tmp_path / "d.jsonl"
    raw = bytearray(newline.join(lines).encode())
    raw[len(newline.join(lines[: line - 1] + [""]).encode()) + 2] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"d.jsonl line {line}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"):
        load_dataset(path)


def test_load_dataset_rejects_a_file_without_records(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("\n  \n", encoding="utf-8")
    with pytest.raises(ValueError, match="d.jsonl: no records"):
        load_dataset(path)


def test_cli_names_the_bad_dataset_line(tmp_path, capsys):
    path = tmp_path / "d.jsonl"
    path.write_text(_REC + "\n" + '{"action": [0.3, 0.4], "episode": 0, "t": 0}\n', encoding="utf-8")
    cfg = tmp_path / "s1.json"
    cfg.write_text("{}")
    assert main(["pretrain", "--config", str(cfg), "--data", str(path), "--out", str(tmp_path / "ck.json")]) == 1
    assert capsys.readouterr().err == f"error: ValueError: {path} line 2: missing key 'obs'\n"


def test_metrics_csv_header_and_values(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics_csv(path, ("a", "b"), [{"a": 1, "b": 0.5}, {"a": 2, "b": 1.0 / 3.0}])
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["a", "b"]
    assert float(rows[2][1]) == 1.0 / 3.0  # full round-trip precision


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        parse_config({"epochs": 3, "bogus": 1}, Stage1Config)
    cfg = parse_config({"epochs": 3}, Stage1Config)
    assert cfg.epochs == 3 and cfg.alpha_disp == 0.1  # defaults filled


_BAD_TYPES = [
    ({"epochs": True}, Stage1Config, "'epochs' must be a JSON integer, got bool True"),
    ({"epochs": 2.5}, Stage1Config, "'epochs' must be a JSON integer, got float 2.5"),
    ({"lr": False}, Stage1Config, "'lr' must be a JSON number, got bool False"),
    ({"disp_kind": 1}, Stage1Config, "'disp_kind' must be a JSON string, got int 1"),
    ({"n_envs": 8.0}, Stage2Config, "'n_envs' must be a JSON integer, got float 8.0"),
    ({"sigma_learnable": 1}, Stage2Config, "'sigma_learnable' must be a JSON boolean, got int 1"),
]


@pytest.mark.parametrize("d, cls, msg", _BAD_TYPES)
def test_parse_config_rejects_a_value_of_the_wrong_type(d, cls, msg):
    with pytest.raises(ValueError) as err:
        parse_config(d, cls)
    assert str(err.value) == "config key " + msg


def test_parse_config_takes_an_integer_for_a_float_field():
    cfg = parse_config({"lr": 1, "sigma": 0.5, "sigma_learnable": True, "K": 2}, Stage2Config)
    assert (cfg.lr, cfg.sigma, cfg.sigma_learnable, cfg.K) == (1, 0.5, True, 2)


@pytest.mark.parametrize("d, cls, msg", [_BAD_TYPES[0], _BAD_TYPES[1], _BAD_TYPES[4]])
def test_cli_rejects_a_config_value_of_the_wrong_type(tmp_path, capsys, d, cls, msg):
    data, cfg, out = tmp_path / "d.jsonl", tmp_path / "cfg.json", tmp_path / "out.json"
    if cls is Stage1Config:
        save_dataset(data, gen_demos("point-reach", 2, 0))
        cfg.write_text(json.dumps(d))
        args = ["pretrain", "--config", str(cfg), "--data", str(data), "--out", str(out)]
    else:
        cfg.write_text(json.dumps({"env_kind": "point-reach", **d}))
        args = ["finetune", "--config", str(cfg), "--checkpoint", str(tmp_path / "none.json"), "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr() == ("", f"error: ValueError: config {cfg}: config key {msg}\n")
    assert not out.exists()


@pytest.mark.parametrize("d, fault", [
    ({"epocs": 1}, "unknown config keys: ['epocs']"),
    ({"lr": 0}, "lr must be > 0"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"epochs": 1.5}, "config key 'epochs' must be a JSON integer, got float 1.5"),
], ids=["unknown-key", "out-of-range", "negative-seed", "wrong-type"])
@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_cli_names_the_config_file_of_a_bad_key_or_value(tmp_path, capsys, d, fault, command):
    # the config is read before the run's other input, which is missing here
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
    if command == "finetune":
        d = {"env_kind": "point-reach", **d}
    cfg.write_text(json.dumps(d))
    given = ("--data", tmp_path / "d.jsonl") if command == "pretrain" else ("--checkpoint", tmp_path / "c.json")
    assert main([command, "--config", str(cfg), given[0], str(given[1]), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: ValueError: config {cfg}: {fault}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, d, fault", [
    ("pretrain", {"env_kind": "point-reach"}, "unknown config keys: ['env_kind']"),
    ("finetune", {"iterations": 1}, "finetune config must set env_kind"),
    ("finetune", {"env_kind": "mars"}, "unknown env_kind 'mars'; expected one of "),
], ids=["pretrain-given", "finetune-missing", "finetune-unknown"])
def test_cli_names_the_config_file_of_a_bad_env_kind(tmp_path, capsys, command, d, fault):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    given = ("--data", tmp_path / "d.jsonl") if command == "pretrain" else ("--checkpoint", tmp_path / "c.json")
    assert main([command, "--config", str(cfg), given[0], str(given[1]), "--out", str(tmp_path / "out.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: ValueError: config {cfg}: {fault}"), captured.err


@pytest.mark.parametrize("text, fault", [
    (b'{"epochs": \xff3}', r": 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
    (b'{"epochs": 3,}', r": Expecting property name enclosed in double quotes: line 1 column 14 \(char 13\)"),
    (b'{"epochs": ' + b"1" * 5000 + b"}", r": Exceeds the limit \(4300 digits\) for integer string conversion.*"),
    (b"5", "holds 5, not a JSON object"),
    (b"null", "holds null, not a JSON object"),
    (b'"ab"', 'holds "ab", not a JSON object'),
    (b"[1, 2]", r"holds \[1, 2\], not a JSON object"),
    (b'{"epochs": 3, "seed": 0, "epochs": 4}', ": repeated key 'epochs'"),
], ids=["not-utf8", "not-json", "digit-limit", "int", "null", "string", "list", "repeated-key"])
@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_cli_names_the_config_file_and_its_fault(tmp_path, capsys, text, fault, command):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg.write_bytes(text)
    given = ("--data", tmp_path / "d.jsonl") if command == "pretrain" else ("--checkpoint", tmp_path / "c.json")
    assert main([command, "--config", str(cfg), given[0], str(given[1]), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: ValueError: config {re.escape(str(cfg))} ?{fault}\n", captured.err), captured.err
    assert not out.exists()


# ---------------------------------------------------------------------------
# CLI end to end


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "demos.jsonl"
    ck = root / "pre.json"
    assert main(["gen-data", "--env", "point-reach", "--episodes", "6", "--seed", "0",
                 "--out", str(data)]) == 0
    cfg = root / "s1.json"
    cfg.write_text(json.dumps({"epochs": 5, "batch_size": 32, "seed": 0}))
    assert main(["pretrain", "--config", str(cfg), "--data", str(data), "--out", str(ck)]) == 0
    return root, data, ck


def test_cli_pretrain_outputs(pipeline):
    root, data, ck = pipeline
    assert ck.exists()
    echo = json.loads((root / "pre.json.config.json").read_text())
    assert echo["alpha_disp"] == 0.1  # defaults resolved into the echo
    assert echo["epochs"] == 5
    metrics = (root / "pre.json.metrics.csv").read_text().splitlines()
    assert metrics[0] == "epoch,step,mf_loss,disp_loss,total_loss,d_eff,wall_ms"
    assert len(metrics) == 6


def test_cli_eval_nfe_accounting(pipeline, capsys):
    root, data, ck = pipeline
    assert main(["eval", "--checkpoint", str(ck), "--env", "point-reach",
                 "--episodes", "3", "-K", "1", "--seed", "1"]) == 0
    out1 = dict(l.split("=", 1) for l in capsys.readouterr().out.strip().splitlines())
    assert float(out1["mean_nfe"]) == 1.0
    assert main(["eval", "--checkpoint", str(ck), "--env", "point-reach",
                 "--episodes", "3", "-K", "5", "--seed", "1"]) == 0
    out5 = dict(l.split("=", 1) for l in capsys.readouterr().out.strip().splitlines())
    assert float(out5["mean_nfe"]) == 5.0


def test_cli_finetune_and_inspect(pipeline, tmp_path):
    root, data, ck = pipeline
    cfg = tmp_path / "s2.json"
    cfg.write_text(json.dumps({"env_kind": "point-reach-shifted", "iterations": 2,
                               "rollout_steps": 64, "n_envs": 4, "seed": 0}))
    out = tmp_path / "ft.json"
    assert main(["finetune", "--config", str(cfg), "--checkpoint", str(ck),
                 "--out", str(out)]) == 0
    nets, state = load_checkpoint(out)
    assert set(nets) == {"policy", "value"}
    assert state["env_kind"] == "point-reach-shifted"
    assert (tmp_path / "ft.json.metrics.csv").exists()
    assert main(["inspect", "--checkpoint", str(out)]) == 0


def test_cli_finetune_requires_env_kind(pipeline, tmp_path, capsys):
    root, data, ck = pipeline
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"iterations": 1}))
    rc = main(["finetune", "--config", str(cfg), "--checkpoint", str(ck),
               "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_bench_csv(pipeline, tmp_path):
    root, data, ck = pipeline
    out = tmp_path / "bench.csv"
    assert main(["bench", "--checkpoint", str(ck), "--env", "point-reach",
                 "-K", "1,2", "--samples", "5", "--warmup", "1", "--csv", str(out)]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert [r["K"] for r in rows] == ["1", "2"]
    assert [r["nfe"] for r in rows] == ["1", "2"]


@pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--samples", "-2"), ("--warmup", "-1")])
def test_cli_bench_rejects_bad_sample_counts(pipeline, tmp_path, capsys, flag, value):
    root, data, ck = pipeline
    out = tmp_path / "bench.csv"
    args = ["bench", "--checkpoint", str(ck), "-K", "1", "--samples", "5", "--warmup", "1",
            "--csv", str(out)]
    args[args.index(flag) + 1] = value
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and flag in err
    assert not out.exists()


def test_cli_eval_rejects_no_episodes(pipeline, capsys):
    root, data, ck = pipeline
    assert main(["eval", "--checkpoint", str(ck), "--env", "point-reach", "--episodes", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ValueError: n_episodes must be >= 1, got 0\n"


@pytest.mark.parametrize("name", ["value", "policy"])  # a value net saved as "policy" is no policy either
@pytest.mark.parametrize("command", ["finetune", "eval", "bench"])
def test_cli_names_a_checkpoint_without_a_policy_net(tmp_path, capsys, command, name):
    ck = tmp_path / "value.json"
    save_checkpoint(ck, {name: init_value_net(0, 4)})
    cfg = tmp_path / "s2.json"
    cfg.write_text(json.dumps({"env_kind": "point-reach", "iterations": 1}))
    args = {"finetune": ["--config", str(cfg), "--out", str(tmp_path / "ft.json")],
            "eval": ["--env", "point-reach"], "bench": ["-K", "1", "--samples", "1"]}[command]
    assert main([command, "--checkpoint", str(ck), *args]) == 1
    assert capsys.readouterr() == ("", "error: ValueError: checkpoint does not contain a policy net\n")


def test_cli_runtime_failure_exit_code(capsys):
    assert main(["eval", "--checkpoint", "/nonexistent.json", "--env", "point-reach"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "\n" == err[-1] and err.count("\n") == 1  # one-line machine-parsable


def test_cli_bad_flags_exit_two():
    with pytest.raises(SystemExit) as e:
        main(["eval", "--env", "point-reach"])  # missing --checkpoint
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["not-a-command"])
    assert e.value.code == 2


def test_pretrain_checkpoint_round_trips_into_eval(pipeline):
    # loading a pretrain checkpoint must reproduce its eval metrics exactly
    from dmpo.envs import evaluate

    root, data, ck = pipeline
    nets, _ = load_checkpoint(ck)
    first = evaluate(nets["policy"], "point-reach", 5, 1, seed=3)
    nets2, _ = load_checkpoint(ck)
    again = evaluate(nets2["policy"], "point-reach", 5, 1, seed=3)
    assert first == again


def test_cli_rerun_from_echoed_config(pipeline, tmp_path):
    root, data, ck = pipeline
    echo = json.loads((root / "pre.json.config.json").read_text())
    for k in ("command", "data", "out"):
        echo.pop(k)
    cfg2 = tmp_path / "echo.json"
    cfg2.write_text(json.dumps(echo))
    out2 = tmp_path / "pre2.json"
    assert main(["pretrain", "--config", str(cfg2), "--data", str(data), "--out", str(out2)]) == 0
    a, _ = load_checkpoint(ck)
    b, _ = load_checkpoint(out2)
    assert param_checksum(a["policy"]) == param_checksum(b["policy"])
