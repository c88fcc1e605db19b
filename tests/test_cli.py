"""End-to-end CLI runs on tiny datasets (in-process, exit-code contracts)."""

import copy
import csv
import json
import struct
import tempfile
import zlib
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapestream import cli as cli_module
from shapestream import model as model_module
from shapestream.bench import BenchSettings
from shapestream.checkpoint import load_model
from shapestream.cli import _assemble_model_config, build_parser, main
from shapestream.metrics import EvalSettings
from shapestream.model import ModelConfig
from shapestream.scenes import DatasetError, build_manifest, read_manifest
from shapestream.train import TrainSettings

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def gen(tmp_path, name="data", protocol="camera_pan", objects=4, res=8, views=3,
        seed=11) -> str:
    out = str(tmp_path / name)
    code = main(["gen-data", "--protocol", protocol, "--objects", str(objects),
                 "--res", str(res), "--views", str(views), "--seed", str(seed),
                 "--out", out])
    assert code == 0
    return out


TINY_TRAIN = ["--latent-dim", "16", "--qk-dim", "8", "--features", "8",
              "--layers", "1", "--channels", "2,4", "--train-views", "3"]


def test_gen_data_writes_manifest_and_grids(tmp_path, capsys):
    out = gen(tmp_path)
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    assert manifest["protocol"] == "camera_pan"
    assert len(manifest["objects"]) == 4
    grids = list((tmp_path / "data").glob("*.vxg"))
    assert len(grids) == len(manifest["sequences"]) * 3 * 2
    assert (tmp_path / "data" / "provenance.json").exists()
    assert "4 objects" in capsys.readouterr().out


def test_gen_data_ten_objects_split_8_1_1(tmp_path):
    gen(tmp_path, "ten", objects=10, views=2, seed=7)
    manifest = json.loads((tmp_path / "ten" / "manifest.json").read_text())
    splits = [o["split"] for o in manifest["objects"]]
    assert (splits.count("train"), splits.count("val"), splits.count("test")) == (8, 1, 1)


def test_gen_data_deterministic_byte_identical(tmp_path):
    a = gen(tmp_path, "a", seed=3)
    b = gen(tmp_path, "b", seed=3)
    for fa in sorted((tmp_path / "a").iterdir()):
        if fa.name == "provenance.json":
            continue  # records the command line, which differs by --out
        assert fa.read_bytes() == (tmp_path / "b" / fa.name).read_bytes(), fa.name


def test_gen_data_refuses_nonempty_out_without_force(tmp_path):
    gen(tmp_path)
    code = main(["gen-data", "--protocol", "camera_pan", "--objects", "4",
                 "--res", "8", "--views", "3", "--out", str(tmp_path / "data")])
    assert code == 2


def test_gen_data_slide_behind_rejects_single_object(tmp_path):
    code = main(["gen-data", "--protocol", "slide_behind", "--objects", "1",
                 "--res", "8", "--views", "3", "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("flags", [["--res", "0"], ["--views", "0"], ["--res", "-4"],
                                   ["--objects", "2"]],
                         ids=["res_zero", "views_zero", "res_negative", "two_objects"])
def test_gen_data_invalid_size_exits_2_and_writes_nothing(tmp_path, flags):
    out = tmp_path / "x"
    code = main(["gen-data", "--protocol", "object_hiding", "--objects", "3",
                 "--res", "8", "--views", "3", "--out", str(out), *flags])
    assert code == 2
    assert not out.exists()


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_train_and_eval_round_trip(tmp_path, capsys):
    data = gen(tmp_path)
    run = str(tmp_path / "run")
    code = main(["train", "--data", data, "--out", run, "--variant", "mvp",
                 *TINY_TRAIN, "--steps", "3", "--val-every", "2", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "trained mvp" in out
    model = load_model(tmp_path / "run" / "checkpoint.mvpc")
    assert model.config.variant == "mvp"
    assert model.config.train_views == 3
    metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "step,split,loss,jaccard"
    assert len(metrics) > 1

    ev = str(tmp_path / "eval")
    code = main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.mvpc"),
                 "--data", data, "--split", "test", "--out", ev])
    assert code == 0
    summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
    assert summary["split"] == "test"
    assert 0.0 <= summary["mean_jaccard"] <= 1.0


def test_train_heads_flag_then_eval(tmp_path):
    data = gen(tmp_path)
    run = tmp_path / "heads"
    assert main(["train", "--data", data, "--out", str(run), "--variant", "mvp",
                 *TINY_TRAIN, "--heads", "2", "--steps", "1"]) == 0
    assert load_model(run / "checkpoint.mvpc").config.attention_heads == 2
    assert main(["eval", "--checkpoint", str(run / "checkpoint.mvpc"), "--data", data,
                 "--out", str(tmp_path / "heads_eval")]) == 0


def test_train_single_view_prints_stateless_note(tmp_path, capsys):
    data = gen(tmp_path)
    code = main(["train", "--data", data, "--out", str(tmp_path / "sv"),
                 "--variant", "single_view", *TINY_TRAIN, "--steps", "1"])
    assert code == 0
    assert "no sequence state" in capsys.readouterr().out


def test_train_resolution_mismatch_exits_3(tmp_path):
    data = gen(tmp_path)
    code = main(["train", "--data", data, "--out", str(tmp_path / "bad"),
                 "--variant", "mvp", *TINY_TRAIN, "--res", "16", "--steps", "1"])
    assert code == 3


def test_eval_checkpoint_resolution_mismatch_exits_3(tmp_path):
    data8 = gen(tmp_path, "d8", res=8)
    data16 = gen(tmp_path, "d16", res=16, objects=4)
    run = str(tmp_path / "run")
    assert main(["train", "--data", data8, "--out", run, "--variant", "mvp",
                 *TINY_TRAIN, "--steps", "1"]) == 0
    code = main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.mvpc"),
                 "--data", data16, "--out", str(tmp_path / "e")])
    assert code == 3


def test_eval_oracle_scores_perfectly(tmp_path, capsys):
    data = gen(tmp_path)
    code = main(["eval", "--checkpoint", "oracle", "--data", data,
                 "--split", "test", "--out", str(tmp_path / "o"),
                 "--points", "256"])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["mean_jaccard"] == 1.0


def test_eval_mesh_export_one_off_per_frame(tmp_path):
    data = gen(tmp_path)
    code = main(["eval", "--checkpoint", "oracle", "--data", data,
                 "--split", "test", "--out", str(tmp_path / "m"),
                 "--points", "256", "--export", "meshes"])
    assert code == 0
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    n_test = sum(1 for s in manifest["sequences"] if s["split"] == "test")
    offs = list((tmp_path / "m").glob("*_pred.off"))
    assert len(offs) == n_test * 3


def write_config(tmp_path, config) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_config_file_beats_defaults_and_flags_beat_it(tmp_path, monkeypatch):
    data = gen(tmp_path)
    monkeypatch.setenv("MVP_SEED", "3")
    cfg = write_config(tmp_path, {"latent_dim": 16, "qk_dim": 8, "feature_count": 8,
                                  "performer_layers": 1, "conv_channels": [2, 4],
                                  "train_views": 3, "steps": 2, "variant": "mvt",
                                  "seed": 1})
    run = str(tmp_path / "cfgrun")
    code = main(["train", "--data", data, "--out", run, "--variant", "lstm",
                 "--config", cfg, "--layers", "2"])
    assert code == 0
    model = load_model(tmp_path / "cfgrun" / "checkpoint.mvpc")
    assert model.config.performer_layers == 2  # flag beats file
    assert model.config.latent_dim == 16       # file beats defaults
    assert model.config.seed == 1              # file beats MVP_SEED
    assert model.config.variant == "lstm"      # flag beats file


def test_training_flags_beat_config_values(tmp_path):
    data = gen(tmp_path)
    run = tmp_path / "steps"
    assert main(["train", "--data", data, "--out", str(run), "--variant", "mvp",
                 *TINY_TRAIN, "--config", write_config(tmp_path, {"steps": 1, "seed": 1}),
                 "--steps", "2", "--seed", "2"]) == 0
    with open(run / "metrics.csv") as f:
        train_rows = [r for r in csv.DictReader(f) if r["split"] == "train"]
    assert len(train_rows) == 2
    assert load_model(run / "checkpoint.mvpc").config.seed == 2


def _trained_checkpoint_with_config(tmp_path, data, **changes):
    """Train one step, then rewrite the checkpoint's embedded config with
    ``changes`` and recompute the CRC."""
    run = tmp_path / "run"
    assert main(["train", "--data", data, "--out", str(run), "--variant", "mvp",
                 *TINY_TRAIN, "--steps", "1"]) == 0
    blob = (run / "checkpoint.mvpc").read_bytes()[:-4]
    (cfg_len,) = struct.unpack_from("<I", blob, 8)
    cfg = json.loads(blob[12 : 12 + cfg_len])
    cfg.update(changes)
    cfg_json = json.dumps(cfg, sort_keys=True).encode()
    blob = blob[:8] + struct.pack("<I", len(cfg_json)) + cfg_json + blob[12 + cfg_len :]
    bad = tmp_path / "bad.mvpc"
    bad.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
    return str(bad)


def test_eval_checkpoint_with_unknown_config_key_exits_3(tmp_path, capsys):
    data = gen(tmp_path)
    bad = _trained_checkpoint_with_config(tmp_path, data, dropout=0.1)
    code = main(["eval", "--checkpoint", bad, "--data", data,
                 "--out", str(tmp_path / "e")])
    assert code == 3
    assert "dropout" in capsys.readouterr().err


def test_eval_checkpoint_with_float_config_value_exits_3(tmp_path, capsys):
    data = gen(tmp_path)
    bad = _trained_checkpoint_with_config(tmp_path, data, latent_dim=16.0)
    code = main(["eval", "--checkpoint", bad, "--data", data,
                 "--out", str(tmp_path / "e")])
    assert code == 3
    assert "latent_dim must be an integer" in capsys.readouterr().err


def test_train_float_config_value_exits_2(tmp_path, capsys):
    data = gen(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--data", data, "--out", str(out), "--steps", "1",
                 "--config", write_config(tmp_path, {"latent_dim": 16.0})])
    assert code == 2
    assert "latent_dim must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_set_flag_exits_2_as_unknown_argument(tmp_path, capsys):
    data = gen(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--data", data, "--out", str(out), "--set", "steps=1"]) == 2
    assert "unrecognized arguments: --set" in capsys.readouterr().err
    assert not out.exists()


def test_set_max_views_exits_2_as_unknown_key(tmp_path, capsys):
    """max_views is the constant model.MAX_VIEWS, no longer a config key."""
    data = gen(tmp_path, views=8)
    out = tmp_path / "run"
    code = main(["train", "--data", data, "--out", str(out), "--steps", "1",
                 "--train-views", "12", "--config", write_config(tmp_path, {"max_views": 6})])
    assert code == 2
    assert "unknown config keys: ['max_views']" in capsys.readouterr().err
    assert not out.exists()


def test_train_views_past_max_views_on_short_sequences_trains_and_evals(tmp_path, monkeypatch):
    """12 train views over 3-view sequences fit MAX_VIEWS=3: training runs,
    and eval loads its checkpoint."""
    monkeypatch.setattr(model_module, "MAX_VIEWS", 3)
    data = gen(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--data", data, "--out", str(run), "--steps", "1",
                 "--train-views", "12"]) == 0
    assert main(["eval", "--checkpoint", str(run / "checkpoint.mvpc"), "--data", data,
                 "--out", str(tmp_path / "eval")]) == 0


def test_train_config_file_not_an_object_exits_2(tmp_path, capsys):
    data = gen(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code = main(["train", "--data", data, "--out", str(tmp_path / "run"),
                 "--config", str(cfg)])
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("flags,config,field", [
    (["--steps", "1", "--val-every", "0"], None, "val_every"),
    ([], {"steps": 2.7}, "steps"),
    (["--steps", "1", "--lr", "-1"], None, "learning_rate"),
    (["--steps", "1", "--lr", "inf"], None, "learning_rate"),
    (["--steps", "1"], {"val_every": 0}, "val_every"),
    (["--steps", "1"], {"learning_rate": -1}, "learning_rate"),
], ids=["val_every_zero", "fractional_steps", "negative_lr", "infinite_lr",
        "config_val_every_zero", "config_negative_lr"])
def test_train_invalid_training_setting_exits_2(tmp_path, capsys, flags, config, field):
    """Flags and --config are both checked before --out is created."""
    data = gen(tmp_path)
    if config is not None:
        flags = [*flags, "--config", write_config(tmp_path, config)]
    out = tmp_path / "run"
    code = main(["train", "--data", data, "--out", str(out), "--variant", "mvp",
                 *TINY_TRAIN, *flags])
    assert code == 2
    assert f"training {field} must be" in capsys.readouterr().err
    assert not out.exists()


def _flag_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


# per command: its setting classes, the flags it requires, and every setting
# flag with a valid value that is not its field's default
SETTING_COMMANDS = {
    "train": ((ModelConfig, TrainSettings), ["--data", "d", "--out", "o"], {
        "variant": ("--variant", "mvt"), "resolution": ("--res", 8),
        "latent_dim": ("--latent-dim", 16), "qk_dim": ("--qk-dim", 8),
        "feature_count": ("--features", 8), "kernel": ("--kernel", "softmax"),
        "performer_layers": ("--layers", 1), "attention_heads": ("--heads", 2),
        "conv_channels": ("--channels", (2, 4)), "train_views": ("--train-views", 3),
        "seed": ("--seed", 5), "steps": ("--steps", 7), "learning_rate": ("--lr", 0.005),
        "val_every": ("--val-every", 3)}),
    "eval": ((EvalSettings,), ["--checkpoint", "c", "--data", "d", "--out", "o"], {
        "points": ("--points", 256), "threshold": ("--threshold", 0.02),
        "seed": ("--seed", 5)}),
    "bench": ((BenchSettings,), [], {
        "lengths": ("--lengths", (4, 8)), "dim": ("--dim", 16), "heads": ("--heads", 2),
        "trials": ("--trials", 3), "kernel": ("--kernel", "softmax"), "seed": ("--seed", 5)}),
}


@pytest.mark.parametrize("command", SETTING_COMMANDS)
def test_each_setting_flag_sets_its_field(command):
    """Each field of the command's settings has exactly one flag, whose help
    shows the field's default, and the flag's value lands in the field."""
    classes, required, flags = SETTING_COMMANDS[command]
    assert set(SETTING_COMMANDS) == set(cli_module.SETTING_FIELDS)
    setting_fields = [f for cls in classes for f in fields(cls)]
    assert cli_module.SETTING_FIELDS[command] == tuple(setting_fields)
    assert set(flags) == {f.name for f in setting_fields}
    actions = build_parser()._subparsers._group_actions[0].choices[command]._actions
    argv = [command, *required]
    for f in setting_fields:
        flag, value = flags[f.name]
        [action] = [a for a in actions if a.dest == f.name]
        assert action.option_strings == [flag], f.name
        # train's resolution defaults to the dataset's, and its help says so
        assert f.name == "resolution" or _flag_text(f.default) in action.help, f.name
        assert value != f.default, f.name
        argv += [flag, _flag_text(value)]
    args = build_parser().parse_args(argv)
    if command == "train":
        owners = _assemble_model_config(args, SimpleNamespace(resolution=8))
    else:
        owners = [classes[0](**cli_module._merge_settings(args))]
    for owner in owners:
        for f in fields(owner):
            assert getattr(owner, f.name) == flags[f.name][1], f.name


def test_train_setting_flags_keep_their_choices():
    train_parser = build_parser()._subparsers._group_actions[0].choices["train"]
    choices = {a.dest: a.choices for a in train_parser._actions}
    assert choices["variant"] == ("mvp", "mvt", "lstm", "single_view")
    assert choices["kernel"] == ("softmax", "relu")
    assert choices["train_views"] == (3, 6, 12)


def test_eval_unknown_export_exits_2(tmp_path, capsys):
    data = gen(tmp_path)
    code = main(["eval", "--checkpoint", "oracle", "--data", data,
                 "--out", str(tmp_path / "x"), "--export", "grid"])
    assert code == 2
    assert "'grid'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("damage,message", [("truncated", "truncated payload"),
                                            ("bad_magic", "bad magic"),
                                            ("value_2", "malformed grid"),
                                            ("resolution_16", "manifest resolution 8"),
                                            ("origin_moved", "origin or voxel size"),
                                            ("voxel_size_doubled", "origin or voxel size")])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_malformed_vxg_in_dataset_exits_3(tmp_path, capsys, command, damage, message):
    """Every damage fails with exit 3 before ``--out`` exists, among them a
    well-formed 16^3 input grid in an r=8 dataset and an input grid off its
    target's origin or voxel size."""
    data = gen(tmp_path)
    for path in (tmp_path / "data").glob("*_0_in.vxg"):  # frame 0 of every split
        blob = path.read_bytes()
        (voxel_size,) = struct.unpack_from("<f", blob, 20)
        path.write_bytes({
            "truncated": blob[:-1], "bad_magic": b"XXXX" + blob[4:],
            "value_2": blob[:24] + struct.pack("<f", 2.0) + blob[28:],
            "resolution_16": blob[:4] + struct.pack("<I", 16) + blob[8:24] + bytes(4 * 16 ** 3),
            "origin_moved": blob[:8] + struct.pack("<3f", 1.0, 2.0, 3.0) + blob[20:],
            "voxel_size_doubled": blob[:20] + struct.pack("<f", 2 * voxel_size) + blob[24:],
        }[damage])
    out = tmp_path / "run"
    if command == "train":
        argv = ["train", "--data", data, "--out", str(out), *TINY_TRAIN, "--steps", "1"]
    else:
        argv = ["eval", "--checkpoint", "oracle", "--data", data, "--out", str(out)]
    assert main(argv) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def _repeat_first_object_id(manifest):
    """Give the second object the first one's id, and its sequences too, so
    every sequence still names an id the manifest has."""
    first, second = (o["object_id"] for o in manifest["objects"][:2])
    manifest["objects"][1]["object_id"] = first
    for seq in manifest["sequences"]:
        seq["object_ids"] = [first if o == second else o for o in seq["object_ids"]]


MANIFEST_EDITS = {
    "views_zero": lambda m: m.update(views=0),
    "resolution_string": lambda m: m.update(resolution="8"),
    "image_size_float": lambda m: m.update(image_size=2.5),
    "version_2": lambda m: m.update(version=2),
    "objects_missing": lambda m: m.pop("objects"),
    "top_key_unknown": lambda m: m.update(colour="red"),
    "object_key_unknown": lambda m: m["objects"][0].update(colour="red"),
    "sequence_key_missing": lambda m: m["sequences"][0].pop("seed"),
    "extent_string": lambda m: m.update(extent="0.3"),
    "extent_nan": lambda m: m.update(extent=float("nan")),
    "extent_negative": lambda m: m.update(extent=-0.3),
    "extent_zero": lambda m: m.update(extent=0),
    "split_unknown": lambda m: m["sequences"][0].update(split="bogus"),
    "object_id_unknown": lambda m: m["sequences"][0].update(object_ids=["obj9999"]),
    "object_ids_int": lambda m: m["sequences"][0].update(object_ids=5),
    "object_ids_str": lambda m: m["sequences"][0].update(object_ids=m["objects"][0]["object_id"]),
    "object_ids_nested": lambda m: m["sequences"][0].update(object_ids=[["obj0000"]]),
    "object_seed_string": lambda m: m["objects"][0].update(seed="x"),
    "object_seed_float": lambda m: m["objects"][0].update(seed=1.5),
    "object_scale_string": lambda m: m["objects"][0].update(scale="big"),
    "object_scale_zero": lambda m: m["objects"][0].update(scale=0),
    "object_scale_inf": lambda m: m["objects"][0].update(scale=float("inf")),
    "object_kind_unknown": lambda m: m["objects"][0].update(kind="torus"),
    "sequence_seed_null": lambda m: m["sequences"][0].update(seed=None),
    "protocol_unknown": lambda m: m.update(protocol="spiral"),
    "object_id_list": lambda m: m["objects"][0].update(object_id=["obj0000"]),
    "object_id_repeated": _repeat_first_object_id,
    "sequence_id_int": lambda m: m["sequences"][0].update(seq_id=7),
    "sequence_id_repeated": lambda m: m["sequences"][1].update(seq_id=m["sequences"][0]["seq_id"]),
    "object_ids_two_for_one_object_protocol": lambda m: m["sequences"][0].update(
        object_ids=m["sequences"][0]["object_ids"] * 2),
    "object_ids_one_for_two_object_protocol": lambda m: m.update(protocol="slide_behind"),
    "seed_string": lambda m: m.update(seed="x"),
    "object_split_unknown": lambda m: m["objects"][0].update(split="bogus"),
    "object_split_int": lambda m: m["objects"][0].update(split=3),
    "version_true": lambda m: m.update(version=True),
}


@pytest.mark.parametrize("edit", [*MANIFEST_EDITS, "not_json", "not_utf8", "json_list"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_invalid_manifest_exits_3_before_out(tmp_path, capsys, command, edit):
    data = gen(tmp_path)
    path = tmp_path / "data" / "manifest.json"
    manifest = json.loads(path.read_text())
    MANIFEST_EDITS.get(edit, lambda m: None)(manifest)
    path.write_bytes({"not_json": b'{"protocol": ', "not_utf8": b'{"protocol": "\xff"}',
                      "json_list": b"[1, 2]"}.get(edit, json.dumps(manifest).encode()))
    out = tmp_path / "run"
    if command == "train":
        argv = ["train", "--data", data, "--out", str(out), *TINY_TRAIN, "--steps", "1"]
    else:
        argv = ["eval", "--checkpoint", "oracle", "--data", data, "--out", str(out)]
    assert main(argv) == 3
    # the message names the manifest (tmp_path, which names this test, does not count)
    assert "manifest" in capsys.readouterr().err.replace(str(tmp_path), "")
    assert not out.exists()


FUZZ_BASES = [json.loads(build_manifest(protocol, 4, resolution=8, views=3, seed=11).to_json())
              for protocol in ("camera_pan", "slide_behind")]
DELETE = object()
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 70), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.sampled_from(["train", "val", "test", "box", "union", "camera_pan", "slide_behind",
                     "obj0000", "obj0003"]),
    st.lists(st.sampled_from(["obj0000", "obj0001", "obj0002", "x"]), max_size=3),
    st.just({}), st.just(DELETE))


@st.composite
def manifest_mutations(draw) -> tuple:
    """A generated manifest with one field of the manifest, or of one of its
    object or sequence entries, deleted, set to a JSON value or added; then
    the field's old and new value (``DELETE`` where there is none)."""
    manifest = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    entry = manifest
    where = draw(st.sampled_from(["manifest", "objects", "sequences"]))
    if where != "manifest":
        entry = draw(st.sampled_from(manifest[where]))
    key = draw(st.sampled_from([*entry, "colour"]))
    old, new = entry.get(key, DELETE), draw(JSON_VALUES)
    if new is DELETE:
        entry.pop(key, None)
    else:
        entry[key] = new
    return manifest, old, new


def _same_json_kind(old, new) -> bool:
    """null, bool, int, str, list and object are distinct kinds; an int may
    stand for a float."""
    return type(new) in (int, float) if type(old) is float else type(new) is type(old)


@settings(max_examples=200, deadline=None)
@given(mutation=manifest_mutations())
def test_manifest_field_mutation_exits_3_or_loads_as_written(mutation):
    """Each mutated manifest either fails to load with DatasetError, and eval
    on it exits 3 before --out exists, or loads equal to the JSON written. A
    deleted or added field, or a value of another JSON kind, never loads."""
    manifest, old, new = mutation
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data", Path(tmp) / "out"
        data.mkdir()
        (data / "manifest.json").write_text(json.dumps(manifest))
        try:
            loaded = read_manifest(data)
        except DatasetError:
            assert main(["eval", "--checkpoint", "oracle", "--data", str(data),
                         "--out", str(out)]) == 3
            assert not out.exists()
        else:
            assert json.loads(loaded.to_json()) == manifest
            unchanged = old is new is DELETE  # an absent field deleted
            assert unchanged or DELETE not in (old, new) and _same_json_kind(old, new)


@pytest.mark.parametrize("flags", [["--threshold", "nan"], ["--threshold", "inf"],
                                   ["--threshold", "0"], ["--points", "0"], ["--seed", "-1"],
                                   ["--seed", "-70000"]],
                         ids=["threshold_nan", "threshold_inf", "threshold_zero", "points_zero",
                              "seed_minus_one", "seed_minus_70000"])
def test_eval_invalid_threshold_or_points_exits_2(tmp_path, capsys, flags):
    data = gen(tmp_path)
    code = main(["eval", "--checkpoint", "oracle", "--data", data,
                 "--out", str(tmp_path / "x"), *flags])
    assert code == 2
    assert f"eval {flags[0][2:]} must be" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_mvp_seed_read_at_each_parse_in_one_process(tmp_path, monkeypatch):
    """The parser is built once per process; each call still takes its
    default seed from MVP_SEED as it is when that call parses."""
    data = gen(tmp_path)
    for seed in ("5", "9"):
        monkeypatch.setenv("MVP_SEED", seed)
        runs = {"gen": ["gen-data", "--protocol", "camera_pan", "--objects", "4", "--res", "8",
                        "--views", "3"],
                "eval": ["eval", "--checkpoint", "oracle", "--data", data, "--points", "16"],
                "bench": ["bench", "--lengths", "4", "--dim", "8", "--heads", "1",
                          "--trials", "1"]}
        for name, argv in runs.items():
            out = tmp_path / f"{name}{seed}"
            assert main([*argv, "--out", str(out)]) == 0
            assert json.loads((out / "provenance.json").read_text())["seed"] == int(seed)


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_non_integer_mvp_seed_exits_2_naming_it(tmp_path, capsys, monkeypatch, command):
    data = gen(tmp_path)
    monkeypatch.setenv("MVP_SEED", "abc")
    argv = {"gen-data": ["gen-data", "--protocol", "camera_pan", "--objects", "4"],
            "train": ["train", "--data", data, "--steps", "1"]}[command]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert "MVP_SEED must be an integer >= 0, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_mvp_seed_env_var_used_as_default(tmp_path, monkeypatch):
    monkeypatch.setenv("MVP_SEED", "77")
    out = str(tmp_path / "envseed")
    assert main(["gen-data", "--protocol", "camera_pan", "--objects", "4",
                 "--res", "8", "--views", "3", "--out", out]) == 0
    prov = json.loads((tmp_path / "envseed" / "provenance.json").read_text())
    assert prov["seed"] == 77


def test_training_divergence_exits_4(tmp_path, monkeypatch):
    from shapestream.train import TrainingDiverged
    import shapestream.cli as cli_mod

    data = gen(tmp_path)

    def explode(*args, **kwargs):
        raise TrainingDiverged("10 consecutive non-finite steps")

    monkeypatch.setattr(cli_mod, "train", explode)
    code = main(["train", "--data", data, "--out", str(tmp_path / "dv"),
                 "--variant", "mvp", *TINY_TRAIN, "--steps", "1"])
    assert code == 4


def test_eval_missing_split_exits_3(tmp_path):
    data = gen(tmp_path)
    manifest_path = tmp_path / "data" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for seq in manifest["sequences"]:
        if seq["split"] == "test":
            seq["split"] = "train"
    manifest_path.write_text(json.dumps(manifest))
    code = main(["eval", "--checkpoint", "oracle", "--data", data,
                 "--split", "test", "--out", str(tmp_path / "ms")])
    assert code == 3


def test_bench_command_prints_table(tmp_path, capsys):
    code = main(["bench", "--lengths", "8,32", "--dim", "32", "--heads", "2",
                 "--trials", "5", "--out", str(tmp_path / "b")])
    assert code == 0
    out = capsys.readouterr().out
    assert "mvp step" in out and "ratio" in out
    assert (tmp_path / "b" / "bench.json").exists()


def test_bench_config_hash_covers_the_kernel(tmp_path):
    hashes = []
    for kernel in ("relu", "softmax"):
        assert main(["bench", "--lengths", "4", "--dim", "8", "--heads", "1", "--trials", "2",
                     "--kernel", kernel, "--out", str(tmp_path / kernel)]) == 0
        record = json.loads((tmp_path / kernel / "provenance.json").read_text())
        hashes.append(record["config_hash"])
    assert hashes[0] != hashes[1]


@pytest.mark.parametrize("flags,message", [
    (["--lengths", "0,4"], "bench lengths must be a list of positive integers"),
    (["--lengths", "x,4"], "argument --lengths: invalid"),
    (["--trials", "0"], "bench trials must be >= 1"), (["--dim", "0"], "bench dim must be >= 1"),
    (["--heads", "0"], "bench heads must be >= 1"), (["--seed", "-1"], "bench seed must be >= 0"),
], ids=["lengths_zero", "lengths_text", "trials_zero", "dim_zero", "heads_zero",
        "seed_negative"])
def test_bench_invalid_size_exits_2_naming_the_flag(tmp_path, capsys, flags, message):
    code = main(["bench", "--lengths", "8", "--dim", "8", "--heads", "1", "--trials", "2",
                 *flags, "--out", str(tmp_path / "b")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_bench_nonempty_out_exits_2_before_timing(tmp_path, capsys, monkeypatch):
    out = tmp_path / "b"
    out.mkdir()
    (out / "bench.json").write_text("{}")
    calls = []
    monkeypatch.setattr(cli_module, "bench_attention", lambda **kw: calls.append(kw))
    code = main(["bench", "--lengths", "8", "--dim", "8", "--heads", "1", "--trials", "2",
                 "--out", str(out)])
    assert code == 2
    assert "is not empty" in capsys.readouterr().err
    assert calls == []
