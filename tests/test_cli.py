"""Command-line behaviour: config precedence, artifact schemas, exact
train/eval agreement, determinism across reruns, and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disents import cli
from disents.backbones import BackboneConfig
from disents.checkpoint import save_model
from disents.cli import RunConfig, load_run_config, main
from disents.datakit import SeriesDataset, WindowSpec, load_csv, save_csv
from disents.errors import ConfigError, ParseError
from disents.pipeline import DisenTSModel, EpochRecord, Metrics, ModelConfig, TrainConfig
from json_values import JSON_VALUES

TRAIN_FLAGS = ["--lookback", "16", "--horizon", "8", "--gate-dim", "16",
               "--gate-heads", "2", "--epochs", "2", "--batch-size", "32",
               "--k-experts", "2", "--seed", "0"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset plus one trained run, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    synth_dir = root / "data"
    assert main(["synth", "--out", str(synth_dir), "--length", "400",
                 "--channels-per-group", "2", "--noise", "0.1", "--seed", "0"]) == 0
    csv = synth_dir / "synthetic.csv"
    train_out = root / "run"
    assert main(["train", "--dataset", str(csv), "--out", str(train_out), *TRAIN_FLAGS]) == 0
    return {"root": root, "csv": csv, "train_out": train_out}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_config_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 5, "lookback": 32}))
    merged = load_run_config(str(cfg), {"seed": 7})
    assert merged.seed == 7  # flags beat the file
    assert merged.lookback == 32  # the file beats defaults
    assert merged.horizon == 24


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ConfigError, match="bogus"):
        load_run_config(str(cfg), {})
    cfg.write_text("not json at all")
    with pytest.raises(ParseError):
        load_run_config(str(cfg), {})


def test_synth_writes_identical_files_per_seed(tmp_path):
    for sub in ("a", "b"):
        assert main(["synth", "--out", str(tmp_path / sub), "--length", "200",
                     "--channels-per-group", "1", "--seed", "3"]) == 0
    a = (tmp_path / "a" / "synthetic.csv").read_bytes()
    assert a == (tmp_path / "b" / "synthetic.csv").read_bytes()
    labels = (tmp_path / "a" / "synthetic.labels.csv").read_text().splitlines()
    assert labels[0] == "channel,group"
    assert len(labels) == 3  # header plus one channel per group


def test_train_artifacts(workspace):
    out = workspace["train_out"]
    metrics = read_json(out / "metrics.json")
    assert set(metrics) == {"mse", "mae", "per_channel_mse", "runtime_s"}
    assert metrics["mse"] > 0 and metrics["runtime_s"] > 0
    assert len(metrics["per_channel_mse"]) == 4
    log_lines = (out / "train_log.jsonl").read_text().strip().splitlines()
    assert 1 <= len(log_lines) <= 2
    assert "val_mse" in json.loads(log_lines[0])
    assert (out / "checkpoint" / "manifest.json").is_file()


def test_records_hold_their_dataclass_fields_in_field_order(workspace):
    metrics = read_json(workspace["train_out"] / "metrics.json")
    assert list(metrics) == [f.name for f in fields(Metrics)] + ["runtime_s"]
    for line in (workspace["train_out"] / "train_log.jsonl").read_text().splitlines():
        assert list(json.loads(line)) == [f.name for f in fields(EpochRecord)]


def test_run_config_defaults_are_the_component_defaults():
    config = RunConfig()
    assert cli._model_config(config) == ModelConfig(2, BackboneConfig("linear", 48, 24))
    assert cli._train_config(config) == TrainConfig()
    assert cli._window_spec(config, 48, 24) == WindowSpec(48, 24)


def test_train_rerun_is_deterministic(workspace):
    rerun = workspace["root"] / "rerun"
    assert main(["train", "--dataset", str(workspace["csv"]), "--out", str(rerun),
                 *TRAIN_FLAGS]) == 0
    first = read_json(workspace["train_out"] / "metrics.json")
    second = read_json(rerun / "metrics.json")
    for key in ("mse", "mae", "per_channel_mse"):
        assert first[key] == second[key]
    for f in sorted((workspace["train_out"] / "checkpoint").glob("*.bin")):
        assert f.read_bytes() == (rerun / "checkpoint" / f.name).read_bytes()


def test_eval_reproduces_train_metrics(workspace):
    out = workspace["root"] / "eval"
    assert main(["eval", "--checkpoint", str(workspace["train_out"] / "checkpoint"),
                 "--dataset", str(workspace["csv"]), "--out", str(out)]) == 0
    trained = read_json(workspace["train_out"] / "metrics.json")
    scored = read_json(out / "metrics.json")
    for key in ("mse", "mae", "per_channel_mse"):
        assert trained[key] == scored[key]


def test_inspect_lwa(workspace):
    out = workspace["root"] / "lwa"
    assert main(["inspect", "lwa", "--checkpoint", str(workspace["train_out"] / "checkpoint"),
                 "--dataset", str(workspace["csv"]), "--out", str(out)]) == 0
    manifest = read_json(out / "lwa_manifest.json")
    assert [e["expert"] for e in manifest] == [0, 1]
    for entry in manifest:
        assert entry["epsilon"] >= 0 and entry["iterations"] >= 1
        assert (out / entry["file"]).is_file()


def test_inspect_lwa_needs_two_experts(workspace, tmp_path, capsys):
    ckpt = tmp_path / "single"
    save_model(DisenTSModel(ModelConfig(n_experts=1, backbone=BackboneConfig("linear", 16, 8))),
               ckpt)
    out = tmp_path / "lwa"
    assert main(["inspect", "lwa", "--checkpoint", str(ckpt), "--dataset", str(workspace["csv"]),
                 "--out", str(out)]) == 2
    assert "error: a one-expert model keeps no signatures" in capsys.readouterr().err
    assert not out.exists()


def test_inspect_routing_with_labels(workspace):
    out = workspace["root"] / "routing"
    assert main(["inspect", "routing", "--checkpoint",
                 str(workspace["train_out"] / "checkpoint"),
                 "--dataset", str(workspace["csv"]), "--out", str(out)]) == 0
    summary = read_json(out / "routing_summary.json")
    assert 0.0 <= summary["purity"] <= 1.0
    assert summary["channels"] == ["g0c0", "g0c1", "g1c0", "g1c1"]
    assert len(summary["argmax"]) == 4
    assert (out / "routing.csv").is_file()


def test_inspect_routing_without_labels(workspace, tmp_path):
    bare = tmp_path / "bare.csv"
    bare.write_bytes(workspace["csv"].read_bytes())  # same data, no sidecar
    out = tmp_path / "routing"
    assert main(["inspect", "routing", "--checkpoint",
                 str(workspace["train_out"] / "checkpoint"),
                 "--dataset", str(bare), "--out", str(out)]) == 0
    summary = read_json(out / "routing_summary.json")
    assert "purity" not in summary
    assert "note" in summary


def test_baseline_artifacts(workspace):
    out = workspace["root"] / "baseline"
    flags = ["--dataset", str(workspace["csv"]), "--lookback", "16", "--horizon", "8",
             "--epochs", "2", "--batch-size", "64", "--seed", "0"]
    assert main(["baseline", "--out", str(out), *flags]) == 0
    metrics = read_json(out / "metrics.json")
    assert set(metrics) == {"mse", "mae", "per_channel_mse", "runtime_s"}
    assert sorted(p.name for p in out.iterdir()) == ["metrics.json"]
    # the baseline is the one-expert model
    single = workspace["root"] / "single"
    assert main(["train", "--out", str(single), "--k-experts", "1", *flags]) == 0
    trained = read_json(single / "metrics.json")
    for key in ("mse", "mae", "per_channel_mse"):
        assert trained[key] == metrics[key]


@pytest.mark.parametrize("flag", [["--k-experts", "4"], ["--lambda", "5"], ["--topk", "3"],
                                  ["--gate-heads", "3"], ["--raw-similarity"]],
                         ids=lambda flag: flag[0])
def test_baseline_rejects_the_mixture_flags(flag, workspace):
    """The baseline builds one expert and no gate, so it takes no flag for them."""
    with pytest.raises(SystemExit) as exit_info:
        main(["baseline", "--dataset", str(workspace["csv"]), *flag])
    assert exit_info.value.code == 2


def test_config_errors_exit_2(workspace, tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path)]) == 2  # no dataset
    assert main(["train", "--dataset", str(workspace["csv"]),
                 "--split", "0.5,0.5"]) == 2  # two fractions
    assert main(["train", "--dataset", "missing.csv"]) == 2
    assert main(["eval", "--dataset", str(workspace["csv"])]) == 2  # no checkpoint
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mystery_knob": True}))
    assert main(["train", "--config", str(cfg), "--dataset", str(workspace["csv"])]) == 2
    assert "error:" in capsys.readouterr().err


def test_synth_out_under_a_file_exits_2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    assert main(["synth", "--out", str(afile / "sub"), "--length", "200",
                 "--channels-per-group", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(afile / "sub") in err


def test_train_out_naming_a_file_exits_2(workspace, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    assert main(["train", "--dataset", str(workspace["csv"]), "--out", str(afile),
                 *TRAIN_FLAGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(afile) in err
    assert afile.read_text() == "not a directory"


def test_synth_into_an_output_file_that_is_a_directory_exits_2(tmp_path, capsys):
    blocked = tmp_path / "run" / "synthetic.csv"
    blocked.mkdir(parents=True)
    assert main(["synth", "--out", str(tmp_path / "run"), "--length", "200",
                 "--channels-per-group", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(blocked) in err


def test_eval_into_an_output_file_that_is_a_directory_exits_2(workspace, tmp_path, capsys):
    blocked = tmp_path / "metrics.json"
    blocked.mkdir()
    assert main(["eval", "--checkpoint", str(workspace["train_out"] / "checkpoint"),
                 "--dataset", str(workspace["csv"]), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(blocked) in err
    assert blocked.is_dir() and not any(blocked.iterdir())


def test_bad_thread_count_exits_2_before_reading_data(workspace, tmp_path, monkeypatch, capsys):
    def unread(path):
        raise AssertionError(f"read {path} despite a bad DISENTS_THREADS")

    monkeypatch.setattr(cli, "load_csv", unread)
    for threads, message in (("abc", "must be an integer"), ("0", "must be at least 1"),
                             ("-1", "must be at least 1")):
        monkeypatch.setenv("DISENTS_THREADS", threads)
        assert main(["train", "--dataset", str(workspace["csv"]), "--out", str(tmp_path),
                     *TRAIN_FLAGS]) == 2
        assert f"error: DISENTS_THREADS {message}" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [
    {"lookback": 16.0}, {"seed": "1"}, {"epochs": "3"}, {"epochs": 1.5}, {"k_experts": 2.5},
    {"batch_size": 8.0}, {"stride": 1.0}, {"top_k": 1.5}, {"lr": "0.01"},
    {"gate_dropout": "0.1"}, {"synth_periods": 5},
    {"raw_similarity": "no"}, {"k_experts": True}, {"lr": float("nan")},
    {"synth_harmonics": [11, 18.5]}, {"labels": 3},
], ids=lambda raw: "-".join(f"{k}-{type(v).__name__}" for k, v in raw.items()))
def test_mistyped_config_values_exit_2_before_reading_data(raw, workspace, tmp_path,
                                                           monkeypatch, capsys):
    def unread(path):
        raise AssertionError(f"read {path} despite a mistyped config")

    monkeypatch.setattr(cli, "load_csv", unread)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(raw))
    assert main(["train", "--config", str(cfg), "--dataset", str(workspace["csv"]),
                 "--out", str(tmp_path)]) == 2
    (key,) = raw
    assert f"error: config key {key} must be" in capsys.readouterr().err


def test_a_config_with_an_eval_batch_size_exits_2_naming_the_key_unknown(workspace, tmp_path,
                                                                        monkeypatch, capsys):
    """Every eval stack is cut by its channel count alone; no key picks the cut."""
    def unread(path):
        raise AssertionError(f"read {path} despite an unknown config key")

    monkeypatch.setattr(cli, "load_csv", unread)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"eval_batch_size": 256}))
    assert main(["train", "--config", str(cfg), "--dataset", str(workspace["csv"]),
                 "--out", str(tmp_path)]) == 2
    assert "error: config key eval_batch_size is unknown" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--batch-size", "0"], ["train", "--patience", "-1"],
    ["inspect", "lwa", "--batch-size", "0"],  # a ContractError traceback
    ["inspect", "lwa", "--batch-size", "-3"],  # fitted all but the last three windows
], ids=["train-batch-0", "train-patience-negative", "inspect-batch-0", "inspect-batch-negative"])
def test_bad_training_ranges_exit_2_before_reading_data(argv, workspace, tmp_path, monkeypatch,
                                                         capsys):
    def unread(path):
        raise AssertionError(f"read {path} despite a bad training range")

    monkeypatch.setattr(cli, "load_csv", unread)
    checkpoint = ["--checkpoint", str(workspace["train_out"] / "checkpoint")]
    assert main([*argv, *(checkpoint if argv[0] == "inspect" else []),
                 "--dataset", str(workspace["csv"]), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_number_fields_take_ints_and_list_fields_null(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lr": 1, "top_k": None, "synth_periods": None}))
    config = load_run_config(str(cfg), {})
    assert config.lr == 1 and config.top_k is None and config.synth_periods == [24.0, 37.0]


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("any-config") / "run.json"


@settings(max_examples=300)
@given(raw=st.dictionaries(st.sampled_from([f.name for f in fields(RunConfig)]) | st.text(),
                           JSON_VALUES, min_size=1, max_size=3))
def test_any_json_value_on_any_key_builds_a_config_or_exits_2(config_file, raw):
    """A config file either builds a RunConfig holding exactly its values or
    raises one of the two errors the CLI turns into exit 2, never another."""
    config_file.write_text(json.dumps(raw))
    try:
        config = load_run_config(str(config_file), {})
    except (ConfigError, ParseError):
        return
    for key, value in raw.items():
        if value is not None:
            assert getattr(config, key) == value and type(getattr(config, key)) is type(value)


BAD_BYTE = b"date,a\n0,1\xff\n1,2\n"
LONG_CELL = b"date,a\n0," + b"1" * 131073 + b"\n1,2\n"  # over csv's field size limit
ROUTING = ["inspect", "routing", "--checkpoint", "run/checkpoint",
           "--dataset", "data/synthetic.csv", "--labels", "bad.labels.csv"]


@pytest.mark.parametrize("name, data, argv", [
    ("bad.csv", BAD_BYTE, ["train", "--dataset", "bad.csv"]),
    ("bad.csv", LONG_CELL, ["train", "--dataset", "bad.csv"]),
    ("bad.labels.csv", BAD_BYTE, ROUTING),
    ("bad.labels.csv", LONG_CELL, ROUTING),
    ("bad.json", b'{"seed": "\xff"}',
     ["train", "--config", "bad.json", "--dataset", "data/synthetic.csv"]),
    ("bad.json", b"[" * 100000 + b"]" * 100000,
     ["train", "--config", "bad.json", "--dataset", "data/synthetic.csv"]),
    ("run/checkpoint/manifest.json", b'{"format": 1\xff}',
     ["eval", "--checkpoint", "run/checkpoint", "--dataset", "data/synthetic.csv"]),
    ("run/checkpoint/manifest.json", b"[" * 100000 + b"]" * 100000,
     ["eval", "--checkpoint", "run/checkpoint", "--dataset", "data/synthetic.csv"]),
], ids=["dataset-bad-byte", "dataset-long-cell", "labels-bad-byte", "labels-long-cell",
        "config-bad-byte", "config-too-deep", "manifest-bad-byte", "manifest-too-deep"])
def test_undecodable_files_exit_2(name, data, argv, workspace, tmp_path, monkeypatch, capsys):
    """Each file reader turns bytes it cannot decode, a CSV cell over the csv
    module's size limit, and JSON nested past Python's recursion limit into
    an error line naming the file."""
    shutil.copytree(workspace["root"] / "data", tmp_path / "data")
    shutil.copytree(workspace["train_out"] / "checkpoint", tmp_path / "run" / "checkpoint")
    (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


def test_explicit_labels_file_must_exist(workspace, tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["inspect", "routing", "--checkpoint", str(workspace["train_out"] / "checkpoint"),
                 "--dataset", str(workspace["csv"]), "--labels", str(missing),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: labels file {missing} does not exist" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_blowup_exits_3(workspace, tmp_path, capsys):
    code = main(["train", "--dataset", str(workspace["csv"]), "--out", str(tmp_path),
                 "--lookback", "8", "--horizon", "4", "--gate-dim", "8",
                 "--gate-heads", "2", "--epochs", "1", "--batch-size", "64",
                 "--lr", "1e300", "--seed", "0"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_of_overflowing_weights_exits_3(workspace, tmp_path, capsys):
    """Expert weights scaled by 1e306, with their digest updated, overflow
    the forecast errors: `eval` exits 3 with one line and writes no
    metrics.json, where an infinite MSE would need a non-JSON token."""
    checkpoint = tmp_path / "checkpoint"
    shutil.copytree(workspace["train_out"] / "checkpoint", checkpoint)
    manifest = read_json(checkpoint / "manifest.json")
    entry = next(e for e in manifest["arrays"] if e["name"] == "experts.w")
    weights = np.fromfile(checkpoint / entry["file"], dtype="<f8") * 1e306
    weights.tofile(checkpoint / entry["file"])
    entry["sha256"] = hashlib.sha256(weights).hexdigest()
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(workspace["csv"]),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: mse is non-finite") and err.count("\n") == 1, err
    assert not (out / "metrics.json").exists()


def test_train_on_overflowing_data_exits_2(workspace, tmp_path, capsys):
    """Every cell of a CSV scaled by 1e305 is finite, but the train split's
    std overflows; `train` exits 2 naming the channel, where it used to
    standardize every value to 0 and report a test MSE of 0."""
    dataset = load_csv(workspace["csv"])
    csv = save_csv(SeriesDataset(dataset.values * 1e305, dataset.channel_names),
                   tmp_path / "huge.csv")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["train", "--dataset", str(csv), "--out", str(out), *TRAIN_FLAGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: channel {dataset.channel_names[0]!r} overflows its "
                          "train-split statistics") and err.count("\n") == 1, err
    assert not (out / "metrics.json").exists()


def test_module_invocation_round_trip(tmp_path):
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "disents", "synth", "--out", str(out),
         "--length", "120", "--channels-per-group", "1", "--seed", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "synthetic.csv").is_file()
    bad = subprocess.run([sys.executable, "-m", "disents", "train"],
                         capture_output=True, text=True)
    assert bad.returncode == 2


PATH_KINDS = ("missing", "directory", "file", "under-a-file", "empty", "not-utf8",
              "tampered-checkpoint")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 600-row synthetic, a checkpoint trained on it for one epoch, and a
    valid config file: the proper contents each path kind stands in for."""
    root = tmp_path_factory.mktemp("tiny-run")
    assert main(["synth", "--out", str(root / "data"), "--length", "600",
                 "--channels-per-group", "1", "--seed", "0"]) == 0
    assert main(["train", "--dataset", str(root / "data" / "synthetic.csv"),
                 "--out", str(root / "run"), "--lookback", "16", "--horizon", "8",
                 "--gate-dim", "16", "--gate-heads", "2", "--epochs", "1",
                 "--batch-size", "64"]) == 0
    (root / "run.json").write_text(json.dumps({"epochs": 1, "batch_size": 64}))
    return root


def _tamper(checkpoint, how):
    manifest_path = checkpoint / "manifest.json"
    manifest = read_json(manifest_path)
    if how == "format":
        manifest["format"] = 2
    elif how == "shape":
        manifest["arrays"][0]["shape"][0] += 1
    elif how == "truncate":
        data = checkpoint / manifest["arrays"][-1]["file"]
        data.write_bytes(data.read_bytes()[:-8])
    else:  # a missing config field
        del manifest["meta"]["config"]["gate"]
    manifest_path.write_text(json.dumps(manifest))


def _path_of(kind, role, tiny_run, root, data):
    """A fresh path of the given kind under `root`. A regular file holds the
    proper contents of its role where the role names a file."""
    path = root / f"{role}-{kind}"
    if kind == "directory":
        path.mkdir()
    elif kind == "file":
        proper = {"dataset": tiny_run / "data" / "synthetic.csv",
                  "labels": tiny_run / "data" / "synthetic.labels.csv"}
        shutil.copyfile(proper.get(role, tiny_run / "run.json"), path)
    elif kind == "under-a-file":
        path.write_text("a plain file\n")
        path = path / "sub"
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "not-utf8":
        path.write_bytes(b"date,a\n0,\xff\xfe\n1,2\n")
    elif kind == "tampered-checkpoint":
        shutil.copytree(tiny_run / "run" / "checkpoint", path)
        _tamper(path, data.draw(st.sampled_from(["format", "shape", "truncate", "config"])))
    return path


COMMON_FLAGS = {"--seed": ["0", "1", "-1"]}
WINDOW_FLAGS = {"--stride": ["1", "2", "0"], "--split": ["0.6,0.2,0.2", "0.5,0.5", "a,b,c"]}
MODEL_FLAGS = {**WINDOW_FLAGS, "--backbone": ["linear", "decomp-linear", "mlp"],
               "--decomp-kernel": ["3", "4"], "--hidden": ["8", "0"], "--epochs": ["1", "0"],
               "--batch-size": ["64", "0"], "--lr": ["0.001", "1e300"], "--patience": ["0", "-1"]}
MIXTURE_FLAGS = {"--k-experts": ["1", "2", "3", "0"], "--lambda": ["0.0", "0.1"],
                 "--alpha": ["0.5", "1.5"], "--topk": ["1", "4", "0"], "--tau": ["0.5", "0.0"],
                 "--raw-similarity": [None], "--gate-heads": ["2", "3"],
                 "--gate-dropout": ["0.0", "1.0"]}
SUBCOMMANDS = {
    # paths the subcommand reads or writes, the flags that keep a run tiny, and drawn flags
    "synth": (["--out", "--config"], ["--length", "600", "--channels-per-group", "1"],
              {"--length": ["600", "5"], "--channels-per-group": ["1", "0"],
               "--noise": ["0.1", "-1.0"]}),
    "train": (["--dataset", "--out", "--config"],
              ["--lookback", "16", "--horizon", "8", "--gate-dim", "16", "--gate-heads", "2",
               "--epochs", "1", "--batch-size", "64"], {**MODEL_FLAGS, **MIXTURE_FLAGS}),
    "baseline": (["--dataset", "--out", "--config"],
                 ["--lookback", "16", "--horizon", "8", "--epochs", "1", "--batch-size", "64"],
                 MODEL_FLAGS),
    "eval": (["--checkpoint", "--dataset", "--out", "--config"], [], WINDOW_FLAGS),
    "inspect lwa": (["--checkpoint", "--dataset", "--out", "--config"], ["--batch-size", "8"],
                    {"--batch-size": ["8", "0"]}),
    "inspect routing": (["--checkpoint", "--dataset", "--out", "--labels", "--config"], [],
                        {}),
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _parse_strictly(path):
    """Every JSON document in a .json file or each line of a .jsonl file,
    refusing NaN and the infinities."""
    text = path.read_text(encoding="utf-8")
    for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
        json.loads(doc, parse_constant=_reject_constant)


def test_any_run_exits_0_2_or_3_with_an_error_line(tiny_run, tmp_path_factory):
    """Any subcommand, flags that argparse accepts, any DISENTS_THREADS, and
    each path argument a valid one or one of PATH_KINDS: `main` returns 0,
    2 or 3, says why on stderr when it fails, and raises nothing. Every
    JSON file left under the run's directory is strict JSON."""
    drawn_kinds = set()
    codes = set()

    @settings(max_examples=100)
    @given(data=st.data())
    def run(data):
        command = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
        path_flags, tiny_flags, choices = SUBCOMMANDS[command]
        root = tmp_path_factory.mktemp("run")
        argv = [*command.split(), *tiny_flags]
        for flag in path_flags:
            kind = data.draw(st.just("valid") | st.sampled_from(PATH_KINDS), label=flag)
            if kind == "valid":
                if flag in ("--config", "--labels"):
                    continue  # not given: the defaults, or the dataset's sidecar
                path = {"--dataset": tiny_run / "data" / "synthetic.csv",
                        "--checkpoint": tiny_run / "run" / "checkpoint",
                        "--out": root / "out"}[flag]
            else:
                drawn_kinds.add(kind)
                path = _path_of(kind, flag.lstrip("-"), tiny_run, root, data)
            argv += [flag, str(path)]
        for flag, values in {**COMMON_FLAGS, **choices}.items():
            if data.draw(st.booleans(), label=f"give {flag}"):
                value = data.draw(st.sampled_from(values), label=flag)
                argv += [flag] if value is None else [flag, value]
        threads = data.draw(st.sampled_from([None, "1", "2", "abc", "0"]), label="threads")
        env = {k: v for k, v in os.environ.items() if k != "DISENTS_THREADS"}
        if threads is not None:
            env["DISENTS_THREADS"] = threads
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env, clear=True), warnings.catch_warnings(), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore", RuntimeWarning)  # an lr of 1e300 overflows
            code = main(argv)
        assert code in (0, 2, 3), (argv, code)
        if code:
            assert err.getvalue().startswith(("error:", "numeric failure:")), (argv, err.getvalue())
        codes.add(code)
        for path in root.rglob("*.json*"):
            if path.is_file():
                _parse_strictly(path)

    run()
    assert drawn_kinds == set(PATH_KINDS)
    assert {0, 2} <= codes, codes  # exit 3 has its own test, test_numeric_blowup_exits_3
