"""Binary checkpoint round trips and manifest validation."""

import copy
import hashlib
import io
import itertools
import json
import os
import shutil
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disents import checkpoint
from disents.backbones import BackboneConfig
from disents.checkpoint import MANIFEST, load_model, save_model
from disents.cli import main
from disents.errors import ConfigError
from disents.gating import GateConfig
from disents.numcore import AdamState
from disents.objectives import LossConfig
from disents.pipeline import DisenTSModel, ModelConfig, train_rng, train_step
from json_values import JSON_VALUES


def trained_model(seed=0, n_experts=2):
    config = ModelConfig(
        n_experts=n_experts,
        backbone=BackboneConfig("decomp-linear", 12, 6, decomp_kernel=5),
        gate=GateConfig(embed_dim=8, heads=2),
        loss=LossConfig(sc_weight=0.1),
    )
    model = DisenTSModel(config, seed=seed)
    rng = np.random.default_rng(seed)
    opt = AdamState.for_params([t for _, t in model.named_parameters()], lr=1e-3)
    train_step(model, rng.normal(size=(8, 3, 12)), rng.normal(size=(8, 3, 6)),
               opt, train_rng(seed))
    return model


def same_model(ours, theirs):
    """Whether two models hold the same config, counters and array bits."""
    if (ours.config, ours.seed, ours.step_count, ours.registry.initialized) != \
            (theirs.config, theirs.seed, theirs.step_count, theirs.registry.initialized):
        return False
    arrays = theirs.arrays()
    return all(a.tobytes() == arrays[name].tobytes() for name, a in ours.arrays().items())


FORMAT1 = Path(__file__).parent / "fixtures" / "format1"


def _synth_csv(directory):
    assert main(["synth", "--out", str(directory), "--length", "200",
                 "--channels-per-group", "1", "--seed", "0"]) == 0
    return directory / "synthetic.csv"


def test_round_trip_is_bit_exact(tmp_path):
    model = trained_model()
    save_model(model, tmp_path / "ckpt")
    loaded = load_model(tmp_path / "ckpt")
    assert loaded.step_count == 1
    assert loaded.seed == model.seed
    assert loaded.config == model.config
    assert loaded.registry.initialized == [True, True]
    for (name, ours), (_, theirs) in zip(model.named_parameters(), loaded.named_parameters()):
        assert np.array_equal(ours.data, theirs.data), name
    assert np.array_equal(model.registry.gamma, loaded.registry.gamma)
    x = np.random.default_rng(1).normal(size=(4, 3, 12))
    assert np.array_equal(model.predict(x), loaded.predict(x))


def test_loading_draws_no_init(tmp_path, monkeypatch):
    """`load_model` builds the model with no draw from the init stream and
    reads the arrays into it."""
    model = trained_model(seed=3, n_experts=3)
    save_model(model, tmp_path / "ckpt")

    def no_draws(seed):
        raise AssertionError("load_model drew an init")

    monkeypatch.setattr("disents.pipeline.init_rng", no_draws)
    assert same_model(load_model(tmp_path / "ckpt"), model)


def test_manifest_lists_every_expert_array_by_name_and_order(tmp_path):
    """A checkpoint holds each expert stack whole, one array per parameter
    with the experts on its first axis, named and ordered as below, with
    its SHA-256."""
    model = trained_model(n_experts=3)
    save_model(model, tmp_path)
    entries = json.loads((tmp_path / MANIFEST).read_text())["arrays"]
    per_expert = ["trend_w", "trend_b", "seasonal_w", "seasonal_b"]
    assert [e["name"] for e in entries] == [
        "experts.trend_w", "experts.trend_b", "experts.seasonal_w", "experts.seasonal_b",
        "gate.w_in", "gate.sig_w1", "gate.sig_b1", "gate.sig_w2", "gate.sig_b2",
        "gate.attn_wq", "gate.attn_wk", "gate.attn_wv", "gate.attn_wo",
        "gate.ffn_w1", "gate.ffn_b1", "gate.ffn_w2", "gate.ffn_b2",
        "gate.ln1_gain", "gate.ln1_bias", "gate.ln2_gain", "gate.ln2_bias", "gate.w_out",
        "registry.gamma",
    ]
    shapes = {e["name"]: e["shape"] for e in entries}
    assert [shapes[f"experts.{key}"] for key in per_expert] == [[3, 12, 6], [3, 6],
                                                                [3, 12, 6], [3, 6]]
    assert shapes["registry.gamma"] == [3, 12, 6]
    for e in entries:
        digest = hashlib.sha256((tmp_path / e["file"]).read_bytes()).hexdigest()
        assert e["sha256"] == digest, e["name"]
    loaded = load_model(tmp_path)
    theirs = loaded.arrays()
    for name, ours in model.arrays().items():
        assert ours.tobytes() == theirs[name].tobytes(), name
    for key in per_expert:
        stack = loaded.backbone.params[key].data
        assert stack.tobytes() == model.backbone.params[key].data.tobytes(), key


def test_save_is_idempotent(tmp_path):
    model = trained_model()
    save_model(model, tmp_path / "a")
    save_model(load_model(tmp_path / "a"), tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name


def test_missing_manifest(tmp_path):
    with pytest.raises(ConfigError, match="manifest"):
        load_model(tmp_path / "nowhere")


def test_unsupported_format_version(tmp_path):
    save_model(trained_model(), tmp_path)
    manifest = json.loads((tmp_path / MANIFEST).read_text())
    manifest["format"] = 99
    (tmp_path / MANIFEST).write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="format"):
        load_model(tmp_path)


def test_tampered_shape_is_rejected(tmp_path):
    save_model(trained_model(), tmp_path)
    manifest = json.loads((tmp_path / MANIFEST).read_text())
    manifest["arrays"][0]["shape"] = [1, 1]
    (tmp_path / MANIFEST).write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="holds"):
        load_model(tmp_path)


def test_unknown_array_name_is_rejected(tmp_path):
    save_model(trained_model(), tmp_path)
    manifest = json.loads((tmp_path / MANIFEST).read_text())
    manifest["arrays"][0]["name"] = "expert9.w"
    (tmp_path / MANIFEST).write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="does not exist"):
        load_model(tmp_path)


def test_unsupported_dtype_is_rejected(tmp_path):
    save_model(trained_model(), tmp_path)
    manifest = json.loads((tmp_path / MANIFEST).read_text())
    manifest["arrays"][0]["dtype"] = "float32"
    (tmp_path / MANIFEST).write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="dtype"):
        load_model(tmp_path)


def test_malformed_config_is_rejected(tmp_path):
    save_model(trained_model(), tmp_path)
    manifest = json.loads((tmp_path / MANIFEST).read_text())
    del manifest["meta"]["config"]["backbone"]
    (tmp_path / MANIFEST).write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="malformed"):
        load_model(tmp_path)


def test_single_expert_round_trip_has_no_gate(tmp_path):
    model = trained_model(n_experts=1)
    save_model(model, tmp_path)
    names = [e["name"] for e in json.loads((tmp_path / MANIFEST).read_text())["arrays"]]
    assert not any(n.startswith("gate.") for n in names)
    assert names[-1] == "registry.gamma"
    x = np.random.default_rng(2).normal(size=(4, 3, 12))
    assert np.array_equal(load_model(tmp_path).predict(x), model.predict(x))


def _rewrite_arrays(directory, edit):
    manifest = json.loads((directory / MANIFEST).read_text())
    manifest["arrays"] = edit(manifest["arrays"])
    (directory / MANIFEST).write_text(json.dumps(manifest))


def test_incomplete_or_repeated_arrays_are_rejected(tmp_path):
    save_model(trained_model(), tmp_path)
    experts = [e["name"] for e in json.loads((tmp_path / MANIFEST).read_text())["arrays"]
               if e["name"].startswith("experts.")]
    assert experts == ["experts.trend_w", "experts.trend_b",
                       "experts.seasonal_w", "experts.seasonal_b"]
    _rewrite_arrays(tmp_path, lambda arrays: [e for e in arrays
                                              if not e["name"].startswith("experts.")])
    with pytest.raises(ConfigError, match="missing") as err:
        load_model(tmp_path)
    assert all(name in str(err.value) for name in experts)

    save_model(trained_model(), tmp_path)
    _rewrite_arrays(tmp_path, lambda arrays: arrays + [arrays[-1]])
    with pytest.raises(ConfigError, match="more than once: registry.gamma$"):
        load_model(tmp_path)


def _truncate_manifest(directory):
    text = (directory / MANIFEST).read_text()
    (directory / MANIFEST).write_text(text[:len(text) // 2])


def _rename_gamma(new_name):
    def edit(directory):
        _rewrite_arrays(directory, lambda arrays: [
            dict(e, name=new_name) if e["name"] == "registry.gamma" else e for e in arrays])
    return edit


def _point_at_neighbour(directory):
    """Make the first entry read its array from a second checkpoint beside this one."""
    save_model(trained_model(seed=1), directory.parent / "b")
    _rewrite_arrays(directory, lambda arrays: [dict(arrays[0], file="../b/array0000.bin"),
                                               *arrays[1:]])


def _extend_array(directory):
    with open(directory / "array0000.bin", "ab") as fh:
        fh.write(b"\0")  # less than one float64 more


def _edit_manifest(edit):
    def damage(directory):
        manifest = json.loads((directory / MANIFEST).read_text())
        (directory / MANIFEST).write_text(json.dumps(edit(manifest)))
    return damage


def _set(path, value):
    """Replace (or, with value None, delete) one manifest field given by its key path."""
    def edit(manifest):
        record = manifest
        for key in path[:-1]:
            record = record[key]
        if value is None:
            del record[path[-1]]
        else:
            record[path[-1]] = value
        return manifest
    return _edit_manifest(edit)


@pytest.mark.parametrize("damage, field", [
    (_truncate_manifest, "not valid JSON"),
    (lambda directory: (directory / "array0000.bin").unlink(), "cannot be read"),
    (_rename_gamma("registry.gamma7"), "registry.gamma7"),
    (_rename_gamma("registry.gammaX"), "registry.gammaX"),
    (_edit_manifest(lambda manifest: [manifest]), "JSON object"),
    (_set(["meta"], None), "field meta "),
    (_set(["meta"], [1]), "field meta "),
    (_set(["meta", "config"], None), "field meta.config "),
    (_set(["meta", "seed"], "0"), "field meta.seed "),
    (_set(["meta", "step_count"], None), "field meta.step_count "),
    (_set(["meta", "step_count"], "1"), "field meta.step_count "),
    (_set(["meta", "step_count"], -1), "field meta.step_count "),
    (_set(["meta", "registry_initialized"], None), "field meta.registry_initialized "),
    (_set(["meta", "registry_initialized"], [True]), "field meta.registry_initialized "),
    (_set(["meta", "registry_initialized"], [1, 0]), "field meta.registry_initialized "),
    (_set(["arrays"], None), "field arrays "),
    (_set(["arrays"], {}), "field arrays "),
    (_set(["arrays", 0], "experts.trend_w"), "field arrays[0] "),
    (_set(["arrays", 0, "name"], None), "field arrays[0].name "),
    (_set(["arrays", 0, "shape"], None), "field arrays[0].shape "),
    (_set(["arrays", 0, "shape"], "12,6"), "field arrays[0].shape "),
    (_set(["arrays", 0, "shape"], [12, "6"]), "field arrays[0].shape "),
    (_set(["arrays", 0, "dtype"], None), "field arrays[0].dtype "),
    (_set(["arrays", 0, "file"], None), "field arrays[0].file "),
    (_set(["arrays", 0, "file"], 0), "field arrays[0].file "),
    (_point_at_neighbour, "field arrays[0].file "),
    (_set(["arrays", 0, "file"], "/array0000.bin"), "field arrays[0].file "),
    (_set(["arrays", 0, "file"], "sub/array0000.bin"), "field arrays[0].file "),
    (_set(["arrays", 0, "file"], ".."), "field arrays[0].file "),
    (_set(["arrays", 0, "file"], ""), "field arrays[0].file "),
    (_set(["arrays", 0, "file"], "array0000.bin\0"), "field arrays[0].file "),
    (_set(["meta", "config", "backbone", "lookback"], 16.0),
     "field meta.config.backbone.lookback "),
    (_set(["meta", "config", "n_experts"], True), "field meta.config.n_experts "),
    (_set(["meta", "config", "gate", "heads"], "2"), "field meta.config.gate.heads "),
    (_set(["meta", "config", "lwa", "top_k"], 4.5), "field meta.config.lwa.top_k "),
    (_set(["meta", "config", "lwa", "alpha"], "0.9"), "field meta.config.lwa.alpha "),
    (_set(["meta", "config", "loss", "tau"], False), "field meta.config.loss.tau "),
    (_set(["meta", "config", "loss", "tau"], float("nan")), "field meta.config.loss.tau "),
    (_set(["meta", "config", "eps_norm"], [1e-5]), "field meta.config.eps_norm "),
    (_set(["meta", "config", "loss", "normalize_sims"], "no"),
     "field meta.config.loss.normalize_sims "),
    (_set(["meta", "config", "gate", "heads"], None), "field meta.config.gate.heads "),
    (_set(["meta", "config", "backbone", "decomp_kernel"], None),
     "field meta.config.backbone.decomp_kernel "),
    (_set(["meta", "config", "gate", "bogus"], 1), "field meta.config.gate.bogus "),
    (_set(["format"], True), "field format "),
    (_set(["format"], 1.0), "field format "),
    (_set(["bogus"], 1), "field bogus "),
    (_set(["meta", "bogus"], 1), "field meta.bogus "),
    (_set(["arrays", 0, "bogus"], 1), "field arrays[0].bogus "),
    (_set(["arrays", 0, "sha256"], None), "field arrays[0].sha256 "),
    (_set(["arrays", 0, "sha256"], 0), "field arrays[0].sha256 "),
    (_set(["arrays", 0, "sha256"], "0" * 64),
     "array 'experts.trend_w' in 'array0000.bin' does not match its sha256"),
    (_extend_array, "holds 1153 bytes"),
], ids=["truncated-manifest", "missing-array-file", "gamma-out-of-range", "gamma-not-numeric",
        "manifest-not-object", "no-meta", "meta-not-object", "no-config", "seed-not-int",
        "no-step-count", "step-count-not-int", "step-count-negative", "no-registry-flags",
        "registry-flags-too-few", "registry-flags-not-bool", "no-arrays", "arrays-not-list",
        "entry-not-object", "no-name", "no-shape", "shape-not-list", "shape-not-ints",
        "no-dtype", "no-file", "file-not-string", "file-in-neighbour", "file-absolute",
        "file-in-subdirectory", "file-parent", "file-empty", "file-nul", "lookback-float",
        "n-experts-bool", "heads-string", "top-k-float", "alpha-string", "tau-bool", "tau-nan",
        "eps-norm-list", "normalize-sims-string", "no-heads", "no-decomp-kernel",
        "unknown-gate-key", "format-bool", "format-float", "unknown-envelope-key",
        "unknown-meta-key", "unknown-entry-key", "no-digest", "digest-not-string",
        "digest-mismatch", "array-file-extended"])
def test_malformed_checkpoint_exits_2(tmp_path, capsys, damage, field):
    dataset = _synth_csv(tmp_path / "data")
    save_model(trained_model(), tmp_path / "ckpt")
    damage(tmp_path / "ckpt")
    code = main(["eval", "--checkpoint", str(tmp_path / "ckpt"), "--dataset", str(dataset),
                 "--out", str(tmp_path / "eval"), "--split", "0.5,0.2,0.3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("config", [
    {"backbone": {"lookback": 4_000_000, "horizon": 4_000_000}},
    {"gate": {"embed_dim": 10 ** 12}},
], ids=["window", "gate-dim"])
def test_a_config_implying_huge_arrays_is_rejected_before_allocating(tmp_path, capsys, config):
    """Each edit makes the first array the model would draw at least a
    tebibyte (`experts.trend_w` or `gate.w_in`), while the array files stay
    as saved."""
    dataset = _synth_csv(tmp_path / "data")
    save_model(trained_model(), tmp_path / "ckpt")
    manifest = json.loads((tmp_path / "ckpt" / MANIFEST).read_text())
    for part, values in config.items():
        manifest["meta"]["config"][part].update(values)
    (tmp_path / "ckpt" / MANIFEST).write_text(json.dumps(manifest))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="shape mismatch"):
            load_model(tmp_path / "ckpt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    code = main(["eval", "--checkpoint", str(tmp_path / "ckpt"), "--dataset", str(dataset),
                 "--out", str(tmp_path / "eval")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: shape mismatch")


def test_a_load_holds_each_array_once(tmp_path):
    """A K=4 `decomp-linear` 96 -> 96 load peaked at 19.52 MiB of tracemalloc
    on NumPy 2.4 for 19.41 MiB of arrays (38.93 MiB while every array was
    read whole and then copied into a zero-filled model); the bound adds
    about 1 MiB of slack."""
    model = DisenTSModel(ModelConfig(n_experts=4, backbone=BackboneConfig(
        "decomp-linear", 96, 96)), seed=0)
    save_model(model, tmp_path)
    tracemalloc.start()
    try:
        loaded = load_model(tmp_path)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert same_model(loaded, model)
    assert sum(a.nbytes for a in model.arrays().values()) / 2**20 < 19.5
    assert peak <= 20.5


@pytest.mark.parametrize("change", [lambda data: data[:-8], lambda data: data + b"\0"],
                         ids=["shrunk", "grown"])
def test_a_file_that_changes_size_after_the_checks_is_rejected(tmp_path, monkeypatch, change):
    """The sizes are checked before the model is allocated; a file whose
    size differs when it is then read raises rather than loading part of
    an array."""
    save_model(trained_model(), tmp_path)
    monkeypatch.setattr(checkpoint, "open", lambda path, mode: io.BytesIO(
        change(Path(path).read_bytes())), raising=False)
    with pytest.raises(ConfigError, match="changed size while it was read"):
        load_model(tmp_path)


def test_format1_checkpoint_loads_each_expert_as_a_row_of_its_stack():
    """`fixtures/format1` is a format-1 checkpoint (K=2, `linear` 8->4, gate
    dim 8, two train steps) written by the code that named one array per
    expert. Each stack loads as its per-expert files stacked in expert
    order; the gate's arrays load as they are."""
    manifest = json.loads((FORMAT1 / MANIFEST).read_text())
    assert manifest["format"] == 1
    files = {e["name"]: np.fromfile(FORMAT1 / e["file"], dtype="<f8").reshape(e["shape"])
             for e in manifest["arrays"]}
    expected = {name: a for name, a in files.items() if name.startswith("gate.")}
    for stack, row in [("experts.w", "expert{}.w"), ("experts.b", "expert{}.b"),
                       ("registry.gamma", "registry.gamma{}")]:
        expected[stack] = np.stack([files[row.format(m)] for m in range(2)])
    model = load_model(FORMAT1)
    assert (model.n_experts, model.step_count, model.registry.initialized) == (2, 2, [True, True])
    arrays = model.arrays()
    assert sorted(arrays) == sorted(expected)
    for name, a in arrays.items():
        assert a.tobytes() == expected[name].tobytes(), name


def test_format1_checkpoint_evaluates(tmp_path):
    code = main(["eval", "--checkpoint", str(FORMAT1), "--dataset", str(_synth_csv(tmp_path)),
                 "--out", str(tmp_path / "eval"), "--split", "0.5,0.2,0.3"])
    assert code == 0
    assert (tmp_path / "eval" / "metrics.json").is_file()


def test_resaving_a_format1_checkpoint_writes_format2(tmp_path):
    shutil.copytree(FORMAT1, tmp_path / "ckpt")
    model = load_model(tmp_path / "ckpt")
    save_model(model, tmp_path / "ckpt")
    manifest = json.loads((tmp_path / "ckpt" / MANIFEST).read_text())
    assert manifest["format"] == 2
    listed = [e["file"] for e in manifest["arrays"]]
    assert len(listed) == len(model.named_parameters()) + 1
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == sorted(listed + [MANIFEST])
    assert same_model(load_model(tmp_path / "ckpt"), model)


@pytest.mark.parametrize("edit, named", [
    (lambda arrays: [e for e in arrays if not e["name"].startswith("expert0.")],
     "missing: expert0.w, expert0.b;"),
    (lambda arrays: arrays + [next(e for e in arrays if e["name"] == "registry.gamma1")],
     "more than once: registry.gamma1"),
    (lambda arrays: [dict(arrays[0], name="expert9.w"), *arrays[1:]], "'expert9.w'"),
], ids=["no-expert0", "gamma1-twice", "expert9"])
def test_malformed_format1_checkpoint_exits_2(tmp_path, capsys, edit, named):
    shutil.copytree(FORMAT1, tmp_path / "ckpt")
    _rewrite_arrays(tmp_path / "ckpt", edit)
    code = main(["eval", "--checkpoint", str(tmp_path / "ckpt"), "--dataset",
                 str(_synth_csv(tmp_path / "data")), "--out", str(tmp_path / "eval"),
                 "--split", "0.5,0.2,0.3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_saving_a_smaller_model_removes_stale_arrays(tmp_path):
    save_model(trained_model(n_experts=3), tmp_path)
    save_model(trained_model(n_experts=2), tmp_path)
    listed = {e["file"] for e in json.loads((tmp_path / MANIFEST).read_text())["arrays"]}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(listed | {MANIFEST})
    assert load_model(tmp_path).n_experts == 2


def test_a_save_stopped_at_any_write_leaves_the_old_or_the_new_checkpoint(tmp_path,
                                                                          monkeypatch):
    """Save B over A and stop the save at each file it writes, that file
    left half written: every array file, the staged manifest, the replace
    that commits it, and the deletion of A's files after it. The directory
    loads as exactly A up to the replace, and as exactly B after it."""
    a, b = trained_model(seed=0, n_experts=3), trained_model(seed=1, n_experts=2)
    real_open = open

    def stop(*args):
        raise OSError("save stopped")

    writes = len(b.arrays()) + 1
    for stop_at in range(writes + 2):
        save_model(a, tmp_path)
        opened = itertools.count()

        def open_once_too_often(path, mode="r"):
            fh = real_open(path, mode)
            if next(opened) == stop_at:
                with fh:
                    fh.write(b"\0" * 5 if "b" in mode else "{")
                stop()
            return fh

        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, "open", open_once_too_often, raising=False)
            if stop_at == writes:
                patch.setattr(os, "replace", stop)
            if stop_at == writes + 1:
                patch.setattr(Path, "unlink", stop)
            with pytest.raises(OSError, match="save stopped"):
                save_model(b, tmp_path)
        assert same_model(load_model(tmp_path), a if stop_at <= writes else b), stop_at
    save_model(b, tmp_path)
    assert same_model(load_model(tmp_path), b)
    listed = {e["file"] for e in json.loads((tmp_path / MANIFEST).read_text())["arrays"]}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(listed | {MANIFEST})


@pytest.fixture(scope="module")
def saved_model():
    return trained_model()


@pytest.fixture(scope="module")
def saved(tmp_path_factory, saved_model):
    directory = tmp_path_factory.mktemp("tampered")
    save_model(saved_model, directory)
    return directory, json.loads((directory / MANIFEST).read_text())


@settings(max_examples=200)
@given(data=st.data())
def test_tampered_config_loads_exactly_or_is_rejected(saved, data):
    """Deleting, retyping or adding a key under meta.config either raises
    ConfigError or loads a config that is exactly what the manifest holds:
    nothing filled in from a default, nothing coerced."""
    directory, manifest = saved
    manifest = copy.deepcopy(manifest)
    config = manifest["meta"]["config"]
    record = data.draw(st.sampled_from([config, *(v for v in config.values()
                                                  if isinstance(v, dict))]))
    action = data.draw(st.sampled_from(["delete", "retype", "add"]))
    if action == "add":
        key = data.draw(st.text(max_size=8).filter(lambda k: k not in record))
        record[key] = data.draw(JSON_VALUES)
    else:
        key = data.draw(st.sampled_from(sorted(record)))
        if action == "delete":
            del record[key]
        else:  # a value of another type, so no size changes to one that allocates
            record[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(record[key])))
    (directory / MANIFEST).write_text(json.dumps(manifest))
    try:
        loaded = load_model(directory).config
    except ConfigError:
        return
    assert action == "retype"
    assert json.dumps(asdict(loaded), sort_keys=True) == json.dumps(config, sort_keys=True)


def _swappable(directory, manifest):
    """The pairs of array entries of one shape whose files differ, such as
    the gate's four [d, d] attention matrices."""
    entries = manifest["arrays"]
    return [(i, j) for i, j in itertools.combinations(range(len(entries)), 2)
            if entries[i]["shape"] == entries[j]["shape"]
            and (directory / entries[i]["file"]).read_bytes()
            != (directory / entries[j]["file"]).read_bytes()]


@settings(max_examples=200)
@given(data=st.data())
def test_tampered_manifest_loads_exactly_or_is_rejected(saved, saved_model, data):
    """Deleting, retyping or renaming a key of the envelope, of meta or of
    one array entry, or adding an unknown key to one, either raises
    ConfigError or loads exactly the saved model. So does swapping two
    array files of the same shape, or the `file` fields of two entries of
    the same shape: the SHA-256 of each array rejects both."""
    directory, manifest = saved
    manifest = copy.deepcopy(manifest)
    entry = data.draw(st.sampled_from(manifest["arrays"]))
    record = data.draw(st.sampled_from([manifest, manifest["meta"], entry]))
    action = data.draw(st.sampled_from(["delete", "retype", "rename", "add",
                                        "swap files", "swap file fields"]))
    new_key = data.draw(st.text(max_size=8).filter(lambda k: k not in record))
    originals = {}
    if action.startswith("swap"):
        i, j = data.draw(st.sampled_from(_swappable(directory, manifest)))
        first, second = manifest["arrays"][i], manifest["arrays"][j]
        if action == "swap file fields":
            first["file"], second["file"] = second["file"], first["file"]
        else:
            originals = {directory / e["file"]: (directory / e["file"]).read_bytes()
                         for e in (first, second)}
            (a, a_bytes), (b, b_bytes) = originals.items()
            a.write_bytes(b_bytes)
            b.write_bytes(a_bytes)
    elif action == "add":
        record[new_key] = data.draw(JSON_VALUES)
    else:
        key = data.draw(st.sampled_from(sorted(record)))
        if action == "delete":
            del record[key]
        elif action == "rename":
            record[new_key] = record.pop(key)
        else:  # a value of another type, so no size changes to one that allocates
            record[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(record[key])))
    (directory / MANIFEST).write_text(json.dumps(manifest))
    try:
        loaded = load_model(directory)
    except ConfigError:
        return
    finally:
        for path, content in originals.items():
            path.write_bytes(content)
    assert action == "retype"
    assert same_model(loaded, saved_model)


@settings(max_examples=50)
@given(data=st.data())
def test_truncated_or_extended_array_file_is_rejected(saved, data):
    directory, manifest = saved
    (directory / MANIFEST).write_text(json.dumps(manifest))
    path = directory / data.draw(st.sampled_from(manifest["arrays"]))["file"]
    original = path.read_bytes()
    size = data.draw(st.integers(0, len(original) + 16).filter(lambda n: n != len(original)))
    path.write_bytes((original + bytes(16))[:size])
    try:
        with pytest.raises(ConfigError, match="holds"):
            load_model(directory)
    finally:
        path.write_bytes(original)
