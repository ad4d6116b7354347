"""Checkpointing: one flat binary file per array plus a JSON manifest.

Arrays are raw little-endian float64 (`ndarray.tofile`), so a load followed
by a save is bit-exact. The manifest records every array's name, shape,
dtype, and file, together with the model configuration and step counter
needed to rebuild the model.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .decode import decode
from .errors import ConfigError, ParseError
from .pipeline import DisenTSModel, ModelConfig

MANIFEST = "manifest.json"
FORMAT_VERSION = 1


def save_model(model: DisenTSModel, directory: str | Path) -> Path:
    """Write `model.arrays()` and a manifest; delete array files it does not list."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (name, data) in enumerate(model.arrays().items()):
        filename = f"array{i:04d}.bin"
        np.ascontiguousarray(data, dtype="<f8").tofile(directory / filename)
        entries.append({"name": name, "shape": list(data.shape), "dtype": "float64",
                        "file": filename})
    manifest = {
        "format": FORMAT_VERSION,
        "arrays": entries,
        "meta": {
            "step_count": model.step_count,
            "seed": model.seed,
            "registry_initialized": list(model.registry.initialized),
            "config": asdict(model.config),
        },
    }
    with open(directory / MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    listed = {entry["file"] for entry in entries}
    for path in directory.glob("array[0-9]*.bin"):
        if path.name not in listed:
            path.unlink()
    return directory


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "a non-negative integer"}


def _field(record, key: str, kind: type, where: str = ""):
    """`record[key]` if it is of `kind` (an int must not be negative), else a
    ConfigError naming the field."""
    value = record.get(key) if isinstance(record, dict) else None
    if type(value) is not kind or kind is int and value < 0:
        raise ConfigError(f"checkpoint manifest field {where}{key} must be {_KINDS[kind]}")
    return value


def load_model(directory: str | Path) -> DisenTSModel:
    """Rebuild a saved model. Every array the model holds must be in the
    manifest exactly once, with its saved shape; anything else is rejected."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST
    if not manifest_path.is_file():
        raise ConfigError(f"no checkpoint manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"checkpoint manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"checkpoint manifest {manifest_path} must hold a JSON object")
    if manifest.get("format") != FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format {manifest.get('format')!r}")
    meta = _field(manifest, "meta", dict)
    config = decode(ModelConfig, _field(meta, "config", dict, "meta."),
                    "checkpoint manifest field meta.config.")
    model = DisenTSModel(config, seed=_field(meta, "seed", int, "meta."))
    model.step_count = _field(meta, "step_count", int, "meta.")
    initialized = _field(meta, "registry_initialized", list, "meta.")
    if len(initialized) != model.n_experts or not all(isinstance(v, bool) for v in initialized):
        raise ConfigError(f"checkpoint manifest field meta.registry_initialized must hold "
                          f"{model.n_experts} booleans")
    model.registry.initialized = initialized
    entries = _field(manifest, "arrays", list)
    targets = model.arrays()
    names = [_field(entry, "name", str, f"arrays[{i}].") for i, entry in enumerate(entries)]
    for name in names:
        if name not in targets:
            raise ConfigError(f"checkpoint array {name!r} does not exist in the model")
    missing = [name for name in targets if name not in names]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if missing or repeated:
        raise ConfigError(f"checkpoint arrays missing: {', '.join(missing) or 'none'}; "
                          f"listed more than once: {', '.join(repeated) or 'none'}")
    loaded = {}
    for i, (name, entry) in enumerate(zip(names, entries)):
        where = f"arrays[{i}]."
        shape = tuple(_field(entry, "shape", list, where))
        if not all(type(d) is int and d >= 0 for d in shape):
            raise ConfigError(f"checkpoint manifest field {where}shape must list "
                              f"non-negative integers, got {list(shape)}")
        dtype, filename = _field(entry, "dtype", str, where), _field(entry, "file", str, where)
        if dtype != "float64":
            raise ConfigError(f"array {name!r} has unsupported dtype {dtype!r}")
        if filename in ("", ".", "..") or any(c in filename for c in "/\\\0"):
            raise ConfigError(f"checkpoint manifest field {where}file must name a file inside "
                              f"the checkpoint directory, got {filename!r}")
        try:
            raw = np.fromfile(directory / filename, dtype="<f8")
        except OSError as exc:
            raise ConfigError(f"array {name!r} cannot be read from {filename!r}: {exc}") from exc
        if raw.size != math.prod(shape):
            raise ConfigError(f"array {name!r} holds {raw.size} values, expected shape {shape}")
        if targets[name].shape != shape:
            raise ConfigError(f"shape mismatch for {name!r}: checkpoint {shape}, "
                              f"model {targets[name].shape}")
        loaded[name] = raw.reshape(shape)
    model.load_arrays(loaded)
    return model
