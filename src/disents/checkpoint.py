"""Checkpointing: one flat binary file per array plus a JSON manifest.

Arrays are raw little-endian float64 (`ndarray.tofile`), so a load followed
by a save is bit-exact. The manifest records every array's name, shape,
dtype, and file, together with the model configuration and step counter
needed to rebuild the model. `Manifest` is its one schema, for save and
load; `load_model` reads the whole file through `decode`.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .decode import Count, decode, require_integers
from .errors import ConfigError, ParseError
from .pipeline import DisenTSModel, ModelConfig

MANIFEST = "manifest.json"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ArrayEntry:
    name: str
    shape: list[Count]
    dtype: str
    file: str


@dataclass(frozen=True)
class Meta:
    step_count: Count
    seed: Count
    registry_initialized: list[bool]
    config: ModelConfig


@dataclass(frozen=True)
class Manifest:
    format: int
    arrays: list[ArrayEntry]
    meta: Meta


def save_model(model: DisenTSModel, directory: str | Path) -> Path:
    """Write `model.arrays()` and a manifest, atomically. The arrays go to
    file names not yet in `directory` (from `array0000.bin` in a fresh one),
    the manifest replaces the old one in one `os.replace`, and only then
    are the array files it does not list deleted. A save that stops part
    way leaves the old checkpoint as it was."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    taken = {path.name for path in directory.iterdir()}
    filenames = (name for name in map("array{:04d}.bin".format, itertools.count())
                 if name not in taken)
    entries = []
    for (name, data), filename in zip(model.arrays().items(), filenames):
        with open(directory / filename, "wb") as fh:
            np.ascontiguousarray(data, dtype="<f8").tofile(fh)
        entries.append(ArrayEntry(name, list(data.shape), "float64", filename))
    meta = Meta(model.step_count, model.seed, list(model.registry.initialized), model.config)
    staged = directory / f"{MANIFEST}.tmp"
    with open(staged, "w") as fh:
        json.dump(asdict(Manifest(FORMAT_VERSION, entries, meta)), fh, indent=2, sort_keys=True)
    os.replace(staged, directory / MANIFEST)
    listed = {entry.file for entry in entries}
    for path in directory.glob("array[0-9]*.bin"):
        if path.name not in listed:
            path.unlink()
    return directory


def load_model(directory: str | Path) -> DisenTSModel:
    """Rebuild a saved model. Every array the model holds must be in the
    manifest exactly once, with its saved shape; anything else is rejected."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST
    if not manifest_path.is_file():
        raise ConfigError(f"no checkpoint manifest at {manifest_path}")
    try:
        raw = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"checkpoint manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"checkpoint manifest {manifest_path} must hold a JSON object")
    # the version picks the schema, so it is read before the rest is decoded
    require_integers(**{"checkpoint manifest field format": raw.get("format")})
    if raw["format"] != FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format {raw['format']!r}")
    manifest = decode(Manifest, raw, "checkpoint manifest field ")
    model = DisenTSModel(manifest.meta.config, seed=manifest.meta.seed)
    model.step_count = manifest.meta.step_count
    if len(manifest.meta.registry_initialized) != model.n_experts:
        raise ConfigError(f"checkpoint manifest field meta.registry_initialized must hold "
                          f"{model.n_experts} booleans")
    model.registry.initialized = manifest.meta.registry_initialized
    targets = model.arrays()
    names = [entry.name for entry in manifest.arrays]
    for name in names:
        if name not in targets:
            raise ConfigError(f"checkpoint array {name!r} does not exist in the model")
    missing = [name for name in targets if name not in names]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if missing or repeated:
        raise ConfigError(f"checkpoint arrays missing: {', '.join(missing) or 'none'}; "
                          f"listed more than once: {', '.join(repeated) or 'none'}")
    loaded = {}
    for i, entry in enumerate(manifest.arrays):
        name, shape, filename = entry.name, tuple(entry.shape), entry.file
        if entry.dtype != "float64":
            raise ConfigError(f"array {name!r} has unsupported dtype {entry.dtype!r}")
        if filename in ("", ".", "..") or any(c in filename for c in "/\\\0"):
            raise ConfigError(f"checkpoint manifest field arrays[{i}].file must name a file "
                              f"inside the checkpoint directory, got {filename!r}")
        try:
            nbytes = (directory / filename).stat().st_size
            data = np.fromfile(directory / filename, dtype="<f8")
        except OSError as exc:
            raise ConfigError(f"array {name!r} cannot be read from {filename!r}: {exc}") from exc
        if nbytes != 8 * math.prod(shape):  # fromfile drops a partial last value
            raise ConfigError(f"array {name!r} holds {nbytes} bytes, expected shape {shape}")
        if targets[name].shape != shape:
            raise ConfigError(f"shape mismatch for {name!r}: checkpoint {shape}, "
                              f"model {targets[name].shape}")
        loaded[name] = data.reshape(shape)
    model.load_arrays(loaded)
    return model
