"""Checkpointing: one flat binary file per array plus a JSON manifest.

Arrays are raw little-endian float64 (`ndarray.tofile`), so a load followed
by a save is bit-exact. The manifest records every array's name, shape,
dtype, file and the hex SHA-256 of its bytes, together with the model
configuration and step counter needed to rebuild the model. `Manifest` is
its one schema, for save and load; `load_model` reads the whole file
through `decode`.

Format 2 stores each array of `DisenTSModel.arrays()` whole: each parameter
stack under its `named_parameters()` name and the registry as one
`registry.gamma`. Format 1 named one array per expert and had no digests;
`load_model` still reads it, mapping each per-expert array to its row of a
stack (`_slots`), and then checks and loads both formats alike.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .decode import Count, decode, require_integers, to_json
from .errors import ConfigError, ParseError
from .pipeline import DisenTSModel, ModelConfig, array_shapes

MANIFEST = "manifest.json"
FORMAT_VERSION = 2


@dataclass(frozen=True)
class ArrayEntryV1:
    name: str
    shape: list[Count]
    dtype: str
    file: str


@dataclass(frozen=True)
class ArrayEntry(ArrayEntryV1):
    sha256: str


@dataclass(frozen=True)
class Meta:
    step_count: Count
    seed: Count
    registry_initialized: list[bool]
    config: ModelConfig


@dataclass(frozen=True)
class ManifestV1:
    format: int
    arrays: list[ArrayEntryV1]
    meta: Meta


@dataclass(frozen=True)
class Manifest(ManifestV1):
    arrays: list[ArrayEntry]


SCHEMAS = {1: ManifestV1, FORMAT_VERSION: Manifest}


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
        data = np.ascontiguousarray(data, dtype="<f8")
        with open(directory / filename, "wb") as fh:
            data.tofile(fh)
        entries.append(ArrayEntry(name, list(data.shape), "float64", filename,
                                  hashlib.sha256(data).hexdigest()))
    meta = Meta(model.step_count, model.seed, list(model.registry.initialized), model.config)
    staged = directory / f"{MANIFEST}.tmp"
    text = to_json(asdict(Manifest(FORMAT_VERSION, entries, meta)), indent=2, sort_keys=True)
    with open(staged, "w") as fh:
        fh.write(text)
    os.replace(staged, directory / MANIFEST)
    listed = {entry.file for entry in entries}
    for path in directory.glob("array[0-9]*.bin"):
        if path.name not in listed:
            path.unlink()
    return directory


def _slots(names: list[str], n_experts: int, version: int) -> dict[str, tuple[str, int | None]]:
    """Each array name a manifest of `version` lists, with the `arrays()`
    name (of `names`) it loads into and the row of that array, None for all
    of it. Format 1 named one array per expert: `expert{m}.<key>` is row m
    of `experts.<key>`, and `registry.gamma{m}` row m of `registry.gamma`."""
    if version == FORMAT_VERSION:
        return {name: (name, None) for name in names}
    experts = range(n_experts)
    slots = {f"expert{m}.{name.partition('.')[2]}": (name, m)
             for m in experts for name in names if name.startswith("experts.")}
    slots.update((name, (name, None)) for name in names if name.startswith("gate."))
    slots.update((f"registry.gamma{m}", ("registry.gamma", m)) for m in experts)
    return slots


def load_model(directory: str | Path) -> DisenTSModel:
    """Rebuild a saved model. Every array the manifest's format names must
    be listed exactly once, with the shape its config implies and, from
    format 2 on, the SHA-256 of its file; anything else is rejected. The
    names, shapes, file sizes and registry flags are checked against the
    config before any array is read or allocated, so a manifest cannot make
    the loader allocate more than its array files hold. The model is then
    built without drawing an init, and each file is read straight into its
    array and checked against its digest before the model is returned, so
    each array is held once."""
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
    if raw["format"] not in SCHEMAS:
        raise ConfigError(f"unsupported checkpoint format {raw['format']!r}")
    manifest = decode(SCHEMAS[raw["format"]], raw, "checkpoint manifest field ")
    meta = manifest.meta
    n_experts = meta.config.n_experts
    if len(meta.registry_initialized) != n_experts:
        raise ConfigError(f"checkpoint manifest field meta.registry_initialized must hold "
                          f"{n_experts} booleans")
    shapes = array_shapes(meta.config)
    slots = _slots(list(shapes), n_experts, manifest.format)
    names = [entry.name for entry in manifest.arrays]
    for name in names:
        if name not in slots:
            raise ConfigError(f"checkpoint array {name!r} does not exist in the model")
    missing = [name for name in slots if name not in names]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if missing or repeated:
        raise ConfigError(f"checkpoint arrays missing: {', '.join(missing) or 'none'}; "
                          f"listed more than once: {', '.join(repeated) or 'none'}")
    for i, entry in enumerate(manifest.arrays):
        name, shape, filename = entry.name, tuple(entry.shape), entry.file
        array, row = slots[name]
        expected = shapes[array] if row is None else shapes[array][1:]
        if entry.dtype != "float64":
            raise ConfigError(f"array {name!r} has unsupported dtype {entry.dtype!r}")
        if filename in ("", ".", "..") or any(c in filename for c in "/\\\0"):
            raise ConfigError(f"checkpoint manifest field arrays[{i}].file must name a file "
                              f"inside the checkpoint directory, got {filename!r}")
        try:
            nbytes = (directory / filename).stat().st_size
        except OSError as exc:
            raise ConfigError(f"array {name!r} cannot be read from {filename!r}: {exc}") from exc
        if nbytes != 8 * math.prod(shape):
            raise ConfigError(f"array {name!r} holds {nbytes} bytes, expected shape {shape}")
        if expected != shape:
            raise ConfigError(f"shape mismatch for {name!r}: checkpoint {shape}, "
                              f"model {expected}")
    # Every entry now fits the config and its file; only then is the model
    # allocated, and each file read straight into its array.
    model = DisenTSModel(meta.config, seed=meta.seed, draw=False)
    targets = model.arrays()
    for entry in manifest.arrays:
        array, row = slots[entry.name]
        target = targets[array] if row is None else targets[array][row]
        try:
            with open(directory / entry.file, "rb") as fh:
                read = fh.readinto(memoryview(target).cast("B"))
                whole = read == target.nbytes and not fh.read(1)
        except OSError as exc:
            raise ConfigError(f"array {entry.name!r} cannot be read from {entry.file!r}: "
                              f"{exc}") from exc
        if not whole:
            raise ConfigError(f"array {entry.name!r} in {entry.file!r} changed size while "
                              f"it was read")
        if isinstance(entry, ArrayEntry) and hashlib.sha256(target).hexdigest() != entry.sha256:
            raise ConfigError(f"array {entry.name!r} in {entry.file!r} does not match its "
                              f"sha256 in the manifest")
        if sys.byteorder == "big":  # the files hold little-endian float64
            target.byteswap(inplace=True)
    model.step_count = meta.step_count
    model.registry.initialized = meta.registry_initialized
    return model
