"""Checkpointing: one flat binary file per array plus a JSON manifest.

Arrays are raw little-endian float64 (`ndarray.tofile`), so a load followed
by a save is bit-exact. The manifest records every array's name, shape,
dtype, and file, together with the model configuration and step counter
needed to rebuild the model.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .backbones import BackboneConfig
from .errors import ConfigError, ParseError
from .gating import GateConfig
from .lwa import LwaConfig
from .objectives import LossConfig
from .pipeline import DisenTSModel, ModelConfig

MANIFEST = "manifest.json"
FORMAT_VERSION = 1


def _model_arrays(model: DisenTSModel) -> list[tuple[str, np.ndarray]]:
    arrays = [(name, t.data) for name, t in model.named_parameters()]
    arrays.extend(
        (f"registry.gamma{m}", model.registry.gamma[m]) for m in range(model.n_experts)
    )
    return arrays


def save_model(model: DisenTSModel, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (name, data) in enumerate(_model_arrays(model)):
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
    return directory


def _config_from_dict(raw: dict) -> ModelConfig:
    try:
        return ModelConfig(
            n_experts=raw["n_experts"],
            backbone=BackboneConfig(**raw["backbone"]),
            gate=GateConfig(**raw["gate"]),
            lwa=LwaConfig(**raw["lwa"]),
            loss=LossConfig(**raw["loss"]),
            eps_norm=raw["eps_norm"],
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"checkpoint config is malformed: {exc}") from exc


def load_model(directory: str | Path) -> DisenTSModel:
    """Rebuild a saved model. Every array the model holds must be in the
    manifest exactly once, with its saved shape; anything else is rejected."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST
    if not manifest_path.is_file():
        raise ConfigError(f"no checkpoint manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"checkpoint manifest {manifest_path} is not valid JSON: {exc}") from exc
    if manifest.get("format") != FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format {manifest.get('format')!r}")
    meta = manifest["meta"]
    model = DisenTSModel(_config_from_dict(meta["config"]), seed=meta.get("seed", 0))
    model.step_count = int(meta["step_count"])
    model.registry.initialized = [bool(v) for v in meta["registry_initialized"]]
    expected = dict(_model_arrays(model))
    names = [entry["name"] for entry in manifest["arrays"]]
    for name in names:
        if name not in expected:
            raise ConfigError(f"checkpoint array {name!r} does not exist in the model")
    missing = [name for name in expected if name not in names]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if missing or repeated:
        raise ConfigError(f"checkpoint arrays missing: {', '.join(missing) or 'none'}; "
                          f"listed more than once: {', '.join(repeated) or 'none'}")
    slots = dict(model.named_parameters())
    for entry in manifest["arrays"]:
        name, shape = entry["name"], tuple(entry["shape"])
        if entry["dtype"] != "float64":
            raise ConfigError(f"array {name!r} has unsupported dtype {entry['dtype']!r}")
        try:
            raw = np.fromfile(directory / entry["file"], dtype="<f8")
        except OSError as exc:
            raise ConfigError(f"array {name!r} cannot be read from {entry['file']!r}: {exc}") from exc
        if raw.size != int(np.prod(shape)):
            raise ConfigError(f"array {name!r} holds {raw.size} values, expected shape {shape}")
        if expected[name].shape != shape:
            raise ConfigError(f"shape mismatch for {name!r}: checkpoint {shape}, "
                              f"model {expected[name].shape}")
        data = raw.reshape(shape)
        if name in slots:
            slots[name].data = data
        else:
            model.registry.gamma[int(name[len("registry.gamma"):])] = data
    return model
