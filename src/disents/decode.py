"""One decoder from a JSON object to a dataclass.

The CLI's RunConfig and a checkpoint's whole manifest, its ModelConfig
included, are read by the same rules, taken from the dataclass's resolved
annotations: every field present and no other key; a bool is no int; a
`Count` is a non-negative int; a float field takes finite ints or floats; a
list is checked element by element; `X | None` takes null; a
dataclass-typed field, and each item of a list of dataclasses, is decoded
in turn. The dataclass's own `__post_init__` then checks ranges
and, through `require_integers`, that each count field holds an integer,
since library callers reach it without the decoder.
"""

from __future__ import annotations

import numbers
import sys
import types
import typing
from dataclasses import fields, is_dataclass

from .errors import ConfigError

Count = typing.NewType("Count", int)

_WORDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
          Count: "a non-negative integer", type(None): "null", list[int]: "a list of integers",
          list[float]: "a list of finite numbers", list[bool]: "a list of true or false values",
          list[Count]: "a list of non-negative integers"}


def _item(kind):
    """The item type of a `list[...]` annotation, else None."""
    return typing.get_args(kind)[0] if typing.get_origin(kind) is list else None


def _fits(value, kind) -> bool:
    """Whether a JSON value is of the annotated `kind`. An int beyond the
    float range is no finite number. The items of a list of dataclasses are
    left to `decode`, which names the one that is malformed."""
    item = _item(kind)
    if is_dataclass(kind):
        return type(value) is dict
    if item is not None:
        return type(value) is list and (is_dataclass(item) or all(_fits(v, item) for v in value))
    if kind is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if kind is Count:
        return type(value) is int and value >= 0
    if kind in (int, bool, str, type(None)):
        return type(value) is kind
    raise TypeError(f"decode cannot read the annotation {kind!r}")


def require_integers(**counts) -> None:
    """ConfigError naming the first value that is not an integer. NumPy
    integers are integers; a bool, and any float, even 2.0, is not."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


def decode(cls, raw: dict, where: str):
    """`cls(**raw)` once every key is checked. ConfigError names the first
    key that is unknown, missing or of the wrong type, after `where`."""
    if type(raw) is not dict:
        raise ConfigError(f"{where[:-1]} must be an object, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{where}{unknown[0]} is unknown")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name not in raw:
            raise ConfigError(f"{where}{f.name} is missing (malformed config)")
        value, kind = raw[f.name], hints[f.name]
        kinds = typing.get_args(kind) if isinstance(kind, types.UnionType) else (kind,)
        if not any(_fits(value, k) for k in kinds):
            words = " or ".join("an object" if is_dataclass(k) else "a list of objects"
                                if is_dataclass(_item(k)) else _WORDS[k] for k in kinds)
            raise ConfigError(f"{where}{f.name} must be {words}, got {value!r}")
        if is_dataclass(kind):
            value = decode(kind, value, f"{where}{f.name}.")
        elif is_dataclass(_item(kind)):
            value = [decode(_item(kind), v, f"{where}{f.name}[{i}].") for i, v in enumerate(value)]
        values[f.name] = value
    return cls(**values)
