"""The one JSON-to-config decoder: its type rules, and a guard that it can
read every field of every config it is used for. Also the range checks of the
config constructors, which library callers reach without the decoder."""

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import pytest

from disents.backbones import KINDS, BackboneConfig
from disents.cli import RunConfig
from disents.datakit import GroupSpec, WindowSpec
from disents.decode import Count, decode
from disents.errors import ConfigError
from disents.gating import GateConfig
from disents.lwa import LwaConfig
from disents.objectives import LossConfig
from disents.pipeline import ModelConfig, TrainConfig


def test_decoder_reads_every_run_config_field():
    assert decode(RunConfig, asdict(RunConfig()), "config key ") == RunConfig()


@pytest.mark.parametrize("top_k", [None, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_decoder_reads_every_model_config_field(kind, top_k):
    config = ModelConfig(n_experts=3, backbone=BackboneConfig(kind, 12, 6, hidden=9,
                                                              decomp_kernel=5),
                         gate=GateConfig(embed_dim=8, heads=2), lwa=LwaConfig(top_k=top_k))
    raw = json.loads(json.dumps(asdict(config)))  # as a manifest stores it
    assert decode(ModelConfig, raw, "meta.config.") == config


@dataclass(frozen=True)
class Inner:
    flag: bool
    name: str = "a"


@dataclass(frozen=True)
class Outer:
    count: int
    rate: float
    inner: Inner
    sizes: list[int]
    limit: int | None = None
    weights: list[float] | None = None
    n: Count = 0
    flags: list[bool] = field(default_factory=list)
    items: list[Inner] = field(default_factory=list)


def outer(**changes):
    raw = {"count": 2, "rate": 0.5, "inner": {"flag": True, "name": "b"}, "sizes": [1, 2],
           "limit": None, "weights": None, "n": 0, "flags": [], "items": []}
    return {**raw, **changes}


def test_values_pass_through_unchanged():
    decoded = decode(Outer, outer(rate=3, limit=4, weights=[1, 2.5]), "x.")
    assert decoded == Outer(2, 3, Inner(True, "b"), [1, 2], 4, [1, 2.5])
    assert type(decoded.rate) is int  # a float field keeps the int it was given
    decoded = decode(Outer, outer(n=3, flags=[False], items=[{"flag": False, "name": "c"}]), "x.")
    assert (decoded.n, decoded.flags, decoded.items) == (3, [False], [Inner(False, "c")])


@pytest.mark.parametrize("changes, message", [
    ({"count": True}, "x.count must be an integer, got True"),
    ({"count": 2.0}, "x.count must be an integer, got 2.0"),
    ({"rate": False}, "x.rate must be a finite number, got False"),
    ({"rate": float("inf")}, "x.rate must be a finite number, got inf"),
    ({"rate": 10 ** 400}, "x.rate must be a finite number, got 1000"),
    ({"sizes": [1, "2"]}, "x.sizes must be a list of integers, got [1, '2']"),
    ({"sizes": None}, "x.sizes must be a list of integers, got None"),
    ({"limit": 1.5}, "x.limit must be an integer or null, got 1.5"),
    ({"weights": [True]}, "x.weights must be a list of finite numbers or null, got [True]"),
    ({"inner": [True]}, "x.inner must be an object, got [True]"),
    ({"inner": {"flag": 1, "name": "b"}}, "x.inner.flag must be true or false, got 1"),
    ({"inner": {"flag": True, "name": 3}}, "x.inner.name must be a string, got 3"),
    ({"inner": {"flag": True}}, "x.inner.name is missing (malformed config)"),  # no default used
    ({"inner": {"flag": True, "name": "b", "extra": 0}}, "x.inner.extra is unknown"),
    ({"extra": 0, "zzz": 0}, "x.extra is unknown"),
    ({"n": -1}, "x.n must be a non-negative integer, got -1"),
    ({"n": True}, "x.n must be a non-negative integer, got True"),
    ({"n": 2.0}, "x.n must be a non-negative integer, got 2.0"),
    ({"flags": [True, 0]}, "x.flags must be a list of true or false values, got [True, 0]"),
    ({"items": {"flag": True}}, "x.items must be a list of objects, got {'flag': True}"),
    ({"items": [{"flag": True, "name": "a"}, {"flag": 1, "name": "b"}]},
     "x.items[1].flag must be true or false, got 1"),
    ({"items": ["a"]}, "x.items[0] must be an object, got 'a'"),
    ({"items": [{"flag": True, "name": "a", "extra": 0}]}, "x.items[0].extra is unknown"),
], ids=["int-bool", "int-float", "float-bool", "float-inf", "float-huge-int", "list-item",
        "list-null", "optional-float", "null-default-list-item", "nested-not-object",
        "nested-bool", "nested-str", "nested-missing", "nested-unknown", "unknown",
        "count-negative", "count-bool", "count-float", "bool-list-item", "item-list-not-list",
        "item-list-item", "item-list-not-object", "item-list-unknown"])
def test_each_rule_names_the_key(changes, message):
    with pytest.raises(ConfigError) as err:
        decode(Outer, outer(**changes), "x.")
    assert str(err.value).startswith(message)


def test_an_unreadable_annotation_fails_loudly():
    @dataclass
    class Mapping:
        table: dict[str, int]

    with pytest.raises(TypeError, match="cannot read the annotation"):
        decode(Mapping, {"table": {}}, "x.")


NAN = math.nan


@pytest.mark.parametrize("build", [
    lambda: WindowSpec(48, 24, fractions=(NAN, 0.5, 0.5)),
    lambda: LwaConfig(rcond=NAN),
    lambda: LossConfig(tau=NAN),
    lambda: LossConfig(sc_weight=NAN),
    lambda: TrainConfig(lr=NAN),
    lambda: ModelConfig(n_experts=2, backbone=BackboneConfig("linear", 8, 4), eps_norm=NAN),
    lambda: GroupSpec(period=NAN),
    lambda: GroupSpec(24.0, phase_jitter=NAN),
], ids=["fractions", "rcond", "tau", "sc_weight", "lr", "eps_norm", "period", "phase_jitter"])
def test_range_checks_reject_nan(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: BackboneConfig("linear", NAN, 4), "lookback and horizon must be positive"),
    (lambda: BackboneConfig("linear", 8, NAN), "lookback and horizon must be positive"),
    (lambda: BackboneConfig("mlp", 8, 4, hidden=NAN), "mlp hidden width must be positive"),
    (lambda: BackboneConfig("decomp-linear", 8, 4, decomp_kernel=NAN),
     "decomp_kernel must be odd and positive"),
    (lambda: WindowSpec(NAN, 24), "lookback, horizon, stride must be positive"),
    (lambda: WindowSpec(48, 24, stride=NAN), "lookback, horizon, stride must be positive"),
    (lambda: GroupSpec(24.0, harmonics=NAN), "harmonics must be positive"),
    (lambda: GroupSpec(24.0, amplitude=NAN), "amplitude, trend and sign must be finite"),
    (lambda: GroupSpec(24.0, trend=math.inf), "amplitude, trend and sign must be finite"),
    (lambda: GroupSpec(24.0, sign=NAN), "amplitude, trend and sign must be finite"),
    (lambda: TrainConfig(epochs=NAN), "epochs and batch_size must be positive"),
    (lambda: TrainConfig(batch_size=NAN), "epochs and batch_size must be positive"),
    (lambda: TrainConfig(patience=NAN), "patience must be non-negative"),
    (lambda: LwaConfig(top_k=NAN), "top_k must be positive"),
    (lambda: GateConfig(embed_dim=NAN), "embed_dim and heads must be positive"),
    (lambda: GateConfig(heads=NAN), "embed_dim and heads must be positive"),
    (lambda: ModelConfig(n_experts=NAN, backbone=BackboneConfig("linear", 8, 4)),
     "n_experts must be positive"),
], ids=["lookback", "horizon", "hidden", "decomp_kernel", "window_lookback", "stride",
        "harmonics", "amplitude", "trend", "sign", "epochs", "batch_size", "patience",
        "top_k", "embed_dim", "heads", "n_experts"])
def test_count_fields_and_group_shape_reject_nan(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


INF = math.inf


@pytest.mark.parametrize("build, message", [
    (lambda: BackboneConfig("linear", 2.5, 4), "lookback must be an integer, got 2.5"),
    (lambda: BackboneConfig("linear", 8, INF), "horizon must be an integer, got inf"),
    (lambda: BackboneConfig("mlp", 8, 4, hidden=16.0), "hidden must be an integer, got 16.0"),
    (lambda: BackboneConfig("decomp-linear", 8, 4, decomp_kernel=3.0),
     "decomp_kernel must be an integer, got 3.0"),
    (lambda: WindowSpec(INF, 24), "lookback must be an integer, got inf"),
    (lambda: WindowSpec(48, 24.5), "horizon must be an integer, got 24.5"),
    (lambda: WindowSpec(48, 24, stride=1.0), "stride must be an integer, got 1.0"),
    (lambda: GateConfig(embed_dim=64.0), "embed_dim must be an integer, got 64.0"),
    (lambda: GateConfig(heads=4.0), "heads must be an integer, got 4.0"),
    (lambda: TrainConfig(epochs=2.5), "epochs must be an integer, got 2.5"),
    (lambda: TrainConfig(batch_size=INF), "batch_size must be an integer, got inf"),
    (lambda: TrainConfig(patience=1.5), "patience must be an integer, got 1.5"),
    (lambda: LwaConfig(top_k=7.5), "top_k must be an integer, got 7.5"),
    (lambda: ModelConfig(n_experts=2.0, backbone=BackboneConfig("linear", 8, 4)),
     "n_experts must be an integer, got 2.0"),
    (lambda: GroupSpec(24.0, harmonics=INF), "harmonics must be an integer, got inf"),
], ids=["lookback", "horizon", "hidden", "decomp_kernel", "window_lookback", "window_horizon",
        "stride", "embed_dim", "heads", "epochs", "batch_size", "patience", "top_k", "n_experts",
        "harmonics"])
def test_count_fields_reject_non_integers(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_count_fields_take_numpy_integers():
    n = np.int64
    BackboneConfig("mlp", n(8), n(4), hidden=n(3), decomp_kernel=n(5))
    BackboneConfig("decomp-linear", n(8), n(4), decomp_kernel=n(5))
    WindowSpec(n(48), n(24), stride=n(2))
    GateConfig(embed_dim=n(8), heads=n(2))
    TrainConfig(epochs=n(2), batch_size=n(4), patience=n(0))
    LwaConfig(top_k=n(7))
    ModelConfig(n_experts=n(2), backbone=BackboneConfig("linear", 8, 4))
    GroupSpec(24.0, harmonics=n(2))
    with pytest.raises(ConfigError, match="heads must be an integer, got True"):
        GateConfig(embed_dim=8, heads=True)
