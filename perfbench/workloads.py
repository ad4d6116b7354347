"""The benchmark's workloads: their shapes, their inputs and the model each one runs.

Every input is made from the workload seed alone, so the same seed gives
the same series, the same model initialisation and the same training
stream. The `tiny` size keeps each workload's structure at a size the
benchmark's own tests can run in seconds; it is never used for figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from disents import datakit
from disents.backbones import BackboneConfig
from disents.datakit import GroupSpec
from disents.gating import GateConfig
from disents.pipeline import ModelConfig, TrainConfig

K_EXPERTS = 4


@dataclass(frozen=True)
class Shape:
    """One workload at one size."""

    kind: str  # "train" or "serve"
    backbone: str
    lookback: int
    horizon: int
    groups: int  # 4 or 8 synthetic channel groups
    channels_per_group: int
    length: int
    decomp_kernel: int = 25
    gate_dim: int = 64
    gate_heads: int = 4
    epochs: int = 2
    batch_size: int = 32
    setup_repeats: int = 5
    # One serving round: `evals_per_round` evaluates of the test split, then
    # `b1_per_round` single-window predicts, then `big_per_round` predicts
    # of `big_batch`.
    evals_per_round: int = 2
    b1_per_round: int = 256
    big_per_round: int = 4
    big_batch: int = 256
    min_rounds: int = 5  # at least 1280 B=1 and 20 large-batch samples for the medians
    # serve only: the short fit that makes the served checkpoint
    fit_train_windows: int = 2048
    fit_val_windows: int = 64
    probe_windows: int = 8

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            n_experts=K_EXPERTS,
            backbone=BackboneConfig(self.backbone, self.lookback, self.horizon,
                                    decomp_kernel=self.decomp_kernel),
            gate=GateConfig(embed_dim=self.gate_dim, heads=self.gate_heads),
        )

    def train_config(self, seed: int) -> TrainConfig:
        # patience equal to the epoch count: every run trains every epoch
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           patience=self.epochs, seed=seed)


SHAPES: dict[str, dict[str, Shape]] = {
    "full": {
        "train-wide": Shape("train", "linear", 48, 24, groups=4, channels_per_group=8,
                            length=4000),
        "train-longwin": Shape("train", "decomp-linear", 96, 96, groups=4,
                               channels_per_group=4, length=4000),
        "serve-large": Shape("serve", "decomp-linear", 96, 96, groups=8,
                             channels_per_group=4, length=20000, setup_repeats=3,
                             epochs=1),
    },
    "tiny": {
        "train-wide": Shape("train", "linear", 24, 12, groups=4, channels_per_group=2,
                            length=2000, gate_dim=16, setup_repeats=2, b1_per_round=16,
                            big_per_round=2, big_batch=16, min_rounds=1),
        "train-longwin": Shape("train", "decomp-linear", 24, 24, groups=4,
                               channels_per_group=1, length=2000, decomp_kernel=5,
                               gate_dim=16, setup_repeats=2, b1_per_round=16,
                               big_per_round=2, big_batch=16, min_rounds=1),
        "serve-large": Shape("serve", "decomp-linear", 24, 24, groups=8,
                             channels_per_group=1, length=1200, decomp_kernel=5,
                             gate_dim=16, setup_repeats=2, epochs=1, b1_per_round=16,
                             big_per_round=2, big_batch=16, min_rounds=1,
                             fit_train_windows=64, fit_val_windows=16),
    },
}

WORKLOADS = tuple(SHAPES["full"])


def group_specs(count: int) -> list[GroupSpec]:
    """The four-group synthetic of the package, plus four more dynamics for eight."""
    groups = datakit.default_four_group()
    if count == 8:
        groups += [
            GroupSpec(period=18.0, trend=2e-4, phase_jitter=0.5, sign=1.0, harmonics=8),
            GroupSpec(period=52.0, trend=-2e-4, phase_jitter=0.5, sign=-1.0, harmonics=24),
            GroupSpec(period=27.0, trend=-3e-4, phase_jitter=0.5, sign=-1.0, harmonics=12),
            GroupSpec(period=61.0, trend=3e-4, phase_jitter=0.5, sign=1.0, harmonics=28),
        ]
    if len(groups) != count:
        raise ValueError(f"no synthetic with {count} groups")
    return groups


def make_series(shape: Shape, seed: int) -> datakit.SeriesDataset:
    """The workload's series, made by the package's own generator.

    Called through the module attribute so that a traced run sees it."""
    return datakit.synth_generate(group_specs(shape.groups), length=shape.length,
                                  channels_per_group=shape.channels_per_group, seed=seed)
