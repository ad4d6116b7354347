"""Dataset loading, splitting, windowing, and synthetic series.

CSV layout follows the common benchmark shape: an optional leading
timestamp column, one column per channel, rows in time order. Splits are
chronological; standardization statistics come from the training split
only. The synthetic generator builds groups of channels that share one
latent dynamic (a sinusoid plus linear trend, possibly sign-flipped) so
that routing quality is measurable against known group labels.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .decode import require_integers
from .errors import ConfigError, ContractError, ParseError, ShapeError

STD_FLOOR = 1e-8  # constant channels standardize to zeros instead of dividing by zero
# Characters that keep a file off the vectorized parse: a quote or a carriage
# return changes how the csv module splits rows and cells, and loadtxt reads
# the ASCII separators \x1c-\x1f as whitespace around a number where float()
# refuses them.
_NOT_PLAIN = '"\r\x1c\x1d\x1e\x1f'


@dataclass
class SeriesDataset:
    values: np.ndarray  # [T, C] float64
    channel_names: list[str]
    group_labels: list[int] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError(f"series values must be [time, channels], got shape {self.values.shape}")
        if len(self.channel_names) != self.values.shape[1]:
            raise ContractError(
                f"{len(self.channel_names)} channel names for {self.values.shape[1]} channels"
            )
        if self.group_labels is not None and len(self.group_labels) != self.values.shape[1]:
            raise ContractError(
                f"{len(self.group_labels)} labels for {self.values.shape[1]} channels"
            )


@dataclass(frozen=True)
class WindowSpec:
    lookback: int
    horizon: int
    stride: int = 1
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)

    def __post_init__(self):
        if not (self.lookback >= 1 and self.horizon >= 1 and self.stride >= 1):
            raise ConfigError(
                f"lookback, horizon, stride must be positive, got "
                f"{self.lookback}, {self.horizon}, {self.stride}"
            )
        if len(self.fractions) != 3 or not all(f > 0 for f in self.fractions):
            raise ConfigError(f"need three positive split fractions, got {self.fractions}")
        if abs(math.fsum(self.fractions) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {self.fractions}")
        require_integers(lookback=self.lookback, horizon=self.horizon, stride=self.stride)


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"malformed cell {cell!r} at row {row}, column {col}") from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite cell {cell!r} at row {row}, column {col}")
    return value


def _read_rows(path: str | Path) -> list[list[str]]:
    """The non-empty rows of a CSV file, read as UTF-8 with a byte order mark
    dropped if present. Bytes that do not decode, or a row the csv module
    rejects (a cell over its field size limit), raise ParseError naming the
    file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return [r for r in csv.reader(fh) if r]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path} cannot be read as CSV: {exc}") from exc


def _reject_repeats(path: str | Path, names: list[str]) -> None:
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise ParseError(f"{path} repeats channel names: {', '.join(map(repr, repeated))}")


def _channel_columns(path: Path, header: list[str], first_cell: str) -> tuple[int, list[str]]:
    """The index of the first channel column and the channel names. A
    leading 'date' header, or a first data cell that is not a number, marks
    column 0 as timestamps."""
    has_time = header[0].strip().lower() == "date"
    if not has_time:
        try:
            float(first_cell)
        except ValueError:
            has_time = True
    start = 1 if has_time else 0
    names = [h.strip() for h in header[start:]]
    if not names:
        raise ParseError(f"{path} has no channel columns")
    _reject_repeats(path, names)
    return start, names


def _load_plain(path: Path) -> SeriesDataset | None:
    """The dataset read by one vectorized parse, or None when the file is not
    plain enough for that parse to match the cell-by-cell reader exactly.

    Plain means: it decodes; it holds none of `_NOT_PLAIN`, so each
    newline-separated line is one csv row split at every comma; no line
    reaches the csv field size limit; there are a header and two data lines;
    every line has the header's comma count; and every channel cell parses
    to a finite number. Anything else, including cells that float() reads
    but loadtxt does not ('1_0', non-ASCII digits), goes to the cell-by-cell
    reader, which gives the value or the ParseError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if any(char in text for char in _NOT_PLAIN):
        return None
    lines = [line for line in text.split("\n") if line]
    if len(lines) < 3 or max(map(len, lines)) >= csv.field_size_limit():
        return None
    commas = lines[0].count(",")
    if any(line.count(",") != commas for line in lines):
        return None
    start, names = _channel_columns(path, lines[0].split(","), lines[1].split(",", 1)[0])
    try:
        values = np.loadtxt(lines[1:], delimiter=",", comments=None,
                            usecols=range(start, commas + 1), ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    # loadtxt skips whitespace-only lines that the csv module keeps as rows
    if values.shape != (len(lines) - 1, len(names)) or not np.isfinite(values).all():
        return None
    return SeriesDataset(values=values, channel_names=names)


def _load_cells(path: Path) -> SeriesDataset:
    """The dataset read cell by cell with the csv module and float(): the
    reader for every file `_load_plain` turns down, and the one that words
    every ParseError."""
    rows = _read_rows(path)
    if len(rows) < 3:  # header plus at least two observations
        raise ParseError(f"{path} holds fewer than two data rows")
    header, data = rows[0], rows[1:]
    start, names = _channel_columns(path, header, data[0][0])
    width = len(header)
    values = np.empty((len(data), len(names)))
    for i, row in enumerate(data):
        if len(row) != width:
            raise ParseError(f"row {i + 1} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row[start:]):
            values[i, j] = _parse_cell(cell, i + 1, start + j + 1)
    return SeriesDataset(values=values, channel_names=names)


def load_csv(path: str | Path) -> SeriesDataset:
    """Read a dataset; a leading 'date' column (or unparseable first cells)
    is treated as timestamps and dropped. Rows and columns in error messages
    are 1-based, rows counted over data lines only.

    A plain file is parsed in one vectorized pass; every other file is read
    cell by cell, with the same values, names and errors."""
    path = Path(path)
    dataset = _load_plain(path)
    return dataset if dataset is not None else _load_cells(path)


def labels_sidecar_path(csv_path: str | Path) -> Path:
    path = Path(csv_path)
    return path.with_name(path.stem + ".labels.csv")


def save_csv(dataset: SeriesDataset, path: str | Path) -> Path:
    """Write a dataset (and its labels sidecar, when labelled) back to CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + dataset.channel_names)
        for t, row in enumerate(dataset.values):
            writer.writerow([t] + [f"{v:.17g}" for v in row])
    if dataset.group_labels is not None:
        with open(labels_sidecar_path(path), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["channel", "group"])
            for name, group in zip(dataset.channel_names, dataset.group_labels):
                writer.writerow([name, group])
    return path


def load_labels(path: str | Path) -> dict[str, int]:
    """Read a labels sidecar: the header `channel,group`, then one row per
    channel naming its integer group. A channel listed twice is an error."""
    rows = _read_rows(path)
    if not rows or rows[0] != ["channel", "group"]:
        raise ParseError(f"{path} is not a labels sidecar")
    out: dict[str, int] = {}
    for i, row in enumerate(rows[1:]):
        if len(row) != 2:
            raise ParseError(f"labels row {i + 1} needs two cells, got {len(row)}")
        try:
            out[row[0]] = int(row[1])
        except ValueError:
            raise ParseError(f"malformed group {row[1]!r} at labels row {i + 1}") from None
    _reject_repeats(path, [row[0] for row in rows[1:]])
    return out


@dataclass
class Splits:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    mean: np.ndarray  # [C], train statistics
    std: np.ndarray  # [C], floored at STD_FLOOR


def split_standardize(dataset: SeriesDataset, spec: WindowSpec) -> Splits:
    """Chronological split, then per-channel z-scoring with train statistics.
    A channel whose train mean or std is not finite, as when its squares
    overflow, is a ConfigError naming it."""
    values = dataset.values
    total = values.shape[0]
    n_train = int(total * spec.fractions[0])
    n_val = int(total * spec.fractions[1])
    pieces = {
        "train": values[:n_train],
        "val": values[n_train:n_train + n_val],
        "test": values[n_train + n_val:],
    }
    need = spec.lookback + spec.horizon
    for name, piece in pieces.items():
        if piece.shape[0] < need:
            raise ConfigError(
                f"{name} split holds {piece.shape[0]} rows, fewer than lookback+horizon={need}"
            )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        mean = pieces["train"].mean(axis=0)
        std = np.maximum(pieces["train"].std(axis=0), STD_FLOOR)
    for name, m, s in zip(dataset.channel_names, mean, std):
        if not (np.isfinite(m) and np.isfinite(s)):
            raise ConfigError(f"channel {name!r} overflows its train-split statistics "
                              f"(mean {m}, std {s}); rescale it")
    return Splits(
        train=(pieces["train"] - mean) / std,
        val=(pieces["val"] - mean) / std,
        test=(pieces["test"] - mean) / std,
        mean=mean,
        std=std,
    )


def sliding_windows(split: np.ndarray, lookback: int, horizon: int,
                    stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """All (input, target) windows of a split, channels-first.

    Returns X [N, C, lookback] and Y [N, C, horizon] with
    N = (T - lookback - horizon) // stride + 1, as read-only views of the
    split: the windows overlap, so they take no memory of their own."""
    split = np.asarray(split, dtype=np.float64)
    if split.ndim != 2:
        raise ShapeError(f"split must be [time, channels], got shape {split.shape}")
    total = split.shape[0]
    if total < lookback + horizon:
        raise ConfigError(f"split of {total} rows cannot fit lookback+horizon={lookback + horizon}")
    windows = sliding_window_view(split, lookback + horizon, axis=0)[::stride]  # [N, C, L + H]
    return windows[:, :, :lookback], windows[:, :, lookback:]


@dataclass
class WindowedData:
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def make_windows(splits: Splits, spec: WindowSpec) -> WindowedData:
    train = sliding_windows(splits.train, spec.lookback, spec.horizon, spec.stride)
    val = sliding_windows(splits.val, spec.lookback, spec.horizon, spec.stride)
    test = sliding_windows(splits.test, spec.lookback, spec.horizon, spec.stride)
    return WindowedData(train[0], train[1], val[0], val[1], test[0], test[1])


HARMONIC_DECAY = 0.85  # the amplitude ratio of each harmonic of a group to the one before


@dataclass(frozen=True)
class GroupSpec:
    period: float
    amplitude: float = 1.0
    trend: float = 0.0
    phase_jitter: float = 0.0
    sign: float = 1.0
    harmonics: int = 1

    def __post_init__(self):
        if not self.period > 0:
            raise ConfigError(f"period must be positive, got {self.period}")
        if not self.phase_jitter >= 0:
            raise ConfigError(f"phase_jitter must be non-negative, got {self.phase_jitter}")
        if not self.harmonics >= 1:
            raise ConfigError(f"harmonics must be positive, got {self.harmonics}")
        require_integers(harmonics=self.harmonics)
        if not all(math.isfinite(x) for x in (self.amplitude, self.trend, self.sign)):
            raise ConfigError(
                f"amplitude, trend and sign must be finite, got "
                f"{self.amplitude}, {self.trend}, {self.sign}"
            )


def default_two_group() -> list[GroupSpec]:
    """Two sign-opposed rich periodic dynamics that one shared linear map
    cannot fit: with coprime periods the group pattern spaces together
    exceed the dimension of a lookback window, so any single input-to-future
    extension has to compromise on one group or the other."""
    return [
        GroupSpec(period=24.0, amplitude=1.0, trend=5e-4, phase_jitter=0.5, sign=1.0,
                  harmonics=11),
        GroupSpec(period=37.0, amplitude=1.0, trend=-5e-4, phase_jitter=0.5, sign=-1.0,
                  harmonics=18),
    ]


def default_four_group() -> list[GroupSpec]:
    """`default_two_group()` and two more groups."""
    return default_two_group() + [
        GroupSpec(period=30.0, amplitude=1.0, trend=-5e-4, phase_jitter=0.5, sign=1.0,
                  harmonics=14),
        GroupSpec(period=44.0, amplitude=1.0, trend=5e-4, phase_jitter=0.5, sign=-1.0,
                  harmonics=21),
    ]


def synth_generate(groups: list[GroupSpec], length: int = 4000,
                   channels_per_group: int = 4, noise: float = 0.1,
                   seed: int = 0) -> SeriesDataset:
    """Grouped periodic-pattern-plus-trend channels with Gaussian noise.

    Each group owns one waveform: a unit-energy mix of `harmonics` sinusoids
    at multiples of its base frequency, with amplitudes decaying by
    HARMONIC_DECAY per harmonic and phases drawn once per group. Channel c
    of group g is sign_g * (a_g P_g(phi_c-shifted) + s_g t) plus
    N(0, noise^2), with the phase shift phi_c drawn once per channel. With
    harmonics=1 this is a plain jittered sinusoid, sin(2 pi t / p_g + phi_c)."""
    if not groups:
        raise ConfigError("synth_generate needs at least one group")
    if length < 2 or channels_per_group < 1:
        raise ConfigError(
            f"length must be >= 2 and channels_per_group >= 1, got {length}, {channels_per_group}"
        )
    if noise < 0:
        raise ConfigError(f"noise must be non-negative, got {noise}")
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    columns, names, labels = [], [], []
    for g, spec in enumerate(groups):
        weights = HARMONIC_DECAY ** np.arange(spec.harmonics)
        weights /= np.sqrt((weights ** 2).sum())  # unit energy, like a lone sinusoid
        # the first harmonic keeps phase 0 so harmonics=1 draws nothing extra
        group_phases = np.zeros(spec.harmonics)
        if spec.harmonics > 1:
            group_phases[1:] = rng.uniform(0.0, 2.0 * np.pi, size=spec.harmonics - 1)
        for c in range(channels_per_group):
            phase = rng.uniform(0.0, spec.phase_jitter) if spec.phase_jitter > 0 else 0.0
            pattern = np.zeros(length)
            for j in range(spec.harmonics):
                omega = 2.0 * np.pi * (j + 1) / spec.period
                pattern += weights[j] * np.sin(omega * t + (j + 1) * phase + group_phases[j])
            clean = spec.sign * (spec.amplitude * pattern + spec.trend * t)
            columns.append(clean + rng.normal(0.0, noise, size=length))
            names.append(f"g{g}c{c}")
            labels.append(g)
    return SeriesDataset(values=np.stack(columns, axis=1), channel_names=names, group_labels=labels)


def routing_purity(mean_beta: np.ndarray, labels: list[int] | np.ndarray) -> float:
    """Fraction of channels whose argmax expert matches their group majority.

    Argmax ties resolve to the lowest expert index, and so do majority ties
    within a group."""
    mean_beta = np.asarray(mean_beta, dtype=np.float64)
    if mean_beta.ndim != 2 or mean_beta.shape[0] == 0:
        raise ShapeError(f"mean routing must be [channels, experts], got shape {mean_beta.shape}")
    labels = np.asarray(labels)
    if labels.shape != (mean_beta.shape[0],):
        raise ContractError(
            f"{labels.size} labels for {mean_beta.shape[0]} channels"
        )
    chosen = mean_beta.argmax(axis=1)  # first occurrence wins ties
    majority: dict[int, int] = {}
    for group in np.unique(labels):
        counts = np.bincount(chosen[labels == group], minlength=mean_beta.shape[1])
        majority[int(group)] = int(counts.argmax())
    hits = [chosen[i] == majority[int(labels[i])] for i in range(labels.size)]
    return float(np.mean(hits))
