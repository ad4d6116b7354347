"""Correctness checks on what the benchmark's workloads produce.

Each check compares an output of `disents` with a computation made apart
from the package in NumPy, or with a property the method must have. A
check returns nothing when the output passes and raises `CheckFailed`
when it does not. None compares against a stored copy of earlier output.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# float64 results that are recomputed in another order agree to a few ulps
REL_TOL = 1e-12
# least squares through an SVD pseudo-inverse versus LAPACK's lstsq
LSTSQ_TOL = 1e-8
# leading rows per bit-for-bit comparison: 256 train windows of serve-large are 6 MiB
CHUNK = 256


class CheckFailed(AssertionError):
    """An output of the package disagrees with its independent check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    require(a.shape == b.shape, f"shapes differ: {a.shape} vs {b.shape}")
    scale = max(float(np.abs(b).max(initial=0.0)), np.finfo(np.float64).tiny)
    return float(np.abs(a - b).max(initial=0.0)) / scale


def finite_losses(reports) -> None:
    """Every train step's forecast, contrast and total loss is finite."""
    require(len(reports) > 0, "no train step ran")
    for i, r in enumerate(reports):
        require(np.isfinite([r.l_fc, r.l_sc, r.total]).all(),
                f"step {i} has a non-finite loss: {r.l_fc}, {r.l_sc}, {r.total}")


def loss_decreases(history, epochs: int) -> None:
    """Every epoch ran, and the last epoch's mean forecast loss is below the first's."""
    require(len(history) == epochs, f"{len(history)} epochs ran, expected {epochs}")
    first, last = history[0].train_lfc, history[-1].train_lfc
    require(last < first, f"forecast loss rose from {first} to {last}")


def step_count(steps: int, train_windows: int, batch_size: int, epochs: int) -> None:
    """fit made one step per batch of every epoch."""
    expected = epochs * -(-train_windows // batch_size)
    require(steps == expected, f"{steps} train steps, expected {expected}")


def mse_recomputed(mse: float, forecasts: np.ndarray, targets: np.ndarray) -> None:
    """The reported MSE equals the mean squared error of the forecasts."""
    require(forecasts.shape == targets.shape,
            f"{forecasts.shape} forecasts for {targets.shape} targets")
    diff = forecasts - targets
    ref = float(np.mean(diff * diff))
    require(abs(mse - ref) <= REL_TOL * ref, f"evaluate reports {mse}, NumPy gives {ref}")


def beats_zero_forecast(mse: float, targets: np.ndarray) -> None:
    """The model forecasts the standardised test targets better than all zeros."""
    zero = float(np.mean(targets * targets))
    require(mse < zero, f"test mse {mse} is not below the zero forecast's {zero}")


def routing_simplex(beta: np.ndarray) -> None:
    """Every channel's routing row is non-negative and sums to one."""
    require(bool((beta >= 0).all()), "a routing weight is negative")
    gap = float(np.abs(beta.sum(axis=-1) - 1.0).max())
    require(gap <= REL_TOL, f"a routing row misses 1 by {gap}")


def forecast_recomposition(x: np.ndarray, fwd, eps_norm: float) -> None:
    """y_hat = (sigma + eps) * sum_m beta_m f_m + mu, with mu and sigma the
    per-window, per-channel mean and population std of the input."""
    mu = x.mean(axis=2, keepdims=True)
    sigma = x.std(axis=2, keepdims=True)
    require(_rel_gap(fwd.mu, mu) <= REL_TOL and _rel_gap(fwd.sigma, sigma) <= REL_TOL,
            "the stationarisation statistics differ from the input's mean and std")
    beta = fwd.beta.data
    mixed = sum(beta[:, :, m:m + 1] * f.data for m, f in enumerate(fwd.expert_outputs))
    ref = (sigma + eps_norm) * mixed + mu
    gap = _rel_gap(fwd.y_hat.data, ref)
    require(gap <= REL_TOL, f"forecast differs from its recomposition by {gap} (relative)")


def top_k_rows(beta: np.ndarray, expert: int, k: int) -> np.ndarray:
    """Rows of the flattened [batch * channels] pool with the k highest weights
    for `expert`, ties to the earlier row."""
    scores = beta[:, :, expert].reshape(-1)
    return np.lexsort((np.arange(scores.size), -scores))[:k]


def signature_matches_lstsq(signature: np.ndarray, x_rows: np.ndarray,
                            f_rows: np.ndarray) -> None:
    """A linear weight approximation equals the least-squares fit x_rows @ W = f_rows."""
    ref, *_ = np.linalg.lstsq(x_rows, f_rows, rcond=None)
    gap = float(np.linalg.norm(signature - ref) / max(np.linalg.norm(ref), 1e-300))
    require(gap <= LSTSQ_TOL, f"signature differs from lstsq by {gap} (relative Frobenius)")


def same_values(got: np.ndarray, want: np.ndarray, what: str) -> None:
    """Bit-for-bit equality, compared CHUNK leading rows at a time so that the
    check copies no more than a few MB, whatever the size of the arrays."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    require(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    require(got.dtype == want.dtype, f"{what}: dtype {got.dtype}, expected {want.dtype}")
    for i in range(0, got.shape[0], CHUNK):
        require(got[i:i + CHUNK].tobytes() == want[i:i + CHUNK].tobytes(),
                f"{what} are not bit-identical (from row {i})")


def csv_exact(dataset, values: np.ndarray, names: list[str]) -> None:
    """load_csv returns exactly the array and channel names that were written."""
    same_values(dataset.values, values, "loaded CSV values")
    require(list(dataset.channel_names) == list(names), "loaded channel names differ")


def reference_splits(values: np.ndarray, fractions) -> list[np.ndarray]:
    """Chronological train/val/test split, z-scored with train statistics."""
    n_train = int(values.shape[0] * fractions[0])
    n_val = int(values.shape[0] * fractions[1])
    train = values[:n_train]
    mean = train.mean(axis=0)
    std = np.maximum(train.std(axis=0), 1e-8)
    return [(part - mean) / std for part in
            (train, values[n_train:n_train + n_val], values[n_train + n_val:])]


def windows_exact(data, values: np.ndarray, lookback: int, horizon: int, fractions) -> None:
    """Every window equals a sliding_window_view of the standardised split."""
    pairs = [(data.train_x, data.train_y), (data.val_x, data.val_y), (data.test_x, data.test_y)]
    for name, split, (x, y) in zip(("train", "val", "test"),
                                   reference_splits(values, fractions), pairs):
        view = sliding_window_view(split, lookback + horizon, axis=0)  # [N, C, L + H]
        same_values(x, view[:, :, :lookback], f"{name} input windows")
        same_values(y, view[:, :, lookback:], f"{name} target windows")


def metrics_equal(a, b, what: str) -> None:
    require(a.mse == b.mse and a.mae == b.mae and a.per_channel_mse == b.per_channel_mse,
            f"{what}: {a.mse} vs {b.mse}")


def close(got: np.ndarray, want: np.ndarray, what: str) -> None:
    """Agreement to REL_TOL relative to the largest magnitude."""
    gap = _rel_gap(got, want)
    require(gap <= REL_TOL, f"{what} differ by {gap} (relative)")


def step_layers_add_up(in_step_ms: float, step_ms: float, uncovered) -> None:
    """The in-step per-layer metrics add up to the traced step time; they fall
    short when a span under a step is counted by none of them."""
    gap = abs(in_step_ms - step_ms) / step_ms
    require(gap <= REL_TOL * 1e3,
            f"in-step layers sum to {in_step_ms} ms a step, the step takes {step_ms} ms; "
            f"spans under a step that no metric counts: {sorted(uncovered) or 'none'}")


def equal_scalar(got: float, want: float, what: str) -> None:
    require(got == want, f"{what}: {got}, expected {want}")
