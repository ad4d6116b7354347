"""Training objectives: forecasting MSE and the signature contrast term.

The contrast term treats each expert's fresh batch signature W_i and its
registry entry gamma_i as a positive pair and every other registry entry as
a negative, which pushes experts toward distinct linear behaviours. Rows
are compared by temperature-scaled cosine similarity by default; a raw
inner-product mode exists for ablation and fixes the temperature at 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ConfigError, ContractError, ShapeError
from .numcore import Tensor

NORM_FLOOR = 1e-12  # lower bound on row norms in cosine mode


@dataclass(frozen=True)
class LossConfig:
    """Contrast settings. tau defaults to 1 so cosine logits stay in
    [-1, 1] and the softmax never saturates; sharper temperatures make the
    separation pressure vanish once experts have drifted apart."""

    sc_weight: float = 0.1
    tau: float = 1.0
    normalize_sims: bool = True

    def __post_init__(self):
        if not self.sc_weight >= 0.0:
            raise ConfigError(f"sc_weight must be non-negative, got {self.sc_weight}")
        if not self.tau > 0.0:
            raise ConfigError(f"tau must be positive, got {self.tau}")


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over every element, as a scalar tensor."""
    pred = pred if isinstance(pred, Tensor) else nc.constant(pred)
    target = target if isinstance(target, Tensor) else nc.constant(target)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} does not match target {target.shape}")
    diff = pred - target
    return nc.mean(diff * diff)


def _unit_rows(rows: Tensor) -> Tensor:
    # sqrt(sum + FLOOR^2) == the row norm floored at FLOOR, with a finite
    # gradient even for an all-zero row.
    norms = nc.sqrt(nc.sum(rows * rows, axis=1, keepdims=True) + NORM_FLOOR * NORM_FLOOR)
    return rows / norms


def similarity_constraint(signatures: Tensor, gamma: np.ndarray, config: LossConfig) -> Tensor:
    """Contrast the fresh [K, L, H] signature stack against the registry.

    For each expert i, with similarity s and temperature tau:
        loss_i = -log( exp(s(W_i, gamma_i)/tau) / sum_j exp(s(W_i, gamma_j)/tau) )
    Registry entries are constants; gradients reach only the signatures.
    A single expert has nothing to contrast with, so the loss is exactly 0.
    """
    n = signatures.shape[0]
    if n == 0:
        raise ContractError("similarity_constraint needs at least one signature")
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape[0] != n:
        raise ContractError(f"{n} signatures but {gamma.shape[0]} registry entries")
    if n == 1:
        return nc.constant(0.0)
    if gamma.shape[1:] != signatures.shape[1:]:
        raise ShapeError(f"registry entry shape {gamma.shape[1:]} does not match signatures "
                         f"{signatures.shape[1:]}")

    w = nc.reshape(signatures, (n, -1))
    g_flat = gamma.reshape(n, -1)
    if config.normalize_sims:
        w = _unit_rows(w)
        g_flat = _unit_rows(nc.constant(g_flat)).data
        inv_tau = 1.0 / config.tau
    else:
        inv_tau = 1.0  # raw inner products are unscaled by definition
    logits = nc.multiply(nc.matmul(w, nc.constant(g_flat.T)), inv_tau)
    probs = nc.softmax(logits)
    own = nc.sum(probs * nc.constant(np.eye(n)), axis=1)
    return nc.negate(nc.sum(nc.log(own)))


def total_loss(forecast_term: Tensor, constraint_term: Tensor, sc_weight: float) -> Tensor:
    """Combined objective: forecast_term + sc_weight * constraint_term."""
    return forecast_term + nc.multiply(sc_weight, constraint_term)
