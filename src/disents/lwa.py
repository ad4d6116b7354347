"""Linear weight approximation of expert behaviour.

Each training step distils every expert into a single linear map W: the
rows the gate routes most confidently to that expert are regressed against
the expert's forecasts for them, W = pinv(x_hat) @ f_hat (least squares,
no intercept). The pseudo-inverse of the inputs is a gradient barrier, so
the constraint losses built on W reach the expert only through its
forecasts. An exponential moving average of W per expert forms the
signature registry the gate conditions on.
Selection and regression also run on the [K, ...] stack of all experts at
once, through one gather and one stacked pseudo-inverse. That pseudo-inverse
and the [K] products of `signature_error` are spread over numcore's thread
pool matrix by matrix, with the same bits at any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .decode import require_integers
from .errors import ConfigError, ContractError, ShapeError
from .numcore import Tensor

INIT_STD = 0.02  # registry warm-start noise, breaks routing symmetry


@dataclass(frozen=True)
class LwaConfig:
    top_k: int | None = None  # None: min(batch * channels, 2 * lookback)
    alpha: float = 0.9
    rcond: float = 1e-6

    def __post_init__(self):
        if self.top_k is not None:
            if not self.top_k >= 1:
                raise ConfigError(f"top_k must be positive, got {self.top_k}")
            require_integers(top_k=self.top_k)
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.rcond > 0.0:
            raise ConfigError(f"rcond must be positive, got {self.rcond}")


def effective_top_k(config: LwaConfig, pool: int, lookback: int) -> int:
    """Rows to regress on: the configured k capped by the pool, or the default."""
    if config.top_k is None:
        return min(pool, 2 * lookback)
    return min(config.top_k, pool)


class EmaRegistry:
    """Per-expert EMA of linear signatures, gamma[m] in R^{lookback x horizon}.

    Until an expert's first update its slot holds small seeded noise (zeros
    with no `rng`, for a caller that fills it) and is flagged uninitialised;
    the first update copies W verbatim, later ones blend
    gamma = alpha * gamma + (1 - alpha) * W.
    """

    def __init__(self, n_experts: int, lookback: int, horizon: int,
                 alpha: float, rng: np.random.Generator | None):
        if n_experts < 1:
            raise ConfigError(f"registry needs at least one expert, got {n_experts}")
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
        self.alpha = alpha
        shape = (n_experts, lookback, horizon)
        self.gamma = np.zeros(shape) if rng is None else rng.normal(0.0, INIT_STD, size=shape)
        self.initialized = [False] * n_experts

    def update(self, signatures: np.ndarray) -> None:
        """Fold a [K, L, H] stack of batch signatures into the registry, one
        per expert, in place. W enters as a constant."""
        w = np.asarray(signatures, dtype=np.float64)
        if w.shape != self.gamma.shape:
            raise ShapeError(f"signature stack shape {w.shape} does not match {self.gamma.shape}")
        initialized = np.array(self.initialized)[:, np.newaxis, np.newaxis]
        self.gamma[...] = np.where(initialized, self.alpha * self.gamma + (1.0 - self.alpha) * w, w)
        self.initialized = [True] * len(self.initialized)


def select_top_k(beta: Tensor, x_norm: Tensor, y_hat: Tensor,
                 expert, k: int) -> tuple[Tensor, Tensor]:
    """Pick the k channel rows with the highest routing weight for `expert`.

    `expert` is one index, with `y_hat` its [B, C, H] forecasts, or an index
    array [E] with the [E, B, C, H] stack of those experts' forecasts. Rows
    are pooled across the whole batch ([B, C] flattened row-major) and ties
    broken by ascending (batch, channel) position. Returns x_hat as a
    constant [..., k, L] and f_hat as [..., k, H] with gradient linkage to
    the forecasts, where `...` is the shape of `expert`.
    """
    if beta.ndim != 3:
        raise ShapeError(f"beta must be [batch, channels, experts], got shape {beta.shape}")
    b, c, n_experts = beta.shape
    pool = b * c
    experts = np.asarray(expert)
    if ((experts < 0) | (experts >= n_experts)).any():
        raise ContractError(f"expert index {expert} out of range for {n_experts}")
    if not 1 <= k <= pool:
        raise ContractError(f"top-k of {k} from a pool of {pool} rows")
    lead = experts.shape
    if x_norm.shape[:2] != (b, c) or y_hat.shape[:-1] != lead + (b, c):
        raise ShapeError(f"beta {beta.shape}, inputs {x_norm.shape} and forecasts "
                         f"{y_hat.shape} disagree on experts, batch or channels")
    scores = np.moveaxis(beta.data.reshape(pool, n_experts)[:, experts], 0, -1)
    order = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    x_rows = nc.constant(x_norm.data.reshape(pool, x_norm.shape[2])[order])
    f_rows = nc.gather_rows(nc.reshape(y_hat, lead + (pool, y_hat.shape[-1])), order)
    return x_rows, f_rows


def approximate(x_hat: Tensor, f_hat: Tensor, rcond: float = 1e-6) -> Tensor:
    """Least-squares linear signature W = pinv(x_hat) @ f_hat, [L, H], or
    one per matrix of equal [..., k, L] and [..., k, H] stacks.

    Gradients flow only through f_hat; the pseudo-inverse is constant."""
    if x_hat.ndim < 2 or x_hat.shape[:-1] != f_hat.shape[:-1]:
        raise ShapeError(f"row mismatch between inputs {x_hat.shape} and forecasts {f_hat.shape}")
    return nc.matmul(nc.pinv(x_hat, rcond), f_hat)


def signature_error(x: np.ndarray, outputs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mean squared gap between expert forecasts [..., R, H] and their linear
    image x @ W of the rows x [R, L], one value per signature W [..., L, H].
    A stack of signatures maps a read-only broadcast of the rows matrix by
    matrix, spread over the pool (`numcore._matmul_into`)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    outputs = np.asarray(outputs, dtype=np.float64)
    diff = outputs - nc._matmul_into(np.broadcast_to(x, w.shape[:-2] + x.shape), w)
    return np.mean(diff * diff, axis=(-2, -1))
