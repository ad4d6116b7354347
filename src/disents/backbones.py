"""Channel-independent forecasting backbones.

Each backbone maps a lookback window of one channel to a horizon forecast
and is applied to every channel of every series with shared weights. Three
kinds are provided: a single linear head, a trend/seasonal decomposition
with one linear head per component, and a one-hidden-layer MLP with GELU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .decode import require_integers
from .errors import ConfigError, ShapeError
from .numcore import Tensor

KINDS = ("linear", "decomp-linear", "mlp")

INIT_STD = 0.02  # weight init N(0, INIT_STD^2); biases start at zero


@dataclass(frozen=True)
class BackboneConfig:
    kind: str
    lookback: int
    horizon: int
    hidden: int = 64
    decomp_kernel: int = 25

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown backbone kind {self.kind!r}, expected one of {KINDS}")
        if not (self.lookback >= 1 and self.horizon >= 1):
            raise ConfigError(f"lookback and horizon must be positive, got {self.lookback}, {self.horizon}")
        if self.kind == "mlp" and not self.hidden >= 1:
            raise ConfigError(f"mlp hidden width must be positive, got {self.hidden}")
        if self.kind == "decomp-linear":
            if not self.decomp_kernel >= 1 or self.decomp_kernel % 2 == 0:
                raise ConfigError(f"decomp_kernel must be odd and positive, got {self.decomp_kernel}")
            if self.decomp_kernel > self.lookback:
                raise ConfigError(
                    f"decomp_kernel {self.decomp_kernel} exceeds lookback {self.lookback}"
                )
        require_integers(lookback=self.lookback, horizon=self.horizon, hidden=self.hidden,
                         decomp_kernel=self.decomp_kernel)


def moving_average_matrix(length: int, kernel: int) -> np.ndarray:
    """Matrix M so that row @ M is the centered moving average of the row,
    with edge values replicated to pad both ends."""
    half = (kernel - 1) // 2
    m = np.zeros((length, length))
    for t in range(length):
        for j in range(t - half, t + half + 1):
            m[min(max(j, 0), length - 1), t] += 1.0 / kernel
    return m


class Backbone:
    """One expert forecaster: config plus named parameter tensors."""

    def __init__(self, config: BackboneConfig, rng: np.random.Generator):
        self.config = config
        L, H = config.lookback, config.horizon

        def weight(shape):
            return nc.parameter(rng.normal(0.0, INIT_STD, size=shape))

        def bias(n):
            return nc.parameter(np.zeros(n))

        p: dict[str, Tensor] = {}
        if config.kind == "linear":
            p["w"] = weight((L, H))
            p["b"] = bias(H)
        elif config.kind == "decomp-linear":
            p["trend_w"] = weight((L, H))
            p["trend_b"] = bias(H)
            p["seasonal_w"] = weight((L, H))
            p["seasonal_b"] = bias(H)
        else:  # mlp
            p["w1"] = weight((L, config.hidden))
            p["b1"] = bias(config.hidden)
            p["w2"] = weight((config.hidden, H))
            p["b2"] = bias(H)
        self.params = p
        self._trend_matrix = (
            nc.constant(moving_average_matrix(L, config.decomp_kernel))
            if config.kind == "decomp-linear"
            else None
        )

    @property
    def param_count(self) -> int:
        return int(np.sum([t.size for t in self.params.values()]))


def forecast_rows(backbone: Backbone, x: Tensor) -> Tensor:
    """Forecast a stack of independent channel rows, [rows, L] -> [rows, H]."""
    x = x if isinstance(x, Tensor) else nc.constant(x)
    cfg = backbone.config
    if x.ndim != 2 or x.shape[1] != cfg.lookback:
        raise ShapeError(f"expected rows of length {cfg.lookback}, got shape {x.shape}")
    p = backbone.params
    if cfg.kind == "linear":
        return nc.matmul(x, p["w"]) + p["b"]
    if cfg.kind == "decomp-linear":
        trend = nc.matmul(x, backbone._trend_matrix)
        seasonal = x - trend
        return (nc.matmul(trend, p["trend_w"]) + p["trend_b"]) + (
            nc.matmul(seasonal, p["seasonal_w"]) + p["seasonal_b"]
        )
    hidden = nc.gelu(nc.matmul(x, p["w1"]) + p["b1"])
    return nc.matmul(hidden, p["w2"]) + p["b2"]


def forecast_batch(backbone: Backbone, x: Tensor) -> Tensor:
    """Forecast a batch of multivariate windows, [B, C, L] -> [B, C, H]."""
    x = x if isinstance(x, Tensor) else nc.constant(x)
    if x.ndim != 3:
        raise ShapeError(f"expected a [batch, channels, lookback] tensor, got shape {x.shape}")
    b, c, _ = x.shape
    rows = nc.reshape(x, (b * c, x.shape[2]))
    out = forecast_rows(backbone, rows)
    return nc.reshape(out, (b, c, backbone.config.horizon))
