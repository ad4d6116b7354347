"""Channel-independent forecasting backbones, K experts as one stack.

Each backbone maps a lookback window of one channel to a horizon forecast
and is applied to every channel of every series with shared weights. Three
kinds are provided: a single linear head, a trend/seasonal decomposition
with one linear head per component, and a one-hidden-layer MLP with GELU.
The K experts of a model are one `Backbone` of [K, ...] parameter stacks.
`layers` turns them into one list of stacked (weight, bias) layers, and a
forecast runs each layer once for all experts. The decomposition is linear,
trend @ Wt + (x - trend) @ Ws = x @ (Ws + A @ (Wt - Ws)) with the moving
average trend = x @ A, so it runs as one layer of folded weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .decode import require_integers
from .errors import ConfigError, ContractError, ShapeError
from .numcore import Tensor

KINDS = ("linear", "decomp-linear", "mlp")

INIT_STD = 0.02  # weight init N(0, INIT_STD^2); biases (the 1-D shapes) start at zero


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


def param_shapes(config: BackboneConfig) -> dict[str, tuple[int, ...]]:
    """One expert's parameter shapes by key, in draw order; a `Backbone`
    stacks each over its K experts."""
    L, H, hidden = config.lookback, config.horizon, config.hidden
    return {
        "linear": {"w": (L, H), "b": (H,)},
        "decomp-linear": {"trend_w": (L, H), "trend_b": (H,),
                          "seasonal_w": (L, H), "seasonal_b": (H,)},
        "mlp": {"w1": (L, hidden), "b1": (hidden,), "w2": (hidden, H), "b2": (H,)},
    }[config.kind]


class Backbone:
    """The K expert forecasters as one stack: config plus named parameter
    tensors, each of shape [K, ...]: one weight or bias per expert. The
    weights are drawn expert by expert, so expert 0 is the same at every K;
    with no `rng` every parameter starts at zero, for a caller that fills it."""

    def __init__(self, config: BackboneConfig, n_experts: int, rng: np.random.Generator | None):
        if n_experts < 1:
            raise ConfigError(f"a backbone stack needs at least one expert, got {n_experts}")
        require_integers(n_experts=n_experts)
        self.config = config
        self.n_experts = n_experts
        shapes = param_shapes(config)
        experts = [{key: np.zeros(shape) if rng is None or len(shape) != 2
                    else rng.normal(0.0, INIT_STD, size=shape) for key, shape in shapes.items()}
                   for _ in range(n_experts)]
        self.params: dict[str, Tensor] = {
            key: nc.parameter(np.stack([e[key] for e in experts])) for key in shapes}
        # The moving average as a read-only [K, L, L] stack, one matrix per expert.
        L = config.lookback
        self._trend_stack = (np.broadcast_to(moving_average_matrix(L, config.decomp_kernel),
                                             (n_experts, L, L))
                             if config.kind == "decomp-linear" else None)


def layers(backbone: Backbone) -> list[tuple[Tensor, Tensor]]:
    """The backbone as stacked (weight [K, n, p], bias [K, p]) layers, with
    GELU between consecutive layers. A decomposition is one layer of folded
    weights, seasonal_w + A @ (trend_w - seasonal_w) and trend_b + seasonal_b,
    taped, so gradients reach all four parameters."""
    p = backbone.params
    if backbone.config.kind == "linear":
        return [(p["w"], p["b"])]
    if backbone.config.kind == "mlp":
        return [(p["w1"], p["b1"]), (p["w2"], p["b2"])]
    seasonal_w = p["seasonal_w"]
    weight = seasonal_w + nc.matmul(backbone._trend_stack, p["trend_w"] - seasonal_w)
    return [(weight, p["trend_b"] + p["seasonal_b"])]


def forecast_rows(backbone: Backbone, x: Tensor,
                  stack: list[tuple[Tensor, Tensor]] | None = None) -> Tensor:
    """Forecast a stack of independent channel rows with every expert,
    [rows, L] -> [K, rows, H]. Each of the backbone's `layers`, or of
    `stack` when given (the same layers, derived earlier), is one stacked
    `linear` over a read-only broadcast of the shared rows, which must be a
    constant, each but the last with its GELU fused in (`linear_gelu`)."""
    x = x if isinstance(x, Tensor) else nc.constant(x)
    cfg = backbone.config
    if x.ndim != 2 or x.shape[1] != cfg.lookback:
        raise ShapeError(f"expected rows of length {cfg.lookback}, got shape {x.shape}")
    if x.requires_grad:
        raise ContractError("backbone inputs are constants; no gradient flows into them")
    out = nc.constant(np.broadcast_to(x.data, (backbone.n_experts,) + x.shape))
    *hidden, (weight, bias) = layers(backbone) if stack is None else stack
    for w, b in hidden:
        out = nc.linear_gelu(out, w, b)
    return nc.linear(out, weight, bias)


def forecast_batch(backbone: Backbone, x: Tensor,
                   stack: list[tuple[Tensor, Tensor]] | None = None) -> Tensor:
    """Forecast a batch of multivariate windows with every expert,
    [B, C, L] -> [K, B, C, H]; `stack` as for `forecast_rows`."""
    x = x if isinstance(x, Tensor) else nc.constant(x)
    if x.ndim != 3:
        raise ShapeError(f"expected a [batch, channels, lookback] tensor, got shape {x.shape}")
    b, c, lookback = x.shape
    out = forecast_rows(backbone, nc.reshape(x, (b * c, lookback)), stack)
    return nc.reshape(out, (backbone.n_experts, b, c, backbone.config.horizon))
