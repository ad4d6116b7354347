"""Forecaster-aware gating.

Routing weights come from cross-attention between channel embeddings
(queries, one per channel of each series in the batch) and expert signature
embeddings (keys/values, one per expert). A post-norm transformer block
mixes the two, and a final linear head plus softmax yields one simplex over
experts per channel. Signatures enter as constants, so the gate adapts to
them without pushing gradients into the signature registry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .decode import require_integers
from .errors import ConfigError, ContractError, ShapeError
from .numcore import Tensor

INIT_STD = 0.02


@dataclass(frozen=True)
class GateConfig:
    embed_dim: int = 64
    heads: int = 4
    dropout: float = 0.1

    def __post_init__(self):
        if not (self.embed_dim >= 1 and self.heads >= 1):
            raise ConfigError(f"embed_dim and heads must be positive, got {self.embed_dim}, {self.heads}")
        require_integers(embed_dim=self.embed_dim, heads=self.heads)
        if self.embed_dim % self.heads != 0:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")


def param_shapes(lookback: int, horizon: int, n_experts: int,
                 config: GateConfig) -> dict[str, tuple[int, ...]]:
    """The gate's parameter shapes by key, in draw order. Matrices start as
    N(0, INIT_STD^2) draws, layer-norm gains at one and the other vectors
    at zero."""
    d = config.embed_dim
    ffn = 4 * d
    return {"w_in": (lookback, d),
            "sig_w1": (lookback * horizon, ffn), "sig_b1": (ffn,),
            "sig_w2": (ffn, d), "sig_b2": (d,),
            "attn_wq": (d, d), "attn_wk": (d, d), "attn_wv": (d, d), "attn_wo": (d, d),
            "ffn_w1": (d, ffn), "ffn_b1": (ffn,), "ffn_w2": (ffn, d), "ffn_b2": (d,),
            "ln1_gain": (d,), "ln1_bias": (d,), "ln2_gain": (d,), "ln2_bias": (d,),
            "w_out": (d, n_experts)}


class GateParams:
    """All trainable gate tensors for a fixed (lookback, horizon, K), drawn
    from `rng` as `param_shapes` says; with no `rng` every tensor starts at
    zero, for a caller that fills it."""

    def __init__(self, lookback: int, horizon: int, n_experts: int,
                 config: GateConfig, rng: np.random.Generator | None):
        if n_experts < 1:
            raise ConfigError(f"gate needs at least one expert, got {n_experts}")
        self.config = config
        self.lookback = lookback
        self.horizon = horizon
        self.n_experts = n_experts
        self.params: dict[str, Tensor] = {
            key: Tensor(np.zeros(shape) if rng is None
                        else rng.normal(0.0, INIT_STD, size=shape) if len(shape) == 2
                        else np.ones(shape) if key.endswith("_gain") else np.zeros(shape),
                        requires_grad=True)
            for key, shape in param_shapes(lookback, horizon, n_experts, config).items()}


def embed_forecasters(signatures: np.ndarray, gate: GateParams) -> Tensor:
    """Embed expert signatures with a two-layer GELU MLP, [K, L, H] -> [K, d].

    Signatures are read as constants: the MLP weights train, the registry
    does not."""
    sig = np.asarray(signatures, dtype=np.float64)
    if sig.ndim != 3 or sig.shape[1:] != (gate.lookback, gate.horizon):
        raise ShapeError(
            f"expected signatures [K, {gate.lookback}, {gate.horizon}], got shape {sig.shape}"
        )
    if sig.shape[0] != gate.n_experts:
        raise ContractError(f"gate built for {gate.n_experts} experts, got {sig.shape[0]} signatures")
    p = gate.params
    flat = nc.constant(sig.reshape(sig.shape[0], -1))
    hidden = nc.linear_gelu(flat, p["sig_w1"], p["sig_b1"])
    return nc.linear(hidden, p["sig_w2"], p["sig_b2"])


def _heads(x: Tensor, heads: int) -> Tensor:
    """[R, d] -> [heads, R, d / heads], each head a view with a column slice's strides."""
    return nc.transpose(nc.reshape(x, (x.shape[0], heads, x.shape[1] // heads)), axes=(1, 0, 2))


def attention_mix(queries: Tensor, keys: Tensor, gate: GateParams) -> Tensor:
    """Multi-head cross-attention context, [R, d] x [K, d] -> [R, d], with
    all heads attending as one stack."""
    p = gate.params
    heads = gate.config.heads
    scale = 1.0 / np.sqrt(gate.config.embed_dim // heads)
    q = _heads(nc.matmul(queries, p["attn_wq"]), heads)
    k = _heads(nc.matmul(keys, p["attn_wk"]), heads)
    v = _heads(nc.matmul(keys, p["attn_wv"]), heads)
    scores = nc.multiply(nc.matmul(q, nc.transpose(k, axes=(0, 2, 1))), scale)
    mixed = nc.transpose(nc.matmul(nc.softmax(scores), v), axes=(1, 0, 2))
    return nc.matmul(nc.reshape(mixed, queries.shape), p["attn_wo"])


def cross_attend(rows: Tensor, h_f: Tensor, gate: GateParams,
                 training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Post-norm transformer block over channel queries and expert keys.

    [R, d] x [K, d] -> [R, d], one row per channel of each series. Dropout
    is applied to each sublayer output before its residual add, and only
    while training. The rows and the attention context are dropped after
    the first layer norm, so with nothing recording they are freed before
    the FFN when the caller keeps no name for the rows, as `route` does."""
    p = gate.params
    rate = gate.config.dropout
    ctx = nc.dropout(attention_mix(rows, h_f, gate), rate, training, rng)
    attended = nc.layer_norm(rows + ctx, p["ln1_gain"], p["ln1_bias"])
    del rows, ctx
    ff = nc.linear(nc.linear_gelu(attended, p["ffn_w1"], p["ffn_b1"]), p["ffn_w2"], p["ffn_b2"])
    ff = nc.dropout(ff, rate, training, rng)
    return nc.layer_norm(attended + ff, p["ln2_gain"], p["ln2_bias"])


def route(x: Tensor, signatures: np.ndarray, gate: GateParams,
          training: bool = False, rng: np.random.Generator | None = None,
          embedded: Tensor | None = None) -> Tensor:
    """Routing weights over experts, [B, C, L] -> [B, C, K] rows on the simplex.

    Each channel's lookback window is projected to one query row. `embedded`,
    when given, must be `embed_forecasters(signatures, gate)` computed
    earlier on the same weights; it is used in place of a fresh embedding."""
    x = x if isinstance(x, Tensor) else nc.constant(x)
    if x.ndim != 3 or x.shape[2] != gate.lookback:
        raise ShapeError(f"expected [batch, channels, {gate.lookback}], got shape {x.shape}")
    b, c, L = x.shape
    h_f = embed_forecasters(signatures, gate) if embedded is None else embedded
    h = cross_attend(nc.matmul(nc.reshape(x, (b * c, L)), gate.params["w_in"]), h_f, gate,
                     training, rng)
    logits = nc.matmul(h, gate.params["w_out"])
    return nc.reshape(nc.softmax(logits), (b, c, gate.n_experts))
