"""End-to-end model assembly, training, and evaluation.

A forecast pass stationarizes each window per channel, routes it across the
expert backbones, mixes their forecasts with the routing weights, and
de-stationarizes the mixture. A training step follows with the linear
weight approximation of every expert, the signature contrast term, one Adam
update, and finally the registry EMA update. Losses and metrics live on the
dataset-standardized scale; stationarization is internal to the model.

Seeding: every run owns two independent generator streams derived from its
seed, one consumed by parameter initialisation and one by training-time
shuffling and dropout, so model variants with the same seed stay aligned.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import backbones, gating
from . import numcore as nc
from .backbones import Backbone, BackboneConfig, forecast_batch, layers
from .datakit import WindowedData
from .decode import require_integers, to_json
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .gating import GateConfig, GateParams, route
from .lwa import EmaRegistry, LwaConfig, approximate, effective_top_k, select_top_k, signature_error
from .numcore import AdamState, Tensor, adam_step, backward, recording
from .objectives import LossConfig, mse_loss, similarity_constraint, total_loss


PREDICT_ROWS = 2048  # (window, channel) rows in one chunk of an eval stack


def init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 0]))


def train_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1]))


@dataclass(frozen=True)
class Stationarizer:
    """Per-instance, per-channel normalization over the lookback window."""

    eps_norm: float = 1e-5

    def normalize(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """[B, C, L] -> normalized array plus mu, sigma buffers of [B, C, 1].

        Reduces over a C-contiguous copy of `x`: the mean and std of a
        strided window view differ from those of its copy in the last bits."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ShapeError(f"expected [batch, channels, lookback], got shape {x.shape}")
        x = np.ascontiguousarray(x)
        mu = x.mean(axis=2, keepdims=True)
        sigma = x.std(axis=2, keepdims=True)  # population
        xn = x - mu
        xn /= sigma + self.eps_norm
        return xn, mu, sigma

    def denormalize(self, y: Tensor, mu: np.ndarray, sigma: np.ndarray) -> Tensor:
        """Exact inverse of normalize on the horizon side, gradient-transparent."""
        y = y if isinstance(y, Tensor) else nc.constant(y)
        return y * nc.constant(sigma + self.eps_norm) + nc.constant(mu)


@dataclass(frozen=True)
class ModelConfig:
    n_experts: int
    backbone: BackboneConfig
    gate: GateConfig = GateConfig()
    lwa: LwaConfig = LwaConfig()
    loss: LossConfig = LossConfig()
    eps_norm: float = Stationarizer.eps_norm

    def __post_init__(self):
        if not self.n_experts >= 1:
            raise ConfigError(f"n_experts must be positive, got {self.n_experts}")
        require_integers(n_experts=self.n_experts)
        if not self.eps_norm > 0:
            raise ConfigError(f"eps_norm must be positive, got {self.eps_norm}")


@dataclass(frozen=True)
class TrainConfig:
    """`patience` is the number of epochs in a row without a new best
    validation MSE after which `fit` stops; 0 stops after the first epoch."""

    epochs: int = 15
    batch_size: int = 32
    lr: float = 1e-3
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        if not (self.epochs >= 1 and self.batch_size >= 1):
            raise ConfigError(f"epochs and batch_size must be positive, got {self.epochs}, {self.batch_size}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not self.patience >= 0:
            raise ConfigError(f"patience must be non-negative, got {self.patience}")
        require_integers(epochs=self.epochs, batch_size=self.batch_size, patience=self.patience)


class DisenTSModel:
    """Expert backbones, a routing gate, and the signature registry.

    With one expert there is nothing to route or tell apart: the model builds
    no gate, and training skips the signatures, the contrast term and the
    registry. That single stationarization-wrapped backbone shared by all
    channels is the unified baseline disentangled routing has to beat.

    The arrays start as draws from `init_rng(seed)`, or, with `draw` False,
    at zero with no draws, for a caller that fills every one in place before
    the model is first used, as `checkpoint.load_model` does."""

    def __init__(self, config: ModelConfig, seed: int = 0, draw: bool = True):
        rng = init_rng(seed) if draw else None
        self.config = config
        self.seed = seed
        bb = config.backbone
        self.backbone = Backbone(bb, config.n_experts, rng)
        self.gate = (GateParams(bb.lookback, bb.horizon, config.n_experts, config.gate, rng)
                     if config.n_experts > 1 else None)
        self.registry = EmaRegistry(config.n_experts, bb.lookback, bb.horizon,
                                    config.lwa.alpha, rng)
        self.stationarizer = Stationarizer(config.eps_norm)
        self.step_count = 0
        # Bumped by every write to the parameters; keys the eval cache.
        self._version = 0
        self._eval: tuple[int, np.ndarray, Tensor | None, list] | None = None

    @property
    def n_experts(self) -> int:
        return self.config.n_experts

    def _scopes(self) -> dict[str, dict[str, Tensor]]:
        scopes = {"experts": self.backbone.params}
        if self.gate is not None:
            scopes["gate"] = self.gate.params
        return scopes

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"{scope}.{key}", t) for scope, params in self._scopes().items()
                for key, t in params.items()]

    def set_parameter(self, name: str, tensor: Tensor) -> None:
        scope, _, key = name.partition(".")
        params = self._scopes().get(scope, {})
        if key not in params:
            raise ContractError(f"unknown parameter {name!r}")
        self._version += 1
        params[key] = tensor

    def arrays(self) -> dict[str, np.ndarray]:
        """Every array the model holds, by name: the live parameter stacks
        under their `named_parameters()` names, then the registry's
        `[K, L, H]` signatures as `registry.gamma`; `array_shapes` lists
        their names and shapes from a config alone. The values are for
        reading: write through `load_arrays`. Evaluation reuses one signature
        embedding and one set of backbone `layers` (`_eval_cache`) until
        `train_step`, `set_parameter` or `load_arrays` bumps the state
        version or the registry's values change: a hand write into a gate or
        an expert parameter leaves them stale."""
        out = {name: t.data for name, t in self.named_parameters()}
        out["registry.gamma"] = self.registry.gamma
        return out

    def load_arrays(self, saved: dict[str, np.ndarray]) -> None:
        """Copy `saved[name]` into every array of `arrays()`, in place."""
        targets = self.arrays()
        if set(saved) != set(targets):
            raise ContractError(f"load_arrays needs exactly the names of arrays(); "
                                f"got {sorted(set(saved) ^ set(targets))} in one but not both")
        for name, target in targets.items():
            if np.shape(saved[name]) != target.shape:
                raise ShapeError(f"{name} has shape {target.shape}, got {np.shape(saved[name])}")
        self._version += 1
        for name, target in targets.items():
            target[...] = saved[name]

    def _eval_cache(self) -> tuple[Tensor | None, list[tuple[Tensor, Tensor]]]:
        """What evaluation derives from the weights: `gating.embed_forecasters`
        of the registry (None without a gate) and the backbone's `layers`,
        with a decomposition's weights folded. Both are reused while neither
        the state version nor the registry's values change. One tuple holds
        the cache, so concurrent evaluation threads at worst compute it twice."""
        version, gamma = self._version, self.registry.gamma
        cached = self._eval
        if cached is not None and cached[0] == version and np.array_equal(cached[1], gamma):
            return cached[2], cached[3]
        gamma = gamma.copy()
        embedded = None if self.gate is None else gating.embed_forecasters(gamma, self.gate)
        stack = layers(self.backbone)
        for t in [embedded, *(tensor for layer in stack for tensor in layer)]:
            if t is not None and not t.requires_grad:  # derived here, not a live parameter
                t.data.setflags(write=False)
        self._eval = (version, gamma, embedded, stack)
        return embedded, stack

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Evaluation-mode forecasts, [B, C, L] -> [B, C, H].

        Forecasts the `_chunks` of the batch over numcore's shared pool; a
        batch of one chunk runs inline. The result equals one `forward` over
        the whole batch to rounding: OpenBLAS gives the gate's small `w_out`
        head other last bits for fewer rows."""
        x = np.asarray(x, dtype=np.float64)
        return np.concatenate(nc.pool_map(
            lambda s: forward(self, x[s], training=False).y_hat.data, _chunks(x)))


def array_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every array of `DisenTSModel(config).arrays()`,
    in order, worked out without building the model."""
    n, bb = config.n_experts, config.backbone
    shapes = {f"experts.{key}": (n, *shape) for key, shape in backbones.param_shapes(bb).items()}
    if n > 1:
        shapes.update((f"gate.{key}", shape) for key, shape in
                      gating.param_shapes(bb.lookback, bb.horizon, n, config.gate).items())
    shapes["registry.gamma"] = (n, bb.lookback, bb.horizon)
    return shapes


def _chunks(x: np.ndarray) -> list[slice]:
    """The one cut of every eval stack: a [B, C, L] stack in runs of
    `max(1, PREDICT_ROWS // C)` windows, one empty run for no windows. Each
    (window, channel) row is routed and forecast on its own, and the cut
    depends only on C, so no result depends on the thread count."""
    if x.ndim != 3:
        raise ShapeError(f"expected [batch, channels, lookback], got shape {x.shape}")
    step = max(1, PREDICT_ROWS // max(x.shape[1], 1))
    return [slice(i, i + step) for i in range(0, max(x.shape[0], 1), step)]


@dataclass
class ForwardResult:
    y_hat: Tensor  # [B, C, H] on the input scale
    y_hat_norm: Tensor  # [B, C, H] on the stationarized scale
    beta: Tensor  # [B, C, K]
    outputs: Tensor  # [K, B, C, H], every expert's forecasts, stationarized scale
    x_norm: Tensor  # [B, C, L], stationarized input
    mu: np.ndarray
    sigma: np.ndarray

    @property
    def expert_outputs(self) -> list[Tensor]:
        """The K [B, C, H] slices of `outputs`, as constants over read-only views."""
        return [nc.constant(np.broadcast_to(out, out.shape)) for out in self.outputs.data]


def forward(model: DisenTSModel, x: np.ndarray, training: bool = False,
            rng: np.random.Generator | None = None) -> ForwardResult:
    """One full forecast pass; expert outputs stay on the stationarized scale.

    In evaluation mode with no tape recording, the gate and the experts read
    the model's `_eval_cache`; otherwise the signatures are embedded and the
    backbone's layers derived afresh, so gradients reach every parameter."""
    xn, mu, sigma = model.stationarizer.normalize(x)
    x_norm = nc.constant(xn)
    fresh = training or nc._active_record() is not None
    embedded, stack = (None, None) if fresh else model._eval_cache()
    if model.gate is None:
        beta = nc.constant(np.ones(xn.shape[:2] + (1,)))
    else:
        beta = route(x_norm, model.registry.gamma, model.gate, training, rng, embedded)
    outputs = forecast_batch(model.backbone, x_norm, stack)  # [K, B, C, H]
    mixed = nc.mix(beta, outputs)
    y_hat = model.stationarizer.denormalize(mixed, mu, sigma)
    return ForwardResult(y_hat=y_hat, y_hat_norm=mixed, beta=beta,
                         outputs=outputs, x_norm=x_norm, mu=mu, sigma=sigma)


@dataclass
class StepReport:
    l_fc: float
    l_sc: float
    total: float
    epsilons: list[float]  # per-expert signature fit on the whole batch


def _require_finite(**quantities: float) -> None:
    for name, value in quantities.items():
        if not np.isfinite(value):
            raise NumericError(f"{name} is non-finite; aborting the run")


def expert_signatures(model: DisenTSModel, fwd: ForwardResult) -> Tensor:
    """Every expert's least-squares signature over its top-k routed rows of
    the batch, as one [K, L, H] stack."""
    batch, channels, n_experts = fwd.beta.shape
    lwa = model.config.lwa
    k = effective_top_k(lwa, batch * channels, model.config.backbone.lookback)
    x_hat, f_hat = select_top_k(fwd.beta, fwd.x_norm, fwd.outputs, np.arange(n_experts), k)
    return approximate(x_hat, f_hat, lwa.rcond)


def signature_errors(fwd: ForwardResult, signatures: Tensor) -> list[float]:
    """How well each signature mirrors its expert on every row of the batch."""
    rows = fwd.x_norm.data.reshape(-1, fwd.x_norm.shape[2])
    outputs = fwd.outputs.data.reshape(fwd.outputs.shape[0], rows.shape[0], -1)
    return [float(e) for e in signature_error(rows, outputs, signatures.data)]


def train_step(model: DisenTSModel, x: np.ndarray, y: np.ndarray,
               opt: AdamState, rng: np.random.Generator) -> StepReport:
    """Forward, losses, backward, Adam, then the registry EMA update."""
    y = np.asarray(y, dtype=np.float64)
    with recording():
        fwd = forward(model, x, training=True, rng=rng)
        if fwd.y_hat.shape != y.shape:
            raise ShapeError(f"forecast shape {fwd.y_hat.shape} does not match targets {y.shape}")
        l_fc = mse_loss(fwd.y_hat, nc.constant(y))
        if model.n_experts > 1:
            signatures = expert_signatures(model, fwd)
            l_sc = similarity_constraint(signatures, model.registry.gamma, model.config.loss)
            total = total_loss(l_fc, l_sc, model.config.loss.sc_weight)
        else:
            signatures, l_sc, total = None, nc.constant(0.0), l_fc
        _require_finite(l_fc=l_fc.item(), l_sc=l_sc.item(), total=total.item())
        backward(total)
    params = [t for _, t in model.named_parameters()]
    model._version += 1
    adam_step(params, [p.adjoint for p in params], opt)
    epsilons = []
    if signatures is not None:
        epsilons = signature_errors(fwd, signatures)
        model.registry.update(signatures.data)  # EMA last, after the optimizer step
    model.step_count += 1
    return StepReport(l_fc=l_fc.item(), l_sc=l_sc.item(), total=total.item(), epsilons=epsilons)


@dataclass
class Metrics:
    mse: float
    mae: float
    per_channel_mse: list[float]


def evaluate(model, x: np.ndarray, y: np.ndarray) -> Metrics:
    """Forecast metrics of any `.predict` model over a windowed split.

    The `_chunks` of the split run over DISENTS_THREADS threads of numcore's
    shared pool, and their error sums are reduced in chunk order, so results
    do not depend on the thread count. A non-finite MSE or MAE is a
    NumericError."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 3 or y.ndim != 3 or x.shape[0] != y.shape[0] or x.shape[1] != y.shape[1]:
        raise ShapeError(f"window stacks disagree: inputs {x.shape}, targets {y.shape}")
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise ConfigError(f"evaluate needs at least one window and one channel, got {x.shape}")

    def errors(s: slice):
        forecast = model.predict(x[s])
        if forecast.shape != y[s].shape:  # a target horizon of 1 would broadcast
            raise ShapeError(f"forecast shape {forecast.shape} does not match targets {y[s].shape}")
        diff = forecast - y[s]
        return (diff * diff).sum(axis=(0, 2)), np.abs(diff).sum()

    sq_by_channel, abs_total = np.zeros(x.shape[1]), 0.0
    for sq, ab in nc.pool_map(errors, _chunks(x)):
        sq_by_channel += sq
        abs_total += ab
    per_channel = sq_by_channel / (y.shape[0] * y.shape[2])
    mse, mae = float(sq_by_channel.sum() / y.size), float(abs_total / y.size)
    _require_finite(mse=mse, mae=mae)
    return Metrics(mse=mse, mae=mae, per_channel_mse=[float(v) for v in per_channel])


@dataclass
class EpochRecord:
    epoch: int
    train_lfc: float
    train_lsc: float
    val_mse: float
    epsilons: list[float]
    elapsed_s: float


@dataclass
class FitResult:
    history: list[EpochRecord] = field(default_factory=list)
    best_val_mse: float = float("inf")


def fit(model: DisenTSModel, data: WindowedData, config: TrainConfig,
        log_path: str | Path | None = None) -> FitResult:
    """Train with per-epoch shuffling and early stopping on validation MSE.

    The best-validation state (every array, the registry flags and the step
    count) is restored before returning. StepReport epsilons are averaged
    per epoch."""
    n = data.train_x.shape[0]
    if n < 1:
        raise ConfigError("training needs at least one window")
    rng = train_rng(config.seed)
    params = [t for _, t in model.named_parameters()]
    opt = AdamState.for_params(params, lr=config.lr)
    if log_path is not None:
        log_path = Path(log_path)
        log_path.parent.mkdir(parents=True, exist_ok=True)
        log_path.write_text("")
    result = FitResult()
    best_state = None
    bad_epochs = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        sums = None
        seen = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            report = train_step(model, data.train_x[idx], data.train_y[idx], opt, rng)
            vals = np.array([report.l_fc, report.l_sc, *report.epsilons]) * len(idx)
            sums = vals if sums is None else sums + vals
            seen += len(idx)
        avg = sums / seen
        val_mse = evaluate(model, data.val_x, data.val_y).mse
        record = EpochRecord(
            epoch=epoch, train_lfc=float(avg[0]), train_lsc=float(avg[1]),
            val_mse=val_mse, epsilons=[float(v) for v in avg[2:]],
            elapsed_s=time.perf_counter() - t0,
        )
        result.history.append(record)
        if log_path is not None:
            line = to_json(asdict(record)) + "\n"
            with open(log_path, "a") as fh:
                fh.write(line)
        if val_mse < result.best_val_mse:
            result.best_val_mse = val_mse
            best_state = ({name: a.copy() for name, a in model.arrays().items()},
                          list(model.registry.initialized), model.step_count)
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs >= config.patience:
            break
    if best_state is not None:
        saved, model.registry.initialized, model.step_count = best_state
        model.load_arrays(saved)
    return result


def mean_routing(model: DisenTSModel, x: np.ndarray) -> np.ndarray:
    """Average evaluation-mode routing weights over windows, [C, K]. The
    `_chunks` of the stack run over numcore's shared pool, and their sums
    are reduced in chunk order; a non-finite sum is a NumericError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] == 0:
        raise ShapeError(f"expected a non-empty window stack, got shape {x.shape}")
    totals = np.zeros((x.shape[1], model.n_experts))
    for part in nc.pool_map(lambda s: forward(model, x[s], training=False).beta.data.sum(axis=0),
                            _chunks(x)):
        totals += part
    _require_finite(routing_sum=float(totals.sum()))
    return totals / x.shape[0]


def unified_baseline(data: WindowedData, backbone: BackboneConfig, config: TrainConfig,
                     eps_norm: float = Stationarizer.eps_norm) -> tuple[Metrics, DisenTSModel]:
    """Train the single-backbone baseline and report its test metrics.

    The baseline is the one-expert model: a `DisenTSModel` with no gate,
    signatures or contrast term. Returns the test metrics and that model."""
    model = DisenTSModel(ModelConfig(n_experts=1, backbone=backbone, eps_norm=eps_norm),
                         seed=config.seed)
    fit(model, data, config)
    return evaluate(model, data.test_x, data.test_y), model
