"""Command-line interface.

Subcommands: synth, train, eval, baseline, inspect. Every run is driven by
a flat RunConfig; values come from built-in defaults, then an optional JSON
config file, then explicit command-line flags, in that order. Unknown
config keys are rejected and all ranges are validated before any data is
touched.

Exit codes: 0 success, 2 configuration or validation failure (a file that
cannot be read or written included), 3 numeric failure during an otherwise
valid run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .backbones import KINDS, BackboneConfig
from .checkpoint import load_model, save_model
from .datakit import (GroupSpec, SeriesDataset, WindowedData, WindowSpec, default_two_group,
                      labels_sidecar_path, load_csv, load_labels, make_windows, routing_purity,
                      save_csv, split_standardize, synth_generate)
from .decode import decode
from .errors import ConfigError, NumericError, ParseError
from .gating import GateConfig
from .lwa import LwaConfig
from .numcore import thread_count
from .objectives import LossConfig
from .pipeline import (DisenTSModel, Metrics, ModelConfig, Stationarizer, TrainConfig,
                       evaluate, expert_signatures, fit, forward, mean_routing,
                       signature_errors, unified_baseline)


# Each synthetic group list of RunConfig and the GroupSpec field its entries
# fill, one entry per group; a null list takes datakit.default_two_group()'s.
_GROUP_LISTS = {"synth_periods": "period", "synth_amplitudes": "amplitude",
                "synth_trends": "trend", "synth_signs": "sign", "synth_harmonics": "harmonics"}


@dataclass
class RunConfig:
    dataset: str | None = None
    checkpoint: str | None = None
    labels: str | None = None
    out_dir: str = "disents_out"
    seed: int = 0
    k_experts: int = 2
    lookback: int = 48
    horizon: int = 24
    stride: int = WindowSpec.stride
    train_frac: float = WindowSpec.fractions[0]
    val_frac: float = WindowSpec.fractions[1]
    test_frac: float = WindowSpec.fractions[2]
    backbone: str = "linear"
    hidden: int = BackboneConfig.hidden
    decomp_kernel: int = BackboneConfig.decomp_kernel
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    patience: int = TrainConfig.patience
    sc_weight: float = LossConfig.sc_weight
    tau: float = LossConfig.tau
    raw_similarity: bool = not LossConfig.normalize_sims
    alpha: float = LwaConfig.alpha
    top_k: int | None = LwaConfig.top_k
    gate_dim: int = GateConfig.embed_dim
    gate_heads: int = GateConfig.heads
    gate_dropout: float = GateConfig.dropout
    eps_norm: float = Stationarizer.eps_norm
    synth_length: int = 4000
    synth_channels_per_group: int = 4
    synth_noise: float = 0.1
    synth_phase_jitter: float = 0.5
    synth_periods: list[float] | None = None
    synth_amplitudes: list[float] | None = None
    synth_trends: list[float] | None = None
    synth_signs: list[float] | None = None
    synth_harmonics: list[int] | None = None

    def __post_init__(self):
        groups = default_two_group()
        for key, attr in _GROUP_LISTS.items():
            if getattr(self, key) is None:
                setattr(self, key, [getattr(group, attr) for group in groups])


def load_run_config(config_path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then the JSON file, then explicit flags. Unknown keys fail."""
    merged = asdict(RunConfig())
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file {path} does not exist")
        try:
            raw = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ParseError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        merged.update(raw)
    merged.update(overrides)
    config = decode(RunConfig, merged, "config key ")
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    # Range checks beyond what the component configs enforce themselves.
    if config.k_experts < 1:
        raise ConfigError(f"k_experts must be positive, got {config.k_experts}")
    if config.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {config.seed}")
    sizes = {key: len(getattr(config, key)) for key in _GROUP_LISTS}
    if len(set(sizes.values())) != 1:
        raise ConfigError(f"synthetic group lists disagree in length: {sizes}")
    # Constructing the component configs validates their own ranges early.
    _window_spec(config, config.lookback, config.horizon)
    _model_config(config)
    _train_config(config)
    thread_count()  # DISENTS_THREADS, read now so a bad value fails before any data


def _window_spec(config: RunConfig, lookback: int, horizon: int) -> WindowSpec:
    return WindowSpec(
        lookback=lookback,
        horizon=horizon,
        stride=config.stride,
        fractions=(config.train_frac, config.val_frac, config.test_frac),
    )


def _windows(config: RunConfig, lookback: int, horizon: int) -> tuple[SeriesDataset, WindowedData]:
    """The dataset and its standardized splits, cut into windows of the given size.

    Training takes the size from the config; a checkpoint's commands take it
    from the checkpoint."""
    spec = _window_spec(config, lookback, horizon)
    dataset = _load_dataset(config)
    return dataset, make_windows(split_standardize(dataset, spec), spec)


def _backbone_config(config: RunConfig) -> BackboneConfig:
    return BackboneConfig(
        kind=config.backbone,
        lookback=config.lookback,
        horizon=config.horizon,
        hidden=config.hidden,
        decomp_kernel=config.decomp_kernel,
    )


def _model_config(config: RunConfig) -> ModelConfig:
    return ModelConfig(
        n_experts=config.k_experts,
        backbone=_backbone_config(config),
        gate=GateConfig(embed_dim=config.gate_dim, heads=config.gate_heads,
                        dropout=config.gate_dropout),
        lwa=LwaConfig(top_k=config.top_k, alpha=config.alpha),
        loss=LossConfig(sc_weight=config.sc_weight, tau=config.tau,
                        normalize_sims=not config.raw_similarity),
        eps_norm=config.eps_norm,
    )


def _train_config(config: RunConfig) -> TrainConfig:
    return TrainConfig(epochs=config.epochs, batch_size=config.batch_size, lr=config.lr,
                       patience=config.patience, seed=config.seed)


def _groups(config: RunConfig) -> list[GroupSpec]:
    columns = zip(*(getattr(config, key) for key in _GROUP_LISTS))
    return [GroupSpec(**dict(zip(_GROUP_LISTS.values(), values)),
                      phase_jitter=config.synth_phase_jitter) for values in columns]


def _load_dataset(config: RunConfig) -> SeriesDataset:
    if config.dataset is None:
        raise ConfigError("this command needs --dataset (or a 'dataset' config key)")
    path = Path(config.dataset)
    if not path.is_file():
        raise ConfigError(f"dataset file {path} does not exist")
    return load_csv(path)


def _output_dir(config: RunConfig) -> Path:
    """The --out directory, made if missing. One that cannot be made, like a
    file in it that cannot be written, exits 2 through `main`."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_metrics(out_dir: Path, metrics: Metrics, runtime_s: float) -> Path:
    path = out_dir / "metrics.json"
    with open(path, "w") as fh:
        json.dump({**asdict(metrics), "runtime_s": runtime_s}, fh, indent=2)
    return path


def cmd_synth(config: RunConfig) -> int:
    dataset = synth_generate(_groups(config), length=config.synth_length,
                             channels_per_group=config.synth_channels_per_group,
                             noise=config.synth_noise, seed=config.seed)
    out = save_csv(dataset, _output_dir(config) / "synthetic.csv")
    print(f"wrote {out} and {labels_sidecar_path(out)}")
    return 0


def cmd_train(config: RunConfig) -> int:
    _, windows = _windows(config, config.lookback, config.horizon)
    model = DisenTSModel(_model_config(config), seed=config.seed)
    out_dir = _output_dir(config)
    t0 = time.perf_counter()
    fit(model, windows, _train_config(config), log_path=out_dir / "train_log.jsonl")
    metrics = evaluate(model, windows.test_x, windows.test_y)
    runtime = time.perf_counter() - t0
    metrics_path = _write_metrics(out_dir, metrics, runtime)
    save_model(model, out_dir / "checkpoint")
    print(f"test mse {metrics.mse:.6f} mae {metrics.mae:.6f}; wrote {metrics_path}")
    return 0


def cmd_eval(config: RunConfig) -> int:
    if config.checkpoint is None:
        raise ConfigError("eval needs --checkpoint")
    model = load_model(config.checkpoint)
    bb = model.config.backbone
    _, windows = _windows(config, bb.lookback, bb.horizon)
    t0 = time.perf_counter()
    metrics = evaluate(model, windows.test_x, windows.test_y)
    metrics_path = _write_metrics(_output_dir(config), metrics, time.perf_counter() - t0)
    print(f"test mse {metrics.mse:.6f} mae {metrics.mae:.6f}; wrote {metrics_path}")
    return 0


def cmd_baseline(config: RunConfig) -> int:
    _, windows = _windows(config, config.lookback, config.horizon)
    t0 = time.perf_counter()
    metrics, _ = unified_baseline(windows, _backbone_config(config), _train_config(config),
                                  eps_norm=config.eps_norm)
    metrics_path = _write_metrics(_output_dir(config), metrics, time.perf_counter() - t0)
    print(f"baseline test mse {metrics.mse:.6f} mae {metrics.mae:.6f}; wrote {metrics_path}")
    return 0


def cmd_inspect(config: RunConfig, target: str) -> int:
    if config.checkpoint is None:
        raise ConfigError("inspect needs --checkpoint")
    model = load_model(config.checkpoint)
    if target == "lwa" and model.n_experts == 1:
        raise ConfigError("a one-expert model keeps no signatures; inspect lwa needs a "
                          "checkpoint with k_experts >= 2")
    bb = model.config.backbone
    dataset, windows = _windows(config, bb.lookback, bb.horizon)
    out_dir = _output_dir(config)
    if target == "lwa":
        batch = windows.test_x[:config.batch_size]
        fwd = forward(model, batch, training=False)
        epsilons = signature_errors(fwd, expert_signatures(model, fwd))
        entries = []
        for m, eps in enumerate(epsilons):
            matrix_path = out_dir / f"lwa_expert{m}.csv"
            np.savetxt(matrix_path, model.registry.gamma[m], delimiter=",")
            entries.append({"expert": m, "epsilon": eps, "iterations": model.step_count,
                            "file": matrix_path.name})
        with open(out_dir / "lwa_manifest.json", "w") as fh:
            json.dump(entries, fh, indent=2)
        print(f"wrote {model.n_experts} signature matrices to {out_dir}")
        return 0
    if target == "routing":
        labels_path = (labels_sidecar_path(config.dataset) if config.labels is None
                       else Path(config.labels))
        if config.labels is not None and not labels_path.is_file():
            raise ConfigError(f"labels file {labels_path} does not exist")
        beta = mean_routing(model, windows.test_x)
        np.savetxt(out_dir / "routing.csv", beta, delimiter=",")
        summary: dict = {"channels": dataset.channel_names,
                         "argmax": [int(v) for v in beta.argmax(axis=1)]}
        if labels_path.is_file():
            by_name = load_labels(labels_path)
            missing = [n for n in dataset.channel_names if n not in by_name]
            if missing:
                raise ConfigError(f"labels file lacks channels: {', '.join(missing)}")
            labels = [by_name[n] for n in dataset.channel_names]
            summary["purity"] = routing_purity(beta, labels)
            print(f"routing purity {summary['purity']:.4f}")
        else:
            summary["note"] = f"no labels sidecar at {labels_path}, purity omitted"
            print(summary["note"])
        with open(out_dir / "routing_summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
        return 0
    raise ConfigError(f"unknown inspect target {target!r}, expected 'lwa' or 'routing'")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file of RunConfig keys")
    parser.add_argument("--seed", type=int, dest="seed")
    parser.add_argument("--out", dest="out_dir")
    parser.add_argument("--dataset", dest="dataset")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    """The backbone, window and training flags that `train` and `baseline` share."""
    parser.add_argument("--lookback", type=int, dest="lookback")
    parser.add_argument("--horizon", type=int, dest="horizon")
    parser.add_argument("--stride", type=int, dest="stride")
    parser.add_argument("--backbone", choices=KINDS, dest="backbone")
    parser.add_argument("--hidden", type=int, dest="hidden")
    parser.add_argument("--decomp-kernel", type=int, dest="decomp_kernel")
    parser.add_argument("--epochs", type=int, dest="epochs")
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--lr", type=float, dest="lr")
    parser.add_argument("--patience", type=int, dest="patience",
                        help="epochs without a better validation MSE before training "
                             "stops; 0 stops after the first epoch")
    parser.add_argument("--split", dest="split",
                        help="train,val,test fractions, e.g. 0.6,0.2,0.2")


def _add_mixture_flags(parser: argparse.ArgumentParser) -> None:
    """The expert, signature and gate flags, which only `train` reads."""
    parser.add_argument("--k-experts", type=int, dest="k_experts")
    parser.add_argument("--lambda", type=float, dest="sc_weight",
                        help="weight of the signature contrast term")
    parser.add_argument("--alpha", type=float, dest="alpha")
    parser.add_argument("--topk", type=int, dest="top_k")
    parser.add_argument("--tau", type=float, dest="tau")
    parser.add_argument("--raw-similarity", action="store_true", dest="raw_similarity",
                        default=argparse.SUPPRESS)
    parser.add_argument("--gate-dim", type=int, dest="gate_dim")
    parser.add_argument("--gate-heads", type=int, dest="gate_heads")
    parser.add_argument("--gate-dropout", type=float, dest="gate_dropout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="disents",
                                     description="disentangled mixture-of-forecasters")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a labelled synthetic dataset")
    _add_common(p_synth)
    p_synth.add_argument("--length", type=int, dest="synth_length")
    p_synth.add_argument("--channels-per-group", type=int, dest="synth_channels_per_group")
    p_synth.add_argument("--noise", type=float, dest="synth_noise")

    p_train = sub.add_parser("train", help="train a model and write metrics + checkpoint")
    _add_common(p_train)
    _add_model_flags(p_train)
    _add_mixture_flags(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset's test split")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", dest="checkpoint")
    p_eval.add_argument("--split", dest="split")
    p_eval.add_argument("--stride", type=int, dest="stride")

    p_base = sub.add_parser("baseline", help="train the single-backbone baseline")
    _add_common(p_base)
    _add_model_flags(p_base)

    p_inspect = sub.add_parser("inspect", help="dump signatures or routing of a checkpoint")
    p_inspect.add_argument("target", choices=("lwa", "routing"))
    _add_common(p_inspect)
    p_inspect.add_argument("--checkpoint", dest="checkpoint")
    p_inspect.add_argument("--labels", dest="labels")
    p_inspect.add_argument("--batch-size", type=int, dest="batch_size")

    return parser


def _overrides(namespace: argparse.Namespace) -> dict:
    skip = {"command", "config", "split", "target"}
    out = {k: v for k, v in vars(namespace).items() if k not in skip and v is not None}
    split = getattr(namespace, "split", None)
    if split is not None:
        parts = split.split(",")
        if len(parts) != 3:
            raise ConfigError(f"--split needs three comma-separated fractions, got {split!r}")
        try:
            fracs = [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"--split fractions must be numbers, got {split!r}") from None
        out["train_frac"], out["val_frac"], out["test_frac"] = fracs
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_run_config(args.config, _overrides(args))
        if args.command == "synth":
            return cmd_synth(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "baseline":
            return cmd_baseline(config)
        if args.command == "inspect":
            return cmd_inspect(config, args.target)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a file the run reads or writes, such as one inside --out
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
