"""Make the serve-large inputs: a CSV series and a briefly trained checkpoint.

Runs in a process of its own before the measured one, so none of this
work shows in the measured process's time or memory. It writes, into
`--out`:

- `series.csv`, written here with NumPy rather than by the package, and
  `series.npy` with the exact array the CSV holds;
- `checkpoint/`, a K=4 model after one short `fit` on the first training
  windows;
- `probe_x.npy` and `probe_forecast.npy`, the first test windows and what
  the saved model predicted for them;
- `fit.json`, the short fit's timings (on the scale of `speed.py`) and
  its check.

Usage: python3 perfbench/generate.py --seed N --out DIR [--size full|tiny]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from disents import checkpoint, datakit, pipeline
from disents.datakit import WindowSpec, WindowedData

import checks
import measure
import tracing
import workloads
from speed import SpeedProbe


def write_csv(dataset: datakit.SeriesDataset, path: Path) -> None:
    """A leading integer date column, then each channel at 17 significant digits."""
    table = np.column_stack([np.arange(dataset.values.shape[0]), dataset.values])
    with open(path, "w") as fh:
        fh.write(",".join(["date", *dataset.channel_names]) + "\n")
        np.savetxt(fh, table, fmt=["%d"] + ["%.17g"] * dataset.values.shape[1], delimiter=",")


def first_windows(split: np.ndarray, shape: workloads.Shape, count: int):
    view = sliding_window_view(split, shape.lookback + shape.horizon, axis=0)[:count]
    return view[:, :, :shape.lookback].copy(), view[:, :, shape.lookback:].copy()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SHAPES), default="full")
    args = parser.parse_args(argv)
    shape = workloads.SHAPES[args.size]["serve-large"]
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    dataset = workloads.make_series(shape, args.seed)
    write_csv(dataset, out / "series.csv")
    np.save(out / "series.npy", dataset.values)
    (out / "channels.json").write_text(json.dumps(dataset.channel_names))

    spec = WindowSpec(shape.lookback, shape.horizon)
    splits = datakit.split_standardize(dataset, spec)
    train = first_windows(splits.train, shape, shape.fit_train_windows)
    val = first_windows(splits.val, shape, shape.fit_val_windows)
    probe = first_windows(splits.test, shape, shape.probe_windows)
    model = pipeline.DisenTSModel(shape.model_config(), seed=args.seed)
    timer = tracing.step_timer()
    speed = SpeedProbe()
    speed.before_each_call(pipeline, "train_step", "fit")
    t0 = time.perf_counter()
    speed.probe("fit")
    pipeline.fit(model, WindowedData(*train, *val, *probe), shape.train_config(args.seed))
    fit_s = time.perf_counter() - t0 - speed.spent["fit"]
    speed.probe("fit")
    speed.close()
    timer.restore()
    reports = timer.results["pipeline.train_step"]
    try:
        checks.finite_losses(reports)
        failed_checks = []
    except checks.CheckFailed as exc:
        failed_checks = [f"generator finite_losses: {exc}"]

    checkpoint.save_model(model, out / "checkpoint")
    np.save(out / "probe_x.npy", probe[0])
    np.save(out / "probe_forecast.npy", model.predict(probe[0]))
    (out / "fit.json").write_text(json.dumps({
        "metrics": measure.fit_metrics(speed, fit_s, timer.spans,
                                       shape.epochs * shape.fit_train_windows),
        "attempted": len(reports) + 1,  # the steps and their check
        "failed_checks": failed_checks,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
