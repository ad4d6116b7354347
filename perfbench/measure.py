"""One measured run of one workload, in a fresh process.

`run.py` starts this with OPENBLAS_NUM_THREADS=1 and DISENTS_THREADS=2.
The run sets up its inputs several times (the median is `setup_s`), then
measures for `--seconds`: on a train workload a fixed-epoch `fit` followed
by serving rounds, on serve-large serving rounds alone. A serving round is
two `evaluate` calls over the test split, B=1 `predict` calls and large-batch
`predict` calls, made one after another by one caller (a closed loop).
Rounds repeat until the time is up and at least `min_rounds` have run.
The checks in `checks.py` then run on what the workload produced. Every
timing is put on the machine-speed scale of `speed.py`.

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` every layer boundary is traced and it reports the per-layer
metrics instead. The last line of standard output is the JSON result.

Usage: python3 perfbench/measure.py --workload W --seed N --seconds S
           --trace 0|1 --work DIR --out DIR [--size full|tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from disents import checkpoint, cli, datakit, lwa, pipeline
from disents.datakit import WindowSpec

import checks
import tracing
import workloads
from speed import SpeedProbe

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MB = float(1 << 20)
EVAL_BATCH = 256  # evaluate's default batch size


class Run:
    """Operation and check bookkeeping of one run."""

    def __init__(self, tracer: tracing.Tracer, speed: SpeedProbe, work: Path):
        self.tracer = tracer
        self.speed = speed
        self.work = work
        self.attempted = 0
        self.failed_checks: list[str] = []

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.failed_checks.append(f"{name}: {exc}")


class Serving:
    """Timings of the serving rounds, as (start, end) pairs."""

    def __init__(self):
        self.eval_s: list[tuple[float, float]] = []
        self.b1_s: list[tuple[float, float]] = []
        self.big_s: list[tuple[float, float]] = []
        self.metrics: list = []
        self.first_b1: list[np.ndarray] = []
        self.first_big: np.ndarray | None = None


def serve_rounds(model, x: np.ndarray, y: np.ndarray, shape: workloads.Shape,
                 deadline: float, run: Run) -> Serving:
    out = Serving()
    n = x.shape[0]
    big = min(shape.big_batch, n)
    rounds = 0
    speed = run.speed
    # the shape in which evaluate runs: batches of 256 on DISENTS_THREADS threads
    shards, threads = -(-n // EVAL_BATCH), int(os.environ["DISENTS_THREADS"])
    while rounds < shape.min_rounds or time.perf_counter() < deadline:
        # probes bracket each part of the round and, every INTERVAL_S, fall
        # between the predict calls, so each call is scaled by the speed
        # of the machine in the same second
        speed.probe("serve")
        speed.probe_sharded("serve", shards, threads)
        for _ in range(shape.evals_per_round):
            t0 = time.perf_counter()
            out.metrics.append(pipeline.evaluate(model, x, y))
            out.eval_s.append((t0, time.perf_counter()))
            speed.probe_sharded("serve", shards, threads)
        speed.probe("serve")
        for i in range(shape.b1_per_round):
            j = (rounds * shape.b1_per_round + i) % n
            speed.maybe("serve")
            t0 = time.perf_counter()
            forecast = model.predict(x[j:j + 1])
            out.b1_s.append((t0, time.perf_counter()))
            if rounds == 0:
                out.first_b1.append(forecast)
        speed.probe("serve")
        for i in range(shape.big_per_round):
            j = ((rounds * shape.big_per_round + i) * big) % (n - big + 1)
            speed.maybe("serve")
            t0 = time.perf_counter()
            forecast = model.predict(x[j:j + big])
            out.big_s.append((t0, time.perf_counter()))
            if out.first_big is None:
                out.first_big = forecast
        run.attempted += shape.evals_per_round + shape.b1_per_round + shape.big_per_round
        rounds += 1
    speed.probe("serve")
    return out


def serving_checks(run: Run, model, x: np.ndarray, y: np.ndarray, serving: Serving,
                   eps_norm: float, batch: int) -> None:
    """Checks every workload makes on the model it serves."""
    run.check("evaluate_repeats", lambda: [checks.metrics_equal(m, serving.metrics[0],
                                                                 "evaluate across rounds")
                                           for m in serving.metrics])
    os.environ["DISENTS_THREADS"] = "1"
    try:
        one_thread = pipeline.evaluate(model, x, y)
    finally:
        os.environ["DISENTS_THREADS"] = "2"
    run.attempted += 1
    run.check("evaluate_thread_invariant", checks.metrics_equal, one_thread,
              serving.metrics[0], "evaluate at DISENTS_THREADS 1 and 2")
    rows = min(len(serving.first_b1), serving.first_big.shape[0])
    run.check("b1_matches_big_batch", checks.close,
              np.concatenate(serving.first_b1[:rows]), serving.first_big[:rows],
              "B=1 and large-batch forecasts")
    fwd = pipeline.forward(model, x[:batch], training=False)
    run.check("routing_simplex", checks.routing_simplex, fwd.beta.data)
    run.check("forecast_recomposition", checks.forecast_recomposition, x[:batch], fwd, eps_norm)


def round_trip(run: Run, model, probe: np.ndarray) -> float:
    """Save, load, and demand bit-identical forecasts; returns the checkpoint's MB."""
    directory = run.work / "round_trip"
    checkpoint.save_model(model, directory)
    loaded = checkpoint.load_model(directory)
    run.attempted += 2
    run.check("checkpoint_round_trip", checks.same_values, loaded.predict(probe),
              model.predict(probe), "forecasts after a save and load")
    return directory_mb(directory)


def directory_mb(directory: Path) -> float:
    return sum(p.stat().st_size for p in directory.iterdir()) / MB


def window_mb(data) -> float:
    return sum(a.nbytes for a in vars(data).values()) / MB


def lwa_checks(run: Run, model, x: np.ndarray) -> None:
    """Each expert's signature on one batch against NumPy top-k and lstsq."""
    fwd = pipeline.forward(model, x, training=False)
    beta = fwd.beta.data
    pool = beta.shape[0] * beta.shape[1]
    k = lwa.effective_top_k(model.config.lwa, pool, model.config.backbone.lookback)
    x_rows_all = fwd.x_norm.data.reshape(pool, -1)
    for m in range(model.n_experts):
        x_hat, f_hat = lwa.select_top_k(fwd.beta, fwd.x_norm, fwd.expert_outputs[m], m, k)
        signature = lwa.approximate(x_hat, f_hat, model.config.lwa.rcond).data
        rows = checks.top_k_rows(beta, m, k)
        f_rows = fwd.expert_outputs[m].data.reshape(pool, -1)[rows]
        run.check(f"lwa_rows_expert{m}", checks.same_values, x_hat.data, x_rows_all[rows],
                  f"top-k rows of expert {m}")
        run.check(f"lwa_lstsq_expert{m}", checks.signature_matches_lstsq, signature,
                  x_rows_all[rows], f_rows)


def e2e_serving(serving: Serving, n_test: int, speed: SpeedProbe) -> dict[str, float]:
    b1 = [speed.scaled(*t) for t in serving.b1_s]
    return {
        "eval_windows_per_s": n_test / median(speed.scaled_sharded(*t) for t in serving.eval_s),
        "predict_b1_ms": median(b1) * 1e3,
        "predict_b256_ms": median(speed.scaled(*t) for t in serving.big_s) * 1e3,
        "test_mse": serving.metrics[0].mse,
    }


def fit_metrics(speed: SpeedProbe, fit_s: float, steps, windows: int) -> dict[str, float]:
    """fit_s, train_windows_per_s and train_step_ms from the fit's wall time
    (probes excluded) and its train step spans."""
    step_s = [speed.scaled(s.start, s.end) for s in steps]
    between = fit_s - sum(s.duration for s in steps)  # validation and batch gathering
    return {
        "fit_s": sum(step_s) + between / speed.factor("fit"),
        "train_windows_per_s": windows / sum(step_s),
        "train_step_ms": median(step_s) * 1e3,
    }


def timed_setup(run: Run, repeats: int, make):
    """Median time of `make()` over the repeats, and its last result."""
    intervals, made = [], None
    for _ in range(repeats):
        made = None  # release the last copy before making the next
        run.speed.probe("setup")
        t0 = time.perf_counter()
        made = make()
        intervals.append((t0, time.perf_counter()))
    run.speed.probe("setup")
    return median(run.speed.scaled(*t) for t in intervals), made


def run_train(shape: workloads.Shape, seed: int, seconds: float, run: Run):
    tracer, speed = run.tracer, run.speed
    spec = WindowSpec(shape.lookback, shape.horizon)

    def make():
        data = datakit.make_windows(
            datakit.split_standardize(workloads.make_series(shape, seed), spec), spec)
        return data, pipeline.DisenTSModel(shape.model_config(), seed=seed)

    setup_s, (data, model) = timed_setup(run, shape.setup_repeats, make)

    start = time.perf_counter()
    tracer.phase = "fit"
    speed.probe("fit")
    result = pipeline.fit(model, data, shape.train_config(seed))
    fit_s = time.perf_counter() - start - speed.spent["fit"]
    tracer.phase = "serve"
    serving = serve_rounds(model, data.test_x, data.test_y, shape, start + seconds, run)

    tracer.phase = "check"
    speed.probe("check")
    steps = [s for s in tracer.spans if s.name == "pipeline.train_step"]
    reports = tracer.results["pipeline.train_step"]
    run.attempted += len(steps)
    run.check("finite_losses", checks.finite_losses, reports)
    run.check("step_count", checks.step_count, len(steps), data.train_x.shape[0],
              shape.batch_size, shape.epochs)
    run.check("loss_decreases", checks.loss_decreases, result.history, shape.epochs)
    forecasts = np.concatenate([model.predict(data.test_x[i:i + shape.big_batch])
                                for i in range(0, data.test_x.shape[0], shape.big_batch)])
    run.attempted += -(-data.test_x.shape[0] // shape.big_batch)
    test_mse = serving.metrics[0].mse
    run.check("test_mse_recomputed", checks.mse_recomputed, test_mse, forecasts, data.test_y)
    run.check("beats_zero_forecast", checks.beats_zero_forecast, test_mse, data.test_y)
    serving_checks(run, model, data.test_x, data.test_y, serving,
                   model.config.eps_norm, shape.batch_size)
    lwa_checks(run, model, data.test_x[:shape.batch_size])
    ckpt_mb = round_trip(run, model, data.test_x[:shape.probe_windows])

    e2e = {
        "setup_s": setup_s,
        **fit_metrics(speed, fit_s, steps, shape.epochs * data.train_x.shape[0]),
        **e2e_serving(serving, data.test_x.shape[0], speed),
    }
    return e2e, {"datakit.window_mb": window_mb(data), "checkpoint.mb": ckpt_mb}


def run_serve(shape: workloads.Shape, seed: int, seconds: float, run: Run, inputs: Path):
    tracer, speed = run.tracer, run.speed
    spec = WindowSpec(shape.lookback, shape.horizon)
    csv_path, ckpt_path = inputs / "series.csv", inputs / "checkpoint"

    def make():
        dataset = datakit.load_csv(csv_path)
        data = datakit.make_windows(datakit.split_standardize(dataset, spec), spec)
        return dataset, data, checkpoint.load_model(ckpt_path)

    setup_s, (dataset, data, model) = timed_setup(run, shape.setup_repeats, make)
    gauges = {"datakit.window_mb": window_mb(data),
              "checkpoint.mb": directory_mb(ckpt_path)}

    tracer.phase = "serve"
    serving = serve_rounds(model, data.test_x, data.test_y, shape,
                           time.perf_counter() + seconds, run)

    tracer.phase = "check"
    speed.probe("check")
    fit = json.loads((inputs / "fit.json").read_text())
    run.attempted += fit["attempted"]
    run.failed_checks.extend(fit["failed_checks"])
    values = np.load(inputs / "series.npy")
    run.check("csv_exact", checks.csv_exact, dataset, values,
              json.loads((inputs / "channels.json").read_text()))
    run.check("windows_exact", checks.windows_exact, data, values, shape.lookback,
              shape.horizon, spec.fractions)
    probe = np.load(inputs / "probe_x.npy")
    run.check("probe_is_first_test_windows", checks.same_values, probe,
              data.test_x[:probe.shape[0]], "probe windows")
    run.check("checkpoint_predicts_as_saved", checks.same_values, model.predict(probe),
              np.load(inputs / "probe_forecast.npy"), "forecasts of the loaded checkpoint")
    run.attempted += 1
    serving_checks(run, model, data.test_x, data.test_y, serving,
                   model.config.eps_norm, shape.batch_size)
    round_trip(run, model, probe)

    n_test = data.test_x.shape[0]
    dataset = data = None  # the in-process eval below makes its own copies
    eval_dir = run.work / "cli_eval"
    speed.probe("check")
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the results
        code = cli.main(["eval", "--checkpoint", str(ckpt_path), "--dataset", str(csv_path),
                         "--out", str(eval_dir)])
    run.attempted += 1
    run.check("cli_eval_exit_code", checks.equal_scalar, code, 0, "disents eval exit code")
    cli_mse = json.loads((eval_dir / "metrics.json").read_text())["mse"]
    run.check("cli_eval_mse", checks.equal_scalar, cli_mse, serving.metrics[0].mse,
              "MSE written by disents eval")

    speed.probe("check")
    e2e = {"setup_s": setup_s, **fit["metrics"], **e2e_serving(serving, n_test, speed)}
    return e2e, gauges


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SHAPES), default="full")
    args = parser.parse_args(argv)
    shape = workloads.SHAPES[args.size][args.workload]
    spec = json.loads(BENCHMARK.read_text())

    speed = SpeedProbe()
    tracer = tracing.full_tracer(speed) if args.trace else tracing.step_timer()
    speed.before_each_call(pipeline, "train_step", "fit")  # outside the step's own span
    run = Run(tracer, speed, args.work)
    if shape.kind == "train":
        e2e, gauges = run_train(shape, args.seed, args.seconds, run)
    else:
        e2e, gauges = run_serve(shape, args.seed, args.seconds, run, args.work / "inputs")
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed.close()
    tracer.restore()

    if args.trace:
        values = tracing.layer_metrics(tracer, gauges, speed)
        if shape.kind == "train":
            step_ms, uncovered = tracing.step_coverage(tracer, speed)
            run.check("step_layers_add_up", checks.step_layers_add_up,
                      sum(values[m] for m in tracing.IN_STEP), step_ms, uncovered)
        args.out.mkdir(parents=True, exist_ok=True)
        tracer.write(args.out / f"trace-{args.workload}-seed{args.seed}.jsonl")
        declared = spec["per_layer"]
    else:
        values = e2e
        declared = spec["end_to_end"]
    missing = sorted({m["name"] for m in declared} ^ set(values))
    if missing:
        raise SystemExit(f"metrics and BENCHMARK.json disagree on: {', '.join(missing)}")

    for failure in run.failed_checks:
        print(f"check failed: {failure}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    factors = " ".join(f"{k} {v:.3f}" for k, v in speed.factors().items())
    print(f"{args.workload} speed factors {factors}")
    print(f"{args.workload} attempted {run.attempted} failed 0 "
          f"checks_failed {len(run.failed_checks)}")
    print(json.dumps({"correct": not run.failed_checks, "attempted": run.attempted,
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
