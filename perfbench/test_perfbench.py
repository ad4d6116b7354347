"""Tests of the benchmark itself: every workload at a tiny size, and every
correctness check rejecting a deliberately corrupted output."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from disents import datakit, lwa, pipeline
from disents.datakit import WindowSpec
from disents.pipeline import EpochRecord, Metrics, StepReport

import checks
import tracing
import workloads
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_benchmark(root: Path, workload: str, trace: int, out: Path):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
         "--out", str(out)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_tiny_and_passes_its_checks(workload, trace, tmp_path):
    proc = run_benchmark(HERE.parent, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    assert (tmp_path / f"trace-{workload}-seed3.jsonl").is_file() == bool(trace)
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == []  # inputs removed


def test_same_seed_same_inputs():
    shape = workloads.SHAPES["tiny"]["serve-large"]
    a, b = workloads.make_series(shape, 5), workloads.make_series(shape, 5)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, workloads.make_series(shape, 6).values)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "train-wide", 0, tmp_path / "out")
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


# --- the tracer ---------------------------------------------------------------


class _Layer:
    @staticmethod
    def outer(n):
        return _Layer.inner(n) + _Layer.inner(n)

    @staticmethod
    def inner(n):
        return sum(range(n))


def traced_layer(inner_name: str):
    """Run _Layer.outer once as a train step, with `inner` traced as `inner_name`."""
    original_outer, original_inner = _Layer.outer, _Layer.inner
    tracer = tracing.Tracer()
    tracer.wrap(_Layer, "outer", "pipeline.train_step", keep=True)
    tracer.wrap(_Layer, "inner", inner_name)
    assert _Layer.outer(1000) == 2 * sum(range(1000))
    tracer.restore()
    assert _Layer.outer is original_outer and _Layer.inner is original_inner
    return tracer


def test_tracer_self_times_add_up_and_restore_puts_attributes_back():
    tracer = traced_layer("numcore.backward")
    assert [s.name for s in tracer.spans] == ["pipeline.train_step", "numcore.backward",
                                              "numcore.backward"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert tracer.results["pipeline.train_step"] == [2 * sum(range(1000))]
    speed = SpeedProbe()
    speed.probe("setup")
    metrics = tracing.layer_metrics(tracer, {}, speed)
    step_ms, uncovered = tracing.step_coverage(tracer, speed)
    assert uncovered == set()
    assert step_ms == pytest.approx(tracer.spans[0].duration * 1e3 / speed.factor("setup"),
                                    rel=1e-12)
    checks.step_layers_add_up(sum(metrics[k] for k in tracing.IN_STEP), step_ms, uncovered)


def test_step_check_rejects_a_layer_no_metric_counts():
    tracer = traced_layer("numcore.unlisted")
    speed = SpeedProbe()
    speed.probe("setup")
    metrics = tracing.layer_metrics(tracer, {}, speed)
    step_ms, uncovered = tracing.step_coverage(tracer, speed)
    assert uncovered == {"numcore.unlisted"}
    with pytest.raises(checks.CheckFailed, match="numcore.unlisted"):
        checks.step_layers_add_up(sum(metrics[k] for k in tracing.IN_STEP), step_ms, uncovered)


# --- each check rejects a corrupted output -----------------------------------


@pytest.fixture(scope="module")
def tiny():
    shape = workloads.SHAPES["tiny"]["train-wide"]
    spec = WindowSpec(shape.lookback, shape.horizon)
    dataset = workloads.make_series(shape, 0)
    data = datakit.make_windows(datakit.split_standardize(dataset, spec), spec)
    model = pipeline.DisenTSModel(shape.model_config(), seed=0)
    return shape, dataset, data, model


def test_finite_losses_rejects_a_nan():
    good = [StepReport(1.0, 0.5, 1.05, []), StepReport(0.9, 0.5, 0.95, [])]
    checks.finite_losses(good)
    with pytest.raises(checks.CheckFailed):
        checks.finite_losses(good + [StepReport(float("nan"), 0.5, 0.9, [])])


def test_loss_decreases_rejects_a_rise_or_a_missing_epoch():
    def rec(loss):
        return EpochRecord(0, loss, 0.0, 1.0, [], 0.0)
    checks.loss_decreases([rec(1.0), rec(0.8)], 2)
    with pytest.raises(checks.CheckFailed):
        checks.loss_decreases([rec(0.8), rec(1.0)], 2)
    with pytest.raises(checks.CheckFailed):
        checks.loss_decreases([rec(1.0), rec(0.8)], 3)


def test_step_count_rejects_a_dropped_step():
    checks.step_count(6, 65, 32, 2)
    with pytest.raises(checks.CheckFailed):
        checks.step_count(5, 65, 32, 2)


def test_mse_checks_reject_a_perturbed_forecast(tiny):
    _, _, data, model = tiny
    forecasts = model.predict(data.test_x)
    mse = pipeline.evaluate(model, data.test_x, data.test_y).mse
    checks.mse_recomputed(mse, forecasts, data.test_y)
    bad = forecasts.copy()
    bad[0, 0, 0] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.mse_recomputed(mse, bad, data.test_y)
    with pytest.raises(checks.CheckFailed):
        checks.beats_zero_forecast(float(np.mean(data.test_y ** 2)), data.test_y)


def test_routing_and_recomposition_reject_perturbed_outputs(tiny):
    shape, _, data, model = tiny
    x = data.test_x[:4]
    fwd = pipeline.forward(model, x)
    checks.routing_simplex(fwd.beta.data)
    checks.forecast_recomposition(x, fwd, model.config.eps_norm)
    beta = fwd.beta.data.copy()
    beta[0, 0, 0] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.routing_simplex(beta)
    beta[0, 0, 0] = -beta[0, 0, 0]
    with pytest.raises(checks.CheckFailed):
        checks.routing_simplex(beta)
    fwd.y_hat.data[1, 2, 3] *= 1 + 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.forecast_recomposition(x, fwd, model.config.eps_norm)


def test_signature_check_rejects_a_changed_signature(tiny):
    _, _, data, model = tiny
    fwd = pipeline.forward(model, data.test_x[:8])
    pool = fwd.beta.shape[0] * fwd.beta.shape[1]
    k = lwa.effective_top_k(model.config.lwa, pool, model.config.backbone.lookback)
    x_hat, f_hat = lwa.select_top_k(fwd.beta, fwd.x_norm, fwd.expert_outputs[1], 1, k)
    rows = checks.top_k_rows(fwd.beta.data, 1, k)
    x_rows = fwd.x_norm.data.reshape(pool, -1)[rows]
    checks.same_values(x_hat.data, x_rows, "top-k rows")
    signature = lwa.approximate(x_hat, f_hat).data
    checks.signature_matches_lstsq(signature, x_rows, f_hat.data)
    changed = signature.copy()
    changed[0, 0] += 1e-6 * np.abs(signature).max()
    with pytest.raises(checks.CheckFailed):
        checks.signature_matches_lstsq(changed, x_rows, f_hat.data)
    with pytest.raises(checks.CheckFailed):
        checks.same_values(x_hat.data, fwd.x_norm.data.reshape(pool, -1)[rows[::-1]], "rows")


def test_csv_and_window_checks_reject_corruption(tiny):
    shape, dataset, data, _ = tiny
    spec = WindowSpec(shape.lookback, shape.horizon)
    checks.csv_exact(dataset, dataset.values.copy(), dataset.channel_names)
    bad = dataset.values.copy()
    bad[7, 1] = np.nextafter(bad[7, 1], np.inf)
    with pytest.raises(checks.CheckFailed):
        checks.csv_exact(dataset, bad, dataset.channel_names)
    with pytest.raises(checks.CheckFailed):
        checks.csv_exact(dataset, dataset.values, dataset.channel_names[::-1])
    checks.windows_exact(data, dataset.values, shape.lookback, shape.horizon, spec.fractions)
    dropped = datakit.WindowedData(**vars(data))
    dropped.val_x, dropped.val_y = data.val_x[1:], data.val_y[1:]
    with pytest.raises(checks.CheckFailed):
        checks.windows_exact(dropped, dataset.values, shape.lookback, shape.horizon,
                             spec.fractions)
    shifted = datakit.WindowedData(**vars(data))
    shifted.test_y = data.test_y.copy()
    shifted.test_y[3] = data.test_y[4]
    with pytest.raises(checks.CheckFailed):
        checks.windows_exact(shifted, dataset.values, shape.lookback, shape.horizon,
                             spec.fractions)


def test_equality_checks_reject_one_ulp_or_one_metric():
    a = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    checks.same_values(a, a.copy(), "values")
    b = a.copy()
    b[2, 3] = np.nextafter(b[2, 3], np.inf)
    with pytest.raises(checks.CheckFailed):
        checks.same_values(b, a, "values")
    checks.close(b, a, "values")
    c = a.copy()
    c[1, 1] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.close(c, a, "values")
    m = Metrics(0.5, 0.4, [0.5, 0.5])
    checks.metrics_equal(m, Metrics(0.5, 0.4, [0.5, 0.5]), "metrics")
    with pytest.raises(checks.CheckFailed):
        checks.metrics_equal(m, Metrics(0.5, 0.4, [0.5, 0.5000001]), "metrics")
    checks.equal_scalar(0.25, 0.25, "mse")
    with pytest.raises(checks.CheckFailed):
        checks.equal_scalar(0.25, 0.2500001, "mse")
