"""Model assembly and the training loop: stationarization round trips,
mixture algebra, step ordering, determinism, early stopping, and the
single-expert step pairing exactly with a plain single-backbone step."""

import json
import math
import os
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import disents.numcore as nc
from disents import backbones, gating, pipeline
from disents.backbones import KINDS, Backbone, BackboneConfig, forecast_batch, moving_average_matrix
from disents.datakit import (WindowedData, WindowSpec, default_two_group, make_windows,
                             split_standardize, synth_generate)
from disents.checkpoint import load_model, save_model
from disents.errors import ConfigError, ContractError, NumericError, ShapeError
from disents.gating import GateConfig, route
from disents.lwa import LwaConfig, approximate, effective_top_k, select_top_k
from disents.numcore import AdamState, adam_step, backward, recording
from disents.objectives import LossConfig, mse_loss, similarity_constraint, total_loss
from disents.pipeline import (DisenTSModel, ModelConfig, Stationarizer, TrainConfig, array_shapes,
                              evaluate, fit, forward, init_rng, mean_routing, train_rng,
                              train_step)


def small_config(k, lookback=12, horizon=6, dropout=0.0, sc_weight=0.1):
    return ModelConfig(
        n_experts=k,
        backbone=BackboneConfig("linear", lookback, horizon),
        gate=GateConfig(embed_dim=8, heads=2, dropout=dropout),
        loss=LossConfig(sc_weight=sc_weight),
    )


def toy_windows(seed=0, n_train=40, n_val=12, n_test=12, channels=3,
                lookback=12, horizon=6):
    rng = np.random.default_rng(seed)

    def stack(n):
        x = rng.normal(size=(n, channels, lookback))
        y = rng.normal(size=(n, channels, horizon))
        return x, y

    tx, ty = stack(n_train)
    vx, vy = stack(n_val)
    sx, sy = stack(n_test)
    return WindowedData(train_x=tx, train_y=ty, val_x=vx, val_y=vy, test_x=sx, test_y=sy)


def test_rng_streams():
    a = init_rng(0).normal(size=5)
    assert np.array_equal(a, init_rng(0).normal(size=5))
    assert not np.array_equal(a, train_rng(0).normal(size=5))
    assert not np.array_equal(a, init_rng(1).normal(size=5))


def test_stationarizer_round_trip():
    rng = np.random.default_rng(1)
    x = rng.normal(loc=3.0, scale=2.0, size=(4, 3, 16))
    st = Stationarizer()
    xn, mu, sigma = st.normalize(x)
    assert np.abs(xn.mean(axis=2)).max() <= 1e-12
    back = st.denormalize(nc.constant(xn), mu, sigma).data
    assert np.abs(back - x).max() <= 1e-6


def test_stationarizer_constant_channel():
    x = np.full((1, 1, 8), 7.0)
    xn, mu, sigma = Stationarizer().normalize(x)
    assert np.array_equal(xn, np.zeros((1, 1, 8)))  # 0 / (0 + eps)
    assert mu.item() == 7.0 and sigma.item() == 0.0


def test_config_validation():
    bb = BackboneConfig("linear", 8, 4)
    with pytest.raises(ConfigError):
        ModelConfig(n_experts=0, backbone=bb)
    with pytest.raises(ConfigError):
        ModelConfig(n_experts=2, backbone=bb, eps_norm=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=-1)


def test_forward_shapes_and_mixture_bounds():
    model = DisenTSModel(small_config(3), seed=0)
    x = np.random.default_rng(2).normal(size=(5, 4, 12))
    fwd = forward(model, x)
    assert fwd.y_hat.shape == (5, 4, 6)
    assert fwd.beta.shape == (5, 4, 3)
    assert np.abs(fwd.beta.data.sum(axis=2) - 1.0).max() <= 1e-12
    stack = fwd.outputs.data  # [K, B, C, H]
    assert (fwd.y_hat_norm.data >= stack.min(axis=0) - 1e-12).all()
    assert (fwd.y_hat_norm.data <= stack.max(axis=0) + 1e-12).all()


def test_single_expert_forward_is_the_wrapped_backbone():
    model = DisenTSModel(small_config(1), seed=3)
    x = np.random.default_rng(3).normal(size=(4, 2, 12))
    st = Stationarizer()
    xn, mu, sigma = st.normalize(x)
    direct = forecast_batch(model.backbone, nc.constant(xn)).data[0]
    expected = direct * (sigma + st.eps_norm) + mu
    assert np.array_equal(forward(model, x).y_hat.data, expected)


def test_identical_experts_collapse_to_one():
    model = DisenTSModel(small_config(3), seed=4)
    for t in model.backbone.params.values():
        t.data[1:] = t.data[0]
    x = np.random.default_rng(4).normal(size=(3, 2, 12))
    fwd = forward(model, x)
    solo = forecast_batch(model.backbone, fwd.x_norm).data[0]
    assert np.abs(fwd.y_hat_norm.data - solo).max() <= 1e-12


def test_forward_matches_manual_composition():
    from disents.gating import route

    model = DisenTSModel(small_config(2), seed=5)
    x = np.random.default_rng(5).normal(size=(4, 3, 12))
    st = model.stationarizer
    xn, mu, sigma = st.normalize(x)
    beta = route(nc.constant(xn), model.registry.gamma, model.gate, False, None).data
    outs = forecast_batch(model.backbone, nc.constant(xn)).data
    mixed = sum(beta[:, :, m:m + 1] * outs[m] for m in range(2))
    expected = mixed * (sigma + st.eps_norm) + mu
    assert np.abs(forward(model, x).y_hat.data - expected).max() <= 1e-12


def _kind_config(kind, k):
    return replace(small_config(k), backbone=BackboneConfig(kind, 12, 6, hidden=8, decomp_kernel=5))


def _numpy_expert(kind, p, m, rows):
    """Expert m's forecasts of rows [R, L], in plain NumPy, one expert alone."""
    if kind == "linear":
        return rows @ p["w"][m] + p["b"][m]
    if kind == "decomp-linear":  # the decomposition folded into one linear map
        trend_matrix = moving_average_matrix(rows.shape[1], 5)
        w = p["seasonal_w"][m] + trend_matrix @ (p["trend_w"][m] - p["seasonal_w"][m])
        return rows @ w + (p["trend_b"][m] + p["seasonal_b"][m])
    pre = rows @ p["w1"][m] + p["b1"][m]
    hidden = pre * ((erf(pre * (1.0 / math.sqrt(2.0))) + 1.0) * 0.5)
    return hidden @ p["w2"][m] + p["b2"][m]


def _taped_expert(kind, leaves, rows):
    """The same forecasts on the tape, from one expert's own parameter tensors."""
    x = nc.constant(rows)
    if kind == "linear":
        return nc.matmul(x, leaves["w"]) + leaves["b"]
    if kind == "decomp-linear":
        trend_matrix = nc.constant(moving_average_matrix(rows.shape[1], 5))
        w = leaves["seasonal_w"] + nc.matmul(trend_matrix, leaves["trend_w"] - leaves["seasonal_w"])
        return nc.matmul(x, w) + (leaves["trend_b"] + leaves["seasonal_b"])
    hidden = nc.gelu(nc.matmul(x, leaves["w1"]) + leaves["b1"])
    return nc.matmul(hidden, leaves["w2"]) + leaves["b2"]


@pytest.mark.parametrize("k", [3, 8])
@pytest.mark.parametrize("kind", KINDS)
def test_expert_stack_equals_a_per_expert_loop_bit_for_bit(kind, k):
    """The stacked experts give exactly the numbers of one expert at a time:
    forecasts, the mix and the signatures against a NumPy loop, and the
    weight and bias adjoints of an MSE + contrast loss against the same loss
    taped expert by expert."""
    cfg = _kind_config(kind, k)
    model = DisenTSModel(cfg, seed=23)
    rng = np.random.default_rng(23)
    x, y = rng.normal(size=(8, 4, 12)), rng.normal(size=(8, 4, 6))
    gamma = model.registry.gamma
    stacks = model.backbone.params
    for t in stacks.values():  # biases start at zero; give every parameter a value
        t.data[...] = rng.normal(0.0, 0.3, size=t.shape)
    with recording():
        fwd = forward(model, x)
        signatures = pipeline.expert_signatures(model, fwd)
        loss = total_loss(mse_loss(fwd.y_hat, nc.constant(y)),
                          similarity_constraint(signatures, gamma, cfg.loss), 0.1)
        backward(loss)

    p = {key: t.data for key, t in stacks.items()}
    beta, rows = fwd.beta.data, fwd.x_norm.data.reshape(32, 12)
    pool_k = effective_top_k(cfg.lwa, 32, 12)
    mixed = None
    for m in range(k):
        out = _numpy_expert(kind, p, m, rows)
        assert fwd.outputs.data[m].tobytes() == out.reshape(8, 4, 6).tobytes(), m
        term = beta[:, :, m:m + 1] * out.reshape(8, 4, 6)
        mixed = term if mixed is None else mixed + term
        order = np.argsort(-beta[:, :, m].reshape(32), kind="stable")[:pool_k]
        w = nc.pinv(rows[order]).data @ out[order]
        assert signatures.data[m].tobytes() == w.tobytes(), m
    assert fwd.y_hat_norm.data.tobytes() == mixed.tobytes()

    leaves = [{key: nc.parameter(t.data[m].copy()) for key, t in stacks.items()}
              for m in range(k)]
    with recording():
        outs = [nc.reshape(_taped_expert(kind, leaves[m], rows), (8, 4, 6)) for m in range(k)]
        mix = None
        for m, out in enumerate(outs):
            term = nc.slice_axis(nc.constant(beta), 2, m, m + 1) * out
            mix = term if mix is None else mix + term
        y_hat = model.stationarizer.denormalize(mix, fwd.mu, fwd.sigma)
        sigs = []
        for m, out in enumerate(outs):
            order = np.argsort(-beta[:, :, m].reshape(32), kind="stable")[:pool_k]
            f_hat = nc.gather_rows(nc.reshape(out, (32, 6)), order)
            sigs.append(nc.matmul(nc.pinv(rows[order]), f_hat))
        stack = nc.concat([nc.reshape(s, (1, 12, 6)) for s in sigs])
        ref = total_loss(mse_loss(y_hat, nc.constant(y)),
                         similarity_constraint(stack, gamma, cfg.loss), 0.1)
        backward(ref)
    assert loss.item() == ref.item()
    for m in range(k):
        for key, t in stacks.items():
            assert t.grad[m].tobytes() == leaves[m][key].grad.tobytes(), (m, key)


@pytest.mark.parametrize("kind", KINDS)
def test_train_step_tape_does_not_grow_with_k(kind, monkeypatch):
    """A train step records the same number of tape entries at every K, and
    that number is pinned: a change that grows the tape has to say so. The
    gate's dropout is on, as in a training run, so its two entries count."""
    records = []
    real = pipeline.recording

    @contextmanager
    def kept(record=None):
        with real(record) as rec:
            records.append(rec)
            yield rec

    monkeypatch.setattr(pipeline, "recording", kept)
    data = toy_windows(24, channels=4)
    counts = []
    for k in (2, 4, 8):
        config = replace(_kind_config(kind, k), gate=GateConfig(embed_dim=8, heads=2))
        model = DisenTSModel(config, seed=24)
        opt = AdamState.for_params([t for _, t in model.named_parameters()], lr=1e-3)
        train_step(model, data.train_x[:8], data.train_y[:8], opt, train_rng(24))
        counts.append(len(records[-1]))
    entries = {"linear": 58, "decomp-linear": 62, "mlp": 59}[kind]
    assert counts == [entries] * 3, counts


def _unfolded_forecast_batch(backbone, x, stack=None):
    """The decomposition as its trend and seasonal heads, each taped on its own."""
    p, k = backbone.params, backbone.n_experts
    b, c, lookback = x.shape
    rows = x.data.reshape(b * c, lookback)
    trend = rows @ moving_average_matrix(lookback, backbone.config.decomp_kernel)

    def head(part, weight, bias):
        return nc.linear(nc.constant(np.broadcast_to(part, (k,) + part.shape)), p[weight], p[bias])

    out = head(trend, "trend_w", "trend_b") + head(rows - trend, "seasonal_w", "seasonal_b")
    return nc.reshape(out, (k, b, c, backbone.config.horizon))


@pytest.mark.parametrize("kernel", [1, 5, 11])
def test_folded_decomposition_matches_the_trend_and_seasonal_heads(kernel, monkeypatch):
    """The one folded layer gives the forecasts of the two heads, and the
    adjoints of all four parameters under an MSE + contrast loss, to 1e-12
    of their largest magnitude, from a kernel of one up to the lookback."""
    cfg = replace(small_config(3, lookback=11),
                  backbone=BackboneConfig("decomp-linear", 11, 6, decomp_kernel=kernel))
    rng = np.random.default_rng(40 + kernel)
    x, y = rng.normal(size=(8, 4, 11)), rng.normal(size=(8, 4, 6))
    values = {key: rng.normal(0.0, 0.3, size=t.shape)
              for key, t in DisenTSModel(cfg).backbone.params.items()}

    def run():
        model = DisenTSModel(cfg, seed=40)
        for key, t in model.backbone.params.items():
            t.data[...] = values[key]
        with recording():
            fwd = forward(model, x)
            loss = total_loss(mse_loss(fwd.y_hat, nc.constant(y)), similarity_constraint(
                pipeline.expert_signatures(model, fwd), model.registry.gamma, cfg.loss), 0.1)
            backward(loss)
        return [fwd.outputs.data] + [t.grad for t in model.backbone.params.values()]

    folded = run()
    monkeypatch.setattr(pipeline, "forecast_batch", _unfolded_forecast_batch)
    for got, want in zip(folded, run(), strict=True):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_predict_eval_mode_is_deterministic():
    model = DisenTSModel(small_config(2, dropout=0.3), seed=6)
    x = np.random.default_rng(6).normal(size=(3, 2, 12))
    assert np.array_equal(model.predict(x), model.predict(x))
    rng = train_rng(6)
    a = forward(model, x, training=True, rng=rng).y_hat.data
    b = forward(model, x, training=True, rng=rng).y_hat.data
    assert not np.array_equal(a, b)  # dropout masks differ between draws


def test_expert_zero_init_matches_baseline_backbone():
    model = DisenTSModel(small_config(3), seed=7)
    baseline = DisenTSModel(small_config(1), seed=7)
    assert baseline.gate is None
    assert not [name for name, _ in baseline.named_parameters() if name.startswith("gate.")]
    ours, theirs = model.backbone.params.items(), baseline.backbone.params.items()
    assert [name for name, _ in ours] == [name for name, _ in theirs]
    for (name, a), (_, b) in zip(ours, theirs):
        assert np.array_equal(a.data[0], b.data[0]), name


def test_arrays_and_set_parameter_share_one_set_of_names():
    model = DisenTSModel(small_config(2), seed=0)
    params = model.named_parameters()
    arrays = model.arrays()
    gate = [name for name, _ in params if name.startswith("gate.")]
    assert [name for name, _ in params] == ["experts.w", "experts.b"] + gate
    assert list(arrays) == [name for name, _ in params] + ["registry.gamma"]
    assert all(arrays[name] is t.data for name, t in params)  # the live stacks
    assert arrays["registry.gamma"] is model.registry.gamma
    stacks = model.backbone.params
    arrays["experts.b"][1] = 3.0
    assert (stacks["b"].data[1] == 3.0).all() and (stacks["b"].data[0] == 0.0).all()
    arrays["registry.gamma"][1] = 5.0
    assert (model.registry.gamma[1] == 5.0).all() and (model.registry.gamma[0] != 5.0).all()
    single = DisenTSModel(small_config(1), seed=0)
    for target, name in [(model, "expert2.w"), (model, "expertX.w"), (model, "expert01.w"),
                         (model, "expert0.nope"), (model, "gate.nope"), (model, "bogus.w"),
                         (model, "expert0"), (model, "expert0.w"), (model, "experts.nope"),
                         (single, "gate.w_in")]:
        with pytest.raises(ContractError, match="unknown parameter"):
            target.set_parameter(name, nc.constant(np.zeros(1)))
    replacement = nc.parameter(np.zeros((2, 12, 6)))
    model.set_parameter("experts.w", replacement)
    assert model.backbone.params["w"] is replacement


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_experts", [1, 3])
def test_array_shapes_lists_the_arrays_of_the_built_model(kind, n_experts):
    config = ModelConfig(n_experts, BackboneConfig(kind, 12, 6, hidden=9, decomp_kernel=5),
                         gate=GateConfig(embed_dim=8, heads=2))
    arrays = DisenTSModel(config).arrays()
    assert list(array_shapes(config).items()) == [(k, a.shape) for k, a in arrays.items()]


def test_train_step_updates_everything_in_order():
    model = DisenTSModel(small_config(2), seed=8)
    data = toy_windows(8)
    params = [t for _, t in model.named_parameters()]
    before = [t.data.copy() for t in params]
    opt = AdamState.for_params(params, lr=1e-3)
    report = train_step(model, data.train_x[:8], data.train_y[:8], opt, train_rng(8))
    assert model.step_count == 1
    assert model.registry.initialized == [True, True]
    assert any(not np.array_equal(b, t.data) for b, t in zip(before, params))
    assert np.isfinite([report.l_fc, report.l_sc, report.total]).all()
    assert len(report.epsilons) == 2 and all(np.isfinite(report.epsilons))
    assert abs(report.total - (report.l_fc + 0.1 * report.l_sc)) <= 1e-12


def test_train_step_determinism():
    data = toy_windows(9)

    def run():
        model = DisenTSModel(small_config(2, dropout=0.1), seed=9)
        params = [t for _, t in model.named_parameters()]
        opt = AdamState.for_params(params, lr=1e-3)
        rng = train_rng(9)
        for start in (0, 8, 16):
            train_step(model, data.train_x[start:start + 8],
                       data.train_y[start:start + 8], opt, rng)
        return model

    a, b = run(), run()
    for (name, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(ta.data, tb.data), name
    assert np.array_equal(a.registry.gamma, b.registry.gamma)


def test_zero_contrast_weight_matches_plain_step():
    """With the contrast weight at zero the parameter trajectory is the
    same as never building the contrast term at all."""
    data = toy_windows(10)
    cfg = small_config(2, sc_weight=0.0)
    auto = DisenTSModel(cfg, seed=10)
    manual = DisenTSModel(cfg, seed=10)
    auto_params = [t for _, t in auto.named_parameters()]
    manual_params = [t for _, t in manual.named_parameters()]
    auto_opt = AdamState.for_params(auto_params, lr=1e-3)
    manual_opt = AdamState.for_params(manual_params, lr=1e-3)
    auto_rng, manual_rng = train_rng(10), train_rng(10)
    for start in (0, 8, 16):
        x, y = data.train_x[start:start + 8], data.train_y[start:start + 8]
        train_step(auto, x, y, auto_opt, auto_rng)
        with recording():
            fwd = forward(manual, x, training=True, rng=manual_rng)
            l_fc = mse_loss(fwd.y_hat, nc.constant(y))
            k = effective_top_k(cfg.lwa, x.shape[0] * x.shape[1], cfg.backbone.lookback)
            sigs = [approximate(*select_top_k(fwd.beta, fwd.x_norm,
                                              fwd.expert_outputs[m], m, k))
                    for m in range(2)]
            backward(l_fc)
        adam_step(manual_params, [p.grad for p in manual_params], manual_opt)
        manual.registry.update(np.stack([sig.data for sig in sigs]))
    for (name, ta), (_, tb) in zip(auto.named_parameters(), manual.named_parameters()):
        assert np.array_equal(ta.data, tb.data), name
    assert np.array_equal(auto.registry.gamma, manual.registry.gamma)


def test_first_step_registry_equals_batch_signature():
    model = DisenTSModel(small_config(2), seed=11)
    data = toy_windows(11)
    x, y = data.train_x[:6], data.train_y[:6]
    # dropout is zero, so eval-mode routing equals the in-step routing
    fwd = forward(model, x)
    k = effective_top_k(model.config.lwa, 6 * 3, 12)
    expected = [approximate(*select_top_k(fwd.beta, fwd.x_norm,
                                          fwd.expert_outputs[m], m, k)).data
                for m in range(2)]
    opt = AdamState.for_params([t for _, t in model.named_parameters()], lr=1e-3)
    train_step(model, x, y, opt, train_rng(11))
    for m in range(2):
        assert np.array_equal(model.registry.gamma[m], expected[m])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nonfinite_loss_is_named_and_leaves_state_alone():
    model = DisenTSModel(small_config(2), seed=12)
    model.backbone.params["w"].data[0] = 1e200  # forecast squares to inf
    data = toy_windows(12)
    opt = AdamState.for_params([t for _, t in model.named_parameters()], lr=1e-3)
    with pytest.raises(NumericError, match="l_fc"):
        train_step(model, data.train_x[:4], data.train_y[:4], opt, train_rng(12))
    assert model.step_count == 0
    assert model.registry.initialized == [False, False]


def test_fit_history_and_early_stopping():
    data = toy_windows(13)
    model = DisenTSModel(small_config(2), seed=13)
    result = fit(model, data, TrainConfig(epochs=4, batch_size=16, patience=4, seed=13))
    assert 1 <= len(result.history) <= 4
    assert result.best_val_mse == min(r.val_mse for r in result.history)
    # the best-validation parameters were restored, so re-scoring reproduces it
    assert evaluate(model, data.val_x, data.val_y).mse == result.best_val_mse

    eager = DisenTSModel(small_config(2), seed=13)
    one = fit(eager, data, TrainConfig(epochs=10, batch_size=16, patience=0, seed=13))
    assert len(one.history) == 1


def test_restored_state_keeps_the_step_count_of_its_epoch(tmp_path):
    data = toy_windows(5)  # 40 windows in batches of 16: three steps an epoch
    model = DisenTSModel(small_config(2), seed=5)
    result = fit(model, data, TrainConfig(epochs=4, batch_size=16, lr=1e-2, patience=4, seed=5))
    val = [r.val_mse for r in result.history]
    best = int(np.argmin(val))
    assert best < len(val) - 1  # the restored state is not the last one trained
    assert model.step_count == 3 * (best + 1)
    assert evaluate(model, data.val_x, data.val_y).mse == result.best_val_mse
    save_model(model, tmp_path)
    loaded = load_model(tmp_path)
    assert loaded.step_count == model.step_count
    assert loaded.registry.initialized == model.registry.initialized
    for name, a in model.arrays().items():
        assert np.array_equal(a, loaded.arrays()[name]), name


def test_fit_writes_a_jsonl_log(tmp_path):
    data = toy_windows(14)
    model = DisenTSModel(small_config(2), seed=14)
    log = tmp_path / "log" / "train.jsonl"
    result = fit(model, data, TrainConfig(epochs=2, batch_size=16, patience=2, seed=14), log)
    lines = log.read_text().strip().splitlines()
    assert len(lines) == len(result.history)
    first = json.loads(lines[0])
    assert set(first) == {"epoch", "train_lfc", "train_lsc", "val_mse", "epsilons", "elapsed_s"}
    assert len(first["epsilons"]) == 2


class _Echo:
    """Stub predictor returning a fixed answer for every window."""

    def __init__(self, value):
        self.value = value

    def predict(self, x):
        return np.broadcast_to(self.value, x.shape[:2] + self.value.shape[-1:]).copy()


def test_evaluate_metrics_formulas():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(10, 3, 8))
    y = rng.normal(size=(10, 3, 4))
    zero = evaluate(_Echo(np.zeros(4)), x, y)
    assert abs(zero.mse - np.mean(y ** 2)) <= 1e-12
    assert abs(zero.mae - np.abs(y).mean()) <= 1e-12
    assert abs(zero.mse - np.mean(zero.per_channel_mse)) <= 1e-12
    assert len(zero.per_channel_mse) == 3
    for c in range(3):
        assert abs(zero.per_channel_mse[c] - np.mean(y[:, c] ** 2)) <= 1e-12


def test_evaluate_thread_count_independence(monkeypatch):
    model = DisenTSModel(small_config(2), seed=16)
    rng = np.random.default_rng(16)
    x = rng.normal(size=(2100, 2, 12))
    y = rng.normal(size=(2100, 2, 6))
    assert x.shape[0] > 2 * (pipeline.PREDICT_ROWS // 2)  # three chunks
    monkeypatch.setenv("DISENTS_THREADS", "1")
    serial = evaluate(model, x, y)
    monkeypatch.setenv("DISENTS_THREADS", "4")
    threaded = evaluate(model, x, y)
    assert serial.mse == threaded.mse and serial.mae == threaded.mae
    assert serial.per_channel_mse == threaded.per_channel_mse
    monkeypatch.setenv("DISENTS_THREADS", "3")
    from_env = evaluate(model, x, y)
    assert from_env.mse == serial.mse
    for bad in ("abc", "0", "-7"):
        monkeypatch.setenv("DISENTS_THREADS", bad)
        with pytest.raises(ConfigError, match="DISENTS_THREADS"):
            evaluate(model, x, y)


def test_evaluate_input_validation():
    model = DisenTSModel(small_config(1), seed=17)
    with pytest.raises(ShapeError):
        evaluate(model, np.zeros((4, 2, 12)), np.zeros((3, 2, 6)))
    with pytest.raises(ConfigError):
        evaluate(model, np.zeros((0, 2, 12)), np.zeros((0, 2, 6)))
    with pytest.raises(ConfigError, match="one channel"):  # used to divide 0 by 0 into mse nan
        evaluate(model, np.zeros((4, 0, 12)), np.zeros((4, 0, 6)))
    with pytest.raises(ShapeError, match="does not match targets"):  # used to broadcast
        evaluate(model, np.zeros((4, 2, 12)), np.zeros((4, 2, 1)))


def test_mean_routing_is_a_channel_simplex():
    model = DisenTSModel(small_config(3), seed=18)
    x = np.random.default_rng(18).normal(size=(20, 4, 12))
    avg = mean_routing(model, x)
    assert avg.shape == (4, 3)
    assert (avg >= 0).all()
    assert np.abs(avg.sum(axis=1) - 1.0).max() <= 1e-12


def test_single_expert_run_pairs_with_unified_baseline():
    """One-expert train steps at the default gate dropout are, bit for bit,
    a plain stationarized single-backbone step, and draw nothing from the
    training stream."""
    cfg = ModelConfig(n_experts=1, backbone=BackboneConfig("linear", 12, 6))
    assert cfg.gate.dropout == 0.1
    model = DisenTSModel(cfg, seed=19)
    backbone = Backbone(cfg.backbone, 1, init_rng(19))
    params = [t for _, t in model.named_parameters()]
    plain = [t for _, t in backbone.params.items()]
    assert len(params) == len(plain)
    opt, plain_opt = AdamState.for_params(params, lr=1e-3), AdamState.for_params(plain, lr=1e-3)
    rng, plain_rng = train_rng(19), train_rng(19)
    st = Stationarizer()
    data = toy_windows(19)
    for start in (0, 8, 16):
        x, y = data.train_x[start:start + 8], data.train_y[start:start + 8]
        report = train_step(model, x, y, opt, rng)
        with recording():
            xn, mu, sigma = st.normalize(x)
            out = nc.reshape(forecast_batch(backbone, nc.constant(xn)), y.shape)
            l_fc = mse_loss(st.denormalize(out, mu, sigma), nc.constant(y))
            backward(l_fc)
        adam_step(plain, [p.grad for p in plain], plain_opt)
        assert report.l_fc == report.total == l_fc.item()
        assert report.l_sc == 0.0 and report.epsilons == []
    for ours, theirs in zip(params, plain):
        assert np.array_equal(ours.data, theirs.data)
    assert rng.random() == plain_rng.random()


class _Fresh:
    """A model's forecasts with the signatures embedded on every call: under
    a recording tape `forward` leaves the cached embedding alone."""

    def __init__(self, model):
        self.model = model

    def predict(self, x):
        with recording():
            return forward(self.model, x, training=False).y_hat.data


def _count_calls(monkeypatch, owners, name) -> list:
    calls = []
    original = getattr(owners[0], name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def _count_embeddings(monkeypatch) -> list:
    return _count_calls(monkeypatch, [gating], "embed_forecasters")


def _count_folds(monkeypatch) -> list:
    """Every derivation of a backbone's `layers`: a decomposition's fold."""
    return _count_calls(monkeypatch, [backbones, pipeline], "layers")


_DECOMP = BackboneConfig("decomp-linear", 12, 6, decomp_kernel=5)


def _trained(config, seed, steps=3):
    model = DisenTSModel(config, seed=seed)
    data = toy_windows(seed)
    opt = AdamState.for_params([t for _, t in model.named_parameters()], lr=1e-2)
    rng = train_rng(seed)
    for step in range(steps):
        train_step(model, data.train_x[8 * step:8 * step + 8], data.train_y[8 * step:8 * step + 8],
                   opt, rng)
    return model, data, opt, rng


def test_cached_signature_embedding_gives_the_fresh_outputs(monkeypatch):
    model, data, _, _ = _trained(small_config(3), seed=23)
    x, y = data.test_x, data.test_y
    fresh = _Fresh(model)
    cached = model.predict(x)
    assert np.array_equal(cached, fresh.predict(x))
    assert np.array_equal(model.predict(x), cached)
    # A stack of 2048 channels: chunks of one window, one per test window.
    x, y = _wide_stack(23, x.shape[0])
    for threads in ("1", "2"):
        monkeypatch.setenv("DISENTS_THREADS", threads)
        assert evaluate(model, x, y) == evaluate(fresh, x, y)
    # Threads racing to fill a cold cache, more of them than cores, switching often.
    model.set_parameter("gate.sig_b2", nc.parameter(model.gate.params["sig_b2"].data + 0.1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    monkeypatch.setenv("DISENTS_THREADS", "8")
    try:
        raced = evaluate(model, x, y)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setenv("DISENTS_THREADS", "1")
    assert raced == evaluate(fresh, x, y)


def _wide_stack(seed, windows, channels=pipeline.PREDICT_ROWS):
    """Random 12 -> 6 windows and targets with enough channels that an eval
    stack of a few windows spans several chunks."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(windows, channels, 12)), rng.normal(size=(windows, channels, 6))


def test_mean_routing_sums_its_chunks_on_the_pool_at_any_thread_count(monkeypatch):
    """mean_routing is a hand loop over the chunks of the stack, routed with
    freshly embedded signatures, at every thread count."""
    model, _, _, _ = _trained(small_config(3), seed=23)
    x, _ = _wide_stack(35, 7, channels=1000)
    step = pipeline.PREDICT_ROWS // x.shape[1]
    assert step == 2 and x.shape[0] > 3 * step  # four chunks
    totals = np.zeros((x.shape[1], 3))
    for start in range(0, x.shape[0], step):
        xn, _, _ = model.stationarizer.normalize(x[start:start + step])
        totals += route(nc.constant(xn), model.registry.gamma, model.gate).data.sum(axis=0)
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("DISENTS_THREADS", threads)
        assert mean_routing(model, x).tobytes() == (totals / x.shape[0]).tobytes()


def test_serving_embeds_the_signatures_once(monkeypatch):
    """Ten B=1 predicts and a multi-chunk evaluate embed the signatures and
    derive the backbone's layers (a decomposition's fold) once."""
    data = toy_windows(24)
    calls, folds = _count_embeddings(monkeypatch), _count_folds(monkeypatch)
    for backbone in (small_config(2).backbone, _DECOMP):
        model = DisenTSModel(replace(small_config(2), backbone=backbone), seed=24)
        start = len(calls), len(folds)
        monkeypatch.setenv("DISENTS_THREADS", "1")
        for i in range(10):
            model.predict(data.test_x[i:i + 1])
        monkeypatch.setenv("DISENTS_THREADS", "2")
        evaluate(model, *_wide_stack(24, 6))  # six chunks
        assert (len(calls) - start[0], len(folds) - start[1]) == (1, 1), backbone.kind


def test_cached_decomp_layers_give_the_fresh_outputs(monkeypatch):
    """A decomp-linear model serves its cached fold: predict and evaluate of
    stacks of several chunks equal forwards that fold afresh on the tape,
    at 1, 2 and 3 threads, and threads racing to fill a cold cache too."""
    model, data, _, _ = _trained(replace(small_config(3), backbone=_DECOMP), seed=41)
    fresh = _Fresh(model)
    x, y = _wide_stack(41, 5)  # five chunks of one window
    chunks = np.concatenate([fresh.predict(x[s]) for s in pipeline._chunks(x)])
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("DISENTS_THREADS", threads)
        assert model.predict(x).tobytes() == chunks.tobytes()
        assert evaluate(model, x, y) == evaluate(fresh, x, y)
    trend_w = model.backbone.params["trend_w"]
    model.set_parameter("experts.trend_w", nc.parameter(trend_w.data + 0.01))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    monkeypatch.setenv("DISENTS_THREADS", "8")
    try:
        raced = evaluate(model, x, y)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setenv("DISENTS_THREADS", "1")
    assert raced == evaluate(fresh, x, y)


def _write_train_step(model, data, opt, rng, tmp_path):
    gamma = model.registry.gamma.copy()
    train_step(model, data.train_x[24:32], data.train_y[24:32], opt, rng)
    assert np.array_equal(model.registry.gamma, gamma)  # alpha 1: only the weights moved
    return model


def _write_fit_restore(model, data, opt, rng, tmp_path):
    result = fit(model, data, TrainConfig(epochs=4, batch_size=16, lr=1e-2, patience=4, seed=22))
    assert int(np.argmin([r.val_mse for r in result.history])) < len(result.history) - 1
    return model


def _write_load_arrays(model, data, opt, rng, tmp_path):
    saved = {name: a.copy() for name, a in model.arrays().items()}
    if "experts.trend_w" in saved:
        saved["experts.trend_w"][0] *= 1.5
    else:
        saved["gate.sig_w1"] *= 1.5
    model.load_arrays(saved)
    return model


def _write_load_model(model, data, opt, rng, tmp_path):
    save_model(model, tmp_path)
    return load_model(tmp_path)


def _write_set_parameter(model, data, opt, rng, tmp_path):
    name = "experts.trend_w" if "trend_w" in model.backbone.params else "gate.sig_w2"
    model.set_parameter(name, nc.parameter(dict(model.named_parameters())[name].data * 1.5))
    return model


def _write_registry_array(model, data, opt, rng, tmp_path):
    model.arrays()["registry.gamma"][1] *= 1.5
    return model


def _write_registry_update(model, data, opt, rng, tmp_path):
    model.registry.alpha = 0.5  # at 1.0 an update leaves the registry as it is
    model.registry.update(np.ones_like(model.registry.gamma))
    return model


@pytest.mark.parametrize("write", [_write_train_step, _write_fit_restore, _write_load_arrays,
                                   _write_load_model, _write_set_parameter,
                                   _write_registry_array, _write_registry_update],
                         ids=lambda f: f.__name__[len("_write_"):])
def test_each_write_path_embeds_the_signatures_once_more(write, tmp_path, monkeypatch):
    """After each write, evaluation embeds the signatures and derives the
    backbone's layers once more, for a `linear` and a `decomp-linear`
    model, and serves the outputs of the written state."""
    calls, folds = _count_embeddings(monkeypatch), _count_folds(monkeypatch)
    for backbone in (small_config(2).backbone, _DECOMP):
        config = replace(small_config(2), backbone=backbone, lwa=LwaConfig(alpha=1.0))
        model, data, opt, rng = _trained(config, seed=22, steps=1)
        x = data.test_x
        start = len(calls), len(folds)
        before = model.predict(x)
        assert np.array_equal(model.predict(x), before)
        assert (len(calls) - start[0], len(folds) - start[1]) == (1, 1)
        target = write(model, data, opt, rng, tmp_path / backbone.kind)
        start = len(calls), len(folds)
        after = target.predict(x)
        assert np.array_equal(target.predict(x), after)
        assert (len(calls) - start[0], len(folds) - start[1]) == (1, 1), backbone.kind
        rebuilt = DisenTSModel(config, seed=0)
        rebuilt.load_arrays({name: a.copy() for name, a in target.arrays().items()})
        assert np.array_equal(after, rebuilt.predict(x))
        assert np.array_equal(after, _Fresh(target).predict(x))
        if write is not _write_load_model:
            assert not np.array_equal(after, before)


def test_load_arrays_takes_every_array_at_its_shape():
    model = DisenTSModel(small_config(2), seed=0)
    saved = {name: a.copy() for name, a in model.arrays().items()}
    with pytest.raises(ContractError, match="registry.gamma"):
        model.load_arrays({k: v for k, v in saved.items() if k != "registry.gamma"})
    saved["gate.sig_b1"] = saved["gate.sig_b1"][:1]  # would broadcast
    with pytest.raises(ShapeError, match="gate.sig_b1"):
        model.load_arrays(saved)


def test_recorded_eval_forward_still_trains_the_signature_mlp():
    model = DisenTSModel(small_config(2), seed=25)
    data = toy_windows(25)
    model.predict(data.test_x)  # fills the cache
    with recording():
        fwd = forward(model, data.test_x, training=False)
        backward(mse_loss(fwd.y_hat, nc.constant(data.test_y)))
    grad = model.gate.params["sig_w1"].grad
    assert grad is not None and np.abs(grad).max() > 0


def test_window_views_give_the_bits_of_contiguous_copies(monkeypatch):
    """Windows are strided views of their split; every model output on them
    equals the output on C-contiguous copies, bit for bit."""
    ds = synth_generate(default_two_group(), length=1000, channels_per_group=2, seed=26)
    spec = WindowSpec(lookback=48, horizon=24)
    views = make_windows(split_standardize(ds, spec), spec)
    assert not views.test_x.flags.c_contiguous
    copies = WindowedData(*(np.ascontiguousarray(a) for a in vars(views).values()))
    config = small_config(2, lookback=48, horizon=24)

    def outputs(data):
        model = DisenTSModel(config, seed=26)
        opt = AdamState.for_params([t for _, t in model.named_parameters()], lr=1e-3)
        report = train_step(model, data.train_x[5:21], data.train_y[5:21], opt, train_rng(26))
        got = [np.array([report.l_fc, report.l_sc, report.total, *report.epsilons]),
               *model.arrays().values(), model.predict(data.test_x),
               mean_routing(model, data.val_x)]
        for threads in ("1", "2"):
            monkeypatch.setenv("DISENTS_THREADS", threads)
            m = evaluate(model, data.test_x, data.test_y)
            got.append(np.array([m.mse, m.mae, *m.per_channel_mse]))
        return got

    for a, b in zip(outputs(views), outputs(copies), strict=True):
        assert a.tobytes() == b.tobytes()


def _wide_gate_model(seed, k=4):
    """A K-expert model whose default 64-wide gate FFN (256 columns) crosses
    numcore.SPLIT_MIN once a forward holds 256 or more channel rows."""
    return DisenTSModel(ModelConfig(n_experts=k, backbone=BackboneConfig("linear", 12, 6)),
                        seed=seed)


def test_train_steps_are_bit_identical_at_one_two_and_three_threads(monkeypatch):
    """A 40-window `linear` 12->6 batch splits the gate FFN; 16 windows of
    16 channels at `decomp-linear` 96->96 also split LWA's [4, 192, 96]
    pinv, signature_error's products and Adam over gate.sig_w1."""
    rng = np.random.default_rng(27)
    x, y = rng.normal(size=(120, 8, 12)), rng.normal(size=(120, 8, 6))
    x_long, y_long = rng.normal(size=(32, 16, 96)), rng.normal(size=(32, 16, 96))
    assert 40 * 8 * 4 * 64 >= nc.SPLIT_MIN  # a 40-window batch splits the gate FFN
    long_config = ModelConfig(n_experts=4, backbone=BackboneConfig("decomp-linear", 96, 96))
    assert effective_top_k(long_config.lwa, 16 * 16, 96) * 96 * 4 >= nc.SPLIT_MIN

    def run(model, x, y, batch):
        opt = AdamState.for_params([t for _, t in model.named_parameters()], lr=1e-3)
        step_rng = train_rng(27)
        got = []
        for start in range(0, x.shape[0], batch):
            report = train_step(model, x[start:start + batch], y[start:start + batch], opt, step_rng)
            got.append(np.array([report.l_fc, report.l_sc, report.total, *report.epsilons]))
        return got + list(model.arrays().values()) + opt.m + opt.v

    def outputs(threads):
        monkeypatch.setenv("DISENTS_THREADS", threads)
        long_model = DisenTSModel(long_config, seed=27)
        assert dict(long_model.named_parameters())["gate.sig_w1"].size >= nc.SPLIT_MIN
        return run(_wide_gate_model(27), x, y, 40) + run(long_model, x_long, y_long, 16)

    serial = outputs("1")
    assert nc._POOL is None
    for threads in ("2", "3"):
        threaded = outputs(threads)
        assert nc._POOL is not None
        for a, b in zip(serial, threaded, strict=True):
            assert a.tobytes() == b.tobytes()


@given(windows=st.integers(1, 300))
@settings(max_examples=25)
def test_evaluate_is_bit_identical_at_any_thread_count(windows):
    """Up to three chunks of 128 windows; a chunk of 16 windows or more
    (256 channel rows) splits the gate FFN over the pool when it runs on
    the calling thread."""
    model = _wide_gate_model(28, k=2)
    rng = np.random.default_rng(28)
    x, y = rng.normal(size=(300, 16, 12)), rng.normal(size=(300, 16, 6))
    assert pipeline.PREDICT_ROWS // 16 == 128
    results = []
    for threads in ("1", "2", "3"):
        with mock.patch.dict(os.environ, {"DISENTS_THREADS": threads}):
            results.append(evaluate(model, x[:windows], y[:windows]))
    assert results[0] == results[1] == results[2]


def test_threaded_evaluate_of_large_batches_finishes():
    """Chunks run on pool workers, and a worker runs the GELU rows of its
    chunk itself: if it queued them on the pool it shares with the other
    chunks, every worker would wait on work that no worker is free to run."""
    model = _wide_gate_model(29, k=2)
    rng = np.random.default_rng(29)
    x, y = rng.normal(size=(300, 16, 12)), rng.normal(size=(300, 16, 6))
    assert x.shape[0] > 2 * (pipeline.PREDICT_ROWS // 16)  # three chunks
    result = []
    with mock.patch.dict(os.environ, {"DISENTS_THREADS": "2"}):
        runner = threading.Thread(
            target=lambda: result.append(evaluate(model, x, y)), daemon=True)
        runner.start()
        runner.join(timeout=60)
    assert not runner.is_alive(), "evaluate did not finish within 60 s"
    with mock.patch.dict(os.environ, {"DISENTS_THREADS": "1"}):
        assert result == [evaluate(model, x, y)]


def test_threaded_evaluate_of_a_large_expert_stack_finishes(monkeypatch):
    """A decomp-linear forward of 64 windows x 8 channels holds [4, 512, 32]
    expert stacks, SPLIT_MIN elements each. As one chunk of 256 windows on
    the calling thread, every stacked `linear` splits over the pool by
    matrix; as three chunks on pool workers, each runs inline. Both finish
    and match one thread."""
    model = DisenTSModel(ModelConfig(n_experts=4, backbone=BackboneConfig(
        "decomp-linear", 16, 32, decomp_kernel=5)), seed=30)
    rng = np.random.default_rng(30)
    x, y = rng.normal(size=(600, 8, 16)), rng.normal(size=(600, 8, 32))
    step = pipeline.PREDICT_ROWS // 8
    assert 4 * 64 * 8 * 32 >= nc.SPLIT_MIN and 2 * step < x.shape[0]
    stacks, real = [], nc.by_rows

    def spy(fn, a):
        if a.ndim == 3 and a.shape[0] == 4:
            stacks.append(a.size)
        return real(fn, a)

    monkeypatch.setattr(nc, "by_rows", spy)
    result = []
    with mock.patch.dict(os.environ, {"DISENTS_THREADS": "2"}):
        runner = threading.Thread(target=lambda: result.extend(
            evaluate(model, x[:n], y[:n]) for n in (step, x.shape[0])), daemon=True)
        runner.start()
        runner.join(timeout=60)
    assert not runner.is_alive(), "evaluate did not finish within 60 s"
    assert max(stacks) >= nc.SPLIT_MIN
    with mock.patch.dict(os.environ, {"DISENTS_THREADS": "1"}):
        assert result == [evaluate(model, x[:n], y[:n]) for n in (step, x.shape[0])]


def _peak_mib(fn) -> float:
    """The tracemalloc peak of one call of `fn`, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_peak_memory_of_a_predict_chunk_is_pinned(monkeypatch):
    """One full chunk of 64 windows x 32 channels at `linear` 48 -> 24 and
    K=4 peaked at 6.85 MiB on NumPy 2.4 (15.78 MiB before the gate's FFN ran
    GELU in place, the experts were mixed without a [K, B, C, H] product and
    the gate let go of its query rows before the FFN); the bound adds 0.7
    MiB of slack. A change that cuts the peak moves the bound down.

    Its largest array is the 4 MiB [2048, 256] gate FFN hidden layer, and
    the peak must stay under twice that, 8 MiB. glibc trims a thread's heap
    when its free top exceeds twice the largest mmapped block freed so far,
    so a chunk that peaks below that leaves a pool worker's heap as it was,
    and the next chunk runs on pages already faulted in."""
    monkeypatch.setenv("DISENTS_THREADS", "1")
    model = DisenTSModel(ModelConfig(n_experts=4, backbone=BackboneConfig("linear", 48, 24)),
                         seed=36)
    x = np.random.default_rng(36).normal(size=(64, 32, 48))
    assert len(pipeline._chunks(x)) == 1
    model.predict(x[:1])  # embeds the signatures
    peak = _peak_mib(lambda: model.predict(x))
    assert peak < 2 * 2048 * 256 * 8 / 2**20
    assert peak <= 7.55


def test_peak_memory_of_a_decomp_predict_chunk_is_pinned(monkeypatch):
    """The same chunk at `decomp-linear` 96 -> 96 and K=4 peaked at 12.16 MiB
    on NumPy 2.4 (21.10 MiB with the trend and seasonal heads run one by
    one, 16.53 MiB with the decomposition folded into one cached layer and
    before the cuts named in the `linear` pin); the bound adds 0.7 MiB of
    slack. A change that cuts the peak moves the bound down."""
    monkeypatch.setenv("DISENTS_THREADS", "1")
    model = DisenTSModel(ModelConfig(n_experts=4, backbone=BackboneConfig(
        "decomp-linear", 96, 96)), seed=36)
    x = np.random.default_rng(36).normal(size=(64, 32, 96))
    assert len(pipeline._chunks(x)) == 1
    model.predict(x[:1])  # embeds the signatures and folds the layers
    assert _peak_mib(lambda: model.predict(x)) <= 12.86


def _second_step():
    """A K=4 step at criterion 8's shape (`linear` 48 -> 24, 16 channels,
    batch 32), as a call that runs it again after a first one."""
    model = DisenTSModel(ModelConfig(n_experts=4, backbone=BackboneConfig("linear", 48, 24)),
                         seed=37)
    opt = AdamState.for_params([t for _, t in model.named_parameters()], lr=1e-3)
    rng, data = train_rng(37), np.random.default_rng(37)
    x, y = data.normal(size=(32, 16, 48)), data.normal(size=(32, 16, 24))
    train_step(model, x, y, opt, rng)
    return lambda: train_step(model, x, y, opt, rng)


def test_peak_memory_of_a_train_step_is_pinned(monkeypatch):
    """The step of `_second_step` peaked at 9.34 MiB on NumPy 2.4 from the
    second step on (9.75 MiB while the experts were mixed through a
    [K, B, C, H] product); the bound adds 0.5 MiB of slack. A change that
    cuts the peak moves the bound down."""
    monkeypatch.setenv("DISENTS_THREADS", "1")
    assert _peak_mib(_second_step()) <= 9.84


def test_memory_a_train_step_leaves_allocated_is_pinned(monkeypatch):
    """What the step of `_second_step` allocates and leaves held when it
    returns: the gradients on the parameters. It read 2.83 MiB on NumPy 2.4
    while `gate.sig_w1` held its whole [1152, 256] gradient, and reads 0.62
    MiB now that it holds the gradient's two factors; the bound adds 0.4 MiB
    of slack."""
    monkeypatch.setenv("DISENTS_THREADS", "1")
    step = _second_step()
    tracemalloc.start()
    try:
        step()
        held = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    assert held <= 1.0


def _chunked_batch():
    """A trained K=3 model with the default 64-wide gate and 1500 windows of
    3 channels: three predict chunks of 682, 682 and 136 windows. Its
    `w_out` head gives other last bits on other row counts, so a cut in
    other places shows."""
    config = ModelConfig(n_experts=3, backbone=BackboneConfig("linear", 12, 6))
    model, _, _, _ = _trained(config, seed=32)
    rng = np.random.default_rng(32)
    x = rng.normal(size=(1500, 3, 12)) * 2.0 + rng.normal(size=(1500, 3, 1))
    step = pipeline.PREDICT_ROWS // 3
    assert step == 682 and 2 * step < x.shape[0] < 3 * step
    return model, x, step


def test_predict_is_the_forward_of_its_row_chunks_at_any_thread_count(monkeypatch):
    model, x, step = _chunked_batch()
    chunks = np.concatenate([forward(model, x[i:i + step]).y_hat.data
                             for i in range(0, x.shape[0], step)])
    whole = forward(model, x).y_hat.data
    assert np.abs(chunks - whole).max() <= 1e-12 * np.abs(whole).max()
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("DISENTS_THREADS", threads)
        assert model.predict(x).tobytes() == chunks.tobytes()
        assert model.predict(x[:step]).tobytes() == forward(model, x[:step]).y_hat.data.tobytes()


def test_evaluate_of_batches_spanning_several_chunks_is_thread_invariant(monkeypatch):
    model, x, _ = _chunked_batch()
    y = np.random.default_rng(33).normal(size=(x.shape[0], 3, 6))
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("DISENTS_THREADS", threads)
        results.append(evaluate(model, x, y))
    assert results[0] == results[1]


def test_a_nan_window_in_a_later_chunk_raises_from_predict(monkeypatch):
    model, x, step = _chunked_batch()
    x[step + 5, 1, 3] = np.nan
    for threads in ("1", "2"):
        monkeypatch.setenv("DISENTS_THREADS", threads)
        with pytest.raises(NumericError):
            model.predict(x)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_predict_returns_an_empty_forecast_for_no_windows_or_no_channels(k):
    model = DisenTSModel(small_config(k), seed=34)
    for shape in [(0, 3, 12), (4, 0, 12), (0, 0, 12), (pipeline.PREDICT_ROWS + 1, 0, 12)]:
        assert model.predict(np.zeros(shape)).shape == shape[:2] + (6,)


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-10, 8),
       offset=st.floats(-1e6, 1e6), flat=st.sampled_from([0.0, 1e-13, 1.0]))
def test_stationarizer_round_trip_holds_to_the_input_scale(seed, log_scale, offset, flat):
    """normalize then denormalize returns every window-channel to within
    1e-12 of its largest magnitude, at any scale, including near-constant
    and constant channels (`flat` shrinks the variation of channel 0)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4, 16)) * 10.0 ** log_scale * rng.uniform(0.1, 10.0, size=(1, 4, 1))
    x += offset
    x[:, 0] = offset + (x[:, 0] - offset) * flat
    stationarizer = Stationarizer()
    xn, mu, sigma = stationarizer.normalize(x)
    back = stationarizer.denormalize(nc.constant(xn), mu, sigma).data
    scale = np.abs(x).max(axis=2, keepdims=True)
    assert (np.abs(back - x) <= 1e-12 * scale).all()
