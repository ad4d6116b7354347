"""Backbones: forward values against hand-built oracles, decomposition
behaviour, init statistics, and batch/row agreement."""

import numpy as np
import pytest
from scipy.special import erf

import disents.numcore as nc
from disents.backbones import (Backbone, BackboneConfig, forecast_batch, forecast_rows,
                               moving_average_matrix)
from disents.errors import ConfigError, ShapeError
from disents.numcore import Tensor, grad_check


def build(kind, lookback=8, horizon=4, seed=0, **kw):
    return Backbone(BackboneConfig(kind, lookback, horizon, **kw), 1, np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ConfigError):
        BackboneConfig("conv", 8, 4)
    with pytest.raises(ConfigError):
        BackboneConfig("linear", 0, 4)
    with pytest.raises(ConfigError):
        BackboneConfig("decomp-linear", 8, 4, decomp_kernel=4)  # even
    with pytest.raises(ConfigError):
        BackboneConfig("decomp-linear", 8, 4, decomp_kernel=9)  # larger than lookback
    with pytest.raises(ConfigError):
        BackboneConfig("mlp", 8, 4, hidden=0)


def test_linear_identity_and_bias():
    bb = build("linear", lookback=4, horizon=4)
    bb.params["w"].data = np.eye(4)[None]
    bb.params["b"].data = np.zeros((1, 4))
    x = np.random.default_rng(1).normal(size=(3, 4))
    assert np.array_equal(forecast_rows(bb, x).data[0], x)
    bb.params["w"].data = np.zeros((1, 4, 4))
    bb.params["b"].data = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert np.array_equal(forecast_rows(bb, x).data[0], np.tile([1.0, 2.0, 3.0, 4.0], (3, 1)))


def test_linear_matches_manual_numpy():
    bb = build("linear", lookback=6, horizon=3, seed=5)
    x = np.random.default_rng(2).normal(size=(7, 6))
    manual = x @ bb.params["w"].data[0] + bb.params["b"].data[0]
    assert np.allclose(forecast_rows(bb, x).data[0], manual, atol=1e-15)


def test_moving_average_matrix_properties():
    m = moving_average_matrix(10, 5)
    assert np.allclose(m.sum(axis=0), 1.0, atol=1e-15)  # each output averages k inputs
    x = np.full((2, 10), 3.7)
    assert np.allclose(x @ m, 3.7, atol=1e-12)  # constant in, constant out
    ramp = np.arange(10.0)[None, :]
    trend = ramp @ m
    assert np.abs(trend[0, 2:8] - ramp[0, 2:8]).max() <= 1e-9  # interior of a ramp is exact
    assert np.allclose(moving_average_matrix(6, 1), np.eye(6))


def test_decomp_constant_series_oracle():
    bb = build("decomp-linear", lookback=8, horizon=4, seed=3, decomp_kernel=5)
    c = 2.5
    x = np.full((2, 8), c)
    # trend == c everywhere, seasonal == 0, so the output reduces to
    # c * column-sums of the trend head plus both biases
    expect = c * bb.params["trend_w"].data[0].sum(axis=0) + bb.params["trend_b"].data[0] \
        + bb.params["seasonal_b"].data[0]
    assert np.allclose(forecast_rows(bb, x).data[0], expect, atol=1e-12)


def test_decomp_kernel_one_degenerates_to_trend_only():
    bb = build("decomp-linear", lookback=8, horizon=4, seed=4, decomp_kernel=1)
    x = np.random.default_rng(3).normal(size=(5, 8))
    expect = x @ bb.params["trend_w"].data[0] + bb.params["trend_b"].data[0] \
        + bb.params["seasonal_b"].data[0]  # seasonal part sees exact zeros
    assert np.allclose(forecast_rows(bb, x).data[0], expect, atol=1e-12)


def test_decomp_matches_manual_numpy():
    bb = build("decomp-linear", lookback=12, horizon=5, seed=6, decomp_kernel=5)
    x = np.random.default_rng(4).normal(size=(4, 12))
    m = moving_average_matrix(12, 5)
    trend = x @ m
    seasonal = x - trend
    manual = trend @ bb.params["trend_w"].data[0] + bb.params["trend_b"].data[0] \
        + seasonal @ bb.params["seasonal_w"].data[0] + bb.params["seasonal_b"].data[0]
    assert np.allclose(forecast_rows(bb, x).data[0], manual, atol=1e-12)


def test_mlp_matches_manual_numpy():
    bb = build("mlp", lookback=6, horizon=3, seed=7, hidden=10)
    x = np.random.default_rng(5).normal(size=(4, 6))
    pre = x @ bb.params["w1"].data[0] + bb.params["b1"].data[0]
    hidden = pre * 0.5 * (1.0 + erf(pre / np.sqrt(2.0)))
    manual = hidden @ bb.params["w2"].data[0] + bb.params["b2"].data[0]
    assert np.allclose(forecast_rows(bb, x).data[0], manual, atol=1e-12)


def test_param_counts():
    def count(bb):
        return sum(t.size for t in bb.params.values())

    assert count(build("linear", 8, 4)) == 8 * 4 + 4
    assert count(build("decomp-linear", 8, 4, decomp_kernel=5)) == 2 * (8 * 4 + 4)
    assert count(build("mlp", 8, 4, hidden=16)) == 8 * 16 + 16 + 16 * 4 + 4
    stack = Backbone(BackboneConfig("mlp", 8, 4, hidden=16), 3, np.random.default_rng(0))
    assert count(stack) == 3 * (8 * 16 + 16 + 16 * 4 + 4)  # summed over the K experts


def test_init_statistics_and_distinct_seeds():
    bb = build("mlp", 32, 16, seed=0, hidden=64)
    weights = np.concatenate([bb.params["w1"].data[0].ravel(), bb.params["w2"].data[0].ravel()])
    assert 0.015 <= weights.std() <= 0.025
    assert abs(weights.mean()) <= 0.005
    assert np.array_equal(bb.params["b1"].data[0], np.zeros(64))
    other = build("mlp", 32, 16, seed=1, hidden=64)
    assert not np.array_equal(bb.params["w1"].data[0], other.params["w1"].data[0])
    again = build("mlp", 32, 16, seed=0, hidden=64)
    assert np.array_equal(bb.params["w1"].data[0], again.params["w1"].data[0])


def test_batch_equals_per_row_loop():
    for kind in ("linear", "decomp-linear", "mlp"):
        bb = build(kind, lookback=8, horizon=4, seed=9, decomp_kernel=3)
        x = np.random.default_rng(6).normal(size=(3, 5, 8))
        batched = forecast_batch(bb, x).data[0]
        for b in range(3):
            for c in range(5):
                row = forecast_rows(bb, x[b, c][None, :]).data[0, 0]
                assert np.abs(batched[b, c] - row).max() <= 1e-12


def test_channel_permutation_equivariance():
    bb = build("linear", lookback=8, horizon=4, seed=10)
    x = np.random.default_rng(7).normal(size=(2, 6, 8))
    perm = np.random.default_rng(8).permutation(6)
    direct = forecast_batch(bb, x[:, perm]).data[0]
    permuted = forecast_batch(bb, x).data[0][:, perm]
    assert np.array_equal(direct, permuted)


def test_shape_errors():
    bb = build("linear", lookback=8, horizon=4)
    with pytest.raises(ShapeError):
        forecast_rows(bb, np.ones((3, 7)))
    with pytest.raises(ShapeError):
        forecast_batch(bb, np.ones((3, 8)))


@pytest.mark.parametrize("kind", ["linear", "decomp-linear", "mlp"])
def test_gradients_reach_all_params(kind):
    bb = build(kind, lookback=6, horizon=3, seed=11, decomp_kernel=3, hidden=8)
    x = np.random.default_rng(9).normal(size=(4, 6))
    weights = np.random.default_rng(10).normal(size=(4, 3))
    for name, param in bb.params.items():
        def f(t, _name=name):
            bb.params[_name] = t
            try:
                return nc.sum(nc.multiply(forecast_rows(bb, x), weights))
            finally:
                bb.params[_name] = param

        assert grad_check(f, Tensor(param.data)) <= 1e-4, f"{kind}.{name}"


def test_folded_decomposition_gradients_at_three_experts():
    """The decomposition's fold is taped: each of its four parameter stacks
    passes a grad_check through `forecast_rows` at K=3."""
    bb = Backbone(BackboneConfig("decomp-linear", 7, 3, decomp_kernel=5), 3,
                  np.random.default_rng(12))
    rng = np.random.default_rng(13)
    for param in bb.params.values():  # biases start at zero; give every parameter a value
        param.data[...] = rng.normal(0.0, 0.3, size=param.shape)
    x = np.random.default_rng(14).normal(size=(5, 7))
    weights = np.random.default_rng(15).normal(size=(3, 5, 3))
    for name, param in bb.params.items():
        def f(t, _name=name):
            bb.params[_name] = t
            try:
                return nc.sum(nc.multiply(forecast_rows(bb, x), weights))
            finally:
                bb.params[_name] = param

        assert grad_check(f, Tensor(param.data)) <= 1e-4, name
