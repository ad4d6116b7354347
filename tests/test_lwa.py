"""Linear weight approximation: top-k selection rules, least-squares
recovery against normal equations, EMA registry dynamics, and the epsilon
fidelity measure."""

import numpy as np
import pytest

import disents.numcore as nc
from disents.errors import ConfigError, ContractError, ShapeError
from disents.lwa import (EmaRegistry, LwaConfig, approximate, effective_top_k, select_top_k,
                         signature_error)
from disents.numcore import Tensor, backward, grad_check, recording


def test_config_validation():
    with pytest.raises(ConfigError):
        LwaConfig(top_k=0)
    with pytest.raises(ConfigError):
        LwaConfig(alpha=1.5)
    with pytest.raises(ConfigError):
        LwaConfig(rcond=0.0)


def test_effective_top_k():
    assert effective_top_k(LwaConfig(), pool=96, lookback=24) == 48
    assert effective_top_k(LwaConfig(), pool=10, lookback=24) == 10
    assert effective_top_k(LwaConfig(top_k=5), pool=96, lookback=24) == 5
    assert effective_top_k(LwaConfig(top_k=500), pool=96, lookback=24) == 96  # capped


def test_select_top_k_orders_by_score():
    beta = np.zeros((2, 3, 2))
    beta[:, :, 0] = [[0.1, 0.9, 0.5], [0.8, 0.2, 0.7]]
    beta[:, :, 1] = 1.0 - beta[:, :, 0]
    x = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
    y = -np.arange(2 * 3 * 2, dtype=float).reshape(2, 3, 2)
    x_hat, f_hat = select_top_k(Tensor(beta), Tensor(x), Tensor(y), expert=0, k=3)
    rows = x.reshape(6, 4)
    outs = y.reshape(6, 2)
    # scores flatten to [0.1, 0.9, 0.5, 0.8, 0.2, 0.7] -> picks rows 1, 3, 5
    assert np.array_equal(x_hat.data, rows[[1, 3, 5]])
    assert np.array_equal(f_hat.data, outs[[1, 3, 5]])


def test_select_top_k_breaks_ties_by_position():
    beta = np.full((2, 2, 1), 0.25)  # every score equal
    x = np.arange(2 * 2 * 3, dtype=float).reshape(2, 2, 3)
    y = np.arange(2 * 2 * 2, dtype=float).reshape(2, 2, 2)
    x_hat, _ = select_top_k(Tensor(beta), Tensor(x), Tensor(y), expert=0, k=3)
    assert np.array_equal(x_hat.data, x.reshape(4, 3)[[0, 1, 2]])  # ascending (batch, channel)


def test_select_top_k_contract_errors():
    beta = Tensor(np.full((2, 2, 2), 0.5))
    x = Tensor(np.zeros((2, 2, 3)))
    y = Tensor(np.zeros((2, 2, 2)))
    with pytest.raises(ContractError):
        select_top_k(beta, x, y, expert=0, k=5)  # pool is 4
    with pytest.raises(ContractError):
        select_top_k(beta, x, y, expert=2, k=2)
    with pytest.raises(ShapeError):
        select_top_k(beta, Tensor(np.zeros((3, 2, 3))), y, expert=0, k=2)


def test_selected_forecasts_keep_gradient_linkage():
    beta = np.zeros((2, 2, 1))
    beta[:, :, 0] = [[0.9, 0.1], [0.5, 0.7]]
    with recording():
        y = nc.parameter(np.ones((2, 2, 3)))
        _, f_hat = select_top_k(Tensor(beta), Tensor(np.zeros((2, 2, 4))), y, expert=0, k=2)
        backward(nc.sum(f_hat))
    expected = np.zeros((2, 2, 3))
    expected[0, 0] = 1.0  # score 0.9
    expected[1, 1] = 1.0  # score 0.7
    assert np.array_equal(y.grad, expected)
    # the input side is a constant: no tape entry, no gradient path
    x_hat, _ = select_top_k(Tensor(beta), Tensor(np.zeros((2, 2, 4))), Tensor(np.ones((2, 2, 3))),
                            expert=0, k=2)
    assert not x_hat.requires_grad


def test_select_top_k_over_every_expert_equals_one_call_per_expert():
    rng = np.random.default_rng(18)
    beta = rng.dirichlet(np.ones(3), size=(4, 5))  # [B, C, K]
    beta[1, 2] = beta[3, 4] = beta[0, 0]  # ties
    x = Tensor(rng.normal(size=(4, 5, 6)))
    stack = rng.normal(size=(3, 4, 5, 2))
    weights = rng.normal(size=(3, 7, 2))
    with recording():
        y = nc.parameter(stack)
        x_hat, f_hat = select_top_k(Tensor(beta), x, y, np.arange(3), k=7)
        backward(nc.sum(nc.multiply(f_hat, weights)))
    assert x_hat.shape == (3, 7, 6) and f_hat.shape == (3, 7, 2)
    for m in range(3):
        with recording():
            y_m = nc.parameter(stack[m])
            x_m, f_m = select_top_k(Tensor(beta), x, y_m, m, k=7)
            backward(nc.sum(nc.multiply(f_m, weights[m])))
        assert np.array_equal(x_hat.data[m], x_m.data)
        assert np.array_equal(f_hat.data[m], f_m.data)
        assert np.array_equal(y.grad[m], y_m.grad)
    with pytest.raises(ContractError):
        select_top_k(Tensor(beta), x, Tensor(stack), np.arange(4), k=7)  # no expert 3
    with pytest.raises(ShapeError):
        select_top_k(Tensor(beta), x, Tensor(stack[:2]), np.arange(3), k=7)


def test_approximate_recovers_a_planted_linear_map():
    rng = np.random.default_rng(0)
    planted = rng.normal(size=(8, 5))
    x = rng.normal(size=(16, 8))
    w = approximate(Tensor(x), Tensor(x @ planted)).data
    rel = np.linalg.norm(w - planted) / np.linalg.norm(planted)
    assert rel <= 1e-5


def test_approximate_zero_forecasts_give_zero_signature():
    x = np.random.default_rng(1).normal(size=(10, 6))
    w = approximate(Tensor(x), Tensor(np.zeros((10, 3)))).data
    assert np.array_equal(w, np.zeros((6, 3)))


def test_approximate_matches_normal_equations():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 6))
    f = rng.normal(size=(20, 4))  # noisy: no exact solution exists
    by_normal_eq = np.linalg.solve(x.T @ x, x.T @ f)
    assert np.abs(approximate(Tensor(x), Tensor(f)).data - by_normal_eq).max() <= 1e-8


def test_approximate_adjoint_is_pinv_transpose():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(9, 4))
    g = rng.normal(size=(4, 3))
    with recording():
        f = nc.parameter(rng.normal(size=(9, 3)))
        w = approximate(Tensor(x), f)
        backward(nc.sum(nc.multiply(w, g)))
    expected = nc.pinv(x).data.T @ g
    assert np.abs(f.grad - expected).max() <= 1e-12

    def loss(t):
        return nc.sum(nc.multiply(approximate(Tensor(x), t), g))

    assert grad_check(loss, Tensor(rng.normal(size=(9, 3)))) <= 1e-4


def test_registry_starts_noisy_and_uninitialized():
    reg = EmaRegistry(3, 24, 12, alpha=0.9, rng=np.random.default_rng(4))
    assert reg.gamma.shape == (3, 24, 12)
    assert reg.initialized == [False, False, False]
    assert 0.01 <= reg.gamma.std() <= 0.03
    other = EmaRegistry(3, 24, 12, alpha=0.9, rng=np.random.default_rng(5))
    assert not np.array_equal(reg.gamma, other.gamma)


def test_registry_first_update_copies_verbatim():
    reg = EmaRegistry(2, 4, 3, alpha=0.9, rng=np.random.default_rng(6))
    w = np.random.default_rng(7).normal(size=(2, 4, 3))
    reg.update(w)
    assert np.array_equal(reg.gamma, w)
    assert reg.initialized == [True, True]


def test_registry_blends_initialized_experts_and_copies_the_rest():
    reg = EmaRegistry(2, 4, 3, alpha=0.9, rng=np.random.default_rng(6))
    reg.initialized = [True, False]  # as a checkpoint with mixed flags loads
    gamma, prev = reg.gamma, reg.gamma.copy()
    w = np.random.default_rng(7).normal(size=(2, 4, 3))
    reg.update(w)
    assert reg.gamma is gamma  # written in place: a model's arrays() hold it as registry.gamma
    assert np.array_equal(reg.gamma[0], 0.9 * prev[0] + (1.0 - 0.9) * w[0])
    assert np.array_equal(reg.gamma[1], w[1])
    assert reg.initialized == [True, True]


def test_registry_geometric_decay_toward_fixed_signature():
    reg = EmaRegistry(1, 5, 4, alpha=0.9, rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    gamma0 = rng.normal(size=(5, 4))
    w = rng.normal(size=(5, 4))
    reg.gamma[0] = gamma0.copy()
    reg.initialized[0] = True
    for t in range(1, 8):
        reg.update(w[np.newaxis])
        expected = 0.9 ** t * np.linalg.norm(gamma0 - w)
        assert abs(np.linalg.norm(reg.gamma[0] - w) - expected) <= 1e-9


def test_registry_update_is_elementwise_convex():
    reg = EmaRegistry(1, 3, 3, alpha=0.7, rng=np.random.default_rng(10))
    reg.initialized[0] = True
    prev = reg.gamma[0].copy()
    w = np.random.default_rng(11).normal(size=(3, 3))
    reg.update(w[np.newaxis])
    lo, hi = np.minimum(prev, w), np.maximum(prev, w)
    assert (reg.gamma[0] >= lo - 1e-15).all() and (reg.gamma[0] <= hi + 1e-15).all()


def test_registry_alpha_extremes():
    rng = np.random.default_rng(12)
    w1, w2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    fresh = EmaRegistry(1, 2, 2, alpha=0.0, rng=np.random.default_rng(13))
    fresh.update(w1[np.newaxis])
    fresh.update(w2[np.newaxis])
    assert np.array_equal(fresh.gamma[0], w2)  # alpha 0 keeps only the newest
    frozen = EmaRegistry(1, 2, 2, alpha=1.0, rng=np.random.default_rng(14))
    frozen.update(w1[np.newaxis])
    frozen.update(w2[np.newaxis])
    assert np.array_equal(frozen.gamma[0], w1)  # alpha 1 never moves after the copy


def test_registry_errors():
    reg = EmaRegistry(2, 3, 3, alpha=0.9, rng=np.random.default_rng(15))
    with pytest.raises(ShapeError):
        reg.update(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        reg.update(np.zeros((3, 3)))  # one expert's signature, not the stack


def test_signature_error_formula(monkeypatch):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(7, 4))
    w = rng.normal(size=(4, 2))
    outputs = rng.normal(size=(7, 2))
    direct = np.mean((outputs - x @ w) ** 2)
    assert abs(signature_error(x, outputs, w) - direct) <= 1e-15
    # A [K, L, H] stack whose [K, R, L] broadcast of the rows is split over
    # the pool by signature has the bits of the broadcasting formula.
    x, w = rng.normal(size=(512, 96)), rng.normal(size=(4, 96, 48))
    outputs = rng.normal(size=(4, 512, 48))
    assert 4 * x.size >= nc.SPLIT_MIN
    direct = np.mean((outputs - x @ w) ** 2, axis=(-2, -1))
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("DISENTS_THREADS", threads)
        assert signature_error(x, outputs, w).tobytes() == direct.tobytes(), threads
        assert (nc._POOL is not None) == (threads != "1")
