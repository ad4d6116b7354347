"""Forecast loss and the contrastive signature separation term: closed-form
values for degenerate geometries, permutation symmetry, and gradient flow."""

import math

import numpy as np
import pytest

import disents.numcore as nc
from disents.errors import ConfigError
from disents.numcore import Tensor, backward, grad_check, recording
from disents.objectives import (LossConfig, mse_loss, similarity_constraint,
                                total_loss)


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(sc_weight=-0.1)
    with pytest.raises(ConfigError):
        LossConfig(tau=0.0)


def test_mse_loss_values():
    pred = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert mse_loss(pred, Tensor(pred.data.copy())).data == 0.0
    target = Tensor(np.array([[0.0, 2.0], [3.0, 2.0]]))
    assert abs(mse_loss(pred, target).data - (1.0 + 4.0) / 4.0) <= 1e-15


def test_mse_loss_gradient():
    rng = np.random.default_rng(0)
    target = Tensor(rng.normal(size=(3, 4)))

    def f(t):
        return mse_loss(t, target)

    assert grad_check(f, Tensor(rng.normal(size=(3, 4)))) <= 1e-6


def test_single_expert_needs_no_separation():
    sigs = Tensor(np.random.default_rng(1).normal(size=(1, 6, 3)))
    out = similarity_constraint(sigs, np.zeros((1, 6, 3)), LossConfig())
    assert out.data == 0.0
    assert not out.requires_grad


def test_identical_signatures_hit_the_uniform_ceiling():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(5, 4))
    for k in (2, 3, 5):
        sigs = Tensor(np.stack([w] * k))
        gamma = np.stack([w] * k)
        out = similarity_constraint(sigs, gamma, LossConfig(tau=0.1))
        assert abs(out.data - k * math.log(k)) <= 1e-6


def test_orthogonal_pair_closed_form():
    # two unit-norm, mutually orthogonal signatures; tau=1 gives logits
    # [[1, 0], [0, 1]] so each row contributes log(1 + e^{-1})
    a = np.zeros((2, 2))
    b = np.zeros((2, 2))
    a[0, 0] = 1.0
    b[1, 1] = 1.0
    sigs = Tensor(np.stack([a, b]))
    out = similarity_constraint(sigs, np.stack([a, b]), LossConfig(tau=1.0))
    expected = 2.0 * math.log(1.0 + math.exp(-1.0))
    assert abs(out.data - expected) <= 1e-9


def test_sharper_temperature_rewards_separation_more():
    rng = np.random.default_rng(3)
    w1, w2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    sigs = Tensor(np.stack([w1, w2]))
    gamma = np.stack([w1, w2])
    warm = similarity_constraint(sigs, gamma, LossConfig(tau=1.0)).data
    sharp = similarity_constraint(sigs, gamma, LossConfig(tau=0.1)).data
    assert sharp < warm  # matched pairs dominate once logits are rescaled


def test_raw_mode_skips_normalization_and_temperature():
    rng = np.random.default_rng(4)
    sigs = Tensor(rng.normal(size=(2, 3, 3)))
    gamma = rng.normal(size=(2, 3, 3))
    raw_small_tau = similarity_constraint(sigs, gamma, LossConfig(tau=0.01, normalize_sims=False))
    raw_large_tau = similarity_constraint(sigs, gamma, LossConfig(tau=10.0, normalize_sims=False))
    assert raw_small_tau.data == raw_large_tau.data
    cosine = similarity_constraint(sigs, gamma, LossConfig(tau=1.0))
    assert raw_small_tau.data != cosine.data


def test_joint_permutation_invariance():
    rng = np.random.default_rng(5)
    sigs = [rng.normal(size=(4, 2)) for _ in range(3)]
    gamma = rng.normal(size=(3, 4, 2))
    base = similarity_constraint(Tensor(np.stack(sigs)), gamma, LossConfig()).data
    order = [2, 0, 1]
    shuffled = similarity_constraint(Tensor(np.stack([sigs[i] for i in order])), gamma[order],
                                     LossConfig()).data
    assert abs(base - shuffled) <= 1e-12


def test_gradient_reaches_signatures_but_not_registry():
    rng = np.random.default_rng(6)
    gamma = rng.normal(size=(2, 4, 3))
    with recording():
        s = nc.parameter(rng.normal(size=(2, 4, 3)))  # s[0], s[1]: the two signatures
        backward(similarity_constraint(s, gamma, LossConfig()))
    assert s.grad is not None and np.abs(s.grad[0]).max() > 0.0
    assert s.grad.shape == s.shape  # s[1] gets its adjoint too

    def f(t):
        stack = nc.concat([nc.reshape(t, (1, 4, 3)), nc.constant(gamma[1:])])
        return similarity_constraint(stack, gamma, LossConfig())

    assert grad_check(f, Tensor(rng.normal(size=(4, 3)))) <= 1e-4


def test_zero_signature_stays_finite():
    gamma = np.random.default_rng(7).normal(size=(2, 3, 2))
    with recording():
        s = nc.parameter(np.stack([np.zeros((3, 2)), gamma[1]]))  # s[0] is all zeros
        loss = similarity_constraint(s, gamma, LossConfig())
        backward(loss)
    assert np.isfinite(loss.data)
    assert np.isfinite(s.grad[0]).all()


def test_total_loss_arithmetic():
    with recording():
        l_fc = nc.parameter(np.asarray(0.5))
        l_sc = nc.parameter(np.asarray(2.0))
        total = total_loss(l_fc, l_sc, sc_weight=0.1)
        backward(total)
    assert abs(total.data - 0.7) <= 1e-15
    assert l_fc.grad == 1.0
    assert l_sc.grad == pytest.approx(0.1)


def test_total_loss_zero_weight_blocks_separation_term():
    with recording():
        l_fc = nc.parameter(np.asarray(1.0))
        l_sc = nc.parameter(np.asarray(3.0))
        backward(total_loss(l_fc, l_sc, sc_weight=0.0))
    assert l_sc.grad == 0.0
