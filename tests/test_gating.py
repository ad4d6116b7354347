"""Gating: simplex guarantees, degenerate cases, and agreement between
route() and an independent numpy reimplementation of the whole block."""

import numpy as np
import pytest
from scipy.special import erf

import disents.numcore as nc
from disents.errors import ConfigError, ContractError, ShapeError
from disents.gating import (GateConfig, GateParams, attention_mix, cross_attend, embed_forecasters,
                            route)
from disents.numcore import Tensor, backward, grad_check, recording


def make_gate(lookback=8, horizon=4, k=3, dim=8, heads=2, dropout=0.0, seed=0):
    return GateParams(lookback, horizon, k, GateConfig(dim, heads, dropout),
                      np.random.default_rng(seed))


def rand_sigs(gate, seed=1):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(gate.n_experts, gate.lookback, gate.horizon))


def test_config_validation():
    with pytest.raises(ConfigError):
        GateConfig(embed_dim=10, heads=4)  # not divisible
    with pytest.raises(ConfigError):
        GateConfig(embed_dim=0)
    with pytest.raises(ConfigError):
        GateConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        GateParams(8, 4, 0, GateConfig(), np.random.default_rng(0))


def test_routing_weights_live_on_the_simplex():
    gate = make_gate()
    x = np.random.default_rng(2).normal(size=(4, 5, 8))
    beta = route(Tensor(x), rand_sigs(gate), gate).data
    assert beta.shape == (4, 5, 3)
    assert (beta > 0).all()
    assert np.abs(beta.sum(axis=2) - 1.0).max() <= 1e-12


def test_single_expert_routes_everything_to_it():
    gate = make_gate(k=1)
    x = np.random.default_rng(3).normal(size=(2, 3, 8))
    beta = route(Tensor(x), rand_sigs(gate), gate).data
    assert np.array_equal(beta, np.ones((2, 3, 1)))


def test_single_key_attention_gives_identical_context_rows():
    gate = make_gate(k=1)
    queries = Tensor(np.random.default_rng(4).normal(size=(6, 8)))
    keys = embed_forecasters(rand_sigs(gate), gate)
    ctx = attention_mix(queries, keys, gate).data
    assert np.abs(ctx - ctx[0]).max() <= 1e-12  # softmax over one key is exactly 1


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_mix_equals_a_per_head_loop_bit_for_bit(heads):
    """The stacked heads give exactly the numbers of one head at a time."""
    gate = make_gate(k=3, dim=8, heads=heads, seed=21)
    rng = np.random.default_rng(22)
    queries, keys = rng.normal(size=(10, 8)), rng.normal(size=(3, 8))
    p = {name: t.data for name, t in gate.params.items()}
    q, k, v = queries @ p["attn_wq"], keys @ p["attn_wk"], keys @ p["attn_wv"]
    width = 8 // heads
    mixed = []
    for h in range(heads):
        sl = slice(h * width, (h + 1) * width)
        scores = q[:, sl] @ k[:, sl].T * (1.0 / np.sqrt(width))
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        mixed.append(e / e.sum(axis=-1, keepdims=True) @ v[:, sl])
    expected = np.concatenate(mixed, axis=1) @ p["attn_wo"]
    assert np.array_equal(attention_mix(Tensor(queries), Tensor(keys), gate).data, expected)


def test_zero_output_head_gives_uniform_routing():
    gate = make_gate(k=4)
    gate.params["w_out"].data = np.zeros((8, 4))
    x = np.random.default_rng(5).normal(size=(3, 2, 8))
    beta = route(Tensor(x), rand_sigs(gate), gate).data
    assert np.abs(beta - 0.25).max() <= 1e-15


def _np_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _np_gelu(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def _np_route(x, sigs, gate):
    """Independent reimplementation of the whole gate in plain numpy."""
    p = {k: t.data for k, t in gate.params.items()}
    b, c, L = x.shape
    d = gate.config.embed_dim
    heads = gate.config.heads
    width = d // heads
    h_x = (x.reshape(b * c, L) @ p["w_in"])
    flat = sigs.reshape(sigs.shape[0], -1)
    h_f = _np_gelu(flat @ p["sig_w1"] + p["sig_b1"]) @ p["sig_w2"] + p["sig_b2"]
    q, k, v = h_x @ p["attn_wq"], h_f @ p["attn_wk"], h_f @ p["attn_wv"]
    mixed = []
    for h in range(heads):
        sl = slice(h * width, (h + 1) * width)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(width)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        mixed.append(attn @ v[:, sl])
    ctx = np.concatenate(mixed, axis=1) @ p["attn_wo"]
    a1 = _np_layer_norm(h_x + ctx, p["ln1_gain"], p["ln1_bias"])
    ff = _np_gelu(a1 @ p["ffn_w1"] + p["ffn_b1"]) @ p["ffn_w2"] + p["ffn_b2"]
    a2 = _np_layer_norm(a1 + ff, p["ln2_gain"], p["ln2_bias"])
    logits = a2 @ p["w_out"]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)).reshape(b, c, gate.n_experts)


def test_route_matches_numpy_reimplementation():
    gate = make_gate(lookback=10, horizon=6, k=3, dim=12, heads=3, seed=8)
    sigs = rand_sigs(gate, seed=9)
    x = np.random.default_rng(10).normal(size=(4, 5, 10))
    assert np.abs(route(Tensor(x), sigs, gate).data - _np_route(x, sigs, gate)).max() <= 1e-12


def test_eval_route_is_deterministic_and_ignores_dropout():
    gate = make_gate(dropout=0.5)
    sigs = rand_sigs(gate)
    x = np.random.default_rng(11).normal(size=(2, 3, 8))
    a = route(Tensor(x), sigs, gate, training=False).data
    b = route(Tensor(x), sigs, gate, training=False).data
    assert np.array_equal(a, b)
    rng = np.random.default_rng(0)
    trained = route(Tensor(x), sigs, gate, training=True, rng=rng).data
    assert not np.array_equal(a, trained)


def test_signatures_are_read_as_constants():
    gate = make_gate()
    sigs = rand_sigs(gate)
    before = sigs.copy()
    with recording():
        beta = route(Tensor(np.random.default_rng(12).normal(size=(2, 3, 8))), sigs, gate)
        backward(nc.sum(nc.multiply(beta, np.random.default_rng(13).normal(size=beta.shape))))
    assert np.array_equal(sigs, before)
    for name, t in gate.params.items():
        assert t.grad is not None, name
    # the loss depends on beta, so at least the output head must feel it
    assert np.abs(gate.params["w_out"].grad).max() > 0


def test_shape_and_contract_errors():
    gate = make_gate()
    with pytest.raises(ShapeError):
        route(Tensor(np.ones((2, 3, 7))), rand_sigs(gate), gate)
    with pytest.raises(ShapeError):
        embed_forecasters(np.ones((3, 8, 5)), gate)
    with pytest.raises(ContractError):
        embed_forecasters(np.ones((2, 8, 4)), gate)  # gate built for 3 experts


def test_identical_signatures_still_route_validly():
    gate = make_gate(k=3)
    sig = np.random.default_rng(14).normal(size=(8, 4))
    sigs = np.stack([sig, sig, sig])
    keys = embed_forecasters(sigs, gate).data
    assert np.abs(keys - keys[0]).max() <= 1e-12
    beta = route(Tensor(np.random.default_rng(15).normal(size=(2, 2, 8))), sigs, gate).data
    assert np.abs(beta.sum(axis=2) - 1.0).max() <= 1e-12


def test_gate_parameter_gradients_pass_finite_differences():
    gate = make_gate(lookback=6, horizon=3, k=2, dim=4, heads=2, seed=16)
    sigs = np.random.default_rng(17).normal(size=(2, 6, 3))
    x = np.random.default_rng(18).normal(size=(2, 2, 6))
    weights = np.random.default_rng(19).normal(size=(2, 2, 2))
    for name in ("w_in", "sig_w1", "attn_wq", "attn_wo", "ffn_w1", "ln1_gain", "w_out"):
        original = gate.params[name]

        def f(t, _name=name, _orig=original):
            gate.params[_name] = t
            try:
                return nc.sum(nc.multiply(route(Tensor(x), sigs, gate), weights))
            finally:
                gate.params[_name] = _orig

        assert grad_check(f, Tensor(original.data)) <= 1e-4, name


def test_cross_attend_output_shape():
    gate = make_gate()
    rows = Tensor(np.random.default_rng(20).normal(size=(12, 8)))
    h_f = embed_forecasters(rand_sigs(gate), gate)
    out = cross_attend(rows, h_f, gate)
    assert out.shape == (12, 8)
