"""Core tensor ops: forward values, taped gradients vs finite differences,
pseudo-inverse identities vs normal equations, the Adam update, and the
tape, which backward replays once and then frees."""

import gc
import math
import sys
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from scipy.special import erf

import disents.numcore as nc
from disents.errors import ConfigError, ContractError, NumericError, ShapeError
from disents.backbones import BackboneConfig
from disents.gating import GateConfig
from disents.numcore import (ADAM_BLOCK, AdamState, Tensor, adam_step, backward, grad_check, pinv,
                             recording)
from disents.objectives import mse_loss
from disents.pipeline import DisenTSModel, ModelConfig, forward, train_rng, train_step


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def test_tensor_basics():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.size == 4
    assert not t.requires_grad
    with pytest.raises(ContractError):
        t.item()
    assert Tensor(3.5).item() == 3.5


def test_add_broadcasts_and_shape_error():
    out = nc.add(Tensor(np.ones((2, 3))), Tensor(np.arange(3.0)))
    assert np.array_equal(out.data, np.ones((2, 3)) + np.arange(3.0))
    with pytest.raises(ShapeError) as err:
        nc.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_example_and_errors():
    out = nc.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])
    with pytest.raises(ShapeError) as err:
        nc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(err.value)
    with pytest.raises(ShapeError):
        nc.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 1))))


def test_stacked_matmul_and_permuting_transpose_values():
    a, b = rand((3, 4, 2), 30), rand((3, 2, 5), 31)
    out = nc.matmul(Tensor(a), Tensor(b)).data
    assert all(same_bits(out[i], a[i] @ b[i]) for i in range(3))
    assert same_bits(nc.transpose(Tensor(a), axes=(2, 0, 1)).data, a.transpose(2, 0, 1))


@pytest.mark.parametrize("op, args", [
    (nc.matmul, (np.ones((2, 3)), np.ones(3))),
    (nc.matmul, (np.ones((2, 3, 4)), np.ones((3, 4, 5)))),
    (nc.matmul, (np.ones((3, 4)), np.ones((2, 4, 5)))),
    (nc.matmul, (np.ones((2, 3, 4)), np.ones((4, 5)))),
    (nc.matmul, (np.ones((2, 3, 4)), np.ones((2, 3, 5)))),
    (nc.transpose, (np.ones((2, 3, 4)), (0, 0, 1))),
    (nc.transpose, (np.ones((2, 3, 4)), (0, 1))),
    (nc.transpose, (np.ones((2, 3, 4)), (1, 2, 3))),
    (nc.transpose, (np.ones((2, 3, 4)),)),
], ids=["matmul-1d-rhs", "matmul-unequal-stacks", "matmul-2d-by-3d",
        "matmul-3d-by-2d", "matmul-inner-dims", "transpose-repeated-axis", "transpose-too-few-axes",
        "transpose-out-of-range", "transpose-3d-default-axes"])
def test_stacked_matmul_and_transpose_shape_errors(op, args):
    with pytest.raises(ShapeError):
        op(*(Tensor(x) if isinstance(x, np.ndarray) else x for x in args))


def test_softmax_values():
    out = nc.softmax(Tensor(np.zeros((2, 4))))
    assert np.allclose(out.data, 0.25, atol=1e-15)
    spike = nc.softmax(Tensor([1000.0, 0.0, 0.0]))
    assert np.max(np.abs(spike.data - [1.0, 0.0, 0.0])) <= 1e-12
    rows = nc.softmax(Tensor(rand((5, 7), 3)))
    assert np.allclose(rows.data.sum(axis=-1), 1.0, atol=1e-12)
    assert (rows.data > 0).all()
    with pytest.raises(NumericError):
        nc.softmax(Tensor([np.inf, 0.0]))


def test_layer_norm_values():
    gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
    flat = nc.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), gain, bias)
    assert np.array_equal(flat.data, np.zeros(4))
    x = Tensor(rand((3, 4), 0))
    out = nc.layer_norm(x, gain, bias)
    assert np.abs(out.data.mean(axis=-1)).max() <= 1e-12
    assert np.abs(out.data.var(axis=-1) - 1.0).max() <= 1e-3  # eps shrinks variance slightly
    with pytest.raises(ShapeError):
        nc.layer_norm(Tensor([[1.0]]), Tensor([1.0]), Tensor([0.0]))
    with pytest.raises(ShapeError):
        nc.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)))


def test_relu_gelu_values():
    x = Tensor([-2.0, 0.0, 3.0])
    assert np.array_equal(nc.relu(x).data, [0.0, 0.0, 3.0])
    g = nc.gelu(Tensor([0.0, 10.0, -10.0])).data
    assert g[0] == 0.0
    assert abs(g[1] - 10.0) <= 1e-12
    assert abs(g[2]) <= 1e-12
    assert abs(nc.gelu(Tensor(1.0)).data - 0.8413447460685429) <= 1e-12  # x * Phi(x) at 1


def test_dropout_modes():
    t = Tensor(np.ones((50, 50)))
    assert nc.dropout(t, 0.3, training=False) is t
    assert nc.dropout(t, 0.0, training=True) is t
    rng = np.random.default_rng(0)
    out = nc.dropout(t, 0.25, training=True, rng=rng).data
    kept = out != 0.0
    assert set(np.unique(out)) == {0.0, 1.0 / 0.75}
    assert abs(kept.mean() - 0.75) < 0.03
    with pytest.raises(ContractError):
        nc.dropout(t, 1.2, training=True, rng=rng)
    with pytest.raises(ContractError):
        nc.dropout(t, 0.5, training=True)


def test_slice_concat_round_trip():
    x = Tensor(rand((4, 6), 1))
    parts = [nc.slice_axis(x, 1, i, i + 2) for i in (0, 2, 4)]
    back = nc.concat(parts, axis=1)
    assert np.array_equal(back.data, x.data)
    with pytest.raises(ContractError):
        nc.concat([], axis=0)
    with pytest.raises(ShapeError):
        nc.slice_axis(x, 5, 0, 1)


def test_gather_rows_accumulates_duplicates():
    with recording():
        x = nc.parameter(rand((4, 3), 2))
        picked = nc.gather_rows(x, [1, 1, 3])
        backward(nc.sum(picked))
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(x.grad, expected)


def test_gather_rows_of_a_stack_gathers_each_matrix_on_its_own():
    data = rand((3, 5, 2), 30)
    idx = np.array([[4, 0], [1, 1], [2, 4]])
    weights = rand((3, 2, 2), 31)
    with recording():
        x = nc.parameter(data)
        picked = nc.gather_rows(x, idx)
        backward(nc.sum(nc.multiply(picked, weights)))
    expected = np.zeros((3, 5, 2))
    for m in range(3):
        assert np.array_equal(picked.data[m], data[m][idx[m]])
        np.add.at(expected[m], idx[m], weights[m])
    assert np.array_equal(x.grad, expected)
    with recording():
        x = nc.parameter(data)
        picked = nc.gather_rows(x, [[-1], [0], [-5]])  # negative: from the end of its own matrix
        backward(nc.sum(picked))
    assert np.array_equal(picked.data[:, 0], data[[0, 1, 2], [4, 0, 0]])
    expected = np.zeros((3, 5, 2))
    expected[[0, 1, 2], [4, 0, 0]] = 1.0
    assert np.array_equal(x.grad, expected)
    for bad in (5, -6):  # past either end of a matrix, never into its neighbour
        with pytest.raises(IndexError):
            nc.gather_rows(x, [[0], [bad], [0]])
    with pytest.raises(ShapeError):
        nc.gather_rows(x, idx[:2])  # one index row per matrix
    with pytest.raises(ShapeError):
        nc.gather_rows(nc.constant(np.ones(4)), [0])


def test_reductions_match_numpy():
    data = rand((3, 4, 5), 4)
    assert np.allclose(nc.mean(Tensor(data), axis=1).data, data.mean(axis=1))
    assert np.allclose(nc.sum(Tensor(data), axis=(0, 2)).data, data.sum(axis=(0, 2)))
    assert np.allclose(nc.variance(Tensor(data), axis=2).data, data.var(axis=2))
    assert np.allclose(nc.variance(Tensor(data)).data, data.var())
    assert nc.mean(Tensor(data), axis=0, keepdims=True).shape == (1, 4, 5)


def test_backward_sum_gives_ones():
    with recording():
        x = nc.parameter(rand((3, 2), 5))
        backward(nc.sum(x))
    assert np.array_equal(x.grad, np.ones((3, 2)))


def test_backward_unreachable_gets_zero_grad():
    with recording():
        a = nc.parameter([1.0, 2.0])
        b = nc.parameter([3.0, 4.0])
        loss = nc.sum(a * 2.0)
        _ = b * 3.0  # recorded but never feeds the loss
        backward(loss)
    assert np.array_equal(a.grad, [2.0, 2.0])
    assert np.array_equal(b.grad, [0.0, 0.0])


def test_backward_fanout_accumulates():
    with recording():
        x = nc.parameter([1.5])
        u = x * 2.0
        backward(nc.sum(u + u))
    assert np.array_equal(x.grad, [4.0])


def test_backward_contract_errors():
    with pytest.raises(ContractError):
        backward(Tensor([1.0, 2.0]))
    with pytest.raises(ContractError):
        backward(Tensor(1.0))  # never recorded


def test_backward_is_linear_over_terms():
    base = rand((4,), 6)
    c1, c2 = rand((4,), 7), rand((4,), 8)

    def grad_of(f):
        with recording():
            x = nc.parameter(base)
            backward(f(x))
        return x.grad

    g1 = grad_of(lambda x: nc.sum(x * c1))
    g2 = grad_of(lambda x: nc.sum(nc.exp(x) * c2))
    combined = grad_of(lambda x: nc.sum(x * c1) + nc.sum(nc.exp(x) * c2))
    assert np.allclose(combined, g1 + g2, atol=1e-12)


def test_grad_check_linear_is_exact():
    c = rand((5,), 9)
    err = grad_check(lambda t: nc.sum(t * c), Tensor(rand((5,), 10)))
    assert err <= 1e-10


def test_grad_check_quadratic_oracle():
    x = Tensor([1.0, 2.0])
    with recording():
        probe = nc.parameter(x.data.copy())
        backward(nc.sum(probe * probe))
    assert np.allclose(probe.grad, [2.0, 4.0], atol=1e-14)
    assert grad_check(lambda t: nc.sum(t * t), x) <= 1e-6


OPS = {
    "add": lambda t: nc.add(t, rand(t.shape, 90)),
    "subtract": lambda t: nc.subtract(rand(t.shape, 91), t),
    "multiply": lambda t: nc.multiply(t, rand(t.shape, 92)),
    "divide": lambda t: nc.divide(t, np.abs(rand(t.shape, 93)) + 0.5),
    "divide_by": lambda t: nc.divide(rand(t.shape, 94), nc.add(nc.multiply(t, t), 0.5)),
    "negate": nc.negate,
    "exp": nc.exp,
    "log": lambda t: nc.log(nc.add(nc.multiply(t, t), 0.5)),
    "sqrt": lambda t: nc.sqrt(nc.add(nc.multiply(t, t), 0.5)),
    "relu": lambda t: nc.relu(nc.add(t, 0.3)),  # offset keeps probes off the kink
    "gelu": nc.gelu,
    "matmul_left": lambda t: nc.matmul(t, rand((4, 3), 95)),
    "matmul_right": lambda t: nc.matmul(rand((5, 3), 96), nc.reshape(t, (3, 4))),
    "transpose": lambda t: nc.matmul(nc.transpose(t), rand((3, 2), 97)),
    "matmul_stack_left": lambda t: nc.matmul(nc.reshape(t, (2, 3, 2)), rand((2, 2, 5), 100)),
    "matmul_stack_right": lambda t: nc.matmul(rand((2, 3, 2), 101), nc.reshape(t, (2, 2, 3))),
    "transpose_axes": lambda t: nc.transpose(nc.reshape(t, (2, 3, 2)), axes=(1, 0, 2)),
    "linear_input": lambda t: nc.linear(t, rand((4, 3), 102), rand(3, 103)),
    "linear_weight": lambda t: nc.linear(rand((5, 3), 104), nc.reshape(t, (3, 4)), rand(4, 105)),
    "linear_bias": lambda t: nc.linear(rand((5, 2), 106), rand((2, 12), 107), nc.reshape(t, (12,))),
    "linear_stack_input": lambda t: nc.linear(nc.reshape(t, (2, 3, 2)), rand((2, 2, 5), 108),
                                              rand((2, 5), 109)),
    "linear_stack_weight": lambda t: nc.linear(rand((2, 3, 2), 110), nc.reshape(t, (2, 2, 3)),
                                               rand((2, 3), 111)),
    "linear_stack_bias": lambda t: nc.linear(rand((3, 2, 4), 112), rand((3, 4, 4), 113), t),
    "linear_gelu_input": lambda t: nc.linear_gelu(t, rand((4, 3), 114), rand(3, 115)),
    "linear_gelu_weight": lambda t: nc.linear_gelu(rand((5, 3), 116), nc.reshape(t, (3, 4)),
                                                   rand(4, 117)),
    "linear_gelu_bias": lambda t: nc.linear_gelu(rand((5, 2), 118), rand((2, 12), 119),
                                                 nc.reshape(t, (12,))),
    "linear_gelu_stack_input": lambda t: nc.linear_gelu(nc.reshape(t, (2, 3, 2)),
                                                        rand((2, 2, 5), 120), rand((2, 5), 121)),
    "mix_weights": lambda t: nc.mix(nc.reshape(t, (2, 2, 3)), rand((3, 2, 2, 5), 122)),
    "mix_stack": lambda t: nc.mix(rand((2, 3), 123), nc.reshape(t, (3, 2, 2))),
    "reshape": lambda t: nc.reshape(t, (4, 3)),
    "concat": lambda t: nc.concat([t, nc.multiply(t, 2.0)], axis=0),
    "slice": lambda t: nc.slice_axis(t, 1, 1, 3),
    "gather": lambda t: nc.gather_rows(t, [2, 0, 2]),
    "mean": lambda t: nc.mean(t, axis=1),
    "sum": lambda t: nc.sum(t, axis=0),
    "variance": lambda t: nc.variance(t, axis=1),
    "softmax": nc.softmax,
    "layer_norm": lambda t: nc.layer_norm(t, np.ones(t.shape[-1]), np.zeros(t.shape[-1])),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients(name):
    shape = (3, 4)
    x = Tensor(rand(shape, zlib.crc32(name.encode()) % 1000))  # the same point every run
    weights = rand(OPS[name](Tensor(np.zeros(shape))).shape, 99)

    def f(t):
        return nc.sum(nc.multiply(OPS[name](t), weights))

    assert grad_check(f, x) <= 1e-4


def test_layer_norm_gain_bias_gradients():
    x = rand((3, 4), 11)
    weights = rand((3, 4), 12)

    def by_gain(t):
        return nc.sum(nc.multiply(nc.layer_norm(x, t, np.zeros(4)), weights))

    def by_bias(t):
        return nc.sum(nc.multiply(nc.layer_norm(x, np.ones(4), t), weights))

    assert grad_check(by_gain, Tensor(np.ones(4))) <= 1e-4
    assert grad_check(by_bias, Tensor(np.zeros(4))) <= 1e-4


def test_dropout_gradient_with_replayable_mask():
    x = Tensor(rand((6, 6), 13))
    weights = rand((6, 6), 14)

    def f(t):
        rng = np.random.default_rng(123)  # same mask on every probe
        return nc.sum(nc.multiply(nc.dropout(t, 0.4, True, rng), weights))

    assert grad_check(f, x) <= 1e-4


def test_eval_mode_ops_do_not_record():
    x = nc.parameter(rand((2, 2), 15))
    out = nc.matmul(x, x)  # no recording context open
    assert not out.requires_grad
    assert out._record is None


def test_composite_gradient_through_softmax_matmul():
    w = rand((3, 2), 16)
    target = rand((4, 2), 17)

    def f(t):
        probs = nc.softmax(nc.matmul(t, w))
        diff = nc.subtract(probs, target)
        return nc.mean(nc.multiply(diff, diff))

    assert grad_check(f, Tensor(rand((4, 3), 18))) <= 1e-4


def test_pinv_identity_and_diagonal():
    assert np.allclose(pinv(np.eye(3)).data, np.eye(3), atol=1e-12)
    out = pinv(np.diag([2.0, 0.0])).data
    assert np.allclose(out, np.diag([0.5, 0.0]), atol=1e-12)


def test_pinv_rcond_truncates_tiny_singular_values():
    out = pinv(np.diag([1.0, 1e-9])).data  # 1e-9 < rcond * sigma_max = 1e-6
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
    kept = pinv(np.diag([1.0, 1e-3])).data
    assert np.allclose(kept, np.diag([1.0, 1e3]), atol=1e-6)


def _pinv_cases():
    cases = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cases.append(rng.normal(size=(3, 3)))
        cases.append(rng.normal(size=(6, 3)))
        cases.append(rng.normal(size=(3, 6)))
        cases.append(rng.normal(size=(5, 3)) @ rng.normal(size=(3, 5)))  # rank-deficient 5x5
    return cases


def test_pinv_moore_penrose_identities():
    for x in _pinv_cases():
        p = pinv(x).data
        assert np.abs(x @ p @ x - x).max() <= 1e-8
        assert np.abs(p @ x @ p - p).max() <= 1e-8
        assert np.abs((x @ p).T - x @ p).max() <= 1e-8
        assert np.abs((p @ x).T - p @ x).max() <= 1e-8


def test_pinv_matches_normal_equations_when_full_rank():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(6, 3))
    by_normal_eq = np.linalg.solve(x.T @ x, x.T)
    assert np.abs(pinv(x).data - by_normal_eq).max() <= 1e-8


def test_pinv_is_a_gradient_barrier():
    with recording() as rec:
        x = nc.parameter(rand((4, 3), 22))
        p = pinv(x)
    assert not p.requires_grad
    assert len(rec) == 0


def whole_stack_pinv(stack, rcond=1e-6):
    """The pseudo-inverse of a whole stack from one SVD call, the reference
    for the one split over the pool."""
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    keep = s > rcond * s[..., :1]
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (np.swapaxes(vt, -1, -2) * inv[..., np.newaxis, :]) @ np.swapaxes(u, -1, -2)


def test_pinv_of_a_stack_equals_a_pinv_per_matrix(monkeypatch):
    """Small stacks run inline; a [4, 192, 96] stack (the LWA inputs of a
    96->96 model) is split over the pool by matrix. Either way each matrix
    has the bits of its own pinv and of one SVD call over the whole stack."""
    rng = np.random.default_rng(23)
    tall = rng.normal(size=(4, 9, 5))
    tall[2] = rng.normal(size=(9, 2)) @ rng.normal(size=(2, 5))  # rank 2
    tall[3, :5] = np.diag([1.0, 1e-9, 2.0, 3.0, 1e-3])  # one singular value cut
    tall[3, 5:] = 0.0
    large = rng.normal(size=(4, 192, 96))
    large[1] = rng.normal(size=(192, 3)) @ rng.normal(size=(3, 96))  # rank 3
    assert large.size >= nc.SPLIT_MIN > tall.size
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("DISENTS_THREADS", threads)
        for stack in (tall, np.swapaxes(tall, 1, 2), tall[:, :5], large, np.swapaxes(large, 1, 2)):
            out = pinv(stack).data
            assert out.shape == stack.shape[:-2] + stack.shape[:-3:-1]
            assert out.tobytes() == whole_stack_pinv(stack).tobytes(), (threads, stack.shape)
            for m in range(stack.shape[0]):
                assert out[m].tobytes() == pinv(stack[m]).data.tobytes(), m
        assert (nc._POOL is not None) == (threads != "1")
        nc.drop_pool()


def test_pinv_errors():
    with pytest.raises(NumericError):
        pinv(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        pinv(np.ones(3))


def test_adam_zero_gradient_leaves_params():
    p = nc.parameter([1.0, -2.0, 3.0])
    before = p.data.copy()
    state = AdamState.for_params([p])
    adam_step([p], [np.zeros(3)], state)
    assert np.array_equal(p.data, before)
    assert state.step_count == 1


def test_adam_first_step_magnitude():
    p = nc.parameter(np.zeros(3))
    g = np.array([0.5, -2.0, 1e-3])
    state = AdamState.for_params([p], lr=1e-3)
    adam_step([p], [g], state)
    # bias-corrected first step is lr * g / (|g| + eps) ~ lr * sign(g)
    assert np.allclose(p.data, -1e-3 * np.sign(g), atol=1e-8)


def test_adam_minimizes_quadratic():
    target = np.array([3.0, -1.0, 0.5])
    p = nc.parameter(np.zeros(3))
    state = AdamState.for_params([p], lr=0.05)
    for _ in range(2000):
        adam_step([p], [2.0 * (p.data - target)], state)
    assert np.abs(p.data - target).max() <= 1e-3


def test_adam_contract_errors():
    p = nc.parameter(np.zeros(3))
    state = AdamState.for_params([p])
    with pytest.raises(ShapeError):
        adam_step([p], [np.zeros(4)], state)
    with pytest.raises(ContractError):
        adam_step([p], [None], state)
    with pytest.raises(ContractError):
        adam_step([p, p], [np.zeros(3), np.zeros(3)], state)


def whole_array_adam(p, g, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam update over whole arrays, the reference for the blocked one."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= lr * (m / (1.0 - beta1 ** step)) / (np.sqrt(v / (1.0 - beta2 ** step)) + eps)


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("shape, transposed_grad", [
    ((3 * ADAM_BLOCK + 7,), False),
    ((300, 100), False),
    ((300, 100), True),
    ((3, ADAM_BLOCK + 5), False),
    ((2, 200, 100), True),
    ((), False),
], ids=["1d-ragged-last-block", "2d-rows-not-dividing-block", "2d-transposed-grad",
        "rows-longer-than-a-block", "stack-of-matrices-longer-than-a-block", "scalar"])
def test_blocked_adam_matches_whole_array_formula(shape, transposed_grad):
    rng = np.random.default_rng(40)
    p = nc.parameter(rng.normal(size=shape))
    ref_p, ref_m, ref_v = p.data.copy(), np.zeros(shape), np.zeros(shape)
    state = AdamState.for_params([p], lr=1e-2)
    for step in range(1, 6):
        g = rng.normal(size=shape[::-1]).T if transposed_grad else rng.normal(size=shape)
        assert g.flags.c_contiguous != transposed_grad
        adam_step([p], [g], state)
        whole_array_adam(ref_p, g, ref_m, ref_v, step, lr=1e-2)
    assert same_bits(p.data, ref_p)
    assert same_bits(state.m[0], ref_m) and same_bits(state.v[0], ref_v)


def test_blocked_adam_updates_a_transposed_parameter_in_place():
    model = DisenTSModel(ModelConfig(n_experts=2, backbone=BackboneConfig("linear", 400, 200)))
    base = np.random.default_rng(41).normal(size=(2, 200, 400))
    model.set_parameter("experts.w", Tensor(base.transpose(0, 2, 1), requires_grad=True))
    params = [t for _, t in model.named_parameters()]
    assert not params[0].data.flags.c_contiguous and params[0].size > ADAM_BLOCK
    assert len(list(nc._adam_blocks(params[0].shape))) == 4  # two row blocks per expert
    refs = [(t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for t in params]
    state = AdamState.for_params(params, lr=1e-2)
    rng = np.random.default_rng(42)
    for step in range(1, 6):
        grads = [rng.normal(size=t.shape) for t in params]
        adam_step(params, grads, state)
        for (p, m, v), g in zip(refs, grads):
            whole_array_adam(p, g, m, v, step, lr=1e-2)
    assert params[0].data.base is base
    assert same_bits(base.transpose(0, 2, 1), refs[0][0])
    for t, (p, _, _) in zip(params, refs):
        assert same_bits(t.data, p)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("case", ["1d-ragged", "2d-transposed-grad", "transposed-view", "stack"])
def test_adam_split_over_the_pool_matches_whole_array_formula(case, threads, monkeypatch):
    """Parameters of at least SPLIT_MIN elements are cut into row pieces over
    the pool, each blocked on its own scratch pair, with the bits of the
    whole-array update and in place in the parameter's own array."""
    monkeypatch.setenv("DISENTS_THREADS", threads)
    rng = np.random.default_rng(45)
    if case == "transposed-view":  # K=4 experts.w installed as a transposed view
        model = DisenTSModel(ModelConfig(n_experts=4, backbone=BackboneConfig("linear", 200, 100),
                                         gate=GateConfig(embed_dim=8, heads=2)))
        base = rng.normal(size=(4, 100, 200))
        model.set_parameter("experts.w", Tensor(base.transpose(0, 2, 1), requires_grad=True))
        params = [t for _, t in model.named_parameters()]
        assert not params[0].data.flags.c_contiguous and params[0].data.base is base
    else:
        shape = {"1d-ragged": (2 * nc.SPLIT_MIN + 2 * ADAM_BLOCK + 7,),
                 "2d-transposed-grad": (701, 130), "stack": (4, 192, 96)}[case]
        params = [nc.parameter(rng.normal(size=shape))]
    assert params[0].size >= nc.SPLIT_MIN
    datas = [t.data for t in params]
    refs = [(t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for t in params]
    state = AdamState.for_params(params, lr=1e-2)
    for step in range(1, 4):
        grads = [rng.normal(size=t.shape[::-1]).T if case == "2d-transposed-grad"
                 else rng.normal(size=t.shape) for t in params]
        adam_step(params, grads, state)
        for (p, m, v), g in zip(refs, grads):
            whole_array_adam(p, g, m, v, step, lr=1e-2)
    assert (nc._POOL is not None) == (threads != "1")
    assert 1 <= len(state.scratch) <= int(threads)
    for t, data, (p, m, v), sm, sv in zip(params, datas, refs, state.m, state.v, strict=True):
        assert t.data is data
        assert same_bits(t.data, p) and same_bits(sm, m) and same_bits(sv, v)


def test_adam_states_never_share_scratch(monkeypatch):
    """No two states, and no two scratch pairs of one state, share memory,
    also once threaded steps have given a state a pair per row piece. The
    threaded steps run more pieces than cores with a short switch interval;
    pieces sharing a pair would break the bits of the update."""
    p = nc.parameter(np.zeros(3))
    states = [AdamState.for_params([p]), AdamState.for_params([p]), AdamState(), AdamState()]
    monkeypatch.setenv("DISENTS_THREADS", "4")
    rng = np.random.default_rng(46)
    big = [nc.parameter(rng.normal(size=(6, nc.SPLIT_MIN))) for _ in range(2)]
    refs = [(t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for t in big]
    threaded = [AdamState.for_params([t], lr=1e-2) for t in big]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for step in range(1, 4):
            for t, state, (ref_p, ref_m, ref_v) in zip(big, threaded, refs):
                g = rng.normal(size=t.shape)
                adam_step([t], [g], state)
                whole_array_adam(ref_p, g, ref_m, ref_v, step, lr=1e-2)
    finally:
        sys.setswitchinterval(interval)
    assert nc._POOL is not None and all(1 <= len(state.scratch) <= 4 for state in threaded)
    assert all(same_bits(t.data, ref[0]) for t, ref in zip(big, refs))
    buffers = [buf for state in states + threaded for pair in state.scratch for buf in pair]
    assert all(not np.shares_memory(a, b) for i, a in enumerate(buffers) for b in buffers[i + 1:])


def test_warm_adam_step_allocates_no_full_size_temporaries(monkeypatch):
    n = 1 << 20
    p = nc.parameter(rand((n,), 43))
    g = rand((n,), 44)
    for threads in ("1", "2"):  # inline, then in two row pieces
        monkeypatch.setenv("DISENTS_THREADS", threads)
        state = AdamState.for_params([p])
        adam_step([p], [g], state)
        tracemalloc.start()
        try:
            adam_step([p], [g], state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, threads  # one full-size temporary alone is 8 MiB


def _first_entry_adjoints(op, a, b, g):
    with recording() as rec:
        op(a, b)
    return rec._entries[0].backward(g)


def test_constant_operands_get_no_adjoint():
    a, b, g = rand((4, 3), 45), rand((3, 5), 46), rand((4, 5), 47)
    d_a, d_b = _first_entry_adjoints(nc.matmul, nc.parameter(a), nc.constant(b), g)
    assert d_b is None and same_bits(d_a, g @ b.T)
    d_a, d_b = _first_entry_adjoints(nc.matmul, nc.constant(a), nc.parameter(b), g)
    assert d_a is None and same_bits(d_b, a.T @ g)

    c, g = rand((3,), 48), rand((4, 3), 49)
    d_a, d_c = _first_entry_adjoints(nc.multiply, nc.parameter(a), nc.constant(c), g)
    assert d_c is None and same_bits(d_a, g * c)
    d_a, d_c = _first_entry_adjoints(nc.multiply, nc.constant(a), nc.parameter(c), g)
    assert d_a is None and same_bits(d_c, (g * a).sum(axis=0))


def test_seeded_ops_are_deterministic():
    def run():
        rng = np.random.default_rng(33)
        x = Tensor(rng.normal(size=(8, 8)))
        out = nc.softmax(nc.matmul(x, Tensor(rng.normal(size=(8, 8)))))
        return nc.dropout(out, 0.3, training=True, rng=rng).data

    assert np.array_equal(run(), run())


def test_backward_counts_the_tape_and_replays_it_once():
    with recording() as rec:
        x = nc.parameter([1.0, -2.0, 3.0])
        loss = nc.sum(nc.multiply(x, x))
        assert len(rec) == 2
        backward(loss)
        assert np.array_equal(x.grad, [2.0, -4.0, 6.0])
        assert len(rec) == 2  # the ops recorded, after the entries are gone
        with pytest.raises(ContractError, match="already replayed"):
            backward(loss)
        with pytest.raises(ContractError, match="already replayed"):
            nc.multiply(x, 2.0)
    assert len(rec) == 2
    with recording(rec), pytest.raises(ContractError, match="already replayed"):
        nc.sum(x)


def test_train_steps_leave_no_tape_behind():
    """With the cyclic collector off, memory after 20 steps is what it was
    after 2: each step's tape and activations are freed by refcount alone."""
    model = DisenTSModel(ModelConfig(n_experts=4, backbone=BackboneConfig("linear", 48, 24)),
                         seed=0)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(16, 8, 48)), rng.normal(size=(16, 8, 24))
    opt = AdamState.for_params([t for _, t in model.named_parameters()], lr=1e-3)
    step_rng = train_rng(0)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(2):
            train_step(model, x, y, opt, step_rng)
        warm, _ = tracemalloc.get_traced_memory()
        for _ in range(18):
            train_step(model, x, y, opt, step_rng)
        later, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert later - warm <= 2 << 20, f"{(later - warm) / 2**20:.1f} MiB left behind by 18 steps"


def test_backward_leaves_grad_on_leaves_only():
    """Op outputs of the replayed record hold no `.grad`; leaves, and only
    they, do: the reached ones their adjoint, an unreached one zeros."""
    model = DisenTSModel(ModelConfig(n_experts=2, backbone=BackboneConfig("linear", 8, 4)),
                         seed=0)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(4, 3, 8)), rng.normal(size=(4, 3, 4))
    stray = nc.parameter(rng.normal(size=3))
    with recording():
        fwd = forward(model, x, training=True, rng=train_rng(0))
        _ = nc.multiply(stray, 2.0)  # recorded, never reaches the loss
        loss = mse_loss(fwd.y_hat, nc.constant(y))
        backward(loss)
    outputs = [loss, fwd.y_hat, fwd.y_hat_norm, fwd.beta, fwd.outputs]
    assert all(t.requires_grad and t.grad is None for t in outputs)
    assert all(p.grad is not None for _, p in model.named_parameters())
    assert np.array_equal(stray.grad, np.zeros(3))


INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu_formula(x, g):
    """GELU and its adjoint over the whole array at once, as NumPy writes them."""
    cdf = (erf(x * INV_SQRT2) + 1.0) * 0.5
    pdf = np.exp(-0.5 * x * x) * INV_SQRT_2PI
    return x * cdf, g * (cdf + x * pdf)


def _gelu_untaped(x):
    """GELU's value with nothing recording, where both ops run it in place
    through `_gelu_of`: as `gelu` of x (over a copy) and as `linear_gelu` of
    a product of x's shape; the second value goes with that product."""
    value = nc.gelu(Tensor(x)).data
    rng = np.random.default_rng(x.size)
    lead = x.shape[:-2] if x.ndim > 2 else ()
    rows = x.shape[-2] if x.ndim > 1 else 1
    a = rng.normal(size=lead + (rows, 3))
    w, b = rng.normal(size=lead + (3, x.shape[-1])), rng.normal(size=lead + (x.shape[-1],))
    product = nc.linear(a, w, b).data
    return value, product, nc.linear_gelu(a, w, b).data


def _gelu_taped(x, g):
    """GELU's value and its adjoint for the output adjoint `g`, read off the
    tape; `x` is used as given, strides and all."""
    t = Tensor(x, requires_grad=True)
    assert t.data is x or np.shares_memory(t.data, x)
    with recording():
        out = nc.gelu(t)
        backward(nc.sum(nc.multiply(out, g)))
    return out.data, t.grad


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("make", [
    lambda rng: rng.normal(size=(3, 5)) * 4,
    lambda rng: rng.normal(size=nc.SPLIT_MIN - 1) * 4,
    lambda rng: rng.normal(size=(257, 256)) * 4,
    lambda rng: rng.normal(size=(1031, 67)) * 4,
    lambda rng: rng.normal(size=(67, 1031)).T * 4,
    lambda rng: rng.normal(size=(2, 600, 130))[:, ::2] * 4,
    lambda rng: rng.normal(size=(3, 301, 257)) * 4,
], ids=["small", "just-below", "large", "odd-rows", "transposed", "strided-3d", "blocks"])
def test_gelu_equals_the_whole_array_formula_at_any_thread_count(make, threads, monkeypatch):
    """On a tape and with nothing recording, where `gelu` and `linear_gelu`
    run GELU in place, over a C-ordered copy of x and over the product, in
    blocks of ADAM_BLOCK ("blocks" is several blocks per thread)."""
    monkeypatch.setenv("DISENTS_THREADS", threads)
    rng = np.random.default_rng(41)
    x = make(rng)
    g = rng.normal(size=x.shape)
    value, adjoint = _gelu_taped(x, g)
    want_value, want_adjoint = _gelu_formula(x, g)
    assert (nc._POOL is not None) == (threads != "1" and x.size >= nc.SPLIT_MIN)
    assert np.array_equal(value, want_value)
    assert np.array_equal(adjoint, want_adjoint)
    untaped, product, fused = _gelu_untaped(x)
    assert np.array_equal(untaped, want_value)
    assert np.array_equal(fused, _gelu_formula(product, 1.0)[0])


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
@pytest.mark.parametrize("make", [
    lambda rng: rng.normal(size=(257, 256)),
    lambda rng: rng.normal(size=(256, 257)).T,
    lambda rng: rng.normal(size=(2, 600, 130))[:, ::2],
], ids=["c-ordered", "transposed", "strided"])
def test_gelu_never_writes_its_input(make, taped, threads, monkeypatch):
    """`gelu` hands a copy of its input to GELU's in-place body, so the
    input's bytes stay as they were, on a tape and with nothing recording.
    The copy must be C-ordered, since the body writes through a flat view
    of it: `np.array`'s default copy keeps a transposed input's layout and
    fails the "transposed" cases here and of the formula test above, and an
    F-ordered copy fails that test's "strided-3d" cases too."""
    monkeypatch.setenv("DISENTS_THREADS", threads)
    x = make(np.random.default_rng(44))
    assert x.size > nc.SPLIT_MIN
    before = x.tobytes()
    t = Tensor(x, requires_grad=True)
    assert np.shares_memory(t.data, x)
    with recording() if taped else nc.no_recording():
        out = nc.gelu(t)
    assert out.requires_grad == taped
    assert x.tobytes() == before
    assert np.array_equal(out.data, _gelu_formula(x, 1.0)[0])


def _linear_gelu_adjoints(op, args, g):
    """The value of `op(x, w, b)` for parameters over `args`, the tape's
    length and the three gradients for the output adjoint `g`."""
    params = [nc.parameter(a) for a in args]
    with recording() as rec:
        out = op(*params)
        backward(nc.sum(nc.multiply(out, g)))
    return out.data, len(rec), [p.grad for p in params]


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("shapes", [
    ((5, 3), (3, 4), (4,)),
    ((600, 40), (40, 257), (257,)),
    ((3, 300, 20), (3, 20, 130), (3, 130)),
], ids=["small", "blocks", "stack"])
def test_linear_gelu_has_the_bits_of_gelu_of_linear(shapes, threads, monkeypatch):
    """One tape entry with the value and adjoints of the two ops, and, with
    an input that takes no gradient, the weight adjoint as the same
    `OuterProduct` as `linear`'s."""
    monkeypatch.setenv("DISENTS_THREADS", threads)
    rng = np.random.default_rng(42)
    args = [rng.normal(size=shape) for shape in shapes]
    g = rng.normal(size=shapes[0][:-1] + shapes[1][-1:])
    fused = _linear_gelu_adjoints(nc.linear_gelu, args, g)
    two = _linear_gelu_adjoints(lambda x, w, b: nc.gelu(nc.linear(x, w, b)), args, g)
    assert (fused[1], two[1]) == (3, 4)  # the loss's multiply and sum included
    assert same_bits(fused[0], two[0])
    assert all(same_bits(a, b) for a, b in zip(fused[2], two[2]))
    if len(shapes[0]) == 2:
        x, w, b = nc.constant(args[0]), nc.parameter(args[1]), nc.parameter(args[2])
        with recording():
            backward(nc.sum(nc.multiply(nc.linear_gelu(x, w, b), g)))
        assert isinstance(w.adjoint, nc.OuterProduct) and same_bits(w.grad, two[2][1])


@pytest.mark.parametrize("shape", [(4, 3, 5, 7), (1, 2, 3, 4), (4, 64, 32, 24), (2, 1, 1, 1),
                                   (3, 7, 11)])
def test_mix_has_the_bits_of_a_multiply_and_a_sum_over_k(shape):
    """`mix` against the formula `pipeline.forward` used before it:
    transpose the [..., K] weights to [K, ..., 1], multiply, sum over K.
    Some entries are -0.0, which NumPy's sum, starting from 0.0, turns into
    0.0."""
    rng = np.random.default_rng(sum(shape))
    k, lead = shape[0], shape[1:-1]
    weights, stack = rng.random(lead + (k,)), rng.normal(size=shape)
    stack.reshape(-1)[::5] = -0.0
    g = rng.normal(size=shape[1:])

    def formula(w, s):
        moved = nc.reshape(nc.transpose(w, (w.ndim - 1,) + tuple(range(w.ndim - 1))),
                           (k,) + lead + (1,))
        return nc.sum(moved * s, axis=0)

    results = []
    for op in (nc.mix, formula):
        w, s = nc.parameter(weights), nc.parameter(stack)
        with recording() as rec:
            out = op(w, s)
            backward(nc.sum(nc.multiply(out, g)))
        results.append((out.data, w.grad, s.grad, len(rec)))
    (value, d_w, d_s, entries), (want, want_w, want_s, _) = results
    assert entries == 3
    assert same_bits(value, want) and same_bits(d_w, want_w) and same_bits(d_s, want_s)
    assert same_bits(nc.mix(weights, stack).data, want)


def test_mix_rejects_mismatched_shapes():
    with pytest.raises(ShapeError, match="mix expects"):
        nc.mix(np.ones((2, 3, 4)), np.ones((3, 2, 3, 5)))
    with pytest.raises(ShapeError, match="mix expects"):
        nc.mix(np.ones((2, 3, 4)), np.ones((4, 2, 4, 5)))
    with pytest.raises(ShapeError, match="mix expects"):
        nc.mix(np.ones(4), np.ones(4))


def test_scipy_erf_is_odd_bit_for_bit():
    """GELU evaluates erf on |x| and copies x's sign back, which has erf's
    own bits only because SciPy's erf computes a negative argument as
    -erf(-x). A SciPy whose erf breaks that fails here."""
    rng = np.random.default_rng(43)
    for scale in (1e-3, 1.0, 4.0, 30.0):
        for _ in range(4):
            x = rng.normal(size=1 << 19) * scale
            assert same_bits(erf(-x), -erf(x)), scale
            assert same_bits(np.copysign(erf(np.abs(x)), x), erf(x)), scale
    points = np.array([0.0, 5e-324, 1.0, 8.0])
    points = np.concatenate([points, np.nextafter(points, np.inf), np.nextafter(points, 0.0),
                             [26.5, 27.0, 1e300, np.inf]])
    points = np.concatenate([points, -points])
    assert same_bits(erf(-points), -erf(points))
    assert same_bits(np.copysign(erf(np.abs(points)), points), erf(points))


def test_by_rows_covers_each_row_once_in_contiguous_chunks(monkeypatch):
    x = np.zeros((1031, 67))
    for threads, pieces in (("1", 1), ("2", 2), ("3", 3)):
        monkeypatch.setenv("DISENTS_THREADS", threads)
        seen = []
        nc.by_rows(seen.append, x)
        if pieces == 1:
            assert seen == [...]
            continue
        spans = sorted((s.start, s.stop) for s in seen)
        assert len(spans) == pieces and spans[0][0] == 0 and spans[-1][1] == x.shape[0]
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert max(b - a for a, b in spans) - min(b - a for a, b in spans) <= 1
    monkeypatch.setenv("DISENTS_THREADS", "8")
    seen = []
    nc.by_rows(seen.append, np.zeros((3, nc.SPLIT_MIN)))  # more threads than rows
    assert sorted(s.start for s in seen) == [0, 1, 2]


def test_small_arrays_read_no_environment_and_touch_no_pool(monkeypatch):
    """Below SPLIT_MIN elements a kernel runs inline: even an unreadable
    DISENTS_THREADS goes unread, and no pool is made. At or above it, the
    variable is read."""
    monkeypatch.setenv("DISENTS_THREADS", "abc")
    nc.drop_pool()
    x = np.random.default_rng(42).normal(size=(64, nc.SPLIT_MIN // 64 - 1))
    value, adjoint = _gelu_taped(x, np.ones_like(x))
    assert np.array_equal(value, _gelu_formula(x, np.ones_like(x))[0])
    assert nc._POOL is None
    small = np.random.default_rng(43).normal(size=(4, 96, 48))
    assert small.size < nc.SPLIT_MIN
    assert pinv(small).data.tobytes() == whole_stack_pinv(small).tobytes()
    p = nc.parameter(np.zeros(nc.SPLIT_MIN - 1))
    adam_step([p], [np.ones(p.shape)], AdamState.for_params([p]))
    assert nc._POOL is None
    with pytest.raises(ConfigError, match="DISENTS_THREADS must be an integer"):
        nc.gelu(Tensor(np.zeros((64, nc.SPLIT_MIN // 64))))
    with pytest.raises(ConfigError, match="DISENTS_THREADS must be an integer"):
        pinv(np.zeros((4, 192, 96)))
    big = nc.parameter(np.zeros(nc.SPLIT_MIN))
    with pytest.raises(ConfigError, match="DISENTS_THREADS must be an integer"):
        adam_step([big], [np.ones(big.shape)], AdamState.for_params([big]))


def test_a_failing_chunk_raises_after_every_chunk_has_run(monkeypatch):
    monkeypatch.setenv("DISENTS_THREADS", "3")
    x = np.zeros((300, 300))
    done = []

    def fn(rows):
        done.append(rows)
        if rows.start == 100:
            raise NumericError("chunk failed")

    with pytest.raises(NumericError, match="chunk failed"):
        nc.by_rows(fn, x)
    assert len(done) == 3


def test_pool_map_keeps_item_order_and_runs_inline_on_a_worker(monkeypatch):
    monkeypatch.setenv("DISENTS_THREADS", "3")
    assert nc.pool_map(lambda i: i * i, range(7)) == [i * i for i in range(7)]
    inner = nc.pool_map(lambda i: nc.pool_map(lambda j: (i, j), range(2)), range(4))
    assert inner == [[(i, 0), (i, 1)] for i in range(4)]


def test_pool_map_raises_a_failure_only_after_every_task_has_ended(monkeypatch):
    """A failing task must not leave a slower one running once `pool_map`
    raises; a task still queued is cancelled or run to its end."""
    monkeypatch.setenv("DISENTS_THREADS", "2")
    started, ended = set(), set()

    def fn(i):
        started.add(i)
        try:
            if i == 0:
                raise NumericError("task 0 failed")
            time.sleep(0.3 if i == 1 else 0.0)
        finally:
            ended.add(i)

    with pytest.raises(NumericError, match="task 0 failed"):
        nc.pool_map(fn, range(4))
    assert {0, 1} <= started and ended == started


def test_pool_map_raises_the_first_failure_in_item_order(monkeypatch):
    monkeypatch.setenv("DISENTS_THREADS", "2")

    def fn(i):
        time.sleep(0.2 if i == 0 else 0.0)
        raise NumericError(f"task {i} failed")

    with pytest.raises(NumericError, match="task 0 failed"):
        nc.pool_map(fn, range(2))


def _affine_taped(op, x, w, b, g):
    """The value and the x, w and b adjoints of `op(x, w, b)` under the loss
    sum(out * g), each operand a fresh leaf."""
    leaves = [nc.parameter(a) for a in (x, w, b)]
    with recording():
        out = op(*leaves)
        backward(nc.sum(nc.multiply(out, g)))
    return [out.data] + [t.grad for t in leaves]


def _matmul_then_add(x, w, b):
    bias = b if b.ndim == 1 else nc.reshape(b, (b.shape[0], 1, -1))
    return nc.add(nc.matmul(x, w), bias)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("shapes", [
    ((3, 1000, 24), (3, 24, 30), (3, 30)),  # K=3 split over 2 threads as 1 + 2 matrices
    ((2, 7, 5), (2, 5, 4), (2, 4)),  # below SPLIT_MIN: inline
    ((1000, 24), (24, 70), (70,)),  # 2-D: never split
], ids=["stack-split", "stack-small", "matrix"])
def test_linear_equals_matmul_then_add_at_any_thread_count(shapes, threads, monkeypatch):
    """The fused op's value and its three adjoints are those of `matmul`
    then `add`, bit for bit, whether or not its stack is split over the pool."""
    monkeypatch.setenv("DISENTS_THREADS", threads)
    rng = np.random.default_rng(43)
    x, w, b = (rng.normal(size=s) for s in shapes)
    g = rng.normal(size=shapes[0][:-1] + shapes[1][-1:])
    fused = _affine_taped(nc.linear, x, w, b, g)
    split = len(shapes[0]) == 3 and g.size >= nc.SPLIT_MIN and threads != "1"
    assert (nc._POOL is not None) == split
    for got, want in zip(fused, _affine_taped(_matmul_then_add, x, w, b, g), strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shapes", [
    ((3, 4), (5, 2), (2,)),  # inner dimensions differ
    ((3, 4), (4, 2), (3,)),  # bias does not match the columns
    ((2, 3, 4), (3, 4, 2), (2, 2)),  # stacks of different depth
    ((2, 3, 4), (2, 4, 2), (2,)),  # a stack's bias needs one row per matrix
    ((3, 4), (2, 4, 2), (2, 2)),  # a matrix against a stack
    ((1, 2, 3, 4), (1, 2, 4, 2), (1, 2, 2)),  # no deeper stacks
])
def test_linear_rejects_mismatched_shapes(shapes):
    with pytest.raises(ShapeError, match="linear expects"):
        nc.linear(*(np.zeros(s) for s in shapes))


def _weight_adjoints(uses, w_shape, seed):
    """Backward of sum(op(x_i, w) * g_i) over `uses`, (op, x shape) pairs
    run in order with w as their one parameter; returns w, the inputs and
    the output adjoints."""
    rng = np.random.default_rng(seed)
    w = nc.parameter(rng.normal(size=w_shape))
    xs = [rng.normal(size=x_shape) for _, x_shape in uses]
    gs = [rng.normal(size=(x.shape[0], w_shape[1])) for x in xs]
    with recording():
        outs = [op(nc.constant(x), w) for (op, _), x in zip(uses, xs)]
        loss = nc.sum(nc.multiply(outs[0], nc.constant(gs[0])))
        for out, g in zip(outs[1:], gs[1:]):
            loss = loss + nc.sum(nc.multiply(out, nc.constant(g)))
        backward(loss)
    return w, xs, gs


def _linear_nb(x, w):
    return nc.linear(x, w, np.zeros(w.shape[1]))


def test_linear_weight_of_a_constant_matrix_input_is_x_t_times_g():
    """The weight adjoint of a 2-D `linear` whose input takes no gradient
    stays an `OuterProduct` of a copy of the input until read; `.grad` is
    then x.T @ g, bit for bit, also once the caller has written its input."""
    w, (x,), (g,) = _weight_adjoints([(_linear_nb, (4, 1152))], (1152, 256), 50)
    assert isinstance(w.adjoint, nc.OuterProduct) and w.adjoint.shape == w.shape
    want = x.T @ g
    x[...] = 0.0
    assert same_bits(w.grad, want)
    assert w.adjoint is w.grad  # formed once, on the first read


@pytest.mark.parametrize("uses", [
    [(_linear_nb, (4, 300)), (_linear_nb, (3, 300))],
    [(_linear_nb, (4, 300)), (nc.matmul, (5, 300)), (_linear_nb, (2, 300))],
], ids=["two-outer-products", "outer-products-around-a-matmul"])
def test_an_outer_product_meeting_another_adjoint_of_its_leaf_sums_as_before(uses):
    """A second adjoint of the same leaf forms the outer product and sums in
    replay order, last op first, as the whole adjoints did."""
    w, xs, gs = _weight_adjoints(uses, (300, 20), 51)
    want = None
    for x, g in zip(xs[::-1], gs[::-1]):
        want = x.T @ g if want is None else want + x.T @ g
    assert isinstance(w.adjoint, np.ndarray) and same_bits(w.adjoint, want)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("shape", [(9216, 256), (1152, 256), (513, 256), (4609, 256)],
                         ids=["longwin-sig_w1", "wide-sig_w1", "513-rows", "4609-rows"])
def test_adam_forms_an_outer_product_in_row_blocks_with_the_whole_bits(shape, threads,
                                                                       monkeypatch):
    """`adam_step` on an `OuterProduct` of K=4 rows equals the whole-array
    update on x.T @ g, parameter and both moments, bit for bit. 513 and 4609
    rows would leave a one-row block or piece beside longer ones."""
    monkeypatch.setenv("DISENTS_THREADS", threads)
    rng = np.random.default_rng(52)
    p = nc.parameter(rng.normal(size=shape))
    ref_p, ref_m, ref_v = p.data.copy(), np.zeros(shape), np.zeros(shape)
    state = AdamState.for_params([p], lr=1e-2)
    assert nc._blocks_of_two_rows(shape)
    for step in range(1, 3):
        x, g = rng.normal(size=(4, shape[0])), rng.normal(size=(4, shape[1]))
        adam_step([p], [nc.OuterProduct(x, g)], state)
        whole_array_adam(ref_p, x.T @ g, ref_m, ref_v, step, lr=1e-2)
    assert same_bits(p.data, ref_p)
    assert same_bits(state.m[0], ref_m) and same_bits(state.v[0], ref_v)


@pytest.mark.parametrize("shape, threads", [((5, 20000), "3"), ((2, 40000), "1")],
                         ids=["a-one-row-piece", "rows-wider-than-a-third-of-a-block"])
def test_adam_forms_an_outer_product_whole_where_a_block_would_hold_one_row(shape, threads,
                                                                            monkeypatch):
    monkeypatch.setenv("DISENTS_THREADS", threads)
    rng = np.random.default_rng(53)
    p = nc.parameter(rng.normal(size=shape))
    ref_p, ref_m, ref_v = p.data.copy(), np.zeros(shape), np.zeros(shape)
    state = AdamState.for_params([p], lr=1e-2)
    assert not nc._blocks_of_two_rows(shape)
    x, g = rng.normal(size=(4, shape[0])), rng.normal(size=(4, shape[1]))
    adam_step([p], [nc.OuterProduct(x, g)], state)
    whole_array_adam(ref_p, x.T @ g, ref_m, ref_v, 1, lr=1e-2)
    assert same_bits(p.data, ref_p) and same_bits(state.v[0], ref_v)
