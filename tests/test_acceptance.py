"""Acceptance gate: one test per headline guarantee of the package.

Each criterion prints a single PASS/FAIL line with its measured margin, so
`python3 -m pytest tests/test_acceptance.py -v -s` reads as a checklist.
Criteria 1-5 are closed-form or oracle checks and finish in seconds; 6-8
train real models on the grouped synthetic task and take a few minutes
combined. Criterion 9 needs a user-supplied dataset and skips when absent.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from disents import numcore as nc
from disents.backbones import Backbone, BackboneConfig, forecast_batch
from disents.datakit import (
    SeriesDataset,
    WindowSpec,
    default_four_group,
    default_two_group,
    load_csv,
    make_windows,
    routing_purity,
    split_standardize,
    synth_generate,
)
from disents.gating import GateConfig
from disents.lwa import EmaRegistry, approximate, select_top_k
from disents.objectives import LossConfig, mse_loss, similarity_constraint, total_loss
from disents.pipeline import (
    DisenTSModel,
    ModelConfig,
    Stationarizer,
    TrainConfig,
    evaluate,
    expert_signatures,
    fit,
    forward,
    init_rng,
    mean_routing,
    unified_baseline,
)

SEEDS = (0, 1, 2)
SPEC = WindowSpec(lookback=48, horizon=24)
BACKBONE = BackboneConfig("linear", SPEC.lookback, SPEC.horizon)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _train_config(seed: int) -> TrainConfig:
    return TrainConfig(epochs=15, batch_size=32, lr=1e-3, patience=3, seed=seed)


def _windowed(dataset: SeriesDataset):
    return make_windows(split_standardize(dataset, SPEC), SPEC)


# ---------------------------------------------------------------------------
# criterion 1: finite differences agree with the tape on every op and on the
# full toy training loss, parameter by parameter


def _dot(out, proj: np.ndarray):
    return nc.sum(nc.multiply(out, nc.constant(proj)))


def _op_cases():
    rng = np.random.default_rng(2024)
    a = rng.normal(size=(3, 4))
    pos = rng.uniform(0.5, 2.0, size=(3, 4))
    away = a + 0.3 * np.sign(a)  # keep relu kinks h away from the probe
    other = rng.normal(size=(3, 4))
    m_right = rng.normal(size=(4, 5))
    m_left = rng.normal(size=(5, 3))
    gain = rng.uniform(0.5, 1.5, size=4)
    bias = rng.normal(size=4)
    p34 = rng.normal(size=(3, 4))
    p43 = rng.normal(size=(4, 3))
    p35 = rng.normal(size=(3, 5))
    p54 = rng.normal(size=(5, 4))
    p26 = rng.normal(size=(2, 6))
    p38 = rng.normal(size=(3, 8))
    p64 = rng.normal(size=(6, 4))
    p32 = rng.normal(size=(3, 2))
    p44 = rng.normal(size=(4, 4))
    p14 = rng.normal(size=(1, 4))
    p3 = rng.normal(size=3)
    p4 = rng.normal(size=4)
    stack_left = rng.normal(size=(2, 3, 4))
    stack_right = rng.normal(size=(2, 4, 5))
    p235 = rng.normal(size=(2, 3, 5))
    p324 = rng.normal(size=(3, 2, 4))
    b5 = rng.normal(size=5)
    b25 = rng.normal(size=(2, 5))
    mix_weights = rng.uniform(size=(4, 2))  # [4, K] over the [K, 4, 5] stack_right
    p45 = rng.normal(size=(4, 5))
    c = nc.constant
    return [
        ("add", lambda t: _dot(nc.add(t, c(other)), p34), a),
        ("subtract", lambda t: _dot(nc.subtract(c(other), t), p34), a),
        ("multiply", lambda t: _dot(nc.multiply(t, c(other)), p34), a),
        ("divide numerator", lambda t: _dot(nc.divide(t, c(pos)), p34), a),
        ("divide denominator", lambda t: _dot(nc.divide(c(other), t), p34), pos),
        ("negate", lambda t: _dot(nc.negate(t), p34), a),
        ("matmul lhs", lambda t: _dot(nc.matmul(t, c(m_right)), p35), a),
        ("matmul rhs", lambda t: _dot(nc.matmul(c(m_left), t), p54), a),
        ("transpose", lambda t: _dot(nc.transpose(t), p43), a),
        ("stacked matmul lhs", lambda t: _dot(nc.matmul(t, c(stack_right)), p235), stack_left),
        ("stacked matmul rhs", lambda t: _dot(nc.matmul(c(stack_left), t), p235), stack_right),
        ("transpose axes", lambda t: _dot(nc.transpose(t, axes=(1, 0, 2)), p324), stack_left),
        ("linear input", lambda t: _dot(nc.linear(t, c(m_right), c(b5)), p35), a),
        ("linear weight", lambda t: _dot(nc.linear(c(a), t, c(b5)), p35), m_right),
        ("linear bias", lambda t: _dot(nc.linear(c(a), c(m_right), t), p35), b5),
        ("stacked linear input",
         lambda t: _dot(nc.linear(t, c(stack_right), c(b25)), p235), stack_left),
        ("stacked linear weight",
         lambda t: _dot(nc.linear(c(stack_left), t, c(b25)), p235), stack_right),
        ("stacked linear bias",
         lambda t: _dot(nc.linear(c(stack_left), c(stack_right), t), p235), b25),
        ("linear_gelu input", lambda t: _dot(nc.linear_gelu(t, c(m_right), c(b5)), p35), a),
        ("linear_gelu weight", lambda t: _dot(nc.linear_gelu(c(a), t, c(b5)), p35), m_right),
        ("linear_gelu bias", lambda t: _dot(nc.linear_gelu(c(a), c(m_right), t), p35), b5),
        ("mix weights", lambda t: _dot(nc.mix(t, c(stack_right)), p45), mix_weights),
        ("mix stack", lambda t: _dot(nc.mix(c(mix_weights), t), p45), stack_right),
        ("reshape", lambda t: _dot(nc.reshape(t, (2, 6)), p26), a),
        ("concat axis1", lambda t: _dot(nc.concat([t, c(other)], axis=1), p38), a),
        ("concat axis0", lambda t: _dot(nc.concat([c(other), t], axis=0), p64), a),
        ("slice_axis", lambda t: _dot(nc.slice_axis(t, 1, 1, 3), p32), a),
        ("gather_rows", lambda t: _dot(nc.gather_rows(t, np.array([2, 0, 1, 0])), p44), a),
        ("exp", lambda t: _dot(nc.exp(nc.multiply(t, c(0.5))), p34), a),
        ("log", lambda t: _dot(nc.log(t), p34), pos),
        ("sqrt", lambda t: _dot(nc.sqrt(t), p34), pos),
        ("relu", lambda t: _dot(nc.relu(t), p34), away),
        ("gelu", lambda t: _dot(nc.gelu(t), p34), a),
        ("sum all", lambda t: nc.multiply(nc.sum(t), c(1.3)), a),
        ("sum axis0", lambda t: _dot(nc.sum(t, axis=0, keepdims=True), p14), a),
        ("mean axis1", lambda t: _dot(nc.mean(t, axis=1), p3), a),
        ("variance all", lambda t: nc.multiply(nc.variance(t), c(0.7)), a),
        ("variance axis0", lambda t: _dot(nc.variance(t, axis=0), p4), a),
        ("softmax", lambda t: _dot(nc.softmax(t), p34), a),
        ("layer_norm input", lambda t: _dot(nc.layer_norm(t, c(gain), c(bias)), p34), a),
        ("layer_norm gain", lambda t: _dot(nc.layer_norm(c(a), t, c(bias)), p34), gain),
        ("layer_norm bias", lambda t: _dot(nc.layer_norm(c(a), c(gain), t), p34), bias),
        (
            "dropout",
            lambda t: _dot(
                nc.dropout(t, 0.4, training=True, rng=np.random.default_rng(17)), p34
            ),
            a,
        ),
    ]


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    worst_op, worst_op_name = 0.0, "none"
    for name, f, x0 in _op_cases():
        err = nc.grad_check(f, nc.constant(np.array(x0, dtype=np.float64)))
        if err > worst_op:
            worst_op, worst_op_name = err, name

    # end-to-end toy loss: every parameter of a K=2 model against central
    # differences. The selection pool (B*C = 6) is below the top-k default,
    # so the regression rows are a fixed set and the loss stays smooth.
    config = ModelConfig(
        n_experts=2,
        backbone=BackboneConfig("linear", 8, 4),
        gate=GateConfig(embed_dim=8, heads=2, dropout=0.0),
    )
    model = DisenTSModel(config, seed=3)
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 1.0, size=(2, 3, 8)) + rng.normal(size=(2, 3, 1))
    y = rng.normal(0.0, 1.0, size=(2, 3, 4))
    gamma = model.registry.gamma

    def toy_loss():
        res = forward(model, x, training=False)
        l_fc = mse_loss(res.y_hat, nc.constant(y))
        l_sc = similarity_constraint(expert_signatures(model, res), gamma, config.loss)
        return total_loss(l_fc, l_sc, config.loss.sc_weight)

    worst_e2e, worst_param, n_params = 0.0, "none", 0
    for name, tensor in model.named_parameters():
        n_params += tensor.data.size

        def f(probe, _name=name, _orig=tensor):
            model.set_parameter(_name, probe)
            try:
                return toy_loss()
            finally:
                model.set_parameter(_name, _orig)

        err = nc.grad_check(f, nc.constant(tensor.data.copy()))
        if err > worst_e2e:
            worst_e2e, worst_param = err, name
    elapsed = time.perf_counter() - started
    ok = worst_op <= 1e-4 and worst_e2e <= 1e-4 and elapsed < 30.0
    _report(
        1,
        ok,
        f"op sweep max rel err {worst_op:.2e} ({worst_op_name}), toy loss max "
        f"rel err {worst_e2e:.2e} ({worst_param}, {n_params} scalars), "
        f"{elapsed:.1f}s (tol 1e-4, budget 30s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: the pseudo-inverse satisfies the four Moore-Penrose identities
# and matches the normal-equations solution on full-column-rank inputs


def test_criterion_2_pseudo_inverse_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    shapes = [(3, 3), (6, 3), (3, 6)]
    worst = 0.0
    for i in range(20):
        if i % 4 == 3:  # rank 3 embedded in a 5x5 matrix
            a = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 5))
        else:
            a = rng.normal(size=shapes[i % 3])
        p = nc.pinv(nc.constant(a)).data
        for lhs, rhs in (
            (a @ p @ a, a),
            (p @ a @ p, p),
            ((a @ p).T, a @ p),
            ((p @ a).T, p @ a),
        ):
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    a = rng.normal(size=(6, 3))
    b = rng.normal(size=(6, 4))
    least_squares = nc.pinv(nc.constant(a)).data @ b
    normal_eq = np.linalg.solve(a.T @ a, a.T @ b)
    worst_ne = float(np.abs(least_squares - normal_eq).max())
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and worst_ne <= 1e-8 and elapsed < 5.0
    _report(
        2,
        ok,
        f"identity residual {worst:.2e}, normal-equations gap {worst_ne:.2e}, "
        f"{elapsed:.2f}s (tol 1e-8, budget 5s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: the weight approximation recovers a planted bias-free linear
# expert from its own forecasts


def test_criterion_3_signature_recovery():
    started = time.perf_counter()
    lookback, horizon = 24, 12
    k = 2 * lookback
    rng = np.random.default_rng(5)
    backbone = Backbone(BackboneConfig("linear", lookback, horizon), 1, init_rng(9))
    planted = rng.normal(0.0, 0.5, size=(lookback, horizon))
    backbone.params["w"] = nc.parameter(planted.copy()[None])
    backbone.params["b"] = nc.parameter(np.zeros((1, horizon)))
    x = rng.normal(size=(20, 3, lookback))  # pool of 60 rows, k = 48
    outputs = forecast_batch(backbone, nc.constant(x))
    beta = nc.constant(rng.uniform(size=(20, 3, 1)))
    x_hat, f_hat = select_top_k(beta, nc.constant(x), outputs, np.arange(1), k)
    w = approximate(x_hat, f_hat).data[0]
    rel = float(np.linalg.norm(w - planted) / np.linalg.norm(planted))
    elapsed = time.perf_counter() - started
    ok = rel <= 1e-5 and elapsed < 5.0
    _report(
        3,
        ok,
        f"relative Frobenius error {rel:.2e} at k={k}, {elapsed:.2f}s "
        f"(tol 1e-5, budget 5s)",
    )


# ---------------------------------------------------------------------------
# criterion 4: routing weights live on the simplex and stationarization
# round-trips the input


def test_criterion_4_routing_simplex_and_round_trip():
    started = time.perf_counter()
    config = ModelConfig(
        n_experts=3,
        backbone=BackboneConfig("linear", 16, 8),
        gate=GateConfig(embed_dim=16, heads=2, dropout=0.1),
    )
    model = DisenTSModel(config, seed=1)
    worst_sum, worst_neg, worst_trip = 0.0, 0.0, 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.1, 30.0, size=(7, 5, 1))
        x = rng.normal(size=(7, 5, 16)) * scale + rng.normal(0.0, 10.0, size=(7, 5, 1))
        beta = forward(model, x, training=False).beta.data
        worst_sum = max(worst_sum, float(np.abs(beta.sum(axis=-1) - 1.0).max()))
        worst_neg = max(worst_neg, float((-beta).max()))
        stationarizer = Stationarizer(config.eps_norm)
        xn, mu, sigma = stationarizer.normalize(x)
        back = stationarizer.denormalize(nc.constant(xn), mu, sigma).data
        worst_trip = max(worst_trip, float(np.abs(back - x).max()))
    elapsed = time.perf_counter() - started
    ok = (
        worst_sum <= 1e-9
        and worst_neg <= 0.0
        and worst_trip <= 1e-6
        and elapsed < 5.0
    )
    _report(
        4,
        ok,
        f"simplex deviation {worst_sum:.2e} (tol 1e-9), most negative weight "
        f"{-worst_neg:.1e}, round-trip error {worst_trip:.2e} (tol 1e-6), "
        f"{elapsed:.2f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# criterion 5: the contrast term and the registry hit their closed forms


def test_criterion_5_closed_form_losses():
    started = time.perf_counter()
    config = LossConfig()  # tau = 1
    lookback, horizon = 6, 4
    rng = np.random.default_rng(3)

    single = similarity_constraint(
        nc.constant(rng.normal(size=(1, lookback, horizon))),
        rng.normal(size=(1, lookback, horizon)),
        config,
    ).item()

    worst_identical = 0.0
    for k in (2, 3, 5):
        w = rng.normal(size=(lookback, horizon))
        value = similarity_constraint(
            nc.constant(np.stack([w.copy()] * k)),
            np.stack([w.copy()] * k),
            config,
        ).item()
        worst_identical = max(worst_identical, abs(value - k * math.log(k)))

    a = np.zeros((2, 2))
    a[0, 0] = 1.0
    b = np.zeros((2, 2))
    b[0, 1] = 1.0  # unit-norm, mutually orthogonal pair
    pair = similarity_constraint(
        nc.constant(np.stack([a, b])), np.stack([a, b]), config
    ).item()
    pair_err = abs(pair - 2.0 * math.log(1.0 + math.exp(-1.0)))

    registry = EmaRegistry(1, lookback, horizon, alpha=0.9, rng=init_rng(0))
    w0 = rng.normal(size=(lookback, horizon))
    w = rng.normal(size=(lookback, horizon))
    registry.update(w0[np.newaxis])  # first update copies, so gamma_0 = w0
    base_gap = float(np.linalg.norm(w0 - w))
    worst_decay = 0.0
    for t in range(1, 9):
        registry.update(w[np.newaxis])
        gap = float(np.linalg.norm(registry.gamma[0] - w))
        worst_decay = max(worst_decay, abs(gap - 0.9**t * base_gap))

    elapsed = time.perf_counter() - started
    ok = (
        single == 0.0
        and worst_identical <= 1e-6
        and pair_err <= 1e-9
        and worst_decay <= 1e-9
        and elapsed < 5.0
    )
    _report(
        5,
        ok,
        f"single-expert value {single}, identical-signature gap "
        f"{worst_identical:.2e} (tol 1e-6), orthogonal-pair gap {pair_err:.2e}, "
        f"EMA decay gap {worst_decay:.2e} (tol 1e-9), {elapsed:.2f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# criteria 6 and 7 share the two-group training runs


@pytest.fixture(scope="module")
def two_group_runs():
    runs = {}
    for seed in SEEDS:
        train = _train_config(seed)
        started = time.perf_counter()
        dataset = synth_generate(
            default_two_group(), length=4000, channels_per_group=4, noise=0.1, seed=seed
        )
        data = _windowed(dataset)
        base_metrics, _ = unified_baseline(data, BACKBONE, train)

        # skyline oracle: one separate model per group, on its own channels
        labels = np.asarray(dataset.group_labels)
        group_mses = []
        for g in np.unique(labels):
            cols = np.where(labels == g)[0]
            sub = SeriesDataset(
                dataset.values[:, cols], [dataset.channel_names[c] for c in cols]
            )
            metrics, _ = unified_baseline(_windowed(sub), BACKBONE, train)
            group_mses.append(metrics.mse)
        skyline = float(np.mean(group_mses))  # equal channel counts per group

        model = DisenTSModel(ModelConfig(n_experts=2, backbone=BACKBONE), seed=seed)
        fit_started = time.perf_counter()
        fit(model, data, train)
        fit_seconds = time.perf_counter() - fit_started
        metrics = evaluate(model, data.test_x, data.test_y)
        purity = routing_purity(mean_routing(model, data.test_x), dataset.group_labels)
        seed_seconds = time.perf_counter() - started

        # contrast-free twin for the ablation criterion
        plain_started = time.perf_counter()
        plain = DisenTSModel(
            ModelConfig(
                n_experts=2, backbone=BACKBONE, loss=LossConfig(sc_weight=0.0)
            ),
            seed=seed,
        )
        fit(plain, data, train)
        ablation_seconds = fit_seconds + (time.perf_counter() - plain_started)

        runs[seed] = {
            "baseline_mse": base_metrics.mse,
            "skyline_mse": skyline,
            "mse": metrics.mse,
            "purity": purity,
            "gamma_contrast": model.registry.gamma.copy(),
            "gamma_plain": plain.registry.gamma.copy(),
            "seed_seconds": seed_seconds,
            "ablation_seconds": ablation_seconds,
        }
    return runs


def test_criterion_6_two_group_separation(two_group_runs):
    details, ok = [], True
    for seed, run in two_group_runs.items():
        ratio = run["mse"] / run["baseline_mse"]
        gap = run["skyline_mse"] / run["baseline_mse"]
        seed_ok = (
            gap <= 0.6  # separate per-group fits confirm the threshold is earnable
            and ratio <= 0.6
            and run["purity"] >= 0.9
            and run["seed_seconds"] < 120.0
        )
        ok = ok and seed_ok
        details.append(
            f"seed {seed} ratio {ratio:.3f} purity {run['purity']:.3f} "
            f"skyline {gap:.3f} ({run['seed_seconds']:.0f}s)"
        )
    _report(6, ok, "; ".join(details) + " (need ratio <= 0.6, purity >= 0.9, 120s/seed)")


def _mean_pairwise_cosine(gamma: np.ndarray) -> float:
    flat = gamma.reshape(gamma.shape[0], -1)
    unit = flat / np.linalg.norm(flat, axis=1, keepdims=True)
    sims = [
        float(unit[i] @ unit[j])
        for i in range(len(unit))
        for j in range(i + 1, len(unit))
    ]
    return float(np.mean(sims))


def test_criterion_7_contrast_ablation(two_group_runs):
    details, ok, total_seconds = [], True, 0.0
    for seed, run in two_group_runs.items():
        with_sc = _mean_pairwise_cosine(run["gamma_contrast"])
        without = _mean_pairwise_cosine(run["gamma_plain"])
        total_seconds += run["ablation_seconds"]
        ok = ok and with_sc < without
        details.append(f"seed {seed} cosine {with_sc:+.3f} vs {without:+.3f}")
    ok = ok and total_seconds < 240.0
    _report(
        7,
        ok,
        "; ".join(details)
        + f" ({total_seconds:.0f}s; need strictly lower with the constraint, 240s total)",
    )


# ---------------------------------------------------------------------------
# criterion 8: more experts help on the four-group variant


def test_criterion_8_expert_count_sweep():
    details, ok, total_seconds = [], True, 0.0
    for seed in SEEDS:
        started = time.perf_counter()
        dataset = synth_generate(
            default_four_group(), length=4000, channels_per_group=4, noise=0.1, seed=seed
        )
        data = _windowed(dataset)
        mses = {}
        for k in (1, 2, 4):
            model = DisenTSModel(ModelConfig(n_experts=k, backbone=BACKBONE), seed=seed)
            fit(model, data, _train_config(seed))
            mses[k] = evaluate(model, data.test_x, data.test_y).mse
        total_seconds += time.perf_counter() - started
        ok = ok and mses[4] < mses[2] < mses[1]
        details.append(
            f"seed {seed} K=1 {mses[1]:.3f} > K=2 {mses[2]:.3f} > K=4 {mses[4]:.3f}"
        )
    ok = ok and total_seconds < 360.0
    _report(8, ok, "; ".join(details) + f" ({total_seconds:.0f}s; budget 360s)")


# ---------------------------------------------------------------------------
# criterion 9 (optional): spot check on the ETTh2 benchmark when available


def test_criterion_9_real_dataset_spot_check():
    env_path = os.environ.get("DISENTS_ETTH2")
    path = Path(env_path) if env_path else Path(__file__).resolve().parents[1] / "data" / "ETTh2.csv"
    if not path.exists():
        pytest.skip(
            "ETTh2.csv not found; place it under data/ or point DISENTS_ETTH2 at it"
        )
    started = time.perf_counter()
    spec = WindowSpec(lookback=336, horizon=96, fractions=(0.6, 0.2, 0.2))
    dataset = load_csv(path)
    data = make_windows(split_standardize(dataset, spec), spec)
    backbone = BackboneConfig("decomp-linear", spec.lookback, spec.horizon)
    train = TrainConfig(epochs=10, batch_size=32, lr=1e-3, patience=3, seed=0)
    base_metrics, _ = unified_baseline(data, backbone, train)
    model = DisenTSModel(ModelConfig(n_experts=4, backbone=backbone), seed=0)
    fit(model, data, train)
    metrics = evaluate(model, data.test_x, data.test_y)
    elapsed = time.perf_counter() - started
    ok = (
        0.26 <= metrics.mse <= 0.30
        and metrics.mse <= base_metrics.mse + 0.01
        and elapsed < 900.0
    )
    _report(
        9,
        ok,
        f"test MSE {metrics.mse:.4f} (target [0.26, 0.30]), single-expert "
        f"baseline {base_metrics.mse:.4f}, {elapsed:.0f}s (budget 900s)",
    )
