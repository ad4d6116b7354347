"""CSV round trips, chronological splitting with train-only statistics,
sliding windows, the grouped synthetic generator, and routing purity."""

import numpy as np
import pytest

from disents.datakit import (GroupSpec, SeriesDataset, WindowedData, WindowSpec, default_four_group,
                             default_two_group, labels_sidecar_path, load_csv,
                             load_labels, make_windows, routing_purity, save_csv,
                             sliding_windows, split_standardize, synth_generate)
from disents.errors import ConfigError, ContractError, ParseError, ShapeError


def test_dataset_validation():
    with pytest.raises(ShapeError):
        SeriesDataset(values=np.zeros(5), channel_names=["a"])
    with pytest.raises(ContractError):
        SeriesDataset(values=np.zeros((5, 2)), channel_names=["a"])
    with pytest.raises(ContractError):
        SeriesDataset(values=np.zeros((5, 2)), channel_names=["a", "b"], group_labels=[0])


def test_window_spec_validation():
    with pytest.raises(ConfigError):
        WindowSpec(lookback=0, horizon=4)
    with pytest.raises(ConfigError):
        WindowSpec(lookback=8, horizon=4, stride=0)
    with pytest.raises(ConfigError):
        WindowSpec(lookback=8, horizon=4, fractions=(0.5, 0.5, 0.5))
    with pytest.raises(ConfigError):
        WindowSpec(lookback=8, horizon=4, fractions=(1.0, -0.5, 0.5))


def test_load_csv_drops_date_column(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,3.0,4.0\n")
    ds = load_csv(p)
    assert ds.channel_names == ["a", "b"]
    assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_detects_unlabelled_timestamps(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("ts,a,b\n01:00,1,2\n02:00,3,4\n")
    ds = load_csv(p)
    assert ds.channel_names == ["a", "b"]
    assert ds.values.shape == (2, 2)


def test_load_csv_without_timestamps(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    assert load_csv(p).channel_names == ["a", "b"]


def test_load_csv_errors(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("date,a\n0,1\n")
    with pytest.raises(ParseError, match="fewer than two data rows"):
        load_csv(short)

    bad = tmp_path / "bad.csv"
    bad.write_text("date,a,b\n0,1.0,2.0\n1,oops,4.0\n")
    with pytest.raises(ParseError, match=r"row 2, column 2"):
        load_csv(bad)

    inf = tmp_path / "inf.csv"
    inf.write_text("date,a\n0,1.0\n1,inf\n")
    with pytest.raises(ParseError, match="non-finite"):
        load_csv(inf)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("date,a,b\n0,1,2\n1,3\n")
    with pytest.raises(ParseError, match="row 2 has 2 cells"):
        load_csv(ragged)


def test_load_csv_rejects_repeated_channel_names(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("date,a,b,a\n0,1,2,3\n1,4,5,6\n")
    with pytest.raises(ParseError, match="repeats channel names: 'a'"):
        load_csv(p)


def test_byte_order_mark_is_dropped(tmp_path):
    # save_csv writes integer timestamps, so a BOM'd "date" header would
    # otherwise pass as a channel holding the row index
    data = tmp_path / "bom.csv"
    data.write_bytes(b"\xef\xbb\xbfdate,a,b\n0,1.0,2.0\n1,3.0,4.0\n")
    ds = load_csv(data)
    assert ds.channel_names == ["a", "b"]
    assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])
    labels = tmp_path / "bom.labels.csv"
    labels.write_bytes(b"\xef\xbb\xbfchannel,group\na,0\nb,1\n")
    assert load_labels(labels) == {"a": 0, "b": 1}


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = SeriesDataset(values=rng.normal(size=(50, 3)) * 1e-3,
                       channel_names=["x", "y", "z"])
    path = save_csv(ds, tmp_path / "round.csv")
    back = load_csv(path)
    assert back.channel_names == ds.channel_names
    assert np.array_equal(back.values, ds.values)  # %.17g keeps every bit


def test_labels_sidecar_round_trip(tmp_path):
    ds = synth_generate(default_two_group(), length=60, channels_per_group=2, seed=1)
    path = save_csv(ds, tmp_path / "synthetic.csv")
    sidecar = labels_sidecar_path(path)
    assert sidecar.name == "synthetic.labels.csv"
    assert sidecar.exists()
    labels = load_labels(sidecar)
    assert labels == {"g0c0": 0, "g0c1": 0, "g1c0": 1, "g1c1": 1}
    with pytest.raises(ParseError):
        load_labels(path)  # the data file is not a sidecar


def test_split_standardize_uses_train_statistics_only():
    t = np.arange(200, dtype=np.float64)
    values = np.stack([t * 0.1 + 3.0, np.sin(t)], axis=1)
    splits = split_standardize(SeriesDataset(values, ["a", "b"]),
                               WindowSpec(lookback=8, horizon=4))
    assert splits.train.shape == (140, 2)
    assert splits.val.shape == (20, 2)
    assert splits.test.shape == (40, 2)
    assert np.abs(splits.train.mean(axis=0)).max() <= 1e-12
    assert np.abs(splits.train.std(axis=0) - 1.0).max() <= 1e-12
    # the trended channel keeps climbing, so later splits sit far from zero
    assert splits.val[:, 0].mean() > 1.0
    assert splits.test[:, 0].mean() > splits.val[:, 0].mean()


def test_split_standardize_floors_constant_channels():
    values = np.ones((200, 1)) * 4.2
    splits = split_standardize(SeriesDataset(values, ["flat"]), WindowSpec(8, 4))
    assert np.array_equal(splits.train, np.zeros_like(splits.train))
    assert splits.std[0] == 1e-8


def test_split_standardize_rejects_too_small_splits():
    values = np.random.default_rng(2).normal(size=(40, 1))
    with pytest.raises(ConfigError, match="val split"):
        split_standardize(SeriesDataset(values, ["a"]), WindowSpec(lookback=8, horizon=4))


def test_sliding_window_count_and_content():
    t = np.arange(20, dtype=np.float64)
    split = np.stack([t, -t], axis=1)
    x, y = sliding_windows(split, lookback=6, horizon=3, stride=2)
    assert x.shape == (6, 2, 6) and y.shape == (6, 2, 3)  # (20-6-3)//2 + 1
    assert np.array_equal(x[0, 0], t[:6])
    assert np.array_equal(y[0, 0], t[6:9])
    assert np.array_equal(x[2, 1], -t[4:10])
    assert np.array_equal(y[2, 1], -t[10:13])
    with pytest.raises(ConfigError):
        sliding_windows(split[:5], lookback=6, horizon=3)


def test_make_windows_shapes():
    ds = synth_generate(default_two_group(), length=400, channels_per_group=2, seed=3)
    spec = WindowSpec(lookback=24, horizon=12, stride=3)
    data = make_windows(split_standardize(ds, spec), spec)
    assert data.train_x.shape == ((280 - 36) // 3 + 1, 4, 24)
    assert data.train_y.shape[2] == 12
    assert data.test_x.shape[0] == (80 - 36) // 3 + 1


def test_windows_are_read_only_views_of_the_split():
    ds = synth_generate(default_two_group(), length=400, channels_per_group=2, seed=4)
    spec = WindowSpec(lookback=24, horizon=12)
    splits = split_standardize(ds, spec)
    data = make_windows(splits, spec)
    for part in ("train", "val", "test"):
        split = getattr(splits, part)
        for arr in (getattr(data, f"{part}_x"), getattr(data, f"{part}_y")):
            assert not arr.flags.writeable
            assert np.shares_memory(arr, split)
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 0.0
    # six positional arrays in, only those six arrays in vars()
    fields = ["train_x", "train_y", "val_x", "val_y", "test_x", "test_y"]
    assert list(vars(data)) == fields
    assert all(isinstance(a, np.ndarray) for a in vars(data).values())
    again = WindowedData(*vars(data).values())
    assert all(getattr(again, f) is getattr(data, f) for f in fields)


def test_group_spec_validation():
    with pytest.raises(ConfigError):
        GroupSpec(period=0.0)
    with pytest.raises(ConfigError):
        GroupSpec(period=24.0, phase_jitter=-1.0)
    with pytest.raises(ConfigError):
        synth_generate([], length=100)
    with pytest.raises(ConfigError):
        synth_generate(default_two_group(), length=100, noise=-0.1)


def test_synth_is_seed_deterministic():
    a = synth_generate(default_two_group(), length=200, seed=7)
    b = synth_generate(default_two_group(), length=200, seed=7)
    assert np.array_equal(a.values, b.values)
    c = synth_generate(default_two_group(), length=200, seed=8)
    assert not np.array_equal(a.values, c.values)
    assert a.channel_names == [f"g{g}c{c}" for g in range(2) for c in range(4)]
    assert a.group_labels == [0] * 4 + [1] * 4


def test_synth_clean_signal_is_periodic():
    spec = GroupSpec(period=24.0, amplitude=1.0, trend=0.0, phase_jitter=0.5)
    ds = synth_generate([spec], length=120, channels_per_group=2, noise=0.0, seed=9)
    x = ds.values
    assert np.abs(x[:-24] - x[24:]).max() <= 1e-9
    # phase jitter separates channels of the same group
    assert np.abs(x[:, 0] - x[:, 1]).max() > 0.01


def test_synth_sign_flip_mirrors_the_group():
    groups = [GroupSpec(period=24.0, sign=1.0), GroupSpec(period=24.0, sign=-1.0)]
    ds = synth_generate(groups, length=100, channels_per_group=1, noise=0.0, seed=10)
    assert np.array_equal(ds.values[:, 1], -ds.values[:, 0])
    corr = np.corrcoef(ds.values[:, 0], ds.values[:, 1])[0, 1]
    assert corr == pytest.approx(-1.0)


def test_default_groups():
    two, four = default_two_group(), default_four_group()
    assert [g.period for g in two] == [24.0, 37.0]
    assert all(g.harmonics > 1 for g in two)  # rich patterns, not lone sinusoids
    # pattern spaces must jointly exceed a 48-sample window for the
    # unified-model conflict the acceptance run measures
    assert sum(2 * g.harmonics for g in two) > 48
    assert len({g.period for g in four}) == 4
    assert {g.sign for g in four} == {1.0, -1.0}


def test_harmonic_generator_reduces_to_plain_sinusoid():
    base = GroupSpec(period=24.0, phase_jitter=0.3, harmonics=1)
    a = synth_generate([base], length=100, channels_per_group=2, noise=0.05, seed=12)
    t = np.arange(100, dtype=np.float64)
    rng = np.random.default_rng(12)
    omega = 2.0 * np.pi * 1 / 24.0
    for c in range(2):
        phase = rng.uniform(0.0, 0.3)
        clean = np.sin(omega * t + 1 * phase + 0.0)
        expected = clean + rng.normal(0.0, 0.05, size=100)
        assert np.abs(a.values[:, c] - expected).max() <= 1e-15


def test_harmonic_validation():
    with pytest.raises(ConfigError):
        GroupSpec(period=24.0, harmonics=0)
    with pytest.raises(ConfigError):
        GroupSpec(period=24.0, harmonic_decay=0.0)
    with pytest.raises(ConfigError):
        GroupSpec(period=24.0, harmonic_decay=1.5)


def test_harmonic_pattern_keeps_unit_energy_and_period():
    spec = GroupSpec(period=20.0, harmonics=6, trend=0.0, phase_jitter=0.0)
    ds = synth_generate([spec], length=2000, channels_per_group=1, noise=0.0, seed=13)
    x = ds.values[:, 0]
    assert np.abs(x[:-20] - x[20:]).max() <= 1e-9  # periodicity survives harmonics
    assert abs(float(np.mean(x ** 2)) - 0.5) <= 0.05  # same power as one sinusoid


def test_routing_purity_perfect_and_single_expert():
    beta = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.3, 0.7]])
    assert routing_purity(beta, [0, 0, 1, 1]) == 1.0
    # swapped expert identities are still pure: purity is label-permutation free
    assert routing_purity(beta[:, ::-1], [0, 0, 1, 1]) == 1.0
    assert routing_purity(np.ones((6, 1)), [0, 0, 0, 1, 1, 1]) == 1.0


def test_routing_purity_majority_and_ties():
    beta = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
    assert routing_purity(beta, [0, 0, 0]) == pytest.approx(2.0 / 3.0)
    ties = np.full((4, 2), 0.5)  # argmax ties fall to expert 0 for every channel
    assert routing_purity(ties, [0, 0, 1, 1]) == 1.0
    with pytest.raises(ContractError):
        routing_purity(beta, [0, 0])
    with pytest.raises(ShapeError):
        routing_purity(np.zeros((0, 2)), [])


def test_routing_purity_of_random_assignment_hovers_near_half():
    rng = np.random.default_rng(11)
    labels = np.repeat([0, 1], 200)
    scores = [routing_purity(rng.random((400, 2)), labels) for _ in range(200)]
    mean = float(np.mean(scores))
    assert 0.5 <= mean <= 0.56  # majority matching adds a small positive bias
