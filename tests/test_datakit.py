"""CSV round trips, the vectorized CSV read against the cell-by-cell one,
chronological splitting with train-only statistics, sliding windows, the
grouped synthetic generator, and routing purity."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from disents.datakit import (GroupSpec, SeriesDataset, WindowedData, WindowSpec, _load_cells,
                             _load_plain, default_four_group, default_two_group,
                             labels_sidecar_path, load_csv, load_labels, make_windows,
                             routing_purity, save_csv, sliding_windows, split_standardize,
                             synth_generate)
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


def test_load_labels_rejects_repeated_channels(tmp_path):
    p = tmp_path / "dup.labels.csv"
    p.write_text("channel,group\na,0\nb,1\na,1\n")
    with pytest.raises(ParseError, match="repeats channel names: 'a'"):
        load_labels(p)


def test_load_labels_needs_exactly_the_sidecar_header(tmp_path):
    p = tmp_path / "extra.labels.csv"
    p.write_text("channel,group,extra\na,0\n")
    with pytest.raises(ParseError, match="is not a labels sidecar"):
        load_labels(p)


def test_a_benchmark_shaped_file_takes_the_vectorized_read(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("date,a,b\n2020-01-01 00:00,1.5, -2e-3\n\n#x,\t3 ,4\n")
    ds = _load_plain(p)
    assert ds is not None and ds.channel_names == ["a", "b"]
    assert np.array_equal(ds.values, [[1.5, -2e-3], [3.0, 4.0]])


# One file per condition the vectorized read checks before it answers. Each
# one it turns down must load, or fail, exactly as the cell-by-cell read does.
GUARDED = [
    ("quoted cell", b'date,a\n0,"1.5"\n1,2\n', ["a"], [[1.5], [2.0]]),
    ("quoted comma", b'date,"a,b"\n0,1\n1,2\n', ["a,b"], [[1.0], [2.0]]),
    ("crlf", b"date,a\r\n0,1\r\n1,2\r\n", ["a"], [[1.0], [2.0]]),
    ("underscore", b"date,a\n0,1_0\n1,2\n", ["a"], [[10.0], [2.0]]),
    ("arabic-indic", "date,a\n0,١٢\n1,2\n".encode(), ["a"], [[12.0], [2.0]]),
    ("undecodable", b"date,a\n0,1\xff\n1,2\n", None, "cannot be read as CSV"),
    ("field limit", b"date,a\n0," + b"1" * 131073 + b"\n1,2\n", None, "cannot be read as CSV"),
    ("two lines", b"date,a\n0,1\n", None, "fewer than two data rows"),
    ("ragged", b"date,a,b\n0,1,2\n1,3\n", None, "row 2 has 2 cells, expected 3"),
    ("whitespace line", b"a\n1\n \n2\n", None, r"malformed cell ' ' at row 2, column 1"),
    ("separator", b"date,a\n0,1\x1c\n1,2\n", None, r"malformed cell '1\\x1c' at row 1, column 2"),
    ("comment", b"date,a\n0,1\n1,#2\n", None, r"malformed cell '#2' at row 2, column 2"),
    ("overflow", b"date,a\n0,1\n1,1e309\n", None, r"non-finite cell '1e309' at row 2, column 2"),
    ("nan", b"a,b\nnan,1\n1,2\n", None, r"non-finite cell 'nan' at row 1, column 1"),
]


@pytest.mark.parametrize("data, names, expected", [case[1:] for case in GUARDED],
                         ids=[case[0] for case in GUARDED])
def test_files_the_vectorized_read_turns_down_load_cell_by_cell(tmp_path, data, names, expected):
    p = tmp_path / "guarded.csv"
    p.write_bytes(data)
    assert _load_plain(p) is None
    if names is None:
        with pytest.raises(ParseError, match=expected):
            load_csv(p)
    else:
        ds = load_csv(p)
        assert ds.channel_names == names
        assert np.array_equal(ds.values, expected)


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    return tmp_path_factory.mktemp("csv-properties") / "table.csv"


NAMES = st.lists(st.text(st.sampled_from('abcXYZ09 _-.,"#'), min_size=1, max_size=5)
                 .filter(lambda name: name == name.strip()), min_size=1, max_size=4, unique=True)


@st.composite
def tables(draw):
    """A dataset, and whether its CSV carries a leading date column."""
    names = draw(NAMES)
    values = draw(hnp.arrays(np.float64, (draw(st.integers(2, 6)), len(names)),
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
    dated = draw(st.booleans()) or names[0].lower() == "date"
    return SeriesDataset(values=values, channel_names=names), dated


def write_table(path, dataset, dated):
    if dated:
        save_csv(dataset, path)
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.channel_names)
        writer.writerows([[f"{v:.17g}" for v in row] for row in dataset.values])


@settings(max_examples=200)
@given(table=tables())
def test_any_table_round_trips_bit_for_bit(csv_file, table):
    dataset, dated = table
    write_table(csv_file, dataset, dated)
    back = load_csv(csv_file)
    assert back.channel_names == dataset.channel_names
    assert back.values.tobytes() == dataset.values.tobytes()  # -0.0 and subnormals too


@settings(max_examples=200)
@given(table=tables(), data=st.data())
def test_one_corrupted_cell_is_named_by_row_and_column(csv_file, table, data):
    dataset, dated = table
    rows, channels = dataset.values.shape
    row = data.draw(st.integers(0, rows - 1))
    channel = data.draw(st.integers(0, channels - 1))
    if not dated and (row, channel) == (0, 0):
        row = 1  # a word in the very first cell would mark the column as timestamps
    bad = data.draw(st.sampled_from(["oops", " ", "1.2.3", "0x10", "--1", "nan", "-inf", "1e999"]))
    write_table(csv_file, dataset, dated)
    lines = csv_file.read_text().split("\n")
    cells = lines[row + 1].split(",")
    column = channel + dated
    cells[column] = bad
    lines[row + 1] = ",".join(cells)
    csv_file.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_csv(csv_file)
    assert str(err.value).endswith(f"{bad!r} at row {row + 1}, column {column + 1}")


# Cells and lines chosen to trip every way the vectorized read could part
# from the csv module and float(): whitespace float() strips and the ASCII
# separators it does not, spellings only float() reads, non-finite numbers,
# quotes, comment marks and commas.
CELLS = ["1", "-2.5", "3e-4", " 4 ", "\t5", "6\x0c", "\xa07", "8\x85", " 9", "1_0", "١٢",
         "nan", "inf", "-Infinity", "1e309", "0x1", "1d5", "", " ", "abc", "1.", ".5", "+1",
         "1\x1c", "\x1f2", "1\x00", "#4", '"5"', '"6,7"', '"a""b"', '8"', "2020-01-01"]


def rarely(draw, strategy, otherwise):
    """A draw from `strategy` when an integer drawn from 0-7 is 0, else
    `otherwise`: each oddity is seldom, so that many files stay plain enough
    for the vectorized read to take them."""
    return draw(strategy) if draw(st.integers(0, 7)) == 0 else otherwise


@st.composite
def adversarial_files(draw):
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(["date", " Date ", "ts", "a", "b", "c ", "", "#x", "1"]),
                           min_size=width, max_size=width, unique=rarely(draw, st.just(False), True)))
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    cell = st.sampled_from(CELLS) if draw(st.booleans()) else number
    rows = [[rarely(draw, cell, draw(number)) for _ in range(width)]
            for _ in range(rarely(draw, st.integers(0, 1), draw(st.integers(2, 6))))]
    lines = [",".join(header)] + [",".join(cells) for cells in rows]
    at = draw(st.integers(1, len(lines)))
    lines[at:at] = rarely(draw, st.sampled_from([[""], [" "], ["#"], ["#,#"], ["\x0c"]]), [])
    if rows and rarely(draw, st.just(True), False):  # a ragged row
        cells = draw(st.sampled_from(rows))
        lines.append(",".join(cells[:-1] if draw(st.booleans()) else cells + ["1"]))
    lines += rarely(draw, st.just(["0," + "1" * 131073]), [])  # over the csv field size limit
    end = rarely(draw, st.just("\r\n"), "\n")
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return rarely(draw, st.just(b"\xef\xbb\xbf"), b"") + text.encode()


def outcome(read, path):
    try:
        dataset = read(path)
    except ParseError as err:
        return str(err)
    return dataset.channel_names, dataset.values.shape, dataset.values.tobytes()


@settings(max_examples=400)
@given(data=adversarial_files())
def test_vectorized_read_equals_the_cell_by_cell_read(csv_file, data):
    csv_file.write_bytes(data)
    assert outcome(load_csv, csv_file) == outcome(_load_cells, csv_file)


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
