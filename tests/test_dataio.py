import numpy as np
import pytest

from tsgad.dataio import (
    AnomalyInterval,
    SeriesDataset,
    normalize_with,
    num_windows,
    read_series,
    split_normalize,
    synth_generate,
    window_table,
    write_series,
)
from tsgad.errors import ConfigError, DataFormatError


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_split_rows(tmp_path):
    lines = ["a,b,label"] + [f"{i},{i * 2},0" for i in range(100)]
    train, test = split_normalize(read_series(_write(tmp_path, "\n".join(lines))), 0.6)
    assert train.length == 60
    assert test.length == 40


def test_load_csv_normalization_train_only(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.normal(5.0, 2.0, size=(200, 3))
    rows[120:] += 10.0  # test segment distribution differs
    lines = ["x,y,z"] + [",".join(repr(float(v)) for v in r) for r in rows]
    train, test = split_normalize(read_series(_write(tmp_path, "\n".join(lines))), 0.6)
    np.testing.assert_allclose(train.values.mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(train.values.std(axis=0), 1.0, atol=1e-6)
    # no leakage: the test split keeps its offset under train statistics
    assert np.abs(test.values.mean(axis=0)).max() > 1.0


def test_constant_channel_clamped_with_warning(tmp_path):
    lines = ["a,b"] + ["2,%d" % i for i in range(10)]
    with pytest.warns(UserWarning, match="clamped"):
        train, _ = split_normalize(read_series(_write(tmp_path, "\n".join(lines))), 1.0)
    np.testing.assert_allclose(train.values[:, 0], 0.0, atol=1e-15)


def test_missing_label_column_gives_zeros(tmp_path):
    lines = ["a,b"] + [f"{i},{i}" for i in range(10)]
    ds = read_series(_write(tmp_path, "\n".join(lines)))
    assert ds.labels.sum() == 0


def test_non_numeric_cell_reports_row_and_column(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,oops\n")
    with pytest.raises(DataFormatError, match=r"row 3.*'b'.*'oops'"):
        read_series(path)


@pytest.mark.parametrize("header, repeated", [("a,b,label,label", "label"), ("a,a,label", "a")])
def test_repeated_header_name_rejected(tmp_path, header, repeated):
    cells = ",".join("0" for _ in header.split(","))
    path = _write(tmp_path, f"{header}\n{cells}\n")
    with pytest.raises(DataFormatError, match=f"column '{repeated}' appears more than once"):
        read_series(path)


def test_roundtrip_exact(tmp_path):
    ds = synth_generate(4, 300, [("spike", 50, 60)], seed=3)
    path = tmp_path / "rt.csv"
    write_series(ds, path)
    back = read_series(path)
    np.testing.assert_array_equal(back.values, ds.values)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.channel_names == ds.channel_names


def test_window_counts_and_starts():
    assert num_windows(100, 60, 10) == 5
    ds = SeriesDataset([f"c{i}" for i in range(2)], np.zeros((100, 2)), np.zeros(100))
    _, starts, _ = window_table(ds, 60, 10)
    np.testing.assert_array_equal(starts, [0, 10, 20, 30, 40])


def test_single_window_when_length_equals_window():
    ds = SeriesDataset(["a", "b"], np.ones((40, 2)), np.zeros(40))
    assert num_windows(ds.length, 40, 10) == 1


def test_window_exceeds_length_raises():
    with pytest.raises(ConfigError, match="exceeds"):
        num_windows(30, 40, 10)


def test_window_labels_any_covered_step():
    labels = np.zeros(100, dtype=np.int64)
    labels[65] = 1
    ds = SeriesDataset(["a", "b"], np.zeros((100, 2)), labels)
    _, starts, wlabels = window_table(ds, 60, 10)
    np.testing.assert_array_equal(wlabels, [0, 1, 1, 1, 1])


def test_windows_match_source_slices():
    rng = np.random.default_rng(1)
    ds = SeriesDataset(["a", "b", "c"], rng.random((120, 3)), np.zeros(120))
    windows, starts, _ = window_table(ds, 30, 7)
    for w, s in zip(windows, starts):
        np.testing.assert_array_equal(w, ds.values[s : s + 30])


def test_synth_no_anomalies_all_zero_labels():
    ds = synth_generate(5, 500, [], seed=1)
    assert ds.labels.sum() == 0


def test_synth_shift_changes_correlation_structure():
    ds = synth_generate(5, 2000, [("interdependency_shift", 200, 260)], seed=7)
    inside = np.corrcoef(ds.values[200:260].T)
    outside = np.corrcoef(ds.values[400:2000].T)
    gap = np.linalg.norm(inside - outside)
    assert gap > 0.5


def test_synth_shift_preserves_marginal_variance():
    ds = synth_generate(5, 2000, [("interdependency_shift", 200, 320)], seed=7)
    v_in = ds.values[200:320].var(axis=0)
    v_out = ds.values[400:520].var(axis=0)
    assert np.abs(v_in - v_out).max() < 0.15


def test_synth_deterministic():
    spec = [("interdependency_shift", 100, 160), ("spike", 300, 320)]
    a = synth_generate(5, 600, spec, seed=11)
    b = synth_generate(5, 600, spec, seed=11)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_synth_requires_seed():
    with pytest.raises(ConfigError, match="seed"):
        synth_generate(5, 100, [])


def test_synth_rejects_overlapping_intervals():
    with pytest.raises(ConfigError, match="overlapping"):
        synth_generate(5, 500, [("spike", 10, 50), ("interdependency_shift", 40, 80)], seed=1)


def test_synth_rejects_out_of_range_interval():
    with pytest.raises(ConfigError, match="past length"):
        synth_generate(5, 100, [("spike", 50, 200)], seed=1)


def test_anomaly_interval_validation():
    with pytest.raises(ConfigError, match="unknown anomaly kind"):
        AnomalyInterval("burst", 0, 10)
    with pytest.raises(ConfigError, match="invalid interval"):
        AnomalyInterval("spike", 10, 10)


def test_split_normalize_tiny_split_rejected():
    ds = SeriesDataset(["a", "b"], np.ones((10, 2)), np.zeros(10))
    with pytest.raises(ConfigError):
        split_normalize(ds, 0.05)


@pytest.mark.parametrize("bad", [2, -1])
def test_non_binary_labels_rejected(bad):
    labels = np.zeros(10)
    labels[3] = bad
    with pytest.raises(DataFormatError, match="labels must be binary"):
        SeriesDataset(["a", "b"], np.ones((10, 2)), labels)


def _two_channels():
    return SeriesDataset(["a", "b"], np.arange(20.0).reshape(10, 2), np.zeros(10))


# cases the CLI cannot reach; the ones it can are in test_cli.py
@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: SeriesDataset(["a"], np.ones(3), np.zeros(3)), DataFormatError, "2-D",
                 id="values-not-2d"),
    pytest.param(lambda: SeriesDataset(["a"], np.ones((3, 2)), np.zeros(3)), DataFormatError,
                 "channel_names length", id="names-vs-columns"),
    pytest.param(lambda: SeriesDataset(["a", "b"], np.ones((3, 2)), np.zeros(2)), DataFormatError,
                 "one entry per time step", id="labels-length"),
    pytest.param(lambda: normalize_with(_two_channels(), np.zeros(3), np.ones(2)), DataFormatError,
                 "do not match the channel count", id="statistics-shape"),
    pytest.param(lambda: split_normalize(_two_channels(), 0.0), ConfigError, r"split_fraction must be in \(0, 1\]",
                 id="split-fraction"),
])
def test_malformed_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_one_standardizing_path():
    """split_normalize's splits hold the bits normalize_with gives the whole series under their statistics."""
    ds = synth_generate(7, 333, [("spike", 250, 260)], seed=5)
    train, test = split_normalize(ds, 0.6)
    whole = normalize_with(ds, train.norm_mean, train.norm_std)
    assert np.concatenate([train.values, test.values]).tobytes() == whole.values.tobytes()
    np.testing.assert_array_equal(np.concatenate([train.labels, test.labels]), ds.labels)
    assert train.norm_std is test.norm_std
