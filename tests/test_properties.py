"""Property tests: CSV round trip, the window table, and scoring on arbitrary series."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tsgad.dataio import (
    SeriesDataset,
    num_windows,
    read_series,
    split_normalize,
    synth_generate,
    window_table,
    write_series,
)
from tsgad.train import TrainConfig, score, train

# fixed example sequence and no example database, so runs repeat exactly
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

TINY = dict(window=8, stride=4, batch_size=4, epochs=1, hidden=4, d_step=2, seed=0)
CHANNELS = ["ch0", "ch1", "ch2"]  # synth_generate's names, as in the checkpoint


def _labels(length):
    return hnp.arrays(np.int64, length, elements=st.integers(0, 1))


@PROPERTY
@given(data=st.data(), shape=st.tuples(st.integers(1, 12), st.integers(2, 5)))
def test_write_read_series_roundtrip_exact(data, shape):
    values = data.draw(hnp.arrays(np.float64, shape,
                                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    ds = SeriesDataset([f"c{i}" for i in range(shape[1])], values, data.draw(_labels(shape[0])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        write_series(ds, path)
        back = read_series(path)
    assert back.values.tobytes() == ds.values.tobytes()  # bit-exact, signed zeros included
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.channel_names == ds.channel_names


@PROPERTY
@given(data=st.data(), length=st.integers(1, 60), channels=st.integers(1, 4),
       window=st.integers(1, 30), stride=st.integers(1, 10))
def test_window_table_slices_and_labels(data, length, channels, window, stride):
    window = min(window, length)
    values = np.arange(length * channels, dtype=np.float64).reshape(length, channels)
    labels = data.draw(_labels(length))
    ds = SeriesDataset([f"c{i}" for i in range(channels)], values, labels)
    windows, starts, window_labels = window_table(ds, window, stride)
    count = num_windows(length, window, stride)
    assert windows.shape == (count, window, channels)
    np.testing.assert_array_equal(starts, np.arange(count) * stride)
    for w, start, label in zip(windows, starts, window_labels):
        np.testing.assert_array_equal(w, values[start : start + window])
        assert label == int(labels[start : start + window].any())


@pytest.fixture(scope="module")
def tiny_checkpoint():
    train_ds, _ = split_normalize(synth_generate(3, 240, [], seed=1, noise=0.05), 0.6)
    return train(train_ds, TrainConfig(**TINY)).checkpoint


@PROPERTY
@given(data=st.data(), length=st.integers(12, 60))
def test_score_finite_and_prefix_independent(tiny_checkpoint, data, length):
    values = data.draw(hnp.arrays(np.float64, (length, 3), elements=st.floats(-1e3, 1e3)))
    report = score(SeriesDataset(CHANNELS, values, np.zeros(length)), tiny_checkpoint)
    count = num_windows(length, TINY["window"], TINY["stride"])
    assert report.scores.shape == (count,)
    assert np.all(np.isfinite(report.scores))
    # a window's likelihood term is its own: the same bits within any prefix
    kept = data.draw(st.integers(2, count))
    rows = (kept - 1) * TINY["stride"] + TINY["window"]
    prefix = score(SeriesDataset(CHANNELS, values[:rows], np.zeros(rows)), tiny_checkpoint)
    assert prefix.nll.tobytes() == report.nll[:kept].tobytes()
