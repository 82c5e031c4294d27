"""Property tests: CSV round trip, the window table, scoring on arbitrary series, and
the CLI on corrupted checkpoints and CSVs and on channels of any magnitude."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tsgad.cli import main
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


# corrupted inputs: the CLI ends in a documented exit code, never in a traceback

@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A valid tiny CSV and a checkpoint trained on it by the CLI."""
    root = tmp_path_factory.mktemp("cli")
    data, ckpt = root / "data.csv", root / "model.ckpt.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--channels", "3", "--length", "160", "--spike", "100:110",
                     "--seed", "1", "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--out", str(ckpt), "--seed", "0",
                     "--window", "8", "--stride", "4", "--batch", "4", "--epochs", "1",
                     "--hidden", "4", "--d-step", "2"]) == 0
    return data, ckpt


def _leaves(node, path=()):
    """Paths to every scalar of a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
    if items is None:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


def _wrong_values(value):
    """Replacements that no field holding ``value`` accepts: another JSON type, or out of range.

    Integers stay small: the model is allocated from ``hidden`` before the stored
    shapes are compared.
    """
    others = [None, [], {}, "?"]
    if isinstance(value, bool):
        return others + [0, 1]
    if isinstance(value, int):
        return others + [-1, 0.5, True]
    if isinstance(value, float):
        return others + [float("nan"), float("inf"), True]
    return others + [0, ""]


def _eval_exit_code(data, checkpoint, out_dir):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--data", str(data), "--checkpoint", str(checkpoint),
                     "--out-prefix", str(Path(out_dir) / "e")])
    return code, err.getvalue()


@PROPERTY
@given(data=st.data())
def test_cli_corrupted_checkpoint_field_exits_cleanly(cli_inputs, data):
    csv_path, ckpt = cli_inputs
    checkpoint = json.loads(ckpt.read_text())
    path = data.draw(st.sampled_from(_leaves(checkpoint)))
    parent = checkpoint
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(st.sampled_from(_wrong_values(parent[path[-1]])))
    with tempfile.TemporaryDirectory() as tmp:
        broken = Path(tmp) / "broken.ckpt.json"
        broken.write_text(json.dumps(checkpoint))
        code, err = _eval_exit_code(csv_path, broken, tmp)
    assert code in (1, 2, 3), (path, parent[path[-1]], code)
    assert "Traceback" not in err


def _is_utf8(raw):
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


# byte sequences that do not decode as UTF-8
NOT_UTF8 = st.binary(min_size=1, max_size=4).filter(lambda raw: not _is_utf8(raw))


@PROPERTY
@given(data=st.data())
def test_cli_corrupted_csv_cell_exits_cleanly(cli_inputs, data):
    csv_path, ckpt = cli_inputs
    lines = csv_path.read_text().splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    column = data.draw(st.integers(0, len(cells) - 1))
    if row == 0:
        bad = ["", "?", "label", cells[(column + 1) % len(cells)]]  # a header name
    elif lines[0].split(",")[column] == "label":
        bad = ["2", "-1", "0.5", "", "x", "nan"]
    else:
        bad = ["nan", "inf", "-inf", "1e999", "", "x", "1,2"]
    cell = data.draw(st.one_of(st.sampled_from(bad).map(str.encode), NOT_UTF8))
    cells[column] = cell.decode("utf-8", "surrogateescape")  # undecodable bytes survive the round trip
    lines[row] = ",".join(cells)
    with tempfile.TemporaryDirectory() as tmp:
        broken = Path(tmp) / "broken.csv"
        broken.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        code, err = _eval_exit_code(broken, ckpt, tmp)
    if _is_utf8(cell):
        assert code in (1, 2, 3), (row, column, cell, code)
    else:
        assert code == 2, (row, column, cell, code)
    assert "Traceback" not in err


@settings(PROPERTY, max_examples=8)
@given(exponent=st.integers(-300, 308))
def test_cli_train_on_a_channel_of_any_magnitude_exits_cleanly(exponent):
    """A channel at 10^exponent trains to a checkpoint that eval scores, or train ends in one
    line with a documented exit code; either way numpy warns nothing."""
    steps = np.arange(300)
    column = 10.0 ** exponent * (1.0 + 0.5 * np.sin(steps / 5.0))
    labels = ((steps >= 250) & (steps < 270)).astype(int)
    lines = ["a,b,label"] + [f"{x!r},{float(np.sin(i / 7.0))!r},{label}"
                             for i, (x, label) in enumerate(zip(column.tolist(), labels))]
    with tempfile.TemporaryDirectory() as tmp:
        data, ckpt = Path(tmp) / "data.csv", Path(tmp) / "model.ckpt.json"
        data.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["train", "--data", str(data), "--out", str(ckpt), "--seed", "0", "--window", "10",
                         "--stride", "5", "--batch", "4", "--epochs", "1", "--hidden", "4", "--d-step", "2"])
        if code == 0:
            assert _eval_exit_code(data, ckpt, tmp) == (0, "")
    # tsgad's own note on a near-constant channel is the one warning allowed
    assert all(str(w.message).startswith("std clamped to 1") for w in caught), [str(w.message) for w in caught]
    if code != 0:
        assert code in (1, 2, 3) and err.getvalue().startswith("tsgad: ") and err.getvalue().count("\n") == 1
