import numpy as np
import pytest

from tsgad import autodiff as ad
from tsgad.autodiff import Tensor
from tsgad.checks import gradient_check
from tsgad.graph import (
    AttentionParams,
    adjacency_export,
    attention_adjacency,
    init_attention,
    read_adjacency_export,
)


def _params(window, seed=0):
    return init_attention(window, np.random.default_rng(seed))


def _graph(windows, params, **kwargs):
    """Adjacency of time-major windows, (T, N) or (B, T, N)."""
    return attention_adjacency(np.swapaxes(windows, -1, -2), params, **kwargs)


def test_identical_channels_give_uniform_rows():
    window = np.tile(np.sin(np.arange(12.0))[:, None], (1, 4))  # 4 equal channels
    a = _graph(window, _params(12))
    np.testing.assert_allclose(a.data, np.full((4, 4), 0.25), atol=1e-12)


def test_rows_stochastic_random_windows():
    rng = np.random.default_rng(1)
    params = _params(10, seed=2)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = _graph(rng.normal(size=(10, n)), params).data
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(a >= 0.0) and np.all(a <= 1.0)


def test_zero_query_weights_give_uniform():
    params = AttentionParams(
        w_query=Tensor(np.zeros((8, 8)), requires_grad=True),
        w_key=Tensor(np.random.default_rng(0).normal(size=(8, 8)), requires_grad=True),
    )
    a = _graph(np.random.default_rng(1).normal(size=(8, 5)), params)
    np.testing.assert_allclose(a.data, np.full((5, 5), 0.2), atol=1e-12)


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    params = _params(10, seed=4)
    window = rng.normal(size=(10, 5))
    sigma = rng.permutation(5)
    base = _graph(window, params).data
    permuted = _graph(window[:, sigma], params).data
    np.testing.assert_allclose(permuted, base[np.ix_(sigma, sigma)], atol=1e-12)


def test_adjacency_gradient_matches_fd():
    rng = np.random.default_rng(5)
    params = _params(6, seed=6)
    window = rng.normal(size=(6, 3))

    def loss():
        a = _graph(window, params)
        return ad.sum_(a * a)

    err = gradient_check(loss, [params.w_query, params.w_key])
    assert err <= 1e-4


def test_dropout_training_only_and_needs_rng():
    params = _params(8, seed=7)
    window = np.random.default_rng(4).normal(size=(8, 4))
    out = _graph(window, params, dropout=0.5, rng=np.random.default_rng(0))
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
    with pytest.raises(ValueError, match="rng"):
        _graph(window, params, dropout=0.5)


def test_batched_matches_single():
    rng = np.random.default_rng(6)
    params = _params(12, seed=8)
    windows = rng.normal(size=(3, 12, 4))
    batched = _graph(windows, params).data
    assert batched.shape == (3, 4, 4)
    for b in range(3):
        single = _graph(windows[b], params).data
        np.testing.assert_allclose(batched[b], single, atol=1e-12)


def test_export_row_count_and_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    params = _params(10, seed=9)
    starts = np.array([0, 10])
    adjacency = _graph(rng.normal(size=(2, 10, 2)), params).data
    path = tmp_path / "adj.csv"
    adjacency_export(starts, adjacency, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2  # header + B*N*N
    back = read_adjacency_export(path)
    assert sorted(back) == [0, 10]
    for start, a in zip(starts, adjacency):
        np.testing.assert_array_equal(back[start], a)


def test_export_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="at least one"):
        adjacency_export([], np.empty((0, 2, 2)), tmp_path / "x.csv")
    with pytest.raises(ValueError, match="one matrix per window start"):
        adjacency_export([0, 10], np.eye(2)[None], tmp_path / "x.csv")


def test_window_length_mismatch():
    params = _params(10)
    with pytest.raises(ValueError, match="does not match"):
        _graph(np.zeros((8, 3)), params)


def test_shift_windows_move_adjacency_more_than_normal_jitter():
    # even at random init the attention reflects channel couplings: windows
    # inside an interdependency shift sit farther (row-wise total variation)
    # from the normal average graph than two disjoint normal groups do
    from tsgad.dataio import synth_generate, window_table

    ds = synth_generate(5, 1200, [("interdependency_shift", 700, 880)], seed=3, noise=0.05)
    windows, _, labels = window_table(ds, 40, 10)
    mats = _graph(windows, _params(40, seed=5)).data
    normal = mats[labels == 0]
    anomalous = mats[labels == 1]
    tv = lambda a, b: 0.5 * np.abs(a - b).sum(axis=-1).mean()
    gap_anom = tv(anomalous.mean(axis=0), normal.mean(axis=0))
    gap_norm = tv(normal[0::2].mean(axis=0), normal[1::2].mean(axis=0))
    assert gap_anom > gap_norm
