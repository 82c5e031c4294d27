import numpy as np
import pytest

from tsgad import autodiff as ad
from tsgad.autodiff import Tensor
from tsgad.checks import gradient_check
from tsgad.encoder import encode_batch, init_encoder
from tsgad.graph import attention_adjacency, init_attention


def _encoder(h=4, d_step=2, seed=0):
    return init_encoder(h, d_step, np.random.default_rng(seed))


def test_zero_window_zero_biases_gives_zero_embeddings():
    params = _encoder()
    windows = np.zeros((2, 6, 3))
    adjacency = Tensor(np.full((2, 3, 3), 1.0 / 3.0))
    emb = encode_batch(windows, adjacency, params)
    np.testing.assert_allclose(emb.data, 0.0, atol=1e-15)


def test_identity_adjacency_decouples_channels():
    params = _encoder(seed=1)
    rng = np.random.default_rng(2)
    base = rng.normal(size=(1, 8, 4))
    eye = Tensor(np.eye(4)[None])
    emb_a = encode_batch(base, eye, params).data
    changed = base.copy()
    changed[0, :, 2] += rng.normal(size=8)  # channel 2's series changes
    emb_b = encode_batch(changed, eye, params).data
    np.testing.assert_allclose(emb_b[0, 0], emb_a[0, 0], atol=1e-12)
    np.testing.assert_allclose(emb_b[0, 1], emb_a[0, 1], atol=1e-12)
    np.testing.assert_allclose(emb_b[0, 3], emb_a[0, 3], atol=1e-12)
    assert np.abs(emb_b[0, 2] - emb_a[0, 2]).max() > 1e-6


def test_gradients_match_fd_all_params():
    params = _encoder(h=3, d_step=2, seed=3)
    rng = np.random.default_rng(4)
    windows = rng.normal(size=(2, 4, 3))
    adjacency = Tensor(np.full((2, 3, 3), 1.0 / 3.0))

    def loss():
        return ad.sum_(encode_batch(windows, adjacency, params))

    err = gradient_check(loss, list(params.tensors().values()))
    assert err <= 1e-4


def test_gradient_flows_into_adjacency():
    params = _encoder(h=3, d_step=2, seed=5)
    rng = np.random.default_rng(6)
    windows = rng.normal(size=(1, 5, 3))
    adjacency = Tensor(np.full((1, 3, 3), 1.0 / 3.0), requires_grad=True)
    emb = encode_batch(windows, adjacency, params)
    ad.backward(ad.sum_(emb * emb))
    assert adjacency.grad is not None
    assert np.abs(adjacency.grad).max() > 1e-8


def test_adjacency_perturbation_moves_affected_row():
    params = _encoder(h=3, d_step=2, seed=7)
    rng = np.random.default_rng(8)
    windows = rng.normal(size=(1, 5, 3))
    a = np.full((3, 3), 1.0 / 3.0)
    base = encode_batch(windows, Tensor(a[None]), params).data
    bumped = a.copy()
    bumped[1, 2] += 0.05
    out = encode_batch(windows, Tensor(bumped[None]), params).data
    assert np.abs(out[0, 1] - base[0, 1]).max() > 1e-9


def test_permutation_equivariance_with_rebuilt_adjacency():
    rng = np.random.default_rng(9)
    att = init_attention(10, np.random.default_rng(10))
    enc = _encoder(h=4, d_step=2, seed=11)
    windows = rng.normal(size=(1, 10, 5))
    sigma = rng.permutation(5)
    permuted = windows[:, :, sigma]
    emb = encode_batch(windows, attention_adjacency(np.swapaxes(windows, 1, 2), att), enc).data
    emb_perm = encode_batch(
        permuted, attention_adjacency(np.swapaxes(permuted, 1, 2), att), enc
    ).data
    np.testing.assert_allclose(emb_perm[0], emb[0, sigma], atol=1e-10)


def test_determinism():
    params = _encoder(seed=12)
    rng = np.random.default_rng(13)
    windows = rng.normal(size=(2, 6, 3))
    adjacency = Tensor(np.full((2, 3, 3), 1.0 / 3.0))
    a = encode_batch(windows, adjacency, params).data
    b = encode_batch(windows, adjacency, params).data
    np.testing.assert_array_equal(a, b)


def test_embedding_shapes_concat_and_mean():
    params = _encoder(h=4, d_step=2, seed=14)
    windows = np.random.default_rng(15).normal(size=(3, 7, 4))
    adjacency = Tensor(np.full((3, 4, 4), 0.25))
    assert encode_batch(windows, adjacency, params).shape == (3, 4, 14)
    assert encode_batch(windows, adjacency, params, reduce="mean").shape == (3, 4, 2)
    with pytest.raises(ValueError, match="reduce"):
        encode_batch(windows, adjacency, params, reduce="max")


def test_condition_identical_windows_identical():
    params = _encoder(seed=18)
    w = np.random.default_rng(19).normal(size=(5, 3))
    windows = np.stack([w, w.copy()])
    adjacency = Tensor(np.full((2, 3, 3), 1.0 / 3.0))
    emb = encode_batch(windows, adjacency, params).data
    np.testing.assert_array_equal(emb[0], emb[1])
