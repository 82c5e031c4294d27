import tracemalloc

import numpy as np
import pytest

from tsgad import autodiff as ad
from tsgad import encoder
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


def test_condition_identical_windows_identical():
    params = _encoder(seed=18)
    w = np.random.default_rng(19).normal(size=(5, 3))
    windows = np.stack([w, w.copy()])
    adjacency = Tensor(np.full((2, 3, 3), 1.0 / 3.0))
    emb = encode_batch(windows, adjacency, params).data
    np.testing.assert_array_equal(emb[0], emb[1])


# ---------------------------------------------------------------------------
# the single encoder node against the same arithmetic composed from tape ops


def _cell_step(x_col, h_prev, c_prev, params):
    """One gated-cell step for all rows at once, built from tape ops."""
    h = params.hidden
    pre = ad.matmul(x_col, params.w_input) + ad.matmul(h_prev, params.w_hidden) + params.bias
    gate_in = ad.sigmoid(pre[:, 0:h])
    gate_forget = ad.sigmoid(pre[:, h : 2 * h])
    candidate = ad.tanh(pre[:, 2 * h : 3 * h])
    gate_out = ad.sigmoid(pre[:, 3 * h : 4 * h])
    c = gate_forget * c_prev + gate_in * candidate
    return gate_out * ad.tanh(c), c


def _reference_encode(windows, adjacency, params):
    """The encoder as one tape node per op: the reference for encode_batch's backward."""
    n_batch, n_steps, n_chan = windows.shape
    rows, h = n_batch * n_chan, params.hidden
    h_state = Tensor(np.zeros((rows, h)))
    c_state = Tensor(np.zeros((rows, h)))
    h_prev3 = Tensor(np.zeros((n_batch, n_chan, h)))
    steps = []
    for t in range(n_steps):
        x_col = Tensor(windows[:, t, :].reshape(rows, 1))
        h_state, c_state = _cell_step(x_col, h_state, c_state, params)
        h_now3 = ad.reshape(h_state, (n_batch, n_chan, h))
        mixed = ad.matmul(ad.matmul(adjacency, h_now3), params.w_mix)
        history = ad.matmul(h_prev3, params.w_history)
        steps.append(ad.matmul(ad.relu(mixed + history), params.w_project))
        h_prev3 = h_now3
    return ad.concat(steps, axis=2)


def _inputs(seed, shape):
    """Encoder parameters, (B, T, N) windows and (B, N, N) adjacency logits."""
    rng = np.random.default_rng(seed)
    params = init_encoder(5, 3, np.random.default_rng(seed + 1), out_scale=4.0)
    windows = rng.normal(size=shape)
    n_batch, _, n_chan = shape
    logits = Tensor(rng.normal(size=(n_batch, n_chan, n_chan)), requires_grad=True)
    return params, windows, logits


def _gradients(encode, seed, shape=(3, 9, 4)):
    """Embeddings and the gradients of a loss that meets the adjacency twice.

    The adjacency's other consumer comes first in the loss, so its gradient
    reaches the adjacency before the encoder's per-step gradients do, as
    alignment's does in training; the order of that sum is then pinned.
    """
    params, windows, logits = _inputs(seed, shape)
    adjacency = ad.softmax_rows(logits)
    emb = encode(windows, adjacency, params)
    loss = ad.sum_(adjacency[1] * adjacency[1]) + ad.sum_(ad.tanh(emb) * emb)
    ad.backward(loss)
    grads = {name: t.grad for name, t in params.tensors().items()}
    grads["logits"] = logits.grad
    return emb.data, grads


@pytest.mark.parametrize("seed", [0, 1])
def test_encode_batch_bit_identical_to_tape_composition(seed):
    emb, grads = _gradients(encode_batch, seed)
    ref_emb, ref_grads = _gradients(_reference_encode, seed)
    assert np.array_equal(emb, ref_emb)
    assert set(grads) == set(ref_grads)
    for name, grad in grads.items():
        assert np.array_equal(grad, ref_grads[name]), name


def test_multi_block_forward_bit_identical_to_tape_composition(monkeypatch):
    """Blocks split only windows: a ragged multi-block run changes no bit of
    the embeddings or of any gradient, and the no-grad forward matches."""
    shape = (19, 7, 4)
    monkeypatch.setattr(encoder, "_BLOCK_ROWS", 8 * shape[2])  # 8 windows per block at most
    blocks = []
    forward_block = encoder._forward_block

    def record(x_steps, *rest):
        blocks.append(x_steps.shape[1])
        forward_block(x_steps, *rest)

    monkeypatch.setattr(encoder, "_forward_block", record)
    step_rows = []
    step = encoder._Cell.step

    def record_step(cell, x_col, h_prev):
        step_rows.append(h_prev.shape[0])
        return step(cell, x_col, h_prev)

    monkeypatch.setattr(encoder._Cell, "step", record_step)
    emb, grads = _gradients(encode_batch, 2, shape)
    assert sum(blocks) == shape[0] and len(blocks) >= 3 and len(set(blocks)) > 1, blocks
    # the forward and the backward's recompute stepped the cell on the same ragged blocks
    block_rows = [b * shape[2] for b in blocks]
    assert sorted(step_rows) == sorted(block_rows * 2 * shape[1]), step_rows
    ref_emb, ref_grads = _gradients(_reference_encode, 2, shape)
    assert np.array_equal(emb, ref_emb)
    for name, grad in ref_grads.items():
        assert np.array_equal(grads[name], grad), name
    params, windows, logits = _inputs(2, shape)
    with ad.no_grad():
        plain = encode_batch(windows, ad.softmax_rows(logits), params)
    assert np.array_equal(plain.data, emb)


def test_no_grad_forward_holds_no_full_batch_temporaries():
    """Per-step buffers are made once per block of windows, so the no-grad
    forward's peak above its output stays at a few (B*N, h) arrays."""
    n_batch, n_steps, n_chan, hidden = 256, 6, 25, 32
    params = init_encoder(hidden, 8, np.random.default_rng(28))
    windows = np.random.default_rng(29).normal(size=(n_batch, n_steps, n_chan))
    adjacency = Tensor(np.full((n_batch, n_chan, n_chan), 1.0 / n_chan))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ad.no_grad():
            emb = encode_batch(windows, adjacency, params)
        peak = tracemalloc.get_traced_memory()[1] - before - emb.data.nbytes
    finally:
        tracemalloc.stop()
    array_bytes = n_batch * n_chan * hidden * 8
    assert peak <= 6 * array_bytes, peak / array_bytes


def test_no_grad_forward_matches_taped_forward():
    params = _encoder(h=4, d_step=2, seed=20)
    windows = np.random.default_rng(21).normal(size=(2, 6, 3))
    adjacency = Tensor(np.full((2, 3, 3), 1.0 / 3.0), requires_grad=True)
    taped = encode_batch(windows, adjacency, params)
    with ad.no_grad():
        plain = encode_batch(windows, adjacency, params)
    assert taped.requires_grad and not plain.requires_grad
    assert np.array_equal(taped.data, plain.data)


def test_adjacency_gradient_matches_fd():
    params = _encoder(h=3, d_step=2, seed=22)
    rng = np.random.default_rng(23)
    windows = rng.normal(size=(2, 5, 3))
    adjacency = Tensor(rng.uniform(0.1, 0.6, size=(2, 3, 3)), requires_grad=True)

    def loss():
        emb = encode_batch(windows, adjacency, params)
        return ad.sum_(emb * emb)

    assert gradient_check(loss, [adjacency]) <= 1e-4


def test_adjacency_shape_must_match_the_batch():
    params = _encoder()
    windows = np.zeros((2, 6, 3))
    with pytest.raises(ValueError, match="adjacency"):
        encode_batch(windows, Tensor(np.full((1, 3, 3), 1.0 / 3.0)), params)


def test_windows_must_be_3d():
    with pytest.raises(ValueError, match=r"windows must be \(B, T, N\)"):
        encode_batch(np.zeros((6, 3)), Tensor(np.full((1, 3, 3), 1.0 / 3.0)), _encoder())


def test_taped_forward_holds_a_few_arrays_per_step():
    """The tape keeps h and c per step, two (B*N, h) arrays, and no gate."""
    n_batch, n_steps, n_chan, hidden = 16, 40, 5, 32
    params = init_encoder(hidden, 4, np.random.default_rng(26))
    windows = np.random.default_rng(27).normal(size=(n_batch, n_steps, n_chan))
    adjacency = Tensor(np.full((n_batch, n_chan, n_chan), 1.0 / n_chan), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emb = encode_batch(windows, adjacency, params)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert emb.requires_grad
    array_bytes = n_batch * n_chan * hidden * 8
    assert held <= 3 * n_steps * array_bytes, held / (n_steps * array_bytes)


def test_taped_backward_holds_a_few_arrays_per_step():
    """Forward and backward together peak at a few (B*N, h) arrays per step
    (the h and c slabs, d loss / d h_t, the embeddings and their gradient),
    with the gates recomputed over more than one block of rows."""
    n_batch, n_steps, n_chan, hidden = 64, 20, 25, 32
    assert n_batch * n_chan > encoder._BLOCK_ROWS
    params = init_encoder(hidden, 8, np.random.default_rng(30))
    windows = np.random.default_rng(31).normal(size=(n_batch, n_steps, n_chan))
    adjacency = Tensor(np.full((n_batch, n_chan, n_chan), 1.0 / n_chan), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ad.backward(ad.sum_(encode_batch(windows, adjacency, params)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    array_bytes = n_batch * n_chan * hidden * 8
    assert peak <= 5 * n_steps * array_bytes, peak / (n_steps * array_bytes)


def test_backward_holds_no_per_step_gradient_slab():
    """The cell's pass rebuilds d loss / d h_t step by step from the readout's ReLU masks, and each
    step's gradient is read as a view of the incoming one, so at the paper's window the backward
    allocates under three quarters of one (T, B*N, h) float64 slab: the masks (an eighth of one)
    and a few dozen (B*N, h) buffers (a step-major copy of the gradient would add a quarter)."""
    n_batch, n_steps, n_chan, hidden = 32, 80, 8, 32
    params = init_encoder(hidden, 8, np.random.default_rng(32))
    windows = np.random.default_rng(33).normal(size=(n_batch, n_steps, n_chan))
    adjacency = Tensor(np.full((n_batch, n_chan, n_chan), 1.0 / n_chan), requires_grad=True)
    emb = encode_batch(windows, adjacency, params)
    grad = np.random.default_rng(34).normal(size=emb.shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emb._backward(grad)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    slab = n_steps * n_batch * n_chan * hidden * 8
    assert peak < 0.75 * slab, peak / slab
