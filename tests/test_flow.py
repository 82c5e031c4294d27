import tracemalloc
import weakref

import numpy as np
import pytest

from tsgad import autodiff as ad
from tsgad.autodiff import Tensor
from tsgad.checks import gradient_check
from tsgad.encoder import encode_batch, init_encoder
from tsgad.flow import (
    LOG_TWO_PI,
    SCALE_BOUND,
    batch_log_likelihood,
    forward,
    gaussian_log_density,
    init_flow,
    inverse,
    log_prob,
    strict_mask,
)


def _random_flow(input_dim, cond_dim, seed=0, n_layers=2, scale=0.3):
    return init_flow(input_dim, cond_dim, n_layers=n_layers,
                     rng=np.random.default_rng(seed), scale=scale)


def _reference_log_prob(x, cond, model):
    """The flow's per-row log-density as a tape of one node per op, the composition ``log_prob``'s
    one node stands for: its values and gradients are what that node must give, bit for bit."""
    x, cond = ad.as_tensor(x), ad.as_tensor(cond)
    z, log_det = x, Tensor(np.zeros(x.shape[0]))
    for k, layer in enumerate(model.layers):
        if k > 0:
            z = ad.flip_last(z)
        masked_ws = layer.w_scale * Tensor(layer.mask)
        masked_wm = layer.w_shift * Tensor(layer.mask)
        raw_s = ad.matmul(z, masked_ws) + ad.matmul(cond, layer.v_scale) + layer.b_scale
        s = ad.tanh(raw_s * (1.0 / SCALE_BOUND)) * SCALE_BOUND
        m = ad.matmul(z, masked_wm) + ad.matmul(cond, layer.v_shift) + layer.b_shift
        z = ad.exp(s) * z + m
        log_det = log_det + ad.sum_(s, axis=1)
    gauss = ad.sum_(z * z, axis=1) * -0.5 - 0.5 * model.input_dim * LOG_TWO_PI
    return gauss + log_det


@pytest.mark.parametrize("earlier_consumer", [False, True])
@pytest.mark.parametrize("n_layers, rows", [(1, 24), (2, 24), (3, 24), (2, 2100)])
def test_log_prob_bit_identical_to_tape_composition(n_layers, rows, earlier_consumer):
    """Value and every gradient (x, cond and each layer's six parameters) equal the per-op tape's,
    also when the conditions' gradient is added in row chunks (2,100 rows). With
    ``earlier_consumer`` the loss also reads x and cond, and that term's gradient reaches them
    before the flow's, so the flow's terms add into gradients that are already there."""
    rng = np.random.default_rng(30 + n_layers)
    x_data, cond_data, weights = (rng.normal(size=(rows, dim)) for dim in (5, 7, 7))
    results = []
    for density in (log_prob, _reference_log_prob):
        model = _random_flow(5, 7, seed=n_layers, n_layers=n_layers)
        x, cond = Tensor(x_data, requires_grad=True), Tensor(cond_data, requires_grad=True)
        ll = density(x, cond, model)
        loss = -ad.mean_(ll)
        if earlier_consumer:
            loss = ad.sum_(cond * Tensor(weights)) + ad.sum_(x * x) + loss
        ad.backward(loss)
        results.append([ll.data, x.grad, cond.grad] + [t.grad for t in model.tensors().values()])
    assert len(results[0]) == 3 + 6 * n_layers
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_taped_log_prob_holds_three_row_arrays_a_layer(n_layers):
    """With the tape on, log_prob holds at most 3 (rows, T) arrays a layer (the layer's input,
    tanh(raw_s / 5) and exp(s), with the last layer's output standing in for the first
    layer's input, which the caller holds) and O(rows) more: no copy of the conditions."""
    rows, dim, cond_dim = 2048, 16, 64
    rng = np.random.default_rng(50)
    model = _random_flow(dim, cond_dim, n_layers=n_layers)
    x, cond = Tensor(rng.normal(size=(rows, dim))), Tensor(rng.normal(size=(rows, cond_dim)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ll = log_prob(x, cond, model)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ll.requires_grad
    assert held <= (3 * n_layers * rows * dim + 4 * rows) * 8 + 65536, held


def test_identity_init_matches_gaussian_closed_form():
    model = init_flow(6, 3, n_layers=2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=6)
        c = rng.normal(size=3)
        assert log_prob(x, c, model).item() == pytest.approx(gaussian_log_density(x), abs=1e-10)


def test_identity_init_forward_is_identity():
    model = init_flow(5, 2, n_layers=1)
    x = np.random.default_rng(1).normal(size=(4, 5))
    z, log_det = forward(x, np.zeros((4, 2)), model)
    np.testing.assert_array_equal(z.data, x)
    np.testing.assert_array_equal(log_det.data, np.zeros(4))


def test_single_layer_constant_scale_shift_closed_form():
    # T = 1: z = exp(s) * x + m, log_prob = logN(z) + s
    s_target, m_target = 0.7, -0.4
    model = init_flow(1, 1, n_layers=1)
    layer = model.layers[0]
    layer.b_scale.data[:] = 5.0 * np.arctanh(s_target / 5.0)
    layer.b_shift.data[:] = m_target
    for x in (-1.3, 0.0, 0.9):
        got = log_prob(np.array([x]), np.array([0.0]), model).item()
        z = np.exp(s_target) * x + m_target
        expected = gaussian_log_density(np.array([z])) + s_target
        assert got == pytest.approx(expected, abs=1e-12)


def test_log_det_matches_numeric_jacobian():
    for input_dim in (2, 3, 4):
        model = _random_flow(input_dim, 2, seed=input_dim)
        rng = np.random.default_rng(10 + input_dim)
        x = rng.normal(size=input_dim)
        c = rng.normal(size=2)
        _, log_det = forward(x, c, model)
        eps = 1e-6
        jac = np.zeros((input_dim, input_dim))
        for b in range(input_dim):
            hi = x.copy(); hi[b] += eps
            lo = x.copy(); lo[b] -= eps
            z_hi, _ = forward(hi, c, model)
            z_lo, _ = forward(lo, c, model)
            jac[:, b] = (z_hi.data - z_lo.data) / (2.0 * eps)
        numeric = np.log(abs(np.linalg.det(jac)))
        assert log_det.item() == pytest.approx(numeric, abs=1e-4)


def test_inverse_round_trip_many_random_inputs():
    model = _random_flow(8, 3, seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1000, 8))
    c = rng.normal(size=(1000, 3))
    z, _ = forward(x, c, model)
    back = inverse(z.data, c, model)
    assert np.abs(back - x).max() < 1e-8


def test_autoregressive_masks_are_strict():
    mask = strict_mask(5)
    assert np.array_equal(mask, np.triu(np.ones((5, 5)), k=1))
    # coordinate k of a single layer's output depends only on x[0..k] and C
    model = _random_flow(6, 2, seed=7, n_layers=1)
    rng = np.random.default_rng(8)
    x = rng.normal(size=6)
    c = rng.normal(size=2)
    z0, _ = forward(x, c, model)
    for k in range(6):
        for j in range(6):
            bumped = x.copy()
            bumped[j] += 0.37
            zb, _ = forward(bumped, c, model)
            if j > k:
                assert zb.data[k] == z0.data[k]
    # and it does respond to the condition
    zc, _ = forward(x, c + 1.0, model)
    assert np.abs(zc.data - z0.data).max() > 1e-8


def test_normalization_integrates_to_one():
    model = _random_flow(1, 2, seed=9, n_layers=2)
    c = np.array([0.4, -0.2])
    grid = np.linspace(-30.0, 30.0, 6001)
    with ad.no_grad():
        dens = np.array([
            np.exp(log_prob(np.array([g]), c, model).item()) for g in grid
        ])
    integral = np.trapezoid(dens, grid)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_batch_log_likelihood_mean_semantics():
    model = _random_flow(4, 2, seed=11)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(1, 4))
    c = rng.normal(size=(1, 2))
    single = batch_log_likelihood(x, c, model).item()
    assert single == pytest.approx(log_prob(x[0], c[0], model).item(), abs=1e-12)
    doubled = batch_log_likelihood(np.vstack([x, x]), np.vstack([c, c]), model).item()
    assert doubled == pytest.approx(single, abs=1e-12)


def test_log_prob_gradients_match_fd():
    model = _random_flow(3, 2, seed=13)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(4, 3))
    c = rng.normal(size=(4, 2))

    def loss():
        return ad.mean_(log_prob(x, c, model))

    err = gradient_check(loss, list(model.tensors().values()))
    assert err <= 1e-4


def test_log_prob_gradients_wrt_inputs_and_condition():
    model = _random_flow(3, 2, seed=15)
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

    def loss():
        return ad.mean_(log_prob(x, c, model))

    err = gradient_check(loss, [x, c])
    assert err <= 1e-4


def test_shape_contracts():
    model = init_flow(4, 2)
    with pytest.raises(ValueError, match="input dim"):
        log_prob(np.zeros(3), np.zeros(2), model)
    with pytest.raises(ValueError, match="condition dim"):
        log_prob(np.zeros(4), np.zeros(3), model)
    with pytest.raises(ValueError, match="one condition row"):
        log_prob(np.zeros((2, 4)), np.zeros((3, 2)), model)


def test_flow_tape_is_freed_before_the_encoder_backward():
    """backward releases each node once its rule has run, so the flow's nodes, which only the
    tape holds, and their arrays are gone when the encoder's backward starts, as in training."""
    n_batch, n_steps, n_chan = 4, 6, 3
    rng = np.random.default_rng(40)
    windows = rng.normal(size=(n_batch, n_steps, n_chan))
    adjacency = Tensor(np.full((n_batch, n_chan, n_chan), 1.0 / n_chan), requires_grad=True)
    emb = encode_batch(windows, adjacency, init_encoder(8, 2, rng))
    rows = n_batch * n_chan
    x = Tensor(windows.transpose(0, 2, 1).reshape(rows, n_steps))
    ll = log_prob(x, ad.reshape(emb, (rows, -1)), _random_flow(n_steps, 2 * n_steps))
    loss = -ad.mean_(ll)
    tape = [weakref.ref(t) for t in ad._topo_order(loss) if t._backward is not None and t not in (loss, emb)]
    assert any(ref() is ll for ref in tape)  # the flow's node
    del ll
    alive = []
    encoder_backward = emb._backward

    def record(grad):
        alive.append(sum(ref() is not None for ref in tape))
        encoder_backward(grad)

    emb._backward = record
    ad.backward(loss)
    assert alive == [0], (len(tape), alive)
    assert adjacency.grad is not None and loss._backward is None and emb._backward is None
