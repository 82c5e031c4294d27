import weakref

import numpy as np
import pytest

from tsgad import autodiff as ad
from tsgad.autodiff import Tensor
from tsgad.checks import gradient_check
from tsgad.encoder import encode_batch, init_encoder
from tsgad.flow import (
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
    loss = -batch_log_likelihood(x, ad.reshape(emb, (rows, -1)), _random_flow(n_steps, 2 * n_steps))
    tape = [weakref.ref(t) for t in ad._topo_order(loss) if t._backward is not None and t not in (loss, emb)]
    alive = []
    encoder_backward = emb._backward

    def record(grad):
        alive.append(sum(ref() is not None for ref in tape))
        encoder_backward(grad)

    emb._backward = record
    ad.backward(loss)
    assert len(tape) > 30 and alive == [0], (len(tape), alive)
    assert adjacency.grad is not None and loss._backward is None and emb._backward is None
