import numpy as np
import pytest

from tsgad import autodiff as ad
from tsgad.autodiff import Tensor
from tsgad.checks import gradient_check, random_tensor


def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(ad.matmul(eye, m).data, m.data)


def test_matmul_hand_arithmetic():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_zero_annihilates():
    z = Tensor(np.zeros((2, 3)))
    b = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.array_equal(ad.matmul(z, b).data, np.zeros((2, 4)))


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_relu_definition():
    assert np.array_equal(ad.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_sigmoid_symmetry():
    assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5


def test_sigmoid_matches_masked_reference_bitwise():
    rng = np.random.default_rng(2)
    edge = np.concatenate([rng.normal(size=200) * 40.0,
                           [0.0, -0.0, 800.0, -800.0, 710.0, -745.0, 5e-324, -5e-324,
                            np.inf, -np.inf, np.nan, 1e-300, -1e-300]])
    signs = rng.normal(size=(6400, 32)) * 8.0  # a gate-sized array of random signs
    for x in (edge, signs):
        ref = np.empty_like(x)
        pos = x >= 0.0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ref[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
        got = ad.sigmoid(Tensor(x)).data
        number = ~np.isnan(ref)  # a NaN's sign bit carries no meaning
        assert np.array_equal(np.isnan(got), ~number)
        assert np.array_equal(got[number].view(np.uint64), ref[number].view(np.uint64))
        # the allocation-free path, into a separate array and in place
        out, in_place = np.empty_like(x), x.copy()
        ad.sigmoid_array(x, out=out, scratch=np.empty_like(x))
        ad.sigmoid_array(in_place, out=in_place, scratch=np.empty_like(x))
        for other in (out, in_place):
            assert np.array_equal(other.view(np.uint64), got.view(np.uint64))
    assert ad.sigmoid(Tensor([-0.0])).data[0] == 0.5
    assert ad.sigmoid(Tensor([800.0])).data[0] == 1.0
    assert ad.sigmoid(Tensor([-800.0])).data[0] == 0.0


def test_take_backward_adds_into_selected_part():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    ad.backward(ad.sum_(ad.take(x, (slice(None, None, -1), slice(1, 4, 2))) * 2.0))
    expected = np.zeros((3, 4))
    expected[:, 1:4:2] = 2.0
    np.testing.assert_array_equal(x.grad, expected)


@pytest.mark.parametrize("key", [np.array([0, 0]), [0, 2], np.array([True, False, True]),
                                 (slice(None), np.array([1, 1])), True])
def test_take_rejects_advanced_keys(key):
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with pytest.raises(TypeError, match="basic indexing"):
        ad.take(x, key)


def test_softmax_constant_row_uniform():
    out = ad.softmax_rows(Tensor([[3.0, 3.0, 3.0, 3.0]]))
    np.testing.assert_allclose(out.data, np.full((1, 4), 0.25), atol=1e-15)


def test_softmax_closed_form():
    out = ad.softmax_rows(Tensor([[0.0, np.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_large_logits_no_overflow():
    out = ad.softmax_rows(Tensor([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)


def test_softmax_rows_sum_to_one_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=(rng.integers(1, 8), rng.integers(2, 8)))
        rows = ad.softmax_rows(Tensor(x)).data
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(rows >= 0.0)


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    ad.backward(x.sum())
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_quadratic():
    x = Tensor([1.0, 2.0], requires_grad=True)
    ad.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(x * 2.0)


def test_backward_on_a_released_tape_raises():
    """backward releases the tape it walked: a second backward from the same loss, or from a
    node built on a walked one, raises instead of silently adding nothing."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * x
    loss = y.sum()
    ad.backward(loss)
    with pytest.raises(ValueError, match="released by an earlier backward"):
        ad.backward(loss)
    with pytest.raises(ValueError, match="released by an earlier backward"):
        ad.backward((y * 2.0).sum())
    np.testing.assert_allclose(x.grad, [2.0, 4.0])
    ad.backward((x * x).sum())  # leaves are never released: a fresh tape from them works
    np.testing.assert_allclose(x.grad, [4.0, 8.0])


def test_grad_accumulates_across_uses():
    x = Tensor([1.0], requires_grad=True)
    loss = (x * 2.0 + x * 3.0).sum()
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [5.0])


def test_no_grad_blocks_recording():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        y = (x * x).sum()
    assert not y.requires_grad


# every op built by ad.node, with its operand shapes
NODE_OPS = {
    "add": (ad.add, [(2, 3), (3,)]),
    "sub": (ad.sub, [(2, 3), (2, 3)]),
    "mul": (ad.mul, [(2, 3), (1, 3)]),
    "neg": (ad.neg, [(2, 3)]),
    "power": (lambda a: ad.power(a, 3.0), [(2, 3)]),
    "exp": (ad.exp, [(2, 3)]),
    "relu": (ad.relu, [(2, 3)]),
    "sigmoid": (ad.sigmoid, [(2, 3)]),
    "tanh": (ad.tanh, [(2, 3)]),
    "softmax_rows": (ad.softmax_rows, [(2, 3)]),
    "matmul": (ad.matmul, [(2, 3), (3, 4)]),
    "transpose": (ad.transpose, [(2, 3)]),
    "reshape": (lambda a: ad.reshape(a, (3, 2)), [(2, 3)]),
    "flip_last": (ad.flip_last, [(2, 3)]),
    "concat": (lambda a, b, c: ad.concat([a, b, c], axis=1), [(2, 3), (2, 1), (2, 2)]),
    "sum_": (lambda a: ad.sum_(a, axis=0), [(2, 3)]),
}


@pytest.mark.parametrize("name", sorted(NODE_OPS))
def test_node_records_only_what_needs_gradients(name):
    op, shapes = NODE_OPS[name]
    rng = np.random.default_rng(5)
    values = [rng.normal(size=shape) for shape in shapes]

    # constant inputs: a constant result, no parents and no backward
    out = op(*(Tensor(v) for v in values))
    assert not out.requires_grad and out._parents == () and out._backward is None

    # the tape off: nothing is recorded, even over tracked inputs
    with ad.no_grad():
        out = op(*(Tensor(v, requires_grad=True) for v in values))
    assert not out.requires_grad and out._parents == () and out._backward is None

    # one tracked operand among constants: only it receives a gradient
    for tracked in range(len(values)):
        inputs = [Tensor(v, requires_grad=i == tracked) for i, v in enumerate(values)]
        out = op(*inputs)
        assert out.requires_grad and len(out._parents) == len(inputs)
        ad.backward(ad.sum_(out * Tensor(rng.normal(size=out.shape))))
        for i, t in enumerate(inputs):
            if i == tracked:
                assert t.grad is not None and t.grad.shape == t.shape
            else:
                assert t.grad is None


def test_broadcast_add_grad_shapes():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones((1, 4)), requires_grad=True)
    ad.backward((a + b).sum())
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (1, 4)
    np.testing.assert_array_equal(b.grad, np.full((1, 4), 3.0))


def test_outputs_never_alias_inputs():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    for out in (ad.reshape(x, (3, 2)), ad.transpose(x), ad.take(x, (slice(None), 0)),
                ad.flip_last(x)):
        out.data[...] = -99.0
    np.testing.assert_array_equal(x.data, np.arange(6.0).reshape(2, 3))


def test_forward_determinism():
    def run(seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(4, 4)))
        b = Tensor(rng.normal(size=(4, 4)))
        return ad.softmax_rows(ad.matmul(a, ad.tanh(b))).data

    assert np.array_equal(run(3), run(3))


# finite-difference checks: every differentiable op, randomized small tensors

def _composite_loss(ops, tensors):
    a, b = tensors
    c = ad.matmul(a, b)
    d = ad.tanh(c) + ad.sigmoid(c) * ad.relu(c - 0.1)
    e = ad.softmax_rows(d)
    f = ad.exp(e * 0.3)
    return (f * f).mean()


@pytest.mark.parametrize("seed", range(5))
def test_gradcheck_composite(seed):
    rng = np.random.default_rng(seed)
    a = random_tensor(rng, (3, 4))
    b = random_tensor(rng, (4, 3))
    err = gradient_check(lambda: _composite_loss(None, (a, b)), [a, b])
    assert err <= 1e-4


@pytest.mark.parametrize(
    "make_loss",
    [
        lambda t: ad.sum_(ad.exp(t)),
        lambda t: ad.sum_(-t * t),
        lambda t: ad.sum_((t * 2.0 - t * t) * (1.5 - t)),
        lambda t: ad.sum_(ad.relu(t) * 2.0),
        lambda t: ad.sum_(ad.sigmoid(t) + ad.tanh(t)),
        lambda t: ad.sum_(ad.softmax_rows(t) ** 2),
        lambda t: ad.mean_(t, axis=0).sum(),
        lambda t: ad.sum_(ad.transpose(t) @ t),
        lambda t: ad.sum_(ad.reshape(t, (6, 1)) * 3.0),
        lambda t: ad.sum_(ad.flip_last(t) * t),
        lambda t: ad.sum_(ad.concat([t, t * 2.0], axis=1)),
        lambda t: ad.sum_(t[:, 1:] * 2.0 + t[0:1, 1:]),
        lambda t: ad.sum_(t[0] * t[1]),
        lambda t: ad.sum_(ad.dropout(t, 0.5, np.random.default_rng(0)) * t),
    ],
)
def test_gradcheck_single_ops(make_loss):
    rng = np.random.default_rng(42)
    t = random_tensor(rng, (2, 3))
    err = gradient_check(lambda: make_loss(t), [t])
    assert err <= 1e-4


def test_gradcheck_batched_matmul():
    rng = np.random.default_rng(7)
    a = random_tensor(rng, (2, 3, 4))
    w = random_tensor(rng, (4, 5))

    def loss():
        return ad.sum_(ad.matmul(a, w) ** 2)

    assert gradient_check(loss, [a, w]) <= 1e-4


def test_gradcheck_randomized_small_dims():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m, k, n = rng.integers(1, 7, size=3)
        a = random_tensor(rng, (int(m), int(k)))
        b = random_tensor(rng, (int(k), int(n)))

        def loss():
            return ad.sum_(ad.tanh(ad.matmul(a, b)))

        assert gradient_check(loss, [a, b]) <= 1e-4
