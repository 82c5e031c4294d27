"""Reverse-mode automatic differentiation over dense float64 arrays.

A dynamic tape: every operation on tensors that require gradients records
its parents and a backward rule on the result node. ``backward`` walks the
recorded graph once in reverse topological order, so every input node is
visited after all of its consumers and each ``requires_grad`` leaf ends up
with d(loss)/d(leaf) accumulated additively. Set ``t.grad = None`` (as
``Adam.zero_grad`` does) between optimizer steps. The walk releases each node's
rule and parents once the rule has run, so what only the tape held is freed as
it goes; a later ``backward`` over a released node raises ValueError.

``node(data, *rules)`` is the one node constructor: a rule pairs a parent with
the map from the node's gradient to the parent's. Every op here and
``align.batch_alignment``'s loss term use it; only ``take`` (a slice-add into
the parent's gradient), ``encoder.encode_batch`` and ``flow.log_prob`` (each one
hand-written backward for all its parents, adding in the order a tape of one
node per op would) build their nodes by hand with ``Tensor._make``.

All arrays are float64 and row-major. Shape-changing ops (reshape,
transpose, slicing, flip) return copies, never views, so mutating an
output can never alias an input.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference-only forward)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.array(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @classmethod
    def _make(cls, data, parents, backward):
        """Internal node constructor; takes ownership of ``data`` (no copy)."""
        t = cls.__new__(cls)
        t.data = data
        t.grad = None
        t.requires_grad = bool(parents)
        t._parents = parents
        t._backward = backward
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data.reshape(()))

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracking(*tensors):
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def node(data, *rules):
    """``data`` as a tape node over the parents of ``rules``, pairs ``(parent, fn)`` with
    ``fn(grad)`` = d(loss)/d(parent). Records nothing with the tape off or no parent
    requiring gradients; the backward adds into each parent that does, in rule order."""
    if not (_grad_enabled and any(parent.requires_grad for parent, _ in rules)):
        return Tensor._make(data, (), None)

    def backward(grad):
        for parent, fn in rules:
            if parent.requires_grad:
                parent._accumulate(fn(grad))

    return Tensor._make(data, tuple(parent for parent, _ in rules), backward)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return node(a.data + b.data, (a, lambda g: _unbroadcast(g, a.data.shape)),
                (b, lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return node(a.data - b.data, (a, lambda g: _unbroadcast(g, a.data.shape)),
                (b, lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return node(a.data * b.data, (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def neg(a):
    a = as_tensor(a)
    return node(-a.data, (a, lambda g: -g))


def power(a, exponent):
    """Elementwise power with a constant (non-tensor) exponent."""
    a = as_tensor(a)
    exponent = float(exponent)
    return node(a.data**exponent, (a, lambda g: g * exponent * a.data ** (exponent - 1.0)))


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return node(out_data, (a, lambda g: g * out_data))


def relu(a):
    a = as_tensor(a)
    return node(np.maximum(a.data, 0.0), (a, lambda g: g * (a.data > 0.0)))


def sigmoid_array(x, out=None, scratch=None):
    """The logistic function of a numpy array; the one kernel every sigmoid here uses.

    Branch-free: with e = exp(-|x|), which never overflows and is at most 1,
    ``max(e, x >= 0)`` is 1 for x >= 0 and e below, so the quotient by 1 + e is
    exactly ``1/(1 + e)`` or ``e/(1 + e)``. ``out`` (which may be ``x``) and
    ``scratch`` are float64 arrays of x's shape; given both, nothing is allocated.
    """
    x = np.asarray(x)
    e = np.empty(x.shape) if scratch is None else scratch
    out = np.empty(x.shape) if out is None else out
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0.0, out=out)
    np.maximum(e, out, out=out)
    np.add(e, 1.0, out=e)
    return np.divide(out, e, out=out)


def sigmoid(a):
    a = as_tensor(a)
    out_data = sigmoid_array(a.data)
    return node(out_data, (a, lambda g: g * out_data * (1.0 - out_data)))


def tanh(a):
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    return node(out_data, (a, lambda g: g * (1.0 - out_data * out_data)))


def softmax_rows(a):
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def grad_in(grad):
        inner = (grad * out_data).sum(axis=-1, keepdims=True)
        return (grad - inner) * out_data

    return node(out_data, (a, grad_in))


def dropout(a, p, rng):
    """Inverted dropout; the mask is drawn from ``rng`` and kept constant."""
    if p <= 0.0:
        return as_tensor(a)
    if p >= 1.0:
        raise ValueError("dropout rate must be < 1")
    keep = 1.0 - p
    mask = (rng.random(as_tensor(a).data.shape) < keep) / keep
    return mul(a, Tensor(mask))


# ---------------------------------------------------------------------------
# linear algebra and shape ops


def matmul(a, b):
    """Matrix product; both operands 2-D or stacked (batched) 3-D+."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul requires >=2-D operands, got shapes {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}")
    return node(np.matmul(a.data, b.data),
                (a, lambda g: _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)),
                (b, lambda g: _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)))


def transpose(a):
    """Swap the last two axes."""
    a = as_tensor(a)
    if a.data.ndim < 2:
        raise ValueError("transpose requires >=2-D input")
    return node(np.swapaxes(a.data, -1, -2).copy(), (a, lambda g: np.swapaxes(g, -1, -2)))


def reshape(a, shape):
    a = as_tensor(a)
    return node(a.data.reshape(shape).copy(), (a, lambda g: g.reshape(a.data.shape)))


def take(a, key):
    """Basic indexing/slicing; backward adds into the selected part of the source shape.

    Only basic keys (integers, slices, ``None`` and ``...``) are accepted: they
    select each source element at most once, so a plain slice-add is exact. An
    integer-array or boolean key raises TypeError, since a repeated index
    would otherwise drop a gradient.
    """
    a = as_tensor(a)
    for part in key if isinstance(key, tuple) else (key,):
        basic = part is None or part is Ellipsis or isinstance(part, (slice, int, np.integer))
        if not basic or isinstance(part, (bool, np.bool_)):
            raise TypeError(f"take supports basic indexing only, got a {type(part).__name__} key")
    out_data = np.array(a.data[key], dtype=np.float64)
    if not _tracking(a):
        return Tensor._make(out_data, (), None)

    def backward(grad):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[key] += grad

    return Tensor._make(out_data, (a,), backward)


def flip_last(a):
    """Reverse the last axis (a permutation, |det| = 1)."""
    a = as_tensor(a)
    return node(a.data[..., ::-1].copy(), (a, lambda g: g[..., ::-1]))


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    return node(np.concatenate([t.data for t in tensors], axis=axis),
                *((t, lambda g, lo=lo, hi=hi: np.moveaxis(np.moveaxis(g, axis, 0)[lo:hi], 0, axis))
                  for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:])))


def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out_data = np.asarray(a.data.sum(axis=axis, keepdims=keepdims), dtype=np.float64)

    def grad_in(grad):
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            axes = tuple(ax % a.data.ndim for ax in axes)
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        return np.broadcast_to(g, a.data.shape).copy()

    return node(out_data, (a, grad_in))


def mean_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if np.isscalar(axis) else tuple(axis)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# backward driver


def _topo_order(root):
    """Iterative DFS post-order; every parent precedes its consumers."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        current, processed = stack.pop()
        if processed:
            order.append(current)
            continue
        if id(current) in visited:
            continue
        if current._parents is None:
            raise ValueError("backward: the tape of this loss was released by an earlier backward")
        visited.add(id(current))
        stack.append((current, True))
        for parent in current._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss):
    """Run one reverse pass from a scalar loss, filling leaf ``grad`` buffers."""
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss is not connected to any requires_grad tensor")
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    while order:
        current = order.pop()
        if current._backward is None:
            continue  # a leaf
        if current.grad is not None:
            current._backward(current.grad)
            if current is not loss:
                current.grad = None
        # release the node's tape: what only the tape held dies before the parents' rules run
        current._backward, current._parents = None, None
