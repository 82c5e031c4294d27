"""Conditional distribution encoder: recurrence over time, convolution over the graph.

Every channel runs through a shared gated recurrent cell (LSTM-style, one
layer) step by step; at each step the hidden states are mixed across
channels through the window's adjacency matrix and projected down, and the
per-step outputs are concatenated over time into the node embeddings that
condition the flow. The adjacency enters the computation directly, so
embeddings are a differentiable function of window contents, attention
parameters, and encoder weights.

With the tape on, ``encode_batch`` is a single tape node (Hochreiter &
Schmidhuber 1997 for the cell, Werbos 1990 for backpropagation through
time). Its forward is plain numpy and saves, per step, only the four gates
and the cell state c, five (B*N, h) arrays; the backward recomputes tanh(c),
h, A @ H and the readout's ReLU input from them with the forward's
expressions, in the forward's order. The backward sums in the order a tape
of one node per op would, so gradients are bit-identical to that
composition:

- the readout backward runs first, for t = 0 .. T-1, one step at a time (a
  reverse-order or a stacked readout reorders the sums into w_mix,
  w_history, w_project and the adjacency);
- each step's adjacency gradient is added into the adjacency node as it is
  made, because alignment also feeds that node and summing the steps first
  would reorder its total;
- then the recurrence backward runs for t = T-1 .. 0.

The forward runs over blocks of at most ``_BLOCK_ROWS`` B*N rows (whole
windows), one block after another, so a step's working set stays in cache.
Each block makes its buffers once and every step writes into them through
``out=``; the step outputs land in one (T, B, N, d_step) array, transposed
once at the end. With the tape on, the gates and c go straight into five
(T, B*N, h) slabs, each block filling its own rows. The bits do not depend
on the blocking: windows are independent in the forward, every element goes
through the same ufuncs on contiguous input, and each GEMM keeps its K order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# B*N rows per block of the forward: the block's 19 (rows, h) buffers then
# take about 5 MB at h = 32 and stay in cache from one step to the next
# (at (256, 80, 25), 512 to 1024 rows ran fastest; 6400, one block, 40% slower)
_BLOCK_ROWS = 1024


@dataclass
class EncoderParams:
    w_input: Tensor  # (1, 4h) input-to-gates
    w_hidden: Tensor  # (h, 4h) hidden-to-gates
    bias: Tensor  # (1, 4h)
    w_mix: Tensor  # (h, h) applied to the adjacency-mixed hidden state
    w_history: Tensor  # (h, h) applied to the previous step's hidden state
    w_project: Tensor  # (h, d_step) final per-step projection

    @property
    def hidden(self):
        return self.w_hidden.data.shape[0]

    @property
    def d_step(self):
        return self.w_project.data.shape[1]

    def tensors(self):
        return {
            "encoder.w_input": self.w_input,
            "encoder.w_hidden": self.w_hidden,
            "encoder.bias": self.bias,
            "encoder.w_mix": self.w_mix,
            "encoder.w_history": self.w_history,
            "encoder.w_project": self.w_project,
        }


def init_encoder(hidden, d_step, rng, out_scale=1.0):
    """Seeded init; ``out_scale`` multiplies the final projection and with it
    the magnitude of the node embeddings (and of everything conditioned on
    them)."""
    scale = 1.0 / np.sqrt(hidden)
    return EncoderParams(
        w_input=Tensor(rng.normal(0.0, scale, size=(1, 4 * hidden)), requires_grad=True),
        w_hidden=Tensor(rng.normal(0.0, scale, size=(hidden, 4 * hidden)), requires_grad=True),
        bias=Tensor(np.zeros((1, 4 * hidden)), requires_grad=True),
        w_mix=Tensor(rng.normal(0.0, scale, size=(hidden, hidden)), requires_grad=True),
        w_history=Tensor(rng.normal(0.0, scale, size=(hidden, hidden)), requires_grad=True),
        w_project=Tensor(rng.normal(0.0, scale * out_scale, size=(hidden, d_step)), requires_grad=True),
    )


def encode_batch(windows, adjacency, params):
    """Node embeddings for a batch of windows.

    ``windows`` is (B, T, N) raw (normalized) values; ``adjacency`` is a
    (B, N, N) Tensor. Per step t the shared cell consumes column t of every
    channel, then the step output is
    ``relu(A @ H_t @ w_mix + H_{t-1} @ w_history) @ w_project`` with a zero
    hidden state standing in for the step before the window. Returns the
    step outputs concatenated over time, a (B, N, T * d_step) Tensor; with
    the tape on it is one node over the adjacency and the parameters.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError("windows must be (B, T, N)")
    n_batch, n_steps, n_chan = windows.shape
    adjacency = ad.as_tensor(adjacency)
    if adjacency.shape != (n_batch, n_chan, n_chan):
        raise ValueError(f"adjacency must be {(n_batch, n_chan, n_chan)}, got {adjacency.shape}")
    rows = n_batch * n_chan
    h = params.hidden
    d_step = params.d_step
    weights = tuple(params.tensors().values())
    _, w_hidden, _, w_mix, w_history, w_project = (w.data for w in weights)
    a = adjacency.data
    taping = ad._tracking(adjacency, *weights)

    x_steps = np.ascontiguousarray(windows.transpose(1, 0, 2))  # (T, B, N)
    out_steps = np.empty((n_steps, n_batch, n_chan, d_step))
    slabs = tuple(np.empty((n_steps, rows, h)) for _ in range(5)) if taping else None
    n_blocks = -(-n_batch // max(1, _BLOCK_ROWS // n_chan))
    edges = [n_batch * k // n_blocks for k in range(n_blocks + 1)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        block_slabs = None if slabs is None else tuple(s[:, lo * n_chan : hi * n_chan] for s in slabs)
        _forward_block(x_steps[:, lo:hi], a[lo:hi], params, out_steps[:, lo:hi], block_slabs)
    out = np.ascontiguousarray(out_steps.transpose(1, 2, 0, 3)).reshape(n_batch, n_chan, n_steps * d_step)
    if not taping:
        return Tensor._make(out, (), None)
    x_cols = x_steps.reshape(n_steps, rows, 1)
    saved = list(zip(*slabs))  # per step: the four gates and c, (B*N, h) views

    def accumulate(tensor, grad):
        if tensor.requires_grad:
            tensor._accumulate(grad)

    def readout_backward(grad):
        """Readout gradients, t = 0 .. T-1; returns d loss / d h_t for every step."""
        d_hidden = []
        h_prev3 = np.zeros((n_batch, n_chan, h))
        for t, (_, _, _, gate_out, c) in enumerate(saved):
            h_now3 = (gate_out * np.tanh(c)).reshape(n_batch, n_chan, h)
            mixed_in, relu_in = _readout_input(a, h_now3, h_prev3, w_mix, w_history)
            g_out = np.ascontiguousarray(grad[:, :, t * d_step : (t + 1) * d_step])
            accumulate(params.w_project, np.matmul(_swap(np.maximum(relu_in, 0.0)), g_out).sum(axis=0))
            g_relu = np.matmul(g_out, _swap(w_project)) * (relu_in > 0.0)
            accumulate(params.w_mix, np.matmul(_swap(mixed_in), g_relu).sum(axis=0))
            g_mixed_in = np.matmul(g_relu, _swap(w_mix))
            accumulate(adjacency, np.matmul(g_mixed_in, _swap(h_now3)))
            accumulate(params.w_history, np.matmul(_swap(h_prev3), g_relu).sum(axis=0))
            d_hidden.append(np.matmul(_swap(a), g_mixed_in).reshape(rows, h))
            if t > 0:
                d_hidden[t - 1] = d_hidden[t - 1] + np.matmul(g_relu, _swap(w_history)).reshape(rows, h)
            h_prev3 = h_now3
        return d_hidden

    def recurrence_backward(d_hidden):
        """Gated-cell gradients, t = T-1 .. 0."""
        d_h_next = d_c_next = None
        for t in reversed(range(n_steps)):
            gate_in, gate_forget, candidate, gate_out, c = saved[t]
            if t > 0:
                c_prev = saved[t - 1][4]
                h_prev = saved[t - 1][3] * np.tanh(c_prev)
            else:
                c_prev = h_prev = np.zeros((rows, h))
            d_h = d_hidden[t] if d_h_next is None else d_hidden[t] + d_h_next
            tanh_c = np.tanh(c)
            d_c = d_h * gate_out * (1.0 - tanh_c * tanh_c)
            if d_c_next is not None:
                d_c = d_c + d_c_next
            d_pre = np.empty((rows, 4 * h))
            d_pre[:, 0:h] = d_c * candidate * gate_in * (1.0 - gate_in)
            d_pre[:, h : 2 * h] = d_c * c_prev * gate_forget * (1.0 - gate_forget)
            d_pre[:, 2 * h : 3 * h] = d_c * gate_in * (1.0 - candidate * candidate)
            d_pre[:, 3 * h : 4 * h] = d_h * tanh_c * gate_out * (1.0 - gate_out)
            accumulate(params.bias, d_pre.sum(axis=0, keepdims=True))
            accumulate(params.w_input, np.matmul(_swap(x_cols[t]), d_pre))
            accumulate(params.w_hidden, np.matmul(_swap(h_prev), d_pre))
            d_h_next = np.matmul(d_pre, _swap(w_hidden))
            d_c_next = d_c * gate_forget

    def backward(grad):
        recurrence_backward(readout_backward(grad))

    return Tensor._make(out, (adjacency,) + weights, backward)


def _forward_block(x_steps, a, params, out_steps, slabs):
    """The recurrence and readout over one block of windows, in buffers made once.

    ``x_steps`` is the block's (T, b, N) inputs and ``a`` its (b, N, N)
    adjacency; step t's output goes to ``out_steps[t]``, a (b, N, d_step)
    view. ``slabs``, when taping, are the block's rows of the five (T, rows, h)
    arrays the backward reads: step t's gates and c are written straight
    into them. Every expression is the one the backward recomputes, applied
    through ``out=`` in the same order.
    """
    n_steps, n_windows, n_chan = x_steps.shape
    rows, h = n_windows * n_chan, params.hidden
    w_input, w_hidden, bias, w_mix, w_history, w_project = (w.data for w in params.tensors().values())
    pre, recurrent = np.empty((rows, 4 * h)), np.empty((rows, 4 * h))
    scratch, product = np.empty((rows, h)), np.empty((rows, h))
    h_prev, h_now = np.zeros((rows, h)), np.empty((rows, h))
    c_prev = np.zeros((rows, h))
    mixed, relu_in = np.empty((n_windows, n_chan, h)), np.empty((n_windows, n_chan, h))
    if slabs is None:  # no tape: one set of gates, and c updated in place
        step_arrays = tuple(np.empty((rows, h)) for _ in range(4)) + (c_prev,)
    for t in range(n_steps):
        if slabs is not None:
            step_arrays = tuple(s[t] for s in slabs)
        gate_in, gate_forget, candidate, gate_out, c = step_arrays
        np.matmul(x_steps[t].reshape(rows, 1), w_input, out=pre)
        np.matmul(h_prev, w_hidden, out=recurrent)
        np.add(pre, recurrent, out=pre)
        np.add(pre, bias, out=pre)
        # each gate from its own contiguous copy, as elementwise kernels may
        # round differently on strided input
        for k, gate in enumerate((gate_in, gate_forget, candidate, gate_out)):
            np.copyto(gate, pre[:, k * h : (k + 1) * h])
        for gate in (gate_in, gate_forget, gate_out):
            ad.sigmoid_array(gate, out=gate, scratch=scratch)
        np.tanh(candidate, out=candidate)
        np.multiply(gate_forget, c_prev, out=c)
        np.multiply(gate_in, candidate, out=product)
        np.add(c, product, out=c)
        np.tanh(c, out=product)
        np.multiply(gate_out, product, out=h_now)
        # the readout, relu(A @ H_t @ w_mix + H_{t-1} @ w_history) @ w_project
        np.matmul(a, h_now.reshape(n_windows, n_chan, h), out=mixed)
        np.matmul(mixed, w_mix, out=relu_in)
        np.matmul(h_prev.reshape(n_windows, n_chan, h), w_history, out=mixed)
        np.add(relu_in, mixed, out=relu_in)
        np.maximum(relu_in, 0.0, out=relu_in)
        np.matmul(relu_in, w_project, out=out_steps[t])
        h_prev, h_now, c_prev = h_now, h_prev, c


def _readout_input(a, h_now3, h_prev3, w_mix, w_history):
    """``A @ H_t`` and the readout's ReLU input ``A @ H_t @ w_mix + H_{t-1} @ w_history``."""
    mixed_in = np.matmul(a, h_now3)
    return mixed_in, np.matmul(mixed_in, w_mix) + np.matmul(h_prev3, w_history)


def _swap(m):
    return np.swapaxes(m, -1, -2)
