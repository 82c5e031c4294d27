"""Conditional distribution encoder: recurrence over time, convolution over the graph.

Every channel runs through a shared gated recurrent cell (LSTM-style, one
layer) step by step; at each step the hidden states are mixed across
channels through the window's adjacency matrix and projected down, and the
per-step outputs are concatenated over time into the node embeddings that
condition the flow. The adjacency enters the computation directly, so
embeddings are a differentiable function of window contents, attention
parameters, and encoder weights.

With the tape on, ``encode_batch`` is a single tape node (Hochreiter &
Schmidhuber 1997 for the cell, Werbos 1990 for backpropagation through time)
whose tape is h and c alone, with the zero state at index 0. While both whole
(T + 1, B*N, h) slabs fit ``_TAPE_BYTES`` the tape keeps every state. A longer
one is cut into segments of k = ceil(sqrt(T)) steps (Chen et al. 2016; Gruslys
et al. 2016): it keeps the state before each segment and every state of the
last, about T/k + k of the T + 1, and the backward rebuilds an earlier
segment's h and c from its first state by stepping the forward's own ``_Cell``
on the forward's own blocks, so a rebuilt state has the forward's bits.

The backward sums in the order a tape of one node per op would, so gradients
are bit-identical to that composition, in two passes that take the states a
segment at a time. The readout's, t = 0 .. T-1, accumulates w_project, w_mix,
w_history and the adjacency (a reverse-order or stacked readout reorders those
sums), adding each step's adjacency gradient into the node as it is made
(alignment also feeds it), and keeps each step's ReLU mask, a bool array. The
recurrence's, last step first, accumulates bias, w_input and w_hidden with
GEMMs and sums over the whole batch; the segment the readout's pass rebuilt
last is its second, and is not rebuilt again. The two sets of parameters are
disjoint, so neither pass reorders the other's sums, and the recurrence
rebuilds d loss / d h_t at each step as
``A^T @ g_mixed_t + g_relu_{t+1} @ w_history^T``, recomputing g_relu from the
mask and g_mixed with the readout's own full-batch ``matmul`` calls, instead of
keeping a (T, B*N, h) float64 slab of it. It recomputes each step's gates with
the forward's cell as well, also trading compute for memory.

The forward runs over blocks of at most ``_BLOCK_ROWS`` B*N rows (whole
windows) in buffers made once, so a step's working set stays in cache; the
bits do not depend on the blocking, as windows are independent, every element
meets the same ufuncs on contiguous input and each GEMM keeps its K order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# B*N rows per block: the block's 26 (rows, h) buffers, 6 to 7 MB at h = 32, stay in cache
# between steps (at (256, 80, 25), 512 to 1024 rows ran fastest; 6400, 40% slower)
_BLOCK_ROWS = 1024
# bytes up to which the h and c tape keeps every state. A segmented tape's backward steps the
# cell over all but the last segment twice more: at the desk shape (16, 40, 5), a 1.7 MB tape,
# that would add about 28% to training time; at (256, 80, 25) it cuts a 265 MB tape to 56 MB
# (88 MB with the segment the backward rebuilds).
_TAPE_BYTES = 64 * 2**20


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
        return {f"encoder.{f.name}": getattr(self, f.name) for f in fields(self)}


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
    rows, h, d_step = n_batch * n_chan, params.hidden, params.d_step
    weights = tuple(params.tensors().values())
    w = tuple(t.data for t in weights)
    a = adjacency.data
    taping = ad._tracking(adjacency, *weights)

    x_steps = np.ascontiguousarray(windows.transpose(1, 0, 2))  # (T, B, N)
    out_steps = np.empty((n_steps, n_batch, n_chan, d_step))
    # the tape keeps the states before steps 0, k, 2k, .. and every state of the last segment, from tail on
    k = max(n_steps, 1) if 16 * (n_steps + 1) * rows * h <= _TAPE_BYTES else math.isqrt(n_steps - 1) + 1
    tail = max(0, (n_steps - 1) // k * k)
    slots = {s: i for i, s in enumerate([*range(0, tail, k), *range(tail, n_steps + 1)])}
    hs, cs = np.zeros((2, len(slots), rows, h)) if taping else (None, None)  # the tape
    n_blocks = -(-n_batch // max(1, _BLOCK_ROWS // n_chan))
    edges = [n_batch * j // n_blocks for j in range(n_blocks + 1)]
    blocks = [(slice(lo, hi), slice(lo * n_chan, hi * n_chan)) for lo, hi in zip(edges[:-1], edges[1:])]
    for win, r in blocks:
        kept = {s: (hs[i, r], cs[i, r]) for s, i in slots.items()} if taping else {}
        _forward_block(x_steps[:, win], a[win], w, out_steps[:, win], kept)
    out = np.ascontiguousarray(out_steps.transpose(1, 2, 0, 3)).reshape(n_batch, n_chan, n_steps * d_step)
    if not taping:
        return Tensor._make(out, (), None)
    x_cols = x_steps.reshape(n_steps, rows, 1)
    _, w_hidden, _, w_mix, w_history, w_project = w
    wt_hidden, wt_mix, wt_history, wt_project = w_hidden.T, w_mix.T, w_history.T, w_project.T
    a_t = a.swapaxes(-1, -2)

    def accumulate(tensor, grad):
        if tensor.requires_grad:
            tensor._accumulate(grad)

    def backward(grad):
        """The readout's gradients, t = 0 .. T-1, keeping each step's ReLU mask; then the cell's,
        t = T-1 .. 0, rebuilding d loss / d h_t from the masks: elementwise work on the forward's
        blocks (buffers made once per block size), parameter-gradient GEMMs and sums over the batch.
        Both passes take h and c a segment at a time, rebuilding a segment the tape does not keep."""
        g_steps = grad.reshape(n_batch, n_chan, n_steps, d_step).transpose(2, 0, 1, 3)  # strided views, no copy
        masks = np.empty((n_steps, n_batch, n_chan, h), dtype=bool)
        mixed_in, relu_in, scratch, g_relu, g_mixed_in = np.empty((5, n_batch, n_chan, h))
        # per block size: a cell, then tanh(c_t), d_c, a factor, 1 - the sigmoid gates, d_pre's quarters
        work = {n: (_Cell(n, w), np.empty((10, n, h))) for n in {r.stop - r.start for _, r in blocks}}
        rebuilt, held = np.empty((2, k + 1, rows, h)) if tail else None, None

        def segment(lo):
            """h and c at the states lo .. lo + k (or T), index 0 first: the tape's own for the last
            segment, else stepped from the state before step lo as the forward stepped it."""
            nonlocal held
            if lo == tail:
                return hs[slots[lo] :], cs[slots[lo] :]
            if held != lo:
                rebuilt[0, 0], rebuilt[1, 0] = hs[slots[lo]], cs[slots[lo]]
                for _, r in blocks:
                    advance = work[r.stop - r.start][0].advance
                    for i in range(k):
                        advance(x_cols[lo + i, r], *rebuilt[:, i, r], *rebuilt[:, i + 1, r])
                held = lo
            return rebuilt

        def relu_grads(t, out):
            """Step t's d loss / d (the ReLU input) into ``out``, and d loss / d (A @ H_t) into g_mixed_in."""
            np.multiply(np.matmul(g_steps[t], wt_project, out=out), masks[t], out=out)
            np.matmul(out, wt_mix, out=g_mixed_in)

        starts = range(0, n_steps, k)
        for lo in starts:
            seg_h = segment(lo)[0]
            for t in range(lo, min(lo + k, n_steps)):
                h_prev3, h_now3 = seg_h[t - lo : t - lo + 2].reshape(2, n_batch, n_chan, h)
                _readout_input(a, h_now3, h_prev3, w_mix, w_history, mixed_in, relu_in, scratch)
                relu_out = np.maximum(relu_in, 0.0, out=scratch)
                accumulate(params.w_project, np.matmul(relu_out.swapaxes(-1, -2), g_steps[t]).sum(axis=0))
                np.greater(relu_in, 0.0, out=masks[t])
                relu_grads(t, g_relu)
                accumulate(params.w_mix, np.matmul(mixed_in.swapaxes(-1, -2), g_relu).sum(axis=0))
                accumulate(adjacency, np.matmul(g_mixed_in, h_now3.swapaxes(-1, -2)))
                accumulate(params.w_history, np.matmul(h_prev3.swapaxes(-1, -2), g_relu).sum(axis=0))
        # the readout's buffers serve the cell's pass: d loss / d h_t, and g_relu at t and t + 1
        d_hidden, g_relu_next = mixed_in, relu_in
        d_pre, d_h_next, d_c_next = np.empty((rows, 4 * h)), np.empty((rows, h)), np.empty((rows, h))
        for lo in reversed(starts):
            seg_h, seg_c = segment(lo)
            for t in reversed(range(lo, min(lo + k, n_steps))):
                h_t, c_t, c_next = seg_h[t - lo], seg_c[t - lo], seg_c[t - lo + 1]
                # d loss / d h_t = a_t @ g_mixed_in_t + g_relu_{t+1} @ wt_history, as the readout's tape sums it
                relu_grads(t, g_relu)
                np.matmul(a_t, g_mixed_in, out=d_hidden)
                if t < n_steps - 1:
                    np.add(d_hidden, np.matmul(g_relu_next, wt_history, out=scratch), out=d_hidden)
                g_relu, g_relu_next = g_relu_next, g_relu
                for _, r in blocks:
                    cell, buffers = work[r.stop - r.start]
                    tanh_c, d_c, factor, one_minus, d_quarters = *buffers[:3], buffers[3:6], buffers[6:]
                    gate_in, gate_forget, gate_out, candidate = gates = cell.step(x_cols[t, r], h_t[r])
                    d_h = d_hidden.reshape(rows, h)[r]
                    if t < n_steps - 1:
                        np.add(d_h, d_h_next[r], out=d_h)
                    np.tanh(c_next[r], out=tanh_c)
                    # d_c = d_h * gate_out * (1 - tanh_c^2), plus the carry from step t + 1
                    np.subtract(1.0, np.multiply(tanh_c, tanh_c, out=factor), out=factor)
                    np.multiply(np.multiply(d_h, gate_out, out=d_c), factor, out=d_c)
                    if t < n_steps - 1:
                        np.add(d_c, d_c_next[r], out=d_c)
                    # sigmoid gates: (d_c * candidate, d_c * c_{t-1}, d_h * tanh_c) * gate * (1 - gate)
                    np.multiply(d_c, candidate, out=d_quarters[0])
                    np.multiply(d_c, c_t[r], out=d_quarters[1])
                    np.multiply(d_h, tanh_c, out=d_quarters[2])
                    np.multiply(d_quarters[:3], gates[:3], out=d_quarters[:3])
                    np.multiply(d_quarters[:3], np.subtract(1.0, gates[:3], out=one_minus), out=d_quarters[:3])
                    # the candidate: d_c * gate_in * (1 - candidate^2)
                    np.subtract(1.0, np.multiply(candidate, candidate, out=factor), out=factor)
                    np.multiply(np.multiply(d_c, gate_in, out=d_quarters[3]), factor, out=d_quarters[3])
                    _restack(d_quarters, d_pre[r])
                    np.multiply(d_c, gate_forget, out=d_c_next[r])
                accumulate(params.bias, d_pre.sum(axis=0, keepdims=True))
                accumulate(params.w_input, np.matmul(x_cols[t].T, d_pre))
                accumulate(params.w_hidden, np.matmul(h_t.T, d_pre))
                np.matmul(d_pre, wt_hidden, out=d_h_next)

    return Tensor._make(out, (adjacency,) + weights, backward)


def _forward_block(x_steps, a, weights, out_steps, kept):
    """The recurrence and readout over one block of windows, (T, b, N) ``x_steps`` and
    (b, N, N) ``a``, into the (T, b, N, d_step) view ``out_steps``. ``kept`` maps a state
    index t (the state before step t) to the block's rows of the tape's h and c that keep
    it; the other states alternate in a ring of two."""
    n_steps, n_windows, n_chan = x_steps.shape
    _, w_hidden, _, w_mix, w_history, w_project = weights
    rows, h = n_windows * n_chan, w_hidden.shape[0]
    ring = np.zeros((2, 2, rows, h))
    cell = _Cell(rows, weights)
    mixed, relu_in, history = np.empty((3, n_windows, n_chan, h))
    h_prev, c_prev = kept.get(0, ring[:, 0])
    for t in range(n_steps):
        h_now, c = kept.get(t + 1, ring[:, (t + 1) % 2])
        cell.advance(x_steps[t].reshape(rows, 1), h_prev, c_prev, h_now, c)
        _readout_input(a, h_now, h_prev, w_mix, w_history, mixed, relu_in, history)
        np.matmul(np.maximum(relu_in, 0.0, out=relu_in), w_project, out=out_steps[t])
        h_prev, c_prev = h_now, c


class _Cell:
    """One step's gates for ``rows`` rows in buffers made once, stacked (in, forget, out,
    candidate) in one (4, rows, h) array: the sigmoid gates are one contiguous run for one
    ``sigmoid_array`` call, and each gate is contiguous (elementwise kernels may round
    differently on strided input). The forward and the backward's recompute step a cell on
    the same blocks, so the backward's gates are the forward's bit for bit."""

    def __init__(self, rows, weights):
        self.w_input, self.w_hidden, bias = weights[:3]
        h = self.w_hidden.shape[0]
        self.bias = np.tile(bias, (rows, 1))  # a broadcast add of the (1, 4h) row is slower
        self.pre, self.recurrent = np.empty((2, rows, 4 * h))
        self.gates, self.scratch = np.empty((4, rows, h)), np.empty((3, rows, h))

    def step(self, x_col, h_prev):
        # one term per entry: einsum forms x_t @ w_input as matmul does, zero signs included, and faster
        np.einsum("ik,kj->ij", x_col, self.w_input, out=self.pre)
        np.matmul(h_prev, self.w_hidden, out=self.recurrent)
        np.add(self.pre, self.recurrent, out=self.pre)
        np.add(self.pre, self.bias, out=self.pre)
        _restack(self.pre, self.gates)
        ad.sigmoid_array(self.gates[:3], out=self.gates[:3], scratch=self.scratch)
        np.tanh(self.gates[3], out=self.gates[3])
        return self.gates

    def advance(self, x_col, h_prev, c_prev, h_now, c):
        """One step of the recurrence into ``h_now`` and ``c``: c = f * c_prev + i * g, h = o * tanh(c)."""
        gate_in, gate_forget, gate_out, candidate = self.step(x_col, h_prev)
        product = self.scratch[0]
        np.multiply(gate_forget, c_prev, out=c)
        np.multiply(gate_in, candidate, out=product)
        np.add(c, product, out=c)
        np.tanh(c, out=product)
        np.multiply(gate_out, product, out=h_now)


def _restack(src, dst):
    """(rows, 4h) columns (in, forget, candidate, out) to a (4, rows, h) stack (in, forget, out, candidate), or back."""
    src, dst = (m.reshape(m.shape[0], 4, -1).transpose(1, 0, 2) if m.ndim == 2 else m for m in (src, dst))
    np.copyto(dst[:2], src[:2])
    np.copyto(dst[2], src[3])
    np.copyto(dst[3], src[2])


def _readout_input(a, h_now, h_prev, w_mix, w_history, mixed, relu_in, history):
    """``mixed = A @ H_t`` and the readout's ReLU input ``A @ H_t @ w_mix + H_{t-1} @ w_history``."""
    np.matmul(a, h_now.reshape(mixed.shape), out=mixed)
    np.matmul(mixed, w_mix, out=relu_in)
    np.matmul(h_prev.reshape(mixed.shape), w_history, out=history)
    np.add(relu_in, history, out=relu_in)
