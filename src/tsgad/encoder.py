"""Conditional distribution encoder: recurrence over time, convolution over the graph.

Every channel runs through a shared gated recurrent cell (LSTM-style, one
layer) step by step; at each step the hidden states are mixed across
channels through the window's adjacency matrix and projected down, and the
per-step outputs are concatenated (or averaged) over time into the node
embeddings that condition the flow. The adjacency enters the computation
directly, so embeddings are a differentiable function of window contents,
attention parameters, and encoder weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


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


def _cell_step(x_col, h_prev, c_prev, params):
    """One gated-cell step for all rows at once; rows are (batch*channel)."""
    h = params.hidden
    pre = ad.matmul(x_col, params.w_input) + ad.matmul(h_prev, params.w_hidden) + params.bias
    gate_in = ad.sigmoid(pre[:, 0:h])
    gate_forget = ad.sigmoid(pre[:, h : 2 * h])
    candidate = ad.tanh(pre[:, 2 * h : 3 * h])
    gate_out = ad.sigmoid(pre[:, 3 * h : 4 * h])
    c = gate_forget * c_prev + gate_in * candidate
    return gate_out * ad.tanh(c), c


def encode_batch(windows, adjacency, params, reduce="concat"):
    """Node embeddings for a batch of windows.

    ``windows`` is (B, T, N) raw (normalized) values; ``adjacency`` is a
    (B, N, N) Tensor. Per step t the shared cell consumes column t of every
    channel, then the step output is
    ``relu(A @ H_t @ w_mix + H_{t-1} @ w_history) @ w_project`` with a zero
    hidden state standing in for the step before the window. Returns a
    (B, N, d) Tensor, d = T * d_step for ``concat`` or d_step for ``mean``.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError("windows must be (B, T, N)")
    if reduce not in ("concat", "mean"):
        raise ValueError(f"reduce must be 'concat' or 'mean', got {reduce!r}")
    n_batch, n_steps, n_chan = windows.shape
    rows = n_batch * n_chan
    h = params.hidden

    h_state = Tensor(np.zeros((rows, h)))
    c_state = Tensor(np.zeros((rows, h)))
    h_prev3 = Tensor(np.zeros((n_batch, n_chan, h)))
    steps = []
    running = None
    for t in range(n_steps):
        x_col = Tensor(windows[:, t, :].reshape(rows, 1))
        h_state, c_state = _cell_step(x_col, h_state, c_state, params)
        h_now3 = ad.reshape(h_state, (n_batch, n_chan, h))
        mixed = ad.matmul(ad.matmul(adjacency, h_now3), params.w_mix)
        history = ad.matmul(h_prev3, params.w_history)
        step_out = ad.matmul(ad.relu(mixed + history), params.w_project)
        if reduce == "concat":
            steps.append(step_out)
        else:
            running = step_out if running is None else running + step_out
        h_prev3 = h_now3
    if reduce == "concat":
        return ad.concat(steps, axis=2)
    return running * (1.0 / n_steps)

