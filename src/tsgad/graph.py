"""Dynamic interdependency graphs from windowed series via self-attention.

Each channel of a window is a node whose feature is its length-T series.
Queries and keys are learned T x T projections of the channel series; the
row-softmax of the scaled query-key products is the window's adjacency
matrix, so the graph rewires itself with the data and gradients reach the
projection matrices.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class AttentionParams:
    w_query: Tensor  # (T, T)
    w_key: Tensor  # (T, T)

    @property
    def window(self):
        return self.w_query.data.shape[0]

    def tensors(self):
        return {f"attention.{f.name}": getattr(self, f.name) for f in fields(self)}


def init_attention(window, rng):
    """Seeded init; the scale window^-0.75 keeps the pre-softmax logits near unit variance."""
    scale = float(window) ** -0.75
    return AttentionParams(
        w_query=Tensor(rng.normal(0.0, scale, size=(window, window)), requires_grad=True),
        w_key=Tensor(rng.normal(0.0, scale, size=(window, window)), requires_grad=True),
    )


def attention_adjacency(node_features, params, dropout=0.0, rng=None):
    """Row-stochastic attention matrices for a stack of windows.

    ``node_features`` is (B, N, T): each window's channel series as rows
    (an (N, T) array gives one window's (N, N) matrix). Logit (i, j) is the
    scaled product of node i's query with node j's key. Dropout, when
    active, is applied to the logits.
    """
    feats = ad.as_tensor(node_features)
    if feats.shape[-1] != params.window:
        raise ValueError(
            f"window length {feats.shape[-1]} does not match attention params {params.window}"
        )
    queries = ad.matmul(feats, ad.transpose(params.w_query))
    keys = ad.matmul(feats, ad.transpose(params.w_key))
    logits = ad.matmul(queries, ad.transpose(keys)) * (1.0 / np.sqrt(params.window))
    if dropout > 0.0:
        if rng is None:
            raise ValueError("dropout requires an rng")
        logits = ad.dropout(logits, dropout, rng)
    return ad.softmax_rows(logits)


def adjacency_export(starts, adjacency, path):
    """Write per-window adjacency entries as (window_start, i, j, a_ij) rows.

    ``adjacency`` is (B, N, N): the matrix of the window starting at ``starts[b]``.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if len(starts) == 0:
        raise ValueError("adjacency_export needs at least one window")
    if adjacency.ndim != 3 or adjacency.shape[0] != len(starts):
        raise ValueError(
            f"adjacency {adjacency.shape} does not hold one matrix per window start ({len(starts)})"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_start", "i", "j", "a_ij"])
        n = adjacency.shape[1]
        for start, a in zip(starts, adjacency):
            for i in range(n):
                for j in range(n):
                    writer.writerow([int(start), i, j, repr(float(a[i, j]))])


def read_adjacency_export(path):
    """Inverse of ``adjacency_export``: {window_start: (N, N) matrix}."""
    entries = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            start, i, j, val = int(row[0]), int(row[1]), int(row[2]), float(row[3])
            entries.setdefault(start, {})[(i, j)] = val
    out = {}
    for start, cells in entries.items():
        n = max(i for i, _ in cells) + 1
        a = np.zeros((n, n))
        for (i, j), val in cells.items():
            a[i, j] = val
        out[start] = a
    return out
