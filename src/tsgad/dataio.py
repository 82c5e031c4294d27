"""CSV ingestion, normalization, sliding windows, and synthetic data.

Datasets are time-major matrices (rows = time steps, columns = channels)
with a binary per-step label vector. Normalization statistics are always
fitted on the training split only (refused if they overflow float64) and
applied to both splits by the same constructor as ``normalize_with``.

The synthetic generator drives all channels from a small set of shared
latent sinusoids through a fixed mixing assignment, so the cross-channel
correlation structure is controlled: an ``interdependency_shift`` interval
rewires which latent each channel follows (marginal variance preserved),
while a ``spike`` interval adds impulses to a single channel.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError

ANOMALY_KINDS = ("spike", "interdependency_shift")


@dataclass
class SeriesDataset:
    channel_names: list
    values: np.ndarray  # (L, N) float64, time-major
    labels: np.ndarray  # (L,) int, 0 normal / 1 anomalous
    norm_mean: np.ndarray | None = None  # set once normalization is applied
    norm_std: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.values.ndim != 2:
            raise DataFormatError("values must be 2-D (time x channels)")
        if self.values.shape[1] != len(self.channel_names):
            raise DataFormatError("channel_names length must match the value columns")
        if self.labels.shape != (self.values.shape[0],):
            raise DataFormatError("labels must have one entry per time step")
        if not ((self.labels == 0) | (self.labels == 1)).all():  # np.isin takes ~8x as long
            raise DataFormatError("labels must be binary")
        finite = np.isfinite(self.values)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise DataFormatError(
                f"time step {row}, column {self.channel_names[col]!r}: "
                f"non-finite value {float(self.values[row, col])}"
            )

    @property
    def length(self):
        return self.values.shape[0]

    @property
    def n_channels(self):
        return self.values.shape[1]


def read_series(path, label_column="label"):
    """Read a raw (unnormalized) dataset from CSV.

    The header names the channels; an optional binary column named
    ``label_column`` supplies per-step labels, otherwise all steps are
    treated as normal.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except IsADirectoryError:
        raise DataFormatError(f"{path}: is a directory, not a CSV file") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{path}: empty file") from None
    for c, name in enumerate(header):
        if name in header[:c]:
            raise DataFormatError(f"{path}: column {name!r} appears more than once in the header")
    label_idx = header.index(label_column) if label_column in header else None
    channel_names = [h for i, h in enumerate(header) if i != label_idx]
    if len(channel_names) < 2:
        raise DataFormatError(f"{path}: need at least 2 channel columns")
    rows = []
    labels = []
    for r, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataFormatError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        vals = []
        for c, cell in enumerate(row):
            if c == label_idx:
                if cell not in ("0", "1"):
                    raise DataFormatError(f"{path}: row {r}, column {header[c]!r}: label must be 0 or 1")
                labels.append(int(cell))
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {r}, column {header[c]!r}: non-numeric cell {cell!r}"
                ) from None
        rows.append(vals)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=np.float64)
    label_arr = np.asarray(labels if label_idx is not None else np.zeros(len(rows)), dtype=np.int64)
    return SeriesDataset(channel_names=channel_names, values=values, labels=label_arr)


def write_series(ds, path):
    """Write a dataset to CSV; float formatting round-trips exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.channel_names) + ["label"])
        for row, lab in zip(ds.values, ds.labels):
            writer.writerow([repr(float(x)) for x in row] + [int(lab)])


def _standardized(ds, rows, mean, std):
    """The ``rows`` of ``ds`` as a new dataset standardized as ``(x - mean) / std``, recording the statistics."""
    return SeriesDataset(
        channel_names=list(ds.channel_names),
        values=(ds.values[rows] - mean) / std,
        labels=ds.labels[rows].copy(),
        norm_mean=mean,
        norm_std=std,
    )


def normalize_with(ds, mean, std):
    """Return a copy of ``ds`` standardized by externally fitted statistics."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    if mean.shape != (ds.n_channels,) or std.shape != (ds.n_channels,):
        raise DataFormatError("normalization statistics do not match the channel count")
    return _standardized(ds, slice(None), mean, std)


def fit_normalization(ds, rows):
    """Per-channel mean and std of the ``rows`` of ``ds``; constant channels get std clamped to 1.
    A statistic that overflows float64 raises DataFormatError naming its column."""
    values = ds.values[rows]
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = values.mean(axis=0), values.std(axis=0)
    overflowed = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if overflowed.size:
        col = overflowed[0]
        raise DataFormatError(f"column {ds.channel_names[col]!r}: values too large to standardize in float64 "
                              f"(largest magnitude {np.abs(values[:, col]).max():.2g})")
    flat = std < 1e-12
    if flat.any():
        warnings.warn(
            f"std clamped to 1 for constant channel(s) at indices {np.flatnonzero(flat).tolist()}",
            stacklevel=2,
        )
        std = np.where(flat, 1.0, std)
    return mean, std


def split_normalize(ds, split_fraction=0.6):
    """Chronological train/test split; both splits are standardized by the training split's statistics."""
    if not 0.0 < split_fraction <= 1.0:
        raise ConfigError(f"split_fraction must be in (0, 1], got {split_fraction}")
    cut = int(ds.length * split_fraction)
    if cut < 2:
        raise ConfigError("training split would be shorter than 2 rows")
    mean, std = fit_normalization(ds, slice(cut))
    return _standardized(ds, slice(cut), mean, std), _standardized(ds, slice(cut, None), mean, std)


def num_windows(length, window, stride):
    if window > length:
        raise ConfigError(f"window {window} exceeds series length {length}")
    return (length - window) // stride + 1


def window_table(ds, window, stride):
    """Every sliding window of a series, in chronological order.

    Returns (windows (B, T, N), starts (B,), labels (B,)); a window is
    labeled anomalous iff any step it covers is.
    """
    count = num_windows(ds.length, window, stride)
    starts = np.arange(count) * stride
    windows = np.stack([ds.values[s : s + window] for s in starts])
    labels = np.asarray([int(ds.labels[s : s + window].any()) for s in starts], dtype=np.int64)
    return windows, starts, labels


@dataclass
class AnomalyInterval:
    kind: str
    start: int
    stop: int

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise ConfigError(f"unknown anomaly kind {self.kind!r}; expected one of {ANOMALY_KINDS}")
        if not 0 <= self.start < self.stop:
            raise ConfigError(f"invalid interval [{self.start}, {self.stop})")


def _check_intervals(intervals, length):
    spans = sorted(intervals, key=lambda iv: iv.start)
    for iv in spans:
        if iv.stop > length:
            raise ConfigError(f"interval [{iv.start}, {iv.stop}) extends past length {length}")
    for a, b in zip(spans, spans[1:]):
        if b.start < a.stop:
            raise ConfigError(
                f"overlapping anomaly intervals [{a.start}, {a.stop}) and [{b.start}, {b.stop})"
            )
    return spans


def synth_generate(n_channels=5, length=2000, anomaly_spec=(), seed=None, noise=0.08):
    """Generate a labeled dataset with controllable interdependency anomalies.

    Channels follow shared latent sinusoids (one per channel via a fixed
    assignment, with per-channel phase jitter), so channels on the same
    latent are strongly correlated. ``interdependency_shift`` intervals
    apply a fixed channel permutation to the assignment, rewiring the
    couplings while preserving each channel's marginal variance; ``spike``
    intervals add impulses to one channel. Deterministic given the seed.
    """
    if seed is None:
        raise ConfigError("synth_generate requires an explicit seed (determinism)")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    if not 0.0 <= noise < np.inf:
        raise ConfigError(f"noise must be a finite number >= 0, got {noise}")
    if n_channels < 2:
        raise ConfigError("need at least 2 channels")
    intervals = _check_intervals([iv if isinstance(iv, AnomalyInterval) else AnomalyInterval(*iv) for iv in anomaly_spec], length)

    rng = np.random.default_rng(seed)
    n_latents = max(2, n_channels // 2)
    freqs = rng.uniform(1.0 / 50.0, 1.0 / 15.0, size=n_latents)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_latents)
    t = np.arange(length)

    assignment = np.arange(n_channels) % n_latents
    channel_phase = rng.uniform(-0.15, 0.15, size=n_channels)
    # every shift interval applies a fixed signed channel permutation to the
    # mixing: couplings are rewired and half the channels flip sign, which
    # inverts their correlations while leaving every marginal untouched
    # (sines and the noise are sign-symmetric)
    rewire = np.roll(np.arange(n_channels), 1)
    flip = np.where(np.arange(n_channels) % 2 == 0, -1.0, 1.0)

    values = np.empty((length, n_channels))
    labels = np.zeros(length, dtype=np.int64)
    shifted = np.zeros(length, dtype=bool)
    for iv in intervals:
        labels[iv.start : iv.stop] = 1
        if iv.kind == "interdependency_shift":
            shifted[iv.start : iv.stop] = True

    for c in range(n_channels):
        base_k = assignment[c]
        shift_k = assignment[rewire[c]]
        k = np.where(shifted, shift_k, base_k)
        sign = np.where(shifted, flip[c], 1.0)
        angle = 2.0 * np.pi * freqs[k] * t + phases[k] + channel_phase[c]
        values[:, c] = sign * np.sin(angle)
    values += rng.normal(0.0, noise, size=values.shape)

    for iv in intervals:
        if iv.kind == "spike":
            channel = int(rng.integers(n_channels))
            signs = rng.choice((-1.0, 1.0), size=iv.stop - iv.start)
            values[iv.start : iv.stop, channel] += 2.5 * signs

    names = [f"ch{c}" for c in range(n_channels)]
    return SeriesDataset(channel_names=names, values=values, labels=labels)
