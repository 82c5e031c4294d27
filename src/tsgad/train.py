"""Joint training, anomaly scoring, thresholding, and checkpointing.

The training loss per batch is the mean per-window fused alignment distance
minus the mean flow log-likelihood; minimizing it tightens the alignment of
normal windows against their batch reference while raising their density.
Anomaly scores add the (unscaled) alignment distance to the mean negative
log-likelihood per channel, and the decision threshold is the Tukey fence
over training-split scores.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .align import batch_alignment
from .dataio import normalize_with, window_table
from .encoder import encode_batch, init_encoder
from .errors import (CheckpointError, ConfigError, DataFormatError, DivergenceError,
                     MetricUndefinedError)
from .flow import batch_log_likelihood, init_flow, log_prob
from .graph import AttentionParams, attention_adjacency, init_attention

CHECKPOINT_FORMAT = "tsgad-checkpoint"
CHECKPOINT_VERSION = 1

ABLATIONS = {
    "full": ("wd", "gwd"),
    "no_wd": ("gwd",),
    "no_gwd": ("wd",),
    "no_ga": (),
}

# paper-scale experiment defaults; desk-scale values are the dataclass defaults
PAPER_SCALE = {"window": 80, "batch_size": 256, "epochs": 60}

SCORE_PASSES = 3  # scoring batch compositions the alignment terms are averaged over


def _is_number(value):
    """A JSON number: int or float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class TrainConfig:
    """Every training setting; ``tsgad train`` has one flag per field but the seed.

    ``metadata`` may give a field's flag (default: ``--`` and the dashed name), help and choices.
    """

    window: int = field(default=40, metadata={"help": "window length T"})
    stride: int = field(default=10, metadata={"help": "window stride S"})
    batch_size: int = field(default=16, metadata={"flag": "--batch", "help": "windows per batch B"})
    epochs: int = 60
    learning_rate: float = field(default=0.002, metadata={"flag": "--lr"})
    lam: float = field(default=0.1, metadata={"help": "alignment weight in the loss"})
    beta: float = field(default=0.05, metadata={"help": "entropic regularization weight"})
    dropout: float = 0.2
    seed: int = 0
    ablation: str = field(default="full", metadata={"choices": tuple(ABLATIONS)})
    hidden: int = field(default=32, metadata={"help": "recurrent hidden width"})
    d_step: int = field(default=8, metadata={"help": "per-step embedding width"})
    encoder_out_scale: float = 1.0
    split_fraction: float = 0.6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                kind, ok = "a finite number", _is_number(value) and math.isfinite(value)
            elif f.type == "int":
                kind, ok = "an integer", isinstance(value, numbers.Integral) and not isinstance(value, bool)
            else:
                kind, ok = "a str", isinstance(value, str)
            if not ok:
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
            if f.type == "int" and f.name != "seed" and value < 1:
                raise ConfigError(f"{f.name} must be positive, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (alignment needs a reference)")
        for name in ("learning_rate", "beta"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0")
        if self.lam < 0.0:
            raise ConfigError("lam must be >= 0")
        if not 0.0 < self.split_fraction <= 1.0:
            raise ConfigError(f"split_fraction must be in (0, 1], got {self.split_fraction}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {sorted(ABLATIONS)}, got {self.ablation!r}")

    @classmethod
    def from_dict(cls, data):
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class DetectionModel:
    config: TrainConfig
    attention: AttentionParams
    encoder_params: object
    flow: object

    def named_parameters(self):
        return self.attention.tensors() | self.encoder_params.tensors() | self.flow.tensors()


def build_model(config):
    att_rng, enc_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2))
    attention = init_attention(config.window, att_rng)
    encoder_params = init_encoder(config.hidden, config.d_step, enc_rng,
                                  out_scale=config.encoder_out_scale)
    flow = init_flow(config.window, config.window * config.d_step)
    return DetectionModel(config=config, attention=attention, encoder_params=encoder_params, flow=flow)


class Adam:
    """Standard Adam over named parameter tensors."""

    def __init__(self, params, learning_rate):
        self.params = list(params.values())
        self.learning_rate = learning_rate
        self.beta1, self.beta2 = 0.9, 0.999
        self.eps = 1e-8
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        correct1 = 1.0 - self.beta1**self.step_count
        correct2 = 1.0 - self.beta2**self.step_count
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * p.grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * p.grad**2
            m_hat = self._m[i] / correct1
            v_hat = self._v[i] / correct2
            p.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def _forward(model, windows, dropout_rng=None):
    """Adjacency, node embeddings and flow rows (inputs, conditions) of a window batch.

    Attention dropout runs exactly when ``dropout_rng`` is given. The flow
    gets one row per (window, channel). The conditions are a (B*N, T*d) view
    of the embeddings, a node that hands its gradient to them reshaped.
    """
    windows = np.asarray(windows, dtype=np.float64)
    feats = np.swapaxes(windows, 1, 2).copy()  # (B, N, T)
    dropout = model.config.dropout if dropout_rng is not None else 0.0
    adjacency = attention_adjacency(feats, model.attention, dropout=dropout, rng=dropout_rng)
    embeddings = encode_batch(windows, adjacency, model.encoder_params)
    rows = feats.shape[0] * feats.shape[1]
    conditions = ad.node(embeddings.data.reshape(rows, -1), (embeddings, lambda g: g.reshape(embeddings.shape)))
    return adjacency, embeddings, (ad.Tensor(feats.reshape(rows, -1)), conditions)


def _train_step(model, optimizer, batch, dropout_rng, where):
    """One optimizer step on a window batch; returns the loss value, and the step's tape dies with it."""
    cfg = model.config
    terms = ABLATIONS[cfg.ablation]
    adjacency, embeddings, rows = _forward(model, batch, dropout_rng)
    mean_ll = batch_log_likelihood(*rows, model.flow)
    if terms:
        try:
            align = batch_alignment(embeddings, adjacency, lam=cfg.lam, beta=cfg.beta, terms=terms)
        except FloatingPointError as exc:
            raise DivergenceError(f"{exc} at {where}") from None
        loss = align.loss_term - mean_ll
    else:
        loss = -mean_ll
    value = loss.item()
    if not np.isfinite(value):
        raise DivergenceError(f"non-finite loss at {where}")
    optimizer.zero_grad()
    ad.backward(loss)
    optimizer.step()
    return value


@dataclass
class TrainResult:
    checkpoint: dict
    loss_curve: list  # rows (epoch, batch, loss)
    epoch_means: list


def train(train_ds, config):
    """Train on a normalized training split; returns checkpoint + loss curve.

    Deterministic given the seed: parameter init, per-epoch shuffling, and
    dropout all draw from seed-derived streams.
    """
    if train_ds.norm_mean is None:
        raise ConfigError("train expects a normalized dataset (use split_normalize or normalize_with)")
    cfg = config
    windows, starts, _ = window_table(train_ds, cfg.window, cfg.stride)
    if len(windows) < cfg.batch_size:
        raise ConfigError(
            f"training split yields {len(windows)} windows, need at least one full batch of {cfg.batch_size}"
        )
    model = build_model(cfg)
    params = model.named_parameters()
    optimizer = Adam(params, cfg.learning_rate)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    dropout_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))

    loss_curve = []
    epoch_means = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(windows))
        epoch_losses = []
        for batch_index, lo in enumerate(range(0, len(order), cfg.batch_size)):
            take = order[lo : lo + cfg.batch_size]
            if len(take) < cfg.batch_size:
                break  # alignment reference needs full batches during training
            value = _train_step(model, optimizer, windows[take], dropout_rng, f"epoch {epoch}, batch {batch_index}")
            loss_curve.append((epoch, batch_index, value))
            epoch_losses.append(value)
        epoch_means.append(float(np.mean(epoch_losses)))

    train_scores = _score_windows(model, windows)["score"]
    q1, q3 = quartiles(train_scores)
    checkpoint = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(cfg),
        "channel_names": list(train_ds.channel_names),
        "normalization": {
            "mean": _encode_array(train_ds.norm_mean),
            "std": _encode_array(train_ds.norm_std),
        },
        "parameters": {name: _encode_array(t.data) for name, t in params.items()},
        "quartiles": {"q1": q1, "q3": q3, "threshold": iqr_threshold_from(q1, q3)},
    }
    return TrainResult(checkpoint=checkpoint, loss_curve=loss_curve, epoch_means=epoch_means)


def quartiles(values):
    """25th/75th percentiles with linear interpolation between order statistics."""
    q1, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25.0, 75.0])
    return float(q1), float(q3)


def iqr_threshold_from(q1, q3):
    return q3 + 1.5 * (q3 - q1)


def iqr_threshold(values):
    q1, q3 = quartiles(values)
    return iqr_threshold_from(q1, q3)


def auc_roc(scores, labels):
    """Probability a random positive outscores a random negative; ties count 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(
            f"AUC-ROC needs both classes, got {n_pos} positive / {n_neg} negative"
        )
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    first = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])  # of each tie group
    last = np.r_[first[1:], len(scores)] - 1
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)  # average rank, 1-based
    rank_sum = ranks[labels == 1].sum()
    u_stat = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


@dataclass
class ScoreReport:
    window_starts: np.ndarray
    labels: np.ndarray
    d_ga: np.ndarray
    nll: np.ndarray
    scores: np.ndarray
    adjacency: np.ndarray  # (B, N, N), the graph each window was scored with
    threshold: float
    predicted: np.ndarray
    auc: float | None
    counts: dict = field(default_factory=dict)


def _score_windows(model, windows):
    """Per-window alignment distance ``d_ga``, mean NLL ``nll``, ``score`` and ``adjacency``.

    Windows enter alignment batches by seeded permutations, matching how
    instances are sampled during training: a batch's reference graph then
    aggregates windows from across the split instead of a contiguous run, so
    a long anomalous stretch cannot dominate its own reference. The
    alignment terms are averaged over ``SCORE_PASSES`` independent batch
    compositions to damp the sampling noise of the reference. Each
    alignment batch runs the model's forward without dropout or tape; a
    window's adjacency and NLL then do not depend on its batchmates, so
    every pass writes the same values, and the adjacency is the graph the
    window was scored with. A non-finite score raises FloatingPointError.
    """
    cfg = model.config
    batch_size = cfg.batch_size
    n_total = len(windows)
    terms = ABLATIONS[cfg.ablation]
    if terms and n_total < 2:
        raise DataFormatError(
            f"scoring split yields {n_total} window; the alignment terms compare each window "
            "with the others in its batch, so at least 2 are needed"
        )
    adjacency, nll = np.empty((n_total,) + windows.shape[2:] * 2), np.empty(n_total)
    wd, gwd = np.zeros(n_total), np.zeros(n_total)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))
    with ad.no_grad():
        for _ in range(SCORE_PASSES if terms else 1):
            order = rng.permutation(n_total)
            for lo in range(0, n_total, batch_size):
                # a lone trailing window borrows a batchmate for the reference
                borrow = 1 if n_total - lo == 1 and lo > 0 else 0
                take = order[lo - borrow : lo + batch_size]
                out = take[borrow:]
                adj, emb, rows = _forward(model, windows[take])
                ll = log_prob(*rows, model.flow).data.reshape(len(take), -1)
                adjacency[out], nll[out] = adj.data[borrow:], -ll.mean(axis=1)[borrow:]
                if terms:
                    align = batch_alignment(emb, adj, lam=cfg.lam, beta=cfg.beta, terms=terms)
                    wd[out] += align.wd[borrow:] / SCORE_PASSES
                    gwd[out] += align.gwd[borrow:] / SCORE_PASSES
    d_ga = wd + gwd
    scores = d_ga + nll
    bad = int((~np.isfinite(scores)).sum())
    if bad:
        raise FloatingPointError(f"{bad} of {n_total} windows scored non-finite")
    return {"d_ga": d_ga, "nll": nll, "score": scores, "adjacency": adjacency}


def score(ds, checkpoint):
    """Score a dataset with a trained checkpoint; higher scores = more anomalous.

    The dataset may be raw (it is then normalized with the checkpoint's
    statistics) or already normalized with those same statistics.
    """
    cfg = TrainConfig.from_dict(checkpoint["config"])
    names = checkpoint["channel_names"]
    if list(ds.channel_names) != list(names):
        raise ConfigError(
            f"channel mismatch: checkpoint has {names}, dataset has {list(ds.channel_names)}"
        )
    mean = _decode_array(checkpoint["normalization"].get("mean"), "normalization.mean")
    std = _decode_array(checkpoint["normalization"].get("std"), "normalization.std")
    if ds.norm_mean is None:
        ds = normalize_with(ds, mean, std)
    elif not (np.allclose(ds.norm_mean, mean) and np.allclose(ds.norm_std, std)):
        raise ConfigError("dataset was normalized with different statistics than the checkpoint")

    if ds.length < cfg.window:
        raise DataFormatError(f"series length {ds.length} is shorter than the checkpoint's window {cfg.window}")
    model = model_from_checkpoint(checkpoint)
    windows, starts, labels = window_table(ds, cfg.window, cfg.stride)
    parts = _score_windows(model, windows)
    threshold = float(checkpoint["quartiles"]["threshold"])
    scores = parts["score"]
    predicted = (scores > threshold).astype(np.int64)
    auc = None
    if labels.min() == 0 and labels.max() == 1:
        auc = auc_roc(scores, labels)
    counts = {
        "tp": int(((predicted == 1) & (labels == 1)).sum()),
        "fp": int(((predicted == 1) & (labels == 0)).sum()),
        "tn": int(((predicted == 0) & (labels == 0)).sum()),
        "fn": int(((predicted == 0) & (labels == 1)).sum()),
    }
    return ScoreReport(
        window_starts=starts,
        labels=labels,
        d_ga=parts["d_ga"],
        nll=parts["nll"],
        scores=scores,
        adjacency=parts["adjacency"],
        threshold=threshold,
        predicted=predicted,
        auc=auc,
        counts=counts,
    )


# ---------------------------------------------------------------------------
# checkpoint serialization (versioned JSON with base64 float64 blobs)


def _encode_array(arr):
    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    return {
        "shape": list(arr.shape),
        "dtype": "<f8",
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


def _decode_array(blob, name):
    """The array of a checkpoint blob; CheckpointError names the field ``name`` if it is malformed."""
    shape = blob.get("shape") if isinstance(blob, dict) else None
    if not (isinstance(shape, list) and isinstance(blob.get("data"), str) and blob.get("dtype") == "<f8"
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)):
        raise CheckpointError(
            f"checkpoint field {name}: expected a 'shape' list of sizes, dtype '<f8' and a 'data' string"
        )
    try:
        raw = base64.b64decode(blob["data"], validate=True)
    except binascii.Error as exc:
        raise CheckpointError(f"checkpoint field {name}: data is not base64 ({exc})") from None
    if len(raw) != 8 * math.prod(shape):
        raise CheckpointError(
            f"checkpoint field {name}: data holds {len(raw)} bytes, shape {shape} needs {8 * math.prod(shape)}"
        )
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def save_checkpoint(checkpoint, path):
    body = json.dumps(checkpoint, sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body + "\n")


# settings older checkpoints record that are gone from TrainConfig, each with
# the value every run since behaves as: a checkpoint loads when it holds that
# value and is refused otherwise
_RETIRED_FIELDS = {
    "attention_key_index": "j",  # logit i, j pairs query i with key j; "i" made every row uniform
    "omega_mode": "mean",  # reference graph: mean of the other windows, not their disjoint union
    "embedding_reduce": "concat",  # embeddings concatenate the step outputs, not their mean
    "flow_init_scale": 0.0,  # the flow starts as the identity map
    "flow_cond_init_scale": 0.0,
    "score_lambda_scaled": False,  # the alignment term enters the score unscaled by lam
    "grad_clip": 0.0,  # gradients reach Adam unclipped
    "score_passes": 3,  # scoring averages the alignment terms over SCORE_PASSES batch compositions
    "flow_layers": 2,  # the flow stacks init_flow's default of two layers
}


def load_checkpoint(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except IsADirectoryError:
        raise CheckpointError(f"{path}: is a directory, not a checkpoint file") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: not a valid checkpoint file ({exc})") from None
    if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if not _is_number(data.get("version")) or data["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {data.get('version')!r}, expected {CHECKPOINT_VERSION}"
        )
    required = {"config", "channel_names", "normalization", "parameters", "quartiles"}
    missing = required - set(data)
    if missing:
        raise CheckpointError(f"{path}: checkpoint missing sections {sorted(missing)}")
    if not isinstance(data["config"], dict):
        raise CheckpointError(f"{path}: checkpoint config is not a JSON object")
    for name, kept in _RETIRED_FIELDS.items():
        if name in data["config"]:
            value = data["config"].pop(name)
            # typed as TrainConfig typed its fields: JSON false is not 0.0 but an integer 0 is,
            # and neither 0 nor null is false
            same_type = _is_number(value) if isinstance(kept, float) else type(value) is type(kept)
            if not (same_type and value == kept):
                raise CheckpointError(
                    f"{path}: config field {name} = {value!r} is no longer supported (only {kept!r})"
                )
    try:
        TrainConfig.from_dict(data["config"])
    except ConfigError as exc:
        raise CheckpointError(f"{path}: checkpoint config: {exc}") from None
    names = data["channel_names"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise CheckpointError(f"{path}: channel_names must be a list of strings")
    for section in ("normalization", "parameters", "quartiles"):
        if not isinstance(data[section], dict):
            raise CheckpointError(f"{path}: checkpoint {section} is not a JSON object")
    for key in ("mean", "std"):
        stat = _decode_array(data["normalization"].get(key), f"normalization.{key}")
        if stat.shape != (len(names),) or not np.all(np.isfinite(stat)) or (key == "std" and np.any(stat <= 0.0)):
            raise CheckpointError(f"{path}: checkpoint field normalization.{key} must hold {len(names)} finite "
                                  f"numbers, one per channel{', each > 0' if key == 'std' else ''}")
    for key in ("q1", "q3", "threshold"):
        value = data["quartiles"].get(key)
        if not (_is_number(value) and math.isfinite(value)):
            raise CheckpointError(f"{path}: checkpoint field quartiles.{key} must be a finite number, got {value!r}")
    return data


def model_from_checkpoint(checkpoint):
    model = build_model(TrainConfig.from_dict(checkpoint["config"]))
    params = model.named_parameters()
    stored = checkpoint["parameters"]
    if set(stored) != set(params):
        raise CheckpointError(
            f"parameter names disagree: missing {sorted(set(params) - set(stored))}, "
            f"unexpected {sorted(set(stored) - set(params))}"
        )
    for name, tensor in params.items():
        arr = _decode_array(stored[name], f"parameters.{name}")
        if arr.shape != tensor.data.shape:
            raise CheckpointError(f"parameter {name} has shape {arr.shape}, expected {tensor.data.shape}")
        tensor.data = arr
    return model
