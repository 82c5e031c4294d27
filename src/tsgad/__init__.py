"""Multivariate time-series anomaly detection via optimal-transport graph
alignment and conditional normalizing flows.

Windowed series become dynamic interdependency graphs (self-attention
adjacency over channels); each window is scored by a fused
Wasserstein/Gromov-Wasserstein alignment distance against its batch
reference plus a conditional flow negative log-likelihood.
"""

__version__ = "0.1.0"

from .align import (
    BatchAlignment,
    TransportPlan,
    alignment_equivalence_check,
    batch_alignment,
    cost_matrix,
    entropic_gwd,
    exact_gwd_uniform,
    exact_wd_uniform,
    gwd_cost,
    gwd_cost_naive,
    sinkhorn_wd,
    uniform_weights,
)
from .autodiff import Tensor, backward, no_grad
from .dataio import (
    AnomalyInterval,
    SeriesDataset,
    read_series,
    split_normalize,
    synth_generate,
    write_series,
)
from .encoder import EncoderParams, encode_batch, init_encoder
from .errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    DivergenceError,
    MetricUndefinedError,
)
from .flow import FlowModel, batch_log_likelihood, forward, init_flow, inverse, log_prob
from .graph import (
    AttentionParams,
    adjacency_export,
    attention_adjacency,
    init_attention,
)
from .train import (
    Adam,
    DetectionModel,
    ScoreReport,
    TrainConfig,
    TrainResult,
    auc_roc,
    build_model,
    iqr_threshold,
    load_checkpoint,
    model_from_checkpoint,
    quartiles,
    save_checkpoint,
    score,
    train,
)
