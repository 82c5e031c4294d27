"""Multivariate time-series anomaly detection via optimal-transport graph
alignment and conditional normalizing flows.

Windowed series become dynamic interdependency graphs (self-attention
adjacency over channels); each window is scored by a fused
Wasserstein/Gromov-Wasserstein alignment distance against its batch
reference plus a conditional flow negative log-likelihood.
"""

__version__ = "0.1.0"
