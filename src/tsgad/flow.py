"""Conditional masked affine autoregressive flow with exact log-likelihood.

Each layer produces a per-coordinate scale and shift from the strictly
preceding coordinates (through masked weight matrices) plus the condition
vector (unmasked, it is exogenous to the autoregression), then maps
``z = exp(s) * x + m``. The Jacobian is triangular, so ``log|det|`` is just
the sum of the scale outputs. Coordinate order is reversed between layers.
The base distribution is a standard Gaussian, giving exact densities by the
change of variables.

Scale outputs are bounded to [-5, 5] through tanh before exponentiation so
an untrained or badly-scaled layer cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

SCALE_BOUND = 5.0
LOG_TWO_PI = float(np.log(2.0 * np.pi))


def strict_mask(dim):
    """mask[j, k] = 1 iff input j may feed output k (j strictly before k)."""
    return np.triu(np.ones((dim, dim)), k=1)


@dataclass
class FlowLayer:
    w_scale: Tensor  # (T, T), used under the strict mask
    w_shift: Tensor  # (T, T), used under the strict mask
    v_scale: Tensor  # (d, T) condition-to-scale
    v_shift: Tensor  # (d, T) condition-to-shift
    b_scale: Tensor  # (1, T)
    b_shift: Tensor  # (1, T)
    mask: np.ndarray = field(repr=False, default=None)

    def scale_shift(self, x, cond):
        masked_ws = self.w_scale * Tensor(self.mask)
        masked_wm = self.w_shift * Tensor(self.mask)
        raw_s = ad.matmul(x, masked_ws) + ad.matmul(cond, self.v_scale) + self.b_scale
        s = ad.tanh(raw_s * (1.0 / SCALE_BOUND)) * SCALE_BOUND
        m = ad.matmul(x, masked_wm) + ad.matmul(cond, self.v_shift) + self.b_shift
        return s, m


@dataclass
class FlowModel:
    layers: list
    input_dim: int
    cond_dim: int

    def tensors(self):
        return {f"flow.{k}.{f.name}": getattr(layer, f.name)
                for k, layer in enumerate(self.layers) for f in fields(layer) if f.name != "mask"}


def init_flow(input_dim, cond_dim, n_layers=2, rng=None, scale=0.0):
    """Build a flow; ``scale=0`` initializes every layer to the identity map."""
    if n_layers < 1:
        raise ValueError("flow needs at least one layer")
    mask = strict_mask(input_dim)
    layers = []
    for _ in range(n_layers):
        def draw(shape):
            if scale == 0.0 or rng is None:
                return np.zeros(shape)
            return rng.normal(0.0, scale, size=shape)

        layers.append(
            FlowLayer(
                w_scale=Tensor(draw((input_dim, input_dim)), requires_grad=True),
                w_shift=Tensor(draw((input_dim, input_dim)), requires_grad=True),
                v_scale=Tensor(draw((cond_dim, input_dim)), requires_grad=True),
                v_shift=Tensor(draw((cond_dim, input_dim)), requires_grad=True),
                b_scale=Tensor(draw((1, input_dim)), requires_grad=True),
                b_shift=Tensor(draw((1, input_dim)), requires_grad=True),
                mask=mask,
            )
        )
    return FlowModel(layers=layers, input_dim=input_dim, cond_dim=cond_dim)


def _promote(x, cond, model):
    x = ad.as_tensor(x)
    cond = ad.as_tensor(cond)
    single = x.ndim == 1
    if single:
        x = ad.reshape(x, (1, x.shape[0]))
    if cond.ndim == 1:
        cond = ad.reshape(cond, (1, cond.shape[0]))
    if x.shape[1] != model.input_dim:
        raise ValueError(f"input dim {x.shape[1]} != flow dim {model.input_dim}")
    if cond.shape[1] != model.cond_dim:
        raise ValueError(f"condition dim {cond.shape[1]} != flow cond dim {model.cond_dim}")
    if cond.shape[0] != x.shape[0]:
        raise ValueError("one condition row per input row required")
    return x, cond, single


def forward(x, cond, model):
    """Map data to the base space: returns (z, log_det) with per-row log_det."""
    x, cond, single = _promote(x, cond, model)
    z = x
    log_det = Tensor(np.zeros(x.shape[0]))
    for k, layer in enumerate(model.layers):
        if k > 0:
            z = ad.flip_last(z)  # new coordinate order for this layer
        s, m = layer.scale_shift(z, cond)
        z = ad.exp(s) * z + m
        log_det = log_det + ad.sum_(s, axis=1)
    if single:
        return ad.reshape(z, (z.shape[1],)), log_det[0]
    return z, log_det


def inverse(z, cond, model):
    """Recover x from z coordinate by coordinate (no tape)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    cond = np.atleast_2d(np.asarray(cond, dtype=np.float64))
    x = z.copy()
    with ad.no_grad():
        for k in reversed(range(len(model.layers))):
            layer = model.layers[k]
            out = np.zeros_like(x)
            for col in range(model.input_dim):
                s, m = layer.scale_shift(out, cond)
                out[:, col] = (x[:, col] - m.data[:, col]) * np.exp(-s.data[:, col])
            x = out[..., ::-1] if k > 0 else out  # undo this layer's coordinate order
    return x


def log_prob(x, cond, model):
    """Exact log-density under the flow; differentiable w.r.t. x, cond, params."""
    x, cond, single = _promote(x, cond, model)
    z, log_det = forward(x, cond, model)
    gauss = ad.sum_(z * z, axis=1) * -0.5 - 0.5 * model.input_dim * LOG_TWO_PI
    out = gauss + log_det
    return out[0] if single else out


def batch_log_likelihood(x_rows, cond_rows, model):
    """Mean per-row log-density: the likelihood term of the training loss."""
    return ad.mean_(log_prob(x_rows, cond_rows, model))


def gaussian_log_density(x):
    """Closed-form standard-normal log-density of a vector (oracle for identity init)."""
    x = np.asarray(x, dtype=np.float64)
    return float(-0.5 * (x * x).sum() - 0.5 * x.size * LOG_TWO_PI)
