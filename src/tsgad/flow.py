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

``log_prob`` and ``forward`` run one numpy forward, and ``inverse`` its
per-layer scale and shift, ``FlowLayer.scale_shift`` (Papamakarios et al. 2017
for masked autoregressive flows). With the tape on, ``log_prob`` is one tape
node over the inputs, the conditions and the flow's parameters. Its tape is
each layer's input, tanh(raw_s / 5) and exp(s), and the last layer's output:
three (rows, T) arrays a layer, the caller's inputs counted. Its backward adds
every gradient in the order a tape of one node per op adds it, so the
gradients are bit-identical to that composition's: a layer's input takes
exp(s) * dz, then the shift's and the scale's matmul terms (the scale's first
below the last layer), and the conditions take the last layer's shift term,
the scale terms from layer L - 2 down to 0, the shift terms from 0 up to L - 2
and the last layer's scale term, added a chunk of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

SCALE_BOUND = 5.0
LOG_TWO_PI = float(np.log(2.0 * np.pi))
_CHUNK_ROWS = 1024  # the conditions' gradient is added in chunks of this many rows or more


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

    def masked(self):
        """The autoregressive weights under the strict mask: (scale, shift)."""
        return self.w_scale.data * self.mask, self.w_shift.data * self.mask

    def scale_shift(self, u, cond):
        """tanh(raw_s / SCALE_BOUND) and the shift m at the layer input ``u``, as (rows, T) arrays."""
        w_scale, w_shift = self.masked()
        th = np.matmul(u, w_scale)
        th += np.matmul(cond, self.v_scale.data)
        th += self.b_scale.data
        th *= 1.0 / SCALE_BOUND
        np.tanh(th, out=th)
        m = np.matmul(u, w_shift)
        m += np.matmul(cond, self.v_shift.data)
        m += self.b_shift.data
        return th, m


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


def _run(x, cond, model, keep):
    """The flow's numpy forward: z, log_det and, if ``keep``, each layer's (input, tanh(raw_s / 5), exp(s))."""
    z, log_det, kept = x, np.zeros(x.shape[0]), []
    for k, layer in enumerate(model.layers):
        u = z[:, ::-1].copy() if k > 0 else z  # new coordinate order for this layer
        th, m = layer.scale_shift(u, cond)
        e = th * SCALE_BOUND
        log_det += e.sum(axis=1)
        np.exp(e, out=e)
        z = e * u
        z += m
        if keep:
            kept.append((u, th, e))
    return z, log_det, kept


def forward(x, cond, model):
    """Map data to the base space: returns (z, log_det) with per-row log_det (no tape)."""
    x, cond, single = _promote(x, cond, model)
    z, log_det, _ = _run(x.data, cond.data, model, keep=False)
    if single:
        return Tensor(z[0]), Tensor(log_det[0])
    return Tensor(z), Tensor(log_det)


def inverse(z, cond, model):
    """Recover x from z coordinate by coordinate (no tape)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    cond = np.atleast_2d(np.asarray(cond, dtype=np.float64))
    x = z.copy()
    for k in reversed(range(len(model.layers))):
        out = np.zeros_like(x)
        for col in range(model.input_dim):
            th, m = model.layers[k].scale_shift(out, cond)
            out[:, col] = (x[:, col] - m[:, col]) * np.exp(-(th[:, col] * SCALE_BOUND))
        x = out[..., ::-1] if k > 0 else out  # undo this layer's coordinate order
    return x


def log_prob(x, cond, model):
    """Exact log-density under the flow; differentiable w.r.t. x, cond, params.

    With the tape on, the per-row densities are one node over x, cond and the
    flow's parameters (see the module docstring for the order of its sums).
    """
    x, cond, single = _promote(x, cond, model)
    params = tuple(model.tensors().values())
    taping = ad._tracking(x, cond, *params)
    z, log_det, kept = _run(x.data, cond.data, model, keep=taping)
    out = (z * z).sum(axis=1) * -0.5 - 0.5 * model.input_dim * LOG_TWO_PI
    out += log_det
    last = len(model.layers) - 1

    def backward(grad):
        dz = z * (grad * -0.5)[:, None]
        dz += dz  # z * z hands z its gradient twice
        scale_terms, shift_terms = [], []  # (f, v) per layer, the last first: d cond takes f @ v^T
        for k in reversed(range(len(kept))):
            layer, (u, th, e) = model.layers[k], kept.pop()
            # d raw_s: dz reaches s through exp(s) and through log_det, then the bound and the tanh
            d_raw = dz * u
            d_raw *= e
            d_raw += grad[:, None]
            d_raw *= SCALE_BOUND
            d_raw *= np.subtract(1.0, np.multiply(th, th, out=th), out=th)
            d_raw *= 1.0 / SCALE_BOUND
            scale_terms.append((d_raw, layer.v_scale.data))
            shift_terms.append((dz, layer.v_shift.data))
            for w, v, b, d in ((layer.w_scale, layer.v_scale, layer.b_scale, d_raw),
                               (layer.w_shift, layer.v_shift, layer.b_shift, dz)):
                by_sum, by_cond, by_u = d.sum(axis=0, keepdims=True), cond.data.T @ d, u.T @ d
                for param, g in ((b, by_sum), (v, by_cond), (w, by_u * layer.mask)):
                    if param.requires_grad:
                        param._accumulate(g)
            if k == 0 and not x.requires_grad:
                break
            w_scale, w_shift = layer.masked()
            by_scale, by_shift = np.matmul(d_raw, w_scale.T), np.matmul(dz, w_shift.T)
            terms = (dz * e, by_shift, by_scale) if k == last else (dz * e, by_scale, by_shift)
            if k == 0:
                for term in terms:
                    x._accumulate(term)
            else:
                dz = sum(terms)[:, ::-1].copy()  # back to the previous layer's coordinate order
        if cond.requires_grad:
            _add_products(cond, [shift_terms[0], *scale_terms[1:], *shift_terms[:0:-1], scale_terms[0]])

    node = Tensor._make(out, (x, cond) + params, backward) if taping else Tensor._make(out, (), None)
    return node[0] if single else node


def _add_products(tensor, terms):
    """Add ``f @ v^T`` for each (f, v) of ``terms`` into ``tensor``'s gradient in turn, a chunk of
    rows at a time, so that no product is ever whole. Each element sums the same terms in the same
    order; chunks of ``_CHUNK_ROWS`` rows or more gave the whole product's bits wherever checked
    (a few rows at a time may not: OpenBLAS runs other kernels on small products)."""
    rows = tensor.shape[0]
    if tensor.grad is None:
        tensor.grad = np.zeros(tensor.shape)
    n_chunks = max(1, rows // _CHUNK_ROWS)
    edges = [rows * i // n_chunks for i in range(n_chunks + 1)]
    scratch = np.empty((-(-rows // n_chunks), tensor.shape[1]))
    for lo, hi in zip(edges[:-1], edges[1:]):
        for f, v in terms:
            tensor.grad[lo:hi] += np.matmul(f[lo:hi], v.T, out=scratch[: hi - lo])


def batch_log_likelihood(x_rows, cond_rows, model):
    """Mean per-row log-density: the likelihood term of the training loss."""
    return ad.mean_(log_prob(x_rows, cond_rows, model))


def gaussian_log_density(x):
    """Closed-form standard-normal log-density of a vector (oracle for identity init)."""
    x = np.asarray(x, dtype=np.float64)
    return float(-0.5 * (x * x).sum() - 0.5 * x.size * LOG_TWO_PI)
