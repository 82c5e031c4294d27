"""Finite-difference gradient checking against the tape's analytic gradients."""

from __future__ import annotations

import numpy as np

from . import autodiff
from .autodiff import Tensor


def numeric_gradient(func, param):
    """Central finite differences of a scalar-valued ``func`` w.r.t. ``param``.

    ``func`` takes no arguments and must re-read ``param.data`` on every call.
    """
    eps = 1e-5  # central-difference step
    base = param.data.copy()
    grad = np.zeros_like(base)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(func())
        flat[i] = orig - eps
        lo = float(func())
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    param.data = base
    return grad


def relative_error(analytic, numeric):
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-10)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def gradient_check(build_loss, params):
    """Compare tape gradients of ``build_loss()`` with central differences.

    ``build_loss`` reconstructs the scalar loss Tensor from the current
    parameter values. Returns the worst relative error over ``params``.
    """
    loss = build_loss()
    for p in params:
        p.grad = None
    autodiff.backward(loss)
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numeric_gradient(lambda: build_loss().item(), p)
        worst = max(worst, relative_error(analytic, numeric))
    for p in params:
        p.grad = None
    return worst


def random_tensor(rng, shape, scale=1.0, requires_grad=True):
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=requires_grad)
