"""Self-contained verification suites: solvers against enumeration, gradients
against finite differences.

Each suite returns a dict with ``name``, ``passed``, ``checks``, ``failures``
and ``max_deviation`` so callers (CLI, tests) can print uniform reports. The
suites are deliberately independent of the solver internals they check:
expected values come from permutation enumeration or numeric differentiation.
"""

from __future__ import annotations

import time

import numpy as np

from . import autodiff as ad
from .align import (
    alignment_equivalence_check,
    batch_alignment,
    entropic_gwd,
    exact_gwd_uniform,
    exact_wd_uniform,
    gwd_cost,
    gwd_cost_naive,
    sinkhorn_wd,
    uniform_weights,
)
from .autodiff import Tensor
from .checks import gradient_check, numeric_gradient, relative_error
from .encoder import encode_batch, init_encoder
from .flow import init_flow, log_prob
from .graph import attention_adjacency, init_attention


def _report(name, checks, failures, worst, t0):
    """A suite's result: the dict every suite returns, timed from ``t0``."""
    return {"name": name, "checks": checks, "failures": failures, "passed": not failures,
            "max_deviation": worst, "seconds": time.time() - t0}


def equivalence_suite(seeds=100, sizes=(3, 4)):
    """Frobenius-argmin vs inner-product-argmax over full permutation enumeration."""
    t0 = time.time()
    failures = []
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        n = sizes[seed % len(sizes)]
        ok = alignment_equivalence_check(
            rng.random((n, n)), rng.random((n, 3)), rng.random((n, n)), rng.random((n, 3))
        )
        if not ok:
            failures.append(f"seed {seed} (n={n})")
    return _report("alignment-equivalence", seeds, failures, 0.0, t0)


def sinkhorn_suite(seeds=50, beta=0.005, rel_tol=0.02):
    """Entropic transport objective against the enumerated LP optimum."""
    t0 = time.time()
    failures = []
    worst = 0.0
    u = uniform_weights(4)
    for seed in range(seeds):
        cost = np.random.default_rng(1000 + seed).random((4, 4))
        res = sinkhorn_wd(cost, u, u, beta, max_iter=3000, tol=1e-9)
        lp = exact_wd_uniform(cost)
        rel = abs(res.objective - lp) / lp
        worst = max(worst, rel)
        if rel > rel_tol or res.marginal_error > 1e-6:
            failures.append(f"seed {seed}: rel {rel:.4f}, marginal {res.marginal_error:.2e}")
    return _report("sinkhorn-vs-enumeration", seeds, failures, worst, t0)


def gwd_suite(seeds=20, beta=0.01, obj_tol=1e-3):
    """Edge alignment finds graph isomorphisms and separates unlike graphs."""
    t0 = time.time()
    failures = []
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(3, 6))
        a = rng.random((n, n))
        sigma = rng.permutation(n)
        b = a[np.ix_(sigma, sigma)]
        u = uniform_weights(n)
        res = entropic_gwd(a, b, u, u, beta, outer_iter=100, tol=1e-10,
                           sink_iter=3000, sink_tol=1e-9)
        worst = max(worst, res.objective)
        if res.objective > obj_tol:
            failures.append(f"seed {seed}: isomorphic objective {res.objective:.2e}")
    # factorized pseudo-cost against the quadruple loop
    for seed in range(5):
        rng = np.random.default_rng(3000 + seed)
        a = rng.random((3, 3))
        b = rng.random((4, 4))
        plan = rng.random((3, 4))
        plan /= plan.sum()
        of, pf = gwd_cost(a, b, plan)
        on, pn = gwd_cost_naive(a, b, plan)
        dev = max(abs(of - on), float(np.abs(pf - pn).max()))
        worst = max(worst, dev)
        if dev > 1e-10:
            failures.append(f"factorized-vs-naive seed {seed}: {dev:.2e}")
    # structurally different graphs must stay separated
    path = np.zeros((4, 4))
    for i, j in ((0, 1), (1, 2), (2, 3)):
        path[i, j] = path[j, i] = 1.0
    star = np.zeros((4, 4))
    for i, j in ((0, 1), (0, 2), (0, 3)):
        star[i, j] = star[j, i] = 1.0
    u4 = uniform_weights(4)
    gap = entropic_gwd(path, star, u4, u4, beta, outer_iter=100, tol=1e-10,
                       sink_iter=3000, sink_tol=1e-9).objective
    enum_gap = exact_gwd_uniform(path, star)
    if gap < 0.05:
        failures.append(f"path-vs-star objective {gap:.4f} below 0.05 (enumeration {enum_gap:.4f})")
    return _report("gwd-isomorphism", seeds + 6, failures, worst, t0)


def gradient_suite():
    """Finite-difference checks for every differentiable surface.

    The alignment check differentiates ``batch_alignment``'s loss node, the one
    training backpropagates, against central differences of the re-solved loss.
    """
    t0 = time.time()
    failures = []
    worst = 0.0

    def record(name, err, tol):
        nonlocal worst
        worst = max(worst, err)
        if err > tol:
            failures.append(f"{name}: rel err {err:.2e} > {tol}")

    rng = np.random.default_rng(0)
    att = init_attention(6, rng)
    window = rng.normal(size=(6, 3))
    record(
        "attention",
        gradient_check(lambda: ad.sum_(attention_adjacency(window.T, att) ** 2),
                       [att.w_query, att.w_key]),
        1e-4,
    )

    enc = init_encoder(3, 2, rng)
    windows = rng.normal(size=(2, 4, 3))
    adjacency = Tensor(np.full((2, 3, 3), 1.0 / 3.0))
    record(
        "encoder",
        gradient_check(lambda: ad.sum_(encode_batch(windows, adjacency, enc)),
                       list(enc.tensors().values())),
        1e-4,
    )

    model = init_flow(3, 2, n_layers=2, rng=rng, scale=0.3)
    x = rng.normal(size=(4, 3))
    c = rng.normal(size=(4, 2))
    record(
        "flow",
        gradient_check(lambda: ad.mean_(log_prob(x, c, model)),
                       list(model.tensors().values())),
        1e-4,
    )

    # envelope gradient of the batch alignment loss against the re-solved objective, on
    # planted near-isomorphic instances where the optimal plans are locked. At B = 2,
    # window 0 is the source of one problem and the reference of the other, so its
    # gradient checks both halves of the leave-one-out chain rule.
    solver = dict(lam=0.1, beta=0.01, sink_iter=1000, sink_tol=1e-10, gw_outer=40, gw_tol=1e-11)
    for seed in range(3):
        r = np.random.default_rng(100 + seed)
        n, d = 3, 2
        sigma = r.permutation(n)
        xs_np = r.random((n, d))
        xt_np = xs_np[sigma] + r.normal(0.0, 0.02, (n, d))
        as_np = r.random((n, n))
        at_np = as_np[np.ix_(sigma, sigma)] + r.normal(0.0, 0.02, (n, n))
        emb = Tensor(np.stack([xs_np, xt_np]), requires_grad=True)
        adj = Tensor(np.stack([as_np, at_np]), requires_grad=True)
        ad.backward(batch_alignment(emb, adj, **solver).loss_term)
        xs = Tensor(emb.data[0])
        a_s = Tensor(adj.data[0])

        def resolved():
            return batch_alignment(np.stack([xs.data, xt_np]), np.stack([a_s.data, at_np]),
                                   **solver).ga.mean()

        err = max(
            relative_error(emb.grad[0], numeric_gradient(resolved, xs)),
            relative_error(adj.grad[0], numeric_gradient(resolved, a_s)),
        )
        record(f"envelope-ga-seed{seed}", err, 1e-2)

    return _report("gradient-integrity", 6, failures, worst, t0)


def run_all(seeds=100):
    return [
        equivalence_suite(seeds=seeds),
        sinkhorn_suite(seeds=max(10, seeds // 2)),
        gwd_suite(seeds=max(5, seeds // 5)),
        gradient_suite(),
    ]
