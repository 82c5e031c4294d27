"""Optimal-transport graph alignment: entropic node and edge alignment.

Node alignment is an entropic Wasserstein problem over Euclidean distances
between node embeddings, solved by log-domain Sinkhorn scaling. Edge
alignment is an entropic Gromov-Wasserstein problem over absolute adjacency
differences, solved by projected gradient (linearize, then Sinkhorn). The
fused distance is ``lam * (wd + gwd)`` with independent plans.

Each solver has one implementation, over a stack of K same-shape problems
(one numpy call per update for the whole stack): ``_sinkhorn`` and
``_entropic_gwd``. The stack stops in one of two modes. In lockstep it
shares one stopping rule: it stops when every problem meets its own. In
active-set mode a problem that meets its rule stays in the stack frozen:
it keeps its potentials or plan and records its iteration while the rest
iterate, and the stack stops when every problem has met its rule (or at
the cap). The arithmetic is slice-independent, so each problem comes out
bit-identical to its solve as a stack of one.
``sinkhorn_wd`` and ``entropic_gwd`` validate their inputs and call the
core with K = 1; ``gwd_cost`` evaluates the factorized GW pseudo-cost of
one fixed plan. ``batch_alignment`` solves its windows as one
lockstep stack while the stacked problem is small (B N^4 <= 2e6). Otherwise
it cuts the windows into active-set stacks of the most windows whose GW
pseudo-cost tables hold ``_DENSE_QUARTET_LIMIT`` entries, and solves the
stacks on the calling thread and one more per other CPU the process may
use; the results do not depend on the number of threads.
The GW pseudo-cost's plan-independent parts are built once per solve and
reused by every outer step, on the route ``_dense`` picks: each problem's
difference tensor as an (n m, n m) matrix, one batched ``matmul`` a step, or
the sort and search tables of the factorized prefix-sum kernel, which then
handles the whole stack and all target rows of a chunk in a few numpy calls.

Brute-force enumeration oracles (permutation couplings) live alongside the
solvers so every solver result can be cross-checked on small instances, and
``alignment_equivalence_check`` verifies by full enumeration that minimizing
the Frobenius alignment error is the same as maximizing the matched inner
product.

Gradients follow the envelope convention: a converged plan is treated as a
constant, so the fused distance differentiates through the cost terms only.
``batch_alignment``'s loss is one tape node over the batch.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .autodiff import Tensor, as_tensor, node


@dataclass
class TransportPlan:
    """A coupling with prescribed marginals and its achieved (unregularized) cost."""

    plan: np.ndarray
    objective: float
    iterations: int
    converged: bool
    marginal_error: float


def _check_problem(u, v, n, m, beta):
    """The marginals as float64 arrays, once they and ``beta`` are valid (comparisons fail on NaN)."""
    if not (np.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != (n,) or v.shape != (m,):
        raise ValueError(f"marginal shapes {u.shape}/{v.shape} do not match cost {n}x{m}")
    for name, w in (("source", u), ("target", v)):
        if not np.all((w > 0.0) & np.isfinite(w)):
            raise ValueError(f"{name} marginal must be finite and strictly positive")
        if not abs(w.sum() - 1.0) <= 1e-8:
            raise ValueError(f"{name} marginal must sum to 1, got {w.sum()!r}")
    return u, v


def _square(adjacency, name):
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} adjacency must be square")
    return a


def uniform_weights(n):
    return np.full(n, 1.0 / n)


def cost_matrix(source_points, target_points):
    """Pairwise Euclidean distances between two embedding sets (n x d, m x d)."""
    xs = np.asarray(source_points, dtype=np.float64)
    xt = np.asarray(target_points, dtype=np.float64)
    if xs.ndim != 2 or xt.ndim != 2 or xs.shape[1] != xt.shape[1]:
        raise ValueError(f"embedding dimensions differ: {xs.shape} vs {xt.shape}")
    diff = xs[:, None, :] - xt[None, :, :]
    dist = np.multiply(diff, diff, out=diff).sum(axis=-1)
    return np.sqrt(dist, out=dist)


# ---------------------------------------------------------------------------
# the stacked core: K same-shape problems, stopped together or one by one


@dataclass
class _Stack:
    """Solutions of K same-shape transport problems, each with its own stopping record."""

    plans: np.ndarray  # (K, n, m)
    objectives: np.ndarray  # (K,) unregularized costs
    errors: np.ndarray  # (K,) L1 marginal violations of the returned plans
    iterations: np.ndarray  # (K,) iterations each problem ran
    converged: np.ndarray  # (K,) each problem met its stopping rule
    duals: tuple = None  # scaled potentials, (K, n) and (K, m): the GW loop's warm start

    def plan(self, k):
        """Problem ``k`` of the stack as a TransportPlan."""
        return TransportPlan(
            plan=self.plans[k],
            objective=float(self.objectives[k]),
            iterations=int(self.iterations[k]),
            converged=bool(self.converged[k]),
            marginal_error=float(self.errors[k]),
        )


def _logsumexp(x, axis):
    m = x.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.exp(x - m).sum(axis=axis))


def _marginal_errors(plans, u, v):
    return np.abs(plans.sum(axis=2) - u).sum(axis=1) + np.abs(plans.sum(axis=1) - v).sum(axis=1)


def _round_to_marginals(plans, u, v):
    """Project near-feasible plans (K, n, m) onto the transport polytope.

    Clamped row/column rescaling followed by a rank-one correction; each
    result has exact marginals, stays nonnegative, and moves total mass by
    at most its input's marginal violation.
    """
    r = plans.sum(axis=2)
    plans = plans * np.minimum(u / np.maximum(r, 1e-300), 1.0)[:, :, None]
    c = plans.sum(axis=1)
    plans = plans * np.minimum(v / np.maximum(c, 1e-300), 1.0)[:, None, :]
    du = u - plans.sum(axis=2)
    dv = v - plans.sum(axis=1)
    mass = du.sum(axis=1)
    safe = np.maximum(mass, 1e-300)
    return plans + np.where(
        (mass > 1e-300)[:, None, None], du[:, :, None] * dv[:, None, :] / safe[:, None, None], 0.0
    )


def _sinkhorn(costs, u, v, beta, max_iter, tol, init_potentials=None, active_set=False):
    """Log-domain Sinkhorn over a (K, n, m) stack of costs.

    In lockstep the stack iterates until every problem's L1 marginal
    violation is below ``tol``. With ``active_set`` a problem whose own
    violation is below ``tol`` keeps the potentials that met it from then on,
    and the stack iterates until every problem is frozen. Either way at most
    ``max_iter`` times; the whole stack is then rounded onto the transport
    polytope once. A non-finite cost raises FloatingPointError instead of
    yielding NaN plans.
    """
    if not np.all(np.isfinite(costs)):
        raise FloatingPointError("transport cost is not finite")
    k, n, m = costs.shape
    loga = np.log(u)
    logb = np.log(v)
    scaled = costs / beta
    if init_potentials is not None:
        f, g = init_potentials
    else:
        f = np.zeros((k, n))
        g = np.zeros((k, m))
    plans = np.broadcast_to(np.outer(u, v), (k, n, m)).copy()
    met = np.zeros(k, dtype=bool)  # the problems that met their rule
    ran = np.zeros(k, dtype=int)  # the iterations each problem ran
    for iterations in range(1, max_iter + 1):
        last = f, g
        f = loga - _logsumexp(g[:, None, :] - scaled, axis=2)
        g = logb - _logsumexp(f[:, :, None] - scaled, axis=1)
        if active_set:  # a frozen problem keeps the potentials that met its rule
            f = np.where(met[:, None], last[0], f)
            g = np.where(met[:, None], last[1], g)
        plans = np.exp(f[:, :, None] + g[:, None, :] - scaled)
        errors = _marginal_errors(plans, u, v)
        ran[~met] = iterations  # in lockstep no problem has met its rule before the stack stops
        # a frozen problem's plan and error repeat, bit for bit; a lockstep stack meets its rule as one
        met = errors < tol if active_set else np.full(k, errors.max() < tol)
        if met.all():
            break
    plans = _round_to_marginals(plans, u, v)
    return _Stack(plans, np.einsum("kij,kij->k", plans, costs), _marginal_errors(plans, u, v), ran, met, (f, g))


_DENSE_QUARTET_LIMIT = 250_000  # entries of one stack's pseudo-cost tables
_OBJ_TOL = 1e-9  # relative objective gain below which a GW outer step counts as stalled


def _dense(n, m):
    """Whether (n, n) vs (m, m) GW problems take the dense route: n^2 m^2 quartet entries within the limit."""
    return n * n * m * m <= _DENSE_QUARTET_LIMIT


def _search_positions(a_s, sorted_vals):
    """``pos[j, i, i'] = searchsorted(sorted_vals[j], a_s[i, i'], side="right")`` for all rows j."""
    n, m = a_s.shape[0], sorted_vals.shape[0]
    by_value = np.argsort(a_s, axis=None, kind="stable")  # the n^2 source entries, ascending
    sorted_queries = a_s.ravel()[by_value]
    # One search for all rows: entry v of row j is <= the k-th smallest query iff
    # k >= rank(v), the number of queries below v, so the row's count of entries
    # <= that query (searchsorted side="right") is a prefix sum over ranks.
    ranks = np.searchsorted(sorted_queries, sorted_vals, side="left")
    at_rank = np.bincount((ranks + np.arange(m)[:, None] * (n * n + 1)).ravel(),
                          minlength=m * (n * n + 1)).reshape(m, n * n + 1)
    pos = np.empty((m, n * n), dtype=np.intp)
    pos[:, by_value] = np.cumsum(at_rank, axis=1)[:, : n * n]
    return pos.reshape(m, n, n)


def _factorized_tables(a_s, a_t):
    """Plan-independent tables of the factorized pseudo-costs of stacks (K, n, n) vs (K, m, m).

    Holds the source adjacencies, each target row's values in stable sorted
    order and, per chunk of target rows, two flat index tables: ``gather``
    reads every plan row in the sorted order of target row j, and ``flat``
    finds each source entry ``a_s[k, i, i']``'s ``searchsorted(...,
    side="right")`` position in row j within the (K, n, j_chunk, m + 1)
    prefix tables of j's chunk. Target rows are taken in chunks so that each
    prefix table holds at most ``_DENSE_QUARTET_LIMIT`` entries.
    """
    k, n, m = a_s.shape[0], a_s.shape[1], a_t.shape[1]
    order = np.argsort(a_t, axis=2, kind="stable")
    sorted_vals = np.take_along_axis(a_t, order, axis=2)
    pos = np.stack([_search_positions(s, vals) for s, vals in zip(a_s, sorted_vals)])
    problems = np.arange(k)[:, None, None, None]
    width = max(1, _DENSE_QUARTET_LIMIT // (k * n * (m + 1)))
    chunks = []
    for lo in range(0, m, width):
        rows = slice(lo, min(lo + width, m))
        cols = rows.stop - lo
        # flat index of plans[k, i', order[k, j, b]] in a C-ordered (K, n, m) stack
        gather = problems * (n * m) + np.arange(n)[:, None, None] * m + order[:, None, rows]
        # flat index of cum[k, i', j, pos[k, j, i, i']] in a C-ordered (K, n, cols, m + 1) table
        flat = (problems * (n * cols * (m + 1)) + np.arange(n) * (cols * (m + 1))
                + np.arange(cols)[:, None, None] * (m + 1) + pos[:, rows])
        chunks.append((rows, gather, flat))
    return a_s, sorted_vals, chunks


def _factorized_pseudo_costs(tables, plans):
    """``G[k, i, j] = sum_{i',j'} plans[k, i', j'] |A_s[k, i, i'] - A_t[k, j, j']|`` from prefix sums.

    Reads weighted L1 distances off prefix sums over each target row in
    sorted order, for the whole stack and a chunk of target rows at a time:
    O(n m (n + m)) per plan once ``_factorized_tables`` has sorted the rows,
    instead of the quadruple loop's O(n^2 m^2).
    """
    a_s, sorted_vals, chunks = tables
    k, n, m = plans.shape
    pseudo = np.empty((k, n, m))  # C-ordered: the order of later sums depends on it
    total_w = plans.sum(axis=2)[:, None, None, :]  # total_w[k, 0, 0, i']
    for rows, gather, flat in chunks:
        # (K, n, cols, m): weights[k, i', j, b] = plans[k, i', order[k, j, b]]
        weights = plans.take(gather)
        cum_w = np.zeros(weights.shape[:3] + (m + 1,))
        np.cumsum(weights, axis=-1, out=cum_w[..., 1:])
        cum_v = np.zeros_like(cum_w)
        np.cumsum(np.multiply(weights, sorted_vals[:, None, rows], out=weights), axis=-1, out=cum_v[..., 1:])
        total_v = cum_v[..., -1].transpose(0, 2, 1)[:, :, None, :]  # total_v[k, j, 0, i']
        below_w = cum_w.take(flat)  # (K, cols, n, n): below_w[k, j, i, i']
        below_v = cum_v.take(flat)
        per_pair = below_w  # a_s * (2 below_w - total_w) + total_v - 2 below_v, formed in place
        per_pair *= 2.0
        per_pair -= total_w
        per_pair *= a_s[:, None]
        per_pair += total_v
        per_pair -= np.multiply(below_v, 2.0, out=below_v)
        pseudo[:, :, rows] = per_pair.sum(axis=-1).transpose(0, 2, 1)
    return pseudo


def _dense_pseudo_costs(table, plans):
    """Each problem's (n m, n m) ``table`` times its flattened plan in one batched ``matmul``: the call
    numpy's path-optimized ``einsum`` makes of the contraction, on the same operands, so the same bits."""
    return np.matmul(table, plans.reshape(len(plans), -1, 1)).reshape(plans.shape)


def _quartet_maps(adj_s, adj_t):
    """The pseudo-cost maps ``(forward, backward)`` of stacked adjacencies (K, n, n) and (K, m, m).

    ``forward(plans)[k, i, j] = sum_ab plans[k, a, b] |A_s[k, i, a] - A_t[k, j, b]|``
    and ``backward`` is the same for the transposed adjacencies; both return
    C-ordered stacks. What does not depend on the plans is built once, on the
    route ``_dense`` picks, and every outer GW step reuses it. Problems frozen
    in an active-set stack stay in the tables.
    """
    k, n, m = adj_s.shape[0], adj_s.shape[1], adj_t.shape[1]
    if _dense(n, m):
        diffs = np.abs(adj_s[:, :, None, :, None] - adj_t[:, None, :, None, :])  # (k, i, j, a, b)
        tables = diffs.reshape(k, n * m, n * m), diffs.transpose(0, 3, 4, 1, 2).reshape(k, n * m, n * m)
        return [partial(_dense_pseudo_costs, t) for t in tables]
    pairs = (adj_s, adj_t), (adj_s.transpose(0, 2, 1), adj_t.transpose(0, 2, 1))
    return [partial(_factorized_pseudo_costs, _factorized_tables(*pair)) for pair in pairs]


def _entropic_gwd(adj_s, adj_t, u, v, beta, outer_iter, tol, sink_iter, sink_tol, active_set=False):
    """Projected-gradient entropic GW over stacks (K, n, n) vs (K, m, m).

    Each outer step linearizes the quartet objective at the current plans
    and projects with Sinkhorn, warm started from the previous duals. In
    lockstep the stack stops when its plans stop moving or every problem's
    objective has stalled for three steps. With ``active_set`` a problem
    whose own plan stops moving or whose own objective has stalled keeps its
    plan and best iterate from then on, and the stack iterates until every
    problem is frozen; its inner Sinkhorn solves freeze problem by problem
    too. Each problem returns its best iterate.
    """
    k, n = adj_s.shape[:2]
    m = adj_t.shape[1]
    forward, backward = _quartet_maps(adj_s, adj_t)
    plans = np.broadcast_to(np.outer(u, v), (k, n, m)).copy()
    pseudo = forward(plans)
    best_plans = plans.copy()
    best_objs = np.einsum("kij,kij->k", plans, pseudo)
    best_errs = np.zeros(k)
    stalled = np.zeros(k, dtype=int)
    met = np.zeros(k, dtype=bool)  # the problems that met their rule
    ran = np.zeros(k, dtype=int)  # the outer steps each problem ran
    duals = None
    for iterations in range(1, outer_iter + 1):
        direction = 0.5 * (pseudo + backward(plans))
        step = _sinkhorn(direction, u, v, beta, sink_iter, sink_tol, duals, active_set)
        moved = np.abs(step.plans - plans)
        # a frozen problem keeps its plan, so its pseudo-cost and objective repeat
        plans = np.where(met[:, None, None], plans, step.plans) if active_set else step.plans
        duals = step.duals
        pseudo = forward(plans)
        objs = np.einsum("kij,kij->k", plans, pseudo)
        improved = objs < best_objs - _OBJ_TOL * np.maximum(1.0, np.abs(best_objs))
        take = (objs <= best_objs) & ~met  # a frozen problem's inner solve still moves its error
        best_plans[take] = plans[take]
        best_errs[take] = step.errors[take]
        best_objs = np.minimum(best_objs, objs)
        stalled = np.where(improved, 0, stalled + 1)
        ran[~met] = iterations  # in lockstep no problem has met its rule before the stack stops
        if active_set:
            met = met | (moved.max(axis=(1, 2)) < tol) | (stalled >= 3)
        else:  # a lockstep stack meets its rule as one
            met = np.full(k, moved.max() < tol or stalled.min() >= 3)
        if met.all():
            break
    return _Stack(best_plans, best_objs, best_errs, ran, met)


# ---------------------------------------------------------------------------
# single problems: validating wrappers over the core (a stack of one)


def sinkhorn_wd(cost, source_weights, target_weights, beta, max_iter=200, tol=1e-7):
    """Entropic optimal transport by log-domain Sinkhorn scaling.

    Iterates dual potential updates on the kernel ``exp(-cost/beta)`` until
    the L1 marginal violation drops below ``tol``, then rounds the iterate
    onto the transport polytope so the returned plan meets its marginals to
    float precision. The reported objective is the unregularized transport
    cost ``<plan, cost>``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    u, v = _check_problem(source_weights, target_weights, *cost.shape, beta)
    solved = _sinkhorn(cost[None], u, v, beta, max_iter, tol)
    return solved.plan(0)


def gwd_cost(source_adjacency, target_adjacency, plan):
    """Quartet objective and pseudo-cost for a fixed coupling.

    With loss ``|A_s[i,i'] - A_t[j,j']|`` the pseudo-cost is
    ``G[i,j] = sum_{i',j'} plan[i',j'] * |A_s[i,i'] - A_t[j,j']|`` and the
    objective is ``<plan, G>``. The factorized kernel builds its tables
    (each target row sorted, each source entry's position in it) and reads
    weighted L1 distances off prefix sums, avoiding the quadruple loop
    (O(n m (n + m) log) instead of O(n^2 m^2)). The GW solver builds the
    same tables once per solve and shares them across its outer steps; for
    small problems it contracts the dense difference tensor instead.
    """
    a_s = _square(source_adjacency, "source")
    a_t = _square(target_adjacency, "target")
    plan = np.asarray(plan, dtype=np.float64)
    n, m = a_s.shape[0], a_t.shape[0]
    if plan.shape != (n, m):
        raise ValueError(f"plan shape {plan.shape} does not match ({n}, {m})")
    pseudo = _factorized_pseudo_costs(_factorized_tables(a_s[None], a_t[None]), plan[None])
    return float(np.einsum("kij,kij->k", plan[None], pseudo)[0]), pseudo[0]


def gwd_cost_naive(source_adjacency, target_adjacency, plan):
    """Quadruple-loop reference for ``gwd_cost`` (oracle; small inputs only)."""
    a_s = np.asarray(source_adjacency, dtype=np.float64)
    a_t = np.asarray(target_adjacency, dtype=np.float64)
    plan = np.asarray(plan, dtype=np.float64)
    n, m = a_s.shape[0], a_t.shape[0]
    pseudo = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for i2 in range(n):
                for j2 in range(m):
                    acc += plan[i2, j2] * abs(a_s[i, i2] - a_t[j, j2])
            pseudo[i, j] = acc
    objective = float((plan * pseudo).sum())
    return objective, pseudo


def entropic_gwd(
    source_adjacency,
    target_adjacency,
    source_weights,
    target_weights,
    beta,
    outer_iter=20,
    tol=1e-8,
    sink_iter=200,
    sink_tol=1e-7,
):
    """Entropic Gromov-Wasserstein by projected gradient.

    Starting from the independent coupling, repeatedly linearizes the quartet
    objective at the current plan and projects with Sinkhorn (warm starting
    each solve with the previous duals), until the plan stops moving or the
    objective plateaus; near-tied instances can keep shuffling plan mass
    forever without changing the value. If neither criterion fires the best
    iterate seen is returned with ``converged=False``. The descent direction
    averages the pseudo-costs of the matrices and their transposes, which is
    the exact gradient half for asymmetric adjacencies and coincides with
    the plain pseudo-cost for symmetric ones. Reports the unregularized
    quartet objective.
    """
    a_s = _square(source_adjacency, "source")
    a_t = _square(target_adjacency, "target")
    u, v = _check_problem(source_weights, target_weights, a_s.shape[0], a_t.shape[0], beta)
    solved = _entropic_gwd(a_s[None], a_t[None], u, v, beta, outer_iter, tol, sink_iter, sink_tol)
    return solved.plan(0)


# ---------------------------------------------------------------------------
# enumeration oracles


def permutation_matrices(n):
    """Yield (sigma, P) with P[i, sigma[i]] = 1, so (P @ M)[i] = M[sigma[i]]."""
    for sigma in itertools.permutations(range(n)):
        p = np.zeros((n, n))
        p[np.arange(n), sigma] = 1.0
        yield sigma, p


def exact_wd_uniform(cost):
    """Exact optimal transport cost for uniform marginals on a square cost.

    The LP optimum over couplings with uniform marginals is attained at a
    permutation scaled by 1/n (an extreme point), so full enumeration is exact.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n != m:
        raise ValueError("exact_wd_uniform requires a square cost")
    if n > 8:
        raise ValueError("enumeration limited to n <= 8")
    idx = np.arange(n)
    return min(cost[idx, sigma].mean() for sigma, _ in permutation_matrices(n))


def exact_gwd_uniform(source_adjacency, target_adjacency):
    """Best permutation-coupling quartet objective with uniform marginals."""
    a_s = np.asarray(source_adjacency, dtype=np.float64)
    a_t = np.asarray(target_adjacency, dtype=np.float64)
    n = a_s.shape[0]
    if a_t.shape[0] != n:
        raise ValueError("exact_gwd_uniform requires equal sizes")
    if n > 8:
        raise ValueError("enumeration limited to n <= 8")
    best = np.inf
    for sigma, _ in permutation_matrices(n):
        sigma = np.asarray(sigma)
        relabeled = a_t[np.ix_(sigma, sigma)]
        best = min(best, float(np.abs(a_s - relabeled).mean()))
    return best


def enumerate_alignment_values(source_adjacency, source_embeddings, target_adjacency, target_embeddings):
    """Per-permutation Frobenius errors and matched inner products.

    For each permutation P the Frobenius objective is
    ``||P (A_s X_s) - A_t X_t||_F^2`` and the inner-product objective is
    ``<P (A_s X_s), A_t X_t>_F``; minimizing the first must select the same
    permutations as maximizing the second.
    """
    a_s = np.asarray(source_adjacency, dtype=np.float64)
    x_s = np.asarray(source_embeddings, dtype=np.float64)
    a_t = np.asarray(target_adjacency, dtype=np.float64)
    x_t = np.asarray(target_embeddings, dtype=np.float64)
    n = a_s.shape[0]
    if a_t.shape[0] != n:
        raise ValueError("source and target must have equal node counts")
    if n > 6:
        raise ValueError("enumeration limited to n <= 6")
    source = a_s @ x_s
    target = a_t @ x_t
    perms, frob, inner = [], [], []
    for sigma, p in permutation_matrices(n):
        moved = p @ source
        perms.append(sigma)
        frob.append(float(((moved - target) ** 2).sum()))
        inner.append(float((moved * target).sum()))
    return perms, np.asarray(frob), np.asarray(inner)


def alignment_equivalence_check(
    source_adjacency, source_embeddings, target_adjacency, target_embeddings
):
    """True iff the Frobenius-argmin permutation set equals the inner-product-argmax set."""
    perms, frob, inner = enumerate_alignment_values(
        source_adjacency, source_embeddings, target_adjacency, target_embeddings
    )
    frob_tol = 1e-9 * max(1.0, float(np.abs(frob).max()))
    inner_tol = 1e-9 * max(1.0, float(np.abs(inner).max()))
    argmin = {perms[i] for i in np.flatnonzero(frob <= frob.min() + frob_tol)}
    argmax = {perms[i] for i in np.flatnonzero(inner >= inner.max() - inner_tol)}
    return argmin == argmax


# ---------------------------------------------------------------------------
# cost-term gradients at constant converged plans: the rules of batch_alignment's autodiff.node


def _wd_pulls(xs, xt, plans, dist):
    """Gradients of ``<plans[k], dist[k]>``, ``dist[k] = cost_matrix(xs[k], xt[k])``, w.r.t. stacks xs and xt.

    In Gram form, ``sum_j s_ij (x_i - y_j) = (sum_j s_ij) x_i - (s @ y)_i`` with ``s = plan / dist``.
    The gradient w.r.t. xt is written over ``xt``, window by window: each window's operations are the
    stacked expression's (one GEMM per window either way), and one (n, d) temporary is all they add.
    """
    scale = np.where(dist > 1e-12, plans / np.maximum(dist, 1e-12), 0.0)
    pull_s, product = np.empty(xs.shape), np.empty(xs.shape[1:])
    sums = zip(scale.sum(axis=-1)[..., None], scale.sum(axis=-2)[..., None])
    for x, y, s, pull, (row_sum, col_sum) in zip(xs, xt, scale, pull_s, sums):
        np.subtract(np.multiply(row_sum, x, out=pull), np.matmul(s, y, out=product), out=pull)
        np.subtract(np.multiply(col_sum, y, out=y), np.matmul(s.T, x, out=product), out=y)
    return pull_s, xt


def _sign_quartet_grads(a_s, a_t, plan):
    """Exact gradients of the quartet objective w.r.t. both adjacencies."""
    n, m = a_s.shape[0], a_t.shape[0]
    if _dense(n, m):
        signs = np.sign(a_s[:, None, :, None] - a_t[None, :, None, :])  # (i, j, a, b)
        grad_s = np.einsum("ij,ab,ijab->ia", plan, plan, signs)
        grad_t = -np.einsum("ij,ab,ijab->jb", plan, plan, signs)
        return grad_s, grad_t
    grad_s = np.zeros_like(a_s)
    grad_t = np.zeros_like(a_t)
    # chunk over source rows to bound the sign tensor at O(n * m^2)
    for i in range(n):
        signs = np.sign(a_s[i][:, None, None] - a_t[None, :, :])  # (n, m, m): (i', j, j')
        grad_s[i] = np.einsum("j,ab,ajb->a", plan[i], plan, signs)
        grad_t -= plan[i][:, None] * np.einsum("ab,ajb->jb", plan, signs)
    return grad_s, grad_t


# ---------------------------------------------------------------------------
# batch-wise alignment against the leave-one-out reference graph


def _worker_count():
    """CPUs this process may use."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_threads(fn, tasks):
    """``[fn(t) for t in tasks]`` on the calling thread and one more thread per other CPU (one
    glibc malloc arena fewer than a pool of a thread per CPU), each taking the next task from one
    shared iterator under the caller's numpy error state; the first error raised reaches the
    caller, and no task starts after it."""
    workers = min(_worker_count(), len(tasks))
    results, errors, pending, lock = [None] * len(tasks), [], enumerate(tasks), threading.Lock()
    state = np.geterr()  # a new thread starts from numpy's default error state

    def work():
        while True:
            with lock:
                i, task = (None, None) if errors else next(pending, (None, None))
            if i is None:
                return
            try:
                with np.errstate(**state):
                    results[i] = fn(task)
            except BaseException as exc:  # raised again on the calling thread
                errors.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return results


@dataclass
class BatchAlignment:
    wd: np.ndarray
    gwd: np.ndarray
    ga: np.ndarray
    loss_term: Tensor
    wd_plans: list = field(default_factory=list, repr=False)
    gwd_plans: list = field(default_factory=list, repr=False)


def _leave_one_out(total, parts, batch, out=None):
    """``(total - parts[i]) / (batch - 1)``: for each window i, the mean of the other windows' parts."""
    loo = np.subtract(total, parts, out=out)
    return np.divide(loo, batch - 1, out=loo)


def batch_alignment(
    embeddings,
    adjacencies,
    lam=0.1,
    beta=0.05,
    terms=("wd", "gwd"),
    sink_iter=200,
    sink_tol=1e-7,
    gw_outer=20,
    gw_tol=1e-8,
):
    """Per-window fused distance against the mean graph of the other windows.

    ``embeddings`` is (B, N, d) and ``adjacencies`` is (B, N, N); both may be
    Tensors. Window i's reference graph is the element-wise mean of the other
    B-1 windows' embeddings and adjacencies. ``loss_term``, ``lam`` times the
    mean of the enabled terms' objectives, is one tape node at any B: with the
    plans held constant, its backward applies the leave-one-out chain rule in
    closed form, as window i's reference does not depend on window i.
    """
    emb = as_tensor(embeddings)
    adj = as_tensor(adjacencies)
    if emb.data.ndim != 3 or adj.data.ndim != 3:
        raise ValueError("embeddings must be (B, N, d) and adjacencies (B, N, N)")
    batch = emb.data.shape[0]
    if batch < 2:
        raise ValueError(f"batch alignment needs B >= 2 windows, got {batch}")
    if adj.data.shape[0] != batch:
        raise ValueError("embeddings and adjacencies disagree on batch size")
    unknown = set(terms) - {"wd", "gwd"}
    if unknown:
        raise ValueError(f"unknown alignment terms: {sorted(unknown)}")

    emb_np, adj_np = emb.data, adj.data
    n = emb_np.shape[1]
    u = uniform_weights(n)
    emb_sum_np = emb_np.sum(axis=0)
    adj_sum_np = adj_np.sum(axis=0)

    # all windows advance in lockstep as one stack while the stacked problem is
    # small (B * N^4 bounds the dense GW difference tensor); otherwise stacks of
    # windows, each stopping by its own rule, run on threads, as many windows to
    # a stack as keep its GW pseudo-cost tables within the limit
    lockstep = batch * n**4 <= 2_000_000
    per_window = n**4 if _dense(n, n) else n * n * (n + 1)
    size = batch if lockstep else max(1, _DENSE_QUARTET_LIMIT // per_window)
    stacks = [slice(lo, min(lo + size, batch)) for lo in range(0, batch, size)]

    def solve(s):
        """The wd costs and both alignments of the windows in slice ``s`` as one stack.

        References are built per stack and wd costs per window: whole-batch references,
        or one ``cost_matrix`` call over the stack (a (K, N, N, d) difference tensor,
        48 MB at K = 15, N = 25, d = 640), raise peak memory on the threaded route.
        """
        costs = wd = gwd = None
        if "wd" in terms:
            refs = _leave_one_out(emb_sum_np, emb_np[s], batch)
            costs = np.stack([cost_matrix(x, r) for x, r in zip(emb_np[s], refs)])
            wd = _sinkhorn(costs, u, u, beta, sink_iter, sink_tol, active_set=not lockstep)
        if "gwd" in terms:
            refs = _leave_one_out(adj_sum_np, adj_np[s], batch)
            gwd = _entropic_gwd(adj_np[s], refs, u, u, beta, gw_outer, gw_tol, sink_iter, sink_tol,
                                active_set=not lockstep)
        return costs, wd, gwd

    wd_vals = np.zeros(batch)
    gwd_vals = np.zeros(batch)
    wd_costs = np.empty((batch, n, n))
    wd_plans = []
    gwd_plans = []
    for s, (costs, wd, gwd) in zip(stacks, _in_threads(solve, stacks)):
        if wd is not None:
            wd_costs[s] = costs
            wd_vals[s] = wd.objectives
            wd_plans += [wd.plan(k) for k in range(len(wd.plans))]
        if gwd is not None:
            gwd_vals[s] = gwd.objectives
            gwd_plans += [gwd.plan(k) for k in range(len(gwd.plans))]
    ga_vals = lam * (wd_vals + gwd_vals)

    def chain(source, reference, grad):
        """``grad * lam / batch * (source + the leave-one-out mean of reference)``, written over both:
        window k's gradient, its source pull plus the mean of the other windows' reference pulls."""
        out = np.add(source, _leave_one_out(reference.sum(axis=0), reference, batch, out=reference), out=source)
        np.multiply(out, lam / batch, out=out)
        return np.multiply(out, float(grad), out=out)

    def wd_grad(grad):
        refs = _leave_one_out(emb_sum_np, emb_np, batch)
        return chain(*_wd_pulls(emb_np, refs, np.stack([p.plan for p in wd_plans]), wd_costs), grad)

    def gwd_grad(grad):
        refs = _leave_one_out(adj_sum_np, adj_np, batch)
        pairs = [_sign_quartet_grads(a, r, p.plan) for a, r, p in zip(adj_np, refs, gwd_plans)]
        return chain(*(np.stack(g) for g in zip(*pairs)), grad)

    rules = [rule for term, rule in (("wd", (emb, wd_grad)), ("gwd", (adj, gwd_grad))) if term in terms]
    return BatchAlignment(
        wd=wd_vals, gwd=gwd_vals, ga=ga_vals,
        loss_term=node(np.asarray(ga_vals.mean()), *rules), wd_plans=wd_plans, gwd_plans=gwd_plans,
    )
