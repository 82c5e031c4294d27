import collections
import sys
import threading
import time

import numpy as np
import pytest

from tsgad import align
from tsgad import autodiff as ad
from tsgad.align import (
    _dense,
    _entropic_gwd,
    _marginal_errors,
    _quartet_maps,
    _sinkhorn,
    alignment_equivalence_check,
    batch_alignment,
    cost_matrix,
    entropic_gwd,
    enumerate_alignment_values,
    exact_gwd_uniform,
    exact_wd_uniform,
    gwd_cost,
    gwd_cost_naive,
    permutation_matrices,
    sinkhorn_wd,
    uniform_weights,
)
from tsgad.autodiff import Tensor
from tsgad.checks import relative_error


def test_cost_matrix_zero_diagonal_when_identical():
    x = np.random.default_rng(0).random((4, 3))
    c = cost_matrix(x, x)
    np.testing.assert_allclose(np.diag(c), 0.0, atol=1e-15)


def test_cost_matrix_1d_points():
    c = cost_matrix(np.array([[0.0], [3.0]]), np.array([[4.0]]))
    np.testing.assert_allclose(c, [[4.0], [1.0]])


def test_cost_matrix_symmetry():
    rng = np.random.default_rng(1)
    x, y = rng.random((3, 2)), rng.random((5, 2))
    np.testing.assert_allclose(cost_matrix(x, y), cost_matrix(y, x).T, atol=1e-15)


def test_cost_matrix_dim_mismatch():
    with pytest.raises(ValueError, match="dimensions differ"):
        cost_matrix(np.zeros((2, 3)), np.zeros((2, 4)))


def test_sinkhorn_identical_two_point():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = uniform_weights(2)
    res = sinkhorn_wd(cost, u, u, beta=0.01, max_iter=1000, tol=1e-9)
    assert res.objective < 1e-9
    np.testing.assert_allclose(res.plan, np.diag([0.5, 0.5]), atol=1e-9)
    # LP oracle: the better of the two permutation couplings
    assert exact_wd_uniform(cost) == 0.0


def test_sinkhorn_unique_feasible_coupling():
    res = sinkhorn_wd(np.array([[2.0], [4.0]]), np.array([0.5, 0.5]), np.array([1.0]),
                      beta=0.7, max_iter=50, tol=1e-12)
    np.testing.assert_allclose(res.plan, [[0.5], [0.5]], atol=1e-12)
    assert res.objective == pytest.approx(3.0, abs=1e-12)


def test_sinkhorn_matches_enumeration_on_random_4x4():
    u = uniform_weights(4)
    for seed in range(10):
        cost = np.random.default_rng(seed).random((4, 4))
        res = sinkhorn_wd(cost, u, u, beta=0.005, max_iter=3000, tol=1e-9)
        lp = exact_wd_uniform(cost)
        assert abs(res.objective - lp) / lp < 0.02
        assert res.marginal_error < 1e-6


def test_sinkhorn_rejects_bad_marginals():
    cost = np.ones((2, 2))
    with pytest.raises(ValueError, match="strictly positive"):
        sinkhorn_wd(cost, np.array([1.0, 0.0]), uniform_weights(2), 0.1)
    with pytest.raises(ValueError, match="sum to 1"):
        sinkhorn_wd(cost, np.array([0.7, 0.7]), uniform_weights(2), 0.1)


@pytest.mark.parametrize("solve, weights, beta, match", [
    (sinkhorn_wd, [np.nan, 0.5, 0.5], 0.05, "finite and strictly positive"),
    (sinkhorn_wd, [np.inf, 0.5, 0.5], 0.05, "finite and strictly positive"),
    (entropic_gwd, [np.nan, 0.5, 0.5], 0.05, "finite and strictly positive"),
    (sinkhorn_wd, None, np.nan, "beta"),
    (sinkhorn_wd, None, np.inf, "beta"),
    (entropic_gwd, None, -1.0, "beta"),
    (entropic_gwd, None, 0.0, "beta"),
    (entropic_gwd, None, np.nan, "beta"),
])
def test_solvers_reject_bad_beta_and_non_finite_marginals(solve, weights, beta, match):
    u = uniform_weights(3)
    first = u if weights is None else np.array(weights)
    args = (np.ones((3, 3)),) if solve is sinkhorn_wd else (np.eye(3), np.ones((3, 3)))
    with pytest.raises(ValueError, match=match):
        solve(*args, first, u, beta)


_U2, _U3 = uniform_weights(2), uniform_weights(3)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: sinkhorn_wd(np.ones((2, 3)), _U2, _U2, 0.1), "marginal shapes", id="marginal-shape"),
    pytest.param(lambda: entropic_gwd(np.ones((2, 3)), np.eye(3), _U2, _U3, 0.1), "source adjacency must be square",
                 id="adjacency-not-square"),
    pytest.param(lambda: sinkhorn_wd(np.ones(3), _U3, _U3, 0.1), "2-D", id="cost-not-2d"),
    pytest.param(lambda: gwd_cost(np.eye(2), np.eye(3), np.full((3, 2), 1 / 6)), "plan shape", id="plan-shape"),
    pytest.param(lambda: batch_alignment(np.ones((2, 3)), np.ones((2, 3, 3))), r"\(B, N, d\)", id="batch-not-3d"),
    pytest.param(lambda: batch_alignment(np.ones((2, 3, 2)), np.ones((3, 3, 3))), "batch size",
                 id="batch-size-mismatch"),
    pytest.param(lambda: batch_alignment(np.ones((2, 3, 2)), np.ones((2, 3, 3)), terms=("wd", "kl")),
                 "unknown alignment terms", id="unknown-term"),
])
def test_malformed_problem_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_sinkhorn_marginal_violation_monotone():
    # one Sinkhorn step at a time, each warm started from the duals the last one
    # returned, runs the same iterations as one solve; the violation before
    # rounding is that of the plan the duals define
    for seed in range(10):
        rng = np.random.default_rng(seed)
        costs = rng.random((1, 5, 6))
        u, v = uniform_weights(5), rng.random(6)
        v /= v.sum()
        duals, errs = None, []
        while len(errs) < 2000 and (not errs or errs[-1] >= 1e-10):
            duals = _sinkhorn(costs, u, v, 0.03, 1, 1e-10, duals).duals
            f, g = duals
            errs.append(_marginal_errors(np.exp(f[:, :, None] + g[:, None, :] - costs / 0.03), u, v)[0])
        assert len(errs) > 1 and np.all(np.diff(errs) <= 1e-12)


def test_sinkhorn_objective_decreases_with_beta():
    u = uniform_weights(4)
    for seed in range(5):
        cost = np.random.default_rng(100 + seed).random((4, 4))
        objs = [sinkhorn_wd(cost, u, u, beta=b, max_iter=20000, tol=1e-9).objective
                for b in (0.5, 0.1, 0.02, 0.005)]
        assert all(objs[i] >= objs[i + 1] - 1e-9 for i in range(len(objs) - 1))
        lp = exact_wd_uniform(cost)
        assert abs(objs[-1] - lp) / lp < 0.02


def test_sinkhorn_symmetry_and_identity():
    rng = np.random.default_rng(3)
    x = rng.random((4, 3)) * 2.0
    y = rng.random((5, 3)) * 2.0
    u, v = uniform_weights(4), uniform_weights(5)
    ab = sinkhorn_wd(cost_matrix(x, y), u, v, beta=0.02, max_iter=5000, tol=1e-10)
    ba = sinkhorn_wd(cost_matrix(y, x), v, u, beta=0.02, max_iter=5000, tol=1e-10)
    assert ab.objective == pytest.approx(ba.objective, abs=1e-8)
    self_dist = sinkhorn_wd(cost_matrix(x, x), u, u, beta=0.01, max_iter=5000, tol=1e-10)
    assert self_dist.objective <= 1e-6


def test_gwd_factorized_equals_naive():
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(15):
        n, m = rng.integers(2, 5, size=2)
        cases.append((rng.random((int(n), int(n))), rng.random((int(m), int(m)))))
    # rectangular, with n < m and n > m, and tied values (three distinct levels)
    for n, m in ((3, 7), (7, 3), (6, 6)):
        a_s, a_t = rng.random((n, n)), rng.random((m, m))
        cases += [(a_s, a_t), (np.round(a_s * 2.0) / 2.0, np.round(a_t * 2.0) / 2.0)]
    cases += [(a_s.T, a_t.T) for a_s, a_t in cases[-6:]]  # non-contiguous views
    for a_s, a_t in cases:
        plan = rng.random((a_s.shape[0], a_t.shape[0]))
        plan /= plan.sum()
        obj_n, pseudo_n = gwd_cost_naive(a_s, a_t, plan)
        obj_f, pseudo_f = gwd_cost(a_s, a_t, plan)
        assert abs(obj_f - obj_n) < 1e-10
        np.testing.assert_allclose(pseudo_f, pseudo_n, atol=1e-10)
        # the dense map the GW solver uses for small problems
        dense = _quartet_maps(a_s[None], a_t[None])[0](plan[None])[0]
        np.testing.assert_allclose(dense, pseudo_n, atol=1e-10)


def test_gwd_factorized_chunks_match_one_chunk(monkeypatch):
    """Prefix tables cut into chunks of target rows give a stack the one-chunk pseudo-costs byte for byte:
    each target row's prefix sums and its sum over i' do not depend on the chunking."""
    rng = np.random.default_rng(4)
    k, n, m = 3, 6, 11
    a_s, a_t = rng.random((k, n, n)), rng.random((k, m, m))
    plans = rng.random((k, n, m))
    plans /= plans.sum(axis=(1, 2), keepdims=True)

    def pseudo_costs(cap):
        monkeypatch.setattr(align, "_PREFIX_CHUNK", cap)
        tables = align._factorized_tables(a_s, a_t)
        return [c.stop - c.start for c, _, _ in tables[2]], align._factorized_pseudo_costs(tables, plans)

    widths, whole = pseudo_costs(k * n * (m + 1) * m)
    assert widths == [m]
    for cap, want in ((3 * k * n * (m + 1), [3, 3, 3, 2]), (1, [1] * m)):  # the last chunk ragged; a row each
        widths, chunked = pseudo_costs(cap)
        assert widths == want
        np.testing.assert_array_equal(chunked, whole)
    for a, b, plan, got in zip(a_s, a_t, plans, whole):
        np.testing.assert_allclose(got, gwd_cost_naive(a, b, plan)[1], rtol=1e-13, atol=0.0)
    one = gwd_cost(a_s[0], a_t[0], plans[0])  # a chunk per row (the cap is still 1), then one chunk
    monkeypatch.setattr(align, "_PREFIX_CHUNK", m * n * (m + 1))
    assert gwd_cost(a_s[0], a_t[0], plans[0])[0] == one[0]


def test_entropic_gwd_factorized_stack_equals_single_solves():
    # N = 23 is the smallest square size whose n^2 m^2 exceeds the dense limit
    rng = np.random.default_rng(6)
    n = 23
    a_s, a_t = rng.random((3, n, n)), rng.random((3, n, n))
    u = uniform_weights(n)
    plans = rng.random((3, n, n))
    stacked = _quartet_maps(a_s, a_t)
    for k in range(3):
        single = _quartet_maps(a_s[k : k + 1], a_t[k : k + 1])
        for stacked_map, single_map in zip(stacked, single):
            np.testing.assert_array_equal(stacked_map(plans)[k], single_map(plans[k : k + 1])[0])
    # with both stopping rules off (tol = 0, fewer than 3 outer steps, fixed Sinkhorn
    # iterations) every problem takes the same steps alone as in the stack
    args = (u, u, 0.05, 2, 0.0, 30, 0.0)
    stack = _entropic_gwd(a_s, a_t, *args)
    for k in range(3):
        single = _entropic_gwd(a_s[k : k + 1], a_t[k : k + 1], *args)
        np.testing.assert_array_equal(stack.plans[k], single.plans[0])
        assert stack.objectives[k] == single.objectives[0]
        assert stack.errors[k] == single.errors[0]


def test_quartet_route_rule():
    # N = 22 is the largest square size whose n^2 m^2 stays within the dense limit
    assert _dense(22, 22) and not _dense(23, 23)
    assert _dense(2, 7) and not _dense(21, 27)


@pytest.mark.parametrize("k, n, m", [(1, 5, 5), (16, 5, 5), (1, 3, 7), (4, 7, 3), (3, 1, 4), (2, 15, 12)])
@pytest.mark.parametrize("layout", ["contiguous", "transposed", "source transposed"])
def test_dense_quartet_maps_equal_the_path_optimized_einsum(k, n, m, layout):
    # the dense maps are the matmul np.einsum(..., optimize=True) makes, bit for bit,
    # on any adjacency layout (a transposed view changes which operands it builds)
    rng = np.random.default_rng(k * 100 + n * 10 + m)
    a_s, a_t = rng.random((k, n, n)), rng.random((k, m, m))
    if layout != "contiguous":
        a_s = a_s.transpose(0, 2, 1)
    if layout == "transposed":
        a_t = a_t.transpose(0, 2, 1)
    plans = rng.random((k, n, m))
    diffs = np.abs(a_s[:, :, None, :, None] - a_t[:, None, :, None, :])
    forward, backward = (apply(plans) for apply in _quartet_maps(a_s, a_t))
    np.testing.assert_array_equal(forward, np.einsum("kab,kijab->kij", plans, diffs, optimize=True))
    np.testing.assert_array_equal(backward, np.einsum("kab,kabij->kij", plans, diffs, optimize=True))
    # C-ordered, as on the factorized route: the order of later sums depends on the layout
    assert forward.flags.c_contiguous and backward.flags.c_contiguous


def _counted(calls, name, fn):
    def counting(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counting


@pytest.mark.parametrize("max_iter", [0, 1, 5, 200])
def test_lockstep_stack_records_the_loop_count_for_every_problem(monkeypatch, max_iter):
    # in lockstep every problem reports as many iterations as the stack's loop ran, a cap of 0 included
    costs, adj_s, adj_t = _varied_problems(np.random.default_rng(max_iter), 5, 5, 6)
    u = uniform_weights(5)
    calls = collections.Counter()
    monkeypatch.setattr(align, "_logsumexp", _counted(calls, "sinkhorn", align._logsumexp))  # twice a step
    wd = _sinkhorn(costs, u, u, 0.05, max_iter, 1e-7)
    np.testing.assert_array_equal(wd.iterations, np.full(6, calls["sinkhorn"] // 2))
    maps = align._quartet_maps

    def counted_maps(*adjacencies):  # the backward map runs once an outer step
        forward, backward = maps(*adjacencies)
        return forward, _counted(calls, "gw", backward)

    monkeypatch.setattr(align, "_quartet_maps", counted_maps)
    gwd = _entropic_gwd(adj_s, adj_t, u, u, 0.05, max_iter, 1e-8, 30, 1e-7)
    np.testing.assert_array_equal(gwd.iterations, np.full(6, calls["gw"]))
    assert max_iter == 0 or min(calls["sinkhorn"], calls["gw"]) > 0


def _varied_problems(rng, n, m, count):
    """Wasserstein costs and GW adjacency pairs whose solves stop after different iteration counts."""
    makers = (
        lambda size: rng.random((size, size)),  # stops when its plan stops moving
        lambda size: 5.0 * rng.random((size, size)),
        lambda size: (lambda r: r + r.T)(rng.random((size, size))),  # hits the outer cap
        lambda size: (lambda r: r / r.sum(axis=1, keepdims=True))(rng.random((size, size))),  # stalls
        lambda size: np.kron(rng.random((6, 6)), np.ones((5, 5)))[:size, :size] + 0.01 * rng.random((size, size)),
    )
    costs = np.stack([cost_matrix(rng.random((n, 3)) * (1 + k), rng.random((m, 3))) for k in range(count)])
    pairs = [(makers[k % len(makers)](n), makers[k % len(makers)](m)) for k in range(count)]
    return costs, np.stack([s for s, _ in pairs]), np.stack([t for _, t in pairs])


def _assert_same_plan(got, want):
    assert got.plan.tobytes() == want.plan.tobytes()
    assert got.objective == want.objective
    assert got.marginal_error == want.marginal_error
    assert got.iterations == want.iterations
    assert got.converged == want.converged


@pytest.mark.parametrize("n, m", [(25, 25), (23, 23), (21, 27)])
def test_active_set_stack_equals_single_solves(n, m):
    # factorized GW sizes (n^2 m^2 > 250k), six different problems, stopping rules on:
    # each problem freezes in the stack at its own iteration and must come out exactly
    # as its single solve, with the duals it froze with (GW warm-starts from them)
    costs, adj_s, adj_t = _varied_problems(np.random.default_rng(n * m), n, m, 6)
    u, v = uniform_weights(n), uniform_weights(m)
    wd = _sinkhorn(costs, u, v, 0.05, 200, 1e-7, active_set=True)
    gwd = _entropic_gwd(adj_s, adj_t, u, v, 0.05, 20, 1e-8, 200, 1e-7, active_set=True)
    for k in range(6):
        _assert_same_plan(wd.plan(k), sinkhorn_wd(costs[k], u, v, 0.05))
        _assert_same_plan(gwd.plan(k), entropic_gwd(adj_s[k], adj_t[k], u, v, 0.05))
        single = _sinkhorn(costs[k : k + 1], u, v, 0.05, 200, 1e-7)
        assert wd.duals[0][k].tobytes() == single.duals[0][0].tobytes()
        assert wd.duals[1][k].tobytes() == single.duals[1][0].tobytes()
    assert len(set(wd.iterations)) > 1 and len(set(gwd.iterations)) > 1
    assert gwd.converged.any() and not gwd.converged.all()
    # C-ordered pseudo-costs: a transposed layout reorders the Sinkhorn sums and moves the bits
    assert all(apply(wd.plans).flags.c_contiguous for apply in _quartet_maps(adj_s, adj_t))


def test_batch_alignment_results_do_not_depend_on_worker_count(monkeypatch):
    # B * N^4 > 2e6: stacks of 15 and 5 windows, on one thread, two, and more than the CPUs
    rng = np.random.default_rng(13)
    emb = rng.normal(size=(20, 25, 4))
    raw = rng.random((20, 25, 25))
    adj = raw / raw.sum(axis=2, keepdims=True)
    runs = []
    for workers in (1, 2, 4):
        monkeypatch.setattr(align, "_worker_count", lambda workers=workers: workers)
        res = batch_alignment(Tensor(emb), Tensor(adj), lam=0.1, beta=0.05)
        runs.append((res.wd.tobytes(), res.gwd.tobytes(),
                     [p.plan.tobytes() for p in res.wd_plans + res.gwd_plans]))
    assert runs[0] == runs[1] == runs[2]


def test_batch_alignment_worker_error_reaches_caller(monkeypatch):
    monkeypatch.setattr(align, "_worker_count", lambda: 2)
    rng = np.random.default_rng(14)
    emb = rng.normal(size=(20, 25, 4))
    emb[17, 3, 1] = np.nan
    adj = rng.random((20, 25, 25))
    with pytest.raises(FloatingPointError, match="transport cost is not finite") as raised:
        batch_alignment(Tensor(emb), Tensor(adj), lam=0.1, beta=0.05)
    assert raised.type is FloatingPointError


def _in_threads_bounded(fn, tasks, seconds=60.0):
    """``align._in_threads`` on a watched thread: it must finish within ``seconds``."""
    outcome = {}

    def run():
        outcome["caller"] = threading.get_ident()
        try:
            outcome["results"] = align._in_threads(fn, tasks)
        except BaseException as exc:
            outcome["error"] = exc

    watched = threading.Thread(target=run, daemon=True)
    watched.start()
    watched.join(timeout=seconds)
    assert not watched.is_alive(), "_in_threads did not finish"
    return outcome


def test_in_threads_runs_each_task_once_in_order(monkeypatch):
    # more workers than CPUs, switching threads as often as the interpreter allows:
    # two workers taking the same task, or a task no worker takes, breaks the counts
    monkeypatch.setattr(align, "_worker_count", lambda: 8)
    calls, threads, lock = collections.Counter(), set(), threading.Lock()

    def fn(task):
        with lock:
            calls[task] += 1
            threads.add(threading.get_ident())
        time.sleep(0.0005)
        return task * task

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcome = _in_threads_bounded(fn, list(range(300)))
    finally:
        sys.setswitchinterval(interval)
    assert outcome["results"] == [t * t for t in range(300)]
    assert sorted(calls) == list(range(300)) and set(calls.values()) == {1}
    # the thread that called _in_threads is one of the workers
    assert outcome["caller"] in threads and len(threads) > 1


def test_in_threads_first_error_stops_the_workers(monkeypatch):
    monkeypatch.setattr(align, "_worker_count", lambda: 4)
    started = []

    def fn(task):
        started.append(task)
        if task == 5:
            raise FloatingPointError(f"task {task}")
        time.sleep(0.002)
        return task

    outcome = _in_threads_bounded(fn, list(range(400)))
    assert isinstance(outcome["error"], FloatingPointError) and str(outcome["error"]) == "task 5"
    assert len(started) < 400


def test_in_threads_tasks_run_under_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(align, "_worker_count", lambda: 4)

    def fn(task):
        time.sleep(0.002)  # long enough for every thread to take tasks
        return threading.get_ident(), np.geterr()

    with np.errstate(over="ignore", invalid="raise", divide="ignore", under="warn"):
        state = np.geterr()
        results = align._in_threads(fn, list(range(40)))
    assert len({ident for ident, _ in results}) > 1
    assert all(seen == state for _, seen in results)


def test_gwd_cost_zero_for_identical_identity_plan():
    a = np.random.default_rng(1).random((4, 4))
    obj, _ = gwd_cost(a, a, np.eye(4) / 4.0)
    assert obj == pytest.approx(0.0, abs=1e-15)


def test_gwd_coupling_independent_case():
    # A_s has unit off-diagonal, A_t all zero: every feasible coupling pays
    # the full mass of A_s, i.e. sum_{i,i'} A_s[i,i'] u_i u_{i'} = 0.5.
    a_s = np.array([[0.0, 1.0], [1.0, 0.0]])
    a_t = np.zeros((2, 2))
    u = uniform_weights(2)
    for theta in np.linspace(0.0, 0.5, 6):
        plan = np.array([[theta, 0.5 - theta], [0.5 - theta, theta]])
        obj, _ = gwd_cost(a_s, a_t, plan)
        assert obj == pytest.approx(0.5, abs=1e-12)
    res = entropic_gwd(a_s, a_t, u, u, beta=0.05, outer_iter=10, tol=1e-12)
    assert res.objective == pytest.approx(0.5, abs=1e-9)


def test_entropic_gwd_recovers_isomorphism():
    # relabeled 3-node path with distinct edge weights (rigid: no automorphisms,
    # so the optimal plan is the unique isomorphism rather than a mixture)
    path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
    sigma = np.array([2, 0, 1])
    relabeled = path[np.ix_(sigma, sigma)]
    u = uniform_weights(3)
    res = entropic_gwd(path, relabeled, u, u, beta=0.01, outer_iter=100, tol=1e-10,
                       sink_iter=3000, sink_tol=1e-9)
    assert res.objective < 1e-3
    assert exact_gwd_uniform(path, relabeled) == pytest.approx(0.0, abs=1e-15)
    # source node i couples to the target slot that carries it: sigma[j] == i
    support = np.zeros((3, 3))
    support[np.arange(3), np.argsort(sigma)] = 1.0
    assert (res.plan * (1.0 - support)).sum() < 1e-3


def test_entropic_gwd_identical_graphs():
    a = np.random.default_rng(5).random((4, 4))
    u = uniform_weights(4)
    res = entropic_gwd(a, a, u, u, beta=0.01, outer_iter=100, tol=1e-10,
                       sink_iter=3000, sink_tol=1e-9)
    assert res.objective < 1e-6
    # the core on a stack of identical problems returns one identical plan per problem
    stack = _entropic_gwd(np.stack([a] * 3), np.stack([a] * 3), u, u, 0.01, 100, 1e-10, 3000, 1e-9)
    for plan in stack.plans:
        np.testing.assert_array_equal(plan, res.plan)


def test_entropic_gwd_relabeling_invariance():
    rng = np.random.default_rng(9)
    a_s = rng.random((4, 4))
    a_t = rng.random((4, 4))
    u = uniform_weights(4)
    kwargs = dict(outer_iter=100, tol=1e-10, sink_iter=3000, sink_tol=1e-9)
    base = entropic_gwd(a_s, a_t, u, u, 0.01, **kwargs)
    sigma = rng.permutation(4)
    conj = entropic_gwd(a_s, a_t[np.ix_(sigma, sigma)], u, u, 0.01, **kwargs)
    assert base.objective == pytest.approx(conj.objective, abs=1e-6)


def test_transport_plan_marginals_feasible():
    rng = np.random.default_rng(8)
    cost = rng.random((5, 7))
    u = uniform_weights(5)
    v = rng.random(7)
    v /= v.sum()
    res = sinkhorn_wd(cost, u, v, beta=0.05, max_iter=2000, tol=1e-8)
    assert np.abs(res.plan.sum(axis=1) - u).max() < 1e-6
    assert np.abs(res.plan.sum(axis=0) - v).max() < 1e-6
    assert np.all(res.plan >= 0.0)
    # the core on a stack of identical problems returns one identical plan per problem
    stack = _sinkhorn(np.stack([cost] * 3), u, v, 0.05, 2000, 1e-8)
    for plan in stack.plans:
        np.testing.assert_array_equal(plan, res.plan)


# enumeration-based equivalence of the two alignment objectives

def test_alignment_equivalence_random_instances():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 3 if seed % 2 == 0 else 4
        assert alignment_equivalence_check(
            rng.random((n, n)), rng.random((n, 3)),
            rng.random((n, n)), rng.random((n, 3)),
        )


def test_alignment_equivalence_planted_solution():
    rng = np.random.default_rng(11)
    n = 4
    a_s = rng.random((n, n))
    x_s = rng.random((n, 3))
    planted = rng.permutation(n)
    p0 = np.zeros((n, n))
    p0[np.arange(n), planted] = 1.0
    x_t = p0 @ (a_s @ x_s)
    perms, frob, inner = enumerate_alignment_values(a_s, x_s, np.eye(n), x_t)
    best = perms[int(np.argmin(frob))]
    assert np.array_equal(best, planted)
    assert frob.min() == pytest.approx(0.0, abs=1e-18)
    assert np.array_equal(perms[int(np.argmax(inner))], planted)


def test_alignment_equivalence_trivial_n1():
    assert alignment_equivalence_check(
        np.array([[0.3]]), np.array([[1.0, 2.0]]),
        np.array([[0.7]]), np.array([[0.5, 0.1]]),
    )


def test_alignment_equivalence_rejects_mismatch():
    with pytest.raises(ValueError, match="equal node counts"):
        alignment_equivalence_check(np.eye(2), np.ones((2, 2)), np.eye(3), np.ones((3, 2)))


def test_permutation_matrices_act_by_row_selection():
    m = np.arange(9.0).reshape(3, 3)
    for sigma, p in permutation_matrices(3):
        np.testing.assert_array_equal(p @ m, m[list(sigma)])


# batch alignment against the leave-one-out reference

def _toy_batch(rng, batch=4, n=3, d=2):
    emb = Tensor(rng.random((batch, n, d)), requires_grad=True)
    raw = rng.random((batch, n, n))
    adj = Tensor(raw / raw.sum(axis=2, keepdims=True), requires_grad=True)
    return emb, adj


def test_batch_alignment_identical_windows_near_zero():
    rng = np.random.default_rng(5)
    one_emb = rng.random((3, 2)) * 2.0
    one_adj = rng.random((3, 3))
    emb = Tensor(np.stack([one_emb, one_emb.copy()]))
    adj = Tensor(np.stack([one_adj, one_adj.copy()]))
    res = batch_alignment(emb, adj, lam=0.1, beta=0.01, sink_iter=3000, sink_tol=1e-10,
                          gw_outer=100, gw_tol=1e-10)
    assert res.ga.shape == (2,)
    assert np.all(res.ga < 1e-6)


def test_batch_alignment_outlier_scores_highest():
    # one window's adjacency rows are permuted one-sidedly: its nodes now point
    # at different neighbors (a genuine rewiring, unlike a full relabeling,
    # which GWD is invariant to by construction)
    rng = np.random.default_rng(6)
    base_emb = rng.random((4, 2))
    base_adj = rng.random((4, 4))
    base_adj /= base_adj.sum(axis=1, keepdims=True)
    embs, adjs = [], []
    for k in range(6):
        embs.append(base_emb + rng.normal(0, 0.01, base_emb.shape))
        adjs.append(base_adj + rng.normal(0, 0.002, base_adj.shape))
    sigma = np.array([2, 3, 0, 1])
    adjs[2] = adjs[2][sigma, :]
    res = batch_alignment(Tensor(np.stack(embs)), Tensor(np.stack(adjs)), lam=0.1, beta=0.02)
    others = np.delete(res.ga, 2)
    assert res.ga[2] > np.median(others)


def test_batch_alignment_output_length_and_contract():
    rng = np.random.default_rng(7)
    emb, adj = _toy_batch(rng, batch=5)
    res = batch_alignment(emb, adj, lam=0.2, beta=0.05)
    assert len(res.ga) == 5
    np.testing.assert_allclose(res.ga, 0.2 * (res.wd + res.gwd), atol=1e-14)
    with pytest.raises(ValueError, match="B >= 2"):
        batch_alignment(Tensor(rng.random((1, 3, 2))), Tensor(rng.random((1, 3, 3))))


def test_batch_alignment_loss_term_matches_values():
    rng = np.random.default_rng(8)
    emb, adj = _toy_batch(rng)
    res = batch_alignment(emb, adj, lam=0.1, beta=0.05)
    assert res.loss_term.item() == pytest.approx(res.ga.mean(), rel=1e-10)
    ad.backward(res.loss_term)
    assert emb.grad is not None and np.any(emb.grad != 0.0)
    assert adj.grad is not None and np.any(adj.grad != 0.0)


def _fixed_plan_objective(emb, adj, res, lam, terms):
    """``lam/B sum_i (<P_i, cost(x_i, r_i)> + gwd_cost(A_i, R_i, Q_i))`` at the plans of ``res``."""
    batch = len(emb)
    total = 0.0
    for i in range(batch):
        if "wd" in terms:
            ref = (emb.sum(axis=0) - emb[i]) / (batch - 1)
            total += (res.wd_plans[i].plan * cost_matrix(emb[i], ref)).sum()
        if "gwd" in terms:
            ref = (adj.sum(axis=0) - adj[i]) / (batch - 1)
            total += gwd_cost(adj[i], ref, res.gwd_plans[i].plan)[0]
    return lam * total / batch


def _central_differences(func, param, entries, eps):
    flat = param.data.reshape(-1)
    out = []
    for k in entries:
        orig = flat[k]
        flat[k] = orig + eps
        hi = func()
        flat[k] = orig - eps
        lo = func()
        flat[k] = orig
        out.append((hi - lo) / (2.0 * eps))
    return np.array(out)


@pytest.mark.parametrize("terms", [("wd", "gwd"), ("wd",), ("gwd",)], ids=["full", "wd", "gwd"])
@pytest.mark.parametrize("batch, n, sample", [(4, 3, None), (4, 27, 8)], ids=["lockstep", "per-window"])
def test_batch_alignment_loss_term_gradient_matches_fixed_plan_fd(terms, batch, n, sample):
    # B N^4 = 324 takes the lockstep stack, 2.1e6 the per-window stacks; there a fixed
    # sample of entries keeps the differences quick. The gwd objective is piecewise
    # linear in the adjacencies, so a small step keeps clear of its kinks; each
    # input is differenced through the one term that depends on it, so that the
    # other term's round-off does not swamp the small step.
    rng = np.random.default_rng(20 + n)
    emb, adj = _toy_batch(rng, batch=batch, n=n)
    lam = 0.1
    res = batch_alignment(emb, adj, lam=lam, beta=0.05, terms=terms)
    assert res.loss_term.item() == pytest.approx(
        _fixed_plan_objective(emb.data, adj.data, res, lam, terms), rel=1e-12)
    ad.backward(res.loss_term)
    for param, term in ((emb, "wd"), (adj, "gwd")):
        if term not in terms:
            assert param.grad is None
            continue
        size = param.data.size
        entries = np.arange(size) if sample is None else np.random.default_rng(0).choice(size, sample, False)
        numeric = _central_differences(
            lambda: _fixed_plan_objective(emb.data, adj.data, res, lam, (term,)), param, entries, eps=1e-7)
        assert relative_error(param.grad.reshape(-1)[entries], numeric) < 1e-6


def test_batch_alignment_loss_term_is_one_tape_node():
    rng = np.random.default_rng(10)
    sizes = []
    for batch in (4, 8):
        emb, adj = _toy_batch(rng, batch=batch)
        res = batch_alignment(emb, adj, lam=0.1, beta=0.05)
        sizes.append(len(ad._topo_order(res.loss_term)))
    assert sizes == [3, 3]  # the loss node and its two leaves


def test_batch_alignment_loss_term_has_one_rule_per_enabled_term():
    rng = np.random.default_rng(10)
    emb, adj = _toy_batch(rng)
    assert batch_alignment(emb, adj, terms=("wd",)).loss_term._parents == (emb,)
    assert batch_alignment(emb, adj, terms=("gwd",)).loss_term._parents == (adj,)
    assert batch_alignment(emb, adj).loss_term._parents == (emb, adj)
    # the one enabled term's input is a constant: nothing to differentiate, nothing recorded
    constant = batch_alignment(Tensor(emb.data), adj, terms=("wd",)).loss_term
    assert not constant.requires_grad and constant._parents == ()
    ad.backward(batch_alignment(emb, adj, terms=("gwd",)).loss_term)
    assert emb.grad is None and adj.grad is not None


def test_batch_alignment_term_selection():
    rng = np.random.default_rng(9)
    emb, adj = _toy_batch(rng)
    wd_only = batch_alignment(emb, adj, lam=0.1, beta=0.05, terms=("wd",))
    assert np.all(wd_only.gwd == 0.0)
    gwd_only = batch_alignment(emb, adj, lam=0.1, beta=0.05, terms=("gwd",))
    assert np.all(gwd_only.wd == 0.0)
    both = batch_alignment(emb, adj, lam=0.1, beta=0.05)
    np.testing.assert_allclose(both.wd, wd_only.wd, atol=1e-12)
    np.testing.assert_allclose(both.gwd, gwd_only.gwd, atol=1e-12)


def test_batch_alignment_stack_of_one_route_matches_single_solves():
    # B * N^4 = 2 * 32^4 > 2e6, so the batch takes the active-set route; N = 32 takes the
    # factorized GW pseudo-cost (N^4 > 250k), whose tables fit 7 windows to a stack, so
    # both windows form one stack, each stopping by its own rule
    rng = np.random.default_rng(12)
    emb = rng.random((2, 32, 3))
    raw = rng.random((2, 32, 32))
    adj = raw / raw.sum(axis=2, keepdims=True)
    res = batch_alignment(Tensor(emb), Tensor(adj), lam=0.1, beta=0.05)
    u = uniform_weights(32)
    for i in range(2):
        wd = sinkhorn_wd(cost_matrix(emb[i], emb.sum(axis=0) - emb[i]), u, u, 0.05)
        np.testing.assert_array_equal(res.wd_plans[i].plan, wd.plan)
        assert res.wd[i] == wd.objective
        gwd = entropic_gwd(adj[i], adj.sum(axis=0) - adj[i], u, u, 0.05)
        np.testing.assert_array_equal(res.gwd_plans[i].plan, gwd.plan)
        assert res.gwd[i] == gwd.objective
