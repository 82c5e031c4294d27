"""tsgad benchmark: train + score end to end on fixed synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload desk_full --seed 7 --seconds 8 --trace 0
    python3 perfbench/run.py --seed 7    # every workload, each in a fresh process

Each workload is a closed loop with one client: an operation is ``train()``
on the training split followed by ``score()`` on the test split, and the
next operation starts when the previous one has finished. Operations start
until ``--seconds`` have passed (at least one runs). The training split is
fixed (the first 60% of the ``synth_generate`` series for ``DATA_SEED``, as
cut by ``split_normalize``); ``--seed`` redraws the noise of the test split.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the pipeline's public module-level names are rebound to timing
wrappers (see ``tracer.py``) and the last line reports per-layer metrics.
Either way every operation's output is checked (see ``check_report``); an
operation that raises or fails a check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import STATS, Target, Tracer, wrapper_cost

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

# The desk workloads are the acceptance protocol (DESK in
# tests/test_acceptance.py); paper_n25 is PSM's channel count at the paper's
# window and batch, sized so the training split is exactly one batch of 256
# windows (and the test split 168). Its B * N**4 = 1e8 routes alignment
# through the per-window fallback, which the desk workloads never reach.
# Anomalies sit at [0.70L, 0.76L) (interdependency shift) and
# [0.825L, 0.855L) (spike), truncated to whole steps.
WORKLOADS = {
    "desk_full": dict(channels=5, length=2000, shift=(1400, 1520), spike=(1650, 1710),
                      window=40, batch_size=16, epochs=10, ablation="full"),
    "desk_no_ga": dict(channels=5, length=2000, shift=(1400, 1520), spike=(1650, 1710),
                       window=40, batch_size=16, epochs=10, ablation="no_ga"),
    "paper_n25": dict(channels=25, length=4384, shift=(3068, 3331), spike=(3616, 3748),
                      window=80, batch_size=256, epochs=1, ablation="full"),
}
COMMON_CONFIG = dict(stride=10, learning_rate=0.01, encoder_out_scale=8.0)
# train() runs on fixed inputs because its cost is a chaotic function of them
# (batch-wide solver convergence): redrawing the series noise or the training
# seed moved desk_full train_s over 8.7-11.5 s and 12-20 s, and score_s over
# 0.55-2.0 s, reproducibly per seed. With the training split fixed, the
# seed-drawn test noise moved score_s over 1.43-1.79 s (seeds 1-5).
DATA_SEED = 7  # series and training seed: the acceptance protocol's first seed
NOISE = 0.05
SPLIT = 0.6
# setup_s is the median over data generations repeated for this long, so that the
# median spans the machine's short speed changes (one generation takes ~1-9 ms)
SETUP_SECONDS = 2.0
# Untraced operations repeat score() on their checkpoint until this much scoring
# time has passed, so a short score() (0.08 s on desk_no_ga) gets enough samples
# for a steady median. Traced operations score once, so that per-layer metrics
# stay per train() + score().
SCORE_MIN_S = 2.0
AUC_TOLERANCE = 1e-6  # against the recorded value of the unmodified program

# spans named module.function, suffixed .grad/.nograd where tagged
SPAN_TARGETS = (
    Target("tsgad.dataio", "synth_generate"),
    Target("tsgad.dataio", "split_normalize"),
    Target("tsgad.dataio", "window_table"),
    Target("tsgad.train", "train"),
    Target("tsgad.train", "score"),
    Target("tsgad.train", "Adam.step"),
    Target("tsgad.graph", "attention_adjacency", tagged=True),
    Target("tsgad.encoder", "encode_batch", tagged=True),
    Target("tsgad.flow", "batch_log_likelihood", tagged=True),
    Target("tsgad.flow", "log_prob", tagged=True),
    Target("tsgad.align", "batch_alignment", tagged=True),
    Target("tsgad.align", "entropic_gwd"),
    Target("tsgad.align", "sinkhorn_wd"),
    Target("tsgad.align", "gwd_cost"),
    Target("tsgad.autodiff", "backward"),
)
SETUP_SPANS = ("dataio.synth_generate", "dataio.split_normalize")
SOLVER_METRICS = (
    "align.wd.iterations_mean", "align.wd.cap_hits", "align.wd.converged_ratio",
    "align.gwd.outer_iterations_mean", "align.gwd.cap_hits", "align.gwd.converged_ratio",
    "align.marginal_error_max",
)


def span_names():
    for target in SPAN_TARGETS:
        yield from ((f"{target.name}.grad", f"{target.name}.nograd") if target.tagged
                    else (target.name,))


def per_layer_names():
    names = [f"{span}.{stat}" for span in span_names() for stat in STATS]
    return names + list(SOLVER_METRICS) + ["encoder.nograd.windows_per_distinct",
                                           "trace.overhead_ratio"]


END_TO_END = {"setup_s": "s", "train_s": "s", "score_s": "s", "peak_rss_mb": "MB", "auc": "1"}


# ---------------------------------------------------------------------------
# environment


def limit_blas_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def load_pipeline():
    """Import tsgad from this checkout's ``src``; raise ImportError if it is not there."""
    src = ROOT / "src"
    if not (src / "tsgad" / "__init__.py").is_file():
        raise ImportError(f"no tsgad sources under {src}")
    sys.path.insert(0, str(src))
    # ``tsgad.train`` as an attribute is the re-exported function, so import the modules
    modules = {name: importlib.import_module(f"tsgad.{name}")
               for name in ("dataio", "train", "align", "autodiff")}
    if not Path(modules["train"].__file__).resolve().is_relative_to(src):
        raise ImportError(f"tsgad was imported from outside {src}")
    return modules


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(nproc, numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# workload inputs and output checks


def noisy_test_split(dataio, spec, seed, numpy):
    """Test-split values: the noise-free DATA_SEED series plus noise drawn from ``seed``."""
    clean = dataio.synth_generate(spec["channels"], spec["length"], anomaly_spec(spec),
                                  seed=DATA_SEED, noise=0.0)
    cut = int(clean.length * SPLIT)
    noise = numpy.random.default_rng(seed).normal(0.0, NOISE, size=clean.values[cut:].shape)
    return clean.values[cut:] + noise


def anomaly_spec(spec):
    return [("interdependency_shift", *spec["shift"]), ("spike", *spec["spike"])]


def make_inputs(dataio, spec, noisy_test, clock=None):
    """Training split: the fixed DATA_SEED series. Test split: ``noisy_test``.

    ``clock(fn, *args)``, when given, runs and times the program's own calls;
    splicing in the test split is not timed.
    """
    clock = clock or (lambda fn, *args, **kwargs: fn(*args, **kwargs))
    series = clock(dataio.synth_generate, spec["channels"], spec["length"], anomaly_spec(spec),
                   seed=DATA_SEED, noise=NOISE)
    series.values[int(series.length * SPLIT):] = noisy_test
    return clock(dataio.split_normalize, series, SPLIT)


def train_config(train_mod, spec):
    return train_mod.TrainConfig(
        seed=DATA_SEED, ablation=spec["ablation"], window=spec["window"],
        batch_size=spec["batch_size"], epochs=spec["epochs"], **COMMON_CONFIG,
    )


def reference_auc(workload, seed):
    """AUC the unmodified program gave for this seed, or None if none was recorded."""
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["auc"].get(workload, {}).get(str(seed))


def pairwise_auc(scores, labels):
    """AUC from all positive/negative pairs, ties counting one half."""
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    return float((pos > neg).mean() + 0.5 * (pos == neg).mean())


def check_report(numpy, report, expected_auc):
    """Problems with one score() result; empty when it is correct."""
    problems = []
    if not numpy.all(numpy.isfinite(report.scores)):
        problems.append(f"{int((~numpy.isfinite(report.scores)).sum())} non-finite scores")
    if report.auc is None or not numpy.isfinite(report.auc):
        return problems + [f"AUC undefined: {report.auc}"]
    recomputed = pairwise_auc(report.scores, report.labels)
    if abs(recomputed - report.auc) > 1e-12:
        problems.append(f"reported AUC {report.auc} but pairs give {recomputed}")
    if expected_auc is not None and abs(report.auc - expected_auc) > AUC_TOLERANCE:
        problems.append(f"AUC {report.auc} differs from the recorded {expected_auc}")
    return problems


# ---------------------------------------------------------------------------
# counters fed from traced calls


class SolverCounts:
    """Sinkhorn and GW solver counts from each ``BatchAlignment`` returned, per phase."""

    def __init__(self, batch_alignment):
        self.signature = inspect.signature(batch_alignment)
        self.phase = None
        self.by_phase = {}

    def __call__(self, args, kwargs, result, mode):
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        caps = {"wd": bound.arguments["sink_iter"], "gwd": bound.arguments["gw_outer"]}
        acc = self.by_phase.setdefault(self.phase, empty_counts())
        for kind, plans in (("wd", result.wd_plans), ("gwd", result.gwd_plans)):
            for plan in plans:
                acc[f"{kind}.plans"] += 1
                acc[f"{kind}.iterations"] += plan.iterations
                acc[f"{kind}.cap_hits"] += plan.iterations >= caps[kind]
                acc[f"{kind}.converged"] += bool(plan.converged)
                acc["marginal_error_max"] = max(acc["marginal_error_max"], plan.marginal_error)


def empty_counts():
    counts = {f"{kind}.{stat}": 0 for kind in ("wd", "gwd")
              for stat in ("plans", "iterations", "cap_hits", "converged")}
    counts["marginal_error_max"] = 0.0
    return counts


def solver_metrics(phases, ops):
    total = empty_counts()
    for counts in phases:
        for key, value in counts.items():
            total[key] = max(total[key], value) if key == "marginal_error_max" else total[key] + value
    wd, gwd = max(total["wd.plans"], 1), max(total["gwd.plans"], 1)
    return {
        "align.wd.iterations_mean": total["wd.iterations"] / wd,
        "align.wd.cap_hits": total["wd.cap_hits"] / ops,
        "align.wd.converged_ratio": total["wd.converged"] / wd,
        "align.gwd.outer_iterations_mean": total["gwd.iterations"] / gwd,
        "align.gwd.cap_hits": total["gwd.cap_hits"] / ops,
        "align.gwd.converged_ratio": total["gwd.converged"] / gwd,
        "align.marginal_error_max": total["marginal_error_max"],
    }


class WindowCounter:
    """Windows the encoder runs without a tape, against how many of them are distinct."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.encoded = 0
        self.distinct = set()

    def __call__(self, args, kwargs, result, mode):
        if mode == "nograd":
            for window in args[0]:
                self.encoded += 1
                self.distinct.add(hashlib.blake2b(window.tobytes(), digest_size=16).digest())

    def ratio(self):
        return self.encoded / len(self.distinct) if self.distinct else 0.0


# ---------------------------------------------------------------------------
# the run


def run(workload, seed, seconds, trace, mods, numpy, expected_auc):
    spec = WORKLOADS[workload]
    dataio, train_mod = mods["dataio"], mods["train"]
    config = train_config(train_mod, spec)
    tracer = Tracer()
    solver = SolverCounts(mods["align"].batch_alignment)
    windows = WindowCounter()
    hooks = {"batch_alignment": solver, "encode_batch": windows}
    targets = [dataclasses.replace(target, after=hooks.get(target.qualname))
               for target in SPAN_TARGETS]
    times = {"setup_s": [], "train_s": [], "score_s": []}
    setup_elapsed = 0.0
    aucs, window_ratios = [], []
    attempted = failed = 0
    first = last = None  # (checkpoint, scores, train counts, score counts) of good operations

    def timed(key, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            times[key].append(time.perf_counter() - t0)

    def clock(fn, *args, **kwargs):
        nonlocal setup_elapsed
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            setup_elapsed += time.perf_counter() - t0

    noisy_test = noisy_test_split(dataio, spec, seed, numpy)  # harness work, before tracing
    with tracer.installed(targets) if trace else contextlib.nullcontext():
        setup_until = time.perf_counter() + SETUP_SECONDS
        while not times["setup_s"] or time.perf_counter() < setup_until:
            setup_elapsed = 0.0
            train_ds, test_ds = make_inputs(dataio, spec, noisy_test, clock)
            times["setup_s"].append(setup_elapsed)
        setups = len(times["setup_s"])
        setup_totals = tracer.totals()
        tracer.spans.clear()
        tracer.hook_s = 0.0
        deadline = time.perf_counter() + seconds
        while attempted == 0 or time.perf_counter() < deadline:
            op = attempted
            attempted += 1
            windows.reset()
            gc.collect()  # start each operation from a collected heap
            try:
                solver.phase = (op, "train")
                result = timed("train_s", train_mod.train, train_ds, config)
                solver.phase = (op, "score")
                scoring_from = time.perf_counter()
                report = timed("score_s", train_mod.score, test_ds, result.checkpoint)
                problems = check_report(numpy, report, expected_auc)
                while not trace and time.perf_counter() - scoring_from < SCORE_MIN_S:
                    again = timed("score_s", train_mod.score, test_ds, result.checkpoint)
                    if not numpy.array_equal(again.scores, report.scores, equal_nan=True):
                        problems.append("scoring the same checkpoint again gave other scores")
                        break
                outcome = (result.checkpoint, report.scores,
                           solver.by_phase.get((op, "train")), solver.by_phase.get((op, "score")))
                first = first or outcome
                if not (numpy.array_equal(outcome[1], first[1], equal_nan=True)
                        and outcome[2:] == first[2:]):
                    problems.append("scores or solver counts differ from the first operation's")
            except Exception:  # an operation that raises is a failed one; keep measuring
                traceback.print_exc()
                problems = ["raised"]
            window_ratios.append(windows.ratio())
            if problems:
                failed += 1
                print(f"operation {op} failed: {'; '.join(problems)}", file=sys.stderr)
            else:
                aucs.append(report.auc)
                last = outcome
        ops = attempted
        op_totals = tracer.totals()
        # the tracer's own cost: calls into the wrappers plus the counting hooks
        overhead_s = wrapper_cost() * len(tracer.spans) + tracer.hook_s if trace else 0.0
        if trace and last is not None:
            # determinism: scoring the same checkpoint again repeats every solver count
            solver.phase = "repeat"
            try:
                report = train_mod.score(test_ds, last[0])
                repeated = (numpy.array_equal(report.scores, last[1], equal_nan=True)
                            and solver.by_phase.get("repeat") == last[3])
            except Exception:
                traceback.print_exc()
                repeated = False
            if not repeated:
                failed += 1
                print("repeated score() gave other scores or solver counts", file=sys.stderr)

    if not trace:
        values = {key: statistics.median(vals) if vals else None for key, vals in times.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["auc"] = statistics.median(aucs) if aucs else None
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        values = {}
        for name in span_names():
            totals, per = (setup_totals, setups) if name in SETUP_SPANS else (op_totals, ops)
            for stat in STATS:
                values[f"{name}.{stat}"] = totals.get(name, {}).get(stat, 0) / per
        values.update(solver_metrics(
            [counts for phase, counts in solver.by_phase.items() if phase != "repeat"], ops))
        values["encoder.nograd.windows_per_distinct"] = statistics.median(window_ratios)
        traced_wall = sum(times["train_s"]) + sum(times["score_s"])
        values["trace.overhead_ratio"] = overhead_s / max(traced_wall - overhead_s, 1e-9)
        metrics = {name: {"value": values[name], "unit": per_layer_unit(name)}
                   for name in per_layer_names()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".cap_hits")):
        return "count"
    return "1"


def run_all(args):
    """Every workload in turn, each in a fresh interpreter so peak RSS stays per workload."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def prepare():
    """Cap BLAS threads, then import tsgad and numpy: (nproc, modules, numpy)."""
    nproc = limit_blas_threads()
    mods = load_pipeline()
    import numpy

    return nproc, mods, numpy


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)

    try:
        nproc, mods, numpy = prepare()
    except ImportError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    expected_auc = reference_auc(args.workload, args.seed)
    env = dict(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               reference_auc=expected_auc, **environment(nproc, numpy))
    print(json.dumps({"environment": env}), flush=True)
    if expected_auc is None:
        print(f"no AUC recorded for {args.workload} seed {args.seed} in {REFERENCE_FILE.name}: "
              "the comparison with the unmodified program is skipped", file=sys.stderr)
    result = run(args.workload, args.seed, args.seconds, args.trace, mods, numpy, expected_auc)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
