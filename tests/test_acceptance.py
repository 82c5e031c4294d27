"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The detection block (criteria 6/7/9) uses the desk-scale
protocol DESK below: the values the criteria pin (channels, length, one
120-step interdependency-shift interval, one spike interval, window 40,
stride 10, batch 16, 10 epochs, 5 seeds) are fixed verbatim; the remaining
knobs are the desk-scale defaults of this artifact (learning rate and
encoder output gain raised because 10 epochs x 7 batches = 70 optimizer
steps, far fewer than a full-scale run; the full-scale defaults stay at
the published values).
"""

import hashlib
import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from tsgad import autodiff as ad
from tsgad.dataio import synth_generate, split_normalize
from tsgad.flow import forward, gaussian_log_density, init_flow, inverse, log_prob
from tsgad.oracles import equivalence_suite, gradient_suite, gwd_suite, sinkhorn_suite
from tsgad.train import (
    TrainConfig,
    auc_roc,
    iqr_threshold,
    quartiles,
    score,
    train,
)

DESK = {
    "seeds": (7, 11, 23, 37, 51),
    "channels": 5,
    "length": 2000,
    "shift": (1400, 1520),  # 120 steps, inside the test split
    "spike": (1650, 1710),
    "noise": 0.05,
    "config": dict(
        window=40, stride=10, batch_size=16, epochs=10,
        learning_rate=0.01, encoder_out_scale=8.0,
    ),
}


def _announce(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion}] {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_alignment_equivalence():
    t0 = time.time()
    suite = equivalence_suite(seeds=100, sizes=(3, 4))
    elapsed = time.time() - t0
    _announce(
        1,
        suite["passed"] and elapsed < 10.0,
        f"{suite['checks']} enumerated instances, {len(suite['failures'])} failures, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_sinkhorn_vs_exact():
    t0 = time.time()
    suite = sinkhorn_suite(seeds=50, beta=0.005, rel_tol=0.02)
    elapsed = time.time() - t0
    _announce(
        2,
        suite["passed"] and elapsed < 30.0,
        f"50 problems, worst relative gap {suite['max_deviation']:.3%} (< 2%), "
        f"marginals < 1e-6, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_gwd_isomorphism():
    suite = gwd_suite(seeds=20, beta=0.01, obj_tol=1e-3)
    _announce(
        3,
        suite["passed"],
        f"20 isomorphic pairs at beta=0.01 all < 1e-3; path-vs-star separation held "
        f"({len(suite['failures'])} failures)",
    )


def test_criterion_4_gradient_integrity():
    t0 = time.time()
    suite = gradient_suite()
    elapsed = time.time() - t0
    _announce(
        4,
        suite["passed"] and elapsed < 60.0,
        f"attention/encoder/flow at 1e-4, batch alignment loss envelope at 1e-2; "
        f"worst {suite['max_deviation']:.2e}, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_flow_correctness():
    rng = np.random.default_rng(0)
    identity = init_flow(6, 3, n_layers=2)
    worst_density_gap = 0.0
    for _ in range(20):
        x = rng.normal(size=6)
        c = rng.normal(size=3)
        got = log_prob(x, c, identity).item()
        worst_density_gap = max(worst_density_gap, abs(got - gaussian_log_density(x)))
    assert worst_density_gap < 1e-10

    one_dim = init_flow(1, 2, n_layers=2, rng=np.random.default_rng(1), scale=0.3)
    grid = np.linspace(-30.0, 30.0, 6001)
    cond = np.array([0.3, -0.6])
    with ad.no_grad():
        density = np.array([np.exp(log_prob(np.array([g]), cond, one_dim).item()) for g in grid])
    integral = float(np.trapezoid(density, grid))
    assert abs(integral - 1.0) < 1e-3

    model = init_flow(8, 3, n_layers=2, rng=np.random.default_rng(2), scale=0.3)
    x = rng.normal(size=(500, 8))
    c = rng.normal(size=(500, 3))
    z, _ = forward(x, c, model)
    round_trip = float(np.abs(inverse(z.data, c, model) - x).max())
    assert round_trip < 1e-8
    _announce(
        5,
        True,
        f"identity density gap {worst_density_gap:.1e} (< 1e-10), T=1 integral {integral:.6f} "
        f"(1 +- 1e-3), inverse round trip {round_trip:.1e} (< 1e-8)",
    )


# ---------------------------------------------------------------------------
# detection block (criteria 6, 7, 9)


def _make_dataset(seed):
    return synth_generate(
        DESK["channels"],
        DESK["length"],
        [("interdependency_shift", *DESK["shift"]), ("spike", *DESK["spike"])],
        seed=seed,
        noise=DESK["noise"],
    )


def _run_detection(seed, ablation):
    train_ds, test_ds = split_normalize(_make_dataset(seed), 0.6)
    cfg = TrainConfig(seed=seed, ablation=ablation, **DESK["config"])
    result = train(train_ds, cfg)
    report = score(test_ds, result.checkpoint)
    return result, report


# a small factorized-route run: N = 23 (n^2 m^2 > 250k), and B N^4 > 2e6 with batches
# of 20 windows, so each batch is cut into active-set stacks of 19 and 1 run on threads
FACTORIZED = {
    "channels": 23,
    "length": 400,
    "anomalies": [("interdependency_shift", 300, 340), ("spike", 360, 380)],
    "config": dict(window=8, stride=8, batch_size=20, epochs=1, learning_rate=0.01, encoder_out_scale=8.0),
}


def _run_factorized():
    data = synth_generate(FACTORIZED["channels"], FACTORIZED["length"], FACTORIZED["anomalies"], seed=7,
                          noise=DESK["noise"])
    train_ds, test_ds = split_normalize(data, 0.6)
    result = train(train_ds, TrainConfig(seed=7, **FACTORIZED["config"]))
    return result, score(test_ds, result.checkpoint)


@pytest.fixture(scope="module")
def detection_runs():
    t0 = time.time()
    runs = {}
    for ablation in ("full", "no_wd", "no_gwd", "no_ga"):
        for seed in DESK["seeds"]:
            runs[(ablation, seed)] = _run_detection(seed, ablation)
    runs["elapsed"] = time.time() - t0
    return runs


def test_criterion_6_desk_scale_detection(detection_runs):
    means, per_seed = {}, []
    for ablation in ("full", "no_wd", "no_gwd", "no_ga"):
        aucs = [detection_runs[(ablation, s)][1].auc for s in DESK["seeds"]]
        means[ablation] = float(np.mean(aucs))
        per_seed.append(f"{ablation} " + " ".join(f"{auc:.4f}" for auc in aucs))
    elapsed = detection_runs["elapsed"]
    ok = (
        means["full"] >= 0.85
        and means["full"] > means["no_wd"]
        and means["full"] > means["no_gwd"]
        and means["full"] >= means["no_ga"] + 0.03
        and elapsed < 600.0
    )
    _announce(
        6,
        ok,
        "seed-averaged AUC full={full:.4f} (>= 0.85), no_wd={no_wd:.4f}, no_gwd={no_gwd:.4f}, "
        "no_ga={no_ga:.4f} (full - no_ga = {gap:.4f} >= 0.03), runtime {t:.0f}s (< 600s); "
        "margins full - 0.85 = {m1:+.4f}, (full - no_ga) - 0.03 = {m2:+.4f}; AUC per seed {seeds}: {rows}".format(
            gap=means["full"] - means["no_ga"], t=elapsed, m1=means["full"] - 0.85,
            m2=means["full"] - means["no_ga"] - 0.03, seeds=DESK["seeds"], rows="; ".join(per_seed), **means
        ),
    )


def test_criterion_7_interdependency_shift_visibility(detection_runs):
    ratios = []
    for seed in DESK["seeds"]:
        # the graphs each test window was scored with
        _, report = detection_runs[("full", seed)]
        normal = report.adjacency[report.labels == 0]
        anomalous = report.adjacency[report.labels == 1]
        gap_anom = np.abs(anomalous.mean(axis=0) - normal.mean(axis=0)).mean()
        gap_normal = np.abs(normal[0::2].mean(axis=0) - normal[1::2].mean(axis=0)).mean()
        ratios.append(gap_anom / max(gap_normal, 1e-12))
    ratio = float(np.mean(ratios))
    _announce(
        7,
        ratio >= 1.5,
        f"mean adjacency gap anomalous-vs-normal exceeds normal-vs-normal by {ratio:.2f}x (>= 1.5x, "
        f"margin {ratio - 1.5:+.2f}); per seed {', '.join(f'{r:.2f}' for r in ratios)}",
    )


GOLDEN = Path(__file__).with_name("golden.json")
GOLDEN_ARRAYS = ("scores", "d_ga", "nll", "adjacency")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _fingerprint():
    """The numpy version, the BLAS, and the CPU model and vector extensions (which pick BLAS kernels)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                cpu.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu.get("model name") or platform.processor(),
            "simd": sorted(set(cpu.get("flags", "").split()) & {"sse4_2", "avx", "avx2", "fma", "avx512f"})}


def _golden_record(result, report):
    """sha256 of a run's checkpoint JSON, loss curve and scored arrays, plus its scores."""
    digests = {"checkpoint": _sha256(json.dumps(result.checkpoint, sort_keys=True).encode()),
               "loss_curve": _sha256(json.dumps(result.loss_curve).encode())}
    digests |= {name: _sha256(np.ascontiguousarray(getattr(report, name), dtype="<f8").tobytes())
                for name in GOLDEN_ARRAYS}
    return {"sha256": digests, "scores": report.scores.tolist()}


def _golden_runs(detection_runs):
    runs = {f"{ablation}/{seed}": detection_runs[(ablation, seed)]
            for ablation in ("full", "no_wd", "no_gwd", "no_ga") for seed in DESK["seeds"]}
    runs["factorized/7"] = _run_factorized()
    return runs


def test_outputs_match_golden(detection_runs):
    """Every criterion-6 run and a factorized threaded run reproduce their recorded bits.

    On the numpy, BLAS and CPU ``golden.json`` was recorded with, every hash
    must match; elsewhere rounding may differ, so the scores must agree to
    1e-9 relative. ``PYTHONPATH=src python tests/test_acceptance.py`` rewrites the file.
    """
    golden = json.loads(GOLDEN.read_text())
    same_platform = golden["fingerprint"] == _fingerprint()
    runs = _golden_runs(detection_runs)
    assert sorted(runs) == sorted(golden["runs"])
    for name, run in runs.items():
        got, want = _golden_record(*run), golden["runs"][name]
        if same_platform:
            assert got["sha256"] == want["sha256"], name
        else:
            np.testing.assert_allclose(got["scores"], want["scores"], rtol=1e-9, atol=0.0, err_msg=name)
    _announce("golden", True, f"{len(runs)} runs {'bit-identical' if same_platform else 'within 1e-9'} "
                              f"to {GOLDEN.name}")


def test_criterion_8_threshold_and_auc_units():
    q1, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8])
    threshold = iqr_threshold([1, 2, 3, 4, 5, 6, 7, 8])
    auc = auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    ok = q1 == 2.75 and q3 == 6.25 and threshold == 11.5 and auc == 0.75
    _announce(
        8,
        ok,
        f"quartiles ({q1}, {q3}) -> threshold {threshold} (exact 11.5); worked AUC example {auc} (exact 0.75)",
    )


# the files criterion 9's CLI run writes, by golden.json key (the manifests hold timings)
CLI_FILES = {"series": "{}.csv", "checkpoint": "{}.ckpt.json", "loss_curve": "{}.ckpt.json.loss.csv",
             "scores": "{}.scores.csv", "summary": "{}.summary.json"}


def _cli_run(directory, tag):
    """The seed-7 DESK pipeline through ``main`` (synth, train, eval); the sha256 of each file in CLI_FILES."""
    from tsgad.cli import main

    seed = DESK["seeds"][0]
    cfg = DESK["config"]
    data = directory / f"{tag}.csv"
    ckpt = directory / f"{tag}.ckpt.json"
    assert main([
        "synth", "--channels", str(DESK["channels"]), "--length", str(DESK["length"]),
        "--shift", "{}:{}".format(*DESK["shift"]), "--spike", "{}:{}".format(*DESK["spike"]),
        "--noise", str(DESK["noise"]), "--seed", str(seed), "--out", str(data),
    ]) == 0
    assert main([
        "train", "--data", str(data), "--out", str(ckpt), "--seed", str(seed),
        "--window", str(cfg["window"]), "--stride", str(cfg["stride"]),
        "--batch", str(cfg["batch_size"]), "--epochs", str(cfg["epochs"]),
        "--lr", str(cfg["learning_rate"]), "--encoder-out-scale", str(cfg["encoder_out_scale"]),
    ]) == 0
    assert main([
        "eval", "--data", str(data), "--checkpoint", str(ckpt),
        "--out-prefix", str(directory / tag),
    ]) == 0
    return {key: _sha256((directory / name.format(tag)).read_bytes()) for key, name in CLI_FILES.items()}


def test_criterion_9_pipeline_determinism(tmp_path):
    """Two identical-seed CLI runs write the same files, and on the platform of
    ``golden.json`` the same files as the recorded run."""
    digests = [_cli_run(tmp_path, tag) for tag in ("a", "b")]
    golden = json.loads(GOLDEN.read_text())
    if golden["fingerprint"] == _fingerprint():
        assert digests[0] == golden["cli/7"]
    _announce(
        9,
        digests[0] == digests[1],
        f"two identical-seed pipeline runs wrote byte-identical {', '.join(CLI_FILES)} files",
    )


if __name__ == "__main__":
    runs = {(ablation, seed): _run_detection(seed, ablation)
            for ablation in ("full", "no_wd", "no_gwd", "no_ga") for seed in DESK["seeds"]}
    records = {name: _golden_record(*run) for name, run in _golden_runs(runs).items()}
    with tempfile.TemporaryDirectory() as tmp:
        cli = _cli_run(Path(tmp), "a")
    GOLDEN.write_text(json.dumps({"fingerprint": _fingerprint(), "runs": records, "cli/7": cli}, indent=1) + "\n")
