"""Tests for the benchmark's tracer: self time, the autodiff mode tag, restoring names."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))  # also under --import-mode=importlib
import run  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

MODS = run.load_pipeline()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 1.0

    def inner():
        clock.now += 2.0
        traced_leaf()

    def outer():
        clock.now += 4.0
        traced_inner()
        traced_inner()
        clock.now += 8.0

    def failing():
        clock.now += 16.0
        raise ValueError

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    with pytest.raises(ValueError):
        tracer.wrap("failing", failing)()

    totals = tracer.totals()
    assert totals["outer"] == {"busy_s": 18.0, "self_s": 12.0, "calls": 1}
    assert totals["inner"] == {"busy_s": 6.0, "self_s": 4.0, "calls": 2}
    assert totals["leaf"] == {"busy_s": 2.0, "self_s": 2.0, "calls": 2}
    assert totals["failing"] == {"busy_s": 16.0, "self_s": 16.0, "calls": 1}
    assert [parent for *_, parent in tracer.spans] == [-1, 0, 1, 0, 3, -1]


def test_mode_tag_follows_no_grad():
    train_mod, autodiff = MODS["train"], MODS["autodiff"]
    config = train_mod.TrainConfig(window=10, stride=5, batch_size=4, epochs=1, hidden=4,
                                   d_step=2, seed=1)
    train_ds, _ = MODS["dataio"].split_normalize(
        MODS["dataio"].synth_generate(3, 120, seed=1), 0.6)
    tracer = Tracer()
    targets = [Target("tsgad.align", "batch_alignment", tagged=True),
               Target("tsgad.encoder", "encode_batch", tagged=True)]
    with tracer.installed(targets):
        train_mod.train(train_ds, config)
        with autodiff.no_grad():
            assert not autodiff._grad_enabled  # the rebound no_grad still stops the tape
    assert autodiff._grad_enabled

    totals = tracer.totals()
    steps = 13 // 4  # 13 training windows, full batches only
    assert totals["align.batch_alignment.grad"]["calls"] == steps
    assert totals["encoder.encode_batch.grad"]["calls"] == steps
    # threshold scoring: 3 passes over 4 batches, all inside no_grad
    assert totals["align.batch_alignment.nograd"]["calls"] == 3 * 4
    assert totals["encoder.encode_batch.nograd"]["calls"] == 3 * 4


def _tsgad_names():
    names = {(name, key): value for name, module in sys.modules.items()
             if name == "tsgad" or name.startswith("tsgad.")
             for key, value in vars(module).items()}
    names["Adam.step"] = MODS["train"].Adam.step
    return names


def test_originals_restored_after_run():
    before = _tsgad_names()
    with pytest.raises(RuntimeError):
        with Tracer().installed(run.SPAN_TARGETS):
            assert MODS["train"].batch_alignment is not before[("tsgad.train", "batch_alignment")]
            assert MODS["align"].sinkhorn_wd is not before[("tsgad.align", "sinkhorn_wd")]
            assert MODS["train"].Adam.step is not before["Adam.step"]
            assert MODS["autodiff"].no_grad is not before[("tsgad.autodiff", "no_grad")]
            raise RuntimeError("the run fails; the originals must still come back")
    after = _tsgad_names()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_benchmark_json_names_what_run_reports():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [m["unit"] for m in spec["per_layer"]] == list(map(run.per_layer_unit, run.per_layer_names()))
