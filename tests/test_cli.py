import argparse
import base64
import hashlib
import json
import warnings
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from tsgad import cli, oracles
from tsgad.cli import _add_train_config_flags, build_parser, main
from tsgad.dataio import read_series
from tsgad.graph import read_adjacency_export
from tsgad.train import ABLATIONS, TrainConfig, load_checkpoint

FAST_TRAIN = [
    "--window", "20", "--stride", "5", "--batch", "4", "--epochs", "1",
    "--hidden", "6", "--d-step", "2",
]


def _synth(tmp_path, name="data.csv", seed="3", extra=()):
    out = tmp_path / name
    code = main([
        "synth", "--channels", "4", "--length", "400",
        "--shift", "250:300", "--spike", "320:340",
        "--seed", seed, "--out", str(out), *extra,
    ])
    assert code == 0
    return out


def _train(tmp_path, data, name="model.ckpt.json", seed="3"):
    ckpt = tmp_path / name
    code = main(["train", "--data", str(data), "--out", str(ckpt), "--seed", seed, *FAST_TRAIN])
    assert code == 0
    return ckpt


def test_synth_writes_csv_labels_and_manifest(tmp_path):
    out = _synth(tmp_path)
    ds = read_series(out)
    assert ds.length == 400
    assert ds.labels[250:300].all() and ds.labels[320:340].all()
    assert int(ds.labels.sum()) == 70
    manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 3
    assert str(out) in manifest["outputs"]


def test_synth_requires_seed(tmp_path, capsys):
    code = main(["synth", "--channels", "4", "--length", "100", "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_synth_rejects_overlap(tmp_path, capsys):
    code = main([
        "synth", "--channels", "4", "--length", "400", "--shift", "10:60",
        "--spike", "50:80", "--seed", "1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "overlapping" in capsys.readouterr().err


def test_synth_bad_interval_shows_example(tmp_path, capsys):
    code = main(["synth", "--shift", "oops", "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "START:STOP" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--noise", "-1"), ("--noise", "nan"), ("--noise", "inf"),
    ("--length", "-5"), ("--length", "0"), ("--seed", "-1"),
])
def test_synth_bad_flag_value_exit_1_without_output(tmp_path, capsys, flag, value):
    out = tmp_path / "x.csv"
    argv = ["synth", "--channels", "4", "--length", "400", "--seed", "1", "--out", str(out)]
    assert main(argv + [flag, value]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("tsgad: configuration error: ")
    assert flag.lstrip("-") in err
    assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()


def test_synth_deterministic_bytes(tmp_path):
    a = _synth(tmp_path, "a.csv")
    b = _synth(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_train_writes_checkpoint_curve_manifest(tmp_path):
    data = _synth(tmp_path)
    ckpt = _train(tmp_path, data)
    loaded = load_checkpoint(ckpt)
    assert loaded["config"]["window"] == 20
    curve = (tmp_path / "model.ckpt.json.loss.csv").read_text().splitlines()
    assert curve[0] == "epoch,batch,loss"
    assert len(curve) > 1
    manifest = json.loads((tmp_path / "model.ckpt.json.manifest.json").read_text())
    assert str(data) in manifest["inputs"]


def test_train_records_ablation(tmp_path):
    data = _synth(tmp_path)
    ckpt = tmp_path / "abl.ckpt.json"
    code = main(["train", "--data", str(data), "--out", str(ckpt), "--seed", "3",
                 "--ablation", "no_gwd", *FAST_TRAIN])
    assert code == 0
    assert load_checkpoint(ckpt)["config"]["ablation"] == "no_gwd"


def test_train_missing_data_file_exit_2(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "m.json"), "--seed", "1"])
    assert code == 2
    assert "absent.csv" in capsys.readouterr().err


def test_config_file_malformed_value_exit_1(tmp_path, capsys):
    data = _synth(tmp_path)
    for line in ("epochs = ten", "lam = 0.1.2"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"window = 20\n{line}\n")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                     "--seed", "3", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2: {line.split()[0]}" in err
        assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_config_file_non_finite_value_exit_1(tmp_path, capsys):
    data = _synth(tmp_path)
    for line in ("learning_rate = nan", "beta = inf"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"window = 20\n{line}\n")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                     "--seed", "3", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{line.split()[0]} must be a finite number" in err
        assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_split_fraction_out_of_range_exit_1(tmp_path, capsys):
    data = _synth(tmp_path)
    train_argv = ["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--seed", "3"]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("split_fraction = 0\n")
    for extra in (["--split-fraction", "-0.5"], ["--split-fraction", "5"], ["--config", str(cfg)]):
        assert main([*train_argv, *extra]) == 1
        err = capsys.readouterr().err
        assert "split_fraction must be in (0, 1]" in err and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_manifest_malformed_exit_1(tmp_path, capsys):
    manifest = tmp_path / "run.manifest.json"
    for text, problem in (("{not json", "not a JSON manifest"), ("[1, 2]", "JSON object"),
                          ('{"argv": ["synth", 5]}', "list of strings")):
        manifest.write_text(text)
        assert main(["--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and problem in err


def test_config_file_and_flag_precedence(tmp_path):
    data = _synth(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 20\nstride = 5\nbatch_size = 4\nepochs = 2\nhidden = 6\nd_step = 2\n")
    ckpt = tmp_path / "prec.ckpt.json"
    code = main(["train", "--data", str(data), "--out", str(ckpt), "--seed", "3",
                 "--config", str(cfg), "--epochs", "1"])
    assert code == 0
    stored = load_checkpoint(ckpt)["config"]
    assert stored["epochs"] == 1  # flag wins
    assert stored["stride"] == 5  # file wins over default


def test_config_file_unknown_key(tmp_path, capsys):
    data = _synth(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 5\n")
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                 "--seed", "3", "--config", str(cfg)])
    assert code == 1
    assert "not_a_key" in capsys.readouterr().err


def test_eval_writes_report_and_summary(tmp_path):
    data = _synth(tmp_path)
    ckpt = _train(tmp_path, data)
    code = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out-prefix", str(tmp_path / "run")])
    assert code == 0
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert 0.0 <= summary["auc"] <= 1.0
    assert set(summary["counts"]) == {"tp", "fp", "tn", "fn"}
    lines = (tmp_path / "run.scores.csv").read_text().splitlines()
    assert lines[0] == "window_start,label,d_ga,nll,score,predicted"
    # window starts reported in absolute rows of the source file (test split)
    first_start = int(lines[1].split(",")[0])
    assert first_start == 240  # 0.6 * 400


def test_eval_unlabeled_exit_2_mentions_score(tmp_path, capsys):
    data = _synth(tmp_path, "clean.csv", extra=())
    # rewrite without anomalies: all-zero labels -> single class
    code = main(["synth", "--channels", "4", "--length", "400", "--seed", "5",
                 "--out", str(tmp_path / "clean.csv")])
    assert code == 0
    ckpt = _train(tmp_path, tmp_path / "clean.csv", "clean.ckpt.json", seed="5")
    code = main(["eval", "--data", str(tmp_path / "clean.csv"), "--checkpoint", str(ckpt),
                 "--out-prefix", str(tmp_path / "c")])
    assert code == 2
    assert "tsgad score" in capsys.readouterr().err


def test_score_works_unlabeled_and_exports_graphs(tmp_path):
    code = main(["synth", "--channels", "4", "--length", "400", "--seed", "5",
                 "--out", str(tmp_path / "clean.csv")])
    assert code == 0
    ckpt = _train(tmp_path, tmp_path / "clean.csv", "clean.ckpt.json", seed="5")
    graphs_csv = tmp_path / "ader.csv"
    code = main(["score", "--data", str(tmp_path / "clean.csv"), "--checkpoint", str(ckpt),
                 "--out-prefix", str(tmp_path / "s"), "--export-graphs", str(graphs_csv)])
    assert code == 0
    summary = json.loads((tmp_path / "s.summary.json").read_text())
    assert summary["auc"] is None
    exported = read_adjacency_export(graphs_csv)
    assert all(m.shape == (4, 4) for m in exported.values())
    rows = np.stack(list(exported.values()))
    np.testing.assert_allclose(rows.sum(axis=2), 1.0, atol=1e-8)
    scored = (tmp_path / "s.scores.csv").read_text().splitlines()[1:]
    # one graph per scored window, at the window's absolute row
    assert sorted(exported) == [int(line.split(",")[0]) for line in scored]


def test_score_byte_determinism(tmp_path):
    data = _synth(tmp_path)
    ckpt = _train(tmp_path, data)
    for prefix in ("r1", "r2"):
        code = main(["score", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out-prefix", str(tmp_path / prefix)])
        assert code == 0
    assert (tmp_path / "r1.scores.csv").read_bytes() == (tmp_path / "r2.scores.csv").read_bytes()
    assert (tmp_path / "r1.summary.json").read_bytes() == (tmp_path / "r2.summary.json").read_bytes()


def test_manifest_replay_reproduces_output(tmp_path):
    out = _synth(tmp_path, "orig.csv")
    original = out.read_bytes()
    out.unlink()
    code = main(["--manifest", str(tmp_path / "orig.csv.manifest.json")])
    assert code == 0
    assert out.read_bytes() == original


def test_manifest_with_a_command_exit_1(tmp_path, capsys):
    out = _synth(tmp_path, "orig.csv")
    original, written = out.read_bytes(), out.stat().st_mtime_ns
    capsys.readouterr()
    code = main(["--manifest", str(tmp_path / "orig.csv.manifest.json"),
                 "synth", "--seed", "2", "--length", "200", "--out", str(tmp_path / "b.csv")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "tsgad: configuration error: --manifest replays the recorded command; 'synth' given with it"]
    assert (out.read_bytes(), out.stat().st_mtime_ns) == (original, written)
    assert not (tmp_path / "b.csv").exists()


def _train_with_config(tmp_path):
    """Train with a --config file holding half of FAST_TRAIN: (data, config, checkpoint)."""
    data = _synth(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 20\nstride = 5\nbatch_size = 4\n")
    ckpt = tmp_path / "cfg.ckpt.json"
    assert main(["train", "--data", str(data), "--out", str(ckpt), "--seed", "3",
                 "--config", str(cfg), *FAST_TRAIN[6:]]) == 0
    return data, cfg, ckpt


def test_train_manifest_digests_the_config_file(tmp_path):
    data, cfg, ckpt = _train_with_config(tmp_path)
    manifest = json.loads((tmp_path / "cfg.ckpt.json.manifest.json").read_text())
    assert manifest["inputs"] == {str(data): hashlib.sha256(data.read_bytes()).hexdigest(),
                                  str(cfg): hashlib.sha256(cfg.read_bytes()).hexdigest()}
    assert manifest["outputs"] == [str(ckpt), f"{ckpt}.loss.csv"]


def test_manifest_replay_of_train_with_config_file_reproduces_output(tmp_path):
    _, _, ckpt = _train_with_config(tmp_path)
    curve = tmp_path / "cfg.ckpt.json.loss.csv"
    original = {path: path.read_bytes() for path in (ckpt, curve)}
    for path in original:
        path.unlink()
    assert main(["--manifest", str(tmp_path / "cfg.ckpt.json.manifest.json")]) == 0
    assert {path: path.read_bytes() for path in original} == original


def test_bad_checkpoint_exit_2(tmp_path, capsys):
    data = _synth(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(["score", "--data", str(data), "--checkpoint", str(bad),
                 "--out-prefix", str(tmp_path / "x")])
    assert code == 2


def _with_cell(src, dst, row, column, text):
    """Copy a CSV with one cell replaced; ``row`` counts data rows (time steps) from 0."""
    lines = src.read_text().splitlines()
    cells = lines[1 + row].split(",")
    cells[lines[0].split(",").index(column)] = text
    lines[1 + row] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def test_train_nan_cell_exit_2(tmp_path, capsys):
    data = _with_cell(_synth(tmp_path), tmp_path / "nan.csv", 100, "ch1", "nan")
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                 "--seed", "3", *FAST_TRAIN])
    assert code == 2
    assert "time step 100, column 'ch1': non-finite" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_score_nan_cell_exit_2(tmp_path, capsys):
    data = _synth(tmp_path)
    ckpt = _train(tmp_path, data)
    bad = _with_cell(data, tmp_path / "nan.csv", 300, "ch2", "nan")
    code = main(["score", "--data", str(bad), "--checkpoint", str(ckpt),
                 "--out-prefix", str(tmp_path / "s")])
    assert code == 2
    assert "time step 300, column 'ch2': non-finite" in capsys.readouterr().err
    assert not (tmp_path / "s.scores.csv").exists()


def test_score_single_window_exit_2(tmp_path, capsys):
    data = _synth(tmp_path)
    ckpt = _train(tmp_path, data)
    short = tmp_path / "short.csv"
    short.write_text("\n".join(data.read_text().splitlines()[:21]) + "\n")  # 20 rows, window 20
    code = main(["score", "--data", str(short), "--checkpoint", str(ckpt), "--split", "all",
                 "--out-prefix", str(tmp_path / "s")])
    assert code == 2
    assert "yields 1 window" in capsys.readouterr().err
    assert not (tmp_path / "s.scores.csv").exists()


def test_score_series_shorter_than_window_exit_2(tmp_path, capsys):
    data = _synth(tmp_path)
    ckpt = _train(tmp_path, data)
    short = tmp_path / "short.csv"
    short.write_text("\n".join(data.read_text().splitlines()[:20]) + "\n")  # 19 rows, window 20
    code = main(["score", "--data", str(short), "--checkpoint", str(ckpt), "--split", "all",
                 "--out-prefix", str(tmp_path / "s")])
    assert code == 2
    assert "series length 19 is shorter than the checkpoint's window 20" in capsys.readouterr().err
    assert not (tmp_path / "s.scores.csv").exists()
    # a training window longer than the series stays a configuration error
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--seed", "3",
                 *FAST_TRAIN, "--window", "401"])
    assert code == 1
    assert "window 401 exceeds series length" in capsys.readouterr().err


def _edit_checkpoint(src, dst, edit):
    checkpoint = json.loads(src.read_text())
    edit(checkpoint)
    dst.write_text(json.dumps(checkpoint))
    return dst


def test_legacy_checkpoint_key_index(tmp_path, capsys):
    # checkpoints written before the attention key index was fixed carry it in their config
    data = _synth(tmp_path)
    ckpt = _train(tmp_path, data)

    def evaluate(checkpoint, prefix):
        return main(["eval", "--data", str(data), "--checkpoint", str(checkpoint),
                     "--out-prefix", str(tmp_path / prefix)])

    def with_key_index(value):
        return _edit_checkpoint(ckpt, tmp_path / f"{value}.ckpt.json",
                                lambda c: c["config"].update(attention_key_index=value))

    assert evaluate(ckpt, "new") == 0
    assert evaluate(with_key_index("j"), "j") == 0
    assert (tmp_path / "j.scores.csv").read_bytes() == (tmp_path / "new.scores.csv").read_bytes()
    capsys.readouterr()
    assert evaluate(with_key_index("i"), "i") == 2
    assert "attention_key_index" in capsys.readouterr().err
    assert not (tmp_path / "i.scores.csv").exists()


# each retired config field: the value every run behaves as, and values a checkpoint is refused for
RETIRED_FIELDS = [
    pytest.param("attention_key_index", ["j"], ["i", None], id="attention_key_index"),
    pytest.param("omega_mode", ["mean"], ["concat", None], id="omega_mode"),
    pytest.param("embedding_reduce", ["concat"], ["mean", None], id="embedding_reduce"),
    pytest.param("flow_init_scale", [0.0, 0], [0.5, False, None], id="flow_init_scale"),
    pytest.param("flow_cond_init_scale", [0.0, 0], [0.5, False, None], id="flow_cond_init_scale"),
    pytest.param("score_lambda_scaled", [False], [True, 0, None], id="score_lambda_scaled"),
    pytest.param("grad_clip", [0.0, 0], [0.5, False, None], id="grad_clip"),
    pytest.param("score_passes", [3], [1, 3.0, None], id="score_passes"),
    pytest.param("flow_layers", [2], [1, 2.0, None], id="flow_layers"),
]


@pytest.mark.parametrize("name, kept, refused", RETIRED_FIELDS)
def test_retired_checkpoint_field(tmp_path, capsys, trained, name, kept, refused):
    data, ckpt = trained

    def with_field(value, tag):
        return _edit_checkpoint(ckpt, tmp_path / f"{tag}.ckpt.json",
                                lambda c: c["config"].update({name: value}))

    def outputs(checkpoint, prefix):
        code = main(["eval", "--data", str(data), "--checkpoint", str(checkpoint),
                     "--out-prefix", str(tmp_path / prefix),
                     "--export-graphs", str(tmp_path / f"{prefix}.graphs.csv")])
        assert code == 0
        return [(tmp_path / f"{prefix}.{suffix}").read_bytes()
                for suffix in ("scores.csv", "summary.json", "graphs.csv")]

    current = outputs(ckpt, "current")
    for k, value in enumerate(kept):
        assert outputs(with_field(value, f"kept{k}"), f"kept{k}") == current
    capsys.readouterr()
    for k, value in enumerate(refused):
        _eval_exit_2_without_traceback(tmp_path, capsys, data, with_field(value, f"refused{k}"), name)


@pytest.mark.parametrize("name", [field.values[0] for field in RETIRED_FIELDS])
def test_retired_field_in_config_file_or_replay_exit_1(tmp_path, capsys, name):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"window = 20\n{name} = 0\n")
    train_argv = ["train", "--data", str(tmp_path / "data.csv"), "--out", str(tmp_path / "m.json"),
                  "--seed", "3"]
    assert main([*train_argv, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:2: unknown config key {name!r}" in err
    assert "Traceback" not in err
    # a manifest recorded when the field was a flag
    manifest = tmp_path / "old.manifest.json"
    manifest.write_text(json.dumps({"argv": [*train_argv, f"--{name.replace('_', '-')}", "0"]}))
    assert main(["--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_train_config_flags_are_the_config_fields(capsys):
    # one flag per TrainConfig field but the seed, which each command declares;
    # two short flag names, and the help texts and choices the fields carry
    flags = argparse.ArgumentParser(add_help=False)
    _add_train_config_flags(flags)
    dests = sorted(action.dest for action in flags._actions)
    assert dests == sorted(f.name for f in fields(TrainConfig) if f.name != "seed")
    parsed = build_parser().parse_args(["train", "--data", "d.csv", "--out", "m.json", "--seed", "1"])
    assert {f.name for f in fields(TrainConfig)} <= set(vars(parsed))
    assert {a.dest: a.choices for a in flags._actions}["ablation"] == tuple(ABLATIONS)
    parsed = build_parser().parse_args(["train", "--data", "d.csv", "--out", "m.json", "--seed", "1",
                                        "--batch", "4", "--lr", "0.5"])
    assert (parsed.batch_size, parsed.learning_rate) == (4, 0.5)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for help_text in ("window length T", "window stride S", "windows per batch B",
                      "alignment weight in the loss", "entropic regularization weight",
                      "recurrent hidden width", "per-step embedding width"):
        assert help_text in text
    assert f"--ablation {{{','.join(ABLATIONS)}}}" in text


def test_paper_scale_switch_under_config_file_and_flags(tmp_path):
    # precedence: flags > config file > --paper-scale > defaults
    base = ["train", "--data", "d.csv", "--out", "m.json", "--seed", "1", "--paper-scale"]

    def resolved(*extra):
        return cli._resolve_config(build_parser().parse_args([*base, *extra]))

    assert resolved() == TrainConfig(seed=1, window=80, batch_size=256, epochs=60)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("window = 20\n")
    assert resolved("--config", str(cfg)) == TrainConfig(seed=1, window=20, batch_size=256, epochs=60)
    assert resolved("--config", str(cfg), "--epochs", "1") == TrainConfig(seed=1, window=20, batch_size=256,
                                                                           epochs=1)


def test_non_finite_score_exit_3(tmp_path, capsys):
    data = _synth(tmp_path)
    ckpt = _train(tmp_path, data)

    def overflow_shift(checkpoint):
        blob = checkpoint["parameters"]["flow.1.b_shift"]
        values = np.full(blob["shape"], 1e300, dtype="<f8")
        blob["data"] = base64.b64encode(values.tobytes()).decode("ascii")

    broken = _edit_checkpoint(ckpt, tmp_path / "broken.ckpt.json", overflow_shift)
    code = main(["eval", "--data", str(data), "--checkpoint", str(broken), "--out-prefix", str(tmp_path / "e")])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "e.scores.csv").exists()
    assert not (tmp_path / "e.summary.json").exists()


def test_huge_test_value_exit_3_with_one_line_and_no_numpy_warning(tmp_path, capsys):
    data = _synth(tmp_path)
    ckpt = _train(tmp_path, data)
    lines = data.read_text().splitlines()
    row = lines[351].split(",")  # series step 350, in the test split
    row[1] = "1e300"
    lines[351] = ",".join(row)
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", "--data", str(huge), "--checkpoint", str(ckpt), "--out-prefix", str(tmp_path / "e")])
    assert code == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("tsgad: numeric failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("column, largest", [
    pytest.param(1e160 * (1.0 + 0.1 * np.sin(np.arange(300))), "1.1e+160", id="squares-overflow"),
    pytest.param(np.tile([9e307, 1e308], 150), "1e+308", id="sum-overflows"),
])
def test_train_statistics_overflow_exit_2_with_one_line_and_no_numpy_warning(tmp_path, capsys, column, largest):
    lines = ["a,b"] + [f"{x!r},{float(np.sin(i / 7.0))!r}" for i, x in enumerate(column.tolist())]
    data = _write(tmp_path / "huge.csv", "\n".join(lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--seed", "0",
                     "--window", "10", "--stride", "5", "--batch", "4", "--epochs", "1",
                     "--hidden", "4", "--d-step", "2"])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == (f"tsgad: data error: column 'a': values too large to standardize in float64 "
                   f"(largest magnitude {largest})\n")
    assert not (tmp_path / "m.json").exists()


def test_usage_error_exit_1():
    assert main(["train"]) == 1  # missing required flags


def test_no_command_exit_1(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err == "tsgad: configuration error: no command given; see tsgad --help\n"


def test_help_returns_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: tsgad ")


# each suite, the reference it checks against, and a wrong stand-in for that reference
# (a negative optimum would pass the Sinkhorn suite, whose gap is relative to the optimum)
@pytest.mark.parametrize("suite, reference, wrong", [
    pytest.param(partial(oracles.equivalence_suite, seeds=2), "alignment_equivalence_check", lambda *_: False,
                 id="alignment-equivalence"),
    pytest.param(partial(oracles.sinkhorn_suite, seeds=2), "exact_wd_uniform", lambda cost: 2.0,
                 id="sinkhorn-vs-enumeration"),
    pytest.param(partial(oracles.gwd_suite, seeds=2), "gwd_cost_naive",
                 lambda a, b, plan: (1.0, np.ones((len(a), len(b)))), id="gwd-isomorphism"),
    pytest.param(oracles.gradient_suite, "relative_error", lambda *_: 1.0, id="gradient-integrity"),
])
def test_suite_fails_against_a_wrong_reference(monkeypatch, suite, reference, wrong):
    monkeypatch.setattr(oracles, reference, wrong)
    result = suite()
    assert result["passed"] is False and result["failures"]


def test_oracle_pass_and_fault_injection(tmp_path, monkeypatch):
    assert main(["oracle", "--seeds", "4", "--out", str(tmp_path / "oracle.json")]) == 0
    results = json.loads((tmp_path / "oracle.json").read_text())
    assert all(suite["passed"] for suite in results)
    monkeypatch.setattr(oracles, "exact_wd_uniform", lambda cost: 2.0)
    assert main(["oracle", "--seeds", "4", "--out", str(tmp_path / "faulty.json")]) == 4
    results = json.loads((tmp_path / "faulty.json").read_text())
    assert [suite["name"] for suite in results if not suite["passed"]] == ["sinkhorn-vs-enumeration"]


def test_oracle_manifest_records_the_suite_count_but_no_seed(tmp_path, monkeypatch):
    # the suites draw their own seeds 0..n-1, so --seeds is no seed of the run
    monkeypatch.setattr(cli, "run_all", lambda seeds: [])
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--seeds", "2", "--out", str(out)]) == 0
    assert out.read_text() == "[]\n"
    manifest = json.loads((tmp_path / "oracle.json.manifest.json").read_text())
    assert (manifest["seed"], manifest["config"], manifest["outputs"]) == (None, {"seeds": 2}, [str(out)])


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_oracle_without_seeds_exit_1_before_any_suite(tmp_path, capsys, monkeypatch, seeds):
    monkeypatch.setattr(cli, "run_all", _refuse)
    assert main(["oracle", "--seeds", seeds, "--out", str(tmp_path / "oracle.json")]) == 1
    assert "--seeds must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "oracle.json").exists()



def _blob(values, shape):
    return {"shape": shape, "dtype": "<f8",
            "data": base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")}


def _with_entry(blob, value):
    """``blob`` with its fourth entry set to ``value``."""
    values = np.frombuffer(base64.b64decode(blob["data"]), dtype="<f8").copy()
    values[3] = value
    return _blob(values, blob["shape"])


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A synthetic CSV and a checkpoint trained on it, shared by the corruption cases."""
    root = tmp_path_factory.mktemp("trained")
    data = _synth(root)
    return data, _train(root, data)


def _eval_exit_2_without_traceback(tmp_path, capsys, data, checkpoint, mention):
    code = main(["eval", "--data", str(data), "--checkpoint", str(checkpoint),
                 "--out-prefix", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("tsgad: data error: ") and err.count("\n") == 1
    assert mention in err
    assert not (tmp_path / "e.scores.csv").exists()


@pytest.mark.parametrize("mention, edit", [
    pytest.param("parameters.encoder.w_mix",
                 lambda c: c["parameters"]["encoder.w_mix"].update(data="not base64!"),
                 id="parameter-not-base64"),
    pytest.param("window must be an integer", lambda c: c["config"].update(window="20"),
                 id="window-as-string"),
    pytest.param("normalization.mean",
                 lambda c: c["normalization"].update(mean=_blob([0.0, 1.0, 2.0], [4])),
                 id="normalization-shape-mismatch"),
    # statistics that would make every normalized value non-finite are the checkpoint's fault, not the data's
    pytest.param("normalization.mean must hold 4 finite numbers",
                 lambda c: c["normalization"].update(mean=_blob([0.0, np.nan, 0.0, 0.0], [4])),
                 id="normalization-mean-nan"),
    pytest.param("normalization.std must hold 4 finite numbers, one per channel, each > 0",
                 lambda c: c["normalization"].update(std=_blob([1.0, 1.0, 0.0, 1.0], [4])),
                 id="normalization-std-zero"),
    pytest.param("normalization.std must hold 4 finite numbers",
                 lambda c: c["normalization"].update(std=_blob([1.0, -2.0, 1.0, 1.0], [4])),
                 id="normalization-std-negative"),
    pytest.param("normalization.std must hold 4 finite numbers",
                 lambda c: c["normalization"].update(std=_blob([1.0, 1.0, 1.0, np.inf], [4])),
                 id="normalization-std-inf"),
    pytest.param("normalization.mean must hold 4 finite numbers",
                 lambda c: c["normalization"].update(mean=_blob([0.0, 0.0], [2])),
                 id="normalization-mean-too-short"),
    pytest.param("parameters.encoder.bias",
                 lambda c: c["parameters"]["encoder.bias"].update(shape=[2, 3]),
                 id="parameter-shape-mismatch"),
    pytest.param("quartiles.threshold", lambda c: c["quartiles"].update(threshold=None),
                 id="null-threshold"),
    pytest.param("quartiles.q1", lambda c: c["quartiles"].update(q1=True), id="boolean-quartile"),
    pytest.param("dtype '<f8'", lambda c: c["parameters"]["encoder.w_mix"].update(dtype="<f4"),
                 id="parameter-dtype"),
    pytest.param("seed must be >= 0", lambda c: c["config"].update(seed=-1), id="negative-seed"),
    pytest.param("unsupported checkpoint version", lambda c: c.update(version=True),
                 id="boolean-version"),
    *(pytest.param("split_fraction must be in (0, 1]", lambda c, v=v: c["config"].update(split_fraction=v),
                   id=f"split-fraction-{v}") for v in (-0.5, 0.0, 5.0)),
    pytest.param("missing sections ['quartiles']", lambda c: c.pop("quartiles"), id="missing-section"),
    pytest.param("config is not a JSON object", lambda c: c.update(config=[]), id="config-not-object"),
    pytest.param("parameters is not a JSON object", lambda c: c.update(parameters=[]), id="section-not-object"),
    pytest.param("parameter encoder.w_mix has shape (36,), expected (6, 6)",
                 lambda c: c["parameters"].update({"encoder.w_mix": _blob(np.zeros(36), [36])}),
                 id="parameter-shape-decodes"),
    # a parameter that is not finite is the checkpoint's fault, not a numeric failure of scoring
    *(pytest.param("parameters.attention.w_key must hold finite numbers",
                   lambda c, v=v: c["parameters"].update(
                       {"attention.w_key": _with_entry(c["parameters"]["attention.w_key"], v)}),
                   id=f"parameter-{v}") for v in (np.nan, np.inf)),
])
def test_malformed_checkpoint_field_exit_2(tmp_path, capsys, trained, mention, edit):
    data, ckpt = trained
    broken = _edit_checkpoint(ckpt, tmp_path / "broken.ckpt.json", edit)
    _eval_exit_2_without_traceback(tmp_path, capsys, data, broken, mention)


def test_data_path_is_a_directory_exit_2(tmp_path, capsys, trained):
    _, ckpt = trained
    _eval_exit_2_without_traceback(tmp_path, capsys, tmp_path, ckpt, "is a directory")


# each case: the exit code, (data, checkpoint, tmp dir) -> argv, and what the one stderr line says
@pytest.mark.parametrize("code, case, mention", [
    pytest.param(1, lambda d, c, t: _train_argv(d, t / "m.json", "--batch", "0"), "batch_size must be positive",
                 id="batch-0"),
    pytest.param(1, lambda d, c, t: _train_argv(d, t / "m.json", "--lr", "0"), "learning_rate must be > 0",
                 id="lr-0"),
    pytest.param(1, lambda d, c, t: _train_argv(d, t / "m.json", "--beta", "-1"), "beta must be > 0",
                 id="beta-negative"),
    pytest.param(1, lambda d, c, t: _train_argv(d, t / "m.json", "--lam", "-0.5"), "lam must be >= 0",
                 id="lam-negative"),
    pytest.param(1, lambda d, c, t: _train_argv(d, t / "m.json", "--batch", "64"),
                 "training split yields 45 windows, need at least one full batch of 64",
                 id="split-shorter-than-a-batch"),
    pytest.param(1, lambda d, c, t: ["synth", "--channels", "1", "--seed", "1", "--out", str(t / "s.csv")],
                 "need at least 2 channels", id="synth-one-channel"),
    pytest.param(2, lambda d, c, t: _train_argv(_write(t / "e.csv", ""), t / "m.json"), "empty file",
                 id="empty-csv"),
    pytest.param(2, lambda d, c, t: _train_argv(_write(t / "h.csv", "a,b,label\n"), t / "m.json"), "no data rows",
                 id="header-only-csv"),
    pytest.param(2, lambda d, c, t: _train_argv(_write(t / "o.csv", "a,label\n1,0\n"), t / "m.json"),
                 "need at least 2 channel columns", id="one-channel-column"),
    pytest.param(2, lambda d, c, t: _train_argv(_write(t / "r.csv", "a,b\n1,2\n3\n"), t / "m.json"),
                 "row 3 has 1 cells, expected 2", id="ragged-row"),
    pytest.param(2, lambda d, c, t: _score_argv("eval", d, _mkdir(t / "ckpt"), t / "e"),
                 "is a directory, not a checkpoint file", id="checkpoint-directory"),
])
def test_refused_input_exits_with_one_line(tmp_path, capsys, trained, code, case, mention):
    assert main(case(*trained, tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("tsgad: ") and err.count("\n") == 1 and mention in err


def _not_utf8(path, text):
    path.write_bytes(text.encode() + b"\xff\xfe\n")
    return path


def _train_argv(data, out, *extra):
    return ["train", "--data", str(data), "--out", str(out), "--seed", "3", *FAST_TRAIN, *extra]


# each case: the exit code, and (data, checkpoint, tmp dir) -> (argv, the malformed path)
@pytest.mark.parametrize("code, case", [
    pytest.param(1, lambda d, c, t: (_train_argv(d, t / "m.json", "--config", str(t)), t),
                 id="config-directory"),
    pytest.param(1, lambda d, c, t: (["--manifest", str(t)], t), id="manifest-directory"),
    pytest.param(1, lambda d, c, t: (_train_argv(d, t / "m.json", "--config",
                                                 str(_not_utf8(t / "bad.cfg", "window = 20\n"))),
                                     t / "bad.cfg"), id="config-not-utf8"),
    pytest.param(2, lambda d, c, t: (_train_argv(_not_utf8(t / "bad.csv", d.read_text()), t / "m.json"),
                                     t / "bad.csv"), id="data-not-utf8"),
    pytest.param(1, lambda d, c, t: (["synth", "--seed", "1", "--out", str(t)], t), id="synth-out-directory"),
    pytest.param(1, lambda d, c, t: (_train_argv(d, t), t), id="train-out-directory"),
    pytest.param(1, lambda d, c, t: (_train_argv(d, t / "m.json", "--loss-curve", str(t)), t),
                 id="loss-curve-directory"),
    pytest.param(1, lambda d, c, t: (["score", "--data", str(d), "--checkpoint", str(c),
                                      "--out-prefix", str(t / "s"), "--export-graphs", str(t)], t),
                 id="export-graphs-directory"),
    pytest.param(1, lambda d, c, t: (["oracle", "--out", str(t)], t), id="oracle-out-directory"),
    pytest.param(1, lambda d, c, t: (["synth", "--seed", "1", "--out", str(t / "missing" / "x.csv")],
                                     t / "missing" / "x.csv"), id="synth-out-missing-directory"),
])
def test_malformed_path_exits_with_one_line(tmp_path, capsys, trained, code, case):
    argv, bad_path = case(*trained, tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("tsgad: ") and str(bad_path) in err


def _refuse(*_, **__):
    raise AssertionError("the work started before the output paths were checked")


def _mkdir(path):
    path.mkdir()
    return path


def _score_argv(command, data, checkpoint, prefix, *extra):
    return [command, "--data", str(data), "--checkpoint", str(checkpoint), "--out-prefix", str(prefix), *extra]


# each case: (data, checkpoint, empty output dir) -> (argv, the directory given for a file)
@pytest.mark.parametrize("case", [
    pytest.param(lambda d, c, o: (_train_argv(d, o), o), id="train-out"),
    pytest.param(lambda d, c, o: (_train_argv(d, o / "m.json", "--loss-curve", str(o)), o), id="train-loss-curve"),
    pytest.param(lambda d, c, o: (_train_argv(d, o / "m.json"), _mkdir(o / "m.json.manifest.json")),
                 id="train-manifest"),
    pytest.param(lambda d, c, o: (_score_argv("score", d, c, o / "s"), _mkdir(o / "s.summary.json")),
                 id="score-summary"),
    pytest.param(lambda d, c, o: (_score_argv("eval", d, c, o / "s", "--export-graphs", str(o)), o),
                 id="eval-export-graphs"),
    pytest.param(lambda d, c, o: (["oracle", "--out", str(o)], o), id="oracle-out"),
    pytest.param(lambda d, c, o: (["oracle", "--out", str(o / "r.json")], _mkdir(o / "r.json.manifest.json")),
                 id="oracle-manifest"),
    pytest.param(lambda d, c, o: (_train_argv(d, o / "missing" / "m.json"), o / "missing" / "m.json"),
                 id="train-out-missing-directory"),
])
def test_unusable_output_path_stops_before_the_work(tmp_path, capsys, monkeypatch, trained, case):
    for name in ("train", "score", "run_all"):
        monkeypatch.setattr(cli, name, _refuse)
    out = _mkdir(tmp_path / "out")
    argv, bad_path = case(*trained, out)
    before = sorted(out.rglob("*"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"tsgad: cannot use {bad_path}: "), err
    assert sorted(out.rglob("*")) == before  # nothing written


# each case: (data, checkpoint, output dir) -> (argv, the colliding output path)
@pytest.mark.parametrize("case", [
    pytest.param(lambda d, c, o: (_train_argv(d, o / "m.json", "--loss-curve", str(o / "m.json")), o / "m.json"),
                 id="train-out-is-loss-curve"),
    pytest.param(lambda d, c, o: (_train_argv(d, o / "m.json", "--loss-curve", str(o / "m.json.manifest.json")),
                                  o / "m.json.manifest.json"), id="train-loss-curve-is-manifest"),
    pytest.param(lambda d, c, o: (_train_argv(_write(o / "s.csv", d.read_text()), o / "s.csv"), o / "s.csv"),
                 id="train-out-is-data"),
    pytest.param(lambda d, c, o: (_train_argv(d, o / "m.json", "--config", str(_write(o / "m.json", "window = 20\n"))),
                                  o / "m.json"), id="train-out-is-config"),
    pytest.param(lambda d, c, o: (_train_argv(_write(o / "s.csv", d.read_text()), _link(o / "link.csv", o / "s.csv")),
                                  o / "link.csv"), id="train-out-links-to-data"),
    pytest.param(lambda d, c, o: (_score_argv("eval", d, c, o / "r", "--export-graphs", str(o / "r.scores.csv")),
                                  o / "r.scores.csv"), id="eval-export-graphs-is-scores"),
    pytest.param(lambda d, c, o: (_score_argv("score", d, _write(o / "m.json", c.read_text()), o / "r",
                                              "--export-graphs", str(o / "m.json")), o / "m.json"),
                 id="score-export-graphs-is-checkpoint"),
])
def test_colliding_paths_stop_before_the_work(tmp_path, capsys, monkeypatch, trained, case):
    for name in ("train", "score", "run_all"):
        monkeypatch.setattr(cli, name, _refuse)
    out = _mkdir(tmp_path / "out")
    argv, path = case(*trained, out)
    before = {p: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"tsgad: configuration error: output {path} "), err
    assert {p: p.read_bytes() for p in out.iterdir()} == before  # nothing written or overwritten


def _write(path, text):
    path.write_text(text)
    return path


def _link(path, target):
    path.symlink_to(target)
    return path
