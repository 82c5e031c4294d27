import importlib
import json
import weakref

import numpy as np
import pytest

from tsgad import autodiff as ad
from tsgad.align import batch_alignment
from tsgad.autodiff import Tensor
from tsgad.dataio import SeriesDataset, split_normalize, synth_generate, window_table
from tsgad.errors import CheckpointError, ConfigError, DivergenceError, MetricUndefinedError
from tsgad.flow import batch_log_likelihood, log_prob
from tsgad.train import (
    ABLATIONS,
    Adam,
    TrainConfig,
    _forward,
    auc_roc,
    build_model,
    iqr_threshold,
    load_checkpoint,
    model_from_checkpoint,
    quartiles,
    save_checkpoint,
    score,
    train,
)

DESK = dict(window=20, stride=5, batch_size=4, epochs=2, hidden=8, d_step=2, seed=3)


def _tiny_training_pair(seed=3, length=400, anomalies=()):
    ds = synth_generate(4, length, anomalies, seed=seed, noise=0.05)
    return split_normalize(ds, 0.6)


def test_submodule_attribute_is_the_module():
    """The package re-exports nothing, so ``tsgad.train`` names the module, not its function."""
    import tsgad.train

    assert tsgad.train.TrainConfig is TrainConfig


# quartiles / threshold / auc unit semantics

def test_quartiles_linear_interpolation_example():
    q1, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8])
    assert q1 == pytest.approx(2.75)
    assert q3 == pytest.approx(6.25)
    assert iqr_threshold([1, 2, 3, 4, 5, 6, 7, 8]) == pytest.approx(11.5)


def test_threshold_translation_equivariance():
    rng = np.random.default_rng(0)
    values = rng.normal(size=200)
    base = iqr_threshold(values)
    assert iqr_threshold(values + 7.25) == pytest.approx(base + 7.25, abs=1e-12)


def test_auc_worked_example():
    assert auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_auc_perfect_separation():
    assert auc_roc([1, 2, 3, 10, 11], [0, 0, 0, 1, 1]) == 1.0


def test_auc_constant_scores_half():
    assert auc_roc([5.0] * 6, [0, 1, 0, 1, 0, 1]) == pytest.approx(0.5)


def test_auc_single_class_undefined():
    with pytest.raises(MetricUndefinedError, match="both classes"):
        auc_roc([1.0, 2.0], [1, 1])


def test_auc_with_many_ties_is_the_pairwise_definition():
    # positives above negatives plus half the tied pairs, over few score levels
    rng = np.random.default_rng(5)
    for levels in (1, 2, 3, 7):
        scores = rng.integers(0, levels, size=500).astype(float)
        labels = (rng.random(500) < 0.3).astype(int)
        labels[0], labels[1] = 0, 1
        pos, neg = scores[labels == 1][:, None], scores[labels == 0][None, :]
        pairwise = (pos > neg).mean() + 0.5 * (pos == neg).mean()
        assert auc_roc(scores, labels) == pytest.approx(pairwise, abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=60)
    labels = (rng.random(60) < 0.3).astype(int)
    labels[0], labels[1] = 0, 1
    base = auc_roc(scores, labels)
    assert auc_roc(np.exp(scores) * 3 + 1, labels) == pytest.approx(base, abs=1e-12)


# config validation

def test_config_validation():
    with pytest.raises(ConfigError, match="batch_size"):
        TrainConfig(batch_size=1)
    with pytest.raises(ConfigError, match="ablation"):
        TrainConfig(ablation="none")
    with pytest.raises(ConfigError, match="dropout"):
        TrainConfig(dropout=1.0)
    for bad in (-0.5, 0.0, 1.5, 5.0):
        with pytest.raises(ConfigError, match=r"split_fraction must be in \(0, 1\]"):
            TrainConfig(split_fraction=bad)
    assert TrainConfig(split_fraction=1.0).split_fraction == 1.0
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    for name, bad in (("learning_rate", float("nan")), ("lam", float("nan")),
                      ("beta", float("inf")), ("split_fraction", float("-inf")),
                      ("dropout", "0.1"), ("lam", True)):
        with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
            TrainConfig(**{name: bad})
    with pytest.raises(ConfigError, match="unknown config fields"):
        TrainConfig.from_dict({"window": 20, "bogus": 1})


def test_adam_minimizes_quadratic():
    target = np.array([1.5, -2.0])
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam({"p": p}, learning_rate=0.1)
    for _ in range(400):
        loss = ad.sum_((p - Tensor(target)) ** 2)
        opt.zero_grad()
        ad.backward(loss)
        opt.step()
    np.testing.assert_allclose(p.data, target, atol=1e-3)


# training behavior

def test_training_loss_decreases_on_normal_data():
    train_ds, _ = _tiny_training_pair(length=800)
    cfg = TrainConfig(epochs=5, learning_rate=0.01, **{k: v for k, v in DESK.items() if k != "epochs"})
    result = train(train_ds, cfg)
    assert result.epoch_means[-1] < result.epoch_means[0]


def test_flow_likelihood_rises_over_early_epochs():
    # with alignment ablated the loss is exactly the negated mean
    # log-likelihood, so a falling loss curve is a rising likelihood
    train_ds, _ = _tiny_training_pair(length=800)
    cfg = TrainConfig(epochs=5, learning_rate=0.01, ablation="no_ga",
                      **{k: v for k, v in DESK.items() if k != "epochs"})
    result = train(train_ds, cfg)
    assert all(b < a for a, b in zip(result.epoch_means, result.epoch_means[1:]))


def test_no_ga_ablation_loss_is_pure_likelihood():
    train_ds, _ = _tiny_training_pair()
    cfg = TrainConfig(ablation="no_ga", dropout=0.0, **DESK)
    result = train(train_ds, cfg)
    # recompute the first batch's loss independently: same shuffle stream,
    # fresh model from the same seed, alignment fully disabled
    model = build_model(cfg)
    windows, _, _ = window_table(train_ds, cfg.window, cfg.stride)
    order = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])).permutation(len(windows))
    batch = windows[order[: cfg.batch_size]]
    _, _, rows = _forward(model, batch)
    mean_ll = batch_log_likelihood(*rows, model.flow)
    assert result.loss_curve[0][2] == pytest.approx(-mean_ll.item(), abs=1e-10)


def test_loss_decomposition_across_ablations():
    train_ds, _ = _tiny_training_pair()
    first_losses = {}
    for ablation in ("full", "no_wd", "no_gwd", "no_ga"):
        cfg = TrainConfig(ablation=ablation, dropout=0.0, **DESK)
        first_losses[ablation] = train(train_ds, cfg).loss_curve[0][2]
    cfg = TrainConfig(dropout=0.0, **DESK)
    model = build_model(cfg)
    windows, _, _ = window_table(train_ds, cfg.window, cfg.stride)
    order = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])).permutation(len(windows))
    batch = windows[order[: cfg.batch_size]]
    adjacency, embeddings, rows = _forward(model, batch)
    mean_ll = batch_log_likelihood(*rows, model.flow)
    align = batch_alignment(embeddings, adjacency, lam=cfg.lam, beta=cfg.beta)
    lf = mean_ll.item()
    wd_term = cfg.lam * align.wd.mean()
    gwd_term = cfg.lam * align.gwd.mean()
    assert first_losses["full"] == pytest.approx(wd_term + gwd_term - lf, abs=1e-8)
    assert first_losses["no_wd"] == pytest.approx(gwd_term - lf, abs=1e-8)
    assert first_losses["no_gwd"] == pytest.approx(wd_term - lf, abs=1e-8)
    assert first_losses["no_ga"] == pytest.approx(-lf, abs=1e-8)


def test_flow_conditions_are_a_view_of_the_embeddings():
    """The flow's conditions share the embeddings' memory; the taped likelihood equals the no-tape
    one, and the encoder's gradients through the view equal those through a reshaped copy."""
    train_ds, _ = _tiny_training_pair()
    cfg = TrainConfig(**DESK)
    model = build_model(cfg)
    rng = np.random.default_rng(9)
    for tensor in model.flow.tensors().values():
        tensor.data[...] = rng.normal(0.0, 0.1, size=tensor.shape)
    batch = window_table(train_ds, cfg.window, cfg.stride)[0][: cfg.batch_size]
    with ad.no_grad():
        plain = log_prob(*_forward(model, batch)[2], model.flow)
    grads = []
    for view in (True, False):
        _, embeddings, (inputs, conditions) = _forward(model, batch)
        assert np.shares_memory(conditions.data, embeddings.data) and conditions.shape[0] == inputs.shape[0]
        if not view:
            conditions = ad.reshape(embeddings, conditions.shape)
        taped = log_prob(inputs, conditions, model.flow)
        np.testing.assert_array_equal(taped.data, plain.data)
        params = model.encoder_params.tensors().values()
        for tensor in params:
            tensor.grad = None
        ad.backward(ad.mean_(taped))
        grads.append([tensor.grad for tensor in params])
    for got, want in zip(*grads):
        np.testing.assert_array_equal(got, want)


def test_training_deterministic_given_seed():
    train_ds, _ = _tiny_training_pair()
    cfg = TrainConfig(**DESK)
    a = train(train_ds, cfg)
    b = train(train_ds, cfg)
    assert a.loss_curve == b.loss_curve
    assert json.dumps(a.checkpoint, sort_keys=True) == json.dumps(b.checkpoint, sort_keys=True)


def test_train_requires_normalized_dataset():
    ds = synth_generate(4, 200, [], seed=1)
    with pytest.raises(ConfigError, match="normalized"):
        train(ds, TrainConfig(**DESK))


# the step size overflows on purpose; any other RuntimeWarning still fails the test
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_train_divergence_reports_coordinates():
    train_ds, _ = _tiny_training_pair()
    # an absurd step size overflows the flow's shift outputs after one update;
    # the likelihood goes to -inf and the loss stops being finite (with the
    # alignment terms on, the transport costs stop being finite first)
    for ablation in ("no_ga", "full"):
        cfg = TrainConfig(ablation=ablation, **{**DESK, "epochs": 2})
        cfg.learning_rate = 1e200
        with pytest.raises(DivergenceError, match=r"epoch \d+, batch \d+"):
            train(train_ds, cfg)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_train_divergence_in_per_window_alignment_reports_coordinates():
    # 19 channels at batch 16: B * N^4 > 2e6, so each window's alignment runs as its
    # own stack on the thread pool, and the worker's error must still name the batch
    train_ds, _ = split_normalize(synth_generate(19, 300, [], seed=3, noise=0.05), 0.6)
    cfg = TrainConfig(**{**DESK, "batch_size": 16})
    cfg.learning_rate = 1e200
    with pytest.raises(DivergenceError, match=r"transport cost is not finite at epoch 0, batch 1"):
        train(train_ds, cfg)


# scoring

def test_score_affine_in_components():
    train_ds, test_ds = _tiny_training_pair(anomalies=[("spike", 300, 330)])
    result = train(train_ds, TrainConfig(**DESK))
    report = score(test_ds, result.checkpoint)
    np.testing.assert_allclose(report.scores, report.d_ga + report.nll, atol=1e-12)
    np.testing.assert_array_equal(report.predicted, (report.scores > report.threshold).astype(int))
    counts = report.counts
    assert counts["tp"] + counts["fp"] + counts["tn"] + counts["fn"] == len(report.scores)


def test_score_forward_is_whole_and_batch_independent(monkeypatch):
    train_ds, test_ds = _tiny_training_pair(anomalies=[("spike", 300, 330)])
    result = train(train_ds, TrainConfig(**DESK))
    model = model_from_checkpoint(result.checkpoint)
    windows, _, _ = window_table(test_ds, model.config.window, model.config.stride)
    with ad.no_grad():
        whole_batch, _, _ = _forward(model, windows)

    # rows handed to each stage of the model while scoring
    seen = {}
    train_module = importlib.import_module("tsgad.train")
    for name in ("attention_adjacency", "encode_batch", "log_prob", "batch_log_likelihood"):
        def counted(*args, _name=name, _fn=getattr(train_module, name), **kwargs):
            seen[_name] = seen.get(_name, 0) + ad.as_tensor(args[0]).shape[0]
            return _fn(*args, **kwargs)

        monkeypatch.setattr(train_module, name, counted)
    report = score(test_ds, result.checkpoint)
    # every batch forward runs each stage once; no flow mean is computed and dropped
    assert "batch_log_likelihood" not in seen
    assert seen["encode_batch"] == seen["attention_adjacency"] >= len(windows)
    assert seen["log_prob"] == seen["attention_adjacency"] * test_ds.n_channels
    # the scored graphs are the ones a single batch of every window gives
    np.testing.assert_array_equal(report.adjacency, whole_batch.data)


@pytest.mark.parametrize("ablation", ["full", "no_ga"])
def test_training_tapes_are_released_before_threshold_scoring(monkeypatch, ablation):
    """No training step's tape, the last one included, is still held when the training windows are scored."""
    train_ds, _ = _tiny_training_pair()
    train_module = importlib.import_module("tsgad.train")
    refs, checked = [], []

    def forward(model, windows, dropout_rng=None, _fn=train_module._forward):
        adjacency, embeddings, rows = _fn(model, windows, dropout_rng)
        if dropout_rng is not None:
            refs.append(weakref.ref(embeddings.data))
        return adjacency, embeddings, rows

    def score_windows(model, windows, _fn=train_module._score_windows):
        checked.append([ref() is None for ref in refs])
        return _fn(model, windows)

    monkeypatch.setattr(train_module, "_forward", forward)
    monkeypatch.setattr(train_module, "_score_windows", score_windows)
    train(train_ds, TrainConfig(**dict(DESK, ablation=ablation)))
    assert refs and checked == [[True] * len(refs)]


def test_score_channel_mismatch_rejected():
    train_ds, test_ds = _tiny_training_pair()
    result = train(train_ds, TrainConfig(**DESK))
    wrong = SeriesDataset(["a", "b", "c", "d"], test_ds.values.copy(), test_ds.labels.copy())
    with pytest.raises(ConfigError, match="channel mismatch"):
        score(wrong, result.checkpoint)


def test_score_rejects_foreign_normalization():
    train_ds, test_ds = _tiny_training_pair()
    result = train(train_ds, TrainConfig(**DESK))
    foreign = SeriesDataset(
        list(test_ds.channel_names), test_ds.values.copy(), test_ds.labels.copy(),
        norm_mean=np.zeros(4), norm_std=np.ones(4) * 42.0,
    )
    with pytest.raises(ConfigError, match="different statistics"):
        score(foreign, result.checkpoint)


def test_constant_data_scores_constant_no_predictions():
    values = np.tile([1.0, 2.0, 3.0], (120, 1))
    ds = SeriesDataset(["a", "b", "c"], values, np.zeros(120))
    with pytest.warns(UserWarning, match="clamped"):
        train_ds, test_ds = split_normalize(ds, 0.6)
    cfg = TrainConfig(window=10, stride=5, batch_size=3, epochs=1, hidden=4, d_step=2, seed=0)
    result = train(train_ds, cfg)
    report = score(test_ds, result.checkpoint)
    assert report.scores.std() < 1e-8
    assert report.predicted.sum() == 0


# checkpoint round trips

def test_checkpoint_roundtrip_bytes(tmp_path):
    train_ds, test_ds = _tiny_training_pair()
    result = train(train_ds, TrainConfig(**DESK))
    p1 = tmp_path / "a.ckpt.json"
    p2 = tmp_path / "b.ckpt.json"
    save_checkpoint(result.checkpoint, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    direct = score(test_ds, result.checkpoint)
    reloaded = score(test_ds, loaded)
    np.testing.assert_allclose(reloaded.scores, direct.scores, atol=1e-12)


def test_checkpoint_version_refusal(tmp_path):
    train_ds, _ = _tiny_training_pair()
    result = train(train_ds, TrainConfig(**DESK))
    path = tmp_path / "ck.json"
    tampered = dict(result.checkpoint)
    tampered["version"] = 99
    save_checkpoint(tampered, path)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_corrupt_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="not a valid checkpoint"):
        load_checkpoint(path)
    path.write_text('{"format": "something-else"}')
    with pytest.raises(CheckpointError, match="not a tsgad-checkpoint"):
        load_checkpoint(path)


def test_model_from_checkpoint_shape_guard():
    train_ds, _ = _tiny_training_pair()
    result = train(train_ds, TrainConfig(**DESK))
    broken = json.loads(json.dumps(result.checkpoint))
    del broken["parameters"]["attention.w_query"]
    with pytest.raises(CheckpointError, match="parameter names disagree"):
        model_from_checkpoint(broken)


def test_ablations_mapping_complete():
    assert set(ABLATIONS) == {"full", "no_wd", "no_gwd", "no_ga"}
    assert ABLATIONS["no_ga"] == ()
