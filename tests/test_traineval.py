import dataclasses

import numpy as np
import pytest

from crashcast import autodiff as ad
from crashcast.autodiff import Parameter, Tape
from crashcast.riskmodel import ModelConfig, ModelParams
from crashcast.scenario import generate_one
from crashcast.traineval import (
    Adam,
    TrainConfig,
    TrainingDivergedError,
    average_precision,
    clip_gradients,
    evaluate,
    first_crossings,
    mtta,
    risk_curves,
    split_dataset,
    train,
    trigger_frame,
    tta,
    video_score,
)

F_DIM = 8
N_OBJ = 4


def _cfgs(**train_kw):
    return (ModelConfig(feature_dim=F_DIM, max_objects=N_OBJ),
            TrainConfig(**train_kw))


def _records(count=8, ratio=0.5, seed=23):
    return [generate_one(seed, i, count, ratio)[0] for i in range(count)]


# --- trigger and tta ---------------------------------------------------------

def test_trigger_frame_hand_cases():
    assert trigger_frame([0.1, 0.4, 0.6, 0.8], 0.5) == 3
    assert trigger_frame([0.1, 0.2, 0.3, 0.4], 0.5) is None
    assert trigger_frame([0.1, 0.4, 0.6, 0.8], 0.0) == 1
    # the crossing must land strictly before the final frame
    assert trigger_frame([0.0, 0.0, 0.9], 0.5) is None
    assert trigger_frame([0.9], 0.5) is None
    with pytest.raises(ValueError):
        trigger_frame([0.1, 0.2], 1.1)


def test_trigger_frame_monotone_in_threshold():
    rng = np.random.default_rng(0)
    for _ in range(100):
        curve = rng.uniform(0, 1, 20)
        prev = 1
        for delta in [0.1, 0.3, 0.5, 0.7, 0.9]:
            m = trigger_frame(curve, delta)
            if m is None:
                break
            assert m >= prev
            prev = m


def _scalar_first_crossing(curve, delta):
    for t in range(len(curve) - 1):
        if curve[t] >= delta:
            return t + 1
    return 0


def test_first_crossings_match_scalar_loop():
    rng = np.random.default_rng(8)
    grid = np.arange(1, 100) / 100.0
    cases = [rng.uniform(0, 1, (30, 20)),
             # values on the grid itself, so crossings tie at exactly delta
             rng.integers(0, 101, (30, 12)) / 100.0,
             rng.uniform(0, 1, (5, 1)),  # T = 1 never triggers
             np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.0], [np.nan, 0.7, 0.2]])]
    for curves in cases:
        for deltas in (grid, np.array([0.0, 1.0]), np.array([0.25, 0.5, 0.75])):
            got = first_crossings(curves, deltas)
            assert got.shape == (len(curves), len(deltas))
            want = [[_scalar_first_crossing(c, d) for d in deltas] for c in curves]
            assert np.array_equal(got, want)
    assert not first_crossings(rng.uniform(0, 1, (4, 1)), grid).any()
    assert np.all(first_crossings(rng.uniform(0, 1, (4, 6)), [0.0]) == 1)


def test_tta_hand_cases():
    assert tta(50, 50, 10) == 0.0
    assert tta(30, 50, 10) == 2.0
    assert tta(55, 50, 10) == 0.0  # late trigger clips at zero


def test_video_score_ignores_post_accident_frames():
    curve = np.array([0.2, 0.3, 0.1, 0.9, 0.9])
    assert video_score(curve, 1, 4) == pytest.approx(0.3)
    assert video_score(curve, 0, 0) == pytest.approx(0.9)
    assert video_score(curve, 1, 1) == 0.0  # no frames precede the onset


# --- average precision -------------------------------------------------------

def brute_ap(scores, labels):
    """Rescan the full set at every distinct threshold, descending."""
    scores = [float(s) for s in scores]
    labels = [int(y) for y in labels]
    positives = sum(labels)
    ap = 0.0
    prev_recall = 0.0
    for th in sorted(set(scores), reverse=True):
        picked = [y for s, y in zip(scores, labels) if s >= th]
        tp = sum(picked)
        precision = tp / len(picked)
        recall = tp / positives
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def test_average_precision_hand_cases():
    assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert average_precision([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == pytest.approx(0.5)
    inverted = average_precision([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
    assert inverted == pytest.approx(5.0 / 12.0, abs=1e-12)
    assert inverted == pytest.approx(brute_ap([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]))


def test_average_precision_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(4, 30))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, n), 2)  # force some ties
        assert average_precision(scores, labels) == pytest.approx(
            brute_ap(scores, labels), abs=1e-12)


def test_average_precision_rank_invariance():
    rng = np.random.default_rng(2)
    scores = rng.uniform(0, 1, 20)
    labels = rng.integers(0, 2, 20)
    labels[0], labels[1] = 1, 0
    base = average_precision(scores, labels)
    assert average_precision(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert average_precision(scores * 7 + 3, labels) == pytest.approx(base, abs=1e-12)


def test_average_precision_degenerate_labels():
    with pytest.raises(ValueError):
        average_precision([0.1, 0.9], [1, 1])
    with pytest.raises(ValueError):
        average_precision([0.1, 0.9], [0, 0])


# --- mtta ----------------------------------------------------------------------

def brute_mtta(curves, labels, lams, fps):
    grid = []
    for k in range(1, 100):
        delta = k / 100.0
        ttas = []
        for curve, y, lam in zip(curves, labels, lams):
            if y != 1:
                continue
            m = None
            for t in range(len(curve) - 1):
                if curve[t] >= delta:
                    m = t + 1
                    break
            if m is not None:
                ttas.append(max(0.0, (lam - m) / fps))
        if ttas:
            grid.append(sum(ttas) / len(ttas))
    return sum(grid) / len(grid) if grid else 0.0


def test_mtta_immediate_trigger():
    curves = [np.ones(50), np.ones(50)]
    lams = [30, 40]
    got = mtta(curves, [1, 1], lams, 10)
    assert got == pytest.approx(((30 - 1) / 10 + (40 - 1) / 10) / 2, abs=1e-12)


def test_mtta_no_trigger_is_zero():
    assert mtta([np.zeros(50)], [1], [30], 10) == 0.0


def test_mtta_matches_brute_force_on_step_curves():
    c1 = np.concatenate([np.zeros(10), np.full(40, 0.6)])
    c2 = np.concatenate([np.zeros(25), np.full(25, 0.35)])
    curves = [c1, c2, np.full(50, 0.99)]
    labels = [1, 1, 0]
    lams = [30, 35, 0]
    assert mtta(curves, labels, lams, 10) == pytest.approx(
        brute_mtta(curves, labels, lams, 10), abs=1e-12)


def test_mtta_matches_brute_force_random():
    rng = np.random.default_rng(3)
    curves = [rng.uniform(0, 1, 50) for _ in range(6)]
    labels = [1, 1, 1, 0, 0, 1]
    lams = [26, 33, 45, 0, 0, 28]
    assert mtta(curves, labels, lams, 10) == pytest.approx(
        brute_mtta(curves, labels, lams, 10), abs=1e-12)


# --- split ---------------------------------------------------------------------

def test_split_dataset_deterministic_and_complete():
    records = _records(count=12)
    tr1, te1 = split_dataset(records)
    tr2, te2 = split_dataset(list(reversed(records)))
    assert {r.id for r in tr1} == {r.id for r in tr2}
    assert {r.id for r in te1} == {r.id for r in te2}
    assert {r.id for r in tr1} | {r.id for r in te1} == {r.id for r in records}
    assert not ({r.id for r in tr1} & {r.id for r in te1})


def test_split_ratio_near_one_quarter():
    class Stub:
        def __init__(self, i):
            self.id = f"scn-0-{i:05d}"

    train_part, test_part = split_dataset([Stub(i) for i in range(400)])
    assert 60 <= len(test_part) <= 140
    assert len(train_part) + len(test_part) == 400


# --- optimizer -----------------------------------------------------------------

def test_adam_minimizes_quadratic():
    x = Parameter(np.array([10.0]), name="x")
    opt = Adam([x], lr=0.1)
    for _ in range(300):
        x.zero_grad()
        with Tape() as tape:
            loss = ad.mul(ad.sub(x, 3.0), ad.sub(x, 3.0))
            tape.backward(ad.tsum(loss))
        opt.step()
    assert abs(float(x.value[0]) - 3.0) < 1e-2


def test_adam_zero_learning_rate_is_identity():
    x = Parameter(np.array([1.0, 2.0]), name="x")
    before = x.value.copy()
    opt = Adam([x], lr=0.0)
    x.zero_grad()
    with Tape() as tape:
        tape.backward(ad.tsum(ad.mul(x, x)))
    opt.step()
    assert np.array_equal(x.value, before)


def test_clip_gradients():
    a = Parameter(np.zeros(3), name="a")
    b = Parameter(np.zeros(4), name="b")
    a.grad = np.full(3, 3.0)
    b.grad = np.full(4, 4.0)
    norm = float(np.sqrt(27.0 + 64.0))
    got = clip_gradients([a, b], 5.0)
    assert got == pytest.approx(norm)
    clipped = float(np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum()))
    assert clipped == pytest.approx(5.0, abs=1e-12)
    a.grad = np.full(3, 0.1)
    b.grad = np.full(4, 0.1)
    clip_gradients([a, b], 5.0)
    assert np.allclose(a.grad, 0.1)


# --- training loop ---------------------------------------------------------------

def test_train_is_deterministic():
    records = _records()
    model_cfg, train_cfg = _cfgs(epochs=2, batch_size=4, seed=5)
    runs = []
    for _ in range(2):
        params = ModelParams.init(model_cfg, np.random.default_rng(9))
        res = train(records, params, model_cfg, train_cfg)
        runs.append(res)
    for name, arr in runs[0].params.state_dict().items():
        assert np.array_equal(arr, runs[1].params.state_dict()[name])
    assert runs[0].log == runs[1].log


def test_train_loss_decreases_on_separable_video():
    records = _records(count=1, ratio=1.0)
    model_cfg, _ = _cfgs()
    train_cfg = TrainConfig(epochs=50, batch_size=1, seed=3)
    params = ModelParams.init(model_cfg, np.random.default_rng(4))
    res = train(records, params, model_cfg, train_cfg)
    losses = [row["L"] for row in res.log if row["split"] == "train"]
    assert len(losses) == 50
    assert all(b < a for a, b in zip(losses[:10], losses[1:11]))


def test_train_zero_learning_rate_keeps_params():
    records = _records(count=4)
    model_cfg, train_cfg = _cfgs(
        epochs=1, batch_size=2, learning_rate=0.0)
    params = ModelParams.init(model_cfg, np.random.default_rng(11))
    before = {k: v.copy() for k, v in params.state_dict().items()}
    train(records, params, model_cfg, train_cfg)
    for name, arr in params.state_dict().items():
        assert np.array_equal(arr, before[name])


def test_train_raises_on_divergence():
    records = _records(count=2)
    model_cfg, train_cfg = _cfgs(epochs=1, batch_size=2)
    params = ModelParams.init(model_cfg, np.random.default_rng(12))
    params.u.value[...] = np.nan
    with pytest.raises(TrainingDivergedError):
        train(records, params, model_cfg, train_cfg)


def test_train_stops_at_a_non_finite_gradient_norm(monkeypatch):
    records = _records(count=4)
    model_cfg, train_cfg = _cfgs(epochs=1, batch_size=2)
    params = ModelParams.init(model_cfg, np.random.default_rng(15))
    backward = Tape.backward
    calls = []
    snapshot = {}

    def poisoned(self, root):
        backward(self, root)
        calls.append(1)
        if len(calls) == 2:  # the second step: one clean update has run
            snapshot.update((k, v.copy()) for k, v in params.state_dict().items())
            params.head_b2.grad[0] = np.nan

    monkeypatch.setattr(Tape, "backward", poisoned)
    with pytest.raises(TrainingDivergedError,
                       match=r"non-finite gradient norm at step 2 \(epoch 0\): nan"):
        train(records, params, model_cfg, train_cfg)
    assert len(calls) == 2
    for name, arr in params.state_dict().items():
        assert np.array_equal(arr, snapshot[name])


def test_train_resume_matches_uninterrupted():
    records = _records()
    model_cfg, _ = _cfgs()
    full_cfg = TrainConfig(epochs=4, batch_size=4, seed=7)
    half_cfg = TrainConfig(epochs=2, batch_size=4, seed=7)

    solid = ModelParams.init(model_cfg, np.random.default_rng(13))
    res_full = train(records, solid, model_cfg, full_cfg)

    pieced = ModelParams.init(model_cfg, np.random.default_rng(13))
    first = train(records, pieced, model_cfg, half_cfg)
    second = train(records, pieced, model_cfg, full_cfg,
                   start_epoch=2, opt_state=first.opt_state)
    assert abs(second.final_loss - res_full.final_loss) <= 1e-9
    for name, arr in res_full.params.state_dict().items():
        assert np.allclose(arr, second.params.state_dict()[name], atol=1e-12)


def test_train_emits_validation_rows():
    records = _records()
    model_cfg, train_cfg = _cfgs(epochs=2, batch_size=4)
    params = ModelParams.init(model_cfg, np.random.default_rng(14))
    res = train(records[:6], params, model_cfg, train_cfg,
                val_records=records[6:])
    val_rows = [r for r in res.log if r["split"] == "val"]
    assert len(val_rows) == 2
    assert all(np.isfinite(r["L"]) for r in res.log)


def test_train_config_validation():
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "learning_rate", "epochs", "batch_size", "seed"]
    for rate in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning_rate must be a finite number"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


# --- evaluate ---------------------------------------------------------------------

def test_evaluate_report_structure():
    records = _records()
    model_cfg, _ = _cfgs()
    params = ModelParams.init(model_cfg, np.random.default_rng(15))
    report, curves = evaluate(records, params, model_cfg)
    assert curves.shape == (len(records), records[0].frames)
    assert 0.0 <= report.ap <= 1.0
    assert report.mtta >= 0.0
    assert len(report.videos) == len(records)
    assert len(report.sweep) == 99
    for v in report.videos:
        if v.label == 0:
            assert v.tta_seconds is None
    d = report.to_dict()
    assert set(d) == {"ap", "mtta", "threshold", "sweep", "videos"}
    # chunked inference agrees with one-shot inference up to the last bits
    # (a one-row batch can take another BLAS path)
    whole = risk_curves(records, params, model_cfg, chunk=len(records))
    assert np.allclose(curves, whole, rtol=0.0, atol=1e-12)
    for chunk in (1, 3):
        part = risk_curves(records, params, model_cfg, chunk=chunk)
        assert np.allclose(part, whole, rtol=0.0, atol=1e-12), chunk


def test_evaluate_rejects_bad_threshold_and_degenerate_labels():
    records = _records()
    model_cfg, _ = _cfgs()
    params = ModelParams.init(model_cfg, np.random.default_rng(16))
    with pytest.raises(ValueError):
        evaluate(records, params, model_cfg, threshold=1.1)
    positives = [r for r in records if r.positive]
    with pytest.raises(ValueError):
        evaluate(positives, params, model_cfg)
