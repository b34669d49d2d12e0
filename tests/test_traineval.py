import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashcast import autodiff as ad
from crashcast import traineval
from crashcast.autodiff import Parameter, Tape
from crashcast.features import build_features, stack
from crashcast.riskmodel import ModelConfig, ModelParams
from crashcast.scenario.generate import generate_one
from crashcast.scenario.records import ScenarioRecord, object_columns, scene_label
from crashcast.traineval import (
    Adam,
    TrainConfig,
    TrainingDivergedError,
    average_precision,
    clip_gradients,
    evaluate,
    first_crossings,
    report_from_curves,
    risk_curves,
    split_dataset,
    train,
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

def _report(curves, labels, lams, fps=10, threshold=0.5):
    """report_from_curves with ids v0, v1, ... in curve order."""
    return report_from_curves(np.asarray(curves, dtype=float),
                              [f"v{i}" for i in range(len(curves))],
                              labels, lams, fps, threshold)


def test_first_crossings_hand_cases():
    assert first_crossings([[0.1, 0.4, 0.6, 0.8]], [0.5]).tolist() == [[3]]
    assert first_crossings([[0.1, 0.2, 0.3, 0.4]], [0.5]).tolist() == [[0]]
    assert first_crossings([[0.1, 0.4, 0.6, 0.8]], [0.0]).tolist() == [[1]]
    # the crossing must land strictly before the final frame
    assert first_crossings([[0.0, 0.0, 0.9]], [0.5]).tolist() == [[0]]
    assert first_crossings([[0.9]], [0.5]).tolist() == [[0]]
    # the report reads a 0 entry as no trigger
    videos = _report([[0.1, 0.4, 0.6, 0.8], [0.0, 0.0, 0.0, 0.9]],
                     [1, 0], [4, 0])["videos"]
    assert [v["trigger"] for v in videos] == [3, None]


def test_first_crossings_monotone_in_threshold():
    rng = np.random.default_rng(0)
    deltas = [0.1, 0.3, 0.5, 0.7, 0.9]
    for row in first_crossings(rng.uniform(0, 1, (100, 20)), deltas):
        hits = row[row > 0]
        # a curve that never reaches delta never reaches a higher one
        assert np.array_equal(row[:len(hits)], hits)
        assert np.all(np.diff(hits) >= 0)


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


def test_first_crossings_memory_is_a_small_multiple_of_its_result():
    # a (B, T - 1, D) comparison took 14.0 MiB at 2,400 videos; counted per
    # curve, the peak is within a few (B, D) tables
    rng = np.random.default_rng(9)
    curves = rng.uniform(0, 1, (2400, 50))
    deltas = np.append(np.arange(1, 100) / 100.0, 0.5)
    tracemalloc.start()
    try:
        got = first_crossings(curves, deltas)
        held = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= 3 * got.nbytes, (held, got.nbytes)


def test_tta_hand_cases():
    # triggers at frames 50, 30, 55 and never, then a negative at frame 1
    curves = np.zeros((5, 60))
    for row, m in enumerate([50, 30, 55]):
        curves[row, m - 1] = 1.0
    curves[4, 0] = 1.0
    report = _report(curves, [1, 1, 1, 1, 0], [50, 50, 50, 50, 0])
    assert [v["trigger"] for v in report["videos"]] == [50, 30, 55, None, 1]
    # a late trigger clips at zero; no trigger and negatives have no TTA
    assert [v["tta_seconds"] for v in report["videos"]] == [
        0.0, 2.0, 0.0, None, None]


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


def _with_negative(curves, labels, lams):
    """The set plus one negative with an all-zero curve, so that AP (which
    needs both classes) can be computed; negatives never enter mTTA."""
    curves = np.asarray(curves, dtype=float)
    return (np.vstack([curves, np.zeros(curves.shape[1])]),
            [*labels, 0], [*lams, 0])


def test_mtta_immediate_trigger():
    curves, labels, lams = _with_negative([np.ones(50), np.ones(50)],
                                          [1, 1], [30, 40])
    got = _report(curves, labels, lams)["mtta"]
    assert got == pytest.approx(((30 - 1) / 10 + (40 - 1) / 10) / 2, abs=1e-12)


def test_mtta_no_trigger_is_zero():
    assert _report(*_with_negative([np.zeros(50)], [1], [30]))["mtta"] == 0.0


def test_mtta_matches_brute_force_on_step_curves():
    c1 = np.concatenate([np.zeros(10), np.full(40, 0.6)])
    c2 = np.concatenate([np.zeros(25), np.full(25, 0.35)])
    curves, labels, lams = _with_negative([c1, c2, np.full(50, 0.99)],
                                          [1, 1, 0], [30, 35, 0])
    assert _report(curves, labels, lams)["mtta"] == pytest.approx(
        brute_mtta(curves, labels, lams, 10), abs=1e-12)


def test_mtta_matches_brute_force_random():
    rng = np.random.default_rng(3)
    curves, labels, lams = _with_negative(
        [rng.uniform(0, 1, 50) for _ in range(6)],
        [1, 1, 1, 0, 0, 1], [26, 33, 45, 0, 0, 28])
    assert _report(curves, labels, lams)["mtta"] == pytest.approx(
        brute_mtta(curves, labels, lams, 10), abs=1e-12)


@st.composite
def _eval_sets(draw):
    frames = draw(st.integers(1, 12))
    # risk on the hundredths too, so crossings tie with the grid exactly
    risk = st.one_of(st.floats(0.0, 1.0), st.integers(0, 100).map(lambda k: k / 100))
    labels = [1, 0] + draw(st.lists(st.integers(0, 1), max_size=6))
    curves = [draw(st.lists(risk, min_size=frames, max_size=frames))
              for _ in labels]
    lams = [draw(st.integers(0, frames + 2)) if y else 0 for y in labels]
    threshold = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return curves, labels, lams, draw(st.integers(1, 30)), threshold


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_eval_sets())
def test_report_triggers_and_ttas_match_a_scalar_loop(case):
    curves, labels, lams, fps, threshold = case
    report = _report(curves, labels, lams, fps, threshold)
    for video, curve, y, lam in zip(report["videos"], curves, labels, lams):
        m = _scalar_first_crossing(curve, threshold)
        assert video["trigger"] == (m or None)
        assert video["tta_seconds"] == (
            max(0.0, (lam - m) / fps) if y == 1 and m else None)
    for k, row in enumerate(report["sweep"], start=1):
        ttas = []
        for curve, y, lam in zip(curves, labels, lams):
            m = _scalar_first_crossing(curve, k / 100)
            if y == 1 and m:
                ttas.append(max(0.0, (lam - m) / fps))
        assert row["delta"] == k / 100
        assert row["triggered"] == len(ttas)
        assert row["mean_tta"] == (float(np.mean(ttas)) if ttas else 0.0)


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


def _adam_state():
    return {"opt.step": np.array(3.0), "opt.m.x": np.array([0.1, -0.2]),
            "opt.v.x": np.array([0.3, -0.0])}


def test_adam_load_state_dict_takes_a_written_state():
    opt = Adam([Parameter(np.array([1.0, 2.0]), name="x")])
    opt.load_state_dict(_adam_state())
    assert opt.t == 3
    for key, arr in opt.state_dict().items():
        assert np.array_equal(arr, _adam_state()[key]), key


@pytest.mark.parametrize("key,value,error,text", [
    ("opt.m.x", None, KeyError, "lacks the opt.m.x tensor"),
    ("opt.step", None, KeyError, "lacks the opt.step tensor"),
    ("opt.v.x", np.zeros(3), ValueError, "opt.v.x has shape (3,), expected (2,)"),
    ("opt.step", np.zeros(1), ValueError, "opt.step has shape (1,), expected ()"),
    ("opt.v.x", np.array([0.3, -1e-12]), ValueError,
     "opt.v.x holds a negative value"),
    *(("opt.step", np.array(step), ValueError,
       f"opt.step is {step!r}, expected a whole number >= 0")
      for step in (2.5, -1.0, np.nan, np.inf)),
], ids=["no-m", "no-step", "v-shape", "step-shape", "negative-v",
        "step-2.5", "step--1", "step-nan", "step-inf"])
def test_adam_load_state_dict_refuses_naming_the_tensor(key, value, error, text):
    opt = Adam([Parameter(np.array([1.0, 2.0]), name="x")])
    state = _adam_state()
    if value is None:
        del state[key]
    else:
        state[key] = value
    with pytest.raises(error, match=re.escape(text)):
        opt.load_state_dict(state)
    # nothing was loaded
    assert opt.t == 0 and not opt.m["x"].any() and not opt.v["x"].any()


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
    got = clip_gradients([a, b])
    assert got == pytest.approx(norm)
    clipped = float(np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum()))
    assert clipped == pytest.approx(5.0, abs=1e-12)
    a.grad = np.full(3, 0.1)
    b.grad = np.full(4, 0.1)
    clip_gradients([a, b])
    assert np.allclose(a.grad, 0.1)


def test_clip_gradients_overflow_reads_inf_without_a_warning():
    # pytest turns the overflow warning into an error; train refuses the inf
    a = Parameter(np.zeros(2), name="a")
    a.grad = np.array([1e200, -3.0])
    assert clip_gradients([a]) == np.inf


# --- training loop ---------------------------------------------------------------

def test_train_is_deterministic():
    records = _records()
    model_cfg, train_cfg = _cfgs(epochs=2, batch_size=4, seed=5)
    runs, trained = [], []
    for _ in range(2):
        params = ModelParams.init(model_cfg, np.random.default_rng(9))
        runs.append(train(records, params, model_cfg, train_cfg))
        trained.append(params)
    for name, arr in trained[0].state_dict().items():
        assert np.array_equal(arr, trained[1].state_dict()[name])
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
    opt = Adam(pieced.parameters(), full_cfg.learning_rate)
    opt.load_state_dict(first.opt_state)
    second = train(records, pieced, model_cfg, full_cfg,
                   start_epoch=2, opt=opt)
    assert abs(second.final_loss - res_full.final_loss) <= 1e-9
    for name, arr in solid.state_dict().items():
        assert np.allclose(arr, pieced.state_dict()[name], atol=1e-12)


def test_train_emits_validation_rows():
    records = _records()
    model_cfg, train_cfg = _cfgs(epochs=2, batch_size=4)
    params = ModelParams.init(model_cfg, np.random.default_rng(14))
    res = train(records[:6], params, model_cfg, train_cfg,
                val_records=records[6:])
    val_rows = [r for r in res.log if r["split"] == "val"]
    assert len(val_rows) == 2
    assert all(np.isfinite(r["L"]) for r in res.log)


def test_validation_rows_are_chunk_weighted_means(monkeypatch):
    records = _records(count=14)
    train_recs, val_recs = records[:4], records[4:]  # 10 videos: 2.5 batches
    frames, fps = records[0].frames, records[0].fps
    model_cfg, train_cfg = _cfgs(epochs=1, batch_size=4)
    anchors = []
    align_loss = traineval.align_loss

    def spy(f_vis, f_text, **kw):
        anchors.append(f_vis.shape[0] * f_vis.shape[1])
        return align_loss(f_vis, f_text, **kw)

    monkeypatch.setattr(traineval, "align_loss", spy)
    params = ModelParams.init(model_cfg, np.random.default_rng(15))
    res = train(train_recs, params, model_cfg, train_cfg, val_records=val_recs)
    # one train step, then the validation chunks of 4, 4 and 2 videos
    assert anchors == [4 * frames] * 3 + [2 * frames]
    (row,) = [r for r in res.log if r["split"] == "val"]
    videos = [build_features([rec], F_DIM, N_OBJ) for rec in val_recs]
    want = np.zeros(3)
    for lo, hi in ((0, 4), (4, 8), (8, 10)):
        losses = traineval._batch_losses(stack(videos[lo:hi]),
                                         params, model_cfg, frames, fps)
        want += (hi - lo) * np.array([l.item() for l in losses[:3]])
    want /= len(val_recs)
    got = [row["L1"], row["L2"], row["L3"], row["L"]]
    full = want[0] + frames * want[1] + want[2]
    assert np.allclose(got, [*want, full], rtol=0.0, atol=1e-12)


def _hand_record(rec_id, like, frames):
    """A record with like's frame count, rate and environment and the given
    object rows per frame, as object_columns takes them."""
    env = like.environment
    return ScenarioRecord(rec_id, False, like.fps, like.frames, None, env,
                          [scene_label(env, len(rows)) for rows in frames],
                          **object_columns(frames))


def _wide_record(like, objects=25):
    """Every frame holds objects distinct objects, more than max_objects."""
    return _hand_record("wide", like, [
        [(f"obj-{k}", 3.0 * k, t - k, 1.0 + k, 0.1 * k, 40.0 * k, 300.0 + t,
          5.0 + k, "straight") for k in range(objects)]
        for t in range(like.frames)])


@pytest.mark.parametrize("feature_dim, max_objects", [(8, 4), (32, 19)])
def test_train_videos_equal_one_record_batches(feature_dim, max_objects):
    # 36 videos: a full chunk of 32 and a short one, a video wider than
    # max_objects next to narrow ones, and one with no objects at all
    records = _records(count=34, seed=29)
    records.insert(3, _wide_record(records[0]))
    records.append(_hand_record("empty", records[0], [[]] * records[0].frames))
    model_cfg = ModelConfig(feature_dim=feature_dim, max_objects=max_objects)
    videos = traineval._video_batches(records, model_cfg)
    assert len(videos) == len(records)
    for rec, got in zip(records, videos):
        want = build_features([rec], feature_dim, max_objects)
        for name in ("visual", "text", "mask", "centers", "depths", "labels",
                     "accident_frames"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (rec.id, name)
            assert a.tobytes() == b.tobytes(), (rec.id, name)
            assert a.flags.c_contiguous and a.base is None, (rec.id, name)
    assert videos[3].objects == max_objects and videos[-1].objects == 1


def test_train_builds_features_once_per_chunk(monkeypatch):
    calls = []

    def counting(records, *shape):
        calls.append(len(records))
        return build_features(records, *shape)

    monkeypatch.setattr(traineval, "build_features", counting)
    records = _records() * 9  # 72 videos; each of the 8 ids repeats
    model_cfg, train_cfg = _cfgs(epochs=1, batch_size=16)
    params = ModelParams.init(model_cfg, np.random.default_rng(16))
    train(records[:33], params, model_cfg, train_cfg, val_records=records[33:])
    # ceil(33 / 32) training chunks, then ceil(39 / 32) validation chunks
    assert calls == [32, 1, 32, 7]


def test_one_step_tape_stays_within_its_memory_bound():
    # a default-shape B=8 step holds 13.5 MiB of arrays at the end of its
    # forward, and 23.8 MiB when every node kept its input tensors
    records = _records(seed=5)
    model_cfg = ModelConfig()
    params = ModelParams.init(model_cfg, np.random.default_rng(0))
    batch = build_features(records, model_cfg.feature_dim, model_cfg.max_objects)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            *_, loss = traineval._batch_losses(batch, params, model_cfg,
                                               records[0].frames, records[0].fps)
            held = tracemalloc.get_traced_memory()[0] - base
            tape.backward(loss)
    finally:
        tracemalloc.stop()
    assert held < 15.5 * 2**20


def test_train_config_validation():
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "learning_rate", "epochs", "batch_size", "seed"]
    for rate in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning_rate must be a finite number"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


# --- evaluate ---------------------------------------------------------------------

def test_evaluate_report_structure(monkeypatch):
    records = _records()
    model_cfg, _ = _cfgs()
    params = ModelParams.init(model_cfg, np.random.default_rng(15))
    report, curves = evaluate(records, params, model_cfg)
    assert curves.shape == (len(records), records[0].frames)
    assert set(report) == {"ap", "mtta", "threshold", "sweep", "videos"}
    assert 0.0 <= report["ap"] <= 1.0
    assert report["mtta"] >= 0.0
    assert [v["id"] for v in report["videos"]] == [r.id for r in records]
    assert len(report["sweep"]) == 99
    for v in report["videos"]:
        if v["label"] == 0:
            assert v["tta_seconds"] is None
    # chunked inference agrees with one-shot inference up to the last bits
    # (a one-row batch can take another BLAS path)
    monkeypatch.setattr(traineval, "EVAL_CHUNK", len(records))
    whole = risk_curves(records, params, model_cfg)
    assert np.allclose(curves, whole, rtol=0.0, atol=1e-12)
    for chunk in (1, 3):
        monkeypatch.setattr(traineval, "EVAL_CHUNK", chunk)
        part = risk_curves(records, params, model_cfg)
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
