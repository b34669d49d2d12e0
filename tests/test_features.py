import dataclasses
import math

import numpy as np
import pytest

from crashcast import autodiff as ad
from crashcast import features
from crashcast.autodiff import Parameter, grad_check
from crashcast.features import (
    assign_slots,
    build_features,
    distance_velocity_stacks,
    edge_weight_stack,
    fuse_weights,
    gated_fuse,
    geo_weights,
    geometry_alpha,
    object_size,
    pairwise_distance,
    stack,
    text_weights,
    _behavior_table,
    _label_embedding,
    _visual_projections,
)
from crashcast.scenario.generate import generate_one
from crashcast.scenario.records import (
    EnvironmentProfile,
    ScenarioRecord,
    object_columns,
    scene_label,
)


def _state(oid, x=0.0, y=0.0, speed=5.0, heading=0.0, cx=640.0, cy=360.0,
           depth=10.0, behavior="straight"):
    """One object row of one frame, as object_columns takes it."""
    return (oid, x, y, speed, heading, cx, cy, depth, behavior)


def _record(frames, rec_id="vid-0", positive=False, accident_frame=None):
    env = EnvironmentProfile("clear", "day", "urban")
    labels = [scene_label(env, len(frame)) for frame in frames]
    return ScenarioRecord(rec_id, positive, 10, len(frames), accident_frame,
                          env, labels, **object_columns(frames))


# --- pairwise distance and relative velocity -------------------------------

def test_pairwise_distance_hand_values():
    # at _SCALE = 1/1280, 1280 pixels weigh as much as a meter of depth
    d = pairwise_distance([(0.0, 0.0), (3840.0, 5120.0)], [5.0, 5.0])
    assert d[0, 1] == pytest.approx(25.0, abs=1e-12) and d[1, 0] == d[0, 1]
    assert d[0, 0] == 0.0 and d[1, 1] == 0.0

    d = pairwise_distance([(0.0, 0.0), (2560.0, 0.0)], [0.0, 3.0])
    assert d[0, 1] == pytest.approx(13.0, abs=1e-12)


def test_pairwise_distance_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        d = pairwise_distance(rng.normal(size=(n, 2)) * 400,
                              rng.uniform(0, 80, n))
        assert np.all(d >= 0)
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)


def test_distance_velocity_stacks_hand_case():
    centers = np.array([[[0.0, 0.0], [3840.0, 5120.0]],
                        [[0.0, 0.0], [0.0, 5120.0]]])
    depths = np.full((2, 2), 5.0)
    mask = np.ones((2, 2), dtype=bool)
    dbar, vbar, pair = distance_velocity_stacks(centers, depths, mask)
    d = pairwise_distance(centers, depths)
    assert d[0, 0, 1] == pytest.approx(25.0) and d[1, 0, 1] == pytest.approx(16.0)
    # the one velocity entry, d[1] - d[0] = -9, is its frame's peak
    assert np.all(vbar[0] == 0.0) and vbar[1, 0, 1] == -1.0
    assert dbar[0, 0, 1] == 1.0 and dbar[1, 0, 1] == 1.0
    assert pair.all()


def test_distance_velocity_stacks_masks_absent_objects():
    rng = np.random.default_rng(1)
    centers = rng.uniform(0, 1280, (3, 3, 2))
    depths = rng.uniform(1, 60, (3, 3))
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 2] = False
    dbar, vbar, pair = distance_velocity_stacks(centers, depths, mask)
    assert np.all(dbar[1, 2, :] == 0.0) and np.all(dbar[1, :, 2] == 0.0)
    # velocity needs the pair in both frames, so frame 2 column 2 is out too
    assert np.all(vbar[2, 2, :] == 0.0)
    assert np.all(np.isfinite(dbar)) and np.all(np.isfinite(vbar))
    assert np.abs(dbar).max() <= 1.0 and np.abs(vbar).max() <= 1.0


def test_normalization_of_all_zero_stack_is_zero():
    centers = np.zeros((4, 1, 2))
    depths = np.zeros((4, 1))
    mask = np.ones((4, 1), dtype=bool)
    dbar, vbar, _ = distance_velocity_stacks(centers, depths, mask)
    assert np.all(dbar == 0.0) and np.all(vbar == 0.0)


# --- geometry weights -------------------------------------------------------

def test_geo_weights_hand_values():
    w = geo_weights(np.array([0.0]), np.array([0.0]), 0.5)
    assert w.value[0] == pytest.approx(0.5, abs=1e-12)
    w = geo_weights(np.array([1.0]), np.array([1.0]), 0.5)
    assert w.value[0] == pytest.approx(0.6839397205857212, abs=1e-9)


def test_geo_weights_alpha_one_is_pure_distance_kernel():
    rng = np.random.default_rng(2)
    dbar = rng.uniform(0, 1, (5, 5))
    vbar = rng.uniform(-1, 1, (5, 5))
    assert np.allclose(geo_weights(dbar, vbar, 1.0).value, np.exp(-dbar), atol=1e-12)


def test_geometry_alpha_range():
    assert geometry_alpha(Parameter(1.0, name="a")).item() == pytest.approx(0.5)
    assert geometry_alpha(Parameter(3.0, name="a")).item() == pytest.approx(0.75)
    for a0 in [0.0, 0.01, 1.0, 7.0, 1e6]:
        alpha = geometry_alpha(Parameter(a0, name="a")).item()
        assert 0.0 <= alpha < 1.0


# --- text weights -----------------------------------------------------------

def test_text_weights_identical_pair_is_uniform():
    e = np.tile(np.array([[0.6, 0.8]]), (2, 1))
    w = text_weights(e, np.ones((2, 2), dtype=bool), 2).value
    assert np.allclose(w, 0.5, atol=1e-12)


def test_text_weights_orthogonal_pair_hand_value():
    # logits 1 / _TAU_TEXT = 2 on the diagonal, 0 off it: sigmoid(+-2)
    e = np.eye(2)
    w = text_weights(e, np.ones((2, 2), dtype=bool), 2).value
    assert w[0, 0] == pytest.approx(0.8807970779778823, abs=1e-12)
    assert w[0, 1] == pytest.approx(0.11920292202211755, abs=1e-12)
    assert w[1, 1] == pytest.approx(0.8807970779778823, abs=1e-12)


def test_text_weight_rows_are_distributions():
    rng = np.random.default_rng(7)
    e = rng.standard_normal((1000, 5, 8))
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    w = text_weights(e, np.ones((1000, 5, 5), dtype=bool), 5).value
    assert np.all(np.isfinite(w)) and np.all(w >= 0)
    assert np.abs(w.sum(axis=-1) - 1.0).max() < 1e-9


def test_text_weights_masked_pairs_are_exact_zero():
    rng = np.random.default_rng(8)
    e = rng.standard_normal((3, 4))
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    pair = np.ones((3, 3), dtype=bool)
    pair[2, :] = pair[:, 2] = False
    w = text_weights(e, pair, 3).value
    assert w[0, 2] == 0.0 and w[1, 2] == 0.0
    assert w[0, :2].sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(w))


def test_text_weights_over_leading_slots_equal_full_width():
    # slots >= k absent everywhere: the leading k x k block of the full
    # softmax, bit for bit, with an absent row uniform 1/O over all O slots
    rng = np.random.default_rng(9)
    e = rng.standard_normal((4, 6, 8))
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    present = rng.random((4, 6)) < 0.6
    present[:, 3:] = False
    present[0, 1] = False
    e[~present] = 0.0
    pair = present[:, :, None] & present[:, None, :]
    full = text_weights(e, pair, 6).value
    for k in (3, 4, 6):
        got = text_weights(e[:, :k], pair[:, :k, :k], 6).value
        assert np.array_equal(got, full[:, :k, :k])
    assert np.all(got[0, 1] == 1.0 / 6.0)


def test_text_weights_match_broadcast_cosine():
    def broadcast_reference(e, tau, pair):
        logits = (e[..., :, None, :] * e[..., None, :, :]).sum(axis=-1) / tau
        logits = logits + np.where(pair, 0.0, -1e30)
        x = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return x / x.sum(axis=-1, keepdims=True)

    rng = np.random.default_rng(21)
    e = rng.standard_normal((3, 5, 7, 16))
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    present = rng.random((3, 5, 7)) < 0.6
    pair = present[..., :, None] & present[..., None, :]
    for mask in [np.ones_like(pair), pair]:
        got = text_weights(e, mask, 7).value
        want = broadcast_reference(e, features._TAU_TEXT, mask)
        assert np.allclose(got, want, rtol=0.0, atol=1e-15)
    assert np.all(got[~pair & present[..., :, None]] == 0.0)
    # the embeddings are data: nothing is recorded for them
    with ad.Tape() as tape:
        text_weights(ad.Tensor(e), pair, 7)
    assert len(tape) == 0


# --- fused weights ----------------------------------------------------------

def test_fuse_weights_hand_values():
    g = np.full((2, 2), 1.0)
    t = np.zeros((2, 2))
    assert np.allclose(fuse_weights(g, t, 0.0).value, 0.5, atol=1e-12)
    assert np.abs(fuse_weights(g, t, 50.0).value).max() <= 1e-9
    assert np.allclose(fuse_weights(g, t, -50.0).value, 1.0, atol=1e-9)
    assert np.allclose(fuse_weights(g, t, math.log(3.0)).value, 0.25, atol=1e-12)


def test_fuse_weights_convex_combination():
    rng = np.random.default_rng(9)
    for beta in [-4.0, -0.3, 0.0, 1.7, 6.0]:
        g = rng.normal(size=(6, 6))
        t = rng.normal(size=(6, 6))
        w = fuse_weights(g, t, beta).value
        assert np.all(w >= np.minimum(g, t) - 1e-12)
        assert np.all(w <= np.maximum(g, t) + 1e-12)


# --- gated embedding fusion -------------------------------------------------

def _zero_gate(f_dim):
    return (Parameter(np.zeros((2 * f_dim, f_dim)), name="w"),
            Parameter(np.zeros(f_dim), name="b"))


def _random_gate(f_dim, rng):
    """(W_g, b_g) drawn as ModelParams.init draws a gate."""
    w = rng.normal(size=(2 * f_dim, f_dim)) / math.sqrt(2 * f_dim)
    return Parameter(w, name="w"), Parameter(np.zeros(f_dim), name="b")


def test_gated_fuse_zero_gate_is_mean():
    rng = np.random.default_rng(10)
    xv = rng.normal(size=(3, 4))
    xt = rng.normal(size=(3, 4))
    out = gated_fuse(xv, xt, *_zero_gate(4)).value
    assert np.allclose(out, 0.5 * (xv + xt), atol=1e-12)


def test_gated_fuse_saturated_bias_selects_one_stream():
    rng = np.random.default_rng(11)
    xv = rng.normal(size=(2, 3))
    xt = rng.normal(size=(2, 3))
    w_g = Parameter(np.zeros((6, 3)), name="w")
    b_g = Parameter(np.full(3, 50.0), name="b")
    assert np.abs(gated_fuse(xv, xt, w_g, b_g).value - xv).max() <= 1e-9
    b_g.value[:] = -50.0
    assert np.abs(gated_fuse(xv, xt, w_g, b_g).value - xt).max() <= 1e-9


def test_gated_fuse_fixed_point_and_interval():
    rng = np.random.default_rng(12)
    gate = _random_gate(5, rng)
    x = rng.normal(size=(4, 5))
    assert np.allclose(gated_fuse(x, x, *gate).value, x, atol=1e-12)
    xv = rng.normal(size=(4, 5))
    xt = rng.normal(size=(4, 5))
    out = gated_fuse(xv, xt, *gate).value
    assert np.all(out >= np.minimum(xv, xt) - 1e-12)
    assert np.all(out <= np.maximum(xv, xt) + 1e-12)


# --- gradients --------------------------------------------------------------

def test_weight_pipeline_gradients_match_fd():
    rng = np.random.default_rng(3)
    dbar = rng.uniform(0, 1, (2, 4, 4))
    vbar = rng.uniform(-1, 1, (2, 4, 4))
    emb = rng.standard_normal((2, 4, 6))
    emb /= np.linalg.norm(emb, axis=-1, keepdims=True)
    probe = rng.standard_normal((2, 4, 4))
    a = Parameter(0.7, name="a")
    beta = Parameter(0.3, name="beta")

    def f():
        w = fuse_weights(geo_weights(dbar, vbar, geometry_alpha(a)),
                         text_weights(emb, np.ones((2, 4, 4), dtype=bool), 4),
                         beta)
        return ad.tsum(ad.mul(w, probe))

    assert grad_check(f, [a, beta], rng=rng) < 1e-6


def test_gate_gradients_match_fd():
    rng = np.random.default_rng(5)
    gate = _random_gate(6, rng)
    xv = rng.standard_normal((3, 2, 6))
    xt = rng.standard_normal((3, 2, 6))
    probe = rng.standard_normal((3, 2, 6))

    def f():
        return ad.tsum(ad.mul(gated_fuse(xv, xt, *gate), probe))

    assert grad_check(f, list(gate), rng=rng) < 1e-6


# --- synthetic embeddings ---------------------------------------------------

def test_synth_visual_deterministic_given_seed():
    rec = _record([[_state("a"), _state("b", x=4.0)] for _ in range(3)])
    one = build_features([rec], 8, 4).visual
    two = build_features([rec], 8, 4).visual
    assert np.array_equal(one, two)
    # the noise stream is the video's own, keyed by its id
    other = build_features([dataclasses.replace(rec, id="vid-1")], 8, 4).visual
    assert not np.array_equal(one, other)


def test_synth_visual_zero_noise_reflects_state(monkeypatch):
    monkeypatch.setattr(features, "_NOISE_SIGMA", 0.0)
    frames = [
        [_state("a", x=1.0, depth=9.0)],
        [_state("a", x=1.0, depth=9.0)],
        [_state("a", x=1.0, depth=22.0)],
    ]
    emb = build_features([_record(frames)], 8, 4).visual[0]
    assert np.array_equal(emb[0, 1], emb[1, 1])
    assert not np.array_equal(emb[0, 1], emb[2, 1])
    # frame slot is always populated, absent object slots stay zero
    assert np.any(emb[0, 0] != 0.0)


def test_synth_visual_absent_slots_are_zero():
    frames = [[_state("a")], [_state("a"), _state("b", x=6.0)]]
    emb = build_features([_record(frames)], 8, 4).visual[0]
    assert np.all(emb[0, 2] == 0.0)
    assert np.any(emb[1, 2] != 0.0)
    assert np.all(np.isfinite(emb))


def test_synth_visual_matches_per_object_loop(monkeypatch):
    from crashcast.features import _FEATURE_SEED, _STATE_SCALES
    from crashcast.util import stable_u64, stream_rng

    projections = _visual_projections(8)

    def loop_reference(record, feature_dim, rng, slot_ids, noise_sigma):
        index = {oid: k + 1 for k, oid in enumerate(slot_ids)}
        out = np.zeros((record.frames, len(slot_ids) + 1, feature_dim))
        filled = np.zeros(out.shape[:2], dtype=bool)
        env = record.environment
        env_code = (stable_u64("env", env.weather, env.lighting, env.road_type)
                    % 1000) / 1000.0
        for t in range(record.frames):
            a, b = record.frame_starts[t], record.frame_starts[t + 1]
            x, y, speed, heading, _, _, depth = record.states[a:b].T
            if b > a:
                agg = np.array([
                    (b - a) / 19.0,
                    float(np.mean(speed)) / 15.0,
                    float(np.mean(depth)) / 100.0,
                    float(np.mean(x)) / 100.0,
                    float(np.mean(y)) / 100.0,
                    env_code,
                ])
                out[t, 0] = agg @ projections["frame"]
                filled[t, 0] = True
            for r in range(b - a):
                oid = record.ids[record.id_of[a + r]]
                k = index.get(oid)
                if k is None:
                    continue
                state = np.array([x[r], y[r], speed[r], heading[r],
                                  object_size(oid), depth[r]]) / _STATE_SCALES
                out[t, k] = state @ projections["object"]
                filled[t, k] = True
        if noise_sigma > 0:
            out = out + noise_sigma * rng.normal(size=out.shape)
        return out * filled[:, :, None]

    hand = _record([
        [],  # a frame with no objects
        [_state("a", x=3.0, speed=2.0), _state("z", y=-4.0, depth=30.0)],
        [_state("b")],  # only an object outside the slots
        [_state("b", heading=1.2), _state("a", x=-7.5), _state("z")],
        [],
    ])
    cases = [(hand, 2)]  # slots a and z; b falls outside
    for i in range(6):
        cases.append((generate_one(31, i, 6, 0.5)[0], 3))  # most objects fall outside
    for sigma in [0.0, 0.01]:
        monkeypatch.setattr(features, "_NOISE_SIGMA", sigma)
        for rec, max_objects in cases:
            slots = assign_slots(rec, max_objects)
            got = build_features([rec], 8, max_objects).visual[0]
            want = loop_reference(rec, 8, stream_rng(_FEATURE_SEED, "visual", rec.id),
                                  slots, sigma)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
            assert np.array_equal(got == 0.0, want == 0.0)
    assert assign_slots(hand, 2) == ("a", "z")
    got = build_features([hand], 8, 2).visual[0]
    assert np.all(got[0] == 0.0) and np.all(got[4] == 0.0)
    assert np.all(got[2, 1:] == 0.0) and np.any(got[2, 0] != 0.0)


def test_object_size_is_stable_and_bounded():
    assert object_size("car3") == object_size("car3")
    sizes = [object_size(f"car{i}") for i in range(200)]
    assert all(1.5 <= s < 3.501 for s in sizes)
    assert len(set(sizes)) > 50


def test_synth_text_table_is_fixed_per_label(monkeypatch):
    monkeypatch.setattr(features, "_NOISE_SIGMA", 0.0)
    rec = _record([[_state("a", behavior="straight"), _state("b", behavior="braking")],
                   [_state("a", behavior="straight")]])
    text = build_features([rec], 8, 4).text[0]
    assert np.array_equal(text[0, 1], text[1, 1])
    cos = float(text[0, 1] @ text[0, 2])
    assert cos < 1.0 - 1e-6
    # both frames are "sparse": one scene label, one row
    assert rec.scene_labels[0] == rec.scene_labels[1]
    assert np.array_equal(text[0, 0], text[1, 0])
    # without noise the video's own stream leaves no trace
    again = build_features([dataclasses.replace(rec, id="vid-1")], 8, 4).text[0]
    assert np.array_equal(text, again)
    # the table rows are cached across calls, so no caller can write to one
    with pytest.raises(ValueError):
        _label_embedding(7, "straight", 8)[0] = 1.0
    with pytest.raises(ValueError):
        _behavior_table(8)[0, 0] = 1.0


def test_synth_text_rows_unit_norm_with_noise():
    batch = build_features(_small_dataset(count=3), 16, 4)
    present = np.concatenate([np.ones(batch.mask.shape[:2] + (1,), dtype=bool),
                              batch.mask], axis=-1)
    norms = np.linalg.norm(batch.text, axis=-1)
    assert np.allclose(norms[present], 1.0, atol=1e-12)
    assert np.all(norms[~present] == 0.0)


# --- slot assignment and batch assembly -------------------------------------

def test_assign_slots_ranks_by_coverage_then_entry_then_id():
    frames = [
        [_state("z"), _state("b"), _state("a")],
        [_state("z"), _state("b"), _state("a"), _state("m")],
        [_state("z"), _state("m"), _state("b"), _state("a")],
        [_state("z"), _state("m")],
    ]
    rec = _record(frames)
    assert assign_slots(rec, 10) == ("z", "a", "b", "m")
    assert assign_slots(rec, 2) == ("z", "a")


def _small_dataset(count=6, ratio=0.5, seed=17):
    return [generate_one(seed, i, count, ratio)[0] for i in range(count)]


def test_build_features_shapes_and_mask():
    records = _small_dataset()
    batch = build_features(records, 16, 5)
    width = max(len(assign_slots(r, 5)) for r in records)
    assert 1 <= width <= 5
    assert batch.visual.shape == (6, records[0].frames, 1 + width, 16)
    assert batch.text.shape == batch.visual.shape
    assert batch.objects == width
    assert batch.mask.shape == batch.depths.shape == batch.centers.shape[:-1]
    assert batch.mask.shape == (6, records[0].frames, width)
    # the widest video fills the last stored slot
    assert batch.mask[:, :, -1].any()
    assert np.all(np.isfinite(batch.visual)) and np.all(np.isfinite(batch.text))
    absent = ~batch.mask
    assert np.all(batch.depths[absent] == 0.0)
    assert np.all(batch.centers[absent] == 0.0)
    assert np.all(batch.visual[:, :, 1:][absent] == 0.0)
    assert np.all(batch.text[:, :, 1:][absent] == 0.0)
    # every frame keeps at least one visible object and a frame-slot row
    assert batch.mask.any(axis=-1).all()
    assert np.any(batch.text[:, :, 0] != 0.0, axis=-1).all()
    pos = batch.labels == 1
    assert np.all(batch.accident_frames[pos] > 0)
    assert np.all(batch.accident_frames[~pos] == 0)


def test_build_features_deterministic_and_batch_independent():
    records = _small_dataset(count=4)
    one = build_features(records, 8, 4)
    two = build_features(records, 8, 4)
    assert np.array_equal(one.visual, two.visual)
    assert np.array_equal(one.text, two.text)
    solo = build_features([records[2]], 8, 4)
    # the same values over the solo video's own width, +0.0 past it
    own = solo.objects
    assert own <= one.objects
    for name, first in (("visual", 1), ("text", 1), ("mask", 0),
                        ("centers", 0), ("depths", 0)):
        arr = getattr(one, name)[2]
        assert np.array_equal(arr[:, :first + own], getattr(solo, name)[0]), name
        tail = arr[:, first + own:]
        assert not tail.any() and not np.signbit(tail).any(), name


def test_build_features_stores_only_the_slots_used():
    records = _small_dataset(count=4)
    for max_objects in (1, 3, 19):
        batch = build_features(records, 8, max_objects)
        width = max(1, max(len(assign_slots(r, max_objects)) for r in records))
        assert batch.objects == width
        b, t = len(records), records[0].frames
        assert batch.visual.nbytes == b * t * (1 + width) * 8 * 8
        assert batch.text.nbytes == batch.visual.nbytes
    # a batch of videos with no objects keeps one all-absent slot
    empty = _record([[] for _ in range(4)])
    batch = build_features([empty], 8, 19)
    assert batch.objects == 1 and not batch.mask.any()


def test_stack_of_video_batches_equals_the_batch_of_their_records():
    records = _small_dataset(count=8)
    records.append(_record([[] for _ in range(records[0].frames)], rec_id="empty"))
    max_objects = 3
    widths = [len(assign_slots(r, max_objects)) for r in records]
    assert widths[-1] == 0 and max_objects in widths
    videos = [build_features([r], 8, max_objects) for r in records]
    rng = np.random.default_rng(23)
    subsets = [rng.choice(len(records), size=size, replace=False).tolist()
               for size in (1, 2, 3, 5, 8, 9)]
    subsets += [[len(records) - 1], [len(records) - 1, widths.index(max_objects)]]
    for idx in subsets:
        got = stack(videos[i] for i in idx)
        want = build_features([records[i] for i in idx], 8, max_objects)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape) == (b.dtype, b.shape), (idx, field.name)
                assert a.tobytes() == b.tobytes(), (idx, field.name)
            else:
                assert a == b, (idx, field.name)


def build_features_reference(records, feature_dim, max_objects):
    """build_features as first written, one video at a time with its two
    per-video embedding functions, op for op: the bit-exact oracle. Returns
    the FeatureBatch's arrays by field name."""
    from crashcast.features import _FEATURE_SEED, _NOISE_SIGMA, _STATE_SCALES
    from crashcast.scenario.records import BEHAVIOR_LABELS
    from crashcast.util import stable_u64, stream_rng

    def projections():
        rng = stream_rng(_FEATURE_SEED, "projections")
        shape = (len(_STATE_SCALES), feature_dim)
        return (rng.normal(size=shape) / math.sqrt(shape[0]),
                rng.normal(size=shape) / math.sqrt(shape[0]))

    p_object, p_frame = projections()

    def slot_of_rows(record, slot_ids):
        index = {oid: k for k, oid in enumerate(slot_ids)}
        return np.array([index.get(oid, -1) for oid in record.ids],
                        dtype=np.int64)[record.id_of]

    def visual_features(record, rng, slot_ids):
        t_count = record.frames
        n_slots = len(slot_ids) + 1
        out = np.zeros((t_count, n_slots, feature_dim))
        filled = np.zeros((t_count, n_slots), dtype=bool)
        env_code = (stable_u64("env", record.environment.weather,
                               record.environment.lighting,
                               record.environment.road_type) % 1000) / 1000.0
        if len(record.states):
            sizes = np.array([object_size(oid) for oid in record.ids])[record.id_of]
            state = np.column_stack([record.states[:, :4], sizes,
                                     record.states[:, 6]])
            frame_of = record.frame_of
            slot_of = slot_of_rows(record, slot_ids) + 1
            count = np.bincount(frame_of, minlength=t_count)
            seen = count > 0

            def frame_mean(col):
                return np.bincount(frame_of, weights=state[:, col],
                                   minlength=t_count)[seen] / count[seen]

            agg = np.stack([
                count[seen] / 19.0,
                frame_mean(2) / 15.0,
                frame_mean(5) / 100.0,
                frame_mean(0) / 100.0,
                frame_mean(1) / 100.0,
                np.full(int(seen.sum()), env_code),
            ], axis=1)
            out[seen, 0] = agg @ p_frame
            filled[seen, 0] = True
            slotted = slot_of > 0
            t_idx, k_idx = frame_of[slotted], slot_of[slotted]
            out[t_idx, k_idx] = (state[slotted] / _STATE_SCALES) @ p_object
            filled[t_idx, k_idx] = True
        out = out + _NOISE_SIGMA * rng.normal(size=out.shape)
        return out * filled[:, :, None]

    def label_row(label):
        v = stream_rng(_FEATURE_SEED, "text-table", label).normal(size=feature_dim)
        return v / np.linalg.norm(v)

    def text_features(labels, rng):
        rows = np.empty((len(labels), feature_dim))
        for i, label in enumerate(labels):
            rows[i] = label_row(label)
        rows = rows + _NOISE_SIGMA * rng.normal(size=rows.shape)
        return rows / np.linalg.norm(rows, axis=-1, keepdims=True)

    t_count = records[0].frames
    slot_ids = [assign_slots(rec, max_objects) for rec in records]
    width = max(1, max(map(len, slot_ids)))
    b = len(records)
    visual = np.zeros((b, t_count, width + 1, feature_dim))
    text = np.zeros((b, t_count, width + 1, feature_dim))
    mask = np.zeros((b, t_count, width), dtype=bool)
    centers = np.zeros((b, t_count, width, 2))
    depths = np.zeros((b, t_count, width))
    labels = np.zeros(b, dtype=np.int64)
    lam = np.zeros(b, dtype=np.int64)
    for i, (rec, slots) in enumerate(zip(records, slot_ids)):
        vis = visual_features(rec, stream_rng(_FEATURE_SEED, "visual", rec.id), slots)
        visual[i, :, :vis.shape[1]] = vis
        text_rng = stream_rng(_FEATURE_SEED, "text", rec.id)
        text[i, :, 0] = text_features(rec.scene_labels, text_rng)
        slot = slot_of_rows(rec, slots)
        kept = slot >= 0
        t, k = rec.frame_of[kept], slot[kept]
        mask[i, t, k] = True
        centers[i, t, k] = rec.states[kept, 4:6]
        depths[i, t, k] = rec.states[kept, 6]
        if kept.any():
            text[i, t, k + 1] = text_features(
                [BEHAVIOR_LABELS[c] for c in rec.behavior[kept].tolist()], text_rng)
        labels[i] = int(rec.positive)
        lam[i] = rec.accident_frame or 0
    return {"visual": visual, "text": text, "mask": mask, "centers": centers,
            "depths": depths, "labels": labels, "accident_frames": lam}


def _edge_case_records(frames):
    """A video with no objects, one whose only object row is slotted, and
    one with 21 ids, more than any max_objects it is built at."""
    from crashcast.scenario.records import BEHAVIOR_LABELS

    empty = _record([[] for _ in range(frames)], rec_id="empty")
    single = _record([[] for _ in range(frames - 1)]
                     + [[_state("solo", x=2.5, depth=14.0, behavior="braking")]],
                     rec_id="single", positive=True, accident_frame=frames)
    crowd = _record([
        [_state(f"c{k}", x=k - 10.0, y=0.5 * t, speed=k % 7, heading=0.1 * k,
                cx=60.0 * k, cy=300.0 + t, depth=4.0 + k + 0.1 * t,
                behavior=BEHAVIOR_LABELS[(k + t) % len(BEHAVIOR_LABELS)])
         for k in range(21) if (k + t) % 4]
        for t in range(frames)], rec_id="crowd")
    return [empty, single, crowd]


@pytest.mark.parametrize("feature_dim, max_objects", [(32, 19), (8, 4)])
def test_build_features_is_bit_equal_to_the_per_video_reference(feature_dim,
                                                                max_objects):
    records = _small_dataset(count=8)
    records += _edge_case_records(records[0].frames)
    assert any(len(r.ids) > max_objects for r in records)
    batches = [records, records[:8], records[8:], records[::-1]]
    batches += [[rec] for rec in records]
    batches.append([_record([], rec_id="no-frames")])  # a negative may have 0 frames
    seen_negative_zero = False
    for batch in batches:
        got = build_features(batch, feature_dim, max_objects)
        want = build_features_reference(batch, feature_dim, max_objects)
        for name, arr in want.items():
            have = getattr(got, name)
            assert (have.dtype, have.shape) == (arr.dtype, arr.shape), name
            assert np.array_equal(have, arr), name
            # bytes, so the -0.0 of unfilled visual slots is compared too
            assert have.tobytes() == arr.tobytes(), name
        seen_negative_zero |= bool(np.signbit(want["visual"][want["visual"] == 0.0]).any())
    assert seen_negative_zero


def test_build_features_rejects_bad_input():
    records = _small_dataset(count=2)
    with pytest.raises(ValueError):
        build_features([], 8, 4)
    rec = records[0]
    cut = rec.frame_starts[-2]
    short = dataclasses.replace(rec, frames=rec.frames - 1,
                                scene_labels=rec.scene_labels[:-1],
                                states=rec.states[:cut],
                                frame_starts=rec.frame_starts[:-1],
                                id_of=rec.id_of[:cut], behavior=rec.behavior[:cut])
    with pytest.raises(ValueError):
        build_features([records[1], short], 8, 4)


# --- full edge-weight stack --------------------------------------------------

def test_edge_weight_stack_end_to_end():
    records = _small_dataset(count=2)
    batch = build_features(records, 8, 4)
    text_obj = batch.text[:, :, 1:]
    norm = np.linalg.norm(text_obj, axis=-1, keepdims=True)
    text_norm = np.divide(text_obj, norm, out=np.zeros_like(text_obj),
                          where=norm > 0)
    w = edge_weight_stack(batch.centers, batch.depths, batch.mask,
                          text_norm, alpha=0.5, beta=0.0, slots=batch.objects).value
    assert w.shape == (2, batch.frames, batch.objects, batch.objects)
    assert batch.objects <= 4
    assert np.all(np.isfinite(w))
    dbar, vbar, pair = distance_velocity_stacks(batch.centers, batch.depths,
                                                batch.mask)
    w_geo = geo_weights(dbar, vbar, 0.5).value
    w_text = text_weights(text_norm, pair, batch.objects).value
    assert np.allclose(w, 0.5 * (w_geo + w_text), atol=1e-12)

    # alpha 0 and a saturated beta leave the velocity term, as printed
    velocity = edge_weight_stack(batch.centers, batch.depths, batch.mask,
                                 text_norm, alpha=0.0, beta=-50.0,
                                 slots=batch.objects)
    vbar = distance_velocity_stacks(batch.centers, batch.depths, batch.mask)[1]
    assert np.allclose(velocity.value, vbar, atol=1e-9)
