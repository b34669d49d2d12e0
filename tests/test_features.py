import dataclasses
import math

import numpy as np
import pytest

from crashcast import autodiff as ad
from crashcast.autodiff import Parameter, grad_check
from crashcast.features import (
    FusionGate,
    GeometryParams,
    assign_slots,
    build_features,
    distance_velocity_stacks,
    edge_weight_stack,
    fuse_weights,
    gated_fuse,
    geo_weights,
    object_size,
    pairwise_distance,
    synth_text_features,
    synth_visual_features,
    text_weights,
    _label_embedding,
    _visual_projections,
)
from crashcast.scenario import (
    EnvironmentProfile,
    ObjectState,
    ScenarioRecord,
    generate_one,
    scene_label,
)


def _state(oid, x=0.0, y=0.0, speed=5.0, heading=0.0, cx=640.0, cy=360.0,
           depth=10.0, behavior="straight"):
    return ObjectState(oid, x, y, speed, heading, cx, cy, depth, behavior)


def _record(objects, rec_id="vid-0", positive=False, accident_frame=None):
    env = EnvironmentProfile("clear", "day", "urban")
    labels = [scene_label(env, len(frame)) for frame in objects]
    return ScenarioRecord(rec_id, positive, 10, len(objects), accident_frame,
                          env, objects, labels)


# --- pairwise distance and relative velocity -------------------------------

def test_pairwise_distance_hand_values():
    d = pairwise_distance([(0.0, 0.0), (3.0, 4.0)], [5.0, 5.0], 1.0)
    assert d[0, 1] == 25.0 and d[1, 0] == 25.0
    assert d[0, 0] == 0.0 and d[1, 1] == 0.0

    d = pairwise_distance([(0.0, 0.0), (1.0, 0.0)], [0.0, 3.0], 2.0)
    assert d[0, 1] == pytest.approx(13.0, abs=1e-12)


def test_pairwise_distance_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        d = pairwise_distance(rng.normal(size=(n, 2)) * 400,
                              rng.uniform(0, 80, n), 1 / 1280)
        assert np.all(d >= 0)
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)


def test_distance_velocity_stacks_hand_case():
    centers = np.array([[[0.0, 0.0], [3.0, 4.0]],
                        [[0.0, 0.0], [0.0, 4.0]]])
    depths = np.full((2, 2), 5.0)
    mask = np.ones((2, 2), dtype=bool)
    d, v, dbar, vbar, pair = distance_velocity_stacks(centers, depths, mask, 1.0)
    assert d[0, 0, 1] == 25.0 and d[1, 0, 1] == 16.0
    assert np.all(v[0] == 0.0) and v[1, 0, 1] == -9.0
    assert dbar[0, 0, 1] == 1.0 and vbar[1, 0, 1] == -1.0
    assert pair.all()


def test_distance_velocity_stacks_masks_absent_objects():
    rng = np.random.default_rng(1)
    centers = rng.uniform(0, 1280, (3, 3, 2))
    depths = rng.uniform(1, 60, (3, 3))
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 2] = False
    d, v, dbar, vbar, pair = distance_velocity_stacks(centers, depths, mask, 1 / 1280)
    assert np.all(d[1, 2, :] == 0.0) and np.all(d[1, :, 2] == 0.0)
    # velocity needs the pair in both frames, so frame 2 column 2 is out too
    assert np.all(v[2, 2, :] == 0.0)
    assert np.all(np.isfinite(dbar)) and np.all(np.isfinite(vbar))
    assert np.abs(dbar).max() <= 1.0 and np.abs(vbar).max() <= 1.0


def test_normalization_of_all_zero_stack_is_zero():
    centers = np.zeros((4, 1, 2))
    depths = np.zeros((4, 1))
    mask = np.ones((4, 1), dtype=bool)
    _, _, dbar, vbar, _ = distance_velocity_stacks(centers, depths, mask, 1.0)
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


def test_geometry_params_alpha_range():
    assert GeometryParams.init().alpha.item() == pytest.approx(0.5)
    g = GeometryParams(Parameter(3.0, name="a"))
    assert g.alpha.item() == pytest.approx(0.75)
    for a0 in [0.0, 0.01, 1.0, 7.0, 1e6]:
        alpha = GeometryParams(Parameter(a0, name="a")).alpha.item()
        assert 0.0 <= alpha < 1.0


# --- text weights -----------------------------------------------------------

def test_text_weights_identical_pair_is_uniform():
    e = np.tile(np.array([[0.6, 0.8]]), (2, 1))
    for tau in [0.5, 2.0]:
        w = text_weights(e, tau).value
        assert np.allclose(w, 0.5, atol=1e-12)


def test_text_weights_orthogonal_pair_hand_value():
    e = np.eye(2)
    w = text_weights(e, 1.0).value
    assert w[0, 0] == pytest.approx(0.7310585786300049, abs=1e-12)
    assert w[0, 1] == pytest.approx(0.2689414213699951, abs=1e-12)
    assert w[1, 1] == pytest.approx(0.7310585786300049, abs=1e-12)


def test_text_weight_rows_are_distributions():
    rng = np.random.default_rng(7)
    e = rng.standard_normal((1000, 5, 8))
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    w = text_weights(e, 0.5).value
    assert np.all(np.isfinite(w)) and np.all(w >= 0)
    assert np.abs(w.sum(axis=-1) - 1.0).max() < 1e-9


def test_text_weights_masked_pairs_are_exact_zero():
    rng = np.random.default_rng(8)
    e = rng.standard_normal((3, 4))
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    pair = np.ones((3, 3), dtype=bool)
    pair[2, :] = pair[:, 2] = False
    w = text_weights(e, 0.5, pair).value
    assert w[0, 2] == 0.0 and w[1, 2] == 0.0
    assert w[0, :2].sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(w))


def test_text_weights_rejects_bad_tau():
    with pytest.raises(ValueError):
        text_weights(np.eye(2), 0.0)


def test_text_weights_match_broadcast_cosine():
    def broadcast_reference(e, tau, pair=None):
        logits = (e[..., :, None, :] * e[..., None, :, :]).sum(axis=-1) / tau
        if pair is not None:
            logits = logits + np.where(pair, 0.0, -1e30)
        x = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return x / x.sum(axis=-1, keepdims=True)

    rng = np.random.default_rng(21)
    e = rng.standard_normal((3, 5, 7, 16))
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    present = rng.random((3, 5, 7)) < 0.6
    pair = present[..., :, None] & present[..., None, :]
    for mask in [None, pair]:
        got = text_weights(e, 0.5, mask).value
        want = broadcast_reference(e, 0.5, mask)
        assert np.allclose(got, want, rtol=0.0, atol=1e-15)
    assert np.all(got[~pair & present[..., :, None]] == 0.0)
    # the embeddings are data: nothing is recorded for them
    with ad.Tape() as tape:
        text_weights(ad.Tensor(e), 0.5, pair)
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
    return FusionGate(Parameter(np.zeros((2 * f_dim, f_dim)), name="w"),
                      Parameter(np.zeros(f_dim), name="b"))


def test_gated_fuse_zero_gate_is_mean():
    rng = np.random.default_rng(10)
    xv = rng.normal(size=(3, 4))
    xt = rng.normal(size=(3, 4))
    out = gated_fuse(xv, xt, _zero_gate(4)).value
    assert np.allclose(out, 0.5 * (xv + xt), atol=1e-12)


def test_gated_fuse_saturated_bias_selects_one_stream():
    rng = np.random.default_rng(11)
    xv = rng.normal(size=(2, 3))
    xt = rng.normal(size=(2, 3))
    gate = FusionGate(Parameter(np.zeros((6, 3)), name="w"),
                      Parameter(np.full(3, 50.0), name="b"))
    assert np.abs(gated_fuse(xv, xt, gate).value - xv).max() <= 1e-9
    gate.b_g.value[:] = -50.0
    assert np.abs(gated_fuse(xv, xt, gate).value - xt).max() <= 1e-9


def test_gated_fuse_fixed_point_and_interval():
    rng = np.random.default_rng(12)
    gate = FusionGate.init(5, rng, "g")
    x = rng.normal(size=(4, 5))
    assert np.allclose(gated_fuse(x, x, gate).value, x, atol=1e-12)
    xv = rng.normal(size=(4, 5))
    xt = rng.normal(size=(4, 5))
    out = gated_fuse(xv, xt, gate).value
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
        alpha = ad.div(a, ad.add(a, 1.0))
        w = fuse_weights(geo_weights(dbar, vbar, alpha),
                         text_weights(emb, 0.5), beta)
        return ad.tsum(ad.mul(w, probe))

    assert grad_check(f, [a, beta], rng=rng) < 1e-6


def test_gate_gradients_match_fd():
    rng = np.random.default_rng(5)
    gate = FusionGate.init(6, rng, "g")
    xv = rng.standard_normal((3, 2, 6))
    xt = rng.standard_normal((3, 2, 6))
    probe = rng.standard_normal((3, 2, 6))

    def f():
        return ad.tsum(ad.mul(gated_fuse(xv, xt, gate), probe))

    assert grad_check(f, [gate.w_g, gate.b_g], rng=rng) < 1e-6


# --- synthetic embeddings ---------------------------------------------------

PROJ8 = _visual_projections(8, np.random.default_rng(7))


def test_synth_visual_deterministic_given_seed():
    rec = _record([[_state("a"), _state("b", x=4.0)] for _ in range(3)])
    kw = dict(projections=PROJ8, slot_ids=("a", "b"))
    one = synth_visual_features(rec, 8, np.random.default_rng(42), **kw)
    two = synth_visual_features(rec, 8, np.random.default_rng(42), **kw)
    assert np.array_equal(one, two)
    other = synth_visual_features(rec, 8, np.random.default_rng(43), **kw)
    assert not np.array_equal(one, other)


def test_synth_visual_zero_noise_reflects_state():
    frames = [
        [_state("a", x=1.0, depth=9.0)],
        [_state("a", x=1.0, depth=9.0)],
        [_state("a", x=1.0, depth=22.0)],
    ]
    rec = _record(frames)
    emb = synth_visual_features(rec, 8, np.random.default_rng(0),
                                projections=PROJ8, slot_ids=("a",),
                                noise_sigma=0.0)
    assert np.array_equal(emb[0, 1], emb[1, 1])
    assert not np.array_equal(emb[0, 1], emb[2, 1])
    # frame slot is always populated, absent object slots stay zero
    assert np.any(emb[0, 0] != 0.0)


def test_synth_visual_absent_slots_are_zero():
    frames = [[_state("a")], [_state("a"), _state("b", x=6.0)]]
    rec = _record(frames)
    emb = synth_visual_features(rec, 8, np.random.default_rng(1),
                                projections=PROJ8, slot_ids=("a", "b"))
    assert np.all(emb[0, 2] == 0.0)
    assert np.any(emb[1, 2] != 0.0)
    assert np.all(np.isfinite(emb))


def test_synth_visual_matches_per_object_loop():
    from crashcast.features import _STATE_SCALES
    from crashcast.util import stable_u64

    def loop_reference(record, feature_dim, rng, projections, slot_ids, noise_sigma):
        index = {oid: k + 1 for k, oid in enumerate(slot_ids)}
        out = np.zeros((record.frames, len(slot_ids) + 1, feature_dim))
        filled = np.zeros(out.shape[:2], dtype=bool)
        env = record.environment
        env_code = (stable_u64("env", env.weather, env.lighting, env.road_type)
                    % 1000) / 1000.0
        for t, frame in enumerate(record.objects):
            if frame:
                agg = np.array([
                    len(frame) / 19.0,
                    float(np.mean([o.speed for o in frame])) / 15.0,
                    float(np.mean([o.depth for o in frame])) / 100.0,
                    float(np.mean([o.x for o in frame])) / 100.0,
                    float(np.mean([o.y for o in frame])) / 100.0,
                    env_code,
                ])
                out[t, 0] = agg @ projections["frame"]
                filled[t, 0] = True
            for o in frame:
                k = index.get(o.id)
                if k is None:
                    continue
                state = np.array([o.x, o.y, o.speed, o.heading,
                                  object_size(o.id), o.depth]) / _STATE_SCALES
                out[t, k] = state @ projections["object"]
                filled[t, k] = True
        if noise_sigma > 0:
            out = out + noise_sigma * rng.normal(size=out.shape)
        return out * filled[:, :, None]

    hand = _record([
        [],  # a frame with no objects
        [_state("a", x=3.0, speed=2.0), _state("z", y=-4.0, depth=30.0)],
        [_state("z")],  # only an object outside the slots
        [_state("b", heading=1.2), _state("a", x=-7.5), _state("z")],
        [],
    ])
    cases = [(hand, ("a", "b", "c"))]
    for i in range(6):
        rec = generate_one(31, i, 6, 0.5)[0]
        cases.append((rec, assign_slots(rec, 3)))  # most objects fall outside
    for rec, slots in cases:
        for sigma in [0.0, 0.01]:
            got = synth_visual_features(rec, 8, np.random.default_rng(5),
                                        projections=PROJ8, slot_ids=slots,
                                        noise_sigma=sigma)
            want = loop_reference(rec, 8, np.random.default_rng(5), PROJ8,
                                  slots, sigma)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
            assert np.array_equal(got == 0.0, want == 0.0)
    got = synth_visual_features(hand, 8, np.random.default_rng(5),
                                projections=PROJ8, slot_ids=("a", "b", "c"))
    assert np.all(got[0] == 0.0) and np.all(got[4] == 0.0)
    assert np.all(got[2, 1:] == 0.0) and np.any(got[2, 0] != 0.0)


def test_object_size_is_stable_and_bounded():
    assert object_size("car3") == object_size("car3")
    sizes = [object_size(f"car{i}") for i in range(200)]
    assert all(1.5 <= s < 3.501 for s in sizes)
    assert len(set(sizes)) > 50


def test_synth_text_table_is_fixed_per_label():
    rows = synth_text_features(["straight", "braking", "straight"], 8,
                               np.random.default_rng(0), table_seed=7,
                               noise_sigma=0.0)
    assert np.array_equal(rows[0], rows[2])
    cos = float(rows[0] @ rows[1])
    assert cos < 1.0 - 1e-6
    again = synth_text_features(["straight", "braking", "straight"], 8,
                                np.random.default_rng(99), table_seed=7,
                                noise_sigma=0.0)
    assert np.array_equal(rows, again)
    # the table rows are cached across calls, so no caller can write to one
    with pytest.raises(ValueError):
        _label_embedding(7, "straight", 8)[0] = 1.0


def test_synth_text_rows_unit_norm_with_noise():
    rng = np.random.default_rng(4)
    rows = synth_text_features(["stopped", "left-turn"], 16, rng, table_seed=7)
    assert np.allclose(np.linalg.norm(rows, axis=-1), 1.0, atol=1e-12)


def test_synth_text_unknown_label_raises():
    with pytest.raises(ValueError, match="unknown label"):
        synth_text_features(["warp-speed"], 8, np.random.default_rng(0),
                            table_seed=7, vocab=("straight", "braking"))


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
    assert batch.visual.shape == (6, records[0].frames, 6, 16)
    assert batch.text.shape == batch.visual.shape
    assert batch.objects == batch.slots - 1 == 5
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
    assert np.array_equal(one.visual[2], solo.visual[0])
    assert np.array_equal(one.text[2], solo.text[0])
    assert np.array_equal(one.mask[2], solo.mask[0])


def test_build_features_rejects_bad_input():
    records = _small_dataset(count=2)
    with pytest.raises(ValueError):
        build_features([], 8, 4)
    short = dataclasses.replace(records[0], frames=records[0].frames - 1,
                                objects=records[0].objects[:-1],
                                scene_labels=records[0].scene_labels[:-1])
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
    stack = edge_weight_stack(batch.centers, batch.depths, batch.mask,
                              text_norm, alpha=0.5, beta=0.0)
    w = stack.w.value
    assert w.shape == (2, batch.frames, 4, 4)
    assert np.all(np.isfinite(w))
    mid = 0.5 * (stack.w_geo.value + stack.w_text.value)
    assert np.allclose(w, mid, atol=1e-12)

    # alpha 0 and a saturated beta leave the velocity term, as printed
    velocity = edge_weight_stack(batch.centers, batch.depths, batch.mask,
                                 text_norm, alpha=0.0, beta=-50.0)
    vbar = distance_velocity_stacks(batch.centers, batch.depths, batch.mask,
                                    1.0 / 1280.0)[3]
    assert np.allclose(velocity.w.value, vbar, atol=1e-9)
