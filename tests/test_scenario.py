"""Scenario synthesis: camera, behavior rules, templates, validation, IO."""

import hashlib
import math

import numpy as np
import pytest

from crashcast.roadnet import classify_terminals
from crashcast.scenario import (
    BEHAVIOR_LABELS,
    TEMPLATES,
    AccidentTemplate,
    ConstraintUnsatisfiableError,
    EgoCamera,
    EnvironmentProfile,
    RoleSpec,
    generate_one,
    preset_graph,
    read_dataset,
    record_from_json,
    record_to_json,
    sample_environment,
    scene_label,
    validate_scenario,
)
from crashcast.scenario import generate
from crashcast.scenario.generate import (
    COLLISION_THRESHOLD,
    DT,
    GEN_FRAMES,
    MAX_VISIBLE,
    SAFETY_RADIUS,
    STORED_FRAMES,
    TRIM_FRAMES,
    Track,
    _assemble,
    _build_negative,
    _build_positive,
    _sample_ego_route,
)
from crashcast.scenario.records import BEHAVIOR_WINDOW, behavior_codes
from crashcast.util import stream_rng

CAM = EgoCamera()


def _frame(rec, t):
    """The state rows (x, y, speed, heading, cx, cy, depth) of frame t."""
    return rec.states[rec.frame_starts[t]:rec.frame_starts[t + 1]].tolist()


def test_camera_on_axis_object():
    cx, cy, depth, visible = CAM.project((0.0, 0.0), 0.0, (10.0, 0.0))
    assert visible
    assert cx == pytest.approx(CAM.width / 2)
    assert depth == pytest.approx(10.0)


def test_camera_rejects_behind_and_wide():
    assert not CAM.project((0.0, 0.0), 0.0, (-5.0, 0.0))[3]
    # bearing 45 degrees with a 30 degree half-FOV
    assert not CAM.project((0.0, 0.0), 0.0, (10.0, 10.0))[3]
    # beside the camera (forward exactly 0) and NaN points: hidden, no warning
    assert not CAM.project((0.0, 0.0), 0.0, (0.0, 3.0))[3]
    assert not CAM.project((0.0, 0.0), 0.0, (math.nan, math.nan))[3]


def test_camera_fov_boundary_maps_to_image_edge():
    # exactly on the half-FOV ray: still visible, lands on the image edge
    left = CAM.project((0.0, 0.0), 0.0, (10.0, 10.0 * math.tan(CAM.half_fov)))
    right = CAM.project((0.0, 0.0), 0.0, (10.0, -10.0 * math.tan(CAM.half_fov)))
    assert left[3] and right[3]
    assert left[0] == pytest.approx(0.0, abs=1e-9)
    assert right[0] == pytest.approx(CAM.width, abs=1e-9)


def test_camera_projects_elementwise():
    # the scalar cases above, as one (2, 4) batch of points seen from two poses
    tan = 10.0 * math.tan(CAM.half_fov)
    points = np.array([[10.0, -5.0, 10.0, 10.0], [0.0, 0.0, 10.0, tan]])
    for heading in (0.0, 0.7):
        c, s = math.cos(heading), math.sin(heading)
        world = np.array([[c, -s], [s, c]]) @ points + np.array([[3.0], [-2.0]])
        ego = np.array([[3.0], [-2.0]])
        batch = CAM.project(ego, np.full((1, 4), heading), world[:, None])
        for i in range(4):
            one = CAM.project((3.0, -2.0), heading, world[:, i])
            assert [float(col[0, i]) for col in batch] == pytest.approx(
                [float(v) for v in one], abs=1e-9, nan_ok=True)
        assert batch[3][0, :3].tolist() == [True, False, False]


def test_camera_unproject_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pose = rng.uniform(-50, 50, size=2)
        heading = rng.uniform(-math.pi, math.pi)
        bearing = rng.uniform(-CAM.half_fov, CAM.half_fov)
        dist = rng.uniform(0.5, 120.0)
        world = (pose[0] + dist * math.cos(heading + bearing),
                 pose[1] + dist * math.sin(heading + bearing))
        cx, _, depth, visible = CAM.project(pose, heading, world)
        assert visible
        back = CAM.unproject(pose, heading, cx, depth)
        assert math.hypot(back[0] - world[0], back[1] - world[1]) < 1e-9
        assert CAM.bearing(cx, depth) == pytest.approx(bearing, abs=1e-9)
        assert CAM.camera_distance(cx, depth) == pytest.approx(dist, abs=1e-9)


# --- behaviour rule: behavior_codes against a one-window loop oracle ----------

_TURN, _ACCEL, _STOP = math.radians(10.0), 1.0, 0.05


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    return math.atan2(math.sin(a), math.cos(a))


def behavior_label(window) -> str:
    """Loop oracle: the maneuver label of one window of (t, speed, heading)
    samples, at least 2 of them. Precedence: stopped, turns (net heading
    change beyond 10 degrees), lane-change (transient heading excursion that
    nets out), speed changes beyond 1 m/s^2, else straight."""
    t0, v0, h0 = window[0]
    t1, v1, h1 = window[-1]
    if max(w[1] for w in window) <= _STOP:
        return "stopped"
    net_turn = _wrap_angle(h1 - h0)
    if net_turn >= _TURN:
        return "left-turn"
    if net_turn <= -_TURN:
        return "right-turn"
    if max(abs(_wrap_angle(w[2] - h0)) for w in window) >= _TURN:
        return "lane-change"
    span = t1 - t0
    if span > 0:
        accel = (v1 - v0) / span
        if accel >= _ACCEL:
            return "accelerating"
        if accel <= -_ACCEL:
            return "braking"
    return "straight"


def _oracle_at(speed, heading, present, g, dt=DT) -> str:
    """The label of frame g from the present samples of its trailing window."""
    window = [(n * dt, speed[n], heading[n])
              for n in range(max(0, g - BEHAVIOR_WINDOW + 1), g + 1) if present[n]]
    return behavior_label(window) if len(window) >= 2 else "straight"


def _label(headings, speeds, dt=0.1) -> str:
    """behavior_codes of the last frame of one track, every sample present."""
    n = len(speeds)
    codes = behavior_codes(np.asarray(speeds, float), np.asarray(headings, float),
                           np.ones(n, bool), dt)
    assert codes.shape == (n,)
    label = BEHAVIOR_LABELS[codes[-1]]
    assert label == _oracle_at(speeds, headings, [True] * n, n - 1, dt)
    return label


def test_behavior_straight():
    assert _label([0.1] * 5, [8.0] * 5) == "straight"


def test_behavior_stopped():
    assert _label([0.0] * 5, [0.0] * 5) == "stopped"


def test_behavior_turns():
    up20 = np.linspace(0.0, math.radians(20.0), 5)
    assert _label(up20, [8.0] * 5) == "left-turn"
    assert _label(-up20, [8.0] * 5) == "right-turn"
    # turning wins over the simultaneous speed change
    accel = np.linspace(5.0, 9.0, 5)
    assert _label(up20, accel) == "left-turn"


def test_behavior_lane_change():
    excursion = [0.0, math.radians(15.0), math.radians(15.0), 0.0, 0.0]
    assert _label(excursion, [8.0] * 5) == "lane-change"


def test_behavior_speed_changes():
    assert _label([0.0] * 5, np.linspace(5.0, 5.6, 5)) == "accelerating"
    assert _label([0.0] * 5, np.linspace(5.6, 5.0, 5)) == "braking"
    # threshold is 1 m/s^2 over the window span
    assert _label([0.0] * 5, np.linspace(5.0, 5.4, 5)) == "accelerating"
    assert _label([0.0] * 5, np.linspace(5.0, 5.39, 5)) == "straight"


def test_behavior_needs_two_samples():
    # one sample reads straight, even for a stopped or turning track
    assert _label([0.0], [0.0]) == "straight"
    codes = behavior_codes(np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]),
                           np.array([True, False, False, False]), 0.1)
    assert [BEHAVIOR_LABELS[c] for c in codes] == ["straight"] * 4


def test_behavior_window_is_trailing_and_skips_absent_frames():
    # a turn ahead of the window is forgotten; absent frames are left out
    heading = np.array([0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
    present = np.array([True, True, True, True, False, True, True])
    codes = behavior_codes(np.full(7, 8.0), heading, present, 0.1)
    want = [_oracle_at(np.full(7, 8.0), heading, present, g, 0.1) for g in range(7)]
    assert [BEHAVIOR_LABELS[c] for c in codes] == want
    assert want[1] == "left-turn" and want[-1] == "straight"


def test_behavior_codes_match_oracle_on_generated_tracks(monkeypatch):
    """Every present frame of every track behind 100 generated scenarios,
    ego included, labelled per track equals the one-window oracle."""
    seen = []
    assemble = generate._assemble

    def spy(rec_id, positive, env, tracks, ego, accident_gen_frame):
        seen.append(list(tracks) + [ego])
        return assemble(rec_id, positive, env, tracks, ego, accident_gen_frame)

    monkeypatch.setattr(generate, "_assemble", spy)
    for i in range(100):
        generate_one(71, i, 100, 0.5)
    tracks = [tr for group in seen for tr in group]
    assert sum(not tr.present[0] and tr.present.any() for tr in tracks) > 100  # enter late
    checked = set()
    for tr in tracks:
        codes = behavior_codes(tr.speed, tr.heading, tr.present, DT)
        for g in np.flatnonzero(tr.present):
            want = _oracle_at(tr.speed, tr.heading, tr.present, g)
            assert BEHAVIOR_LABELS[codes[g]] == want, (tr.id, g)
            checked.add(want)
    # a stacked (K, G) call gives the per-track rows
    some = tracks[:50]
    stacked = behavior_codes(*(np.array([getattr(tr, k) for tr in some])
                               for k in ("speed", "heading", "present")), DT)
    assert all((row == behavior_codes(tr.speed, tr.heading, tr.present, DT)).all()
               for row, tr in zip(stacked, some))
    assert {"straight", "stopped", "left-turn", "right-turn"} <= checked


def test_scene_label_density_buckets():
    env = EnvironmentProfile("clear", "day", "urban")
    assert scene_label(env, 2) == "clear|day|urban|sparse"
    assert scene_label(env, 6) == "clear|day|urban|moderate"
    assert scene_label(env, 7) == "clear|day|urban|busy"


def test_environment_degenerate_distribution():
    dists = {"weather": {"clear": 1.0}, "lighting": {"day": 1.0},
             "road_type": {"urban": 1.0}}
    rng = stream_rng(1, "env")
    for _ in range(20):
        env = sample_environment(dists, rng)
        assert env == EnvironmentProfile("clear", "day", "urban")


def test_environment_5050_within_3_sigma():
    dists = {"weather": {"clear": 0.5, "rain": 0.5},
             "lighting": {"day": 1.0}, "road_type": {"urban": 1.0}}
    rng = stream_rng(2, "env5050")
    n = 10_000
    hits = sum(sample_environment(dists, rng).weather == "clear" for _ in range(n))
    sigma = math.sqrt(n * 0.25)
    assert abs(hits - n / 2) <= 3 * sigma


def test_environment_rejects_bad_weights():
    rng = stream_rng(3)
    base = {"lighting": {"day": 1.0}, "road_type": {"urban": 1.0}}
    with pytest.raises(ValueError):
        sample_environment({"weather": {"clear": 0.7, "rain": 0.31}, **base}, rng)
    with pytest.raises(ValueError):
        sample_environment({"weather": {"clear": 1.5, "rain": -0.5}, **base}, rng)
    with pytest.raises(ValueError):
        sample_environment({"lighting": {"day": 1.0}}, rng)


@pytest.mark.parametrize("kind", sorted(TEMPLATES))
def test_positive_templates_satisfy_constraints(kind):
    rec, meta = _build_positive(TEMPLATES[kind], stream_rng(17, kind), f"p-{kind}")
    report = validate_scenario(rec, meta)
    assert report.ok, [c.name for c in report.failures()]
    names = {c.name for c in report.checks}
    assert {"c2_trajectories_intersect", "c3_collision_in_fov",
            "c4_accident_annotated", "c1_od_pairs"} <= names
    assert rec.positive and 0 < rec.accident_frame < rec.frames

    # independent sweep: some pair of stored objects sits inside the
    # collision threshold at the accident frame
    frame = _frame(rec, rec.accident_frame - 1)
    dists = [math.hypot(a[0] - b[0], a[1] - b[1])
             for i, a in enumerate(frame) for b in frame[i + 1:]]
    cam_d = [CAM.camera_distance(o[4], o[6]) for o in frame]
    assert min(dists + cam_d) <= COLLISION_THRESHOLD


def test_positive_participants_freeze_after_accident():
    rec, meta = _build_positive(TEMPLATES["crossing_path"],
                                stream_rng(23, "freeze"), "p")
    lam = rec.accident_frame
    after = {}
    for r in range(rec.frame_starts[lam - 1], len(rec.states)):
        oid = rec.ids[rec.id_of[r]]
        if oid in meta.participant_ids:
            x, y, speed = rec.states[r, :3]
            assert speed == 0.0
            after.setdefault(oid, set()).add((x, y))
    assert after
    assert all(len(spots) == 1 for spots in after.values())


def test_rear_end_ego_involved_variant():
    for k in range(40):
        rec, meta = _build_positive(TEMPLATES["rear_end"],
                                    stream_rng(99, "ego", k), "p")
        if len(meta.participant_ids) == 1:
            break
    else:
        pytest.fail("ego-involved variant never sampled in 40 draws")
    assert validate_scenario(rec, meta).ok
    frame = _frame(rec, rec.accident_frame - 1)
    assert min(CAM.camera_distance(o[4], o[6]) for o in frame) <= 2.0


def test_parallel_routes_are_unsatisfiable():
    template = AccidentTemplate(
        kind="parallel",
        preset_map="multilane",
        roles=(RoleSpec(("l1a", "l1b"), (8.0, 12.0)),
               RoleSpec(("l2a", "l2b"), (8.0, 12.0))),
        observer_ods=(("l2a", "l2b"),),
    )
    with pytest.raises(ConstraintUnsatisfiableError):
        _build_positive(template, stream_rng(31), "positive")


def test_negative_min_spacing_sweep():
    graph = preset_graph("intersection")
    terminals = classify_terminals(graph)
    rng = stream_rng(41, "neg")
    route = _sample_ego_route(graph, terminals, rng)
    rec, _ = _build_negative(graph, terminals, route, rng, "negative")
    assert not rec.positive and rec.accident_frame is None
    worst = math.inf
    for t in range(rec.frames):
        frame = _frame(rec, t)
        for i, a in enumerate(frame):
            for b in frame[i + 1:]:
                worst = min(worst, math.hypot(a[0] - b[0], a[1] - b[1]))
    assert worst >= SAFETY_RADIUS - 1e-5
    assert validate_scenario(rec).ok


def test_negative_empty_traffic_keeps_parked_floor(monkeypatch):
    monkeypatch.setattr(generate, "ARRIVAL_VEHICLES", 0.0)
    graph = preset_graph("straight")
    terminals = classify_terminals(graph)
    rng = stream_rng(43, "quiet")
    route = _sample_ego_route(graph, terminals, rng)
    rec, _ = _build_negative(graph, terminals, route, rng, "negative")
    assert np.diff(rec.frame_starts).min() >= 1
    assert np.all(rec.states[:, 2] == 0.0)
    assert all(BEHAVIOR_LABELS[c] == "stopped" for c in rec.behavior)


def test_assemble_caps_at_nearest_nineteen():
    g = GEN_FRAMES
    ego = Track("ego", np.zeros((g, 2)), np.zeros(g), np.zeros(g))
    tracks = []
    for k in range(25):
        xy = np.tile([5.0 + k, 0.0], (g, 1))
        tracks.append(Track(f"t{k:02d}", xy, np.zeros(g), np.zeros(g)))
    env = EnvironmentProfile("clear", "day", "urban")
    rec = _assemble("cap", False, env, tracks, ego, None)
    for t in range(rec.frames):
        a, b = rec.frame_starts[t], rec.frame_starts[t + 1]
        assert b - a == MAX_VISIBLE
        assert [rec.ids[k] for k in rec.id_of[a:b]] == [f"t{k:02d}" for k in range(19)]
        assert rec.states[a, 6] <= rec.states[b - 1, 6]


# record_to_json of the turning-ego record below, recorded when pads were
# placed in a pass of their own before assembly
_TURNING_EGO_SHA256 = "de90ea5753347b87f026f2b53bffc6cc256c265aad00a78882a07cd70d424157"


def test_assemble_parks_several_pads_for_a_turning_ego():
    # a parked ego turning through 180 degrees with no movers: no single
    # pad stays in view, so parking takes several rounds
    g = GEN_FRAMES
    heading = math.pi * np.clip((np.arange(g) - TRIM_FRAMES) / (STORED_FRAMES - 1),
                                0.0, 1.0)
    ego = Track("ego", np.zeros((g, 2)), np.zeros(g), heading)
    env = EnvironmentProfile("clear", "day", "urban")
    rec = _assemble("turn", False, env, [], ego, None)
    assert sum(i.startswith("parked") for i in rec.ids) >= 2
    assert np.diff(rec.frame_starts).min() >= 1
    digest = hashlib.sha256(record_to_json(rec).encode()).hexdigest()
    assert digest == _TURNING_EGO_SHA256


def test_dataset_roundtrip_and_byte_determinism():
    recs = [generate_one(57, i, 6, 0.5)[0] for i in range(6)]
    again = [generate_one(57, i, 6, 0.5)[0] for i in range(6)]
    lines = [record_to_json(r) for r in recs]
    assert lines == [record_to_json(r) for r in again]
    for line, rec in zip(lines, recs):
        back = record_from_json(line)
        assert record_to_json(back) == line
        assert back.id == rec.id and back.frames == rec.frames
    # floats are rounded to 7 decimals on the way out
    x = float(record_from_json(lines[0]).states[0, 0])
    assert x == round(x, 7)


def test_read_dataset_skips_blank_lines(tmp_path):
    rec = generate_one(58, 0, 1, 0.0)[0]
    path = tmp_path / "tiny.jsonl"
    path.write_text(record_to_json(rec) + "\n\n")
    assert [r.id for r in read_dataset(str(path))] == [rec.id]


def test_positive_schedule_is_even():
    flags = []
    for i in range(10):
        rec, _ = generate_one(61, i, 10, 0.3)
        flags.append(rec.positive)
    assert sum(flags) == 3
    # no two positives adjacent at this ratio
    assert all(not (a and b) for a, b in zip(flags, flags[1:]))


def test_validator_flags_zero_accident_frame():
    rec, _ = _build_positive(TEMPLATES["rear_end"], stream_rng(71), "p")
    rec.accident_frame = 0
    report = validate_scenario(rec)
    assert not report.ok
    assert "c4_accident_annotated" in {c.name for c in report.failures()}


def test_validator_flags_collision_outside_fov():
    rec, meta = _build_positive(TEMPLATES["rear_end"], stream_rng(73), "p")
    g = rec.accident_frame - 1 + meta.stored_offset
    pose = meta.ego_xy[g]
    heading = float(meta.ego_heading[g])
    off = heading + math.radians(31.0)
    meta.collision_xy = (pose[0] + 20.0 * math.cos(off),
                         pose[1] + 20.0 * math.sin(off))
    report = validate_scenario(rec, meta)
    assert "c3_collision_in_fov" in {c.name for c in report.failures()}


def test_custom_graph_negatives():
    from test_roadnet import build_graph

    graph = build_graph(
        [("a", 0.0, 0.0), ("b", 400.0, 0.0), ("c", 800.0, 0.0)],
        [("ab", "a", "b", 400.0, 12.0), ("bc", "b", "c", 400.0, 12.0)],
    )
    rec, meta = generate_one(83, 1, 4, 0.0, graph=graph)
    assert validate_scenario(rec, meta).ok
