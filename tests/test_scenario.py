"""Scenario synthesis: camera, behavior rules, templates, validation, IO."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crashcast import trafficgen
from crashcast.roadnet import classify_terminals
from crashcast.scenario import generate
from crashcast.scenario.generate import (
    COLLISION_THRESHOLD,
    DT,
    GEN_FRAMES,
    SAFETY_RADIUS,
    STORED_FRAMES,
    TRIM_FRAMES,
    ConstraintUnsatisfiableError,
    Track,
    _assemble,
    _build_negative,
    _build_positive,
    _sample_ego_route,
    generate_one,
    sample_environment,
    validate_scenario,
)
from crashcast.scenario.presets import TEMPLATES, AccidentTemplate, RoleSpec, preset_graph
from crashcast.scenario.records import (
    BEHAVIOR_LABELS,
    BEHAVIOR_WINDOW,
    MAX_VISIBLE,
    STATE_COLUMNS,
    EgoCamera,
    EnvironmentProfile,
    ScenarioRecord,
    behavior_codes,
    object_columns,
    read_dataset,
    record_from_json,
    record_to_json,
    round7,
    scene_label,
)
from crashcast.trafficgen import RoutePath
from crashcast.util import stream_rng

from test_trafficgen import (
    assert_same_bytes,
    earlier_heading_at,
    earlier_point_at,
    earlier_positions_on_grid,
    earlier_same_time_gaps,
    earlier_speed_at,
)

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


def _codes(speed, heading, present, dt):
    """behavior_codes at every sample of the (..., G) tracks, in their shape."""
    speed = np.asarray(speed, float)
    rows = tuple(np.indices(speed.shape).reshape(speed.ndim, -1))
    return behavior_codes(speed, np.asarray(heading, float),
                          np.asarray(present, bool), dt, rows).reshape(speed.shape)


def _oracle_at(speed, heading, present, g, dt=DT) -> str:
    """The label of frame g from the present samples of its trailing window."""
    window = [(n * dt, speed[n], heading[n])
              for n in range(max(0, g - BEHAVIOR_WINDOW + 1), g + 1) if present[n]]
    return behavior_label(window) if len(window) >= 2 else "straight"


def _label(headings, speeds, dt=0.1) -> str:
    """behavior_codes of the last frame of one track, every sample present."""
    n = len(speeds)
    codes = _codes(np.asarray(speeds, float), np.asarray(headings, float),
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
    codes = _codes(np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]),
                           np.array([True, False, False, False]), 0.1)
    assert [BEHAVIOR_LABELS[c] for c in codes] == ["straight"] * 4


def test_behavior_window_is_trailing_and_skips_absent_frames():
    # a turn ahead of the window is forgotten; absent frames are left out
    heading = np.array([0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
    present = np.array([True, True, True, True, False, True, True])
    codes = _codes(np.full(7, 8.0), heading, present, 0.1)
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
        codes = _codes(tr.speed, tr.heading, tr.present, DT)
        for g in np.flatnonzero(tr.present):
            want = _oracle_at(tr.speed, tr.heading, tr.present, g)
            assert BEHAVIOR_LABELS[codes[g]] == want, (tr.id, g)
            checked.add(want)
    # a stacked (K, G) call gives the per-track rows
    some = tracks[:50]
    stacked = _codes(*(np.array([getattr(tr, k) for tr in some])
                               for k in ("speed", "heading", "present")), DT)
    assert all((row == _codes(tr.speed, tr.heading, tr.present, DT)).all()
               for row, tr in zip(stacked, some))
    assert {"straight", "stopped", "left-turn", "right-turn"} <= checked


def earlier_behavior_codes(speed, heading, present, dt, rows):
    """Straight-line copy of behavior_codes as written with take_along_axis
    and np.select."""
    *lead, g = (np.asarray(i)[:, None] for i in rows)
    frame = g + np.arange(1 - BEHAVIOR_WINDOW, 1)
    at_window = (*lead, np.maximum(frame, 0))
    held = present[at_window] & (frame >= 0)
    v, h = (np.where(held, a[at_window], 0.0) for a in (speed, heading))
    first = held.argmax(-1)
    last = BEHAVIOR_WINDOW - 1 - held[..., ::-1].argmax(-1)

    def at(a, n):
        return np.take_along_axis(a, n[..., None], -1)[..., 0]

    turn = h - at(h, first)[..., None]
    turn = np.arctan2(np.sin(turn), np.cos(turn))
    net = at(turn, last)
    start = frame[:, 0]
    span = (start + last) * dt - (start + first) * dt
    with np.errstate(divide="ignore", invalid="ignore"):
        accel = (at(v, last) - at(v, first)) / span
    code = {label: k for k, label in enumerate(BEHAVIOR_LABELS)}
    return np.select(
        [held.sum(-1) < 2, v.max(-1) <= _STOP,
         net >= _TURN, net <= -_TURN,
         np.where(held, np.abs(turn), 0.0).max(-1) >= _TURN,
         accel >= _ACCEL, accel <= -_ACCEL],
        [code[c] for c in ("straight", "stopped", "left-turn", "right-turn",
                           "lane-change", "accelerating", "braking")],
        code["straight"])


def test_behavior_codes_equal_the_earlier_helper_bit_for_bit():
    rng = np.random.default_rng(47)
    for k, g, p_present in [(1, 1, 1.0), (3, 4, 0.2), (6, 30, 0.3),
                            (6, 30, 0.8), (4, 61, 1.0), (2, 8, 0.0)]:
        speed = rng.uniform(0.0, 10.0, (k, g))
        speed[rng.random((k, g)) < 0.3] = -0.0
        speed[-1] = rng.uniform(0.0, 0.06, g)  # stopped and nearly stopped
        heading = rng.uniform(-math.pi, math.pi, (k, g))
        heading[rng.random((k, g)) < 0.2] = -0.0
        present = rng.random((k, g)) < p_present
        speed[~present] = np.nan  # absent samples must not be read
        heading[~present] = np.nan
        speed[0] = heading[0] = np.nan  # an all-NaN, never present track
        present[0] = False
        rows = tuple(np.indices((k, g)).reshape(2, -1))
        for dt in (0.1, 0.25):
            for sel in (slice(None), slice(0, 0), slice(-3, None)):
                r = tuple(i[sel] for i in rows)
                assert_same_bytes(behavior_codes(speed, heading, present, dt, r),
                                  earlier_behavior_codes(speed, heading, present, dt, r))
    # 1-D tracks and windows with fewer than 2 present samples
    heading = np.array([0.0, 1.0, -0.0, 0.5, 0.5, 0.5])
    for present in ([True] + [False] * 5, [False, True, False, False, False, True]):
        present = np.array(present)
        r = (np.arange(6),)
        assert_same_bytes(behavior_codes(np.zeros(6), heading, present, 0.1, r),
                          earlier_behavior_codes(np.zeros(6), heading, present, 0.1, r))


def test_generation_helpers_equal_the_earlier_ones_bit_for_bit(monkeypatch):
    """Every call gen-data makes of the rewritten trajectory and behaviour
    helpers, over positives and negatives on each preset map and on a
    graph passed in as `--network` passes it, gives the bytes of the
    earlier helpers."""
    called = set()

    def checked(name, new, old):
        def check(*args):
            got = new(*args)
            assert_same_bytes(got, old(*args))
            called.add(name)
            return got
        return check

    for name, old in [("point_at", earlier_point_at), ("heading_at", earlier_heading_at),
                      ("speed_at", earlier_speed_at)]:
        monkeypatch.setattr(RoutePath, name,
                            checked(name, getattr(RoutePath, name), old))
    monkeypatch.setattr(trafficgen, "_positions_on_grid", checked(
        "positions", trafficgen._positions_on_grid, earlier_positions_on_grid))
    gaps = checked("gaps", trafficgen.same_time_gaps, earlier_same_time_gaps)
    monkeypatch.setattr(trafficgen, "same_time_gaps", gaps)
    monkeypatch.setattr(generate, "same_time_gaps", gaps)
    monkeypatch.setattr(generate, "behavior_codes", checked(
        "behavior", generate.behavior_codes, earlier_behavior_codes))
    for i in range(48):
        generate_one(53, i, 48, 0.5)
    net = preset_graph("multilane")
    for i in range(12):
        generate_one(54, i, 12, 0.0, net)
    assert called == {"point_at", "heading_at", "speed_at", "positions",
                          "gaps", "behavior"}


def test_scene_label_density_buckets():
    env = EnvironmentProfile("clear", "day", "urban")
    assert scene_label(env, 2) == "clear|day|urban|sparse"
    assert scene_label(env, 6) == "clear|day|urban|moderate"
    assert scene_label(env, 7) == "clear|day|urban|busy"


def test_environment_degenerate_distribution(monkeypatch):
    dists = {"weather": {"clear": 1.0}, "lighting": {"day": 1.0},
             "road_type": {"urban": 1.0}}
    monkeypatch.setattr(generate, "DEFAULT_ENV_DISTS", dists)
    rng = stream_rng(1, "env")
    for _ in range(20):
        env = sample_environment(rng)
        assert env == EnvironmentProfile("clear", "day", "urban")


def test_environment_5050_within_3_sigma(monkeypatch):
    dists = {"weather": {"clear": 0.5, "rain": 0.5},
             "lighting": {"day": 1.0}, "road_type": {"urban": 1.0}}
    monkeypatch.setattr(generate, "DEFAULT_ENV_DISTS", dists)
    rng = stream_rng(2, "env5050")
    n = 10_000
    hits = sum(sample_environment(rng).weather == "clear" for _ in range(n))
    sigma = math.sqrt(n * 0.25)
    assert abs(hits - n / 2) <= 3 * sigma


def test_default_env_dists_rows_are_distributions():
    assert list(generate.DEFAULT_ENV_DISTS) == ["weather", "lighting", "road_type"]
    for cat, dist in generate.DEFAULT_ENV_DISTS.items():
        assert dist and min(dist.values()) >= 0.0, cat
        assert abs(sum(dist.values()) - 1.0) <= 1e-9, cat


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
        if oid.startswith("agent"):  # participants are agent0 and agent1
            x, y, speed = rec.states[r, :3]
            assert speed == 0.0
            after.setdefault(oid, set()).add((x, y))
    assert after
    assert all(len(spots) == 1 for spots in after.values())


def test_rear_end_ego_involved_variant():
    for k in range(40):
        rec, meta = _build_positive(TEMPLATES["rear_end"],
                                    stream_rng(99, "ego", k), "p")
        if len({"agent0", "agent1"} & set(rec.ids)) == 1:
            break
    else:
        pytest.fail("ego-involved variant never sampled in 40 draws")
    assert validate_scenario(rec, meta).ok
    frame = _frame(rec, rec.accident_frame - 1)
    assert min(CAM.camera_distance(o[4], o[6]) for o in frame) <= 2.0


def test_parallel_routes_are_unsatisfiable():
    template = AccidentTemplate(
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
    rec, meta = _build_negative(graph, terminals, route, rng, "negative")
    assert not rec.positive and rec.accident_frame is None
    worst = math.inf
    for t in range(rec.frames):
        frame = _frame(rec, t)
        for i, a in enumerate(frame):
            for b in frame[i + 1:]:
                worst = min(worst, math.hypot(a[0] - b[0], a[1] - b[1]))
    assert worst >= SAFETY_RADIUS - 1e-5
    assert validate_scenario(rec, meta).ok


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


def _record_to_json_oracle(record) -> str:
    """The dataset line as json.dumps writes it from dicts: the writer's
    former body, kept to check its row template against."""
    ids = record.ids
    objects = [
        {"id": ids[k], "x": x, "y": y, "speed": speed, "heading": heading,
         "cx": cx, "cy": cy, "depth": depth, "behavior": BEHAVIOR_LABELS[code]}
        for k, (x, y, speed, heading, cx, cy, depth), code in zip(
            record.id_of.tolist(), round7(record.states).tolist(),
            record.behavior.tolist())
    ]
    starts = record.frame_starts.tolist()
    payload = {
        "id": record.id,
        "positive": record.positive,
        "fps": record.fps,
        "frames": record.frames,
        "accident_frame": record.accident_frame,
        "environment": vars(record.environment),
        "objects": [objects[a:b] for a, b in zip(starts, starts[1:])],
        "scene_labels": list(record.scene_labels),
    }
    return json.dumps(payload, separators=(",", ":"))


def test_record_to_json_matches_oracle_on_generated_records():
    for i in range(8):
        rec = generate_one(59, i, 8, 0.5)[0]
        assert record_to_json(rec) == _record_to_json_oracle(rec)


_TEXT = st.one_of(st.text(max_size=6),
                  st.sampled_from(['a"b', "c\\d", "é✓", "\x00\n", '"\\"']))
_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-10**9, 10**9).map(float), st.just(-0.0),
                    st.floats(-1e3, 1e3))


@st.composite
def _records(draw):
    """Records of 0 to 4 frames, each of 0 to 3 objects, with ids that need
    escaping, whole-number floats and -0.0 among their values."""
    ids = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    frames = draw(st.lists(st.lists(st.tuples(
        st.sampled_from(ids), *[_NUMBER] * 7, st.sampled_from(BEHAVIOR_LABELS)),
        max_size=3), max_size=4))
    positive = draw(st.booleans()) and len(frames) > 1
    return ScenarioRecord(
        draw(_TEXT), positive, draw(st.integers(1, 30)), len(frames),
        draw(st.integers(1, len(frames) - 1)) if positive else None,
        EnvironmentProfile(draw(_TEXT), draw(_TEXT), draw(_TEXT)),
        draw(st.lists(_TEXT, min_size=len(frames), max_size=len(frames))),
        **object_columns(frames))


def _record_of(frames, rec_id="r"):
    n = len(frames)
    return ScenarioRecord(rec_id, n > 1, 10, n, 1 if n > 1 else None,
                          EnvironmentProfile("rain", "night", "urban"),
                          [f"label {t}" for t in range(n)], **object_columns(frames))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_records())
@example(_record_of([]))
@example(_record_of([[], [('a"b', -0.0, 3.0, 1e16, -1e-5, 0.5, 2.0, 7.0,
                           "braking")], []]))
@example(_record_of([[("c\\d", 1.0, -2.0, 0.0, 0.1, 1e-7, 95.0, 4.25, "stopped"),
                      ("é✓", 1.5, 2.5, -0.0, 0.0, 640.0, 360.0, 1.0, "straight")]],
                    rec_id='q"é\\'))
def test_record_to_json_matches_oracle(rec):
    if rec.frames == 0:  # no reader takes a record without frames
        with pytest.raises(ValueError, match=re.escape(
                f"record {rec.id!r}: frames must be >= 1, got 0")):
            record_to_json(rec)
        return
    line = record_to_json(rec)
    assert line == _record_to_json_oracle(rec)
    back = record_from_json(line)
    assert record_to_json(back) == line


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_record_to_json_refuses_a_non_finite_number(value):
    rec = generate_one(59, 0, 1, 0.0)[0]
    row = int(rec.frame_starts[1]) + 1
    rec.states[row, STATE_COLUMNS.index("heading")] = value
    with pytest.raises(ValueError, match=(
            f"record '{rec.id}': object '{rec.ids[rec.id_of[row]]}' "
            f"has heading {value}, not a finite number")):
        record_to_json(rec)


def _cut_labels(rec):
    rec.scene_labels = rec.scene_labels[:-1]


# records the reader refuses, each with the rule it breaks
_UNREADABLE = {
    "zero-frames": (lambda r: _record_of([]), "frames must be >= 1, got 0"),
    "fewer-labels": (_cut_labels, "frames is 50 but there are 50 object lists "
                                  "and 49 scene labels"),
    "more-frames": (lambda r: setattr(r, "frames", 51), "frames is 51"),
    "fps-0": (lambda r: setattr(r, "fps", 0), "fps must be >= 1, got 0"),
    "accident-0": (lambda r: setattr(r, "accident_frame", 0),
                   "a positive needs 0 < accident_frame < 50, got 0"),
    "accident-at-end": (lambda r: setattr(r, "accident_frame", 50),
                        "a positive needs 0 < accident_frame < 50, got 50"),
    "accident-float": (lambda r: setattr(r, "accident_frame", 10.0),
                       "a positive needs 0 < accident_frame < 50, got 10.0"),
    "negative-with-accident": (
        lambda r: setattr(r, "positive", False),
        "a negative needs accident_frame null"),
}


@pytest.mark.parametrize("fault", _UNREADABLE)
def test_record_to_json_refuses_what_the_reader_refuses(fault):
    # the writer raises naming the record instead of writing the line its
    # reader rejects
    edit, rule = _UNREADABLE[fault]
    rec = generate_one(59, 0, 1, 1.0)[0]
    rec = edit(rec) or rec
    with pytest.raises(ValueError, match=rule):
        record_from_json(_record_to_json_oracle(rec))
    with pytest.raises(ValueError, match=re.escape(f"record {rec.id!r}: {rule}")):
        record_to_json(rec)


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


def _round_bytes(values) -> bytes:
    """The bytes of round(v, 7) for each v, so -0.0 and NaN payloads count."""
    return np.array([round(v, 7) for v in values], dtype=np.float64).tobytes()


# two near ties that rint(x * 1e7) / 1e7 gets wrong, an exact binary tie, a
# negative that rounds to -0.0, the smallest subnormal, two magnitudes past
# where the scaled value's ulp reaches 1/2, inf and NaN
_ROUND7_ROWS = [1.5e-7, 95.04636965, 1 / 256, -1e-9, 0.0, 5e-324, 1e300,
                2**53 / 1e7, math.inf, math.nan]


@pytest.mark.parametrize("value", _ROUND7_ROWS + [-v for v in _ROUND7_ROWS])
def test_round7_matches_round_bit_for_bit_on_fixed_rows(value):
    assert round7(np.array([value])).tobytes() == _round_bytes([value])


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(st.one_of(
    st.floats(),
    st.floats(-1e4, 1e4),
    # halfway between two 7-decimal values, give or take the product's ulp
    st.integers(-10**13, 10**13).map(lambda k: (k + 0.5) / 1e7),
), min_size=1, max_size=40))
def test_round7_matches_round_bit_for_bit(values):
    out = round7(np.array(values)[:, None])
    assert out.shape == (len(values), 1)
    assert out.tobytes() == _round_bytes(values)


def test_route_paths_shared_across_scenarios_write_the_same_bytes():
    preset_graph.cache_clear()  # fresh graphs: no route path built yet
    cold = [record_to_json(generate_one(1, i, 600, 0.5)[0]) for i in (0, 1)]
    for i in range(2, 20):
        generate_one(1, i, 600, 0.5)
    maps = {t.preset_map for t in TEMPLATES.values()}
    assert all(preset_graph(m)._paths for m in maps)
    assert [record_to_json(generate_one(1, i, 600, 0.5)[0]) for i in (0, 1)] == cold


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
    rec, meta = _build_positive(TEMPLATES["rear_end"], stream_rng(71), "p")
    rec.accident_frame = 0
    report = validate_scenario(rec, meta)
    assert not report.ok
    assert "c4_accident_annotated" in {c.name for c in report.failures()}


def test_scenario_failing_validation_every_attempt_names_the_check_detail(
        monkeypatch):
    # no pair can come closer than -1 m, so c2 fails on every attempt
    monkeypatch.setattr(generate, "COLLISION_THRESHOLD", -1.0)
    with pytest.raises(generate.GenerationError) as info:
        generate_one(5, 0, 1, 1.0)
    assert re.fullmatch(
        r"scenario 0 failed after 20 attempts: validation failed: "
        r"c2_trajectories_intersect \(closest pair \d+\.\d{3} m, "
        r"closest to camera \d+\.\d{3} m\)", str(info.value)), str(info.value)


def test_validator_flags_collision_outside_fov():
    rec, meta = _build_positive(TEMPLATES["rear_end"], stream_rng(73), "p")
    g = rec.accident_frame - 1 + TRIM_FRAMES
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
