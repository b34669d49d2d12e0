"""Scenario synthesis: accident templates, conflict-free traffic, validation.

Positives instantiate a template: the two participants are constant-speed
movers anchored so they coincide (within the collision threshold) at the
sampled accident time, after which they freeze in place. The ego either is
one of them (rear-end striker) or approaches the same point as an observer
and stops short. Negatives put the ego on a sampled route through Poisson
background traffic spaced by the deconfliction pass.

Everything is sampled on a generation grid of fps * horizon frames; half a
second is trimmed from each end before the record is stored, so the camera
never sees a vehicle popping into existence at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..roadnet import (
    NoRouteError,
    RoadGraph,
    Route,
    TerminalSets,
    classify_terminals,
    shortest_path,
)
from ..trafficgen import (
    ArrivalConfig,
    DeconflictError,
    ODSamplingError,
    RouteGeometry,
    TimeMapping,
    TripSpec,
    build_trips,
    deconflict,
    min_same_time_distance,
    sample_departures,
    sample_od,
    sample_trajectory,
)
from ..util import stream_rng
from .presets import TEMPLATES, AccidentTemplate, preset_graph
from .records import (
    EgoCamera,
    EnvironmentProfile,
    ScenarioRecord,
    behavior_codes,
    scene_label,
)

DEFAULT_ENV_DISTS: dict[str, dict[str, float]] = {
    "weather": {"clear": 0.50, "rain": 0.25, "fog": 0.15, "snow": 0.10},
    "lighting": {"day": 0.60, "night": 0.25, "dusk": 0.15},
    "road_type": {"urban": 0.40, "suburban": 0.35, "highway": 0.25},
}

# same-lane spacing of the rear-end pair at the accident time (inside the
# 2 m collision threshold, but nonzero so the leader stays dead ahead)
_COLLISION_GAP = 1.5
# the observing ego halts this far short of the collision point
_EGO_STOP_GAP = 8.0
_PAD_LATERAL = 5.5
_PAD_CLEARANCE = 5.25
_PAD_FORWARD = tuple(range(12, 27, 2))

FPS = 10
HORIZON = 6.0  # seconds on the generation grid
TRIM = 0.5  # seconds cut from each end before storing
SAFETY_RADIUS = 5.0  # minimum spacing of negatives' movers, meters
COLLISION_THRESHOLD = 2.0  # participants this close count as colliding, meters
MAX_VISIBLE = 19  # objects stored per frame, nearest first
ARRIVAL_VEHICLES = 3.0  # mean background vehicles per arrival period
ARRIVAL_PERIOD = 6.0
MAX_ATTEMPTS = 20  # seeded retries per scenario
CAMERA = EgoCamera()

DT = 1.0 / FPS
GEN_FRAMES = round(HORIZON * FPS)
TRIM_FRAMES = round(TRIM * FPS)
STORED_FRAMES = GEN_FRAMES - 2 * TRIM_FRAMES


class GenerationError(Exception):
    """A single generation attempt failed; callers may resample."""


class ConstraintUnsatisfiableError(GenerationError):
    """No template parameterization can satisfy the accident constraints."""


def sample_environment(dist_config: Mapping[str, Mapping[str, float]],
                       rng: np.random.Generator) -> EnvironmentProfile:
    """Independent categorical draws for weather, lighting, road type."""
    values = {}
    for cat in ("weather", "lighting", "road_type"):
        if cat not in dist_config:
            raise ValueError(f"missing distribution for {cat!r}")
        dist = dist_config[cat]
        if not dist:
            raise ValueError(f"empty distribution for {cat!r}")
        total = 0.0
        for name, w in dist.items():
            if w < 0:
                raise ValueError(f"negative weight {w!r} for {cat}={name!r}")
            total += w
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{cat} weights sum to {total!r}, expected 1.0")
        r = rng.random()
        acc = 0.0
        for name, w in dist.items():
            acc += w
            if r < acc:
                break
        values[cat] = name
    return EnvironmentProfile(**values)


@dataclass
class Track:
    """One mover sampled on the full generation grid; NaN rows mean absent.
    Its arrays are not written after construction, so presence is computed
    once."""

    id: str
    xy: np.ndarray  # (G, 2)
    speed: np.ndarray  # (G,)
    heading: np.ndarray  # (G,)
    present: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.present = ~np.isnan(self.xy[:, 0])


@dataclass
class GenMeta:
    """Generation-time ground truth kept out of the record, used by the
    validator for the pose-exact checks."""

    ego_xy: np.ndarray
    ego_heading: np.ndarray
    stored_offset: int
    collision_xy: tuple[float, float] | None = None
    collision_gen_frame: int | None = None
    template: AccidentTemplate | None = None
    role_routes: tuple[tuple[str, ...], ...] | None = None
    participant_ids: tuple[str, ...] = ()


def _route_cum_arcs(graph: RoadGraph, edge_ids) -> np.ndarray:
    arcs = [0.0]
    for eid in edge_ids:
        arcs.append(arcs[-1] + graph.edges[eid].length)
    return np.asarray(arcs)


def _node_arc(graph: RoadGraph, edge_ids, node_id: str) -> float:
    """Arc position of a node's first occurrence along a route."""
    if graph.edges[edge_ids[0]].source == node_id:
        return 0.0
    s = 0.0
    for eid in edge_ids:
        s += graph.edges[eid].length
        if graph.edges[eid].target == node_id:
            return s
    raise KeyError(f"node {node_id!r} not on route {tuple(edge_ids)!r}")


def _interior_nodes(graph: RoadGraph, route: Route) -> tuple[str, ...]:
    return tuple(graph.edges[eid].target for eid in route.edges[:-1])


def _collision_node(graph: RoadGraph, a: Route, b: Route) -> str:
    """First interior node of route a that is also interior to route b."""
    interior_b = set(_interior_nodes(graph, b))
    for node in _interior_nodes(graph, a):
        if node in interior_b:
            return node
    raise ConstraintUnsatisfiableError(
        f"routes {a.edges!r} and {b.edges!r} share no interior node, "
        "so their trajectories cannot intersect")


def _trip_track(graph: RoadGraph, trip: TripSpec, grid: np.ndarray,
                track_id: str) -> Track:
    """Sample a route-following trip (per-edge speeds) on the grid."""
    mapping = TimeMapping(graph, trip.route, trip.depart)
    geom = RouteGeometry(graph, trip.route.edges)
    present = (grid >= trip.depart - 1e-9) & (grid <= trip.depart + mapping.duration + 1e-9)
    xy = np.full((len(grid), 2), np.nan)
    speed = np.zeros(len(grid))
    heading = np.zeros(len(grid))
    if present.any():
        arcs = np.asarray(mapping.arc_at(grid[present]))
        xy[present] = geom.point_at(arcs)
        heading[present] = geom.heading_at(arcs)
        cum = _route_cum_arcs(graph, trip.route.edges)
        idx = np.clip(np.searchsorted(cum, arcs, side="right") - 1, 0, len(cum) - 2)
        edge_speeds = np.asarray([graph.edges[e].speed for e in trip.route.edges])
        speed[present] = edge_speeds[idx]
    return Track(track_id, xy, speed, heading)


def _anchored_track(geom: RouteGeometry, track_id: str, anchor: float,
                    speed: float, t_anchor: float, grid: np.ndarray, *,
                    freeze: bool = False, max_arc: float | None = None) -> Track:
    """Constant-speed mover pinned to arc `anchor` at time `t_anchor`.

    With freeze=True the mover stays at the anchor from t_anchor on (a
    crashed participant); max_arc caps progress (an ego stopping short).
    Positions are clamped to the route, so the mover exists on every frame.
    """
    s_raw = anchor + speed * (grid - t_anchor)
    frozen = np.zeros(len(grid), dtype=bool)
    if freeze:
        frozen = grid >= t_anchor - 1e-9
        s_raw = np.where(frozen, anchor, s_raw)
    hi = geom.length if max_arc is None else max_arc
    s = np.clip(s_raw, 0.0, hi)
    moving = ~frozen & (s_raw > 0.0) & (s_raw < hi)
    spd = np.where(moving, speed, 0.0)
    return Track(track_id, geom.point_at(s), spd, geom.heading_at(s))


def _pad_spot(obstacles: list[Track], ego: Track, g: int) -> np.ndarray:
    """The first roadside spot ahead of the ego pose at frame g, offset
    laterally past the safety radius, that clears every obstacle."""
    hx, hy = math.cos(ego.heading[g]), math.sin(ego.heading[g])
    for forward in _PAD_FORWARD:
        for lateral in (_PAD_LATERAL, -_PAD_LATERAL):
            p = np.array([ego.xy[g, 0] + forward * hx - lateral * hy,
                          ego.xy[g, 1] + forward * hy + lateral * hx])
            if all(float(np.sqrt(((tr.xy[tr.present] - p) ** 2).sum(axis=1)).min())
                   >= _PAD_CLEARANCE for tr in obstacles if tr.present.any()):
                return p
    raise GenerationError(f"no parked-object slot clears traffic near frame {g}")


def _assemble(rec_id: str, positive: bool, env: EnvironmentProfile,
              tracks: list[Track], ego: Track,
              accident_gen_frame: int | None) -> ScenarioRecord:
    """Project every track once, park objects until every stored frame
    shows at least one, and store each frame's nearest MAX_VISIBLE views.

    Each pad goes on the last stored frame that shows nothing, clear of the
    tracks, the earlier pads and the ego. Parking draws no random numbers.
    """
    tracks = list(tracks)
    n_grid = len(ego.xy)
    stored = slice(TRIM_FRAMES, TRIM_FRAMES + STORED_FRAMES)

    def view(xy):  # (cx, cy, depth, visible), each (K, S), of (K, G, 2) positions
        return CAMERA.project(ego.xy[stored].T, ego.heading[stored],
                              xy[:, stored].transpose(2, 0, 1))

    views = [view(np.array([tr.xy for tr in tracks]).reshape(-1, n_grid, 2))]
    shown = views[0][3].any(axis=0)
    for k in range(STORED_FRAMES):
        if shown.all():
            break
        g0 = TRIM_FRAMES + int(np.flatnonzero(~shown)[-1])
        spot = _pad_spot(tracks + [ego], ego, g0)
        tracks.append(Track(f"parked{k}", np.tile(spot, (n_grid, 1)),
                            np.zeros(n_grid),
                            np.full(n_grid, float(ego.heading[g0]))))
        views.append(view(tracks[-1].xy[None]))
        shown |= views[-1][3][0]
    cx, cy, depth, visible = map(np.concatenate, zip(*views))

    # rows are the visible (track k, stored frame j) pairs ordered by frame,
    # depth and id, at most MAX_VISIBLE per frame
    # each track's place in id order (the inverse of the sorting permutation)
    rank = np.argsort(sorted(range(len(tracks)), key=lambda i: tracks[i].id))
    j, k = np.nonzero(visible.T)
    order = np.lexsort((rank[k], depth[k, j], j))
    j, k = j[order], k[order]
    keep = np.arange(len(j)) - np.searchsorted(j, j) < MAX_VISIBLE
    j, k = j[keep], k[keep]
    frame_starts = np.searchsorted(j, np.arange(STORED_FRAMES + 1))
    seen = k[np.sort(np.unique(k, return_index=True)[1])]  # by first appearance
    slot = np.empty(len(tracks), dtype=np.int64)
    slot[seen] = np.arange(len(seen))
    xy, speed, heading, present = (np.array([getattr(tr, a) for tr in tracks])
                                   for a in ("xy", "speed", "heading", "present"))
    g = j + TRIM_FRAMES
    lam = None
    if positive:
        lam = accident_gen_frame - TRIM_FRAMES + 1  # 1-based stored index
        if not 0 < lam < STORED_FRAMES:
            raise GenerationError(f"accident frame {lam} outside (0, T)")
    return ScenarioRecord(
        rec_id, positive, FPS, STORED_FRAMES, lam, env,
        [scene_label(env, n) for n in np.diff(frame_starts).tolist()],
        states=np.column_stack([xy[k, g, 0], xy[k, g, 1], speed[k, g],
                                heading[k, g], cx[k, j], cy[k, j], depth[k, j]]),
        frame_starts=frame_starts, ids=tuple(tracks[i].id for i in seen.tolist()),
        id_of=slot[k], behavior=behavior_codes(speed, heading, present, DT)[k, g])


def _background_tracks(graph: RoadGraph, terminals: TerminalSets,
                       rng: np.random.Generator, grid: np.ndarray,
                       extra_trips: list[TripSpec] | None = None) -> list[Track]:
    """Poisson traffic, deconflicted. The spacing pass works on chord-
    interpolated trajectories, so it runs with a padded radius; the exact
    per-frame spacing is re-checked by callers on the sampled tracks."""
    arrivals = ArrivalConfig(ARRIVAL_VEHICLES, ARRIVAL_PERIOD, HORIZON)
    departures = sample_departures(arrivals, rng)
    trips = build_trips(graph, terminals, departures, rng)
    if extra_trips:
        trips = extra_trips + trips
    trajs = [sample_trajectory(RouteGeometry(graph, t.route.edges),
                               TimeMapping(graph, t.route, t.depart),
                               t.vehicle, DT)
             for t in trips]
    placed = deconflict(trips, trajs, SAFETY_RADIUS + 0.5, DT, HORIZON)
    return [_trip_track(graph, t, grid, f"car{t.vehicle}") for t in placed]


def _build_positive(template: AccidentTemplate, rng: np.random.Generator,
                    rec_id: str) -> tuple[ScenarioRecord, GenMeta]:
    graph = preset_graph(template.preset_map)
    env = sample_environment(DEFAULT_ENV_DISTS, rng)

    role_routes = [shortest_path(graph, *role.od) for role in template.roles]
    node = _collision_node(graph, role_routes[0], role_routes[1])

    g_c = int(rng.integers(*template.onset_frames))
    t_c = g_c * DT
    speeds = [float(rng.uniform(*role.speed_range)) for role in template.roles]
    d_view = float(rng.uniform(12.0, 30.0))
    ego_involved = template.ego_role is not None and rng.random() < 0.5

    grid = np.arange(GEN_FRAMES) * DT
    geoms = [RouteGeometry(graph, rt.edges) for rt in role_routes]
    anchors = [_node_arc(graph, rt.edges, node) for rt in role_routes]
    if role_routes[0].edges == role_routes[1].edges:
        # same-lane pair: trail the second role so it strikes from behind
        anchors[1] -= _COLLISION_GAP

    participants: list[Track] = []
    for r in range(2):
        if ego_involved and r == template.ego_role:
            continue
        participants.append(_anchored_track(
            geoms[r], f"agent{r}", anchors[r], speeds[r], t_c, grid, freeze=True))

    if ego_involved:
        r = template.ego_role
        ego = _anchored_track(geoms[r], "ego", anchors[r], speeds[r], t_c, grid,
                              freeze=True)
    else:
        od = template.observer_ods[int(rng.integers(len(template.observer_ods)))]
        ego_route = shortest_path(graph, *od)
        ego_geom = RouteGeometry(graph, ego_route.edges)
        shared = [r for r in range(2) if role_routes[r].edges == ego_route.edges]
        if shared:
            # ego trails a same-lane participant at matched speed so nobody
            # has to drive through anybody
            r = min(shared, key=lambda k: anchors[k])
            v_ego, base = speeds[r], anchors[r]
        else:
            v_ego = float(rng.uniform(6.0, 12.0))
            base = _node_arc(graph, ego_route.edges, node)
        ego = _anchored_track(ego_geom, "ego", base - d_view, v_ego, t_c, grid,
                              max_arc=base - _EGO_STOP_GAP)

    terminals = classify_terminals(graph)
    bg = _background_tracks(graph, terminals, rng, grid)
    keep = [tr for tr in bg
            if all(min_same_time_distance(tr.xy, other.xy) >= SAFETY_RADIUS
                   for other in participants + [ego])]

    tracks = participants + keep

    crash_points = [tr.xy[g_c] for tr in participants]
    if ego_involved:
        crash_points.append(ego.xy[g_c])
    collision_xy = tuple(np.mean(crash_points, axis=0))

    record = _assemble(rec_id, True, env, tracks, ego, g_c)
    meta = GenMeta(ego_xy=ego.xy, ego_heading=ego.heading,
                   stored_offset=TRIM_FRAMES, collision_xy=collision_xy,
                   collision_gen_frame=g_c, template=template,
                   role_routes=tuple(rt.edges for rt in role_routes),
                   participant_ids=tuple(t.id for t in participants))
    return record, meta


def _build_negative(graph: RoadGraph, terminals: TerminalSets,
                    ego_route: Route, rng: np.random.Generator, rec_id: str
                    ) -> tuple[ScenarioRecord, GenMeta]:
    env = sample_environment(DEFAULT_ENV_DISTS, rng)
    mapping = TimeMapping(graph, ego_route, 0.0)
    if mapping.duration < HORIZON:
        raise GenerationError(
            f"ego route lasts {mapping.duration:.2f} s, shorter than the "
            f"{HORIZON:.2f} s window")
    ego_trip = TripSpec(-1, ego_route.edges[0], ego_route.edges[-1], 0.0, ego_route)
    grid = np.arange(GEN_FRAMES) * DT
    placed = _background_tracks(graph, terminals, rng, grid,
                                extra_trips=[ego_trip])
    ego = next(tr for tr in placed if tr.id == "car-1")
    ego = Track("ego", ego.xy, ego.speed, ego.heading)
    tracks = [tr for tr in placed if tr.id != "car-1"]

    movers = tracks + [ego]
    for i in range(len(movers)):
        for j in range(i + 1, len(movers)):
            if min_same_time_distance(movers[i].xy, movers[j].xy) < SAFETY_RADIUS:
                raise GenerationError(
                    f"{movers[i].id} and {movers[j].id} violate the safety "
                    "radius on the frame grid")

    record = _assemble(rec_id, False, env, tracks, ego, None)
    meta = GenMeta(ego_xy=ego.xy, ego_heading=ego.heading,
                   stored_offset=TRIM_FRAMES)
    return record, meta


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]


def _frame_pairs(record: ScenarioRecord) -> tuple[np.ndarray, np.ndarray]:
    """Each stored frame's object rows padded to the most objects in any
    frame: (T, K) rows, and (T, K, K) true where slots i < j both hold an
    object."""
    counts = np.diff(record.frame_starts)
    col = np.arange(counts.max(initial=0))
    held = col < counts[:, None]
    rows = np.where(held, record.frame_starts[:-1, None] + col, 0)
    return rows, held[:, :, None] & held[:, None, :] & (col[:, None] < col)


def _pair_distances(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(T, K, K) distances between the (n, 2) points gathered by rows."""
    p = points[rows]
    d = p[:, :, None] - p[:, None]
    return np.sqrt((d * d).sum(-1))


def validate_scenario(record: ScenarioRecord,
                      meta: GenMeta | None = None) -> ValidationReport:
    """Check every record invariant, and the four accident constraints for
    positives. With generation meta the camera checks run against the true
    ego poses; without it they fall back to what the record alone supports
    (rigid-transform consistency of the stored projections)."""
    cam = CAMERA
    checks: list[CheckResult] = []

    def add(name: str, ok: bool, detail: str = ""):
        checks.append(CheckResult(name, bool(ok), detail))

    t = record.frames
    counts = np.diff(record.frame_starts).tolist()
    x, y, _, _, cx, _, depth = record.states.T
    add("frame_count",
        t == STORED_FRAMES == len(counts) == len(record.scene_labels),
        f"frames={t}, objects={len(counts)}, labels={len(record.scene_labels)}")

    add("object_count",
        bool(counts) and min(counts) >= 1 and max(counts) <= MAX_VISIBLE,
        f"min={min(counts, default=0)}, max={max(counts, default=0)}")

    expect = [scene_label(record.environment, n) for n in counts]
    add("scene_labels", list(record.scene_labels) == expect)

    depth_ok = bool((depth > 0).all())
    cx_ok = bool(((-1e-6 <= cx) & (cx <= cam.width + 1e-6)).all())
    add("projection_bounds", depth_ok and cx_ok)

    # stored (cx, depth) and stored (x, y) must be the same points up to a
    # rigid transform, hence identical pairwise distances
    rows, pairs = _frame_pairs(record)
    world = _pair_distances(record.states[:, :2], rows)
    seen = _pair_distances(np.column_stack([depth, cam.lateral(cx, depth)]), rows)
    worst = float(np.abs(seen - world)[pairs].max(initial=0.0))
    add("projection_rigid", worst <= 1e-5, f"max gap {worst:.2e} m")

    if meta is not None:
        g = record.frame_of + meta.stored_offset
        wx, wy = cam.unproject(meta.ego_xy[g].T, meta.ego_heading[g], cx, depth)
        worst = float(np.hypot(wx - x, wy - y).max(initial=0.0))
        add("projection_roundtrip", worst <= 1e-6, f"max gap {worst:.2e} m")
        add("projection_fov",
            bool((np.abs(cam.bearing(cx, depth)) <= cam.half_fov + 1e-9).all()))

    if record.positive:
        lam = record.accident_frame
        add("c4_accident_annotated",
            lam is not None and 0 < lam < t,
            f"accident_frame={lam}")
        if lam is not None and 0 < lam < t:
            a, b = record.frame_starts[lam - 1], record.frame_starts[lam]
            between = np.where(pairs[lam - 1], world[lam - 1], math.inf)
            pair_d = float(between.min(initial=math.inf))
            to_cam = cam.camera_distance(cx[a:b], depth[a:b])
            cam_d = float(to_cam.min(initial=math.inf))
            hit = min(pair_d, cam_d)
            add("c2_trajectories_intersect",
                hit <= COLLISION_THRESHOLD + 1e-6,
                f"closest pair {pair_d:.3f} m, closest to camera {cam_d:.3f} m")
            bearings = np.abs(cam.bearing(cx[a:b], depth[a:b]))
            if meta is not None and meta.collision_xy is not None:
                g = lam - 1 + meta.stored_offset
                cx_c, _, depth_c, seen = cam.project(
                    meta.ego_xy[g], meta.ego_heading[g], meta.collision_xy)
                bearing = abs(cam.bearing(cx_c, depth_c)) if seen else math.inf
            elif pair_d <= cam_d and math.isfinite(pair_d):
                # the first closest pair i < j, as the rows are stored
                i, j = np.unravel_index(np.argmin(between), between.shape)
                bearing = max(bearings[i], bearings[j])
            elif b > a:
                bearing = bearings[np.argmin(to_cam)]
            else:
                bearing = math.inf
            add("c3_collision_in_fov", bearing <= cam.half_fov + 1e-9,
                f"bearing {math.degrees(bearing):.1f} deg"
                if math.isfinite(bearing) else "collision point not visible")
        if meta is not None and meta.template is not None:
            ok = all(rt[0] == role.od[0] and rt[-1] == role.od[1]
                     for rt, role in zip(meta.role_routes, meta.template.roles))
            add("c1_od_pairs", ok)
    else:
        add("no_accident_frame", record.accident_frame is None)
        worst_gap = float(world[pairs].min(initial=math.inf))
        add("safety_spacing", worst_gap >= SAFETY_RADIUS - 1e-5,
            f"min pairwise distance {worst_gap:.3f} m")

    return ValidationReport(checks)


_TEMPLATE_CYCLE = tuple(TEMPLATES)
_PRESET_CYCLE = ("straight", "intersection", "t_junction", "multilane")


def _sample_ego_route(graph: RoadGraph, terminals: TerminalSets,
                      rng: np.random.Generator, tries: int = 50) -> Route:
    for _ in range(tries):
        _, _, route = sample_od(graph, terminals, rng)
        if route.cost >= HORIZON:
            return route
    raise GenerationError(f"no ego route spanning {HORIZON} s in {tries} draws")


def generate_one(seed: int, index: int, count: int, positive_ratio: float,
                 graph: RoadGraph | None = None
                 ) -> tuple[ScenarioRecord, GenMeta]:
    """Scenario `index` of a dataset: pure in (seed, index, count, ratio,
    graph), so indices can be generated in any order or in parallel.

    Positives are spread evenly over the index range; each retry attempt
    draws from its own seeded stream.
    """
    if not 0 <= positive_ratio <= 1:
        raise ValueError("positive_ratio must lie in [0, 1]")
    if not 0 <= index < count:
        raise ValueError("index out of range")
    n_pos = int(round(count * positive_ratio))
    before = index * n_pos // count
    positive = (index + 1) * n_pos // count > before
    rec_id = f"scn-{seed}-{index:05d}"

    last: Exception | None = None
    for attempt in range(MAX_ATTEMPTS):
        rng = stream_rng(seed, "scenario", index, attempt)
        try:
            if positive:
                template = TEMPLATES[_TEMPLATE_CYCLE[before % len(_TEMPLATE_CYCLE)]]
                record, meta = _build_positive(template, rng, rec_id)
            else:
                neg_ordinal = index - before
                g = graph if graph is not None else preset_graph(
                    _PRESET_CYCLE[neg_ordinal % len(_PRESET_CYCLE)])
                terminals = classify_terminals(g)
                ego_route = _sample_ego_route(g, terminals, rng)
                record, meta = _build_negative(g, terminals, ego_route, rng,
                                               rec_id)
        except ConstraintUnsatisfiableError:
            raise
        except (GenerationError, DeconflictError, ODSamplingError, NoRouteError) as exc:
            last = exc
            continue
        report = validate_scenario(record, meta)
        if report.ok:
            return record, meta
        last = GenerationError("validation failed: "
                               + "; ".join(c.name for c in report.failures()))
    raise GenerationError(
        f"scenario {index} failed after {MAX_ATTEMPTS} attempts") from last


def generate_dataset(count: int, positive_ratio: float, seed: int,
                     graph: RoadGraph | None = None) -> list[ScenarioRecord]:
    return [generate_one(seed, i, count, positive_ratio, graph)[0]
            for i in range(count)]
