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
    sample_departures,
    sample_od,
    sample_trajectory,
)
from ..util import stream_rng
from .presets import TEMPLATES, AccidentTemplate, preset_graph
from .records import (
    BEHAVIOR_LABELS,
    EgoCamera,
    EnvironmentProfile,
    ObjectState,
    ScenarioRecord,
    behavior_label,
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
_BEHAVIOR_WINDOW = 5  # generation frames per labeling window


class GenerationError(Exception):
    """A single generation attempt failed; callers may resample."""


class ConstraintUnsatisfiableError(GenerationError):
    """No template parameterization can satisfy the accident constraints."""


@dataclass(frozen=True)
class GenConfig:
    fps: int = 10
    horizon: float = 6.0
    trim: float = 0.5
    safety_radius: float = 5.0
    collision_threshold: float = 2.0
    max_visible: int = 19
    arrival_vehicles: float = 3.0
    arrival_period: float = 6.0
    max_attempts: int = 20
    camera: EgoCamera = EgoCamera()
    env_dists: Mapping[str, Mapping[str, float]] = field(
        default_factory=lambda: DEFAULT_ENV_DISTS)

    def __post_init__(self):
        if self.fps <= 0 or self.horizon <= 0:
            raise ValueError("fps and horizon must be positive")
        if self.stored_frames < 2:
            raise ValueError("trim leaves fewer than 2 stored frames")

    @property
    def dt(self) -> float:
        return 1.0 / self.fps

    @property
    def gen_frames(self) -> int:
        return round(self.horizon * self.fps)

    @property
    def trim_frames(self) -> int:
        return round(self.trim * self.fps)

    @property
    def stored_frames(self) -> int:
        return self.gen_frames - 2 * self.trim_frames


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
    """One mover sampled on the full generation grid; NaN rows mean absent."""

    id: str
    xy: np.ndarray  # (G, 2)
    speed: np.ndarray  # (G,)
    heading: np.ndarray  # (G,)

    @property
    def present(self) -> np.ndarray:
        return ~np.isnan(self.xy[:, 0])


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


def _min_track_distance(a: Track, b: Track) -> float:
    both = a.present & b.present
    if not both.any():
        return math.inf
    d = a.xy[both] - b.xy[both]
    return float(np.sqrt((d * d).sum(axis=1)).min())


def _place_pads(cfg: GenConfig, tracks: list[Track], ego: Track) -> list[Track]:
    """Parked roadside objects guaranteeing every stored frame shows >= 1.

    Repeatedly takes the last stored frame with nothing visible and parks an
    object ahead of the ego pose there, offset laterally past the safety
    radius and clear of every mover. Deterministic: no randomness involved.
    """
    cam = cfg.camera
    n_grid = len(ego.xy)
    pads: list[Track] = []

    def visible_any(g: int) -> bool:
        for tr in tracks + pads:
            if tr.present[g] and cam.project(ego.xy[g], ego.heading[g], tr.xy[g]):
                return True
        return False

    for _ in range(cfg.stored_frames):
        uncovered = [j + cfg.trim_frames for j in range(cfg.stored_frames)
                     if not visible_any(j + cfg.trim_frames)]
        if not uncovered:
            break
        g0 = uncovered[-1]
        hx, hy = math.cos(ego.heading[g0]), math.sin(ego.heading[g0])
        spot = None
        for forward in _PAD_FORWARD:
            for lateral in (_PAD_LATERAL, -_PAD_LATERAL):
                p = np.array([ego.xy[g0, 0] + forward * hx - lateral * hy,
                              ego.xy[g0, 1] + forward * hy + lateral * hx])
                clear = all(
                    float(np.sqrt(((tr.xy[tr.present] - p) ** 2).sum(axis=1)).min())
                    >= _PAD_CLEARANCE
                    for tr in tracks + pads + [ego] if tr.present.any())
                if clear:
                    spot = p
                    break
            if spot is not None:
                break
        if spot is None:
            raise GenerationError(
                f"no parked-object slot clears traffic near frame {g0}")
        pads.append(Track(
            f"parked{len(pads)}",
            np.tile(spot, (n_grid, 1)),
            np.zeros(n_grid),
            np.full(n_grid, float(ego.heading[g0])),
        ))
    return pads


def _behavior_at(track: Track, g: int, dt: float) -> str:
    lo = max(0, g - _BEHAVIOR_WINDOW + 1)
    window = [(n * dt, track.xy[n, 0], track.xy[n, 1],
               track.speed[n], track.heading[n])
              for n in range(lo, g + 1) if track.present[n]]
    if len(window) < 2:
        return "straight"
    return behavior_label(window)


def _assemble(rec_id: str, positive: bool, env: EnvironmentProfile,
              cfg: GenConfig, tracks: list[Track], ego: Track,
              accident_gen_frame: int | None) -> ScenarioRecord:
    cam = cfg.camera
    frames: list[list[ObjectState]] = []
    labels: list[str] = []
    for j in range(cfg.stored_frames):
        g = j + cfg.trim_frames
        visible = []
        for tr in tracks:
            if not tr.present[g]:
                continue
            proj = cam.project(ego.xy[g], ego.heading[g], tr.xy[g])
            if proj is None:
                continue
            visible.append((proj[2], tr.id, proj[0], proj[1], tr))
        visible.sort(key=lambda v: (v[0], v[1]))
        objs = [
            ObjectState(tid, x=float(tr.xy[g, 0]), y=float(tr.xy[g, 1]),
                        speed=float(tr.speed[g]), heading=float(tr.heading[g]),
                        cx=float(cx), cy=float(cy), depth=float(depth),
                        behavior=_behavior_at(tr, g, cfg.dt))
            for depth, tid, cx, cy, tr in visible[:cfg.max_visible]
        ]
        frames.append(objs)
        labels.append(scene_label(env, len(objs)))
    lam = None
    if positive:
        lam = accident_gen_frame - cfg.trim_frames + 1  # 1-based stored index
        if not 0 < lam < cfg.stored_frames:
            raise GenerationError(f"accident frame {lam} outside (0, T)")
    return ScenarioRecord(rec_id, positive, cfg.fps, cfg.stored_frames, lam,
                          env, frames, labels)


def _background_tracks(graph: RoadGraph, terminals: TerminalSets, cfg: GenConfig,
                       rng: np.random.Generator, grid: np.ndarray,
                       extra_trips: list[TripSpec] | None = None) -> list[Track]:
    """Poisson traffic, deconflicted. The spacing pass works on chord-
    interpolated trajectories, so it runs with a padded radius; the exact
    per-frame spacing is re-checked by callers on the sampled tracks."""
    arrivals = ArrivalConfig(cfg.arrival_vehicles, cfg.arrival_period, cfg.horizon)
    departures = sample_departures(arrivals, rng)
    trips = build_trips(graph, terminals, departures, rng)
    if extra_trips:
        trips = extra_trips + trips
    trajs = [sample_trajectory(RouteGeometry(graph, t.route.edges),
                               TimeMapping(graph, t.route, t.depart),
                               t.vehicle, cfg.dt)
             for t in trips]
    placed = deconflict(trips, trajs, cfg.safety_radius + 0.5, cfg.dt, cfg.horizon)
    return [_trip_track(graph, t, grid, f"car{t.vehicle}") for t in placed]


def _build_positive(template: AccidentTemplate, cfg: GenConfig,
                    rng: np.random.Generator, rec_id: str
                    ) -> tuple[ScenarioRecord, GenMeta]:
    graph = preset_graph(template.preset_map)
    env = sample_environment(cfg.env_dists, rng)

    role_routes = [shortest_path(graph, *role.od) for role in template.roles]
    node = _collision_node(graph, role_routes[0], role_routes[1])

    g_c = int(rng.integers(*template.onset_frames))
    t_c = g_c * cfg.dt
    speeds = [float(rng.uniform(*role.speed_range)) for role in template.roles]
    d_view = float(rng.uniform(12.0, 30.0))
    ego_involved = template.ego_role is not None and rng.random() < 0.5

    grid = np.arange(cfg.gen_frames) * cfg.dt
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
    bg = _background_tracks(graph, terminals, cfg, rng, grid)
    keep = [tr for tr in bg
            if all(_min_track_distance(tr, other) >= cfg.safety_radius
                   for other in participants + [ego])]

    tracks = participants + keep
    tracks += _place_pads(cfg, tracks, ego)

    crash_points = [tr.xy[g_c] for tr in participants]
    if ego_involved:
        crash_points.append(ego.xy[g_c])
    collision_xy = tuple(np.mean(crash_points, axis=0))

    record = _assemble(rec_id, True, env, cfg, tracks, ego, g_c)
    meta = GenMeta(ego_xy=ego.xy, ego_heading=ego.heading,
                   stored_offset=cfg.trim_frames, collision_xy=collision_xy,
                   collision_gen_frame=g_c, template=template,
                   role_routes=tuple(rt.edges for rt in role_routes),
                   participant_ids=tuple(t.id for t in participants))
    return record, meta


def _build_negative(graph: RoadGraph, terminals: TerminalSets, cfg: GenConfig,
                    ego_route: Route, rng: np.random.Generator, rec_id: str
                    ) -> tuple[ScenarioRecord, GenMeta]:
    env = sample_environment(cfg.env_dists, rng)
    mapping = TimeMapping(graph, ego_route, 0.0)
    if mapping.duration < cfg.horizon:
        raise GenerationError(
            f"ego route lasts {mapping.duration:.2f} s, shorter than the "
            f"{cfg.horizon:.2f} s window")
    ego_trip = TripSpec(-1, ego_route.edges[0], ego_route.edges[-1], 0.0, ego_route)
    grid = np.arange(cfg.gen_frames) * cfg.dt
    placed = _background_tracks(graph, terminals, cfg, rng, grid,
                                extra_trips=[ego_trip])
    ego = next(tr for tr in placed if tr.id == "car-1")
    ego = Track("ego", ego.xy, ego.speed, ego.heading)
    tracks = [tr for tr in placed if tr.id != "car-1"]

    movers = tracks + [ego]
    for i in range(len(movers)):
        for j in range(i + 1, len(movers)):
            if _min_track_distance(movers[i], movers[j]) < cfg.safety_radius:
                raise GenerationError(
                    f"{movers[i].id} and {movers[j].id} violate the safety "
                    "radius on the frame grid")

    tracks += _place_pads(cfg, tracks, ego)
    record = _assemble(rec_id, False, env, cfg, tracks, ego, None)
    meta = GenMeta(ego_xy=ego.xy, ego_heading=ego.heading,
                   stored_offset=cfg.trim_frames)
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


def _camera_frame_points(cam: EgoCamera, frame: list[ObjectState]) -> np.ndarray:
    pts = np.empty((len(frame), 2))
    for k, o in enumerate(frame):
        lateral = (cam.width / 2.0 - o.cx) * o.depth / cam.focal
        pts[k] = (o.depth, lateral)
    return pts


def _closest_pair(frame: list[ObjectState]) -> tuple[float, int, int]:
    best = (math.inf, -1, -1)
    for i in range(len(frame)):
        for j in range(i + 1, len(frame)):
            d = math.hypot(frame[i].x - frame[j].x, frame[i].y - frame[j].y)
            if d < best[0]:
                best = (d, i, j)
    return best


def validate_scenario(record: ScenarioRecord, cfg: GenConfig | None = None,
                      meta: GenMeta | None = None) -> ValidationReport:
    """Check every record invariant, and the four accident constraints for
    positives. With generation meta the camera checks run against the true
    ego poses; without it they fall back to what the record alone supports
    (rigid-transform consistency of the stored projections)."""
    cfg = cfg or GenConfig()
    cam = cfg.camera
    checks: list[CheckResult] = []

    def add(name: str, ok: bool, detail: str = ""):
        checks.append(CheckResult(name, bool(ok), detail))

    t = record.frames
    add("frame_count",
        t == cfg.stored_frames == len(record.objects) == len(record.scene_labels),
        f"frames={t}, objects={len(record.objects)}, labels={len(record.scene_labels)}")

    counts = [len(f) for f in record.objects]
    add("object_count",
        bool(counts) and min(counts) >= 1 and max(counts) <= cfg.max_visible,
        f"min={min(counts, default=0)}, max={max(counts, default=0)}")

    bad_behavior = {o.behavior for f in record.objects for o in f} - set(BEHAVIOR_LABELS)
    add("behavior_labels", not bad_behavior, f"unknown={sorted(bad_behavior)}")

    expect = [scene_label(record.environment, len(f)) for f in record.objects]
    add("scene_labels", list(record.scene_labels) == expect)

    depth_ok = all(o.depth > 0 for f in record.objects for o in f)
    cx_ok = all(-1e-6 <= o.cx <= cam.width + 1e-6 for f in record.objects for o in f)
    add("projection_bounds", depth_ok and cx_ok)

    # stored (cx, depth) and stored (x, y) must be the same points up to a
    # rigid transform, hence identical pairwise distances
    worst = 0.0
    for f in record.objects:
        if len(f) < 2:
            continue
        cam_pts = _camera_frame_points(cam, f)
        world = np.array([(o.x, o.y) for o in f])
        dc = np.sqrt(((cam_pts[:, None] - cam_pts[None]) ** 2).sum(-1))
        dw = np.sqrt(((world[:, None] - world[None]) ** 2).sum(-1))
        worst = max(worst, float(np.abs(dc - dw).max()))
    add("projection_rigid", worst <= 1e-5, f"max gap {worst:.2e} m")

    if meta is not None:
        worst = 0.0
        bearing_ok = True
        for j, f in enumerate(record.objects):
            g = j + meta.stored_offset
            pose, heading = meta.ego_xy[g], float(meta.ego_heading[g])
            for o in f:
                wx, wy = cam.unproject(pose, heading, o.cx, o.depth)
                worst = max(worst, math.hypot(wx - o.x, wy - o.y))
                if abs(cam.bearing(o.cx, o.depth)) > cam.half_fov + 1e-9:
                    bearing_ok = False
        add("projection_roundtrip", worst <= 1e-6, f"max gap {worst:.2e} m")
        add("projection_fov", bearing_ok)

    if record.positive:
        lam = record.accident_frame
        add("c4_accident_annotated",
            lam is not None and 0 < lam < t,
            f"accident_frame={lam}")
        if lam is not None and 0 < lam < t:
            frame = record.objects[lam - 1]
            pair_d, i, j = _closest_pair(frame)
            cam_d = min((cam.camera_distance(o.cx, o.depth) for o in frame),
                        default=math.inf)
            hit = min(pair_d, cam_d)
            add("c2_trajectories_intersect",
                hit <= cfg.collision_threshold + 1e-6,
                f"closest pair {pair_d:.3f} m, closest to camera {cam_d:.3f} m")
            if meta is not None and meta.collision_xy is not None:
                g = lam - 1 + meta.stored_offset
                proj = cam.project(meta.ego_xy[g], float(meta.ego_heading[g]),
                                   meta.collision_xy)
                bearing = math.inf if proj is None else abs(
                    cam.bearing(proj[0], proj[2]))
            elif pair_d <= cam_d and i >= 0:
                bearing = max(abs(cam.bearing(frame[i].cx, frame[i].depth)),
                              abs(cam.bearing(frame[j].cx, frame[j].depth)))
            elif frame:
                nearest = min(frame, key=lambda o: cam.camera_distance(o.cx, o.depth))
                bearing = abs(cam.bearing(nearest.cx, nearest.depth))
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
        worst_gap = math.inf
        for f in record.objects:
            d, _, _ = _closest_pair(f)
            worst_gap = min(worst_gap, d)
        add("safety_spacing", worst_gap >= cfg.safety_radius - 1e-5,
            f"min pairwise distance {worst_gap:.3f} m")

    return ValidationReport(checks)


_TEMPLATE_CYCLE = tuple(TEMPLATES)
_PRESET_CYCLE = ("straight", "intersection", "t_junction", "multilane")


def _sample_ego_route(graph: RoadGraph, terminals: TerminalSets, cfg: GenConfig,
                      rng: np.random.Generator, tries: int = 50) -> Route:
    for _ in range(tries):
        _, _, route = sample_od(graph, terminals, rng)
        if route.cost >= cfg.horizon:
            return route
    raise GenerationError(f"no ego route spanning {cfg.horizon} s in {tries} draws")


def generate_one(cfg: GenConfig, seed: int, index: int, count: int,
                 positive_ratio: float, graph: RoadGraph | None = None
                 ) -> tuple[ScenarioRecord, GenMeta]:
    """Scenario `index` of a dataset: pure in (cfg, seed, index, count,
    ratio, graph), so indices can be generated in any order or in parallel.

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
    for attempt in range(cfg.max_attempts):
        rng = stream_rng(seed, "scenario", index, attempt)
        try:
            if positive:
                template = TEMPLATES[_TEMPLATE_CYCLE[before % len(_TEMPLATE_CYCLE)]]
                record, meta = _build_positive(template, cfg, rng, rec_id)
            else:
                neg_ordinal = index - before
                g = graph if graph is not None else preset_graph(
                    _PRESET_CYCLE[neg_ordinal % len(_PRESET_CYCLE)])
                terminals = classify_terminals(g)
                ego_route = _sample_ego_route(g, terminals, cfg, rng)
                record, meta = _build_negative(g, terminals, cfg, ego_route,
                                               rng, rec_id)
        except ConstraintUnsatisfiableError:
            raise
        except (GenerationError, DeconflictError, ODSamplingError, NoRouteError) as exc:
            last = exc
            continue
        report = validate_scenario(record, cfg, meta)
        if report.ok:
            return record, meta
        last = GenerationError("validation failed: "
                               + "; ".join(c.name for c in report.failures()))
    raise GenerationError(
        f"scenario {index} failed after {cfg.max_attempts} attempts") from last


def generate_dataset(cfg: GenConfig, count: int, positive_ratio: float,
                     seed: int, graph: RoadGraph | None = None
                     ) -> list[ScenarioRecord]:
    return [generate_one(cfg, seed, i, count, positive_ratio, graph)[0]
            for i in range(count)]
