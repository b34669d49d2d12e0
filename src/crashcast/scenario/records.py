"""Scenario data model: camera projection, behavior rules, JSON-lines IO."""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import chain

BEHAVIOR_LABELS = (
    "straight",
    "left-turn",
    "right-turn",
    "accelerating",
    "braking",
    "stopped",
    "lane-change",
)

_TURN_THRESHOLD = math.radians(10.0)
_ACCEL_THRESHOLD = 1.0  # m/s^2
_STOP_SPEED = 0.05  # m/s


@dataclass(frozen=True)
class EnvironmentProfile:
    weather: str
    lighting: str
    road_type: str


@dataclass(frozen=True)
class ObjectState:
    """One visible object in one frame: world state plus camera projection."""

    id: str
    x: float
    y: float
    speed: float
    heading: float
    cx: float
    cy: float
    depth: float
    behavior: str


@dataclass
class ScenarioRecord:
    id: str
    positive: bool
    fps: int
    frames: int
    accident_frame: int | None  # 1-based stored-frame index; None for negatives
    environment: EnvironmentProfile
    objects: list[list[ObjectState]]  # one list per stored frame
    scene_labels: list[str]


@dataclass(frozen=True)
class EgoCamera:
    """Planar pinhole camera at the ego pose, looking along the heading.

    The focal length is chosen so the horizontal image edges coincide with
    the half-FOV rays: a point is visible exactly when it is in front of the
    camera and its bearing magnitude does not exceed half_fov.
    """

    width: float = 1280.0
    height: float = 720.0
    half_fov: float = math.pi / 6
    mount_height: float = 1.5

    @property
    def focal(self) -> float:
        return (self.width / 2.0) / math.tan(self.half_fov)

    def project(self, ego_xy, ego_heading: float, point_xy):
        """(cx, cy, depth) for a visible point, else None.

        depth is the forward distance along the ego heading; not-visible
        means the point is behind the camera or outside the half-FOV cone.
        """
        dx = point_xy[0] - ego_xy[0]
        dy = point_xy[1] - ego_xy[1]
        cos_h = math.cos(ego_heading)
        sin_h = math.sin(ego_heading)
        forward = cos_h * dx + sin_h * dy
        lateral = -sin_h * dx + cos_h * dy  # left of heading is positive
        if forward <= 0.0:
            return None
        if abs(math.atan2(lateral, forward)) > self.half_fov:
            return None
        cx = self.width / 2.0 - self.focal * lateral / forward
        cy = self.height / 2.0 + self.focal * self.mount_height / forward
        return cx, cy, forward

    def unproject(self, ego_xy, ego_heading: float, cx: float, depth: float):
        """Invert project() back to the world plane."""
        lateral = (self.width / 2.0 - cx) * depth / self.focal
        cos_h = math.cos(ego_heading)
        sin_h = math.sin(ego_heading)
        return (ego_xy[0] + cos_h * depth - sin_h * lateral,
                ego_xy[1] + sin_h * depth + cos_h * lateral)

    def bearing(self, cx: float, depth: float) -> float:
        """Bearing (radians) recovered from a stored projection."""
        lateral = (self.width / 2.0 - cx) * depth / self.focal
        return math.atan2(lateral, depth)

    def camera_distance(self, cx: float, depth: float) -> float:
        """Euclidean planar distance from the camera to a stored projection."""
        lateral = (self.width / 2.0 - cx) * depth / self.focal
        return math.hypot(lateral, depth)


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    return math.atan2(math.sin(a), math.cos(a))


def behavior_label(window) -> str:
    """Rule-based maneuver label from a short trajectory window.

    window: sequence of (t, x, y, speed, heading) with at least 2 samples.
    Precedence: stopped, then turns (net heading change beyond 10 degrees),
    then lane-change (transient heading excursion that nets out), then
    speed changes beyond 1 m/s^2, else straight.
    """
    if len(window) < 2:
        raise ValueError("behavior window needs at least 2 samples")
    t0, _, _, v0, h0 = window[0]
    t1, _, _, v1, h1 = window[-1]
    speeds = [w[3] for w in window]
    if max(speeds) <= _STOP_SPEED:
        return "stopped"
    net_turn = wrap_angle(h1 - h0)
    if net_turn >= _TURN_THRESHOLD:
        return "left-turn"
    if net_turn <= -_TURN_THRESHOLD:
        return "right-turn"
    peak = max(abs(wrap_angle(w[4] - h0)) for w in window)
    if peak >= _TURN_THRESHOLD:
        return "lane-change"
    span = t1 - t0
    if span > 0:
        accel = (v1 - v0) / span
        if accel >= _ACCEL_THRESHOLD:
            return "accelerating"
        if accel <= -_ACCEL_THRESHOLD:
            return "braking"
    return "straight"


def scene_label(env: EnvironmentProfile, visible_count: int) -> str:
    if visible_count <= 2:
        density = "sparse"
    elif visible_count <= 6:
        density = "moderate"
    else:
        density = "busy"
    return f"{env.weather}|{env.lighting}|{env.road_type}|{density}"


def _round7(x: float) -> float:
    return round(float(x), 7)


def record_to_json(record: ScenarioRecord) -> str:
    """One JSON line per record; key order and float rounding are fixed so
    identical records serialize to identical bytes."""
    payload = {
        "id": record.id,
        "positive": record.positive,
        "fps": record.fps,
        "frames": record.frames,
        "accident_frame": record.accident_frame,
        "environment": {
            "weather": record.environment.weather,
            "lighting": record.environment.lighting,
            "road_type": record.environment.road_type,
        },
        "objects": [
            [
                {
                    "id": o.id,
                    "x": _round7(o.x),
                    "y": _round7(o.y),
                    "speed": _round7(o.speed),
                    "heading": _round7(o.heading),
                    "cx": _round7(o.cx),
                    "cy": _round7(o.cy),
                    "depth": _round7(o.depth),
                    "behavior": o.behavior,
                }
                for o in frame
            ]
            for frame in record.objects
        ],
        "scene_labels": list(record.scene_labels),
    }
    return json.dumps(payload, separators=(",", ":"))


_object_numbers = operator.attrgetter("x", "y", "speed", "heading", "cx", "cy", "depth")


def _finite_numbers(values) -> bool:
    return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))


def _check_record(rec: ScenarioRecord) -> None:
    """Structural checks that every reader relies on; the full constraint
    validation runs once, at generation time."""
    if not rec.frames == len(rec.objects) == len(rec.scene_labels):
        raise ValueError(
            f"frames is {rec.frames} but there are {len(rec.objects)} object "
            f"lists and {len(rec.scene_labels)} scene labels")
    if rec.fps < 1:
        raise ValueError(f"fps must be >= 1, got {rec.fps}")
    lam = rec.accident_frame
    if rec.positive and not (type(lam) is int and 0 < lam < rec.frames):
        raise ValueError(f"a positive needs 0 < accident_frame < {rec.frames}, "
                         f"got {lam!r}")
    if not rec.positive and lam is not None:
        raise ValueError(f"a negative needs accident_frame null, got {lam!r}")
    states = [o for frame in rec.objects for o in frame]
    unknown = {o.behavior for o in states}.difference(BEHAVIOR_LABELS)
    if unknown:
        raise ValueError(f"unknown behavior {min(unknown)!r}")
    # one pass over all values; the per-object pass only names the culprit
    if not _finite_numbers(list(chain.from_iterable(map(_object_numbers, states)))):
        bad = next(o for o in states if not _finite_numbers(_object_numbers(o)))
        raise ValueError(f"object {bad.id!r}: x, y, speed, heading, cx, cy, "
                         f"depth must be finite numbers, got {_object_numbers(bad)}")


def record_from_json(line: str) -> ScenarioRecord:
    """One record from its JSON line; a record whose structure does not
    hold (see _check_record) raises ValueError."""
    raw = json.loads(line)
    env = EnvironmentProfile(**raw["environment"])
    objects = [[ObjectState(**obj) for obj in frame] for frame in raw["objects"]]
    rec = ScenarioRecord(
        id=raw["id"],
        positive=bool(raw["positive"]),
        fps=int(raw["fps"]),
        frames=int(raw["frames"]),
        accident_frame=raw["accident_frame"],
        environment=env,
        objects=objects,
        scene_labels=list(raw["scene_labels"]),
    )
    _check_record(rec)
    return rec


def read_dataset(path: str) -> list[ScenarioRecord]:
    """Records of a JSON-lines file, blank lines skipped. A line that is not
    a record, or whose frames or fps differ from the first record's, raises
    ValueError naming the path and the 1-based line."""
    records = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            try:
                rec = record_from_json(raw.decode("utf-8"))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: record lacks the {exc} key") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad record: {exc}") from None
            if records and (rec.frames, rec.fps) != (records[0].frames, records[0].fps):
                raise ValueError(
                    f"{path}:{lineno}: frames {rec.frames} and fps {rec.fps} differ "
                    f"from the first record's {records[0].frames} and {records[0].fps}")
            records.append(rec)
    return records
