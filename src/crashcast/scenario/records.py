"""Scenario data model: camera projection, behavior rules, JSON-lines IO."""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

BEHAVIOR_LABELS = ("straight", "left-turn", "right-turn", "accelerating", "braking",
                   "stopped", "lane-change")

BEHAVIOR_WINDOW = 5  # frames in the trailing labeling window
MAX_VISIBLE = 19  # objects stored per frame, nearest first
_TURN_THRESHOLD = math.radians(10.0)
_ACCEL_THRESHOLD = 1.0  # m/s^2
_STOP_SPEED = 0.05  # m/s


@dataclass(frozen=True)
class EnvironmentProfile:
    weather: str
    lighting: str
    road_type: str


# the columns of ScenarioRecord.states
STATE_COLUMNS = ("x", "y", "speed", "heading", "cx", "cy", "depth")
_BEHAVIOR_CODES = {label: k for k, label in enumerate(BEHAVIOR_LABELS)}


@dataclass(eq=False)
class ScenarioRecord:
    """One video. Its visible objects are stored as columns with one row per
    object per frame, frame-major: frame t holds the rows
    frame_starts[t]:frame_starts[t + 1], in the stored order (nearest first)."""

    id: str
    positive: bool
    fps: int
    frames: int
    accident_frame: int | None  # 1-based stored-frame index; None for negatives
    environment: EnvironmentProfile
    scene_labels: list[str]
    states: np.ndarray  # (n, 7) float64, columns as in STATE_COLUMNS
    frame_starts: np.ndarray  # (frames + 1,) int64 row offsets
    ids: tuple[str, ...]  # distinct object ids, in order of first appearance
    id_of: np.ndarray  # (n,) int64 index into ids
    behavior: np.ndarray  # (n,) int64 index into BEHAVIOR_LABELS

    @property
    def frame_of(self) -> np.ndarray:
        """(n,) the 0-based frame of each row."""
        return np.repeat(np.arange(len(self.frame_starts) - 1),
                         np.diff(self.frame_starts))


def object_columns(frames) -> dict:
    """The object columns of ScenarioRecord (states, frame_starts, ids, id_of,
    behavior) from nested rows: one list per frame, one
    (id, x, y, speed, heading, cx, cy, depth, behavior) row per object.
    A behavior outside BEHAVIOR_LABELS raises ValueError."""
    ids, *numbers, labels = _transpose(list(chain.from_iterable(frames)))
    return _columns(ids, numbers, labels, map(len, frames))


def _transpose(rows) -> list[tuple]:
    """The 9 columns of (id, x, y, speed, heading, cx, cy, depth, behavior)
    rows."""
    return list(zip(*rows)) if rows else [()] * 9


def _columns(ids, numbers, labels, counts) -> dict:
    """object_columns from the id, number and behavior columns of the rows
    and the number of rows of each frame."""
    index: dict[str, int] = {}
    id_of = [index.setdefault(i, len(index)) for i in ids]
    codes = list(map(_BEHAVIOR_CODES.get, labels))
    if None in codes:
        unknown = set(labels).difference(BEHAVIOR_LABELS)
        raise ValueError(f"unknown behavior {min(unknown)!r}")
    return {
        "states": np.array(numbers, dtype=np.float64).T,
        "frame_starts": np.cumsum([0, *counts], dtype=np.int64),
        "ids": tuple(index),
        "id_of": np.array(id_of, dtype=np.int64),
        "behavior": np.array(codes, dtype=np.int64),
    }


class EgoCamera:
    """Planar pinhole camera at the ego pose, looking along the heading.

    The focal length is chosen so the horizontal image edges coincide with
    the half-FOV rays: a point is visible exactly when it is in front of the
    camera and its bearing magnitude does not exceed half_fov.
    """

    width = 1280.0
    height = 720.0
    half_fov = math.pi / 6
    mount_height = 1.5
    focal = (width / 2.0) / math.tan(half_fov)

    def project(self, ego_xy, ego_heading, point_xy):
        """(cx, cy, depth, visible) of world points; elementwise over arrays
        (ego_xy and point_xy as their x and y arrays).

        depth is the forward distance along the ego heading. A point is not
        visible when it is behind the camera, outside the half-FOV cone or
        NaN; cx and cy mean nothing there.
        """
        dx = point_xy[0] - ego_xy[0]
        dy = point_xy[1] - ego_xy[1]
        cos_h = np.cos(ego_heading)
        sin_h = np.sin(ego_heading)
        forward = cos_h * dx + sin_h * dy
        lateral = -sin_h * dx + cos_h * dy  # left of heading is positive
        visible = (forward > 0.0) & (np.abs(np.arctan2(lateral, forward))
                                     <= self.half_fov)
        with np.errstate(divide="ignore", invalid="ignore"):
            cx = self.width / 2.0 - self.focal * lateral / forward
            cy = self.height / 2.0 + self.focal * self.mount_height / forward
        return cx, cy, forward, visible

    def lateral(self, cx, depth):
        """Offset left of the heading, meters, of a stored projection;
        elementwise over arrays."""
        return (self.width / 2.0 - cx) * depth / self.focal

    def unproject(self, ego_xy, ego_heading, cx, depth):
        """Invert project() back to the world plane; elementwise over arrays
        (ego_xy as its x and y arrays)."""
        lateral = self.lateral(cx, depth)
        cos_h = np.cos(ego_heading)
        sin_h = np.sin(ego_heading)
        return (ego_xy[0] + cos_h * depth - sin_h * lateral,
                ego_xy[1] + sin_h * depth + cos_h * lateral)

    def bearing(self, cx, depth):
        """Bearing (radians) recovered from a stored projection."""
        return np.arctan2(self.lateral(cx, depth), depth)

    def camera_distance(self, cx, depth):
        """Euclidean planar distance from the camera to a stored projection."""
        return np.hypot(self.lateral(cx, depth), depth)


def behavior_codes(speed, heading, present, dt: float, rows) -> np.ndarray:
    """(n,) BEHAVIOR_LABELS codes of the samples at rows, a tuple of n-long
    index arrays into (..., G) tracks sampled every dt seconds, the last of
    them the frame g. Each is labelled from the present samples among the
    trailing BEHAVIOR_WINDOW frames up to its g. Precedence: fewer than 2
    samples, stopped, left/right turn (net heading change), lane-change (a
    heading excursion that nets out), accelerating/braking (first to last
    sample), straight."""
    *lead, g = (np.asarray(i)[:, None] for i in rows)
    # (n, W) window frames g - W + 1 .. g; those before frame 0 are absent
    frame = g + np.arange(1 - BEHAVIOR_WINDOW, 1)
    at_window = (*lead, np.maximum(frame, 0))
    held = present[at_window] & (frame >= 0)
    # absent samples read 0: no speed above the stop speed, no excursion
    v, h = (np.where(held, a[at_window], 0.0) for a in (speed, heading))
    first = held.argmax(-1)
    last = BEHAVIOR_WINDOW - 1 - held[..., ::-1].argmax(-1)

    def at(a, n):  # a[i, n[i]]
        return a[np.arange(len(a)), n]

    turn = h - at(h, first)[..., None]
    turn = np.arctan2(np.sin(turn), np.cos(turn))  # wrapped to (-pi, pi]
    net = at(turn, last)
    start = frame[:, 0]  # window's frame 0
    span = (start + last) * dt - (start + first) * dt
    with np.errstate(divide="ignore", invalid="ignore"):
        accel = (at(v, last) - at(v, first)) / span
    code = _BEHAVIOR_CODES
    rules = [(held.sum(-1) < 2, "straight"), (v.max(-1) <= _STOP_SPEED, "stopped"),
             (net >= _TURN_THRESHOLD, "left-turn"),
             (net <= -_TURN_THRESHOLD, "right-turn"),
             (np.where(held, np.abs(turn), 0.0).max(-1) >= _TURN_THRESHOLD,
              "lane-change"),
             (accel >= _ACCEL_THRESHOLD, "accelerating"),
             (accel <= -_ACCEL_THRESHOLD, "braking")]
    out = code["straight"]
    for cond, label in reversed(rules):  # the first rule that holds wins
        out = np.where(cond, code[label], out)
    return out


def scene_label(env: EnvironmentProfile, visible_count: int) -> str:
    if visible_count <= 2:
        density = "sparse"
    elif visible_count <= 6:
        density = "moderate"
    else:
        density = "busy"
    return f"{env.weather}|{env.lighting}|{env.road_type}|{density}"


def round7(x: np.ndarray) -> np.ndarray:
    """round(v, 7) of every element v, bit for bit, as a new float64 array.

    rint(x * 1e7) is the integer that round() gives wherever the computed
    product's fraction is further than one ulp from 1/2: the exact product
    lies within half an ulp of it, so both round to the same integer, and one
    correctly rounded division by 1e7 gives the float nearest that decimal,
    which is what round() parses back. The rest (ties and near ties, every
    |x * 1e7| >= 2**51 where the ulp reaches 1/2, NaN and inf) go through
    round() itself."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = x * 1e7
        out = np.rint(scaled) / 1e7
        mag = np.abs(scaled)
        safe = np.abs(mag - np.floor(mag) - 0.5) > np.spacing(mag)
    for i in np.flatnonzero(~safe).tolist():
        out.flat[i] = round(float(x.flat[i]), 7)
    return out


# one object row as json.dumps writes it: the id and behavior go in as JSON
# strings, the numbers as their shortest repr
_OBJECT_TEMPLATE = ('{"id":%s,"x":%r,"y":%r,"speed":%r,"heading":%r,"cx":%r,'
                    '"cy":%r,"depth":%r,"behavior":%s}')
_BEHAVIOR_JSON = tuple(map(json.dumps, BEHAVIOR_LABELS))


def record_to_json(record: ScenarioRecord) -> str:
    """One JSON line per record, the bytes json.dumps writes with compact
    separators; key order and float rounding are fixed so identical records
    serialize to identical bytes. Every object number is written as
    round(x, 7), in its shortest repr. A non-finite number raises ValueError
    naming the record, the object and the column, and so does a structure
    that record_from_json refuses (see _check_record), naming the record, so
    no written line fails its reader."""
    finite = np.isfinite(record.states)
    if not finite.all():
        row, col = np.argwhere(~finite)[0].tolist()
        raise ValueError(
            f"record {record.id!r}: object {record.ids[record.id_of[row]]!r} "
            f"has {STATE_COLUMNS[col]} {record.states[row, col]}, not a "
            f"finite number")
    try:
        _check_record(record)
    except ValueError as exc:
        raise ValueError(f"record {record.id!r}: {exc}") from None
    ids = list(map(json.dumps, record.ids))
    rows = list(map(_OBJECT_TEMPLATE.__mod__, zip(
        map(ids.__getitem__, record.id_of.tolist()),
        *round7(record.states).T.tolist(),
        map(_BEHAVIOR_JSON.__getitem__, record.behavior.tolist()))))
    starts = record.frame_starts.tolist()
    objects = ",".join("[" + ",".join(rows[a:b]) + "]"
                       for a, b in zip(starts, starts[1:]))
    head = json.dumps({
        "id": record.id,
        "positive": record.positive,
        "fps": record.fps,
        "frames": record.frames,
        "accident_frame": record.accident_frame,
        "environment": vars(record.environment),  # weather, lighting, road_type
    }, separators=(",", ":"))
    labels = json.dumps(list(record.scene_labels), separators=(",", ":"))
    return f'{head[:-1]},"objects":[{objects}],"scene_labels":{labels}}}'


_OBJECT_KEYS = ("id", *STATE_COLUMNS, "behavior")
_object_row = operator.itemgetter(*_OBJECT_KEYS)
# the exact JSON type of each record field, so a bool is no int
_FIELD_TYPES = {"id": str, "positive": bool, "fps": int, "frames": int,
                "scene_labels": list}


def _check_record(rec: ScenarioRecord) -> None:
    """The frame, fps and accident-frame rules that every reader relies on
    and the writer keeps; the full constraint validation runs once, at
    generation time."""
    if not rec.frames == len(rec.frame_starts) - 1 == len(rec.scene_labels):
        raise ValueError(
            f"frames is {rec.frames} but there are {len(rec.frame_starts) - 1} "
            f"object lists and {len(rec.scene_labels)} scene labels")
    if rec.frames < 1:
        raise ValueError(f"frames must be >= 1, got {rec.frames}")
    if rec.fps < 1:
        raise ValueError(f"fps must be >= 1, got {rec.fps}")
    lam = rec.accident_frame
    if rec.positive and not (type(lam) is int and 0 < lam < rec.frames):
        raise ValueError(f"a positive needs 0 < accident_frame < {rec.frames}, "
                         f"got {lam!r}")
    if not rec.positive and lam is not None:
        raise ValueError(f"a negative needs accident_frame null, got {lam!r}")


def record_from_json(line: str) -> ScenarioRecord:
    """One record from its JSON line. A missing key raises KeyError. A field
    of another type than _FIELD_TYPES gives; an environment value, scene
    label or object id that is not a string; an object with a key other
    than id, x, y, speed, heading, cx, cy, depth and behavior; a number that
    is not an int or float; an unknown behavior; or a non-finite number
    raises ValueError, as does a record whose structure does not hold (see
    _check_record)."""
    raw = json.loads(line)
    for key, kind in _FIELD_TYPES.items():
        if type(raw[key]) is not kind:
            raise ValueError(f"{key} must be {kind.__name__}, "
                             f"got {type(raw[key]).__name__}")
    env = EnvironmentProfile(**raw["environment"])
    objects = raw["objects"]
    # one pass picks every object's values; its columns serve the checks
    flat = list(chain.from_iterable(objects))
    ids, *numbers, labels = _transpose(list(map(_object_row, flat)))
    if set(map(len, flat)) - {len(_OBJECT_KEYS)}:
        raise ValueError(f"object keys must be exactly {', '.join(_OBJECT_KEYS)}")
    texts = chain(vars(env).values(), raw["scene_labels"], ids)
    if set(map(type, texts)) - {str}:
        raise ValueError("environment values, scene labels and object ids "
                         "must be strings")
    types = set(map(type, chain.from_iterable(numbers)))
    if not types <= {int, float}:
        raise ValueError(f"object {', '.join(STATE_COLUMNS)} must be int or float, "
                         f"got {min(t.__name__ for t in types - {int, float})}")
    rec = ScenarioRecord(raw["id"], raw["positive"], raw["fps"], raw["frames"],
                         raw["accident_frame"], env, raw["scene_labels"],
                         **_columns(ids, numbers, labels, map(len, objects)))
    _check_record(rec)
    finite = np.isfinite(rec.states).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(
            f"object {rec.ids[rec.id_of[bad]]!r}: {', '.join(STATE_COLUMNS)} "
            f"must be finite numbers, got {tuple(rec.states[bad].tolist())}")
    return rec


def iter_dataset(path: str):
    """Yield the records of a JSON-lines file in order, blank lines skipped,
    reading one line at a time. A line that is not a record, or whose
    frames or fps differ from the first record's, raises ValueError naming
    the path and the 1-based line when the reader reaches it, after the
    records before it were yielded."""
    first = None  # the first record's (frames, fps)
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            try:
                rec = record_from_json(raw.decode("utf-8"))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: record lacks the {exc} key") from None
            except (TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: bad record: {exc}") from None
            if first is None:
                first = (rec.frames, rec.fps)
            elif (rec.frames, rec.fps) != first:
                raise ValueError(
                    f"{path}:{lineno}: frames {rec.frames} and fps {rec.fps} differ "
                    f"from the first record's {first[0]} and {first[1]}")
            yield rec


def read_dataset(path: str) -> list[ScenarioRecord]:
    """All records of a JSON-lines file, checked as iter_dataset checks them."""
    return list(iter_dataset(path))
