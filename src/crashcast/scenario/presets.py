"""Built-in preset maps and the parametric accident templates they host.

Each template names two colliding roles by their OD edges on a preset map,
with speed bounds; the collision point is the common interior node of the
two routes. The ego is either one of the colliding roles (rear-end onto the
ego path) or a third observer approaching the same point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ..roadnet import RoadGraph, parse_network


def _net(nodes, edges) -> str:
    """Small helper to emit the network XML for a preset."""
    lines = ["<network>"]
    for nid, x, y in nodes:
        lines.append(f'  <node id="{nid}" x="{x!r}" y="{y!r}"/>')
    for eid, u, v, speed, pts in edges:
        length = 0.0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            length += math.hypot(x1 - x0, y1 - y0)
        lines.append(f'  <edge id="{eid}" from="{u}" to="{v}" '
                     f'length="{length!r}" speed="{speed!r}">')
        for x, y in pts:
            lines.append(f'    <pt x="{x!r}" y="{y!r}"/>')
        lines.append("  </edge>")
    lines.append("</network>")
    return "\n".join(lines) + "\n"


def straight_map_xml() -> str:
    w, m, e = (-100.0, 0.0), (0.0, 0.0), (150.0, 0.0)
    return _net(
        [("w", *w), ("m", *m), ("e", *e)],
        [("wm", "w", "m", 12.0, [w, m]),
         ("me", "m", "e", 12.0, [m, e])],
    )


def intersection_map_xml() -> str:
    n, e, s, w, c = (0.0, 80.0), (80.0, 0.0), (0.0, -80.0), (-80.0, 0.0), (0.0, 0.0)
    arms = {"n": n, "e": e, "s": s, "w": w}
    edges = []
    for name, pt in arms.items():
        edges.append((f"{name}c", name, "c", 12.0, [pt, c]))
        edges.append((f"c{name}", "c", name, 12.0, [c, pt]))
    nodes = [(name, *pt) for name, pt in arms.items()] + [("c", *c)]
    return _net(nodes, edges)


def t_junction_map_xml() -> str:
    w, e, n, c = (-80.0, 0.0), (80.0, 0.0), (0.0, 60.0), (0.0, 0.0)
    return _net(
        [("w", *w), ("e", *e), ("n", *n), ("c", *c)],
        [("wc", "w", "c", 12.0, [w, c]),
         ("cw", "c", "w", 12.0, [c, w]),
         ("ec", "e", "c", 12.0, [e, c]),
         ("ce", "c", "e", 12.0, [c, e]),
         ("nc", "n", "c", 10.0, [n, c]),
         ("cn", "c", "n", 10.0, [c, n])],
    )


def multilane_map_xml() -> str:
    # two parallel same-direction lanes 3.5 m apart plus a lane-change
    # connector whose 13 degree entry angle is steep enough to register as
    # a lane-change maneuver
    a1, m1, b1 = (-90.0, 0.0), (-15.0, 0.0), (120.0, 0.0)
    a2, x2, b2 = (-90.0, 3.5), (0.0, 3.5), (120.0, 3.5)
    return _net(
        [("a1", *a1), ("m1", *m1), ("b1", *b1), ("a2", *a2), ("x2", *x2), ("b2", *b2)],
        [("l1a", "a1", "m1", 13.0, [a1, m1]),
         ("l1b", "m1", "b1", 13.0, [m1, b1]),
         ("l2a", "a2", "x2", 13.0, [a2, x2]),
         ("l2b", "x2", "b2", 13.0, [x2, b2]),
         ("chg", "m1", "x2", 9.0, [m1, x2])],
    )


_PRESET_XML = {
    "straight": straight_map_xml,
    "intersection": intersection_map_xml,
    "t_junction": t_junction_map_xml,
    "multilane": multilane_map_xml,
}


@lru_cache(maxsize=None)
def preset_graph(name: str) -> RoadGraph:
    try:
        builder = _PRESET_XML[name]
    except KeyError:
        raise KeyError(f"unknown preset map {name!r}; "
                       f"choices: {sorted(_PRESET_XML)}") from None
    return parse_network(builder())


@dataclass(frozen=True)
class RoleSpec:
    """A colliding participant: OD edges on the preset map plus speed bounds."""

    od: tuple[str, str]
    speed_range: tuple[float, float]


@dataclass(frozen=True)
class AccidentTemplate:
    preset_map: str
    roles: tuple[RoleSpec, RoleSpec]
    observer_ods: tuple[tuple[str, str], ...]  # candidate ego routes
    ego_role: int | None = None  # role index the ego may play (rear-end striker)


TEMPLATES: dict[str, AccidentTemplate] = {
    "rear_end": AccidentTemplate(
        preset_map="straight",
        roles=(RoleSpec(("wm", "me"), (2.0, 4.0)),     # slow leader
               RoleSpec(("wm", "me"), (9.0, 14.0))),   # striker
        observer_ods=(("wm", "me"),),
        ego_role=1,
    ),
    "crossing_path": AccidentTemplate(
        preset_map="intersection",
        roles=(RoleSpec(("nc", "cs"), (8.0, 14.0)),
               RoleSpec(("wc", "ce"), (8.0, 14.0))),
        observer_ods=(("sc", "cn"), ("ec", "cw")),
    ),
    "turning_conflict": AccidentTemplate(
        preset_map="t_junction",
        roles=(RoleSpec(("wc", "cn"), (6.0, 10.0)),    # left turner
               RoleSpec(("ec", "cw"), (8.0, 13.0))),   # oncoming straight
        observer_ods=(("wc", "cn"), ("ec", "cw")),
    ),
    "lane_change": AccidentTemplate(
        preset_map="multilane",
        roles=(RoleSpec(("l1a", "l2b"), (8.0, 12.0)),  # lane changer
               RoleSpec(("l2a", "l2b"), (9.0, 14.0))),
        observer_ods=(("l2a", "l2b"),),
    ),
}
