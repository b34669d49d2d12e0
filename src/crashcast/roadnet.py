"""Directed road networks: XML parsing, validation, and edge-based routing.

A network is a directed graph whose edges carry a centerline polyline, a
length in meters, and a free-flow speed in m/s. Routing operates on edges
rather than nodes (a route is a sequence of edge ids), with travel time
length / speed as the edge cost.
"""

from __future__ import annotations

import heapq
import math
import xml.parsers.expat
from dataclasses import dataclass, field

_ARC_REL_TOL = 1e-6


class NetworkError(Exception):
    """Base class for road-network failures."""


class NetworkParseError(NetworkError):
    """Malformed document or invalid element; message carries id and line."""


class NoRouteError(NetworkError):
    """No edge sequence connects the requested pair."""


class EmptyTerminalsError(NetworkError):
    """The network has no routable non-internal edges."""


@dataclass(frozen=True)
class RoadNode:
    id: str
    x: float
    y: float


@dataclass(frozen=True)
class RoadEdge:
    id: str
    source: str
    target: str
    length: float
    speed: float
    shape: tuple[tuple[float, float], ...]
    internal: bool = False

    @property
    def travel_time(self) -> float:
        return self.length / self.speed


@dataclass(frozen=True)
class Route:
    """Edge-id sequence including both endpoint edges."""

    edges: tuple[str, ...]
    cost: float  # total travel time, seconds


@dataclass(frozen=True)
class TerminalSets:
    sources: tuple[str, ...]
    destinations: tuple[str, ...]


@dataclass
class RoadGraph:
    nodes: dict[str, RoadNode] = field(default_factory=dict)
    edges: dict[str, RoadEdge] = field(default_factory=dict)
    # outgoing edge ids per node id, sorted for deterministic expansion
    _out: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False,
                                             compare=False)

    def add_node(self, node: RoadNode) -> None:
        self.nodes[node.id] = node

    def add_edge(self, edge: RoadEdge) -> None:
        self.edges[edge.id] = edge
        self._out = {}

    def outgoing(self, node_id: str) -> tuple[str, ...]:
        if not self._out:
            table: dict[str, list[str]] = {}
            for e in self.edges.values():
                table.setdefault(e.source, []).append(e.id)
            self._out = {n: tuple(sorted(ids)) for n, ids in table.items()}
        return self._out.get(node_id, ())

    def continuations(self, edge_id: str) -> tuple[str, ...]:
        return self.outgoing(self.edges[edge_id].target)


def _polyline_length(points) -> float:
    total = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        total += math.hypot(x1 - x0, y1 - y0)
    return total


def parse_network(text: str) -> RoadGraph:
    """Parse and validate the XML network format.

    Raises NetworkParseError for malformed documents, dangling node
    references, nonpositive length/speed, or centerlines whose arc length
    disagrees with the declared length, reporting element id and line.
    """
    graph = RoadGraph()
    # element accumulation state for the edge currently being parsed
    state: dict = {"edge": None, "root_seen": False}

    parser = xml.parsers.expat.ParserCreate()

    def fail(msg: str) -> None:
        raise NetworkParseError(f"{msg} (line {parser.CurrentLineNumber})")

    def start(tag, attrs):
        line = parser.CurrentLineNumber
        if tag == "network":
            state["root_seen"] = True
            return
        if not state["root_seen"]:
            fail(f"unexpected element <{tag}> outside <network>")
        if tag == "node":
            try:
                node = RoadNode(attrs["id"], float(attrs["x"]), float(attrs["y"]))
            except (KeyError, ValueError) as exc:
                fail(f"bad <node> attributes {dict(attrs)}: {exc}")
            if node.id in graph.nodes:
                fail(f"duplicate node id {node.id!r}")
            graph.add_node(node)
        elif tag == "edge":
            if state["edge"] is not None:
                fail("nested <edge> elements")
            try:
                state["edge"] = {
                    "id": attrs["id"],
                    "from": attrs["from"],
                    "to": attrs["to"],
                    "length": float(attrs["length"]),
                    "speed": float(attrs["speed"]),
                    "internal": attrs.get("internal", "false") == "true",
                    "pts": [],
                    "line": line,
                }
            except (KeyError, ValueError) as exc:
                fail(f"bad <edge> attributes {dict(attrs)}: {exc}")
        elif tag == "pt":
            if state["edge"] is None:
                fail("<pt> outside <edge>")
            try:
                state["edge"]["pts"].append((float(attrs["x"]), float(attrs["y"])))
            except (KeyError, ValueError) as exc:
                fail(f"bad <pt> attributes {dict(attrs)}: {exc}")
        else:
            fail(f"unknown element <{tag}>")

    def end(tag):
        if tag != "edge":
            return
        spec = state.pop("edge")
        state["edge"] = None
        eid, line = spec["id"], spec["line"]
        if eid in graph.edges:
            raise NetworkParseError(f"duplicate edge id {eid!r} (line {line})")
        for ref in (spec["from"], spec["to"]):
            if ref not in graph.nodes:
                raise NetworkParseError(
                    f"edge {eid!r} references unknown node {ref!r} (line {line})")
        if spec["from"] == spec["to"]:
            raise NetworkParseError(f"edge {eid!r} is a self-loop (line {line})")
        if spec["length"] <= 0:
            raise NetworkParseError(
                f"edge {eid!r} has nonpositive length {spec['length']} (line {line})")
        if spec["speed"] <= 0:
            raise NetworkParseError(
                f"edge {eid!r} has nonpositive speed {spec['speed']} (line {line})")
        pts = spec["pts"]
        if not pts:
            # default centerline: straight segment between endpoint nodes
            a, b = graph.nodes[spec["from"]], graph.nodes[spec["to"]]
            pts = [(a.x, a.y), (b.x, b.y)]
        if len(pts) < 2:
            raise NetworkParseError(
                f"edge {eid!r} centerline needs at least 2 points (line {line})")
        arc = _polyline_length(pts)
        if abs(arc - spec["length"]) > _ARC_REL_TOL * spec["length"]:
            raise NetworkParseError(
                f"edge {eid!r} centerline arc {arc:.9g} does not match "
                f"declared length {spec['length']:.9g} (line {line})")
        graph.add_edge(RoadEdge(eid, spec["from"], spec["to"], spec["length"],
                                spec["speed"], tuple(pts), spec["internal"]))

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        raise NetworkParseError(f"malformed XML: {exc}") from exc
    if not state["root_seen"]:
        raise NetworkParseError("document has no <network> root")
    return graph


def classify_terminals(graph: RoadGraph) -> TerminalSets:
    """Routable trip endpoints: every non-internal edge (single-edge routes
    are legal, so any such edge can begin or end a trip)."""
    routable = tuple(sorted(e.id for e in graph.edges.values() if not e.internal))
    if not routable:
        raise EmptyTerminalsError("network has no non-internal edges")
    return TerminalSets(sources=routable, destinations=routable)


def shortest_path(graph: RoadGraph, source_edge: str, target_edge: str) -> Route:
    """Min travel-time edge sequence from source_edge to target_edge.

    Dijkstra over the line graph: states are edges and the cost of a route
    includes the travel time of both endpoint edges. Ties are broken by the
    lexicographically smallest edge-id sequence, which makes the result
    deterministic and independent of insertion order.
    """
    for eid in (source_edge, target_edge):
        if eid not in graph.edges:
            raise NoRouteError(f"unknown edge {eid!r}")

    start_cost = graph.edges[source_edge].travel_time
    if source_edge == target_edge:
        return Route((source_edge,), start_cost)

    # priority = (cost, edge-id sequence): the first settle of a state is
    # both cheapest and lexicographically smallest among equal-cost paths.
    heap: list[tuple[float, tuple[str, ...]]] = [(start_cost, (source_edge,))]
    settled: set[str] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        last = path[-1]
        if last in settled:
            continue
        settled.add(last)
        if last == target_edge:
            return Route(path, cost)
        for nxt in graph.continuations(last):
            if nxt not in settled:
                heapq.heappush(heap, (cost + graph.edges[nxt].travel_time, path + (nxt,)))
    raise NoRouteError(f"no route from edge {source_edge!r} to {target_edge!r}")
