import re

import numpy as np
import pytest

from crashcast.roadnet import (
    EmptyTerminalsError,
    NetworkParseError,
    NoRouteError,
    RoadEdge,
    RoadGraph,
    RoadNode,
    classify_terminals,
    parse_network,
    shortest_path,
)

SIMPLE_NET = """
<network>
  <node id="a" x="0" y="0"/>
  <node id="b" x="100" y="0"/>
  <node id="c" x="100" y="50"/>
  <edge id="ab" from="a" to="b" length="100" speed="10">
    <pt x="0" y="0"/>
    <pt x="100" y="0"/>
  </edge>
  <edge id="bc" from="b" to="c" length="50" speed="5" internal="true">
    <pt x="100" y="0"/>
    <pt x="100" y="50"/>
  </edge>
</network>
"""


def build_graph(nodes, edges):
    g = RoadGraph()
    for nid, x, y in nodes:
        g.add_node(RoadNode(nid, x, y))
    for eid, u, v, length, speed in edges:
        a = g.nodes[u]
        b = g.nodes[v]
        g.add_edge(RoadEdge(eid, u, v, length, speed, ((a.x, a.y), (b.x, b.y))))
    return g


def test_parse_basic_network():
    g = parse_network(SIMPLE_NET)
    assert set(g.nodes) == {"a", "b", "c"}
    assert g.edges["ab"].travel_time == pytest.approx(10.0)
    assert g.edges["ab"].internal is False  # missing attribute defaults false
    assert g.edges["bc"].internal is True


def test_parse_errors_report_id_and_line():
    bad_ref = SIMPLE_NET.replace('from="b" to="c"', 'from="b" to="zz"')
    with pytest.raises(NetworkParseError, match=r"bc.*zz.*line \d+"):
        parse_network(bad_ref)

    neg_len = SIMPLE_NET.replace('length="50"', 'length="-50"')
    with pytest.raises(NetworkParseError, match=r"bc.*nonpositive length"):
        parse_network(neg_len)

    zero_speed = SIMPLE_NET.replace('speed="5"', 'speed="0"')
    with pytest.raises(NetworkParseError, match=r"bc.*nonpositive speed"):
        parse_network(zero_speed)

    with pytest.raises(NetworkParseError, match="malformed"):
        parse_network("<network><node id='x'")

    arc_mismatch = SIMPLE_NET.replace('<pt x="100" y="50"/>', '<pt x="100" y="70"/>')
    with pytest.raises(NetworkParseError, match=r"bc.*arc"):
        parse_network(arc_mismatch)


@pytest.mark.parametrize("old,new,message", [
    ('length="50"', 'length="inf"', "'bc' has non-finite length inf"),
    ('length="50"', 'length="1e400"', "'bc' has non-finite length inf"),
    ('length="50"', 'length="-inf"', "'bc' has non-finite length -inf"),
    ('length="50"', 'length="nan"', "'bc' has non-finite length nan"),
    ('speed="5"', 'speed="nan"', "'bc' has non-finite speed nan"),
    ('speed="5"', 'speed="1e-320"', "'bc' has non-finite travel time"),
    ('id="a" x="0"', 'id="a" x="nan"', "node 'a' has a non-finite coordinate"),
    ('<pt x="100" y="50"/>', '<pt x="100" y="-inf"/>',
     "edge 'bc' has a non-finite <pt>"),
])
def test_non_finite_values_report_id_and_line(old, new, message):
    # each of these passes the sign and arc checks, and an infinite travel
    # time used to end generation in an OverflowError
    assert old in SIMPLE_NET
    with pytest.raises(NetworkParseError) as info:
        parse_network(SIMPLE_NET.replace(old, new))
    assert message in str(info.value)
    assert re.search(r"\(line \d+\)$", str(info.value)), str(info.value)


def test_terminals_exclude_internal_edges():
    g = parse_network(SIMPLE_NET)
    assert classify_terminals(g) == ("ab",)

    only_internal = RoadGraph()
    only_internal.add_node(RoadNode("a", 0, 0))
    only_internal.add_node(RoadNode("b", 1, 0))
    only_internal.add_edge(RoadEdge("x", "a", "b", 1.0, 1.0,
                                    ((0.0, 0.0), (1.0, 0.0)), internal=True))
    with pytest.raises(EmptyTerminalsError):
        classify_terminals(only_internal)


def test_shortest_path_prefers_cheaper_two_edge_route():
    # unit speeds: a->b->c costs 1 + 1 = 2, direct a->c costs 2.5
    g = build_graph(
        [("a", 0, 0), ("b", 1, 0), ("c", 2, 0)],
        [("e1", "a", "b", 1.0, 1.0),
         ("e2", "b", "c", 1.0, 1.0),
         ("e3", "a", "c", 2.5, 1.0)],
    )
    route = shortest_path(g, "e1", "e2")
    assert route.edges == ("e1", "e2")
    assert route.cost == pytest.approx(2.0)

    direct = shortest_path(g, "e3", "e3")
    assert direct.edges == ("e3",)
    assert direct.cost == pytest.approx(2.5)


def test_single_edge_route_costs_full_edge():
    g = build_graph([("a", 0, 0), ("b", 100, 0)], [("only", "a", "b", 100.0, 10.0)])
    route = shortest_path(g, "only", "only")
    assert route.edges == ("only",)
    assert route.cost == pytest.approx(10.0)


def test_tie_break_is_lexicographic_on_edge_ids():
    # two equal-cost middle edges; the id-sorted one must win
    g = build_graph(
        [("a", 0, 0), ("b", 1, 0), ("c", 2, 0)],
        [("start", "a", "b", 1.0, 1.0),
         ("mid_z", "b", "c", 1.0, 1.0),
         ("mid_a", "b", "c", 1.0, 1.0),
         ("end", "c", "a", 1.0, 1.0)],
    )
    route = shortest_path(g, "start", "end")
    assert route.edges == ("start", "mid_a", "end")


def test_no_route_raises():
    g = build_graph(
        [("a", 0, 0), ("b", 1, 0), ("c", 2, 0), ("d", 3, 0)],
        [("e1", "a", "b", 1.0, 1.0), ("e2", "c", "d", 1.0, 1.0)],
    )
    with pytest.raises(NoRouteError):
        shortest_path(g, "e1", "e2")
    with pytest.raises(NoRouteError):
        shortest_path(g, "e1", "nope")


# --- exhaustive oracle ------------------------------------------------------

def enumerate_best_route(graph, source, target):
    """Brute-force minimum over all edge-simple paths, ordered by
    (cost, edge-id sequence). Returns None when no path exists.

    Prefixes whose cost already reaches the best completed cost are pruned;
    with strictly positive edge costs they cannot complete into a tie, so
    the lexicographic winner is unaffected.
    """
    tt = {eid: e.travel_time for eid, e in graph.edges.items()}
    if source == target:
        return (tt[source], (source,))
    best = None

    def dfs(path, cost, used):
        nonlocal best
        if best is not None and cost >= best[0]:
            return
        last = path[-1]
        if last == target:
            cand = (cost, path)
            if best is None or cand < best:
                best = cand
            return
        for nxt in graph.continuations(last):
            if nxt not in used:
                dfs(path + (nxt,), cost + tt[nxt], used | {nxt})

    dfs((source,), tt[source], {source})
    return best


def random_graph(rng):
    # kept sparse enough (and at most 2 parallel edges per ordered pair)
    # that exhaustive path enumeration stays tractable
    n_nodes = int(rng.integers(4, 9))
    n_edges = int(rng.integers(n_nodes, min(16, 2 * n_nodes) + 1))
    nodes = [(f"n{i}", float(i), 0.0) for i in range(n_nodes)]
    # discrete lengths/speeds so that cost ties actually occur
    lengths = [10.0, 20.0, 40.0]
    speeds = [5.0, 10.0]
    edges = []
    pair_count: dict = {}
    k = 0
    while k < n_edges:
        u, v = rng.choice(n_nodes, size=2, replace=False)
        if pair_count.get((u, v), 0) >= 2:
            continue
        pair_count[(u, v)] = pair_count.get((u, v), 0) + 1
        edges.append((f"e{k:02d}", f"n{u}", f"n{v}",
                      lengths[rng.integers(0, 3)], speeds[rng.integers(0, 2)]))
        k += 1
    return build_graph(nodes, edges)


def test_routing_matches_exhaustive_enumeration_on_random_graphs():
    rng = np.random.default_rng(424242)
    checked = 0
    for _ in range(30):
        g = random_graph(rng)
        ids = sorted(g.edges)
        for _ in range(4):
            s, t = rng.choice(len(ids), size=2)
            s, t = ids[int(s)], ids[int(t)]
            expected = enumerate_best_route(g, s, t)
            if expected is None:
                with pytest.raises(NoRouteError):
                    shortest_path(g, s, t)
            else:
                route = shortest_path(g, s, t)
                assert route.edges == expected[1]
                assert route.cost == expected[0]
                checked += 1
    assert checked > 30
