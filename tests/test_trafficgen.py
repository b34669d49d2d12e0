import math

import numpy as np
import pytest
from scipy import stats

from crashcast import trafficgen
from crashcast.roadnet import (
    NoRouteError,
    RoadEdge,
    RoadNode,
    Route,
    classify_terminals,
    shortest_path,
)
from crashcast.scenario.presets import preset_graph
from crashcast.trafficgen import (
    DeconflictError,
    ODSamplingError,
    RoutePath,
    Trajectory,
    TripSpec,
    _positions_on_grid,
    build_trips,
    deconflict,
    route_path,
    same_time_gaps,
    sample_departures,
    sample_od,
    sample_trajectory,
)
from crashcast.util import stream_rng

from test_roadnet import build_graph


def two_edge_graph():
    # 100 m at 10 m/s then 100 m at 20 m/s, straight along +x
    return build_graph(
        [("a", 0, 0), ("b", 100, 0), ("c", 200, 0)],
        [("e1", "a", "b", 100.0, 10.0), ("e2", "b", "c", 100.0, 20.0)],
    )


def route_for(graph, edge_ids):
    cost = sum(graph.edges[e].travel_time for e in edge_ids)
    return Route(tuple(edge_ids), cost)


def test_departures_respect_horizon_and_are_deterministic():
    a = sample_departures(0.5, 6.0, stream_rng(99, "arrivals"))
    b = sample_departures(0.5, 6.0, stream_rng(99, "arrivals"))
    assert a == b
    assert all(0.0 < t < 6.0 for t in a)
    assert a == sorted(a)

    assert sample_departures(0.0, 6.0, stream_rng(1)) == []


@pytest.mark.parametrize("rate", [-0.5, math.nan])
def test_departures_refuse_a_rate_that_never_ends(rate):
    with pytest.raises(ValueError, match="must be >= 0"):
        sample_departures(rate, 6.0, stream_rng(1))


def test_departure_counts_match_poisson_mean():
    counts = [len(sample_departures(0.5, 6.0, stream_rng(5, "mean", i)))
              for i in range(1000)]
    mean = np.mean(counts)
    # mean of 1000 Poisson(3) draws: sigma = sqrt(3/1000)
    assert abs(mean - 3.0) <= 3.0 * math.sqrt(3.0 / 1000)


def test_interarrival_gaps_are_exponential():
    times = np.asarray(sample_departures(0.5, 50_000.0, stream_rng(17, "ks")))
    gaps = np.diff(times, prepend=0.0)[:10_000]
    assert len(gaps) == 10_000
    res = stats.kstest(gaps, "expon", args=(0.0, 2.0))
    assert res.pvalue > 0.01


def test_od_rejection_is_uniform_over_routable_pairs():
    # 2x2 candidate pairs, one unroutable: each routable pair ~ 1/3
    g = build_graph(
        [("a", 0, 0), ("b", 1, 0), ("c", 2, 0)],
        [("src_a", "a", "b", 1.0, 1.0),
         ("src_b", "b", "c", 1.0, 1.0)],
    )
    from crashcast.roadnet import classify_terminals

    terms = classify_terminals(g)
    rng = stream_rng(7, "od")
    counts: dict = {}
    for _ in range(10_000):
        edges = sample_od(g, terms, rng).edges
        src, dst = edges[0], edges[-1]
        counts[(src, dst)] = counts.get((src, dst), 0) + 1
    # (src_b, src_a) has no route and must never appear
    assert ("src_b", "src_a") not in counts
    assert len(counts) == 3
    for n in counts.values():
        assert abs(n / 10_000 - 1 / 3) < 0.02


def test_od_exhaustion_raises():
    g = two_edge_graph()
    # a terminal missing from the graph routes nowhere
    with pytest.raises(ODSamplingError, match="no routable OD pair in 100 draws"):
        sample_od(g, ("zz",), stream_rng(2))


def test_build_trips_orders_by_departure():
    g = two_edge_graph()
    from crashcast.roadnet import classify_terminals

    trips = build_trips(g, classify_terminals(g), [4.0, 1.0, 2.5], stream_rng(3))
    assert [t.depart for t in trips] == [1.0, 2.5, 4.0]
    assert [t.vehicle for t in trips] == [0, 1, 2]


def test_time_mapping_hand_values():
    g = two_edge_graph()
    m = RoutePath(g, ["e1", "e2"])
    assert m.duration == pytest.approx(15.0)
    assert m.time_at(200.0) == pytest.approx(15.0)
    assert m.time_at(100.0) == pytest.approx(10.0)
    assert m.arc_at(12.5) == pytest.approx(150.0)  # 50 m into the second edge
    assert m.speed_at(np.array([0.0, 99.9, 100.0, 200.0])).tolist() == [
        10.0, 10.0, 20.0, 20.0]


def test_trajectory_sample_count_and_position():
    g = build_graph([("a", 0, 0), ("b", 100, 0)], [("e1", "a", "b", 100.0, 10.0)])
    traj = sample_trajectory(RoutePath(g, ["e1"]), 0.0, dt=0.5)
    assert len(traj.t) == 20  # floor(10 / 0.5)
    assert traj.t[0] == pytest.approx(0.5)
    assert traj.t[-1] == pytest.approx(10.0)
    assert traj.xy[-1] == pytest.approx([100.0, 0.0])  # route end inclusive

    traj2 = sample_trajectory(RoutePath(two_edge_graph(), ["e1", "e2"]), 0.0,
                              dt=12.5)
    assert traj2.xy[0] == pytest.approx([150.0, 0.0])


def test_time_mapping_inversion_roundtrip_on_random_routes():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        n_edges = int(rng.integers(1, 6))
        nodes = [(f"n{i}", 50.0 * i, 0.0) for i in range(n_edges + 1)]
        edges = [(f"e{i}", f"n{i}", f"n{i+1}", 50.0, float(rng.uniform(3, 25)))
                 for i in range(n_edges)]
        g = build_graph(nodes, edges)
        path = RoutePath(g, [e[0] for e in edges])
        depart = float(rng.uniform(0, 20))
        dt = float(rng.uniform(0.05, 1.0))
        n = int(math.floor(path.duration / dt))
        ticks = depart + dt * np.arange(1, n + 1)
        back = depart + path.time_at(path.arc_at(ticks - depart))
        assert np.abs(back - ticks).max() <= 1e-9


def test_route_path_is_one_read_only_path_per_route_until_add_edge():
    g = two_edge_graph()
    path = route_path(g, ["e1", "e2"])
    assert route_path(g, ("e1", "e2")) is path
    arrays = [a for a in vars(path).values() if isinstance(a, np.ndarray)]
    assert len(arrays) == 6
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # replace e2 with a 150 m edge to a new node: the next call sees it
    g.add_node(RoadNode("d", 200.0, 100.0))
    g.add_edge(RoadEdge("e2", "b", "d", 150.0, 10.0, ((100.0, 0.0), (200.0, 100.0))))
    fresh = route_path(g, ["e1", "e2"])
    assert fresh is not path
    assert fresh.length == pytest.approx(250.0)
    assert fresh.point_at(250.0) == pytest.approx([200.0, 100.0])
    assert route_path(g, ["e1", "e2"]) is fresh


def test_heading_follows_centerline():
    g = build_graph(
        [("a", 0, 0), ("b", 100, 0), ("c", 100, 100)],
        [("e1", "a", "b", 100.0, 10.0), ("e2", "b", "c", 100.0, 10.0)],
    )
    geom = RoutePath(g, ["e1", "e2"])
    assert geom.heading_at(50.0)[0] == pytest.approx(0.0)
    assert geom.heading_at(150.0)[0] == pytest.approx(math.pi / 2)


def make_trip_and_traj(graph, edge_ids, vehicle, depart, dt=0.1):
    trip = TripSpec(vehicle, depart, route_for(graph, edge_ids))
    return trip, sample_trajectory(RoutePath(graph, edge_ids), depart, dt)


def test_deconflict_delays_identical_trips():
    g = build_graph([("a", 0, 0), ("b", 200, 0)], [("e1", "a", "b", 200.0, 10.0)])
    t0, traj0 = make_trip_and_traj(g, ["e1"], 0, 0.0)
    t1, traj1 = make_trip_and_traj(g, ["e1"], 1, 0.0)
    out = deconflict([t0, t1], [traj0, traj1], safety_radius=5.0, dt=0.1, horizon=20.0)
    assert out[0].depart == 0.0
    assert out[1].depart > 0.0
    # delay is a whole number of dt steps
    assert out[1].depart / 0.1 == pytest.approx(round(out[1].depart / 0.1))
    # 10 m/s: 5 m spacing needs >= 0.5 s
    assert out[1].depart >= 0.5 - 1e-9
    assert out[1].route == t1.route


def test_deconflict_leaves_disjoint_roads_unchanged():
    g = build_graph(
        [("a", 0, 0), ("b", 200, 0), ("c", 0, 500), ("d", 200, 500)],
        [("e1", "a", "b", 200.0, 10.0), ("e2", "c", "d", 200.0, 10.0)],
    )
    t0, traj0 = make_trip_and_traj(g, ["e1"], 0, 0.0)
    t1, traj1 = make_trip_and_traj(g, ["e2"], 1, 0.3)
    out = deconflict([t0, t1], [traj0, traj1], safety_radius=5.0, dt=0.1, horizon=25.0)
    assert [t.depart for t in out] == [0.0, 0.3]


def test_deconflict_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(trafficgen, "MAX_DELAY_STEPS", 2)
    g = build_graph([("a", 0, 0), ("b", 200, 0)], [("e1", "a", "b", 200.0, 10.0)])
    t0, traj0 = make_trip_and_traj(g, ["e1"], 0, 0.0)
    t1, traj1 = make_trip_and_traj(g, ["e1"], 1, 0.0)
    with pytest.raises(DeconflictError, match="within 2 delay steps"):
        deconflict([t0, t1], [traj0, traj1], safety_radius=5.0, dt=0.1,
                   horizon=20.0)


def min_same_time_distance(a, b):
    """The scalar per-pair definition: smallest distance between two (G, 2)
    tracks over the grid times where both are present; inf when none."""
    both = ~(np.isnan(a[:, 0]) | np.isnan(b[:, 0]))
    if not both.any():
        return math.inf
    d = a[both] - b[both]
    return float(np.sqrt((d * d).sum(axis=1)).min())


def random_tracks(rng, n, g):
    xy = rng.uniform(-50.0, 50.0, size=(n, g, 2))
    xy[rng.random((n, g)) < 0.4] = np.nan
    return xy


def test_same_time_gaps_matches_per_pair_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = int(rng.integers(1, 40))
        a = random_tracks(rng, int(rng.integers(1, 6)), g)
        b = random_tracks(rng, int(rng.integers(1, 6)), g)
        b[0] = np.nan  # a track absent on every frame
        got = same_time_gaps(a, b)
        assert got.shape == (len(a), len(b))
        assert got.tolist() == [[min_same_time_distance(p, q) for q in b] for p in a]
        assert (got[:, 0] == math.inf).all()


def test_same_time_gaps_edge_operands():
    a = np.full((2, 4, 2), np.nan)
    a[0, :2] = [[0.0, 0.0], [1.0, 0.0]]  # on the road at frames 0-1
    a[1, 2:] = [[0.0, 3.0], [0.0, 4.0]]  # on the road at frames 2-3
    gaps = same_time_gaps(a, a)
    assert gaps[0, 1] == gaps[1, 0] == math.inf  # never present together
    assert gaps[0, 0] == gaps[1, 1] == 0.0

    # nothing placed yet, as for the first trip deconflict places
    none = same_time_gaps(a[:1], np.empty((0, 4, 2)))
    assert none.shape == (1, 0) and (none >= 5.0).all()
    assert same_time_gaps(np.empty((0, 4, 2)), a).shape == (0, 2)

    # a parked spot: one static point broadcast over the grid
    spot = np.broadcast_to(np.array([3.0, 4.0]), (1, 4, 2))
    got = same_time_gaps(a, spot)
    assert got[:, 0].tolist() == [min_same_time_distance(tr, spot[0]) for tr in a]
    assert got[:, 0].tolist() == [math.sqrt(20.0), 3.0]


# --- bit-exact copies of the earlier trajectory helpers -----------------------
# Straight-line copies of how point_at, heading_at, speed_at,
# _positions_on_grid and same_time_gaps were written with np.stack, np.clip,
# a boolean-mask gather and np.where + min. The module's versions must give
# the same bytes, NaN rows and signed zeros included.

def earlier_point_at(path, s):
    s = np.asarray(s, dtype=float)
    return np.stack([np.interp(s, path._arcs, path._x),
                     np.interp(s, path._arcs, path._y)], axis=-1)


def earlier_heading_at(path, s):
    s = np.atleast_1d(np.asarray(s, dtype=float))
    idx = np.clip(np.searchsorted(path._arcs, s, side="right") - 1, 0,
                  len(path._arcs) - 2)
    return np.arctan2(path._y[idx + 1] - path._y[idx],
                      path._x[idx + 1] - path._x[idx])


def earlier_speed_at(path, s):
    idx = np.clip(np.searchsorted(path.ends, s, side="right") - 1, 0,
                  len(path.ends) - 2)
    return path._speeds[idx]


def earlier_positions_on_grid(traj, delay, grid):
    t = traj.t + delay
    out = np.full((len(grid), 2), np.nan)
    if len(t) == 0:
        return out
    inside = (grid >= t[0]) & (grid <= t[-1])
    out[inside, 0] = np.interp(grid[inside], t, traj.xy[:, 0])
    out[inside, 1] = np.interp(grid[inside], t, traj.xy[:, 1])
    return out


def earlier_same_time_gaps(a, b):
    d = a[:, None] - b[None]
    dist = np.sqrt((d * d).sum(axis=-1))
    return np.where(np.isnan(dist), math.inf, dist).min(axis=-1, initial=math.inf)


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes(), (got, want)


def curved_graph():
    """A straight edge along y = -0.0, a 7-vertex arc with a repeated vertex
    (a zero-length segment), and a fast straight edge."""
    g = build_graph([("a", -0.0, -0.0), ("b", 100.0, -0.0)],
                    [("e1", "a", "b", 100.0, 10.0)])
    g.add_node(RoadNode("c", 150.0, 50.0))
    g.add_node(RoadNode("d", 150.0, 150.0))
    theta = np.linspace(-math.pi / 2, 0.0, 6)
    arc = [(100.0 + 50.0 * math.cos(a), 50.0 + 50.0 * math.sin(a)) for a in theta]
    arc.insert(3, arc[3])
    g.add_edge(RoadEdge("e2", "b", "c", 25.0 * math.pi, 7.5, tuple(arc)))
    g.add_edge(RoadEdge("e3", "c", "d", 100.0, 25.0, ((150.0, 50.0), (150.0, 150.0))))
    return g


def lookup_paths():
    paths = [RoutePath(curved_graph(), edges)
             for edges in (["e1"], ["e2"], ["e1", "e2", "e3"])]
    for name in ("straight", "intersection", "t_junction", "multilane"):
        g = preset_graph(name)
        terms = classify_terminals(g)
        for src in terms:
            for dst in terms:
                try:
                    paths.append(RoutePath(g, shortest_path(g, src, dst).edges))
                except NoRouteError:
                    pass
    return paths


def test_route_path_lookups_equal_the_earlier_helpers_bit_for_bit():
    rng = np.random.default_rng(41)
    for path in lookup_paths():
        length = path.length
        s = np.concatenate([
            [-0.0, 0.0, -1.0, length, np.nextafter(length, math.inf),
             np.nextafter(length, -math.inf), length + 1.0, 2.0 * length, np.nan],
            path.ends, np.nextafter(path.ends, -math.inf),
            np.nextafter(path.ends, math.inf), path._arcs,
            rng.uniform(-5.0, length + 5.0, 40)])
        for x in (s, s.reshape(-1, 1)[:12].reshape(3, 4), s[:0]):
            assert_same_bytes(path.point_at(x), earlier_point_at(path, x))
            assert_same_bytes(path.heading_at(x), earlier_heading_at(path, x))
            assert_same_bytes(path.speed_at(x), earlier_speed_at(path, x))
        for v in s[:9].tolist() + path.ends.tolist():
            for x in (v, np.float64(v)):
                assert_same_bytes(path.point_at(x), earlier_point_at(path, x))
                assert_same_bytes(path.heading_at(x), earlier_heading_at(path, x))
                assert_same_bytes(path.speed_at(x), earlier_speed_at(path, x))


def grid_trajectories(grid):
    """Edge-case trajectories against a grid of step 0.1 from 0."""
    dt = 0.1
    xy = lambda n: np.arange(2.0 * n).reshape(n, 2) - 3.0  # noqa: E731
    cases = [Trajectory(np.empty((0, 2)), np.empty(0))]
    for t in ([grid[7]], [grid[7] + 0.03], [-0.0], [0.0], [grid[-1]], [-2.0],
              [grid[-1] + 1.0]):
        cases.append(Trajectory(xy(1), np.asarray(t)))
    for t in (grid[3:20].copy(),  # starts and ends on grid times
              grid[3] + 0.04 + dt * np.arange(10),  # starts and ends between
              grid[5] + dt * np.arange(1, 12) - 0.05,
              -3.0 + dt * np.arange(10),  # wholly before the grid
              grid[-1] + dt + dt * np.arange(10),  # wholly after it
              -1.0 + dt * np.arange(40),  # runs into the grid
              grid[-10] + dt * np.arange(30),  # runs out of it
              -1.0 + dt * np.arange(100)):  # covers it
        cases.append(Trajectory(xy(len(t)), np.asarray(t)))
    nan = Trajectory(np.full((12, 2), np.nan), grid[4:16].copy())  # all-NaN
    signed = Trajectory(np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]),
                        grid[2:5].copy())
    return cases + [nan, signed]


def test_positions_on_grid_equal_the_earlier_helper_bit_for_bit():
    grid = np.arange(0.0, 6.0 + 0.05, 0.1)
    trajs = grid_trajectories(grid)
    for path in lookup_paths()[:12]:
        for depart in (-4.0, -0.05, 0.0, 0.3, 5.5):
            trajs.append(sample_trajectory(path, depart, 0.1, 6.0))
    for traj in trajs:
        for step in (0, 1, 3, 17, 60, 600):
            delay = step * 0.1
            assert_same_bytes(_positions_on_grid(traj, delay, grid),
                              earlier_positions_on_grid(traj, delay, grid))
    for empty in (grid[:0], grid[:1]):
        for traj in trajs[:4]:
            assert_same_bytes(_positions_on_grid(traj, 0.0, empty),
                              earlier_positions_on_grid(traj, 0.0, empty))


def test_same_time_gaps_equal_the_earlier_helper_bit_for_bit():
    rng = np.random.default_rng(43)
    for _ in range(50):
        g = int(rng.integers(0, 30))
        a = random_tracks(rng, int(rng.integers(0, 5)), g)
        b = random_tracks(rng, int(rng.integers(0, 5)), g)
        if len(b):
            b[-1] = np.nan  # an all-NaN track
        if len(a) and g:
            a[0, rng.random(g) < 0.5] = -0.0  # signed zeros
            a[0, :, 1] *= -1.0
        assert_same_bytes(same_time_gaps(a, b), earlier_same_time_gaps(a, b))
        assert_same_bytes(same_time_gaps(a, a), earlier_same_time_gaps(a, a))
    spot = np.broadcast_to(np.array([-0.0, 0.0]), (1, 5, 2))
    zeros = np.zeros((2, 5, 2))
    zeros[1] = -0.0
    assert_same_bytes(same_time_gaps(zeros, spot), earlier_same_time_gaps(zeros, spot))
