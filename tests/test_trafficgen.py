import math

import numpy as np
import pytest
from scipy import stats

from crashcast.roadnet import Route
from crashcast.trafficgen import (
    ArrivalConfig,
    DeconflictError,
    ODSamplingError,
    RoutePath,
    TripSpec,
    build_trips,
    deconflict,
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
    cfg = ArrivalConfig(vehicles=3, period=6, horizon=6.0)
    assert cfg.rate == pytest.approx(0.5)
    a = sample_departures(cfg, stream_rng(99, "arrivals"))
    b = sample_departures(cfg, stream_rng(99, "arrivals"))
    assert a == b
    assert all(0.0 < t < 6.0 for t in a)
    assert a == sorted(a)

    assert sample_departures(ArrivalConfig(0, 6, 6.0), stream_rng(1)) == []


def test_departure_counts_match_poisson_mean():
    cfg = ArrivalConfig(vehicles=3, period=6, horizon=6.0)
    counts = [len(sample_departures(cfg, stream_rng(5, "mean", i))) for i in range(1000)]
    mean = np.mean(counts)
    # mean of 1000 Poisson(3) draws: sigma = sqrt(3/1000)
    assert abs(mean - 3.0) <= 3.0 * math.sqrt(3.0 / 1000)


def test_interarrival_gaps_are_exponential():
    cfg = ArrivalConfig(vehicles=1, period=2, horizon=50_000.0)
    times = np.asarray(sample_departures(cfg, stream_rng(17, "ks")))
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
        src, dst, _ = sample_od(g, terms, rng)
        counts[(src, dst)] = counts.get((src, dst), 0) + 1
    # (src_b, src_a) has no route and must never appear
    assert ("src_b", "src_a") not in counts
    assert len(counts) == 3
    for n in counts.values():
        assert abs(n / 10_000 - 1 / 3) < 0.02


def test_od_exhaustion_raises():
    g = build_graph(
        [("a", 0, 0), ("b", 1, 0), ("c", 2, 0), ("d", 3, 0)],
        [("e1", "a", "b", 1.0, 1.0), ("e2", "c", "d", 1.0, 1.0)],
    )
    from crashcast.roadnet import TerminalSets

    # restrict to a single unroutable pair
    terms = TerminalSets(sources=("e1",), destinations=("e2",))
    with pytest.raises(ODSamplingError):
        sample_od(g, terms, stream_rng(2), max_retries=20)


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


def test_deconflict_budget_exhaustion_raises():
    g = build_graph([("a", 0, 0), ("b", 200, 0)], [("e1", "a", "b", 200.0, 10.0)])
    t0, traj0 = make_trip_and_traj(g, ["e1"], 0, 0.0)
    t1, traj1 = make_trip_and_traj(g, ["e1"], 1, 0.0)
    with pytest.raises(DeconflictError):
        deconflict([t0, t1], [traj0, traj1], safety_radius=5.0, dt=0.1,
                   horizon=20.0, max_delay_steps=2)


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
