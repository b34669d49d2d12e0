"""Background traffic: Poisson departures, OD trips, and trajectory math.

Vehicles follow route centerlines at per-edge free-flow speeds. The time
mapping between arc position and clock time is piecewise linear (constant
speed per edge), so both directions are evaluated exactly with linear
interpolation over the per-edge breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roadnet import NoRouteError, RoadGraph, Route, TerminalSets, shortest_path


class ODSamplingError(Exception):
    """No routable OD pair found within the retry budget."""


class DeconflictError(Exception):
    """Delay budget exhausted before the required spacing was reached."""


@dataclass(frozen=True)
class ArrivalConfig:
    """Poisson arrival process: rate = vehicles / period (per second)."""

    vehicles: float
    period: float
    horizon: float

    @property
    def rate(self) -> float:
        return self.vehicles / self.period

    @property
    def expected_count(self) -> float:
        return self.rate * self.horizon


@dataclass(frozen=True)
class TripSpec:
    vehicle: int
    source_edge: str
    target_edge: str
    depart: float
    route: Route


@dataclass(frozen=True)
class Trajectory:
    """Samples (x_n, y_n, t_n) at t_n = depart + n * dt for n = 1..N."""

    vehicle: int
    dt: float
    xy: np.ndarray  # (N, 2)
    t: np.ndarray  # (N,)


def sample_departures(cfg: ArrivalConfig, rng: np.random.Generator) -> list[float]:
    """Departure times on [0, horizon): exponential gaps via inverse CDF."""
    if cfg.vehicles < 0 or cfg.period <= 0:
        raise ValueError("arrival config needs vehicles >= 0 and period > 0")
    rate = cfg.rate
    if rate == 0.0:
        return []
    times: list[float] = []
    t = 0.0
    while True:
        t += -math.log1p(-rng.random()) / rate
        if t >= cfg.horizon:
            return times
        times.append(t)


def sample_od(graph: RoadGraph, terminals: TerminalSets, rng: np.random.Generator,
              max_retries: int = 100) -> tuple[str, str, Route]:
    """Uniform draw over source x destination edges, rejecting unroutable pairs."""
    n_src = len(terminals.sources)
    n_dst = len(terminals.destinations)
    for _ in range(max_retries):
        src = terminals.sources[int(rng.integers(0, n_src))]
        dst = terminals.destinations[int(rng.integers(0, n_dst))]
        try:
            return src, dst, shortest_path(graph, src, dst)
        except NoRouteError:
            continue
    raise ODSamplingError(f"no routable OD pair in {max_retries} draws")


def build_trips(graph: RoadGraph, terminals: TerminalSets, departures: list[float],
                rng: np.random.Generator) -> list[TripSpec]:
    """One trip per departure time, numbered in departure order."""
    trips = []
    for k, depart in enumerate(sorted(departures)):
        src, dst, route = sample_od(graph, terminals, rng)
        trips.append(TripSpec(k, src, dst, depart, route))
    return trips


class TimeMapping:
    """Bijection between arc position s on a route and clock time.

    t(s) = depart + integral of 1/v over [0, s] with piecewise-constant
    per-edge speeds; strictly increasing because speeds are positive.
    """

    def __init__(self, graph: RoadGraph, route: Route, depart: float):
        arcs = [0.0]
        times = [0.0]
        for eid in route.edges:
            e = graph.edges[eid]
            arcs.append(arcs[-1] + e.length)
            times.append(times[-1] + e.travel_time)
        self.depart = depart
        self._arcs = np.asarray(arcs)
        self._times = np.asarray(times)

    @property
    def duration(self) -> float:
        return float(self._times[-1])

    @property
    def length(self) -> float:
        return float(self._arcs[-1])

    def time_at(self, s):
        """Clock time at arc position(s); clamps outside [0, length]."""
        return self.depart + np.interp(s, self._arcs, self._times)

    def arc_at(self, t):
        """Arc position at clock time(s); clamps outside the travel window."""
        return np.interp(np.asarray(t, dtype=float) - self.depart, self._times, self._arcs)


class RouteGeometry:
    """Concatenated centerline of a route, indexed by arc length.

    Per-edge polylines are rescaled so each edge spans exactly its declared
    length, keeping geometry consistent with the time mapping.
    """

    def __init__(self, graph: RoadGraph, edge_ids):
        arcs = [0.0]
        xs = []
        ys = []
        base = 0.0
        for eid in edge_ids:
            e = graph.edges[eid]
            pts = np.asarray(e.shape)
            seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
            local = np.concatenate([[0.0], np.cumsum(seg)])
            if local[-1] <= 0:
                raise ValueError(f"edge {eid!r} has zero-length centerline")
            local *= e.length / local[-1]
            if xs:
                # drop the duplicated junction vertex
                xs.extend(pts[1:, 0])
                ys.extend(pts[1:, 1])
                arcs.extend(base + local[1:])
            else:
                xs.extend(pts[:, 0])
                ys.extend(pts[:, 1])
                arcs.extend(base + local[1:])
            base += e.length
        self._arcs = np.asarray(arcs)
        self._x = np.asarray(xs)
        self._y = np.asarray(ys)

    @property
    def length(self) -> float:
        return float(self._arcs[-1])

    def point_at(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.interp(s, self._arcs, self._x),
                         np.interp(s, self._arcs, self._y)], axis=-1)

    def heading_at(self, s) -> np.ndarray:
        """Tangent angle (radians, CCW from +x) of the segment containing s."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        idx = np.clip(np.searchsorted(self._arcs, s, side="right") - 1, 0,
                      len(self._arcs) - 2)
        dx = self._x[idx + 1] - self._x[idx]
        dy = self._y[idx + 1] - self._y[idx]
        return np.arctan2(dy, dx)


def sample_trajectory(geometry: RouteGeometry, mapping: TimeMapping, vehicle: int,
                      dt: float) -> Trajectory:
    """Positions at uniform clock ticks depart + n*dt, n = 1..floor(T/dt)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(math.floor(mapping.duration / dt))
    ticks = mapping.depart + dt * np.arange(1, n + 1)
    arcs = mapping.arc_at(ticks)
    return Trajectory(vehicle, dt, geometry.point_at(arcs), ticks)


def _positions_on_grid(traj: Trajectory, delay: float, grid: np.ndarray) -> np.ndarray:
    """Interpolate a (possibly delayed) trajectory onto shared grid times.

    Returns (G, 2) with NaN rows where the vehicle is not on the road.
    """
    t = traj.t + delay
    out = np.full((len(grid), 2), np.nan)
    if len(t) == 0:
        return out
    inside = (grid >= t[0]) & (grid <= t[-1])
    out[inside, 0] = np.interp(grid[inside], t, traj.xy[:, 0])
    out[inside, 1] = np.interp(grid[inside], t, traj.xy[:, 1])
    return out


def deconflict(trips: list[TripSpec], trajectories: list[Trajectory],
               safety_radius: float, dt: float, horizon: float,
               max_delay_steps: int = 600) -> list[TripSpec]:
    """Greedily delay later departures until all same-time spacings hold.

    Trips are processed in departure order; each is delayed by whole
    multiples of dt until its distance to every already-placed trip is at
    least safety_radius on the shared time grid. Routes are never changed.
    """
    if len(trips) != len(trajectories):
        raise ValueError("need one trajectory per trip")
    order = sorted(range(len(trips)), key=lambda i: (trips[i].depart, trips[i].vehicle))
    grid = np.arange(0.0, horizon + dt / 2, dt)
    placed: list[np.ndarray] = []
    delays = [0.0] * len(trips)
    for rank, i in enumerate(order):
        if rank == 0:
            placed.append(_positions_on_grid(trajectories[i], 0.0, grid))
            continue
        ok = False
        for step in range(max_delay_steps + 1):
            delay = step * dt
            pos = _positions_on_grid(trajectories[i], delay, grid)
            if all(min_same_time_distance(pos, other) >= safety_radius
                   for other in placed):
                delays[i] = delay
                placed.append(pos)
                ok = True
                break
        if not ok:
            raise DeconflictError(
                f"vehicle {trips[i].vehicle} cannot be spaced >= {safety_radius} m "
                f"within {max_delay_steps} delay steps")
    out = [TripSpec(t.vehicle, t.source_edge, t.target_edge, t.depart + delays[i], t.route)
           for i, t in enumerate(trips)]
    return sorted(out, key=lambda t: (t.depart, t.vehicle))


def min_same_time_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest distance between two (G, 2) position arrays over the grid
    times where both are present (not NaN); inf when there are none."""
    both = ~(np.isnan(a[:, 0]) | np.isnan(b[:, 0]))
    if not both.any():
        return math.inf
    d = a[both] - b[both]
    return float(np.sqrt((d * d).sum(axis=1)).min())
