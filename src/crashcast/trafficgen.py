"""Background traffic: Poisson departures, OD trips, and trajectory math.

Vehicles follow route centerlines at per-edge free-flow speeds. A trip's
`RoutePath` holds its centerline and its clock: the mapping between arc
position and time is piecewise linear (constant speed per edge), so both
directions are evaluated exactly with linear interpolation over the edge
ends. Spacing between vehicles is one function, `same_time_gaps`, over
stacked position tracks on a shared time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class TripSpec:
    vehicle: int
    depart: float
    route: Route


@dataclass(frozen=True)
class Trajectory:
    """Samples (x_n, y_n, t_n) at t_n = depart + n * dt for n = 1..N."""

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
        _, _, route = sample_od(graph, terminals, rng)
        trips.append(TripSpec(k, depart, route))
    return trips


class RoutePath:
    """One route's centerline and clock, both indexed by arc length.

    The edge ends carry cumulative arc lengths and travel times, so the time
    mapping is piecewise linear (constant speed per edge) and strictly
    increasing. Each edge's polyline is rescaled to span exactly its
    declared length, keeping the geometry consistent with the clock. Times
    are seconds since departure.
    """

    def __init__(self, graph: RoadGraph, edge_ids):
        self.edges = tuple(edge_ids)
        ends = [0.0]
        times = [0.0]
        speeds = []
        arcs = [0.0]
        xs = []
        ys = []
        for eid in self.edges:
            e = graph.edges[eid]
            pts = np.asarray(e.shape)
            seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
            local = np.concatenate([[0.0], np.cumsum(seg)])
            if local[-1] <= 0:
                raise ValueError(f"edge {eid!r} has zero-length centerline")
            local *= e.length / local[-1]
            # after the first edge, drop the duplicated junction vertex
            first = 1 if xs else 0
            xs.extend(pts[first:, 0])
            ys.extend(pts[first:, 1])
            arcs.extend(ends[-1] + local[1:])
            ends.append(ends[-1] + e.length)
            times.append(times[-1] + e.travel_time)
            speeds.append(e.speed)
        self.ends = np.asarray(ends)  # arc length at each edge end
        self._times = np.asarray(times)
        self._speeds = np.asarray(speeds)
        self._arcs = np.asarray(arcs)
        self._x = np.asarray(xs)
        self._y = np.asarray(ys)

    @property
    def duration(self) -> float:
        return float(self._times[-1])

    @property
    def length(self) -> float:
        """End of the rescaled polyline, which can sit an ulp off ends[-1]."""
        return float(self._arcs[-1])

    def time_at(self, s):
        """Time since departure at arc position(s); clamps outside [0, length]."""
        return np.interp(s, self.ends, self._times)

    def arc_at(self, t):
        """Arc position at time(s) since departure; clamps outside [0, duration]."""
        return np.interp(t, self._times, self.ends)

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

    def speed_at(self, s) -> np.ndarray:
        """Free-flow speed of the edge containing s."""
        idx = np.clip(np.searchsorted(self.ends, s, side="right") - 1, 0,
                      len(self.ends) - 2)
        return self._speeds[idx]


def sample_trajectory(path: RoutePath, depart: float, dt: float) -> Trajectory:
    """Positions at uniform clock ticks depart + n*dt, n = 1..floor(T/dt)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(math.floor(path.duration / dt))
    ticks = depart + dt * np.arange(1, n + 1)
    return Trajectory(path.point_at(path.arc_at(ticks - depart)), ticks)


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
    placed = np.empty((len(trips), len(grid), 2))
    delays = [0.0] * len(trips)
    for rank, i in enumerate(order):
        for step in range(max_delay_steps + 1):
            pos = _positions_on_grid(trajectories[i], step * dt, grid)
            if (same_time_gaps(pos[None], placed[:rank]) >= safety_radius).all():
                delays[i] = step * dt
                placed[rank] = pos
                break
        else:
            raise DeconflictError(
                f"vehicle {trips[i].vehicle} cannot be spaced >= {safety_radius} m "
                f"within {max_delay_steps} delay steps")
    out = [replace(t, depart=t.depart + delays[i]) for i, t in enumerate(trips)]
    return sorted(out, key=lambda t: (t.depart, t.vehicle))


def same_time_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(P, Q) smallest distances between the (P, G, 2) and (Q, G, 2)
    position tracks over the grid times where both are present (not NaN);
    inf where a pair is never present together."""
    d = a[:, None] - b[None]
    dist = np.sqrt((d * d).sum(axis=-1))
    return np.where(np.isnan(dist), math.inf, dist).min(axis=-1, initial=math.inf)
