"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every criterion is independent; the slow ones (scenario validity,
closed-loop learning) print their runtime in the detail field.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
from scipy import stats

from crashcast import autodiff as ad
from crashcast.autodiff import grad_check
from crashcast.cli import main as cli_main
from crashcast.features import geo_weights
from crashcast.losses import (
    LabeledBatch,
    align_loss,
    earliness_weights,
    frame_loss,
    total_loss,
    video_loss,
)
from crashcast.riskmodel import ModelConfig, ModelParams, adjacency, align_project, forward
from crashcast.roadnet import NoRouteError, RoadEdge, RoadGraph, RoadNode, shortest_path
from crashcast.scenario import generate_dataset, generate_one, validate_scenario
from crashcast.scenario.generate import CAMERA, SAFETY_RADIUS
from crashcast.trafficgen import (
    ArrivalConfig,
    RouteGeometry,
    TimeMapping,
    sample_departures,
    sample_trajectory,
)
from crashcast.traineval import (
    TrainConfig,
    average_precision,
    evaluate,
    mtta,
    split_dataset,
    train,
)
from crashcast.util import stream_rng

from test_riskmodel import numpy_forward, random_batch
from test_roadnet import build_graph


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. routing oracle

def _exhaustive_min_cost(graph, src, dst):
    """Min travel-time over all simple edge paths, or None when unreachable.
    Costs accumulate left to right exactly like the router's relaxation."""
    start = graph.edges[src].travel_time
    if src == dst:
        return start
    best = [None]

    def walk(edge, cost, used):
        if best[0] is not None and cost >= best[0]:
            return
        for nxt in graph.continuations(edge):
            if nxt in used:
                continue
            nxt_cost = cost + graph.edges[nxt].travel_time
            if nxt == dst:
                if best[0] is None or nxt_cost < best[0]:
                    best[0] = nxt_cost
            else:
                walk(nxt, nxt_cost, used | {nxt})

    walk(src, start, {src})
    return best[0]


def test_criterion_01_routing_matches_exhaustive_enumeration():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        n_nodes = int(rng.integers(2, 9))
        nodes = [(f"n{i}", float(rng.uniform(0, 500)), float(rng.uniform(0, 500)))
                 for i in range(n_nodes)]
        n_edges = int(rng.integers(1, 17))
        edges = []
        for j in range(n_edges):
            u, v = rng.choice(n_nodes, size=2, replace=False)
            edges.append((f"e{j}", f"n{u}", f"n{v}",
                          float(rng.uniform(10, 100)), float(rng.uniform(5, 20))))
        g = build_graph(nodes, edges)
        src = f"e{rng.integers(n_edges)}"
        dst = f"e{rng.integers(n_edges)}"
        expect = _exhaustive_min_cost(g, src, dst)
        if expect is None:
            try:
                shortest_path(g, src, dst)
                assert False, f"route found where enumeration sees none ({src}->{dst})"
            except NoRouteError:
                pass
        else:
            got = shortest_path(g, src, dst)
            assert got.cost == expect, f"{got.cost} != {expect} ({src}->{dst})"
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(1, "routing equals exhaustive enumeration", checked == 100 and elapsed < 10.0,
            f"100 graphs, exact cost match, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Poisson arrivals

def test_criterion_02_poisson_mean_and_interarrival_law():
    cfg = ArrivalConfig(0.5, 1.0, 6.0)
    counts = []
    times_norm = []
    for run in range(1000):
        times = sample_departures(cfg, stream_rng(4242, "poisson", run))
        counts.append(len(times))
        times_norm.extend(t / cfg.horizon for t in times)
    mean = float(np.mean(counts))
    band = 3.0 * math.sqrt(3.0 / 1000.0)
    mean_ok = abs(mean - 3.0) <= band

    # The 6 s window length-biases the pooled observed gaps (large gaps are
    # preferentially censored), so the gap law is tested on long-horizon
    # runs of the same sampler, where censoring is negligible.
    gaps = []
    long_cfg = ArrivalConfig(0.5, 1.0, 600.0)
    for run in range(10):
        times = sample_departures(long_cfg, stream_rng(4242, "poisson-long", run))
        gaps.extend(np.diff([0.0] + times))
    ks_gaps = stats.kstest(gaps, "expon", args=(0, 2.0))

    # and the stated T_sim = 6 process is distribution-checked through its
    # exact conditional law: arrival times are uniform order statistics.
    ks_times = stats.kstest(times_norm, "uniform")

    ok = mean_ok and ks_gaps.pvalue >= 0.01 and ks_times.pvalue >= 0.01
    _report(2, "Poisson mean and inter-arrival distribution", ok,
            f"mean {mean:.3f} in 3.0+-{band:.3f}; gap KS p={ks_gaps.pvalue:.3f} "
            f"(n={len(gaps)}); window-time KS p={ks_times.pvalue:.3f}")


# ---------------------------------------------------------------------------
# 3. trajectory consistency

def test_criterion_03_time_mapping_inversion_and_sample_count():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(1000):
        n_edges = int(rng.integers(1, 7))
        nodes = [(f"n{i}", 60.0 * i, float(rng.uniform(-5, 5)))
                 for i in range(n_edges + 1)]
        edges = [(f"e{i}", f"n{i}", f"n{i + 1}", float(rng.uniform(20, 120)),
                  float(rng.uniform(3, 25))) for i in range(n_edges)]
        g = build_graph(nodes, edges)
        from crashcast.roadnet import Route, path_length
        ids = tuple(e[0] for e in edges)
        route = Route(ids, sum(g.edges[e].travel_time for e in ids),
                      path_length(g, ids))
        depart = float(rng.uniform(0, 30))
        mapping = TimeMapping(g, route, depart)
        dt = float(rng.uniform(0.05, 1.0))
        traj = sample_trajectory(RouteGeometry(g, ids), mapping,
                                 vehicle=0, dt=dt)
        assert len(traj.t) == int(math.floor(mapping.duration / dt))
        assert len(traj.xy) == len(traj.t)
        back = mapping.time_at(mapping.arc_at(traj.t))
        if len(traj.t):
            worst = max(worst, float(np.abs(back - traj.t).max()))
    _report(3, "time-mapping inversion and N = floor(T/dt)", worst <= 1e-9,
            f"1000 routes, max roundtrip error {worst:.2e} s")


# ---------------------------------------------------------------------------
# 4. scenario validity

def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def test_criterion_04_scenario_constraints_hold():
    t0 = time.perf_counter()
    half_fov = CAMERA.half_fov

    for i in range(500):
        record, meta = generate_one(202, i, 500, 1.0)
        report = validate_scenario(record, meta)
        assert report.ok, f"positive {i}: {report.failures()}"
        names = {c.name for c in report.checks}
        assert {"c1_od_pairs", "c2_trajectories_intersect",
                "c3_collision_in_fov", "c4_accident_annotated"} <= names
        # the +-30 degree check, recomputed from raw poses rather than
        # through the camera model
        g = record.accident_frame - 1 + meta.stored_offset
        ex, ey = meta.ego_xy[g]
        cx, cy = meta.collision_xy
        if math.hypot(cx - ex, cy - ey) > 1e-9:
            bearing = _wrap_angle(math.atan2(cy - ey, cx - ex)
                                  - float(meta.ego_heading[g]))
            assert abs(bearing) <= half_fov + 1e-9, \
                f"positive {i}: collision bearing {math.degrees(bearing):.1f} deg"

    for i in range(500):
        record, _ = generate_one(203, i, 500, 0.0)
        report = validate_scenario(record)
        assert report.ok, f"negative {i}: {report.failures()}"
        # min-distance sweep recomputed from stored world coordinates
        for t in range(record.frames):
            pts = record.states[record.frame_starts[t]:record.frame_starts[t + 1], :2]
            if len(pts) < 2:
                continue
            d = np.hypot(pts[:, None, 0] - pts[None, :, 0],
                         pts[:, None, 1] - pts[None, :, 1])
            np.fill_diagonal(d, np.inf)
            assert d.min() >= SAFETY_RADIUS - 1e-5, \
                f"negative {i}: spacing {d.min():.3f} m"

    elapsed = time.perf_counter() - t0
    _report(4, "500 positives + 500 negatives satisfy constraints",
            elapsed < 60.0, f"FOV and spacing rechecked from poses, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. gradient fidelity

def test_criterion_05_end_to_end_gradient_matches_finite_differences():
    # the instance seed keeps every relu preactivation and pooling argmax
    # away from the +-eps probe window; central differences are undefined
    # exactly on those kinks, not wrong nearby
    rng = np.random.default_rng(2)
    model_cfg = ModelConfig(feature_dim=8, max_objects=4)
    batch = random_batch(2, 10, 4, 8, rng)
    batch.labels = np.array([1, 0])
    batch.accident_frames = np.array([8, 0])
    params = ModelParams.init(model_cfg, rng)

    def total():
        out = forward(batch, params, model_cfg)
        labeled = LabeledBatch(out.logits, batch.labels, batch.accident_frames)
        l1 = frame_loss(labeled, fps=10)
        l2 = video_loss(labeled)
        l3 = align_loss(align_project(params, batch.visual[:, :, 0]),
                        align_project(params, batch.text[:, :, 0]))
        return total_loss(l1, l2, l3, 10.0)

    per_param = 10
    n_coords = sum(min(per_param, p.value.size) for p in params.parameters())
    assert n_coords >= 200, f"only {n_coords} coordinates sampled"
    t0 = time.perf_counter()
    err = grad_check(total, params.parameters(),
                     max_coords_per_param=per_param,
                     rng=np.random.default_rng(0))
    elapsed = time.perf_counter() - t0
    _report(5, "loss gradient vs central differences", err <= 1e-4 and elapsed < 60.0,
            f"max rel err {err:.2e} over {n_coords} coords, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. dual-implementation forward oracle

def test_criterion_06_forward_matches_straight_line_transcription():
    rng = np.random.default_rng(66)
    cfg = ModelConfig(feature_dim=4, max_objects=3)
    batch = random_batch(2, 6, 3, 4, rng)
    params = ModelParams.init(cfg, rng)
    got = forward(batch, params, cfg).risk.value
    want = numpy_forward(batch, params, cfg)
    diff = float(np.abs(got - want).max())
    _report(6, "forward pass vs independent transcription", diff <= 1e-9,
            f"max abs diff {diff:.2e}")


# ---------------------------------------------------------------------------
# 7. hand values

def test_criterion_07_hand_values():
    at = adjacency(np.zeros((2, 2)), np.zeros((2, 2))).value
    adj_ok = np.abs(at - np.array([[0.75, 0.25], [0.25, 0.75]])).max() <= 1e-12

    geo = float(np.asarray(geo_weights(np.array(1.0), np.array(1.0), 0.5).value))
    geo_ok = abs(geo - 0.68394) <= 1e-5

    w = earliness_weights(np.array([1]), np.array([50]), 50, fps=10)
    w_ok = abs(w[0, 29] - 0.14957) <= 1e-5

    nce = align_loss(np.eye(2), np.eye(2), tau_c=1.0).item()
    nce_ok = abs(nce - 0.31326) <= 1e-5

    _report(7, "adjacency / geometric weight / earliness / InfoNCE hand values",
            adj_ok and geo_ok and w_ok and nce_ok,
            f"W_geo={geo:.5f}, w_t={w[0, 29]:.5f}, InfoNCE={nce:.5f}")


# ---------------------------------------------------------------------------
# 8. closed-loop learning

def test_criterion_08_closed_loop_learning_on_synthetic_data():
    t0 = time.perf_counter()
    records = generate_dataset(400, 0.5, 101)
    train_recs, test_recs = split_dataset(records)
    assert len(records) >= 400 and len(test_recs) >= 0.2 * len(records)

    model_cfg = ModelConfig(feature_dim=32, max_objects=6)
    train_cfg = TrainConfig(learning_rate=1e-3, epochs=6, batch_size=8, seed=0)
    params = ModelParams.init(model_cfg, stream_rng(0, "init"))
    train(train_recs, params, model_cfg, train_cfg)

    report, curves = evaluate(test_recs, params, model_cfg, threshold=0.5)
    # mean TTA at delta = 0.5 over all held-out positives; a positive that
    # never triggers contributes 0 s, which is stricter than averaging only
    # the triggering ones
    ttas = []
    for i, rec in enumerate(test_recs):
        if not rec.positive:
            continue
        hits = np.nonzero(curves[i][:-1] >= 0.5)[0]
        tta = max(0.0, (rec.accident_frame - (hits[0] + 1)) / rec.fps) \
            if hits.size else 0.0
        ttas.append(tta)
    mean_tta = float(np.mean(ttas))
    elapsed = time.perf_counter() - t0

    ok = report.ap >= 0.85 and mean_tta > 0.5 and elapsed < 900.0
    _report(8, "closed-loop training separates synthetic classes", ok,
            f"held-out AP {report.ap:.4f} (>=0.85), mean TTA {mean_tta:.2f}s "
            f"(>0.5s) over {len(ttas)} positives, {elapsed:.0f}s (<900s)")


# ---------------------------------------------------------------------------
# 9. metric oracles

def _exact_ap(scores, labels) -> Fraction:
    """Step-interpolated PR area in exact rational arithmetic."""
    scores = [Fraction(s).limit_denominator(10 ** 9) for s in scores]
    labels = [int(y) for y in labels]
    positives = sum(labels)
    ap = Fraction(0)
    prev_recall = Fraction(0)
    for th in sorted(set(scores), reverse=True):
        picked = [y for s, y in zip(scores, labels) if s >= th]
        tp = sum(picked)
        precision = Fraction(tp, len(picked))
        recall = Fraction(tp, positives)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def _exact_mtta(curves, labels, lams, fps) -> Fraction:
    grid = []
    for k in range(1, 100):
        delta = k / 100.0
        ttas = []
        for curve, y, lam in zip(curves, labels, lams):
            if y != 1:
                continue
            m = next((t + 1 for t in range(len(curve) - 1)
                      if curve[t] >= delta), None)
            if m is not None:
                ttas.append(max(Fraction(0), Fraction(int(lam) - m, fps)))
        if ttas:
            grid.append(sum(ttas) / len(ttas))
    return sum(grid) / len(grid) if grid else Fraction(0)


def test_criterion_09_metrics_match_brute_force():
    rng = np.random.default_rng(99)
    worst_ap = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0], labels[-1] = 1, 0
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        got = average_precision(scores, labels)
        worst_ap = max(worst_ap, abs(got - float(_exact_ap(scores, labels))))

    worst_mtta = 0.0
    for _ in range(50):
        b = int(rng.integers(2, 8))
        t = int(rng.integers(10, 40))
        curves = rng.random((b, t))
        labels = rng.integers(0, 2, b)
        if labels.sum() == 0:
            labels[0] = 1
        lams = np.where(labels == 1, rng.integers(2, t + 1, b), 0)
        got = mtta(curves, labels, lams, 10)
        worst_mtta = max(worst_mtta,
                         abs(got - float(_exact_mtta(curves, labels, lams, 10))))

    ok = worst_ap <= 1e-12 and worst_mtta <= 1e-12
    _report(9, "AP and mTTA vs exact-rational brute force", ok,
            f"50 sets each; max diff AP {worst_ap:.1e}, mTTA {worst_mtta:.1e}")


# ---------------------------------------------------------------------------
# 10. CLI determinism

def test_criterion_10_cli_runs_are_byte_reproducible(tmp_path):
    outs = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        data = d / "d.jsonl"
        ckpt = d / "ckpt.bin"
        rep = d / "report.json"
        assert cli_main(["gen-data", "--count", "8", "--positive-ratio",
                         "0.5", "--seed", "5", "--out", str(data)]) == 0
        assert cli_main(["train", "--data", str(data), "--epochs", "1",
                         "--seed", "2", "--out", str(ckpt),
                         "--feature-dim", "8", "--max-objects", "4"]) == 0
        assert cli_main(["eval", "--data", str(data), "--checkpoint",
                         str(ckpt), "--out", str(rep)]) == 0
        outs[tag] = {
            "dataset": data.read_bytes(),
            "checkpoint": ckpt.read_bytes(),
            "sidecar": (d / "ckpt.bin.json").read_bytes(),
            "log": (d / "ckpt.bin.log.csv").read_bytes(),
            "report": rep.read_bytes(),
            "curves": (d / "report.json.curves.csv").read_bytes(),
        }
    mismatched = [k for k in outs["a"] if outs["a"][k] != outs["b"][k]]
    _report(10, "gen-data/train/eval byte-reproducible", not mismatched,
            "all six artifacts identical" if not mismatched
            else f"mismatch in {mismatched}")
