"""Tests of the benchmark itself; not part of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

They check the tracer's self-time arithmetic on a synthetic span tree, that
the metric lists agree, that counts repeat exactly across two traced runs of
each workload at the same seed (at reduced sizes), and that the benchmark
refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

BENCH = Path(__file__).resolve().parent

REPEATED_COUNTS = ("scenario.attempts_per_scenario", "autodiff.tape_nodes",
                   "trafficgen.deconflict.calls", "traineval.trigger_frame.calls",
                   "records.record_to_json.calls")

# layers that each workload must show running
OCCURS = {
    "gen": ("scenario.generate_one.calls", "scenario.validate_scenario.calls",
            "trafficgen.deconflict.calls", "roadnet.shortest_path.calls",
            "records.record_to_json.calls"),
    "train": ("autodiff.Tape.backward.calls", "autodiff.tape_nodes",
              "losses.align_loss.s", "traineval.Adam.step.s",
              "autodiff.save_checkpoint.s", "records.read_dataset.s"),
    "eval": ("traineval.trigger_frame.calls", "features.build_features.calls",
             "traineval.mtta.s", "autodiff.load_checkpoint.s",
             "riskmodel.forward.calls"),
}


def test_self_time_arithmetic_on_a_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]), a [5, 7] and c [8, 9]
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
             ["a", 5.0, 7.0, 0], ["c", 8.0, 9.0, 0]]
    layers = tracer.aggregate(spans)
    assert layers == {"root": {"s": 10.0, "self_s": 4.0, "calls": 1},
                      "a": {"s": 5.0, "self_s": 4.0, "calls": 2},
                      "b": {"s": 1.0, "self_s": 1.0, "calls": 1},
                      "c": {"s": 1.0, "self_s": 1.0, "calls": 1}}
    assert sum(row["self_s"] for row in layers.values()) == layers["root"]["s"]


def test_recorder_nests_spans_by_call():
    ticks = iter(range(100))  # each reading of the clock advances it by one
    rec = tracer.Recorder(clock=lambda: float(next(ticks)))
    leaf = rec.wrap("leaf", lambda: None)
    mid = rec.wrap("mid", lambda: [leaf(), leaf()])
    rec.wrap("root", lambda: [mid(), leaf()])()
    layers = tracer.aggregate(rec.spans)
    assert {k: v["calls"] for k, v in layers.items()} == {"root": 1, "mid": 1, "leaf": 3}
    # root 0..9 holds mid 1..6 (leaves 2..3 and 4..5) and a leaf 7..8
    assert layers["root"] == {"s": 9.0, "self_s": 3.0, "calls": 1}
    assert layers["mid"] == {"s": 5.0, "self_s": 3.0, "calls": 1}
    assert layers["leaf"] == {"s": 3.0, "self_s": 3.0, "calls": 3}
    assert sum(v["self_s"] for v in layers.values()) == layers["root"]["s"]


def test_metric_lists_agree():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    doc = run.load_metrics()
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert sorted(m["name"] for m in bench["end_to_end"]) == sorted(doc["end_to_end"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(doc["workloads"]) == sorted(run.WORKLOADS)
    wrapped = {name for name, _, _ in tracer.SITES}
    for m in doc["per_layer"]:
        layer = m["name"].rsplit(".", 1)[0]
        assert layer in wrapped or m["name"] in (
            "scenario.attempts_per_scenario", "autodiff.tape_nodes",
            "trace.overhead_s"), m["name"]


@pytest.fixture
def small(monkeypatch):
    for name, value in (("GEN_COUNT", 12), ("TRAIN_COUNT", 16),
                        ("TRAIN_EPOCHS", 1), ("FIT_COUNT", 8),
                        ("EVAL_COUNT", 24)):
        monkeypatch.setattr(run, name, value)
    monkeypatch.syspath_prepend(str(run.SRC))
    work = BENCH / ".work" / "selftest"
    yield work
    shutil.rmtree(work, ignore_errors=True)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_across_traced_runs(small, workload):
    names = [m["name"] for m in run.load_metrics()["per_layer"]]
    results = []
    for attempt in range(2):
        metrics, ops, lines = run.run_workload(workload, 3, 0.0, True,
                                               small / f"{workload}{attempt}")
        assert ops and all(ok for _, ok, _ in ops), lines
        assert sorted(metrics) == sorted(names)
        results.append(metrics)
    for name in REPEATED_COUNTS:
        assert results[0][name] == results[1][name], name
    calls = [n for n in names if n.endswith(".calls")]
    assert [results[0][n] for n in calls] == [results[1][n] for n in calls]
    assert results[0]["cli.main.self_s"][0] > 0
    assert all(results[0][name][0] > 0 for name in OCCURS[workload])
    if workload != "train":
        assert results[0]["autodiff.Tape.backward.calls"][0] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gen",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
