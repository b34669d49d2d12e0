"""Benchmark of the crashcast command line: gen-data, train and eval.

    python3 perfbench/run.py --workload gen --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports crashcast from the
checkout's ``src`` and nowhere else, and fails without printing a result when
``src`` is missing. ``--workload all`` runs the three workloads in turn.

Each command runs through ``crashcast.cli.main(argv)`` in a fresh interpreter
(child.py), one at a time: a closed loop with a single client, ``--jobs 1``
and BLAS pinned to one thread. The benchmark first makes every input itself,
with the program under test and the workload seed (the datasets and, for
eval, a briefly trained checkpoint); that preparation is not timed. It then
repeats the workload's command for ``--seconds`` (at least three times) and
reports medians.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (interpreter start
until ``crashcast.cli`` with numpy and scipy is imported, measured on every
command and on import-only starts), ``ms_per_item`` (the command's wall time
per scenario written, optimizer step or video evaluated) and ``peak_rss_mb``
(the command process's peak resident set). The benchmark pins itself and
its children to one CPU; speedometer.py shares that CPU with each timed
command and samples how fast it runs, and the two times are scaled by it to
a reference speed (see SPEEDOMETER_REF_S). The unscaled medians are printed
beside them.
``--trace 1`` alternates untraced and traced commands and reports the
per-layer metrics of metrics.json (see tracer.py) and the tracing overhead.

Every output check is one operation (checks.py). The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Sizes of one command. Train runs at the CLI's default model shape.
GEN_COUNT = 600
POSITIVE_RATIO = 0.5
TRAIN_COUNT = 128
TRAIN_EPOCHS = 1
BATCH = 8
FIT_COUNT = 48  # training set of the checkpoint that eval reads
FIT_EPOCHS = 1
EVAL_COUNT = 320
FIT_SEED_OFFSET = 1_000_000

MIN_COMMANDS = 3
# Time of speedometer.py's chunk at the reference speed. Each time metric is
# scaled, command by command, by this over the chunk's mean time while the
# setup or the command ran. Changing it rescales every time metric.
SPEEDOMETER_REF_S = 0.0006
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"
# Per workload: the name ms_per_item has there, and its item.
ITEMS = {"gen": ("gen_ms_per_scenario", "scenario"),
         "train": ("train_ms_per_step", "step"),
         "eval": ("eval_ms_per_video", "video")}
WORKLOADS = tuple(ITEMS)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CRASHCAST_SEED", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(mode: str, argv, cwd: Path, env: dict, timed: bool = False) -> dict:
    """Run child.py once; returns its result plus ``exit`` and ``setup_s``,
    and with ``timed`` the speedometer's samples taken while it ran."""
    cwd.mkdir(parents=True, exist_ok=True)
    result_path = cwd.parent / f"{cwd.name}.result.json"
    speed_path = cwd.parent / f"{cwd.name}.speed.json"
    speedometer = None
    try:
        if timed:
            speedometer = subprocess.Popen(
                [sys.executable, str(BENCH / "speedometer.py"), str(speed_path)],
                env=env, stdout=subprocess.PIPE, text=True)
            if speedometer.stdout.readline() != "ready\n":
                raise BenchError("speedometer.py did not start")
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(result_path), mode,
             *map(str, argv)],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"command {argv} ran past {CHILD_TIMEOUT_S} s")
    finally:
        if speedometer is not None:
            speedometer.terminate()
            try:
                speedometer.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                speedometer.kill()
                speedometer.communicate()
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        if timed:
            result["speed"] = json.loads(speed_path.read_text(encoding="utf-8"))
            speed_path.unlink()
    except (OSError, ValueError):
        result = {}
    result["exit"] = proc.returncode
    result["stderr"] = proc.stderr
    if "ready" in result:
        result["setup_s"] = result["ready"] - started
        result["spawned"] = started
        if Path(result["module"]).resolve().parent != SRC / "crashcast":
            raise BenchError(f"crashcast imported from {result['module']}, "
                             f"not from {SRC}")
    return result


def speed(samples, start: float, end: float) -> float:
    """Reference time over the mean time of the speedometer's samples taken
    between start and end (of all of them if none was)."""
    times = [s for t, s in samples if start <= t <= end] or [s for _, s in samples]
    return SPEEDOMETER_REF_S / statistics.mean(times)


def gen_argv(count: int, seed: int, out: str) -> list:
    return ["gen-data", "--count", count, "--positive-ratio", POSITIVE_RATIO,
            "--seed", seed, "--jobs", 1, "--out", out]


def train_argv(data: str, epochs: int, seed: int, out: str) -> list:
    return ["train", "--data", data, "--epochs", epochs, "--seed", seed,
            "--batch-size", BATCH, "--feature-dim", 32, "--max-objects", 19,
            "--out", out]


def prepare(workload: str, seed: int, inputs: Path, env: dict) -> dict:
    """Make the workload's inputs (untimed) and return its command."""
    def run(argv):
        result = spawn("plain", argv, inputs, env)
        if result["exit"] != 0:
            raise BenchError(f"preparing {workload} failed: {argv}: "
                             f"{result['stderr'].strip()[-500:]}")

    if workload == "gen":
        return {"argv": gen_argv(GEN_COUNT, seed, "data.jsonl"),
                "items": GEN_COUNT}
    if workload == "train":
        run(gen_argv(TRAIN_COUNT, seed, "train.jsonl"))
        return {"argv": train_argv("../inputs/train.jsonl", TRAIN_EPOCHS, seed,
                                   "ckpt.bin"),
                "items": TRAIN_EPOCHS * -(-TRAIN_COUNT // BATCH)}
    run(gen_argv(FIT_COUNT, seed + FIT_SEED_OFFSET, "fit.jsonl"))
    run(train_argv("fit.jsonl", FIT_EPOCHS, seed, "ckpt.bin"))
    run(gen_argv(EVAL_COUNT, seed, "eval.jsonl"))
    from crashcast.scenario import read_dataset
    frames = {r.id: r.frames for r in read_dataset(str(inputs / "eval.jsonl"))}
    return {"argv": ["eval", "--data", "../inputs/eval.jsonl", "--checkpoint",
                     "../inputs/ckpt.bin", "--threshold", 0.5, "--jobs", 1,
                     "--out", "report.json"],
            "items": EVAL_COUNT, "frames": frames}


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g}..{q3:.6g}"


class Run:
    """One workload at one seed: prepare, measure, check."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = work
        self.env = child_env()
        self.ops: list = []
        self.first: Path | None = None  # outputs of the first command
        self.lines: list[str] = []
        self.ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        self.spec = prepare(workload, seed, work / "inputs", self.env)
        spawn("probe", [], work / "warmup", self.env)  # fills the file cache

    def command(self, mode: str, name: str, like: Path | None = None,
                timed: bool = False) -> tuple[dict, Path]:
        """Run the workload's command once and check it: the first command in
        full, every later one by comparing its outputs with those of ``like``
        (the first command's unless given)."""
        import checks  # imports crashcast, so only once src is on the path
        rep = self.work / name
        result = spawn(mode, self.spec["argv"], rep, self.env, timed)
        rows = checks.exit_code(result)
        if self.first is None:
            self.first = rep
            if result["exit"] == 0:
                rows += self.full_checks(checks, rep)
        elif result["exit"] == 0:
            rows += checks.same_outputs(
                f"{mode} outputs equal the {'untraced' if like else 'first'} "
                "command's", rep, like or self.first)
        self.checked(rows)
        return result, rep

    def full_checks(self, checks, rep: Path) -> list:
        final_loss = report = None
        if self.workload == "gen":
            rows = checks.gen_outputs(rep, GEN_COUNT, POSITIVE_RATIO)
        elif self.workload == "train":
            rows, final_loss = checks.train_outputs(rep, self.spec["items"])
        else:
            rows, report = checks.eval_outputs(rep, self.spec["frames"])
        if self.seed == self.ref["seed"]:
            rows += checks.reference(self.workload, self.ref, rep, final_loss, report)
        return rows

    def checked(self, rows) -> None:
        self.ops += rows
        for name, ok, detail in rows:
            if not ok:
                self.lines.append(f"check failed: {name}: {detail}")

    def discard(self, rep: Path) -> None:
        if rep != self.first:
            shutil.rmtree(rep)

    def measure(self) -> dict:
        alias, item = ITEMS[self.workload]
        setup, per_item, rss, raw_setup, raw_item = [], [], [], [], []
        started = time.monotonic()
        while len(per_item) < MIN_COMMANDS or time.monotonic() - started < self.seconds:
            i = len(per_item)
            result, rep = self.command("plain", f"rep{i}", timed=True)
            self.discard(rep)
            if result["exit"] != 0:
                break
            samples, start = result["speed"], result["start"]
            raw_setup.append(result["setup_s"])
            raw_item.append(1000.0 * result["cmd_s"] / self.spec["items"])
            setup.append(raw_setup[-1] * speed(samples, result["spawned"],
                                               result["ready"]))
            per_item.append(raw_item[-1] * speed(samples, start,
                                                 start + result["cmd_s"]))
            rss.append(result["peak_rss_kib"] / 1024.0)
        if not per_item:
            return {}
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "ms_per_item": (statistics.median(per_item), "ms"),
                   "peak_rss_mb": (statistics.median(rss), "MiB")}
        self.lines += [
            f"setup_s {metrics['setup_s'][0]:.4f} s (median over interpreter "
            f"starts, {quartiles(setup)}; unscaled "
            f"{statistics.median(raw_setup):.4f} s)",
            f"ms_per_item = {alias} {metrics['ms_per_item'][0]:.4f} ms/{item} "
            f"(median over commands, {quartiles(per_item)}; "
            f"unscaled {statistics.median(raw_item):.4f} ms)",
            f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MiB ({quartiles(rss)})",
        ]
        return metrics

    def trace(self) -> dict:
        units = {m["name"]: m["unit"] for m in load_metrics()["per_layer"]}
        counts = [n for n in units if n.endswith(".calls")
                  or n in ("autodiff.tape_nodes", "scenario.attempts_per_scenario")]
        plain_s, traced_s, samples = [], [], []
        started = time.monotonic()
        while len(samples) < 2 or time.monotonic() - started < self.seconds:
            i = len(samples)
            plain, plain_rep = self.command("plain", f"plain{i}")
            traced, traced_rep = self.command("trace", f"traced{i}", like=plain_rep)
            self.discard(traced_rep)
            self.discard(plain_rep)
            if plain["exit"] != 0 or traced["exit"] != 0:
                break
            layers = traced["layers"]
            self_sum = sum(row["self_s"] for row in layers.values())
            self.checked([(
                "self times add up to the traced wall time",
                abs(self_sum - traced["cmd_s"]) <= 0.01 * traced["cmd_s"],
                f"sum {self_sum:.6f} s, wall {traced['cmd_s']:.6f} s")])
            if traced["missing_sites"] and not samples:
                self.lines.append(f"not wrapped: {traced['missing_sites']}")
            sample = tracer.layer_metrics(layers, traced["tape_nodes"], units)
            if samples:
                differ = [n for n in counts if sample[n] != samples[0][n]]
                self.checked([("counts repeat across traced commands",
                               not differ, f"differ: {differ}")])
            samples.append(sample)
            plain_s.append(plain["cmd_s"])
            traced_s.append(traced["cmd_s"])
        if not samples:
            return {}
        out = {n: (statistics.median(s[n] for s in samples), units[n])
               for n in samples[0]}
        overhead = statistics.median(traced_s) - statistics.median(plain_s)
        out["trace.overhead_s"] = (overhead, "s")
        self.lines.append(
            f"tracing overhead {overhead:.4f} s per command (traced "
            f"{statistics.median(traced_s):.4f} s, untraced "
            f"{statistics.median(plain_s):.4f} s, {len(samples)} pairs)")
        return out


def load_metrics() -> dict:
    return json.loads((BENCH / "metrics.json").read_text(encoding="utf-8"))


def environment(seed: int) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS, "seed": seed, "commit": commit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> tuple[dict, list, list]:
    run = Run(workload, seed, seconds, work)
    metrics = run.trace() if trace else run.measure()
    return metrics, run.ops, run.lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crashcast" / "cli.py").is_file():
        print(f"perfbench: error: no crashcast sources at {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the children are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, ops = {}, []
    try:
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        for workload in workloads:
            got, more, lines = run_workload(workload, args.seed, args.seconds,
                                            bool(args.trace), work / workload)
            ops += more
            print(f"workload {workload}: {len(more)} checks, "
                  f"{sum(not ok for _, ok, _ in more)} failed")
            for line in lines:
                print("  " + line)
            for key, value in got.items():
                if args.workload != "all":
                    metrics[key] = value
                elif key == "ms_per_item":
                    metrics[ITEMS[workload][0]] = value
                else:
                    metrics[f"{workload}.{key}"] = value
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (BENCH / ".work").rmdir()
        except OSError:
            pass
    failed = sum(not ok for _, ok, _ in ops)
    complete = bool(metrics) and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": max(len(ops), 1),
        "failed": failed if ops else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
