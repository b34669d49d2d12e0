"""Output checks for the benchmark's commands.

Each function returns a list of ``(name, ok, detail)`` rows; every row is
one operation of the run, and a row with ``ok`` false is one failed
operation. The checks read the outputs with the program's own readers, so
they import crashcast; run.py puts the checkout's ``src`` on the path first.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from crashcast import autodiff as ad
from crashcast.riskmodel import ModelConfig, ModelParams
from crashcast.scenario import read_dataset, record_from_json, record_to_json
from crashcast.util import sha256_file

# The manifest's wall-clock fields differ between any two runs.
_CLOCK_FIELDS = ("started_at", "finished_at")


def _row(name, ok, detail=""):
    return (name, bool(ok), "" if ok else detail)


def exit_code(result: dict) -> list:
    return [_row("exit code 0", result.get("exit") == 0,
                 f"exit {result.get('exit')}: {result.get('stderr', '')[-300:]}")]


def manifests(rep: Path) -> list:
    rows = []
    for path in sorted(rep.glob("*.manifest.json")):
        outputs = json.loads(path.read_text(encoding="utf-8"))["outputs"]
        bad = [p for p, h in outputs.items() if sha256_file(str(rep / p)) != h]
        rows.append(_row(f"{path.name} hashes match", not bad, f"mismatch: {bad}"))
    return rows


def gen_outputs(rep: Path, count: int, positive_ratio: float) -> list:
    lines = (rep / "data.jsonl").read_text(encoding="utf-8").splitlines()
    records = read_dataset(str(rep / "data.jsonl"))
    n_pos = sum(1 for r in records if r.positive)
    want_pos = int(round(count * positive_ratio))
    bad = [i for i, line in enumerate(lines)
           if record_to_json(record_from_json(line)) != line]
    return [
        _row("record count", len(records) == count == len(lines),
             f"{len(records)} records, {len(lines)} lines, want {count}"),
        _row("positive count", n_pos == want_pos, f"{n_pos}, want {want_pos}"),
        _row("records round-trip", not bad, f"lines {bad[:5]} differ"),
    ] + manifests(rep)


def train_outputs(rep: Path, steps: int) -> tuple[list, float]:
    """Checks the log and the checkpoint; returns the rows and the last
    step's loss."""
    log = [line.split(",") for line in
           (rep / "ckpt.bin.log.csv").read_text(encoding="utf-8").splitlines()[1:]]
    train = [r for r in log if r[2] == "train"]
    numbered = [int(r[0]) for r in train] == list(range(1, steps + 1))
    finite = all(math.isfinite(float(v)) for r in train for v in r[3:])
    final = float(train[-1][6]) if train else math.nan
    rows = [_row("one finite log row per step", numbered and finite,
                 f"{len(train)} rows, want {steps}; finite={finite}")]
    try:
        sidecar = json.loads((rep / "ckpt.bin.json").read_text(encoding="utf-8"))
        cfg = ModelConfig.from_dict(sidecar["model"])
        params = ModelParams.init(cfg, np.random.default_rng(0))
        params.load_state_dict(ad.load_checkpoint(str(rep / "ckpt.bin")))
        fits = ""
    except (OSError, KeyError, ValueError) as exc:
        fits = f"{type(exc).__name__}: {exc}"
    rows.append(_row("checkpoint fits its sidecar", not fits, fits))
    return rows + manifests(rep), final


def eval_outputs(rep: Path, frames_by_video: dict) -> tuple[list, dict]:
    report = json.loads((rep / "report.json").read_text(encoding="utf-8"))
    lines = (rep / "report.json.curves.csv").read_text(encoding="utf-8").splitlines()
    cells = [line.split(",") for line in lines[1:]]
    values = [float(c[2]) for c in cells]
    want = [(vid, str(t + 1)) for vid, n in frames_by_video.items() for t in range(n)]
    rows = [
        _row("AP in [0, 1]", 0.0 <= report["ap"] <= 1.0, f"AP {report['ap']}"),
        _row("mTTA >= 0", report["mtta"] >= 0.0, f"mTTA {report['mtta']}"),
        _row("curve values in [0, 1]", all(0.0 <= v <= 1.0 for v in values),
             f"range {min(values, default=None)}..{max(values, default=None)}"),
        _row("one curve row per frame", [(c[0], c[1]) for c in cells] == want,
             f"{len(cells)} rows, want {len(want)}"),
    ]
    return rows + manifests(rep), report


def _comparable(path: Path) -> bytes:
    data = path.read_bytes()
    if not path.name.endswith(".manifest.json"):
        return data
    manifest = json.loads(data)
    for key in _CLOCK_FIELDS:
        manifest.pop(key, None)
    return json.dumps(manifest, sort_keys=True).encode()


def same_outputs(name: str, rep: Path, first: Path) -> list:
    """Every output of ``rep`` equals that of ``first`` byte for byte, except
    for the manifests' wall-clock fields."""
    files = sorted(p.name for p in rep.iterdir())
    differ = [f for f in files
              if not (first / f).is_file()
              or _comparable(rep / f) != _comparable(first / f)]
    ok = files == sorted(p.name for p in first.iterdir()) and not differ
    return [_row(name, ok, f"files {files}; differing {differ}")]


def reference(workload: str, ref: dict, rep: Path, final_loss=None,
              report=None) -> list:
    """Compare with the values recorded for the reference seed."""
    tol = ref["tolerance"]
    want = ref[workload]
    if workload == "gen":
        got = sha256_file(str(rep / "data.jsonl"))
        return [_row("gen output sha256 as recorded", got == want["data_sha256"],
                     f"{got} != {want['data_sha256']}")]
    if workload == "train":
        diff = abs(final_loss - want["final_loss"])
        return [_row("final loss as recorded",
                     diff <= tol["final_loss_rel"] * abs(want["final_loss"]),
                     f"{final_loss!r} vs {want['final_loss']!r}")]
    return [
        _row("AP as recorded", abs(report["ap"] - want["ap"]) <= tol["ap_abs"],
             f"{report['ap']!r} vs {want['ap']!r}"),
        _row("mTTA as recorded",
             abs(report["mtta"] - want["mtta"]) <= tol["mtta_abs"],
             f"{report['mtta']!r} vs {want['mtta']!r}"),
    ]
