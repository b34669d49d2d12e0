"""Command-line front end: dataset generation, training, and evaluation.

Config resolution order is defaults < CRASHCAST_SEED (default seed only)
< JSON config file (keys mirror flag names, dashes as underscores) < flags.
Every run writes a manifest next to its primary output recording the command,
the resolved config, input hashes (taken before processing), and output
hashes, so a run can be reproduced bit for bit.

Exit codes: 0 success, 2 usage/config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import autodiff as ad
from .riskmodel import ModelConfig, ModelParams
from .roadnet import NetworkError, parse_network
from .scenario import GenerationError, generate_one, read_dataset, record_to_json
from .traineval import TrainConfig, TrainingDivergedError, evaluate, train
from .util import atomic_write_text, sha256_file, stream_rng


class ConfigError(Exception):
    """Bad flags, config file contents, or input preconditions (exit 2)."""


_GEN_DEFAULTS = {
    "network": None,
    "count": 100,
    "positive_ratio": 0.5,
    "seed": 0,
    "out": None,
    "jobs": 1,
    "force": False,
}

_TRAIN_DEFAULTS = {
    "data": None,
    "val_data": None,
    "out": None,
    "resume": None,
    **dataclasses.asdict(TrainConfig()),
    **ModelConfig().to_dict(),
    "force": False,
}

_EVAL_DEFAULTS = {
    "data": None,
    "checkpoint": None,
    "out": None,
    "curves": None,
    "threshold": 0.5,
    "jobs": 1,
    "force": False,
}

_DEFAULTS = {
    "gen-data": _GEN_DEFAULTS,
    "train": _TRAIN_DEFAULTS,
    "eval": _EVAL_DEFAULTS,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crashcast",
        description="Synthetic accident-anticipation pipeline: generate "
                    "scenario datasets, train the risk model, evaluate it.")
    parser.add_argument("--version", action="version",
                        version=f"crashcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="synthesize a scenario dataset")
    g.add_argument("--network", help="road network file; overrides the "
                                     "preset map for negative scenarios")
    g.add_argument("--count", type=int, help="number of scenarios")
    g.add_argument("--positive-ratio", type=float,
                   help="fraction of accident scenarios, in [0, 1]")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", help="output dataset path (JSON lines)")
    g.add_argument("--jobs", type=int, help="parallel workers; output is "
                                            "identical for any value")
    g.add_argument("--config", help="JSON config file")
    g.add_argument("--force", action="store_true", default=None,
                   help="overwrite existing outputs")

    t = sub.add_parser("train", help="train the risk model on a dataset")
    t.add_argument("--data", help="training dataset (JSON lines)")
    t.add_argument("--val-data", help="optional validation dataset")
    t.add_argument("--epochs", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--out", help="checkpoint path; a config sidecar "
                                 "<out>.json and log <out>.log.csv are "
                                 "written next to it")
    t.add_argument("--resume", help="checkpoint to continue from; its "
                                    "<resume>.json sidecar must match every "
                                    "setting but --epochs, and its "
                                    "<resume>.log.csv log is continued")
    t.add_argument("--learning-rate", type=float)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--feature-dim", type=int)
    t.add_argument("--max-objects", type=int)
    t.add_argument("--config", help="JSON config file")
    t.add_argument("--force", action="store_true", default=None)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--data", help="evaluation dataset (JSON lines)")
    e.add_argument("--checkpoint", help="model checkpoint (expects the "
                                        "<checkpoint>.json sidecar)")
    e.add_argument("--out", help="report JSON path")
    e.add_argument("--curves", help="risk-curve CSV path "
                                    "(default: <out>.curves.csv)")
    e.add_argument("--threshold", type=float,
                   help="trigger threshold in [0, 1]")
    e.add_argument("--jobs", type=int)
    e.add_argument("--config", help="JSON config file")
    e.add_argument("--force", action="store_true", default=None)
    return parser


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults, CRASHCAST_SEED, the config file, and explicit flags."""
    cfg = dict(_DEFAULTS[command])
    env_seed = os.environ.get("CRASHCAST_SEED")
    if env_seed is not None and "seed" in cfg:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(
                f"CRASHCAST_SEED must be an integer, got {env_seed!r}")
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(cfg))
        if unknown:
            raise ConfigError(
                f"unknown config keys for {command}: {', '.join(unknown)}")
        cfg.update(loaded)
    for key in _DEFAULTS[command]:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _require(cfg: dict, key: str, command: str):
    if cfg[key] in (None, ""):
        raise ConfigError(f"{command} requires --{key.replace('_', '-')}")
    return cfg[key]


def _refuse_overwrite(paths, force) -> None:
    for path in paths:
        if path and os.path.exists(path) and not force:
            raise ConfigError(f"refusing to overwrite {path} (pass --force)")


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(out: str, command: str, cfg: dict, inputs: dict,
                    outputs, started: str) -> None:
    manifest = {
        "tool": f"crashcast {__version__}",
        "command": command,
        "config": cfg,
        "inputs": inputs,
        "outputs": {p: sha256_file(p) for p in outputs},
        "started_at": started,
        "finished_at": _utcnow(),
    }
    atomic_write_text(out + ".manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


# ---------------------------------------------------------------------------
# gen-data

def _gen_span(task):
    """Generate a contiguous index span; used by the worker pool, so it must
    stay a module-level function and take plain picklable arguments."""
    seed, count, ratio, network_text, lo, hi = task
    graph = parse_network(network_text) if network_text is not None else None
    return [generate_one(seed, i, count, ratio, graph)[0]
            for i in range(lo, hi)]


def _map_spans(tasks, jobs):
    """Run the span tasks on a process pool, falling back to threads when the
    platform cannot spawn workers. Results keep task order either way, so the
    merged dataset is byte-identical for every jobs value."""
    if jobs <= 1 or len(tasks) <= 1:
        return [_gen_span(t) for t in tasks]
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_gen_span, tasks))
    except (OSError, PermissionError, BrokenProcessPool):
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_gen_span, tasks))


def _run_gen_data(cfg: dict) -> int:
    started = _utcnow()
    out = _require(cfg, "out", "gen-data")
    try:
        count = int(cfg["count"])
        ratio = float(cfg["positive_ratio"])
        seed = int(cfg["seed"])
        jobs = int(cfg["jobs"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad gen-data option: {exc}")
    if count < 1:
        raise ConfigError("--count must be >= 1")
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError("--positive-ratio must lie in [0, 1]")
    if jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    _refuse_overwrite([out], cfg["force"])

    inputs = {}
    network_text = None
    if cfg["network"]:
        if not os.path.isfile(cfg["network"]):
            raise ConfigError(f"network file not found: {cfg['network']}")
        inputs[cfg["network"]] = sha256_file(cfg["network"])
        with open(cfg["network"], encoding="utf-8") as fh:
            network_text = fh.read()
        try:
            parse_network(network_text)
        except NetworkError as exc:
            raise ConfigError(f"cannot parse network file: {exc}")

    span = max(1, -(-count // max(jobs, 1)))
    tasks = [(seed, count, ratio, network_text, lo, min(lo + span, count))
             for lo in range(0, count, span)]
    records = [rec for part in _map_spans(tasks, jobs) for rec in part]

    atomic_write_text(out, "\n".join(record_to_json(r) for r in records) + "\n")
    _write_manifest(out, "gen-data", cfg, inputs, [out], started)
    n_pos = sum(1 for r in records if r.positive)
    print(f"wrote {len(records)} scenarios ({n_pos} positive) to {out}")
    return 0


# ---------------------------------------------------------------------------
# train

def _read_records(path: str, what: str):
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    records = read_dataset(path)
    if not records:
        raise ConfigError(f"{what} is empty: {path}")
    return records


# Keys that sidecars of earlier versions hold, each with the one value those
# versions wrote. Their features section also repeats feature_dim and
# max_objects, which must equal the model's; their loss section also holds
# fps and gamma, which must equal fps and frames; and their epochs_done must
# equal train.epochs.
_RETIRED_KEYS = {
    "model": {"gcn_layers": 2, "tcn_kernel": 3, "scale": 1.0 / 1280.0,
              "tau_text": 0.5, "velocity_sign": "as-printed"},
    "features": {"feature_seed": 0, "noise_sigma": 0.01,
                 "scale": 1.0 / 1280.0, "tau_text": 0.5,
                 "velocity_sign": "as-printed"},
    "train": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "clip_norm": 5.0},
    "loss": {"tau_c": 0.1, "neighbor_mask_radius": 2, "t_pool": None,
             "earliness_units": "seconds"},
}


def _settings(model_cfg: ModelConfig, train_cfg: TrainConfig, frames: int,
              fps: int) -> dict:
    """The settings a resumed run must repeat, by sidecar key: all but the
    epoch count."""
    return {"model.feature_dim": model_cfg.feature_dim,
            "model.max_objects": model_cfg.max_objects,
            "train.learning_rate": train_cfg.learning_rate,
            "train.batch_size": train_cfg.batch_size,
            "train.seed": train_cfg.seed, "frames": frames, "fps": fps}


def _drop_retired(path: str, prefix: str, values: dict, retired: dict) -> None:
    for key, expected in retired.items():
        got = values.pop(key, expected)
        if got != expected:
            raise ConfigError(f"checkpoint sidecar {path}: {prefix}{key} "
                              f"is {got!r}, expected {expected!r}")
    if values:
        raise ConfigError(f"checkpoint sidecar {path}: unknown key "
                          f"{prefix}{min(values)}")


def _read_sidecar(path: str) -> tuple[ModelConfig, dict, int]:
    """The model config, the resume settings and the epoch count from a
    checkpoint's <checkpoint>.json sidecar. A sidecar that cannot be read as
    one, or that holds a retired key at another value than its version
    wrote, is a config error."""
    try:
        with open(path, encoding="utf-8") as fh:
            snap = json.load(fh)
        model, train = snap.pop("model"), snap.pop("train")
        frames, fps = snap.pop("frames"), snap.pop("fps")
        model_cfg = ModelConfig.from_dict(
            {k: model.pop(k) for k in ("feature_dim", "max_objects")})
        train_cfg = TrainConfig(**{k: train.pop(k) for k in (
            "learning_rate", "epochs", "batch_size", "seed")})
        _drop_retired(path, "model.", model, _RETIRED_KEYS["model"])
        _drop_retired(path, "train.", train, _RETIRED_KEYS["train"])
        _drop_retired(path, "features.", snap.pop("features", {}),
                      {**_RETIRED_KEYS["features"], **model_cfg.to_dict()})
        _drop_retired(path, "loss.", snap.pop("loss", {}),
                      {**_RETIRED_KEYS["loss"], "fps": fps, "gamma": frames})
        _drop_retired(path, "", snap, {"epochs_done": train_cfg.epochs})
        return (model_cfg, _settings(model_cfg, train_cfg, frames, fps),
                train_cfg.epochs)
    except KeyError as exc:
        raise ConfigError(f"checkpoint sidecar {path} lacks the {exc} key")
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad checkpoint sidecar {path}: {exc}")


_LOG_HEADER = "step,epoch,split,L1,L2,L3,L"


def _previous_log(path: str, epochs_done: int, step: int) -> list[str]:
    """The body lines of a resumed checkpoint's log. They must cover exactly
    its epochs: an epoch row for each of 0 .. epochs_done - 1 in order, the
    last at the checkpoint's optimizer step and followed only by that
    epoch's validation rows."""
    if not os.path.isfile(path):
        raise ConfigError(f"resume log not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"resume log {path} is not UTF-8: {exc}")
    if not lines or lines[0] != _LOG_HEADER:
        raise ConfigError(f"resume log {path} lacks the {_LOG_HEADER} header")
    rows = [line.split(",") for line in lines[1:]]
    ends = [i for i, row in enumerate(rows) if row[2:3] == ["epoch"]]
    covered = [rows[i][1] for i in ends] == [str(e) for e in range(epochs_done)]
    at_step = not ends or rows[ends[-1]][0] == str(step)
    tail = rows[ends[-1] + 1:] if ends else rows
    only_val = all(row[1:3] == [str(epochs_done - 1), "val"] for row in tail)
    if not (covered and at_step and only_val):
        raise ConfigError(
            f"resume log {path} does not cover exactly the {epochs_done} "
            f"epochs (through step {step}) of its checkpoint")
    return lines[1:]


def _log_lines(rows) -> list[str]:
    """CSV body: the per-step rows, one aggregate row per epoch, and any
    validation rows, grouped in epoch order."""
    lines = []
    for epoch in sorted({r["epoch"] for r in rows}):
        erows = [r for r in rows if r["epoch"] == epoch]
        steps = [r for r in erows if r["split"] == "train"]
        for r in steps:
            lines.append(f"{r['step']},{epoch},train,{_fmt(r['L1'])},"
                         f"{_fmt(r['L2'])},{_fmt(r['L3'])},{_fmt(r['L'])}")
        if steps:
            agg = [float(np.mean([r[k] for r in steps]))
                   for k in ("L1", "L2", "L3", "L")]
            lines.append(f"{steps[-1]['step']},{epoch},epoch,"
                         + ",".join(_fmt(v) for v in agg))
        for r in (r for r in erows if r["split"] == "val"):
            lines.append(f"{r['step']},{epoch},val,{_fmt(r['L1'])},"
                         f"{_fmt(r['L2'])},{_fmt(r['L3'])},{_fmt(r['L'])}")
    return lines


def _run_train(cfg: dict) -> int:
    started = _utcnow()
    data = _require(cfg, "data", "train")
    out = _require(cfg, "out", "train")
    log_path = out + ".log.csv"
    sidecar_path = out + ".json"
    _refuse_overwrite([out, log_path, sidecar_path], cfg["force"])

    inputs = {}
    if os.path.isfile(data):
        inputs[data] = sha256_file(data)
    records = _read_records(data, "dataset")
    frames, fps = records[0].frames, records[0].fps

    val_records = None
    if cfg["val_data"]:
        val_records = _read_records(cfg["val_data"], "validation dataset")
        val_frames, val_fps = val_records[0].frames, val_records[0].fps
        if (val_frames, val_fps) != (frames, fps):
            raise ValueError(
                f"validation dataset {cfg['val_data']}: frames {val_frames} and "
                f"fps {val_fps} differ from the training data's {frames} and {fps}")
        inputs[cfg["val_data"]] = sha256_file(cfg["val_data"])

    try:
        learning_rate = float(cfg["learning_rate"])
        if not 0.0 <= learning_rate < np.inf:
            raise ValueError("--learning-rate must be a finite number >= 0, "
                             f"got {learning_rate}")
        model_cfg = ModelConfig(feature_dim=int(cfg["feature_dim"]),
                                max_objects=int(cfg["max_objects"]))
        train_cfg = TrainConfig(learning_rate=learning_rate,
                                epochs=int(cfg["epochs"]),
                                batch_size=int(cfg["batch_size"]),
                                seed=int(cfg["seed"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train option: {exc}")

    params = ModelParams.init(model_cfg, stream_rng(train_cfg.seed, "init"))
    opt_state = None
    start_epoch = 0
    log_lines: list[str] = []
    if cfg["resume"]:
        resume = cfg["resume"]
        prev_sidecar = resume + ".json"
        prev_log = resume + ".log.csv"
        for path, what in ((resume, "resume checkpoint"),
                           (prev_sidecar, "resume checkpoint config sidecar")):
            if not os.path.isfile(path):
                raise ConfigError(f"{what} not found: {path}")
            inputs[path] = sha256_file(path)
        here = _settings(model_cfg, train_cfg, frames, fps)
        _, settings, start_epoch = _read_sidecar(prev_sidecar)
        for key, there in settings.items():
            if here[key] != there:
                raise ConfigError(
                    f"resume sidecar {prev_sidecar}: {key} is {there!r}, "
                    f"this run has {here[key]!r}; only --epochs may differ")
        # opt.step has a stricter rule of its own, checked below
        resume_state = ad.load_checkpoint(resume, exempt=("opt.step",))
        try:
            params.load_state_dict(resume_state)
        except (KeyError, ValueError) as exc:
            raise ConfigError(
                f"resume checkpoint {resume} does not fit the model: {exc}")
        # what train writes beside the parameters, each at its shape
        shapes = {"meta.epochs_done": (), "opt.step": ()}
        for p in params.parameters():
            shapes[f"opt.m.{p.name}"] = shapes[f"opt.v.{p.name}"] = p.value.shape
        for key, shape in shapes.items():
            if key not in resume_state:
                raise ConfigError(f"resume checkpoint {resume} lacks the "
                                  f"{key} tensor")
            if resume_state[key].shape != shape:
                raise ConfigError(
                    f"resume checkpoint {resume}: {key} has shape "
                    f"{resume_state[key].shape}, expected {shape}")
        done = float(resume_state["meta.epochs_done"])
        if done != start_epoch:
            raise ConfigError(
                f"resume checkpoint {resume}: meta.epochs_done is {done!r}, "
                f"its sidecar {prev_sidecar} has train.epochs {start_epoch}")
        if train_cfg.epochs < start_epoch:
            raise ConfigError(
                f"resume checkpoint {resume} already covers {start_epoch} "
                f"epochs; --epochs must be >= {start_epoch}")
        step = float(resume_state["opt.step"])
        if not (step >= 0 and step.is_integer()):
            raise ConfigError(
                f"resume checkpoint {resume}: opt.step is {step!r}, "
                f"expected a whole number >= 0")
        step = int(step)
        opt_state = {k: resume_state[k] for k in shapes if k.startswith("opt.")}
        log_lines = _previous_log(prev_log, start_epoch, step)
        inputs[prev_log] = sha256_file(prev_log)

    result = train(records, params, model_cfg, train_cfg,
                   val_records=val_records, start_epoch=start_epoch,
                   opt_state=opt_state)

    state = dict(result.params.state_dict())
    state.update(result.opt_state)
    state["meta.epochs_done"] = np.array(float(train_cfg.epochs))
    ad.save_checkpoint(out, state)

    snapshot = {
        "model": model_cfg.to_dict(),
        "train": dataclasses.asdict(train_cfg),
        "frames": frames,
        "fps": fps,
    }
    atomic_write_text(sidecar_path,
                      json.dumps(snapshot, indent=2, sort_keys=True) + "\n")

    log_lines += _log_lines(result.log)
    atomic_write_text(log_path, "\n".join([_LOG_HEADER] + log_lines) + "\n")
    _write_manifest(out, "train", cfg, inputs,
                    [out, sidecar_path, log_path], started)

    ran = train_cfg.epochs - start_epoch
    if ran:
        print(f"trained {ran} epochs on {len(records)} scenarios; "
              f"final loss {result.final_loss:.6f}; checkpoint at {out}")
    else:
        print(f"wrote initial checkpoint (no epochs run) to {out}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _run_eval(cfg: dict) -> int:
    started = _utcnow()
    data = _require(cfg, "data", "eval")
    ckpt = _require(cfg, "checkpoint", "eval")
    out = _require(cfg, "out", "eval")
    curves_path = cfg["curves"] or out + ".curves.csv"
    try:
        threshold = float(cfg["threshold"])
        jobs = int(cfg["jobs"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad eval option: {exc}")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"--threshold must lie in [0, 1], got {threshold}")
    if jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    _refuse_overwrite([out, curves_path], cfg["force"])

    if not os.path.isfile(ckpt):
        raise ConfigError(f"checkpoint not found: {ckpt}")
    sidecar_path = ckpt + ".json"
    if not os.path.isfile(sidecar_path):
        raise ConfigError(f"missing checkpoint config sidecar: {sidecar_path}")
    inputs = {ckpt: sha256_file(ckpt), sidecar_path: sha256_file(sidecar_path)}
    if os.path.isfile(data):
        inputs[data] = sha256_file(data)
    records = _read_records(data, "dataset")

    model_cfg = _read_sidecar(sidecar_path)[0]
    params = ModelParams.init(model_cfg, np.random.default_rng(0))
    state = ad.load_checkpoint(ckpt)
    try:
        params.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"checkpoint does not match its sidecar: {exc}")

    try:
        report, curves = evaluate(records, params, model_cfg,
                                  threshold=threshold, jobs=jobs)
    except ValueError as exc:
        # the flags were checked above, so what is left is the dataset's
        raise ValueError(f"dataset {data}: {exc}") from exc

    atomic_write_text(out, json.dumps(report.to_dict(), indent=2,
                                      sort_keys=True) + "\n")
    lines = ["video_id,frame,u"]
    for i, rec in enumerate(records):
        for t in range(rec.frames):
            lines.append(f"{rec.id},{t + 1},{_fmt(curves[i, t])}")
    atomic_write_text(curves_path, "\n".join(lines) + "\n")
    _write_manifest(out, "eval", cfg, inputs, [out, curves_path], started)
    print(f"AP {report.ap:.4f}, mTTA {report.mtta:.4f} s over "
          f"{len(records)} videos (threshold {threshold})")
    return 0


# ---------------------------------------------------------------------------

_RUNNERS = {"gen-data": _run_gen_data, "train": _run_train, "eval": _run_eval}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _resolve(args.command, args)
        return _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"crashcast: error: {exc}", file=sys.stderr)
        return 2
    except (GenerationError, NetworkError, TrainingDivergedError, OSError,
            ValueError, KeyError) as exc:
        print(f"crashcast: error: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
