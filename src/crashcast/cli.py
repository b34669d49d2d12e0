"""Command-line front end: dataset generation, training, and evaluation.

Config resolution order is defaults < CRASHCAST_SEED (default seed only)
< JSON config file (keys mirror flag names, dashes as underscores) < flags.
Every run writes a manifest next to its primary output recording the command,
the resolved config, input hashes (taken before processing), output hashes
and the BLAS thread count, so a run can be reproduced bit for bit. No output
may be the same file as an input, a directory or a path in no directory, even
with --force; each is refused before any work.

Exit codes: 0 success, 2 usage/config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import BLAS_THREADS, __version__
from .config import ModelConfig, TrainConfig, TrainingDivergedError
from .scenario.records import iter_dataset, read_dataset, record_to_json
from .util import (atomic_write_text, atomic_writer, map_in_order, sha256_file,
                   stream_rng)


class ConfigError(Exception):
    """Bad flags, config file contents, or input preconditions (exit 2)."""


class OptionError(ConfigError):
    """A config key's value the command does not take. main names where the
    value came from: the config file and the key, or the flag."""

    def __init__(self, key: str, text: str):
        super().__init__(f"{key} {text}")
        self.key, self.text = key, text


# Each command's help line and options, in --help order. An option is its
# config key, its default and its help text; its flag is the key with dashes
# for underscores. A False default makes a switch, a None default (a path) a
# string flag, and any other default a flag of its type. --config comes just
# before --force.
_COMMANDS = {
    "gen-data": ("synthesize a scenario dataset", (
        ("network", None, "road network file; overrides the preset map for "
                          "negative scenarios"),
        ("count", 100, "number of scenarios"),
        ("positive_ratio", 0.5, "fraction of accident scenarios, in [0, 1]"),
        ("seed", 0, None),
        ("out", None, "output dataset path (JSON lines)"),
        ("jobs", 1, "parallel workers; output is identical for any value"),
        ("force", False, "overwrite existing outputs"),
    )),
    "train": ("train the risk model on a dataset", (
        ("data", None, "training dataset (JSON lines)"),
        ("val_data", None, "optional validation dataset"),
        ("epochs", TrainConfig.epochs, None),
        ("seed", TrainConfig.seed, None),
        ("out", None, "checkpoint path; a config sidecar <out>.json and log "
                      "<out>.log.csv are written next to it"),
        ("resume", None, "checkpoint to continue from; its <resume>.json "
                         "sidecar must match every setting but --epochs, and "
                         "its <resume>.log.csv log is continued"),
        ("learning_rate", TrainConfig.learning_rate, None),
        ("batch_size", TrainConfig.batch_size, None),
        ("feature_dim", ModelConfig.feature_dim, None),
        ("max_objects", ModelConfig.max_objects, None),
        ("force", False, None),
    )),
    "eval": ("evaluate a checkpoint on a dataset", (
        ("data", None, "evaluation dataset (JSON lines)"),
        ("checkpoint", None, "model checkpoint (expects the <checkpoint>.json "
                             "sidecar)"),
        ("out", None, "report JSON path"),
        ("curves", None, "risk-curve CSV path (default: <out>.curves.csv)"),
        ("threshold", 0.5, "trigger threshold in [0, 1]"),
        ("jobs", 1, "worker processes; output is identical for any value"),
        ("force", False, None),
    )),
}

_DEFAULTS = {command: {key: default for key, default, _ in options}
             for command, (_, options) in _COMMANDS.items()}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crashcast",
        description="Synthetic accident-anticipation pipeline: generate "
                    "scenario datasets, train the risk model, evaluate it.")
    parser.add_argument("--version", action="version",
                        version=f"crashcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for key, default, text in options:
            if key == "force":
                p.add_argument("--config", help="JSON config file")
            if default is False:
                p.add_argument(_flag(key), action="store_true", default=None,
                               help=text)
            elif default is None:
                p.add_argument(_flag(key), help=text)
            else:
                p.add_argument(_flag(key), type=type(default), help=text)
    return parser


def _expected_json_type(value, default) -> str | None:
    """The JSON type a config-file or sidecar value must have, judged by the
    type of its key's default, or None when it has it. Booleans take a
    boolean, integers an integer (not a boolean), floats a finite number,
    sections an object, digests, whose defaults are strings, a string, and
    paths, whose defaults are all null, a string or null."""
    if isinstance(default, bool):
        return None if type(value) is bool else "a JSON boolean"
    if isinstance(default, int):
        return None if type(value) is int else "a JSON integer"
    if isinstance(default, float):
        finite = (type(value) in (int, float)
                  and abs(value) <= sys.float_info.max)
        return None if finite else "a finite JSON number"
    if isinstance(default, dict):
        return None if type(value) is dict else "a JSON object"
    if isinstance(default, str):
        return None if type(value) is str else "a JSON string"
    return None if value is None or type(value) is str else "a JSON string or null"


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object in path. A file that cannot be read, is not JSON
    (however deeply it nests) or holds another value is a config error."""
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")
    if type(loaded) is not dict:
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return loaded


def _check_keys(where: str, values: dict, schema: dict, complete: bool,
                prefix: str = "") -> None:
    """Require the keys of values to be keys of schema (all of them when
    complete), each value of the JSON type that _expected_json_type asks of
    its schema value; a section is checked against its schema alike."""
    missing = sorted(set(schema) - set(values)) if complete else []
    if missing:
        raise ConfigError(f"{where} lacks the {prefix}{missing[0]} key")
    unknown = sorted(set(values) - set(schema))
    if unknown:
        raise ConfigError(f"{where}: unknown key {prefix}{unknown[0]}")
    for key, value in values.items():
        expected = _expected_json_type(value, schema[key])
        if expected:
            raise ConfigError(f"{where}: {prefix}{key} must be {expected}, "
                              f"got {json.dumps(value)}")
        if type(value) is dict:
            _check_keys(where, value, schema[key], complete, f"{prefix}{key}.")


def _resolve(command: str, args: argparse.Namespace) -> tuple[dict, set]:
    """Merge defaults, CRASHCAST_SEED, the config file, and explicit flags;
    also return the keys whose value the config file gave."""
    cfg = dict(_DEFAULTS[command])
    env_seed = os.environ.get("CRASHCAST_SEED")
    if env_seed is not None and "seed" in cfg:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(
                f"CRASHCAST_SEED must be an integer, got {env_seed!r}")
    loaded = {}
    if args.config is not None:
        loaded = _read_json_object(args.config, "config file")
        _check_keys(f"config file {args.config}", loaded, _DEFAULTS[command],
                    complete=False)
        cfg.update(loaded)
    flags = {key for key in _DEFAULTS[command] if getattr(args, key, None) is not None}
    for key in flags:
        cfg[key] = getattr(args, key)
    return cfg, set(loaded) - flags


def _require(cfg: dict, key: str, command: str):
    if cfg[key] in (None, ""):
        raise ConfigError(f"{command} requires {_flag(key)}")
    return cfg[key]


def _check_outputs(outputs, inputs) -> None:
    """Refuse, even with --force and before any work, an output (name,
    path) that no file can be written to (a directory, or a path in no
    directory) or that resolves to an input or to an earlier output."""
    seen = [(name, path) for name, path in inputs if path]
    for name, path in outputs:
        if os.path.isdir(path):
            raise ConfigError(f"{name} {path} is a directory")
        folder = os.path.dirname(path) or os.curdir
        if not os.path.isdir(folder):
            raise ConfigError(f"{name} {path}: no such directory {folder}")
        for other, other_path in seen:
            if os.path.realpath(path) == os.path.realpath(other_path):
                raise ConfigError(f"{name} {path} is the same file as "
                                  f"{other} {other_path}")
        seen.append((name, path))


def _refuse_overwrite(paths, force) -> None:
    for path in paths:
        if path and os.path.exists(path) and not force:
            raise ConfigError(f"refusing to overwrite {path} (pass --force)")


def _input(inputs: dict, path: str, what: str) -> str:
    """path, its sha256 recorded in inputs: the one refusal of a missing
    input (a config error naming it), hashed before any reader opens it."""
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    inputs[path] = sha256_file(path)
    return path


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _manifest_path(out: str) -> str:
    return out + ".manifest.json"


def _write_manifest(out: str, command: str, cfg: dict, inputs: dict,
                    outputs: dict, started: str) -> None:
    """inputs and outputs map each path to its hex sha256: inputs read back
    through sha256_file, outputs as their writers hashed them."""
    manifest = {
        "tool": f"crashcast {__version__}",
        "command": command,
        "config": cfg,
        "inputs": inputs,
        "blas_threads": BLAS_THREADS,
        "outputs": outputs,
        "started_at": started,
        "finished_at": _utcnow(),
    }
    atomic_write_text(_manifest_path(out),
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


# ---------------------------------------------------------------------------
# the two paths, each imported on first use

def _synthesis():
    """The synthesis path's modules, roadnet and scenario.generate (which
    loads presets and trafficgen). The command line imports each path only
    through its loader, this one or _model, and the command that runs the
    path calls it once its flags are checked: a start compiles (where no
    bytecode is cached) and runs only the path its command uses, and a
    forked worker inherits what its parent loaded. Only gen-data calls this
    one, in the parent before any worker starts."""
    from . import roadnet
    from .scenario import generate
    return roadnet, generate


def _model():
    """The model path's modules, autodiff, riskmodel and traineval (which
    load features and losses), loaded as _synthesis says; train and eval
    call it, the latter through _read_checkpoint."""
    from . import autodiff, riskmodel, traineval
    return autodiff, riskmodel, traineval


def generate_one(seed, index, count, positive_ratio, graph=None):
    """scenario.generate.generate_one, looked up on each call (see
    _synthesis)."""
    _, generate = _synthesis()
    return generate.generate_one(seed, index, count, positive_ratio, graph)


def train(records, params, model_cfg, train_cfg, **options):
    """traineval.train, looked up on each call (see _synthesis)."""
    *_, traineval = _model()
    return traineval.train(records, params, model_cfg, train_cfg, **options)


def evaluate(records, params, model_cfg, **options):
    """traineval.evaluate, looked up on each call (see _synthesis)."""
    *_, traineval = _model()
    return traineval.evaluate(records, params, model_cfg, **options)


# ---------------------------------------------------------------------------
# gen-data

# scenarios in one generation span at most: the unit a worker makes and the
# parent writes, so memory does not grow with --count
GEN_SPAN = 16


def _gen_span(task) -> tuple[bytes, int]:
    """The dataset lines of one contiguous index span, each serialized and
    ended by a newline, as UTF-8 bytes, and the span's count of positive
    scenarios. Worker processes run it, so it stays a module-level function
    of one picklable task: (seed, count, ratio, graph, lo, hi), graph the
    parsed --network or None for the preset maps."""
    seed, count, ratio, graph, lo, hi = task
    lines, positives = [], 0
    for i in range(lo, hi):
        record = generate_one(seed, i, count, ratio, graph)[0]
        positives += record.positive
        lines.append(record_to_json(record) + "\n")
    return "".join(lines).encode("utf-8"), positives


def _run_gen_data(cfg: dict) -> int:
    started = _utcnow()
    out = _require(cfg, "out", "gen-data")
    count, seed, jobs = cfg["count"], cfg["seed"], cfg["jobs"]
    ratio = float(cfg["positive_ratio"])
    if count < 1:
        raise OptionError("count", "must be >= 1")
    if not 0.0 <= ratio <= 1.0:
        raise OptionError("positive_ratio", "must lie in [0, 1]")
    if jobs < 1:
        raise OptionError("jobs", "must be >= 1")
    _check_outputs([("--out", out), ("the manifest", _manifest_path(out))],
                      [("--network", cfg["network"])])
    _refuse_overwrite([out], cfg["force"])

    roadnet, generate = _synthesis()
    inputs = {}
    graph = None
    network = cfg["network"]
    if network:
        with open(_input(inputs, network, "network file"), "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"network file {network} is not UTF-8: "
                              f"{exc.reason} at byte {exc.start}")
        try:
            graph = roadnet.parse_network(text)
        except roadnet.NetworkError as exc:
            raise ConfigError(f"cannot parse network file {network}: {exc}")
        try:
            roadnet.classify_terminals(graph)
        except roadnet.EmptyTerminalsError as exc:
            raise ConfigError(f"network file {network} has no trip endpoints: {exc}")

    # spans of at most GEN_SPAN, and no more than ceil(count / jobs), so
    # every worker gets one; drawn as map_in_order needs them, so what is
    # held does not grow with --count
    span = min(GEN_SPAN, -(-count // jobs))
    tasks = ((seed, count, ratio, graph, lo, min(lo + span, count))
             for lo in range(0, count, span))
    n_pos = 0
    try:
        with atomic_writer(out) as fh:
            for lines, positives in map_in_order(_gen_span, tasks, jobs):
                fh.write(lines)
                n_pos += positives
    except (generate.GenerationError, roadnet.NetworkError) as exc:
        raise ValueError(str(exc)) from exc  # a runtime failure (exit 3)
    _write_manifest(out, "gen-data", cfg, inputs, {out: fh.hexdigest()}, started)
    print(f"wrote {count} scenarios ({n_pos} positive) to {out}")
    return 0


# ---------------------------------------------------------------------------
# train

def _read_records(inputs: dict, path: str, what: str):
    records = read_dataset(_input(inputs, path, what))
    if not records:
        raise ConfigError(f"{what} is empty: {path}")
    return records


def _sidecar(model_cfg: ModelConfig, train_cfg: TrainConfig, frames: int,
             fps: int, checkpoint: str = "", log: str = "") -> dict:
    """What _run_train writes to a checkpoint's sidecar: the fields of the
    two configs, the training data's frame count and frame rate, and the
    sha256 of the checkpoint and of the log written with it."""
    return {"model": dataclasses.asdict(model_cfg),
            "train": dataclasses.asdict(train_cfg),
            "frames": frames, "fps": fps,
            "sha256": {"checkpoint": checkpoint, "log": log}}


# the keys and value types a sidecar must hold
_SIDECAR = _sidecar(ModelConfig(), TrainConfig(), 0, 0)


def _flat(sidecar: dict) -> dict:
    """A sidecar's values by dotted key, in its own key order."""
    flat = {}
    for key, value in sidecar.items():
        if type(value) is dict:
            flat.update({f"{key}.{name}": v for name, v in value.items()})
        else:
            flat[key] = value
    return flat


def _read_sidecar(path: str) -> dict:
    """A checkpoint's <checkpoint>.json sidecar. One that does not hold
    exactly the keys train writes, each of its type, is a config error
    naming the key, as is one whose configs are invalid."""
    snap = _read_json_object(path, "checkpoint sidecar")
    _check_keys(f"checkpoint sidecar {path}", snap, _SIDECAR, complete=True)
    try:
        ModelConfig(**snap["model"])
        TrainConfig(**snap["train"])
    except ValueError as exc:
        raise ConfigError(f"bad checkpoint sidecar {path}: {exc}")
    return snap


def _vouched(inputs: dict, path: str, what: str, sidecar: str,
             digest: str) -> None:
    """Refuse an input whose sha256, as _input took it, is not the digest
    its sidecar records for it: a config error naming both files."""
    if inputs[path] != digest:
        raise ConfigError(f"{what} {path} is not the file its sidecar "
                          f"{sidecar} vouches for: its sha256 is "
                          f"{inputs[path]}, the sidecar's {digest}")


def _read_checkpoint(inputs: dict, path: str, what: str, exempt=()):
    """The <path>.json sidecar of a checkpoint, its model config, the model
    that config builds with the checkpoint's parameters, and all the
    checkpoint's tensors (non-finite ones only among exempt, see
    load_checkpoint); both files are inputs. A checkpoint whose sha256 is
    not its sidecar's, or with a parameter missing or of another shape, is a
    config error naming both files. The tensors are read first and the two
    that fix the model's size compared with the config, so a sidecar cannot
    size a model past what the file holds."""
    sidecar = path + ".json"
    _input(inputs, path, what)
    snap = _read_sidecar(_input(inputs, sidecar, f"{what} config sidecar"))
    _vouched(inputs, path, what, sidecar, snap["sha256"]["checkpoint"])
    ad, riskmodel, _ = _model()
    state = ad.load_checkpoint(path, exempt=exempt)
    model_cfg = ModelConfig(**snap["model"])
    try:
        for name, n in (("adj.u", model_cfg.max_objects),
                        ("gcn.psi0", model_cfg.feature_dim)):
            if name not in state:
                raise KeyError(f"checkpoint missing parameter {name!r}")
            if state[name].shape != (n, n):
                raise ValueError(f"{name}: checkpoint shape "
                                 f"{state[name].shape} != {(n, n)}")
        params = riskmodel.ModelParams.init(model_cfg, np.random.default_rng(0))
        params.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{what} {path} does not fit its sidecar "
                          f"{sidecar}: {exc.args[0]}")
    return snap, model_cfg, params, state


_LOG_HEADER = "step,epoch,split,L1,L2,L3,L"


def _previous_log(path: str, epochs_done: int, step: int) -> list[str]:
    """The body lines of a resumed checkpoint's log. They must cover exactly
    its epochs: an epoch row for each of 0 .. epochs_done - 1 in order, the
    last at the checkpoint's optimizer step and followed only by that
    epoch's validation rows."""
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
    resume = cfg["resume"]
    resumed = ([("--resume", resume), ("its sidecar", resume + ".json"),
                ("its log", resume + ".log.csv")] if resume else [])
    _check_outputs(
        [("--out", out), ("the log", log_path), ("the sidecar", sidecar_path),
         ("the manifest", _manifest_path(out))],
        [("--data", data), ("--val-data", cfg["val_data"])] + resumed)
    _refuse_overwrite([out, log_path, sidecar_path], cfg["force"])

    ad, riskmodel, traineval = _model()
    inputs = {}
    records = _read_records(inputs, data, "dataset")
    frames, fps = records[0].frames, records[0].fps

    val_records = None
    if cfg["val_data"]:
        val_records = _read_records(inputs, cfg["val_data"], "validation dataset")
        val_frames, val_fps = val_records[0].frames, val_records[0].fps
        if (val_frames, val_fps) != (frames, fps):
            raise ValueError(
                f"validation dataset {cfg['val_data']}: frames {val_frames} and "
                f"fps {val_fps} differ from the training data's {frames} and {fps}")

    try:
        options = dict(cfg, learning_rate=float(cfg["learning_rate"]))
        model_cfg, train_cfg = (
            c(**{f.name: options[f.name] for f in dataclasses.fields(c)})
            for c in (ModelConfig, TrainConfig))
    except ValueError as exc:
        # ModelConfig and TrainConfig start each message with the field name
        raise OptionError(*str(exc).split(" ", 1))

    opt = None
    start_epoch = 0
    log_lines: list[str] = []
    if resume:
        snap, _, params, state = _read_checkpoint(
            inputs, resume, "resume checkpoint", exempt=("opt.step",))
        snap = _flat(snap)
        start_epoch = snap["train.epochs"]
        for key, here in _flat(_sidecar(model_cfg, train_cfg, frames,
                                        fps)).items():
            if (key != "train.epochs" and not key.startswith("sha256.")
                    and here != snap[key]):
                raise ConfigError(
                    f"resume sidecar {resume}.json: {key} is {snap[key]!r}, "
                    f"this run has {here!r}; only --epochs may differ")
        opt = traineval.Adam(params.parameters(), train_cfg.learning_rate)
        try:
            opt.load_state_dict(state)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"resume checkpoint {resume}: {exc.args[0]}")
        done = state.get("meta.epochs_done")
        if done is None or done.shape != ():
            raise ConfigError(f"resume checkpoint {resume} lacks the "
                              f"meta.epochs_done tensor of shape ()")
        if float(done) != start_epoch:
            raise ConfigError(
                f"resume checkpoint {resume}: meta.epochs_done is "
                f"{float(done)!r}, its sidecar {resume}.json has train.epochs "
                f"{start_epoch}")
        if train_cfg.epochs < start_epoch:
            raise ConfigError(
                f"resume checkpoint {resume} already covers {start_epoch} "
                f"epochs; --epochs must be >= {start_epoch}")
        del state  # copied into params and opt
        old_log = _input(inputs, resume + ".log.csv", "resume log")
        _vouched(inputs, old_log, "resume log", f"{resume}.json",
                 snap["sha256.log"])
        log_lines = _previous_log(old_log, start_epoch, opt.t)
    else:
        params = riskmodel.ModelParams.init(model_cfg,
                                            stream_rng(train_cfg.seed, "init"))

    try:
        result = train(records, params, model_cfg, train_cfg,
                       val_records=val_records, start_epoch=start_epoch,
                       opt=opt)
    except TrainingDivergedError as exc:
        if resume:
            # a finite but huge weight or moment passes every load check
            raise TrainingDivergedError(
                f"resume checkpoint {resume}: {exc}") from exc
        raise

    state = params.state_dict()
    state.update(result.opt_state)
    state["meta.epochs_done"] = np.array(float(train_cfg.epochs))
    outputs = {out: ad.save_checkpoint(out, state)}

    log_lines += _log_lines(result.log)
    outputs[log_path] = atomic_write_text(
        log_path, "\n".join([_LOG_HEADER] + log_lines) + "\n")

    # written last, so it vouches for the two files above by their digests
    outputs[sidecar_path] = atomic_write_text(sidecar_path, json.dumps(
        _sidecar(model_cfg, train_cfg, frames, fps, outputs[out],
                 outputs[log_path]), indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "train", cfg, inputs, outputs, started)

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
    threshold = float(cfg["threshold"])
    jobs = cfg["jobs"]
    if not 0.0 <= threshold <= 1.0:
        raise OptionError("threshold", f"must lie in [0, 1], got {threshold}")
    if jobs < 1:
        raise OptionError("jobs", "must be >= 1")
    sidecar_path = ckpt + ".json"
    _check_outputs(
        [("--out", out), ("the manifest", _manifest_path(out)),
         ("--curves", curves_path)],
        [("--data", data), ("--checkpoint", ckpt), ("its sidecar", sidecar_path)])
    _refuse_overwrite([out, curves_path], cfg["force"])

    inputs = {}
    # the checkpoint's tensors are copied into params and not kept
    _, model_cfg, params = _read_checkpoint(inputs, ckpt, "checkpoint")[:3]
    # the dataset streams through evaluate a chunk at a time; a line that
    # is not a record raises there, and nothing is written before the end
    records = iter_dataset(_input(inputs, data, "dataset"))
    first = next(records, None)
    if first is None:
        raise ConfigError(f"dataset is empty: {data}")

    try:
        report, curves = evaluate(itertools.chain([first], records), params,
                                  model_cfg, threshold=threshold, jobs=jobs)
    except ValueError as exc:
        if str(exc).startswith(f"{data}:"):
            raise  # a bad line, named by its path and line number
        # the flags were checked above, so what is left is the dataset's
        raise ValueError(f"dataset {data}: {exc}") from exc

    outputs = {out: atomic_write_text(out, json.dumps(report, indent=2,
                                                      sort_keys=True) + "\n")}
    # one %-template of a video's rows, the id written in where \0 stands;
    # "%.10g" % u is the text of _fmt(u)
    rows = "".join(f"\0,{t},%.10g\n" for t in range(1, curves.shape[1] + 1))
    with atomic_writer(curves_path) as fh:
        fh.write(b"video_id,frame,u\n")
        for video, curve in zip(report["videos"], curves):
            fh.write((rows.replace("\0", video["id"].replace("%", "%%"))
                      % tuple(curve.tolist())).encode("utf-8"))
    outputs[curves_path] = fh.hexdigest()
    _write_manifest(out, "eval", cfg, inputs, outputs, started)
    print(f"AP {report['ap']:.4f}, mTTA {report['mtta']:.4f} s over "
          f"{len(report['videos'])} videos (threshold {threshold})")
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
        cfg, from_file = _resolve(args.command, args)
        return _RUNNERS[args.command](cfg)
    except OptionError as exc:
        where = (f"config file {args.config}: {exc.key}" if exc.key in from_file
                 else _flag(exc.key))
        print(f"crashcast: error: {where} {exc.text}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"crashcast: error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, OSError, ValueError, KeyError) as exc:
        print(f"crashcast: error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's names the array it could not allocate; a bare one is empty
        detail = f": {exc}" if str(exc) else ""
        print(f"crashcast: error: out of memory{detail}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
