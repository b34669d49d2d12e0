"""Per-layer tracing for the crashcast benchmark, applied from outside.

The crashcast modules import functions by name (``from .features import
build_features``), so a function is wrapped at the module attribute where
its caller looks it up, not where it is defined. Each call of a wrapped
function records one span: name, start, end and the span that was open when
it began. Spans stay in memory; ``aggregate`` turns them into inclusive
seconds (``.s``), self seconds (``.self_s``: ``.s`` minus the time covered by
wrapped children) and call counts (``.calls``).

A site that no longer exists is skipped and listed in ``Recorder.missing``,
so a refactor that moves a function reads as zero calls there instead of
breaking the run. A function that calls itself through its wrapper would be
counted twice in ``.s``; none of the wrapped functions does.
"""

from __future__ import annotations

import functools
import importlib
import time

# (layer name, module, attribute path), one row per place a caller looks the
# function up. roadnet.shortest_path has two callers, so two rows.
SITES = (
    ("cli.main", "crashcast.cli", "main"),
    ("scenario.generate_one", "crashcast.cli", "generate_one"),
    ("scenario.validate_scenario", "crashcast.scenario.generate", "validate_scenario"),
    ("trafficgen.deconflict", "crashcast.scenario.generate", "deconflict"),
    ("trafficgen.sample_trajectory", "crashcast.scenario.generate", "sample_trajectory"),
    ("trafficgen.build_trips", "crashcast.scenario.generate", "build_trips"),
    ("roadnet.shortest_path", "crashcast.scenario.generate", "shortest_path"),
    ("roadnet.shortest_path", "crashcast.trafficgen", "shortest_path"),
    ("roadnet.classify_terminals", "crashcast.scenario.generate", "classify_terminals"),
    ("records.record_to_json", "crashcast.cli", "record_to_json"),
    ("records.read_dataset", "crashcast.cli", "read_dataset"),
    ("features.build_features", "crashcast.traineval", "build_features"),
    ("features.edge_weight_stack", "crashcast.riskmodel", "edge_weight_stack"),
    ("features.gated_fuse", "crashcast.riskmodel", "gated_fuse"),
    ("riskmodel.forward", "crashcast.traineval", "forward"),
    ("riskmodel.gcn_layer", "crashcast.riskmodel", "gcn_layer"),
    ("autodiff.Tape.backward", "crashcast.autodiff", "Tape.backward"),
    ("autodiff.gru_cell", "crashcast.autodiff", "gru_cell"),
    ("autodiff.causal_dilated_conv1d", "crashcast.autodiff", "causal_dilated_conv1d"),
    ("autodiff.save_checkpoint", "crashcast.autodiff", "save_checkpoint"),
    ("autodiff.load_checkpoint", "crashcast.autodiff", "load_checkpoint"),
    ("losses.frame_loss", "crashcast.traineval", "frame_loss"),
    ("losses.video_loss", "crashcast.traineval", "video_loss"),
    ("losses.align_loss", "crashcast.traineval", "align_loss"),
    ("traineval.Adam.step", "crashcast.traineval", "Adam.step"),
    ("traineval.clip_gradients", "crashcast.traineval", "clip_gradients"),
    ("traineval.train", "crashcast.cli", "train"),
    ("traineval.risk_curves", "crashcast.traineval", "risk_curves"),
    ("traineval.evaluate", "crashcast.cli", "evaluate"),
    ("traineval.mtta", "crashcast.traineval", "mtta"),
    ("traineval.trigger_frame", "crashcast.traineval", "trigger_frame"),
    ("util.atomic_write_text", "crashcast.cli", "atomic_write_text"),
    ("util.sha256_file", "crashcast.cli", "sha256_file"),
)

ROOT = "cli.main"


class Recorder:
    """Collects spans from the functions it wraps. Single-threaded: the
    benchmark runs every command with ``--jobs 1``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.tape_nodes: list[int] = []  # len(tape) at each backward
        self.missing: list[str] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return wrapper

    def install(self, sites=SITES) -> None:
        for name, module_name, attr in sites:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if name == "autodiff.Tape.backward":
                fn = self._counting_tape_nodes(fn)
            setattr(owner, leaf, self.wrap(name, fn))

    def _counting_tape_nodes(self, backward):
        nodes = self.tape_nodes

        @functools.wraps(backward)
        def counted(tape, *args, **kwargs):
            nodes.append(len(tape))
            return backward(tape, *args, **kwargs)

        return counted


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per layer name: inclusive seconds ``s``, self seconds ``self_s`` (the
    span's duration minus the durations of its direct child spans) and
    ``calls``. Over a whole run the self times add up to the root's ``s``."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += end - start
        row["self_s"] += end - start - covered[i]
        row["calls"] += 1
    return out


def layer_metrics(layers: dict, tape_nodes, names) -> dict[str, float]:
    """The per-layer metrics in ``names`` from aggregated spans. A layer that
    never ran reads 0; so does the attempts ratio when no scenario was made."""
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0}
    out = {}
    for name in names:
        if name == "scenario.attempts_per_scenario":
            made = layers.get("scenario.generate_one", zero)["calls"]
            tried = layers.get("scenario.validate_scenario", zero)["calls"]
            out[name] = tried / made if made else 0.0
        elif name == "autodiff.tape_nodes":
            out[name] = max(tape_nodes, default=0)
        else:
            layer, field = name.rsplit(".", 1)
            if field in zero:
                out[name] = layers.get(layer, zero)[field]
    return out
