"""The benchmark's per-layer tracing wraps crashcast functions at the module
attribute where their callers look them up (perfbench/tracer.py, SITES). A
site that no longer exists is skipped there and its metrics read 0, so a
rename would go unnoticed; this test names it instead."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# gru_cell became the test oracle when the GRU was fused into gru_sequence;
# mtta and trigger_frame were folded into report_from_curves, and their
# tracer sites are not yet pointed there
KNOWN_MISSING = {"crashcast.autodiff.gru_cell", "crashcast.traineval.mtta",
                 "crashcast.traineval.trigger_frame"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_exists():
    missing = set()
    for _, module_name, attr in _load_tracer().SITES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.add(f"{module_name}.{attr}")
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)


def test_command_line_sites_are_called_by_the_commands(tmp_path, monkeypatch):
    # a site that exists but that the commands no longer call through (say,
    # a lazy import that binds the function elsewhere, or a layer that
    # calls its helper under another name) reads 0 calls without an error
    from crashcast import cli

    tracer = _load_tracer()
    recorder = tracer.Recorder()
    wrapped = []
    for _, module_name, attr in tracer.SITES:
        site = f"{module_name}.{attr}"
        if site in KNOWN_MISSING:
            continue
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, leaf, recorder.wrap(site, getattr(owner, leaf)))
        wrapped.append(site)
    assert "crashcast.autodiff.Tape.backward" in wrapped
    data, ckpt = tmp_path / "d.jsonl", tmp_path / "m.bin"
    assert cli.main(["gen-data", "--count", "4", "--out", str(data)]) == 0
    assert cli.main(["train", "--data", str(data), "--epochs", "1",
                     "--feature-dim", "8", "--max-objects", "4",
                     "--out", str(ckpt)]) == 0
    assert cli.main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "r.json")]) == 0
    called = tracer.aggregate(recorder.spans)  # a site never called has no row
    assert sorted(called) == sorted(wrapped), sorted(set(wrapped) - set(called))
