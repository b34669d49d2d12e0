"""The benchmark's per-layer tracing wraps crashcast functions at the module
attribute where their callers look them up (perfbench/tracer.py, SITES). A
site that no longer exists is skipped there and its metrics read 0, so a
rename would go unnoticed; this test names it instead."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# gru_cell became the test oracle when the GRU was fused into gru_sequence
KNOWN_MISSING = {"crashcast.autodiff.gru_cell"}


def _load_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


def test_every_traced_site_exists():
    missing = set()
    for _, module_name, attr in _load_sites():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.add(f"{module_name}.{attr}")
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)
