"""Scenario synthesis: environments, accident templates, records, validation.

Only the record layer loads with the package. The synthesis names, from
``presets`` and ``generate``, load on first access (PEP 562), so a reader of
records (train, eval) never imports the road network or traffic layers.
"""

import importlib

from .records import (
    BEHAVIOR_LABELS,
    EgoCamera,
    EnvironmentProfile,
    ScenarioRecord,
    iter_dataset,
    read_dataset,
    record_from_json,
    record_to_json,
    scene_label,
)

# synthesis name -> the submodule that defines it
_LAZY = {
    **dict.fromkeys(("TEMPLATES", "AccidentTemplate", "RoleSpec",
                     "preset_graph"), "presets"),
    **dict.fromkeys(("DEFAULT_ENV_DISTS", "ConstraintUnsatisfiableError",
                     "GenerationError", "GenMeta", "ValidationReport",
                     "generate_dataset", "generate_one", "sample_environment",
                     "validate_scenario"), "generate"),
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "BEHAVIOR_LABELS",
    "EgoCamera",
    "EnvironmentProfile",
    "ScenarioRecord",
    "iter_dataset",
    "read_dataset",
    "record_from_json",
    "record_to_json",
    "scene_label",
    "TEMPLATES",
    "AccidentTemplate",
    "RoleSpec",
    "preset_graph",
    "DEFAULT_ENV_DISTS",
    "ConstraintUnsatisfiableError",
    "GenerationError",
    "GenMeta",
    "ValidationReport",
    "generate_dataset",
    "generate_one",
    "sample_environment",
    "validate_scenario",
]
