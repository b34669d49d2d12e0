"""Scenario synthesis: environments, accident templates, records, validation."""

from .records import (
    BEHAVIOR_LABELS,
    EgoCamera,
    EnvironmentProfile,
    ScenarioRecord,
    read_dataset,
    record_from_json,
    record_to_json,
    scene_label,
)
from .presets import TEMPLATES, AccidentTemplate, RoleSpec, preset_graph
from .generate import (
    DEFAULT_ENV_DISTS,
    ConstraintUnsatisfiableError,
    GenerationError,
    GenMeta,
    ValidationReport,
    generate_dataset,
    generate_one,
    sample_environment,
    validate_scenario,
)

__all__ = [
    "BEHAVIOR_LABELS",
    "EgoCamera",
    "EnvironmentProfile",
    "ScenarioRecord",
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
