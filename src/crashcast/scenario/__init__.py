"""Scenario synthesis: environments, accident templates, records, validation.

The package itself is the record layer: importing it loads only
``records``, so a reader of records (train, eval) never imports the road
network or traffic layers. The synthesis names live in the submodules
``presets`` (templates, preset maps) and ``generate`` (``generate_one``,
``generate_dataset``, ``validate_scenario``); import them from there.
"""

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
]
