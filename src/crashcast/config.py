"""The settings of a model and of its training, and the error of a run that
diverges: what the command line reads before any command runs. It imports
only numpy, so the command line loads the model path only in train and
eval; riskmodel and traineval re-export these names."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Shape of a trained model and of the features it reads."""

    feature_dim: int = 32
    max_objects: int = 19

    def __post_init__(self):
        if self.feature_dim < 2 or self.feature_dim % 2:
            raise ValueError("feature_dim must be even and >= 2")
        if self.max_objects < 1:
            raise ValueError("max_objects must be >= 1")

    @property
    def hidden_dim(self) -> int:
        return 2 * self.feature_dim

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """ModelConfig(**d); the benchmark harness reads sidecars with it."""
        return cls(**d)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be a finite number >= 0, "
                             f"got {self.learning_rate!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
