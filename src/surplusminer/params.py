"""The forest and lstm sections of the run config, apart from the model code so
that the commands that fit and load no model read a config without numpy."""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    m_try: int | None = None  # None: max(1, floor(p / 3))
    min_samples_leaf: int = 1
    max_depth: int | None = None
    seed: int = field(default=0, metadata={"config_key": False})  # the run's master seed

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValidationError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.m_try is not None and self.m_try < 1:
            raise ValidationError(f"m_try must be >= 1, got {self.m_try}")
        if self.min_samples_leaf < 1:
            raise ValidationError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValidationError(f"max_depth must be >= 0, got {self.max_depth}")

    def resolved_m_try(self, p: int) -> int:
        m = self.m_try if self.m_try is not None else max(1, p // 3)
        if m > p:
            raise ValidationError(f"m_try={m} exceeds feature count {p}")
        return m


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    window: int = 14
    hidden_size: int = 64
    learning_rate: float = 1e-3
    batch_size: int = 32
    clip_norm: float = 1.0
    seed: int = field(default=0, metadata={"config_key": False})  # the run's master seed

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.window < 1:
            raise ValidationError(f"window must be >= 1, got {self.window}")
        if self.hidden_size < 1:
            raise ValidationError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.clip_norm <= 0:
            raise ValidationError(f"clip_norm must be > 0, got {self.clip_norm}")
