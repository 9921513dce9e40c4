"""A run's settings: ``RunConfig`` and the variants it chooses between."""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

__all__ = ["Variant", "ConfigError", "RunConfig"]


class Variant(str, Enum):
    DUAL_GRAPH = "dualgraph"
    OUTLINE_ONLY = "outline-only"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    max_iter: int = 5
    og_query_budget: int = 10
    kg_query_budget: int = 10  # doubles as CHAIN_NUM
    urls_per_query: int = 5
    early_stop_thresholds: float = 75.0  # the bar each of the six judge scores must reach
    seed: int = 0
    variant: Variant = Variant.DUAL_GRAPH
    embed_dim: int = 32

    def __post_init__(self) -> None:
        try:
            self.variant = Variant(self.variant)
        except (ValueError, TypeError):
            raise ConfigError(f"unknown variant {self.variant!r}") from None
        for f in fields(self):  # f.type is the annotation's text
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        positive = ("max_iter", "og_query_budget", "kg_query_budget", "urls_per_query", "embed_dim")
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        bar = self.early_stop_thresholds
        if isinstance(bar, bool) or not isinstance(bar, (int, float)) or not 0 <= bar <= 100:
            raise ConfigError(f"early_stop_thresholds={bar!r} is not a number in 0..100")
        self.early_stop_thresholds = float(bar)  # NaN fails the range test above

    def to_dict(self) -> dict:
        doc = {name: getattr(self, name) for name in self.__dataclass_fields__}
        doc["variant"] = self.variant.value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)
