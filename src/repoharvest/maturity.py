"""Repository maturity grading.

Maps an engagement snapshot onto an ordered Low/Medium/High tier. The
default star thresholds are calibrated so the rule agrees with every row of
the reference table in calibration.py; the `selfcheck` CLI subcommand
verifies that agreement. Forks, issues, and
contributor counts ride along in the report but do not move the tier;
TierRule is just the two star thresholds.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .github import RepoMetrics


class MaturityTier(enum.IntEnum):
    """Ordered maturity grade: LOW < MEDIUM < HIGH."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    def __str__(self) -> str:
        return self.name.capitalize()

    @classmethod
    def from_label(cls, label: str) -> "MaturityTier":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown maturity tier {label!r}") from None


@dataclass(frozen=True)
class TierRule:
    """Star thresholds separating the Medium and High tiers."""

    medium_min_stars: int = 30
    high_min_stars: int = 100

    def __post_init__(self) -> None:
        if self.medium_min_stars <= 0:
            raise ValueError("medium_min_stars must be positive")
        if self.medium_min_stars >= self.high_min_stars:
            raise ValueError("medium_min_stars must be below high_min_stars")


#: Thresholds used when no rule is supplied; validated against the
#: calibration table by the test suite and `selfcheck`.
DEFAULT_RULE = TierRule()


def classify(metrics: "RepoMetrics", rule: TierRule = DEFAULT_RULE) -> MaturityTier:
    """Grade one snapshot. Deterministic and monotone in stars."""
    if metrics.stars >= rule.high_min_stars:
        return MaturityTier.HIGH
    if metrics.stars >= rule.medium_min_stars:
        return MaturityTier.MEDIUM
    return MaturityTier.LOW

