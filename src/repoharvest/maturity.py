"""Repository maturity grading.

Maps an engagement snapshot onto an ordered Low/Medium/High tier by one
fixed rule: two star thresholds, calibrated so the rule agrees with every
row of the reference table in tests/calibration.py; the test suite
verifies that agreement. Forks, issues, and contributor counts ride along
in the report but do not move the tier.
"""
from __future__ import annotations

import enum
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


#: Star thresholds of the Medium and High tiers. The reference table in
#: tests/calibration.py holds only for a Medium threshold of 27-48 and a
#: High one of 63-116; the test suite checks these against it.
MEDIUM_MIN_STARS = 30
HIGH_MIN_STARS = 100


def classify(metrics: "RepoMetrics") -> MaturityTier:
    """Grade one snapshot. Deterministic and monotone in stars."""
    if metrics.stars >= HIGH_MIN_STARS:
        return MaturityTier.HIGH
    if metrics.stars >= MEDIUM_MIN_STARS:
        return MaturityTier.MEDIUM
    return MaturityTier.LOW
