"""Repository maturity grading.

Grades an engagement snapshot with one of three labels, lowest first:
"Low", "Medium" and "High", by one fixed rule: two star thresholds,
calibrated so the rule agrees with every row of the reference table in
tests/calibration.py; the test suite verifies that agreement. Forks,
issues, and contributor counts ride along in the report but do not move
the grade.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .github import RepoMetrics

#: The grades, lowest first.
TIERS = ("Low", "Medium", "High")

#: Star thresholds of the Medium and High tiers. The reference table in
#: tests/calibration.py holds only for a Medium threshold of 27-48 and a
#: High one of 63-116; the test suite checks these against it.
MEDIUM_MIN_STARS = 30
HIGH_MIN_STARS = 100


def classify(metrics: "RepoMetrics") -> str:
    """Grade one snapshot: a label of TIERS. Deterministic and monotone in stars."""
    low, medium, high = TIERS
    if metrics.stars >= HIGH_MIN_STARS:
        return high
    if metrics.stars >= MEDIUM_MIN_STARS:
        return medium
    return low
