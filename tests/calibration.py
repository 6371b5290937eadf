"""Reference classification table for self-checking.

Twenty-three repository report sentences with known-good tiers and counts.
The structured rows are parsed out of the sentences at import time, so the
sentences are the single source of truth; the test suite replays them
through classify() and render_report_line() to guard the fixed thresholds
and the report template. Changing the thresholds in maturity.py without
re-establishing full agreement here is an error.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone

from repoharvest.github import RepoMetrics

#: fetched_at stamped onto metrics built from this table (arbitrary, fixed).
CALIBRATION_TIME = datetime(2024, 1, 1, tzinfo=timezone.utc)

_REFERENCE_LINES = (
    "The project 'CPath_Survey' has a maturity level of Low. It has 0 stars, 0 forks, 0 open issues, and 1 contributors.",
    "The project 'smm4h_2021_classification' has a maturity level of Low. It has 4 stars, 2 forks, 1 open issues, and 2 contributors.",
    "The project 'Clinical-Longformer' has a maturity level of Medium. It has 52 stars, 9 forks, 2 open issues, and 2 contributors.",
    "The project 'PyTrial' has a maturity level of Medium. It has 62 stars, 9 forks, 3 open issues, and 2 contributors.",
    "The project 'Trial2Vec' has a maturity level of Low. It has 16 stars, 3 forks, 3 open issues, and 1 contributors.",
    "The project 'oncoEnrichR' has a maturity level of Medium. It has 48 stars, 10 forks, 2 open issues, and 2 contributors.",
    "The project 'ezcox' has a maturity level of Low. It has 20 stars, 2 forks, 0 open issues, and 2 contributors.",
    "The project 'CIR' has a maturity level of Low. It has 21 stars, 6 forks, 0 open issues, and 3 contributors.",
    "The project 'BioSentVec' has a maturity level of High. It has 546 stars, 93 forks, 13 open issues, and 4 contributors.",
    "The project 'long-biomedical-model' has a maturity level of Low. It has 3 stars, 1 forks, 0 open issues, and 3 contributors.",
    "The project 'ConvolutionMedicalNer' has a maturity level of Low. It has 11 stars, 9 forks, 1 open issues, and 1 contributors.",
    "The project 'multimodal_fairness' has a maturity level of Low. It has 10 stars, 2 forks, 14 open issues, and 11 contributors.",
    "The project 'mmc-amd' has a maturity level of Low. It has 14 stars, 7 forks, 1 open issues, and 2 contributors.",
    "The project 'ClinGen' has a maturity level of Low. It has 26 stars, 1 forks, 0 open issues, and 1 contributors.",
    "The project 'CDO' has a maturity level of Medium. It has 52 stars, 7 forks, 8 open issues, and 1 contributors.",
    "The project 'KAMP-Net' has a maturity level of Low. It has 12 stars, 6 forks, 0 open issues, and 2 contributors.",
    "The project 'ISeeU' has a maturity level of Low. It has 25 stars, 8 forks, 0 open issues, and 1 contributors.",
    "The project 'ClinicalTransformerRelationExtraction' has a maturity level of High. It has 116 stars, 23 forks, 11 open issues, and 1 contributors.",
    "The project 'ClinicalNMT' has a maturity level of Low. It has 0 stars, 0 forks, 0 open issues, and 1 contributors.",
    "The project 'ADRnet' has a maturity level of Low. It has 1 stars, 0 forks, 0 open issues, and 1 contributors.",
    "The project 'longitudinal-pooling' has a maturity level of Low. It has 5 stars, 1 forks, 0 open issues, and 1 contributors.",
    "The project 'spm_superres' has a maturity level of Low. It has 14 stars, 4 forks, 0 open issues, and 2 contributors.",
    "The project 'clinic-lens' has a maturity level of Low. It has 0 stars, 0 forks, 0 open issues, and 1 contributors.",
)

_LINE_SHAPE = re.compile(
    r"^The project '(?P<name>[^']+)' has a maturity level of "
    r"(?P<tier>Low|Medium|High)\. It has (?P<stars>\d+) stars, "
    r"(?P<forks>\d+) forks, (?P<issues>\d+) open issues, "
    r"and (?P<contributors>\d+) contributors\.$"
)


@dataclass(frozen=True)
class CalibrationRow:
    """One reference row: the snapshot, expected tier, and the exact sentence."""

    metrics: RepoMetrics
    expected_tier: str
    expected_line: str

    @property
    def name(self) -> str:
        return self.metrics.name


def _parse_row(line: str) -> CalibrationRow:
    match = _LINE_SHAPE.match(line)
    if match is None:
        raise ValueError(f"unparseable reference line: {line!r}")
    metrics = RepoMetrics(
        name=match.group("name"),
        description=None,
        stars=int(match.group("stars")),
        forks=int(match.group("forks")),
        open_issues=int(match.group("issues")),
        contributors=int(match.group("contributors")),
        fetched_at=CALIBRATION_TIME,
    )
    return CalibrationRow(metrics, match.group("tier"), line)


REFERENCE_ROWS: tuple[CalibrationRow, ...] = tuple(
    _parse_row(line) for line in _REFERENCE_LINES
)

