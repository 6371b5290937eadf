"""Tier thresholds, ordering, and the bundled calibration table."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import make_metrics
from calibration import REFERENCE_ROWS
from repoharvest.kb import render_report_line
from repoharvest.maturity import TIERS, classify


class TestClassify:
    @pytest.mark.parametrize("stars,expected", [
        (0, "Low"),
        (29, "Low"),
        (30, "Medium"),   # threshold is inclusive
        (99, "Medium"),
        (100, "High"),
        (546, "High"),
    ])
    def test_default_thresholds(self, stars, expected):
        assert classify(make_metrics(stars=stars)) == expected

    def test_reference_examples(self):
        high = make_metrics(name="BioSentVec", stars=546, forks=93,
                            open_issues=13, contributors=4)
        medium = make_metrics(name="Clinical-Longformer", stars=52, forks=9,
                              open_issues=2, contributors=2)
        low = make_metrics(name="CPath_Survey", stars=0, forks=0,
                           open_issues=0, contributors=1)
        assert classify(high) == "High"
        assert classify(medium) == "Medium"
        assert classify(low) == "Low"

    def test_only_stars_matter(self):
        noisy = make_metrics(stars=10, forks=10_000, open_issues=10_000,
                             contributors=10_000)
        assert classify(noisy) == "Low"

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000))
    def test_monotone_in_stars(self, a, b):
        lower, higher = sorted((a, b))
        assert (TIERS.index(classify(make_metrics(stars=lower)))
                <= TIERS.index(classify(make_metrics(stars=higher))))


class TestReferenceTable:
    def test_has_23_rows(self):
        assert len(REFERENCE_ROWS) == 23

    def test_tier_distribution(self):
        tiers = [row.expected_tier for row in REFERENCE_ROWS]
        assert tiers.count("High") >= 1
        assert tiers.count("Medium") >= 3
        assert tiers.count("Low") >= 15

    def test_rows_have_consistent_metrics(self):
        for row in REFERENCE_ROWS:
            # the parsed snapshot renders back to the sentence it came from
            assert render_report_line(row.metrics, row.expected_tier) == row.expected_line
            assert classify(row.metrics) == row.expected_tier
