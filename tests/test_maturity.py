"""Tier thresholds, ordering, and the bundled calibration table."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import make_metrics
from calibration import REFERENCE_ROWS
from repoharvest.kb import render_report_line
from repoharvest import maturity
from repoharvest.maturity import MaturityTier, classify


class TestTierBasics:
    def test_labels(self):
        assert str(MaturityTier.LOW) == "Low"
        assert str(MaturityTier.MEDIUM) == "Medium"
        assert str(MaturityTier.HIGH) == "High"

    def test_ordering(self):
        assert MaturityTier.LOW < MaturityTier.MEDIUM < MaturityTier.HIGH

    def test_from_label_round_trip(self):
        for tier in MaturityTier:
            assert MaturityTier.from_label(str(tier)) is tier

    def test_from_label_rejects_unknown(self):
        with pytest.raises(ValueError):
            MaturityTier.from_label("Gold")


class TestClassify:
    @pytest.mark.parametrize("stars,expected", [
        (0, MaturityTier.LOW),
        (29, MaturityTier.LOW),
        (30, MaturityTier.MEDIUM),   # threshold is inclusive
        (99, MaturityTier.MEDIUM),
        (100, MaturityTier.HIGH),
        (546, MaturityTier.HIGH),
    ])
    def test_default_thresholds(self, stars, expected):
        assert classify(make_metrics(stars=stars)) is expected

    def test_reference_examples(self):
        high = make_metrics(name="BioSentVec", stars=546, forks=93,
                            open_issues=13, contributors=4)
        medium = make_metrics(name="Clinical-Longformer", stars=52, forks=9,
                              open_issues=2, contributors=2)
        low = make_metrics(name="CPath_Survey", stars=0, forks=0,
                           open_issues=0, contributors=1)
        assert classify(high) is MaturityTier.HIGH
        assert classify(medium) is MaturityTier.MEDIUM
        assert classify(low) is MaturityTier.LOW

    def test_only_stars_matter(self):
        noisy = make_metrics(stars=10, forks=10_000, open_issues=10_000,
                             contributors=10_000)
        assert classify(noisy) is MaturityTier.LOW

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000))
    def test_monotone_in_stars(self, a, b):
        lower, higher = sorted((a, b))
        assert classify(make_metrics(stars=lower)) <= classify(make_metrics(stars=higher))


class TestTierRuleValidation:
    def test_defaults(self):
        assert maturity.MEDIUM_MIN_STARS == 30
        assert maturity.HIGH_MIN_STARS == 100


class TestReferenceTable:
    def test_has_23_rows(self):
        assert len(REFERENCE_ROWS) == 23

    def test_tier_distribution(self):
        tiers = [row.expected_tier for row in REFERENCE_ROWS]
        assert tiers.count(MaturityTier.HIGH) >= 1
        assert tiers.count(MaturityTier.MEDIUM) >= 3
        assert tiers.count(MaturityTier.LOW) >= 15

    def test_rows_have_consistent_metrics(self):
        for row in REFERENCE_ROWS:
            # the parsed snapshot renders back to the sentence it came from
            assert render_report_line(row.metrics, row.expected_tier) == row.expected_line
            assert classify(row.metrics) is row.expected_tier
