"""Knowledge base: upsert semantics, diffing, rendering, persistence."""
from __future__ import annotations

import json
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_metrics, make_ref
from corpus import REPO_URLS
from repoharvest.kb import (
    KbEntry,
    KnowledgeBase,
    StoreError,
    diff,
    entry_from_dict,
    entry_to_dict,
    export_report,
    export_table,
    format_timestamp,
    load_records,
    parse_timestamp,
    render_report,
    render_report_line,
    save_records,
)
from repoharvest.links import canonicalize
from repoharvest.maturity import MaturityTier, classify

T0 = datetime(2024, 1, 1, 12, 0, 0, tzinfo=timezone.utc)


def at(minutes: int) -> datetime:
    return T0 + timedelta(minutes=minutes)


def upsert_auto(kb: KnowledgeBase, ref, metrics) -> KbEntry:
    return kb.upsert(ref, metrics, classify(metrics))


class TestUpsert:
    def test_insert_new_entry(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b", {"p1"})
        metrics = make_metrics(name="b", stars=5, fetched_at=T0)
        entry = upsert_auto(kb, ref, metrics)
        assert len(kb) == 1
        assert entry.first_seen == T0
        assert entry.history == []
        assert entry.tier is MaturityTier.LOW

    def test_identical_snapshot_is_noop(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        metrics = make_metrics(name="b", stars=5, fetched_at=T0)
        upsert_auto(kb, ref, metrics)
        entry = upsert_auto(kb, ref, metrics)
        assert len(kb) == 1
        assert entry.history == []

    def test_newer_snapshot_archives_previous(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        old = make_metrics(name="b", stars=5, fetched_at=T0)
        new = make_metrics(name="b", stars=150, fetched_at=at(10))
        upsert_auto(kb, ref, old)
        entry = upsert_auto(kb, ref, new)
        assert entry.latest == new
        assert entry.history == [old]
        assert entry.tier is MaturityTier.HIGH
        assert entry.first_seen == T0

    def test_older_snapshot_ignored(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        current = make_metrics(name="b", stars=5, fetched_at=at(10))
        stale = make_metrics(name="b", stars=9, fetched_at=T0)
        upsert_auto(kb, ref, current)
        entry = upsert_auto(kb, ref, stale)
        assert entry.latest == current
        assert entry.history == []

    def test_same_timestamp_different_counts_replaces_in_place(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        first = make_metrics(name="b", stars=5, fetched_at=T0)
        second = make_metrics(name="b", stars=6, fetched_at=T0)
        upsert_auto(kb, ref, first)
        entry = upsert_auto(kb, ref, second)
        assert entry.latest == second
        assert entry.history == []

    def test_source_papers_union_on_every_call(self):
        kb = KnowledgeBase()
        metrics = make_metrics(name="b", fetched_at=T0)
        upsert_auto(kb, make_ref("a", "b", {"p1"}), metrics)
        entry = upsert_auto(kb, make_ref("A", "B", {"p2"}), metrics)
        assert entry.ref.source_papers == {"p1", "p2"}
        assert entry.ref.owner == "a"  # first casing kept
        assert len(kb) == 1

    def test_only_latest_keeps_its_etag(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        old = make_metrics(name="b", stars=5, fetched_at=T0, etag='W/"old"')
        new = make_metrics(name="b", stars=6, fetched_at=at(10), etag='W/"new"')
        upsert_auto(kb, ref, old)
        entry = upsert_auto(kb, ref, new)
        assert entry.latest.etag == 'W/"new"'
        assert entry.history == [make_metrics(name="b", stars=5, fetched_at=T0)]

    def test_history_timestamps_strictly_increase(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        for minute in (0, 5, 5, 3, 9):
            upsert_auto(kb, ref, make_metrics(name="b", stars=minute,
                                              fetched_at=at(minute)))
        (entry,) = kb
        stamps = [m.fetched_at for m in entry.history] + [entry.latest.fetched_at]
        assert stamps == sorted(stamps)
        assert len(stamps) == len(set(stamps))

    def test_all_reference_urls_insert_once(self):
        kb = KnowledgeBase()
        for i, url in enumerate(REPO_URLS):
            ref = canonicalize(url, f"p{i}")
            upsert_auto(kb, ref, make_metrics(name=ref.name, fetched_at=T0))
        assert len(kb) == len(REPO_URLS)


class TestDiff:
    def _store(self, spec: dict[str, tuple[int, int]]) -> KnowledgeBase:
        kb = KnowledgeBase()
        for slug, (stars, minute) in spec.items():
            owner, name = slug.split("/")
            ref = make_ref(owner, name)
            upsert_auto(kb, ref, make_metrics(name=name, stars=stars,
                                              fetched_at=at(minute)))
        return kb

    def test_added_updated_unchanged(self):
        old = self._store({"a/one": (1, 0), "b/two": (5, 0), "c/three": (9, 0)})
        new = self._store({"b/two": (7, 10), "c/three": (9, 10), "d/four": (2, 10)})
        result = diff(old, new)
        assert [r.name for r in result.added] == ["four"]
        assert [(r.name, o.stars, n.stars) for r, o, n in result.updated] == [
            ("two", 5, 7)
        ]
        # c/three kept identical counts; a/one was not observed again
        assert sorted(r.name for r in result.unchanged) == ["one", "three"]

    def test_identical_stores(self):
        old = self._store({"a/one": (1, 0)})
        result = diff(old, old.clone())
        assert result.added == [] and result.updated == []
        assert [r.name for r in result.unchanged] == ["one"]

    def test_empty_old_store(self):
        new = self._store({"a/one": (1, 0)})
        result = diff(KnowledgeBase(), new)
        assert [r.name for r in result.added] == ["one"]

    @given(
        old_slugs=st.sets(st.sampled_from([u.rsplit("/", 2)[-2] + "/" + u.rsplit("/", 1)[-1]
                                           for u in REPO_URLS]), max_size=20),
        new_slugs=st.sets(st.sampled_from([u.rsplit("/", 2)[-2] + "/" + u.rsplit("/", 1)[-1]
                                           for u in REPO_URLS]), max_size=20),
        bumped=st.sets(st.integers(min_value=0, max_value=30), max_size=10),
    )
    @settings(max_examples=50)
    def test_partition_property(self, old_slugs, new_slugs, bumped):
        old = self._store({s: (1, 0) for s in old_slugs})
        new = self._store({
            s: (1 + (1 if i in bumped else 0), 10)
            for i, s in enumerate(sorted(new_slugs))
        })
        result = diff(old, new)
        seen = ([r.identity() for r in result.added]
                + [r.identity() for r, _, _ in result.updated]
                + [r.identity() for r in result.unchanged])
        every = {e.ref.identity() for e in old} | {e.ref.identity() for e in new}
        assert sorted(seen) == sorted(every)  # partition: no dupes, no gaps


class TestRendering:
    def test_high_example(self):
        metrics = make_metrics(name="BioSentVec", stars=546, forks=93,
                               open_issues=13, contributors=4, fetched_at=T0)
        entry = KbEntry(ref=make_ref("ncbi-nlp", "BioSentVec"), latest=metrics,
                        tier=MaturityTier.HIGH, first_seen=T0)
        assert render_report_line(entry) == (
            "The project 'BioSentVec' has a maturity level of High. "
            "It has 546 stars, 93 forks, 13 open issues, and 4 contributors."
        )

    def test_singular_counts_keep_plural_nouns(self):
        metrics = make_metrics(name="CPath_Survey", stars=0, forks=0,
                               open_issues=0, contributors=1, fetched_at=T0)
        entry = KbEntry(ref=make_ref("AtlasAnalyticsLab", "CPath_Survey"),
                        latest=metrics, tier=MaturityTier.LOW, first_seen=T0)
        assert render_report_line(entry) == (
            "The project 'CPath_Survey' has a maturity level of Low. "
            "It has 0 stars, 0 forks, 0 open issues, and 1 contributors."
        )

    def test_unknown_contributors_prints_zero(self):
        metrics = make_metrics(name="x", contributors=None, fetched_at=T0)
        entry = KbEntry(ref=make_ref("o", "x"), latest=metrics,
                        tier=MaturityTier.LOW, first_seen=T0)
        assert render_report_line(entry).endswith("and 0 contributors.")

    def test_report_order_is_first_seen_then_name(self):
        kb = KnowledgeBase()
        for minute, (owner, name) in enumerate(
            [("zeta", "last"), ("alpha", "mid"), ("beta", "mid2")]
        ):
            upsert_auto(kb, make_ref(owner, name),
                        make_metrics(name=name, fetched_at=at(minute)))
        # same timestamp sorts by owner/name
        upsert_auto(kb, make_ref("aaa", "tie"),
                    make_metrics(name="tie", fetched_at=at(0)))
        names = [line.split("'")[1] for line in render_report(kb).splitlines()]
        assert names == ["tie", "last", "mid", "mid2"]

    def test_empty_store_renders_empty_report(self):
        assert render_report(KnowledgeBase()) == ""


class TestPersistence:
    def _populated(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        history_ref = make_ref("a", "b", {"p1", "p2"})
        upsert_auto(kb, history_ref,
                    make_metrics(name="b", stars=5, fetched_at=T0))
        upsert_auto(kb, history_ref,
                    make_metrics(name="b", stars=150, contributors=None,
                                 description="desc, with comma", fetched_at=at(5)))
        upsert_auto(kb, make_ref("c", "d"),
                    make_metrics(name="d", fetched_at=at(1)))
        return kb

    def test_round_trip(self, tmp_path):
        kb = self._populated()
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        assert load_records(path) == kb

    def test_save_is_deterministic(self, tmp_path):
        kb = self._populated()
        save_records(kb, tmp_path / "one.jsonl")
        save_records(kb, tmp_path / "two.jsonl")
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()

    def test_missing_file_raises_store_error(self, tmp_path):
        with pytest.raises(StoreError):
            load_records(tmp_path / "absent.jsonl")

    def test_corrupt_line_names_line_number(self, tmp_path):
        kb = self._populated()
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        text = path.read_text()
        path.write_text(text + "{not json\n")
        with pytest.raises(StoreError, match=":3:"):
            load_records(path)

    def test_unsupported_schema_version(self):
        kb = self._populated()
        record = entry_to_dict(next(iter(kb)))
        record["schema_version"] = 99
        with pytest.raises(StoreError):
            entry_from_dict(record)

    @pytest.mark.parametrize("version", [0, 3, None, "2", True, 2.0])
    def test_only_versions_1_and_2_load(self, version):
        kb = self._populated()
        record = entry_to_dict(next(iter(kb)))
        record["schema_version"] = version
        with pytest.raises(StoreError):
            entry_from_dict(record)

    def test_version_2_round_trips_the_latest_etag(self, tmp_path):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        upsert_auto(kb, ref, make_metrics(name="b", fetched_at=T0, etag='W/"one"'))
        upsert_auto(kb, ref, make_metrics(name="b", stars=2, fetched_at=at(5), etag='"two"'))
        record = entry_to_dict(next(iter(kb)))
        assert record["schema_version"] == 2
        assert record["latest"]["etag"] == '"two"'
        assert "etag" not in record["history"][0]
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        loaded = load_records(path)
        assert loaded == kb
        assert next(iter(loaded)).latest.etag == '"two"'

    def test_non_string_etag_is_a_store_error(self, tmp_path):
        kb = KnowledgeBase()
        upsert_auto(kb, make_ref("a", "b"), make_metrics(name="b", fetched_at=T0, etag='"x"'))
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        path.write_text(path.read_text().replace('"\\"x\\""', "5"))
        with pytest.raises(StoreError, match="etag"):
            load_records(path)

    def test_version_1_record_loads_without_etag(self):
        record = {
            "schema_version": 1, "owner": "a", "name": "b",
            "canonical_url": "https://github.com/a/b", "source_papers": ["p1"],
            "tier": "Low", "first_seen": "2024-01-01T12:00:00Z",
            "latest": {"name": "b", "description": None, "stars": 5, "forks": 0,
                       "open_issues": 0, "contributors": 1,
                       "fetched_at": "2024-01-01T12:05:00Z"},
            "history": [{"name": "b", "description": None, "stars": 4, "forks": 0,
                         "open_issues": 0, "contributors": 1,
                         "fetched_at": "2024-01-01T12:00:00Z"}],
        }
        entry = entry_from_dict(record)
        assert entry.latest == make_metrics(name="b", stars=5, fetched_at=at(5))
        assert entry.latest.etag is None
        assert entry.history == [make_metrics(name="b", stars=4, fetched_at=T0)]
        assert entry_to_dict(entry)["schema_version"] == 2

    @pytest.mark.parametrize("change", [
        "[]",
        '"x"',
        {"tier": 5},
        {"history": {"a": 1}},
        {"owner": 7},
        {"name": 7},
        {"source_papers": "2101.00001"},
        {"source_papers": [1]},
        {"latest": {"stars": 5.5}},
        {"latest": {"open_issues": True}},
    ], ids=["list", "string", "tier", "history", "owner", "name", "papers-string",
            "papers-item", "float-count", "bool-count"])
    def test_line_of_the_wrong_shape_is_a_store_error(self, tmp_path, change):
        kb = KnowledgeBase()
        upsert_auto(kb, make_ref("a", "b", {"p1"}), make_metrics(name="b", fetched_at=T0))
        good = entry_to_dict(next(iter(kb)))
        if isinstance(change, str):
            bad = change
        else:
            record = dict(good)
            for key, value in change.items():
                record[key] = {**good[key], **value} if key == "latest" else value
            bad = json.dumps(record)
        path = tmp_path / "kb.jsonl"
        path.write_text(f"{json.dumps(good)}\n{bad}\n")
        with pytest.raises(StoreError, match=re.escape(f"{path}:2: bad record: ")):
            load_records(path)

    def test_blank_lines_skipped(self, tmp_path):
        kb = self._populated()
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        path.write_text(path.read_text() + "\n\n")
        assert load_records(path) == kb

    def test_export_table_shape(self, tmp_path):
        import csv

        kb = self._populated()
        path = tmp_path / "kb.csv"
        export_table(kb, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["owner", "name", "canonical_url", "tier"]
        assert len(rows) == 1 + len(kb)
        by_name = {row[1]: row for row in rows[1:]}
        assert by_name["b"][3] == "High"
        assert by_name["b"][8] == "desc, with comma"
        assert by_name["b"][11] == "p1 p2"

    def test_export_report_file(self, tmp_path):
        kb = self._populated()
        path = tmp_path / "report.txt"
        export_report(kb, path)
        text = path.read_text()
        assert text.count("\n") == len(kb)
        assert text.endswith("contributors.\n")

    def test_empty_store_files(self, tmp_path):
        kb = KnowledgeBase()
        save_records(kb, tmp_path / "kb.jsonl")
        export_table(kb, tmp_path / "kb.csv")
        export_report(kb, tmp_path / "report.txt")
        assert (tmp_path / "kb.jsonl").read_text() == ""
        assert (tmp_path / "report.txt").read_text() == ""
        assert (tmp_path / "kb.csv").read_text().startswith("owner,name,")


class TestTimestamps:
    def test_format_round_trip(self):
        stamp = datetime(2024, 3, 5, 6, 7, 8, tzinfo=timezone.utc)
        assert parse_timestamp(format_timestamp(stamp)) == stamp

    def test_format_shape(self):
        assert format_timestamp(T0) == "2024-01-01T12:00:00Z"
