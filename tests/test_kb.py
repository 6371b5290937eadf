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
    render_report_line,
    save_records,
)
from repoharvest.links import canonicalize

T0 = datetime(2024, 1, 1, 12, 0, 0, tzinfo=timezone.utc)


def at(minutes: int) -> datetime:
    return T0 + timedelta(minutes=minutes)


def snapshot_dict(fetched_at: str) -> dict:
    return {"name": "b", "description": None, "stars": 5, "forks": 0, "open_issues": 0,
            "contributors": 1, "fetched_at": fetched_at}


class TestUpsert:
    def test_insert_new_entry(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        metrics = make_metrics(name="b", stars=5, fetched_at=T0)
        entry = kb.upsert(ref, metrics, {"p1"})
        assert len(kb) == 1
        assert entry.papers == {"p1"}
        assert entry.first_seen == T0
        assert entry.history == []
        assert entry_to_dict(entry)["tier"] == "Low"

    def test_identical_snapshot_is_noop(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        metrics = make_metrics(name="b", stars=5, fetched_at=T0)
        kb.upsert(ref, metrics)
        entry = kb.upsert(ref, metrics)
        assert len(kb) == 1
        assert entry.history == []

    def test_newer_snapshot_archives_previous(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        old = make_metrics(name="b", stars=5, fetched_at=T0)
        new = make_metrics(name="b", stars=150, fetched_at=at(10))
        kb.upsert(ref, old)
        entry = kb.upsert(ref, new)
        assert entry.latest == new
        assert entry.history == [old]
        assert entry_to_dict(entry)["tier"] == "High"
        assert entry.first_seen == T0

    def test_older_snapshot_ignored(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        current = make_metrics(name="b", stars=5, fetched_at=at(10))
        stale = make_metrics(name="b", stars=9, fetched_at=T0)
        kb.upsert(ref, current)
        entry = kb.upsert(ref, stale)
        assert entry.latest == current
        assert entry.history == []

    def test_same_second_equal_counts_new_etag_replaces_latest(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        first = make_metrics(name="b", stars=5, fetched_at=T0, etag='"one"')
        second = make_metrics(name="b", stars=5, fetched_at=T0, etag='"two"')
        kb.upsert(ref, first)
        entry = kb.upsert(ref, second)
        assert entry.latest == second
        assert entry.history == []

    def test_same_timestamp_different_counts_replaces_in_place(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        first = make_metrics(name="b", stars=5, fetched_at=T0)
        second = make_metrics(name="b", stars=6, fetched_at=T0)
        kb.upsert(ref, first)
        entry = kb.upsert(ref, second)
        assert entry.latest == second
        assert entry.history == []

    def test_source_papers_union_on_every_call(self):
        kb = KnowledgeBase()
        metrics = make_metrics(name="b", fetched_at=at(5))
        kb.upsert(make_ref("a", "b"), metrics, {"p1"})
        entry = kb.upsert(make_ref("A", "B"), metrics, {"p2"})
        assert entry.papers == {"p1", "p2"}
        assert entry.ref.owner == "a"  # first casing kept
        assert len(kb) == 1
        # an older snapshot is ignored, but its papers are kept
        kb.upsert(make_ref("a", "b"), make_metrics(name="b", fetched_at=T0), {"p3"})
        assert (entry.latest, entry.papers) == (metrics, {"p1", "p2", "p3"})

    def test_upsert_without_papers_leaves_them_as_they_were(self):
        kb = KnowledgeBase()
        kb.upsert(make_ref("a", "b"), make_metrics(name="b", fetched_at=T0), {"p1", "p2"})
        entry = kb.upsert(make_ref("a", "b"), make_metrics(name="b", stars=3, fetched_at=at(1)))
        assert entry.papers == {"p1", "p2"}
        assert entry.latest.stars == 3

    @given(st.lists(st.sampled_from(REPO_URLS), max_size=60))
    def test_every_paper_that_names_a_repository_is_kept(self, urls):
        kb = KnowledgeBase()
        for i, url in enumerate(urls):
            ref = canonicalize(url)
            kb.upsert(ref, make_metrics(name=ref.name, fetched_at=T0), {f"p{i}"})
        assert len(kb) == len({canonicalize(url).identity() for url in urls})
        for i, url in enumerate(urls):
            assert f"p{i}" in kb.get(canonicalize(url)).papers
        assert sum(len(entry.papers) for entry in kb) == len(urls)

    def test_only_latest_keeps_its_etag(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        old = make_metrics(name="b", stars=5, fetched_at=T0, etag='W/"old"')
        new = make_metrics(name="b", stars=6, fetched_at=at(10), etag='W/"new"')
        kb.upsert(ref, old)
        entry = kb.upsert(ref, new)
        assert entry.latest.etag == 'W/"new"'
        assert entry.history == [make_metrics(name="b", stars=5, fetched_at=T0)]

    def test_history_timestamps_strictly_increase(self):
        kb = KnowledgeBase()
        ref = make_ref("a", "b")
        for minute in (0, 5, 5, 3, 9):
            kb.upsert(ref, make_metrics(name="b", stars=minute,
                                        fetched_at=at(minute)))
        (entry,) = kb
        stamps = [m.fetched_at for m in entry.history] + [entry.latest.fetched_at]
        assert stamps == sorted(stamps)
        assert len(stamps) == len(set(stamps))

    def test_all_reference_urls_insert_once(self):
        kb = KnowledgeBase()
        for url in REPO_URLS:
            ref = canonicalize(url)
            kb.upsert(ref, make_metrics(name=ref.name, fetched_at=T0))
        assert len(kb) == len(REPO_URLS)


class TestDiff:
    """``diff(before, kb)`` over one store that a run updates in place, as
    ``monitor`` does: ``before`` maps each entry's id to its latest snapshot
    as the run found it."""

    def _store(self, spec: dict[str, tuple[int, int]], kb=None) -> KnowledgeBase:
        kb = KnowledgeBase() if kb is None else kb
        for slug, (stars, minute) in spec.items():
            owner, name = slug.split("/")
            ref = make_ref(owner, name)
            kb.upsert(ref, make_metrics(name=name, stars=stars,
                                        fetched_at=at(minute)))
        return kb

    @staticmethod
    def _before(kb: KnowledgeBase) -> dict:
        return {id(entry): entry.latest for entry in kb}

    @staticmethod
    def _shown(pairs) -> list[tuple[str, int | None, int]]:
        """(owner/name, old stars or None, new stars) of each pair."""
        return [(f"{entry.ref.owner}/{entry.ref.name}",
                 None if old is None else old.stars, entry.latest.stars)
                for entry, old in pairs]

    def test_added_updated_unchanged(self):
        """An entry the run does not refresh (a/one) is listed with its own
        snapshot, which is its latest."""
        kb = self._store({"a/one": (1, 0), "b/two": (5, 0), "c/three": (9, 0)})
        before = self._before(kb)
        self._store({"b/two": (7, 10), "c/three": (9, 10), "d/four": (2, 10)}, kb)
        assert self._shown(diff(before, kb)) == [
            ("a/one", 1, 1), ("b/two", 5, 7), ("c/three", 9, 9), ("d/four", None, 2)]

    def test_an_unchanged_store(self):
        kb = self._store({"a/one": (1, 0)})
        before = self._before(kb)
        ((entry, previous),) = diff(before, kb)
        assert previous is entry.latest

    def test_an_empty_store(self):
        kb = KnowledgeBase()
        before = self._before(kb)
        self._store({"a/one": (1, 0)}, kb)
        assert self._shown(diff(before, kb)) == [("a/one", None, 1)]

    def test_a_moved_entry_is_paired_with_its_own_snapshot(self):
        kb = KnowledgeBase([_entry("demo", "new", ["demo/old"]), _entry("c", "d", minutes=1)])
        before = self._before(kb)
        kb.record(make_ref("demo", "new"), make_ref("demo", "newer"),
                  make_metrics(name="newer", stars=4, fetched_at=at(2)))
        assert self._shown(diff(before, kb)) == [("c/d", 0, 0), ("demo/newer", 0, 4)]

    def test_an_alias_that_becomes_its_own_repository_is_added(self):
        kb = KnowledgeBase([_entry("demo", "new", ["demo/old"])])
        before = self._before(kb)
        kb.upsert(make_ref("demo", "old"), make_metrics(name="old", fetched_at=at(2)))
        assert self._shown(diff(before, kb)) == [("demo/new", 0, 0), ("demo/old", None, 0)]

    def test_a_name_given_up_and_taken_is_a_new_entry(self):
        """demo/x moves to demo/y, and then demo/z answers as a new demo/x:
        the moved entry keeps its own snapshot, and the new one is added."""
        kb = self._store({"demo/x": (5, 0)})
        before = self._before(kb)
        kb.record(make_ref("demo", "x"), make_ref("demo", "y"),
                  make_metrics(name="y", stars=5, fetched_at=at(1)))
        kb.record(make_ref("demo", "z"), make_ref("demo", "x"),
                  make_metrics(name="x", stars=50, fetched_at=at(2)))
        assert self._shown(diff(before, kb)) == [("demo/y", 5, 5), ("demo/x", None, 50)]

    @given(
        old_slugs=st.sets(st.sampled_from([u.rsplit("/", 2)[-2] + "/" + u.rsplit("/", 1)[-1]
                                           for u in REPO_URLS]), max_size=20),
        new_slugs=st.sets(st.sampled_from([u.rsplit("/", 2)[-2] + "/" + u.rsplit("/", 1)[-1]
                                           for u in REPO_URLS]), max_size=20),
        bumped=st.sets(st.integers(min_value=0, max_value=30), max_size=10),
    )
    @settings(max_examples=50)
    def test_partition_property(self, old_slugs, new_slugs, bumped):
        """Each entry is listed once, in store order, with the snapshot its
        name held before the run, or None if it held none: no dupes, no
        gaps."""
        kb = self._store({s: (1, 0) for s in old_slugs})
        held = {entry.ref.identity(): entry.latest for entry in kb}
        before = self._before(kb)
        self._store({
            s: (1 + (1 if i in bumped else 0), 10)
            for i, s in enumerate(sorted(new_slugs))
        }, kb)
        pairs = diff(before, kb)
        assert [entry for entry, _ in pairs] == list(kb)
        assert len(kb) == len(old_slugs | new_slugs)
        for entry, previous in pairs:
            assert previous is held.get(entry.ref.identity())


class TestRendering:
    def test_high_example(self):
        metrics = make_metrics(name="BioSentVec", stars=546, forks=93,
                               open_issues=13, contributors=4, fetched_at=T0)
        assert render_report_line(metrics, "High") == (
            "The project 'BioSentVec' has a maturity level of High. "
            "It has 546 stars, 93 forks, 13 open issues, and 4 contributors."
        )

    def test_singular_counts_keep_plural_nouns(self):
        metrics = make_metrics(name="CPath_Survey", stars=0, forks=0,
                               open_issues=0, contributors=1, fetched_at=T0)
        assert render_report_line(metrics, "Low") == (
            "The project 'CPath_Survey' has a maturity level of Low. "
            "It has 0 stars, 0 forks, 0 open issues, and 1 contributors."
        )

    def test_unknown_contributors_prints_zero(self):
        metrics = make_metrics(name="x", contributors=None, fetched_at=T0)
        assert render_report_line(metrics, "Low").endswith("and 0 contributors.")

    def test_report_order_is_first_seen_then_name(self, tmp_path):
        kb = KnowledgeBase()
        for minute, (owner, name) in enumerate(
            [("zeta", "last"), ("alpha", "mid"), ("beta", "mid2")]
        ):
            kb.upsert(make_ref(owner, name),
                      make_metrics(name=name, fetched_at=at(minute)))
        # same timestamp sorts by owner/name
        kb.upsert(make_ref("aaa", "tie"),
                  make_metrics(name="tie", fetched_at=at(0)))
        export_report(kb, tmp_path / "report.txt")
        report = (tmp_path / "report.txt").read_text(encoding="utf-8")
        names = [line.split("'")[1] for line in report.splitlines()]
        assert names == ["tie", "last", "mid", "mid2"]

    def test_empty_store_renders_empty_report(self, tmp_path):
        export_report(KnowledgeBase(), tmp_path / "report.txt")
        assert (tmp_path / "report.txt").read_text(encoding="utf-8") == ""


class TestPersistence:
    def _populated(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        history_ref = make_ref("a", "b")
        kb.upsert(history_ref,
                  make_metrics(name="b", stars=5, fetched_at=T0), {"p1"})
        kb.upsert(history_ref,
                  make_metrics(name="b", stars=150, contributors=None,
                               description="desc, with comma", fetched_at=at(5)), {"p2"})
        kb.upsert(make_ref("c", "d"),
                  make_metrics(name="d", fetched_at=at(1)))
        return kb

    def test_round_trip(self, tmp_path):
        kb = self._populated()
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        assert load_records(path).sorted_entries() == kb.sorted_entries()

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_description_with_a_line_separator_round_trips(self, tmp_path, separator):
        kb = KnowledgeBase()
        kb.upsert(make_ref("a", "b"),
                  make_metrics(name="b", description=f"one{separator}two", fetched_at=T0))
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        assert separator in path.read_text(encoding="utf-8")  # written raw, not escaped
        assert load_records(path).sorted_entries() == kb.sorted_entries()

    def test_an_escaped_surrogate_pair_loads_as_one_character(self, tmp_path):
        kb = KnowledgeBase()
        kb.upsert(make_ref("a", "b"), make_metrics(name="b", description="\U0001f600",
                                                   fetched_at=T0))
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        escaped = path.read_text(encoding="utf-8").replace("\U0001f600", "\\ud83d\\ude00")
        assert "\\ud83d\\ude00" in escaped
        path.write_text(escaped, encoding="utf-8")
        loaded = load_records(path)
        assert loaded.sorted_entries() == kb.sorted_entries()
        save_records(loaded, path)
        assert load_records(path).sorted_entries() == kb.sorted_entries()

    def test_crlf_store_loads(self, tmp_path):
        kb = self._populated()
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_records(path).sorted_entries() == kb.sorted_entries()

    def test_papers_survive_save_and_load(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        save_records(self._populated(), path)
        assert [json.loads(line)["source_papers"] for line in path.read_text().splitlines()] == [
            ["p1", "p2"], []]
        assert [entry.papers for entry in load_records(path)] == [{"p1", "p2"}, frozenset()]
        export_table(self._populated(), tmp_path / "kb.csv")
        assert [line.rsplit(",", 1)[1] for line in
                (tmp_path / "kb.csv").read_text().splitlines()[1:]] == ["p1 p2", ""]

    def test_stored_paper_ids_load_without_their_version(self):
        """A store written while ids kept their ``vN`` loads one id per paper;
        an id of neither arXiv shape loads as stored."""
        record = entry_to_dict(next(iter(self._populated())))
        record["source_papers"] = ["2102.00002v1", "2102.00002v3", "hep-th/9901001v2",
                                   "math.GT/0309136v1", "2102.00002", "p1", "draft-v2"]
        assert entry_from_dict(record).papers == {
            "2102.00002", "hep-th/9901001", "math.GT/0309136", "p1", "draft-v2"}

    def test_a_line_nested_too_deeply_is_a_store_error(self, tmp_path):
        """json raises RecursionError, not ValueError, on such a line."""
        path = tmp_path / "kb.jsonl"
        save_records(self._populated(), path)
        with path.open("a", encoding="utf-8") as store:
            store.write("[" * 100_000 + "\n")
        with pytest.raises(StoreError, match=re.escape(f"{path}:3: bad record: ")):
            load_records(path)

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
        kb.upsert(ref, make_metrics(name="b", fetched_at=T0, etag='W/"one"'))
        kb.upsert(ref, make_metrics(name="b", stars=2, fetched_at=at(5), etag='"two"'))
        record = entry_to_dict(next(iter(kb)))
        assert record["schema_version"] == 2
        assert record["latest"]["etag"] == '"two"'
        assert "etag" not in record["history"][0]
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        loaded = load_records(path)
        assert loaded.sorted_entries() == kb.sorted_entries()
        assert next(iter(loaded)).latest.etag == '"two"'

    def test_non_string_etag_is_a_store_error(self, tmp_path):
        kb = KnowledgeBase()
        kb.upsert(make_ref("a", "b"), make_metrics(name="b", fetched_at=T0, etag='"x"'))
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        path.write_text(path.read_text().replace('"\\"x\\""', "5"))
        with pytest.raises(StoreError, match="etag"):
            load_records(path)

    @pytest.mark.parametrize("etag", ['W/"\u20ac"', 'W/"x"\r\nX-Injected: 1', ' "x"'],
                             ids=["not-latin-1", "crlf", "leading-space"])
    def test_an_etag_http_cannot_send_is_a_store_error(self, tmp_path, etag):
        """http.client cannot encode the first; requests refuses the others
        unsent."""
        kb = KnowledgeBase()
        kb.upsert(make_ref("a", "b"), make_metrics(name="b", fetched_at=T0, etag=etag))
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        with pytest.raises(StoreError, match=re.escape(
                f"{path}:1: bad record: etag {etag!r} cannot be sent in If-None-Match")):
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
        {"tier": "Gold"},
        {"tier": ""},
        {"history": {"a": 1}},
        {"owner": 7},
        {"name": 7},
        {"source_papers": "2101.00001"},
        {"source_papers": [1]},
        {"latest": {"stars": 5.5}},
        {"latest": {"open_issues": True}},
        {"latest": {"name": 7}},
        {"latest": {"description": ["d"]}},
        {"history": [snapshot_dict("2025-01-01T00:00:00Z"), snapshot_dict("2023-01-01T00:00:00Z")]},
        {"history": [dict(snapshot_dict("2023-01-01T00:00:00Z"), etag='W/"old"')]},
        {"history": [dict(snapshot_dict("2023-01-01T00:00:00Z"), etag="")]},
        {"owner": "A", "name": "B", "source_papers": ["p2"]},
        {"owner": ".."},
        {"latest": {"name": "b\ud800"}},
        {"latest": {"description": "\udc00 d"}},
        {"source_papers": ["2101.0000\ud83d"]},
    ], ids=["list", "string", "tier", "tier-label", "tier-empty", "history", "owner", "name",
            "papers-string", "papers-item", "float-count", "bool-count", "snapshot-name",
            "snapshot-description", "history-order", "history-etag", "history-empty-etag",
            "repeated-identity", "dot-owner", "snapshot-name-surrogate",
            "snapshot-description-surrogate", "papers-item-surrogate"])
    def test_line_of_the_wrong_shape_is_a_store_error(self, tmp_path, change):
        kb = KnowledgeBase()
        kb.upsert(make_ref("a", "b"), make_metrics(name="b", fetched_at=T0), {"p1"})
        good = entry_to_dict(next(iter(kb)))
        if isinstance(change, str):
            bad = change
        else:
            record = dict(good, name="c")  # a repository of its own, unless changed
            for key, value in change.items():
                record[key] = {**good[key], **value} if key == "latest" else value
            bad = json.dumps(record)
        path = tmp_path / "kb.jsonl"
        path.write_text(f"{json.dumps(good)}\n{bad}\n")
        with pytest.raises(StoreError, match=re.escape(f"{path}:2: bad record: ")):
            load_records(path)

    @pytest.mark.parametrize("stored", ["High", " high ", "mEdIuM"])
    def test_writers_grade_latest_not_the_stored_tier(self, tmp_path, stored):
        """A line graded by another rule, or by hand, in any case and with
        any surrounding spaces, loads, and every writer grades its 5 stars Low."""
        kb = KnowledgeBase()
        kb.upsert(make_ref("a", "b"), make_metrics(name="b", stars=5, fetched_at=T0), {"p1"})
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        graded = path.read_text().replace('"tier": "Low"', f'"tier": {json.dumps(stored)}')
        assert f'"tier": {json.dumps(stored)}' in graded
        path.write_text(graded)
        loaded = load_records(path)
        save_records(loaded, path)
        export_table(loaded, tmp_path / "kb.csv")
        export_report(loaded, tmp_path / "report.txt")
        assert json.loads(path.read_text())["tier"] == "Low"
        assert (tmp_path / "kb.csv").read_text().splitlines()[1].split(",")[3] == "Low"
        assert (tmp_path / "report.txt").read_text().startswith(
            "The project 'b' has a maturity level of Low.")

    def test_blank_lines_skipped(self, tmp_path):
        kb = self._populated()
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        path.write_text(path.read_text() + "\n\n")
        assert load_records(path).sorted_entries() == kb.sorted_entries()

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


class TestAliases:
    """Names GitHub redirected to a stored repository, kept on its entry."""

    def _renamed(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        new = make_ref("demo", "new")
        snapshot = make_metrics(name="new", fetched_at=T0, etag='"e"')
        kb.upsert(new, snapshot, {"p1"})
        kb.upsert(make_ref("c", "d"), make_metrics(name="d", fetched_at=at(1)))
        kb.record(make_ref("demo", "older"), new, snapshot)
        kb.record(make_ref("Demo", "Old"), new, snapshot, {"p2"})
        return kb

    def test_load_then_save_is_byte_exact(self, tmp_path):
        path, again = tmp_path / "kb.jsonl", tmp_path / "again.jsonl"
        save_records(self._renamed(), path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["aliases"] == ["Demo/Old", "demo/older"]
        loaded = load_records(path)
        assert loaded.sorted_entries() == self._renamed().sorted_entries()
        save_records(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_a_store_without_aliases_saves_as_before(self, tmp_path):
        kb = KnowledgeBase()
        kb.upsert(make_ref("a", "b"),
                  make_metrics(name="b", stars=5, fetched_at=T0, etag='"e"'), {"p1"})
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        assert path.read_text() == (
            '{"schema_version": 2, "owner": "a", "name": "b", '
            '"canonical_url": "https://github.com/a/b", "source_papers": ["p1"], '
            '"tier": "Low", "first_seen": "2024-01-01T12:00:00Z", '
            '"latest": {"name": "b", "description": null, "stars": 5, "forks": 0, '
            '"open_issues": 0, "contributors": 1, "fetched_at": "2024-01-01T12:00:00Z", '
            '"etag": "\\"e\\""}, "history": []}\n')

    @pytest.mark.parametrize("version", [1, 2])
    def test_version_1_and_2_lines_load(self, version):
        record = entry_to_dict(next(iter(self._renamed())))
        record["schema_version"] = version
        assert entry_from_dict(record).aliases == {make_ref("Demo", "Old"),
                                                   make_ref("demo", "older")}
        del record["aliases"]
        assert entry_from_dict(record).aliases == frozenset()

    def test_clone_keeps_aliases(self):
        kb = self._renamed()
        assert kb.clone().sorted_entries() == kb.sorted_entries()
        assert [entry.aliases for entry in kb.clone()] == [entry.aliases for entry in kb]

    def test_a_name_some_entry_holds_is_not_added(self):
        kb = self._renamed()
        before = [entry.aliases for entry in kb]
        new, other = (entry.latest for entry in kb.sorted_entries())
        kb.record(make_ref("DEMO", "OLD"), make_ref("c", "d"), other)  # another's alias
        kb.record(make_ref("Demo", "New"), make_ref("c", "d"), other)  # another's identity
        kb.record(make_ref("demo", "OLDER"), make_ref("demo", "new"), new)  # its own alias
        assert [entry.aliases for entry in kb] == before

    def test_a_repository_that_takes_an_alias_name_keeps_it(self, tmp_path):
        kb = self._renamed()
        kb.upsert(make_ref("demo", "old"), make_metrics(name="old", fetched_at=at(2)))
        by_name = {entry.ref.name: entry for entry in kb}
        assert by_name["new"].aliases == {make_ref("demo", "older")}
        kb.record(make_ref("demo", "OLD"), make_ref("c", "d"), by_name["d"].latest)
        assert by_name["d"].aliases == frozenset()
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        assert load_records(path).sorted_entries() == kb.sorted_entries()

    @pytest.mark.parametrize("aliases", [
        "demo/old", [5], ["demo"], ["demo/old/tree"], ["demo/old.git"], ["demo/o ld"],
        ["https://github.com/demo/old"], ["x/y", "X/Y"], ["c/e", "C/D"], ["A/B"], ["../x"],
    ], ids=["string", "item", "no-name", "deeper-path", "git-suffix", "bad-slug", "url",
            "repeated-alias", "own-identity", "earlier-identity", "dot-segment"])
    def test_a_bad_alias_is_a_store_error_naming_its_line(self, tmp_path, aliases):
        kb = KnowledgeBase()
        kb.upsert(make_ref("a", "b"), make_metrics(name="b", fetched_at=T0))
        kb.upsert(make_ref("c", "d"), make_metrics(name="d", fetched_at=at(1)))
        first, second = (entry_to_dict(entry) for entry in kb.sorted_entries())
        second["aliases"] = aliases
        path = tmp_path / "kb.jsonl"
        path.write_text(f"{json.dumps(first)}\n{json.dumps(second)}\n")
        with pytest.raises(StoreError, match=re.escape(f"{path}:2: bad record: ")):
            load_records(path)

    def test_an_alias_a_later_line_claims_is_a_store_error(self, tmp_path):
        kb = KnowledgeBase()
        kb.upsert(make_ref("a", "b"), make_metrics(name="b", fetched_at=T0))
        kb.upsert(make_ref("c", "d"), make_metrics(name="d", fetched_at=at(1)))
        kb.upsert(make_ref("e", "f"), make_metrics(name="f", fetched_at=at(2)))
        first, second, third = (entry_to_dict(entry) for entry in kb.sorted_entries())
        first["aliases"] = ["x/y", "C/D"]
        third["aliases"] = ["X/Y"]
        path = tmp_path / "kb.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in (first, second, third)))
        with pytest.raises(StoreError, match=re.escape(
                f"{path}:2: bad record: repeats the repository c/d")):
            load_records(path)
        path.write_text("".join(json.dumps(r) + "\n" for r in (first, third)))
        with pytest.raises(StoreError, match=re.escape(
                f"{path}:2: bad record: repeats the repository X/Y")):
            load_records(path)


def _entry(owner: str, name: str, aliases=(), minutes: int = 0) -> KbEntry:
    metrics = make_metrics(name=name, fetched_at=at(minutes))
    return KbEntry(ref=make_ref(owner, name), latest=metrics, first_seen=metrics.fetched_at,
                   aliases=frozenset(make_ref(*alias.split("/")) for alias in aliases))


class TestNameIndex:
    """Each name, an identity or an alias, belongs to one entry."""

    @pytest.mark.parametrize("first,second,repeated", [
        (_entry("a", "b"), _entry("A", "B", minutes=1), "A/B"),
        (_entry("a", "b", ["x/y"]), _entry("X", "Y", minutes=1), "X/Y"),
        (_entry("x", "y"), _entry("a", "b", ["X/y"], minutes=1), "X/y"),
        (_entry("a", "b", ["x/y"]), _entry("c", "d", ["x/Y"], minutes=1), "x/Y"),
        (_entry("a", "b"), _entry("c", "d", ["A/b"], minutes=1), "A/b"),
    ], ids=["identity-identity", "alias-identity", "identity-alias", "alias-alias",
            "earlier-identity-alias"])
    def test_a_name_two_entries_claim_is_refused(self, first, second, repeated):
        with pytest.raises(StoreError, match=f"^repeats the repository {repeated}$"):
            KnowledgeBase([first, second])

    def test_get_finds_an_entry_by_identity_or_alias_in_any_case(self):
        kb = KnowledgeBase([_entry("demo", "new", ["demo/old"]), _entry("c", "d", minutes=1)])
        (new, other) = kb.sorted_entries()
        assert kb.get(make_ref("demo", "new")) is new
        assert kb.get(make_ref("DEMO", "New")) is new
        assert kb.get(make_ref("Demo", "OLD")) is new
        assert kb.get(make_ref("C", "d")) is other
        assert kb.get(make_ref("demo", "newer")) is None

    def test_rename_moves_the_entry_and_keeps_its_old_name(self, tmp_path):
        kb = KnowledgeBase()
        snapshot = make_metrics(name="new", fetched_at=T0)
        kb.upsert(make_ref("demo", "new"), snapshot, {"p1"})
        kb.record(make_ref("demo", "old"), make_ref("demo", "new"), snapshot)
        entry = kb.record(make_ref("Demo", "OLD"), make_ref("Demo", "Newer"),
                          make_metrics(name="Newer", stars=3, fetched_at=at(1)), {"p2"})
        assert len(kb) == 1
        assert (entry.ref, entry.first_seen, entry.aliases, entry.papers) == (
            make_ref("Demo", "Newer"), T0,
            {make_ref("demo", "new"), make_ref("demo", "old")}, {"p1", "p2"})
        assert [m.fetched_at for m in entry.history] == [T0]
        assert kb.get(make_ref("demo", "new")) is kb.get(make_ref("demo", "newer")) is entry
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        assert load_records(path).sorted_entries() == kb.sorted_entries()

    def test_a_rename_onto_another_entrys_alias_moves_and_takes_it(self):
        """demo/x moved to demo/y, keeping demo/x as an alias; then GitHub
        answers the stored demo/z as demo/x: demo/z's entry moves there."""
        kb = KnowledgeBase([_entry("demo", "y", ["demo/x"]), _entry("demo", "z", minutes=1)])
        moved = kb.record(make_ref("demo", "z"), make_ref("demo", "x"),
                          make_metrics(name="x", stars=50, fetched_at=at(2)))
        giver = kb.get(make_ref("demo", "y"))
        assert len(kb) == 2
        assert (giver.ref, giver.aliases) == (make_ref("demo", "y"), frozenset())
        assert (moved.ref, moved.aliases, moved.latest.stars, [m.stars for m in moved.history]) \
            == (make_ref("demo", "x"), {make_ref("demo", "z")}, 50, [0])
        assert kb.get(make_ref("demo", "x")) is kb.get(make_ref("demo", "z")) is moved

    def test_rename_moves_nothing_onto_a_held_name(self):
        kb = KnowledgeBase([_entry("demo", "new", ["demo/old"]), _entry("c", "d", minutes=1)])
        before = kb.clone()
        new, other = (entry.latest for entry in kb.sorted_entries())
        kb.record(make_ref("demo", "new"), make_ref("C", "D"), other)  # another's identity
        kb.record(make_ref("demo", "old"), make_ref("Demo", "NEW"), new)  # its own identity
        assert kb.sorted_entries() == before.sorted_entries()
        assert [entry.aliases for entry in kb] == [entry.aliases for entry in before]
        assert [entry.ref for entry in kb] == [make_ref("demo", "new"), make_ref("c", "d")]
        # a name no entry holds moves nothing: the answer is stored as a new entry
        added = kb.record(make_ref("x", "y"), make_ref("x", "z"), other)
        assert [entry.ref for entry in kb] == [make_ref("demo", "new"), make_ref("c", "d"),
                                               make_ref("x", "z")]
        assert added.aliases == {make_ref("x", "y")}
        assert [(entry.latest, entry.aliases) for entry in kb][:2] == [
            (entry.latest, entry.aliases) for entry in before]

    def test_rename_back_to_an_alias_swaps_the_two_names(self):
        kb = KnowledgeBase([_entry("demo", "new", ["demo/old", "x/y"])])
        kb.record(make_ref("demo", "new"), make_ref("Demo", "Old"),
                  make_metrics(name="Old", fetched_at=at(1)))
        (entry,) = kb
        assert (entry.ref, entry.aliases) == (
            make_ref("Demo", "Old"), {make_ref("demo", "new"), make_ref("x", "y")})
        assert kb.get(make_ref("demo", "old")) is kb.get(make_ref("demo", "new")) is entry


_STRPTIME_LAYOUT = "%Y-%m-%dT%H:%M:%SZ"
_SECONDS = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59),
                        timezones=st.just(timezone.utc)).map(lambda t: t.replace(microsecond=0))


def _strptime(text: str):
    """The time strptime reads from ``text`` in the store's layout, or None."""
    try:
        return datetime.strptime(text, _STRPTIME_LAYOUT).replace(tzinfo=timezone.utc)
    except ValueError:
        return None


class TestTimestamps:
    def test_format_round_trip(self):
        stamp = datetime(2024, 3, 5, 6, 7, 8, tzinfo=timezone.utc)
        assert parse_timestamp(format_timestamp(stamp)) == stamp

    def test_format_shape(self):
        assert format_timestamp(T0) == "2024-01-01T12:00:00Z"

    @given(_SECONDS)
    def test_every_second_of_years_1_to_9999_round_trips(self, stamp):
        assert parse_timestamp(format_timestamp(stamp)) == stamp

    @given(_SECONDS.filter(lambda t: t.year >= 1000))
    def test_years_from_1000_are_written_as_strftime_wrote_them(self, stamp):
        assert format_timestamp(stamp) == stamp.strftime(_STRPTIME_LAYOUT)

    @given(st.one_of(
        _SECONDS.map(format_timestamp),
        st.from_regex(r"[0-9]{1,4}-[0-9]{1,2}-[0-9]{1,2}T[0-9]{1,2}:[0-9]{1,2}:[0-9]{1,2}Z",
                      fullmatch=True),
        st.text(st.sampled_from("0123456789-:TZtz \u0662\n"), max_size=22),
    ))
    def test_what_the_parser_accepts_strptime_reads_as_the_same_time(self, text):
        try:
            parsed = parse_timestamp(text)
        except ValueError:
            return
        assert parsed == _strptime(text)
        assert format_timestamp(parsed) == text  # the one layout, written back byte for byte

    @pytest.mark.parametrize("text", [
        "2024-1-2T3:4:5Z", "2024-1-02T03:04:05Z", "2024-01-2T03:04:05Z", "2024-01-02T3:04:05Z",
        "2024-01-02T03:4:05Z", "2024-01-02T03:04:5Z",
        "\u0662\u0660\u0662\u0664-01-02T03:04:05Z", "2024-01-02t03:04:05z",
    ], ids=["unpadded", "month", "day", "hour", "minute", "second", "non-ascii-digits",
            "lower-case"])
    def test_other_spellings_strptime_read_are_refused(self, text):
        assert _strptime(text) is not None
        with pytest.raises(ValueError, match="^not a YYYY-MM-DDTHH:MM:SSZ time: "):
            parse_timestamp(text)

    @pytest.mark.parametrize("text", [
        "2024-02-30T00:00:00Z", "2024-01-01T24:00:00Z", "2024-01-01T00:00:60Z",
        "0000-01-01T00:00:00Z", " 2024-01-01T00:00:00Z", "2024-01-01T00:00:00Z\n",
        "2024-01-01T00:00:00", "2024-01-01 00:00:00Z",
    ])
    def test_what_strptime_refuses_stays_refused(self, text):
        assert _strptime(text) is None
        with pytest.raises(ValueError):
            parse_timestamp(text)

    def test_a_store_dated_before_1000_loads_after_a_save(self, tmp_path):
        stamp = datetime(999, 1, 1, tzinfo=timezone.utc)
        kb = KnowledgeBase()
        kb.upsert(make_ref("a", "b"), make_metrics(name="b", fetched_at=stamp))
        path = tmp_path / "kb.jsonl"
        save_records(kb, path)
        assert '"first_seen": "0999-01-01T00:00:00Z"' in path.read_text(encoding="utf-8")
        save_records(load_records(path), path)
        assert load_records(path).sorted_entries() == kb.sorted_entries()
