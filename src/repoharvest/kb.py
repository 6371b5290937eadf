"""Durable repository knowledge base.

Holds one entry per repository (deduplicated case-insensitively on
owner/name) with the latest metrics snapshot, its maturity tier, and the
history of prior snapshots. Persists as one JSON object per line with an
explicit schema version (2: the latest snapshot keeps its ETag; version 1
records still load, without one); exports a CSV table and the
human-readable report.
All file writes are write-then-rename, so readers never see a partial file.
"""
from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

from .github import RepoMetrics
from .links import RepoRef
from .maturity import MaturityTier

SCHEMA_VERSION = 2
_READABLE_VERSIONS = (1, SCHEMA_VERSION)
TIMESTAMP_FMT = "%Y-%m-%dT%H:%M:%SZ"

RECORDS_FILENAME = "kb.jsonl"
TABLE_FILENAME = "kb.csv"
REPORT_FILENAME = "report.txt"

_TABLE_COLUMNS = (
    "owner",
    "name",
    "canonical_url",
    "tier",
    "stars",
    "forks",
    "open_issues",
    "contributors",
    "description",
    "first_seen",
    "fetched_at",
    "source_papers",
)


class StoreError(Exception):
    """The store file is unreadable or structurally invalid."""


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).strftime(TIMESTAMP_FMT)


def parse_timestamp(text: str) -> datetime:
    return datetime.strptime(text, TIMESTAMP_FMT).replace(tzinfo=timezone.utc)


@dataclass
class KbEntry:
    """One repository: identity, latest snapshot, tier, and history.

    History is ordered oldest-first; every history timestamp precedes
    latest.fetched_at. Only latest keeps an ETag.
    """

    ref: RepoRef
    latest: RepoMetrics
    tier: MaturityTier
    first_seen: datetime
    history: list[RepoMetrics] = field(default_factory=list)


@dataclass
class KbDiff:
    """What changed between two stores.

    ``added`` is present only in the new store; ``updated`` pairs the old
    and new snapshots where any count differs; ``unchanged`` covers entries
    with identical counts plus entries the new run did not observe at all.
    The three lists partition the union of both entry sets.
    """

    added: list[RepoRef] = field(default_factory=list)
    updated: list[tuple[RepoRef, RepoMetrics, RepoMetrics]] = field(default_factory=list)
    unchanged: list[RepoRef] = field(default_factory=list)


class KnowledgeBase:
    """In-memory store, keyed by case-insensitive (owner, name)."""

    def __init__(self, entries: Iterable[KbEntry] = ()) -> None:
        self._entries: dict[tuple[str, str], KbEntry] = {}
        for entry in entries:
            self._entries[entry.ref.identity()] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[KbEntry]:
        return iter(self._entries.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return self._entries == other._entries

    def clone(self) -> "KnowledgeBase":
        """Independent copy; immutable members are shared."""
        return KnowledgeBase(
            replace(entry, history=list(entry.history)) for entry in self
        )

    def sorted_entries(self) -> list[KbEntry]:
        """Export order: first_seen, then owner/name (case-insensitive)."""
        return sorted(
            self._entries.values(),
            key=lambda e: (e.first_seen, e.ref.owner.lower(), e.ref.name.lower()),
        )

    def upsert(self, ref: RepoRef, metrics: RepoMetrics, tier: MaturityTier) -> KbEntry:
        """Insert or refresh one repository.

        A new identity is inserted with empty history; an existing one has
        its previous latest appended to history and latest/tier replaced.
        Re-inserting an identical snapshot (same fetched_at and counts) is a
        no-op, a same-timestamp snapshot with different counts replaces
        latest in place, and a strictly older snapshot is ignored; history
        timestamps therefore stay strictly increasing. Source papers are
        unioned on every call.
        """
        key = ref.identity()
        entry = self._entries.get(key)
        if entry is None:
            entry = KbEntry(
                ref=ref,
                latest=metrics,
                tier=tier,
                first_seen=metrics.fetched_at,
                history=[],
            )
            self._entries[key] = entry
            return entry
        merged = entry.ref.source_papers | ref.source_papers
        if merged != entry.ref.source_papers:
            entry.ref = replace(entry.ref, source_papers=merged)
        if (
            metrics.fetched_at == entry.latest.fetched_at
            and metrics.counts() == entry.latest.counts()
        ):
            return entry
        if metrics.fetched_at < entry.latest.fetched_at:
            return entry
        if metrics.fetched_at > entry.latest.fetched_at:
            entry.history.append(replace(entry.latest, etag=None))
        entry.latest = metrics
        entry.tier = tier
        return entry


def diff(old: KnowledgeBase, new: KnowledgeBase) -> KbDiff:
    """Classify every repository across two stores.

    An entry only in ``new`` is added; in both with any differing count is
    updated; otherwise unchanged. Entries only in ``old`` were simply not
    observed again, so they land in unchanged; the three lists partition
    the union of both stores.
    """
    result = KbDiff()
    for key, entry in new._entries.items():
        previous = old._entries.get(key)
        if previous is None:
            result.added.append(entry.ref)
        elif previous.latest.counts() != entry.latest.counts():
            result.updated.append((entry.ref, previous.latest, entry.latest))
        else:
            result.unchanged.append(entry.ref)
    for key, entry in old._entries.items():
        if key not in new._entries:
            result.unchanged.append(entry.ref)
    return result


def render_report_line(entry: KbEntry) -> str:
    """The report sentence for one entry.

    Counts are printed as-is with fixed plural nouns ("1 contributors" is
    intentional).
    """
    m = entry.latest
    contributors = m.contributors if m.contributors is not None else 0
    return (
        f"The project '{m.name}' has a maturity level of {entry.tier}. "
        f"It has {m.stars} stars, {m.forks} forks, {m.open_issues} open issues, "
        f"and {contributors} contributors."
    )


# -- serialization ---------------------------------------------------------


def _metrics_to_dict(metrics: RepoMetrics) -> dict:
    data = {
        "name": metrics.name,
        "description": metrics.description,
        "stars": metrics.stars,
        "forks": metrics.forks,
        "open_issues": metrics.open_issues,
        "contributors": metrics.contributors,
        "fetched_at": format_timestamp(metrics.fetched_at),
    }
    if metrics.etag is not None:
        data["etag"] = metrics.etag
    return data


def _checked(value, kind: type, what: str):
    """``value``, which must be a ``kind``: a store line of the wrong shape
    is a TypeError, which load_records reports with its line."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be a {kind.__name__}, not {value!r}")
    return value


def _metrics_from_dict(data: dict) -> RepoMetrics:
    etag = _checked(data, dict, "snapshot").get("etag")
    return RepoMetrics(
        name=data["name"],
        description=data["description"],
        stars=data["stars"],
        forks=data["forks"],
        open_issues=data["open_issues"],
        contributors=data["contributors"],
        fetched_at=parse_timestamp(data["fetched_at"]),
        etag=etag if etag is None else _checked(etag, str, "etag"),
    )


def entry_to_dict(entry: KbEntry) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "owner": entry.ref.owner,
        "name": entry.ref.name,
        "canonical_url": entry.ref.canonical_url,
        "source_papers": sorted(entry.ref.source_papers),
        "tier": str(entry.tier),
        "first_seen": format_timestamp(entry.first_seen),
        "latest": _metrics_to_dict(entry.latest),
        "history": [_metrics_to_dict(m) for m in entry.history],
    }


def entry_from_dict(data: dict) -> KbEntry:
    version = _checked(data, dict, "record").get("schema_version")
    if type(version) is not int or version not in _READABLE_VERSIONS:
        raise StoreError(f"unsupported schema version {version!r}")
    papers = _checked(data["source_papers"], list, "source_papers")
    ref = RepoRef(
        owner=_checked(data["owner"], str, "owner"),
        name=_checked(data["name"], str, "name"),
        source_papers=frozenset(_checked(p, str, "source paper") for p in papers),
    )
    return KbEntry(
        ref=ref,
        latest=_metrics_from_dict(data["latest"]),
        tier=MaturityTier.from_label(_checked(data["tier"], str, "tier")),
        first_seen=parse_timestamp(data["first_seen"]),
        history=[_metrics_from_dict(m) for m in _checked(data["history"], list, "history")],
    )


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def save_records(kb: KnowledgeBase, path: Path | str) -> None:
    """Write the durable line-record store (deterministic order)."""
    lines = [json.dumps(entry_to_dict(e), ensure_ascii=False) for e in kb.sorted_entries()]
    _write_atomic(Path(path), "".join(line + "\n" for line in lines))


def load_records(path: Path | str) -> KnowledgeBase:
    """Load a store written by save_records."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StoreError(f"cannot read store {path}: {exc}") from exc
    entries = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            entries.append(entry_from_dict(json.loads(line)))
        except (StoreError, KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"{path}:{lineno}: bad record: {exc}") from exc
    return KnowledgeBase(entries)


def export_table(kb: KnowledgeBase, path: Path | str) -> None:
    """Write the CSV table (header always present)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_TABLE_COLUMNS)
    for entry in kb.sorted_entries():
        m = entry.latest
        writer.writerow(
            [
                entry.ref.owner,
                entry.ref.name,
                entry.ref.canonical_url,
                str(entry.tier),
                m.stars,
                m.forks,
                m.open_issues,
                m.contributors if m.contributors is not None else "",
                m.description or "",
                format_timestamp(entry.first_seen),
                format_timestamp(m.fetched_at),
                " ".join(sorted(entry.ref.source_papers)),
            ]
        )
    _write_atomic(Path(path), buffer.getvalue())


def export_report(kb: KnowledgeBase, path: Path | str) -> None:
    """Write the human-readable report, one sentence per entry."""
    _write_atomic(Path(path), render_report(kb))


def render_report(kb: KnowledgeBase) -> str:
    lines = [render_report_line(entry) for entry in kb.sorted_entries()]
    return "".join(line + "\n" for line in lines)
