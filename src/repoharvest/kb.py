"""Durable repository knowledge base.

Holds one entry per repository (deduplicated case-insensitively on
owner/name) with the latest metrics snapshot, the history of prior
snapshots, the other names GitHub redirected to it, and the papers that
named it. The maturity tier is not kept: every writer grades the latest
snapshot with maturity.classify. Persists as one JSON object per line with
an explicit schema version (2: the latest snapshot keeps its ETag; version 1
records still load, without one); exports a CSV table and the human-readable
report, and pairs each entry with the latest snapshot it held before a run
updated the store in place.
Each writer writes its file in place; the command line writes the output
set under staged names and renames each file once, so a reader of the
outputs never sees a partial file.
"""
from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Mapping, Optional

from .arxiv import strip_version
from .github import RepoMetrics, has_lone_surrogate, sendable_etag
from .links import RepoRef, repo_from_name
from .maturity import TIERS, classify

SCHEMA_VERSION = 2
_READABLE_VERSIONS = (1, SCHEMA_VERSION)
# The one timestamp layout the store writes and reads: YYYY-MM-DDTHH:MM:SSZ.
_TIMESTAMP = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z")

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
    """``value`` in UTC to the second, the year in four digits."""
    return value.astimezone(timezone.utc).isoformat(timespec="seconds").replace("+00:00", "Z")


def parse_timestamp(text: str) -> datetime:
    """The UTC time a ``YYYY-MM-DDTHH:MM:SSZ`` string names. Any other
    string, or an impossible date or time in that layout, is a ValueError."""
    match = _TIMESTAMP.fullmatch(text)
    if match is None:
        raise ValueError(f"not a YYYY-MM-DDTHH:MM:SSZ time: {text!r}")
    return datetime(*map(int, match.groups()), tzinfo=timezone.utc)


@dataclass
class KbEntry:
    """One repository: identity, latest snapshot, history, and ``papers``,
    the ids of the papers that gave any of its names, which only grow. Its
    tier is ``classify(latest)``, graded wherever it is written.

    History is ordered oldest-first; every history timestamp precedes
    latest.fetched_at. Only latest keeps an ETag. ``aliases`` are the other
    names, as a paper first gave them, that GitHub redirected to this
    repository, and the names it was stored under before a rename.
    """

    ref: RepoRef
    latest: RepoMetrics
    first_seen: datetime
    history: list[RepoMetrics] = field(default_factory=list)
    aliases: frozenset[RepoRef] = frozenset()
    papers: frozenset[str] = frozenset()


class KnowledgeBase:
    """In-memory store, keyed by case-insensitive (owner, name).

    A name, whether an entry's identity or an alias, belongs to one entry:
    building a store with a name two entries claim is a StoreError, and
    ``get`` finds the entry that holds a name. Two stores are compared by
    their ``sorted_entries()``.
    """

    def __init__(self, entries: Iterable[KbEntry] = ()) -> None:
        self._entries: dict[tuple[str, str], KbEntry] = {}  # by identity
        self._names: dict[tuple[str, str], KbEntry] = {}  # every identity and alias
        for entry in entries:
            self._add(entry)

    def _add(self, entry: KbEntry) -> None:
        for name in (entry.ref, *sorted(entry.aliases, key=lambda a: (a.owner, a.name))):
            if name.identity() in self._names:
                raise StoreError(f"repeats the repository {name.owner}/{name.name}")
            self._names[name.identity()] = entry
        self._entries[entry.ref.identity()] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[KbEntry]:
        return iter(self._entries.values())

    def get(self, name: RepoRef) -> Optional[KbEntry]:
        """The entry that holds ``name``, as its identity or an alias."""
        return self._names.get(name.identity())

    def clone(self) -> "KnowledgeBase":
        """Independent copy; immutable members are shared. The program no
        longer calls it: ``monitor`` updates the store it loads and pairs
        entries through ``diff``. It stays only because the benchmark's
        tracer wraps it by name, and goes when that hook moves."""
        return KnowledgeBase(
            replace(entry, history=list(entry.history)) for entry in self
        )

    def sorted_entries(self) -> list[KbEntry]:
        """Export order: first_seen, then owner/name (case-insensitive)."""
        return sorted(
            self._entries.values(),
            key=lambda e: (e.first_seen, e.ref.owner.lower(), e.ref.name.lower()),
        )

    def _claim(self, entry: KbEntry) -> None:
        """File ``entry`` under its ref, a name it takes from the entry that
        held it as an alias, if one did."""
        key = entry.ref.identity()
        holder = self._names.get(key)
        if holder is not None:
            holder.aliases = frozenset(a for a in holder.aliases if a.identity() != key)
        self._entries[key] = self._names[key] = entry

    def upsert(self, ref: RepoRef, metrics: RepoMetrics,
               papers: AbstractSet[str] = frozenset()) -> KbEntry:
        """Insert or refresh one repository, named by ``papers``.

        A new identity is inserted with empty history. For an existing one,
        a later snapshot archives the current latest to history, a snapshot
        from the same second replaces latest in place, and an older one is
        ignored; history timestamps therefore stay strictly increasing.
        ``papers`` join the entry's on every call, even with an older
        snapshot. No tier is stored: a writer grades whatever latest is then.
        """
        entry = self._entries.get(ref.identity())
        if entry is None:
            entry = KbEntry(ref=ref, latest=metrics, first_seen=metrics.fetched_at)
            self._claim(entry)
        entry.papers |= papers
        if metrics.fetched_at < entry.latest.fetched_at:
            return entry
        if metrics.fetched_at > entry.latest.fetched_at:
            entry.history.append(replace(entry.latest, etag=None))
        entry.latest = metrics
        return entry

    def record(self, name: RepoRef, ref: RepoRef, metrics: RepoMetrics,
               papers: AbstractSet[str] = frozenset()) -> KbEntry:
        """Store GitHub's answer ``ref`` to the name ``name`` that ``papers`` gave.

        First the entry holding ``name`` moves to ``ref``, unless ``ref`` is
        an entry's identity already, its own or another's: its old ref
        becomes an alias, and its papers, first_seen and history stay. Then
        the snapshot and ``papers`` are upserted, with no tier, under
        ``ref``. Last, ``name`` is kept as an alias of that entry, unless
        some entry already holds it.
        """
        entry = self._names.get(name.identity())
        if entry is not None and ref.identity() not in self._entries:
            del self._entries[entry.ref.identity()]
            entry.aliases |= {entry.ref}
            entry.ref = ref
            self._claim(entry)
        entry = self.upsert(ref, metrics, papers)
        if name.identity() not in self._names:
            entry.aliases = entry.aliases | {name}
            self._names[name.identity()] = entry
        return entry


def diff(before: Mapping[int, RepoMetrics],
         kb: KnowledgeBase) -> list[tuple[KbEntry, Optional[RepoMetrics]]]:
    """Each entry of ``kb``, in store order, with ``before[id(entry)]``: the
    latest snapshot it held before a run updated ``kb`` in place, whatever
    names it has had since; None for an entry the run added. A store never
    drops an entry, so no id in ``before`` names another entry."""
    return [(entry, before.get(id(entry))) for entry in kb]


def render_report_line(metrics: RepoMetrics, tier: str) -> str:
    """The report sentence for one snapshot graded ``tier``: the label of
    maturity.TIERS that the caller's ``classify`` gave it.

    Counts are printed as-is with fixed plural nouns ("1 contributors" is
    intentional).
    """
    contributors = metrics.contributors if metrics.contributors is not None else 0
    return (
        f"The project '{metrics.name}' has a maturity level of {tier}. "
        f"It has {metrics.stars} stars, {metrics.forks} forks, "
        f"{metrics.open_issues} open issues, and {contributors} contributors."
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
    """``value``, which must be a ``kind``, and a string with no lone
    surrogate: a store line of the wrong shape is a TypeError or a
    ValueError, which load_records reports with its line."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be a {kind.__name__}, not {value!r}")
    if isinstance(value, str) and has_lone_surrogate(value):
        raise ValueError(f"{what} {value!r} holds a lone surrogate, which UTF-8 cannot encode")
    return value


def _metrics_from_dict(data: dict) -> RepoMetrics:
    etag = _checked(data, dict, "snapshot").get("etag")
    if etag is not None and not sendable_etag(_checked(etag, str, "etag")):
        raise ValueError(f"etag {etag!r} cannot be sent in If-None-Match")
    return RepoMetrics(
        name=_checked(data["name"], str, "snapshot name"),
        description=data["description"],
        stars=data["stars"],
        forks=data["forks"],
        open_issues=data["open_issues"],
        contributors=data["contributors"],
        fetched_at=parse_timestamp(data["fetched_at"]),
        etag=etag,
    )


def entry_to_dict(entry: KbEntry) -> dict:
    data = {
        "schema_version": SCHEMA_VERSION,
        "owner": entry.ref.owner,
        "name": entry.ref.name,
        "canonical_url": entry.ref.canonical_url,
        "source_papers": sorted(entry.papers),
        "tier": classify(entry.latest),
        "first_seen": format_timestamp(entry.first_seen),
        "latest": _metrics_to_dict(entry.latest),
        "history": [_metrics_to_dict(m) for m in entry.history],
    }
    if entry.aliases:
        data["aliases"] = sorted(f"{alias.owner}/{alias.name}" for alias in entry.aliases)
    return data


def entry_from_dict(data: dict) -> KbEntry:
    version = _checked(data, dict, "record").get("schema_version")
    if type(version) is not int or version not in _READABLE_VERSIONS:
        raise StoreError(f"unsupported schema version {version!r}")
    papers = _checked(data["source_papers"], list, "source_papers")
    owner = _checked(data["owner"], str, "owner")
    name = _checked(data["name"], str, "name")
    latest = _metrics_from_dict(data["latest"])
    history = [_metrics_from_dict(m) for m in _checked(data["history"], list, "history")]
    if any(m.etag is not None for m in history):
        raise ValueError("a history snapshot keeps no etag")
    times = [m.fetched_at for m in history] + [latest.fetched_at]
    if any(earlier >= later for earlier, later in zip(times, times[1:])):
        raise StoreError("history timestamps must increase and precede latest.fetched_at")
    aliases = frozenset(map(repo_from_name, _checked(data.get("aliases", []), list, "aliases")))
    tier = _checked(data["tier"], str, "tier")  # checked, not kept
    if tier.strip().upper() not in [label.upper() for label in TIERS]:
        raise ValueError(f"unknown maturity tier {tier!r}")
    return KbEntry(
        ref=repo_from_name(f"{owner}/{name}"),
        latest=latest,
        first_seen=parse_timestamp(data["first_seen"]),
        history=history,
        aliases=aliases,
        papers=frozenset(strip_version(_checked(p, str, "source paper")) for p in papers),
    )


def save_records(kb: KnowledgeBase, path: Path | str) -> None:
    """Write the durable line-record store (deterministic order)."""
    lines = [json.dumps(entry_to_dict(e), ensure_ascii=False) for e in kb.sorted_entries()]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_records(path: Path | str) -> KnowledgeBase:
    """Load a store written by save_records."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise StoreError(f"cannot read store {path}: {exc}") from exc
    kb = KnowledgeBase()
    # "\n" only: str.splitlines() also breaks at U+2028, U+2029 and U+0085,
    # which json.dumps(ensure_ascii=False) leaves raw inside strings.
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            kb._add(entry_from_dict(json.loads(line)))
        except (StoreError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise StoreError(f"{path}:{lineno}: bad record: {exc}") from exc
    return kb


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
                classify(m),
                m.stars,
                m.forks,
                m.open_issues,
                m.contributors if m.contributors is not None else "",
                m.description or "",
                format_timestamp(entry.first_seen),
                format_timestamp(m.fetched_at),
                " ".join(sorted(entry.papers)),
            ]
        )
    Path(path).write_text(buffer.getvalue(), encoding="utf-8")


def export_report(kb: KnowledgeBase, path: Path | str) -> None:
    """Write the human-readable report, one sentence per entry."""
    lines = [render_report_line(entry.latest, classify(entry.latest))
             for entry in kb.sorted_entries()]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
