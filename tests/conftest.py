"""Shared fakes: a deterministic clock, canned HTTP responses, and a
scripted session that records request timing; a check that an output set
agrees with itself; and a check that no test leaves a thread running."""
from __future__ import annotations

import csv
import json
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

from repoharvest.github import RepoMetrics
from repoharvest.kb import load_records, render_report_line
from repoharvest.links import RepoRef
from repoharvest.maturity import MaturityTier

_UNSET = object()


class FakeClock:
    """Callable monotonic clock whose sleep() just advances time."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds >= 0, f"negative sleep {seconds}"
        self.sleeps.append(seconds)
        self.now += seconds

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeResponse:
    """Just enough of requests.Response for the clients under test."""

    def __init__(self, status_code=200, json_body=_UNSET, text="", headers=None):
        self.status_code = status_code
        self.headers = dict(headers or {})
        if json_body is not _UNSET:
            self.text = json.dumps(json_body)
        else:
            self.text = text
        self.content = self.text.encode("utf-8")

    def json(self):
        return json.loads(self.text)


class FakeSession:
    """Scripted HTTP session.

    ``handler(url, params)`` returns the next FakeResponse (or raises).
    Every call is recorded as (clock_time, url, params) so tests can check
    both ordering and spacing; ``headers`` holds each call's request
    headers and ``statuses`` the status of each answer returned.
    """

    def __init__(self, handler, clock=None):
        self._handler = handler
        self._clock = clock
        self.calls: list[tuple[float, str, dict | None]] = []
        self.headers: list[dict] = []
        self.statuses: list[int] = []

    def get(self, url, params=None, **kwargs):
        at = self._clock() if self._clock is not None else 0.0
        self.calls.append((at, url, dict(params) if params else None))
        self.headers.append(dict(kwargs.get("headers") or {}))
        response = self._handler(url, params)
        self.statuses.append(response.status_code)
        return response

    @property
    def times(self) -> list[float]:
        return [at for at, _, _ in self.calls]


def atom_entry(arxiv_id: str, title: str = "", abstract: str = "",
               published: str = "2021-06-01T00:00:00Z", comment: str = "") -> str:
    """One Atom entry; the authors' ``<arxiv:comment>`` only when given."""
    comment_el = (
        f'<arxiv:comment xmlns:arxiv="http://arxiv.org/schemas/atom">{escape(comment)}'
        "</arxiv:comment>" if comment else ""
    )
    return (
        "<entry>"
        f"<id>http://arxiv.org/abs/{arxiv_id}</id>"
        f"<title>{escape(title)}</title>"
        f"<summary>{escape(abstract)}</summary>"
        f"{comment_el}"
        f"<published>{published}</published>"
        "</entry>"
    )


def atom_feed(entries: list[str], total: int | None = None) -> str:
    total_el = (
        f'<opensearch:totalResults xmlns:opensearch='
        f'"http://a9.com/-/spec/opensearch/1.1/">{total}</opensearch:totalResults>'
        if total is not None
        else ""
    )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<feed xmlns="http://www.w3.org/2005/Atom">'
        f"{total_el}{''.join(entries)}</feed>"
    )


def make_ref(owner="octo", name="spoon", sources=()) -> RepoRef:
    return RepoRef(owner=owner, name=name, source_papers=frozenset(sources))


def make_metrics(
    name="spoon",
    stars=0,
    forks=0,
    open_issues=0,
    contributors=1,
    description=None,
    fetched_at=None,
    etag=None,
) -> RepoMetrics:
    return RepoMetrics(
        name=name,
        description=description,
        stars=stars,
        forks=forks,
        open_issues=open_issues,
        contributors=contributors,
        fetched_at=fetched_at or datetime(2024, 1, 1, tzinfo=timezone.utc),
        etag=etag,
    )


def assert_output_set_matches(out_dir: Path) -> None:
    """``kb.csv`` rows and ``report.txt`` lines match the entries of
    ``kb.jsonl`` one for one, in store order, each with the tier that
    ``kb.jsonl`` records for it."""
    store = out_dir / "kb.jsonl"
    records = [json.loads(line) for line in store.read_text(encoding="utf-8").split("\n")
               if line]
    with (out_dir / "kb.csv").open(newline="", encoding="utf-8") as table:
        rows = list(csv.DictReader(table))
    counted = ("stars", "forks", "open_issues", "contributors")
    assert [[row[key] for key in ("owner", "name", "tier", *counted)] for row in rows] == [
        [record["owner"], record["name"], record["tier"],
         *("" if record["latest"][key] is None else str(record["latest"][key])
           for key in counted)]
        for record in records]
    entries = load_records(store).sorted_entries()
    assert (out_dir / "report.txt").read_text(encoding="utf-8").splitlines() == [
        render_report_line(entry.latest, MaturityTier.from_label(record["tier"]))
        for entry, record in zip(entries, records, strict=True)]


@pytest.fixture
def fake_clock() -> FakeClock:
    return FakeClock()


#: Seconds a test's threads get to end after it returns.
THREAD_GRACE = 2.0


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves behind a running thread it started."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + THREAD_GRACE
    started = [thread for thread in threading.enumerate() if thread not in before]
    for thread in started:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = [thread.name for thread in started if thread.is_alive()]
    assert not alive, f"threads left running: {alive}"
