"""arXiv metadata retrieval.

Builds the search query, pages through the Atom feed endpoint, and parses
entries into PaperRecord values. A politeness delay separates consecutive
requests; transport and 5xx failures are retried with doubling backoff.
"""
from __future__ import annotations

import contextlib
import re
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import requests

from .throttle import MAX_RETRIES, RequestGate

DEFAULT_BASE_URL = "http://export.arxiv.org/api/query"

DEFAULT_TERMS = (
    "clinical informatics",
    "healthcare data analytics",
    "electronic health records",
    "medical software development",
)
DEFAULT_DATE_FROM = 2019
DEFAULT_DATE_TO = 2024
DEFAULT_MAX_RESULTS = 1000
DEFAULT_PAGE_SIZE = 100
# The most results the feed returns for one request. A larger page comes back
# short, and the harvest would stop there as if the feed had ended
# (https://info.arxiv.org/help/api/user-manual.html).
MAX_PAGE_SIZE = 2000
DEFAULT_DELAY = 3.0

_ATOM = "{http://www.w3.org/2005/Atom}"
_OPENSEARCH = "{http://a9.com/-/spec/opensearch/1.1/}"
_ARXIV = "{http://arxiv.org/schemas/atom}"
_VERSIONED_ID = re.compile(r"\A([0-9]{4}\.[0-9]{4,5}|[a-z-]+(?:\.[A-Z]{2})?/[0-9]{7})v[0-9]+\Z")


class ArxivRequestError(Exception):
    """A feed request failed: after its retries, or with a page that is not
    well-formed XML or holds an entry with no ``<id>`` or an empty one."""


@dataclass(frozen=True)
class SearchSpec:
    """Search phrases, submission-year range, the cap on papers, and the most
    papers a feed request asks for; a value it refuses raises ValueError."""

    terms: tuple[str, ...]
    from_year: int = DEFAULT_DATE_FROM
    to_year: int = DEFAULT_DATE_TO
    max_results: int = DEFAULT_MAX_RESULTS
    page_size: int = DEFAULT_PAGE_SIZE

    def __post_init__(self) -> None:
        trimmed = tuple(str(t).strip() for t in self.terms)
        object.__setattr__(self, "terms", trimmed)
        if not trimmed:
            raise ValueError("terms must be non-empty")
        if any(not t for t in trimmed):
            raise ValueError("each term must be non-empty after trimming whitespace")
        for name in ("from_year", "to_year"):
            if not 1000 <= getattr(self, name) <= 9999:
                raise ValueError(f"{name} must be a four-digit year")
        if self.from_year > self.to_year:
            raise ValueError("from_year must not exceed to_year")
        if self.max_results < 1:
            raise ValueError("max_results must be >= 1")
        if self.page_size < 1:
            raise ValueError("page_size must be >= 1")
        if self.page_size > MAX_PAGE_SIZE:
            raise ValueError(f"page_size must be at most {MAX_PAGE_SIZE}, the feed's limit")


@dataclass(frozen=True)
class PaperRecord:
    """One paper as the harvest reads it: its unversioned id, and the title,
    abstract and authors' comment (``<arxiv:comment>``) mined for GitHub URLs."""

    arxiv_id: str
    title: str
    abstract: str
    comment: str


def strip_version(arxiv_id: str) -> str:
    """``arxiv_id`` without the ``vN`` of either arXiv id shape, so every
    version is one paper: ``2102.00002v2`` is ``2102.00002`` and
    ``hep-th/9901001v1`` is ``hep-th/9901001``. No other id changes
    (https://info.arxiv.org/help/arxiv_identifier.html)."""
    return _VERSIONED_ID.sub(r"\1", arxiv_id)


def build_query(spec: SearchSpec) -> str:
    """Expand the spec into the query string that is sent.

    Each phrase becomes a ti:/abs: clause pair, OR-joined, followed by the
    submittedDate range in the feed's YYYYMMDDHHMM form, covering the whole
    of both years. Identical specs produce identical strings.
    """
    clauses = " OR ".join(f"ti:{t} OR abs:{t}" for t in spec.terms)
    return f"{clauses} AND submittedDate:[{spec.from_year}01010000 TO {spec.to_year}12312359]"


def _classify(outcome, start: int):
    """None for a 200, else (error, retryable); the error names the page's
    ``start`` offset.

    Transport failures and 5xx answers are retryable; other statuses are
    not.
    """
    if isinstance(outcome, requests.RequestException):
        return ArxivRequestError(f"transport failure at start={start}: {outcome}"), True
    status = outcome.status_code
    if status == 200:
        return None
    return ArxivRequestError(f"HTTP {status} from feed endpoint at start={start}"), status >= 500


class ArxivClient:
    """Feed client with paging and politeness delay; its RequestGate sends
    each request on ``session`` with the shared retry budget.

    ``session``, ``clock``, and ``sleep`` are injectable for tests.
    """

    def __init__(
        self,
        base_url: str = DEFAULT_BASE_URL,
        delay: float = DEFAULT_DELAY,
        backoff_base: float = 1.0,
        session=None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url
        self._gate = RequestGate(delay, backoff_base, session, clock, sleep)
        #: Total result count reported by the most recent page, if any.
        self.last_total_results: Optional[int] = None

    def fetch_page(self, query: str, start: int, page_size: int) -> list[PaperRecord]:
        """Request one feed page, retrying within the budget, and parse its
        entries in feed order. ``start`` and ``page_size`` are taken as
        given: iterate_papers derives them from a checked SearchSpec."""
        response = self._gate.get(
            self.base_url, lambda outcome: _classify(outcome, start),
            params={"search_query": query, "start": start, "max_results": page_size})
        return self._parse_feed(response.text)

    def _parse_feed(self, text: str) -> list[PaperRecord]:
        """The page's entries in feed order, each id after ``/abs/`` and
        unversioned. Only what the harvest reads is checked: well-formed XML
        and a non-empty id per entry; ``totalResults`` is kept when it is
        ASCII digits int() reads; ``<published>`` is not read."""
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ArxivRequestError(f"feed is not well-formed XML: {exc}") from exc
        total = (root.findtext(f"{_OPENSEARCH}totalResults") or "").strip()
        if total.isascii() and total.isdigit():  # "²".isdigit() too, but int() refuses it
            with contextlib.suppress(ValueError):  # more digits than int() reads
                self.last_total_results = int(total)
        records = []
        for index, entry in enumerate(root.findall(f"{_ATOM}entry")):
            raw_id = (entry.findtext(f"{_ATOM}id") or "").strip()
            arxiv_id = strip_version(raw_id.rsplit("/abs/", 1)[-1])
            if not arxiv_id:
                raise ArxivRequestError(f"entry {index}: missing <id>")
            records.append(
                PaperRecord(
                    arxiv_id=arxiv_id,
                    title=(entry.findtext(f"{_ATOM}title") or "").strip(),
                    abstract=(entry.findtext(f"{_ATOM}summary") or "").strip(),
                    comment=(entry.findtext(f"{_ARXIV}comment") or "").strip(),
                )
            )
        return records

    def iterate_papers(self, spec: SearchSpec) -> Iterator[PaperRecord]:
        """Stream records page by page until the cap, a short page, or a
        full page with no new id.

        Every page sends build_query(spec) and asks for ``spec.page_size``
        papers, or for what the cap leaves if that is fewer. Yields at most
        ``spec.max_results`` records and never issues another request once
        the cap is reached. Repeated ids (a shifting feed) are skipped so ids
        are unique within one run; a full page of them ends the feed, since
        a feed that ignores ``start`` would otherwise be paged forever. A
        short page that ends before the latest ``totalResults`` is asked for
        again, at most MAX_RETRIES more times, before the feed is taken to
        have ended.
        """
        query = build_query(spec)
        seen: set[str] = set()
        start = 0
        retries = 0
        while len(seen) < spec.max_results:
            size = min(spec.page_size, spec.max_results - len(seen))
            records = self.fetch_page(query, start, size)
            known = len(seen)
            for record in records:
                if record.arxiv_id in seen:
                    continue
                seen.add(record.arxiv_id)
                yield record
                if len(seen) >= spec.max_results:
                    return
            if len(records) < size:
                if retries < MAX_RETRIES and start + len(records) < (self.last_total_results or 0):
                    retries += 1
                    continue
                return
            if len(seen) == known:
                return
            start += size
            retries = 0
