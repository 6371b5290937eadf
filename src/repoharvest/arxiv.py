"""arXiv metadata retrieval.

Builds the search query, pages through the Atom feed endpoint, and parses
entries into PaperRecord values. A politeness delay separates consecutive
requests; transport and 5xx failures are retried with doubling backoff.
"""
from __future__ import annotations

import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import requests

from .throttle import REQUEST_TIMEOUT, RequestGate

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


class ArxivRequestError(Exception):
    """A feed request failed: after its retries, or with a page that is not
    well-formed XML or holds an entry with no ``<id>``."""


@dataclass(frozen=True)
class SearchSpec:
    """Search phrases, submission-year range, and paging bounds; a value
    that breaks an invariant raises ValueError."""

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
        if not 1 <= self.page_size <= self.max_results:
            raise ValueError("page_size must be between 1 and max_results")
        if self.page_size > MAX_PAGE_SIZE:
            raise ValueError(f"page_size must be at most {MAX_PAGE_SIZE}, the feed's limit")


@dataclass(frozen=True)
class PaperRecord:
    """One paper as the harvest reads it: its id, and the title, abstract
    and authors' comment (``<arxiv:comment>``) mined for GitHub URLs."""

    arxiv_id: str
    title: str
    abstract: str
    comment: str


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
    """Feed client with paging, politeness delay, and the shared retry
    budget of throttle.RequestGate.get.

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
        self._session = session if session is not None else requests.Session()
        self._gate = RequestGate(delay, backoff_base, clock=clock, sleep=sleep)
        #: Total result count reported by the most recent page, if any.
        self.last_total_results: Optional[int] = None

    def fetch_page(self, query: str, start: int, page_size: int) -> list[PaperRecord]:
        """Request one feed page, retrying within the budget, and parse its
        entries in feed order. ``start`` and ``page_size`` are taken as
        given: iterate_papers derives them from a checked SearchSpec."""
        params = {"search_query": query, "start": start, "max_results": page_size}
        response = self._gate.get(
            lambda: self._session.get(self.base_url, params=params, timeout=REQUEST_TIMEOUT),
            lambda outcome: _classify(outcome, start),
        )
        return self._parse_feed(response.text)

    def _parse_feed(self, text: str) -> list[PaperRecord]:
        """The page's entries in feed order. Only what the harvest reads is
        checked: well-formed XML and an ``<id>`` per entry; ``totalResults``
        is kept when it is ASCII digits, and ``<published>`` is not read."""
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ArxivRequestError(f"feed is not well-formed XML: {exc}") from exc
        total = (root.findtext(f"{_OPENSEARCH}totalResults") or "").strip()
        if total.isascii() and total.isdigit():  # "²".isdigit() too, but int() refuses it
            self.last_total_results = int(total)
        records = []
        for index, entry in enumerate(root.findall(f"{_ATOM}entry")):
            raw_id = (entry.findtext(f"{_ATOM}id") or "").strip()
            if not raw_id:
                raise ArxivRequestError(f"entry {index}: missing <id>")
            records.append(
                PaperRecord(
                    arxiv_id=raw_id.rsplit("/abs/", 1)[-1],
                    title=(entry.findtext(f"{_ATOM}title") or "").strip(),
                    abstract=(entry.findtext(f"{_ATOM}summary") or "").strip(),
                    comment=(entry.findtext(f"{_ARXIV}comment") or "").strip(),
                )
            )
        return records

    def iterate_papers(self, spec: SearchSpec) -> Iterator[PaperRecord]:
        """Stream records page by page until the cap, a short page, or a
        full page with no new id.

        Every page sends build_query(spec). Yields at most
        ``spec.max_results`` records and never issues another request once
        the cap is reached. Repeated ids (a shifting feed) are skipped so ids
        are unique within one run; a full page of them ends the feed, since
        a feed that ignores ``start`` would otherwise be paged forever.
        """
        query = build_query(spec)
        seen: set[str] = set()
        yielded = 0
        start = 0
        while yielded < spec.max_results:
            records = self.fetch_page(query, start, spec.page_size)
            known = len(seen)
            for record in records:
                if record.arxiv_id in seen:
                    continue
                seen.add(record.arxiv_id)
                yield record
                yielded += 1
                if yielded >= spec.max_results:
                    return
            if len(records) < spec.page_size or len(seen) == known:
                return
            start += spec.page_size
