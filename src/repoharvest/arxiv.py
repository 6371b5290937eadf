"""arXiv metadata retrieval.

Builds the search query, pages through the Atom feed endpoint, and parses
entries into PaperRecord values. A politeness delay separates consecutive
requests; transport and 5xx failures are retried with doubling backoff.
"""
from __future__ import annotations

import re
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import date
from typing import Callable, Iterator, Optional

import requests

from .throttle import REQUEST_TIMEOUT, RequestGate, retrying_get, seconds_header

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
DEFAULT_DELAY = 3.0

_ATOM = "{http://www.w3.org/2005/Atom}"
_OPENSEARCH = "{http://a9.com/-/spec/opensearch/1.1/}"

_DATE_RANGE = re.compile(r"submittedDate:\[(\d{4}) TO (\d{4})\]")


class ArxivRequestError(Exception):
    """A feed request failed."""


class FeedParseError(Exception):
    """The Atom response could not be parsed."""


@dataclass(frozen=True)
class SearchSpec:
    """Search phrases, submission-year range, and paging bounds; a value
    that breaks an invariant raises ValueError."""

    terms: tuple[str, ...]
    date_from: int = DEFAULT_DATE_FROM
    date_to: int = DEFAULT_DATE_TO
    max_results: int = DEFAULT_MAX_RESULTS
    page_size: int = DEFAULT_PAGE_SIZE

    def __post_init__(self) -> None:
        trimmed = tuple(str(t).strip() for t in self.terms)
        object.__setattr__(self, "terms", trimmed)
        if not trimmed:
            raise ValueError("terms must be non-empty")
        if any(not t for t in trimmed):
            raise ValueError("each term must be non-empty after trimming whitespace")
        if self.date_from > self.date_to:
            raise ValueError("date_from must not exceed date_to")
        if self.max_results < 1:
            raise ValueError("max_results must be >= 1")
        if not 1 <= self.page_size <= self.max_results:
            raise ValueError("page_size must be between 1 and max_results")


@dataclass(frozen=True)
class PaperRecord:
    """One paper's metadata as parsed from the feed."""

    arxiv_id: str
    title: str
    abstract: str
    submitted: date


def build_query(spec: SearchSpec) -> str:
    """Expand the spec into the feed query string.

    Each phrase becomes a ti:/abs: clause pair, OR-joined, followed by the
    submittedDate range. Identical specs produce identical strings.
    """
    clauses = " OR ".join(f"ti:{t} OR abs:{t}" for t in spec.terms)
    return f"{clauses} AND submittedDate:[{spec.date_from} TO {spec.date_to}]"


def normalize_date_range(query: str) -> str:
    """Rewrite a bare-year submittedDate range into the timestamp form the
    live endpoint accepts (YYYYMMDDHHMM bounds covering the whole years)."""
    return _DATE_RANGE.sub(
        lambda m: f"submittedDate:[{m.group(1)}01010000 TO {m.group(2)}12312359]",
        query,
    )


def _classify(outcome):
    """None for a 200, else (error, retryable, Retry-After hint).

    Transport failures and 5xx answers are retryable; other statuses are
    not.
    """
    if isinstance(outcome, requests.RequestException):
        return ArxivRequestError(f"transport failure: {outcome}"), True, None
    status = outcome.status_code
    if status == 200:
        return None
    return (
        ArxivRequestError(f"HTTP {status} from feed endpoint"),
        status >= 500,
        seconds_header(outcome.headers.get("Retry-After")),
    )


class ArxivClient:
    """Feed client with paging, politeness delay, and the shared retry
    budget of throttle.retrying_get.

    ``session``, ``clock``, and ``sleep`` are injectable for tests.
    """

    def __init__(
        self,
        base_url: str = DEFAULT_BASE_URL,
        delay: float = DEFAULT_DELAY,
        backoff_base: float = 1.0,
        normalize_dates: bool = False,
        session=None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url
        self.normalize_dates = normalize_dates
        self._backoff_base = backoff_base
        self._session = session if session is not None else requests.Session()
        self._gate = RequestGate(delay, clock=clock, sleep=sleep)
        #: Total result count reported by the most recent page, if any.
        self.last_total_results: Optional[int] = None

    def fetch_page(self, query: str, start: int, page_size: int) -> list[PaperRecord]:
        """Request one feed page, retrying within the budget, and parse its
        entries in feed order."""
        if start < 0:
            raise ValueError("start must be >= 0")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        send_query = normalize_date_range(query) if self.normalize_dates else query
        params = {"search_query": send_query, "start": start, "max_results": page_size}
        response = retrying_get(
            self._gate,
            lambda: self._session.get(self.base_url, params=params, timeout=REQUEST_TIMEOUT),
            _classify,
            self._backoff_base,
        )
        return self._parse_feed(response.text)

    def _parse_feed(self, text: str) -> list[PaperRecord]:
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise FeedParseError(f"feed is not well-formed XML: {exc}") from exc
        total = root.findtext(f"{_OPENSEARCH}totalResults")
        if total is not None and total.strip().isdigit():
            self.last_total_results = int(total.strip())
        records = []
        for index, entry in enumerate(root.findall(f"{_ATOM}entry")):
            raw_id = (entry.findtext(f"{_ATOM}id") or "").strip()
            if not raw_id:
                raise FeedParseError(f"entry {index}: missing <id>")
            arxiv_id = raw_id.rsplit("/abs/", 1)[-1]
            published = (entry.findtext(f"{_ATOM}published") or "").strip()
            try:
                submitted = date.fromisoformat(published[:10])
            except ValueError:
                raise FeedParseError(
                    f"entry {index}: bad <published> date {published!r}"
                ) from None
            records.append(
                PaperRecord(
                    arxiv_id=arxiv_id,
                    title=(entry.findtext(f"{_ATOM}title") or "").strip(),
                    abstract=(entry.findtext(f"{_ATOM}summary") or "").strip(),
                    submitted=submitted,
                )
            )
        return records

    def iterate_papers(self, spec: SearchSpec) -> Iterator[PaperRecord]:
        """Stream records page by page until the cap or a short page.

        Yields at most ``spec.max_results`` records and never issues another
        request once the cap is reached. Repeated ids (a shifting feed) are
        skipped so ids are unique within one run.
        """
        query = build_query(spec)
        seen: set[str] = set()
        yielded = 0
        start = 0
        while yielded < spec.max_results:
            records = self.fetch_page(query, start, spec.page_size)
            for record in records:
                if record.arxiv_id in seen:
                    continue
                seen.add(record.arxiv_id)
                yield record
                yielded += 1
                if yielded >= spec.max_results:
                    return
            if len(records) < spec.page_size:
                return
            start += spec.page_size
