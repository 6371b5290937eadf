"""GitHub REST API client for repository enrichment.

Fetches the engagement snapshot for each repository (/repos/{owner}/{name})
and counts contributors from one answer of the contributors endpoint: one
entry per page, so the Link header's rel="last" page number is the count.
A stored snapshot's ETag makes the snapshot request conditional, and an
unchanged repository costs one request. All requests pass through a single
RequestGate, so outbound traffic respects the throttle policy;
per-repository failures are returned as data and never abort a batch.
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Callable, Iterable, Mapping, Optional
from urllib.parse import parse_qs, urljoin, urlsplit

import requests

from .links import LinkError, RepoRef, repo_from_name
from .throttle import REQUEST_TIMEOUT, RequestGate

DEFAULT_BASE_URL = "https://api.github.com"

# Minimum gap between requests, with or without a token. GitHub asks for
# serial requests and at most 900 points a minute; a spent quota ends the
# requests (see GitHubClient._classify), so no spacing needs to stretch a
# run across the anonymous quota of 60 requests an hour.
AUTHENTICATED_MIN_INTERVAL = 0.10


def utc_now() -> datetime:
    """Current UTC time at second precision (the store's resolution)."""
    return datetime.now(timezone.utc).replace(microsecond=0)


class FailureKind(str, enum.Enum):
    NOT_FOUND = "not_found"
    RATE_LIMITED = "rate_limited"
    TRANSPORT = "transport"
    MALFORMED_RESPONSE = "malformed_response"
    FORBIDDEN = "forbidden"


@dataclass(frozen=True)
class RepoMetrics:
    """Engagement snapshot for one repository. Its ``name`` is checked where
    it enters: GitHub's ``full_name``, or a store line.

    Each count is a non-negative int; ``contributors`` is None until the
    contributors endpoint has been counted. ``etag`` is the ETag of the
    /repos answer the snapshot was built from, if it had one.
    """

    name: str
    description: Optional[str]
    stars: int
    forks: int
    open_issues: int
    contributors: Optional[int]
    fetched_at: datetime
    etag: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.description, (str, type(None))):
            raise TypeError(f"description must be a string or null, not {self.description!r}")
        for field_name, value in zip(("stars", "forks", "open_issues", "contributors"),
                                     self.counts()):
            if type(value) is not int:  # a bool is not a count
                if value is None and field_name == "contributors":
                    continue
                raise TypeError(f"{field_name} must be an integer, not {value!r}")
            if value < 0:
                raise ValueError(f"{field_name} must be >= 0")

    def counts(self) -> tuple[int, int, int, Optional[int]]:
        """The comparable counts: stars, forks, open issues, contributors."""
        return (self.stars, self.forks, self.open_issues, self.contributors)


@dataclass(frozen=True)
class FetchFailure:
    """Record of one repository that could not be enriched. ``kept`` is the
    resolved ref and snapshot of a /repos answer whose contributors request
    failed, with the stored count or None; it is stored all the same."""

    repo: RepoRef
    kind: FailureKind
    detail: str
    kept: Optional[tuple[RepoRef, RepoMetrics]] = None


@dataclass(frozen=True)
class ThrottlePolicy:
    """Outbound request pacing: the minimum gap between requests, in
    seconds. Retries follow the shared budget of throttle.RequestGate.get."""

    min_interval: float


class GitHubFetchError(Exception):
    """A single repository fetch failed; carries the failure kind."""

    def __init__(self, kind: FailureKind, detail: str) -> None:
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.detail = detail


def _page_number(url: Optional[str]) -> Optional[int]:
    """The positive ``page`` query parameter of ``url``, if it has one."""
    pages = parse_qs(urlsplit(url or "").query).get("page", [])
    if len(pages) == 1 and pages[0].isascii() and pages[0].isdigit() and int(pages[0]) > 0:
        return int(pages[0])
    return None


class GitHubClient:
    """REST client with throttling, retries, and rename-redirect handling.

    ``session``, ``clock``, ``sleep``, and ``now`` are injectable for
    tests; defaults talk to the real API with real time. Requests go out
    ``policy.min_interval`` apart with or without a token, which adds only
    its header and a larger quota. After an answer that says the quota is
    spent, the client sends nothing more (see _classify).
    """

    def __init__(
        self,
        base_url: str = DEFAULT_BASE_URL,
        token: Optional[str] = None,
        policy: ThrottlePolicy = ThrottlePolicy(AUTHENTICATED_MIN_INTERVAL),
        session=None,
        backoff_base: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        now: Callable[[], datetime] = utc_now,
    ) -> None:
        self._gate = RequestGate(policy.min_interval, backoff_base, clock=clock, sleep=sleep)
        self.base_url = base_url.rstrip("/")
        self._origin = urlsplit(self.base_url)[:2]  # scheme and host every hop must keep
        self._session = session if session is not None else requests.Session()
        self._quota_spent: Optional[str] = None  # detail of the answer that spent it
        self._now = now
        self._headers = {"Accept": "application/vnd.github+json"}
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    # -- low-level request machinery -------------------------------------

    def _classify(self, outcome, url: str):
        """None for a 2xx/3xx response, else (GitHubFetchError, retryable).
        Transport failures, 5xx answers, 429s and 403s with Retry-After are
        retryable; RequestGate.get waits out the Retry-After, the only wait
        the server sets. A 403/429 with X-RateLimit-Remaining: 0 and no
        Retry-After spends the client's quota: it is not retried, its reset
        (up to an hour away) is not waited for, and later requests fail
        rate_limited unsent, as GitHub may ban a client that keeps sending."""
        if isinstance(outcome, requests.RequestException):
            error = GitHubFetchError(FailureKind.TRANSPORT, f"transport failure: {outcome}")
            return error, True
        status = outcome.status_code
        if status < 400:
            return None
        headers = outcome.headers
        detail = f"HTTP {status} for {url}"
        kind, retryable = FailureKind.TRANSPORT, status >= 500
        if status == 404:
            kind = FailureKind.NOT_FOUND
        elif status == 401:
            kind = FailureKind.FORBIDDEN
        elif status in (403, 429):
            spent = "Retry-After" not in headers and headers.get("X-RateLimit-Remaining") == "0"
            retryable = not spent and (status == 429 or "Retry-After" in headers)
            kind = FailureKind.RATE_LIMITED if spent or retryable else FailureKind.FORBIDDEN
            if spent:
                self._quota_spent = detail = f"quota spent: {detail}"
        return GitHubFetchError(kind, detail), retryable

    def _request(self, url: str, params=None, etag: Optional[str] = None):
        """GET with the retry budget, following at most one rename redirect;
        ``params`` go on the first request only. With ``etag``, every hop is
        conditional (If-None-Match) and a 304 is returned as an answer;
        otherwise a 3xx is a redirect. A URL off ``base_url``'s scheme and
        host is refused unsent, so the token never follows a rename redirect
        to another host; a Location that is no URL is a malformed answer.
        Once the quota is spent, nothing is sent."""
        if self._quota_spent:
            raise GitHubFetchError(FailureKind.RATE_LIMITED, f"{self._quota_spent}; {url} not sent")
        headers = self._headers if etag is None else {**self._headers, "If-None-Match": etag}
        target = url
        for hop in range(2):
            if urlsplit(target)[:2] != self._origin:
                raise GitHubFetchError(FailureKind.MALFORMED_RESPONSE,
                                       f"refusing to leave {self.base_url} for {target}")
            response = self._gate.get(
                lambda: self._session.get(
                    target,
                    params=params,
                    headers=headers,
                    timeout=REQUEST_TIMEOUT,
                    allow_redirects=False,
                ),
                lambda outcome: self._classify(outcome, target),
            )
            status = response.status_code
            if not 300 <= status < 400 or (status == 304 and etag is not None):
                return response
            location = response.headers.get("Location")
            if hop or not location:
                problem = "repeated redirects" if hop else "redirect without Location"
                raise GitHubFetchError(FailureKind.MALFORMED_RESPONSE, f"{problem} for {url}")
            try:
                target, params = urljoin(url, location), None
            except ValueError as exc:
                detail = f"unparseable Location {location!r} for {url}: {exc}"
                raise GitHubFetchError(FailureKind.MALFORMED_RESPONSE, detail) from exc

    @staticmethod
    def _json_body(response, url: str, kind: type):
        """The response's JSON body, which must be a ``kind`` (dict or list)."""
        try:
            data = response.json()
        except ValueError as exc:
            raise GitHubFetchError(
                FailureKind.MALFORMED_RESPONSE, f"unparseable body from {url}: {exc}"
            ) from exc
        if not isinstance(data, kind):
            shape = "an object" if kind is dict else "a list"
            raise GitHubFetchError(FailureKind.MALFORMED_RESPONSE, f"expected {shape} from {url}")
        return data

    # -- public operations ------------------------------------------------

    def fetch_repo(
        self, ref: RepoRef, stored: Optional[RepoMetrics] = None
    ) -> tuple[RepoRef, RepoMetrics]:
        """Fetch the basic snapshot for one repository.

        Returns the canonical identity (updated when GitHub redirected to a
        renamed repository) together with the metrics; ``contributors`` is
        left unset for count_contributors to fill. The identity, and the
        snapshot's ``name``, come from the body's ``full_name``, which must
        pass links.repo_from_name; a body without one is malformed.

        With a ``stored`` snapshot that has an ETag, the request is
        conditional, and the answer's ETag is kept on the new snapshot. A
        304 returns ``ref`` and ``stored`` fetched now, its contributor
        count kept: a new contributor needs a push, and a push changes the
        body's ``pushed_at`` and so its ETag.
        """
        url = f"{self.base_url}/repos/{ref.owner}/{ref.name}"
        response = self._request(url, etag=None if stored is None else stored.etag)
        if response.status_code == 304:
            return ref, replace(stored, fetched_at=self._now())
        data = self._json_body(response, url, dict)
        try:
            named = repo_from_name(data.get("full_name"))
        except LinkError as exc:
            raise GitHubFetchError(FailureKind.MALFORMED_RESPONSE,
                                   f"bad full_name from {url}: {exc}") from exc
        resolved = ref if named.identity() == ref.identity() else replace(
            ref, owner=named.owner, name=named.name)
        try:
            metrics = RepoMetrics(
                name=named.name,
                description=data.get("description"),
                stars=data["stargazers_count"],
                forks=data["forks_count"],
                open_issues=data["open_issues_count"],
                contributors=None,
                fetched_at=self._now(),
                etag=response.headers.get("ETag"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GitHubFetchError(FailureKind.MALFORMED_RESPONSE,
                                   f"bad count fields from {url}: {exc}") from exc
        return resolved, metrics

    def count_contributors(self, ref: RepoRef) -> int:
        """Number of contributor entries of the repository, from one request.

        Asks for one entry per page. A 204 or a blank body is 0. A page of
        one entry whose Link header names a rel="last" page number gives
        that number; a page without a rel="next" link gives its number of
        entries. Any other answer, such as a server that ignores per_page
        and pages onward, is a malformed response: no second page is asked.
        """
        url = f"{self.base_url}/repos/{ref.owner}/{ref.name}/contributors"
        response = self._request(url, {"per_page": 1})
        if response.status_code == 204 or not (response.content or b"").strip():
            return 0
        data = self._json_body(response, url, list)
        header = response.headers.get("Link") or ""
        links = {link.get("rel"): link["url"]  # the first link of each rel wins
                 for link in reversed(requests.utils.parse_header_links(header))}
        try:
            last = _page_number(links.get("last")) if len(data) == 1 else None
        except ValueError as exc:
            raise GitHubFetchError(FailureKind.MALFORMED_RESPONSE,
                                   f"unparseable Link header from {url}: {exc}") from exc
        if last is None and "next" in links:
            raise GitHubFetchError(FailureKind.MALFORMED_RESPONSE,
                                   f"{url} needs a second page to count")
        return len(data) if last is None else last

    def enrich(
        self,
        refs: Iterable[RepoRef],
        stored: Optional[Mapping[tuple[str, str], RepoMetrics]] = None,
    ) -> tuple[list[tuple[RepoRef, RepoMetrics]], list[FetchFailure]]:
        """Fetch metrics and contributor counts for every ref, in order.

        ``stored`` maps an identity to its stored latest snapshot, which
        makes that repository's refresh conditional (see fetch_repo).
        Failures become FetchFailure records instead of exceptions, so one
        bad repository never aborts the batch; len(successes) +
        len(failures) equals the number of input refs. A failed contributors
        request keeps the snapshot in hand as the failure's ``kept``, its
        count the stored one, as on a 304, or None.
        """
        successes: list[tuple[RepoRef, RepoMetrics]] = []
        failures: list[FetchFailure] = []
        for ref in refs:
            latest = (stored or {}).get(ref.identity())
            kept = None
            try:
                resolved, metrics = self.fetch_repo(ref, latest)
                if metrics.contributors is None:
                    kept = (resolved, metrics if latest is None
                            else replace(metrics, contributors=latest.contributors))
                    metrics = replace(metrics, contributors=self.count_contributors(resolved))
                successes.append((resolved, metrics))
            except GitHubFetchError as exc:
                failures.append(FetchFailure(ref, exc.kind, exc.detail, kept))
        return successes, failures
