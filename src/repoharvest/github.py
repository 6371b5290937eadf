"""GitHub REST API client for repository enrichment.

Fetches the engagement snapshot for each repository (/repos/{owner}/{name})
and counts contributors from the Link-header pagination of the contributors
endpoint: one entry per page, so the rel="last" page number is the count.
A stored snapshot's ETag makes the snapshot request conditional, and an
unchanged repository costs one request. All requests pass through a single
RequestGate, so outbound traffic respects the throttle policy;
per-repository failures are returned as data and never abort a batch.
"""
from __future__ import annotations

import enum
import re
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Callable, Iterable, Mapping, Optional
from urllib.parse import parse_qs, urljoin, urlsplit

import requests

from .links import RepoRef
from .throttle import REQUEST_TIMEOUT, RequestGate, retrying_get, seconds_header

DEFAULT_BASE_URL = "https://api.github.com"

# Minimum gap between anonymous requests. 720 ms allows 5000 requests an
# hour, the authenticated quota's rate; it does not keep a run inside the
# anonymous quota of 60 requests an hour, which a default run of ~62
# requests (two per repository) still exceeds. Past that quota GitHub
# answers 403 with X-RateLimit-Reset, and the retry waits until the reset
# time.
ANONYMOUS_MIN_INTERVAL = 0.72
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
    """Engagement snapshot for one repository.

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
    """Record of one repository that could not be enriched."""

    repo: RepoRef
    kind: FailureKind
    detail: str
    occurred_at: datetime


@dataclass(frozen=True)
class ThrottlePolicy:
    """Outbound request pacing: the minimum gap between requests, in
    seconds. Retries follow the shared budget of throttle.retrying_get."""

    min_interval: float


class GitHubFetchError(Exception):
    """A single repository fetch failed; carries the failure kind."""

    def __init__(self, kind: FailureKind, detail: str) -> None:
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.detail = detail


_LINK = re.compile(r'<([^>]*)>\s*;\s*rel="([^"]*)"')


def _links(link_header: Optional[str]) -> dict[str, str]:
    """The URLs a Link header names, by rel; the first one of each rel."""
    links: dict[str, str] = {}
    for url, rel in _LINK.findall(link_header or ""):
        links.setdefault(rel, url)
    return links


def _page_number(url: Optional[str]) -> Optional[int]:
    """The positive ``page`` query parameter of ``url``, if it has one."""
    pages = parse_qs(urlsplit(url or "").query).get("page", [])
    if len(pages) == 1 and pages[0].isascii() and pages[0].isdigit() and int(pages[0]) > 0:
        return int(pages[0])
    return None


class GitHubClient:
    """REST client with throttling, retries, and rename-redirect handling.

    ``session``, ``clock``, ``sleep``, ``wall_clock``, and ``now`` are
    injectable for tests; defaults talk to the real API with real time.
    An absent token means low-quota anonymous mode.
    """

    def __init__(
        self,
        base_url: str = DEFAULT_BASE_URL,
        token: Optional[str] = None,
        policy: Optional[ThrottlePolicy] = None,
        include_anonymous: bool = False,
        session=None,
        backoff_base: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        wall_clock: Callable[[], float] = time.time,
        now: Callable[[], datetime] = utc_now,
    ) -> None:
        if policy is None:
            policy = ThrottlePolicy(AUTHENTICATED_MIN_INTERVAL if token else ANONYMOUS_MIN_INTERVAL)
        self._gate = RequestGate(policy.min_interval, clock=clock, sleep=sleep)
        self.base_url = base_url.rstrip("/")
        self.include_anonymous = include_anonymous
        self._session = session if session is not None else requests.Session()
        self._backoff_base = backoff_base
        self._wall_clock = wall_clock
        self._now = now
        self._headers = {"Accept": "application/vnd.github+json"}
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    # -- low-level request machinery -------------------------------------

    def _classify(self, outcome, url: str):
        """None for a 2xx/3xx response, else (GitHubFetchError, retryable,
        server hint). Transport failures, 5xx answers and quota 403/429s
        are retryable. The hint is Retry-After when sent, else the time
        left until X-RateLimit-Reset (epoch seconds)."""
        if isinstance(outcome, requests.RequestException):
            error = GitHubFetchError(FailureKind.TRANSPORT, f"transport failure: {outcome}")
            return error, True, None
        status = outcome.status_code
        if status < 400:
            return None
        headers = outcome.headers
        kind, retryable = FailureKind.TRANSPORT, status >= 500
        if status == 404:
            kind = FailureKind.NOT_FOUND
        elif status == 401:
            kind = FailureKind.FORBIDDEN
        elif status in (403, 429):
            retryable = (
                status == 429
                or headers.get("X-RateLimit-Remaining") == "0"
                or "Retry-After" in headers
            )
            kind = FailureKind.RATE_LIMITED if retryable else FailureKind.FORBIDDEN
        if "Retry-After" in headers:
            hint = seconds_header(headers["Retry-After"])
        else:
            reset = seconds_header(headers.get("X-RateLimit-Reset"))
            hint = None if reset is None else max(0.0, reset - self._wall_clock())
        return GitHubFetchError(kind, f"HTTP {status} for {url}"), retryable, hint

    def _request(self, url: str, params=None, etag: Optional[str] = None):
        """GET with the retry budget; returns 2xx or 3xx responses. With
        ``etag``, the request is conditional (If-None-Match)."""
        headers = self._headers if etag is None else {**self._headers, "If-None-Match": etag}
        return retrying_get(
            self._gate,
            lambda: self._session.get(
                url,
                params=params,
                headers=headers,
                timeout=REQUEST_TIMEOUT,
                allow_redirects=False,
            ),
            lambda outcome: self._classify(outcome, url),
            self._backoff_base,
        )

    def _request_following_rename(self, url: str, params=None, etag: Optional[str] = None):
        """GET, following at most one rename redirect; ``etag`` goes on both
        requests. A 304 is returned as an answer only when ``etag`` was
        sent; any other 3xx is a redirect."""

        def redirected(response) -> bool:
            status = response.status_code
            return 300 <= status < 400 and not (status == 304 and etag is not None)

        response = self._request(url, params, etag)
        if redirected(response):
            location = response.headers.get("Location")
            if not location:
                raise GitHubFetchError(
                    FailureKind.MALFORMED_RESPONSE, f"redirect without Location for {url}"
                )
            response = self._request(urljoin(url, location), etag=etag)
            if redirected(response):
                raise GitHubFetchError(
                    FailureKind.MALFORMED_RESPONSE, f"repeated redirects for {url}"
                )
        return response

    @staticmethod
    def _json_body(response, url: str):
        try:
            return response.json()
        except ValueError as exc:
            raise GitHubFetchError(
                FailureKind.MALFORMED_RESPONSE, f"unparseable body from {url}: {exc}"
            ) from exc

    # -- public operations ------------------------------------------------

    def fetch_repo(
        self, ref: RepoRef, stored: Optional[RepoMetrics] = None
    ) -> tuple[RepoRef, RepoMetrics]:
        """Fetch the basic snapshot for one repository.

        Returns the canonical identity (updated when GitHub redirected to a
        renamed repository) together with the metrics; ``contributors`` is
        left unset for count_contributors to fill.

        With a ``stored`` snapshot that has an ETag, the request is
        conditional. A 304 returns ``ref`` and ``stored`` fetched now, its
        contributor count kept: a new contributor needs a push, and a
        push changes the body's ``pushed_at`` and so its ETag. With
        ``include_anonymous`` no ETag is sent or kept, so a count made
        under the other setting is never reused.
        """
        url = f"{self.base_url}/repos/{ref.owner}/{ref.name}"
        etag = None if stored is None or self.include_anonymous else stored.etag
        response = self._request_following_rename(url, etag=etag)
        if response.status_code == 304:
            return ref, replace(stored, fetched_at=self._now())
        data = self._json_body(response, url)
        if not isinstance(data, dict):
            raise GitHubFetchError(
                FailureKind.MALFORMED_RESPONSE, f"expected an object from {url}"
            )
        resolved = ref
        full_name = data.get("full_name")
        if isinstance(full_name, str) and "/" in full_name:
            owner, name = full_name.split("/", 1)
            if (owner.lower(), name.lower()) != ref.identity():
                resolved = replace(ref, owner=owner, name=name)
        try:
            metrics = RepoMetrics(
                name=data.get("name") or resolved.name,
                description=data.get("description"),
                stars=data["stargazers_count"],
                forks=data["forks_count"],
                open_issues=data["open_issues_count"],
                contributors=None,
                fetched_at=self._now(),
                etag=None if self.include_anonymous else response.headers.get("ETag"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GitHubFetchError(
                FailureKind.MALFORMED_RESPONSE, f"bad count fields from {url}: {exc}"
            ) from exc
        return resolved, metrics

    def count_contributors(self, ref: RepoRef) -> int:
        """Number of contributor entries of the repository.

        Asks for one entry per page: when the first page holds exactly one
        entry and the Link header names a rel="last" page, that page's
        number is the count. Otherwise (no last link, or a server that
        ignores per_page) the entries are summed along rel="next" until it
        is absent. An empty repository (success with no body) counts as 0.
        """
        url = f"{self.base_url}/repos/{ref.owner}/{ref.name}/contributors"
        params: Optional[dict] = {"per_page": 1}
        if self.include_anonymous:
            params["anon"] = "1"
        total = 0
        first_page = True
        while url:
            response = self._request_following_rename(url, params)
            params = None  # a next link already carries its query string
            if response.status_code == 204 or not (response.content or b"").strip():
                break
            data = self._json_body(response, url)
            if not isinstance(data, list):
                raise GitHubFetchError(
                    FailureKind.MALFORMED_RESPONSE, f"expected a list from {url}"
                )
            links = _links(response.headers.get("Link"))
            if first_page and len(data) == 1:
                last = _page_number(links.get("last"))
                if last is not None:
                    return last
            first_page = False
            total += len(data)
            url = urljoin(url, links["next"]) if "next" in links else None
        return total

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
        len(failures) equals the number of input refs.
        """
        successes: list[tuple[RepoRef, RepoMetrics]] = []
        failures: list[FetchFailure] = []
        for ref in refs:
            try:
                resolved, metrics = self.fetch_repo(ref, (stored or {}).get(ref.identity()))
                if metrics.contributors is None:
                    count = self.count_contributors(resolved)
                    metrics = replace(metrics, contributors=count)
                successes.append((resolved, metrics))
            except GitHubFetchError as exc:
                failures.append(
                    FetchFailure(
                        repo=ref,
                        kind=exc.kind,
                        detail=exc.detail,
                        occurred_at=self._now(),
                    )
                )
        return successes, failures
