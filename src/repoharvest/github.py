"""GitHub REST API client for repository enrichment.

Fetches the engagement snapshot for each repository (/repos/{owner}/{name})
and counts contributors by walking the Link-header pagination of the
contributors endpoint. All requests pass through a single RequestGate, so
outbound traffic respects the throttle policy; per-repository failures are
returned as data and never abort a batch.
"""
from __future__ import annotations

import enum
import re
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Callable, Iterable, Optional
from urllib.parse import urljoin

import requests

from .links import RepoRef
from .throttle import REQUEST_TIMEOUT, RequestGate, retrying_get, seconds_header

DEFAULT_BASE_URL = "https://api.github.com"

# Minimum gap between anonymous requests. 720 ms allows 5000 requests an
# hour, the authenticated quota's rate; it does not keep a run inside the
# anonymous quota of 60 requests an hour, which a default run of ~87
# requests exceeds. Past that quota GitHub answers 403 with
# X-RateLimit-Reset, and the retry waits until the reset time.
ANONYMOUS_MIN_INTERVAL = 0.72
AUTHENTICATED_MIN_INTERVAL = 0.10

CONTRIBUTORS_PAGE_SIZE = 100


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

    ``contributors`` is None until the contributors endpoint has been
    counted; every other count is always present.
    """

    name: str
    description: Optional[str]
    stars: int
    forks: int
    open_issues: int
    contributors: Optional[int]
    fetched_at: datetime

    def __post_init__(self) -> None:
        for field_name in ("stars", "forks", "open_issues"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")
        if self.contributors is not None and self.contributors < 0:
            raise ValueError("contributors must be >= 0")

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

    def __post_init__(self) -> None:
        if self.min_interval < 0:
            raise ValueError("min_interval must be >= 0")


class GitHubFetchError(Exception):
    """A single repository fetch failed; carries the failure kind."""

    def __init__(self, kind: FailureKind, detail: str) -> None:
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.detail = detail


_NEXT_LINK = re.compile(r'<([^>]*)>\s*;\s*rel="next"')


def _next_page_url(link_header: Optional[str]) -> Optional[str]:
    """URL of the rel="next" page, if the Link header names one."""
    if not link_header:
        return None
    match = _NEXT_LINK.search(link_header)
    return match.group(1) if match else None


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
            interval = AUTHENTICATED_MIN_INTERVAL if token else ANONYMOUS_MIN_INTERVAL
            policy = ThrottlePolicy(min_interval=interval)
        self.base_url = base_url.rstrip("/")
        self.policy = policy
        self.include_anonymous = include_anonymous
        self._session = session if session is not None else requests.Session()
        self._backoff_base = backoff_base
        self._wall_clock = wall_clock
        self._now = now
        self._gate = RequestGate(policy.min_interval, clock=clock, sleep=sleep)
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

    def _request(self, url: str, params=None):
        """GET with the retry budget; returns 2xx or 3xx responses."""
        return retrying_get(
            self._gate,
            lambda: self._session.get(
                url,
                params=params,
                headers=self._headers,
                timeout=REQUEST_TIMEOUT,
                allow_redirects=False,
            ),
            lambda outcome: self._classify(outcome, url),
            self._backoff_base,
        )

    def _request_following_rename(self, url: str, params=None):
        """GET, following at most one rename redirect."""
        response = self._request(url, params)
        if 300 <= response.status_code < 400:
            location = response.headers.get("Location")
            if not location:
                raise GitHubFetchError(
                    FailureKind.MALFORMED_RESPONSE, f"redirect without Location for {url}"
                )
            response = self._request(urljoin(url, location))
            if 300 <= response.status_code < 400:
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

    def fetch_repo(self, ref: RepoRef) -> tuple[RepoRef, RepoMetrics]:
        """Fetch the basic snapshot for one repository.

        Returns the canonical identity (updated when GitHub redirected to a
        renamed repository) together with the metrics; ``contributors`` is
        left unset for count_contributors to fill.
        """
        url = f"{self.base_url}/repos/{ref.owner}/{ref.name}"
        response = self._request_following_rename(url)
        data = self._json_body(response, url)
        if not isinstance(data, dict):
            raise GitHubFetchError(
                FailureKind.MALFORMED_RESPONSE, f"expected an object from {url}"
            )
        try:
            stars = int(data["stargazers_count"])
            forks = int(data["forks_count"])
            open_issues = int(data["open_issues_count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise GitHubFetchError(
                FailureKind.MALFORMED_RESPONSE, f"missing count fields from {url}: {exc}"
            ) from exc
        resolved = ref
        full_name = data.get("full_name")
        if isinstance(full_name, str) and "/" in full_name:
            owner, name = full_name.split("/", 1)
            if (owner.lower(), name.lower()) != ref.identity():
                resolved = RepoRef(
                    owner=owner,
                    name=name,
                    canonical_url=f"https://github.com/{owner}/{name}",
                    source_papers=ref.source_papers,
                )
        metrics = RepoMetrics(
            name=data.get("name") or resolved.name,
            description=data.get("description"),
            stars=stars,
            forks=forks,
            open_issues=open_issues,
            contributors=None,
            fetched_at=self._now(),
        )
        return resolved, metrics

    def count_contributors(self, ref: RepoRef) -> int:
        """Total contributor entries across all pages of the endpoint.

        Follows the Link header's rel="next" until absent. An empty
        repository (success with no body) counts as 0.
        """
        url = f"{self.base_url}/repos/{ref.owner}/{ref.name}/contributors"
        params: Optional[dict] = {"per_page": CONTRIBUTORS_PAGE_SIZE}
        if self.include_anonymous:
            params["anon"] = "1"
        total = 0
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
            total += len(data)
            next_url = _next_page_url(response.headers.get("Link"))
            url = urljoin(url, next_url) if next_url else None
        return total

    def enrich(
        self, refs: Iterable[RepoRef]
    ) -> tuple[list[tuple[RepoRef, RepoMetrics]], list[FetchFailure]]:
        """Fetch metrics and contributor counts for every ref, in order.

        Failures become FetchFailure records instead of exceptions, so one
        bad repository never aborts the batch; len(successes) +
        len(failures) equals the number of input refs.
        """
        successes: list[tuple[RepoRef, RepoMetrics]] = []
        failures: list[FetchFailure] = []
        for ref in refs:
            try:
                resolved, metrics = self.fetch_repo(ref)
                count = self.count_contributors(resolved)
                successes.append((resolved, replace(metrics, contributors=count)))
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
