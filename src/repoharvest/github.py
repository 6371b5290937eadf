"""GitHub REST API client for repository enrichment.

Fetches the engagement snapshot for each repository (/repos/{owner}/{name})
and counts contributors from one answer of the contributors endpoint: one
entry per page, so the Link header's rel="last" page number is the count.
A stored snapshot's ETag makes the snapshot request conditional, and an
unchanged repository costs one request. All requests pass through a single
RequestGate, so outbound traffic respects the throttle policy. enrich
takes one repository and returns its outcome, the snapshot to store and
its failure as a GitHubFetchError, so no failure is raised to the caller.
A client serves one run and answers each repository once, under whichever
of its names it is asked (see GitHubClient.enrich).
"""
from __future__ import annotations

import enum
import re
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Callable, Optional
from urllib.parse import parse_qs, urljoin, urlsplit

import requests

from .links import LinkError, RepoRef, repo_from_name
from .throttle import MAX_WAIT, RequestGate, seconds_header

DEFAULT_BASE_URL = "https://api.github.com"

# Minimum gap between requests, with or without a token. GitHub asks for
# serial requests and at most 900 points a minute; a spent quota ends the
# requests (see GitHubClient._classify), so no spacing needs to stretch a
# run across the anonymous quota of 60 requests an hour.
AUTHENTICATED_MIN_INTERVAL = 0.10

_LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")


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
    it enters: GitHub's ``full_name``, or a store line. ``description``
    may hold no lone surrogate (see has_lone_surrogate).

    Each count is a non-negative int; ``contributors`` is None until the
    contributors endpoint has been counted. ``etag`` is the ETag of the
    /repos answer the snapshot was built from, if it had one that can be
    sent back (see sendable_etag).
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
        if has_lone_surrogate(self.description):
            raise ValueError(f"description {self.description!r} holds a lone surrogate, "
                             "which UTF-8 cannot encode")
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


def has_lone_surrogate(text: Optional[str]) -> bool:
    """Whether ``text`` holds a surrogate code point, which UTF-8 cannot
    encode, so no writer could save it: a JSON ``\\udXXX`` escape without
    its pair decodes to one."""
    return _LONE_SURROGATE.search(text or "") is not None


def sendable_etag(etag: str) -> bool:
    """Whether ``etag`` can go back in If-None-Match: http.client sends a
    header as Latin-1, and requests refuses, unsent, a value that holds a
    CR or LF or starts with whitespace."""
    return max(etag, default="") <= "\xff" and re.fullmatch(r"(\S[^\r\n]*)?", etag) is not None


@dataclass(frozen=True)
class ThrottlePolicy:
    """Outbound request pacing: the minimum gap between requests, in
    seconds. Retries follow the shared budget of throttle.RequestGate.get."""

    min_interval: float


Snapshot = tuple[RepoRef, RepoMetrics]  # a resolved ref and the snapshot to store


class GitHubFetchError(Exception):
    """A single repository fetch failed; carries the failure kind and a
    detail that names the request."""

    def __init__(self, kind: FailureKind, detail: str) -> None:
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.detail = detail


# enrich's outcome: the snapshot to store, or None, and the failures to log
Outcome = tuple[Optional[Snapshot], tuple[GitHubFetchError, ...]]


def _page_number(url: Optional[str]) -> Optional[int]:
    """The positive ``page`` query parameter of ``url``, if it has one."""
    pages = parse_qs(urlsplit(url or "").query).get("page", [])
    if len(pages) == 1 and pages[0].isascii() and pages[0].isdigit() and int(pages[0]) > 0:
        return int(pages[0])
    return None


class GitHubClient:
    """REST client with throttling, retries, and rename-redirect handling.

    ``session``, ``clock``, ``sleep``, and ``now`` are injectable for
    tests; defaults talk to the real API with real time. The client's
    RequestGate sends each request on ``session``, ``policy.min_interval``
    apart with or without a token, which adds only its header (kept over
    any ~/.netrc entry) and a larger quota. After an answer that says the
    quota is spent, the client sends nothing more (see _classify). A client
    serves one run on one thread: it keeps what enrich answered, so it
    answers each repository once.
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
        self._gate = RequestGate(policy.min_interval, backoff_base, session, clock, sleep)
        self.base_url = base_url.rstrip("/")
        self._origin = urlsplit(self.base_url)[:2]  # scheme and host every hop must keep
        self._quota_spent: Optional[str] = None  # detail of the answer that spent it
        self._outcomes: dict[tuple[str, str], Outcome] = {}  # by the identity asked for
        self._snapshots: dict[tuple[str, str], Snapshot] = {}  # by the identity resolved to
        self._now = now
        self._headers = {"Accept": "application/vnd.github+json"}
        # an auth that leaves the token's header as built: requests reads no ~/.netrc
        self._auth = (lambda request: request) if token else None
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    # -- low-level request machinery -------------------------------------

    def _classify(self, outcome, url: str):
        """None for a 2xx/3xx response, else (GitHubFetchError, retryable).
        Transport failures, 5xx answers, 429s and 403s with Retry-After are
        retryable; RequestGate.get waits out the Retry-After, the only wait
        the server sets. A 403/429 with X-RateLimit-Remaining: 0 and no
        Retry-After, or with a Retry-After past throttle.MAX_WAIT, spends
        the client's quota: it is not retried, its reset is not waited for,
        and later requests fail rate_limited unsent, as GitHub may ban a
        client that keeps sending."""
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
            hint = headers.get("Retry-After")
            wait = seconds_header(hint) or 0.0
            spent = wait > MAX_WAIT or hint is None and headers.get("X-RateLimit-Remaining") == "0"
            retryable = not spent and (status == 429 or hint is not None)
            kind = FailureKind.RATE_LIMITED if spent or retryable else FailureKind.FORBIDDEN
            if spent:
                asked = f", which asks for a {wait:.0f} s wait" if wait > MAX_WAIT else ""
                self._quota_spent = detail = f"quota spent: {detail}{asked}"
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
                target, lambda outcome: self._classify(outcome, target),
                params=params, headers=headers, auth=self._auth, allow_redirects=False)
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
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
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

        Returns the metrics with ``ref``, or, when GitHub answers for another
        name (a rename), with the ref the body's ``full_name`` gives;
        ``contributors`` is left unset for count_contributors to fill. The
        snapshot's ``name`` also comes from ``full_name``, which must pass
        links.repo_from_name; a body without one is malformed.

        With a ``stored`` snapshot that has an ETag, the request is
        conditional. The answer's ETag is kept on the new snapshot if it can
        be sent back (see sendable_etag), so every store written loads. A
        304 returns ``ref`` and ``stored`` fetched now, its contributor
        count kept: a new contributor needs a push, and a push changes the
        body's ``pushed_at`` and so its ETag.
        """
        url = f"{self.base_url}/repos/{ref.owner}/{ref.name}"
        response = self._request(url, etag=None if stored is None else stored.etag)
        if response.status_code == 304:
            return ref, replace(stored, fetched_at=self._now())
        data = self._json_body(response, url, dict)
        etag = response.headers.get("ETag")
        try:
            named = repo_from_name(data.get("full_name"))
        except LinkError as exc:
            raise GitHubFetchError(FailureKind.MALFORMED_RESPONSE,
                                   f"bad full_name from {url}: {exc}") from exc
        try:
            metrics = RepoMetrics(
                name=named.name,
                description=data.get("description"),
                stars=data["stargazers_count"],
                forks=data["forks_count"],
                open_issues=data["open_issues_count"],
                contributors=None,
                fetched_at=self._now(),
                etag=etag if etag is not None and sendable_etag(etag) else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GitHubFetchError(FailureKind.MALFORMED_RESPONSE,
                                   f"bad fields from {url}: {exc}") from exc
        return ref if named.identity() == ref.identity() else named, metrics

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

    def enrich(self, ref: RepoRef, latest: Optional[RepoMetrics] = None) -> Outcome:
        """Fetch one repository's metrics and contributor count, once a run.

        ``latest``, its stored snapshot, makes the refresh conditional (see
        fetch_repo). Returns the snapshot to store, or None, and the
        failures to log: none, or one new GitHubFetchError that holds no
        traceback. A failed contributors request returns both: the
        snapshot, its contributor count the stored one, as on a 304, or
        None. A name asked before gets the outcome it got then, failures
        included, and sends nothing. A name that is, or that after its
        /repos request and any rename hop resolves to, a repository already
        answered for gets that snapshot and sends no contributors request.
        """
        key = ref.identity()
        if key not in self._outcomes:
            known = self._snapshots.get(key)
            outcome = (known, ()) if known else self._fetch(ref, latest)
            if outcome[0]:
                self._snapshots.setdefault(outcome[0][0].identity(), outcome[0])
            self._outcomes[key] = outcome
        return self._outcomes[key]

    def _fetch(self, ref: RepoRef, latest: Optional[RepoMetrics]) -> Outcome:
        """enrich's requests for a name it has not answered."""
        snapshot = None
        try:
            resolved, metrics = self.fetch_repo(ref, latest)
            if resolved.identity() in self._snapshots:
                return self._snapshots[resolved.identity()], ()
            if metrics.contributors is None:
                snapshot = (resolved, metrics if latest is None
                            else replace(metrics, contributors=latest.contributors))
                metrics = replace(metrics, contributors=self.count_contributors(resolved))
            return (resolved, metrics), ()
        except GitHubFetchError as exc:
            return snapshot, (GitHubFetchError(exc.kind, exc.detail),)
