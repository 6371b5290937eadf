"""Loopback HTTP fakes of the arXiv Atom feed and the GitHub REST API.

Each fake is an app object with a ``respond(path, query, headers)`` method
served by a LoopbackServer on 127.0.0.1. Response bodies are rendered
during set-up (``prerender``) so that the timed run spends its CPU in the
program, not here. ``latency`` is slept server-side before every answer.

The GitHub fake follows the documented REST behaviour that later changes
to the client rely on: ``per_page``/``page``/``anon`` on the contributors
endpoint, a ``Link`` header with ``rel="next"`` and ``rel="last"`` (plus
``prev``/``first`` past page 1), an ``ETag`` on every 200 and a 304 when
``If-None-Match`` matches, and ``X-RateLimit-*`` headers from a per-token
counter in which every request counts except a 304 answered to an
authenticated request.
"""
from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, Optional
from urllib.parse import parse_qsl, urlencode, urlsplit
from xml.sax.saxutils import escape

from inputs import Paper, Repo

Response = tuple[int, list[tuple[str, str]], bytes]

TOKEN_LIMIT = 5000
ANONYMOUS_LIMIT = 60
DEFAULT_PER_PAGE = 30
MAX_PER_PAGE = 100


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10  # drop a keep-alive connection the client abandoned
    # headers and body go out in two writes; with Nagle on, the body waits
    # for the client's delayed ACK (~40 ms a request)
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        split = urlsplit(self.path)
        query = dict(parse_qsl(split.query, keep_blank_values=True))
        app = self.server.app
        status, headers, body = app.respond(split.path, query, self.headers)
        if app.latency > 0:
            time.sleep(app.latency)
        self.send_response(status)
        for key, value in headers:
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass


class LoopbackServer:
    """Serve one fake app on an ephemeral 127.0.0.1 port.

    One thread accepts connections and one handles each connection; a
    client with one request in flight keeps one handler busy. ``close``
    stops accepting and joins every handler thread, so clients must close
    their sessions first.
    """

    def __init__(self, app) -> None:
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.daemon_threads = False
        self._server.block_on_close = True
        self._server.app = app
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
            name=f"fake-{type(app).__name__}",
            daemon=True,  # close() joins it; daemon only so a crash cannot hang exit
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


class _Counters:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0

    def count(self) -> None:
        with self._lock:
            self.requests += 1

    def reset(self) -> None:
        with self._lock:
            self.requests = 0


# -- arXiv ------------------------------------------------------------------


def render_feed(papers: Iterable[Paper], total: int, start: int, page_size: int) -> bytes:
    entries = "".join(
        "<entry>"
        f"<id>http://arxiv.org/abs/{p.arxiv_id}v1</id>"
        f"<published>{p.published}</published>"
        f"<title>{escape(p.title)}</title>"
        f"<summary>{escape(p.abstract)}</summary>"
        "</entry>"
        for p in papers
    )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<feed xmlns="http://www.w3.org/2005/Atom" '
        'xmlns:opensearch="http://a9.com/-/spec/opensearch/1.1/">'
        "<title>arXiv Query</title>"
        f"<opensearch:totalResults>{total}</opensearch:totalResults>"
        f"<opensearch:startIndex>{start}</opensearch:startIndex>"
        f"<opensearch:itemsPerPage>{page_size}</opensearch:itemsPerPage>"
        f"{entries}</feed>"
    ).encode("utf-8")


class ArxivFeedFake:
    """The Atom query endpoint over a fixed list of papers.

    ``failing_starts`` answer 503 once per ``arm()``.
    """

    def __init__(self, papers: list[Paper], latency: float = 0.0,
                 failing_starts: Iterable[int] = ()) -> None:
        self.papers = papers
        self.latency = latency
        self.counters = _Counters()
        self._failing = frozenset(failing_starts)
        self._pending: set[int] = set()
        self._pages: dict[tuple[int, int], bytes] = {}
        self._lock = threading.Lock()

    def prerender(self, page_size: int) -> None:
        for start in range(0, len(self.papers), page_size):
            self._page(start, page_size)

    def arm(self) -> None:
        """Re-arm the one-shot faults and zero the counters."""
        with self._lock:
            self._pending = set(self._failing)
        self.counters.reset()

    def _page(self, start: int, size: int) -> bytes:
        key = (start, size)
        body = self._pages.get(key)
        if body is None:
            chunk = self.papers[start:start + size]
            body = self._pages[key] = render_feed(chunk, len(self.papers), start, size)
        return body

    def respond(self, path: str, query: dict, headers) -> Response:
        status, out_headers, body = self._route(query)
        self.counters.count()
        return status, out_headers, body

    def _route(self, query: dict) -> Response:
        try:
            start = int(query.get("start", "0"))
            size = int(query.get("max_results", "10"))
        except ValueError:
            return 400, [], b"bad paging"
        if not query.get("search_query") or start < 0 or size < 1:
            return 400, [], b"bad query"
        with self._lock:
            fail = start in self._pending
            self._pending.discard(start)
        if fail:
            return 503, [("Content-Type", "text/plain")], b"Service Unavailable"
        return 200, [("Content-Type", "application/atom+xml; charset=utf-8")], self._page(start, size)


# -- GitHub -----------------------------------------------------------------


def _etag(body: bytes) -> str:
    return 'W/"' + hashlib.sha1(body).hexdigest() + '"'


def _json(data) -> bytes:
    return json.dumps(data, separators=(",", ":")).encode("utf-8")


def repo_body(repo: Repo) -> bytes:
    full = f"{repo.owner}/{repo.name}"
    return _json({
        "id": repo.repo_id,
        "name": repo.name,
        "full_name": full,
        "owner": {"login": repo.owner, "type": "User"},
        "private": False,
        "html_url": f"https://github.com/{full}",
        "description": repo.description,
        "fork": False,
        "stargazers_count": repo.stars,
        "watchers_count": repo.stars,
        "forks_count": repo.forks,
        "open_issues_count": repo.open_issues,
        "default_branch": "main",
    })


def _contributor_list(repo: Repo, anon: bool) -> list[dict]:
    people = [
        {"login": f"{repo.owner.lower()}-dev{i}", "id": repo.repo_id * 1000 + i,
         "type": "User", "contributions": repo.contributors - i}
        for i in range(repo.contributors)
    ]
    if anon:
        people += [
            {"email": f"anon{i}@example.org", "name": f"Anon {i}",
             "type": "Anonymous", "contributions": 1}
            for i in range(repo.anonymous)
        ]
    return people


class GitHubApiFake:
    """The repository and contributors endpoints of the REST API.

    ``missing`` identities answer 404. ``renamed`` maps an old identity to
    a repository id; every path under the old name answers 301 to
    ``/repositories/{id}``. ``throttled`` identities answer their first
    request after each ``arm()`` with a secondary-limit 403 carrying
    ``Retry-After: retry_after``.
    """

    def __init__(
        self,
        repos: Iterable[Repo],
        latency: float = 0.0,
        missing: Iterable[tuple[str, str]] = (),
        renamed: Optional[dict[tuple[str, str], int]] = None,
        throttled: Iterable[tuple[str, str]] = (),
        retry_after: float = 1.0,
    ) -> None:
        self.latency = latency
        self.retry_after = retry_after
        self.counters = _Counters()
        self.quota_units = 0
        self.base_url = ""
        self._by_identity: dict[tuple[str, str], Repo] = {}
        self._by_id: dict[int, Repo] = {}
        self._missing = frozenset(missing)
        self._renamed = dict(renamed or {})
        self._throttled = frozenset(throttled)
        self._pending_throttle: set[tuple[str, str]] = set()
        self._rendered: dict[tuple, tuple[bytes, str, Optional[str]]] = {}
        self._used: Counter = Counter()
        self._window_reset = int(time.time()) + 3600
        self._lock = threading.Lock()
        for repo in repos:
            self.put(repo)

    # -- set-up -------------------------------------------------------------

    def put(self, repo: Repo) -> None:
        """Add or replace a repository; its cached bodies are dropped."""
        with self._lock:
            old = self._by_id.get(repo.repo_id)
            if old is not None:
                self._by_identity.pop(old.identity(), None)
                self._rendered = {k: v for k, v in self._rendered.items() if k[0] != repo.repo_id}
            self._by_identity[repo.identity()] = repo
            self._by_id[repo.repo_id] = repo

    def prerender(self) -> None:
        """Render every repository body and its contributors pages of
        ``MAX_PER_PAGE`` in advance; other page sizes render on first use."""
        for repo in list(self._by_id.values()):
            self._render(repo, None, 1, False)
            pages = max(1, math.ceil(repo.contributors / MAX_PER_PAGE))
            for page in range(1, pages + 1):
                self._render(repo, MAX_PER_PAGE, page, False)

    def arm(self) -> None:
        """Re-arm the one-shot faults and zero the request counters."""
        with self._lock:
            self._pending_throttle = set(self._throttled)
            self.quota_units = 0
            self._used.clear()
        self.counters.reset()

    # -- serving ------------------------------------------------------------

    def respond(self, path: str, query: dict, headers) -> Response:
        auth = headers.get("Authorization")
        with self._lock:
            limit = TOKEN_LIMIT if auth else ANONYMOUS_LIMIT
            key = auth or "anonymous"
            if self._used[key] >= limit:
                status, out, body = 403, [("Content-Type", "application/json")], _json(
                    {"message": "API rate limit exceeded"})
            else:
                status, out, body = self._route(path, query, headers)
                if not (status == 304 and auth):
                    self._used[key] += 1
                    self.quota_units += 1
            out = out + [
                ("X-RateLimit-Limit", str(limit)),
                ("X-RateLimit-Remaining", str(max(0, limit - self._used[key]))),
                ("X-RateLimit-Reset", str(self._window_reset)),
                ("X-RateLimit-Used", str(self._used[key])),
                ("X-RateLimit-Resource", "core"),
            ]
        self.counters.count()
        return status, out, body

    def _route(self, path: str, query: dict, headers) -> Response:
        parts = [p for p in path.split("/") if p]
        repo, tail = None, []
        if len(parts) >= 3 and parts[0] == "repos":
            identity = (parts[1].lower(), parts[2].lower())
            tail = parts[3:]
            if identity in self._pending_throttle:
                self._pending_throttle.discard(identity)
                return 403, [("Retry-After", f"{self.retry_after:g}"),
                             ("Content-Type", "application/json")], _json(
                    {"message": "You have exceeded a secondary rate limit."})
            if identity in self._renamed:
                location = f"{self.base_url}/repositories/{self._renamed[identity]}"
                if tail:
                    location += "/" + "/".join(tail)
                if query:
                    location += "?" + urlencode(query)
                return 301, [("Location", location), ("Content-Type", "application/json")], _json(
                    {"message": "Moved Permanently", "url": location})
            if identity not in self._missing:
                repo = self._by_identity.get(identity)
        elif len(parts) >= 2 and parts[0] == "repositories" and parts[1].isdigit():
            repo = self._by_id.get(int(parts[1]))
            tail = parts[2:]
        if repo is None or tail not in ([], ["contributors"]):
            return 404, [("Content-Type", "application/json")], _json({"message": "Not Found"})
        if not tail:
            body, etag, link = self._render(repo, None, 1, False)
        else:
            try:
                per_page = max(1, min(int(query.get("per_page", DEFAULT_PER_PAGE)), MAX_PER_PAGE))
                page = max(1, int(query.get("page", "1")))
            except ValueError:
                return 422, [("Content-Type", "application/json")], _json({"message": "Invalid"})
            anon = query.get("anon", "").lower() in ("1", "true")
            body, etag, link = self._render(repo, per_page, page, anon)
            if not body:
                return 204, [], b""
        if etag in _if_none_match(headers):
            return 304, [("ETag", etag)], b""
        out = [("Content-Type", "application/json; charset=utf-8"), ("ETag", etag)]
        if link:
            out.append(("Link", link))
        return 200, out, body

    def _render(self, repo: Repo, per_page: Optional[int], page: int, anon: bool):
        key = (repo.repo_id, per_page, page, anon)
        cached = self._rendered.get(key)
        if cached is not None:
            return cached
        if per_page is None:
            body = repo_body(repo)
            result = (body, _etag(body), None)
        else:
            people = _contributor_list(repo, anon)
            chunk = people[(page - 1) * per_page: page * per_page]
            body = _json(chunk) if chunk else b""
            last = max(1, math.ceil(len(people) / per_page))
            result = (body, _etag(body) if body else "", self._link(repo, per_page, page, last, anon))
        self._rendered[key] = result
        return result

    def _link(self, repo: Repo, per_page: int, page: int, last: int, anon: bool) -> Optional[str]:
        def url(n: int) -> str:
            params = {"per_page": per_page, "page": n}
            if anon:
                params["anon"] = "1"
            return f"<{self.base_url}/repositories/{repo.repo_id}/contributors?{urlencode(params)}>"

        rels = []
        if page > 1:
            rels += [f'{url(page - 1)}; rel="prev"']
        if page < last:
            rels += [f'{url(page + 1)}; rel="next"', f'{url(last)}; rel="last"']
        if page > 1:
            rels += [f'{url(1)}; rel="first"']
        return ", ".join(rels) or None


def _if_none_match(headers) -> set[str]:
    value = headers.get("If-None-Match") or ""
    return {tag.strip() for tag in value.split(",") if tag.strip()}
