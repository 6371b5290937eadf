"""Tiny local HTTP servers that imitate the two public APIs for e2e tests.

Each server binds an ephemeral 127.0.0.1 port and serves from in-memory
fixtures; tests point the CLI's --arxiv-base-url/--github-base-url at them.
"""
from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from conftest import atom_entry, atom_feed


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # silence per-request stderr noise
        pass

    def do_GET(self):
        parsed = urlsplit(self.path)
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        status, headers, body = self.server.app.handle(parsed.path, params, self.headers)
        payload = body.encode("utf-8")
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class MockServer:
    """Runs an app object (anything with .handle(path, params, headers)) on a
    daemon thread."""

    def __init__(self, app):
        self.app = app
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._httpd.app = app
        self.base_url = f"http://127.0.0.1:{self._httpd.server_address[1]}"
        app.base_url = self.base_url
        # serve_forever checks for shutdown() every poll_interval (0.5 s
        # by default), so each close would otherwise wait up to that long
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()


class MockArxivApp:
    """Serves a fixed paper list as an Atom feed with start/max_results
    slicing and a totalResults count."""

    def __init__(self, papers):
        #: list of (paper_id, title, abstract)
        self.papers = list(papers)
        self.requests: list[dict] = []
        self.fail_first = 0  # serve this many 503s before behaving
        self.base_url = ""

    def handle(self, path, params, _headers):
        self.requests.append(dict(params))
        if self.fail_first > 0:
            self.fail_first -= 1
            return 503, {"Retry-After": "0"}, "service busy"
        start = int(params.get("start", "0"))
        count = int(params.get("max_results", "10"))
        page = self.papers[start : start + count]
        entries = [
            atom_entry(pid, title=title, abstract=abstract)
            for pid, title, abstract in page
        ]
        body = atom_feed(entries, total=len(self.papers))
        return 200, {"Content-Type": "application/atom+xml"}, body


class MockGitHubApp:
    """Serves /repos/{owner}/{name} and its /contributors pages.

    ``repos`` maps "owner/name" to a dict with stars/forks/open_issues/
    contributors (an int; the server fabricates that many login stubs) and
    an optional description. Unknown slugs 404. ``rate_limit_once`` slugs
    serve one quota-style 403 first; ``redirects`` maps old slugs to new;
    ``etags`` maps a slug to the ETag its /repos answer carries, and a
    request whose If-None-Match holds that ETag is answered 304.
    With a ``budget``, every request past that many is answered with a
    spent quota's 403: no Retry-After, and a reset an hour ahead.
    Contributors pages carry a Link header with rel="next" and rel="last",
    as GitHub's do.
    """

    def __init__(self, repos):
        self.repos = dict(repos)
        self.requests: list[str] = []
        self.rate_limit_once: set[str] = set()
        self.redirects: dict[str, str] = {}
        self.etags: dict[str, str] = {}
        self.budget: int | None = None
        self.base_url = ""

    def handle(self, path, params, headers):
        self.requests.append(path)
        if self.budget is not None and len(self.requests) > self.budget:
            return (
                403,
                {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": str(int(time.time()) + 3600)},
                json.dumps({"message": "API rate limit exceeded"}),
            )
        parts = [p for p in path.split("/") if p]
        if len(parts) < 3 or parts[0] != "repos":
            return 404, {}, json.dumps({"message": "Not Found"})
        slug = f"{parts[1]}/{parts[2]}"
        tail = "/".join(parts[3:])
        if slug in self.redirects:
            target = f"/repos/{self.redirects[slug]}" + (f"/{tail}" if tail else "")
            return 301, {"Location": target}, ""
        if slug in self.rate_limit_once:
            self.rate_limit_once.discard(slug)
            return (
                403,
                {"X-RateLimit-Remaining": "0", "Retry-After": "0"},
                json.dumps({"message": "API rate limit exceeded"}),
            )
        repo = self.repos.get(slug)
        if repo is None:
            return 404, {}, json.dumps({"message": "Not Found"})
        if not tail:
            etag = {"ETag": self.etags[slug]} if slug in self.etags else {}
            if etag and headers.get("If-None-Match") == etag["ETag"]:
                return 304, etag, ""
            owner, name = slug.split("/", 1)
            body = {
                "full_name": slug,
                "name": name,
                "description": repo.get("description"),
                "stargazers_count": repo["stars"],
                "forks_count": repo["forks"],
                "open_issues_count": repo["open_issues"],
            }
            return 200, {"Content-Type": "application/json", **etag}, json.dumps(body)
        if tail == "contributors":
            total = repo["contributors"]
            if total == 0:
                return 204, {}, ""
            per_page = max(1, min(int(params.get("per_page", "30")), 100))
            page = int(params.get("page", "1"))
            begin = (page - 1) * per_page
            chunk = [
                {"login": f"user{i}", "contributions": total - i}
                for i in range(begin, min(begin + per_page, total))
            ]
            headers = {"Content-Type": "application/json"}
            if begin + per_page < total:
                url = f"{self.base_url}/repos/{slug}/contributors?per_page={per_page}"
                last = -(-total // per_page)
                headers["Link"] = (
                    f'<{url}&page={page + 1}>; rel="next", <{url}&page={last}>; rel="last"'
                )
            return 200, headers, json.dumps(chunk)
        return 404, {}, json.dumps({"message": "Not Found"})
