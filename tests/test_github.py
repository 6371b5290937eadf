"""GitHub client: snapshots, contributor pagination, failures, throttling."""
from __future__ import annotations

import json
import logging
import time
from dataclasses import replace
from datetime import datetime, timezone

import pytest
import requests

from conftest import FakeClock, FakeResponse, FakeSession, make_metrics, make_ref
from mockservers import MockGitHubApp, MockServer
from repoharvest.github import (
    AUTHENTICATED_MIN_INTERVAL,
    FailureKind,
    GitHubClient,
    GitHubFetchError,
    RepoMetrics,
    ThrottlePolicy,
)

BASE = "http://gh.test"
CONTRIBUTORS = f"{BASE}/repos/a/b/contributors"


def repo_body(slug, stars=0, forks=0, open_issues=0, description=None):
    owner, name = slug.split("/", 1)
    return {
        "full_name": slug,
        "name": name,
        "description": description,
        "stargazers_count": stars,
        "forks_count": forks,
        "open_issues_count": open_issues,
    }


def contributors_pages(slug, sizes, per_page=100):
    """Map request URL -> (response body, Link header) for a page chain."""
    pages = {}
    first = f"{BASE}/repos/{slug}/contributors"
    urls = [first] + [f"{first}?cursor={i}" for i in range(1, len(sizes))]
    for i, size in enumerate(sizes):
        body = [{"login": f"u{i}-{j}"} for j in range(size)]
        link = f'<{urls[i + 1]}>; rel="next"' if i + 1 < len(sizes) else None
        pages[urls[i]] = (body, link)
    return pages


class PagedHandler:
    def __init__(self, slug, sizes, repo=None):
        self.pages = contributors_pages(slug, sizes)
        self.repo = repo if repo is not None else repo_body(slug)
        self.slug = slug
        self.urls_seen = []

    def __call__(self, url, params):
        self.urls_seen.append((url, params))
        if url == f"{BASE}/repos/{self.slug}":
            return FakeResponse(json_body=self.repo)
        if url in self.pages:
            body, link = self.pages[url]
            headers = {"Link": link} if link else {}
            return FakeResponse(json_body=body, headers=headers)
        raise AssertionError(f"unexpected URL {url}")


def make_client(handler, clock=None, token=None, policy=None, **kwargs):
    clock = clock or FakeClock()
    session = FakeSession(handler, clock=clock)
    client = GitHubClient(
        base_url=BASE,
        token=token,
        policy=policy or ThrottlePolicy(min_interval=0.0),
        session=session,
        clock=clock,
        sleep=clock.sleep,
        backoff_base=1.0,
        **kwargs,
    )
    return client, session, clock


class TestFetchRepo:
    def test_reads_counts_and_identity(self):
        handler = PagedHandler("ncbi-nlp/BioSentVec", [4],
                               repo=repo_body("ncbi-nlp/BioSentVec", 546, 93, 13,
                                              "sentence embeddings"))
        client, session, _ = make_client(handler)
        ref = make_ref("ncbi-nlp", "BioSentVec")
        resolved, metrics = client.fetch_repo(ref)
        assert resolved is ref  # same identity, no rename
        assert (metrics.stars, metrics.forks, metrics.open_issues) == (546, 93, 13)
        assert metrics.contributors is None
        assert metrics.name == "BioSentVec"
        assert metrics.description == "sentence embeddings"
        _, url, params = session.calls[0]
        assert url == f"{BASE}/repos/ncbi-nlp/BioSentVec"
        assert params is None

    def test_zero_counts(self):
        handler = PagedHandler("a/b", [0], repo=repo_body("a/b"))
        client, _, _ = make_client(handler)
        _, metrics = client.fetch_repo(make_ref("a", "b"))
        assert (metrics.stars, metrics.forks, metrics.open_issues) == (0, 0, 0)

    def test_missing_repo_raises_not_found(self):
        def handler(url, params):
            return FakeResponse(status_code=404, json_body={"message": "Not Found"})

        client, session, _ = make_client(handler)
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("gone", "away"))
        assert excinfo.value.kind is FailureKind.NOT_FOUND
        assert len(session.calls) == 1  # 404 is not retried

    def test_rename_redirect_followed_once(self):
        def handler(url, params):
            if url.endswith("/repos/old/name"):
                return FakeResponse(
                    status_code=301,
                    headers={"Location": f"{BASE}/repos/new/shiny"},
                )
            return FakeResponse(json_body=repo_body("new/shiny", stars=7))

        client, _, _ = make_client(handler)
        resolved, metrics = client.fetch_repo(make_ref("old", "name"))
        assert resolved == make_ref("new", "shiny")  # the ref full_name gives
        assert resolved.canonical_url == "https://github.com/new/shiny"
        assert metrics.stars == 7

    @pytest.mark.parametrize("full_name", ["../user", "demo/a/b", "demo/..", 7, None])
    def test_an_invalid_full_name_is_malformed_after_one_request(self, full_name):
        """GitHub always sends ``full_name``; a body without one (None here)
        is as malformed as one whose value is not an owner/name."""
        body = repo_body("demo/x")
        if full_name is None:
            del body["full_name"]
        else:
            body["full_name"] = full_name

        def handler(url, params):
            assert url == f"{BASE}/repos/demo/x", f"unexpected URL {url}"
            return FakeResponse(json_body=body)

        client, session, _ = make_client(handler, token="SECRET")
        snapshot, failures = client.enrich(make_ref("demo", "x"))
        assert snapshot is None
        assert [(f.kind, f.detail) for f in failures] == [(
            FailureKind.MALFORMED_RESPONSE,
            f"bad full_name from {BASE}/repos/demo/x: not an owner/name: {full_name!r}")]
        assert len(session.calls) == 1

    def test_the_snapshot_name_is_the_name_part_of_full_name(self):
        """The body's ``name`` is not read: ``full_name`` alone names the
        repository, so a ``name`` that disagrees with it changes nothing."""
        body = {**repo_body("Demo/X", stars=3), "name": 7}
        client, _, _ = make_client(lambda url, params: FakeResponse(json_body=body))
        ref = make_ref("demo", "x")
        resolved, metrics = client.fetch_repo(ref)
        assert resolved is ref
        assert (metrics.name, metrics.stars) == ("X", 3)

    def test_redirect_loop_is_malformed(self):
        def handler(url, params):
            return FakeResponse(status_code=301, headers={"Location": f"{BASE}/repos/x/y"})

        client, session, _ = make_client(handler)
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.MALFORMED_RESPONSE
        assert excinfo.value.detail == f"repeated redirects for {BASE}/repos/a/b"
        assert len(session.calls) == 2

    def test_redirect_without_location_is_malformed(self):
        client, session, _ = make_client(
            lambda url, params: FakeResponse(status_code=301)
        )
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.MALFORMED_RESPONSE
        assert "without Location" in excinfo.value.detail
        assert len(session.calls) == 1

    def test_an_unparseable_location_is_malformed_after_one_request(self):
        location = "http://[::1/repos/x/y"
        client, session, _ = make_client(
            lambda url, params: FakeResponse(status_code=301, headers={"Location": location}))
        snapshot, failures = client.enrich(make_ref("a", "b"))
        assert snapshot is None
        assert [(f.kind, f.detail) for f in failures] == [(
            FailureKind.MALFORMED_RESPONSE,
            f"unparseable Location {location!r} for {BASE}/repos/a/b: Invalid IPv6 URL")]
        assert len(session.calls) == 1

    def test_non_json_body_is_malformed(self):
        client, _, _ = make_client(lambda url, params: FakeResponse(text="<html>"))
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.MALFORMED_RESPONSE

    def test_json_body_that_is_not_an_object_is_malformed(self):
        client, _, _ = make_client(lambda url, params: FakeResponse(json_body=[1, 2]))
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.MALFORMED_RESPONSE
        assert "expected an object" in excinfo.value.detail

    def test_missing_count_field_is_malformed(self):
        body = {"full_name": "a/b", "name": "b", "stargazers_count": 1}
        client, _, _ = make_client(lambda url, params: FakeResponse(json_body=body))
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.MALFORMED_RESPONSE

    def test_server_error_retried_then_fails_as_transport(self):
        calls = []

        def handler(url, params):
            calls.append(url)
            return FakeResponse(status_code=502, text="bad gateway")

        client, _, _ = make_client(handler)
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.TRANSPORT
        assert len(calls) == 3  # first attempt + default budget of 2 retries

    def test_transport_exception_retried_then_fails_as_transport(self):
        def handler(url, params):
            raise requests.ConnectionError("connection reset")

        client, session, _ = make_client(handler)
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.TRANSPORT
        assert "connection reset" in excinfo.value.detail
        assert len(session.calls) == 3

    def test_forbidden_without_quota_signals_is_not_retried(self):
        calls = []

        def handler(url, params):
            calls.append(url)
            return FakeResponse(status_code=403, json_body={"message": "forbidden"})

        client, _, _ = make_client(handler)
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.FORBIDDEN
        assert len(calls) == 1

    def test_unauthorized_is_forbidden_and_not_retried(self):
        calls = []

        def handler(url, params):
            calls.append(url)
            return FakeResponse(status_code=401, json_body={"message": "Bad credentials"})

        client, _, _ = make_client(handler)
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.FORBIDDEN
        assert len(calls) == 1


class TestRateLimitHandling:
    def test_quota_403_retried_after_hint(self, caplog):
        state = {"limited": True}

        def handler(url, params):
            if state["limited"]:
                state["limited"] = False
                return FakeResponse(
                    status_code=403,
                    json_body={"message": "rate limit exceeded"},
                    headers={"X-RateLimit-Remaining": "0", "Retry-After": "30"},
                )
            return FakeResponse(json_body=repo_body("a/b", stars=1))

        clock = FakeClock()
        client, session, clock = make_client(handler, clock=clock)
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            _, metrics = client.fetch_repo(make_ref("a", "b"))
        assert metrics.stars == 1
        times = session.times
        assert times[1] - times[0] >= 30.0
        assert caplog.records == []  # a short wait is not worth a warning

    def test_a_long_retry_after_is_waited_out_and_warned_about(self, caplog):
        """A wait of more than a minute is never silent."""
        answers = [
            FakeResponse(
                status_code=403,
                json_body={"message": "rate limit exceeded"},
                headers={"X-RateLimit-Remaining": "0", "Retry-After": "3000"},
            ),
            FakeResponse(json_body=repo_body("a/b", stars=1)),
        ]
        client, session, clock = make_client(lambda url, params: answers.pop(0))
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            _, metrics = client.fetch_repo(make_ref("a", "b"))
        assert metrics.stars == 1
        assert clock.sleeps == [3000.0]
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [(
            logging.WARNING,
            f"rate_limited: HTTP 403 for {BASE}/repos/a/b; waiting 3000 s before retrying",
        )]

    def test_a_429_with_only_a_reset_is_retried_after_the_backoff(self):
        """X-RateLimit-Reset is not a hint: the backoff applies."""
        reset = str(int(time.time()) + 45)
        answers = [
            FakeResponse(status_code=429, json_body={"message": "slow down"},
                         headers={"X-RateLimit-Reset": reset}),
            FakeResponse(json_body=repo_body("a/b", stars=1)),
        ]
        client, session, clock = make_client(lambda url, params: answers.pop(0))
        _, metrics = client.fetch_repo(make_ref("a", "b"))
        assert metrics.stars == 1
        assert len(session.calls) == 2
        assert clock.sleeps == [1.0]

    def test_server_error_does_not_wait_for_quota_reset(self):
        """X-RateLimit-Reset is the end of the quota window, not a hint for
        retrying a 5xx: the backoff applies."""
        clock = FakeClock(start=100.0)
        answers = [
            FakeResponse(
                status_code=502,
                text="bad gateway",
                headers={"X-RateLimit-Remaining": "4990", "X-RateLimit-Reset": "3100"},
            ),
            FakeResponse(json_body=repo_body("a/b", stars=1)),
        ]
        client, session, clock = make_client(lambda url, params: answers.pop(0), clock=clock)
        _, metrics = client.fetch_repo(make_ref("a", "b"))
        assert metrics.stars == 1
        assert len(session.calls) == 2
        assert clock.sleeps == [1.0]

    @pytest.mark.parametrize("status", [403, 429])
    def test_budget_exhausted_surfaces_rate_limited(self, status, caplog):
        """A spent quota fails after one request: its reset, an hour away,
        is not waited for."""
        reset = str(int(time.time()) + 3600)

        def handler(url, params):
            return FakeResponse(
                status_code=status,
                json_body={"message": "rate limit exceeded"},
                headers={"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": reset},
            )

        client, session, clock = make_client(handler)
        with caplog.at_level(logging.WARNING, logger="repoharvest"), \
                pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.RATE_LIMITED
        assert excinfo.value.detail == f"quota spent: HTTP {status} for {BASE}/repos/a/b"
        assert len(session.calls) == 1
        assert clock.sleeps == []
        assert caplog.records == []

    @pytest.mark.parametrize("status", [403, 429])
    @pytest.mark.parametrize("hint", ["1e20", "3601"])
    def test_a_retry_after_past_an_hour_spends_the_quota(self, status, hint, caplog):
        """A wait past MAX_WAIT is not slept: the quota is taken as spent."""
        def handler(url, params):
            return FakeResponse(status_code=status, json_body={"message": "slow down"},
                                headers={"Retry-After": hint})

        client, session, clock = make_client(handler)
        with caplog.at_level(logging.WARNING, logger="repoharvest"), \
                pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        spent = (f"quota spent: HTTP {status} for {BASE}/repos/a/b, "
                 f"which asks for a {float(hint):.0f} s wait")
        assert (excinfo.value.kind, excinfo.value.detail) == (FailureKind.RATE_LIMITED, spent)
        with pytest.raises(GitHubFetchError, match="not sent"):
            client.fetch_repo(make_ref("c", "d"))
        assert len(session.calls) == 1
        assert clock.sleeps == []
        assert caplog.records == []

    def test_a_server_error_asking_past_an_hour_fails_unwaited(self):
        """Only a 403 or 429 spends the quota; a 5xx fails its repository."""
        answers = [FakeResponse(status_code=503, text="busy", headers={"Retry-After": "1e20"}),
                   FakeResponse(json_body=repo_body("c/d", stars=1))]
        client, session, clock = make_client(lambda url, params: answers.pop(0))
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.TRANSPORT
        assert client.fetch_repo(make_ref("c", "d"))[1].stars == 1
        assert len(session.calls) == 2
        assert clock.sleeps == []

    def test_after_a_spent_answer_nothing_more_is_sent(self):
        def handler(url, params):
            if url.endswith("/contributors"):
                return FakeResponse(status_code=403, json_body={"message": "limit"},
                                    headers={"X-RateLimit-Remaining": "0"})
            return FakeResponse(json_body=repo_body("a/b", stars=1))

        client, session, _ = make_client(handler)
        snapshot, failures = client.enrich(make_ref("a", "b"))
        assert (snapshot[1].stars, snapshot[1].contributors) == (1, None)  # kept uncounted
        spent = f"quota spent: HTTP 403 for {CONTRIBUTORS}"
        assert [(f.kind, f.detail) for f in failures] == [(FailureKind.RATE_LIMITED, spent)]
        for call, url in ((client.fetch_repo, f"{BASE}/repos/c/d"),
                          (client.count_contributors, f"{BASE}/repos/c/d/contributors")):
            with pytest.raises(GitHubFetchError) as excinfo:
                call(make_ref("c", "d"))
            assert (excinfo.value.kind, excinfo.value.detail) == (
                FailureKind.RATE_LIMITED, f"{spent}; {url} not sent")
        assert [url for _, url, _ in session.calls] == [f"{BASE}/repos/a/b", CONTRIBUTORS]


class TestNetrc:
    """requests reads ~/.netrc for a request sent with no auth."""

    @pytest.mark.parametrize("token,expected", [("tok", "Bearer tok"), (None, "Basic ")])
    def test_a_token_is_sent_even_where_netrc_names_the_api_host(
            self, tmp_path, monkeypatch, token, expected):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine api.github.com login someone password secret\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
        sent = []

        class Capture(requests.adapters.HTTPAdapter):
            """Answers every request itself: no socket is opened."""

            def send(self, request, **kwargs):
                sent.append(request.headers.get("Authorization"))
                response = requests.Response()
                response.status_code = 200
                response._content = json.dumps(repo_body("a/b")).encode()
                response.request, response.url = request, request.url
                return response

        with requests.Session() as session:
            session.mount("https://", Capture())
            client = GitHubClient(token=token, policy=ThrottlePolicy(min_interval=0.0),
                                  session=session)
            client.fetch_repo(make_ref("a", "b"))
        assert len(sent) == 1 and sent[0].startswith(expected)


class TestCountContributors:
    def test_single_partial_page(self):
        handler = PagedHandler("a/b", [4])
        client, session, _ = make_client(handler)
        assert client.count_contributors(make_ref("a", "b")) == 4
        first_params = session.calls[0][2]
        assert first_params == {"per_page": 1}

    def test_full_final_page_requires_no_next_link(self):
        handler = PagedHandler("a/b", [100])
        client, session, _ = make_client(handler)
        assert client.count_contributors(make_ref("a", "b")) == 100
        assert len(session.calls) == 1

    def test_empty_repository_is_zero(self):
        def handler(url, params):
            return FakeResponse(status_code=204, text="")

        client, _, _ = make_client(handler)
        assert client.count_contributors(make_ref("a", "b")) == 0

    def test_blank_success_body_is_zero(self):
        client, _, _ = make_client(lambda url, params: FakeResponse(text=""))
        assert client.count_contributors(make_ref("a", "b")) == 0

    def test_non_list_body_is_malformed(self):
        client, _, _ = make_client(
            lambda url, params: FakeResponse(json_body={"oops": True})
        )
        with pytest.raises(GitHubFetchError) as excinfo:
            client.count_contributors(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.MALFORMED_RESPONSE

    @staticmethod
    def _last_link_handler(first_page, link):
        def handler(url, params):
            if url == f"{BASE}/repos/a/b":
                return FakeResponse(json_body=repo_body("a/b"))
            if url == f"{BASE}/repos/a/b/contributors":
                return FakeResponse(json_body=first_page, headers={"Link": link})
            if url == f"{BASE}/repos/a/b/contributors?page=2":
                return FakeResponse(json_body=[{"login": "tail"}])
            raise AssertionError(f"unexpected URL {url}")

        return handler

    def test_last_link_is_the_count(self):
        link = (f'<{BASE}/repositories/7/contributors?per_page=1&page=2>; rel="next", '
                f'<{BASE}/repositories/7/contributors?per_page=1&page=250>; rel="last"')
        client, session, _ = make_client(self._last_link_handler([{"login": "u0"}], link))
        snapshot, failures = client.enrich(make_ref("a", "b"))
        assert failures == ()
        assert snapshot[1].contributors == 250
        assert [url for _, url, _ in session.calls] == [
            f"{BASE}/repos/a/b", f"{BASE}/repos/a/b/contributors"]

    def test_unquoted_rel_is_read(self):
        # RFC 8288 allows a rel value without quotes
        link = (f'<{BASE}/repos/a/b/contributors?page=2>; rel=next, '
                f'<{BASE}/repos/a/b/contributors?page=7>; rel=last')
        client, session, _ = make_client(self._last_link_handler([{"login": "u0"}], link))
        assert client.count_contributors(make_ref("a", "b")) == 7
        assert len(session.calls) == 1

    @staticmethod
    def _assert_malformed_after_one_request(pages):
        """A server that ignores per_page and pages onward: the count is
        refused after the first answer, whatever the later pages hold."""
        def handler(url, params):
            body, link = pages[url]
            return FakeResponse(json_body=body, headers={"Link": link} if link else {})

        client, session, _ = make_client(handler)
        with pytest.raises(GitHubFetchError) as excinfo:
            client.count_contributors(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.MALFORMED_RESPONSE
        assert [(url, params) for _, url, params in session.calls] == [
            (CONTRIBUTORS, {"per_page": 1})]

    def test_three_pages_sum(self):
        # pages are never summed: a full first page with a next link is refused
        self._assert_malformed_after_one_request(contributors_pages("a/b", [100, 100, 4]))

    def test_a_next_link_that_repeats_a_page_is_malformed(self):
        page = ([{"login": "u0"}, {"login": "u1"}], f'<{CONTRIBUTORS}?page=2>; rel="next"')
        self._assert_malformed_after_one_request(
            {CONTRIBUTORS: page, f"{CONTRIBUTORS}?page=2": page})

    def test_last_link_untrusted_unless_first_page_holds_one_entry(self):
        # 30 entries: the last page number is not a count
        self._assert_malformed_after_one_request({
            CONTRIBUTORS: ([{"login": f"u{i}"} for i in range(30)],
                           f'<{CONTRIBUTORS}?page=2>; rel="next", '
                           f'<{CONTRIBUTORS}?page=2>; rel="last"'),
            f"{CONTRIBUTORS}?page=2": ([{"login": "tail"}], None)})

    def test_last_link_trusted_on_the_first_page_only(self):
        # a first page of two entries: its last link is no count either
        self._assert_malformed_after_one_request(
            {url: (body, link and f'{link}, <{CONTRIBUTORS}?page=3>; rel="last"')
             for url, (body, link) in contributors_pages("a/b", [2, 1, 1]).items()})

    def test_last_link_without_page_number_falls_back_to_next(self):
        # nothing falls back to the next link: a last link without a page is refused
        self._assert_malformed_after_one_request({
            CONTRIBUTORS: ([{"login": "u0"}],
                           f'<{CONTRIBUTORS}?page=2>; rel="next", '
                           f'<{CONTRIBUTORS}?cursor=end>; rel="last"'),
            f"{CONTRIBUTORS}?page=2": ([{"login": "tail"}], None)})

    def test_an_unparseable_last_link_is_malformed_after_one_request(self):
        link = f'<{CONTRIBUTORS}?page=2>; rel="next", <http://[::1?page=9>; rel="last"'
        client, session, _ = make_client(self._last_link_handler([{"login": "u0"}], link))
        with pytest.raises(GitHubFetchError) as excinfo:
            client.count_contributors(make_ref("a", "b"))
        assert (excinfo.value.kind, excinfo.value.detail) == (
            FailureKind.MALFORMED_RESPONSE,
            f"unparseable Link header from {CONTRIBUTORS}: Invalid IPv6 URL")
        assert len(session.calls) == 1

    def test_mock_server_repository_of_250_costs_two_requests(self):
        app = MockGitHubApp({"demo/big": {"stars": 3, "forks": 0, "open_issues": 0,
                                          "contributors": 250}})
        with MockServer(app) as server, requests.Session() as session:
            client = GitHubClient(base_url=server.base_url, session=session,
                                  policy=ThrottlePolicy(min_interval=0.0))
            snapshot, failures = client.enrich(make_ref("demo", "big"))
        assert failures == ()
        assert snapshot[1].contributors == 250
        assert app.requests == ["/repos/demo/big", "/repos/demo/big/contributors"]


class TestEnrich:
    def _multi_handler(self, repos, broken=None):
        broken = broken or {}

        def handler(url, params):
            parts = [p for p in url.split("/") if p]
            idx = parts.index("repos")
            slug = f"{parts[idx + 1]}/{parts[idx + 2]}"
            mode = broken.get(slug)
            if mode == "not_found":
                return FakeResponse(status_code=404, json_body={"message": "nf"})
            if mode == "rate_limited":
                return FakeResponse(
                    status_code=403,
                    json_body={"message": "limit"},
                    headers={"X-RateLimit-Remaining": "0"},
                )
            if mode == "transport":
                return FakeResponse(status_code=500, text="boom")
            spec = repos[slug]
            if url.endswith("/contributors"):
                body = [{"login": f"u{i}"} for i in range(spec["contributors"])]
                return FakeResponse(json_body=body)
            return FakeResponse(
                json_body=repo_body(slug, spec["stars"], spec["forks"],
                                    spec["open_issues"])
            )

        return handler

    @pytest.mark.parametrize("mode, failed, sent", [
        # a spent quota fails the broken repository and every later one,
        # which are not requested
        ("rate_limited", ["two", "three"], ["one", "one/contributors", "two"]),
        ("not_found", ["two"], ["one", "one/contributors", "two", "three",
                                "three/contributors"]),
        ("transport", ["two"], ["one", "one/contributors", "two", "two", "two", "three",
                                "three/contributors"]),
    ], ids=["rate_limited", "not_found", "transport"])
    def test_partition_and_order(self, mode, failed, sent):
        repos = {
            "a/one": {"stars": 1, "forks": 0, "open_issues": 0, "contributors": 2},
            "b/two": {"stars": 5, "forks": 1, "open_issues": 4, "contributors": 3},
            "c/three": {"stars": 0, "forks": 0, "open_issues": 0, "contributors": 0},
        }
        handler = self._multi_handler(repos, broken={"b/two": mode})
        client, session, _ = make_client(handler)
        refs = [make_ref("a", "one"), make_ref("b", "two"), make_ref("c", "three")]
        outcomes = [client.enrich(ref) for ref in refs]
        # /repos failed: a failure and no snapshot; any other ref: a snapshot alone
        assert [len(failures) for _, failures in outcomes] == [
            int(r.name in failed) for r in refs]
        assert [r.name for r, (snapshot, _) in zip(refs, outcomes) if snapshot is None] == failed
        failures = [f for _, fs in outcomes for f in fs]
        assert [f.kind for f in failures] == [FailureKind(mode)] * len(failed)
        assert all(f.detail for f in failures)
        assert outcomes[0][0][1].contributors == 2
        assert [url.split("/repos/")[1].split("/", 1)[1] for _, url, _ in session.calls] == sent

    def _contributors_fail(self, response):
        """a/one's /repos answers, with an ETag, and its contributors request
        gets ``response``; b/two answers in full."""
        answer = self._multi_handler({
            "b/two": {"stars": 5, "forks": 1, "open_issues": 4, "contributors": 3}})

        def handler(url, params):
            if url == f"{BASE}/repos/a/one":
                return FakeResponse(json_body=repo_body("a/one", stars=7, forks=2),
                                    headers={"ETag": 'W/"new"'})
            if url == f"{BASE}/repos/a/one/contributors":
                return response
            return answer(url, params)

        return handler

    def test_a_failed_contributors_request_keeps_the_cold_snapshot(self):
        handler = self._contributors_fail(FakeResponse(status_code=403, text="too large"))
        client, session, _ = make_client(handler)
        (resolved, metrics), [failure] = client.enrich(make_ref("a", "one"))
        assert failure.kind is FailureKind.FORBIDDEN
        assert resolved == make_ref("a", "one")
        assert (metrics.name, metrics.stars, metrics.forks, metrics.contributors,
                metrics.etag) == ("one", 7, 2, None, 'W/"new"')
        assert client.enrich(make_ref("b", "two"))[0][0].name == "two"
        assert len(session.calls) == 4

    def test_a_failed_contributors_request_keeps_the_stored_count(self):
        handler = self._contributors_fail(FakeResponse(status_code=500, text="boom"))
        client, session, _ = make_client(handler)
        stored = RepoMetrics(name="one", description=None, stars=3, forks=0, open_issues=0,
                             contributors=42, etag='W/"old"',
                             fetched_at=datetime(2024, 1, 1, tzinfo=timezone.utc))
        (_, metrics), [failure] = client.enrich(make_ref("a", "one"), stored)
        assert failure.kind is FailureKind.TRANSPORT
        assert (metrics.stars, metrics.forks, metrics.contributors, metrics.etag) == (
            7, 2, 42, 'W/"new"')
        assert [url for _, url, _ in session.calls] == [
            f"{BASE}/repos/a/one"] + [f"{BASE}/repos/a/one/contributors"] * 3

    @staticmethod
    def _renaming_handler(url, params):
        """demo/old answers a rename to demo/new, which answers in full as
        Demo/New."""
        url = url.lower()
        if url == f"{BASE}/repos/demo/old":
            return FakeResponse(status_code=301, headers={"Location": f"{BASE}/repos/demo/new"})
        if url == f"{BASE}/repos/demo/new/contributors":
            return FakeResponse(json_body=[{"login": "u0"}])
        assert url == f"{BASE}/repos/demo/new", f"unexpected URL {url}"
        return FakeResponse(json_body=repo_body("Demo/New", stars=9))

    def test_a_rename_onto_a_known_snapshot_returns_it_without_a_count(self):
        """The snapshot taken under the new name is returned after the old
        name's /repos request and its hop; no contributors request is sent."""
        client, session, _ = make_client(self._renaming_handler)
        earlier, none = client.enrich(make_ref("demo", "new"))
        snapshot, failures = client.enrich(make_ref("demo", "old"))
        assert snapshot is earlier and none == failures == ()
        assert [url for _, url, _ in session.calls] == [
            f"{BASE}/repos/demo/new", f"{BASE}/repos/demo/new/contributors",
            f"{BASE}/repos/demo/old", f"{BASE}/repos/demo/new"]

    def test_the_new_name_after_the_old_one_sends_nothing(self):
        """The old name resolved onto the new one, so the new name gets that
        snapshot unsent."""
        client, session, _ = make_client(self._renaming_handler)
        snapshot, none = client.enrich(make_ref("demo", "old"))
        assert (snapshot[0], snapshot[1].stars, none) == (make_ref("Demo", "New"), 9, ())
        assert len(session.calls) == 3  # the old name, the hop, the contributors
        assert client.enrich(make_ref("demo", "new")) == (snapshot, ())
        assert client.enrich(make_ref("demo", "new"))[0] is snapshot
        assert len(session.calls) == 3

    @pytest.mark.parametrize("broken", [{}, {"a/one": "not_found"}], ids=["answer", "failure"])
    def test_a_name_asked_twice_sends_nothing_the_second_time(self, broken):
        repos = {"a/one": {"stars": 1, "forks": 0, "open_issues": 0, "contributors": 2}}
        client, session, _ = make_client(self._multi_handler(repos, broken))
        first = client.enrich(make_ref("a", "one"))
        sent = len(session.calls)
        again = client.enrich(make_ref("A", "One"), make_metrics(name="one", etag='"e"'))
        assert again is first and len(session.calls) == sent == (1 if broken else 2)
        assert [failure.kind for failure in again[1]] == (
            [FailureKind.NOT_FOUND] if broken else [])

    @staticmethod
    def _one_fails_then_two_answers(client) -> GitHubFetchError:
        """a/one's one failure, after b/two is enriched in full."""
        (snapshot, failures), (answered, none) = (
            client.enrich(make_ref("a", "one")), client.enrich(make_ref("b", "two")))
        assert snapshot is None and none == ()
        assert (answered[0].name, answered[1].stars, answered[1].contributors) == ("two", 5, 3)
        [failure] = failures
        assert failure.kind is FailureKind.MALFORMED_RESPONSE
        return failure

    def test_negative_count_is_one_malformed_failure(self):
        repos = {
            "a/one": {"stars": -1, "forks": 0, "open_issues": 0, "contributors": 1},
            "b/two": {"stars": 5, "forks": 1, "open_issues": 4, "contributors": 3},
        }
        client, _, _ = make_client(self._multi_handler(repos))
        self._one_fails_then_two_answers(client)

    @pytest.mark.parametrize("stars", ["12", 12.7, True])
    def test_non_integer_count_is_one_malformed_failure(self, stars):
        repos = {
            "a/one": {"stars": stars, "forks": 0, "open_issues": 0, "contributors": 1},
            "b/two": {"stars": 5, "forks": 1, "open_issues": 4, "contributors": 3},
        }
        client, _, _ = make_client(self._multi_handler(repos))
        assert "stars must be an integer" in self._one_fails_then_two_answers(client).detail

    @pytest.mark.parametrize("field, value", [("description", ["d"])], ids=["description"])
    def test_non_string_text_is_one_malformed_failure(self, field, value):
        repos = {"b/two": {"stars": 5, "forks": 1, "open_issues": 4, "contributors": 3}}
        answer = self._multi_handler(repos)

        def handler(url, params):
            if url.endswith("/repos/a/one"):
                return FakeResponse(json_body={**repo_body("a/one"), field: value})
            return answer(url, params)

        client, _, _ = make_client(handler)
        assert f"{field} must be a string" in self._one_fails_then_two_answers(client).detail

    def test_a_lone_surrogate_in_the_description_is_one_malformed_failure(self):
        """A JSON \\ud800 escape decodes to text UTF-8 cannot encode, so no
        writer could save the snapshot; an escaped pair is one character."""
        repos = {"b/two": {"stars": 5, "forks": 1, "open_issues": 4, "contributors": 3}}
        answer = self._multi_handler(repos)

        def handler(url, params):
            if url.endswith("/repos/a/one"):
                return FakeResponse(json_body={**repo_body("a/one"), "description": "\ud800"})
            if url.endswith("/repos/c/three"):
                return FakeResponse(json_body={**repo_body("c/three"), "description": "\U0001f600"})
            if url.endswith("/repos/c/three/contributors"):
                return FakeResponse(status_code=204)
            return answer(url, params)

        client, _, _ = make_client(handler)
        failure = self._one_fails_then_two_answers(client)
        assert failure.detail == (f"bad fields from {BASE}/repos/a/one: description '\\ud800' "
                                  "holds a lone surrogate, which UTF-8 cannot encode")
        (_, metrics), none = client.enrich(make_ref("c", "three"))
        assert (metrics.description, none) == ("\U0001f600", ())

    def test_a_body_nested_too_deeply_is_one_malformed_failure(self):
        """json raises RecursionError, not ValueError, on such a body."""
        repos = {"b/two": {"stars": 5, "forks": 1, "open_issues": 4, "contributors": 3}}
        answer = self._multi_handler(repos)

        def handler(url, params):
            if url.endswith("/repos/a/one"):
                return FakeResponse(text="[" * 100_000 + "]" * 100_000)
            return answer(url, params)

        client, _, _ = make_client(handler)
        failure = self._one_fails_then_two_answers(client)
        assert failure.detail.startswith(f"unparseable body from {BASE}/repos/a/one: ")


class TestCrossOriginUrls:
    """The token goes only to base_url's scheme and host."""

    def _enrich_with_token(self, handler):
        """The snapshot enrich returns, and the session, after one failure."""
        client, session, _ = make_client(handler, token="SECRET")
        snapshot, failures = client.enrich(make_ref("demo", "old"))
        assert [f.kind for f in failures] == [FailureKind.MALFORMED_RESPONSE]
        assert all(url.startswith(f"{BASE}/") for _, url, _ in session.calls)
        assert all(h["Authorization"] == "Bearer SECRET" for h in session.headers)
        return snapshot, session

    @pytest.mark.parametrize("location", ["http://evil.test/repos/demo/new",
                                          "https://gh.test/repos/demo/new"])
    def test_cross_origin_rename_is_not_followed(self, location):
        def handler(url, params):
            assert url == f"{BASE}/repos/demo/old"
            return FakeResponse(status_code=301, headers={"Location": location})

        snapshot, session = self._enrich_with_token(handler)
        assert snapshot is None
        assert len(session.calls) == 1

    def test_cross_origin_next_link_is_not_followed(self):
        def handler(url, params):
            if url == f"{BASE}/repos/demo/old":
                return FakeResponse(json_body=repo_body("demo/old"))
            assert url == f"{BASE}/repos/demo/old/contributors"
            return FakeResponse(json_body=[{"login": "u0"}, {"login": "u1"}],
                                headers={"Link": '<http://evil2.test/next?page=2>; rel="next"'})

        snapshot, session = self._enrich_with_token(handler)
        assert snapshot[1].contributors is None  # the /repos snapshot is kept uncounted
        assert len(session.calls) == 2


class TestConditionalRefresh:
    """A stored snapshot with an ETag makes the /repos request conditional.
    A 304 skips the contributors request: a new contributor needs a push,
    and a push changes pushed_at, so the repository body and its ETag."""

    FETCHED = datetime(2024, 6, 1, tzinfo=timezone.utc)
    ETAG = 'W/"abc"'

    def _stored(self):
        return RepoMetrics(name="b", description=None, stars=9, forks=0, open_issues=0,
                           contributors=42, etag=self.ETAG,
                           fetched_at=datetime(2024, 1, 1, tzinfo=timezone.utc))

    def _client(self, handler, **kwargs):
        return make_client(handler, now=lambda: self.FETCHED, **kwargs)

    def test_not_modified_reuses_the_stored_snapshot(self):
        client, session, _ = self._client(lambda url, params: FakeResponse(status_code=304))
        stored = self._stored()
        snapshot, failures = client.enrich(make_ref("a", "b"), stored)
        assert failures == ()
        assert snapshot == (make_ref("a", "b"), replace(stored, fetched_at=self.FETCHED))
        assert [url for _, url, _ in session.calls] == [f"{BASE}/repos/a/b"]
        assert session.headers[0]["If-None-Match"] == self.ETAG

    def test_not_modified_with_an_unknown_count_counts_the_contributors(self):
        def handler(url, params):
            if url.endswith("/contributors"):
                return FakeResponse(json_body=[{"login": "u0"}])
            return FakeResponse(status_code=304)

        client, session, _ = self._client(handler)
        stored = replace(self._stored(), contributors=None)
        snapshot, _ = client.enrich(make_ref("a", "b"), stored)
        assert snapshot[1] == replace(stored, contributors=1, fetched_at=self.FETCHED)
        assert [url for _, url, _ in session.calls] == [f"{BASE}/repos/a/b", CONTRIBUTORS]

    def test_not_modified_on_the_rename_hop(self):
        def handler(url, params):
            if url == f"{BASE}/repos/a/b":
                return FakeResponse(status_code=301,
                                    headers={"Location": f"{BASE}/repositories/7"})
            return FakeResponse(status_code=304)

        client, session, _ = self._client(handler)
        stored = self._stored()
        snapshot, failures = client.enrich(make_ref("a", "b"), stored)
        assert failures == ()
        assert snapshot[1] == replace(stored, fetched_at=self.FETCHED)
        assert [url for _, url, _ in session.calls] == [
            f"{BASE}/repos/a/b", f"{BASE}/repositories/7"]
        assert [h["If-None-Match"] for h in session.headers] == [self.ETAG, self.ETAG]

    def test_changed_repository_is_refreshed_in_full(self):
        def handler(url, params):
            if url.endswith("/contributors"):
                return FakeResponse(json_body=[{"login": "u0"}, {"login": "u1"}])
            return FakeResponse(json_body=repo_body("a/b", stars=10),
                                headers={"ETag": 'W/"new"'})

        client, session, _ = self._client(handler)
        (_, metrics), failures = client.enrich(make_ref("a", "b"), self._stored())
        assert failures == ()
        assert (metrics.stars, metrics.contributors, metrics.etag) == (10, 2, 'W/"new"')
        assert metrics.fetched_at == self.FETCHED
        assert len(session.calls) == 2
        assert session.headers[0]["If-None-Match"] == self.ETAG
        assert "If-None-Match" not in session.headers[1]

    @pytest.mark.parametrize("etag, kept", [
        ('W/"\xe9"', 'W/"\xe9"'),  # header text is Latin-1
        ('W/"a"\r\n "b"', None),  # a folded header line
        ("\xa0x", None),  # whitespace ahead
    ], ids=["latin-1", "folded", "leading-space"])
    def test_only_an_etag_that_can_be_sent_back_is_kept(self, etag, kept):
        def handler(url, params):
            if url.endswith("/contributors"):
                return FakeResponse(json_body=[{"login": "u0"}])
            return FakeResponse(json_body=repo_body("a/b"), headers={"ETag": etag})

        client, _, _ = self._client(handler)
        (_, metrics), failures = client.enrich(make_ref("a", "b"))
        assert (metrics.etag, failures) == (kept, ())

    def test_no_validator_without_a_stored_etag(self):
        handler = PagedHandler("a/b", [3])
        client, session, _ = self._client(handler)
        stored = replace(self._stored(), etag=None)
        snapshot, _ = client.enrich(make_ref("a", "b"), stored)
        assert snapshot[1].contributors == 3
        assert all("If-None-Match" not in h for h in session.headers)

    def test_not_modified_without_a_validator_is_malformed(self):
        client, _, _ = self._client(lambda url, params: FakeResponse(status_code=304))
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.MALFORMED_RESPONSE


class TestPolicyDefaults:
    @staticmethod
    def _gap(token):
        """Seconds between the first two requests of a client that picks its
        own interval."""
        clock = FakeClock()
        session = FakeSession(lambda u, p: FakeResponse(json_body=[]), clock=clock)
        client = GitHubClient(token=token, session=session, clock=clock, sleep=clock.sleep)
        for _ in range(2):
            client.count_contributors(make_ref("a", "b"))
        return session.times[1] - session.times[0]

    @pytest.mark.parametrize("token", [None, "tok"], ids=["anonymous", "token"])
    def test_one_interval_with_or_without_a_token(self, token):
        assert self._gap(token) == pytest.approx(AUTHENTICATED_MIN_INTERVAL) == 0.10

    def test_token_becomes_bearer_header(self):
        captured = {}

        class Recorder:
            def get(self, url, params=None, headers=None, **kw):
                captured.update(headers or {})
                return FakeResponse(json_body=repo_body("a/b"))

        client = GitHubClient(
            base_url=BASE, token="sekret", session=Recorder(),
            policy=ThrottlePolicy(min_interval=0.0),
            clock=FakeClock(), sleep=lambda s: None,
        )
        client.fetch_repo(make_ref("a", "b"))
        assert captured["Authorization"] == "Bearer sekret"
        assert captured["Accept"] == "application/vnd.github+json"

    def test_min_interval_spacing_across_mixed_requests(self):
        def handler(url, params):
            if url == CONTRIBUTORS:
                return FakeResponse(json_body=[{"login": "u0"}], headers={"Link": (
                    f'<{CONTRIBUTORS}?per_page=1&page=2>; rel="next", '
                    f'<{CONTRIBUTORS}?per_page=1&page=3>; rel="last"')})
            return FakeResponse(json_body=repo_body("a/b"))

        clock = FakeClock()
        client, session, clock = make_client(
            handler, clock=clock, policy=ThrottlePolicy(min_interval=0.5)
        )
        client.fetch_repo(make_ref("a", "b"))
        assert client.count_contributors(make_ref("a", "b")) == 3
        client.fetch_repo(make_ref("a", "b"))
        times = session.times
        assert len(times) == 3
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= 0.5


class TestRepoMetricsValidation:
    def test_negative_counts_rejected(self):
        from datetime import datetime, timezone

        with pytest.raises(ValueError):
            RepoMetrics(
                name="x", description=None, stars=-1, forks=0, open_issues=0,
                contributors=None,
                fetched_at=datetime(2024, 1, 1, tzinfo=timezone.utc),
            )
