"""GitHub client: snapshots, contributor pagination, failures, throttling."""
from __future__ import annotations

from dataclasses import replace
from datetime import datetime, timezone

import pytest
import requests

from conftest import FakeClock, FakeResponse, FakeSession, make_ref
from mockservers import MockGitHubApp, MockServer
from repoharvest.github import (
    ANONYMOUS_MIN_INTERVAL,
    AUTHENTICATED_MIN_INTERVAL,
    FailureKind,
    GitHubClient,
    GitHubFetchError,
    RepoMetrics,
    ThrottlePolicy,
)

BASE = "http://gh.test"


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
        wall_clock=clock,
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
        ref = make_ref("ncbi-nlp", "BioSentVec", {"2810.04805"})
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
        resolved, metrics = client.fetch_repo(make_ref("old", "name", {"p1"}))
        assert (resolved.owner, resolved.name) == ("new", "shiny")
        assert resolved.canonical_url == "https://github.com/new/shiny"
        assert resolved.source_papers == {"p1"}
        assert metrics.stars == 7

    def test_redirect_loop_is_malformed(self):
        def handler(url, params):
            return FakeResponse(status_code=301, headers={"Location": f"{BASE}/repos/x/y"})

        client, _, _ = make_client(handler)
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.MALFORMED_RESPONSE

    def test_redirect_without_location_is_malformed(self):
        client, session, _ = make_client(
            lambda url, params: FakeResponse(status_code=301)
        )
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.MALFORMED_RESPONSE
        assert "without Location" in excinfo.value.detail
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
    def test_quota_403_retried_after_hint(self):
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
        _, metrics = client.fetch_repo(make_ref("a", "b"))
        assert metrics.stars == 1
        times = session.times
        assert times[1] - times[0] >= 30.0

    def test_rate_limit_reset_header_used_as_hint(self):
        clock = FakeClock(start=100.0)
        state = {"limited": True}

        def handler(url, params):
            if state["limited"]:
                state["limited"] = False
                return FakeResponse(
                    status_code=429,
                    json_body={"message": "slow down"},
                    headers={"X-RateLimit-Reset": "145"},  # 45s past wall clock
                )
            return FakeResponse(json_body=repo_body("a/b"))

        client, session, clock = make_client(handler, clock=clock)
        client.fetch_repo(make_ref("a", "b"))
        times = session.times
        assert times[1] - times[0] >= 45.0

    def test_budget_exhausted_surfaces_rate_limited(self):
        def handler(url, params):
            return FakeResponse(
                status_code=403,
                json_body={"message": "rate limit exceeded"},
                headers={"X-RateLimit-Remaining": "0"},
            )

        client, session, _ = make_client(handler)
        with pytest.raises(GitHubFetchError) as excinfo:
            client.fetch_repo(make_ref("a", "b"))
        assert excinfo.value.kind is FailureKind.RATE_LIMITED
        assert len(session.calls) == 3

    def test_infinite_reset_falls_back_to_backoff(self):
        def handler(url, params):
            return FakeResponse(
                status_code=403,
                json_body={"message": "rate limit exceeded"},
                headers={"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "inf"},
            )

        client, session, clock = make_client(handler)
        successes, failures = client.enrich([make_ref("a", "b")])
        assert successes == []
        assert [f.kind for f in failures] == [FailureKind.RATE_LIMITED]
        assert len(session.calls) == 3
        assert clock.sleeps == [1.0, 2.0]  # the doubling backoff, not the hint


class TestCountContributors:
    def test_single_partial_page(self):
        handler = PagedHandler("a/b", [4])
        client, session, _ = make_client(handler)
        assert client.count_contributors(make_ref("a", "b")) == 4
        first_params = session.calls[0][2]
        assert first_params == {"per_page": 1}

    def test_three_pages_sum(self):
        handler = PagedHandler("a/b", [100, 100, 4])
        client, session, _ = make_client(handler)
        assert client.count_contributors(make_ref("a", "b")) == 204
        assert len(session.calls) == 3
        # follow-up requests reuse the Link URL verbatim, no duplicate params
        assert session.calls[1][2] is None

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

    def test_anonymous_flag_forwarded(self):
        handler = PagedHandler("a/b", [2])
        client, session, _ = make_client(handler, include_anonymous=True)
        client.count_contributors(make_ref("a", "b"))
        assert session.calls[0][2] == {"per_page": 1, "anon": "1"}

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
        successes, failures = client.enrich([make_ref("a", "b")])
        assert failures == []
        assert successes[0][1].contributors == 250
        assert [url for _, url, _ in session.calls] == [
            f"{BASE}/repos/a/b", f"{BASE}/repos/a/b/contributors"]

    def test_last_link_untrusted_unless_first_page_holds_one_entry(self):
        # a server that ignores per_page: the last page number is not a count
        link = (f'<{BASE}/repos/a/b/contributors?page=2>; rel="next", '
                f'<{BASE}/repos/a/b/contributors?page=2>; rel="last"')
        first = [{"login": f"u{i}"} for i in range(30)]
        client, session, _ = make_client(self._last_link_handler(first, link))
        assert client.count_contributors(make_ref("a", "b")) == 31
        assert len(session.calls) == 2

    def test_last_link_trusted_on_the_first_page_only(self):
        sizes = [2, 1, 1]
        pages = contributors_pages("a/b", sizes)
        last = f"{BASE}/repos/a/b/contributors?page={len(sizes)}"
        for url, (body, link) in pages.items():
            if link:
                pages[url] = (body, f'{link}, <{last}>; rel="last"')

        def handler(url, params):
            body, link = pages[url]
            return FakeResponse(json_body=body, headers={"Link": link} if link else {})

        client, session, _ = make_client(handler)
        assert client.count_contributors(make_ref("a", "b")) == 4
        assert len(session.calls) == 3

    def test_last_link_without_page_number_falls_back_to_next(self):
        link = (f'<{BASE}/repos/a/b/contributors?page=2>; rel="next", '
                f'<{BASE}/repos/a/b/contributors?cursor=end>; rel="last"')
        client, session, _ = make_client(self._last_link_handler([{"login": "u0"}], link))
        assert client.count_contributors(make_ref("a", "b")) == 2
        assert len(session.calls) == 2

    def test_mock_server_repository_of_250_costs_two_requests(self):
        app = MockGitHubApp({"demo/big": {"stars": 3, "forks": 0, "open_issues": 0,
                                          "contributors": 250}})
        with MockServer(app) as server, requests.Session() as session:
            client = GitHubClient(base_url=server.base_url, session=session,
                                  policy=ThrottlePolicy(min_interval=0.0))
            successes, failures = client.enrich([make_ref("demo", "big")])
        assert failures == []
        assert successes[0][1].contributors == 250
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

    def test_partition_and_order(self):
        repos = {
            "a/one": {"stars": 1, "forks": 0, "open_issues": 0, "contributors": 2},
            "b/two": {"stars": 5, "forks": 1, "open_issues": 4, "contributors": 3},
            "c/three": {"stars": 0, "forks": 0, "open_issues": 0, "contributors": 0},
        }
        handler = self._multi_handler(repos, broken={"b/two": "not_found"})
        client, _, _ = make_client(handler)
        refs = [make_ref("a", "one"), make_ref("b", "two"), make_ref("c", "three")]
        successes, failures = client.enrich(refs)
        assert [r.name for r, _ in successes] == ["one", "three"]
        assert [f.repo.name for f in failures] == ["two"]
        assert failures[0].kind is FailureKind.NOT_FOUND
        assert failures[0].detail
        assert len(successes) + len(failures) == len(refs)
        assert successes[0][1].contributors == 2

    def test_empty_input(self):
        client, _, _ = make_client(lambda url, params: FakeResponse(json_body={}))
        assert client.enrich([]) == ([], [])

    def test_negative_count_is_one_malformed_failure(self):
        repos = {
            "a/one": {"stars": -1, "forks": 0, "open_issues": 0, "contributors": 1},
            "b/two": {"stars": 5, "forks": 1, "open_issues": 4, "contributors": 3},
        }
        client, _, _ = make_client(self._multi_handler(repos))
        successes, failures = client.enrich([make_ref("a", "one"), make_ref("b", "two")])
        assert [r.name for r, _ in successes] == ["two"]
        assert [(f.repo.name, f.kind) for f in failures] == [
            ("one", FailureKind.MALFORMED_RESPONSE)]

    @pytest.mark.parametrize("stars", ["12", 12.7, True])
    def test_non_integer_count_is_one_malformed_failure(self, stars):
        repos = {
            "a/one": {"stars": stars, "forks": 0, "open_issues": 0, "contributors": 1},
            "b/two": {"stars": 5, "forks": 1, "open_issues": 4, "contributors": 3},
        }
        client, _, _ = make_client(self._multi_handler(repos))
        successes, failures = client.enrich([make_ref("a", "one"), make_ref("b", "two")])
        assert [(r.name, m.stars) for r, m in successes] == [("two", 5)]
        assert [(f.repo.name, f.kind) for f in failures] == [
            ("one", FailureKind.MALFORMED_RESPONSE)]
        assert "stars must be an integer" in failures[0].detail


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
        successes, failures = client.enrich([make_ref("a", "b")], {("a", "b"): stored})
        assert failures == []
        assert successes == [(make_ref("a", "b"), replace(stored, fetched_at=self.FETCHED))]
        assert [url for _, url, _ in session.calls] == [f"{BASE}/repos/a/b"]
        assert session.headers[0]["If-None-Match"] == self.ETAG

    def test_not_modified_on_the_rename_hop(self):
        def handler(url, params):
            if url == f"{BASE}/repos/a/b":
                return FakeResponse(status_code=301,
                                    headers={"Location": f"{BASE}/repositories/7"})
            return FakeResponse(status_code=304)

        client, session, _ = self._client(handler)
        stored = self._stored()
        successes, failures = client.enrich([make_ref("a", "b")], {("a", "b"): stored})
        assert failures == []
        assert successes[0][1] == replace(stored, fetched_at=self.FETCHED)
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
        successes, failures = client.enrich([make_ref("a", "b")], {("a", "b"): self._stored()})
        assert failures == []
        _, metrics = successes[0]
        assert (metrics.stars, metrics.contributors, metrics.etag) == (10, 2, 'W/"new"')
        assert metrics.fetched_at == self.FETCHED
        assert len(session.calls) == 2
        assert session.headers[0]["If-None-Match"] == self.ETAG
        assert "If-None-Match" not in session.headers[1]

    def test_no_validator_without_a_stored_etag(self):
        handler = PagedHandler("a/b", [3])
        client, session, _ = self._client(handler)
        stored = replace(self._stored(), etag=None)
        successes, _ = client.enrich([make_ref("a", "b")], {("a", "b"): stored})
        assert successes[0][1].contributors == 3
        assert all("If-None-Match" not in h for h in session.headers)

    def test_include_anonymous_neither_sends_nor_keeps_an_etag(self):
        # the stored count may have been made without anonymous contributors
        def handler(url, params):
            if url.endswith("/contributors"):
                return FakeResponse(json_body=[{"login": "u0"}])
            return FakeResponse(json_body=repo_body("a/b"), headers={"ETag": 'W/"new"'})

        client, session, _ = self._client(handler, include_anonymous=True)
        successes, _ = client.enrich([make_ref("a", "b")], {("a", "b"): self._stored()})
        assert successes[0][1].contributors == 1
        assert successes[0][1].etag is None
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

    def test_anonymous_interval_without_token(self):
        assert self._gap(None) == pytest.approx(ANONYMOUS_MIN_INTERVAL)

    def test_authenticated_interval_with_token(self):
        assert self._gap("tok") == pytest.approx(AUTHENTICATED_MIN_INTERVAL)

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
        handler = PagedHandler("a/b", [100, 3])
        clock = FakeClock()
        client, session, clock = make_client(
            handler, clock=clock, policy=ThrottlePolicy(min_interval=0.5)
        )
        client.fetch_repo(make_ref("a", "b"))
        client.count_contributors(make_ref("a", "b"))
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
