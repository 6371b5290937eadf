"""Tests of the benchmark's loopback fakes and seeded inputs.

Run from the repository root: python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest
import requests

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
from fakes import ArxivFeedFake, GitHubApiFake, LoopbackServer  # noqa: E402

TOKEN = {"Authorization": "Bearer t"}


def _repo(contributors=250, stars=10, **kw) -> inputs.Repo:
    return inputs.Repo(repo_id=7, owner="Octo", name="Spoon", description=None, stars=stars,
                       forks=1, open_issues=2, contributors=contributors, **kw)


@pytest.fixture
def serve():
    servers, sessions = [], []

    def start(app):
        server = LoopbackServer(app)
        servers.append(server)
        if isinstance(app, GitHubApiFake):
            app.base_url = server.url
            app.prerender()
        app.arm()
        session = requests.Session()
        sessions.append(session)
        return server.url, session

    yield start
    for session in sessions:
        session.close()
    for server in servers:
        server.close()


def _links(header: str) -> dict[str, str]:
    out = {}
    for part in header.split(","):
        url, rel = part.split(";")
        out[rel.strip()[len('rel="'):-1]] = url.strip()[1:-1]
    return out


def test_last_link_names_the_final_page(serve):
    api = GitHubApiFake([_repo(contributors=250)])
    base, s = serve(api)
    url = f"{base}/repos/octo/spoon/contributors"
    first = s.get(url, params={"per_page": 100}, headers=TOKEN)
    links = _links(first.headers["Link"])
    assert len(first.json()) == 100
    assert links["next"].endswith("per_page=100&page=2")
    assert links["last"].endswith("per_page=100&page=3")
    last = s.get(links["last"], headers=TOKEN)
    assert len(last.json()) == 50
    assert set(_links(last.headers["Link"])) == {"prev", "first"}
    one = s.get(url, params={"per_page": 1}, headers=TOKEN)
    assert _links(one.headers["Link"])["last"].endswith("per_page=1&page=250")
    default = s.get(url, headers=TOKEN)
    assert len(default.json()) == 30


def test_anon_includes_anonymous_contributors(serve):
    base, s = serve(GitHubApiFake([_repo(contributors=3, anonymous=2)]))
    url = f"{base}/repos/octo/spoon/contributors"
    assert len(s.get(url, headers=TOKEN).json()) == 3
    assert len(s.get(url, params={"anon": "1"}, headers=TOKEN).json()) == 5


def test_no_contributors_answers_204(serve):
    base, s = serve(GitHubApiFake([_repo(contributors=0)]))
    response = s.get(f"{base}/repos/octo/spoon/contributors", headers=TOKEN)
    assert response.status_code == 204 and response.content == b""


def test_matching_etag_answers_304_until_the_repo_changes(serve):
    api = GitHubApiFake([_repo()])
    base, s = serve(api)
    url = f"{base}/repos/octo/spoon"
    first = s.get(url, headers=TOKEN)
    etag = first.headers["ETag"]
    assert first.status_code == 200 and first.json()["stargazers_count"] == 10
    again = s.get(url, headers={**TOKEN, "If-None-Match": etag})
    assert again.status_code == 304 and again.content == b""
    api.put(_repo(stars=11))
    changed = s.get(url, headers={**TOKEN, "If-None-Match": etag})
    assert changed.status_code == 200 and changed.headers["ETag"] != etag


def test_quota_counts_every_request_but_an_authenticated_304(serve):
    api = GitHubApiFake([_repo()])
    base, s = serve(api)
    url = f"{base}/repos/octo/spoon"
    etag = s.get(url, headers=TOKEN).headers["ETag"]
    cached = s.get(url, headers={**TOKEN, "If-None-Match": etag})
    assert cached.status_code == 304
    assert cached.headers["X-RateLimit-Remaining"] == "4999"
    assert api.quota_units == 1
    s.get(url)
    anon = s.get(url, headers={"If-None-Match": etag})
    assert anon.status_code == 304
    assert anon.headers["X-RateLimit-Limit"] == "60"
    assert anon.headers["X-RateLimit-Remaining"] == "58"
    assert api.quota_units == 3
    missing = s.get(f"{base}/repos/octo/nothing", headers=TOKEN)
    assert missing.status_code == 404 and api.quota_units == 4
    for _ in range(58):
        s.get(url)
    refused = s.get(url)
    assert refused.status_code == 403
    assert refused.headers["X-RateLimit-Remaining"] == "0"
    assert int(refused.headers["X-RateLimit-Reset"]) > time.time()
    assert api.counters.requests == 64 and api.quota_units == 62


def test_faults_fire_once_per_arm(serve):
    api = GitHubApiFake([_repo()], renamed={("old", "name"): 7}, throttled=[("octo", "spoon")],
                        retry_after=0.25)
    base, s = serve(api)
    url = f"{base}/repos/octo/spoon"
    throttled = s.get(url, headers=TOKEN)
    assert throttled.status_code == 403 and throttled.headers["Retry-After"] == "0.25"
    assert s.get(url, headers=TOKEN).status_code == 200
    moved = s.get(f"{base}/repos/old/name/contributors?per_page=100", headers=TOKEN,
                  allow_redirects=False)
    assert moved.status_code == 301
    assert moved.headers["Location"] == f"{base}/repositories/7/contributors?per_page=100"
    assert s.get(moved.headers["Location"], headers=TOKEN).status_code == 200
    api.arm()
    assert s.get(url, headers=TOKEN).status_code == 403


def test_feed_pages_and_one_shot_503(serve):
    papers = inputs.harvest_corpus(1).papers[:25]
    feed = ArxivFeedFake(papers, failing_starts=[10])
    base, s = serve(feed)
    query = {"search_query": "all:x", "max_results": 10}
    assert s.get(base, params={**query, "start": 0}).text.count("<entry>") == 10
    assert s.get(base, params={**query, "start": 10}).status_code == 503
    page = s.get(base, params={**query, "start": 20})
    assert page.text.count("<entry>") == 5
    assert "<opensearch:totalResults>25<" in page.text
    assert s.get(base, params={"start": 0}).status_code == 400
    assert feed.counters.requests == 4


def test_latency_is_added_server_side(serve):
    api = GitHubApiFake([_repo()], latency=0.05)
    base, s = serve(api)
    s.get(f"{base}/repos/octo/spoon", headers=TOKEN)  # connect outside the timed call
    started = time.perf_counter()
    s.get(f"{base}/repos/octo/spoon", headers=TOKEN)
    assert time.perf_counter() - started >= 0.05
    api.latency = 0.0
    started = time.perf_counter()
    s.get(f"{base}/repos/octo/spoon", headers=TOKEN)
    assert time.perf_counter() - started < 0.05


def test_same_seed_gives_the_same_inputs(tmp_path):
    assert inputs.harvest_corpus(3) == inputs.harvest_corpus(3)
    assert inputs.harvest_corpus(3).papers != inputs.harvest_corpus(4).papers
    assert inputs.changed_repos(inputs.harvest_corpus(3), 3) == inputs.changed_repos(
        inputs.harvest_corpus(3), 3)
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    inputs.write_large_store(3, first)
    inputs.write_large_store(3, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_every_seed_has_the_same_shape(seed):
    harvest = inputs.harvest_corpus(seed)
    assert len(harvest.papers) == inputs.HARVEST_PAPERS
    assert len(harvest.ok) == 30 and len(harvest.missing) == 2
    assert sum(t.renamed for t in harvest.targets) == 1
    assert harvest.targets[0].repo is not None and not harvest.targets[0].renamed
    pages = sum(inputs.contributor_pages(t.repo.contributors) for t in harvest.ok)
    assert pages == 2 + 16 + 8 * 2 + 4 * 3
    changed = inputs.changed_repos(harvest, seed)
    by_identity = {t.identity(): t.repo for t in harvest.ok}
    assert len(changed) == inputs.HARVEST_CHANGED
    for identity, repo in changed.items():
        old = by_identity[identity]
        assert repo.counts() != old.counts()
        assert inputs.contributor_pages(repo.contributors) == inputs.contributor_pages(old.contributors)
