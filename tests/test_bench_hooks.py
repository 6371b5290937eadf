"""The benchmark's tracer wraps program functions by name: the names it
patches on repoharvest.cli must exist, restoring must put the originals
back, and its hooks must still read what the program returns."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest
import requests

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from conftest import FakeClock, FakeResponse, FakeSession, make_ref  # noqa: E402
from repoharvest import cli  # noqa: E402
from repoharvest.arxiv import ArxivClient  # noqa: E402
from repoharvest.github import GitHubClient  # noqa: E402
from repoharvest.links import LinkError  # noqa: E402

HOOKED = {
    "execute_pipeline", "load_records", "diff", "save_records", "export_table",
    "export_report", "extract_urls", "clean_url", "canonicalize", "dedupe", "classify",
}


def test_tracer_patches_the_cli_names_and_restores_them():
    before = dict(vars(cli))
    with requests.Session() as feed, requests.Session() as api:
        arxiv_client = ArxivClient(session=feed)
        github_client = GitHubClient(token="t", session=api)
        tracer = Tracer()
        workloads.install_tracing(tracer, arxiv_client, github_client, feed, api)
        try:
            patched = {name for name, value in vars(cli).items()
                       if before.get(name) is not value}
        finally:
            tracer.restore()
    assert patched == HOOKED
    assert vars(cli) == before


def test_hooks_count_what_the_program_returns():
    def api(url, params):
        if "/repos/gone/" in url:
            return FakeResponse(status_code=404, json_body={"message": "Not Found"})
        if url.endswith("/contributors"):
            return FakeResponse(json_body=[{"login": "u0"}])
        return FakeResponse(json_body={
            "full_name": "demo/alpha", "name": "alpha", "description": None,
            "stargazers_count": 1, "forks_count": 0, "open_issues_count": 0,
        })

    clock = FakeClock()
    feed_session = FakeSession(lambda url, params: FakeResponse(), clock=clock)
    api_session = FakeSession(api, clock=clock)
    arxiv_client = ArxivClient(session=feed_session, clock=clock, sleep=clock.sleep)
    github_client = GitHubClient(token="t", session=api_session, clock=clock,
                                 sleep=clock.sleep)
    tracer = Tracer()
    workloads.install_tracing(tracer, arxiv_client, github_client, feed_session, api_session)
    try:
        github_client.enrich([make_ref("demo", "alpha"), make_ref("gone", "away")])
        with pytest.raises(LinkError):
            cli.canonicalize("https://github.com/onlyowner", "p")
    finally:
        tracer.restore()
    assert tracer.counts["github.failures.not_found"] == 1
    assert tracer.counts["github.status.404"] == 1
    assert tracer.counts["links.rejected"] == 1
