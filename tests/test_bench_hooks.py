"""The benchmark's tracer wraps program functions by name: the names it
patches on repoharvest.cli must exist, restoring must put the originals
back, and its hooks must still read what the program returns."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest
import requests

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

from conftest import (FakeClock, FakeResponse, FakeSession, atom_entry, atom_feed,  # noqa: E402
                      make_ref)
from repoharvest import cli  # noqa: E402
from repoharvest.arxiv import ArxivClient  # noqa: E402
from repoharvest.github import GitHubClient, ThrottlePolicy  # noqa: E402
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
    """The enrich hook counts each failure enrich returns at index 1,
    including one returned with its snapshot: demo/flaky's contributors
    request answers 500 past its retries after a good /repos answer."""
    def api(url, params):
        if "/repos/gone/" in url:
            return FakeResponse(status_code=404, json_body={"message": "Not Found"})
        if url.endswith("/flaky/contributors"):
            return FakeResponse(status_code=500, text="boom")
        if url.endswith("/contributors"):
            return FakeResponse(json_body=[{"login": "u0"}])
        name = url.rsplit("/", 1)[1]
        return FakeResponse(json_body={
            "full_name": f"demo/{name}", "name": name, "description": None,
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
        outcomes = [github_client.enrich(make_ref(*slug.split("/")))
                    for slug in ("demo/alpha", "gone/away", "demo/flaky")]
        with pytest.raises(LinkError):
            cli.canonicalize("https://github.com/onlyowner")
    finally:
        tracer.restore()
    assert [snapshot is not None for snapshot, _ in outcomes] == [True, False, True]
    assert tracer.counts["github.failures.not_found"] == 1
    assert tracer.counts["github.failures.transport"] == 1
    assert tracer.counts["github.status.404"] == 1
    assert tracer.counts["links.rejected"] == 1


def _clients(stars: dict[str, int], abstracts: list[str] | None = None):
    """An arXiv client whose feed has one paper for each of ``abstracts``,
    by default one linking each slug of ``stars``, and a GitHub client that
    knows those repositories with those stars, each followed by its
    session; ``stars`` is read at each request."""
    def api(url, params):
        slug = "/".join(url.split("/")[4:6])
        if slug not in stars:
            return FakeResponse(status_code=404, json_body={"message": "Not Found"})
        if url.endswith("/contributors"):
            return FakeResponse(json_body=[{"login": "u0"}])
        return FakeResponse(json_body={
            "full_name": slug, "name": slug.split("/")[1], "description": None,
            "stargazers_count": stars[slug], "forks_count": 0, "open_issues_count": 0,
        })

    if abstracts is None:
        abstracts = [f"https://github.com/{slug}" for slug in stars]
    entries = [atom_entry(f"2101.0000{k}", abstract=text) for k, text in enumerate(abstracts)]
    page = FakeResponse(text=atom_feed(entries, total=len(entries)))
    clock = FakeClock()
    feed = FakeSession(lambda url, params: page, clock=clock)
    api_session = FakeSession(api, clock=clock)
    return (ArxivClient(base_url="http://feed.test/q", delay=0.0, session=feed,
                        clock=clock, sleep=clock.sleep),
            GitHubClient(base_url="http://gh.test", policy=ThrottlePolicy(min_interval=0.0),
                         session=api_session, clock=clock, sleep=clock.sleep),
            feed, api_session)


def test_run_and_monitor_write_to_out_only_with_write_and_flush(tmp_path):
    """The benchmark's ``out`` stream has only ``write`` and ``flush``, so
    any other call on ``out`` fails here. A run stores two repositories; a
    monitor then finds one new, one updated and one unchanged."""
    stars = {"demo/alpha": 1, "demo/beta": 2}
    args = cli.build_parser().parse_args(["run", "--out-dir", str(tmp_path)])
    out = workloads.TimedStream()
    assert cli.cmd_run(cli.resolve_config(args), *_clients(stars)[:2], out=out) == 0
    assert out.first_report is not None
    stars.update({"demo/beta": 3, "demo/gamma": 4})
    out = workloads.TimedStream()
    assert cli.cmd_monitor(cli.resolve_config(args), None, *_clients(stars)[:2], out=out) == 0
    assert out.getvalue().split("\n\nAdded", 1)[1] == (
        " (1):\n  https://github.com/demo/gamma\n"
        "Updated (1):\n  https://github.com/demo/beta: stars 2 -> 3\n"
        "Unchanged (1):\n  https://github.com/demo/alpha\n")


def _traced_run(tmp_path, clients) -> tuple[str, dict]:
    """What a traced ``cmd_run`` over ``_clients``' four values prints, and
    the layer metrics its tracer read."""
    arxiv_client, github_client, _, _ = clients
    args = cli.build_parser().parse_args(["run", "--out-dir", str(tmp_path)])
    out = workloads.TimedStream()
    tracer = Tracer()
    workloads.install_tracing(tracer, *clients)
    try:
        assert cli.cmd_run(cli.resolve_config(args), arxiv_client, github_client, out=out) == 0
    finally:
        tracer.restore()
    return out.getvalue(), layer_metrics(tracer)


def test_a_traced_run_counts_one_grading_for_each_report_line(tmp_path):
    """The benchmark's maturity.calls counts the calls of ``cli.classify``:
    a run that grades its report lines anywhere else would read 0 there."""
    printed, metrics = _traced_run(
        tmp_path, _clients({"demo/low": 1, "demo/medium": 50, "demo/high": 500}))
    reported = [line for line in printed.split("\n") if line.startswith("The project ")]
    assert len(reported) == 3
    assert metrics["maturity.calls"] == len(reported)


def test_a_traced_run_counts_each_url_mined_and_each_name_found(tmp_path):
    """The benchmark's links.hits counts the URLs mined and links.unique the
    list ``cli.dedupe`` returns: one repository given in two casings, more
    than once, is found once, and a profile URL is mined but names none."""
    abstracts = ["https://github.com/demo/alpha and https://github.com/Demo/Alpha",
                 "https://github.com/DEMO/ALPHA, https://github.com/demo and "
                 "https://github.com/demo/beta"]
    printed, metrics = _traced_run(
        tmp_path, _clients({"demo/alpha": 1, "demo/beta": 2}, abstracts))
    [found] = [line for line in printed.split("\n") if line.startswith("Found GitHub URLs: ")]
    urls = ast.literal_eval(found.removeprefix("Found GitHub URLs: "))
    assert urls == ["https://github.com/demo/alpha", "https://github.com/demo/beta"]
    assert (metrics["links.hits"], metrics["links.rejected"]) == (5, 1)
    assert metrics["links.unique"] == len(urls)
