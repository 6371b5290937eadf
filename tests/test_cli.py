"""CLI behavior: flag resolution, the clients the CLI builds, pipeline
runs against scripted clients, monitor diffs, and a subprocess run over
local mock servers."""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import logging
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
import requests

import repoharvest
from repoharvest import cli

from conftest import (FakeClock, FakeResponse, FakeSession, assert_output_set_matches,
                      atom_entry, atom_feed, make_metrics, make_ref)
from calibration import REFERENCE_ROWS
from corpus import REPO_URLS, build_corpus
from mockservers import MockArxivApp, MockGitHubApp, MockServer
from repoharvest.arxiv import ArxivClient
from repoharvest.cli import (
    build_parser,
    cmd_monitor,
    cmd_run,
    execute_pipeline,
    main,
    resolve_config,
)
from repoharvest.github import GitHubClient, ThrottlePolicy
from repoharvest.kb import KnowledgeBase, load_records, save_records
from repoharvest.links import canonicalize
from repoharvest.throttle import LONG_WAIT, MAX_RETRIES

EXPECTED_LINES = [row.expected_line for row in REFERENCE_ROWS]


def reference_fixtures() -> dict[str, dict]:
    """slug -> counts for the 23 repositories the report covers."""
    fixtures = {}
    for url, row in zip(REPO_URLS, REFERENCE_ROWS):
        slug = "/".join(url.rsplit("/", 2)[-2:])
        assert slug.split("/")[1] == row.name
        fixtures[slug] = {
            "stars": row.metrics.stars,
            "forks": row.metrics.forks,
            "open_issues": row.metrics.open_issues,
            "contributors": row.metrics.contributors,
        }
    return fixtures


def parse_args(argv):
    return build_parser().parse_args(argv)


def subcommand(name: str) -> argparse.ArgumentParser:
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices[name]


def readme_flag_rows() -> list[tuple[str, str]]:
    """The Flag and Default cells of each row of README's Flags table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Flags", 1)[1].split("\n\n", 2)[1]
    return [tuple(cell.strip() for cell in line.split("|")[1:3])
            for line in table.splitlines()[2:]]


def config_for(tmp_path, *extra, command="run"):
    argv = [
        command,
        "--out-dir", str(tmp_path),
        *extra,
    ]
    return resolve_config(parse_args(argv))


def corpus_feed(papers):
    """Feed handler serving ``papers``, each (id, title, abstract) with an
    optional authors' comment after it, in start/max_results slices."""
    entries = [atom_entry(*paper[:3], comment="".join(paper[3:])) for paper in papers]

    def handler(url, params):
        start = params["start"]
        count = params["max_results"]
        body = atom_feed(entries[start:start + count], total=len(entries))
        return FakeResponse(text=body)

    return handler


def feed_client(handler):
    clock = FakeClock()
    session = FakeSession(handler, clock=clock)
    return ArxivClient(base_url="http://feed.test/q", delay=0.0, session=session,
                       clock=clock, sleep=clock.sleep)


def corpus_arxiv_client(papers):
    return feed_client(corpus_feed(papers))


def fixtures_handler(fixtures):
    def handler(url, params):
        parts = [p for p in url.split("/") if p]
        idx = parts.index("repos")
        slug = f"{parts[idx + 1]}/{parts[idx + 2]}"
        spec = fixtures.get(slug)
        if spec is None:
            return FakeResponse(status_code=404, json_body={"message": "Not Found"})
        if url.endswith("/contributors"):
            members = [{"login": f"u{k}"} for k in range(spec["contributors"])]
            return FakeResponse(json_body=members)
        owner, name = slug.split("/", 1)
        return FakeResponse(json_body={
            "full_name": slug,
            "name": name,
            "description": spec.get("description"),
            "stargazers_count": spec["stars"],
            "forks_count": spec["forks"],
            "open_issues_count": spec["open_issues"],
        })

    return handler


def renaming_old_to_new(handler, old="demo/old", new="demo/new"):
    """``handler``, except that /repos/<old> answers a rename to <new>."""
    def rename(url, params):
        if url.endswith(f"/repos/{old}"):
            return FakeResponse(status_code=301,
                                headers={"Location": f"http://gh.test/repos/{new}"})
        return handler(url, params)

    return rename


#: The first wall timestamp of a client github_client builds.
START = datetime(2024, 1, 1, tzinfo=timezone.utc)


def github_client(handler, session=None, start=START):
    """Client over ``handler`` (or ``session``) whose wall timestamps tick
    one second per observation from ``start``, keeping first-seen order
    identical to fetch order."""
    clock = FakeClock()
    ticks = itertools.count()

    def now():
        return start + timedelta(seconds=next(ticks))

    session = session or FakeSession(handler, clock=clock)
    return GitHubClient(base_url="http://gh.test",
                        policy=ThrottlePolicy(min_interval=0.0),
                        session=session, clock=clock, sleep=clock.sleep, now=now)


def fixtures_github_client(fixtures):
    return github_client(fixtures_handler(fixtures))


def conditional_github_client(fixtures, renamed=(), start=START):
    """Client over the fixtures whose /repos answers carry an ETag and turn
    into a 304 when the request's If-None-Match matches it; with
    ``renamed``, an (old, new) pair of slugs, /repos/<old> answers a rename
    to <new>. Wall timestamps tick from ``start``."""
    plain = fixtures_handler(fixtures)

    def handler(url, params):
        response = plain(url, params)
        if url.endswith("/contributors") or response.status_code != 200:
            return response
        etag = f'"{hashlib.sha1(response.content).hexdigest()}"'
        if session.headers[-1].get("If-None-Match") == etag:
            return FakeResponse(status_code=304, headers={"ETag": etag})
        response.headers["ETag"] = etag
        return response

    session = FakeSession(renaming_old_to_new(handler, *renamed) if renamed else handler)
    return github_client(None, session=session, start=start), session


def recorded(handler, sent):
    """``handler``, first appending each request's URL and params to ``sent``."""
    def record(url, params):
        sent.append((url, params))
        return handler(url, params)

    return record


def run_pipeline(tmp_path, papers, fixtures):
    cfg = config_for(tmp_path)
    out = io.StringIO()
    kb = KnowledgeBase()
    status = execute_pipeline(
        cfg, kb,
        arxiv_client=corpus_arxiv_client(papers),
        github_client=fixtures_github_client(fixtures),
        out=out,
    )
    return status, kb, out.getvalue()


def report_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines()
            if line.startswith("The project ")]


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


class TestPipelineAgainstReferenceCorpus:
    def test_full_run_reproduces_reference_output(self, tmp_path, corpus, caplog):
        papers, expected_urls = corpus
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            status, kb, stdout = run_pipeline(tmp_path, papers, reference_fixtures())
        assert status == 0
        assert "Paper 1000/1000" in stdout
        assert f"Found GitHub URLs: {expected_urls}" in stdout
        assert report_lines(stdout) == EXPECTED_LINES
        assert len(kb) == 23
        # the eight repositories with no fixture fail loudly but non-fatally
        missing = [record for record in caplog.records
                   if "not_found" in record.getMessage()]
        assert len(missing) == 8

    def test_progress_counter_caps_at_max_results(self, tmp_path, corpus):
        papers, _ = corpus
        cfg = config_for(tmp_path, "--max-results", "40", "--page-size", "20")
        out = io.StringIO()
        status = execute_pipeline(
            cfg, KnowledgeBase(),
            arxiv_client=corpus_arxiv_client(papers),
            github_client=fixtures_github_client({}),
            out=out,
        )
        assert status == 0
        assert "Paper 40/40" in out.getvalue()
        assert "Paper 41/" not in out.getvalue()

    def test_progress_counter_never_reads_below_the_papers_processed(self, tmp_path):
        entries = [atom_entry(f"2101.{i:05d}", f"title {i}") for i in range(10)]

        def shrinking(url, params):  # totalResults drops from 10 to 5 after one page
            start = params["start"]
            return FakeResponse(text=atom_feed(entries[start:start + 5],
                                               total=10 if start == 0 else 5))

        out = io.StringIO()
        status = execute_pipeline(config_for(tmp_path, "--page-size", "5"), KnowledgeBase(),
                                  arxiv_client=feed_client(shrinking),
                                  github_client=fixtures_github_client({}), out=out)
        assert status == 0
        counters = [(int(done), int(total))
                    for done, total in re.findall(r"Paper (\d+)/(\d+)", out.getvalue())]
        assert [done for done, _ in counters] == list(range(1, 11))
        assert all(done <= total for done, total in counters), counters


class TestRunCommand:
    def test_writes_all_three_outputs(self, tmp_path):
        papers, _ = build_corpus(n_papers=200)
        # only URLs mentioned within the first 200 papers are discoverable
        cfg = config_for(tmp_path)
        status = cmd_run(
            cfg,
            arxiv_client=corpus_arxiv_client(papers),
            github_client=fixtures_github_client(reference_fixtures()),
            out=io.StringIO(),
        )
        assert status == 0
        kb = load_records(tmp_path / "kb.jsonl")
        assert (tmp_path / "kb.csv").exists()
        assert (tmp_path / "report.txt").exists()
        report = (tmp_path / "report.txt").read_text()
        assert report.count("\n") == len(kb)

    def test_zero_papers(self, tmp_path):
        status, kb, stdout = run_pipeline(tmp_path, [], {})
        assert status == 0
        assert "Paper 0/0" in stdout
        assert "Found GitHub URLs: []" in stdout
        assert len(kb) == 0

    def test_an_empty_feed_that_promised_papers_shows_the_promise(self, tmp_path, caplog):
        """The progress line agrees with the warning beside it: the feed
        promised five papers and sent none."""
        feed = feed_client(lambda url, params: FakeResponse(text=atom_feed([], total=5)))
        out = io.StringIO()
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            status = cmd_run(config_for(tmp_path), arxiv_client=feed,
                             github_client=fixtures_github_client({}), out=out)
        assert status == 0
        assert out.getvalue().startswith("Processing arXiv papers:\nPaper 0/5\n\n")
        assert [r.getMessage() for r in caplog.records] == [
            "the feed ended after 0 of 5 papers"]

    def test_report_file_matches_reference_order(self, tmp_path):
        papers, _ = build_corpus()
        cfg = config_for(tmp_path)
        status = cmd_run(
            cfg,
            arxiv_client=corpus_arxiv_client(papers),
            github_client=fixtures_github_client(reference_fixtures()),
            out=io.StringIO(),
        )
        assert status == 0
        content = (tmp_path / "report.txt").read_text()
        assert content == "".join(line + "\n" for line in EXPECTED_LINES)

    def test_runs_are_deterministic(self, tmp_path):
        papers, _ = build_corpus()
        for name in ("one", "two"):
            cfg = config_for(tmp_path / name)
            cmd_run(
                cfg,
                arxiv_client=corpus_arxiv_client(papers),
                github_client=fixtures_github_client(reference_fixtures()),
                out=io.StringIO(),
            )
        assert ((tmp_path / "one" / "kb.jsonl").read_bytes()
                == (tmp_path / "two" / "kb.jsonl").read_bytes())
        assert ((tmp_path / "one" / "kb.csv").read_bytes()
                == (tmp_path / "two" / "kb.csv").read_bytes())

    def test_two_missing_repos_yield_failures_not_abort(self, tmp_path, caplog):
        papers = [
            (f"21{i:02d}.0{i:04d}", f"title {i}", f"code at {url}.")
            for i, url in enumerate(REPO_URLS[:23])
        ]
        fixtures = reference_fixtures()
        dropped = ["ShixiangWang/ezcox", "nadeemLab/CIR"]
        for slug in dropped:
            del fixtures[slug]
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            status, kb, stdout = run_pipeline(tmp_path, papers, fixtures)
        assert status == 0
        assert report_lines(stdout) == [
            line for url, line in zip(REPO_URLS, EXPECTED_LINES)
            if not url.endswith(tuple(dropped))]
        assert len(kb) == 21
        warned = [r.getMessage() for r in caplog.records
                  if "GitHub fetch failed" in r.getMessage()]
        assert [message.split(":")[0] for message in warned] == [
            f"GitHub fetch failed for {slug}" for slug in dropped]

    def test_an_unparseable_rename_location_fails_only_its_repository(self, tmp_path, caplog):
        papers = [("2101.00001", "broken", "Code: https://github.com/demo/broken."),
                  ("2101.00002", "alpha", "Code: https://github.com/demo/alpha.")]
        plain = fixtures_handler(
            {"demo/alpha": {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}})

        def handler(url, params):
            if url.endswith("/repos/demo/broken"):
                return FakeResponse(status_code=301, headers={"Location": "http://[::1/repos/x/y"})
            return plain(url, params)

        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            status = cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client(papers),
                             github_client=github_client(handler), out=io.StringIO())
        assert status == 0
        assert [entry.ref.canonical_url for entry in load_records(tmp_path / "kb.jsonl")] == [
            "https://github.com/demo/alpha"]
        assert [r.getMessage() for r in caplog.records] == [
            "GitHub fetch failed for demo/broken: malformed_response (unparseable Location "
            "'http://[::1/repos/x/y' for http://gh.test/repos/demo/broken: Invalid IPv6 URL)"]

    def test_a_spent_quota_ends_the_github_requests_and_keeps_what_was_enriched(
            self, tmp_path, caplog):
        """Past the server's budget every answer is a spent quota's 403 with
        its reset an hour ahead: the run sends nothing more, waits for no
        reset, logs each repository left once, in first-mention order, and
        exits 0 with what it enriched before, gamma's /repos snapshot too."""
        slugs = ["alpha", "beta", "gamma", "delta", "gamma", "epsilon"]
        papers = [(f"2101.0000{i}", slug, f"Code: https://github.com/demo/{slug}.")
                  for i, slug in enumerate(slugs)]
        app = MockGitHubApp({
            "demo/alpha": {"stars": 150, "forks": 3, "open_issues": 1, "contributors": 205},
            "demo/beta": {"stars": 31, "forks": 0, "open_issues": 0, "contributors": 1},
            **{f"demo/{slug}": {"stars": 1, "forks": 0, "open_issues": 0, "contributors": 1}
               for slug in ("gamma", "delta", "epsilon")},
        })
        app.budget = 5  # alpha and beta, then gamma's /repos; its contributors are refused
        clock = FakeClock()
        with MockServer(app) as gh, requests.Session() as session, \
                caplog.at_level(logging.WARNING, logger="repoharvest"):
            # anonymous, so at the 100 ms default pacing, on a fake clock
            gh_client = GitHubClient(base_url=gh.base_url, session=session,
                                     clock=clock, sleep=clock.sleep)
            status = cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client(papers),
                             github_client=gh_client, out=io.StringIO())
        assert status == 0
        lines = [
            "The project 'alpha' has a maturity level of High. It has 150 stars, 3 forks, "
            "1 open issues, and 205 contributors.",
            "The project 'beta' has a maturity level of Medium. It has 31 stars, 0 forks, "
            "0 open issues, and 1 contributors.",
            "The project 'gamma' has a maturity level of Low. It has 1 stars, 0 forks, "
            "0 open issues, and 0 contributors.",
        ]
        stored = load_records(tmp_path / "kb.jsonl")
        assert [entry.ref.canonical_url for entry in stored] == [
            "https://github.com/demo/alpha", "https://github.com/demo/beta",
            "https://github.com/demo/gamma"]
        assert [entry.latest.contributors for entry in stored] == [205, 1, None]
        assert (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines() == lines
        assert app.requests == ["/repos/demo/alpha", "/repos/demo/alpha/contributors",
                                "/repos/demo/beta", "/repos/demo/beta/contributors",
                                "/repos/demo/gamma", "/repos/demo/gamma/contributors"]
        spent = f"quota spent: HTTP 403 for {gh.base_url}/repos/demo/gamma/contributors"
        assert [r.getMessage() for r in caplog.records] == [
            f"GitHub fetch failed for demo/gamma: rate_limited ({spent}); "
            "its snapshot was kept",
            f"GitHub fetch failed for demo/delta: rate_limited "
            f"({spent}; {gh.base_url}/repos/demo/delta not sent)",
            f"GitHub fetch failed for demo/epsilon: rate_limited "
            f"({spent}; {gh.base_url}/repos/demo/epsilon not sent)",
        ]
        assert clock.sleeps and max(clock.sleeps) < LONG_WAIT

    def test_skipped_link_is_logged_at_info(self, tmp_path, caplog):
        papers = [("2101.00001", "title", "see https://github.com/onlyowner and "
                   "https://github.com/ncbi-nlp/BioSentVec.")]
        fixtures = {"ncbi-nlp/BioSentVec": {"stars": 546, "forks": 93,
                                            "open_issues": 13, "contributors": 4}}
        with caplog.at_level(logging.INFO, logger="repoharvest"):
            status, kb, _ = run_pipeline(tmp_path, papers, fixtures)
        assert status == 0 and len(kb) == 1
        skipped = [r for r in caplog.records if r.getMessage().startswith("skipping ")]
        assert [(r.levelno, r.getMessage()) for r in skipped] == [(
            logging.INFO,
            "skipping https://github.com/onlyowner: "
            "no owner/name path in 'https://github.com/onlyowner'",
        )]

    def test_an_entry_with_a_bad_published_date_is_harvested(self, tmp_path):
        feed = atom_feed([atom_entry("2101.00001", "title",
                                     "code at https://github.com/ncbi-nlp/BioSentVec.",
                                     published="not-a-date")], total=1)
        fixtures = {"ncbi-nlp/BioSentVec": {"stars": 546, "forks": 93,
                                            "open_issues": 13, "contributors": 4}}
        out = io.StringIO()
        status = cmd_run(config_for(tmp_path),
                         arxiv_client=feed_client(lambda url, params: FakeResponse(text=feed)),
                         github_client=fixtures_github_client(fixtures), out=out)
        assert status == 0
        assert "Found GitHub URLs: ['https://github.com/ncbi-nlp/BioSentVec']" in out.getvalue()
        assert [entry.ref.canonical_url for entry in load_records(tmp_path / "kb.jsonl")] == [
            "https://github.com/ncbi-nlp/BioSentVec"]

    def test_unwritable_out_dir_exits_1_without_traceback(self, tmp_path, caplog):
        (tmp_path / "file").write_text("")
        papers = [("2101.00001", "alpha", "Code: https://github.com/demo/alpha.")]
        fixtures = {"demo/alpha": {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}}
        out = io.StringIO()
        with caplog.at_level(logging.ERROR, logger="repoharvest"):
            status = cmd_run(config_for(tmp_path / "file" / "sub"),
                             arxiv_client=corpus_arxiv_client(papers),
                             github_client=fixtures_github_client(fixtures), out=out)
        assert status == 1
        assert len(report_lines(out.getvalue())) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].startswith(f"cannot write outputs to {tmp_path / 'file' / 'sub'}: ")

    def test_a_missing_nested_out_dir_is_created_with_only_the_outputs(self, tmp_path):
        out_dir = tmp_path / "a" / "b"
        papers = [("2101.00001", "alpha", "Code: https://github.com/demo/alpha.")]
        fixtures = {"demo/alpha": {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}}
        status = cmd_run(config_for(out_dir), arxiv_client=corpus_arxiv_client(papers),
                         github_client=fixtures_github_client(fixtures), out=io.StringIO())
        assert status == 0
        assert sorted(path.name for path in out_dir.iterdir()) == [
            "kb.csv", "kb.jsonl", "report.txt"]

    def test_the_staged_files_a_killed_run_left_are_removed(self, tmp_path):
        """A killed run never reaches its own cleanup; the next write sweeps
        every staged output name, whatever its pid, and nothing else."""
        left = ["kb.jsonl.staged.99999", "kb.csv.staged.1", "report.txt.staged.99999"]
        for name in [*left, "kb.jsonl.bak"]:
            (tmp_path / name).write_text("partial")
        papers = [("2101.00001", "alpha", "Code: https://github.com/demo/alpha.")]
        fixtures = {"demo/alpha": {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}}
        assert cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client(papers),
                       github_client=fixtures_github_client(fixtures), out=io.StringIO()) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "kb.csv", "kb.jsonl", "kb.jsonl.bak", "report.txt"]

    def test_outputs_are_synced_then_each_renamed_once_records_last(self, tmp_path,
                                                                    monkeypatch):
        calls = []  # ("fsync", inode synced) and ("replace", destination name), in order
        fsync, rename = os.fsync, os.replace

        def recorded_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def recorded_replace(src, dst):
            calls.append(("replace", Path(dst).name))
            rename(src, dst)

        monkeypatch.setattr(os, "fsync", recorded_fsync)
        monkeypatch.setattr(os, "replace", recorded_replace)
        papers, _ = build_corpus(n_papers=50)
        assert cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client(papers),
                       github_client=fixtures_github_client(reference_fixtures()),
                       out=io.StringIO()) == 0
        names = ["kb.csv", "report.txt", "kb.jsonl"]
        assert calls == ([("fsync", (tmp_path / name).stat().st_ino) for name in names]
                         + [("replace", name) for name in names]
                         + [("fsync", tmp_path.stat().st_ino)])

    @pytest.mark.parametrize("total,extra,warned", [
        (10, (), ["the feed ended after 3 of 10 papers"]),
        (3, (), []),
        (10, ("--max-results", "3"), []),
        (10, ("--page-size", "3"), ["the feed ended after 3 of 10 papers"]),
    ], ids=["short-first-page", "whole-feed", "capped", "repeated-full-page"])
    def test_a_feed_that_ends_early_is_warned_about(self, tmp_path, caplog, total, extra,
                                                    warned):
        entries = [atom_entry(f"2101.0000{i}", f"title {i}") for i in range(3)]
        starts = []

        def same_page(url, params):  # ignores start
            starts.append(params["start"])
            assert len(starts) <= 5, "paging forever"
            return FakeResponse(text=atom_feed(entries, total=total))

        feed = feed_client(same_page)
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            status = cmd_run(config_for(tmp_path, *extra), arxiv_client=feed,
                             github_client=fixtures_github_client({}), out=io.StringIO())
        assert status == 0
        assert [r.getMessage() for r in caplog.records] == warned

    def test_a_page_that_stays_short_is_asked_for_a_bounded_number_of_times(self, tmp_path,
                                                                           caplog):
        """Page 2 is always short of the total of 15: it is asked for
        1 + MAX_RETRIES times, and then the feed is taken to have ended."""
        entries = [atom_entry(f"2101.{i:05d}", f"title {i}") for i in range(15)]
        starts = []

        def short_page_two(url, params):
            start = params["start"]
            starts.append(start)
            count = params["max_results"] if start == 0 else 3
            return FakeResponse(text=atom_feed(entries[start:start + count], total=15))

        feed = feed_client(short_page_two)
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            status = cmd_run(config_for(tmp_path, "--page-size", "5"), arxiv_client=feed,
                             github_client=fixtures_github_client({}), out=io.StringIO())
        assert status == 0
        assert starts == [0] + [5] * (1 + MAX_RETRIES)
        assert [r.getMessage() for r in caplog.records] == [
            "the feed ended after 8 of 15 papers"]

    def test_feed_failure_is_fatal_and_writes_nothing(self, tmp_path, caplog):
        clock = FakeClock()
        session = FakeSession(
            lambda url, params: FakeResponse(status_code=503, text="down"),
            clock=clock,
        )
        client = ArxivClient(base_url="http://feed.test/q", delay=0.0,
                             session=session, clock=clock, sleep=clock.sleep)
        cfg = config_for(tmp_path)
        with caplog.at_level(logging.ERROR, logger="repoharvest"):
            status = cmd_run(cfg, arxiv_client=client,
                             github_client=fixtures_github_client({}),
                             out=io.StringIO())
        assert status == 1
        assert not (tmp_path / "kb.jsonl").exists()
        assert any("paper retrieval failed" in r.getMessage()
                   for r in caplog.records)

    def test_a_feed_page_asking_past_an_hour_fails_the_run_unwaited(self, tmp_path, caplog):
        clock = FakeClock()
        session = FakeSession(lambda url, params: FakeResponse(
            status_code=503, text="down", headers={"Retry-After": "1e20"}), clock=clock)
        client = ArxivClient(base_url="http://feed.test/q", delay=0.0,
                             session=session, clock=clock, sleep=clock.sleep)
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            status = cmd_run(config_for(tmp_path), arxiv_client=client,
                             github_client=fixtures_github_client({}), out=io.StringIO())
        assert status == 1
        assert len(session.calls) == 1 and clock.sleeps == []
        assert [r.getMessage() for r in caplog.records] == [
            "paper retrieval failed: HTTP 503 from feed endpoint at start=0"]


#: Seconds a test waits on another thread before it fails.
HANDOFF_TIMEOUT = 10.0


class TestEnrichmentWorker:
    """Repositories go to one GitHub worker while the feed is still read."""

    def test_enrichment_starts_before_the_feed_ends(self, tmp_path, corpus):
        papers, expected_urls = corpus
        github_started = threading.Event()
        waited = []
        pages = corpus_feed(papers)

        def feed(url, params):
            if params["start"] + params["max_results"] >= len(papers):  # the last page
                waited.append(github_started.wait(HANDOFF_TIMEOUT))
            return pages(url, params)

        sent = []
        answer = recorded(fixtures_handler(reference_fixtures()), sent)

        def github(url, params):
            github_started.set()
            return answer(url, params)

        out = io.StringIO()
        status = execute_pipeline(config_for(tmp_path), KnowledgeBase(),
                                  arxiv_client=feed_client(feed),
                                  github_client=github_client(github), out=out)
        assert status == 0
        assert waited == [True], "no GitHub request went out before the last feed page"
        assert report_lines(out.getvalue()) == EXPECTED_LINES
        # one request at a time, in the order of the whole harvest's list
        sequential = []
        client = github_client(recorded(fixtures_handler(reference_fixtures()), sequential))
        for url in expected_urls:
            client.enrich(canonicalize(url))
        assert sent == sequential

    def test_report_lines_start_before_the_last_repository_is_done(self, tmp_path):
        """The last repository's snapshot request is held until the first
        report line is written."""
        papers = [
            ("2101.00001", "alpha", "Code: https://github.com/demo/alpha."),
            ("2101.00002", "beta", "Code: https://github.com/demo/beta."),
        ]
        counts = {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}
        answer = fixtures_handler({"demo/alpha": counts, "demo/beta": counts})
        reported = threading.Event()
        waited = []

        def github(url, params):
            if url.endswith("/repos/demo/beta"):
                waited.append(reported.wait(HANDOFF_TIMEOUT))
            return answer(url, params)

        class Out(io.StringIO):
            def write(self, text):
                if text.startswith("The project "):
                    reported.set()
                return super().write(text)

        out = Out()
        status = execute_pipeline(config_for(tmp_path), KnowledgeBase(),
                                  arxiv_client=corpus_arxiv_client(papers),
                                  github_client=github_client(github), out=out)
        assert status == 0
        assert waited == [True], "no report line was written before the last repository"
        assert [line.split(" has ")[0] for line in report_lines(out.getvalue())] == [
            "The project 'alpha'", "The project 'beta'"]

    def test_each_repository_keeps_every_paper_that_names_it(self, tmp_path):
        """Papers on page 1 and page 3 name the same two repositories, one
        of which GitHub answers with a rename."""
        papers = [
            ("2101.00001", "alpha", "Code: https://github.com/demo/alpha."),
            ("2101.00002", "old", "Code: https://github.com/demo/old."),
            ("2101.00003", "plain", "no code"),
            ("2101.00004", "plain", "no code"),
            ("2101.00005", "alpha again", "Reuses https://github.com/demo/alpha."),
            ("2101.00006", "old again", "Reuses https://github.com/demo/old."),
        ]
        counts = {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}
        github = renaming_old_to_new(fixtures_handler({"demo/alpha": counts, "demo/new": counts}))
        cfg = config_for(tmp_path, "--max-results", "6", "--page-size", "2")
        status = cmd_run(cfg, arxiv_client=corpus_arxiv_client(papers),
                         github_client=github_client(github), out=io.StringIO())
        assert status == 0
        expected = {
            "https://github.com/demo/alpha": ["2101.00001", "2101.00005"],
            "https://github.com/demo/new": ["2101.00002", "2101.00006"],
        }
        with open(tmp_path / "kb.jsonl", encoding="utf-8") as fh:
            stored = [json.loads(line) for line in fh]
        assert {r["canonical_url"]: r["source_papers"] for r in stored} == expected
        with open(tmp_path / "kb.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["canonical_url"]: r["source_papers"].split() for r in rows} == expected

    def test_papers_that_name_a_repository_in_any_casing_are_stored_with_it(self, tmp_path):
        """Papers are collected by the name's case-insensitive identity, and
        the entry keeps the first casing."""
        papers = [(f"2101.0000{i}", "t", f"Code: https://github.com/{slug}.")
                  for i, slug in enumerate(["Demo/Alpha", "demo/alpha", "DEMO/ALPHA"], 1)]
        counts = {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}
        sent = []
        github = recorded(fixtures_handler({"Demo/Alpha": counts}), sent)
        status = cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client(papers),
                         github_client=github_client(github), out=io.StringIO())
        assert status == 0
        assert [url for url, _ in sent] == ["http://gh.test/repos/Demo/Alpha",
                                            "http://gh.test/repos/Demo/Alpha/contributors"]
        with open(tmp_path / "kb.jsonl", encoding="utf-8") as fh:
            stored = [json.loads(line) for line in fh]
        assert [(r["owner"], r["name"], r["source_papers"]) for r in stored] == [
            ("Demo", "Alpha", ["2101.00001", "2101.00002", "2101.00003"])]

    def test_a_paper_revised_between_runs_is_stored_as_one_paper(self, tmp_path):
        counts = {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}
        for version in (1, 2):  # a run, then a monitor over its store
            papers = [(f"2101.00001v{version}", "t", "Code: https://github.com/demo/alpha."),
                      (f"hep-th/9901001v{version}", "t", "Code: https://github.com/demo/alpha.")]
            clients = (corpus_arxiv_client(papers),
                       github_client(fixtures_handler({"demo/alpha": counts})), io.StringIO())
            cfg = config_for(tmp_path)
            status = cmd_run(cfg, *clients) if version == 1 else cmd_monitor(cfg, None, *clients)
            assert status == 0
            with open(tmp_path / "kb.jsonl", encoding="utf-8") as fh:
                assert [json.loads(line)["source_papers"] for line in fh] == [
                    ["2101.00001", "hep-th/9901001"]]

    def test_a_repository_linked_only_in_the_comment_is_requested_and_stored(self, tmp_path):
        papers = [("2101.00001", "title", "no link here", "Code: https://github.com/demo/alpha")]
        counts = {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}
        sent = []
        github = recorded(fixtures_handler({"demo/alpha": counts}), sent)
        status = cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client(papers),
                         github_client=github_client(github), out=io.StringIO())
        assert status == 0
        assert sent == [("http://gh.test/repos/demo/alpha", None),
                        ("http://gh.test/repos/demo/alpha/contributors", {"per_page": 1})]
        with open(tmp_path / "kb.jsonl", encoding="utf-8") as fh:
            stored = [json.loads(line) for line in fh]
        assert [(r["canonical_url"], r["source_papers"]) for r in stored] == [
            ("https://github.com/demo/alpha", ["2101.00001"])]

    def test_a_repository_linked_in_the_abstract_and_the_comment_is_requested_once(
            self, tmp_path):
        papers = [("2101.00001", "title", "Code: https://github.com/demo/alpha.",
                   "Code: https://github.com/Demo/Alpha, 12 pages")]
        counts = {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}
        sent = []
        github = recorded(fixtures_handler({"demo/alpha": counts}), sent)
        out = io.StringIO()
        status = cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client(papers),
                         github_client=github_client(github), out=out)
        assert status == 0
        assert sent == [("http://gh.test/repos/demo/alpha", None),
                        ("http://gh.test/repos/demo/alpha/contributors", {"per_page": 1})]
        assert len(report_lines(out.getvalue())) == 1
        with open(tmp_path / "kb.jsonl", encoding="utf-8") as fh:
            stored = [json.loads(line) for line in fh]
        assert [(r["canonical_url"], r["source_papers"]) for r in stored] == [
            ("https://github.com/demo/alpha", ["2101.00001"])]

    def test_renamed_repository_named_under_both_names_is_stored_once(self, tmp_path):
        """One paper names demo/old, which GitHub renamed to demo/new; a
        second paper names demo/new, which is not requested again."""
        papers = [
            ("2101.00001", "old", "Code: https://github.com/demo/old."),
            ("2101.00002", "new", "Code: https://github.com/demo/new."),
        ]
        counts = {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}
        sent = []
        github = recorded(renaming_old_to_new(fixtures_handler({"demo/new": counts})), sent)
        out = io.StringIO()
        status = cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client(papers),
                         github_client=github_client(github), out=out)
        assert status == 0
        assert sent == [("http://gh.test/repos/demo/old", None),
                        ("http://gh.test/repos/demo/new", None),
                        ("http://gh.test/repos/demo/new/contributors", {"per_page": 1})]
        assert ("Found GitHub URLs: ['https://github.com/demo/old', "
                "'https://github.com/demo/new']") in out.getvalue()
        assert report_lines(out.getvalue()) == [
            "The project 'new' has a maturity level of Low. It has 5 stars, 1 forks, "
            "0 open issues, and 2 contributors."]
        with open(tmp_path / "kb.jsonl", encoding="utf-8") as fh:
            stored = [json.loads(line) for line in fh]
        assert [(r["canonical_url"], r["source_papers"], r["history"], r["aliases"])
                for r in stored] == [
            ("https://github.com/demo/new", ["2101.00001", "2101.00002"], [], ["demo/old"])]

    def test_a_snapshot_kept_under_the_old_name_answers_for_the_new_one(
            self, tmp_path, caplog):
        """demo/old redirects to demo/new, whose contributors request fails:
        the snapshot is stored once, with an unknown count, the failure is
        logged once, and a later paper naming demo/new sends nothing."""
        papers = [
            ("2101.00001", "old", "Code: https://github.com/demo/old."),
            ("2101.00002", "new", "Code: https://github.com/demo/new."),
        ]
        plain = fixtures_handler(
            {"demo/new": {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}})

        def handler(url, params):
            if url.endswith("/contributors"):
                return FakeResponse(status_code=403, text="too large to list")
            return plain(url, params)

        sent = []
        out = io.StringIO()
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            status = cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client(papers),
                             github_client=github_client(
                                 recorded(renaming_old_to_new(handler), sent)), out=out)
        assert status == 0
        assert [url for url, _ in sent] == [
            "http://gh.test/repos/demo/old", "http://gh.test/repos/demo/new",
            "http://gh.test/repos/demo/new/contributors"]
        assert [r.getMessage() for r in caplog.records] == [
            "GitHub fetch failed for demo/old: forbidden (HTTP 403 for "
            "http://gh.test/repos/demo/new/contributors); its snapshot was kept"]
        assert report_lines(out.getvalue()) == [
            "The project 'new' has a maturity level of Low. It has 5 stars, 1 forks, "
            "0 open issues, and 0 contributors."]
        [entry] = load_records(tmp_path / "kb.jsonl")
        assert (entry.ref.canonical_url, sorted(entry.papers),
                entry.latest.contributors) == (
            "https://github.com/demo/new", ["2101.00001", "2101.00002"], None)
        with open(tmp_path / "kb.csv", encoding="utf-8", newline="") as fh:
            assert [row["contributors"] for row in csv.DictReader(fh)] == [""]

    def test_old_name_after_new_keeps_the_first_snapshot(self, tmp_path):
        """A paper names demo/new, a later one demo/old: demo/old is
        requested and redirected onto the snapshot already taken, so no
        second contributors request is sent, and the store keeps the first
        snapshot without a history entry."""
        papers = [
            ("2101.00001", "new", "Code: https://github.com/demo/new."),
            ("2101.00002", "old", "Code: https://github.com/demo/old."),
        ]
        counts = {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}
        sent = []
        github = recorded(renaming_old_to_new(fixtures_handler({"demo/new": counts})), sent)
        out = io.StringIO()
        status = cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client(papers),
                         github_client=github_client(github), out=out)
        assert status == 0
        assert [url for url, _ in sent] == [
            "http://gh.test/repos/demo/new", "http://gh.test/repos/demo/new/contributors",
            "http://gh.test/repos/demo/old", "http://gh.test/repos/demo/new"]
        assert len(report_lines(out.getvalue())) == 1
        with open(tmp_path / "kb.jsonl", encoding="utf-8") as fh:
            stored = [json.loads(line) for line in fh]
        assert [(r["source_papers"], r["latest"]["fetched_at"], r["history"], r["aliases"])
                for r in stored] == [
            (["2101.00001", "2101.00002"], "2024-01-01T00:00:00Z", [], ["demo/old"])]

    @pytest.mark.parametrize("failure", [
        FakeResponse(text="<feed"),
        FakeResponse(status_code=400, text="bad query"),
        RuntimeError("feed client fault"),
        KeyboardInterrupt(),
    ], ids=["unparseable", "refused", "unexpected-exception", "interrupt"])
    def test_feed_failure_stops_and_joins_the_worker(self, tmp_path, monkeypatch, failure):
        """Page 1 names three repositories. Page 2 fails while the worker
        is inside the first one, whose request is held until the pipeline
        starts joining the worker: that repository finishes, no other
        starts, and no thread outlives the call."""
        entries = [
            atom_entry("2101.00001", "a", "https://github.com/demo/alpha, https://github.com/demo/beta"),
            atom_entry("2101.00002", "b", "https://github.com/demo/gamma"),
        ]
        github_started, joining = threading.Event(), threading.Event()
        waited, held = [], []

        def feed(url, params):
            if params["start"] == 0:
                return FakeResponse(text=atom_feed(entries, total=4))
            waited.append(github_started.wait(HANDOFF_TIMEOUT))
            if isinstance(failure, BaseException):
                raise failure
            return failure

        counts = {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}
        sent = []
        answer = recorded(fixtures_handler(
            {slug: counts for slug in ("demo/alpha", "demo/beta", "demo/gamma")}), sent)

        def github(url, params):
            if not github_started.is_set():
                github_started.set()
                held.append(joining.wait(HANDOFF_TIMEOUT))
            return answer(url, params)

        class SignalledOnJoin(ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                joining.set()
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", SignalledOnJoin)
        threads = set(threading.enumerate())
        cfg = config_for(tmp_path, "--max-results", "4", "--page-size", "2")

        def run():
            return cmd_run(cfg, arxiv_client=feed_client(feed),
                           github_client=github_client(github), out=io.StringIO())

        if isinstance(failure, BaseException):
            with pytest.raises(type(failure)) as excinfo:
                run()
            assert excinfo.value is failure
        else:
            assert run() == 1
        assert set(threading.enumerate()) == threads
        assert waited == [True] and held == [True]
        assert [url for url, _ in sent] == ["http://gh.test/repos/demo/alpha",
                                            "http://gh.test/repos/demo/alpha/contributors"]
        assert list(tmp_path.iterdir()) == []


class TestMonitorCommand:
    def _seed_run(self, tmp_path, fixtures):
        papers, _ = build_corpus()
        cfg = config_for(tmp_path)
        status = cmd_run(
            cfg,
            arxiv_client=corpus_arxiv_client(papers),
            github_client=fixtures_github_client(fixtures),
            out=io.StringIO(),
        )
        assert status == 0
        return papers

    def test_monitor_reports_added_updated_unchanged(self, tmp_path):
        fixtures = reference_fixtures()
        papers = self._seed_run(tmp_path, fixtures)

        evolved = {slug: dict(spec) for slug, spec in fixtures.items()}
        evolved["ncbi-nlp/BioSentVec"]["stars"] = 548
        evolved["tanlab/MIMIC-III-Clinical-Drug-Representations"] = {
            "stars": 12, "forks": 2, "open_issues": 1, "contributors": 2,
        }
        cfg = config_for(tmp_path, command="monitor")
        out = io.StringIO()
        status = cmd_monitor(
            cfg, None,
            arxiv_client=corpus_arxiv_client(papers),
            github_client=fixtures_github_client(evolved),
            out=out,
        )
        assert status == 0
        text = out.getvalue()
        assert "Added (1):" in text
        assert "  https://github.com/tanlab/MIMIC-III-Clinical-Drug-Representations" in text
        assert "Updated (1):" in text
        assert "  https://github.com/ncbi-nlp/BioSentVec: stars 546 -> 548" in text
        assert "Unchanged (22):" in text
        assert len(load_records(tmp_path / "kb.jsonl")) == 24

    def test_a_failed_write_replaces_no_output(self, tmp_path, caplog, monkeypatch):
        fixtures = reference_fixtures()
        papers = self._seed_run(tmp_path, fixtures)
        names = ["kb.csv", "kb.jsonl", "report.txt"]
        before = {name: (tmp_path / name).read_bytes() for name in names}
        evolved = {slug: dict(spec) for slug, spec in fixtures.items()}
        evolved["ncbi-nlp/BioSentVec"]["stars"] = 548

        def unwritable(*args):
            raise OSError(f"cannot write {args[-1]}")

        for failing in [(cli, "export_report"), (os, "fsync")]:  # a write, then a sync
            caplog.clear()
            with monkeypatch.context() as patch, \
                    caplog.at_level(logging.ERROR, logger="repoharvest"):
                patch.setattr(*failing, unwritable)
                status = cmd_monitor(config_for(tmp_path, command="monitor"), None,
                                     arxiv_client=corpus_arxiv_client(papers),
                                     github_client=fixtures_github_client(evolved),
                                     out=io.StringIO())
            assert status == 1
            assert [r.getMessage().split(": ")[0] for r in caplog.records
                    if r.levelno >= logging.ERROR] == [f"cannot write outputs to {tmp_path}"]
            assert sorted(path.name for path in tmp_path.iterdir()) == names
            assert {name: (tmp_path / name).read_bytes() for name in names} == before

    @pytest.mark.parametrize("fault", [OSError("rename failed"), KeyboardInterrupt()],
                             ids=["oserror", "interrupt"])
    @pytest.mark.parametrize("failing", [0, 1, 2], ids=["kb.csv", "report.txt", "kb.jsonl"])
    def test_a_fault_at_a_rename_keeps_a_whole_store(self, tmp_path, monkeypatch, failing,
                                                     fault):
        """The ``failing``-th rename raises ``fault`` (an interrupt stands in
        for a kill). ``kb.jsonl`` is then the old store or the new one, no
        staged file is left, and the next run leaves a set that agrees."""
        out_dir, reference = tmp_path / "out", tmp_path / "reference"
        fixtures = reference_fixtures()
        papers = self._seed_run(out_dir, fixtures)
        evolved = {slug: dict(spec) for slug, spec in fixtures.items()}
        evolved["ncbi-nlp/BioSentVec"]["stars"] = 548

        def monitor(where):
            return cmd_monitor(config_for(where, command="monitor"), None,
                               arxiv_client=corpus_arxiv_client(papers),
                               github_client=fixtures_github_client(evolved),
                               out=io.StringIO())

        shutil.copytree(out_dir, reference)
        assert monitor(reference) == 0
        stores = [(where / "kb.jsonl").read_bytes() for where in (out_dir, reference)]
        assert stores[0] != stores[1]
        renames, rename = itertools.count(), os.replace

        def faulty_rename(src, dst):
            if next(renames) == failing:
                raise fault
            rename(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", faulty_rename)
            if isinstance(fault, OSError):
                assert monitor(out_dir) == 1
            else:
                with pytest.raises(KeyboardInterrupt):
                    monitor(out_dir)
        outputs = ["kb.csv", "kb.jsonl", "report.txt"]
        assert (out_dir / "kb.jsonl").read_bytes() in stores
        assert sorted(path.name for path in out_dir.iterdir()) == outputs
        assert monitor(out_dir) == 0
        assert sorted(path.name for path in out_dir.iterdir()) == outputs
        assert_output_set_matches(out_dir)

    def test_an_output_name_taken_by_a_directory_replaces_no_output(self, tmp_path, caplog):
        fixtures = reference_fixtures()
        papers = self._seed_run(tmp_path, fixtures)
        (tmp_path / "report.txt").unlink()
        (tmp_path / "report.txt").mkdir()
        before = {name: (tmp_path / name).read_bytes() for name in ("kb.csv", "kb.jsonl")}
        evolved = {slug: dict(spec) for slug, spec in fixtures.items()}
        evolved["ncbi-nlp/BioSentVec"]["stars"] = 548
        with caplog.at_level(logging.ERROR, logger="repoharvest"):
            status = cmd_monitor(config_for(tmp_path, command="monitor"), None,
                                 arxiv_client=corpus_arxiv_client(papers),
                                 github_client=fixtures_github_client(evolved),
                                 out=io.StringIO())
        assert status == 1
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
            f"cannot write outputs to {tmp_path}: {tmp_path / 'report.txt'} "
            "is not a regular file"]
        assert {name: (tmp_path / name).read_bytes() for name in before} == before
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "kb.csv", "kb.jsonl", "report.txt"]

    def test_a_feed_failure_leaves_the_previous_store_alone(self, tmp_path, caplog):
        """A feed that answers 5xx past the retry budget is fatal: monitor
        exits 1 before any section, and writes no output at all."""
        kb = KnowledgeBase()
        kb.upsert(make_ref("demo", "alpha"), make_metrics(stars=40), {"2101.00001"})
        store = tmp_path / "kb.jsonl"
        save_records(kb, store)
        before = store.read_bytes()
        sent = []
        feed = feed_client(recorded(
            lambda url, params: FakeResponse(status_code=503, text="down"), sent))
        out = io.StringIO()
        with caplog.at_level(logging.ERROR, logger="repoharvest"):
            status = cmd_monitor(config_for(tmp_path, command="monitor"), None,
                                 arxiv_client=feed,
                                 github_client=fixtures_github_client({}), out=out)
        assert status == 1
        assert len(sent) == 3  # the first attempt and both retries
        assert out.getvalue() == "Processing arXiv papers:\n\n"
        assert [r.getMessage() for r in caplog.records] == [
            "paper retrieval failed: HTTP 503 from feed endpoint at start=0"]
        assert list(tmp_path.iterdir()) == [store]
        assert store.read_bytes() == before

    def test_monitor_names_every_changed_count_in_order(self, tmp_path):
        fixtures = reference_fixtures()
        papers = self._seed_run(tmp_path, fixtures)
        evolved = {slug: dict(spec) for slug, spec in fixtures.items()}
        evolved["ncbi-nlp/BioSentVec"] = {
            "stars": 550, "forks": 95, "open_issues": 2, "contributors": 7,
        }
        out = io.StringIO()
        status = cmd_monitor(
            config_for(tmp_path, command="monitor"), None,
            arxiv_client=corpus_arxiv_client(papers),
            github_client=fixtures_github_client(evolved),
            out=out,
        )
        assert status == 0
        lines = out.getvalue().splitlines()
        updated = lines.index("Updated (1):")
        assert lines[updated + 1] == (
            "  https://github.com/ncbi-nlp/BioSentVec: stars 546 -> 550, forks 93 -> 95, "
            "open issues 13 -> 2, contributors 4 -> 7"
        )
        assert lines[updated + 2] == "Unchanged (22):"

    def test_a_failed_contributors_request_keeps_the_refresh_and_the_stored_count(
            self, tmp_path, caplog):
        fixtures = reference_fixtures()
        papers = self._seed_run(tmp_path, fixtures)
        evolved = {slug: dict(spec) for slug, spec in fixtures.items()}
        evolved["ncbi-nlp/BioSentVec"]["stars"] = 548
        plain = fixtures_handler(evolved)
        broken = "http://gh.test/repos/ncbi-nlp/BioSentVec/contributors"

        def handler(url, params):
            if url == broken:
                return FakeResponse(status_code=500, text="boom")
            return plain(url, params)

        out = io.StringIO()
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            status = cmd_monitor(config_for(tmp_path, command="monitor"), None,
                                 arxiv_client=corpus_arxiv_client(papers),
                                 github_client=github_client(handler), out=out)
        assert status == 0
        assert [r.getMessage() for r in caplog.records if "BioSentVec" in r.getMessage()] == [
            f"GitHub fetch failed for ncbi-nlp/BioSentVec: transport (HTTP 500 for {broken}); "
            "its snapshot was kept"]
        lines = out.getvalue().splitlines()
        updated = lines.index("Updated (1):")
        assert lines[updated + 1:updated + 3] == [
            "  https://github.com/ncbi-nlp/BioSentVec: stars 546 -> 548", "Unchanged (22):"]
        [entry] = [entry for entry in load_records(tmp_path / "kb.jsonl")
                   if entry.ref.name == "BioSentVec"]
        assert (entry.latest.stars, entry.latest.contributors) == (548, 4)

    def test_a_count_never_counted_reads_unknown(self, tmp_path):
        """A first harvest whose contributors request fails stores no count
        (``null``); the monitor that counts it reports the old count as
        unknown, not as Python's None."""
        fixtures = reference_fixtures()
        plain = fixtures_handler(fixtures)
        broken = "http://gh.test/repos/ncbi-nlp/BioSentVec/contributors"

        def handler(url, params):
            if url == broken:
                return FakeResponse(status_code=500, text="boom")
            return plain(url, params)

        papers, _ = build_corpus()
        assert cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client(papers),
                       github_client=github_client(handler), out=io.StringIO()) == 0
        [entry] = [entry for entry in load_records(tmp_path / "kb.jsonl")
                   if entry.ref.name == "BioSentVec"]
        assert entry.latest.contributors is None
        out = io.StringIO()
        assert cmd_monitor(config_for(tmp_path, command="monitor"), None,
                           arxiv_client=corpus_arxiv_client(papers),
                           github_client=github_client(plain, start=START + timedelta(days=1)),
                           out=out) == 0
        lines = out.getvalue().splitlines()
        updated = lines.index("Updated (1):")
        assert lines[updated + 1:updated + 3] == [
            "  https://github.com/ncbi-nlp/BioSentVec: contributors unknown -> 4",
            "Unchanged (22):"]
        assert "None" not in out.getvalue()

    def test_monitor_refreshes_stored_repositories_conditionally(self, tmp_path):
        fixtures = reference_fixtures()
        papers, _ = build_corpus()
        cold, cold_session = conditional_github_client(fixtures)
        assert cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client(papers),
                       github_client=cold, out=io.StringIO()) == 0
        assert all("If-None-Match" not in h for h in cold_session.headers)
        stored = [json.loads(line) for line in (tmp_path / "kb.jsonl").read_text().splitlines()]
        assert {record["schema_version"] for record in stored} == {2}
        assert all(record["latest"]["etag"].startswith('"') for record in stored)

        evolved = {slug: dict(spec) for slug, spec in fixtures.items()}
        evolved["ncbi-nlp/BioSentVec"]["stars"] = 548
        client, session = conditional_github_client(evolved)
        out = io.StringIO()
        status = cmd_monitor(config_for(tmp_path, command="monitor"), None,
                             arxiv_client=corpus_arxiv_client(papers),
                             github_client=client, out=out)
        assert status == 0
        text = out.getvalue()
        assert "Updated (1):" in text
        assert "  https://github.com/ncbi-nlp/BioSentVec: stars 546 -> 548" in text
        assert "Unchanged (22):" in text
        # one conditional request for each stored repository; only the
        # changed one has its contributors counted again
        urls = [url for _, url, _ in session.calls]
        assert [url for url in urls if url.endswith("/contributors")] == [
            "http://gh.test/repos/ncbi-nlp/BioSentVec/contributors"]
        repo_urls = [url for url in urls if not url.endswith("/contributors")]
        assert len(repo_urls) == len(set(repo_urls))
        conditional = {url for url, headers in zip(urls, session.headers)
                       if "If-None-Match" in headers}
        assert conditional == {f"http://gh.test/repos/{slug}" for slug in fixtures}
        kb = load_records(tmp_path / "kb.jsonl")
        for entry in kb:
            assert entry.latest.etag is not None
            assert entry.latest.contributors == fixtures[
                f"{entry.ref.owner}/{entry.ref.name}"]["contributors"]

    def test_monitor_regrades_a_stored_tier_no_paper_refreshes(self, tmp_path):
        """An entry stored as High with 5 stars, by another rule or by hand,
        is written as Low and listed as unchanged."""
        kb = KnowledgeBase()
        kb.upsert(make_ref("demo", "kept"), make_metrics(name="kept", stars=5), {"2101.00009"})
        save_records(kb, tmp_path / "kb.jsonl")
        stored = (tmp_path / "kb.jsonl").read_text()
        (tmp_path / "kb.jsonl").write_text(stored.replace('"tier": "Low"', '"tier": "High"'))
        out = io.StringIO()
        status = cmd_monitor(config_for(tmp_path, command="monitor"), None,
                             arxiv_client=corpus_arxiv_client([]),
                             github_client=fixtures_github_client({}), out=out)
        assert status == 0
        assert out.getvalue().endswith(
            "Added (0):\nUpdated (0):\nUnchanged (1):\n  https://github.com/demo/kept\n")
        assert (tmp_path / "kb.jsonl").read_text() == stored
        (row,) = csv.DictReader(io.StringIO((tmp_path / "kb.csv").read_text()))
        assert row["tier"] == "Low"
        assert (tmp_path / "report.txt").read_text().startswith(
            "The project 'kept' has a maturity level of Low.")

    def test_monitor_accepts_explicit_previous_path(self, tmp_path):
        fixtures = reference_fixtures()
        papers = self._seed_run(tmp_path, fixtures)
        moved = tmp_path / "archive.jsonl"
        (tmp_path / "kb.jsonl").rename(moved)
        cfg = config_for(tmp_path, command="monitor")
        status = cmd_monitor(
            cfg, str(moved),
            arxiv_client=corpus_arxiv_client(papers),
            github_client=fixtures_github_client(fixtures),
            out=io.StringIO(),
        )
        assert status == 0

    def test_monitor_without_previous_store_fails(self, tmp_path, caplog):
        cfg = config_for(tmp_path, command="monitor")
        with caplog.at_level(logging.ERROR, logger="repoharvest"):
            status = cmd_monitor(
                cfg, None,
                arxiv_client=corpus_arxiv_client([]),
                github_client=fixtures_github_client({}),
                out=io.StringIO(),
            )
        assert status == 1

    def test_monitor_with_a_store_line_of_the_wrong_shape_fails(self, tmp_path, caplog):
        (tmp_path / "kb.jsonl").write_text("[]\n")
        cfg = config_for(tmp_path, command="monitor")
        with caplog.at_level(logging.ERROR, logger="repoharvest"):
            status = cmd_monitor(
                cfg, None,
                arxiv_client=corpus_arxiv_client([]),
                github_client=fixtures_github_client({}),
                out=io.StringIO(),
            )
        assert status == 1
        assert [record.getMessage() for record in caplog.records] == [
            f"cannot load previous store: {tmp_path / 'kb.jsonl'}:1: bad record: "
            "record must be a dict, not []"
        ]

    def test_monitor_with_a_store_that_is_not_utf8_fails(self, tmp_path, caplog):
        (tmp_path / "kb.jsonl").write_bytes(b"\xff\xfe{}\n")
        cfg = config_for(tmp_path, command="monitor")
        with caplog.at_level(logging.ERROR, logger="repoharvest"):
            status = cmd_monitor(
                cfg, str(tmp_path / "kb.jsonl"),
                arxiv_client=corpus_arxiv_client([]),
                github_client=fixtures_github_client({}),
                out=io.StringIO(),
            )
        assert status == 1
        (message,) = [record.getMessage() for record in caplog.records]
        assert message.startswith(
            f"cannot load previous store: cannot read store {tmp_path / 'kb.jsonl'}: "
            "'utf-8' codec can't decode byte 0xff in position 0")


class TestMonitorRenamedRepository:
    """The previous store holds demo/new, which a paper named as demo/old
    before GitHub renamed it: monitor requests it under its stored name."""

    OLD = ("2101.00001", "old", "Code: https://github.com/demo/old.")
    NEW = ("2101.00002", "new", "Code: https://github.com/demo/new.")
    COUNTS = {"stars": 5, "forks": 1, "open_issues": 0, "contributors": 2}
    RENAMED = ("demo/old", "demo/new")
    UNCHANGED = "Added (0):\nUpdated (0):\nUnchanged (1):\n  https://github.com/demo/new\n"

    @pytest.fixture(autouse=True)
    def _previous(self, tmp_path):
        client, session = conditional_github_client({"demo/new": self.COUNTS}, self.RENAMED)
        assert cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client([self.OLD]),
                       github_client=client, out=io.StringIO()) == 0
        assert [url for _, url, _ in session.calls] == [
            "http://gh.test/repos/demo/old", "http://gh.test/repos/demo/new",
            "http://gh.test/repos/demo/new/contributors"]
        (record,) = [json.loads(line) for line in (tmp_path / "kb.jsonl").read_text().splitlines()]
        assert (record["canonical_url"], record["aliases"]) == (
            "https://github.com/demo/new", ["demo/old"])
        self.previous = (tmp_path / "kb.jsonl").read_bytes()

    def _monitor(self, tmp_path, papers, counts, renamed=RENAMED):
        """(url, conditional, status) of each request, and the diff sections,
        when GitHub answers the first of the ``renamed`` slugs as the second,
        with ``counts``."""
        client, session = conditional_github_client({renamed[1]: counts}, renamed)
        out = io.StringIO()
        status = cmd_monitor(config_for(tmp_path, command="monitor"), None,
                             arxiv_client=corpus_arxiv_client(papers),
                             github_client=client, out=out)
        assert status == 0
        sent = [(url, "If-None-Match" in headers, answer) for (_, url, _), headers, answer
                in zip(session.calls, session.headers, session.statuses)]
        text = out.getvalue()
        return sent, text[text.index("Added ("):]

    def test_unchanged_costs_one_conditional_request(self, tmp_path):
        sent, sections = self._monitor(tmp_path, [self.OLD], self.COUNTS)
        assert sent == [("http://gh.test/repos/demo/new", True, 304)]
        assert sections == self.UNCHANGED
        (record,) = [json.loads(line) for line in (tmp_path / "kb.jsonl").read_text().splitlines()]
        assert record["aliases"] == ["demo/old"]

    def test_changed_is_fetched_under_its_stored_name(self, tmp_path):
        sent, sections = self._monitor(tmp_path, [self.OLD], {**self.COUNTS, "stars": 6})
        assert sent == [("http://gh.test/repos/demo/new", True, 200),
                        ("http://gh.test/repos/demo/new/contributors", False, 200)]
        assert sections == ("Added (0):\nUpdated (1):\n"
                            "  https://github.com/demo/new: stars 5 -> 6\nUnchanged (0):\n")

    def test_a_store_without_the_alias_learns_it(self, tmp_path):
        (tmp_path / "kb.jsonl").write_text(
            self.previous.decode().replace(', "aliases": ["demo/old"]', ""))
        sent, sections = self._monitor(tmp_path, [self.OLD], self.COUNTS)
        assert sent == [("http://gh.test/repos/demo/old", False, 301),
                        ("http://gh.test/repos/demo/new", False, 200),
                        ("http://gh.test/repos/demo/new/contributors", False, 200)]
        assert sections == self.UNCHANGED
        (record,) = [json.loads(line) for line in (tmp_path / "kb.jsonl").read_text().splitlines()]
        assert record["aliases"] == ["demo/old"]

    def test_a_failure_is_logged_under_the_paper_name(self, tmp_path, caplog):
        client, session = conditional_github_client({}, self.RENAMED)
        out = io.StringIO()
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            status = cmd_monitor(config_for(tmp_path, command="monitor"), None,
                                 arxiv_client=corpus_arxiv_client([self.OLD]),
                                 github_client=client, out=out)
        assert status == 0
        assert [url for _, url, _ in session.calls] == ["http://gh.test/repos/demo/new"]
        assert [record.getMessage() for record in caplog.records] == [
            "GitHub fetch failed for demo/old: not_found "
            "(HTTP 404 for http://gh.test/repos/demo/new)"]
        assert out.getvalue().endswith(self.UNCHANGED)
        assert (tmp_path / "kb.jsonl").read_bytes() == self.previous

    @pytest.mark.parametrize("papers", [(OLD, NEW), (NEW, OLD)], ids=["old-first", "new-first"])
    def test_a_failure_under_both_names_is_fetched_once(self, tmp_path, caplog, papers):
        client, session = conditional_github_client({}, self.RENAMED)
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            status = cmd_monitor(config_for(tmp_path, command="monitor"), None,
                                 arxiv_client=corpus_arxiv_client(list(papers)),
                                 github_client=client, out=io.StringIO())
        assert status == 0
        assert [url for _, url, _ in session.calls] == ["http://gh.test/repos/demo/new"]
        assert [record.getMessage() for record in caplog.records] == [
            f"GitHub fetch failed for demo/{title}: not_found "
            "(HTTP 404 for http://gh.test/repos/demo/new)" for _, title, _ in papers]
        assert (tmp_path / "kb.jsonl").read_bytes() == self.previous

    def test_both_names_in_one_run_are_fetched_once(self, tmp_path):
        sent, sections = self._monitor(tmp_path, [self.OLD, self.NEW], self.COUNTS)
        assert sent == [("http://gh.test/repos/demo/new", True, 304)]
        assert sections == self.UNCHANGED
        (record,) = [json.loads(line) for line in (tmp_path / "kb.jsonl").read_text().splitlines()]
        assert (record["source_papers"], record["aliases"]) == (
            ["2101.00001", "2101.00002"], ["demo/old"])

    def test_a_rename_after_the_store_moves_its_entry(self, tmp_path):
        """GitHub now answers the stored demo/new as demo/newer: the first
        monitor moves the entry and lists it once, under its new name, and
        the next requests it as demo/newer."""
        earlier = self.previous.decode().replace("2024-01-01T", "2023-01-01T")  # a year ago
        (tmp_path / "kb.jsonl").write_text(earlier)
        stored = json.loads(earlier)
        renamed = ("demo/new", "demo/newer")
        sent, sections = self._monitor(tmp_path, [self.NEW], self.COUNTS, renamed)
        assert sent == [("http://gh.test/repos/demo/new", True, 301),
                        ("http://gh.test/repos/demo/newer", True, 200),
                        ("http://gh.test/repos/demo/newer/contributors", False, 200)]
        assert sections == ("Added (0):\nUpdated (0):\n"
                            "Unchanged (1):\n  https://github.com/demo/newer\n")
        (record,) = [json.loads(line) for line in (tmp_path / "kb.jsonl").read_text().splitlines()]
        stored["latest"].pop("etag")
        assert (record["canonical_url"], record["aliases"], record["source_papers"],
                record["first_seen"], record["history"]) == (
            "https://github.com/demo/newer", ["demo/new", "demo/old"],
            ["2101.00001", "2101.00002"], stored["first_seen"], [stored["latest"]])
        sent, sections = self._monitor(tmp_path, [self.NEW], self.COUNTS, renamed)
        assert sent == [("http://gh.test/repos/demo/newer", True, 304)]
        assert sections == ("Added (0):\nUpdated (0):\n"
                            "Unchanged (1):\n  https://github.com/demo/newer\n")

    def test_a_name_another_repository_takes_is_a_new_entry(self, tmp_path):
        """In one monitor, GitHub answers the stored demo/x as demo/y, and
        then answers demo/z, which another paper names, as a new demo/x:
        demo/y is paired with its own earlier snapshot, and demo/x is new."""
        x = ("2101.00003", "x", "Code: https://github.com/demo/x.")
        z = ("2101.00004", "z", "Code: https://github.com/demo/z.")
        client, _ = conditional_github_client({"demo/x": self.COUNTS})
        assert cmd_run(config_for(tmp_path), arxiv_client=corpus_arxiv_client([x]),
                       github_client=client, out=io.StringIO()) == 0
        fixtures = {"demo/y": self.COUNTS}
        plain = fixtures_handler(fixtures)

        def handler(url, params):
            if url.endswith("/repos/demo/z"):  # takes the name demo/x gave up
                fixtures["demo/x"] = {**self.COUNTS, "stars": 50}
                return FakeResponse(status_code=301,
                                    headers={"Location": "http://gh.test/repos/demo/x"})
            if url.endswith("/repos/demo/x") and "demo/x" not in fixtures:
                return FakeResponse(status_code=301,
                                    headers={"Location": "http://gh.test/repos/demo/y"})
            return plain(url, params)

        session = FakeSession(handler)
        out = io.StringIO()
        assert cmd_monitor(config_for(tmp_path, command="monitor"), None,
                           arxiv_client=corpus_arxiv_client([x, z]),
                           github_client=github_client(None, session=session), out=out) == 0
        assert [url for _, url, _ in session.calls] == [
            "http://gh.test/repos/demo/x", "http://gh.test/repos/demo/y",
            "http://gh.test/repos/demo/y/contributors", "http://gh.test/repos/demo/z",
            "http://gh.test/repos/demo/x", "http://gh.test/repos/demo/x/contributors"]
        text = out.getvalue()
        assert text[text.index("Added ("):] == (
            "Added (1):\n  https://github.com/demo/x\nUpdated (0):\n"
            "Unchanged (1):\n  https://github.com/demo/y\n")
        records = [json.loads(line) for line in (tmp_path / "kb.jsonl").read_text().splitlines()]
        assert sorted((r["canonical_url"], r["latest"]["stars"], r.get("aliases"),
                       r["source_papers"]) for r in records) == [
            ("https://github.com/demo/x", 50, ["demo/z"], ["2101.00004"]),
            ("https://github.com/demo/y", 5, None, ["2101.00003"])]


class TestArgumentResolution:
    def test_defaults(self, tmp_path):
        cfg = resolve_config(parse_args(["run"]))
        assert cfg.search.max_results == 1000
        assert cfg.search.page_size == 100
        assert cfg.search.from_year == 2019 and cfg.search.to_year == 2024
        assert len(cfg.search.terms) == 4

    def test_flags_override(self):
        cfg = resolve_config(parse_args([
            "run", "--terms", "alpha", "--terms", "beta gamma",
            "--from-year", "2020", "--to-year", "2021",
            "--max-results", "20", "--page-size", "10",
        ]))
        assert cfg.search.terms == ("alpha", "beta gamma")
        assert (cfg.search.from_year, cfg.search.to_year) == (2020, 2021)
        assert cfg.search.max_results == 20
        assert cfg.search.page_size == 10

    def test_removed_normalize_dates_flag_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--normalize-dates", "--out-dir", str(tmp_path),
                  "--arxiv-base-url", "http://127.0.0.1:9/q",
                  "--github-base-url", "http://127.0.0.1:9"])
        assert excinfo.value.code == 2
        assert "--normalize-dates" in capsys.readouterr().err

    def test_removed_include_anonymous_flag_and_key_exit_2(self, capsys, tmp_path):
        urls = ["--arxiv-base-url", "http://127.0.0.1:9/q", "--github-base-url", "http://127.0.0.1:9"]
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--include-anonymous", "--out-dir", str(tmp_path), *urls])
        assert excinfo.value.code == 2
        assert "--include-anonymous" in capsys.readouterr().err

    def test_readme_flags_table_lists_every_run_flag(self):
        """README's Flags table names exactly the flags `run` takes."""
        documented = {flag for cell, _ in readme_flag_rows()
                      for flag in re.findall(r"`(-[-\w]+)", cell)}
        flags = {flag for action in subcommand("run")._actions for flag in action.option_strings}
        assert documented == flags - {"-h", "--help"}

    def test_readme_flags_table_gives_the_default_each_help_states(self):
        """Each row's Default cell, without its backticks, is the text after
        ``(default `` in the help of the row's first flag."""
        helps = {flag: action.help for action in subcommand("run")._actions
                 for flag in action.option_strings}
        for flags, default in readme_flag_rows():
            flag = re.match(r"`(-[-\w]+)", flags).group(1)
            stated = re.search(r"\(default (.*)\)$", helps[flag]).group(1)
            assert default.replace("`", "") == stated, flag

    def test_every_option_says_what_it_does(self):
        for command in ("run", "monitor"):
            for action in subcommand(command)._actions:
                assert action.help, (command, action.option_strings)

    def test_removed_tier_flags_exit_2(self, capsys, tmp_path):
        """The tier thresholds are fixed; no subcommand takes them."""
        offline = ["--out-dir", str(tmp_path),
                   "--arxiv-base-url", "http://127.0.0.1:9/q",
                   "--github-base-url", "http://127.0.0.1:9"]
        for command in ("run", "monitor"):
            for flag in ("--medium-stars", "--high-stars"):
                with pytest.raises(SystemExit) as excinfo:
                    main([command, flag, "40", *offline])
                assert excinfo.value.code == 2
                assert f"unrecognized arguments: {flag} 40" in capsys.readouterr().err

    def test_removed_config_flag_exits_2(self, capsys):
        """Every setting is a flag; there is no config file to read."""
        for command in ("run", "monitor"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--config", "x.json"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --config x.json" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,n_papers,sizes", [
        (("--max-results", "1000", "--page-size", "100"), 1000, [100] * 10),
        (("--max-results", "50", "--page-size", "50"), 50, [50]),
        (("--max-results", "50",), 60, [50]),
        (("--max-results", "250",), 300, [100, 100, 50]),
        (("--max-results", "5", "--page-size", "100"), 10, [5]),
    ], ids=["harvest-shape", "large-store-shape", "default-page-above-cap", "cap-250",
            "explicit-page-above-cap"])
    def test_each_request_asks_for_what_the_cap_leaves(self, tmp_path, extra, n_papers,
                                                      sizes):
        """A request asks for --page-size papers, or for what --max-results
        leaves if that is fewer; the benchmark's two shapes come first."""
        feed = corpus_feed([(f"2101.{i:05d}", "t", "a") for i in range(n_papers)])
        sizes_sent = []

        def recorded(url, params):
            sizes_sent.append(params["max_results"])
            return feed(url, params)

        assert execute_pipeline(config_for(tmp_path, *extra), KnowledgeBase(),
                                feed_client(recorded), fixtures_github_client({}),
                                out=io.StringIO()) == 0
        assert sizes_sent == sizes

    def test_main_maps_usage_error_to_exit_2(self, capsys):
        status = main(["run", "--max-results", "0"])
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--bogus"])
        assert excinfo.value.code == 2

    def test_removed_pacing_flags_and_selfcheck_exit_2(self, capsys, tmp_path):
        """Both APIs are paced by fixed rules, the token is read from
        GITHUB_TOKEN, and the test suite replays the calibration table."""
        with pytest.raises(SystemExit) as excinfo:
            main(["selfcheck"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'selfcheck'" in capsys.readouterr().err
        offline = ["--out-dir", str(tmp_path),
                   "--arxiv-base-url", "http://127.0.0.1:9/q",
                   "--github-base-url", "http://127.0.0.1:9"]
        for command in ("run", "monitor"):
            for flag, value in (("--arxiv-delay-ms", "0"), ("--min-interval-ms", "0"),
                                ("--token-env", "X")):
                with pytest.raises(SystemExit) as excinfo:
                    main([command, flag, value, *offline])
                assert excinfo.value.code == 2
                assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("url", ["http://[::1", "http://h:99999", "gh.example",
                                     "ftp://gh.example", "http://127.0.0.1:0"])
    @pytest.mark.parametrize("flag", ["--arxiv-base-url", "--github-base-url"])
    @pytest.mark.parametrize("command", ["run", "monitor"])
    def test_a_malformed_endpoint_exits_2_before_any_request(self, capsys, tmp_path,
                                                             monkeypatch, command, flag, url):
        """An endpoint must be an http(s) URL with a host and a readable
        port other than 0, which requests would send to port 80. Anything
        else is a usage error that names the flag, before a request is sent
        or an output touched, not a traceback or three failing attempts per
        repository."""
        sent = []
        monkeypatch.setattr(requests.Session, "get",
                            lambda session, target, **kwargs: sent.append(target))
        store = tmp_path / "kb.jsonl"
        store.write_bytes(b"previous store\n")
        status = main([command, flag, url, "--out-dir", str(tmp_path)])
        assert status == 2
        assert capsys.readouterr().err == (
            f"error: {flag} must be an http(s) URL with a host, not {url!r}\n")
        assert sent == []
        assert list(tmp_path.iterdir()) == [store]
        assert store.read_bytes() == b"previous store\n"

    @pytest.mark.parametrize("url", ["http://127.0.0.1:8080/api/query", "http://[::1]:8080",
                                     "https://API.example.org/"])
    def test_an_http_endpoint_with_a_host_is_accepted(self, url):
        defaults = resolve_config(parse_args(["run"]))
        assert defaults.arxiv_base_url == "http://export.arxiv.org/api/query"
        assert defaults.github_base_url == "https://api.github.com"
        for name in ("arxiv_base_url", "github_base_url"):
            flag = "--" + name.replace("_", "-")
            assert getattr(resolve_config(parse_args(["monitor", flag, url])), name) == url

    @pytest.mark.parametrize("token", ["to k", "tok\x00", "tok\tx", "tok\x7f", "tok€", "toké"])
    @pytest.mark.parametrize("command", ["run", "monitor"])
    def test_a_token_with_whitespace_or_a_control_character_exits_2(
            self, capsys, tmp_path, monkeypatch, command, token):
        """Such a token, or one with a character outside ASCII, is refused
        before any request, as a usage error that does not print it, not
        sent to fail every repository after its retries or to end the run in
        an encoding error. No environment holds a NUL, so the mapping is
        replaced."""
        sent = []
        monkeypatch.setattr(requests.Session, "get",
                            lambda session, target, **kwargs: sent.append(target))
        monkeypatch.setattr(os, "environ", {**os.environ, "GITHUB_TOKEN": token})
        status = main([command, "--out-dir", str(tmp_path)])
        assert status == 2
        assert capsys.readouterr().err == (
            "error: GITHUB_TOKEN may hold only printable ASCII other than space\n")
        assert sent == []
        assert list(tmp_path.iterdir()) == []

    def test_year_that_is_not_four_digits_exits_2(self, capsys, tmp_path):
        status = main([
            "run", "--from-year", "19", "--out-dir", str(tmp_path),
            "--arxiv-base-url", "http://127.0.0.1:9/q",
            "--github-base-url", "http://127.0.0.1:9",
        ])
        assert status == 2
        assert "error: from_year must be a four-digit year" in capsys.readouterr().err

    def test_page_size_past_the_feed_limit_exits_2(self, capsys, tmp_path):
        """The feed serves at most 2000 results per request; a larger page
        would come back short and end the harvest there."""
        status = main([
            "run", "--max-results", "5000", "--page-size", "2001",
            "--out-dir", str(tmp_path),
            "--arxiv-base-url", "http://127.0.0.1:9/q",
            "--github-base-url", "http://127.0.0.1:9",
        ])
        assert status == 2
        assert "error: page_size must be at most 2000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestClientWiring:
    """No client is injected: execute_pipeline builds both from cfg, at the
    APIs' fixed pacing. Each built gate records the sleeps it asks for
    instead of sleeping them."""

    def _run(self, monkeypatch):
        built, slept = {}, {}

        def recording(cls):
            class Recording(cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    built[cls] = self
                    self._gate._sleep = slept.setdefault(cls, []).append

            return Recording

        monkeypatch.setattr(cli, "ArxivClient", recording(ArxivClient))
        monkeypatch.setattr(cli, "GitHubClient", recording(GitHubClient))
        entries = [
            atom_entry("2101.00001", "alpha", "Code: https://github.com/demo/alpha."),
            atom_entry("2101.00002", "beta", "plain abstract"),
        ]
        sent = []

        def get(session, url, params=None, headers=None, **kwargs):
            sent.append((url, dict(params or {}), dict(headers or {})))
            if url.startswith("http://feed.test"):
                start = params["start"]
                return FakeResponse(text=atom_feed(entries[start:start + 1], total=2))
            if url.endswith("/contributors"):
                return FakeResponse(json_body=[{"login": "u0"}])
            return FakeResponse(json_body={
                "full_name": "demo/alpha", "name": "alpha", "description": None,
                "stargazers_count": 1, "forks_count": 0, "open_issues_count": 0,
            })

        monkeypatch.setattr(requests.Session, "get", get)
        cfg = resolve_config(parse_args([
            "run", "--arxiv-base-url", "http://feed.test/q",
            "--github-base-url", "http://gh.test",
            "--max-results", "2", "--page-size", "1",
        ]))
        assert execute_pipeline(cfg, KnowledgeBase(), out=io.StringIO()) == 0

        feed = [call for call in sent if call[0].startswith("http://feed.test")]
        api = [call for call in sent if call[0].startswith("http://gh.test")]
        assert len(feed) == 2 and len(api) == 2
        # the default run sends the year range in the timestamp form
        for _, params, _ in feed:
            assert "submittedDate:[201901010000 TO 202412312359]" in params["search_query"]
        # the second request of each client waited for its gate
        assert len(slept[ArxivClient]) == len(slept[GitHubClient]) == 1
        assert built[ArxivClient]._gate.min_interval == 3.0
        assert 0 < slept[ArxivClient][0] <= 3.0
        gate = built[GitHubClient]._gate
        assert 0 < slept[GitHubClient][0] <= gate.min_interval
        return gate.min_interval, [headers for _, _, headers in api]

    @pytest.mark.parametrize("value", ["sekret", "sekret\r\n", " sekret\n"])
    def test_a_token_in_github_token_is_sent_100_ms_apart(self, monkeypatch, value):
        """The token is sent without the whitespace around it, such as the
        line end a file or a secret store leaves on it."""
        monkeypatch.setenv("GITHUB_TOKEN", value)
        interval, headers = self._run(monkeypatch)
        assert interval == 0.10
        assert [h["Authorization"] for h in headers] == ["Bearer sekret"] * 2

    @pytest.mark.parametrize("value", [None, "", " \r\n"], ids=["unset", "empty", "blank"])
    def test_without_a_token_requests_are_anonymous_100_ms_apart(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("GITHUB_TOKEN", raising=False)
        else:
            monkeypatch.setenv("GITHUB_TOKEN", value)
        interval, headers = self._run(monkeypatch)
        assert interval == 0.10
        assert not any("Authorization" in h for h in headers)


class TestOfflineGuarantee:
    def test_injected_pipeline_never_touches_the_network(self, tmp_path, monkeypatch):
        def no_connect(self, *args, **kwargs):
            raise AssertionError("network access attempted")

        monkeypatch.setattr(socket.socket, "connect", no_connect)
        papers, _ = build_corpus(n_papers=200)
        status, _, _ = run_pipeline(tmp_path, papers, reference_fixtures())
        assert status == 0


def _child_env() -> dict[str, str]:
    """The environment, with the src directory this process imported
    repoharvest from put first on PYTHONPATH, and no GITHUB_TOKEN, so the
    child runs anonymously, at the default pacing."""
    src = str(Path(repoharvest.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    env.pop("GITHUB_TOKEN", None)
    return env


@pytest.mark.slow
class TestSubprocessEndToEnd:
    def _papers(self):
        return [
            ("2101.00001", "alpha study",
             "Code released at https://github.com/demo/alpha."),
            ("2101.00002", "beta study",
             "See https://github.com/demo/beta, plus notes."),
            ("2101.00003", "no code here", "plain abstract"),
            ("2101.00004", "gone study",
             "Archived at https://github.com/demo/gone."),
            ("2101.00005", "decoy study",
             "Hosted on https://gitlab.com/demo/elsewhere."),
            ("2101.00006", "profile study",
             "Author page: https://github.com/demo."),
        ]

    def _repos(self):
        return {
            "demo/alpha": {"stars": 150, "forks": 3, "open_issues": 1,
                           "contributors": 205},
            "demo/beta": {"stars": 31, "forks": 0, "open_issues": 0,
                          "contributors": 1},
        }

    @pytest.mark.parametrize("flags", [(), ("-v",), ("-vv",)], ids=["quiet", "v", "vv"])
    def test_verbose_chooses_what_stderr_logs(self, tmp_path, flags):
        """Warnings only by default; -v adds the skipped links at INFO, and
        -vv the HTTP connection log at DEBUG. GitHub knows no repository,
        so each costs one request."""
        with MockServer(MockArxivApp(self._papers())) as feed, \
                MockServer(MockGitHubApp({})) as gh:
            result = subprocess.run([
                sys.executable, "-m", "repoharvest", "run", *flags,
                "--arxiv-base-url", f"{feed.base_url}/api/query",
                "--github-base-url", gh.base_url,
                "--out-dir", str(tmp_path), "--page-size", "7",
            ], capture_output=True, text=True, timeout=60, env=_child_env())
        assert result.returncode == 0, result.stderr
        lines = result.stderr.splitlines()
        skipped = ("INFO: skipping https://github.com/demo: "
                   "no owner/name path in 'https://github.com/demo'")
        assert (skipped in lines) == bool(flags)
        assert any(line.startswith("INFO:") for line in lines) == bool(flags)
        assert any(line.startswith("DEBUG: Starting new HTTP connection")
                   for line in lines) == (flags == ("-vv",))
        assert any(line.startswith("DEBUG:") for line in lines) == (flags == ("-vv",))

    def test_run_and_monitor_over_local_servers(self, tmp_path):
        env = _child_env()
        gh_app = MockGitHubApp(self._repos())
        gh_app.rate_limit_once.add("demo/alpha")
        with MockServer(MockArxivApp(self._papers())) as feed, \
                MockServer(gh_app) as gh:
            base_cmd = [
                sys.executable, "-m", "repoharvest", "run",
                "--arxiv-base-url", f"{feed.base_url}/api/query",
                "--github-base-url", gh.base_url,
                "--out-dir", str(tmp_path),
                # one short page holds the six papers: no 3 s feed delay
                "--page-size", "7",
            ]
            result = subprocess.run(base_cmd, capture_output=True, text=True,
                                    timeout=60, env=env)
            assert result.returncode == 0, result.stderr
            assert "Paper 6/6" in result.stdout
            assert ("Found GitHub URLs: ['https://github.com/demo/alpha', "
                    "'https://github.com/demo/beta', "
                    "'https://github.com/demo/gone']") in result.stdout
            lines = report_lines(result.stdout)
            assert lines == [
                "The project 'alpha' has a maturity level of High. It has "
                "150 stars, 3 forks, 1 open issues, and 205 contributors.",
                "The project 'beta' has a maturity level of Medium. It has "
                "31 stars, 0 forks, 0 open issues, and 1 contributors.",
            ]
            assert "demo/gone" in result.stderr  # logged 404
            kb = load_records(tmp_path / "kb.jsonl")
            assert len(kb) == 2
            # demo/alpha's 205 contributors were counted from rel="last" in
            # one request, not by walking three pages
            contributor_hits = [
                path for path in gh_app.requests if path.endswith("/contributors")
            ]
            assert contributor_hits == ["/repos/demo/alpha/contributors",
                                        "/repos/demo/beta/contributors"]

            monitor_cmd = [
                sys.executable, "-m", "repoharvest", "monitor",
                "--arxiv-base-url", f"{feed.base_url}/api/query",
                "--github-base-url", gh.base_url,
                "--out-dir", str(tmp_path),
                # one short page holds the six papers: no 3 s feed delay
                "--page-size", "7",
            ]
            gh_app.repos["demo/beta"]["stars"] = 40
            result = subprocess.run(monitor_cmd, capture_output=True, text=True,
                                    timeout=60, env=env)
            assert result.returncode == 0, result.stderr
            assert "Updated (1):" in result.stdout
            assert "stars 31 -> 40" in result.stdout
