"""CLI behavior: flag/config resolution, pipeline runs against scripted
clients, monitor diffs, selfcheck, and a subprocess run over local mock
servers."""
from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import logging
import os
import re
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
import requests

import repoharvest
from repoharvest import cli

from conftest import FakeClock, FakeResponse, FakeSession, atom_entry, atom_feed
from corpus import REPO_URLS, build_corpus
from mockservers import MockArxivApp, MockGitHubApp, MockServer
from repoharvest.arxiv import ArxivClient
from repoharvest.calibration import REFERENCE_ROWS
from repoharvest.cli import (
    UsageError,
    _make_github_client,
    build_parser,
    cmd_monitor,
    cmd_run,
    cmd_selfcheck,
    execute_pipeline,
    main,
    resolve_config,
)
from repoharvest.github import AUTHENTICATED_MIN_INTERVAL, GitHubClient, ThrottlePolicy
from repoharvest.kb import KnowledgeBase, load_records
from repoharvest.links import canonicalize
from repoharvest.maturity import MaturityTier, TierRule

EXPECTED_LINES = [row.expected_line for row in REFERENCE_ROWS]


def reference_fixtures() -> dict[str, dict]:
    """slug -> counts for the 23 repositories the report covers."""
    fixtures = {}
    for url, row in zip(REPO_URLS, REFERENCE_ROWS):
        slug = "/".join(url.rsplit("/", 2)[-2:])
        assert slug.split("/")[1] == row.name
        fixtures[slug] = {
            "stars": row.stars,
            "forks": row.forks,
            "open_issues": row.open_issues,
            "contributors": row.contributors,
        }
    return fixtures


def parse_args(argv):
    return build_parser().parse_args(argv)


def config_for(tmp_path, *extra, command="run"):
    argv = [
        command,
        "--out-dir", str(tmp_path),
        "--arxiv-delay-ms", "0",
        "--min-interval-ms", "0",
        *extra,
    ]
    return resolve_config(parse_args(argv))


def corpus_feed(papers):
    """Feed handler serving ``papers`` in start/max_results slices."""
    entries = [atom_entry(pid, title, abstract) for pid, title, abstract in papers]

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


def github_client(handler, session=None):
    """Client over ``handler`` (or ``session``) whose wall timestamps tick
    one second per observation, keeping first-seen order identical to
    fetch order."""
    clock = FakeClock()
    ticks = itertools.count()

    def now():
        return (datetime(2024, 1, 1, tzinfo=timezone.utc)
                + timedelta(seconds=next(ticks)))

    session = session or FakeSession(handler, clock=clock)
    return GitHubClient(base_url="http://gh.test",
                        policy=ThrottlePolicy(min_interval=0.0),
                        session=session, clock=clock, sleep=clock.sleep,
                        wall_clock=clock, now=now)


def fixtures_github_client(fixtures):
    return github_client(fixtures_handler(fixtures))


def conditional_github_client(fixtures):
    """Client over the fixtures whose /repos answers carry an ETag and turn
    into a 304 when the request's If-None-Match matches it."""
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

    session = FakeSession(handler)
    return github_client(None, session=session), session


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
        assert len(report_lines(stdout)) == 21
        assert len(kb) == 21
        warned = [r.getMessage() for r in caplog.records
                  if "GitHub fetch failed" in r.getMessage()]
        assert len(warned) == 2
        for slug in dropped:
            assert any(slug.replace("/", "/") in message for message in warned)

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
        github_client(recorded(fixtures_handler(reference_fixtures()), sequential)).enrich(
            [canonicalize(url, "") for url in expected_urls])
        assert sent == sequential

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
        answer = fixtures_handler({"demo/alpha": counts, "demo/new": counts})

        def github(url, params):
            if url.endswith("/repos/demo/old"):
                return FakeResponse(status_code=301,
                                    headers={"Location": "http://gh.test/repos/demo/new"})
            return answer(url, params)

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


class TestSelfcheck:
    def test_default_rule_passes(self):
        out = io.StringIO()
        assert cmd_selfcheck(TierRule(30, 100), out=out) == 0
        assert "selfcheck: 23/23 reference rows match" in out.getvalue()

    def test_absurd_rule_fails(self):
        out = io.StringIO()
        assert cmd_selfcheck(TierRule(1000, 2000), out=out) == 1
        text = out.getvalue()
        assert "selfcheck: 17/23 reference rows match" in text
        mismatches = re.findall(r"^tier mismatch for '([^']+)': expected \w+, got (\w+)$",
                                text, flags=re.MULTILINE)
        # every non-Low row degrades to Low under the absurd thresholds
        expected = {row.name for row in REFERENCE_ROWS
                    if row.expected_tier is not MaturityTier.LOW}
        assert {name for name, _ in mismatches} == expected
        assert len(mismatches) == len(expected)
        assert {got for _, got in mismatches} == {"Low"}

    def test_main_wires_selfcheck_flags(self, capsys):
        assert main(["selfcheck"]) == 0
        assert main(["selfcheck", "--medium-stars", "1000",
                     "--high-stars", "2000"]) == 1
        capsys.readouterr()

    def test_takes_only_the_flags_it_reads(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["selfcheck", "--out-dir", "x"])
        assert excinfo.value.code == 2
        # one config file serves every command
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"out_dir": "x", "max_results": 5, "high_stars": 2000}))
        assert main(["selfcheck", "--config", str(config)]) == 1
        assert main(["selfcheck", "--config", str(config), "--high-stars", "100"]) == 0
        capsys.readouterr()


class TestArgumentResolution:
    def test_defaults(self, tmp_path):
        cfg = resolve_config(parse_args(["run"]))
        assert cfg.search.max_results == 1000
        assert cfg.search.page_size == 100
        assert cfg.search.date_from == 2019 and cfg.search.date_to == 2024
        assert len(cfg.search.terms) == 4
        assert cfg.rule.medium_min_stars == 30
        assert cfg.rule.high_min_stars == 100
        assert cfg.arxiv_delay_ms == 3000
        assert cfg.min_interval_ms is None
        assert cfg.token_env == "GITHUB_TOKEN"
        assert not cfg.normalize_dates

    def test_flags_override(self):
        cfg = resolve_config(parse_args([
            "run", "--terms", "alpha", "--terms", "beta gamma",
            "--from-year", "2020", "--to-year", "2021",
            "--max-results", "20", "--page-size", "10",
            "--normalize-dates",
            "--min-interval-ms", "250", "--token-env", "MY_TOKEN",
        ]))
        assert cfg.search.terms == ("alpha", "beta gamma")
        assert (cfg.search.date_from, cfg.search.date_to) == (2020, 2021)
        assert cfg.search.max_results == 20
        assert cfg.search.page_size == 10
        assert cfg.normalize_dates
        assert cfg.min_interval_ms == 250
        assert cfg.token_env == "MY_TOKEN"

    def test_config_file_layering(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({
            "terms": ["icu mortality"],
            "medium_stars": 50,
            "out_dir": str(tmp_path / "results"),
        }))
        cfg = resolve_config(parse_args([
            "run", "--config", str(config), "--medium-stars", "60",
        ]))
        assert cfg.search.terms == ("icu mortality",)
        assert cfg.rule.medium_min_stars == 60  # flag beats file
        assert cfg.out_dir == tmp_path / "results"

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"stars_minimum": 1}))
        with pytest.raises(UsageError, match="stars_minimum"):
            resolve_config(parse_args(["run", "--config", str(config)]))

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            resolve_config(parse_args(["run", "--config",
                                       str(tmp_path / "absent.json")]))
        not_utf8 = tmp_path / "utf16.json"
        not_utf8.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(UsageError, match="cannot read config"):
            resolve_config(parse_args(["run", "--config", str(not_utf8)]))

    def test_default_page_size_shrinks_to_small_max_results(self):
        cfg = resolve_config(parse_args(["run", "--max-results", "50"]))
        assert cfg.search.page_size == 50

    def test_explicit_page_size_above_max_results_rejected(self):
        with pytest.raises(UsageError):
            resolve_config(parse_args(["run", "--max-results", "50",
                                       "--page-size", "100"]))

    def test_invalid_rule_via_flags_is_usage_error(self):
        with pytest.raises(UsageError):
            resolve_config(parse_args(["run", "--medium-stars", "200",
                                       "--high-stars", "100"]))

    def test_main_maps_usage_error_to_exit_2(self, capsys, tmp_path):
        status = main(["run", "--config", str(tmp_path / "none.json")])
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--bogus"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flags,config", [
        (["--min-interval-ms", "-1"], None),
        (["--arxiv-delay-ms", "-5"], None),
        ([], {"min_interval_ms": -1}),
    ])
    def test_negative_interval_exits_2(self, capsys, tmp_path, flags, config):
        if config is not None:
            path = tmp_path / "settings.json"
            path.write_text(json.dumps(config))
            flags = ["--config", str(path)]
        status = main([
            "run", "--out-dir", str(tmp_path),
            "--arxiv-base-url", "http://127.0.0.1:9/q",
            "--github-base-url", "http://127.0.0.1:9",
            *flags,
        ])
        assert status == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"normalize_dates": "false"},
        {"include_anonymous": "no"},
        {"arxiv_delay_ms": 2.9},
        {"terms": "icu"},
        {"max_results": True},
        {"out_dir": 5},
    ])
    def test_mistyped_config_value_exits_2(self, capsys, tmp_path, config):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(config))
        status = main([
            "run", "--config", str(path), "--out-dir", str(tmp_path),
            "--arxiv-base-url", "http://127.0.0.1:9/q",
            "--github-base-url", "http://127.0.0.1:9",
        ])
        assert status == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert next(iter(config)) in err

    def test_null_config_value_where_the_default_is_none(self, tmp_path):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps({"min_interval_ms": None}))
        cfg = resolve_config(parse_args(["run", "--config", str(path)]))
        assert cfg.min_interval_ms is None


class TestClientWiring:
    def test_flags_reach_the_clients_the_cli_builds(self, monkeypatch):
        """No client is injected: execute_pipeline builds both from cfg."""
        monkeypatch.setenv("MY_TOKEN", "sekret")
        entries = [
            atom_entry("2101.00001", "alpha", "Code: https://github.com/demo/alpha."),
            atom_entry("2101.00002", "beta", "plain abstract"),
        ]
        sent = []

        def get(session, url, params=None, headers=None, **kwargs):
            sent.append((time.monotonic(), url, dict(params or {}), dict(headers or {})))
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
            "--token-env", "MY_TOKEN", "--arxiv-delay-ms", "0",
            "--normalize-dates", "--max-results", "2", "--page-size", "1",
        ]))
        assert execute_pipeline(cfg, KnowledgeBase(), out=io.StringIO()) == 0

        feed = [call for call in sent if call[1].startswith("http://feed.test")]
        api = [call for call in sent if call[1].startswith("http://gh.test")]
        assert len(feed) == 2 and len(api) == 2
        for _, _, params, _ in feed:
            assert "submittedDate:[201901010000 TO 202412312359]" in params["search_query"]
        assert feed[1][0] - feed[0][0] < 1.0  # 0 ms, not the default 3 s
        for _, _, _, headers in api:
            assert headers["Authorization"] == "Bearer sekret"
        assert api[1][0] - api[0][0] >= AUTHENTICATED_MIN_INTERVAL
        assert _make_github_client(cfg)._gate.min_interval == AUTHENTICATED_MIN_INTERVAL

        paced = resolve_config(parse_args([
            "run", "--token-env", "MY_TOKEN", "--min-interval-ms", "250",
        ]))
        assert _make_github_client(paced)._gate.min_interval == 0.25


class TestOfflineGuarantee:
    def test_injected_pipeline_never_touches_the_network(self, tmp_path, monkeypatch):
        def no_connect(self, *args, **kwargs):
            raise AssertionError("network access attempted")

        monkeypatch.setattr(socket.socket, "connect", no_connect)
        papers, _ = build_corpus(n_papers=200)
        status, _, _ = run_pipeline(tmp_path, papers, reference_fixtures())
        assert status == 0
        assert cmd_selfcheck(TierRule(30, 100), out=io.StringIO()) == 0


def _child_env() -> dict[str, str]:
    """The environment, with the src directory this process imported
    repoharvest from put first on PYTHONPATH."""
    src = str(Path(repoharvest.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


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

    def test_run_monitor_selfcheck_over_local_servers(self, tmp_path):
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
                "--arxiv-delay-ms", "0", "--min-interval-ms", "0",
                "--page-size", "4",
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
                "--arxiv-delay-ms", "0", "--min-interval-ms", "0",
                "--page-size", "4",
            ]
            gh_app.repos["demo/beta"]["stars"] = 40
            result = subprocess.run(monitor_cmd, capture_output=True, text=True,
                                    timeout=60, env=env)
            assert result.returncode == 0, result.stderr
            assert "Updated (1):" in result.stdout
            assert "stars 31 -> 40" in result.stdout

        check = subprocess.run(
            [sys.executable, "-m", "repoharvest", "selfcheck"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert check.returncode == 0
        assert "23/23" in check.stdout
