"""A model-based test of ``run``/``monitor`` sequences.

Hypothesis drives a small GitHub world through generated steps: a paper
names a repository, a repository's counts change, its contributors
requests fail, and ``run`` then ``monitor`` are called over the in-process
fakes of ``conftest``, with no sockets. After each command the outputs and
the log are checked against invariants that hold for any sequence.
Renames, deletions and a spent quota are not modelled yet.
"""
from __future__ import annotations

import io
import itertools
import logging
import re
import tempfile
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from conftest import FakeClock, FakeResponse, FakeSession, assert_output_set_matches, \
    atom_entry, atom_feed
from repoharvest.arxiv import ArxivClient
from repoharvest.cli import build_parser, cmd_monitor, cmd_run, resolve_config
from repoharvest.github import GitHubClient, ThrottlePolicy
from repoharvest.kb import load_records, save_records
from repoharvest.links import repo_from_name

#: The repositories of the world, under GitHub's own names.
REPOS = ("demo/alpha", "demo/beta", "Lab/Gamma")
_BY_IDENTITY = {slug.lower(): slug for slug in REPOS}
START = datetime(2024, 1, 1, tzinfo=timezone.utc)
_FAILED = re.compile(r"GitHub fetch failed for ([^:]+): ")


class _Records(logging.Handler):
    """Keeps every record the program logs."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


class HarvestMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.scratch = tempfile.TemporaryDirectory()
        self.out_dir = Path(self.scratch.name) / "out"
        self.world = {slug: {"stars": 10, "forks": 1, "open_issues": 0, "contributors": 2,
                             "version": 0} for slug in REPOS}
        self.failing: set[str] = set()  # contributors answer 500 until the next command ends
        self.papers: list[tuple[str, str, str]] = []
        self.named: set[str] = set()  # "owner/name" lowercased, as papers named them
        self.commands = 0

    def teardown(self) -> None:
        self.scratch.cleanup()

    # -- the world ---------------------------------------------------------

    @rule(slug=st.sampled_from(REPOS),
          casing=st.sampled_from([str, str.lower, str.upper, str.swapcase]))
    def a_paper_names_a_repository(self, slug, casing):
        number = len(self.papers)
        self.papers.append((f"2101.{number:05d}", f"paper {number}",
                            f"Code: https://github.com/{casing(slug)}."))
        self.named.add(slug.lower())

    @rule(slug=st.sampled_from(REPOS), stars=st.integers(0, 150),
          open_issues=st.integers(0, 3), contributors=st.integers(1, 5))
    def its_counts_change(self, slug, stars, open_issues, contributors):
        repo = self.world[slug]
        repo.update(stars=stars, open_issues=open_issues, contributors=contributors,
                    version=repo["version"] + 1)  # a new ETag

    @rule(slug=st.sampled_from(REPOS))
    def its_contributors_requests_fail(self, slug):
        self.failing.add(slug)

    # -- the commands ------------------------------------------------------

    @precondition(lambda self: self.commands == 0)
    @rule()
    def run(self):
        self._command("run")

    @precondition(lambda self: self.commands > 0)
    @rule()
    def monitor(self):
        self._command("monitor")

    def _feed(self) -> ArxivClient:
        entries = [atom_entry(*paper) for paper in self.papers]

        def answer(url, params):
            start, count = params["start"], params["max_results"]
            return FakeResponse(text=atom_feed(entries[start:start + count], total=len(entries)))

        clock = FakeClock()
        return ArxivClient(base_url="http://feed.test/q", delay=0.0,
                           session=FakeSession(answer, clock=clock), clock=clock,
                           sleep=clock.sleep)

    def _github(self) -> GitHubClient:
        def answer(url, params):
            path = url.split("/repos/", 1)[1]
            slug = _BY_IDENTITY[path.removesuffix("/contributors").lower()]
            repo = self.world[slug]
            if path.endswith("/contributors"):
                if slug in self.failing:
                    return FakeResponse(status_code=500, text="boom")
                return FakeResponse(json_body=[{"login": f"u{k}"}
                                               for k in range(repo["contributors"])])
            etag = f'"{slug}-{repo["version"]}"'
            if session.headers[-1].get("If-None-Match") == etag:
                return FakeResponse(status_code=304, headers={"ETag": etag})
            return FakeResponse(headers={"ETag": etag}, json_body={
                "full_name": slug, "description": None, "stargazers_count": repo["stars"],
                "forks_count": repo["forks"], "open_issues_count": repo["open_issues"]})

        clock = FakeClock()
        session = FakeSession(answer, clock=clock)
        ticks = itertools.count()
        start = START + timedelta(days=self.commands)  # each command observes later
        return GitHubClient(base_url="http://gh.test", policy=ThrottlePolicy(min_interval=0.0),
                            session=session, clock=clock, sleep=clock.sleep,
                            now=lambda: start + timedelta(seconds=next(ticks)))

    def _command(self, command):
        cfg = resolve_config(build_parser().parse_args([command, "--out-dir", str(self.out_dir)]))
        clients = (self._feed(), self._github())
        out, log = io.StringIO(), _Records()
        logger = logging.getLogger("repoharvest")
        logger.addHandler(log)
        try:
            if command == "run":
                status = cmd_run(cfg, *clients, out)
            else:
                status = cmd_monitor(cfg, None, *clients, out)
        finally:
            logger.removeHandler(log)
        self.failing.clear()
        self.commands += 1
        assert status == 0
        assert "None" not in out.getvalue()
        self._check_outputs(log.records)

    # -- the invariants ----------------------------------------------------

    def _check_outputs(self, records):
        store = self.out_dir / "kb.jsonl"
        kb = load_records(store)
        again = Path(self.scratch.name) / "again.jsonl"
        save_records(kb, again)
        assert again.read_bytes() == store.read_bytes()
        assert_output_set_matches(self.out_dir)
        for entry in kb:
            times = [snapshot.fetched_at for snapshot in entry.history]
            times.append(entry.latest.fetched_at)
            assert all(earlier < later for earlier, later in zip(times, times[1:]))

        failed = Counter()
        for record in records:
            match = _FAILED.match(record.getMessage())
            if match:
                failed[match[1].lower()] += 1
                assert record.getMessage().endswith("; its snapshot was kept")
        assert set(failed) <= self.named
        for identity in self.named:
            assert failed[identity] <= 1  # a failure is logged once
            # /repos never fails here, so each name is stored, a kept snapshot
            # after a logged failure included, with the counts /repos serves
            entry = kb.get(repo_from_name(identity))
            assert entry is not None
            repo = self.world[_BY_IDENTITY[identity]]
            assert (entry.latest.stars, entry.latest.open_issues) == (
                repo["stars"], repo["open_issues"])


HarvestMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=12, derandomize=True, deadline=None, database=None)
TestHarvestSequences = HarvestMachine.TestCase
