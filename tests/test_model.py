"""A model-based test of ``run``/``monitor`` sequences.

Hypothesis drives a small GitHub world through generated steps: a paper
names a repository under any name it has had, a repository's counts
change, it is renamed or deleted, its contributors requests fail, the
server asks the client to wait, the quota runs out, and ``run`` then
``monitor`` are called over the in-process fakes of ``conftest``, with no
sockets. After each command the outputs, the log and the requests sent are
checked against invariants that hold for any sequence.
"""
from __future__ import annotations

import io
import itertools
import logging
import re
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Optional

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from conftest import FakeClock, FakeResponse, FakeSession, assert_output_set_matches, \
    atom_entry, atom_feed
from repoharvest.arxiv import ArxivClient
from repoharvest.cli import build_parser, cmd_monitor, cmd_run, resolve_config
from repoharvest.github import GitHubClient, ThrottlePolicy
from repoharvest.kb import load_records, save_records
from repoharvest.links import repo_from_name
from repoharvest.throttle import LONG_WAIT

#: The repositories of the world, by the name each starts with.
REPOS = ("demo/alpha", "demo/beta", "Lab/Gamma")
START = datetime(2024, 1, 1, tzinfo=timezone.utc)
#: GitHubClient's default backoff before its first retry, in seconds.
BACKOFF = 1.0
_FAILED = re.compile(r"GitHub fetch failed for ([^:]+): (\w+) ")
_SPENT = FakeResponse(status_code=403, headers={"X-RateLimit-Remaining": "0"},
                      json_body={"message": "API rate limit exceeded"})


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
        # each repository's names, in order: the last is GitHub's current one
        self.world = {slug: {"names": [slug], "stars": 10, "forks": 1, "open_issues": 0,
                             "contributors": 2, "version": 0} for slug in REPOS}
        self.names = {slug.lower(): slug for slug in REPOS}  # any name had -> REPOS key
        self.renames = 0
        self.failing: set[str] = set()  # contributors answer 500 until the next command ends
        self.deleted: set[str] = set()  # every name answers 404 from now on
        # Retry-After seconds of the 429 the next command's first GitHub
        # request gets, and that request's index among the command's calls
        self.retry_after: Optional[int] = None
        self.asked_to_wait: Optional[int] = None
        # GitHub requests until the one that spends the quota, which stays
        # spent until the command ends: the next one runs a day later
        self.quota: Optional[int] = None
        self.papers: list[tuple[str, str, str]] = []
        self.named: set[str] = set()  # "owner/name" lowercased, as papers named them
        self.commands = 0

    def teardown(self) -> None:
        self.scratch.cleanup()

    # -- the world ---------------------------------------------------------

    def _paper_names(self, name: str) -> None:
        number = len(self.papers)
        self.papers.append((f"2101.{number:05d}", f"paper {number}",
                            f"Code: https://github.com/{name}."))
        self.named.add(name.lower())

    @initialize()
    def a_paper_names_each_repository(self):
        """So that every command has requests to send, and to cut short."""
        for slug in REPOS:
            self._paper_names(slug)

    @rule(slug=st.sampled_from(REPOS), which=st.integers(0, 2),
          casing=st.sampled_from([str, str.lower, str.upper, str.swapcase]))
    def a_paper_names_a_repository(self, slug, which, casing):
        names = self.world[slug]["names"]
        self._paper_names(casing(names[which % len(names)]))

    @rule(slug=st.sampled_from(REPOS), stars=st.integers(0, 150),
          open_issues=st.integers(0, 3), contributors=st.integers(1, 5))
    def its_counts_change(self, slug, stars, open_issues, contributors):
        repo = self.world[slug]
        repo.update(stars=stars, open_issues=open_issues, contributors=contributors,
                    version=repo["version"] + 1)  # a new ETag

    @rule(slug=st.sampled_from(REPOS))
    def it_is_renamed(self, slug):
        """Its old names answer 301 to the new one."""
        self.renames += 1
        repo = self.world[slug]
        repo["names"].append(f"{slug}-{self.renames}")
        repo["version"] += 1  # the body's full_name, and so its ETag, changed
        self.names[repo["names"][-1].lower()] = slug

    @rule(slug=st.sampled_from(REPOS))
    def its_contributors_requests_fail(self, slug):
        self.failing.add(slug)

    @rule(slug=st.sampled_from(REPOS))
    def it_is_deleted(self, slug):
        """Every name it has had, or gets, answers 404."""
        self.deleted.add(slug)

    @rule(k=st.integers(1, 6))
    def the_quota_runs_out(self, k):
        """The k-th GitHub request from now, not counting a 429 that asks to
        wait, answers that the quota is spent."""
        self.quota = k

    @rule(k=st.sampled_from([0, 2, int(LONG_WAIT) + 1]))
    def the_server_asks_to_wait(self, k):
        """The next GitHub request answers 429 with Retry-After: k, shorter
        than the backoff, longer, or long enough to be warned about."""
        self.retry_after = k

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

    def _github(self) -> tuple[GitHubClient, FakeSession]:
        def answer(url, params):
            if self.retry_after is not None and self.asked_to_wait is None:
                self.asked_to_wait = len(session.calls) - 1
                return FakeResponse(status_code=429,
                                    headers={"Retry-After": str(self.retry_after)})
            if self.quota is not None:
                self.quota -= 1
                if self.quota <= 0:
                    return _SPENT
            path = url.split("/repos/", 1)[1]
            name = path.removesuffix("/contributors")
            slug = self.names[name.lower()]
            if slug in self.deleted:
                return FakeResponse(status_code=404, json_body={"message": "Not Found"})
            repo = self.world[slug]
            current = repo["names"][-1]
            if name.lower() != current.lower():
                return FakeResponse(status_code=301, headers={
                    "Location": f"http://gh.test/repos/{current}{path[len(name):]}"})
            if path.endswith("/contributors"):
                if slug in self.failing:
                    return FakeResponse(status_code=500, text="boom")
                return FakeResponse(json_body=[{"login": f"u{k}"}
                                               for k in range(repo["contributors"])])
            etag = f'"{slug}-{repo["version"]}"'
            if session.headers[-1].get("If-None-Match") == etag:
                return FakeResponse(status_code=304, headers={"ETag": etag})
            return FakeResponse(headers={"ETag": etag}, json_body={
                "full_name": current, "description": None, "stargazers_count": repo["stars"],
                "forks_count": repo["forks"], "open_issues_count": repo["open_issues"]})

        clock = FakeClock()
        session = FakeSession(answer, clock=clock)
        ticks = itertools.count()
        start = START + timedelta(days=self.commands)  # each command observes later
        client = GitHubClient(base_url="http://gh.test", policy=ThrottlePolicy(min_interval=0.0),
                              session=session, clock=clock, sleep=clock.sleep,
                              now=lambda: start + timedelta(seconds=next(ticks)))
        return client, session

    def _command(self, command):
        cfg = resolve_config(build_parser().parse_args([command, "--out-dir", str(self.out_dir)]))
        began = START + timedelta(days=self.commands)
        github, session = self._github()
        clients = (self._feed(), github)
        store = self.out_dir / "kb.jsonl"
        before = load_records(store) if self.commands else None
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
        spent = self.quota is not None and self.quota <= 0
        if spent:
            self.quota = None
        waited = self.retry_after, self.asked_to_wait
        self.retry_after = self.asked_to_wait = None
        self.commands += 1
        assert status == 0
        assert "None" not in out.getvalue()
        self._check_wait(log.records, session, *waited)
        self._check_outputs(log.records, session, before, began, spent)

    # -- the invariants ----------------------------------------------------

    def _current(self, name: str) -> str:
        """GitHub's current name, lowercased, of the repository ``name`` names."""
        return self.world[self.names[name.lower()]]["names"][-1].lower()

    @staticmethod
    def _check_wait(records, session, retry_after, asked_to_wait):
        """The request after a 429 goes out no sooner than the longer of the
        backoff and its Retry-After, and only a wait past LONG_WAIT is
        warned about."""
        long_waits = [record for record in records
                      if record.getMessage().endswith("before retrying")]
        if retry_after is None:
            assert long_waits == []
            return
        assert asked_to_wait is not None  # every command sends a GitHub request
        times = session.times
        assert len(times) > asked_to_wait + 1  # a 429 is retried
        delay = max(BACKOFF, retry_after)
        assert times[asked_to_wait + 1] - times[asked_to_wait] >= delay
        assert len(long_waits) == (delay > LONG_WAIT)

    def _check_outputs(self, records, session, before, began, spent):
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

        # the answer that spends the quota is the last request sent
        assert 403 not in session.statuses[:-1]
        assert (session.statuses[-1:] == [403]) == spent

        failed: dict[str, str] = {}  # each name logged as failed, and its kind
        for record in records:
            match = _FAILED.match(record.getMessage())
            if match:
                assert match[1].lower() not in failed  # a failure is logged once
                failed[match[1].lower()] = match[2]
                if match[2] not in ("rate_limited", "not_found"):
                    assert record.getMessage().endswith("; its snapshot was kept")
        assert set(failed) <= self.named
        assert spent or "rate_limited" not in failed.values()

        def refreshed(entry) -> bool:
            return entry is not None and entry.latest.fetched_at >= began

        for identity in self.named:
            ref = repo_from_name(identity)
            entry = kb.get(ref)
            if self.names[identity] in self.deleted:
                # each name of a deleted repository is logged as not found,
                # unless the quota ran out first, and the store keeps what
                # it held: nothing on a run, the entry as it was on monitor
                assert failed[identity] == "not_found" or (
                    spent and failed[identity] == "rate_limited")
                assert entry == (None if before is None else before.get(ref))
                continue
            if not refreshed(entry):
                # only a spent quota leaves a name unanswered, and then the
                # name is logged as rate limited
                assert failed.get(identity) == "rate_limited"
                continue
            # each name answered is stored, a kept snapshot after a logged
            # failure included, under GitHub's current name and with the
            # counts /repos serves
            repo = self.world[self.names[identity]]
            assert "/".join(entry.ref.identity()) == self._current(identity)
            assert (entry.latest.stars, entry.latest.open_issues) == (
                repo["stars"], repo["open_issues"])
        for (_, url, _), status in zip(session.calls, session.statuses):
            if status == 200 and not url.endswith("/contributors"):  # a /repos answer
                assert refreshed(kb.get(repo_from_name(url.split("/repos/", 1)[1])))
        for entry in kb:  # a stored name is current unless the quota ran out first
            identity = "/".join(entry.ref.identity())  # or the repository is gone
            assert identity == self._current(identity) or not refreshed(entry) and (
                spent or self.names[identity] in self.deleted)


HarvestMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=12, derandomize=True, deadline=None, database=None)
TestHarvestSequences = HarvestMachine.TestCase
