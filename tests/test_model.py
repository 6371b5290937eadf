"""A model-based test of ``run``/``monitor`` sequences.

Hypothesis drives a small GitHub world through generated steps: a paper
names a repository under any name it has had, a repository's counts
change, it is renamed or deleted, another repository takes a name it gave
up, its contributors requests fail, the server asks the client to wait,
the quota runs out, a feed page fails, and ``run`` then ``monitor`` are
called over the in-process fakes of ``conftest``, with no sockets. Each
command's feed serves every paper as a new version (``vN``). After each
command the outputs, the log and the requests sent are checked against
invariants that hold for any sequence, and the store, the unversioned
paper ids it holds, and what ``monitor`` prints, against a plain-dict
model of the expected store.

Tier-1 runs 100 derandomized examples. The ``model-random`` profile that
``conftest`` registers runs 1000 random ones of up to 20 steps:

    pytest tests/test_model.py --hypothesis-profile=model-random
"""
from __future__ import annotations

import io
import itertools
import json
import logging
import re
import tempfile
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from collections import defaultdict
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
from repoharvest.throttle import LONG_WAIT, MAX_WAIT

#: The repositories of the world, by the name each starts with.
REPOS = ("demo/alpha", "demo/beta", "Lab/Gamma")
START = datetime(2024, 1, 1, tzinfo=timezone.utc)
#: GitHubClient's default backoff before its first retry, in seconds.
BACKOFF = 1.0
#: Papers per feed page, so that every feed has more than one page to fail.
PAGE_SIZE = 2
_FAILED = re.compile(r"GitHub fetch failed for ([^:]+): (\w+) ")
_SPENT = FakeResponse(status_code=403, headers={"X-RateLimit-Remaining": "0"},
                      json_body={"message": "API rate limit exceeded"})
#: The counts monitor describes an update by, in RepoMetrics.counts() order.
_LABELS = ("stars", "forks", "open issues", "contributors")
_SECTION = re.compile(r"(Added|Updated|Unchanged) \((\d+)\):")


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
        # (giver, taker, name, k): the taker is renamed to the name the giver
        # gave up once k GitHub requests of a later command have been sent
        self.taking: Optional[tuple[str, str, str, int]] = None
        self.failing: set[str] = set()  # contributors answer 500 until the next command ends
        self.deleted: set[str] = set()  # every name answers 404 from now on
        # Retry-After seconds of the 429 the next command's first GitHub
        # request gets, and that request's index among the command's calls
        self.retry_after: Optional[int] = None
        self.asked_to_wait: Optional[int] = None
        # GitHub requests until the one that spends the quota, which stays
        # spent until the command ends: the next one runs a day later
        self.quota: Optional[int] = None
        # the page the next monitor's feed answers 503 to past its retries,
        # or its last page if it has fewer
        self.feed_fails: Optional[int] = None
        self.papers: list[tuple[str, str, str]] = []  # id without version, title, abstract
        self.mentions: list[tuple[str, str]] = []  # each paper's id and the name it gives
        self.named: set[str] = set()  # "owner/name" lowercased, as papers named them
        self.commands = 0
        # the model of the expected store: each repository stored, by its
        # REPOS key, as (the name it is stored under, its four counts)
        self.store: dict[str, tuple[str, tuple]] = {}
        # and the ids of the papers stored with it
        self.cited: defaultdict[str, set[str]] = defaultdict(set)
        # during the command in progress: the store it loaded; the repository
        # each /repos request reached, by the name requested; the name each
        # repository's /repos requests were answered under, and the
        # repositories whose contributors requests were; and the names whose
        # 301 was followed by an answer
        self.loaded = None
        self.served: dict[str, str] = {}
        self.answered: dict[str, str] = {}
        self.counted: set[str] = set()
        self.gave_up: set[str] = set()

    def teardown(self) -> None:
        self.scratch.cleanup()

    # -- the world ---------------------------------------------------------

    def _paper_names(self, name: str) -> None:
        number = len(self.papers)
        self.papers.append((f"2101.{number:05d}", f"paper {number}",
                            f"Code: https://github.com/{name}."))
        self.mentions.append((f"2101.{number:05d}", name))
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

    @precondition(lambda self: self.taking is None and any(
        len(repo["names"]) > 1 for repo in self.world.values()))
    @rule(data=st.data(), k=st.integers(0, 6))
    def another_repository_takes_a_name_it_gave_up(self, data, k):
        """``giver``, renamed at least once, is renamed again, and ``taker``
        takes the name it gave up once k GitHub requests of a later command
        have been sent: from then on that name, and each of ``taker``'s old
        names, answers as ``taker``. It waits while ``taker`` has already
        been answered in the command, and, if the store holds the name as a
        repository's own, until that name's 301 has been followed in the
        command: before then no client that knows repositories by name
        could tell the two apart. A first name is never taken: the papers
        of the first command give it, so every command requests each stored
        repository under its stored name before any other name of it."""
        giver = data.draw(st.sampled_from(
            [slug for slug in REPOS if len(self.world[slug]["names"]) > 1]), label="giver")
        taker = data.draw(st.sampled_from([slug for slug in REPOS if slug != giver]),
                          label="taker")
        self.it_is_renamed(giver)
        self.taking = (giver, taker, self.world[giver]["names"][-2], k)

    def _take(self, session: FakeSession) -> None:
        """The pending rename of another_repository_takes_a_name_it_gave_up,
        if it is due before the request ``session`` is sending, and that
        request does not follow a 301."""
        if self.taking is None or self.feed_fails is not None:  # the timing must not matter
            return
        giver, taker, name, k = self.taking
        held = self.loaded.get(repo_from_name(name)) if self.loaded is not None else None
        due = len(session.calls) - 1 >= k and session.statuses[-1:] != [301]
        if not due or taker in self.answered or (
                held is not None and "/".join(held.ref.identity()) == name.lower()
                and name.lower() not in self.gave_up):
            return
        self.taking = None
        self.world[giver]["names"].remove(name)
        self.world[taker]["names"].append(name)
        self.world[taker]["version"] += 1
        self.names[name.lower()] = taker

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

    @rule(k=st.sampled_from([0, 2, int(LONG_WAIT) + 1, int(MAX_WAIT) + 1]))
    def the_server_asks_to_wait(self, k):
        """The next GitHub request answers 429 with Retry-After: k, shorter
        than the backoff, longer, long enough to be warned about, or too
        long to wait, which spends the quota."""
        self.retry_after = k

    @precondition(lambda self: self.commands > 0)
    @rule(page=st.integers(0, 3))
    def a_feed_page_fails(self, page):
        """The next command, a monitor, fails on that feed page."""
        self.feed_fails = page

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
        entries = [atom_entry(f"{paper_id}v{self.commands + 1}", *text)
                   for paper_id, *text in self.papers]
        failing = None if self.feed_fails is None else PAGE_SIZE * min(
            self.feed_fails, (len(entries) - 1) // PAGE_SIZE)

        def answer(url, params):
            start, count = params["start"], params["max_results"]
            if start == failing:
                return FakeResponse(status_code=503, text="busy")
            return FakeResponse(text=atom_feed(entries[start:start + count], total=len(entries)))

        clock = FakeClock()
        return ArxivClient(base_url="http://feed.test/q", delay=0.0,
                           session=FakeSession(answer, clock=clock), clock=clock,
                           sleep=clock.sleep)

    def _github(self) -> tuple[GitHubClient, FakeSession]:
        def answer(url, params):
            self._take(session)
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
            if not path.endswith("/contributors"):
                self.served.setdefault(name.lower(), slug)
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
                self.counted.add(slug)
                return FakeResponse(json_body=[{"login": f"u{k}"}
                                               for k in range(repo["contributors"])])
            etag = f'"{slug}-{repo["version"]}"'
            self.answered[slug] = current
            if session.statuses[-1:] == [301]:  # the name that hopped here
                self.gave_up.add(session.calls[-2][1].split("/repos/", 1)[1].lower())
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
        cfg = resolve_config(build_parser().parse_args(
            [command, "--out-dir", str(self.out_dir), "--page-size", str(PAGE_SIZE)]))
        began = START + timedelta(days=self.commands)
        github, session = self._github()
        clients = (self._feed(), github)
        store = self.out_dir / "kb.jsonl"
        before = self.loaded = load_records(store) if self.commands else None
        outputs = {path.name: path.read_bytes() for path in self.out_dir.glob("*")}
        self.served, self.answered, self.counted, self.gave_up = {}, {}, set(), set()
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
        if self.feed_fails is not None:
            self._check_feed_failure(status, log.records, outputs)
            return
        spent = self.quota is not None and self.quota <= 0
        if spent:
            self.quota = None
        waited = self.retry_after, self.asked_to_wait
        refused = (self.retry_after or 0) > MAX_WAIT  # a wait too long spends the quota
        self.retry_after = self.asked_to_wait = None
        self.commands += 1
        assert status == 0
        assert "None" not in out.getvalue()
        self._check_wait(log.records, session, *waited)
        self._check_outputs(log.records, session, before, began, spent or refused)
        self._check_model(command, out.getvalue(), session, before)

    # -- the invariants ----------------------------------------------------

    def _check_feed_failure(self, status, records, outputs):
        """A monitor whose feed fails exits 1 and leaves the output set as
        it was, so the model does not change. How many GitHub requests it
        sent first depends on thread timing, so it also ends the quota and
        the wait it was asked for, and the next command starts from none."""
        self.feed_fails = self.quota = self.retry_after = self.asked_to_wait = None
        self.commands += 1
        assert status == 1
        assert any(record.getMessage().startswith("paper retrieval failed: HTTP 503")
                   for record in records)
        assert {path.name: path.read_bytes() for path in self.out_dir.glob("*")} == outputs

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
        if retry_after > MAX_WAIT:  # not waited for: nothing more is sent
            assert session.statuses == [429] and long_waits == []
            assert any(f"which asks for a {retry_after} s wait" in record.getMessage()
                       for record in records)
            return
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
        assert (session.statuses[-1:] in ([403], [429])) == spent

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
            # a name is requested as the stored entry that holds it, if one
            # does, and reaches the repository GitHub then gives that name
            ref = repo_from_name(identity)
            held = None if before is None else before.get(ref)
            requested = "/".join((held.ref if held else ref).identity())
            slug = self.served.get(requested, self.names[identity])
            if slug in self.deleted:
                # each name of a deleted repository is logged as not found,
                # unless the quota ran out first, and the store keeps what
                # it held: nothing on a run, the entry as it was on monitor,
                # but for the aliases another repository answered under in
                # this command, which that repository took
                assert failed[identity] == "not_found" or (
                    spent and failed[identity] == "rate_limited")
                entry = kb.get(repo_from_name(requested))
                if held is None:
                    assert entry is None
                    continue
                taken = {name.lower() for name in self.answered.values()}
                assert entry.aliases == {alias for alias in held.aliases
                                         if "/".join(alias.identity()) not in taken}
                assert replace(entry, aliases=held.aliases) == held
                continue
            if slug not in self.answered:
                # only a spent quota leaves a name unanswered, and then the
                # name is logged as rate limited
                assert failed.get(identity) == "rate_limited"
                continue
            # each repository answered is stored, a kept snapshot after a
            # logged failure included, under the name GitHub answered with
            # and with the counts /repos serves
            entry = kb.get(repo_from_name(self.answered[slug]))
            repo = self.world[slug]
            assert refreshed(entry)
            assert "/".join(entry.ref.identity()) == self.answered[slug].lower()
            assert (entry.latest.stars, entry.latest.open_issues) == (
                repo["stars"], repo["open_issues"])
        for (_, url, _), status in zip(session.calls, session.statuses):
            if status == 200 and not url.endswith("/contributors"):  # a /repos answer
                assert refreshed(kb.get(repo_from_name(url.split("/repos/", 1)[1])))
        for entry in kb:  # a stored name is current unless the quota ran out first
            identity = "/".join(entry.ref.identity())  # or the repository is gone
            assert identity == self._current(identity) or not refreshed(entry) and (
                spent or self.names[identity] in self.deleted)

    def _check_model(self, command, output, session, kb_before):
        """The store holds what the model expects, and monitor lists each
        repository under the section the model gives it. A repository
        answered is stored under the name GitHub answered with and with the
        counts it serves, its contributors count kept unless counted again;
        any other keeps what it had. Its papers only grow: a name gets a
        snapshot when the /repos request for the name it is requested under
        (the stored entry's, if one holds it) ends in 200 or 304, or when
        that name is one such a request resolved to. Each paper that gives
        such a name is stored with the repository that request reached, by
        its id without version."""
        resolved = set()
        for i, ((_, url, _), status) in enumerate(zip(session.calls, session.statuses)):
            if status in (200, 304) and not url.endswith("/contributors"):
                resolved.add(url.split("/repos/", 1)[1].lower())
                if i and session.statuses[i - 1] == 301:  # the old name's hop
                    resolved.add(session.calls[i - 1][1].split("/repos/", 1)[1].lower())
        for paper_id, name in self.mentions:
            held = kb_before.get(repo_from_name(name)) if kb_before is not None else None
            requested = "/".join((held.ref if held else repo_from_name(name)).identity())
            if requested in resolved:
                self.cited[self.served[requested]].add(paper_id)
        before = dict(self.store)
        for slug, answered_as in self.answered.items():
            repo = self.world[slug]
            kept = before[slug][1][3] if slug in before else None
            self.store[slug] = (answered_as, (
                repo["stars"], repo["forks"], repo["open_issues"],
                repo["contributors"] if slug in self.counted else kept))
        kb = load_records(self.out_dir / "kb.jsonl")
        assert {entry.ref.canonical_url: entry.latest.counts() for entry in kb} == {
            f"https://github.com/{name}": counts for name, counts in self.store.values()}
        written = map(json.loads, (self.out_dir / "kb.jsonl").read_text().splitlines())
        assert {line["canonical_url"]: line["source_papers"] for line in written} == {
            f"https://github.com/{name}": sorted(self.cited[slug])
            for slug, (name, _) in self.store.items()}
        if command != "monitor":
            return
        expected: dict[str, list[str]] = {"Added": [], "Updated": [], "Unchanged": []}
        for slug, (name, counts) in self.store.items():
            url = f"https://github.com/{name}"
            if slug not in before:
                expected["Added"].append(url)
            elif counts != before[slug][1]:
                shown = [["unknown" if count is None else count for count in c]
                         for c in (before[slug][1], counts)]
                expected["Updated"].append(url + ": " + ", ".join(
                    f"{label} {old} -> {new}" for label, old, new in zip(_LABELS, *shown)
                    if old != new))
            else:
                expected["Unchanged"].append(url)
        printed: dict[str, list[str]] = {}
        for line in output[output.rindex("\nAdded ("):].splitlines()[1:]:
            header = _SECTION.fullmatch(line)
            if header:
                section = printed.setdefault(header[1], [])
                assert int(header[2]) == len(expected[header[1]])
            else:
                section.append(line.removeprefix("  "))
        assert {name: sorted(lines) for name, lines in printed.items()} == {
            name: sorted(lines) for name, lines in expected.items()}


HarvestMachine.TestCase.settings = settings() if (
    settings.get_current_profile_name() == "model-random") else settings(
    max_examples=100, stateful_step_count=12, derandomize=True, deadline=None, database=None)
TestHarvestSequences = HarvestMachine.TestCase
