"""The benchmark workloads: set-up, one pass of the program, and the gate.

A pass calls the real ``repoharvest.cli.cmd_run`` / ``cmd_monitor`` with
injected ``ArxivClient`` and ``GitHubClient`` objects that talk over
loopback HTTP to the fakes, in real time. Every production delay is
multiplied by the workload's time scale: the feed politeness delay, the
authenticated GitHub request interval, both clients' retry backoff, the
modelled server latencies and the Retry-After hint.
"""
from __future__ import annotations

import ast
import gc
import logging
import re
import shutil
import time
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Optional

import requests

from repoharvest import arxiv as arxiv_mod
from repoharvest import cli
from repoharvest import github as github_mod
from repoharvest import kb as kb_mod
from repoharvest import throttle as throttle_mod
from repoharvest.links import LinkError

import inputs
from fakes import ArxivFeedFake, GitHubApiFake, LoopbackServer
from tracing import Tracer

TIME_SCALE = 0.1
ARXIV_LATENCY = 1.0      # modelled seconds per feed page
GITHUB_LATENCY = 0.3     # modelled seconds per REST request
RETRY_AFTER = 1.0        # seconds the quota 403 asks the client to wait
BACKOFF_BASE = 1.0       # both clients' default first backoff
TOKEN = "bench-token"


def modelled_delays() -> dict[str, float]:
    """The production delays, in seconds, before the time scale applies."""
    return {
        "arxiv_politeness": arxiv_mod.DEFAULT_DELAY,
        "github_interval": github_mod.AUTHENTICATED_MIN_INTERVAL,
        "backoff_base": BACKOFF_BASE,
        "arxiv_page_latency": ARXIV_LATENCY,
        "github_latency": GITHUB_LATENCY,
        "retry_after": RETRY_AFTER,
    }


_MONITOR_HEADER = re.compile(r"^(Added|Updated|Unchanged) \((\d+)\):$")
_OUTPUT_FILES = (kb_mod.RECORDS_FILENAME, kb_mod.TABLE_FILENAME, kb_mod.REPORT_FILENAME)


# -- what a pass must produce -----------------------------------------------


@dataclass
class Expected:
    stream_lines: list[str]                      # report lines on stdout, in order
    report_lines: list[str]                      # report.txt, sorted
    entries: dict[tuple[str, str], tuple[tuple, int]]   # identity -> (counts, history len)
    failures: set[tuple[str, str]]               # (owner, name) answering 404
    attempted: int
    arxiv_requests: int
    arxiv_formula: str
    github_requests: int
    github_formula: str
    sections: Optional[dict[str, set[str]]] = None   # monitor: Added/Updated/Unchanged URLs


def _network_expected(harvest: inputs.Harvest, repos: dict, retry_pages: int) -> tuple:
    """Request counts the program should send for ``harvest``: one feed
    request per page plus one per injected 503, and per repository one
    repo request plus max(1, ceil(contributors/100)) contributor pages,
    plus one request per 404, rename redirect and quota retry."""
    pages = harvest.pages
    walked = sum(1 + inputs.contributor_pages(repos[t.identity()].contributors) for t in harvest.ok)
    missing = len(harvest.missing)
    redirects = sum(1 for t in harvest.targets if t.renamed)
    retries = 1 if harvest.throttled in {t.identity() for t in harvest.ok} else 0
    arxiv = (pages + retry_pages,
             f"{pages} pages + {retry_pages} injected 503 retries")
    github = (walked + missing + redirects + retries,
              f"sum(1+max(1,ceil(c/100)))={walked} over {len(harvest.ok)} repos + "
              f"{missing} 404s + {redirects} redirects + {retries} retries")
    return arxiv, github


def _harvest_expected(harvest: inputs.Harvest, repos: dict, history: int,
                      sections: Optional[dict] = None) -> Expected:
    lines = [inputs.repo_line(repos[t.identity()]) for t in harvest.ok]
    (arxiv_n, arxiv_f), (github_n, github_f) = _network_expected(
        harvest, repos, 1 if harvest.failing_page >= 0 else 0)
    return Expected(
        stream_lines=lines,
        report_lines=sorted(lines),
        entries={repos[t.identity()].identity(): (repos[t.identity()].counts(), history)
                 for t in harvest.ok},
        failures={(t.owner, t.name) for t in harvest.missing},
        attempted=len(harvest.targets),
        arxiv_requests=arxiv_n,
        arxiv_formula=arxiv_f,
        github_requests=github_n,
        github_formula=github_f,
        sections=sections,
    )


# -- one set-up -------------------------------------------------------------


@dataclass
class Env:
    """Fakes, inputs and expectations for one workload instance."""

    command: str
    workdir: Path
    harvest: inputs.Harvest
    arxiv: ArxivFeedFake
    github: GitHubApiFake
    expected: Expected
    scale: float
    previous: Optional[Path] = None
    servers: list = field(default_factory=list)
    arxiv_url: str = ""

    @property
    def out_dir(self) -> Path:
        return self.workdir / "out"

    def close(self) -> None:
        while self.servers:
            self.servers.pop().close()


def _start(env: Env) -> None:
    try:
        arxiv_server = LoopbackServer(env.arxiv)
        env.servers.append(arxiv_server)
        github_server = LoopbackServer(env.github)
        env.servers.append(github_server)
        env.github.base_url = github_server.url
        env.arxiv.prerender(env.harvest.page_size)
        env.github.prerender()
        env.arxiv_url = arxiv_server.url + "/api/query"
    except BaseException:
        env.close()
        raise


def _fakes(harvest: inputs.Harvest, repos: dict, scale: float) -> tuple[ArxivFeedFake, GitHubApiFake]:
    failing = [harvest.failing_page * harvest.page_size] if harvest.failing_page >= 0 else []
    feed = ArxivFeedFake(harvest.papers, latency=ARXIV_LATENCY * scale, failing_starts=failing)
    api = GitHubApiFake(
        [repos[t.identity()] for t in harvest.ok],
        latency=GITHUB_LATENCY * scale,
        missing=[t.identity() for t in harvest.missing],
        renamed={t.identity(): t.repo.repo_id for t in harvest.targets if t.renamed},
        throttled=[harvest.throttled] if harvest.throttled[0] else [],
        retry_after=RETRY_AFTER * scale,
    )
    return feed, api


def _repos(harvest: inputs.Harvest) -> dict:
    return {t.identity(): t.repo for t in harvest.ok}


class Workload:
    name = ""
    command = ""
    scale = TIME_SCALE
    why = ""

    def setup(self, seed: int, workdir: Path) -> Env:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class HarvestCold(Workload):
    name = "harvest-cold"
    command = "run"
    why = ("A first harvest in production shape: waiting on both paced APIs "
           "dominates and the store is tiny, so request cuts and overlap show "
           "here and store changes do not.")

    def setup(self, seed: int, workdir: Path) -> Env:
        harvest = inputs.harvest_corpus(seed)
        repos = _repos(harvest)
        feed, api = _fakes(harvest, repos, self.scale)
        env = Env(self.command, workdir, harvest, feed, api,
                  _harvest_expected(harvest, repos, history=0), self.scale)
        _start(env)
        return env

    def describe(self) -> dict:
        return {
            "command": "run into an empty out-dir",
            "papers": inputs.HARVEST_PAPERS,
            "feed_pages": inputs.HARVEST_PAPERS // 100,
            "repositories": len(inputs.HARVEST_CONTRIBUTOR_BUCKETS) + inputs.HARVEST_MISSING,
            "contributor_buckets": {"0 (204)": 2, "1-100": 16, "101-200": 8, "201-250": 4},
            "store_entries_before": 0,
            "faults": ["two repositories answer 404",
                       "one repository is renamed (301 to /repositories/{id})",
                       "one quota 403 with Retry-After on a repository's first request",
                       "one feed page answers 503 once"],
        }


class RefreshChanged(Workload):
    name = "refresh-changed"
    command = "monitor"
    why = ("Steady-state periodic refresh: the same network layers, but the "
           "store updates, appends history and diffs; the only workload where "
           "conditional requests can save quota.")

    def setup(self, seed: int, workdir: Path) -> Env:
        harvest = inputs.harvest_corpus(seed)
        repos = _repos(harvest)
        feed, api = _fakes(harvest, repos, self.scale)
        # the previous store: one unpaced cold harvest, stamped a day ago
        cold = Env("run", workdir / "cold", harvest, feed, api,
                   _harvest_expected(harvest, repos, history=0), 0.0)
        feed.latency = api.latency = 0.0
        _start(cold)
        day_ago = github_mod.utc_now() - timedelta(days=1)
        try:
            problems = check(cold, run_pass(cold, now=lambda: day_ago))
        except BaseException:
            cold.close()
            raise
        if problems:
            cold.close()
            raise RuntimeError("set-up harvest failed: " + "; ".join(problems))
        feed.latency = ARXIV_LATENCY * self.scale
        api.latency = GITHUB_LATENCY * self.scale
        changed = inputs.changed_repos(harvest, seed)
        for identity, repo in changed.items():
            api.put(repo)
            repos[identity] = repo
        api.prerender()
        by_url = {t.identity(): t.stored_url for t in harvest.ok}
        sections = {
            "Added": set(),
            "Updated": {by_url[i] for i in changed},
            "Unchanged": {by_url[i] for i in by_url if i not in changed},
        }
        previous = workdir / "previous.jsonl"
        shutil.copyfile(cold.out_dir / kb_mod.RECORDS_FILENAME, previous)
        env = Env(self.command, workdir, harvest, feed, api,
                  _harvest_expected(harvest, repos, history=1, sections=sections),
                  self.scale, previous=previous, servers=cold.servers)
        env.arxiv_url = cold.arxiv_url
        return env

    def describe(self) -> dict:
        return {
            "command": "monitor against the store an unpaced harvest-cold pass wrote during set-up",
            "papers": inputs.HARVEST_PAPERS,
            "repositories": len(inputs.HARVEST_CONTRIBUTOR_BUCKETS) + inputs.HARVEST_MISSING,
            "store_entries_before": len(inputs.HARVEST_CONTRIBUTOR_BUCKETS),
            "changed_repositories": inputs.HARVEST_CHANGED,
            "changes": "stars always; forks, issues, contributors (inside their page) sometimes; ETags follow",
            "faults": HarvestCold().describe()["faults"],
        }


class MonitorLarge(Workload):
    name = "monitor-large"
    command = "monitor"
    scale = 0.0
    why = ("A large previous store (10^4 entries x 5 snapshots) and a tiny "
           "unpaced harvest: the store is the only CPU-bound layer and the "
           "network workloads bypass it.")

    def setup(self, seed: int, workdir: Path) -> Env:
        workdir.mkdir(parents=True, exist_ok=True)
        previous = workdir / "previous.jsonl"
        large = inputs.write_large_store(seed, previous)
        harvest = large.harvest
        repos = _repos(harvest)
        feed, api = _fakes(harvest, repos, self.scale)
        changed_or_new = {t.identity() for t in large.updated + large.added}
        (arxiv_n, arxiv_f), (github_n, github_f) = _network_expected(harvest, repos, 0)
        expected = Expected(
            stream_lines=[inputs.repo_line(repos[t.identity()]) for t in harvest.ok],
            report_lines=sorted(line for _url, line, _c, _h in large.expected.values()),
            entries={i: (counts, hist) for i, (_url, _line, counts, hist) in large.expected.items()},
            failures={(t.owner, t.name) for t in harvest.missing},
            attempted=len(harvest.targets),
            arxiv_requests=arxiv_n,
            arxiv_formula=arxiv_f,
            github_requests=github_n,
            github_formula=github_f,
            sections={
                "Added": {t.url for t in large.added},
                "Updated": {t.url for t in large.updated},
                "Unchanged": {url for i, (url, *_rest) in large.expected.items()
                              if i not in changed_or_new},
            },
        )
        env = Env(self.command, workdir, harvest, feed, api, expected, self.scale, previous=previous)
        _start(env)
        return env

    def describe(self) -> dict:
        return {
            "command": "monitor against a generated previous store",
            "store_entries_before": inputs.LARGE_ENTRIES,
            "snapshots_per_entry": inputs.LARGE_SNAPSHOTS,
            "store_bytes_approx": 11_000_000,
            "papers": inputs.LARGE_PAPERS,
            "repositories": 8,
            "observed": "2 stored+changed, 2 stored+unchanged, 3 new, 1 answering 404",
            "faults": ["one repository answers 404"],
            "gated": "no: its wall time is CPU-bound, and CPU speed on a shared host "
                     "swings by more than the largest bound between runs",
        }


WORKLOADS: dict[str, Workload] = {w.name: w for w in (HarvestCold(), RefreshChanged(), MonitorLarge())}


# -- one pass ---------------------------------------------------------------


class TimedStream:
    """The ``out=`` stream: keeps the text and the time the first report
    line started."""

    def __init__(self) -> None:
        self._parts: list[str] = []
        self._line_start = True
        self.first_report: Optional[float] = None

    def write(self, text: str) -> int:
        if self.first_report is None:
            probe = "\n" + text if self._line_start else text
            if "\nThe project " in probe:
                self.first_report = time.perf_counter()
        if text:
            self._line_start = text.endswith("\n")
        self._parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return "".join(self._parts)


class FailureLog(logging.Handler):
    """Collects the program's per-repository failure warnings."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.failures: list[tuple[str, str, str]] = []

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith("GitHub fetch failed") and len(record.args) >= 3:
            self.failures.append(tuple(str(a) for a in record.args[:3]))



@dataclass
class Pass:
    status: int
    wall_s: float
    first_report_s: Optional[float]
    output: str
    failures: list
    arxiv_requests: int
    github_requests: int
    github_quota_units: int
    problems: list[str] = field(default_factory=list)


def _config(env: Env) -> cli.RunConfig:
    size = len(env.harvest.papers)
    argv = [env.command, "--out-dir", str(env.out_dir),
            "--max-results", str(size), "--page-size", str(env.harvest.page_size),
            "--arxiv-base-url", env.arxiv_url, "--github-base-url", env.github.base_url]
    return cli.resolve_config(cli.build_parser().parse_args(argv))


def _invoke(env: Env, cfg, arxiv_client, github_client, stream) -> int:
    if env.command == "run":
        return cli.cmd_run(cfg, arxiv_client, github_client, out=stream)
    return cli.cmd_monitor(cfg, str(env.previous), arxiv_client, github_client, out=stream)


def run_pass(env: Env, tracer: Optional[Tracer] = None, now=None) -> Pass:
    """Run the program once against the armed fakes; with ``tracer``, wrap
    every layer boundary for the duration of the call."""
    shutil.rmtree(env.out_dir, ignore_errors=True)
    env.out_dir.mkdir(parents=True)
    env.arxiv.arm()
    env.github.arm()
    cfg = _config(env)
    feed_session, api_session = requests.Session(), requests.Session()
    extra = {"now": now} if now is not None else {}
    arxiv_client = arxiv_mod.ArxivClient(
        base_url=env.arxiv_url,
        delay=arxiv_mod.DEFAULT_DELAY * env.scale,
        backoff_base=BACKOFF_BASE * env.scale,
        session=feed_session,
        sleep=tracer.sleeper("throttle.arxiv.sleep") if tracer else time.sleep,
    )
    github_client = github_mod.GitHubClient(
        base_url=env.github.base_url,
        token=TOKEN,
        policy=github_mod.ThrottlePolicy(
            min_interval=github_mod.AUTHENTICATED_MIN_INTERVAL * env.scale),
        backoff_base=BACKOFF_BASE * env.scale,
        session=api_session,
        sleep=tracer.sleeper("throttle.github.sleep") if tracer else time.sleep,
        **extra,
    )
    stream = TimedStream()
    failure_log = FailureLog()
    logger = logging.getLogger("repoharvest")
    logger.addHandler(failure_log)
    # start every pass from the same collector state, as a fresh process would
    gc.collect()
    try:
        if tracer is not None:
            install_tracing(tracer, arxiv_client, github_client, feed_session, api_session)
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("cli.command"):
                status = _invoke(env, cfg, arxiv_client, github_client, stream)
        else:
            status = _invoke(env, cfg, arxiv_client, github_client, stream)
        wall = time.perf_counter() - start
    finally:
        logger.removeHandler(failure_log)
        if tracer is not None:
            tracer.restore()
        feed_session.close()
        api_session.close()
    if tracer is not None:
        tracer.counts["kb.bytes_written"] = sum(
            (env.out_dir / name).stat().st_size for name in _OUTPUT_FILES
            if (env.out_dir / name).exists())
    return Pass(
        status=status,
        wall_s=wall,
        first_report_s=None if stream.first_report is None else stream.first_report - start,
        output=stream.getvalue(),
        failures=failure_log.failures,
        arxiv_requests=env.arxiv.counters.requests,
        github_requests=env.github.counters.requests,
        github_quota_units=env.github.quota_units,
    )


def install_tracing(tracer: Tracer, arxiv_client, github_client, feed_session, api_session) -> None:
    """Wrap each layer's public calls from outside; undone by ``restore``."""
    counts = tracer.counts
    gates = {id(arxiv_client._gate): "arxiv", id(github_client._gate): "github"}

    def saved(_result, args, _kwargs):
        store = args[0]
        counts["kb.entries"] = len(store)
        counts["kb.history_snapshots"] = sum(len(entry.history) for entry in store)

    def hits(result, _args, _kwargs):
        counts["links.hits"] += len(result)

    def unique(result, _args, _kwargs):
        counts["links.unique"] = len(result)

    def enriched(result, _args, _kwargs):
        for failure in result[1]:
            counts[f"github.failures.{failure.kind.value}"] += 1

    last_request = [None]

    def answered(response, args, kwargs):
        url = args[0] if args else kwargs.get("url")
        params = kwargs.get("params")
        kind = "contributors" if "/contributors" in url else "repo"
        counts[f"github.requests.{kind}"] += 1
        counts[f"github.status.{response.status_code}"] += 1
        key = (url, tuple(sorted((params or {}).items())))
        if key == last_request[0]:
            counts["github.retries"] += 1
        last_request[0] = key

    original_canonicalize = cli.canonicalize

    def canonicalize(*args, **kwargs):
        with tracer.span("links.canonicalize"):
            try:
                return original_canonicalize(*args, **kwargs)
            except LinkError:
                counts["links.rejected"] += 1
                raise

    original_defer = throttle_mod.RequestGate.defer

    def defer(gate, delay):
        client = gates.get(id(gate), "other")
        counts[f"throttle.{client}.defers"] += 1
        tracer.sums[f"throttle.{client}.defer_s"] += max(0.0, delay)
        return original_defer(gate, delay)

    tracer.patch(cli, "execute_pipeline", "cli.pipeline")
    tracer.patch(cli, "load_records", "kb.load")
    tracer.patch(cli, "diff", "kb.diff")
    tracer.patch(cli, "save_records", "kb.save", after=saved)
    tracer.patch(cli, "export_table", "kb.export_table")
    tracer.patch(cli, "export_report", "kb.export_report")
    tracer.patch(kb_mod.KnowledgeBase, "clone", "kb.clone")
    tracer.patch(kb_mod.KnowledgeBase, "upsert", "kb.upsert")
    tracer.patch(cli, "extract_urls", "links.extract", after=hits)
    tracer.patch(cli, "clean_url", "links.clean")
    tracer.patch_with(cli, "canonicalize", canonicalize)
    tracer.patch(cli, "dedupe", "links.dedupe", after=unique)
    tracer.patch(cli, "classify", "maturity.classify")
    tracer.patch(arxiv_client, "fetch_page", "arxiv.fetch_page")
    tracer.patch(arxiv_client, "_parse_feed", "arxiv.parse")
    tracer.patch(feed_session, "get", "arxiv.http")
    tracer.patch(github_client, "enrich", "github.enrich", after=enriched)
    tracer.patch(github_client, "fetch_repo", "github.fetch_repo")
    tracer.patch(github_client, "count_contributors", "github.count_contributors")
    tracer.patch(api_session, "get", "github.http", after=answered)
    tracer.patch_with(throttle_mod.RequestGate, "defer", defer)


# -- the correctness gate ---------------------------------------------------


def _sections(output: str) -> dict[str, tuple[int, set[str]]]:
    found: dict[str, tuple[int, set[str]]] = {}
    current = None
    for line in output.split("\n"):
        match = _MONITOR_HEADER.match(line)
        if match:
            current = match.group(1)
            found[current] = (int(match.group(2)), set())
        elif current and line.startswith("  "):
            found[current][1].add(line[2:].split(": ", 1)[0])
        else:
            current = None
    return found


def attempted_repos(output: str) -> Optional[int]:
    for line in output.split("\n"):
        if line.startswith("Found GitHub URLs: "):
            return len(ast.literal_eval(line[len("Found GitHub URLs: "):]))
    return None


def check(env: Env, p: Pass) -> list[str]:
    """Every way the pass's outputs differ from the fixtures; empty if none."""
    exp = env.expected
    problems = []
    if p.status != 0:
        problems.append(f"exit status {p.status}")
    streamed = [line for line in p.output.split("\n") if line.startswith("The project ")]
    if streamed != exp.stream_lines:
        problems.append(f"report lines on the output stream differ ({len(streamed)} vs "
                        f"{len(exp.stream_lines)} expected)")
    if p.first_report_s is None:
        problems.append("no report line reached the output stream")
    if attempted_repos(p.output) != exp.attempted:
        problems.append(f"found {attempted_repos(p.output)} repositories, expected {exp.attempted}")
    got_failures = {(o, n) for o, n, kind in p.failures if kind == "not_found"}
    if got_failures != exp.failures or len(p.failures) != len(exp.failures):
        problems.append(f"failures {sorted(p.failures)} are not exactly the injected 404s")
    paths = {name: env.out_dir / name for name in _OUTPUT_FILES}
    missing = [name for name, path in paths.items() if not path.exists()]
    if missing:
        problems.append(f"missing outputs {missing}")
        return problems
    report = paths[kb_mod.REPORT_FILENAME].read_text(encoding="utf-8").splitlines()
    if sorted(report) != exp.report_lines:
        problems.append("report.txt lines differ from the fixtures")
    try:
        store = kb_mod.load_records(paths[kb_mod.RECORDS_FILENAME])
    except kb_mod.StoreError as exc:
        problems.append(f"kb.jsonl does not reload: {exc}")
        return problems
    got = {e.ref.identity(): (e.latest.counts(), len(e.history)) for e in store}
    if got != exp.entries:
        wrong = sorted(k for k in set(got) | set(exp.entries) if got.get(k) != exp.entries.get(k))
        problems.append(f"kb.jsonl differs from the fixtures for {len(wrong)} entries, e.g. {wrong[:3]}")
    with open(paths[kb_mod.TABLE_FILENAME], encoding="utf-8") as fh:
        rows = sum(1 for _ in fh)
    if rows != len(exp.entries) + 1:
        problems.append(f"kb.csv has {rows} lines, expected {len(exp.entries) + 1}")
    if exp.sections is not None:
        found = _sections(p.output)
        for name, urls in exp.sections.items():
            if found.get(name) != (len(urls), urls):
                count = found.get(name, (None,))[0]
                problems.append(f"monitor section {name}: {count} listed, expected {len(urls)}")
    return problems
