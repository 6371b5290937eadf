"""Byte-for-byte check of everything a `run` and a later `monitor` write.

The run harvests the reference corpus, plus one paper that names a
repository GitHub renamed, through a GitHub fake that sends ETags and
answers 404 for the eight repositories with no fixture. The monitor
re-harvests a day later, with one more paper that gives the renamed
repository's new name, after two star counts changed and one missing
repository appeared, so 304s, Added, Updated, Unchanged and history all
show. Stdout, the three output files and the
WARNING lines are compared with the files under tests/golden/<phase>/,
which hold the outputs as the program wrote them when they were made; a
change that means to alter an output rewrites the file and says why.

A second run and monitor, the ``failures`` pair, pins the failure paths
under tests/golden/failures/<phase>/. The run's feed announces two more
papers than it serves, one repository's contributors request fails after
a good /repos answer so its snapshot is kept without a count, and a 403
that spends the quota ends the GitHub requests, so the repository it
answered and the next one fail rate_limited. The monitor a day later
serves the whole feed: the kept repository is first asked for after a
403 with a Retry-After of 120 s, its count is asked for again, and
another repository's contributors request fails, so its snapshot is kept
with the stored count.

The ``--help`` text of the top-level parser and of each subcommand, at
100 columns, is compared with tests/golden/help/ in the same way.
"""
from __future__ import annotations

import difflib
import io
import logging
from datetime import datetime, timezone
from pathlib import Path

import pytest

from conftest import FakeResponse, atom_entry, atom_feed
from corpus import build_corpus
from repoharvest.cli import build_parser, cmd_monitor, cmd_run
from test_cli import START, conditional_github_client, config_for, corpus_arxiv_client, \
    feed_client, fixtures_handler, github_client, reference_fixtures, subcommand

GOLDEN = Path(__file__).resolve().parent / "golden"
FILES = ("stdout.txt", "warnings.txt", "kb.jsonl", "kb.csv", "report.txt")
PHASES = ("run", "monitor")

RENAMED_PAPER = ("2102.00001", "renamed", "Code: https://github.com/demo/old.")
LATE_PAPER = ("2102.00003", "late", "Code moved to https://github.com/demo/new.")
MONITOR_START = datetime(2024, 1, 2, tzinfo=timezone.utc)


class _WarningLines(logging.Handler):
    """Each WARNING-or-worse record, formatted as the command line logs it."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
        self.lines: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(self.format(record) + "\n")


def _phase(out_dir: Path, command) -> dict[str, bytes]:
    """What ``command(out)`` printed and logged, and the files it wrote."""
    handler = _WarningLines()
    logger = logging.getLogger("repoharvest")
    logger.addHandler(handler)
    out = io.StringIO()
    try:
        assert command(out) == 0
    finally:
        logger.removeHandler(handler)
    outputs = {"stdout.txt": out.getvalue().encode("utf-8"),
               "warnings.txt": "".join(handler.lines).encode("utf-8")}
    for name in FILES[2:]:
        outputs[name] = (out_dir / name).read_bytes()
    return outputs


def harvest(out_dir: Path) -> dict[str, dict[str, bytes]]:
    """The outputs of each phase, by phase and then file name."""
    papers, _ = build_corpus()
    papers = [*papers, RENAMED_PAPER]
    fixtures = reference_fixtures()
    fixtures["demo/new"] = {"stars": 31, "forks": 2, "open_issues": 1, "contributors": 3,
                            "description": 'naïve, "quoted" modèle'}
    cap = ("--max-results", "1100")
    client, _ = conditional_github_client(fixtures, ("demo/old", "demo/new"))
    run = _phase(out_dir, lambda out: cmd_run(
        config_for(out_dir, *cap), arxiv_client=corpus_arxiv_client(papers),
        github_client=client, out=out))

    evolved = {slug: dict(spec) for slug, spec in fixtures.items()}
    evolved["ncbi-nlp/BioSentVec"]["stars"] = 548
    evolved["ritaranx/ClinGen"]["stars"] = 31  # Low -> Medium
    evolved["tanlab/MIMIC-III-Clinical-Drug-Representations"] = {
        "stars": 12, "forks": 2, "open_issues": 1, "contributors": 2}
    client, _ = conditional_github_client(evolved, ("demo/old", "demo/new"),
                                          start=MONITOR_START)
    monitor = _phase(out_dir, lambda out: cmd_monitor(
        config_for(out_dir, *cap, command="monitor"), None,
        arxiv_client=corpus_arxiv_client([*papers, LATE_PAPER]),
        github_client=client, out=out))
    return {"run": run, "monitor": monitor}


FAILURE_PAPERS = (
    ("2103.00001", "kept", "Code: https://github.com/lab/kept."),
    ("2103.00002", "steady", "Code: https://github.com/lab/steady."),
    ("2103.00003", "spender", "Code: https://github.com/lab/spender."),
    ("2103.00004", "late", "See https://github.com/lab/late and https://github.com/lab/kept."),
    ("2103.00005", "no code", "No repository is named."),
)
LATER_PAPERS = (
    ("2103.00006", "again", "Builds on https://github.com/lab/steady."),
    ("2103.00007", "fresh", "Code: https://github.com/lab/fresh."),
)
BAD_GATEWAY = FakeResponse(status_code=502)
QUOTA_SPENT = FakeResponse(status_code=403, headers={"X-RateLimit-Remaining": "0"})
SLOW_DOWN = FakeResponse(status_code=403, headers={"Retry-After": "120"})


def announcing_feed(papers, total):
    """Feed client serving ``papers`` in start/max_results slices, each page
    announcing ``total`` papers."""
    entries = [atom_entry(*paper) for paper in papers]
    return feed_client(lambda url, params: FakeResponse(text=atom_feed(
        entries[params["start"]:params["start"] + params["max_results"]], total=total)))


def scripted_github_client(fixtures, script, start):
    """Client over ``fixtures`` whose answer to a URL in ``script`` is each
    of its listed responses in turn, then the fixture's."""
    plain = fixtures_handler(fixtures)
    queues = {url: list(responses) for url, responses in script.items()}

    def handler(url, params):
        queue = queues.get(url)
        return queue.pop(0) if queue else plain(url, params)

    return github_client(handler, start=start)


def harvest_failures(out_dir: Path) -> dict[str, dict[str, bytes]]:
    """The outputs of the failures pair, by phase and then file name."""
    fixtures = {"lab/kept": {"stars": 40, "forks": 4, "open_issues": 2, "contributors": 3},
                "lab/steady": {"stars": 120, "forks": 11, "open_issues": 6, "contributors": 5},
                "lab/spender": {"stars": 7, "forks": 1, "open_issues": 0, "contributors": 1},
                "lab/late": {"stars": 2, "forks": 0, "open_issues": 1, "contributors": 1},
                "lab/fresh": {"stars": 9, "forks": 3, "open_issues": 0, "contributors": 2}}
    repos = "http://gh.test/repos"
    client = scripted_github_client(fixtures, {
        f"{repos}/lab/kept/contributors": [BAD_GATEWAY] * 3,
        f"{repos}/lab/spender": [QUOTA_SPENT],
    }, START)
    run = _phase(out_dir, lambda out: cmd_run(
        config_for(out_dir), arxiv_client=announcing_feed(FAILURE_PAPERS, total=7),
        github_client=client, out=out))

    # The worker thread logs the Retry-After warning, the main thread the
    # others, so the warning goes to the first repository of a phase
    # without a feed warning: only then is the order of the lines fixed.
    fixtures["lab/steady"]["stars"] = 125
    client = scripted_github_client(fixtures, {
        f"{repos}/lab/kept": [SLOW_DOWN],
        f"{repos}/lab/steady/contributors": [BAD_GATEWAY] * 3,
    }, MONITOR_START)
    papers = (*FAILURE_PAPERS, *LATER_PAPERS)
    monitor = _phase(out_dir, lambda out: cmd_monitor(
        config_for(out_dir, command="monitor"), None,
        arxiv_client=announcing_feed(papers, total=len(papers)),
        github_client=client, out=out))
    return {"run": run, "monitor": monitor}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return harvest(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def failure_outputs(tmp_path_factory):
    return harvest_failures(tmp_path_factory.mktemp("failures"))


def assert_matches_golden(actual: bytes, golden: str) -> None:
    """``actual`` is the bytes of tests/golden/``golden``, or the test fails
    with their diff."""
    expected = (GOLDEN / golden).read_bytes()
    if actual != expected:
        diff = difflib.unified_diff(
            expected.decode("utf-8").splitlines(keepends=True),
            actual.decode("utf-8").splitlines(keepends=True),
            fromfile=f"golden/{golden}", tofile="output")
        pytest.fail("".join(diff), pytrace=False)


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("name", FILES)
def test_output_matches_golden(outputs, phase, name):
    assert_matches_golden(outputs[phase][name], f"{phase}/{name}")


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("name", FILES)
def test_failure_outputs_match_golden(failure_outputs, phase, name):
    assert_matches_golden(failure_outputs[phase][name], f"failures/{phase}/{name}")


@pytest.mark.parametrize("command", ("top", "run", "monitor"))
def test_help_matches_golden(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help to this width
    parser = build_parser() if command == "top" else subcommand(command)
    assert_matches_golden(parser.format_help().encode("utf-8"), f"help/{command}.txt")
