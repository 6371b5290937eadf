"""Acceptance gate: the externally held guarantees, one test per criterion.

Each test prints a PASS line (visible with -s or in failure output) and
states its tolerance inline. Everything here runs offline except the final
desk-scale smoke test, which is opt-in via RUN_LIVE_SMOKE=1.
"""
from __future__ import annotations

import os
import random
import time
from datetime import datetime, timedelta, timezone

import pytest

from conftest import FakeClock, FakeResponse, FakeSession, atom_entry, atom_feed
from corpus import REPO_URLS, build_corpus
from repoharvest.arxiv import ArxivClient, SearchSpec, build_query
from repoharvest.calibration import REFERENCE_ROWS
from repoharvest.cli import build_parser, resolve_config
from repoharvest.github import FailureKind, GitHubClient, ThrottlePolicy
from repoharvest.kb import (
    KbEntry,
    KnowledgeBase,
    load_records,
    render_report_line,
    save_records,
)
from repoharvest.links import (
    LinkError,
    RepoRef,
    canonicalize,
    clean_url,
    dedupe,
    extract_urls,
)
from repoharvest.maturity import classify

UTC = timezone.utc


# -- 1. maturity oracle ------------------------------------------------------

def test_maturity_oracle_reproduces_all_reference_tiers():
    """Tolerance: exact, 23/23. Runtime: < 1 s."""
    started = time.perf_counter()
    matched = sum(
        1 for row in REFERENCE_ROWS if classify(row.to_metrics()) is row.expected_tier
    )
    elapsed = time.perf_counter() - started
    assert matched == len(REFERENCE_ROWS) == 23
    assert elapsed < 1.0
    print(f"PASS maturity-oracle: {matched}/23 tiers reproduced in {elapsed:.4f}s")


# -- 2. report bit-exactness -------------------------------------------------

def test_report_lines_byte_match_reference_output():
    """Tolerance: exact bytes, including the unpluralized '1 contributors'."""
    rendered = []
    for row in REFERENCE_ROWS:
        metrics = row.to_metrics()
        entry = KbEntry(
            ref=RepoRef("o", row.name),
            latest=metrics,
            tier=classify(metrics),
            first_seen=metrics.fetched_at,
        )
        rendered.append(render_report_line(entry))
    expected = [row.expected_line for row in REFERENCE_ROWS]
    assert rendered == expected
    assert sum("and 1 contributors." in line for line in rendered) >= 5
    print(f"PASS report-bit-exactness: {len(rendered)}/23 lines byte-identical")


# -- 3. extraction recall and precision --------------------------------------

def test_extraction_recall_and_precision_on_synthetic_corpus():
    """Tolerance: exactly the 31 reference refs, no extras. Runtime: < 5 s."""
    papers, expected_urls = build_corpus(n_papers=1000)
    started = time.perf_counter()
    refs = []
    for paper_id, title, abstract in papers:
        for text in (title, abstract):
            for url in extract_urls(text):
                try:
                    refs.append(canonicalize(clean_url(url), paper_id))
                except LinkError:
                    continue
    unique = dedupe(refs)
    elapsed = time.perf_counter() - started
    got_urls = [ref.canonical_url for ref in unique]
    assert got_urls == expected_urls  # order, recall, and precision at once
    assert elapsed < 5.0
    print(
        f"PASS extraction: {len(got_urls)}/31 refs, 0 false positives, "
        f"{elapsed:.3f}s over {len(papers)} abstracts"
    )


# -- 4. query fidelity --------------------------------------------------------

def test_default_query_string_fidelity():
    """Tolerance: exact after whitespace normalization."""
    expected = (
        "ti:clinical informatics OR abs:clinical informatics OR "
        "ti:healthcare data analytics OR abs:healthcare data analytics OR "
        "ti:electronic health records OR abs:electronic health records OR "
        "ti:medical software development OR abs:medical software development "
        "AND submittedDate:[2019 TO 2024]"
    )
    built = build_query(resolve_config(build_parser().parse_args(["run"])).search)
    assert " ".join(built.split()) == " ".join(expected.split())
    assert built == expected  # holds without normalization as well
    print("PASS query-fidelity: default query matches reference string")


# -- 5. pagination correctness ------------------------------------------------

def _paged_github_client(sizes):
    base = "http://gh.test"
    first = f"{base}/repos/o/r/contributors"
    urls = [first] + [f"{first}?page={i}" for i in range(2, len(sizes) + 1)]
    pages = {}
    for i, size in enumerate(sizes):
        body = [{"login": f"u{i}-{j}"} for j in range(size)]
        link = f'<{urls[i + 1]}>; rel="next"' if i + 1 < len(sizes) else None
        pages[urls[i]] = (body, link)

    def handler(url, params):
        body, link = pages[url]
        headers = {"Link": link} if link else {}
        return FakeResponse(json_body=body, headers=headers)

    clock = FakeClock()
    session = FakeSession(handler, clock=clock)
    return GitHubClient(
        base_url=base,
        policy=ThrottlePolicy(min_interval=0.0),
        session=session,
        clock=clock,
        sleep=clock.sleep,
        wall_clock=clock,
    )


def test_contributor_pagination_sums_every_randomized_fixture():
    """Tolerance: exact count equality on all 200 fixtures."""
    rng = random.Random(987)
    ref = RepoRef("o", "r")
    for case in range(200):
        sizes = [rng.randint(0, 100) for _ in range(rng.randint(1, 8))]
        client = _paged_github_client(sizes)
        assert client.count_contributors(ref) == sum(sizes), (case, sizes)
    print("PASS pagination: 200/200 randomized page chains summed exactly")


# -- 6. throttle property -----------------------------------------------------

def _arxiv_schedule(rng) -> tuple[list[float], float, float | None]:
    delay = rng.uniform(0.0, 4.0)
    page_size = rng.randint(1, 10)
    n_papers = rng.randint(0, 30)
    inject_hint = rng.random() < 0.3
    hint = round(rng.uniform(5.0, 20.0), 3) if inject_hint else None
    entries = [atom_entry(f"id{i}") for i in range(n_papers)]
    state = {"failed": False}

    def handler(url, params):
        if hint is not None and not state["failed"]:
            state["failed"] = True
            return FakeResponse(status_code=503, text="busy",
                                headers={"Retry-After": f"{hint:.3f}"})
        start, count = params["start"], params["max_results"]
        return FakeResponse(
            text=atom_feed(entries[start:start + count], total=n_papers)
        )

    clock = FakeClock()
    session = FakeSession(handler, clock=clock)
    client = ArxivClient(base_url="http://feed.test/q", delay=delay,
                         session=session, clock=clock, sleep=clock.sleep)
    spec = SearchSpec(terms=("x",), max_results=max(n_papers, page_size),
                      page_size=page_size)
    list(client.iterate_papers(spec))
    return session.times, delay, hint


def _github_schedule(rng) -> tuple[list[float], float, float | None]:
    interval = rng.uniform(0.0, 2.0)
    n_refs = rng.randint(2, 8)
    inject_hint = rng.random() < 0.3
    hint = round(rng.uniform(5.0, 20.0), 3) if inject_hint else None
    state = {"failed": False}

    def handler(url, params):
        if hint is not None and not state["failed"]:
            state["failed"] = True
            return FakeResponse(
                status_code=403,
                json_body={"message": "rate limit exceeded"},
                headers={"X-RateLimit-Remaining": "0",
                         "Retry-After": f"{hint:.3f}"},
            )
        name = url.rstrip("/").rsplit("/", 1)[-1]
        return FakeResponse(json_body={
            "full_name": f"o/{name}", "name": name, "description": None,
            "stargazers_count": 1, "forks_count": 0, "open_issues_count": 0,
        })

    clock = FakeClock()
    session = FakeSession(handler, clock=clock)
    client = GitHubClient(
        base_url="http://gh.test",
        policy=ThrottlePolicy(min_interval=interval),
        session=session, clock=clock, sleep=clock.sleep, wall_clock=clock,
    )
    for i in range(n_refs):
        client.fetch_repo(RepoRef("o", f"r{i}"))
    return session.times, interval, hint


def test_throttle_spacing_holds_across_randomized_schedules():
    """Tolerance: gap >= interval (1e-9 slack) for every consecutive pair;
    the first gap after a hinted failure must also be >= the hint."""
    rng = random.Random(4242)
    checked_pairs = 0
    hinted = 0
    for case in range(100):
        times, interval, hint = (
            _arxiv_schedule(rng) if case % 2 == 0 else _github_schedule(rng)
        )
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= interval - 1e-9, (case, interval, times)
            checked_pairs += 1
        if hint is not None and len(times) >= 2:
            assert times[1] - times[0] >= hint - 1e-9, (case, hint, times)
            hinted += 1
    assert checked_pairs > 100
    print(
        f"PASS throttle: {checked_pairs} consecutive gaps honored the "
        f"interval across 100 schedules ({hinted} with server hints)"
    )


# -- 7. robustness property ---------------------------------------------------

def test_enrichment_partition_under_injected_failures():
    """Tolerance: |successes| + |failures| == 10 for every kind/position."""
    kinds = {
        "not_found": lambda: FakeResponse(status_code=404,
                                          json_body={"message": "nf"}),
        "rate_limited": lambda: FakeResponse(
            status_code=403, json_body={"message": "limit"},
            headers={"X-RateLimit-Remaining": "0"}),
        "transport": lambda: FakeResponse(status_code=500, text="boom"),
    }
    expected_kind = {
        "not_found": FailureKind.NOT_FOUND,
        "rate_limited": FailureKind.RATE_LIMITED,
        "transport": FailureKind.TRANSPORT,
    }
    refs = [RepoRef("o", f"r{i}") for i in range(10)]
    cases = 0
    for kind, broken_response in kinds.items():
        for position in range(10):
            broken_name = f"r{position}"

            def handler(url, params, _broken=broken_name, _make=broken_response):
                parts = [p for p in url.split("/") if p]
                idx = parts.index("repos")
                name = parts[idx + 2]
                if name == _broken:
                    return _make()
                if url.endswith("/contributors"):
                    return FakeResponse(json_body=[{"login": "u"}])
                return FakeResponse(json_body={
                    "full_name": f"o/{name}", "name": name, "description": None,
                    "stargazers_count": 2, "forks_count": 1,
                    "open_issues_count": 0,
                })

            clock = FakeClock()
            client = GitHubClient(
                base_url="http://gh.test",
                policy=ThrottlePolicy(min_interval=0.0),
                session=FakeSession(handler, clock=clock),
                clock=clock, sleep=clock.sleep, wall_clock=clock,
            )
            successes, failures = client.enrich(refs)
            assert len(successes) + len(failures) == 10, (kind, position)
            assert len(failures) == 1
            assert failures[0].repo.name == broken_name
            assert failures[0].kind is expected_kind[kind]
            assert [r.name for r, _ in successes] == [
                f"r{i}" for i in range(10) if i != position
            ]
            cases += 1
    assert cases == 30
    print(f"PASS robustness: {cases}/30 injected-failure runs kept the partition")


# -- 8. round-trip persistence -------------------------------------------------

_DESCRIPTIONS = [None, "plain", "naïve modèle", "comma, separated",
                 "quote \" and 'tick'", "λ→μ unicode"]


def _random_store(rng: random.Random) -> KnowledgeBase:
    from conftest import make_metrics

    kb = KnowledgeBase()
    n_repos = rng.randint(1, 25)
    chosen = rng.sample(REPO_URLS, min(n_repos, len(REPO_URLS)))
    for url in chosen:
        ref = canonicalize(url, f"paper-{rng.randrange(10_000)}")
        base = datetime(2023, 1, 1, tzinfo=UTC) + timedelta(
            seconds=rng.randrange(10_000_000)
        )
        for snapshot in range(rng.randint(1, 4)):
            metrics = make_metrics(
                name=ref.name,
                stars=rng.randrange(0, 2000),
                forks=rng.randrange(0, 300),
                open_issues=rng.randrange(0, 80),
                contributors=rng.choice([None, 0, 1, rng.randrange(0, 400)]),
                description=rng.choice(_DESCRIPTIONS),
                fetched_at=base + timedelta(seconds=snapshot * rng.randint(1, 9000)),
                etag=rng.choice([None, f'W/"{rng.getrandbits(64):x}"', f'"{rng.getrandbits(32):x}"']),
            )
            kb.upsert(ref, metrics, classify(metrics))
    return kb


def test_round_trip_persistence_over_randomized_stores(tmp_path):
    """Tolerance: loaded store compares equal for all 100 stores."""
    rng = random.Random(31337)
    etags = 0
    for case in range(100):
        kb = _random_store(rng)
        path = tmp_path / f"store-{case}.jsonl"
        save_records(kb, path)
        loaded = load_records(path)
        assert loaded == kb, case  # snapshots compare their ETags too
        etags += sum(e.latest.etag is not None for e in loaded)
    assert etags > 0
    print("PASS persistence: 100/100 randomized stores round-tripped")


# -- 9. live desk-scale smoke test ---------------------------------------------

@pytest.mark.live
@pytest.mark.skipif(
    os.environ.get("RUN_LIVE_SMOKE") != "1",
    reason="live smoke test is opt-in: set RUN_LIVE_SMOKE=1 (network required)",
)
def test_live_desk_scale_smoke(tmp_path):
    """Pipeline viability only: exit 0 and a well-formed (possibly empty)
    store; public-corpus counts drift and are not asserted."""
    from repoharvest.cli import main

    status = main([
        "run",
        "--max-results", "50",
        "--out-dir", str(tmp_path),
        "--normalize-dates",
    ])
    assert status == 0
    kb = load_records(tmp_path / "kb.jsonl")
    assert len(kb) >= 0
    print(f"PASS live-smoke: exit 0 with {len(kb)} repositories")
