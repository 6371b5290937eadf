"""Command-line pipeline: search paper metadata, mine GitHub links, grade
repository maturity, and keep the knowledge base current.

Subcommands:
  run        full pipeline into a fresh knowledge base
  monitor    re-run against a previous store and report what changed
  selfcheck  replay the bundled calibration table through the classifier
             and the report template

Every flag can also be supplied through a JSON config file (--config);
explicit flags win over the file, the file wins over defaults.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TextIO

from . import arxiv as arxiv_mod
from . import github as github_mod
from .arxiv import ArxivClient, ArxivRequestError, FeedParseError, SearchSpec, SearchSpecError
from .calibration import CALIBRATION_TIME, REFERENCE_ROWS
from .github import GitHubClient, ThrottlePolicy
from .kb import (
    RECORDS_FILENAME,
    REPORT_FILENAME,
    TABLE_FILENAME,
    KbEntry,
    KnowledgeBase,
    StoreError,
    diff,
    export_report,
    export_table,
    load_records,
    render_report_line,
    save_records,
)
from .links import LinkError, RepoRef, canonicalize, clean_url, dedupe, extract_urls
from .maturity import DEFAULT_RULE, TierRule, classify

log = logging.getLogger("repoharvest")

_DEFAULTS: dict = {
    "terms": list(arxiv_mod.DEFAULT_TERMS),
    "from_year": arxiv_mod.DEFAULT_DATE_FROM,
    "to_year": arxiv_mod.DEFAULT_DATE_TO,
    "max_results": arxiv_mod.DEFAULT_MAX_RESULTS,
    "page_size": arxiv_mod.DEFAULT_PAGE_SIZE,
    "arxiv_base_url": arxiv_mod.DEFAULT_BASE_URL,
    "github_base_url": github_mod.DEFAULT_BASE_URL,
    "normalize_dates": False,
    "arxiv_delay_ms": int(arxiv_mod.DEFAULT_DELAY * 1000),
    "min_interval_ms": None,
    "medium_stars": DEFAULT_RULE.medium_min_stars,
    "high_stars": DEFAULT_RULE.high_min_stars,
    "out_dir": ".",
    "token_env": "GITHUB_TOKEN",
    "include_anonymous": False,
    "verbose": 0,
}


class UsageError(Exception):
    """Invalid flag/config combination; maps to exit status 2."""


@dataclass
class RunConfig:
    """Everything one pipeline run needs, fully resolved."""

    search: SearchSpec
    rule: TierRule
    arxiv_base_url: str
    github_base_url: str
    normalize_dates: bool
    arxiv_delay: float
    min_interval: Optional[float]
    out_dir: Path
    token_env: str
    include_anonymous: bool
    verbose: int


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON file mirroring the flags; flags win")
    common.add_argument("--terms", action="append", metavar="PHRASE",
                        help="search phrase; repeat the flag for several")
    common.add_argument("--from-year", type=int, dest="from_year")
    common.add_argument("--to-year", type=int, dest="to_year")
    common.add_argument("--max-results", type=int, dest="max_results",
                        help="cap on papers processed (default 1000)")
    common.add_argument("--page-size", type=int, dest="page_size")
    common.add_argument("--arxiv-base-url", dest="arxiv_base_url")
    common.add_argument("--github-base-url", dest="github_base_url")
    common.add_argument("--normalize-dates", action="store_true", default=None,
                        dest="normalize_dates",
                        help="rewrite the year range to the timestamp form "
                             "the live feed endpoint accepts")
    common.add_argument("--arxiv-delay-ms", type=int, dest="arxiv_delay_ms",
                        help="politeness delay between feed requests")
    common.add_argument("--min-interval-ms", type=int, dest="min_interval_ms",
                        help="minimum gap between GitHub requests")
    common.add_argument("--medium-stars", type=int, dest="medium_stars")
    common.add_argument("--high-stars", type=int, dest="high_stars")
    common.add_argument("--out-dir", dest="out_dir")
    common.add_argument("--token-env", dest="token_env",
                        help="environment variable holding the GitHub token "
                             "(default GITHUB_TOKEN)")
    common.add_argument("--include-anonymous", action="store_true", default=None,
                        dest="include_anonymous",
                        help="count anonymous contributors too")
    common.add_argument("-v", "--verbose", action="count", default=None)

    parser = argparse.ArgumentParser(
        prog="repoharvest",
        description="Mine paper metadata for GitHub repositories and keep a "
                    "maturity-graded knowledge base.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common],
                   help="run the full pipeline into a fresh knowledge base")
    monitor = sub.add_parser("monitor", parents=[common],
                             help="re-run and report added/updated/unchanged "
                                  "repositories against a previous store")
    monitor.add_argument("--previous", metavar="PATH",
                         help=f"previous store (default <out-dir>/{RECORDS_FILENAME})")
    sub.add_parser("selfcheck", parents=[common],
                   help="verify the tier rule and report template against "
                        "the bundled calibration table")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = dict(_DEFAULTS)
    explicit_page_size = args.page_size is not None
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(values))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        explicit_page_size = explicit_page_size or "page_size" in data
        values.update(data)
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        max_results = int(values["max_results"])
        page_size = int(values["page_size"])
        if not explicit_page_size:
            page_size = min(page_size, max_results)
        search = SearchSpec(
            terms=tuple(values["terms"]),
            date_from=int(values["from_year"]),
            date_to=int(values["to_year"]),
            max_results=max_results,
            page_size=page_size,
        )
        rule = TierRule(int(values["medium_stars"]), int(values["high_stars"]))
        arxiv_delay = int(values["arxiv_delay_ms"]) / 1000.0
        min_interval_ms = values["min_interval_ms"]
        min_interval = None if min_interval_ms is None else int(min_interval_ms) / 1000.0
        for key, seconds in (("arxiv_delay_ms", arxiv_delay), ("min_interval_ms", min_interval)):
            if seconds is not None and seconds < 0:
                raise ValueError(f"{key} must be >= 0")
    except (SearchSpecError, ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    return RunConfig(
        search=search,
        rule=rule,
        arxiv_base_url=str(values["arxiv_base_url"]),
        github_base_url=str(values["github_base_url"]),
        normalize_dates=bool(values["normalize_dates"]),
        arxiv_delay=arxiv_delay,
        min_interval=min_interval,
        out_dir=Path(values["out_dir"]),
        token_env=str(values["token_env"]),
        include_anonymous=bool(values["include_anonymous"]),
        verbose=int(values["verbose"]),
    )


def _make_arxiv_client(cfg: RunConfig) -> ArxivClient:
    return ArxivClient(
        base_url=cfg.arxiv_base_url,
        delay=cfg.arxiv_delay,
        normalize_dates=cfg.normalize_dates,
    )


def _make_github_client(cfg: RunConfig) -> GitHubClient:
    token = os.environ.get(cfg.token_env) or None
    policy = None
    if cfg.min_interval is not None:
        policy = ThrottlePolicy(min_interval=cfg.min_interval)
    return GitHubClient(
        base_url=cfg.github_base_url,
        token=token,
        policy=policy,
        include_anonymous=cfg.include_anonymous,
    )


def execute_pipeline(
    cfg: RunConfig,
    kb: KnowledgeBase,
    arxiv_client: Optional[ArxivClient] = None,
    github_client: Optional[GitHubClient] = None,
    out: Optional[TextIO] = None,
) -> int:
    """Stream papers, mine links, enrich, classify, and upsert into ``kb``.

    Per-repository GitHub failures are logged and never fatal; a paper
    retrieval failure after retries is (exit status 1).
    """
    out = out if out is not None else sys.stdout
    client = arxiv_client if arxiv_client is not None else _make_arxiv_client(cfg)
    gh = github_client if github_client is not None else _make_github_client(cfg)

    out.write("Processing arXiv papers:\n")
    refs: list[RepoRef] = []
    processed = 0
    try:
        for paper in client.iterate_papers(cfg.search):
            processed += 1
            total = client.last_total_results
            shown = min(total, cfg.search.max_results) if total is not None else processed
            out.write(f"\rPaper {processed}/{shown}")
            out.flush()
            for text in (paper.title, paper.abstract):
                for url in extract_urls(text):
                    cleaned = clean_url(url)
                    try:
                        refs.append(canonicalize(cleaned, paper.arxiv_id))
                    except LinkError as exc:
                        log.debug("skipping %s: %s", cleaned, exc)
    except (ArxivRequestError, FeedParseError) as exc:
        out.write("\n")
        log.error("paper retrieval failed: %s", exc)
        return 1
    if processed == 0:
        out.write("Paper 0/0")
    out.write("\n\n")

    unique = dedupe(refs)
    out.write(f"Found GitHub URLs: {[ref.canonical_url for ref in unique]}\n\n")

    successes, failures = gh.enrich(unique)
    for ref, metrics in successes:
        tier = classify(metrics, cfg.rule)
        entry = kb.upsert(ref, metrics, tier)
        out.write(render_report_line(entry) + "\n")
    for failure in failures:
        log.warning(
            "GitHub fetch failed for %s/%s: %s (%s)",
            failure.repo.owner,
            failure.repo.name,
            failure.kind.value,
            failure.detail,
        )
    return 0


def _write_outputs(cfg: RunConfig, kb: KnowledgeBase) -> None:
    save_records(kb, cfg.out_dir / RECORDS_FILENAME)
    export_table(kb, cfg.out_dir / TABLE_FILENAME)
    export_report(kb, cfg.out_dir / REPORT_FILENAME)


def cmd_run(
    cfg: RunConfig,
    arxiv_client: Optional[ArxivClient] = None,
    github_client: Optional[GitHubClient] = None,
    out: Optional[TextIO] = None,
) -> int:
    kb = KnowledgeBase()
    status = execute_pipeline(cfg, kb, arxiv_client, github_client, out)
    if status:
        return status
    _write_outputs(cfg, kb)
    return 0


def _describe_update(old_m, new_m) -> str:
    changes = []
    pairs = (
        ("stars", old_m.stars, new_m.stars),
        ("forks", old_m.forks, new_m.forks),
        ("open issues", old_m.open_issues, new_m.open_issues),
        ("contributors", old_m.contributors, new_m.contributors),
    )
    for label, old_value, new_value in pairs:
        if old_value != new_value:
            changes.append(f"{label} {old_value} -> {new_value}")
    return ", ".join(changes)


def cmd_monitor(
    cfg: RunConfig,
    previous_path: Optional[str],
    arxiv_client: Optional[ArxivClient] = None,
    github_client: Optional[GitHubClient] = None,
    out: Optional[TextIO] = None,
) -> int:
    out = out if out is not None else sys.stdout
    path = Path(previous_path) if previous_path else cfg.out_dir / RECORDS_FILENAME
    try:
        previous = load_records(path)
    except StoreError as exc:
        log.error("cannot load previous store: %s", exc)
        return 1
    kb = previous.clone()
    status = execute_pipeline(cfg, kb, arxiv_client, github_client, out)
    if status:
        return status
    changes = diff(previous, kb)
    out.write(f"\nAdded ({len(changes.added)}):\n")
    for ref in changes.added:
        out.write(f"  {ref.canonical_url}\n")
    out.write(f"Updated ({len(changes.updated)}):\n")
    for ref, old_m, new_m in changes.updated:
        out.write(f"  {ref.canonical_url}: {_describe_update(old_m, new_m)}\n")
    out.write(f"Unchanged ({len(changes.unchanged)}):\n")
    for ref in changes.unchanged:
        out.write(f"  {ref.canonical_url}\n")
    _write_outputs(cfg, kb)
    return 0


def cmd_selfcheck(rule: TierRule, out: Optional[TextIO] = None) -> int:
    """Replay the calibration table; nonzero exit when any row disagrees."""
    out = out if out is not None else sys.stdout
    failing: set[str] = set()
    for row in REFERENCE_ROWS:
        tier = classify(row.to_metrics(), rule)
        if tier != row.expected_tier:
            failing.add(row.name)
            out.write(
                f"tier mismatch for '{row.name}': "
                f"expected {row.expected_tier}, got {tier}\n"
            )
    for row in REFERENCE_ROWS:
        metrics = row.to_metrics()
        entry = KbEntry(
            ref=RepoRef(
                owner="calibration",
                name=row.name,
                canonical_url=f"https://github.com/calibration/{row.name}",
            ),
            latest=metrics,
            tier=classify(metrics, rule),
            first_seen=CALIBRATION_TIME,
        )
        line = render_report_line(entry)
        if line != row.expected_line:
            failing.add(row.name)
            out.write(f"line mismatch for '{row.name}':\n  expected: "
                      f"{row.expected_line}\n  rendered: {line}\n")
    matched = len(REFERENCE_ROWS) - len(failing)
    out.write(f"selfcheck: {matched}/{len(REFERENCE_ROWS)} reference rows match\n")
    return 0 if not failing else 1


def _configure_logging(verbose: int) -> None:
    level = logging.WARNING
    if verbose == 1:
        level = logging.INFO
    elif verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(
        level=level, format="%(levelname)s: %(message)s", stream=sys.stderr
    )
    log.setLevel(level)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _configure_logging(cfg.verbose)
    if args.command == "run":
        return cmd_run(cfg)
    if args.command == "monitor":
        return cmd_monitor(cfg, args.previous)
    if args.command == "selfcheck":
        return cmd_selfcheck(cfg.rule)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
