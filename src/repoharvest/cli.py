"""Command-line pipeline: search paper metadata, mine GitHub links, grade
repository maturity, and keep the knowledge base current.

Subcommands:
  run        full pipeline into a fresh knowledge base
  monitor    re-run against a previous store and report what changed
  selfcheck  replay the bundled calibration table through the classifier
             and the report template

Each option is one RunConfig field, which names its flag and config-file
key. Explicit flags win over the JSON config file (--config), the file
wins over defaults, and each file value must have its flag's JSON type.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path
from queue import SimpleQueue
from typing import Iterator, Optional, Sequence, TextIO

from . import arxiv as arxiv_mod
from . import github as github_mod
from .arxiv import ArxivClient, ArxivRequestError, FeedParseError, PaperRecord, SearchSpec
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


class UsageError(Exception):
    """Invalid flag/config combination; maps to exit status 2."""


def _option(default, **argparse_kwargs) -> Field:
    """An option whose flag takes ``argparse_kwargs`` (``flags`` replaces ``--name``)."""
    return field(default=default, metadata=argparse_kwargs)


@dataclass
class RunConfig:
    """Everything one pipeline run needs. Each init field is an option; the
    search spec and tier rule are built and checked from them."""

    terms: Sequence[str] = _option(arxiv_mod.DEFAULT_TERMS, action="append", metavar="PHRASE",
                                   help="search phrase; repeat the flag for several")
    from_year: int = _option(arxiv_mod.DEFAULT_DATE_FROM, type=int)
    to_year: int = _option(arxiv_mod.DEFAULT_DATE_TO, type=int)
    max_results: int = _option(arxiv_mod.DEFAULT_MAX_RESULTS, type=int, help="cap on papers "
                               f"processed (default {arxiv_mod.DEFAULT_MAX_RESULTS})")
    page_size: Optional[int] = _option(None, type=int)  # None: default, shrunk to max_results
    arxiv_base_url: str = arxiv_mod.DEFAULT_BASE_URL
    github_base_url: str = github_mod.DEFAULT_BASE_URL
    normalize_dates: bool = _option(False, action="store_true",
                                    help="rewrite the year range to the timestamp form "
                                         "the live feed endpoint accepts")
    arxiv_delay_ms: int = _option(int(arxiv_mod.DEFAULT_DELAY * 1000), type=int,
                                  help="politeness delay between feed requests")
    min_interval_ms: Optional[int] = _option(None, type=int,  # None: the client's default
                                             help="minimum gap between GitHub requests")
    medium_stars: int = _option(DEFAULT_RULE.medium_min_stars, type=int)
    high_stars: int = _option(DEFAULT_RULE.high_min_stars, type=int)
    out_dir: Path = Path(".")
    token_env: str = _option("GITHUB_TOKEN", help="environment variable holding the GitHub "
                                                  "token (default GITHUB_TOKEN)")
    include_anonymous: bool = _option(False, action="store_true",
                                      help="count anonymous contributors too")
    verbose: int = _option(0, flags=("-v", "--verbose"), action="count")

    search: SearchSpec = field(init=False)
    rule: TierRule = field(init=False)

    def __post_init__(self) -> None:
        self.out_dir = Path(self.out_dir)
        page_size = self.page_size
        if page_size is None:
            page_size = min(arxiv_mod.DEFAULT_PAGE_SIZE, self.max_results)
        try:
            self.search = SearchSpec(tuple(self.terms), self.from_year, self.to_year,
                                     self.max_results, page_size)
            self.rule = TierRule(self.medium_stars, self.high_stars)
            for name in ("arxiv_delay_ms", "min_interval_ms"):
                if (getattr(self, name) or 0) < 0:
                    raise ValueError(f"{name} must be >= 0")
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


_OPTIONS = {option.name: option for option in fields(RunConfig) if option.init}
_JSON_TYPES = {int: "an integer", str: "a string", bool: "true or false", list: "a list of strings"}


def _json_type(option: Field) -> type:
    """The type a config value must have: the one the option's flag parses to."""
    actions = {"store_true": bool, "append": list, "count": int}
    return actions.get(option.metadata.get("action"), option.metadata.get("type", str))


def _option_parser(*names: str) -> argparse.ArgumentParser:
    """--config and the flags of the named options (all when none is named)."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file mirroring the flags; flags win")
    for name, option in _OPTIONS.items():
        if name in names or not names:
            kwargs = dict(option.metadata)
            flags = kwargs.pop("flags", ("--" + name.replace("_", "-"),))
            parser.add_argument(*flags, default=None, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    pipeline = _option_parser()
    parser = argparse.ArgumentParser(
        prog="repoharvest",
        description="Mine paper metadata for GitHub repositories and keep a "
                    "maturity-graded knowledge base.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[pipeline],
                   help="run the full pipeline into a fresh knowledge base")
    monitor = sub.add_parser("monitor", parents=[pipeline],
                             help="re-run and report added/updated/unchanged "
                                  "repositories against a previous store")
    monitor.add_argument("--previous", metavar="PATH",
                         help=f"previous store (default <out-dir>/{RECORDS_FILENAME})")
    sub.add_parser("selfcheck", parents=[_option_parser("medium_stars", "high_stars")],
                   help="verify the tier rule and report template against "
                        "the bundled calibration table")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(values) - set(_OPTIONS))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in values.items():
            if value is None and _OPTIONS[key].default is None:
                continue
            kind = _json_type(_OPTIONS[key])
            if (isinstance(value, bool) != (kind is bool) or not isinstance(value, kind)
                    or kind is list and not all(isinstance(item, str) for item in value)):
                raise UsageError(f"config key {key} must be {_JSON_TYPES[kind]}, "
                                 f"not {json.dumps(value)}")
    for name in _OPTIONS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return RunConfig(**values)


def _make_arxiv_client(cfg: RunConfig) -> ArxivClient:
    return ArxivClient(
        base_url=cfg.arxiv_base_url,
        delay=cfg.arxiv_delay_ms / 1000.0,
        normalize_dates=cfg.normalize_dates,
    )


def _make_github_client(cfg: RunConfig) -> GitHubClient:
    token = os.environ.get(cfg.token_env) or None
    policy = None
    if cfg.min_interval_ms is not None:
        policy = ThrottlePolicy(min_interval=cfg.min_interval_ms / 1000.0)
    return GitHubClient(
        base_url=cfg.github_base_url,
        token=token,
        policy=policy,
        include_anonymous=cfg.include_anonymous,
    )


def _mine_refs(paper: PaperRecord) -> Iterator[RepoRef]:
    """The repositories the paper's title and abstract link to, in order."""
    for text in (paper.title, paper.abstract):
        for url in extract_urls(text):
            cleaned = clean_url(url)
            try:
                yield canonicalize(cleaned, paper.arxiv_id)
            except LinkError as exc:
                log.debug("skipping %s: %s", cleaned, exc)


def _unstarted(pending: SimpleQueue[Optional[RepoRef]], cancelled: threading.Event) -> Iterator[RepoRef]:
    """The refs put on ``pending``, in order, until a None; none once
    ``cancelled`` is set."""
    while (ref := pending.get()) is not None and not cancelled.is_set():
        yield ref


def execute_pipeline(
    cfg: RunConfig,
    kb: KnowledgeBase,
    arxiv_client: Optional[ArxivClient] = None,
    github_client: Optional[GitHubClient] = None,
    out: Optional[TextIO] = None,
) -> int:
    """Stream papers, mine links, enrich, classify, and upsert into ``kb``.

    Each repository goes to one enrichment worker as soon as a paper first
    mentions it, so GitHub requests, still one at a time and in
    first-mention order, go out while the feed client waits between pages.
    A repository already in ``kb`` is refreshed with a conditional request.
    Only this thread reads or writes ``out`` and ``kb``. Per-repository GitHub
    failures are logged and never fatal. A paper retrieval failure after
    retries is (exit status 1): the repository being enriched is finished
    and no other is started.
    """
    out = out if out is not None else sys.stdout
    client = arxiv_client if arxiv_client is not None else _make_arxiv_client(cfg)
    gh = github_client if github_client is not None else _make_github_client(cfg)

    out.write("Processing arXiv papers:\n")
    refs: list[RepoRef] = []
    seen: set[tuple[str, str]] = set()
    pending: SimpleQueue[Optional[RepoRef]] = SimpleQueue()
    cancelled = threading.Event()
    stored = {entry.ref.identity(): entry.latest for entry in kb}
    processed = 0
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="repoharvest-github") as worker:
        enrichment = worker.submit(gh.enrich, _unstarted(pending, cancelled), stored)
        try:
            for paper in client.iterate_papers(cfg.search):
                processed += 1
                total = client.last_total_results
                shown = min(total, cfg.search.max_results) if total is not None else processed
                out.write(f"\rPaper {processed}/{shown}")
                out.flush()
                for ref in _mine_refs(paper):
                    refs.append(ref)
                    if ref.identity() not in seen:
                        seen.add(ref.identity())
                        pending.put(ref)
            pending.put(None)
            if processed == 0:
                out.write("Paper 0/0")
            out.write("\n\n")
            unique = dedupe(refs)
            out.write(f"Found GitHub URLs: {[ref.canonical_url for ref in unique]}\n\n")
            successes, failures = enrichment.result()
        except (ArxivRequestError, FeedParseError) as exc:
            out.write("\n")
            log.error("paper retrieval failed: %s", exc)
            return 1
        finally:
            # On any way out, the worker finishes the repository it is on
            # and starts no other; leaving the block joins it.
            cancelled.set()
            pending.put(None)

    # The worker took each ref with the papers known so far; upsert with
    # the union dedupe made over the whole feed.
    failed = {failure.repo.identity() for failure in failures}
    enriched = [ref for ref in unique if ref.identity() not in failed]
    for ref, (resolved, metrics) in zip(enriched, successes, strict=True):
        tier = classify(metrics, cfg.rule)
        entry = kb.upsert(replace(resolved, source_papers=ref.source_papers), metrics, tier)
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
    labels = ("stars", "forks", "open issues", "contributors")  # RepoMetrics.counts() order
    return ", ".join(f"{label} {old} -> {new}"
                     for label, old, new in zip(labels, old_m.counts(), new_m.counts())
                     if old != new)


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
            ref=RepoRef(owner="calibration", name=row.name),
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
