"""Command-line pipeline: search paper metadata, mine GitHub links, grade
repository maturity, and keep the knowledge base current.

Subcommands:
  run      full pipeline into a fresh knowledge base
  monitor  re-run against a previous store and report what changed

build_parser declares the flags both take, and resolve_config turns them
into the checked RunConfig a run reads.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, TextIO
from urllib.parse import urlsplit

from . import arxiv as arxiv_mod
from . import github as github_mod
from .arxiv import ArxivClient, ArxivRequestError, PaperRecord, SearchSpec
from .github import GitHubClient, Outcome, RepoMetrics, Snapshot
from .kb import (
    RECORDS_FILENAME,
    REPORT_FILENAME,
    TABLE_FILENAME,
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
from .maturity import classify

log = logging.getLogger("repoharvest")


@dataclass(frozen=True)
class RunConfig:
    """The checked values one run reads, as resolve_config builds them. Both
    APIs' pacing is fixed; ``github_token`` comes from ``GITHUB_TOKEN``."""

    search: SearchSpec
    arxiv_base_url: str
    github_base_url: str
    out_dir: Path
    github_token: Optional[str] = None


def build_parser() -> argparse.ArgumentParser:
    """``run`` and ``monitor`` take the same pipeline flags, each with a
    help that states its default and bound; ``monitor`` adds --previous."""
    pipeline = argparse.ArgumentParser(add_help=False)
    # No default: given phrases replace the built-in ones, not append to them
    pipeline.add_argument("--terms", action="append", metavar="PHRASE",
                          help="search phrase; repeat the flag for several (default "
                               f"{len(arxiv_mod.DEFAULT_TERMS)} built-in phrases)")
    pipeline.add_argument("--from-year", type=int, default=arxiv_mod.DEFAULT_DATE_FROM,
                          help="first submission year, four digits "
                               f"(default {arxiv_mod.DEFAULT_DATE_FROM})")
    pipeline.add_argument("--to-year", type=int, default=arxiv_mod.DEFAULT_DATE_TO,
                          help="last submission year, four digits "
                               f"(default {arxiv_mod.DEFAULT_DATE_TO})")
    pipeline.add_argument("--max-results", type=int, default=arxiv_mod.DEFAULT_MAX_RESULTS,
                          help=f"cap on papers processed (default {arxiv_mod.DEFAULT_MAX_RESULTS})")
    pipeline.add_argument("--page-size", type=int, default=arxiv_mod.DEFAULT_PAGE_SIZE,
                          help=f"feed page size, at most {arxiv_mod.MAX_PAGE_SIZE} "
                               f"(default {arxiv_mod.DEFAULT_PAGE_SIZE})")
    pipeline.add_argument("--arxiv-base-url", default=arxiv_mod.DEFAULT_BASE_URL,
                          help="feed endpoint, an http(s) URL "
                               f"(default {arxiv_mod.DEFAULT_BASE_URL})")
    pipeline.add_argument("--github-base-url", default=github_mod.DEFAULT_BASE_URL,
                          help="REST endpoint, an http(s) URL "
                               f"(default {github_mod.DEFAULT_BASE_URL})")
    pipeline.add_argument("--out-dir", default=".",
                          help="where kb.jsonl, kb.csv and report.txt are written (default .)")
    pipeline.add_argument("-v", "--verbose", action="count", default=0,
                          help="-v lists skipped links, -vv adds the HTTP log "
                               "(default warnings only)")
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
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The checked values a run reads, from the parsed pipeline flags and
    ``GITHUB_TOKEN``, stripped of surrounding whitespace; a blank one is no
    token. A search value, an endpoint or a token that is refused is a
    ValueError, raised before any request; its message never holds the
    token."""
    search = SearchSpec(tuple(args.terms or arxiv_mod.DEFAULT_TERMS), args.from_year,
                        args.to_year, args.max_results, args.page_size)
    for flag, url in (("--arxiv-base-url", args.arxiv_base_url),
                      ("--github-base-url", args.github_base_url)):
        try:
            parts = urlsplit(url)
            # .port raises ValueError outside 0-65535; requests sends port 0 to 80
            usable = parts.port != 0 and parts.scheme in ("http", "https") and parts.hostname
        except ValueError:
            usable = False
        if not usable:
            raise ValueError(f"{flag} must be an http(s) URL with a host, not {url!r}")
    token = os.environ.get("GITHUB_TOKEN", "").strip()
    if not all("!" <= char <= "~" for char in token):  # printable ASCII, no space
        raise ValueError("GITHUB_TOKEN may hold only printable ASCII other than space")
    return RunConfig(search, args.arxiv_base_url, args.github_base_url, Path(args.out_dir),
                     token or None)


def _mine_refs(paper: PaperRecord) -> Iterator[RepoRef]:
    """The repositories a paper's title, abstract and comment link to, in order."""
    for text in (paper.title, paper.abstract, paper.comment):
        for url in extract_urls(text):
            cleaned = clean_url(url)
            try:
                yield canonicalize(cleaned)
            except LinkError as exc:
                log.info("skipping %s: %s", cleaned, exc)


def _papers_promised(client: ArxivClient, cfg: RunConfig, processed: int) -> int:
    """The feed's latest ``totalResults`` up to the cap, and never fewer than
    ``processed``: before the feed sends one, or after it shrank."""
    total = client.last_total_results
    return processed if total is None else max(processed, min(total, cfg.search.max_results))


def execute_pipeline(
    cfg: RunConfig,
    kb: KnowledgeBase,
    arxiv_client: Optional[ArxivClient] = None,
    github_client: Optional[GitHubClient] = None,
    out: Optional[TextIO] = None,
) -> int:
    """Stream papers, mine links, enrich, classify, and upsert into ``kb``.

    Each name a paper gives is one enrichment task, submitted at its first
    mention and run on a single worker, so GitHub requests go out one at a
    time, in first-mention order, while the feed client waits between
    pages. A name ``kb`` holds, as an identity or an alias, is submitted as
    that entry's ref and latest snapshot, so it is requested as stored,
    conditionally; the worker sees only these frozen values, never ``kb``.
    A name's outcome is GitHubClient.enrich's pair: the resolved ref and
    snapshot to store, or None, and the failures to log. The worker keeps
    two memos: ``done``, each outcome under the identity requested, and
    ``known``, each snapshot under the identity it resolved to. So no
    repository is requested twice under a name it already answered to, and
    a name that resolves onto a known snapshot keeps that snapshot and
    sends no contributors request. Only this thread touches ``out`` and
    ``kb``, which nothing writes until the feed ends. A feed that ends
    before its ``totalResults`` (up to the cap) is warned about. Then each
    name's outcome is handled once, in first-mention order, as soon as it
    is ready: each failure is logged under the name, never fatal, and the
    snapshot, if any, is stored with the ids of the papers that give the
    name in one ``kb.record`` call, and printed the first time its
    repository is reported. A paper retrieval failure after
    retries is fatal (exit status 1): the repository being enriched is
    finished and no other is started. A client not given is built from
    ``cfg``'s base URL at the API's fixed pacing: 3 s between feed requests
    and 100 ms between GitHub requests, with or without ``cfg``'s token.
    """
    out = out if out is not None else sys.stdout
    client = arxiv_client if arxiv_client is not None else ArxivClient(
        base_url=cfg.arxiv_base_url)
    gh = github_client if github_client is not None else GitHubClient(
        base_url=cfg.github_base_url, token=cfg.github_token)

    out.write("Processing arXiv papers:\n")
    refs: list[RepoRef] = []
    outcomes: dict[tuple[str, str], Future] = {}  # by the name papers give
    papers: dict[tuple[str, str], set[str]] = {}  # the ids that give each name
    done: dict[tuple[str, str], Outcome] = {}  # by the identity requested; worker only
    known: dict[tuple[str, str], Snapshot] = {}  # by the identity resolved; worker only

    def enrich_once(ref: RepoRef, latest: Optional[RepoMetrics]) -> Outcome:
        key = ref.identity()
        if key not in done:
            done[key] = (known[key], ()) if key in known else gh.enrich(ref, latest, known)
            snapshot = done[key][0]
            if snapshot:
                known.setdefault(snapshot[0].identity(), snapshot)
        return done[key]

    processed = 0
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="repoharvest-github") as worker:
        try:
            for paper in client.iterate_papers(cfg.search):
                processed += 1
                out.write(f"\rPaper {processed}/{_papers_promised(client, cfg, processed)}")
                out.flush()
                for ref in _mine_refs(paper):
                    refs.append(ref)
                    papers.setdefault(ref.identity(), set()).add(paper.arxiv_id)
                    if ref.identity() not in outcomes:
                        entry = kb.get(ref)
                        task = (ref, None) if entry is None else (entry.ref, entry.latest)
                        outcomes[ref.identity()] = worker.submit(enrich_once, *task)
            promised = _papers_promised(client, cfg, processed)
            if processed < promised:
                log.warning("the feed ended after %d of %d papers", processed, promised)
            if processed == 0:
                out.write(f"Paper 0/{promised}")
            out.write("\n\n")
            unique = dedupe(refs)
            out.write(f"Found GitHub URLs: {[ref.canonical_url for ref in unique]}\n\n")
            reported: set[tuple[str, str]] = set()
            for ref in unique:
                snapshot, failures = outcomes[ref.identity()].result()
                for failure in failures:
                    log.warning("GitHub fetch failed for %s/%s: %s (%s)%s", ref.owner, ref.name,
                                failure.kind.value, failure.detail,
                                "; its snapshot was kept" if snapshot else "")
                if not snapshot:
                    continue
                entry = kb.record(ref, *snapshot, papers[ref.identity()])
                if snapshot[0].identity() not in reported:
                    reported.add(snapshot[0].identity())
                    out.write(render_report_line(entry.latest, classify(entry.latest)) + "\n")
        except ArxivRequestError as exc:
            out.write("\n")
            log.error("paper retrieval failed: %s", exc)
            return 1
        finally:
            # The repository in progress finishes and no queued one starts.
            worker.shutdown(cancel_futures=True)
    return 0


def _fsync(path: Path) -> None:
    """Flush ``path``, a file or a directory, to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_outputs(cfg: RunConfig, kb: KnowledgeBase) -> int:
    """Write the three output files as a set, the one write-then-rename of
    the program: ``out_dir`` is created if missing, the staged files a
    killed run left in it are removed (one run writes to an ``out_dir`` at
    a time), each file is written to a staged name in it and synced to
    disk, and once all three are synced each is renamed once over its real
    name, ``kb.jsonl`` last; then ``out_dir`` is synced, so the renames
    survive a crash. Exit status 1, with no staged file left, when a file
    cannot be written or synced or a real name is taken by something other
    than a regular file; no file is replaced unless all three were synced.
    Only an I/O fault or a crash between the renames leaves the set mixed."""
    names = (TABLE_FILENAME, REPORT_FILENAME, RECORDS_FILENAME)  # replacing order
    staged = {name: cfg.out_dir / f"{name}.staged.{os.getpid()}" for name in names}
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            for leftover in cfg.out_dir.glob(f"{name}.staged.*"):
                leftover.unlink()
        for target in (cfg.out_dir / name for name in names):
            if target.exists() and not target.is_file():  # a rename over it would fail
                raise OSError(f"{target} is not a regular file")
        save_records(kb, staged[RECORDS_FILENAME])
        export_table(kb, staged[TABLE_FILENAME])
        export_report(kb, staged[REPORT_FILENAME])
        for name in names:
            _fsync(staged[name])
        for name in names:
            os.replace(staged[name], cfg.out_dir / name)
        _fsync(cfg.out_dir)
    except OSError as exc:
        log.error("cannot write outputs to %s: %s", cfg.out_dir, exc)
        return 1
    finally:
        for path in staged.values():
            if path.exists():
                path.unlink()
    return 0


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
    return _write_outputs(cfg, kb)


def _describe_update(old_m, new_m) -> str:
    """Each count that differs, old -> new; a count never counted is unknown."""
    labels = ("stars", "forks", "open issues", "contributors")  # RepoMetrics.counts() order
    shown = [["unknown" if count is None else count for count in m.counts()]
             for m in (old_m, new_m)]
    return ", ".join(f"{label} {old} -> {new}" for label, old, new in zip(labels, *shown)
                     if old != new)


def cmd_monitor(
    cfg: RunConfig,
    previous_path: Optional[str],
    arxiv_client: Optional[ArxivClient] = None,
    github_client: Optional[GitHubClient] = None,
    out: Optional[TextIO] = None,
) -> int:
    """Run the pipeline over the previous store, which it updates in place;
    then, in one pass over ``diff``'s pairs in store order, list each entry
    as Added (the run made it), Updated (counts differ from the entry's own
    snapshot before the run) or Unchanged, and write the output set."""
    out = out if out is not None else sys.stdout
    path = Path(previous_path) if previous_path else cfg.out_dir / RECORDS_FILENAME
    try:
        kb = load_records(path)
    except StoreError as exc:
        log.error("cannot load previous store: %s", exc)
        return 1
    before = {id(entry): entry.latest for entry in kb}  # frozen snapshots, not copies
    status = execute_pipeline(cfg, kb, arxiv_client, github_client, out)
    if status:
        return status
    sections: dict[str, list[str]] = {"Added": [], "Updated": [], "Unchanged": []}
    for entry, old_m in diff(before, kb):
        url = entry.ref.canonical_url
        if old_m is None:
            sections["Added"].append(f"  {url}\n")
        elif old_m.counts() != entry.latest.counts():
            sections["Updated"].append(f"  {url}: {_describe_update(old_m, entry.latest)}\n")
        else:
            sections["Unchanged"].append(f"  {url}\n")
    out.write("\n")
    for title, lines in sections.items():
        out.write(f"{title} ({len(lines)}):\n" + "".join(lines))
    return _write_outputs(cfg, kb)


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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _configure_logging(args.verbose)
    if args.command == "run":  # the parser allows only run and monitor
        return cmd_run(cfg)
    return cmd_monitor(cfg, args.previous)
