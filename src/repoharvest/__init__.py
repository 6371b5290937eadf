"""Harvest GitHub repositories cited in arXiv paper metadata, grade their
maturity from live repository statistics, and keep the results in an
incrementally updatable knowledge base."""

from .arxiv import (
    ArxivClient,
    ArxivRequestError,
    FeedParseError,
    PaperRecord,
    SearchSpec,
    SearchSpecError,
    build_query,
    default_spec,
)
from .github import (
    FailureKind,
    FetchFailure,
    GitHubClient,
    GitHubFetchError,
    RepoMetrics,
    ThrottlePolicy,
)
from .kb import (
    KbDiff,
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
from .links import (
    LinkError,
    MalformedUrlError,
    NotARepositoryError,
    RawUrlHit,
    RepoRef,
    canonicalize,
    clean_url,
    dedupe,
    extract_urls,
)
from .maturity import DEFAULT_RULE, MaturityTier, TierRule, classify
from .throttle import RequestGate

__version__ = "0.1.0"

__all__ = [
    "ArxivClient",
    "ArxivRequestError",
    "DEFAULT_RULE",
    "FailureKind",
    "FeedParseError",
    "FetchFailure",
    "GitHubClient",
    "GitHubFetchError",
    "KbDiff",
    "KbEntry",
    "KnowledgeBase",
    "LinkError",
    "MalformedUrlError",
    "MaturityTier",
    "NotARepositoryError",
    "PaperRecord",
    "RawUrlHit",
    "RepoMetrics",
    "RepoRef",
    "RequestGate",
    "SearchSpec",
    "SearchSpecError",
    "StoreError",
    "ThrottlePolicy",
    "TierRule",
    "build_query",
    "canonicalize",
    "classify",
    "clean_url",
    "dedupe",
    "default_spec",
    "diff",
    "export_report",
    "export_table",
    "extract_urls",
    "load_records",
    "render_report_line",
    "save_records",
    "__version__",
]
