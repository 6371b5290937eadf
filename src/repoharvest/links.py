"""GitHub link mining from paper metadata text.

Finds GitHub URLs in free text, trims the prose punctuation that typically
trails them, reduces each to its owner/name repository identity, and
deduplicates case-insensitively across papers.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterable
from urllib.parse import urlsplit

# A GitHub URL in running text: scheme, optional www, then a non-empty run
# of non-whitespace path characters. Trailing sentence punctuation is part
# of the match and removed by clean_url.
_URL_PATTERN = re.compile(r"https?://(?:www\.)?github\.com/\S+")

# Characters prose glues onto a URL; stripped repeatedly from the right.
_TRAILING_JUNK = ".,;:!?)]}'\""

_SLUG_PATTERN = re.compile(r"^[A-Za-z0-9._-]+$")
_HOST_PATTERN = re.compile(r"^https?://(?:www\.)?github\.com(?=/|$)")


class LinkError(ValueError):
    """A URL does not name a GitHub owner/name repository."""


@dataclass(frozen=True)
class RepoRef:
    """Canonical repository identity plus the papers that mentioned it."""

    owner: str
    name: str
    source_papers: frozenset[str] = frozenset()

    @property
    def canonical_url(self) -> str:
        return f"https://github.com/{self.owner}/{self.name}"

    def identity(self) -> tuple[str, str]:
        """Dedup key: case-insensitive (owner, name)."""
        return (self.owner.lower(), self.name.lower())


def extract_urls(text: str) -> list[str]:
    """Return every GitHub URL in ``text`` exactly as matched, in document
    order.

    Matches are maximal non-whitespace runs, so trailing punctuation stays
    attached until clean_url removes it. Empty or URL-free text yields [].
    """
    return _URL_PATTERN.findall(text or "")


def clean_url(url: str) -> str:
    """Strip trailing prose punctuation from a matched URL. Idempotent."""
    return url.rstrip(_TRAILING_JUNK)


def canonicalize(cleaned: str, source: str) -> RepoRef:
    """Reduce a cleaned GitHub URL to its owner/name repository identity.

    Normalizes the scheme to https, drops "www.", keeps the first two path
    segments, strips a ".git" suffix from the name, and discards any deeper
    path, query, or fragment.

    Raises LinkError when the host is not github.com, when fewer than two
    path segments are present (e.g. a profile URL), or when the owner or
    name contains characters GitHub slugs do not allow.
    """
    if not _HOST_PATTERN.match(cleaned):
        raise LinkError(f"not a GitHub URL: {cleaned!r}")
    segments = [s for s in urlsplit(cleaned).path.split("/") if s]
    if len(segments) < 2:
        raise LinkError(f"no owner/name path in {cleaned!r}")
    owner, name = segments[0], segments[1]
    if name.endswith(".git"):
        name = name[: -len(".git")]
    if not name or not _SLUG_PATTERN.match(owner) or not _SLUG_PATTERN.match(name):
        raise LinkError(f"invalid owner/name in {cleaned!r}")
    return RepoRef(owner, name, frozenset({source}) if source else frozenset())


def dedupe(refs: Iterable[RepoRef]) -> list[RepoRef]:
    """Merge refs that share a case-insensitive (owner, name) identity.

    The first-seen casing wins; source papers are unioned. Output
    preserves first-occurrence order.
    """
    merged: dict[tuple[str, str], RepoRef] = {}
    for ref in refs:
        key = ref.identity()
        seen = merged.get(key)
        if seen is None:
            merged[key] = ref
        elif not ref.source_papers <= seen.source_papers:
            merged[key] = replace(
                seen, source_papers=seen.source_papers | ref.source_papers
            )
    return list(merged.values())
