"""GitHub link mining from paper metadata text.

Finds GitHub URLs in free text, trims the prose punctuation that typically
trails them, reduces each to the owner/name that names its repository, and
keeps the first mention of each case-insensitive owner/name.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable
from urllib.parse import urlsplit

# A GitHub URL in running text: scheme, optional www, then a non-empty run
# of path characters. Scheme and host match in any case (RFC 3986 §3.1,
# §3.2.2); the path keeps the case the text gives it. The run ends at
# whitespace, at a non-ASCII character (a URL is ASCII, so a curly quote
# or full-width stop after one is prose), or at a character RFC 3986 never
# allows unencoded (< > " { } | \ ^ `), so markup around a URL stays out
# of it; only TeX's escape ``\_`` continues it. Trailing sentence
# punctuation is part of the match and removed by clean_url.
_URL_PATTERN = re.compile(
    r"(?i:https?://(?:www\.)?github\.com)/(?:[^\s<>\"{}|\\^`\x80-\U0010ffff]|\\_)+")

# Characters prose glues onto a URL; stripped repeatedly from the right.
_TRAILING_JUNK = ".,;:!?)]}'\""

# An owner or a name, but not "." or "..": a URL resolver folds those
# path segments away, and the request would go to another API path. Used
# with fullmatch: "$" would also match before a trailing newline.
_SLUG_PATTERN = re.compile(r"(?!\.\.?$)[A-Za-z0-9._-]+")


class LinkError(ValueError):
    """A URL does not name a GitHub owner/name repository."""


@dataclass(frozen=True)
class RepoRef:
    """A repository's owner/name, nothing more."""

    owner: str
    name: str

    @property
    def canonical_url(self) -> str:
        return f"https://github.com/{self.owner}/{self.name}"

    def identity(self) -> tuple[str, str]:
        """Dedup key: case-insensitive (owner, name)."""
        return (self.owner.lower(), self.name.lower())


def extract_urls(text: str) -> list[str]:
    r"""Return every GitHub URL in ``text`` as matched, each TeX ``\_``
    read as ``_``, in document order.

    A match ends at whitespace, at a non-ASCII character, or at a character
    no URL holds unencoded, such as "<", '"', "}" or a "\" that does not
    escape "_"; trailing punctuation stays attached until clean_url removes
    it. Empty or URL-free text yields [].
    """
    return [url.replace("\\_", "_") for url in _URL_PATTERN.findall(text or "")]


def clean_url(url: str) -> str:
    """Strip trailing prose punctuation from a matched URL. Idempotent."""
    return url.rstrip(_TRAILING_JUNK)


def canonicalize(cleaned: str) -> RepoRef:
    """Reduce a GitHub URL that extract_urls matched, after clean_url, to
    its owner/name repository identity; the host is not checked again.

    Keeps the first two path segments, strips one ".git" suffix from the
    name, and discards any deeper path, query, or fragment. Raises
    LinkError when fewer than two path segments are present (e.g. a
    profile URL), or when what is left fails repo_from_name's rule.
    """
    segments = [s for s in urlsplit(cleaned).path.split("/") if s]
    if len(segments) < 2:
        raise LinkError(f"no owner/name path in {cleaned!r}")
    return repo_from_name(f"{segments[0]}/{segments[1].removesuffix('.git')}")


def repo_from_name(text) -> RepoRef:
    """The repository an exact ``owner/name`` string names.

    The one owner/name rule, for a URL's path (through canonicalize),
    GitHub's ``full_name`` and a store line: one owner and one name joined
    by "/", each made of the characters GitHub slugs allow and neither "."
    nor "..", and a name with no ".git" suffix. Anything else, a value
    that is not a string included, raises LinkError.
    """
    owner, _, name = str(text).partition("/")
    if not (isinstance(text, str) and _SLUG_PATTERN.fullmatch(owner)
            and _SLUG_PATTERN.fullmatch(name) and not name.endswith(".git")):
        raise LinkError(f"not an owner/name: {text!r}")
    return RepoRef(owner, name)


def dedupe(refs: Iterable[RepoRef]) -> list[RepoRef]:
    """The first ref of each case-insensitive (owner, name) identity, in
    first-mention order: the first-seen casing wins."""
    first: dict[tuple[str, str], RepoRef] = {}
    for ref in refs:
        first.setdefault(ref.identity(), ref)
    return list(first.values())
