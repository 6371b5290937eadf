"""URL mining: extraction, cleaning, canonicalization, deduplication."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from corpus import DECOYS, REPO_URLS
from repoharvest.arxiv import PaperRecord
from repoharvest.cli import _mine_refs
from repoharvest.links import (
    LinkError,
    RepoRef,
    canonicalize,
    clean_url,
    dedupe,
    extract_urls,
)


class TestExtractUrls:
    def test_single_url_with_trailing_period(self):
        text = "Code: https://github.com/ncbi-nlp/BioSentVec. We evaluate..."
        assert extract_urls(text) == ["https://github.com/ncbi-nlp/BioSentVec."]

    def test_two_urls_in_document_order(self):
        text = (
            "We release https://github.com/RyanWangZf/PyTrial and "
            "https://github.com/RyanWangZf/Trial2Vec; both are maintained."
        )
        assert extract_urls(text) == [
            "https://github.com/RyanWangZf/PyTrial",
            "https://github.com/RyanWangZf/Trial2Vec;",
        ]

    def test_no_urls(self):
        assert extract_urls("plain prose with no links") == []

    def test_empty_and_none_like_text(self):
        assert extract_urls("") == []

    @pytest.mark.parametrize("decoy", [
        "github.com/schemeless/nope",
        "https://gitlab.com/other/forge",
        "https://example.com/github.com/trap",
        "see github for details",
        "https://GitHub.community/x/y",
        "ftp://github.com/a/b",
    ])
    def test_non_matches(self, decoy):
        """Only here is a host other than github.com rejected: canonicalize
        takes what extract_urls matched and does not check it again."""
        assert extract_urls(f"prefix {decoy} suffix") == []

    @pytest.mark.parametrize("text", [
        "see <https://github.com/foo/bar> for code",
        r"\href{https://github.com/foo/bar}{code}",
        '<a href="https://github.com/foo/bar">code</a>',
    ])
    def test_url_ends_at_a_character_no_url_holds(self, text):
        """RFC 3986 never allows < > " { } | \\ ^ ` unencoded, so markup
        around a URL is not part of it."""
        assert extract_urls(text) == ["https://github.com/foo/bar"]

    def test_www_and_http_variants_match(self):
        assert extract_urls("at http://www.github.com/a/b now") == ["http://www.github.com/a/b"]

    @pytest.mark.parametrize("url,slug", [
        ("https://GitHub.com/foo/bar", "foo/bar"),
        ("HTTPS://github.com/a/b", "a/b"),
        ("http://WWW.GitHub.com/c/d", "c/d"),
    ])
    def test_scheme_and_host_match_in_any_case(self, url, slug):
        """RFC 3986 makes scheme and host case-insensitive; owner and name
        keep the casing the text gives them."""
        assert extract_urls(f"Code: {url}.") == [f"{url}."]
        ref = canonicalize(clean_url(url), "p")
        assert f"{ref.owner}/{ref.name}" == slug


class TestCleanUrl:
    @pytest.mark.parametrize("raw,expected", [
        ("https://github.com/ncbi-nlp/BioSentVec.", "https://github.com/ncbi-nlp/BioSentVec"),
        ("https://github.com/a/b,", "https://github.com/a/b"),
        ("https://github.com/a/b);", "https://github.com/a/b"),
        ("https://github.com/a/b", "https://github.com/a/b"),
        ('https://github.com/a/b."', "https://github.com/a/b"),
    ])
    def test_strips_trailing_prose_punctuation(self, raw, expected):
        assert clean_url(raw) == expected

    def test_idempotent_on_examples(self):
        for raw in [u + p for u in REPO_URLS for p in (".", ",", ";", "")]:
            once = clean_url(raw)
            assert clean_url(once) == once

    @given(st.text(alphabet=st.characters(blacklist_categories=("Zs", "Cc")), max_size=40))
    def test_idempotent_property(self, tail):
        raw = "https://github.com/a/b" + tail
        once = clean_url(raw)
        assert clean_url(once) == once


class TestCanonicalize:
    def test_basic(self):
        ref = canonicalize("https://github.com/ncbi-nlp/BioSentVec", "2810.04805")
        assert (ref.owner, ref.name) == ("ncbi-nlp", "BioSentVec")
        assert ref.canonical_url == "https://github.com/ncbi-nlp/BioSentVec"
        assert ref.source_papers == frozenset({"2810.04805"})

    def test_strips_www_git_suffix_and_deep_path(self):
        ref = canonicalize("http://www.github.com/a/b.git/tree/main/src", "p")
        assert (ref.owner, ref.name) == ("a", "b")
        assert ref.canonical_url == "https://github.com/a/b"

    def test_git_suffix_alone(self):
        ref = canonicalize("https://github.com/frankkramer-lab/covid19.MISenn.git", "p")
        assert ref.name == "covid19.MISenn"

    def test_query_and_fragment_dropped(self):
        ref = canonicalize("https://github.com/a/b?tab=readme#install", "p")
        assert ref.canonical_url == "https://github.com/a/b"

    @pytest.mark.parametrize("url", [
        "https://github.com/onlyowner",
        "https://github.com/",
        "https://github.com",
    ])
    def test_owner_only_is_not_a_repository(self, url):
        with pytest.raises(LinkError, match="^no owner/name path in "):
            canonicalize(url, "p")

    @pytest.mark.parametrize("url", [
        "https://github.com/bad owner/name",
        "https://github.com/a%32c/b",
        "https://github.com/../user",
        "https://github.com/./x",
        "https://github.com/x/..",
        "https://github.com/x/..git",
        "https://github.com/x/y.git.git",
    ])
    def test_bad_slug_is_malformed(self, url):
        with pytest.raises(LinkError, match="^invalid owner/name in "):
            canonicalize(url, "p")

    def test_all_reference_urls_round_trip(self):
        for url in REPO_URLS:
            ref = canonicalize(url, "p")
            assert ref.canonical_url == url


class TestDedupe:
    def _ref(self, owner, name, sources=()):
        return RepoRef(owner, name, frozenset(sources))

    def test_case_insensitive_first_casing_wins(self):
        a = self._ref("NCBI-NLP", "BioSentVec", {"p1"})
        b = self._ref("ncbi-nlp", "biosentvec", {"p2"})
        merged = dedupe([a, b])
        assert len(merged) == 1
        assert merged[0].owner == "NCBI-NLP"
        assert merged[0].source_papers == {"p1", "p2"}

    def test_preserves_first_seen_order(self):
        refs = [self._ref("z", "one"), self._ref("a", "two"), self._ref("Z", "ONE")]
        merged = dedupe(refs)
        assert [(r.owner, r.name) for r in merged] == [("z", "one"), ("a", "two")]

    def test_distinct_repos_kept(self):
        refs = [self._ref("tanlab", "ConvolutionMedicalNer"),
                self._ref("tanlab", "MIMIC-III-Clinical-Drug-Representations")]
        assert len(dedupe(refs)) == 2

    def test_empty(self):
        assert dedupe([]) == []

    @given(st.lists(st.sampled_from(REPO_URLS), max_size=60))
    def test_size_never_exceeds_distinct_identities(self, urls):
        refs = [canonicalize(u, f"p{i}") for i, u in enumerate(urls)]
        merged = dedupe(refs)
        assert len(merged) == len({r.identity() for r in refs})
        # every source paper survives the merge
        assert set().union(*(r.source_papers for r in merged), set()) == {
            f"p{i}" for i in range(len(urls))
        }


def test_decoy_urls_never_survive_the_full_chain():
    survivors = []
    for decoy in DECOYS:
        for url in extract_urls(f"text {decoy}. more"):
            try:
                survivors.append(canonicalize(clean_url(url), "p"))
            except LinkError:
                pass
    assert survivors == []


def mined(text: str) -> list[str]:
    """owner/name of each repository the pipeline mines from ``text``."""
    return [f"{ref.owner}/{ref.name}" for ref in _mine_refs(PaperRecord("p", "", text, ""))]


class TestTexAndNonAsciiText:
    @pytest.mark.parametrize("text, slugs", [
        (r"Code: https://github.com/luoyuanlab/Clinical\_Longformer.",
         ["luoyuanlab/Clinical_Longformer"]),
        (r"\url{https://github.com/a/b\_c}", ["a/b_c"]),
        (r"\href{https://github.com/foo/bar}{code}", ["foo/bar"]),
        (r"see https://github.com/foo/bar\\ and more", ["foo/bar"]),
    ])
    def test_a_tex_escaped_underscore_is_an_underscore(self, text, slugs):
        """Only the pair \\_ continues a URL; any other backslash ends it."""
        assert mined(text) == slugs

    @pytest.mark.parametrize("text", [
        "https://github.com/foo/bar\u2019s code",  # right single quote
        "https://github.com/foo/bar\u3002",  # ideographic full stop
        "\u201chttps://github.com/foo/bar\u201d",  # curly double quotes
    ])
    def test_a_url_ends_at_its_first_non_ascii_character(self, text):
        assert mined(text) == ["foo/bar"]

    def test_an_encoded_space_is_still_refused(self):
        assert mined("https://github.com/a/bad%20name") == []


# owner/name that mine back unchanged: slug characters, not ending in "."
# (prose punctuation) and no ".git" suffix
_SLUG = st.from_regex(r"[A-Za-z0-9._-]{0,12}[A-Za-z0-9_-]", fullmatch=True).filter(
    lambda slug: not slug.endswith(".git"))


@given(_SLUG, _SLUG, st.characters(min_codepoint=0x80), st.text(max_size=20))
def test_any_non_ascii_character_ends_a_url(owner, name, stop, rest):
    assert mined(f"Code: https://github.com/{owner}/{name}{stop}{rest}")[:1] == [
        f"{owner}/{name}"]


@given(_SLUG, _SLUG)
def test_tex_escapes_mine_back_to_the_name(owner, name):
    escaped = name.replace("_", "\\_")
    assert mined(f"Code: \\url{{https://github.com/{owner}/{escaped}}}.") == [
        f"{owner}/{name}"]
