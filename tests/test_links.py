"""URL mining: extraction, cleaning, canonicalization, deduplication."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from corpus import DECOYS, REPO_URLS
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
    ])
    def test_non_matches(self, decoy):
        assert extract_urls(f"prefix {decoy} suffix") == []

    def test_www_and_http_variants_match(self):
        assert extract_urls("at http://www.github.com/a/b now") == ["http://www.github.com/a/b"]


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
        "https://gitlab.com/a/b",
        "https://example.com/github.com/a/b",
        "ftp://github.com/a/b",
        "https://github.com/bad owner/name",
        "https://github.com/a%32c/b",
    ])
    def test_wrong_host_or_bad_slug_is_malformed(self, url):
        with pytest.raises(LinkError, match="^(not a GitHub URL:|invalid owner/name in) "):
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
