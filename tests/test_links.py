"""URL mining: extraction, cleaning, canonicalization, deduplication."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from conftest import make_metrics, make_ref
from corpus import DECOYS, REPO_URLS
from repoharvest.arxiv import PaperRecord
from repoharvest.cli import _mine_refs
from repoharvest.kb import KbEntry, StoreError, entry_to_dict, load_records
from repoharvest.links import (
    LinkError,
    RepoRef,
    canonicalize,
    clean_url,
    dedupe,
    extract_urls,
    repo_from_name,
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
        ref = canonicalize(clean_url(url))
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
        ref = canonicalize("https://github.com/ncbi-nlp/BioSentVec")
        assert ref == RepoRef("ncbi-nlp", "BioSentVec")
        assert ref.canonical_url == "https://github.com/ncbi-nlp/BioSentVec"

    def test_strips_www_git_suffix_and_deep_path(self):
        ref = canonicalize("http://www.github.com/a/b.git/tree/main/src")
        assert (ref.owner, ref.name) == ("a", "b")
        assert ref.canonical_url == "https://github.com/a/b"

    def test_git_suffix_alone(self):
        ref = canonicalize("https://github.com/frankkramer-lab/covid19.MISenn.git")
        assert ref.name == "covid19.MISenn"

    def test_query_and_fragment_dropped(self):
        ref = canonicalize("https://github.com/a/b?tab=readme#install")
        assert ref.canonical_url == "https://github.com/a/b"

    @pytest.mark.parametrize("url", [
        "https://github.com/onlyowner",
        "https://github.com/",
        "https://github.com",
    ])
    def test_owner_only_is_not_a_repository(self, url):
        with pytest.raises(LinkError, match="^no owner/name path in "):
            canonicalize(url)

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
        with pytest.raises(LinkError, match="^not an owner/name: "):
            canonicalize(url)

    def test_all_reference_urls_round_trip(self):
        for url in REPO_URLS:
            ref = canonicalize(url)
            assert ref.canonical_url == url


class TestDedupe:
    def test_case_insensitive_first_casing_wins(self):
        a = RepoRef("NCBI-NLP", "BioSentVec")
        merged = dedupe([a, RepoRef("ncbi-nlp", "biosentvec")])
        assert merged == [a]
        assert merged[0] is a

    def test_preserves_first_seen_order(self):
        refs = [RepoRef("z", "one"), RepoRef("a", "two"), RepoRef("Z", "ONE")]
        merged = dedupe(refs)
        assert [(r.owner, r.name) for r in merged] == [("z", "one"), ("a", "two")]

    def test_distinct_repos_kept(self):
        refs = [RepoRef("tanlab", "ConvolutionMedicalNer"),
                RepoRef("tanlab", "MIMIC-III-Clinical-Drug-Representations")]
        assert len(dedupe(refs)) == 2

    def test_empty(self):
        assert dedupe([]) == []

    @given(st.lists(st.sampled_from(REPO_URLS), max_size=60))
    def test_keeps_the_first_ref_of_each_identity(self, urls):
        refs = [canonicalize(u) for u in urls]
        assert dedupe(refs) == [ref for i, ref in enumerate(refs)
                                if ref.identity() not in {r.identity() for r in refs[:i]}]


def test_decoy_urls_never_survive_the_full_chain():
    survivors = []
    for decoy in DECOYS:
        for url in extract_urls(f"text {decoy}. more"):
            try:
                survivors.append(canonicalize(clean_url(url)))
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


# An owner or a name as a URL path holds it: slug characters and a few that
# GitHub slugs never hold, but no "/", "?" or "#" and no ".git" suffix. Its
# only ASCII letters are a and b, so it never repeats the store's "octo/spoon".
_SEGMENT = st.text(st.sampled_from("abAB09._- %~\u00e9\u0660\uff41"), max_size=6).filter(
    lambda segment: not segment.endswith(".git"))


def _owner_name(owner: str, name: str):
    """repo_from_name's answer to ``owner/name``, or None when it refuses."""
    try:
        return repo_from_name(f"{owner}/{name}")
    except LinkError:
        return None


class TestOneOwnerNameRule:
    @pytest.mark.parametrize("text", ["\uff41/b", "a/\u00e9", "a/\u0660", "a b/c", "a/%41", "a/b~"])
    def test_only_ascii_slug_characters_make_a_name(self, text):
        with pytest.raises(LinkError, match="^not an owner/name: "):
            repo_from_name(text)

    @given(_SEGMENT, _SEGMENT)
    def test_canonicalize_refuses_exactly_what_repo_from_name_refuses(self, owner, name):
        expected = _owner_name(owner, name)
        try:
            ref = canonicalize(f"https://github.com/{owner}/{name}")
        except LinkError:
            assert expected is None
        else:
            assert (ref.owner, ref.name) == (expected.owner, expected.name)

    @given(_SEGMENT, _SEGMENT)
    def test_a_store_alias_loads_exactly_when_repo_from_name_accepts_it(
            self, tmp_path_factory, owner, name):
        metrics = make_metrics()
        record = entry_to_dict(KbEntry(make_ref(), metrics, first_seen=metrics.fetched_at))
        record["aliases"] = [f"{owner}/{name}"]
        path = tmp_path_factory.mktemp("store") / "kb.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        expected = _owner_name(owner, name)
        try:
            (entry,) = load_records(path)
        except StoreError:
            assert expected is None
        else:
            assert entry.aliases == {expected}
