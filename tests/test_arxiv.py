"""Feed client: query construction, parsing, paging, retries, politeness."""
from __future__ import annotations

import logging

import pytest
import requests
from hypothesis import given, strategies as st

from conftest import FakeClock, FakeResponse, FakeSession, atom_entry, atom_feed
from repoharvest.arxiv import (
    DEFAULT_TERMS,
    ArxivClient,
    ArxivRequestError,
    PaperRecord,
    SearchSpec,
    build_query,
    strip_version,
)

EXPECTED_DEFAULT_QUERY = (
    "ti:clinical informatics OR abs:clinical informatics OR "
    "ti:healthcare data analytics OR abs:healthcare data analytics OR "
    "ti:electronic health records OR abs:electronic health records OR "
    "ti:medical software development OR abs:medical software development "
    "AND submittedDate:[201901010000 TO 202412312359]"
)


def _client(handler, clock=None, delay=0.0, **kwargs):
    clock = clock or FakeClock()
    session = FakeSession(handler, clock=clock)
    client = ArxivClient(
        base_url="http://feed.test/api/query",
        delay=delay,
        session=session,
        clock=clock,
        sleep=clock.sleep,
        **kwargs,
    )
    return client, session, clock


class TestBuildQuery:
    def test_default_query_string_exact(self):
        assert build_query(SearchSpec(terms=DEFAULT_TERMS)) == EXPECTED_DEFAULT_QUERY

    def test_single_term(self):
        spec = SearchSpec(terms=("sepsis prediction",), from_year=2020, to_year=2021)
        assert build_query(spec) == (
            "ti:sepsis prediction OR abs:sepsis prediction"
            " AND submittedDate:[202001010000 TO 202112312359]"
        )

    def test_terms_are_trimmed(self):
        spec = SearchSpec(terms=("  icu mortality  ",))
        assert build_query(spec).startswith("ti:icu mortality OR abs:icu mortality")

    @given(st.lists(st.sampled_from(["alpha", "beta gamma", "delta"]),
                    min_size=1, max_size=6),
           st.integers(1000, 9999), st.integers(1000, 9999))
    def test_clause_count_scales_with_terms(self, terms, year_a, year_b):
        from_year, to_year = sorted((year_a, year_b))
        query = build_query(SearchSpec(terms=tuple(terms), from_year=from_year, to_year=to_year))
        assert query.count(" OR ") == 2 * len(terms) - 1
        assert query.count("ti:") == len(terms)
        assert query.count("abs:") == len(terms)
        assert query.endswith(
            f" AND submittedDate:[{from_year}01010000 TO {to_year}12312359]")


class TestStripVersion:
    @pytest.mark.parametrize("arxiv_id, expected", [
        ("2102.00002v2", "2102.00002"),
        ("2102.00002v12", "2102.00002"),
        ("0704.0001v1", "0704.0001"),
        ("hep-th/9901001v1", "hep-th/9901001"),
        ("math.GT/0309136v3", "math.GT/0309136"),
        ("2102.00002", "2102.00002"),
        ("hep-th/9901001", "hep-th/9901001"),
    ])
    def test_either_arxiv_shape_loses_its_version(self, arxiv_id, expected):
        assert strip_version(arxiv_id) == expected

    @pytest.mark.parametrize("arxiv_id", [
        "", "p1", "id0001v2", "draft-v2", "2102.00002v", "2102.000002v1", "21020.0002v1",
        "hep-th/990100v1", "2102.00002v2 ", "2102.00002v2\n", "x/2102.00002v2",
    ])
    def test_an_id_of_neither_shape_is_returned_as_is(self, arxiv_id):
        assert strip_version(arxiv_id) == arxiv_id

    @given(st.text())
    def test_removes_at_most_a_version_and_is_idempotent(self, text):
        stripped = strip_version(text)
        assert text.startswith(stripped)
        assert strip_version(stripped) == stripped


class TestSearchSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"terms": ()},
        {"terms": ("ok", "   ")},
        {"terms": ("ok",), "from_year": 2025, "to_year": 2024},
        {"terms": ("ok",), "from_year": 999},
        {"terms": ("ok",), "to_year": 10000},
        {"terms": ("ok",), "from_year": -5},
        {"terms": ("ok",), "max_results": 0},
        {"terms": ("ok",), "page_size": 0},
        {"terms": ("ok",), "max_results": 5000, "page_size": 2001},
    ])
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ValueError, match=" must "):
            SearchSpec(**kwargs)

    def test_good_spec_accepted(self):
        spec = SearchSpec(terms=("a",), max_results=10, page_size=10)
        assert spec.page_size == 10


class TestFetchPage:
    def test_parses_three_entry_feed(self):
        """The second id loses its ``v2``: every version is one paper."""
        feed = atom_feed(
            [
                atom_entry("2101.00001", "First title", "First abstract",
                           "2021-01-05T10:00:00Z"),
                atom_entry("2102.00002v2", "Second", "Body two",
                           "2021-02-06T00:00:00Z"),
                atom_entry("2103.00003", "Third", "Body three",
                           "2021-03-07T23:59:59Z"),
            ],
            total=3,
        )
        client, _, _ = _client(lambda url, params: FakeResponse(text=feed))
        records = client.fetch_page("q", 0, 10)
        assert records == [
            PaperRecord("2101.00001", "First title", "First abstract", ""),
            PaperRecord("2102.00002", "Second", "Body two", ""),
            PaperRecord("2103.00003", "Third", "Body three", ""),
        ]
        assert client.last_total_results == 3

    def test_request_params(self):
        feed = atom_feed([], total=0)
        client, session, _ = _client(lambda url, params: FakeResponse(text=feed))
        client.fetch_page("some query", 40, 20)
        _, url, params = session.calls[0]
        assert url == "http://feed.test/api/query"
        assert params == {"search_query": "some query", "start": 40, "max_results": 20}

    def test_empty_feed(self):
        client, _, _ = _client(lambda url, params: FakeResponse(text=atom_feed([], total=0)))
        assert client.fetch_page("q", 0, 10) == []
        assert client.last_total_results == 0

    @pytest.mark.parametrize("total", ["²", "١٢", "twelve"])
    def test_total_that_is_not_an_ascii_number_is_ignored(self, total):
        """"²".isdigit() is true, yet int("²") raises ValueError."""
        feed = atom_feed([atom_entry("2101.00001")], total=total)
        client, _, _ = _client(lambda url, params: FakeResponse(text=feed))
        assert [record.arxiv_id for record in client.fetch_page("q", 0, 10)] == ["2101.00001"]
        assert client.last_total_results is None

    def test_total_too_long_for_int_is_ignored(self):
        """Since Python 3.11, int() refuses a string of more than 4300 digits."""
        feed = atom_feed([atom_entry("2101.00001")], total="9" * 5000)
        client, _, _ = _client(lambda url, params: FakeResponse(text=feed))
        assert [record.arxiv_id for record in client.fetch_page("q", 0, 10)] == ["2101.00001"]
        assert client.last_total_results in (None, 10 ** 5000 - 1)

    def test_entry_missing_id_names_position(self):
        bad = atom_feed([
            atom_entry("2101.00001"),
            "<entry><title>no id</title><published>2021-01-01T00:00:00Z</published></entry>",
        ])
        client, _, _ = _client(lambda url, params: FakeResponse(text=bad))
        with pytest.raises(ArxivRequestError, match="^entry 1: missing <id>$"):
            client.fetch_page("q", 0, 10)

    @pytest.mark.parametrize("raw_id", [
        "http://arxiv.org/abs/", "  http://arxiv.org/abs/  ", "http://arxiv.org/abs/abs/"])
    def test_an_id_empty_after_abs_is_refused_like_a_missing_one(self, raw_id):
        bad = atom_feed([f"<entry><id>{raw_id}</id><title>T</title></entry>"])
        client, _, _ = _client(lambda url, params: FakeResponse(text=bad))
        with pytest.raises(ArxivRequestError, match="^entry 0: missing <id>$"):
            client.fetch_page("q", 0, 10)

    @pytest.mark.parametrize("published", [
        "<published>not-a-date</published>", "<published></published>", "",
    ], ids=["bad", "empty", "absent"])
    def test_published_is_not_read(self, published):
        """A bad or missing <published> does not stop the page: the harvest
        never reads it."""
        feed = atom_feed([
            atom_entry("2101.00001"),
            f"<entry><id>http://arxiv.org/abs/x</id><title>T</title>{published}</entry>",
        ])
        client, _, _ = _client(lambda url, params: FakeResponse(text=feed))
        assert client.fetch_page("q", 0, 10) == [
            PaperRecord("2101.00001", "", "", ""), PaperRecord("x", "T", "", ""),
        ]

    def test_non_xml_body(self):
        client, _, _ = _client(lambda url, params: FakeResponse(text="<html>boom"))
        with pytest.raises(ArxivRequestError, match="^feed is not well-formed XML: "):
            client.fetch_page("q", 0, 10)

    def test_http_error_carries_status(self):
        client, session, _ = _client(lambda url, params: FakeResponse(status_code=500, text="x"))
        with pytest.raises(ArxivRequestError, match="^HTTP 500 from feed endpoint at start=0$"):
            client.fetch_page("q", 0, 10)
        assert len(session.calls) == 3  # a 5xx is retried within the budget

    def test_transport_exception_retried_then_raised(self):
        def handler(url, params):
            raise requests.ConnectionError("connection refused")

        client, session, _ = _client(handler)
        with pytest.raises(ArxivRequestError,
                           match="^transport failure at start=0: connection refused$"):
            client.fetch_page("q", 0, 10)
        assert len(session.calls) == 3


class TestIteratePapers:
    def _paged_handler(self, n_papers, page_size_expected=None, fail_first=0):
        entries = [atom_entry(f"id{i:04d}", f"t{i}", f"a{i}") for i in range(n_papers)]
        state = {"fails": fail_first}

        def handler(url, params):
            if state["fails"] > 0:
                state["fails"] -= 1
                return FakeResponse(status_code=503, text="busy")
            start = params["start"]
            count = params["max_results"]
            if page_size_expected is not None:
                assert count == page_size_expected
            return FakeResponse(text=atom_feed(entries[start:start + count],
                                               total=n_papers))

        return handler

    def test_three_pages_for_thirteen_papers(self):
        client, session, _ = _client(self._paged_handler(13))
        spec = SearchSpec(terms=("x",), max_results=100, page_size=5)
        records = list(client.iterate_papers(spec))
        assert len(records) == 13
        assert [p[2]["start"] for p in session.calls] == [0, 5, 10]
        assert client.last_total_results == 13

    def test_every_page_sends_the_timestamp_date_range(self):
        client, session, _ = _client(self._paged_handler(13))
        spec = SearchSpec(terms=DEFAULT_TERMS, max_results=100, page_size=5)
        list(client.iterate_papers(spec))
        assert len(session.calls) == 3
        for _, _, params in session.calls:
            assert params["search_query"] == EXPECTED_DEFAULT_QUERY
            assert params["search_query"].endswith(
                "submittedDate:[201901010000 TO 202412312359]")

    def test_date_range_inside_a_term_is_sent_verbatim(self):
        client, session, _ = _client(self._paged_handler(0))
        list(client.iterate_papers(SearchSpec(terms=("submittedDate:[2000 TO 2001]",))))
        assert [params["search_query"] for _, _, params in session.calls] == [
            "ti:submittedDate:[2000 TO 2001] OR abs:submittedDate:[2000 TO 2001]"
            " AND submittedDate:[201901010000 TO 202412312359]"
        ]

    def test_stops_at_max_results_without_extra_request(self):
        client, session, _ = _client(self._paged_handler(50))
        spec = SearchSpec(terms=("x",), max_results=6, page_size=3)
        records = list(client.iterate_papers(spec))
        assert len(records) == 6
        assert len(session.calls) == 2

    def test_exact_page_boundary_stops_on_short_page(self):
        client, session, _ = _client(self._paged_handler(10))
        spec = SearchSpec(terms=("x",), max_results=100, page_size=5)
        assert len(list(client.iterate_papers(spec))) == 10
        # third request returns the empty short page and ends iteration
        assert len(session.calls) == 3

    def test_two_versions_of_a_paper_are_one_paper(self):
        page = [atom_entry("2102.00002v1", "t", "a"), atom_entry("2102.00002v2", "t", "b"),
                atom_entry("hep-th/9901001v1", "t", "c")]
        client, _, _ = _client(lambda url, params: FakeResponse(text=atom_feed(page, total=3)))
        spec = SearchSpec(terms=("x",), max_results=10, page_size=5)
        assert [(r.arxiv_id, r.abstract) for r in client.iterate_papers(spec)] == [
            ("2102.00002", "a"), ("hep-th/9901001", "c")]

    def test_duplicate_ids_across_pages_are_skipped(self):
        first = [atom_entry("dup", "t", "a"), atom_entry("u1", "t", "a")]
        second = [atom_entry("dup", "t", "a")]

        def handler(url, params):
            page = first if params["start"] == 0 else second
            return FakeResponse(text=atom_feed(page, total=3))

        client, _, _ = _client(handler)
        spec = SearchSpec(terms=("x",), max_results=10, page_size=2)
        ids = [r.arxiv_id for r in client.iterate_papers(spec)]
        assert ids == ["dup", "u1"]

    def test_a_full_page_with_no_new_id_ends_the_feed(self):
        page = [atom_entry("id0", "t", "a"), atom_entry("id1", "t", "a")]

        def handler(url, params):  # ignores start
            assert len(session.calls) <= 5, "paging forever"
            return FakeResponse(text=atom_feed(page, total=10))

        client, session, _ = _client(handler)
        spec = SearchSpec(terms=("x",), max_results=10, page_size=2)
        assert [r.arxiv_id for r in client.iterate_papers(spec)] == ["id0", "id1"]
        assert [params["start"] for _, _, params in session.calls] == [0, 2]

    def test_a_short_page_the_total_contradicts_is_asked_for_again(self):
        """Page 2 comes back short once, then full: every paper arrives, at
        the cost of one extra request."""
        entries = [atom_entry(f"id{i:02d}") for i in range(15)]
        short = {"left": 1}

        def handler(url, params):
            start, count = params["start"], params["max_results"]
            if start == 5 and short["left"]:
                short["left"] -= 1
                count = 3
            return FakeResponse(text=atom_feed(entries[start:start + count], total=15))

        client, session, _ = _client(handler)
        spec = SearchSpec(terms=("x",), max_results=100, page_size=5)
        assert [r.arxiv_id for r in client.iterate_papers(spec)] == [
            f"id{i:02d}" for i in range(15)]
        assert [params["start"] for _, _, params in session.calls] == [0, 5, 5, 10, 15]

    def test_a_short_page_at_a_shrunken_total_is_the_end(self):
        """Page 2 is short against a total of 15, then short again with a
        total that shrank to where it ends: no further request."""
        entries = [atom_entry(f"id{i:02d}") for i in range(15)]
        totals = {0: [15], 5: [15, 8]}

        def handler(url, params):
            start = params["start"]
            count = params["max_results"] if start == 0 else 3
            return FakeResponse(text=atom_feed(entries[start:start + count],
                                               total=totals[start].pop(0)))

        client, session, _ = _client(handler)
        spec = SearchSpec(terms=("x",), max_results=100, page_size=5)
        assert len(list(client.iterate_papers(spec))) == 8
        assert [params["start"] for _, _, params in session.calls] == [0, 5, 5]
        assert client.last_total_results == 8

    def test_politeness_delay_between_page_requests(self):
        clock = FakeClock()
        client, session, clock = _client(self._paged_handler(9), clock=clock, delay=3.0)
        spec = SearchSpec(terms=("x",), max_results=100, page_size=3)
        list(client.iterate_papers(spec))
        times = session.times
        assert len(times) >= 3
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= 3.0

    def test_retries_server_errors_then_succeeds(self):
        client, session, _ = _client(self._paged_handler(2, fail_first=2))
        spec = SearchSpec(terms=("x",), max_results=10, page_size=5)
        records = list(client.iterate_papers(spec))
        assert len(records) == 2
        assert len(session.calls) == 3  # two 503s then the good page

    def test_retry_budget_exhausted_raises(self):
        client, session, _ = _client(self._paged_handler(2, fail_first=5))
        spec = SearchSpec(terms=("x",), max_results=10, page_size=5)
        with pytest.raises(ArxivRequestError):
            list(client.iterate_papers(spec))
        assert len(session.calls) == 3  # first attempt + 2 retries

    def test_client_error_is_not_retried(self):
        calls = []

        def handler(url, params):
            calls.append(url)
            return FakeResponse(status_code=400, text="bad request")

        client, _, _ = _client(handler)
        spec = SearchSpec(terms=("x",), max_results=10, page_size=5)
        with pytest.raises(ArxivRequestError):
            list(client.iterate_papers(spec))
        assert len(calls) == 1

    def test_retry_after_hint_is_honored(self):
        state = {"first": True}
        entries = [atom_entry("a", "t", "b")]

        def handler(url, params):
            if state["first"]:
                state["first"] = False
                return FakeResponse(status_code=503, text="busy",
                                    headers={"Retry-After": "25"})
            return FakeResponse(text=atom_feed(entries, total=1))

        clock = FakeClock()
        client, session, clock = _client(handler, clock=clock, delay=0.0)
        list(client.iterate_papers(SearchSpec(terms=("x",), max_results=5, page_size=5)))
        times = session.times
        assert times[1] - times[0] >= 25.0

    def test_long_retry_after_warning_names_the_page(self, caplog):
        answers = [
            FakeResponse(status_code=503, text="busy", headers={"Retry-After": "120"}),
            FakeResponse(text=atom_feed([atom_entry("a", "t", "b")], total=201)),
        ]
        client, _, clock = _client(lambda url, params: answers.pop(0))
        with caplog.at_level(logging.WARNING, logger="repoharvest"):
            assert len(client.fetch_page("q", 200, 100)) == 1
        assert clock.sleeps == [120.0]
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [(
            logging.WARNING,
            "HTTP 503 from feed endpoint at start=200; waiting 120 s before retrying",
        )]

    def test_infinite_retry_after_falls_back_to_backoff(self):
        def handler(url, params):
            return FakeResponse(status_code=503, text="busy", headers={"Retry-After": "inf"})

        client, session, clock = _client(handler)
        with pytest.raises(ArxivRequestError):
            list(client.iterate_papers(SearchSpec(terms=("x",), max_results=5, page_size=5)))
        assert len(session.calls) == 3
        assert clock.sleeps == [1.0, 2.0]  # the doubling backoff, not the hint


    @pytest.mark.parametrize("hint", ["1e20", "3601"])
    def test_a_retry_after_past_an_hour_fails_the_page_unwaited(self, hint):
        def handler(url, params):
            return FakeResponse(status_code=503, text="busy", headers={"Retry-After": hint})

        client, session, clock = _client(handler)
        with pytest.raises(ArxivRequestError, match="HTTP 503 from feed endpoint at start=0"):
            client.fetch_page("q", 0, 10)
        assert len(session.calls) == 1
        assert clock.sleeps == []
