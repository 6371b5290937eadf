"""RequestGate spacing and deferral, and its retry loop, on a fake clock."""
from __future__ import annotations

import gc
import weakref

import pytest
import requests
from hypothesis import given, strategies as st

from conftest import FakeClock, FakeResponse, FakeSession
from repoharvest.throttle import MAX_WAIT, REQUEST_TIMEOUT, RequestGate, seconds_header

URL = "http://gate.test/"


def test_first_wait_does_not_sleep(fake_clock):
    gate = RequestGate(5.0, 1.0, clock=fake_clock, sleep=fake_clock.sleep)
    gate.wait()
    assert fake_clock.sleeps == []


def test_consecutive_waits_are_spaced(fake_clock):
    gate = RequestGate(3.0, 1.0, clock=fake_clock, sleep=fake_clock.sleep)
    stamps = []
    for _ in range(4):
        gate.wait()
        stamps.append(fake_clock.now)
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    assert gaps == [3.0, 3.0, 3.0]


def test_zero_interval_never_sleeps(fake_clock):
    gate = RequestGate(0.0, 1.0, clock=fake_clock, sleep=fake_clock.sleep)
    for _ in range(10):
        gate.wait()
    assert fake_clock.sleeps == []


def test_no_sleep_when_enough_time_passed(fake_clock):
    gate = RequestGate(2.0, 1.0, clock=fake_clock, sleep=fake_clock.sleep)
    gate.wait()
    fake_clock.advance(2.5)
    gate.wait()
    assert fake_clock.sleeps == []


def test_defer_pushes_next_slot(fake_clock):
    gate = RequestGate(1.0, 1.0, clock=fake_clock, sleep=fake_clock.sleep)
    gate.wait()
    gate.defer(10.0)
    before = fake_clock.now
    gate.wait()
    assert fake_clock.now - before == pytest.approx(10.0)


def test_defer_never_shortens_existing_reservation(fake_clock):
    gate = RequestGate(8.0, 1.0, clock=fake_clock, sleep=fake_clock.sleep)
    gate.wait()  # reserves now+8
    gate.defer(1.0)  # weaker than the reservation; must not pull it in
    before = fake_clock.now
    gate.wait()
    assert fake_clock.now - before == pytest.approx(8.0)


def test_defer_nonpositive_is_noop(fake_clock):
    gate = RequestGate(0.0, 1.0, clock=fake_clock, sleep=fake_clock.sleep)
    gate.defer(0.0)
    gate.defer(-5.0)
    gate.wait()
    assert fake_clock.sleeps == []


@given(
    interval=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    idle=st.lists(st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
                  min_size=2, max_size=20),
)
def test_gap_invariant_under_arbitrary_idle_time(interval, idle):
    clock = FakeClock()
    gate = RequestGate(interval, 1.0, clock=clock, sleep=clock.sleep)
    stamps = []
    for pause in idle:
        gate.wait()
        stamps.append(clock.now)
        clock.advance(pause)
    for earlier, later in zip(stamps, stamps[1:]):
        assert later - earlier >= interval - 1e-9


@pytest.mark.parametrize("value,expected", [
    ("30", 30.0),
    ("0.5", 0.5),
    ("-5", 0.0),
    ("soon", None),
    (None, None),
    ("inf", None),
    ("1e999", None),
    ("nan", None),
    ("Wed, 21 Oct 2015 07:28:00 GMT", None),
])
def test_seconds_header(value, expected):
    assert seconds_header(value) == expected


def test_retry_waits_for_longer_of_backoff_and_hint(fake_clock):
    # longer than the 1 s backoff, then shorter than 2 s
    replies = iter([FakeResponse(503, headers={"Retry-After": "5"}),
                    FakeResponse(503, headers={"Retry-After": "0.5"}),
                    FakeResponse(200)])
    session = FakeSession(lambda url, params: next(replies))
    gate = RequestGate(0.0, 1.0, session, clock=fake_clock, sleep=fake_clock.sleep)

    def classify(response):
        return None if response.status_code == 200 else (RuntimeError("busy"), True)

    assert gate.get(URL, classify).status_code == 200
    assert fake_clock.sleeps == [5.0, 2.0]


def test_retry_after_on_an_answer_not_retried_is_not_waited(fake_clock):
    sent = []

    def send(url, params):
        sent.append(fake_clock.now)
        return FakeResponse(400, headers={"Retry-After": "30"})

    gate = RequestGate(0.0, 1.0, FakeSession(send), clock=fake_clock, sleep=fake_clock.sleep)
    with pytest.raises(RuntimeError, match="refused"):
        gate.get(URL, lambda response: (RuntimeError("refused"), False))
    gate.wait()  # nor is the next request deferred by it
    assert sent == [0.0]
    assert fake_clock.sleeps == []


def test_a_response_that_fails_for_good_goes_with_its_error(fake_clock):
    """No cycle holds the failed response once the caller drops the error,
    so it goes without the garbage collector: a requests.Response that
    lived on would keep its pooled connection open."""
    sent = []

    def send(url, params):
        response = FakeResponse(404)
        sent.append(weakref.ref(response))
        return response

    gate = RequestGate(0.0, 1.0, FakeSession(send), clock=fake_clock, sleep=fake_clock.sleep)
    gc.disable()
    try:
        try:
            gate.get(URL, lambda response: (RuntimeError("gone"), False))
        except RuntimeError:
            pass
        assert [response() for response in sent] == [None]
    finally:
        gc.enable()


def test_retry_budget_exhausted_raises_with_transport_cause(fake_clock):
    calls = []

    def send(url, params):
        calls.append(fake_clock.now)
        raise requests.ConnectionError("refused")

    def classify(outcome):
        assert isinstance(outcome, requests.ConnectionError)
        return RuntimeError("gave up"), True

    gate = RequestGate(0.0, 1.0, FakeSession(send), clock=fake_clock, sleep=fake_clock.sleep)
    with pytest.raises(RuntimeError, match="gave up") as excinfo:
        gate.get(URL, classify)
    assert isinstance(excinfo.value.__cause__, requests.ConnectionError)
    assert calls == [0.0, 1.0, 3.0]


def test_every_attempt_is_sent_with_the_timeout_and_the_callers_keywords(fake_clock):
    class Recording:
        def __init__(self):
            self.sent = []

        def get(self, url, **kwargs):
            self.sent.append((url, kwargs))
            if len(self.sent) == 1:
                raise requests.ConnectionError("reset")
            return FakeResponse(503 if len(self.sent) == 2 else 200)

    def classify(outcome):
        ok = getattr(outcome, "status_code", None) == 200
        return None if ok else (RuntimeError("busy"), True)

    session = Recording()
    gate = RequestGate(0.0, 1.0, session, clock=fake_clock, sleep=fake_clock.sleep)
    params, headers = {"page": 2}, {"Accept": "x"}
    assert gate.get(URL, classify, params=params, headers=headers,
                    allow_redirects=False).status_code == 200
    expected = {"timeout": REQUEST_TIMEOUT, "params": params, "headers": headers,
                "allow_redirects": False}
    assert session.sent == [(URL, expected)] * 3


@pytest.mark.parametrize("hint", ["1e20", str(int(MAX_WAIT) + 1)])
def test_a_wait_past_max_wait_is_not_retried(fake_clock, hint):
    session = FakeSession(lambda url, params: FakeResponse(503, headers={"Retry-After": hint}))
    gate = RequestGate(0.0, 1.0, session, clock=fake_clock, sleep=fake_clock.sleep)
    with pytest.raises(RuntimeError, match="busy"):
        gate.get(URL, lambda response: (RuntimeError("busy"), True))
    gate.wait()  # nor is the next request deferred by it
    assert len(session.calls) == 1
    assert fake_clock.sleeps == []


def test_a_wait_of_max_wait_is_waited_out(fake_clock):
    replies = iter([FakeResponse(503, headers={"Retry-After": str(MAX_WAIT)}), FakeResponse()])
    session = FakeSession(lambda url, params: next(replies))
    gate = RequestGate(0.0, 1.0, session, clock=fake_clock, sleep=fake_clock.sleep)

    def classify(response):
        return None if response.status_code == 200 else (RuntimeError("busy"), True)

    assert gate.get(URL, classify).status_code == 200
    assert fake_clock.sleeps == [MAX_WAIT]
