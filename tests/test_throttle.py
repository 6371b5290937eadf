"""RequestGate spacing and deferral, and the shared retry loop, on a fake
clock."""
from __future__ import annotations

import pytest
import requests
from hypothesis import given, strategies as st

from conftest import FakeClock
from repoharvest.throttle import RequestGate, retrying_get, seconds_header


def test_first_wait_does_not_sleep(fake_clock):
    gate = RequestGate(5.0, clock=fake_clock, sleep=fake_clock.sleep)
    gate.wait()
    assert fake_clock.sleeps == []


def test_consecutive_waits_are_spaced(fake_clock):
    gate = RequestGate(3.0, clock=fake_clock, sleep=fake_clock.sleep)
    stamps = []
    for _ in range(4):
        gate.wait()
        stamps.append(fake_clock.now)
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    assert gaps == [3.0, 3.0, 3.0]


def test_zero_interval_never_sleeps(fake_clock):
    gate = RequestGate(0.0, clock=fake_clock, sleep=fake_clock.sleep)
    for _ in range(10):
        gate.wait()
    assert fake_clock.sleeps == []


def test_no_sleep_when_enough_time_passed(fake_clock):
    gate = RequestGate(2.0, clock=fake_clock, sleep=fake_clock.sleep)
    gate.wait()
    fake_clock.advance(2.5)
    gate.wait()
    assert fake_clock.sleeps == []


def test_defer_pushes_next_slot(fake_clock):
    gate = RequestGate(1.0, clock=fake_clock, sleep=fake_clock.sleep)
    gate.wait()
    gate.defer(10.0)
    before = fake_clock.now
    gate.wait()
    assert fake_clock.now - before == pytest.approx(10.0)


def test_defer_never_shortens_existing_reservation(fake_clock):
    gate = RequestGate(8.0, clock=fake_clock, sleep=fake_clock.sleep)
    gate.wait()  # reserves now+8
    gate.defer(1.0)  # weaker than the reservation; must not pull it in
    before = fake_clock.now
    gate.wait()
    assert fake_clock.now - before == pytest.approx(8.0)


def test_defer_nonpositive_is_noop(fake_clock):
    gate = RequestGate(0.0, clock=fake_clock, sleep=fake_clock.sleep)
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
    gate = RequestGate(interval, clock=clock, sleep=clock.sleep)
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
    gate = RequestGate(0.0, clock=fake_clock, sleep=fake_clock.sleep)
    hints = iter([5.0, 0.5])  # longer than the 1 s backoff, then shorter than 2 s

    def classify(outcome):
        if outcome == "busy":
            return RuntimeError("busy"), True, next(hints)
        return None

    replies = iter(["busy", "busy", "ok"])
    assert retrying_get(gate, lambda: next(replies), classify, backoff=1.0) == "ok"
    assert fake_clock.sleeps == [5.0, 2.0]


def test_retry_budget_exhausted_raises_with_transport_cause(fake_clock):
    gate = RequestGate(0.0, clock=fake_clock, sleep=fake_clock.sleep)
    calls = []

    def get():
        calls.append(fake_clock.now)
        raise requests.ConnectionError("refused")

    def classify(outcome):
        assert isinstance(outcome, requests.ConnectionError)
        return RuntimeError("gave up"), True, None

    with pytest.raises(RuntimeError, match="gave up") as excinfo:
        retrying_get(gate, get, classify, backoff=1.0)
    assert isinstance(excinfo.value.__cause__, requests.ConnectionError)
    assert calls == [0.0, 1.0, 3.0]
