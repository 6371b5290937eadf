"""Request pacing and retries shared by the HTTP clients.

A RequestGate serializes outbound requests and keeps a minimum interval
between consecutive ones. A server's Retry-After hint is folded in through
defer(). retrying_get() is the one
gate → GET → classify → backoff-or-hint loop both clients send through.
"""
from __future__ import annotations

import logging
import math
import threading
import time
from typing import Callable, Optional

import requests

#: Retries after the first attempt, so three attempts in total.
MAX_RETRIES = 2
#: Seconds a client waits for a server to answer one request.
REQUEST_TIMEOUT = 30.0
#: A retry deferred by more seconds than this is logged as a warning, so a
#: long Retry-After is never waited out in silence.
LONG_WAIT = 60.0

log = logging.getLogger("repoharvest")


class RequestGate:
    """Single gate all outbound requests of one client pass through.

    wait() blocks until the next request slot opens, then reserves the
    following slot ``min_interval`` later. Calls serialize under a lock, so
    requests form a total order. ``min_interval`` comes from a client's
    pacing constants or an injected policy, never from outside input, so it
    is taken as given. The clock and sleep functions are injectable.
    """

    def __init__(
        self,
        min_interval: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.min_interval = min_interval
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._not_before = 0.0

    def wait(self) -> None:
        """Block until a request may go out, then reserve the next slot."""
        with self._lock:
            now = self._clock()
            if now < self._not_before:
                self._sleep(self._not_before - now)
            self._not_before = self._clock() + self.min_interval

    def defer(self, delay: float) -> None:
        """Push the next allowed request to at least ``delay`` from now."""
        with self._lock:
            self._not_before = max(self._not_before, self._clock() + delay)


def seconds_header(value: Optional[str]) -> Optional[float]:
    """A header value holding a number of seconds, floored at 0.

    Only the delay-seconds form of ``Retry-After`` is read; an HTTP-date
    gives None, so the caller falls back to its backoff. None also when
    the header is absent, unparseable, or not finite: a gate cannot sleep
    until ``inf``.
    """
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return max(0.0, seconds) if math.isfinite(seconds) else None


def retrying_get(gate: RequestGate, get, classify, backoff: float):
    """Send ``get()`` through ``gate`` until it succeeds or the budget ends.

    ``classify`` maps the response, or the ``requests.RequestException``
    that ``get`` raised, to None on success or to ``(error, retryable,
    hint)``. A retryable failure defers the next request by ``backoff``, or
    by the server's ``hint`` seconds when that is longer, and the backoff
    doubles. A deferral longer than LONG_WAIT is logged as a warning. After
    MAX_RETRIES retries, or on a failure that is not retryable, ``error``
    is raised.
    """
    for attempt in range(MAX_RETRIES + 1):
        gate.wait()
        try:
            outcome = get()
        except requests.RequestException as exc:
            outcome = exc
        failure = classify(outcome)
        if failure is None:
            return outcome
        error, retryable, hint = failure
        if not retryable or attempt == MAX_RETRIES:
            cause = outcome if isinstance(outcome, requests.RequestException) else None
            raise error from cause
        delay = backoff if hint is None else max(backoff, hint)
        if delay > LONG_WAIT:
            log.warning("%s; waiting %.0f s before retrying", error, delay)
        gate.defer(delay)
        backoff *= 2
