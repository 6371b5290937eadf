"""Request pacing and retries shared by the HTTP clients.

A RequestGate is one client's whole request path. It holds the client's
session, serializes outbound requests, keeps a minimum interval between
consecutive ones, and its get() is the one wait → GET → classify →
backoff-or-Retry-After loop both clients send through, with one timeout.
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
#: GitHub's one-hour quota window: a failure that asks for a longer wait is not retried.
MAX_WAIT = 3600.0

log = logging.getLogger("repoharvest")


class RequestGate:
    """Single gate all outbound requests of one client pass through.

    wait() blocks until the next request slot opens, then reserves the
    following slot ``min_interval`` later. Calls serialize under a lock, so
    requests form a total order; get() sends each request on ``session``,
    a new requests.Session if none is given, and retries, backing off from
    ``backoff`` seconds. Both values come from a client's pacing constants
    or an injected policy, never from outside input, so they are taken as
    given. The clock and sleep functions are injectable.
    """

    def __init__(
        self,
        min_interval: float,
        backoff: float,
        session=None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.min_interval = min_interval
        self.backoff = backoff
        self._session = session if session is not None else requests.Session()
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

    def get(self, url: str, classify, **request):
        """GET ``url`` through the gate until it succeeds or the budget ends.

        Each attempt sends ``session.get(url, timeout=REQUEST_TIMEOUT, **request)``.
        ``classify`` maps the response, or the ``requests.RequestException``
        raised, to None on success or to ``(error, retryable)``. A retryable
        failure defers the next request by the backoff, or by the response's
        Retry-After seconds when that is longer, and the backoff doubles. A
        deferral longer than LONG_WAIT is logged as a warning. After
        MAX_RETRIES retries, on a failure that is not retryable, or on one
        whose wait would pass MAX_WAIT, ``error`` is raised.
        """
        backoff = self.backoff
        for attempt in range(MAX_RETRIES + 1):
            self.wait()
            try:
                outcome = self._session.get(url, timeout=REQUEST_TIMEOUT, **request)
            except requests.RequestException as exc:
                outcome = exc
            failure = classify(outcome)
            if failure is None:
                return outcome
            error, retryable = failure
            cause = outcome if isinstance(outcome, requests.RequestException) else None
            hint = None if cause else seconds_header(outcome.headers.get("Retry-After"))
            delay = backoff if hint is None else max(backoff, hint)
            if not retryable or attempt == MAX_RETRIES or delay > MAX_WAIT:
                try:
                    raise error from cause
                finally:
                    # error's traceback holds this frame, so error -> frame ->
                    # error would be a cycle that keeps the failed response and
                    # its pooled connection open until the garbage collector runs.
                    del error, failure
            if delay > LONG_WAIT:
                log.warning("%s; waiting %.0f s before retrying", error, delay)
            self.defer(delay)
            backoff *= 2


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
