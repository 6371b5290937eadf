"""Spans and counters recorded from outside the program.

The tracer wraps the public calls of each ``repoharvest`` layer: the
module attributes ``repoharvest.cli`` resolves at call time, the
knowledge-base methods, the client methods, the injected sessions and
sleep callables, and ``RequestGate.defer``. Spans (name, start, end,
parent) stay in memory; ``layer_metrics`` turns them into the per-layer
numbers and ``dump`` writes them out at the end of a run.

A span's layer is the part of its name before the first dot. A layer's
self time is the summed duration of its spans minus the time their direct
children cover, so the self times of all layers add up to the root span.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable

LAYERS = ("cli", "arxiv", "throttle", "links", "github", "maturity", "kb")
GITHUB_STATUSES = (200, 204, 301, 304, 403, 404)
FAILURE_KINDS = ("not_found", "rate_limited", "transport", "malformed_response", "forbidden")
_USEFUL = (200, 204, 304)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any, bool]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``after(result, args, kwargs)`` sees each
        result."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def patch(self, owner: Any, attr: str, name: str, after: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until ``restore``."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, self.wrap(name, original, after))

    def patch_with(self, owner: Any, attr: str, replacement: Callable) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr), attr in vars(owner)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def sleeper(self, name: str, sleep: Callable[[float], None] = time.sleep) -> Callable[[float], None]:
        """A sleep= callable for a client; each sleep is one span."""
        def traced_sleep(seconds: float) -> None:
            with self.span(name):
                sleep(seconds)
        return traced_sleep

    # -- results ------------------------------------------------------------

    def durations(self) -> tuple[defaultdict, defaultdict, Counter]:
        """Per span name: total duration, total self time, and call count."""
        total: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _parent) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            calls[name] += 1
        return total, self_time, calls

    def dump(self, path) -> None:
        names = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)), round(start, 7), round(end, 7), parent])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows,
                       "counts": dict(self.counts), "sums": dict(self.sums)}, fh)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    total, self_time, calls = tracer.durations()
    c, s = tracer.counts, tracer.sums
    m: dict[str, float] = {}
    for client in ("arxiv", "github"):
        m[f"throttle.{client}.wait_s"] = total[f"throttle.{client}.sleep"]
        m[f"throttle.{client}.sleeps"] = calls[f"throttle.{client}.sleep"]
        m[f"throttle.{client}.defers"] = c[f"throttle.{client}.defers"]
        m[f"throttle.{client}.defer_s"] = s[f"throttle.{client}.defer_s"]
    m["arxiv.fetch_page.calls"] = calls["arxiv.fetch_page"]
    m["arxiv.fetch_page_s"] = total["arxiv.fetch_page"]
    m["arxiv.http_s"] = total["arxiv.http"]
    m["arxiv.parse_s"] = self_time["arxiv.parse"]
    m["links.mine_s"] = total["links.extract"] + total["links.clean"] + total["links.canonicalize"]
    m["links.dedupe_s"] = total["links.dedupe"]
    for key in ("hits", "rejected", "unique"):
        m[f"links.{key}"] = c[f"links.{key}"]
    m["github.requests.repo"] = c["github.requests.repo"]
    m["github.requests.contributors"] = c["github.requests.contributors"]
    for status in GITHUB_STATUSES:
        m[f"github.status.{status}"] = c[f"github.status.{status}"]
    m["github.retries"] = c["github.retries"]
    m["github.http_s"] = total["github.http"]
    m["github.fetch_repo_s"] = total["github.fetch_repo"]
    m["github.count_contributors_s"] = total["github.count_contributors"]
    for kind in FAILURE_KINDS:
        m[f"github.failures.{kind}"] = c[f"github.failures.{kind}"]
    requests = c["github.requests.repo"] + c["github.requests.contributors"]
    useful = sum(c[f"github.status.{code}"] for code in _USEFUL)
    m["github.useful_frac"] = useful / requests if requests else 0.0
    m["maturity.classify_s"] = total["maturity.classify"]
    m["maturity.calls"] = calls["maturity.classify"]
    for op in ("load", "clone", "upsert", "diff", "save", "export_table", "export_report"):
        m[f"kb.{op}_s"] = total[f"kb.{op}"]
    for key in ("entries", "history_snapshots", "bytes_written"):
        m[f"kb.{key}"] = c[f"kb.{key}"]
    m["cli.pipeline_s"] = total["cli.pipeline"]
    by_layer: defaultdict = defaultdict(float)
    for name, value in self_time.items():
        by_layer[name.split(".", 1)[0]] += value
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer]
    return m
