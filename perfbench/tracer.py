"""Spans around the calls between harqsdo's modules, recorded from outside.

While installed, a Tracer replaces module attributes with wrappers, so each
call through that name becomes a span: name, start, end, parent and thread.
Parent stacks are per thread.  A span opened on a thread whose stack is
empty (a pool worker) takes as parent the innermost span open on the main
thread, the one that started the pool.  Spans stay in memory until the
caller reads them; nothing is written while the program runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import resource
import threading
import time
from typing import Callable, NamedTuple


class Target(NamedTuple):
    """A name to wrap: span name, module, attribute, and what to record."""

    name: str
    module: str
    attr: str
    # note(bound arguments, result) -> {"count": int} and/or {"point": key}
    note: Callable | None = None
    cpu: bool = False  # record process CPU time, own threads and reaped children


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "cpu", "note")

    def __init__(self, name: str, parent: int | None, thread: int) -> None:
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = self.cpu = 0
        self.note: dict | None = None


def cpu_ns() -> int:
    """CPU time of this process's threads plus its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + int((kids.ru_utime + kids.ru_stime) * 1e9)


class Tracer:
    def __init__(self, targets) -> None:
        self.targets = tuple(targets)
        self.missing = {
            t.name for t in self.targets
            if not hasattr(importlib.import_module(t.module), t.attr)
        }
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for t in self.targets:
                if t.name in self.missing:
                    continue
                module = importlib.import_module(t.module)
                fn = getattr(module, t.attr)
                saved.append((module, t.attr, fn))
                setattr(module, t.attr, self._wrap(t, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a span of its own; the root of one invocation."""
        return self._run(Target(name, "", ""), None, fn, args, {})

    def _wrap(self, target: Target, fn):
        signature = inspect.signature(fn) if target.note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(target, signature, fn, args, kwargs)

        return traced

    def _run(self, target: Target, signature, fn, args, kwargs):
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        span = Span(target.name, parent, ident)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        cpu0 = cpu_ns() if target.cpu else 0
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
        if target.cpu:
            span.cpu = cpu_ns() - cpu0
        if target.note:
            span.note = target.note(signature.bind(*args, **kwargs).arguments, result)
        return result


def _covered_ns(span: Span, children) -> int:
    """Length of the part of span's interval that the children's intervals cover."""
    parts = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    total, reach = 0, span.start
    for lo, hi in parts:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, wall and self time, CPU, summed counts, distinct points."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        a = out.setdefault(s.name, {"calls": 0, "wall_ns": 0, "self_ns": 0,
                                    "cpu_ns": 0, "count": 0, "points": set()})
        wall = s.end - s.start
        a["calls"] += 1
        a["wall_ns"] += wall
        a["self_ns"] += wall - _covered_ns(s, children.get(i, ()))
        a["cpu_ns"] += s.cpu
        if s.note:
            a["count"] += s.note.get("count", 0)
            if "point" in s.note:
                a["points"].add(s.note["point"])
    return out


def dump(spans, path: str) -> None:
    """Write spans as [name, start_ns, end_ns, parent, thread], times from the first start."""
    t0 = min((s.start for s in spans), default=0)
    threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread for s in spans))}
    rows = [[s.name, s.start - t0, s.end - t0, s.parent, threads[s.thread]] for s in spans]
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "thread"],
                   "spans": rows}, fh, separators=(",", ":"))
