"""In-memory span tracer used by the benchmark's traced passes.

A span is one call into a traced function: its name, the thread it ran on,
the span that was open on the same thread when it started (its parent), its
wall interval from ``time.perf_counter`` and its CPU interval from
``time.thread_time``.  Spans are kept per thread in memory and summarised
when the pass ends.

Self time is a span's duration minus the durations of its children.  Children
are only ever spans of the same thread, so work a span hands to a pool thread
stays in the parent's self time as waiting, and the pool thread's spans are
roots of their own.  ``thread_time`` counts the calling thread only: CPU that
BLAS/LAPACK helper threads burn inside a call is not in ``self_cpu_s``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    thread: int  # serial number of the recording thread within its tracer
    parent: int | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    info: dict | None = None


@dataclass
class _ThreadLog:
    thread: int
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """Records spans and call counts; each thread writes only its own log."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            # Serial numbers, not thread idents: an ident can be reused once a
            # thread ends, which would merge two threads' parent links.
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def call(self, name: str, fn, args, kwargs, note=None):
        """Run ``fn`` inside a span; ``note(args, result)`` fills ``span.info``."""
        log = self._log()
        span = Span(
            name=name,
            thread=log.thread,
            parent=log.stack[-1] if log.stack else None,
            start=self._clock(),
            cpu_start=self._cpu_clock(),
        )
        log.stack.append(len(log.spans))
        log.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self._clock()
            span.cpu_end = self._cpu_clock()
            log.stack.pop()
        if note is not None:
            span.info = note(args, result)
        return result

    def count(self, name: str) -> None:
        self._log().counts[name] += 1

    def spans(self) -> list[Span]:
        with self._lock:
            return [span for log in self._logs for span in log.spans]

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        with self._lock:
            for log in self._logs:
                for name, value in log.counts.items():
                    total[name] += value
        return dict(total)


def self_times(spans: list[Span]) -> list[tuple[float, float]]:
    """``(self_wall, self_cpu)`` of each span, in the order given.

    ``parent`` indexes the parent within the list of spans of the same
    thread, in the order that thread recorded them.
    """
    by_thread: dict[int, list[int]] = defaultdict(list)
    for pos, span in enumerate(spans):
        by_thread[span.thread].append(pos)
    out = [(s.end - s.start, s.cpu_end - s.cpu_start) for s in spans]
    for positions in by_thread.values():
        for pos in positions:
            span = spans[pos]
            if span.parent is None:
                continue
            parent_pos = positions[span.parent]
            wall, cpu = out[parent_pos]
            out[parent_pos] = (
                wall - (span.end - span.start),
                cpu - (span.cpu_end - span.cpu_start),
            )
    return out


class Rebinder:
    """Replaces every binding of a function in a package and undoes it."""

    def __init__(self, package: str):
        self._package = package
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self._package + "."
        return [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == self._package or name.startswith(prefix))
        ]

    def rebind(self, original, replacement) -> None:
        """Point every module-level name bound to ``original`` at ``replacement``."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def set_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def traced(tracer: Tracer, name: str, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, note)

    return wrapper


def counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper
