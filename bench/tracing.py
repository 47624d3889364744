"""Span tracing applied from outside the library.

The benchmark never edits ``desklm``: it replaces public functions and
methods on their module or class with timing wrappers while a traced
iteration runs, and puts the originals back afterwards.  Library code
calls its collaborators through module globals (``T.matmul``,
``dio.save_arrays``, ``_trainer.train_step``) or through classes, so a
replaced attribute is seen by every internal caller too.

Spans live in memory as plain objects and are written out once, at the
end of the run.  Calls are strictly nested (one thread), so a span's self
time is its duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    trace_id: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    self_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Target:
    """One attribute to wrap: ``owner.attr`` is recorded as span ``name``.

    ``attrs(args, kwargs)`` runs before the clock starts and
    ``after(span, args, kwargs, result)`` after it stops, so neither is
    counted in the span.  ``generator=True`` times every ``next()`` of
    the returned iterator instead of the call that creates it.
    """
    owner: object
    attr: str
    name: str
    attrs: object = None
    after: object = None
    generator: bool = False


class NullTracer:
    """Stand-in for untraced iterations: spans cost one call."""

    def span(self, name, **attrs):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = ""
        self._stack: list[Span] = []
        self._saved: list = []

    # -- recording ------------------------------------------------------

    def _open(self, name, attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.trace_id,
                    time.perf_counter(), attrs=attrs or {})
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name, **attrs):
        s = self._open(name, attrs)
        try:
            yield s
        finally:
            self._close(s)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, t: Target):
        tracer = self

        if t.generator:
            def timed_iter(it):
                while True:
                    s = tracer._open(t.name, None)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(s)
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return timed_iter(iter(fn(*args, **kwargs)))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = t.attrs(args, kwargs) if t.attrs else None
            s = tracer._open(t.name, attrs)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                s.attrs["error"] = True
                raise
            finally:
                tracer._close(s)
            if t.after:
                t.after(s, args, kwargs, out)
            return out
        return wrapper

    def install(self, targets):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for t in targets:
            raw = inspect.getattr_static(t.owner, t.attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, t))
            else:
                new = self._wrap(raw, t)
            self._saved.append((t.owner, t.attr, raw))
            setattr(t.owner, t.attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, targets, root: str, trace_id: str):
        """Wrap ``targets`` for the duration of one root span."""
        self.trace_id = trace_id
        self.install(targets)
        try:
            with self.span(root) as s:
                yield s
        finally:
            self.uninstall()

    # -- analysis -------------------------------------------------------

    def tree(self, first: int, last: int) -> list[Span]:
        """Spans ``first:last`` with self times filled in."""
        spans = self.spans[first:last]
        for s in spans:
            s.self_time = s.duration
        for s in spans:
            if s.parent is not None and s.parent >= first:
                self.spans[s.parent].self_time -= s.duration
        return spans

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "trace_id": s.trace_id, "start": s.start, "end": s.end,
                    "attrs": s.attrs}, sort_keys=True, default=str) + "\n")


def ancestor_attr(spans_by_id: dict, span: Span, key: str):
    """Nearest value of ``key`` on ``span`` or one of its ancestors."""
    s = span
    while s is not None:
        if key in s.attrs:
            return s.attrs[key]
        s = spans_by_id.get(s.parent)
    return None


def has_ancestor(spans_by_id: dict, span: Span, names) -> bool:
    s = spans_by_id.get(span.parent)
    while s is not None:
        if s.name in names:
            return True
        s = spans_by_id.get(s.parent)
    return False
