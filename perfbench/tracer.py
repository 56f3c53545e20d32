"""In-memory span tracer that wraps a program's names from outside it.

A hook replaces one attribute of a module or class with a wrapper that
records a span (name, start, end, parent) around each call. The program is
not edited: the wrapper sits where the program looks the name up, so
``hook(pipeline, "solve_linear", ...)`` times the calls ``run_hhl`` makes
through its own module namespace. Spans stay in memory until the run ends.

Rules:

* a hook whose target name does not exist is reported as ``absent`` and
  installs nothing, so a later change that deletes a layer still runs;
* only the outermost span of a re-entrant call is recorded: while a span
  of some name is open on a thread, nested calls under the same name pass
  straight through (an override calling ``super()`` is one call);
* parents are per thread, so spans from worker threads form their own trees.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """Wrap ``owner.attr`` in spans named ``span``.

    ``observe(span, args, kwargs, result)`` may add counters to the span
    after a call returns.
    """

    owner: object
    attr: str
    span: str
    observe: Callable | None = None

    @property
    def target(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attr}"


class Tracer:
    def __init__(self, hooks: list[Hook]):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.status: dict[str, str] = {
            h.target: "installed" if _has_own(h.owner, h.attr) else "absent" for h in hooks
        }
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def active(self):
        """Install every present hook for the body of the ``with``, then restore."""
        for hook in self.hooks:
            if self.status[hook.target] == "absent":
                continue
            original = _lookup(hook.owner, hook.attr)
            self._saved.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, self._wrap(original, hook))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def absent(self) -> list[str]:
        return sorted(t for t, s in self.status.items() if s == "absent")

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, hook: Hook):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if any(open_span.name == hook.span for open_span in stack):
                return original(*args, **kwargs)
            span = Span(hook.span, time.perf_counter(), parent=stack[-1] if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook.observe is not None:
                hook.observe(span, args, kwargs, result)
            return result

        return traced


def _has_own(owner, attr: str) -> bool:
    # A class hook targets the class's own definition, not an inherited one.
    if isinstance(owner, type):
        return attr in owner.__dict__
    return hasattr(owner, attr)


def _lookup(owner, attr: str):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    """Map id(parent) -> its direct child spans."""
    kids: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(id(span.parent), []).append(span)
    return kids


def covered_time(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    run_start = run_end = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_time(span: Span, children: list[Span]) -> float:
    """A span's duration minus the time its child spans cover."""
    return span.duration - covered_time(span, children)


def enclosing(span: Span, name: str) -> Span | None:
    """Nearest span named ``name`` among ``span`` and its ancestors."""
    node = span
    while node is not None:
        if node.name == name:
            return node
        node = node.parent
    return None
