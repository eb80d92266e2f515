"""Span recorder that times calls into the library from outside it.

``Tracer.wrap`` replaces a name that callers look up at call time (a module
global or a class attribute) with a wrapper recording one span per call:
``[name, parent span id, start, end]``.  Spans stay in memory
until the caller writes them out.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        """Route every later lookup of owner.attr through a span named name.

        If work is given, work(args) is read before and after each call and
        the difference is added to ``counts[name]``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if work is None:
                return self.span(name, original, *args, **kwargs)
            before = work(args)
            try:
                return self.span(name, original, *args, **kwargs)
            finally:
                self.counts[name] += work(args) - before

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans = []
        self.counts = defaultdict(int)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        own = [rec[3] - rec[2] for rec in self.spans]
        for rec in self.spans:
            if rec[1] >= 0:
                own[rec[1]] -= rec[3] - rec[2]
        totals: dict[str, float] = defaultdict(float)
        for rec, t in zip(self.spans, own):
            totals[rec[0]] += t
        return dict(totals)

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            counts[rec[0]] += 1
        return dict(counts)
