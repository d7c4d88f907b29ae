"""Span recording for the traced benchmark run.

A ``Recorder`` wraps public innoise functions so that each call records a
span (name, start, end, parent). ``patched`` installs the wrappers on
every module attribute bound to the original function, including names
that ``innoise.cli`` imported, and restores them on exit. Only the
benchmark process is patched; the program's sources are never touched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

CountFn = Callable[[tuple, dict, object], dict[str, int]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Recorder.spans, -1 at top level


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, []), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


class Recorder:
    """Collects spans and counts in memory for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), 0.0, self._open[-1] if self._open else -1))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def wrap(self, name: str, fn: Callable, count: CountFn | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return traced

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals


@contextmanager
def patched(recorder: Recorder, targets: dict[str, CountFn | None]) -> Iterator[None]:
    """Route every binding of ``innoise.<module>.<function>`` through ``recorder``.

    ``targets`` maps "module.function" to an optional count function.
    """
    importlib.import_module("innoise.cli")  # load every module that binds the targets
    modules = [m for name, m in list(sys.modules.items()) if name == "innoise" or name.startswith("innoise.")]
    saved: list[tuple[object, str, object]] = []
    try:
        for target, count in targets.items():
            module_name, function_name = target.rsplit(".", 1)
            original = getattr(importlib.import_module(f"innoise.{module_name}"), function_name)
            wrapper = recorder.wrap(target, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
