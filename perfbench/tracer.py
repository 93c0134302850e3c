"""Spans recorded from outside the program, around the calls into each layer.

``Tracer.installed()`` replaces the functions the allocation loop calls, at
the names the callers look them up by, with wrappers that record one span per
call (name, start, end, parent, rows) and restores the originals on exit.
Spans stay in memory; ``Tracer.summary()`` turns them into self times and
counts per span name.  A span's self time is its duration minus the
durations of its child spans.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    rows: int = 0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0


def _rows_of_counts(args) -> int:
    # MomentEngine.single_block(self, counts) / pair_block(self, counts)
    return int(args[1].shape[0])


class Tracer:
    """Records nested spans; one tracer per traced round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count_rows: bool = False):
        """Return *fn* wrapped so that every call records a span *name*."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = Span(name, 0.0, parent=parent)
            if count_rows:
                span.rows = _rows_of_counts(args)
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration

        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers into the doubleshot modules; restore on exit.

        Each target is (owner, attribute, span name, count rows).  Owners are
        the namespaces the callers read at call time: the allocator module
        for the shot samplers and the final ``estimate``, the experiments
        module for the ``run_allocation`` that ``run_repetitions`` calls, and
        the classes for the engine and ledger methods.
        """
        from doubleshot import allocator, experiments
        from doubleshot.ledger import TallyLedger
        from doubleshot.posterior import MomentEngine

        targets = [
            (allocator, "run_allocation", "allocator.run", False),
            (experiments, "run_allocation", "allocator.run", False),
            (allocator, "sample_group_shot", "simulator.group_shot", False),
            (allocator, "sample_double_shot", "simulator.double_shot", False),
            (allocator, "estimate", "ledger.estimate", False),
            (TallyLedger, "record", "ledger.record", False),
            (MomentEngine, "single_block", "posterior.single_block", True),
            (MomentEngine, "pair_block", "posterior.pair_block", True),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, rows in targets:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], rows))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def summary(self) -> dict[str, SpanTotals]:
        out: dict[str, SpanTotals] = {}
        for span in self.spans:
            totals = out.setdefault(span.name, SpanTotals())
            totals.calls += 1
            totals.total_s += span.duration
            totals.self_s += span.self_s
            totals.rows += span.rows
        return out
