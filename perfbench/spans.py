"""In-memory span tracer that wraps g2d's public functions from outside.

A span records its name, start, end, parent span and op id. Spans are
kept in a list while the workload runs and summarised when it ends;
nothing is written during an op. Wrapping replaces a module attribute,
so only calls that look the name up through that module are seen: the
wrapped names are the ones g2d's own modules call through their
globals (for instance ``g2d.gamma2`` calls ``minimum_height_ellipsoid``
through its module namespace).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    # work units the span processed, computed from argument shapes
    work: float = 0.0
    detail: str = ""
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    active: bool = False
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)
    _op: int = -1

    def open(self, name: str, work: float = 0.0, detail: str = "") -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self._op, work=work, detail=detail))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.duration

    def begin_op(self, op_id: int) -> int:
        """Open an op's root span; wrapped calls record until end_op."""
        self._op = op_id
        self.active = True
        return self.open("op")

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.active = False
        self._op = -1

    def wrap(self, module, attr: str, name: str, work=None, detail=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``work(*args, **kwargs)`` optionally returns the work units of
        the call (flops, colorings, determinants) from its arguments,
        and ``detail(*args, **kwargs)`` a short description of them.
        """
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            idx = tracer.open(
                name,
                work(*args, **kwargs) if work else 0.0,
                detail(*args, **kwargs) if detail else "",
            )
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(idx)

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- summaries ---------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_total(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def work(self, name: str) -> float:
        return sum(s.work for s in self.named(name))

    def nested(self, name: str, ancestor: str) -> list[Span]:
        """The ``name`` spans that have an ``ancestor`` span above them."""
        found = []
        for s in self.named(name):
            p = s.parent
            while p >= 0 and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            if p >= 0:
                found.append(s)
        return found
