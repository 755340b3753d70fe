"""In-memory span recorder that times calls into the program from outside.

The benchmark never edits the program: :meth:`Tracer.wrap` replaces a
public function or method with a timing wrapper at the place callers look
it up, and :meth:`Tracer.unwrap_all` puts the original back.  Each span is
``(name, start, end, parent, ctx)``; the layer of a span is its name
without the last dotted part (``core.access`` -> ``core``,
``sim.tracestore.get`` -> ``sim.tracestore``).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, CTX = range(5)


def layer_of(name: str) -> str:
    """The layer a span name belongs to."""
    return name.rsplit(".", 1)[0]


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: identifier stamped on every span (cell label or job id)
        self.ctx = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        """Open a span; returns its index for :meth:`end`."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.ctx])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span ``index`` (and anything left open inside it)."""
        self.spans[index][END] = time.perf_counter()
        while self._stack and self._stack.pop() != index:
            pass

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns its result."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``on_result(result)`` runs after each call, outside the span, so
        counting what a call returned costs the layer nothing.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as tab-separated lines with a header."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart\tend\tparent\tctx\n")
            for i, (name, start, end, parent, ctx) in enumerate(self.spans):
                handle.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t"
                             f"{parent}\t{ctx}\n")


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - _covered(span[START], span[END], children.get(i, []))
        for i, span in enumerate(spans)
    ]


def layer_table(spans: list, wall_s: float) -> dict[str, dict]:
    """Per-layer ``self_s``, ``share`` of ``wall_s`` and ``calls``.

    Time inside ``wall_s`` that no root span covers is the explicit
    ``other`` row, so the shares add up to one.
    """
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(layer_of(span[NAME]),
                               {"self_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["calls"] += 1
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    table["other"] = {"self_s": max(0.0, wall_s - roots), "calls": 0}
    for row in table.values():
        row["share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
    return table


def name_totals(spans: list) -> dict[str, dict]:
    """Per span name: ``total_s`` (inclusive), ``self_s`` and ``calls``."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span[NAME],
                             {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
        row["calls"] += 1
    return out
