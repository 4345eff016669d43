"""In-memory span recorder for the traced benchmark run.

A span is ``(name, tag, start, end, parent, op)``: the layer function called
(``<module>.<function>``), an optional variant tag (such as ``dim16``),
perf-counter start and end in seconds, the index of the enclosing span (-1
at the root), and the op it belongs to.  Spans are recorded only from the
benchmark's own calls into the package.
"""

from __future__ import annotations

from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "tag", "index", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, tag: str):
        self.tracer = tracer
        self.name = name
        self.tag = tag

    def __enter__(self):
        tracer = self.tracer
        self.parent = tracer.stack[-1] if tracer.stack else -1
        self.index = tracer.opened
        tracer.opened += 1
        tracer.stack.append(self.index)
        self.start = perf_counter()

    def __exit__(self, *exc):
        end = perf_counter()
        tracer = self.tracer
        tracer.stack.pop()
        tracer.closed.append(
            (self.index, self.name, self.tag, self.start, end, self.parent, tracer.op)
        )
        return False


class Tracer:
    """Records spans; ``op`` is the id stamped on the spans opened next.

    Closed spans are kept as tuples of plain values, which the cyclic garbage
    collector stops tracking, so a long traced run does not slow collection.
    """

    def __init__(self):
        self.closed: list[tuple] = []
        self.stack: list[int] = []
        self.opened = 0
        self.op = -1

    def span(self, name: str, tag: str = "") -> _Span:
        return _Span(self, name, tag)

    @property
    def spans(self) -> list[tuple]:
        """Spans in the order they were opened, without the opening index."""
        return [s[1:] for s in sorted(self.closed)]


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Tracer used when not tracing: opening a span costs one method call."""

    op = -1

    def span(self, name: str, tag: str = "") -> _NoSpan:
        return _NO_SPAN


def key(record: tuple) -> str:
    """Metric key of a span: its name, plus ``_<tag>`` when tagged."""
    return f"{record[0]}_{record[1]}" if record[1] else record[0]


def self_times(spans: list[tuple]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own
