"""Outside-in span recorder for the end-to-end benchmark.

:class:`Tracer` wraps an explicit list of call sites — methods on their
class, functions where they are imported by name — and restores the
originals on exit.  Each call becomes a span (name, start, end, parent);
a parent stack gives every span its *self* time, the duration minus the
time its child spans cover.  Spans stay in memory and are written once,
at the end, by :meth:`Tracer.write`.

Nothing in the program is edited: the spans sit around the calls into
each layer, so time a layer spends between wrapped calls shows up as its
caller's self time, or as uncovered time when the caller is not wrapped.
"""

from __future__ import annotations

import functools
import json
import statistics
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Mapping, NamedTuple, Sequence

__all__ = ["Site", "SpanStats", "Tracer", "overhead"]

#: ``observe(args, kwargs, result) -> {counter: increment}``; runs after
#: the span's clock has stopped.
Observer = Callable[[tuple, dict, Any], Mapping[str, float]]


class Site(NamedTuple):
    """One call site: ``getattr(owner, attr)`` recorded as span ``name``."""

    owner: Any
    attr: str
    name: str
    observe: Observer | None = None


@dataclass
class SpanStats:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.self_ns * 1e-9


class Tracer:
    """Install span wrappers on ``sites`` for the duration of a ``with``.

    Several sites may share one span name (one layer, several entry
    points); their stats then merge.  The recorder is single-threaded:
    spans opened in forked workers stay in those workers.
    """

    def __init__(self, sites: Sequence[Site]) -> None:
        self._sites = list(sites)
        self._saved: list[tuple[Any, str, Any]] = []
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.stats: dict[str, SpanStats] = {}
        #: Summed duration of spans with no traced parent.
        self.root_ns = 0
        self._origin_ns = 0

    def __enter__(self) -> "Tracer":
        self._origin_ns = perf_counter_ns()
        try:
            for site in self._sites:
                # The raw attribute, restored as found; None: inherited.
                saved = vars(site.owner).get(site.attr)
                wrapper = self._wrap(
                    getattr(site.owner, site.attr), site.name, site.observe
                )
                setattr(site.owner, site.attr, wrapper)
                self._saved.append((site.owner, site.attr, saved))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is None:
                delattr(owner, attr)  # it was inherited: unshadow it
            else:
                setattr(owner, attr, saved)

    def _wrap(
        self, fn: Callable, name: str, observe: Observer | None
    ) -> Callable:
        stack, spans = self._stack, self.spans
        stat = self.stats.setdefault(name, SpanStats())
        clock = perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (name, start, end, parent)
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_ns += duration
            if observe is not None:
                counters = stat.counters
                for key, value in observe(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return wrapper

    def stat(self, name: str) -> SpanStats:
        """Stats of span ``name`` (all zero when it never ran)."""
        return self.stats.get(name) or SpanStats()

    def coverage(self, wall_s: float) -> float:
        """Share of ``wall_s`` spent inside some traced span."""
        return self.root_ns * 1e-9 / wall_s

    def write(self, path: str) -> None:
        """Write every span as JSON lines: a header naming the spans, then
        ``[name index, start ns, duration ns, parent span index]`` per
        span, in start order, times relative to :meth:`__enter__`."""
        names = sorted(self.stats)
        ids = {name: i for i, name in enumerate(names)}
        origin = self._origin_ns
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": len(self.spans), "names": names}))
            handle.write("\n")
            for span in self.spans:
                if span is None:  # still open: cannot happen after exit
                    continue
                name, start, end, parent = span
                handle.write(
                    f"[{ids[name]},{start - origin},{end - start},{parent}]\n"
                )


def overhead(traced_wall_s: float, untraced_walls_s: Sequence[float]) -> float:
    """Traced wall time over the median untraced wall of the same replay."""
    return traced_wall_s / statistics.median(untraced_walls_s)
