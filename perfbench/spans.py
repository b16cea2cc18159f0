"""In-memory spans around calls, and the arithmetic over the span tree.

A span is one call into a wrapped function: its name, the span that was
open when it began (its parent), its start and end on
``time.perf_counter`` and a dict of counts taken at the call.  Spans stay
in memory while the benchmark runs; :class:`SpanTree` turns them into
per-name totals afterwards.  Recording is single-threaded: the program is
run with one worker.
"""

import functools
import time
from collections import Counter


class Tracer:
    """Records spans and counters; :meth:`wrap` makes a recording stand-in
    for a function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, parent, start, end, attrs]
        self.counts = Counter()
        self._stack = []

    def open(self, name):
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(i)
        self.spans.append([name, parent, self.clock(), None, None])
        return i

    def close(self, i):
        span = self.spans[i]
        span[3] = self.clock()
        if self._stack.pop() != i:
            raise RuntimeError(f"span {span[0]!r} closed out of order")

    def wrap(self, name, fn, measure=None):
        """``fn`` recording one span per call.

        ``measure(args, kwargs, result)`` returns the span's counts; it runs
        after the span has closed, so its cost is not in the span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if measure is not None:
                tracer.spans[i][4] = measure(args, kwargs, result)
            return result

        return wrapper

    def tree(self):
        return SpanTree(self.spans)


def _covered(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanTree:
    """Totals over spans ``(name, parent, start, end, attrs)``.

    ``parent`` is the index of the enclosing span, or -1 at the top; a
    parent comes before its children.  Every query takes an optional
    ``under``: only spans with an ancestor of that name count.
    """

    def __init__(self, spans):
        self.spans = list(spans)
        self.children = [[] for _ in self.spans]
        self.by_name = {}
        for i, span in enumerate(self.spans):
            if span[1] >= 0:
                self.children[span[1]].append(i)
            self.by_name.setdefault(span[0], []).append(i)
        self._inside = {}

    def duration(self, i):
        return self.spans[i][3] - self.spans[i][2]

    def self_time(self, i):
        """Duration minus the part of it that child spans cover."""
        _, _, lo, hi, _ = self.spans[i]
        kids = [(self.spans[c][2], self.spans[c][3]) for c in self.children[i]]
        return (hi - lo) - _covered(kids, lo, hi)

    def inside(self, name):
        """Per span: whether some ancestor is called ``name``."""
        if name not in self._inside:
            flags = []
            for _, parent, _, _, _ in self.spans:
                flags.append(parent >= 0 and (self.spans[parent][0] == name
                                              or flags[parent]))
            self._inside[name] = flags
        return self._inside[name]

    def select(self, name, under=None):
        found = self.by_name.get(name, [])
        if under is None:
            return found
        flags = self.inside(under)
        return [i for i in found if flags[i]]

    def calls(self, name, under=None):
        return len(self.select(name, under))

    def total(self, name, under=None):
        """Inclusive time; a span inside a span of the same name (recursion)
        is already counted by the outer one."""
        nested = self.inside(name)
        return sum(self.duration(i) for i in self.select(name, under)
                   if not nested[i])

    def self_total(self, name, under=None):
        return sum(self.self_time(i) for i in self.select(name, under))

    def attr_sum(self, name, key, under=None):
        return sum((self.spans[i][4] or {}).get(key, 0)
                   for i in self.select(name, under))
