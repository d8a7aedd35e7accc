"""Call wrappers for the benchmark's jobs.

Every call a job makes into the library goes through ``calls.call(name, fn,
*args)``.  ``Direct`` calls straight through (the timed, untraced run);
``Tracer`` records one span per call and keeps the spans in memory until the
run writes them out.  Both let their ``clock`` (a ``HostClock``) calibrate
between calls, never inside one.
"""

from __future__ import annotations

import time

from hostclock import HostClock


class Direct:
    """Untraced calls: no bookkeeping beyond the clock's ticks."""

    tracing = False

    def __init__(self):
        self.clock = HostClock()

    def call(self, name, fn, *args, **kwargs):
        self.clock.tick()
        return fn(*args, **kwargs)


class Tracer:
    """Records spans as (name, start_ns, end_ns, parent index, run id).

    A call made while another span is open gets that span as its parent;
    the job calls the library only from the benchmark's own code, so in
    practice every span is top level.
    """

    tracing = True

    def __init__(self, run_id: str):
        self.clock = HostClock()
        self.run_id = run_id
        self.spans = []
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        if not self._open:
            self.clock.tick()
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)


def span_totals(spans) -> dict:
    """name -> (seconds summed over its spans, number of spans)."""
    out = {}
    for name, start, end, _parent, _run in spans:
        secs, count = out.get(name, (0.0, 0))
        out[name] = (secs + (end - start) / 1e9, count + 1)
    return out


def top_level_seconds(spans) -> float:
    return sum((end - start) / 1e9 for _n, start, end, parent, _r in spans
               if parent is None)
