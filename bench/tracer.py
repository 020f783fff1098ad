"""In-memory spans and counters for the benchmark's traced run.

Spans are recorded from the benchmark's own files around each call into a
library layer.  They are kept in memory and written out once, when the run
ends, so tracing adds no I/O to the traced region.
"""

import time
from collections import Counter
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class Tracer:
    """Nested spans (id, parent id, item, name, start ns, end ns) and counts.

    A disabled tracer records no spans, so the same item code serves the
    timed runs, but it still keeps the work counts.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._open = []

    def span(self, name):
        if not self.enabled:
            return _NO_SPAN
        return self._span(name)

    @contextmanager
    def _span(self, name):
        parent = self._open[-1] if self._open else None
        record = [len(self.spans), parent, self.item, name,
                  time.perf_counter_ns(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            self._open.pop()
            record[5] = time.perf_counter_ns()

    def seconds_by_name(self):
        """Total seconds per span name, nested spans included."""
        out = Counter()
        for _, _, _, name, start, end in self.spans:
            out[name] += (end - start) / 1e9
        return out

    def top_level_seconds(self):
        return sum(end - start for _, parent, _, _, start, end in self.spans
                   if parent is None) / 1e9

    def span_records(self):
        keys = ("id", "parent", "item", "name", "start_ns", "end_ns")
        return [dict(zip(keys, s)) for s in self.spans]
