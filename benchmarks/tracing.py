"""In-memory spans, counters and warning capture around library calls.

Every call the benchmark makes into growthdiff goes through ``Tracer.call``.
Warnings raised inside the call (``TruncationWarning``, scipy's
``IntegrationWarning``, ...) and exceptions leaving it are recorded with the
call name and job, in traced and untraced passes alike.  Spans (name, start,
end, parent, job) are kept only while ``spans_on`` is set, stay in memory,
and are written out once the run ends.
"""

from __future__ import annotations

import time
import warnings
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans_on = False
        self.spans = []           # [name, start, end, parent index, job, pass]
        self.events = []          # dicts: job, call, kind, category, message
        self.counters = defaultdict(float)   # traced-pass counters only
        self._stack = []
        self.job = None
        self.pass_index = -1

    def _open(self, name):
        if not self.spans_on:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job,
                           self.pass_index])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        if index is not None:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span with no warning capture, for whole jobs."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one traced library call."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.events.append({"job": self.job, "call": name,
                                    "kind": "exception",
                                    "category": type(exc).__name__,
                                    "message": str(exc)})
                raise
            finally:
                self._close(index)
                for w in caught:
                    self.events.append({"job": self.job, "call": name,
                                        "kind": "warning",
                                        "category": w.category.__name__,
                                        "message": str(w.message)})
                    if self.spans_on:
                        self.counters["warning." + w.category.__name__] += 1

    def count(self, name, value):
        """Add to a per-layer counter; only traced passes count."""
        if self.spans_on:
            self.counters[name] += value


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job, pass_index in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]
