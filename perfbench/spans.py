"""Benchmark-owned spans: name, start, end and the span that caused it.

The traced run wraps every call it makes into a layer in one of these, keeps
them in memory, and writes them out once at the end. Spans inside ``src/repro``
are a later change; these stand outside the program, at its public functions.
"""

from contextlib import contextmanager
from time import perf_counter


class SpanLog:
    """An in-memory list of nested wall-clock spans."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None}
        index = len(self.spans)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = perf_counter()

    def chrome_events(self):
        """Chrome trace-event ("X") rows, microseconds from the first span."""
        if not self.spans:
            return []
        origin = self.spans[0]["start"]
        return [{"name": record["name"], "ph": "X", "pid": 1, "tid": 1,
                 "ts": (record["start"] - origin) * 1e6,
                 "dur": (record["end"] - record["start"]) * 1e6,
                 "args": {"parent": (None if record["parent"] is None else
                                     self.spans[record["parent"]]["name"])}}
                for record in self.spans]
