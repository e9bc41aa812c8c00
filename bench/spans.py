"""In-memory spans around the benchmark's calls into decolab.

A span records its name, start, end, parent span and the pass it belongs
to.  Spans are kept in a list and written out once, when the run ends.
With tracing switched off, ``call`` and ``span`` only run the work, so an
untraced pass pays for one attribute check per call.
"""

import time
from contextlib import contextmanager
from statistics import median


class Tracer:
    def __init__(self):
        self.enabled = False
        self.pass_id = None
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs), inside a span called ``name`` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "pass": self.pass_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_times(spans, names, per_call=()):
    """Median over passes of each name's self time.

    A name's value in one pass is the sum of its spans' self times, or
    their mean for names listed in ``per_call``.  Only passes that contain
    the name count; a name that never ran reads 0.
    """
    own = self_times(spans)
    totals = {}
    for s in spans:
        entry = totals.setdefault(s["name"], {}).setdefault(s["pass"], [0.0, 0])
        entry[0] += own[s["id"]]
        entry[1] += 1
    result = {}
    for name in names:
        per_pass = totals.get(name)
        if not per_pass:
            result[name] = 0.0
            continue
        values = [
            total / calls if name in per_call else total
            for total, calls in per_pass.values()
        ]
        result[name] = median(values)
    return result
