"""In-memory spans around the library calls the benchmark makes.

A span has a name `<module>.<function>[.variant]`, a start and an end
(perf_counter_ns), the item it belongs to, its parent span and a work count
the benchmark knows from its own inputs.  Spans are stored in flat integer
arrays while the pass runs and written out once it has ended.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter_ns

FIELDS = ("name", "start_ns", "end_ns", "item", "parent", "work")


class Untraced:
    """Calls straight through; used for every timed, untraced pass."""

    def call(self, name, work, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_item(self, item):
        pass

    def end_item(self):
        pass


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._cols = {f: array("q") for f in FIELDS}
        self._item = -1
        self._open = -1

    def _begin(self, name: str, work: int) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        c = self._cols
        idx = len(c["name"])
        c["name"].append(name_id)
        c["item"].append(self._item)
        c["parent"].append(self._open)
        c["work"].append(work)
        c["end_ns"].append(0)
        c["start_ns"].append(perf_counter_ns())
        return idx

    def call(self, name, work, fn, *args, **kwargs):
        idx = self._begin(name, work)
        outer, self._open = self._open, idx
        try:
            return fn(*args, **kwargs)
        finally:
            self._cols["end_ns"][idx] = perf_counter_ns()
            self._open = outer

    def begin_item(self, item: int):
        self._item = item
        self._open = self._begin("bench.item", 0)

    def end_item(self):
        self._cols["end_ns"][self._open] = perf_counter_ns()
        self._open = -1

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, self time in seconds and summed work.

        Self time is a span's duration minus the durations of its children;
        one thread runs them, so children never overlap each other.
        """
        c = self._cols
        n = len(c["name"])
        child_ns = [0] * n
        for i in range(n):
            p = c["parent"][i]
            if p >= 0:
                child_ns[p] += c["end_ns"][i] - c["start_ns"][i]
        totals = {name: {"calls": 0, "busy_s": 0.0, "work": 0} for name in self.names}
        for i in range(n):
            t = totals[self.names[c["name"][i]]]
            t["calls"] += 1
            t["busy_s"] += (c["end_ns"][i] - c["start_ns"][i] - child_ns[i]) * 1e-9
            t["work"] += c["work"][i]
        return totals

    def write(self, path: str):
        """Write every span as gzipped JSON columns."""
        doc = {
            "names": self.names,
            "fields": list(FIELDS),
            "columns": {f: self._cols[f].tolist() for f in FIELDS},
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
