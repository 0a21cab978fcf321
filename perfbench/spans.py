"""In-memory spans around the benchmark's calls into ``hidenet``.

A span records its name (``<module>.<function>`` of the public function the
benchmark called), start, end, parent span and op id.  Every op gets a root
span named ``op``; the layer calls it makes are its children.  Counters are
recorded at the same call sites, so ratios are measured where the work
happens.  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Span recorder; a disabled tracer calls straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        # (span id, name, start, end, parent span id, op id)
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_labels: dict[int, str] = {}
        self._next_id = 0
        self._op: int | None = None
        self._root: int | None = None
        self._op_start = 0.0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def begin_op(self, op_id: int, label: str) -> None:
        if self.enabled:
            self._op, self._root = op_id, self._new_id()
            self.op_labels[op_id] = label
            self._op_start = time.perf_counter()

    def end_op(self) -> None:
        if self.enabled:
            self.spans.append(
                (self._root, "op", self._op_start, time.perf_counter(), None, self._op)
            )
            self._op = self._root = None

    def call(self, name: str, fn, *args):
        """``fn(*args)``, recorded as a child span of the current op."""
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        self.spans.append((self._new_id(), name, start, end, self._root, self._op))
        return out

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counters[name] += amount

    # -- summaries ------------------------------------------------------------

    def durations(self, name: str, label: str | None = None) -> list[float]:
        return [
            end - start
            for _, span_name, start, end, _, op in self.spans
            if span_name == name and (label is None or self.op_labels.get(op) == label)
        ]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def calls(self, name: str) -> int:
        return len(self.durations(name))

    def write(self, path, meta: dict) -> None:
        fields = ("id", "name", "start", "end", "parent", "op")
        payload = {
            **meta,
            "ops": {str(op): label for op, label in self.op_labels.items()},
            "counters": dict(self.counters),
            "spans": [dict(zip(fields, span)) for span in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
