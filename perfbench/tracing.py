"""Spans around the benchmark's own calls into ``groupra`` modules.

A span is a name ("<module>.<what>"), a start, an end, the span open around
it (its parent), the round it belongs to, and the workload and run id of the
process.  Counts are added at the same call boundaries.  Spans live in
parallel arrays in memory and are written out once, when the run ends.

Self time of a span is its duration minus the time its child spans cover.
The module spans never nest inside each other (the benchmark only wraps its
own direct calls), so a module's self time is the time spent in its calls;
the enclosing ``bench.*`` spans keep what the benchmark's loops cost.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional


class NullTracer:
    """The untraced path: hands back the callable itself, records nothing."""

    enabled = False

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        return fn

    def phase(self, name: str):
        return nullcontext()


NULL = NullTracer()


class Tracer:
    enabled = True

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.round_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[int, str], int] = {}
        self.round = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round_of.append(self.round)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def add(self, name: str, n: int) -> None:
        key = (self.round, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call; ``count(result, args)``
        yields (counter, amount) pairs added at the same boundary."""

        def traced(*args):
            sid = self._open(name)
            try:
                result = fn(*args)
            finally:
                self._close(sid)
            if count is not None:
                for key, n in count(result, args):
                    self.add(key, n)
            return result

        return traced

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    # -- summaries -------------------------------------------------------
    # Durations go through ``scale(start, end)``, which turns a span's wall
    # time into seconds on the reference machine of speed.py.

    def self_times(self, scale: Callable[[float, float], float]) -> dict[int, dict[str, float]]:
        """Per round: span name -> summed self time in seconds."""
        n = len(self.start)
        took = [scale(self.start[sid], self.end[sid]) for sid in range(n)]
        covered = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                covered[p] += took[sid]
        out: dict[int, dict[str, float]] = {}
        for sid in range(n):
            own = took[sid] - covered[sid]
            per = out.setdefault(self.round_of[sid], {})
            name = self.names[self.name_of[sid]]
            per[name] = per.get(name, 0.0) + own
        return out

    def durations(self, name: str, scale: Callable[[float, float], float]) -> list[float]:
        nid = self._name_ids.get(name)
        return [
            scale(self.start[sid], self.end[sid])
            for sid in range(len(self.start))
            if self.name_of[sid] == nid
        ]

    def spans_per_round(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.round_of:
            out[r] = out.get(r, 0) + 1
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated lines, one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tparent\tname\tstart\tend\tround\tworkload\trun_id\n")
            tail = f"\t{self.workload}\t{self.run_id}\n"
            for sid in range(len(self.start)):
                out.write(
                    f"{sid}\t{self.parent[sid]}\t{self.names[self.name_of[sid]]}\t"
                    f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\t{self.round_of[sid]}{tail}"
                )


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
