"""In-memory spans around the benchmark's calls into the package.

A span is one public call made from the benchmark's own files: its name
(``<module>.<function>``), start and end in ns, the index of the span that
was open when it began (-1 for a root), the id of the op it belongs to and
the factor that turns its duration into reference time (see run.py).
Root spans are ``op`` (one timed op), ``probe`` (extra public calls made
after an op to split it into layers) and ``setup`` (drawing the inputs).

Spans stay in memory during the run and are written out once it ends.
Counters (iterations, jobs, verdicts) are summed by ``note`` at the same
call sites, so ratios are taken where the work happens.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

ROOTS = ("op", "probe", "setup")


class NullTracer:
    """Tracing off: every call goes straight through."""

    op_id = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note(self, name, stat, value=1):
        pass

    def mark(self) -> int:
        return 0

    def rescale(self, first: int, scale: float) -> None:
        pass


class Tracer:
    """Records one span per call and sums counters by (layer, stat).

    Spans live in parallel flat lists, so a long run adds no per-span
    containers for the garbage collector to walk.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.op_ids: list = []
        self.scales: list[float] = []
        self.notes: dict = defaultdict(float)
        self.op_id = None
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.op_ids.append(self.op_id)
        self.ends.append(0)
        self.scales.append(1.0)
        self._open.append(index)
        self.starts.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = perf_counter_ns()
            self._open.pop()

    def note(self, name, stat, value=1):
        self.notes[(name, stat)] += value

    def mark(self) -> int:
        """Index of the next span, for a later ``rescale``."""
        return len(self.names)

    def rescale(self, first: int, scale: float) -> None:
        """Report the spans from index ``first`` on in reference time."""
        self.scales[first:] = [scale] * (len(self.scales) - first)

    def layer_table(self) -> dict:
        """Per span name: calls, inclusive µs mean and median, busy share.

        Durations are in reference time (end - start times the span's
        scale).  Self time is a span's duration minus that of its direct
        children.  ``busy_share`` is a layer's summed self time over the
        summed duration of the ``op`` roots; layers under a ``setup`` root
        are divided by the summed ``setup`` duration instead.
        """
        spans = [(name, (end - start) * scale, parent)
                 for name, start, end, parent, scale in zip(
                     self.names, self.starts, self.ends, self.parents,
                     self.scales)]
        child_ns = [0.0] * len(spans)
        root_of = [0] * len(spans)
        totals = defaultdict(float)
        for index, (name, ns, parent) in enumerate(spans):
            if parent < 0:
                root_of[index] = index
                totals[name] += ns
            else:
                root_of[index] = root_of[parent]
                child_ns[parent] += ns
        durations = defaultdict(list)
        self_ns = defaultdict(float)
        for index, (name, ns, _) in enumerate(spans):
            if name in ROOTS:
                continue
            durations[name].append(ns)
            denom = "setup" if spans[root_of[index]][0] == "setup" else "op"
            self_ns[(name, denom)] += ns - child_ns[index]
        table = {}
        for name, durs in durations.items():
            share = sum(ns / totals[denom] for (n, denom), ns in self_ns.items()
                        if n == name and totals[denom])
            table[name] = {
                "calls": len(durs),
                "us_mean": statistics.fmean(durs) / 1e3,
                "us_p50": statistics.median(durs) / 1e3,
                "busy_share": share,
                "us_total": sum(durs) / 1e3,
            }
        return table

    def dump(self, path) -> None:
        """Write every span as one JSON array per line:
        [name, start_ns, end_ns, parent index, op id, reference scale]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents,
                            self.op_ids, self.scales):
                fh.write(json.dumps(span) + "\n")
