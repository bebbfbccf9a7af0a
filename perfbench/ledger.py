"""Measurement plumbing: call spans, process accounting, metric scraping.

The traced run records a span around each wrapped call into the
program's public functions (:class:`Recorder`); nothing inside ``src/``
is instrumented for it.  CPU time comes from each process's CPU clock
and peak RSS from ``/proc``, so that worker and server processes are
counted next to the benchmark process itself.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

class Recorder:
    """In-memory call spans: name, start, end, parent span and items.

    Spans carry the index of the span that caused them, so a span's
    self time (its duration minus the part its children cover) is exact.
    The program's own ``repro.obs`` tracer keeps only parent names in a
    bounded ring, which cannot give that.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []  # [name, start, end, parent, items]
        self._open: List[int] = []

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        items: Optional[Callable[..., int]] = None,
    ) -> None:
        """Replace ``obj.attr`` with a spanned call of the original."""
        inner = getattr(obj, attr)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            n = items(*args) if items is not None else 1
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, n]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        setattr(obj, attr, traced)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per name: calls, items, total and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _, n) in enumerate(self.spans):
            row = out.setdefault(
                name, {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["items"] += n
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path: Path) -> None:
        """Dump every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "items"],
            "spans": self.spans,
        }))


def cpu_clock(pid: int) -> int:
    """The CPU-time clock of process *pid* (``clock_getcpuclockid``).

    Read with :func:`time.clock_gettime`: user + system time in
    nanosecond steps, where ``/proc/<pid>/stat`` counts 10 ms ticks,
    too coarse to charge CPU to one batch.
    """
    return ((~pid) << 3) | 2  # MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def metric_total(exposition: str, name: str) -> float:
    """Sum of every sample of *name* in a Prometheus text exposition."""
    total = 0.0
    for line in exposition.splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in ("{", " "):
            total += float(line.rsplit(" ", 1)[1])
    return total


def percentile_ms(latencies: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) * 1e3
