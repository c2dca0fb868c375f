"""Measurement helpers shared by every workload: percentiles, spans, RSS.

Nothing here imports the library, so the helpers are testable alone.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: The latency percentile every workload reports next to the median.
TAIL = 0.99

#: Samples per slice of a run for the tail: ten lie beyond its p99.
SLICE = 1000


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 1) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n)) if n else 0


def sliced_tail(values: list[float], q: float = TAIL) -> float:
    """Median of the ``q`` percentiles of consecutive slices of ``values``.

    ``values`` are in completion order.  They are cut into as many equal
    slices of at least ``SLICE`` samples as they fill (one, when fewer),
    so every slice has ten samples beyond its p99, and a burst of machine
    noise in one slice moves the reported tail less than a pooled
    percentile would.
    """
    count = max(1, len(values) // SLICE)
    size = len(values) // count
    return statistics.median(
        [percentile(values[i * size:(i + 1) * size], q) for i in range(count)]
    )


def latency_summary(seconds: list[float]) -> dict:
    """Median and sliced tail latency in ms, with the samples behind them."""
    slices = max(1, len(seconds) // SLICE)
    return {
        "p50_ms": percentile(seconds, 0.5) * 1000,
        "p99_ms": sliced_tail(seconds) * 1000,
        "samples": len(seconds),
        "slices": slices,
        "beyond_p99": samples_beyond(len(seconds) // slices, TAIL),
    }


# -------------------------------------------------------------- host speed

#: What the host-speed probe compiles: a dozen small functions made of the
#: comparisons, comprehensions and literals the engines' own work (parsing,
#: planning, generating and compiling code) is made of.  Compiling them
#: stresses the allocator and the caches the way that work does, which a
#: plain arithmetic loop was found to track less closely.
_PROBE_SOURCE = "\n".join(
    f"def f{i}(x, y):\n"
    f"    if x.startswith(y) and len(x) > {i}:\n"
    f"        return [c for c in x if c != y]\n"
    f"    return {{x: y, 'k{i}': (x, y)}}"
    for i in range(12)
)

#: Rounds of the probe, and its time in seconds on the reference host:
#: about its median on the machine the benchmark was tuned on (2 vCPUs of
#: a shared x86-64 host, CPython 3.11).
PROBE_ROUNDS = 10
PROBE_REF_S = 0.010

#: A timed phase is cut into windows of this many seconds, each opened by
#: one probe while no operation is in flight.
PROBE_EVERY = 0.5

#: A window's host speed is the median probe of the window and the
#: ``PROBE_SPAN`` windows on either side of it.
PROBE_SPAN = 2

#: Probes made before a set-up and as many right after it; their median
#: scales that set-up to reference-host time.
SETUP_PROBES = 5


def _probe_work() -> None:
    for _ in range(PROBE_ROUNDS):
        exec(compile(_PROBE_SOURCE, "<probe>", "exec"), {})


def probe() -> float:
    """Seconds one run of the fixed probe work takes, collector off.

    The probe touches no library code, so its time follows only the speed
    the host gives this process at that moment.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_factor(probes: list[float]) -> float:
    """Factor taking seconds measured beside ``probes`` to reference seconds."""
    return PROBE_REF_S / statistics.median(probes)


class HostScale:
    """Windows of a timed phase and the host speed measured in each.

    A shared host can change speed by half for tens of seconds at a
    time, which no run length averages away.  Each window opens with a
    probe; ``seconds`` and ``scaled`` turn the window's wall-clock times
    into reference-host times, so runs made while the host is slow or
    fast read alike while a slower program still reads slower.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.busy: list[float] = []
        self.starts: list[list[int]] = []
        self._opened = 0.0

    def open(self, *samples: list) -> None:
        """Probe the host and start a window.

        ``samples`` are the lists the window's latencies are appended to;
        their lengths mark where the window begins in each.
        """
        self.starts.append([len(values) for values in samples])
        self.probes.append(probe())
        self._opened = time.perf_counter()

    def close(self) -> None:
        self.busy.append(time.perf_counter() - self._opened)

    def factors(self) -> list[float]:
        """Per window: reference over measured seconds, from nearby probes."""
        k = PROBE_SPAN
        return [
            host_factor(self.probes[max(0, i - k):i + k + 1])
            for i in range(len(self.busy))
        ]

    def seconds(self) -> float:
        """Time spent in windows, in reference seconds."""
        return sum(b * f for b, f in zip(self.busy, self.factors()))

    def raw_seconds(self) -> float:
        return sum(self.busy)

    def scaled(self, values: list[float], column: int) -> list[float]:
        """``values``, the ``column``-th list given to ``open``, rescaled."""
        bounds = [start[column] for start in self.starts] + [len(values)]
        out: list[float] = []
        for i, factor in enumerate(self.factors()):
            out.extend(v * factor for v in values[bounds[i]:bounds[i + 1]])
        return out


def answer_digest(rows) -> bytes:
    """A fixed-size fingerprint of a set of rows, for the oracle.

    Workloads keep this, not the rows, so their memory and collector work
    do not grow with the number of operations a run completes.
    """
    ordered = sorted(tuple(row) for row in rows)
    return hashlib.sha256(repr(ordered).encode()).digest()


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def overhead_ms(traced: list[float], untraced: list[float]) -> float:
    """Median traced minus median untraced latency, in ms."""
    if not traced or not untraced:
        return 0.0
    return (statistics.median(traced) - statistics.median(untraced)) * 1000


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` (default: this process)."""
    path = Path(f"/proc/{pid or 'self'}/status")
    for line in path.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM line in {path}")


def counter_delta(before: dict, after: dict) -> dict:
    """Per-counter increase between two ``METRICS.snapshot()`` dicts."""
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


# ------------------------------------------------------------------- spans


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int


class Tracer:
    """In-memory spans: name, start, end, parent span and request id.

    Spans are recorded by the benchmark around calls into the library's
    public functions; nothing inside the library is instrumented.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, request)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = time.perf_counter()

    def add(self, name: str, start: float, end: float, request: int) -> None:
        """Record a finished top-level span (for concurrent callers)."""
        self.spans.append(Span(name, start, end, None, request))

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name.

        A span's self time is its duration minus the part of it that
        its child spans cover.
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered = _covered(
                [(c.start, c.end) for c in children.get(index, [])],
                span.start,
                span.end,
            )
            totals[span.name] = (
                totals.get(span.name, 0.0) + (span.end - span.start) - covered
            )
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
