"""served_small: ``python -m repro serve`` in its own process, driven over TCP.

The benchmark process is the only client: one asyncio loop with one
closed-loop connection per server worker (``CLIENTS`` of each).  Latency
runs from the send of a request until its last frame arrives.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from repro.core.query import Query
from repro.database.instance import Database
from repro.errors import ServiceError
from repro.service import AsyncServiceClient
from repro.strings import BINARY

import inputs
from measure import (
    PROBE_EVERY, SETUP_PROBES, HostScale, Tracer, answer_digest,
    host_factor, latency_summary, overhead_ms, peak_rss_mb, probe, ratio,
)

HOST = "127.0.0.1"
START_TIMEOUT = 60.0

#: Connections and server workers.  With one of each, the client, the
#: server's event loop and its worker take turns on a request, so one core
#: serves them all (see ``pin``); with one per core, the tail latency
#: followed the host's scheduler, not the server.
CLIENTS = 1


def pin() -> None:
    """Keep this process, and every process it starts later, on one CPU.

    The client and the server then hand each request over on one CPU
    rather than waking an idle one, whose wake-up time on a shared host
    varies from run to run.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


#: Warm-up passes over the query mix before timing (plain and streamed).
WARMUP_PASSES = 3


class Server:
    """One ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, root: Path, workers: int):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", HOST,
             "--port", "0", "--workers", str(workers)],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.port = None
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read_log, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _read_log(self) -> None:
        for line in self.proc.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        seen = []
        while (left := deadline - time.monotonic()) > 0:
            try:
                line = self._lines.get(timeout=left)
            except queue.Empty:
                break
            if line is None:
                break
            if line.startswith("serving on "):
                return int(line.split()[2].rsplit(":", 1)[1])
            seen.append(line)
        raise RuntimeError("query server did not start: " + "".join(seen).strip())

    def stop(self) -> None:
        """Ask the server to shut down, kill it if it does not, and reap it."""
        if self.proc.poll() is None:
            if self.port is None:
                self.proc.kill()
            else:
                try:
                    asyncio.run(_shutdown(self.port))
                except (ServiceError, OSError):
                    pass  # not answering: killed below
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self._reader.join(timeout=10)
        self.proc.stderr.close()


async def _shutdown(port: int) -> None:
    async with await AsyncServiceClient.connect(HOST, port, timeout=5.0) as client:
        await client.shutdown(drain=False)


async def _run(client: AsyncServiceClient, index: int, streamed: bool):
    """One request; returns ``(final frame or response, rows)``."""
    text, structure = inputs.SERVED_QUERIES[index]
    if not streamed:
        response = await client.run(text, "main", structure=structure)
        return response, response.get("rows") or []
    rows: list = []
    async for frame in client.run_stream(
        text, "main", page_size=inputs.STREAM_PAGE, structure=structure
    ):
        if frame.get("frame") == "row_batch":
            rows.extend(frame["rows"])
        else:
            return frame, rows
    raise RuntimeError("stream ended without a done frame")


async def _setup(port: int, relations: inputs.Relations) -> None:
    async with await AsyncServiceClient.connect(HOST, port) as client:
        reply = await client.register_db(
            "main", inputs.ALPHABET,
            {name: sorted(map(list, rows)) for name, rows in relations.items()},
        )
        if not reply.get("ok"):
            raise RuntimeError(f"register_db failed: {reply.get('error')}")
        for _ in range(WARMUP_PASSES):
            for index in range(len(inputs.SERVED_QUERIES)):
                for streamed in (False, True):
                    frame, _ = await _run(client, index, streamed)
                    if not frame.get("ok"):
                        raise RuntimeError(f"warm-up failed: {frame.get('error')}")


def start(root: Path, seed: int) -> tuple[Server, float, float]:
    """Start a server, register the database and warm it up.

    Returns the server, its set-up time in seconds and the host factor
    (``measure.host_factor``) of probes made before and after it.
    """
    probes = [probe() for _ in range(SETUP_PROBES)]
    t0 = time.monotonic()
    server = Server(root, CLIENTS)
    try:
        asyncio.run(_setup(server.port, inputs.served_relations(seed)))
        seconds = time.monotonic() - t0
        probes += [probe() for _ in range(SETUP_PROBES)]
    except BaseException:
        server.stop()
        raise
    return server, seconds, host_factor(probes)


class Samples:
    """What the connections of one timed phase observed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.traced: list[float] = []
        #: ``(query index, answer digest)``: how often each was received.
        self.answers: Counter[tuple[int, bytes]] = Counter()
        self.queue_ms: list[float] = []
        self.exec_ms: list[float] = []
        self.frontend_ms: list[float] = []
        self.failed = 0


async def _window(client, ops, counts, number, window_end, samples, tracer):
    """One connection's closed loop until ``window_end``."""
    while time.perf_counter() < window_end:
        count = next(counts)
        index, streamed = next(ops)
        traced = tracer is not None and count % 2 == 0
        t0 = time.perf_counter()
        frame, rows = await _run(client, index, streamed)
        t1 = time.perf_counter()
        if not frame.get("ok"):
            samples.failed += 1
            continue
        samples.answers[index, answer_digest(rows)] += 1
        if not traced:
            samples.latencies.append(t1 - t0)
            continue
        request = number * 10**9 + count
        tracer.add("request", t0, t1, request)
        samples.traced.append(t1 - t0)
        samples.queue_ms.append(frame["queue_ms"])
        samples.exec_ms.append(frame["exec_ms"])
        samples.frontend_ms.append(
            (t1 - t0) * 1000 - frame["queue_ms"] - frame["exec_ms"]
        )


async def _stats(port: int) -> dict:
    async with await AsyncServiceClient.connect(HOST, port) as client:
        return (await client.stats())["stats"]


async def _drive(port, seed, seconds, tracer) -> tuple[Samples, HostScale]:
    """``CLIENTS`` closed-loop connections, paused together for each probe."""
    samples = Samples()
    host = HostScale()
    async with contextlib.AsyncExitStack() as stack:
        connections = [
            (
                await stack.enter_async_context(
                    await AsyncServiceClient.connect(HOST, port, read_timeout=60.0)
                ),
                inputs.served_ops(seed, number),
                itertools.count(1),
                number,
            )
            for number in range(CLIENTS)
        ]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            host.open(samples.latencies)
            window_end = min(deadline, time.perf_counter() + PROBE_EVERY)
            await asyncio.gather(*(
                _window(*connection, window_end, samples, tracer)
                for connection in connections
            ))
            host.close()
    return samples, host


def oracle(seed: int, samples: Samples) -> int:
    """Mismatches of served answers against in-process ``Query.run``."""
    db = Database(BINARY, inputs.served_relations(seed))
    expected = [
        answer_digest(Query(text, structure=structure).run(db).rows_set)
        for text, structure in inputs.SERVED_QUERIES
    ]
    return sum(
        count
        for (index, digest), count in samples.answers.items()
        if digest != expected[index]
    )


def run_timed(server: Server, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    """The timed phase against a warm server, then the oracle."""
    before = asyncio.run(_stats(server.port))
    samples, host = asyncio.run(_drive(server.port, seed, seconds, tracer))
    after = asyncio.run(_stats(server.port))
    rss = peak_rss_mb(server.proc.pid)
    reads = latency_summary(host.scaled(samples.latencies, 0))
    raw = latency_summary(samples.latencies)
    done = len(samples.latencies) + len(samples.traced)
    attempted = len(samples.latencies) + len(samples.traced) + samples.failed
    out = {
        "attempted": attempted,
        "failed": samples.failed,
        "mismatches": oracle(seed, samples),
        "peak_rss_mb": rss,
        "end_to_end": {
            "ops_per_s": done / host.seconds(),
            "raw_ops_per_s": done / host.raw_seconds(),
            "raw_read_p50_ms": raw["p50_ms"],
            "host_probe_ms": statistics.median(host.probes) * 1000,
            "read_p50_ms": reads["p50_ms"],
            "read_p99_ms": reads["p99_ms"],
            "read_samples": reads["samples"],
            "read_slices": reads["slices"],
            "read_beyond_p99": reads["beyond_p99"],
        },
    }
    if tracer is not None:
        out["per_layer"] = per_layer(samples, before, after, raw["p50_ms"])
    return out


def per_layer(samples: Samples, before: dict, after: dict, read_p50_ms: float) -> dict:
    """Service-layer metrics from response timings and the ``stats`` verb."""

    def delta(section: str, name: str) -> float:
        return after[section].get(name, 0) - before[section].get(name, 0)

    reads = len(samples.latencies) + len(samples.traced)
    exec_ms = statistics.mean(samples.exec_ms)
    return {
        "service.queue_ms": statistics.mean(samples.queue_ms),
        "service.exec_ms": exec_ms,
        "service.frontend_ms": statistics.mean(samples.frontend_ms),
        "service.exec_share": ratio(exec_ms, read_p50_ms),
        "service.plan_cache_hit_rate": ratio(
            delta("counters", "service.plan_cache_hits"),
            delta("counters", "service.requests"),
        ),
        "service.rejected": delta("counters", "service.rejected"),
        "cache.hit_rate": ratio(
            delta("cache", "hits"), delta("cache", "hits") + delta("cache", "misses")
        ),
        "cache.evictions": ratio(delta("cache", "evictions"), reads),
        "cache.size": after["cache"]["size"],
        "codegen.cache_hit_rate": ratio(
            delta("codegen_cache", "hits"),
            delta("codegen_cache", "hits") + delta("codegen_cache", "misses"),
        ),
        "trace.overhead_ms": overhead_ms(samples.traced, samples.latencies),
        "read.samples": reads,
    }
