"""The in-process workloads: one closed-loop caller driving the engines.

``run.py`` starts this file as a process of its own for every set-up, so
each set-up starts cold and ``peak_rss_mb`` is the engines' own process.
Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/inproc.py --workload adhoc_queries --seed 1 \\
        --seconds 20 --trace 0 [--setup-only]

It prints one JSON object: the monotonic time at which set-up ended, the
host-speed probes made right after it and, unless ``--setup-only``, the
workload's measurements.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro.core.query import Query
from repro.database.instance import Database
from repro.delta import VersionedDatabase
from repro.engine.backend import resolve_engine
from repro.engine.cache import global_cache
from repro.engine.explain import execute_plan
from repro.engine.metrics import METRICS
from repro.engine.planner import Planner
from repro.errors import ReproError
from repro.strings import BINARY

import inputs
from measure import (
    PROBE_EVERY, SETUP_PROBES, HostScale, Tracer, answer_digest,
    counter_delta, latency_summary, overhead_ms, peak_rss_mb, probe, ratio,
)

ENGINES = ("direct", "automata", "algebra", "codegen")


def span(tracer: Tracer | None, name: str, request: int):
    return nullcontext() if tracer is None else tracer.span(name, request)


def run_query(query: Query, db: Database, tracer: Tracer | None, request: int):
    """``query.run(db)`` untraced; its public calls one span each when traced."""
    if tracer is None:
        return query.run(db).rows_set
    with tracer.span("engine.plan", request):
        plan = Planner(query.structure, db).plan(
            query.formula, force=resolve_engine(None)
        )
    with tracer.span(f"exec.{plan.engine}", request):
        result = execute_plan(plan, db, cache=global_cache())
    with tracer.span("eval.materialize", request):
        return result.as_set()


class Recorder:
    """Latencies and failures of one timed phase."""

    def __init__(self) -> None:
        self.reads: list[float] = []
        self.traced_reads: list[float] = []
        self.writes: list[float] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.reads) + len(self.traced_reads) + len(self.writes) + self.failed


def warm_up(step, limit: int) -> None:
    """Run untimed steps until the automaton cache is full, at most ``limit``."""
    scratch = Recorder()
    cache = global_cache()
    for _ in range(limit):
        if len(cache) >= cache.maxsize:
            return
        step(scratch, None, 0, keep=False)


class AdhocQueries:
    """A stream of distinct query texts, each parsed, planned and run once."""

    def __init__(self, seed: int, sizes=inputs.ADHOC_SIZES, warmup: int = 300):
        self.seed = seed
        self.sizes = sizes
        self.warmup = warmup
        self.answers: list[tuple[str, str, bytes]] = []

    def setup(self) -> None:
        self.db = Database(BINARY, inputs.adhoc_relations(self.seed, self.sizes))
        self.stream = inputs.AdhocStream(self.seed)
        warm_up(self.step, self.warmup)

    def step(self, rec: Recorder, tracer: Tracer | None, request: int, keep=True):
        _family, text, structure = next(self.stream)
        t0 = time.perf_counter()
        try:
            with span(tracer, "query", request):
                with span(tracer, "logic.parse", request):
                    query = Query(text, structure=structure)
                rows = run_query(query, self.db, tracer, request)
        except ReproError:
            rec.failed += 1
            return
        elapsed = time.perf_counter() - t0
        (rec.reads if tracer is None else rec.traced_reads).append(elapsed)
        if keep:
            self.answers.append((text, structure, answer_digest(rows)))

    def oracle(self) -> int:
        """Mismatches against the automata engine, one run per query."""
        return sum(
            answer_digest(
                Query(text, structure=structure)
                .run(self.db, engine="automata")
                .rows_set
            )
            != digest
            for text, structure, digest in self.answers
        )


class DeltaMix:
    """Small deltas to R or S, each followed by a fixed set of queries."""

    #: Every this many steps, the snapshot and its answers are kept for
    #: the oracle, up to ``CHECK_MAX`` snapshots so memory stays bounded.
    CHECK_EVERY = 20
    CHECK_MAX = 32

    def __init__(self, seed: int, sizes=inputs.DELTA_SIZES, warmup: int = 100):
        self.seed = seed
        self.sizes = sizes
        self.warmup = warmup
        self.steps = 0
        self.kept: list[tuple[Database, list[frozenset]]] = []

    def setup(self) -> None:
        relations = inputs.delta_relations(self.seed, self.sizes)
        self.vdb = VersionedDatabase(Database(BINARY, relations))
        self.queries = [Query(t, structure=s) for t, s in inputs.DELTA_QUERIES]
        self.deltas = inputs.DeltaStream(self.seed, relations)
        warm_up(self.step, self.warmup)

    def step(self, rec: Recorder, tracer: Tracer | None, request: int, keep=True):
        relation, kind, rows = next(self.deltas)
        t0 = time.perf_counter()
        try:
            with span(tracer, "delta.apply", request):
                self.vdb.apply(**{kind: {relation: rows}})
        except ReproError:
            rec.failed += 1
            return
        rec.writes.append(time.perf_counter() - t0)
        db = self.vdb.head.database
        answers = []
        for query in self.queries:
            t0 = time.perf_counter()
            try:
                with span(tracer, "query", request):
                    answers.append(run_query(query, db, tracer, request))
            except ReproError:
                rec.failed += 1
                answers.append(None)
                continue
            elapsed = time.perf_counter() - t0
            (rec.reads if tracer is None else rec.traced_reads).append(elapsed)
        if keep:
            if self.steps % self.CHECK_EVERY == 0 and len(self.kept) < self.CHECK_MAX:
                self.kept.append((db, answers))
            self.steps += 1

    def oracle(self) -> int:
        """Mismatches against the automata engine on the kept snapshots."""
        return sum(
            query.run(db, engine="automata").rows_set != rows
            for db, answers in self.kept
            for query, rows in zip(self.queries, answers)
            if rows is not None
        )


WORKLOADS = {"adhoc_queries": AdhocQueries, "delta_mix": DeltaMix}


def timed_phase(workload, seconds: float, tracer: Tracer | None) -> dict:
    """Closed loop for ``seconds``; with a tracer, half the steps are traced.

    The loop pauses every ``PROBE_EVERY`` seconds to probe the host's
    speed (see ``HostScale``).  The traced half is drawn by a coin, not by
    alternation, so it cannot line up with the ad-hoc stream's rotation
    through the query families.
    """
    rec = Recorder()
    host = HostScale()
    coin = random.Random("trace")
    before = METRICS.snapshot()
    deadline = time.perf_counter() + seconds
    request = 0
    while time.perf_counter() < deadline:
        host.open(rec.reads, rec.writes)
        window_end = min(deadline, time.perf_counter() + PROBE_EVERY)
        while time.perf_counter() < window_end:
            request += 1
            traced = tracer is not None and coin.random() < 0.5
            workload.step(rec, tracer if traced else None, request)
        host.close()
    counters = counter_delta(before, METRICS.snapshot())
    return {"rec": rec, "host": host, "counters": counters}


def end_to_end(rec: Recorder, host: HostScale) -> dict:
    """Throughput and latencies in reference-host time (see ``HostScale``)."""
    reads = latency_summary(host.scaled(rec.reads, 0))
    raw = latency_summary(rec.reads)
    out = {
        "ops_per_s": (len(rec.reads) + len(rec.writes)) / host.seconds(),
        "raw_ops_per_s": (len(rec.reads) + len(rec.writes)) / host.raw_seconds(),
        "raw_read_p50_ms": raw["p50_ms"],
        "host_probe_ms": statistics.median(host.probes) * 1000,
        "read_p50_ms": reads["p50_ms"],
        "read_p99_ms": reads["p99_ms"],
        "read_samples": reads["samples"],
        "read_slices": reads["slices"],
        "read_beyond_p99": reads["beyond_p99"],
    }
    if rec.writes:
        writes = latency_summary(host.scaled(rec.writes, 1))
        out.update(
            write_p50_ms=writes["p50_ms"],
            write_p99_ms=writes["p99_ms"],
            write_samples=writes["samples"],
            write_slices=writes["slices"],
            write_beyond_p99=writes["beyond_p99"],
        )
    return out


def per_layer(rec: Recorder, counters: dict, tracer: Tracer) -> dict:
    """Layer metrics of a traced run (see BENCHMARK.json for the list)."""
    selfs = tracer.self_times()
    traced = len(rec.traced_reads)
    reads = len(rec.reads) + traced

    def ms_per_query(name: str) -> float:
        return ratio(selfs.get(name, 0.0) * 1000, traced)

    def per_read(name: str) -> float:
        return ratio(counters.get(name, 0), reads)

    def rate(hit: str, *others: str) -> float:
        hits = counters.get(hit, 0)
        return ratio(hits, hits + sum(counters.get(o, 0) for o in others))

    query_total = sum(s.end - s.start for s in tracer.spans if s.name == "query")
    plan_exec = selfs.get("engine.plan", 0.0) + sum(
        selfs.get(f"exec.{e}", 0.0) for e in ENGINES
    )
    writes = latency_summary(rec.writes) if rec.writes else None
    cache = global_cache().stats()
    out = {
        "logic.parse_ms": ms_per_query("logic.parse"),
        "engine.plan_ms": ms_per_query("engine.plan"),
        **{f"exec.{e}_ms": ms_per_query(f"exec.{e}") for e in ENGINES},
        "eval.materialize_ms": ms_per_query("eval.materialize"),
        "query.plan_exec_share": ratio(plan_exec, query_total),
        **{
            f"planner.chosen.{e}": per_read(f"planner.backend.{e}.chosen")
            for e in ENGINES
        },
        "planner.eligibility_memo_hits": per_read("planner.eligibility_memo_hits"),
        "ranf.translations": per_read("algebra.ranf.translations"),
        "ranf.translation_hit_rate": rate(
            "algebra.ranf.translation_cache_hits", "algebra.ranf.translations"
        ),
        "ranf.infinite_bailouts": per_read("algebra.ranf.infinite_bailouts"),
        "codegen.compiles": per_read("codegen.compiles"),
        "codegen.cache_hit_rate": rate("codegen.cache.hits", "codegen.cache.misses"),
        "codegen.fallbacks": per_read("codegen.fallbacks"),
        "algebra.rows_probed": per_read("algebra.rows_probed"),
        "algebra.memo_hits": per_read("algebra.memo_hits"),
        "direct.yield": ratio(
            counters.get("direct.output_tuples", 0),
            counters.get("direct.candidates", 0),
        ),
        "kernel.dense_states": per_read("kernel.dense_states"),
        "kernel.product_states": per_read("kernel.product_states"),
        "kernel.short_circuits": per_read("kernel.short_circuits"),
        "automata.products": per_read("automata.products"),
        "cache.hit_rate": rate("cache.hits", "cache.misses"),
        "cache.evictions": per_read("cache.evictions"),
        "cache.size": cache["size"],
        "delta.apply_ms": ratio(
            selfs.get("delta.apply", 0.0) * 1000,
            sum(1 for s in tracer.spans if s.name == "delta.apply"),
        ),
        "delta.write_p50_ms": writes["p50_ms"] if writes else 0.0,
        "delta.write_p99_ms": writes["p99_ms"] if writes else 0.0,
        "delta.maintained_rate": rate(
            "delta.algebra_maintained", "delta.algebra_fallbacks"
        ),
        "delta.subplan_hit_rate": rate("delta.subplan_hits", "delta.subplan_misses"),
        "delta.result_promotions": per_read("delta.result_promotions"),
        "delta.automata_promotions": per_read("delta.automata_promotions"),
        "trace.overhead_ms": overhead_ms(rec.traced_reads, rec.reads),
        "read.samples": reads,
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    ready = time.monotonic()
    probes = [probe() for _ in range(SETUP_PROBES)]
    if args.setup_only:
        print(json.dumps({"ready": ready, "probes": probes}))
        return 0

    tracer = Tracer() if args.trace else None
    phase = timed_phase(workload, args.seconds, tracer)
    rec = phase["rec"]
    rss = peak_rss_mb()
    mismatches = workload.oracle()
    out = {
        "ready": ready,
        "probes": probes,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "mismatches": mismatches,
        "peak_rss_mb": rss,
        "end_to_end": end_to_end(rec, phase["host"]),
    }
    if tracer is not None:
        out["per_layer"] = per_layer(rec, phase["counters"], tracer)
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
