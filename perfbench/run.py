"""The repository benchmark: one command, three workloads, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload adhoc_queries --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

``adhoc_queries``
    A seeded stream of distinct query texts from seven shape families, each
    parsed, planned and run once on a small random R/S/T database.  Every
    query pays parsing, planning, RANF translation, automaton or codegen
    compilation and execution; the distinct queries overflow the
    256-entry automaton and closure caches.
``delta_mix``
    A versioned database where each step applies a small insert or
    delete to R or S and then re-runs seven fixed queries on the new head:
    delta maintenance, promotion and warm caches do the work, and writes
    sit beside reads.
``served_small``
    ``python -m repro serve`` in its own process with one worker, driven
    by one closed-loop connection over the service and SQL-pattern mix on
    a small database, a quarter of the requests streamed in pages of three
    rows.  Client and server share one CPU.  The engines are warm and
    cheap, so the front end dominates.

Each workload is a closed loop with one caller.  ``setup_s`` runs from starting the
process that holds the engines (the workload process, or the server)
until its caches are warm: building the database, registering it with
the server, and untimed warm-up operations.  It is done three times per
run, each in a fresh process, and reported as the median.  In-process,
a read runs from handing ``Query`` the text (ad hoc) or calling
``Query.run`` (``delta_mix``) until the rows are materialised; served, from
sending the request until its last frame arrives.  ``read_p99_ms`` is the
median p99 over equal consecutive slices of at least 1000 reads, so each
slice has ten samples beyond its p99.  ``ops_per_s`` counts reads and,
in ``delta_mix``, deltas.  ``peak_rss_mb`` is ``VmHWM`` of the
process that runs the engines, read after the timed phase.

The end-to-end times are in reference-host time.  A shared host changes
speed by up to half for tens of seconds, longer than a run.  So every
half second the timed phase pauses, with no operation in flight, for a
fixed probe (``measure.probe``: compiling a fixed Python source, no
library code), and each latency and each window's duration is multiplied
by ``PROBE_REF_S`` over the median probe of the five nearest windows.  Each
set-up is scaled the same way by probes made just before and after it.
A slower program still reads slower; a slower host does not.  The
wall-clock ``setup_s``, ``ops_per_s`` and ``read_p50_ms`` and the median
probe are printed in the summary lines.  Per-layer times are wall-clock.

Every answer of the timed phase is checked afterwards: ad-hoc answers
against the exact automata engine on the same database, ``delta_mix``
answers against it on every twentieth snapshot (at most 32), served
answers against in-process ``Query.run``.  Failed operations and wrong
answers are counted in ``failed`` and make the command exit with status 1.

With ``--trace 0`` the last line of output is the JSON result carrying the
end-to-end metrics; with ``--trace 1`` half the operations are traced
with spans around the library calls it makes, the per-layer metrics are
reported instead, and the spans are written to ``perfbench/out/``.
Write latencies of ``delta_mix`` and the failed fraction are printed in
the summary lines above the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import PROBE_REF_S, SETUP_PROBES, Tracer, host_factor, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("adhoc_queries", "delta_mix", "served_small")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Generous bound on the set-up and oracle work around a timed phase.
CHILD_TIMEOUT = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


#: Per-layer metrics of a traced run, with units.  A workload reports 0
#: for a layer it does not cross (``service.*`` in-process, engine
#: internals on the served path, ``delta.*`` without deltas) and for a
#: ratio with nothing attempted.
PER_LAYER_UNITS = {
    "logic.parse_ms": "ms",
    "engine.plan_ms": "ms",
    "exec.direct_ms": "ms",
    "exec.automata_ms": "ms",
    "exec.algebra_ms": "ms",
    "exec.codegen_ms": "ms",
    "eval.materialize_ms": "ms",
    "query.plan_exec_share": "ratio",
    "planner.chosen.direct": "ratio",
    "planner.chosen.automata": "ratio",
    "planner.chosen.algebra": "ratio",
    "planner.chosen.codegen": "ratio",
    "planner.eligibility_memo_hits": "count/op",
    "ranf.translations": "count/op",
    "ranf.translation_hit_rate": "ratio",
    "ranf.infinite_bailouts": "count/op",
    "codegen.compiles": "count/op",
    "codegen.cache_hit_rate": "ratio",
    "codegen.fallbacks": "count/op",
    "algebra.rows_probed": "count/op",
    "algebra.memo_hits": "count/op",
    "direct.yield": "ratio",
    "kernel.dense_states": "count/op",
    "kernel.product_states": "count/op",
    "kernel.short_circuits": "count/op",
    "automata.products": "count/op",
    "cache.hit_rate": "ratio",
    "cache.evictions": "count/op",
    "cache.size": "count",
    "delta.apply_ms": "ms",
    "delta.write_p50_ms": "ms",
    "delta.write_p99_ms": "ms",
    "delta.maintained_rate": "ratio",
    "delta.subplan_hit_rate": "ratio",
    "delta.result_promotions": "count/op",
    "delta.automata_promotions": "count/op",
    "service.queue_ms": "ms",
    "service.exec_ms": "ms",
    "service.frontend_ms": "ms",
    "service.exec_share": "ratio",
    "service.plan_cache_hit_rate": "ratio",
    "service.rejected": "count",
    "trace.overhead_ms": "ms",
    "read.samples": "count",
}


def trace_path(workload: str, seed: int) -> Path:
    return HERE / "out" / f"trace-{workload}-seed{seed}.jsonl"


def run_inproc(args) -> dict:
    """Set up ``SETUPS`` times in fresh processes; time the last one."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [
        sys.executable, str(HERE / "inproc.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out", str(trace_path(args.workload, args.seed)),
    ]
    setups, raw = [], []
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        probes = [probe() for _ in range(SETUP_PROBES)]
        spawned = time.monotonic()
        done = subprocess.run(
            command if last else command + ["--setup-only"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT + args.seconds,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"{args.workload} process failed:\n{done.stderr.strip()}"
            )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(result["ready"] - spawned)
        setups.append(raw[-1] * host_factor(probes + result["probes"]))
    result["setup_s"] = statistics.median(setups)
    result["raw_setup_s"] = statistics.median(raw)
    return result


def run_served(args) -> dict:
    import served  # imports the library, so only after the source check

    served.pin()
    setups, raw = [], []
    for attempt in range(SETUPS):
        server, seconds, factor = served.start(ROOT, args.seed)
        raw.append(seconds)
        setups.append(seconds * factor)
        if attempt < SETUPS - 1:
            server.stop()
    try:
        tracer = Tracer() if args.trace else None
        result = served.run_timed(server, args.seed, args.seconds, tracer)
    finally:
        server.stop()
    if tracer is not None:
        tracer.write(trace_path(args.workload, args.seed))
    result["setup_s"] = statistics.median(setups)
    result["raw_setup_s"] = statistics.median(raw)
    return result


def report(args, result: dict) -> dict:
    if args.trace:
        values = result["per_layer"]
        unknown = set(values) - set(PER_LAYER_UNITS)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        values = dict(result["end_to_end"])
        values["setup_s"] = result["setup_s"]
        values["peak_rss_mb"] = result["peak_rss_mb"]
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    failed = result["failed"] + result["mismatches"]
    return {
        "correct": result["mismatches"] == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def summary(args, result: dict) -> str:
    e2e = result["end_to_end"]
    lines = [
        f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s"
        f" timed, {'traced' if args.trace else 'untraced'}",
        f"  host: probe median {e2e['host_probe_ms']:.2f} ms (reference"
        f" {PROBE_REF_S * 1000:g} ms); wall clock: setup_s"
        f" {result['raw_setup_s']:.3f}, ops_per_s {e2e['raw_ops_per_s']:.1f},"
        f" read_p50_ms {e2e['raw_read_p50_ms']:.3f}",
        f"  reads: {e2e['read_samples']} samples in {e2e['read_slices']}"
        f" slices, {e2e['read_beyond_p99']} beyond each slice's p99",
    ]
    if "write_samples" in e2e:
        lines.append(
            f"  writes: p50 {e2e['write_p50_ms']:.3f} ms,"
            f" p99 {e2e['write_p99_ms']:.3f} ms, {e2e['write_samples']}"
            f" samples in {e2e['write_slices']} slices,"
            f" {e2e['write_beyond_p99']} beyond each slice's p99"
        )
    failed = result["failed"] + result["mismatches"]
    lines.append(
        f"  failed_frac {failed / result['attempted']:.6f}"
        f" ({result['failed']} failed, {result['mismatches']} wrong answers,"
        f" {result['attempted']} attempted)"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "served_small":
        result = run_served(args)
    else:
        result = run_inproc(args)
    out = report(args, result)
    print(summary(args, result))
    print(json.dumps(out))
    return 0 if out["correct"] and out["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
