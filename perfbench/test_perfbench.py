"""Tests for the benchmark's own helpers, plus a minimal run of each workload.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
from measure import (  # noqa: E402
    PROBE_REF_S,
    HostScale,
    Span,
    Tracer,
    answer_digest,
    counter_delta,
    host_factor,
    latency_summary,
    overhead_ms,
    percentile,
    ratio,
    samples_beyond,
    sliced_tail,
)


# ----------------------------------------------------------------- helpers


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 0.99) == 990
    assert percentile(values, 0.5) == 500
    assert percentile([4, 1, 3, 2], 0.5) == 2
    assert percentile([7], 0.99) == 7
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_samples_beyond_the_tail():
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) == 9
    assert samples_beyond(100, 0.99) == 1
    assert samples_beyond(0, 0.99) == 0
    summary = latency_summary([i / 1000 for i in range(1, 2501)])
    assert summary["samples"] == 2500
    assert summary["slices"] == 2
    assert summary["beyond_p99"] == 12
    assert summary["p99_ms"] == pytest.approx((1238 + 2488) / 2)


def test_sliced_tail_resists_one_slow_slice():
    steady = [1.0] * 990 + [2.0] * 10
    burst = [5.0] * 1000
    assert sliced_tail(steady * 2 + burst) == 1.0
    assert percentile(steady * 2 + burst, 0.99) == 5.0
    assert sliced_tail([3.0, 1.0, 2.0]) == 3.0


def test_host_scale_uses_the_median_of_nearby_probes():
    host = HostScale()
    reads = []
    for latencies in ([1.0, 2.0], [4.0], []):
        host.open(reads)
        reads.extend(latencies)
        host.close()
    host.probes = [0.02, 0.02, 0.01]  # the host at half, half, full speed
    host.busy = [2.0, 2.0, 1.0]
    assert host_factor([0.02, 0.01, 0.04]) == PROBE_REF_S / 0.02
    assert host.starts == [[0], [2], [3]]
    assert host.factors() == [PROBE_REF_S / 0.02] * 3
    assert host.seconds() == pytest.approx(5.0 * PROBE_REF_S / 0.02)
    assert host.raw_seconds() == 5.0
    assert host.scaled(reads, 0) == pytest.approx(
        [v * PROBE_REF_S / 0.02 for v in (1.0, 2.0, 4.0)]
    )


def test_ratio_counters_and_overhead():
    assert ratio(3, 4) == 0.75
    assert ratio(3, 0) == 0.0
    assert counter_delta({"a": 1, "b": 2}, {"a": 4, "b": 2, "c": 1}) == {
        "a": 3, "c": 1,
    }
    assert overhead_ms([0.003, 0.005], [0.002]) == pytest.approx(2.0)
    assert overhead_ms([], [0.002]) == 0.0


def test_self_time_subtracts_covered_child_time():
    tracer = Tracer()
    tracer.spans = [
        Span("query", 0.0, 10.0, None, 1),
        Span("plan", 1.0, 3.0, 0, 1),
        Span("exec", 2.0, 5.0, 0, 1),  # overlaps plan: counted once
        Span("materialize", 8.0, 12.0, 0, 1),  # clipped at the parent's end
        Span("query", 20.0, 21.0, None, 2),
    ]
    selfs = tracer.self_times()
    assert selfs["query"] == pytest.approx(10 - 6 + 1)
    assert selfs["plan"] == pytest.approx(2)
    assert selfs["exec"] == pytest.approx(3)
    assert selfs["materialize"] == pytest.approx(4)


def test_tracer_nests_spans_and_writes_them(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", 7):
        with tracer.span("inner", 7):
            pass
    with tracer.span("next", 8):
        pass
    assert [(s.name, s.parent, s.request) for s in tracer.spans] == [
        ("outer", None, 7), ("inner", 0, 7), ("next", None, 8),
    ]
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines] == ["outer", "inner", "next"]
    assert all(line["end"] >= line["start"] for line in lines)


# ------------------------------------------------------------------ inputs


def test_inputs_are_a_function_of_the_seed():
    assert inputs.adhoc_relations(3) == inputs.adhoc_relations(3)
    assert inputs.adhoc_relations(3) != inputs.adhoc_relations(4)
    first = [next(inputs.AdhocStream(5)) for _ in range(1)]
    stream_a, stream_b = inputs.AdhocStream(5), inputs.AdhocStream(5)
    texts = [next(stream_a) for _ in range(300)]
    assert texts == [next(stream_b) for _ in range(300)]
    assert texts[0] == first[0]
    assert len({(t, s) for _, t, s in texts}) == 300
    assert {family for family, _, _ in texts} == set(inputs.FAMILIES)


def test_deltas_are_small_and_effective():
    relations = inputs.delta_relations(2)
    total = sum(len(rows) for rows in relations.values())
    stream = inputs.DeltaStream(2, relations)
    model = {name: set(rows) for name, rows in relations.items()}
    kinds = set()
    for _ in range(200):
        name, kind, rows = next(stream)
        assert 1 <= len(rows) <= max(1, total // 100)
        if kind == "inserts":
            assert not rows & model[name]
            model[name] |= rows
        else:
            assert rows <= model[name]
            model[name] -= rows
        kinds.add(kind)
    assert kinds == {"inserts", "deletes"}
    for name in "RS":
        assert abs(len(model[name]) - len(relations[name])) <= stream.size


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


# ------------------------------------------------------- minimal workloads


@pytest.mark.parametrize(
    "workload",
    [
        inproc.AdhocQueries(1, sizes={"R": 8, "S": 6, "T": 20}, warmup=3),
        inproc.DeltaMix(1, sizes={"R": 60, "S": 10, "T": 20}, warmup=2),
    ],
    ids=["adhoc_queries", "delta_mix"],
)
def test_minimal_inproc_workload(workload):
    workload.setup()
    tracer = Tracer()
    phase = inproc.timed_phase(workload, 0.5, tracer)
    rec = phase["rec"]
    assert rec.failed == 0
    assert rec.reads and rec.traced_reads
    assert workload.oracle() == 0
    e2e = inproc.end_to_end(rec, phase["host"])
    assert e2e["ops_per_s"] > 0 and e2e["read_p99_ms"] >= e2e["read_p50_ms"] > 0
    layers = inproc.per_layer(rec, phase["counters"], tracer)
    assert set(layers) <= set(run.PER_LAYER_UNITS)
    assert 0 < layers["query.plan_exec_share"] <= 1


def test_oracle_catches_a_wrong_answer():
    workload = inproc.AdhocQueries(1, sizes={"R": 8, "S": 6, "T": 20}, warmup=3)
    workload.setup()
    inproc.timed_phase(workload, 0.3, None)
    text, structure, _ = workload.answers[0]
    workload.answers[0] = (text, structure, answer_digest({("0",)}))
    assert answer_digest([["1"], ["0"]]) == answer_digest({("0",), ("1",)})
    assert workload.oracle() == 1


def test_minimal_served_workload():
    server, setup_s, factor = served.start(ROOT, 1)
    try:
        assert setup_s > 0 and factor > 0
        result = served.run_timed(server, 1, 0.5, Tracer())
    finally:
        server.stop()
    assert server.proc.returncode is not None
    assert result["failed"] == 0 and result["mismatches"] == 0
    assert result["peak_rss_mb"] > 0
    layers = result["per_layer"]
    assert set(layers) <= set(run.PER_LAYER_UNITS)
    assert layers["service.exec_ms"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delta_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
