"""Tests for warm-start cache persistence (``repro.engine.warmstart``).

The acceptance property (ISSUE 9): a service restarted on the same warm
directory answers a previously-compiled automata query **without
recompiling** — every automaton-cache miss of the fresh process is
served from disk (``warm_hits == misses``, ``load_misses == 0``), and
the answers are identical.  The failure-mode half: corrupt, truncated,
foreign-version, or checksum-broken warm files silently degrade to
plain misses — never an error, never a wrong answer.
"""

import os
import pickle

import pytest

from repro.core import Query, StringDatabase
from repro.engine import AutomatonCache, global_cache
from repro.engine.metrics import METRICS
from repro.engine.warmstart import (
    WARM_FORMAT_VERSION,
    WarmStartStore,
    key_digest,
)
from repro.service import QueryService, RunRequest, ServiceConfig


@pytest.fixture(autouse=True)
def _fresh_cache():
    global_cache().reset()
    METRICS.reset()
    yield
    global_cache().reset()


def small_db():
    return StringDatabase(
        "01", {"R": {"0110", "001", "11"}, "S": {"0", "01"}}
    )


QUERY = "R(x) & last(x, '0')"


def run_once(warm_dir, query=QUERY, engine="automata"):
    """One service lifetime: run ``query``, close (which spills)."""
    cache = AutomatonCache(maxsize=128)
    svc = QueryService(ServiceConfig(
        workers=2, cache=cache, warm_dir=str(warm_dir)
    ))
    svc.register_database("main", small_db())
    try:
        resp = svc.execute(
            RunRequest(query=query, database="main", engine=engine)
        )
    finally:
        svc.close()
    return resp, cache


class TestServiceRoundTrip:
    def test_restart_answers_without_recompiling(self, tmp_path):
        first, cold_cache = run_once(tmp_path)
        assert first.ok
        assert cold_cache.stats()["warm_hits"] == 0  # nothing to load yet
        spilled = [p for p in os.listdir(tmp_path) if p.endswith(".warm")]
        assert spilled, "close() did not spill the automaton cache"

        second, warm_cache = run_once(tmp_path)
        assert second.ok
        assert second.rows == first.rows
        stats = warm_cache.stats()
        # Every miss of the fresh cache was served from disk: the warm
        # process compiled nothing for this query.
        assert stats["warm_hits"] > 0
        assert stats["warm_hits"] == stats["misses"]
        assert METRICS.get("cache.warm_hits") == stats["warm_hits"]
        assert METRICS.get("warmstart.loads") == stats["warm_hits"]

    def test_service_stats_report_warmstart(self, tmp_path):
        cache = AutomatonCache(maxsize=128)
        svc = QueryService(ServiceConfig(
            workers=1, cache=cache, warm_dir=str(tmp_path)
        ))
        svc.register_database("main", small_db())
        try:
            svc.execute(RunRequest(query=QUERY, database="main",
                                   engine="automata"))
            out = svc.stats()
            assert out["warmstart"]["directory"] == str(tmp_path)
            assert out["warmstart"]["loads"] == 0
            # Explicit mid-life spill, before close.
            result = svc.spill_warm()
            assert result["written"] > 0
        finally:
            svc.close()
        assert WarmStartStore(str(tmp_path)).entry_count() > 0

    def test_no_warm_dir_means_no_store(self):
        svc = QueryService(workers=1)
        try:
            assert svc.spill_warm() is None
            assert "warmstart" not in svc.stats()
        finally:
            svc.close()


class TestStoreFormat:
    def test_spill_and_load_round_trip(self, tmp_path):
        store = WarmStartStore(str(tmp_path))
        key = ("stage", "fingerprint", ("x",), None)
        value = {"table": [1, 2, 3], "vars": ("x",)}
        assert store.spill_entry(key, value)
        assert store.load(key) == value
        assert store.stats()["loads"] == 1
        assert store.stats()["entries"] == 1

    def test_missing_file_is_a_counted_miss(self, tmp_path):
        store = WarmStartStore(str(tmp_path))
        assert store.load(("never", "spilled")) is None
        assert store.stats()["load_misses"] == 1
        assert store.stats()["load_rejected"] == 0

    def test_existing_file_is_not_rewritten(self, tmp_path):
        store = WarmStartStore(str(tmp_path))
        key = ("k",)
        assert store.spill_entry(key, "first")
        before = os.stat(store.path_for(key)).st_mtime_ns
        assert store.spill_entry(key, "second")  # reused, not rewritten
        assert os.stat(store.path_for(key)).st_mtime_ns == before
        assert store.load(key) == "first"

    def test_unpicklable_value_is_skipped(self, tmp_path):
        store = WarmStartStore(str(tmp_path))
        assert not store.spill_entry(("closure",), lambda: None)
        assert store.stats()["spill_skipped"] == 1
        assert store.entry_count() == 0

    def _spill(self, tmp_path, key=("k",), value=("v", 1)):
        store = WarmStartStore(str(tmp_path))
        assert store.spill_entry(key, value)
        return store, store.path_for(key)

    def test_truncated_file_is_rejected(self, tmp_path):
        store, path = self._spill(tmp_path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) - 3])
        assert store.load(("k",)) is None
        assert store.stats()["load_rejected"] == 1

    def test_garbage_file_is_rejected(self, tmp_path):
        store, path = self._spill(tmp_path)
        open(path, "wb").write(b"not a warm file at all\n")
        assert store.load(("k",)) is None
        assert store.stats()["load_rejected"] == 1

    def test_checksum_mismatch_is_rejected(self, tmp_path):
        store, path = self._spill(tmp_path)
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF  # flip one payload byte; header checksum now lies
        open(path, "wb").write(bytes(raw))
        assert store.load(("k",)) is None
        assert store.stats()["load_rejected"] == 1

    def test_foreign_format_version_is_rejected(self, tmp_path):
        import hashlib
        import json

        store = WarmStartStore(str(tmp_path))
        key = ("k",)
        payload = pickle.dumps(("v", 1))
        header = json.dumps({
            "format": WARM_FORMAT_VERSION + 999,
            "key": key_digest(key),
            "len": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
        }).encode()
        with open(store.path_for(key), "wb") as f:
            f.write(b"repro-warm\n" + header + b"\n" + payload)
        assert store.load(key) is None
        assert store.stats()["load_rejected"] == 1

    def test_version_1_result_entry_is_a_counted_miss(self, tmp_path):
        # Format 1 spilled whole-result entries as (variables, automaton)
        # pairs.  Rewrite this process's row-form result entries the old
        # way: a restart must count each as a rejected load and answer
        # from a fresh run, never hand back the stale value.
        import hashlib
        import json

        from repro.eval.result import QueryResult

        first, _ = run_once(tmp_path, engine="direct")
        assert first.ok
        rewritten = 0
        for name in os.listdir(tmp_path):
            path = tmp_path / name
            raw = path.read_bytes()
            header, payload = raw[len(b"repro-warm\n"):].split(b"\n", 1)
            value = pickle.loads(payload)
            if not isinstance(value, QueryResult):
                continue
            payload = pickle.dumps((value.variables, value.relation))
            header = json.loads(header)
            header.update(
                format=1,
                len=len(payload),
                sha256=hashlib.sha256(payload).hexdigest(),
            )
            path.write_bytes(
                b"repro-warm\n" + json.dumps(header).encode() + b"\n" + payload
            )
            rewritten += 1
        assert rewritten >= 1
        METRICS.reset()

        second, _ = run_once(tmp_path, engine="direct")
        assert second.ok
        assert second.rows == first.rows
        assert METRICS.get("warmstart.load_rejected") == rewritten

    def test_wrong_key_digest_is_rejected(self, tmp_path):
        # A file renamed onto another key's path must not load: the
        # header pins the key the payload was spilled under.
        store = WarmStartStore(str(tmp_path))
        store.spill_entry(("a",), "value-for-a")
        os.replace(store.path_for(("a",)), store.path_for(("b",)))
        assert store.load(("b",)) is None
        assert store.stats()["load_rejected"] == 1

    def test_attach_makes_loads_lazy(self, tmp_path):
        store = WarmStartStore(str(tmp_path))
        store.spill_entry(("hot",), "hot-value")
        store.spill_entry(("cold",), "cold-value")
        cache = AutomatonCache(maxsize=8)
        store.attach(cache)
        assert cache.get(("hot",)) == "hot-value"
        assert store.stats()["loads"] == 1  # "cold" was never read
        assert cache.stats()["warm_hits"] == 1
        # Second access is an in-memory hit, not another disk read.
        assert cache.get(("hot",)) == "hot-value"
        assert store.stats()["loads"] == 1

    def test_config_rejects_bad_quota(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            ServiceConfig(quota_rate=0)
        with pytest.raises(ServiceError):
            ServiceConfig(quota_burst=0)
        with pytest.raises(ServiceError):
            ServiceConfig(stream_page_size=0)
