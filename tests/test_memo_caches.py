"""Every memo table is a bounded, locked ``AutomatonCache``.

Three properties of the shared memo primitive (``repro.engine.cache``):

* **thread safety** — eight threads pushing more distinct formulas than
  each table holds through the RANF verdict, RANF translation and
  compiled-plan tables raise nothing, and no table outgrows its bound
  (unlocked FIFO eviction used to raise ``KeyError`` here);
* **bounded growth** — the condition-checker table and the service's
  prepared-handle tables stay within their bounds under twice as many
  distinct inputs, and an evicted entry keeps working for its holder;
* **one registry** — ``QueryService.stats()["caches"]`` reports every
  registered table with its size and counters.
"""

import sys
import threading

import pytest

import repro.algebra.exec as exec_mod
import repro.algebra.plan as plan_mod
import repro.algebra.ranf as ranf_mod
from repro.algebra.exec import compile_for_execution
from repro.algebra.plan import _get_checker
from repro.algebra.ranf import translate_ranf, translation_verdict
from repro.core import StringDatabase
from repro.database.schema import Schema
from repro.engine.cache import cache_stats
from repro.logic import parse_formula
from repro.service import QueryService, RunRequest
from repro.strings import BINARY
from repro.structures.catalog import by_name

S = by_name("S", BINARY)
SCHEMA = Schema({"R": 1})
THREADS = 8


def _formulas(start: int, count: int):
    """``count`` formulas with distinct canonical fingerprints."""
    return [parse_formula(f"R(x) & x = '{i:b}'") for i in range(start, start + count)]


@pytest.fixture
def tiny_switch_interval():
    """Switch threads as often as the interpreter allows, so unlocked
    read-modify-write sequences interleave."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _hammer(table, work, per_thread: int) -> None:
    errors: list[BaseException] = []
    barrier = threading.Barrier(THREADS)

    def worker(k: int) -> None:
        formulas = _formulas(1 + k * per_thread, per_thread)
        barrier.wait()
        try:
            for f in formulas:
                work(f)
                assert len(table) <= table.maxsize
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert errors == []
    assert len(table) <= table.maxsize


@pytest.mark.usefixtures("tiny_switch_interval")
class TestRace:
    def test_translation_verdicts(self):
        table = ranf_mod._VERDICTS
        _hammer(table, lambda f: translation_verdict(f, S), table.maxsize + 16)

    def test_ranf_translations(self):
        table = ranf_mod._TRANSLATIONS
        _hammer(
            table, lambda f: translate_ranf(f, S, SCHEMA, slack=1), table.maxsize + 8
        )

    def test_compiled_plans(self):
        table = exec_mod._PLAN_CACHE
        _hammer(
            table,
            lambda f: compile_for_execution(f, S, SCHEMA, slack=1),
            table.maxsize + 8,
        )


class TestBoundedGrowth:
    def test_checker_table(self):
        table = plan_mod._CHECKER_CACHE
        first_condition = parse_formula("c0 = '0'")
        first = _get_checker(first_condition, S)
        for i in range(1, 2 * table.maxsize):
            _get_checker(parse_formula(f"c0 = '{i:b}'"), S)
            assert len(table) <= table.maxsize
        # Evicted: a fresh lookup builds a new checker ...
        assert _get_checker(first_condition, S) is not first
        # ... while the evicted one still answers for its holder.
        assert first.check(("0",))
        assert not first.check(("1",))

    def test_prepared_handles(self):
        with QueryService(workers=1) as service:
            service.register_database(
                "main", StringDatabase("01", {"R": {"0", "01", "11"}})
            )
            bound = service._prepared.maxsize
            first = service.prepare("R(x) & x = '0'")
            for i in range(1, 2 * bound):
                service.prepare(f"R(x) & x = '{i:b}'")
                assert len(service._prepared) <= bound
                assert len(service._prepared_text) <= bound
            assert service.prepare("R(x) & x = '0'") is not first
            resp = service.execute(RunRequest(query=first, database="main"))
            assert resp.ok, resp.error
            assert resp.rows == [["0"]]


class TestRegistry:
    def test_stats_lists_every_cache(self):
        with QueryService(workers=1) as service:
            stats = service.stats()
        caches = stats["caches"]
        assert set(caches) == set(cache_stats()) | {
            "service.prepared_cache",
            "service.prepared_text_cache",
        }
        assert {
            "cache",
            "codegen.cache",
            "algebra.plan_cache",
            "algebra.checker_cache",
            "algebra.ranf.verdict_cache",
            "algebra.ranf.translation_cache",
            "delta.transition_cache",
            "delta.tracked_cache",
            "delta.row_cache",
            "delta.names_cache",
        } <= set(caches)
        for name, entry in caches.items():
            for field in ("size", "maxsize", "hits", "misses", "evictions"):
                assert field in entry, (name, field)
            assert entry["size"] <= entry["maxsize"], name
        # The legacy keys keep their shape and read the same tables.
        assert stats["cache"] == caches["cache"]
        assert stats["codegen_cache"] == caches["codegen.cache"]
