"""Finite answers stay rows: ``QueryResult.from_rows``.

The enumeration backends (direct, algebra, codegen, sharded) hand back
their finite output as a validated set of tuples.  No convolution
automaton is built on the way to the caller, on a cache miss or a hit;
``.relation`` builds one on demand, and it must be the automaton the
exact engine computes.  Every accessor must answer as the automaton form
would.
"""

import pickle

import pytest

from repro.core import Query, StringDatabase
from repro.engine import global_cache
from repro.engine.metrics import METRICS
from repro.errors import AlphabetError, ArityError
from repro.eval.result import QueryResult
from repro.strings import BINARY

DB = StringDatabase(
    "01", {"R": {"0110", "001", "11", "0", "10", ""}, "S": {"0", "01"}}
)

QUERIES = [
    "R(x) & exists adom y: S(y) & y <<= x",
    "R(x) & S(y) & y <<= x",
    "R(x) & R(y) & last(x, '0') & y <<= x",
]

ROW_ENGINES = ("direct", "algebra", "codegen")


@pytest.fixture(autouse=True)
def _fresh_cache():
    global_cache().reset()
    yield
    global_cache().reset()


def _convolution_length(row):
    return max(map(len, row), default=0)


@pytest.mark.parametrize("engine", ROW_ENGINES)
@pytest.mark.parametrize("text", QUERIES)
def test_run_builds_no_automaton_on_miss_or_hit(engine, text):
    query = Query(text, structure="S")
    for expect_hit in (False, True):
        hits = global_cache().stats()["hits"]
        before = METRICS.get("automata.relations_built")
        table = query.run(DB, engine=engine)
        assert METRICS.get("automata.relations_built") == before, expect_hit
        assert (global_cache().stats()["hits"] > hits) is expect_hit
        assert len(table) > 0


@pytest.mark.parametrize("engine", ROW_ENGINES)
@pytest.mark.parametrize("text", QUERIES)
def test_lazy_relation_matches_the_automata_engine(engine, text):
    query = Query(text, structure="S")
    rows = query.result(DB, engine=engine)
    exact = query.result(DB, engine="automata")
    before = METRICS.get("automata.relations_built")
    relation = rows.relation
    assert METRICS.get("automata.relations_built") > before
    assert relation.equivalent(exact.relation)
    assert rows.relation is relation  # built once, then kept


@pytest.mark.parametrize("engine", ROW_ENGINES)
@pytest.mark.parametrize("text", QUERIES)
def test_accessors_match_the_automaton_form(engine, text):
    query = Query(text, structure="S")
    rows = query.result(DB, engine=engine)
    exact = query.result(DB, engine="automata")
    assert rows.variables == exact.variables
    assert rows.is_finite() and exact.is_finite()
    assert rows.count() == exact.count()
    assert rows.as_set() == exact.as_set()
    for tup in exact.as_set() | {("0",) * rows.arity, ("1",) * rows.arity}:
        assert rows.contains(tup) == exact.contains(tup)
    for bad in [(), ("0",) * (rows.arity + 1)]:
        with pytest.raises(ArityError):
            rows.contains(bad)
        with pytest.raises(ArityError):
            exact.contains(bad)
    with pytest.raises(ArityError):
        rows.as_bool()

    ordered = list(rows.tuples())
    assert ordered == sorted(
        exact.as_set(), key=lambda row: (_convolution_length(row), row)
    )
    for limit in range(rows.count() + 2):
        head = list(rows.tuples(limit=limit))
        exact_head = list(exact.tuples(limit=limit))
        assert head == ordered[:limit]
        # Shortest convolution first on both forms; the forms may only
        # break ties between equally long convolutions differently.
        assert [_convolution_length(r) for r in head] == [
            _convolution_length(r) for r in exact_head
        ]


@pytest.mark.parametrize("engine", ROW_ENGINES)
@pytest.mark.parametrize(
    "text, truth",
    [
        ("exists adom x: R(x) & last(x, '0')", True),
        ("exists adom x: R(x) & x = '111'", False),
    ],
)
def test_boolean_rows(engine, text, truth):
    query = Query(text, structure="S")
    result = query.result(DB, engine=engine)
    exact = query.result(DB, engine="automata")
    assert result.as_bool() is exact.as_bool() is truth
    assert result.count() == exact.count() == int(truth)
    assert list(result.tuples()) == list(exact.tuples())
    assert result.contains(()) is truth
    assert result.relation.equivalent(exact.relation)


def test_validation_runs_when_the_result_is_built():
    with pytest.raises(AlphabetError):
        QueryResult.from_rows(("x",), BINARY, {("012",)})
    with pytest.raises(AlphabetError):
        QueryResult.from_rows(("x", "y"), BINARY, {("0", "a")})
    with pytest.raises(ArityError):
        QueryResult.from_rows(("x",), BINARY, {("0", "1")})
    ok = QueryResult.from_rows(("x",), BINARY, [("1",), ("0",), ("1",)])
    assert ok.count() == 2


def test_rows_pickle_without_their_automaton():
    result = QueryResult.from_rows(("x",), BINARY, {("01",), ("1",)})
    built = result.relation
    assert pickle.loads(pickle.dumps(result))._relation is None
    assert len(pickle.dumps(result)) < len(pickle.dumps(built))
    restored = pickle.loads(pickle.dumps(result))
    assert restored.as_set() == result.as_set()
    assert restored.relation.equivalent(built)
