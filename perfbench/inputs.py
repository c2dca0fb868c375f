"""Seeded inputs for every workload: databases, query texts and delta rows.

Everything here is a pure function of the seed it is given, so one
``--seed`` reproduces the same databases, query stream and deltas.  The
library is only called to translate SQL LIKE / SIMILAR TO patterns into
the regex text of ``matches()`` atoms.
"""

from __future__ import annotations

import random

from repro.sql import like_to_regex_text, similar_to_regex_text

ALPHABET = "01"

Relations = dict[str, set[tuple[str, ...]]]


def random_string(rng: random.Random, min_len: int, max_len: int) -> str:
    return "".join(
        rng.choice(ALPHABET) for _ in range(rng.randint(min_len, max_len))
    )


def random_relation(
    rng: random.Random, size: int, arity: int, min_len: int, max_len: int
) -> set[tuple[str, ...]]:
    rows: set[tuple[str, ...]] = set()
    while len(rows) < size:
        rows.add(tuple(random_string(rng, min_len, max_len) for _ in range(arity)))
    return rows


# ------------------------------------------------------------ adhoc_queries


#: Relation sizes for ``adhoc_queries``.  Strings are 1 to 6 symbols long,
#: so the prefix closure of the active domain stays near 126 strings: a
#: cold prefix join then costs tens of milliseconds, and a 25-second run
#: makes the thousand-plus queries a p99 needs.
ADHOC_SIZES = {"R": 40, "S": 24, "T": 200}

ARITIES = {"R": 1, "S": 1, "T": 2}


def adhoc_relations(seed: int, sizes: dict[str, int] = ADHOC_SIZES) -> Relations:
    rng = random.Random(f"adhoc-db-{seed}")
    return {
        name: random_relation(rng, size, ARITIES[name], 1, 6)
        for name, size in sizes.items()
    }


def _const(rng: random.Random) -> str:
    return "'" + random_string(rng, 1, 4) + "'"


def _salt(rng: random.Random, var: str) -> str:
    """A conjunct that rarely filters a row but makes the text distinct.

    It keeps each family's text space in the hundreds of thousands, so a
    run on a much faster program still finds fresh queries.
    """
    return f" & !('{random_string(rng, 5, 6)}' <<= {var})"


def _sym(rng: random.Random) -> str:
    return rng.choice(ALPHABET)


def _unary(rng: random.Random) -> str:
    return rng.choice("RS")


def _prefix_quantified_join(rng: random.Random) -> tuple[str, str]:
    return (
        f"{_unary(rng)}(x) & (exists prefix y: T(y, x) & {_const(rng)} <<= y)"
        f" & last(x, '{_sym(rng)}'){_salt(rng, 'x')}",
        "S",
    )


def _prefix_join(rng: random.Random) -> tuple[str, str]:
    a, b = rng.sample("RS", 2)
    return (
        f"{a}(x) & {b}(y) & x <<= y & {_const(rng)} <<= x"
        f" & last(y, '{_sym(rng)}'){_salt(rng, 'y')}",
        "S",
    )


def _negation_join(rng: random.Random) -> tuple[str, str]:
    a, b = rng.sample("RS", 2)
    return (
        f"{a}(x) & !{b}(x) & {_const(rng)} <<= x & last(x, '{_sym(rng)}')"
        f"{_salt(rng, 'x')}",
        "S",
    )


def _binary_negation_join(rng: random.Random) -> tuple[str, str]:
    return (
        f"T(x, z) & !{_unary(rng)}(z) & {_const(rng)} <<= x"
        f" & last(z, '{_sym(rng)}'){_salt(rng, 'x')}",
        "S",
    )


_SIMILAR_TOKENS = ["0", "1", "%", "_", "(00|11)", "(01)*", "1*"]
_LIKE_TOKENS = ["0", "1", "%", "_", "!%", "!_"]


def _sql_pattern(rng: random.Random) -> tuple[str, str]:
    """A LIKE (with ESCAPE) or SIMILAR TO pattern as a ``matches()`` atom."""
    n = rng.randint(2, 5)
    if rng.random() < 0.5:
        regex = similar_to_regex_text(
            "".join(rng.choice(_SIMILAR_TOKENS) for _ in range(n))
        )
    else:
        # ``!`` escapes a wildcard into a literal, which the binary
        # alphabet cannot spell, so escape only literal symbols.
        tokens = [rng.choice(_LIKE_TOKENS) for _ in range(n)]
        pattern = "".join(
            "!" + rng.choice(ALPHABET) if t.startswith("!") else t
            for t in tokens
        )
        regex = like_to_regex_text(pattern, "!")
    if rng.random() < 0.7:
        return f"{_unary(rng)}(x) & matches(x, '{regex}')", "S_reg"
    return f"T(x, z) & matches(z, '{regex}')", "S_reg"


def _natural_sentence(rng: random.Random) -> tuple[str, str]:
    return (
        f"exists x: {_unary(rng)}(x) & {_const(rng)} <<= x"
        f" & last(x, '{_sym(rng)}'){_salt(rng, 'x')}",
        "S",
    )


def _exists_prefix(rng: random.Random) -> tuple[str, str]:
    a, b = rng.sample("RS", 2)
    return (
        f"{a}(x) & (exists prefix y: y <<= x & {b}(y) & {_const(rng)} <<= y"
        f" & last(y, '{_sym(rng)}')){_salt(rng, 'x')}",
        "S",
    )


#: The ad-hoc shape families.  The SQL pattern family follows the LIKE /
#: SIMILAR TO translation of Petersen (arXiv 1903.06195); the prefix
#: shapes are the ones the RANF translation of Raszyk et al. (arXiv
#: 2210.09964) moves onto the algebra and codegen engines.  The two
#: negation joins are separate families (the unary one runs on the direct
#: engine, the binary one on algebra), which also makes the count odd, so
#: the median read falls inside one family's latencies rather than on the
#: edge between two.
FAMILIES = {
    "prefix_quantified_join": _prefix_quantified_join,
    "prefix_join": _prefix_join,
    "negation_join": _negation_join,
    "binary_negation_join": _binary_negation_join,
    "sql_pattern": _sql_pattern,
    "natural_sentence": _natural_sentence,
    "exists_prefix": _exists_prefix,
}


class AdhocStream:
    """An endless seeded stream of distinct ``(family, text, structure)``.

    Families take turns, so every run holds the same mix of shapes.
    """

    TRIES = 1000

    def __init__(self, seed: int):
        self._rng = random.Random(f"adhoc-queries-{seed}")
        self._seen: set[tuple[str, str]] = set()
        self._names = sorted(FAMILIES)
        self._turn = 0

    def __iter__(self):
        return self

    def __next__(self) -> tuple[str, str, str]:
        family = self._names[self._turn % len(self._names)]
        self._turn += 1
        for _ in range(self.TRIES):
            text, structure = FAMILIES[family](self._rng)
            if (text, structure) not in self._seen:
                self._seen.add((text, structure))
                return family, text, structure
        raise RuntimeError(f"no fresh {family} query in {self.TRIES} tries")


# ---------------------------------------------------------------- delta_mix

#: The queries re-run on every head.  Deltas touch R and S only, so the
#: T-only query is promoted across versions, the prefix-quantified one is
#: maintained through its algebra subplans, and the rest are re-run (the
#: prefix join goes to the codegen engine, which re-runs it on each head).
DELTA_QUERIES = [
    ("R(x) & S(y) & x <<= y", "S"),
    ("R(x) & (exists prefix y: T(y, x))", "S"),
    ("R(x) & !S(x) & last(x, '1')", "S"),
    ("T(x, z) & S(z) & last(x, '0')", "S"),
    ("S(x) & matches(x, '0(0|1)*1')", "S_reg"),
    ("exists x: R(x) & last(x, '1') & '0110' <<= x", "S"),
    ("T(x, y) & y <<= x", "S"),
]

#: Relation sizes for ``delta_mix``, with strings of 1 to 6 symbols like
#: the ad-hoc database: the prefix join re-run on every head then costs
#: milliseconds, and a 25-second run applies about a thousand deltas.
DELTA_SIZES = {"R": 100, "S": 40, "T": 200}


def delta_relations(seed: int, sizes: dict[str, int] = DELTA_SIZES) -> Relations:
    rng = random.Random(f"delta-db-{seed}")
    return {
        name: random_relation(rng, size, ARITIES[name], 1, 6)
        for name, size in sizes.items()
    }


class DeltaStream:
    """Seeded insert/delete deltas on R or S, each at most 1% of all tuples.

    The stream keeps its own copy of R and S.  A relation at or below its
    starting size gets fresh rows inserted, one above it loses existing
    rows, so sizes stay level over a long run.
    """

    def __init__(self, seed: int, relations: Relations):
        self._rng = random.Random(f"delta-stream-{seed}")
        self._rows = {name: set(relations[name]) for name in "RS"}
        self._start = {name: len(rows) for name, rows in self._rows.items()}
        self.size = max(1, sum(len(r) for r in relations.values()) // 100)

    def __iter__(self):
        return self

    def __next__(self) -> tuple[str, str, set[tuple[str, ...]]]:
        """``(relation, "inserts" or "deletes", rows)``."""
        name = self._rng.choice("RS")
        current = self._rows[name]
        if len(current) <= self._start[name]:
            rows: set[tuple[str, ...]] = set()
            while len(rows) < self.size:
                row = (random_string(self._rng, 1, 6),)
                if row not in current:
                    rows.add(row)
            current |= rows
            return name, "inserts", rows
        rows = set(self._rng.sample(sorted(current), self.size))
        current -= rows
        return name, "deletes", rows


# ------------------------------------------------------------- served_small

#: The service mix: core shapes under S, then SQL patterns under S_reg
#: (SIMILAR TO reaches every regular language, LIKE with ESCAPE stays
#: star-free).
SERVED_QUERIES = [
    ("R(x) & last(x, '0')", "S"),
    ("R(x) & last(x, '1')", "S"),
    ("R(x) & !S(x)", "S"),
    ("S(y) | R(y)", "S"),
    ("R(x) & exists adom y: S(y) & y <<= x", "S"),
    ("S(y) & exists adom x: R(x) & y <<= x", "S"),
    ("exists x: R(x) & last(x, '0')", "S"),
    ("R(x) & S(y) & y <<= x", "S"),
    (f"R(x) & matches(x, '{similar_to_regex_text('(00)*')}')", "S_reg"),
    (f"R(x) & matches(x, '{similar_to_regex_text('0%(11)*')}')", "S_reg"),
    (f"R(x) & matches(x, '{like_to_regex_text('0%!1', '!')}')", "S_reg"),
    (f"S(y) & matches(y, '{like_to_regex_text('0%', None)}')", "S_reg"),
]

#: Share of served runs that stream their answer in small pages.
STREAM_SHARE = 0.25
STREAM_PAGE = 3


def served_relations(seed: int) -> Relations:
    """The service's small database: ten R strings and four S strings."""
    rng = random.Random(f"served-db-{seed}")
    return {
        "R": random_relation(rng, 10, 1, 2, 5),
        "S": random_relation(rng, 4, 1, 1, 2),
    }


def served_ops(seed: int, connection: int):
    """Endless ``(query index, streamed)`` pairs for one connection."""
    rng = random.Random(f"served-ops-{seed}-{connection}")
    while True:
        yield rng.randrange(len(SERVED_QUERIES)), rng.random() < STREAM_SHARE
