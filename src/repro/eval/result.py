"""Query results: possibly-infinite relations with named columns."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

from repro.automatic.relation import RelationAutomaton
from repro.errors import ArityError, UnsafeQueryError
from repro.strings.alphabet import Alphabet


class QueryResult:
    """The output of a query: a relation over the free variables.

    A result takes one of two forms behind one interface:

    * **automaton** — the automata engine's output, a
      :class:`RelationAutomaton` that is a regular set even when
      infinite; the paper's *state-safety* question "is ``phi(D)``
      finite?" is :meth:`is_finite`;
    * **rows** (:meth:`from_rows`) — the finite output of the enumeration
      backends (direct, algebra, codegen, sharded), a validated
      ``frozenset`` of tuples.  Counting, membership and iteration answer
      from the rows; the convolution automaton behind :attr:`relation` is
      built only when a caller asks for it.
    """

    __slots__ = ("variables", "alphabet", "_rows", "_relation")

    def __init__(self, variables: Sequence[str], relation: RelationAutomaton):
        self.variables = tuple(variables)
        self.alphabet = relation.alphabet
        self._rows: Optional[frozenset[tuple[str, ...]]] = None
        self._relation: Optional[RelationAutomaton] = relation

    @classmethod
    def from_rows(
        cls,
        variables: Sequence[str],
        alphabet: Alphabet,
        rows: Iterable[tuple[str, ...]],
    ) -> "QueryResult":
        """A finite result held as rows.

        Rows are validated here, once: each must have one value per
        variable, and every value must be a string over ``alphabet``.
        """
        result = cls.__new__(cls)
        result.variables = tuple(variables)
        result.alphabet = alphabet
        result._rows = frozenset(rows)
        result._relation = None
        arity = len(result.variables)
        for row in result._rows:
            if len(row) != arity:
                raise ArityError(
                    f"tuple {row!r} has arity {len(row)}, expected {arity}"
                )
        for value in set().union(*result._rows):
            alphabet.check_string(value)
        return result

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def relation(self) -> RelationAutomaton:
        """The output as a convolution automaton (built on first use for
        row results, then kept)."""
        relation = self._relation
        if relation is None:
            relation = RelationAutomaton.from_tuples(
                self.alphabet, self.arity, sorted(self._rows)
            )
            self._relation = relation
        return relation

    def is_finite(self) -> bool:
        """True iff the query is safe on this database (finite output)."""
        return self._rows is not None or self._relation.is_finite()

    def count(self) -> int:
        """Number of output tuples; raises ``UnsafeQueryError`` if infinite."""
        if self._rows is not None:
            return len(self._rows)
        if not self.is_finite():
            raise UnsafeQueryError("query output is infinite")
        return self._relation.count()

    def tuples(self, limit: Optional[int] = None) -> Iterator[tuple[str, ...]]:
        """Iterate output tuples (must pass ``limit`` if infinite).

        Shortest convolution first: a tuple's convolution is as long as
        its longest value, and row results break ties in sorted order.
        """
        if self._rows is not None:
            ordered = sorted(
                self._rows, key=lambda row: (max(map(len, row), default=0), row)
            )
            return iter(ordered if limit is None else ordered[: max(limit, 0)])
        if limit is None and not self.is_finite():
            raise UnsafeQueryError(
                "query output is infinite; pass limit= to sample it"
            )
        return self._relation.tuples(limit=limit)

    def as_set(self) -> frozenset[tuple[str, ...]]:
        """All output tuples; raises ``UnsafeQueryError`` if infinite."""
        if self._rows is not None:
            return self._rows
        if not self.is_finite():
            raise UnsafeQueryError("query output is infinite")
        return self._relation.set_of_tuples()

    def contains(self, tup: Sequence[str]) -> bool:
        if self._rows is None:
            return self._relation.contains(tup)
        if len(tup) != self.arity:
            raise ArityError(
                f"tuple {tup!r} has arity {len(tup)}, expected {self.arity}"
            )
        return tuple(tup) in self._rows

    def as_bool(self) -> bool:
        """Truth value (for Boolean queries / sentences)."""
        if self._rows is None:
            return self._relation.as_bool()
        if self.arity != 0:
            raise ArityError("as_bool() requires arity 0")
        return bool(self._rows)

    def __getstate__(self):
        # Row results pickle as rows: an automaton built on demand is
        # derived data and is rebuilt on demand after loading.
        relation = self._relation if self._rows is None else None
        return (self.variables, self.alphabet, self._rows, relation)

    def __setstate__(self, state) -> None:
        self.variables, self.alphabet, self._rows, self._relation = state

    def __repr__(self) -> str:
        shape = "finite" if self.is_finite() else "infinite"
        return f"QueryResult(vars={self.variables}, {shape})"
