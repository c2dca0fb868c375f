#!/usr/bin/env python3
"""Fail the build if a confined mechanism leaks out of the code that owns it.

Several guarantees of strqlib hold only while one mechanism stays inside
the one layer built to handle it.  Breaking any of them leaves every
functional test green — the code still answers correctly, it just loses
a speed, safety, or operational property — which is exactly the
regression a test suite cannot see.  Each rule below forbids a line
pattern outside the paths allowed to use it:

* ``dispatch`` — engine-name literal comparisons (``== "automata"``,
  ``!= 'direct'``, ...) outside ``src/repro/engine/``: the backend
  registry (``resolve_engine`` / ``get_backend``) is the only dispatch
  path for engine names.
* ``kernel`` — direct dict-backed ``DFA(...)`` construction in the
  kernel-converted hot modules: they combine automata through
  ``repro.automata.kernel`` (``DenseDFA`` is fine; that *is* the kernel).
  Modules whose job is to build base automata symbol by symbol
  (``mso/to_dfa.py``, ``automatic/convolution.py``,
  ``automatic/relation.py``) are deliberately not listed.
* ``shard`` — blocking transport primitives (``socket``,
  ``subprocess``, ``multiprocessing``, pipes) outside ``shard/`` and
  ``service/``, where deadlines, structured retryable errors and
  dead-worker detection live.
* ``delta`` — access to the private ``Database._relations`` /
  ``._adom`` mappings outside the database module and ``repro.delta``:
  contents change only through the MVCC delta store, because every
  cache key assumes a fingerprint names frozen content
  (docs/mutability.md).
* ``codegen`` — the ``exec`` / ``eval`` / ``compile`` builtins outside
  ``algebra/codegen.py``, the one audited code generator
  (docs/codegen_engine.md).  Comments may mention them; method calls
  and definitions named ``compile`` are fine.
* ``service`` — asyncio transport primitives (stream factories, raw
  ``StreamReader`` / ``StreamWriter`` construction, event-loop
  ownership) outside ``service/`` and ``shard/``, where byte limits,
  quotas and disconnect cancellation live (docs/service.md).
* ``results`` — ``RelationAutomaton.from_tuples(...)`` outside the
  automaton layer (``automatic/``), ``eval/result.py`` (which builds a
  row result's automaton on demand), the automata engine and the
  database module: finite backend answers stay rows
  (``QueryResult.from_rows``), and must not round-trip through a
  convolution automaton just to be read back as tuples.

Run via ``make lint-confinement`` (wired into ``make test``) or
``python tools/lint_confinement.py``; every rule is checked.  Exits
non-zero and names the failing rule and each offending line.
"""

from __future__ import annotations

import pathlib
import re
import sys
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Rule:
    """Forbid ``pattern`` in the files under ``scan`` except ``allowed``."""

    name: str
    pattern: re.Pattern
    #: Files or directories (relative to the root) searched for offenders.
    #: A listed path that does not exist is itself an offence.
    scan: tuple[str, ...]
    #: Path prefixes (relative to the root) exempt from the rule.
    allowed: tuple[str, ...]
    #: What to do instead; printed with the offenders.
    advice: str
    #: Match only the code before a ``#`` comment.
    code_only: bool = False


RULES = (
    Rule(
        name="dispatch",
        pattern=re.compile(r"""[=!]=\s*(?P<q>['"])(automata|direct|algebra)(?P=q)"""),
        scan=("src/repro",),
        allowed=("src/repro/engine/",),
        advice="engine-name literal dispatch outside src/repro/engine/ — "
        "resolve through the backend registry (repro.engine.backend)",
    ),
    Rule(
        name="kernel",
        # `DFA(` with no identifier character before it: flags `DFA(...)`
        # and `dfa_mod.DFA(...)` but not `DenseDFA(...)`.
        pattern=re.compile(r"(?<![A-Za-z0-9_])DFA\s*\("),
        scan=(
            "src/repro/automata/ops.py",
            "src/repro/automata/regex.py",
            "src/repro/eval/automata_engine.py",
            "src/repro/sql/like.py",
            "src/repro/sql/similar.py",
        ),
        allowed=(),
        advice="direct DFA(...) construction in a kernel-converted module — "
        "combine automata through repro.automata.kernel",
    ),
    Rule(
        name="shard",
        pattern=re.compile(
            r"(?:^\s*(?:import|from)\s+(?:socket|socketserver|subprocess|"
            r"multiprocessing)\b)"
            r"|(?<![A-Za-z0-9_.])os\.pipe\s*\("
            r"|(?<![A-Za-z0-9_.])Pipe\s*\("
        ),
        scan=("src/repro",),
        allowed=("src/repro/shard/", "src/repro/service/"),
        advice="transport primitives (sockets/pipes/subprocesses) outside "
        "src/repro/shard/ and src/repro/service/ — route process and wire "
        "plumbing through those layers",
    ),
    Rule(
        name="delta",
        # Flags `db._relations` / `db._adom`, not `self._adom_sorted`.
        pattern=re.compile(r"\.\s*(_relations|_adom)\b(?!\w)"),
        scan=("src", "benchmarks", "tools"),
        allowed=(
            "src/repro/database/instance.py",
            "src/repro/delta/",
            "tools/lint_confinement.py",
        ),
        advice="direct access to Database._relations/._adom outside the "
        "delta store — mutate through repro.delta.VersionedDatabase",
    ),
    Rule(
        name="codegen",
        # A bare builtin call: no identifier or dot before the name (so
        # `re.compile(...)` passes) and not a definition (`def compile(`).
        pattern=re.compile(r"(?<!def )(?<![A-Za-z0-9_.])(exec|eval|compile)\s*\("),
        scan=("src/repro",),
        allowed=("src/repro/algebra/codegen.py",),
        advice="exec/eval/compile outside src/repro/algebra/codegen.py — "
        "dynamic code generation stays in the one audited module",
        code_only=True,
    ),
    Rule(
        name="service",
        pattern=re.compile(
            r"(?:asyncio\.|loop\.)"
            r"(?:start_server|open_connection|start_unix_server|"
            r"open_unix_connection|create_server|create_connection|"
            r"new_event_loop|run_until_complete)\s*\("
            r"|(?<![A-Za-z0-9_.])Stream(?:Reader|Writer)\s*\("
        ),
        scan=("src/repro",),
        allowed=("src/repro/service/", "src/repro/shard/"),
        advice="asyncio transport primitives (servers/streams/event loops) "
        "outside src/repro/service/ and src/repro/shard/ — route wire "
        "plumbing through the service front end",
    ),
    Rule(
        name="results",
        pattern=re.compile(r"(?<![A-Za-z0-9_])from_tuples\s*\("),
        scan=("src/repro",),
        allowed=(
            "src/repro/automatic/",
            "src/repro/eval/result.py",
            "src/repro/eval/automata_engine.py",
            "src/repro/database/instance.py",
        ),
        advice="RelationAutomaton.from_tuples outside the automaton layer — "
        "return finite answers as rows with QueryResult.from_rows",
        code_only=True,
    ),
)


def offenders(rule: Rule, root: pathlib.Path = ROOT) -> list[str]:
    """``path:line: text`` for every violation of ``rule`` under ``root``."""
    found: list[str] = []
    for top in rule.scan:
        base = root / top
        if not base.exists():
            found.append(f"{top}: scanned by rule {rule.name!r} but missing")
            continue
        paths = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        for path in paths:
            rel = path.relative_to(root).as_posix()
            if rel.startswith(rule.allowed):
                continue
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                code = line.split("#", 1)[0] if rule.code_only else line
                if rule.pattern.search(code):
                    found.append(f"{rel}:{lineno}: {line.strip()}")
    return found


def main(root: pathlib.Path = ROOT) -> int:
    failed = False
    for rule in RULES:
        bad = offenders(rule, root)
        if bad:
            failed = True
            print(f"lint-confinement: rule {rule.name!r} failed: {rule.advice}:",
                  file=sys.stderr)
            for line in bad:
                print(f"  {line}", file=sys.stderr)
    if failed:
        return 1
    print(f"lint-confinement: ok ({', '.join(r.name for r in RULES)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
