"""``tools/lint_confinement.py``: every rule catches a planted violation.

For each rule, a temporary tree holding every path the rules scan gets
one offending line in a file the rule covers; that rule (and its
message) must fail on it.  The real tree must pass every rule.
"""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "lint_confinement", ROOT / "tools" / "lint_confinement.py"
)
lint = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = lint  # dataclasses resolve their module by name
_spec.loader.exec_module(lint)

#: rule name -> (file the violation is planted in, offending line).
VIOLATIONS = {
    "dispatch": ("src/repro/eval/planted.py", 'if plan.engine == "automata": pass'),
    "kernel": ("src/repro/sql/like.py", "dfa = DFA(states, alphabet)"),
    "shard": ("src/repro/algebra/planted.py", "import subprocess"),
    "delta": ("benchmarks/planted.py", "rows = db._relations"),
    "codegen": ("src/repro/eval/planted.py", "value = eval(text)"),
    "service": ("src/repro/engine/planted.py", "asyncio.start_server(handle)"),
    "results": (
        "src/repro/engine/planted.py",
        "relation = RelationAutomaton.from_tuples(alphabet, 1, rows)",
    ),
}


def _clean_tree(tmp_path: pathlib.Path) -> pathlib.Path:
    """Every path some rule scans, present and free of violations."""
    for rule in lint.RULES:
        for top in rule.scan:
            path = tmp_path / top
            if path.suffix == ".py":
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text("")
            else:
                path.mkdir(parents=True, exist_ok=True)
    return tmp_path


def test_every_rule_has_a_planted_violation():
    assert set(VIOLATIONS) == {rule.name for rule in lint.RULES}


def test_real_tree_passes(capsys):
    assert lint.main() == 0
    assert "lint-confinement: ok" in capsys.readouterr().out


def test_clean_tree_passes(tmp_path):
    assert lint.main(_clean_tree(tmp_path)) == 0


@pytest.mark.parametrize("name", sorted(VIOLATIONS))
def test_rule_fails_on_planted_violation(name, tmp_path, capsys):
    root = _clean_tree(tmp_path)
    rel, line = VIOLATIONS[name]
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(line + "\n")

    rule = next(r for r in lint.RULES if r.name == name)
    assert lint.offenders(rule, root) == [f"{rel}:1: {line}"]
    assert lint.main(root) == 1
    err = capsys.readouterr().err
    assert f"rule {name!r} failed" in err
    assert [other for other in VIOLATIONS if f"rule {other!r}" in err] == [name]


@pytest.mark.parametrize(
    "name", ["shard", "service", "codegen", "dispatch", "delta", "results"]
)
def test_allowed_paths_are_exempt(name, tmp_path):
    root = _clean_tree(tmp_path)
    rule = next(r for r in lint.RULES if r.name == name)
    allowed = rule.allowed[0]
    rel = allowed if allowed.endswith(".py") else allowed + "planted.py"
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(VIOLATIONS[name][1] + "\n")
    assert lint.offenders(rule, root) == []


def test_missing_scanned_file_fails(tmp_path):
    root = _clean_tree(tmp_path)
    (root / "src/repro/sql/like.py").unlink()
    rule = next(r for r in lint.RULES if r.name == "kernel")
    assert lint.offenders(rule, root) == [
        "src/repro/sql/like.py: scanned by rule 'kernel' but missing"
    ]


def test_codegen_rule_ignores_comments_and_methods(tmp_path):
    root = _clean_tree(tmp_path)
    (root / "src/repro/eval/planted.py").write_text(
        "# exec(source) happens only in codegen\n"
        "pattern = re.compile(text)\n"
        "def compile(self): pass\n"
    )
    rule = next(r for r in lint.RULES if r.name == "codegen")
    assert lint.offenders(rule, root) == []
