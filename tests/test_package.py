"""The names `igc` exports, eager and deferred alike, and no function nothing names."""

import ast
import importlib
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import igc

# the exports of the package before `weil` and `oracle` loaded on first use
EXPORTS = [
    "ArityMismatchError", "ChartMismatchError", "ChartSpec", "CheckReport", "CupFactorization",
    "CupUndefinedError", "DegreeOverflowError", "DomainError", "FacePreconditionError", "FreeLRElem",
    "KField", "LyndonWord", "NotClosedError", "NotFlagReducibleError", "NotMultiplicativeError",
    "ParseError", "Poly", "Polyvector", "RelativeSpec", "Session", "VField", "WeilElem", "WeilMorphism",
    "act", "act_transposition", "add_over_face", "anchor_apply", "chart_algebra", "compose", "cup",
    "degree", "errors", "face", "free_bracket", "free_lr", "groupoid", "homotopy", "is_trivial_homotopy",
    "kfield_to_weil", "lie_bracket_ext", "lie_derivative_thin", "lyndon", "lyndon_basis", "oracle",
    "oracle_bracket", "oracle_lyndon_count", "oracle_multiplicativity", "oracle_quotient_lowdegree",
    "parse_expression", "parsing", "polyvector", "project_to_lie", "reduce_to_polyvector", "schouten",
    "strong_diff", "trivial_by_disjoint_pairs", "vertical_reduce", "vf_apply", "vf_bracket",
    "vf_pushforward", "wedge", "weil", "weil_cup", "weil_to_kfield",
]


def test_all_names_the_same_exports_and_each_resolves():
    assert sorted(igc.__all__) == EXPORTS and len(EXPORTS) == 64
    for name in EXPORTS:
        assert getattr(igc, name) is not None


def test_star_import_binds_every_export():
    namespace = {}
    exec("from igc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_deferred_names_are_the_submodules_own():
    from igc import CheckReport, WeilElem, weil

    assert igc.WeilElem is igc.weil.WeilElem is WeilElem is weil.WeilElem
    assert igc.oracle_bracket is igc.oracle.oracle_bracket
    assert CheckReport is igc.oracle.CheckReport
    # a resolved name is cached in the package namespace
    value = igc.weil_cup
    assert vars(igc)["weil_cup"] is value is igc.weil.weil_cup


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        igc.no_such_name


ROOT = Path(__file__).resolve().parent.parent


def test_every_function_is_named_besides_its_definition():
    # a def whose name occurs nowhere else in src, tests or perfbench is dead code
    sources = [p.read_text() for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    words = Counter(w for text in sources for w in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    defs = Counter(
        node.name
        for path in sorted((ROOT / "src" / "igc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    assert [name for name, n in sorted(defs.items()) if words[name] <= n] == []


def test_no_count_or_index_is_tested_with_isinstance_int():
    # isinstance(x, int) lets a bool through; counts go through `_int` and indices through `_index`
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "igc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
        and len(node.args) == 2 and isinstance(node.args[1], ast.Name) and node.args[1].id == "int"
    ]
    assert found == []


def src_modules():
    return [(path.stem, ast.parse(path.read_text())) for path in sorted((ROOT / "src" / "igc").glob("*.py"))]


def max_names(body):
    return [
        target.id
        for node in body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and re.fullmatch(r"MAX_[A-Z_]+", target.id)
    ]


def test_every_budget_is_in_the_readme_table():
    # each MAX_ constant is a budget, kept on a class so its messages name it
    # Owner.NAME; its table row names it and its limit
    budgets = {}
    for module, tree in src_modules():
        assert max_names(tree.body) == [], module
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for name in max_names(cls.body):
                    owner = getattr(importlib.import_module(f"igc.{module}"), cls.name)
                    budgets[f"{cls.name}.{name}"] = getattr(owner, name)
    rows = {
        m.group(1): m.groups()[1:]
        for m in re.finditer(
            r"^\| `(\w+\.MAX_[A-Z_]+)` \| ([^|]+) \|[^|]+\| (.+) \| (\S+) \|$", (ROOT / "README.md").read_text(), re.M
        )
    }
    assert sorted(rows) == sorted(budgets)
    for name, limit in budgets.items():
        assert rows[name][0].startswith(f"{limit:,}"), name
    # each row's CLI line ends at once with the row's exit code and a one-line
    # message naming the budget; a library-only budget has no line to run
    assert rows.pop("WeilElem.MAX_PARTS")[1:] == ("library only: no command reaches the dictionary", "-")
    for name, (_, line, code) in rows.items():
        argv = shlex.split(line.strip("`"))
        assert argv[0] == "igc", name
        # the nesting line builds its parentheses with bash brace expansion
        argv = [re.sub(r"\$\(printf '(.)%\.0s' \{1\.\.(\d+)\}\)", lambda m: m[1] * int(m[2]), a) for a in argv]
        start = time.perf_counter()
        r = subprocess.run([sys.executable, "-m", "igc", *argv[1:]], capture_output=True, text=True, timeout=30)
        wall = time.perf_counter() - start
        assert (r.returncode, r.stdout) == (int(code), ""), name
        assert r.stderr.count("\n") == 1 and name in r.stderr, (name, r.stderr)
        assert wall < 5, (name, wall)


# the only messages that say "budget" without `_budget`: the exponent and
# digit budgets are tested where a value is read, the nesting and literal
# budgets are parse errors with a position
BUDGET_MESSAGES_OUTSIDE_THE_RULE = [
    ("chart_algebra.py", "coefficient has more digits than the budget of Poly.MAX_DIGITS = "),
    ("chart_algebra.py", "monomial exponent exceeds the budget of Poly.MAX_EXPONENT = "),
    ("chart_algebra.py", "polynomial power exceeds the coefficient budget of Poly.MAX_DIGITS = "),
    ("parsing.py", " digits exceeds the budget of Poly.MAX_DIGITS = "),
    ("parsing.py", "expression nests deeper than the parser budget of _Parser.MAX_NESTING = "),
]


def test_only_the_budget_rule_words_a_budget_message():
    found = []
    for module, tree in src_modules():
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None:
                skipped.add(id(node.body[0].value))
            if isinstance(node, ast.FunctionDef) and node.name == "_budget":
                skipped.update(id(inner) for inner in ast.walk(node))
        found += [
            (f"{module}.py", node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "budget" in node.value and id(node) not in skipped
        ]
    assert sorted(found) == BUDGET_MESSAGES_OUTSIDE_THE_RULE
