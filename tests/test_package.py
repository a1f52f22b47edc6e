"""The names `igc` exports, eager and deferred alike, and no function nothing names."""

import ast
import re
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
