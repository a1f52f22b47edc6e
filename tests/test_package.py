"""The names `igc` exports, eager and deferred alike, and no function nothing names."""

import ast
import importlib
import re
import shlex
import time
import types
import typing
from collections import Counter
from pathlib import Path

import pytest
from cli_lines import LAUNCH_TESTS, run_igc

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


def test_only_the_value_rule_words_a_wrong_type_message():
    # "X is T, not C" is the wording of `_value`, the one rule for a value of the wrong type: a message of that
    # shape elsewhere, in an f-string or a plain string, is a second rule
    inside, outside = [], []
    for module, tree in src_modules():
        rule = {
            id(node) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_value"
            for node in ast.walk(f)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                text = "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
            else:
                continue
            if re.search(r"\bis (\{\}|[A-Z]\w*), not (\{\}|[A-Z]\w*)", text):
                (inside if id(node) in rule else outside).append(f"{module}.py:{node.lineno}")
    assert len(inside) == 1 and outside == []


def test_no_value_check_retypes_its_function_or_parameter():
    # `_checked` labels a value argument from the signature; a `_value` call labelled by a parameter of its function,
    # or by "<function> argument" as a literal or a local, writes that label a second time
    found = []
    for module, tree in src_modules():
        for f in ast.walk(tree):
            if isinstance(f, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "what" for t in f.targets):
                if isinstance(f.value, ast.Constant) and str(f.value.value).endswith(" argument"):
                    found.append(f"{module}.py:{f.lineno}")
            if not isinstance(f, ast.FunctionDef):
                continue
            params = {a.arg for a in f.args.args + f.args.kwonlyargs}
            for node in ast.walk(f):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_value":
                    what, label = node.args[2:4]
                    if (isinstance(label, ast.Constant) and label.value in params
                            or isinstance(what, ast.Constant) and what.value.endswith(" argument")):
                        found.append(f"{module}.py:{node.lineno}")
    assert found == []


def value_parameters(function) -> list[str]:
    """The parameters of function annotated with one class other than int, bool and tuple, or that class or None."""
    names = []
    for name, hint in typing.get_type_hints(function).items():
        union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        kinds = [k for k in (typing.get_args(hint) if union else (hint,)) if k is not type(None)]
        cls = typing.get_origin(kinds[0]) or kinds[0] if len(kinds) == 1 else None
        if name != "return" and isinstance(cls, type) and cls not in (int, bool, tuple):
            names.append(name)
    return names


def test_every_public_callable_with_a_value_parameter_goes_through_checked():
    # a function, the `__new__` or `__init__` a class defines, or a public classmethod (an alternate constructor) or
    # instance method of the class, is checked from its annotations by `_checked`, whose generated wrapper is
    # `_checked_call`; the error types take no values into the library
    callables = []
    for name in igc.__all__:
        value = getattr(igc, name)
        if not callable(value) or isinstance(value, type) and issubclass(value, BaseException):
            continue
        if isinstance(value, type):
            callables += [
                (f"{name}.{method}", getattr(attr, "__func__", attr)) for method, attr in vars(value).items()
                if isinstance(attr, (classmethod, types.FunctionType)) and not method.startswith("_")
            ]
            value = value.__new__ if "__new__" in vars(value) else value.__init__
        callables.append((name, value))
    unchecked, checked = [], []
    for name, value in callables:
        original = getattr(value, "__wrapped__", value)
        if value.__code__.co_name == "_checked_call":
            checked.append(name)
        elif value_parameters(original):
            unchecked.append(name)
    assert unchecked == [] and len(checked) == 52


def test_only_the_chart_rule_raises_a_chart_mismatch():
    # "these values share a chart" is one decision, `_same_chart`, worded once; a ChartMismatchError built
    # anywhere else is a second rule
    inside, outside = [], []
    for module, tree in src_modules():
        rule = {
            id(node) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_same_chart"
            for node in ast.walk(f)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ChartMismatchError":
                (inside if id(node) in rule else outside).append(f"{module}.py:{node.lineno}")
    assert len(inside) == 1 and outside == []


def test_only_the_display_rule_quotes_input():
    # how a refusal shows a value the caller gave is one decision, `errors._shown`, which cuts a long value to a
    # short line; a `!r` conversion anywhere else, in the message of a `raise`, a parser `_error` or an argparse
    # `ArgumentTypeError`, quotes the whole value however long it is.  Two are not refusals and are exempt by
    # name: `_Record.__repr__` and the source that `_checked` generates
    exempt, outside = [], []
    for module, tree in src_modules():
        defs = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)] + [
            (f"{c.name}.{f.name}", f)
            for c in tree.body if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, ast.FunctionDef)
        ]
        named = {
            id(node): f"{module}.{name}"
            for name, f in defs if name in ("_shown", "_Record.__repr__", "_checked")
            for node in ast.walk(f)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
                (exempt if id(node) in named else outside).append(named.get(id(node), f"{module}.py:{node.lineno}"))
    assert sorted(exempt) == ["chart_algebra._Record.__repr__", "chart_algebra._checked"] and outside == []


def test_only_chart_algebra_reads_a_packed_key_s_fields():
    # a monomial key packs one 64-bit exponent field per variable; the other
    # modules build and read keys through chart_algebra's helpers
    found = [
        f"{path.name}:{n}"
        for path in sorted((ROOT / "src" / "igc").glob("*.py"))
        if path.name != "chart_algebra.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"_FIELD_MASK|\b64 \*", line)
    ]
    assert found == []


def test_only_free_lr_builds_a_free_lr_element_from_its_stored_form():
    # the numerator storage of the free modules is the library's decision: the
    # tests, the benchmark and the oracle build an element through its public
    # constructors or compute it, and in the library only free_lr builds a
    # FreeLRElem from its stored form
    library = {path: ("FreeLRElem._make(",) for path in (ROOT / "src" / "igc").glob("*.py")}
    library[ROOT / "src" / "igc" / "free_lr.py"] = ()
    del library[ROOT / "src" / "igc" / "oracle.py"]
    stored = ("VField._make(", "WeilElem._make(", "Polyvector._make(", "FreeLRElem._make(")
    found = [
        f"{path.relative_to(ROOT)}:{n}"
        for d in ("src", "tests", "perfbench")
        for path in sorted((ROOT / d).rglob("*.py"))
        if path != Path(__file__).resolve()
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if any(name in line for name in library.get(path, stored))
    ]
    assert found == []


def test_only_the_listed_tests_launch_a_process():
    # every other command line runs in process through `cli_lines.run_igc`; a
    # launch is any use of `subprocess` but its result record, or of `sys.executable`
    found = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "subprocess":
                    found.add((path.name, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    used = (node.value.id, node.attr)
                    if used == ("sys", "executable") or used[0] == "subprocess" and used[1] != "CompletedProcess":
                        found.add((path.name, owner))
    assert sorted(found) == sorted(("test_cli.py", name) for name in LAUNCH_TESTS)


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
        # the nesting and word-length lines repeat a text with bash brace expansion
        argv = [re.sub(r"\$\(printf '([^']+)%\.0s' \{1\.\.(\d+)\}\)", lambda m: m[1] * int(m[2]), a) for a in argv]
        start = time.perf_counter()
        r = run_igc(argv[1:], seconds=30)
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
