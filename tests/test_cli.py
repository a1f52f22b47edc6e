"""Expression parsing, printing roundtrips, and the command front end."""

import errno
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from cli_lines import run_igc
from hypothesis import given, settings
from hypothesis import strategies as st

from igc import ChartSpec, DomainError, FreeLRElem, KField, Poly, Polyvector, VField, cup, free_lr, lyndon
from igc.cli import CommandOutcome, UsageError, _build_parser, run_command
from igc.parsing import ParseError, Session, as_kfield, parse_expression
from igc.oracle import random_kfield, random_vfield


def session(dim=2, max_degree=4):
    return Session(ChartSpec(dim, max_degree))


# parsing ---------------------------------------------------------------------


def test_parse_vfield_literal():
    s = session()
    value = parse_expression("x0*d1 - (1/2)*d0", s)
    want = FreeLRElem.from_vfield(
        s.chart, VField([Poly.const(2, Fraction(-1, 2)), Poly.var(2, 0)])
    )
    assert value == want


def test_parse_free_bracket_normalizes():
    s = session()
    value = parse_expression("F[d0, x0*d1]", s)
    assert str(value) == "x0*F[d0,d1] + d1"


def test_parse_cup_call():
    s = session()
    value = parse_expression("cup(d0, x0*d1)", s)
    assert isinstance(value, KField)
    assert value.component_vfield({0}) == VField.basis(2, 0)
    assert value.component_vfield({0, 1}) == VField([Poly.zero(2), Poly.var(2, 0)])


def test_parse_polynomials_and_powers():
    s = session()
    assert parse_expression("x0^2*x1 + 3/4", s) == Poly(
        2, {(2, 1): 1, (0, 0): Fraction(3, 4)}
    )
    assert parse_expression("(x0 + x1)^2", s) == Poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_parse_wedge_is_type_dispatched():
    s = session()
    value = parse_expression("d0 ^ d1", s)
    assert isinstance(value, Polyvector)
    assert str(value) == "d0 ^ d1"
    scaled = parse_expression("x0*d0 ^ d1", s)
    assert scaled == Polyvector(2, {(0, 1): Poly.var(2, 0)})
    # a polyvector plus a polyvector
    assert str(parse_expression("d0^d1 + x0*d0^d1", s)) == "(x0 + 1)*d0 ^ d1"


def test_parse_kfield_literal_roundtrip():
    s = session()
    nu = parse_expression("K{arity=2; 0: d0; 0,1: x0*d1}", s)
    assert isinstance(nu, KField)
    assert parse_expression(str(nu), s) == nu


def test_parse_errors_carry_position():
    s = session()
    with pytest.raises(ParseError) as err:
        parse_expression("x0 + (x1 *", s)
    assert err.value.line == 1 and err.value.column > 0
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("nope", s)
    with pytest.raises(ParseError, match="out of range"):
        parse_expression("x5", s)


def test_parse_error_points_at_the_offending_character():
    s = session()
    for src, where in (("x0 +\n  $", (2, 3)), ("x0 + $", (1, 6))):
        with pytest.raises(ParseError, match=r"unexpected character '\$'") as err:
            parse_expression(src, s)
        assert (err.value.line, err.value.column) == where


def test_print_parse_roundtrip_random():
    rng = Random(100)
    s = session()
    for _ in range(20):
        v = random_vfield(rng, 2)
        elem = FreeLRElem.from_vfield(s.chart, v)
        assert parse_expression(str(elem), s) == elem
        field = cup(
            KField.from_vfields(s.chart, 1, {frozenset({0}): v}),
            KField.from_vfields(s.chart, 1, {frozenset({0}): random_vfield(rng, 2)}),
        )
        assert as_kfield(parse_expression(str(field), s), s.chart) == field


def test_a_bound_polynomial_of_another_chart_is_refused_in_a_sum():
    # a sum adds only the polynomials of the session's chart into one numerator dict
    s = Session(ChartSpec(2), {"p": Poly.var(3, 2)})
    for expr in ("p + x0", "x0 - p", "x0 + 1 + p", "p*d0"):
        with pytest.raises(DomainError, match=r"^polynomial (operand|factor) lives on chart R\^[23], not R\^[23]$"):
            parse_expression(expr, s)


def test_an_exponent_overflow_is_refused_at_the_factor_that_makes_it():
    # two fields of 2^63 - 1 and a third factor would carry into the next
    # variable's field if the sum were checked only at the end
    big = f"x0^{Poly.MAX_EXPONENT}"
    for expr in (f"{big}*{big}*x0^2", f"{big}*{big}*x0^2*d0", f"-3/4*{big}*x1*-{big}*x0*x0"):
        with pytest.raises(DomainError, match="exceeds the budget of Poly.MAX_EXPONENT"):
            parse_expression(expr, session())
    assert str(parse_expression(f"{big}*x1^{Poly.MAX_EXPONENT}", session())) == f"{big}*x1^{Poly.MAX_EXPONENT}"


def test_a_printed_literal_builds_no_polynomial_per_token(monkeypatch):
    # each term is read into packed numerators: no Poly per literal or
    # coordinate, no product kernel, and at most one reduction per component
    import igc

    s = session(3)
    nu = random_kfield(Random(5), s.chart, 3, terms=3)
    text = str(nu)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for module in (igc.chart_algebra, igc.free_lr, igc.groupoid, igc.parsing):
        for name in ("_reduced", "_cancelled", "_mul_into"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for name in ("const", "var"):
        monkeypatch.setattr(Poly, name, classmethod(counted(name, getattr(Poly, name).__func__)))
    value = parse_expression(text, s)
    monkeypatch.undo()
    assert value == nu and text.count("(") >= 9
    assert [c for c in calls if c not in ("_reduced", "_cancelled")] == []
    assert 0 < calls.count("_reduced") + calls.count("_cancelled") <= len(nu.components)


def test_a_coefficient_times_a_generator_is_read_into_its_element(monkeypatch):
    # COEF*dI builds no generator element and multiplies no element; every other shape is read as a product
    from igc.chart_algebra import _Module

    calls = []
    generator, mul = FreeLRElem.generator.__func__, _Module.__mul__
    monkeypatch.setattr(FreeLRElem, "generator", classmethod(lambda *a: calls.append("generator") or generator(*a)))
    monkeypatch.setattr(_Module, "__mul__", lambda *a: calls.append("*") or mul(*a))
    text = "K{arity=2; 0: -2/3*x0*x1*d1 + (x0 - 1)*d0; 1: 0*d1 + x1^2*x1*d0; 0,1: 3*(x0 + x1)*d1}"
    value = parse_expression(text, session())
    assert calls == []
    assert str(value) == "K{arity=2; 0: (x0 - 1)*d0 - 2/3*x0*x1*d1; 0,1: (3*x0 + 3*x1)*d1; 1: x1^3*d0}"
    declined = [
        ("x0*d1*x0", ["generator", "*", "*"]),
        ("-x0*-d1", ["generator", "*"]),
        ("x0*d1^d0", ["generator", "generator", "*"]),
        ("(x0 + 1)*d0 ^ d1", ["generator", "generator", "*"]),
        ("(x0 - 1/2*x1)*F[d0,d1]", ["generator", "generator", "*"]),
    ]
    for text, made in declined:
        calls.clear()
        parse_expression(text, session())
        assert calls == made, text


def test_a_leading_factor_is_read_once(monkeypatch):
    # a parenthesized sum of runs is read flat once and handed on as the term's leading value: one run reader call
    # per run, plus one at the term's start and one at each bracket argument's, all of which find no run
    from igc.parsing import _Parser

    calls = []
    run = _Parser._monomial_run
    monkeypatch.setattr(_Parser, "_monomial_run", lambda *a: calls.append(a[1]) or run(*a))
    for text, made in [("(x0 + 1)*d0 ^ d1", 3), ("(x0 - 1/2*x1)*F[d0,d1]", 5), ("-(x0 + 1)^2*d1", 3)]:
        calls.clear()
        parse_expression(text, session())
        assert len(calls) == len(set(calls)) == made, text

# The tokenizer that tracked lines as it scanned, before the one-scan
# tokenizer that works out line and column from an offset only for an error;
# kept as the reference for every token and every message.

_REF_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^/()\[\]{},;:=])")
_REF_SPACE_RE = re.compile(r"\s*")


def reference_tokenize(src: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while True:
        end = _REF_SPACE_RE.match(src, pos).end()
        newlines = src.count("\n", pos, end)
        if newlines:
            line += newlines
            line_start = src.rfind("\n", pos, end) + 1
        pos = end
        column = pos - line_start + 1
        if pos == len(src):
            tokens.append(("eof", "", line, column))
            return tokens
        m = _REF_TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", line, column)
        kind = ("int", "ident", "op")[m.lastindex - 1]
        if kind == "int" and len(m.group()) > Poly.MAX_DIGITS:
            raise ParseError(
                f"integer literal of {len(m.group())} digits exceeds the budget of Poly.MAX_DIGITS = {Poly.MAX_DIGITS}",
                line,
                column,
            )
        tokens.append((kind, m.group(), line, column))
        pos = m.end()


def test_tokenizer_matches_the_line_tracking_reference():
    from igc.parsing import _offset, _position, _tokenize

    def outcome(tokenize, src):
        try:
            return tokenize(src)
        except ParseError as exc:
            return str(exc), exc.line, exc.column

    def tokenize(src):
        # a token is its text: its kind is read from the text as the parser reads it, and its offset by a re-scan
        return [
            ("int" if text.isdigit() else "ident" if text.isidentifier() else "op" if text else "eof",
             text, *_position(src, _offset(src, n)))
            for n, text in enumerate(_tokenize(src))
        ]

    # whitespace, ASCII and Unicode, weighted so that strings often end in it
    spaces = ["\n", "\r", "\t", "\x0b", "\x0c", "\xa0", " ", "\u2028", "\u3000", "\x1c"] * 3
    other = ["é", "λ", "ß", "Ω", "٣", "$", "#", ".", "'"]
    words = ["x0", "d12", "F", "K", "arity", "_a9", "7", "0042", "3/4"]
    alphabet = spaces + other + words + list("-+*^/()[]{},;:=") + list("xd019_aZ")
    rng = Random(9)
    sources = ["", " ", "\n", "7" * Poly.MAX_DIGITS, "x0 +\n " + "7" * (Poly.MAX_DIGITS + 1)]
    sources += ["".join(rng.choices(alphabet, k=rng.randint(1, 14))) for _ in range(50_000)]
    errors = 0
    for src in sources:
        want = outcome(reference_tokenize, src)
        assert outcome(tokenize, src) == want, repr(src)
        errors += isinstance(want, tuple)
    # both outcomes occur often: the strings reach the error paths and the eof token
    assert 10_000 < errors < 40_000


def test_parse_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError, match="division by zero") as err:
        parse_expression("1/0*d0", session())
    assert (err.value.line, err.value.column) == (1, 3)
    r = run_igc(["--dim", "2", "bracket", "free", "1/0*d0", "d1"])
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "igc: parse error: division by zero (line 1, column 3)\n"


def test_parse_kfield_literal_rejects_repeated_slot():
    s = session()
    with pytest.raises(ParseError, match="repeated slot index 0"):
        parse_expression("K{arity=2; 0,0: d0}", s)
    with pytest.raises(ParseError, match="repeated slot index 1"):
        parse_expression("K{arity=3; 1,2,1: d0}", s)
    r = run_igc(["--dim", "2", "reduce", "K{arity=2; 0,0: d0}"])
    assert r.returncode == 1 and "repeated slot index 0" in r.stderr


def test_parse_kfield_literal_rejects_repeated_index_set():
    s = session()
    with pytest.raises(ParseError, match=r"repeated index set \[0\]") as err:
        parse_expression("K{arity=1; 0: d0; 0: d1}", s)
    assert (err.value.line, err.value.column) == (1, 19)
    with pytest.raises(ParseError, match=r"repeated index set \[0, 1\]"):
        parse_expression("K{arity=2; 0,1: d0; 1: d1; 1,0: x0*d1}", s)
    r = run_igc(["--dim", "2", "cup", "K{arity=1; 0: d0; 0: d1}", "d0"])
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "igc: parse error: repeated index set [0] (line 1, column 19)\n"


def test_deep_nesting_hits_the_parser_budget():
    from igc.parsing import _Parser

    message = f"expression nests deeper than the parser budget of _Parser.MAX_NESTING = {_Parser.MAX_NESTING} levels"
    for expr in ("(" * 400 + "d0" + ")" * 400, "F[d0," * 170 + "d1" + "]" * 170, "cup(" * 150 + "d0" + ")" * 150):
        r = run_igc(["--dim", "2", "bracket", "lie", expr, "d0"])
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith(f"igc: parse error: {message} (line 1, column ")
    # below the budget the value is read as before
    depth = _Parser.MAX_NESTING - 1
    assert parse_expression("(" * depth + "d0" + ")" * depth, session()) == parse_expression("d0", session())


def test_unary_minus_chains():
    for expr, want in (("--d0", "d0"), ("-(-(d0))", "d0"), ("-" * 990 + "d0", "d0"), ("-" * 991 + "x0*d1", "-x0*d1")):
        r = run_igc(["--dim", "2", "reduce", expr])
        assert (r.returncode, r.stdout, r.stderr) == (0, want + "\n", "")


# run_command ------------------------------------------------------------------


def test_run_command_bracket():
    out = run_command(["bracket", "lie", "d0", "x0*d1"], session())
    assert out.text == "d1" and out.code == 0


def test_run_command_reduce():
    out = run_command(["reduce", "cup(d0, d1)"], session())
    assert out.text == "d0 ^ d1"


@pytest.mark.parametrize(
    "line, cls",
    [
        (["bracket", "free", "d0", "x0*d1"], FreeLRElem),
        (["act", "0", "lie", "K{arity=2; 0: d0; 1: x0*d1}"], KField),
        (["reduce", "cup(d0, d1)"], Polyvector),
    ],
    ids=["bracket", "act", "reduce"],
)
def test_a_value_command_renders_only_the_form_read(line, cls, monkeypatch):
    # each form is rendered on its first read; the form not read is never rendered
    def unread(self):
        raise AssertionError(f"{cls.__name__} rendered a form nobody read")

    out = run_command(line, session())
    text, payload = out.text, out.payload
    with monkeypatch.context() as m:
        m.setattr(cls, "to_json", unread)
        assert run_command(line, session()).text == text
        r = run_igc(["--dim", "2", *line])
        assert (r.returncode, r.stdout, r.stderr) == (0, text + "\n", "")
    with monkeypatch.context() as m:
        m.setattr(cls, "__str__", unread)
        assert run_command(line, session()).payload == payload
        r = run_igc(["--dim", "2", "--format", "json", *line])
        assert (r.returncode, r.stdout, r.stderr) == (0, json.dumps(payload) + "\n", "")


def test_run_command_trivial():
    out = run_command(["trivial?", "compose(d0, x0*d1)"], session())
    assert out.text == "false  witness: (0,1,{0},{1})"
    assert out.payload == {"trivial": False, "witness": [0, 1, [0], [1]]}
    out2 = run_command(["trivial?", "cup(d0, x0*d1)"], session())
    assert out2.text == "true"


def test_session_and_outcome_are_plain_records():
    chart = ChartSpec(2)
    first, second = Session(chart), Session(chart)
    first.bindings["a"] = 1
    assert second.bindings == {} and Session(chart).bindings == {}
    assert first != second and Session(chart, {"a": 1}) == first
    assert repr(second) == "Session(chart=ChartSpec(dim=2, max_degree=4), bindings={}, fmt='text', seed=0)"
    second.seed = 7
    assert second == Session(chart, seed=7)
    with pytest.raises(TypeError):
        hash(second)
    outcome = CommandOutcome("d1", None)
    assert outcome == CommandOutcome("d1", None, 0) and outcome != CommandOutcome("d1", None, 2)
    assert repr(outcome) == "CommandOutcome(text='d1', payload=None, code=0)"
    with pytest.raises(TypeError):
        hash(outcome)


def test_run_command_let_binds():
    s = session()
    run_command(["let", "a", "=", "x0*d1"], s)
    out = run_command(["bracket", "free", "d0", "a"], s)
    assert out.text == "x0*F[d0,d1] + d1"


def test_run_command_usage_errors():
    with pytest.raises(UsageError):
        run_command(["bracket", "lie", "d0"], session())
    with pytest.raises(UsageError):
        run_command(["frobnicate"], session())
    with pytest.raises(UsageError):
        run_command(["act", "zero", "lie", "d0"], session())
    # the command line refuses an empty command before run_command sees it
    with pytest.raises(UsageError, match="^no command given$"):
        run_command([], session())


# (argv after --dim 2, stderr): lines refused as usage errors, exit 1, before any value is read
USAGE_LINES = [
    (["let", "a"], "igc: usage: let NAME = EXPR\n"),
    (["bracket", "both", "d0", "d1"], "igc: bracket flavor must be 'free' or 'lie'\n"),
    (["act", "0", "both", "K{arity=2; 0: d0}"], "igc: act flavor must be 'free' or 'lie'\n"),
    (["check", "--fast"], "igc: unknown check flag '--fast'\n"),
    (["check", "--only", "nope"], "igc: unknown check 'nope'; known: {}\n"),
    (
        ["check", "--seed", "4", "--only", "trivial-homotopy-agreement", "--only", "cohomology-reduction"],
        "igc: check flag --only given twice\n",
    ),
    (
        ["check", "--invert", "homotopy", "--only", "homotopy", "--invert", "homotopy"],
        "igc: check flag --invert given twice\n",
    ),
    (["--script", "demo.igc", "reduce", "d0"], "igc: give either --script or an inline command, not both\n"),
]


@pytest.mark.parametrize("argv, stderr", USAGE_LINES, ids=[f"row{n}" for n in range(len(USAGE_LINES))])
def test_cli_usage_line_is_refused(argv, stderr):
    from igc.checks import CHECK_NAMES

    r = run_igc(["--dim", "2", *argv])
    assert (r.returncode, r.stdout, r.stderr) == (1, "", stderr.format(", ".join(CHECK_NAMES)))


# The seven operations that are both commands and expression calls: name,
# argument signature, arguments.
SHARED_OPERATIONS = [
    ("cup", "E1 E2", ["d0", "x0*d1"]),
    ("compose", "E1 E2", ["d0", "x0*d1"]),
    ("sdiff", "E1 E2 I J", ["K{arity=2; 0: d0; 0,1: x0*d1}", "K{arity=2; 0: d0; 0,1: d1}", "0", "1"]),
    ("face", "E I", ["K{arity=2; 0: d0; 1: x1*d1; 0,1: d1}", "1"]),
    ("homotopy", "E I J", ["compose(d0, x0*d1)", "0", "1"]),
    ("wedge", "P Q", ["x0*d0", "d1"]),
    ("schouten", "P Q", ["x0*d0", "d0 ^ d1"]),
]


@pytest.mark.parametrize("name, signature, args", SHARED_OPERATIONS, ids=[op[0] for op in SHARED_OPERATIONS])
def test_command_and_expression_call_agree(name, signature, args):
    out = run_command([name, *args], session())
    value = parse_expression(f"{name}({', '.join(args)})", session())
    assert out.code == 0 and out.text == str(value)
    assert json.dumps(out.payload) == json.dumps(value.to_json())

    with pytest.raises(UsageError) as err:
        run_command([name, *args[:-1]], session())
    assert str(err.value) == f"usage: {name} {signature}"
    with pytest.raises(ParseError) as err:
        parse_expression(f"{name}({', '.join(args[:-1])})", session())
    assert str(err.value) == f"{name} expects {len(args)} arguments, got {len(args) - 1} (line 1, column 1)"

    # an index is a command-line integer or an expression that evaluates to one
    if signature.endswith(("I", "J")):
        bad = len(signature.split()) - 1
        cli_args = args[:bad] + ["x"]
        r = run_igc(["--dim", "2", name, *cli_args])
        assert (r.returncode, r.stderr) == (1, "igc: expected an integer, got 'x'\n")
        expr_args = args[:bad] + ["1/2"]
        r = run_igc(["--dim", "2", "reduce", f"{name}({', '.join(expr_args)})"])
        assert (r.returncode, r.stderr) == (2, "igc: error: expected an integer argument\n")


class _FailingStdout(io.StringIO):
    """A stdout whose every write raises error, on the file descriptor fd, or in memory when fd is None."""

    def __init__(self, error: OSError, fd: int | None = None):
        super().__init__()
        self.error, self.fd = error, fd

    def write(self, text):
        raise self.error

    def fileno(self):
        return super().fileno() if self.fd is None else self.fd


@pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space left")])
def test_a_failed_write_ends_in_one_line(error, tmp_path):
    # a reader that closed stdout, or a full disk: one stderr line and exit 1, one-shot and in a script
    script = tmp_path / "demo.igc"
    script.write_text("let a = x0*d1\nbracket lie a d0\n")
    message = f"igc: cannot write output: {error}\n"
    for argv in (["bracket", "lie", "x0*d1", "d0"], ["--script", str(script)], ["check", "--only", "homotopy"]):
        r = run_igc(["--dim", "2", *argv], out=_FailingStdout(error))
        assert (r.returncode, r.stdout, r.stderr) == (1, "", message)
    # on a file descriptor, the rest of the output goes to os.devnull, so the interpreter's last flush cannot fail
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        r = run_igc(["--dim", "2", "bracket", "lie", "x0*d1", "d0"], out=_FailingStdout(error, fd))
        os.write(fd, b"left in the buffer")
    finally:
        os.close(fd)
    assert (r.returncode, r.stderr, (tmp_path / "stdout").read_bytes()) == (1, message, b"")


def test_an_interrupt_ends_in_one_line(monkeypatch, tmp_path):
    from igc import checks

    def interrupted(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(checks, "run_suite", interrupted)
    r = run_igc(["--dim", "2", "check"])
    assert (r.returncode, r.stdout, r.stderr) == (130, "", "igc: interrupted\n")
    # a script run names the line it was on
    script = tmp_path / "demo.igc"
    script.write_text("let a = x0*d1\n# a comment\ncheck --seed 2\nbracket lie a d0\n")
    r = run_igc(["--dim", "2", "--script", str(script)])
    assert (r.returncode, r.stdout, r.stderr) == (130, "", "igc: script line 3: interrupted\n")


def test_run_command_check_flag_needs_a_name():
    for flag in ("--only", "--invert"):
        with pytest.raises(UsageError, match=f"{flag} needs a check name"):
            run_command(["check", flag], session())
        with pytest.raises(UsageError, match=f"{flag} needs a check name"):
            run_command(["check", "--seed", "3", flag], session())
        r = run_igc(["--dim", "2", "check", flag])
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == f"igc: check flag {flag} needs a check name\n"


@pytest.mark.parametrize("only, value", [("parse-roundtrip", "-5"), ("weil-dictionary", "0")])
def test_check_max_degree_is_refused_as_the_global_flag_is(only, value):
    message = f"error: max_degree must be >= 1, got {value}"
    with pytest.raises(UsageError) as err:
        run_command(["check", "--only", only, "--max-degree", value], session())
    assert str(err.value) == message
    r = run_igc(["--dim", "2", "check", "--only", only, "--max-degree", value])
    assert (r.returncode, r.stdout, r.stderr) == (1, "", f"igc: {message}\n")
    assert run_igc(["--dim", "2", "--max-degree", value, "check", "--only", only]).stderr == r.stderr


# command lines: exact bytes and exit codes ------------------------------------


def test_cli_examples_bit_exact():
    r = run_igc(["--dim", "2", "bracket", "lie", "d0", "x0*d1"])
    assert r.returncode == 0 and r.stdout == "d1\n"
    r = run_igc(["--dim", "2", "reduce", "cup(d0, d1)"])
    assert r.returncode == 0 and r.stdout == "d0 ^ d1\n"
    r = run_igc(["--dim", "2", "trivial?", "compose(d0, x0*d1)"])
    assert r.returncode == 0 and r.stdout == "false  witness: (0,1,{0},{1})\n"


def test_cli_homotopy_sums_the_defects_at_each_union():
    # ({0}, {1,2}) and ({0,2}, {1}) both have union {0,1,2}; their defects cancel under (0 1)
    field = "K{arity=3; 0: d0; 1: d0; 0,2: d1; 1,2: d1}"
    r = run_igc(["--dim", "2", "homotopy", field, "0", "1"])
    assert (r.returncode, r.stdout, r.stderr) == (0, "K{arity=2}\n", "")
    r = run_igc(["--dim", "2", "trivial?", field])
    assert (r.returncode, r.stdout) == (0, "false  witness: (0,2,{0},{1,2})\n")


def test_cli_json_format():
    r = run_igc(["--dim", "2", "--format", "json", "bracket", "free", "d0", "x0*d1"])
    data = json.loads(r.stdout)
    assert data == [
        {"word": [1], "coeff": "1"},
        {"word": [0, 1], "coeff": "x0"},
    ]
    r = run_igc(["--dim", "2", "--format", "json", "cup", "d0", "d1"])
    data = json.loads(r.stdout)
    assert data["arity"] == 2 and data["flavor"] == "classical"
    assert data["components"]["0,1"] == [{"word": [1], "coeff": "1"}]


def test_cli_exit_codes():
    assert run_igc(["--dim", "2", "bracket", "lie", "d0", "x0*)"]).returncode == 1
    assert run_igc(["--dim", "2", "face", "cup(d0,d1)", "7"]).returncode == 2
    assert run_igc(["--dim", "2"]).returncode == 1
    assert run_igc(["bracket", "lie", "d0", "d1"]).returncode == 1  # missing --dim


@pytest.mark.parametrize("command", ["reduce", "trivial?"])
def test_cli_arity_budget(command):
    MAX_ACTION_ARITY = KField.MAX_ACTION_ARITY

    r = run_igc(["--dim", "2", command, "K{arity=40; 0: d0}"], seconds=10)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == f"igc: error: arity 40 exceeds the budget of KField.MAX_ACTION_ARITY = {MAX_ACTION_ARITY}\n"
    r = run_igc(["--dim", "2", command, f"K{{arity={MAX_ACTION_ARITY}; 0: d0}}"])
    assert r.returncode == 0, r.stderr


def test_cli_wedge_and_schouten_budget():
    # each factor is the wedge of four 16-term vectors whose coefficients are
    # powers of 1..16, so no 4x4 minor vanishes and it has all C(16, 4) = 1,820 terms
    vectors = [" + ".join(f"{(i + 1) ** k}*d{i}" for i in range(16)) for k in range(8)]
    p, q = (" ^ ".join(f"({v})" for v in vectors[s : s + 4]) for s in (0, 4))
    for command, name in (("wedge", "wedge"), ("schouten", "Schouten bracket")):
        start = time.perf_counter()
        r = run_igc(["--dim", "16", command, p, q], seconds=30)
        assert time.perf_counter() - start < 5
        message = (
            f"{name} monomial pair count {1820 * 1820} exceeds the budget of "
            f"Poly.MAX_POW_PRODUCTS = {Poly.MAX_POW_PRODUCTS}"
        )
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"igc: error: {message}\n")


def test_cli_reduce_chain_and_all_equal_field():
    # a chain support reduces; a support that is not a chain gets no class,
    # even when all its components agree as in alpha cup alpha = alpha, since
    # no construction at hand assigns it one
    r = run_igc(["--dim", "2", "reduce", "K{arity=2; 0: d0; 0,1: d0}"])
    assert (r.returncode, r.stdout, r.stderr) == (0, "d0\n", "")
    r = run_igc(["--dim", "2", "reduce", "K{arity=2; 0: d0; 1: d0; 0,1: d0}"])
    message = "no relabeling moves the support into the flag chain"
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"igc: error: {message}\n")


def test_cli_power_budget():
    # (x0+x1+1)^32 has 561 terms, and squaring it is the first product past the budget
    message = f"term product count {561 * 561} exceeds the budget of Poly.MAX_POW_PRODUCTS = {Poly.MAX_POW_PRODUCTS}"
    r = run_igc(["--dim", "2", "bracket", "lie", "(x0+x1+1)^1000*d0", "d1"], seconds=10)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"igc: error: {message}\n")
    # one-term powers and small bases stay far below the budget
    r = run_igc(["--dim", "2", "bracket", "lie", "d1", "x0^1000*x1*d0"])
    assert (r.returncode, r.stdout) == (0, "x0^1000*d0\n")
    ninth = parse_expression("(x0+x1+1)^9", session())
    assert len(ninth.terms) == 55 and ninth.terms[(1, 8)] == 9 and ninth.terms[(3, 3)] == 1680


def test_cli_product_budget(tmp_path):
    # (x0+x1+x2+1)^28 has 4,495 terms, so r*r would form about 20M term
    # products; q*q, 680 terms times 680, is already past the budget
    script = tmp_path / "chain.igc"
    script.write_text("let p = (x0+x1+x2+1)^7\nlet q = p*p\nlet r = q*q\nreduce r*r*d0\n")
    r = run_igc(["--dim", "3", "--script", str(script)], seconds=10)
    message = f"term product count {{}} exceeds the budget of Poly.MAX_POW_PRODUCTS = {Poly.MAX_POW_PRODUCTS}"
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"igc: error: {message.format(680 * 680)}\nigc: script line 3 failed\n"
    # p*p forms 14,400 products and is read as before
    s = session(3)
    assert len(parse_expression("(x0+x1+x2+1)^7*(x0+x1+x2+1)^7", s).num) == 680
    with pytest.raises(DomainError, match=message.format(680 * 680)):
        parse_expression("(x0+x1+x2+1)^14*(x0+x1+x2+1)^14", s)
    # a one-term factor counts its products too
    big = Poly(1, {(e,): 1 for e in range(Poly.MAX_POW_PRODUCTS + 1)})
    with pytest.raises(DomainError, match=message.format(Poly.MAX_POW_PRODUCTS + 1)):
        Poly.var(1, 0) * big


# c has 5,440 terms, and each line that builds it stays within every budget
LARGE_COEFFICIENT = """\
let q = (x0+x1+x2+1)^7*(x0+x1+x2+1)^7
let a = q + x0^100*q
let b = a + x1^300*a
let c = b + x2^500*b
"""


@pytest.mark.parametrize("command", ["bracket lie", "bracket free", "wedge", "schouten"])
def test_cli_bracket_product_budget(command, tmp_path):
    # each of these multiplies c by c or by a derivative of c, about 29.6M term products
    script = tmp_path / "large.igc"
    script.write_text(LARGE_COEFFICIENT + f'{command} "c*d0" "c*d1"\n')
    r = run_igc(["--dim", "3", "--script", str(script)], seconds=10)
    # the wedge multiplies c by c; the brackets multiply c by d0(c) or d1(c), 4,960 terms each
    count = 5440 * 5440 if command == "wedge" else 5440 * 4960
    message = f"term product count {count} exceeds the budget of Poly.MAX_POW_PRODUCTS = {Poly.MAX_POW_PRODUCTS}"
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"igc: error: {message}\nigc: script line 5 failed\n"
    # against a one-term coefficient the same commands stay far below the budget
    script.write_text(LARGE_COEFFICIENT + f'{command} "x0*d0" "c*d1"\n')
    r = run_igc(["--dim", "3", "--script", str(script)], seconds=10)
    assert r.returncode == 0 and r.stderr == ""


def test_cli_bracket_checks_word_lengths_before_any_product(tmp_path):
    # the free bracket refuses a word past max_degree before it forms a product
    # that would hit the product budget, and forms the Leibniz products first
    script = tmp_path / "large.igc"
    script.write_text(LARGE_COEFFICIENT + 'bracket free "c*d0" "c*d1"\n')
    r = run_igc(["--dim", "3", "--max-degree", "1", "--script", str(script)], seconds=10)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "igc: error: bracket monomial of length 2 exceeds max_degree 1\nigc: script line 5 failed\n"
    script.write_text(LARGE_COEFFICIENT + 'bracket free "c*d0 + c*F[d0,d1]" "c*d1"\n')
    r = run_igc(["--dim", "3", "--script", str(script)], seconds=10)
    message = f"term product count {5440 * 4960} exceeds the budget of Poly.MAX_POW_PRODUCTS = {Poly.MAX_POW_PRODUCTS}"
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"igc: error: {message}\nigc: script line 5 failed\n"


@pytest.mark.parametrize(
    "max_degree, u, v, length",
    [
        pytest.param(
            4, ["1/2*x2^2*F[F[d0,d2],d1]", "(-2*x0^2*x1^2*x2 - 3/2*x0*x2^2)*F[d0,d1]"],
            ["-x2^2*F[F[d0,d1],F[d0,d2]]"], 5, id="sum-over-letters",
        ),
        pytest.param(
            5,
            [
                "9*x0^2*x1*F[d0,F[F[d0,d1],d1]]", "(5/3*x0^2*x1 - 4/3*x0*x2^2)*F[d0,d1]",
                "(-4*x0*x1 + 7/2*x0)*F[d0,F[d0,F[d0,d2]]]", "(-3/7*x0*x1^2*x2 - 2/7)*F[d0,F[d0,d2]]",
                "(9/2*x0^2*x1^2*x2^2 - 2/7*x1^2*x2^2)*F[F[F[d0,d2],d2],d2]",
            ],
            ["x1^2*x2^2*F[F[d0,d2],F[d1,d2]]"], 7, id="cancelling-word",
        ),
        pytest.param(
            5, ["2/3*x0*x1*x2^2*F[d1,F[F[d1,d2],d2]]"],
            [
                "(-1/3*x0^2*x1*x2 - 3/2*x0*x1*x2^2 - x1)*F[F[d0,d1],F[d0,d2]]",
                "(-x0*x2^2 + x0*x1 - 2/3*x2^2)*F[d1,F[d1,d2]]",
            ],
            7, id="two-long-words",
        ),
    ],
)
def test_cli_lie_bracket_overflow_names_the_longest_derived_bracket(max_degree, u, v, length):
    # one value written in two term orders: every long word is derived before
    # an overflow is raised, so both lines name the longest derived bracket
    message = f"igc: error: bracket monomial of length {length} exceeds max_degree {max_degree}\n"
    for terms in ((u, v), (u[::-1], v[::-1])):
        line = [" + ".join(t) for t in terms]
        r = run_igc(["--dim", "3", "--max-degree", str(max_degree), "bracket", "lie", *line])
        assert (r.returncode, r.stdout, r.stderr) == (2, "", message), line


def test_cli_free_bracket_overflow_names_the_longest_bracket():
    # one value written in two term orders: both lines name length 5, from
    # [F[d0,F[d0,d1]], F[d0,d1]], not the first overflowing pair they meet
    message = "igc: error: bracket monomial of length 5 exceeds max_degree 3\n"
    for v in ("d0 + F[d0,d1]", "F[d0,d1] + d0"):
        r = run_igc(["--dim", "2", "--max-degree", "3", "bracket", "free", "F[d0,F[d0,d1]]", v])
        assert (r.returncode, r.stdout, r.stderr) == (2, "", message), v


def test_cli_kfield_arity_budget():
    message = f"exceeds the budget of KField.MAX_ARITY = {KField.MAX_ARITY}"
    r = run_igc(["--dim", "2", "cup", "K{arity=100000000; 0: d0}", "d1"], seconds=10)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"igc: error: arity 100000000 {message}\n"
    half = f"K{{arity={KField.MAX_ARITY // 2 + 1}; 0: d0}}"
    for command in ("cup", "compose"):
        r = run_igc(["--dim", "2", command, half, half])
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == f"igc: error: arity {2 * (KField.MAX_ARITY // 2 + 1)} {message}\n"
    r = run_igc(["--dim", "2", "face", f"K{{arity={KField.MAX_ARITY}; 0: d0}}", str(KField.MAX_ARITY - 1)])
    assert (r.returncode, r.stdout) == (0, f"K{{arity={KField.MAX_ARITY - 1}; 0: d0}}\n")


def test_cli_sdiff_follows_the_supports():
    # the index sets of a 40-field are never walked: both sums run over the supports
    for mu, nu, want in (
        ("K{arity=40; 0: d0}", "K{arity=40; 0: d0}", "K{arity=39}"),
        ("K{arity=40; 0: d0; 2: d1; 0,1: x0*d1}", "K{arity=40; 0: d0; 2: d1; 0,1: d1}", "K{arity=39; 0: (x0 - 1)*d1; 1: d1}"),
    ):
        r = run_igc(["--dim", "2", "sdiff", mu, nu, "0", "1"], seconds=10)
        assert (r.returncode, r.stdout, r.stderr) == (0, want + "\n", "")


def test_cli_act_word_rejects_empty_entries():
    for word in ("0,,0", ",0,", ",", "0,"):
        r = run_igc(["--dim", "2", "act", word, "free", "K{arity=2; 0: d0}"])
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == f"igc: bad swap word {word!r}; use comma-separated indices\n"
    # the empty word is the identity
    r = run_igc(["--dim", "2", "act", "", "free", "K{arity=2; 0: d0}"])
    assert (r.returncode, r.stdout) == (0, "K{arity=2; 0: d0}\n")


LONG_INT = "1" * 5000
LONG_INT_REFUSAL = f"integer argument of 5000 digits exceeds the budget of Poly.MAX_DIGITS = {Poly.MAX_DIGITS}"
# one row per kind of integer argument: a face index, a homotopy and an sdiff slot index, the check flags and an
# entry of an act word
LONG_INT_ROWS = [
    ["face", "K{arity=2; 0: d0}", LONG_INT],
    ["homotopy", "K{arity=2; 0: d0}", "0", LONG_INT],
    ["sdiff", "K{arity=2; 0: d0}", "K{arity=2; 0: d0}", LONG_INT, "1"],
    ["check", "--seed", LONG_INT],
    ["check", "--max-degree", "-" + LONG_INT],
    ["act", f"0,{LONG_INT},0", "free", "K{arity=2; 0: d0}"],
]


@pytest.mark.parametrize("argv", LONG_INT_ROWS, ids=["face", "homotopy", "sdiff", "seed", "max-degree", "act"])
def test_an_integer_argument_past_the_digit_budget_is_refused_by_its_digit_count(argv):
    # int() does not read more than 4,300 digits; such an integer is not called "not an integer"
    r = run_igc(["--dim", "2", *argv])
    message = f"integer argument of 5000 digits exceeds the budget of Poly.MAX_DIGITS = {Poly.MAX_DIGITS}"
    assert (r.returncode, r.stdout, r.stderr) == (1, "", f"igc: {message}\n")
    # a long argument that is not an integer is refused as before
    r = run_igc(["--dim", "2", *[arg.replace(LONG_INT, LONG_INT + "x") for arg in argv]])
    assert r.returncode == 1 and r.stderr.startswith(("igc: expected an integer, got '", "igc: bad swap word '"))


# (argv, exit code, stderr): a global integer option past the digit budget is refused by its digit count, and an
# integer that int() reads but a count or index refuses is shown by its first 20 digits and its digit count
LONG_OPTION_ROWS = [
    (["--dim", LONG_INT, "face", "d0", "0"], 1, f"igc: {LONG_INT_REFUSAL}\n"),
    (["--dim", "2", "--max-degree", LONG_INT, "face", "d0", "0"], 1, f"igc: {LONG_INT_REFUSAL}\n"),
    (["--dim", "2", "--seed", "-" + LONG_INT, "check"], 1, f"igc: {LONG_INT_REFUSAL}\n"),
    (["--dim", "2", "face", "K{arity=2; 0: d0}", "1" * 4000], 2,
     "igc: error: face index 11111111111111111111... (4000 digits) out of range [0, 2)\n"),
    (["--dim", "-" + "1" * 4000, "face", "d0", "0"], 1,
     "igc: error: chart dimension must be >= 1, got -11111111111111111111... (4000 digits)\n"),
    (["--dim", "2", "check", "--max-degree", "-" + "1" * 4000], 1,
     "igc: error: max_degree must be >= 1, got -11111111111111111111... (4000 digits)\n"),
    # a short number is shown whole, as before
    (["--dim", "2", "face", "K{arity=2; 0: d0}", "1" * 20], 2,
     "igc: error: face index 11111111111111111111 out of range [0, 2)\n"),
]


@pytest.mark.parametrize("argv, code, stderr", LONG_OPTION_ROWS,
                         ids=["dim", "max-degree", "seed", "face-index", "dim-count", "check-count", "short"])
def test_a_long_integer_is_refused_in_one_short_line(argv, code, stderr):
    r = run_igc(argv)
    assert (r.returncode, r.stdout, r.stderr) == (code, "", stderr)
    assert r.stderr.count("\n") == 1 and len(r.stderr.encode()) < 200


@pytest.mark.parametrize("option", ["--dim", "--max-degree", "--seed"])
@pytest.mark.parametrize("value, shown", [("abc", "'abc'"), ("abc" * 1000, "'abcabcabcabcabcabca... (3000 characters)")],
                         ids=["short", "long"])
def test_a_non_integer_option_is_refused_after_argparse_s_usage_block(option, value, shown):
    # argparse's own usage block stays as it is; the error line after it shows the value by the display rule
    argv = ["--dim", value, "check"] if option == "--dim" else ["--dim", "2", option, value, "check"]
    r = run_igc(argv)
    error = f"igc: error: argument {option}: invalid int value: {shown}\n"
    assert (r.returncode, r.stdout, r.stderr) == (1, "", _build_parser().format_usage() + error)


# long pieces of an argv: integers, identifiers, unknown commands and check flags, K literals with an index set of up
# to 999 slots, and large well-formed values where another type belongs
LENGTHS = st.integers(41, 5000)
SLOTS = st.integers(1, 999).map(lambda n: ",".join(map(str, range(n))))
PIECES = st.one_of(
    LENGTHS.map("1".__mul__),
    LENGTHS.map(lambda n: "-" + "7" * n),
    LENGTHS.map("a".__mul__),
    LENGTHS.map(lambda n: "x" + "1" * n),
    LENGTHS.map(lambda n: "--" + "x" * n),
    LENGTHS.map(lambda n: "d0 " + "b" * n),
    SLOTS.map("K{{arity=1000; {}: d0}}".format),
    SLOTS.map("K{{arity=1000; {0}: d0; {0}: d1}}".format),
    SLOTS.map("K{{arity=1000; {0},0: d0}}".format),
    st.sampled_from(["K{arity=2; 0: (x0+x1+1)^40*d0}", "(x0+x1+1)^40", "(x0+x1+1)^30*d0 ^ d1"]),
)
# argv shapes after --dim, each slot filled with a piece
SHAPES = [
    ["2", "{}"], ["{}", "reduce", "d0"], ["2", "--max-degree", "{}", "reduce", "d0"],
    ["2", "--seed", "{}", "reduce", "d0"], ["2", "bracket", "lie", "{}", "{}"], ["2", "bracket", "free", "{}", "d0"],
    ["2", "act", "{}", "lie", "{}"], ["2", "face", "{}", "{}"], ["2", "sdiff", "{}", "{}", "{}", "{}"],
    ["2", "cup", "{}", "{}"], ["2", "reduce", "{}"], ["2", "homotopy", "{}", "{}", "{}"], ["2", "trivial?", "{}"],
    ["2", "wedge", "{}", "{}"], ["2", "let", "{}", "=", "{}"], ["2", "check", "{}"], ["2", "check", "--only", "{}"],
    ["2", "check", "--invert", "{}"], ["2", "check", "--seed", "{}", "--only", "nope"],
]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_every_refusal_of_a_long_argument_is_one_bounded_line(shape, data):
    argv = ["--dim", *(data.draw(PIECES) if part == "{}" else part for part in shape)]
    r = run_igc(argv)
    # argparse's usage block is the one multi-line refusal, and it is left as it is
    error = r.stderr.removeprefix(_build_parser().format_usage())
    if r.returncode == 0:
        assert r.stderr == ""
    else:
        assert r.returncode in (1, 2) and error.count("\n") == 1 and error.endswith("\n")
    assert max(map(len, r.stderr.splitlines()), default=0) <= 400


def test_a_value_outcome_reads_no_attribute_but_its_own():
    outcome = run_command(["bracket", "lie", "d0", "x0*d1"], session())
    assert getattr(outcome, "missing", None) is None
    assert (outcome.text, outcome.payload, outcome.code) == ("d1", parse_expression("d1", session()).to_json(), 0)


def test_cli_dimension_budget():
    r = run_igc(["--dim", "100000000", "bracket", "lie", "d0", "x0*d1"], seconds=10)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"igc: error: chart dimension 100000000 exceeds the budget of ChartSpec.MAX_DIM = {ChartSpec.MAX_DIM}\n"
    r = run_igc(["--dim", str(ChartSpec.MAX_DIM), "bracket", "lie", "d0", "x0*d1"])
    assert (r.returncode, r.stdout) == (0, "d1\n")


def test_one_shot_command_leaves_check_suite_and_profiler_unloaded():
    code = (
        "import sys; from igc.cli import main; "
        "code = main(['--dim', '2', 'bracket', 'lie', 'd0', 'x0*d1']); "
        "print(code, sorted(m for m in ('igc.checks', 'cProfile', 'pstats') if m in sys.modules))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert (r.stdout, r.stderr) == ("d1\n0 []\n", "")


def test_one_shot_command_loads_only_what_it_runs():
    def imported_modules(args):
        """Output of `python -X importtime -m igc ARGS` and the modules its import log names."""
        r = subprocess.run([sys.executable, "-X", "importtime", "-m", "igc", *args], capture_output=True, text=True)
        names = {line.rsplit("|", 1)[1].strip() for line in r.stderr.splitlines() if line.startswith("import time:")}
        return r, names

    r, names = imported_modules(["--dim", "2", "bracket", "lie", "d0", "x0*d1"])
    assert (r.returncode, r.stdout) == (0, "d1\n")
    assert {"igc.cli", "igc.parsing", "igc.groupoid"} <= names
    assert not names & {"igc.oracle", "igc.weil", "igc.checks", "dataclasses", "inspect"}
    r, names = imported_modules(["--dim", "2", "check", "--only", "parse-roundtrip"])
    assert r.returncode == 0
    assert {"igc.checks", "igc.oracle", "igc.weil"} <= names


def test_cli_coefficient_budget():
    power = (
        f"igc: error: polynomial power exceeds the coefficient budget of Poly.MAX_DIGITS = {Poly.MAX_DIGITS} digits\n"
    )
    printed = f"igc: error: coefficient has more digits than the budget of Poly.MAX_DIGITS = {Poly.MAX_DIGITS}\n"
    literal = (
        f"igc: parse error: integer literal of 5000 digits exceeds the budget of Poly.MAX_DIGITS = {Poly.MAX_DIGITS}"
        " (line 1, column 1)\n"
    )
    chain = "(2^4000*2^4000*2^4000*2^4000)*d0"
    cases = [
        (["reduce", "2^20000*d0"], 2, power),
        (["reduce", "2^100000000*d0"], 2, power),
        (["reduce", "7" * 5000 + "*d0"], 1, literal),
        (["reduce", chain], 2, printed),
        (["--format", "json", "reduce", chain], 2, printed),
        (["bracket", "free", "x0^9223372036854775807*d0", "x0*d1"], 2,
         f"igc: error: monomial exponent exceeds the budget of Poly.MAX_EXPONENT = {Poly.MAX_EXPONENT}\n"),
        # the same refusals from a bracket the swap walk forms
        (["act", "0", "free", "K{arity=2; 0: x0^9223372036854775807*d0; 1: x0*d1}"], 2,
         f"igc: error: monomial exponent exceeds the budget of Poly.MAX_EXPONENT = {Poly.MAX_EXPONENT}\n"),
        (["--max-degree", "1", "act", "0", "free", "K{arity=2; 0: d0; 1: d1}"], 2,
         "igc: error: bracket monomial of length 2 exceeds max_degree 1\n"),
        # both flips at {0,1,2} refuse; the first, ({0}, {1,2}), is the one named
        (["--max-degree", "2", "act", "0", "free",
          "K{arity=3; 0: x0^9223372036854775807*d0; 1,2: x0*d1; 0,2: F[d0,d1]; 1: d0}"], 2,
         f"igc: error: monomial exponent exceeds the budget of Poly.MAX_EXPONENT = {Poly.MAX_EXPONENT}\n"),
    ]
    for args, code, stderr in cases:
        r = run_igc(["--dim", "2", *args], seconds=10)
        assert (r.returncode, r.stdout, r.stderr) == (code, "", stderr), args
    # at the budget the value still prints, and so does a large exponent
    r = run_igc(["--dim", "2", "reduce", "2^14284*d0"])
    assert (r.returncode, r.stdout) == (0, f"{2**14284}*d0\n")
    r = run_igc(["--dim", "2", "reduce", "x0^4294967296*d0"])
    assert (r.returncode, r.stdout) == (0, "x0^4294967296*d0\n")


@pytest.mark.parametrize(
    "expr, column", [("{}", 1), ("K{{arity=1; 0: {}}}", 15), ("F[d0, {}]", 7)], ids=["top", "kfield", "bracket"]
)
@pytest.mark.parametrize("name, what", [("x{}*d0", "coordinate"), ("d{}", "generator")], ids=["x", "d"])
def test_an_index_past_any_chart_is_one_parse_error(expr, column, name, what):
    # int() refuses more than 4,300 digits; such an index is refused by its
    # digit count, as an integer literal is, and a shorter one past the chart
    # as out of range, in one line naming its length
    ones = "1" * 5000
    r = run_igc(["--dim", "2", "reduce", expr.format(name.format(ones))])
    assert (r.returncode, r.stdout, r.stderr) == (
        1,
        "",
        f"igc: parse error: integer {what} index of 5000 digits exceeds the budget of Poly.MAX_DIGITS = "
        f"{Poly.MAX_DIGITS} (line 1, column {column})\n",
    )
    r = run_igc(["--dim", "2", "reduce", expr.format(name.format(ones[:4000]))])
    assert (r.returncode, r.stdout, r.stderr) == (
        1,
        "",
        f"igc: parse error: {what} {name[0]}{ones[:20]}... (4000 digits) out of range for dimension 2"
        f" (line 1, column {column})\n",
    )
    # leading zeros are not digits of the index
    r = run_igc(["--dim", "2", "reduce", expr.format(name.format("0" * 5000 + "1"))])
    assert (r.returncode, r.stderr) == (0, "")


def test_cli_profile_flag():
    args = ["--dim", "2", "--seed", "3", "check", "--only", "parse-roundtrip"]
    plain = run_igc(args)
    # the cache line counts what the profiled run warms, from empty caches as in a fresh process
    lyndon._EXPANSION_CACHE.clear()
    lyndon._BRACKET_CACHE.clear()
    lyndon.standard_factorization.cache_clear()
    free_lr._lyndon_basis.cache_clear()
    profiled = run_igc(["--profile", *args])
    assert profiled.returncode == plain.returncode == 0
    assert profiled.stdout == plain.stdout and plain.stderr == ""
    assert "chart_algebra.py" in profiled.stderr
    assert "lyndon caches: _EXPANSION_CACHE " in profiled.stderr
    assert "standard_factorization 1 entries" in profiled.stderr
    assert "free_lr._lyndon_basis 1 entries" in profiled.stderr


def test_cli_dimension_flag():
    r = run_igc(["--dim", "3", "bracket", "lie", "d0", "x2*d1"])
    assert r.returncode == 0 and r.stdout == "0\n"
    r = run_igc(["--dim", "2", "bracket", "lie", "d0", "x2*d1"])
    assert r.returncode == 1 and "out of range" in r.stderr


def test_cli_script(tmp_path):
    script = tmp_path / "demo.igc"
    script.write_text(
        "# bind then bracket\n"
        "let a = x0*d1\n"
        'bracket free "d0" "a"\n'
        'reduce "cup(d0, d1)"\n'
    )
    r = run_igc(["--dim", "2", "--script", str(script)])
    assert r.returncode == 0
    assert r.stdout == "x0*F[d0,d1] + d1\nd0 ^ d1\n"
    bad = tmp_path / "bad.igc"
    bad.write_text('bracket lie "d0" "x9*d1"\n')
    r = run_igc(["--dim", "2", "--script", str(bad)])
    assert r.returncode == 1 and "line 1" in r.stderr
    unbalanced = tmp_path / "unbalanced.igc"
    unbalanced.write_text('let a = x0*d1\nbracket lie "d0 d1\n')
    r = run_igc(["--dim", "2", "--script", str(unbalanced)])
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "igc: script line 2: No closing quotation\n"


@pytest.mark.parametrize("fmt, printed", [("text", "F[d0,d1]\n"), ("json", '[{"word": [0, 1], "coeff": "1"}]\n')])
def test_cli_script_refuses_a_value_past_the_digit_budget(fmt, printed, tmp_path):
    # the value is rendered only when printed, and still refused there with one line, and the script stops
    script = tmp_path / "chain.igc"
    script.write_text(
        "# the coefficient 2^16000 has 4,817 digits\n"
        "bracket free d0 d1\n"
        "reduce (2^4000*2^4000*2^4000*2^4000)*d0\n"
        "bracket free d0 d1\n"
    )
    r = run_igc(["--dim", "2", "--format", fmt, "--script", str(script)])
    assert (r.returncode, r.stdout, r.stderr) == (2, printed, (
        f"igc: error: coefficient has more digits than the budget of Poly.MAX_DIGITS = {Poly.MAX_DIGITS}\n"
        "igc: script line 3 failed\n"
    ))


def test_cli_script_not_utf8(tmp_path):
    script = tmp_path / "latin1.igc"
    script.write_bytes("let caf\u00e9 = d0\n".encode("latin-1"))
    r = run_igc(["--dim", "2", "--script", str(script)])
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("igc: cannot read script: 'utf-8' codec can't decode")


def test_let_rejects_names_the_parser_never_reads():
    for name in ("x0", "x7", "d1", "d12", "caf\u00e9", "2a"):
        with pytest.raises(UsageError, match=f"bad binding name {name!r}"):
            run_command(["let", name, "=", "d1"], session())
        r = run_igc(["--dim", "2", "let", name, "=", "d1"])
        assert (r.returncode, r.stderr) == (1, f"igc: bad binding name {name!r}\n")
    s = session()
    for name in ("x", "d", "x0a", "dx1", "F", "K", "cup"):
        run_command(["let", name, "=", "x0*d1"], s)
        assert run_command(["bracket", "free", "d0", name], s).text == "x0*F[d0,d1] + d1"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device whose every write fails for lack of space")
def test_a_full_disk_ends_in_one_line_and_no_second_traceback():
    with open("/dev/full", "w") as full:
        line = [sys.executable, "-m", "igc", "--dim", "2", "bracket", "lie", "x0*d1", "d0"]
        r = subprocess.run(line, stdout=full, stderr=subprocess.PIPE, text=True, timeout=30)
    assert (r.returncode, r.stderr) == (1, "igc: cannot write output: [Errno 28] No space left on device\n")


def test_cli_identical_output_across_runs():
    args = ["--dim", "2", "--seed", "3", "check", "--only", "parse-roundtrip"]
    line = [sys.executable, "-m", "igc", *args]
    r1, r2 = (subprocess.run(line, capture_output=True, text=True) for _ in range(2))
    assert r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0


def test_check_timings_go_to_stderr_and_leave_stdout_alone():
    from igc.checks import CHECK_NAMES

    base = ["--dim", "2", "--seed", "3"]
    plain, timed = run_igc([*base, "check"]), run_igc([*base, "check", "--timings"])
    assert (plain.stdout, plain.stderr, plain.returncode) == (timed.stdout, "", timed.returncode)
    lines = timed.stderr.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"timing {name}" for name in CHECK_NAMES]
    counts = re.findall(r"^ok (\S+) \((\d+) cases\)$", plain.stdout, re.M)
    for line, (name, cases) in zip(lines, counts):
        assert re.fullmatch(rf"timing {name}: \d+\.\d{{3}} s \({cases} cases\)", line), line
    # JSON output, a failing report, and the flag before the others
    args = [*base, "--format", "json", "check"]
    only = ["--only", "homotopy", "--invert", "homotopy"]
    plain, timed = run_igc([*args, *only]), run_igc([*args, "--timings", *only])
    assert (plain.stdout, plain.returncode) == (timed.stdout, timed.returncode) == (plain.stdout, 3)
    assert "seconds" not in plain.stdout and re.fullmatch(r"timing homotopy: \S+ s \(63 cases\)\n", timed.stderr)


def test_readme_command_line_examples():
    """Every `igc ... # -> OUT` line of README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, sep, want = line.partition("# -> ")
        if sep:
            examples.append((shlex.split(command), want))
    assert len(examples) == 7
    for argv, want in examples:
        assert argv[0] == "igc"
        r = run_igc(argv[1:])
        assert (r.returncode, r.stdout) == (0, want + "\n"), argv
