"""The parser's refusals, pinned row by row: the exact message, where it points and the exit code.

Each row is one CLI line run in process through `cli_lines.run_igc`.  A parse
error prints "igc: parse error: MESSAGE (line L, column C)" and exits 1; a
refusal of a value prints "igc: error: MESSAGE" and exits 2, with no
position.  The rows hold how a term is read to its refusals: rewriting the
reader must leave every one of them as it is.
"""

import pytest
from cli_lines import run_igc

from igc.chart_algebra import ChartSpec, Poly
from igc.errors import ChartMismatchError, DomainError
from igc.groupoid import KField
from igc.parsing import Session, parse_expression

V = "(3/4*x0 - x1^2)*d0 + x1*d1"
DEEP = "(" * 101 + "d0" + ")" * 101
EXPONENT = "monomial exponent exceeds the budget of Poly.MAX_EXPONENT = 9223372036854775807"

# (argv, message, (line, column) of a parse error or None, exit code)
ROWS = [
    # the five shapes of a parse error in the session-mix benchmark, inside a K literal
    (["--dim", "2", "cup", f"K{{arity=2; 0: ({V}; 0,1: d1}}", "d0"], "expected ')', found ';'", (1, 42), 1),
    (["--dim", "2", "cup", f"K{{arity=2; 0: {V} +; 0,1: d1}}", "d0"], "unexpected token ';'", (1, 43), 1),
    (["--dim", "2", "cup", "K{arity=2; 0: x3*d0; 0,1: d1}", "d0"],
     "coordinate x3 out of range for dimension 2", (1, 15), 1),
    (["--dim", "2", "cup", "K{arity=2; 0: d0; 0,1: d5}", "d0"], "generator d5 out of range for dimension 2", (1, 24), 1),
    (["--dim", "2", "cup", f"K{{arity=2; 0: undefined_7 + {V}; 0,1: d1}}", "d0"],
     "unknown identifier 'undefined_7'", (1, 15), 1),
    # a factor the monomial reader does not take, after factors it does
    (["--dim", "2", "cup", "K{arity=2; 0: -2/3*x1*--x0^2*x4*d0}", "d0"],
     "coordinate x4 out of range for dimension 2", (1, 30), 1),
    (["--dim", "2", "cup", "K{arity=2; 0: 2*x0*1/0*d0}", "d0"], "division by zero", (1, 22), 1),
    (["--dim", "2", "cup", "K{arity=2; 0: 2*x0*1/x1*d0}", "d0"], "expected an integer denominator", (1, 22), 1),
    # a term COEF*dI that is not read straight into its element, but as a product
    (["--dim", "2", "bracket", "lie", "x0*d5", "d1"], "generator d5 out of range for dimension 2", (1, 4), 1),
    (["--dim", "2", "bracket", "lie", "2*d0^2", "d1"], "expected a polyvector, got Poly", None, 2),
    # the exponent, digit and nesting budgets
    (["--dim", "2", "bracket", "lie", "x0^9223372036854775807*x0*d0", "d1"], EXPONENT, None, 2),
    (["--dim", "2", "bracket", "lie", "x0^9223372036854775808*d0", "d1"], EXPONENT, None, 2),
    (["--dim", "1", "bracket", "lie", "2^100000000*d0", "d0"],
     "polynomial power exceeds the coefficient budget of Poly.MAX_DIGITS = 4300 digits", None, 2),
    (["--dim", "1", "bracket", "lie", DEEP, "d0"],
     "expression nests deeper than the parser budget of _Parser.MAX_NESTING = 100 levels", (1, 101), 1),
    # malformed terms, and sums of a polynomial and a field
    (["--dim", "2", "bracket", "lie", "1/0*x0", "d1"], "division by zero", (1, 3), 1),
    (["--dim", "2", "bracket", "lie", "x0^-1", "d1"], "unexpected token '-'", (1, 4), 1),
    (["--dim", "2", "bracket", "lie", "x0 + d0", "d1"], "expected a field element, got Poly", None, 2),
    (["--dim", "2", "bracket", "lie", "x0 - 1/2 + x1*x1 + d0", "d1"],
     "expected a field element, got Poly", None, 2),
    (["--dim", "2", "bracket", "lie", "d0 + x0 - x1", "d1"], "expected a field element, got Poly", None, 2),
    (["--dim", "2", "bracket", "lie", "2*3/4*x0 + x1 + K{arity=1; 0: d0}", "d1"],
     "k-fields have no global addition; additions are face-wise", None, 2),
    # unknown functions and malformed K literals
    (["--dim", "2", "bracket", "lie", "foo(x0)", "d0"], "unknown function 'foo'", (1, 1), 1),
    (["--dim", "2", "bracket", "lie", "K{x=1}", "d0"], "K literal starts with arity=<k>", (1, 3), 1),
    (["--dim", "2", "bracket", "lie", "K{arity=x}", "d0"], "arity must be an integer", (1, 9), 1),
    (["--dim", "2", "bracket", "lie", "K{arity=2; x: d0}", "d0"], "expected a slot index", (1, 12), 1),
    # values of the wrong kind for their command or operator
    (["--dim", "2", "face", "d0^d1", "0"], "expected a k-field, got Polyvector", None, 2),
    (["--dim", "2", "face", "-K{arity=2; 0: d0}", "0"],
     "k-fields have no global negation; additions are face-wise", None, 2),
    (["--dim", "2", "bracket", "lie", "d0*d1", "d0"], "cannot multiply FreeLRElem and FreeLRElem", None, 2),
    (["--dim", "2", "bracket", "lie", "x0^x1*d0", "d0"], "polynomial exponent must be a nonnegative integer", None, 2),
]


@pytest.mark.parametrize("argv, message, at, code", ROWS, ids=[f"row{n}" for n in range(len(ROWS))])
def test_parser_refusal_is_pinned(argv, message, at, code):
    r = run_igc(argv)
    assert r.returncode == code
    assert r.stdout == ""
    if at is None:
        assert r.stderr == f"igc: error: {message}\n"
    else:
        assert r.stderr == f"igc: parse error: {message} (line {at[0]}, column {at[1]})\n"


def test_a_bound_int_is_refused_as_a_summand():
    # only a library binding holds a bare int; the CLI binds parsed values
    with pytest.raises(DomainError) as info:
        parse_expression("n + x0", Session(ChartSpec(2), {"n": 5}))
    assert type(info.value) is DomainError and str(info.value) == "cannot add int and Poly"


W = parse_expression("x0*d1", Session(ChartSpec(2, 3)))


@pytest.mark.parametrize("src, error, message, field", [
    # the literal's own checks run after its closing brace, in the order `KField` runs them, with its refusals
    ("K{arity=1; 0: w}", ChartMismatchError, "component frozenset({0}) lives on chart (2, 3), not (2, 4)",
     (1, {frozenset({0}): W})),
    ("K{arity=1; 0: w; 3: d0}", ChartMismatchError, "component frozenset({0}) lives on chart (2, 3), not (2, 4)",
     None),
    ("K{arity=1; 3: w}", DomainError, "component index 3 out of range [0, 1)", (1, {frozenset({3}): W})),
    ("K{arity=0; 3: w}", DomainError, "arity must be >= 1, got 0", (0, {frozenset({3}): W})),
    # a sum of generator terms meets a term of another chart as the sum of two elements does
    ("K{arity=1; 0: x0*d0 - 1/2*d1 + w}", ChartMismatchError, "sum operand lives on chart (2, 3), not (2, 4)", None),
])
def test_a_k_literal_refuses_a_bound_element_of_another_chart(src, error, message, field):
    session = Session(ChartSpec(2, 4), {"w": W})
    calls = [lambda: parse_expression(src, session)]
    if field is not None:
        calls.append(lambda: KField(session.chart, *field))
    for call in calls:
        with pytest.raises(DomainError) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


def test_a_zero_factor_hides_a_later_exponent_overflow():
    # a product with a zero factor is zero before its exponents are added
    r = run_igc(["--dim", "2", "bracket", "lie", "0*x0^9223372036854775807*x0*d0", "d1"])
    assert (r.returncode, r.stdout, r.stderr) == (0, "0\n", "")


def test_a_coefficient_past_the_product_budget_is_refused(monkeypatch):
    # COEF*dI forms one term product per term of COEF, as Poly * d_i counts them
    monkeypatch.setattr(Poly, "MAX_POW_PRODUCTS", 2)
    r = run_igc(["--dim", "2", "bracket", "lie", "(x0 + x1 + 1)*d0", "d1"])
    message = "term product count 3 exceeds the budget of Poly.MAX_POW_PRODUCTS = 2"
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"igc: error: {message}\n")
    # a coefficient within the budget reads as before, and so does one of more terms than the budget whose
    # terms collide into fewer monomials
    r = run_igc(["--dim", "2", "bracket", "lie", "(x0 + 1)*d0", "d0"])
    assert (r.returncode, r.stdout, r.stderr) == (0, "-d0\n", "")
    r = run_igc(["--dim", "2", "bracket", "lie", "(x0 + x1 - x1 + 1/2*x0)*d0", "d0"])
    assert (r.returncode, r.stdout, r.stderr) == (0, "-3/2*d0\n", "")
