"""Fuzzing the command front end on a small grammar.

Every command line ends in a result or in one of the three error types the
CLI maps to exit 1 or 2, and every printed value reparses to the value the
command returned (compared through its JSON form).  Integer literals run from
one digit to past the digit budget and `^` exponents up to 2^64, so inputs
reach the coefficient, exponent and term budgets; the grammar keeps at most
one caret, k-fields of arity at most 4 and a bounded number of tokens.  Each
line runs under a wall bound of LINE_SECONDS, so a runaway line fails its test
instead of stalling the suite (hypothesis's deadline is off, because a slow
host would trip it on lines that end).
"""

import time

import pytest
from cli_lines import LineTimeout, wall_bound
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from igc import ChartSpec, DomainError, Poly
from igc.cli import UsageError, run_command
from igc.parsing import ParseError, Session, as_elem, as_kfield, as_pv, parse_expression

CHART = ChartSpec(2, 4)
DIGITS = st.integers(0, 9).map(str)
INDICES = st.integers(0, 4).map(str)
# mostly short integers, now and then one with up to a few digits past the
# digit budget
INTEGERS = st.one_of(
    DIGITS,
    st.integers(10, 10**30).map(str),
    st.integers(Poly.MAX_DIGITS - 3, Poly.MAX_DIGITS + 3).map(lambda n: "7" * n),
)
# exponents up to 2^64, the largest key field and just past it among them
EXPONENTS = st.one_of(
    DIGITS, st.integers(10, 2**64).map(str), st.sampled_from([str(2**63 - 1), str(2**63), str(2**64)])
)

# polynomials, and fields with polynomial coefficients, built with +, -, *,
# unary minus, parentheses and free brackets
polys = st.recursive(
    st.one_of(INTEGERS, st.sampled_from(["x0", "x1", "1/2", "3/4"]), st.tuples(INTEGERS, INTEGERS).map("/".join)),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
        inner.map(lambda e: f"-({e})"),
    ),
    max_leaves=3,
)
fields = st.recursive(
    st.one_of(st.sampled_from(["d0", "d1"]), st.tuples(polys, st.sampled_from(["d0", "d1"])).map("({0[0]})*{0[1]}".format)),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - "]), inner).map("".join),
        st.tuples(polys, inner).map("({0[0]})*({0[1]})".format),
        inner.map(lambda e: f"-({e})"),
        st.tuples(inner, inner).map("F[{0[0]},{0[1]}]".format),
    ),
    max_leaves=4,
)
# now and then a polynomial where a field belongs, and the one caret: a power
# of a polynomial or a wedge of two fields
values = st.one_of(
    fields,
    fields,
    fields,
    polys,
    st.tuples(polys, EXPONENTS).map("({0[0]})^{0[1]}".format),
    st.tuples(polys, EXPONENTS).map("({0[0]})^{0[1]}*d0".format),
    st.tuples(fields, fields).map("({0[0]}) ^ ({0[1]})".format),
)


@st.composite
def kfields(draw, arity: int, depth: int = 2) -> str:
    """An expression that names a k-field of the given arity when it is well
    formed, with at most depth nested operations."""
    choice = draw(st.integers(0, 3)) if depth else 1
    if arity == 1 and choice == 0:
        return draw(values)
    if arity == 1 or choice == 1:
        slots = draw(st.lists(st.frozensets(st.integers(0, arity - 1), min_size=1), max_size=3, unique=True))
        parts = [f"{','.join(map(str, sorted(s)))}: {draw(fields)}" for s in slots]
        return "K{" + "; ".join([f"arity={arity}", *parts]) + "}"
    if arity < 4 and choice == 2:
        # an operation that lowers the arity by one; its slot indices are
        # usually in range
        nu = draw(kfields(arity + 1, depth - 1))
        i, j = sorted(draw(st.lists(st.integers(0, arity + 1), min_size=2, max_size=2, unique=True)))
        op = draw(st.sampled_from(["face", "homotopy", "sdiff"]))
        if op == "face":
            return f"face({nu}, {i})"
        if op == "homotopy":
            return f"homotopy({nu}, {i}, {j})"
        mu = draw(st.one_of(st.just(nu), kfields(arity + 1, depth - 1)))
        return f"sdiff({nu}, {mu}, {i}, {j})"
    left = draw(st.integers(1, arity - 1))
    op = draw(st.sampled_from(["cup", "compose"]))
    return f"{op}({draw(kfields(left, depth - 1))}, {draw(kfields(arity - left, depth - 1))})"


def any_kfield():
    return st.integers(1, 4).flatmap(kfields)


# command -> (argument strategies, how to read the printed value back)
COMMANDS = {
    "bracket": ([st.sampled_from(["free", "lie"]), values, values], as_elem),
    "act": ([st.lists(DIGITS, max_size=3).map(",".join), st.sampled_from(["free", "lie"]), any_kfield()], as_kfield),
    "cup": ([any_kfield(), any_kfield()], as_kfield),
    "compose": ([any_kfield(), any_kfield()], as_kfield),
    "sdiff": ([any_kfield(), any_kfield(), INDICES, INDICES], as_kfield),
    "face": ([any_kfield(), INDICES], as_kfield),
    "homotopy": ([any_kfield(), INDICES, INDICES], as_kfield),
    "trivial?": ([any_kfield()], None),
    "reduce": ([any_kfield()], as_pv),
    "wedge": ([values, values], as_pv),
    "schouten": ([values, values], as_pv),
}


@st.composite
def command_lines(draw) -> list[str]:
    name = draw(st.sampled_from(sorted(COMMANDS)))
    args = [draw(arg) for arg in COMMANDS[name][0]]
    if draw(st.integers(0, 19)) == 19:
        args = args[:-1]  # one argument short: a usage error
    return [name, *args]


# raw token soup for the parser: mostly malformed input
TOKENS = ["0", "1", "7", "x0", "x1", "d0", "d1", "F", "K", "cup", "face", "arity", "=", ";", ":",
          ",", "(", ")", "[", "]", "{", "}", "+", "-", "*", "/", "^", " "]
soup = st.lists(st.sampled_from(TOKENS), max_size=12).filter(lambda t: t.count("^") <= 1).map("".join)


LINE_SECONDS = 5


def _check_line(argv: list[str]):
    session = Session(CHART)
    with wall_bound(LINE_SECONDS):
        try:
            outcome = run_command(argv, session)
            # a value is rendered when a form is read, and one past a budget is refused there
            text, payload = outcome.text, outcome.payload
        except (UsageError, ParseError, DomainError):
            return
        assert outcome.code == 0
        read = COMMANDS[argv[0]][1]
        if read is not None:
            value = read(parse_expression(text, session), CHART)
            assert str(value) == text
            assert value.to_json() == payload


def test_a_line_past_its_wall_bound_fails():
    start = time.perf_counter()
    with pytest.raises(LineTimeout), wall_bound(0.05):
        time.sleep(2)
    assert time.perf_counter() - start < 1


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_command_lines_end_in_a_value_or_a_known_error(argv):
    _check_line(argv)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(["bracket lie", "reduce", "wedge"]), soup, soup)
def test_token_soup_ends_in_a_value_or_a_known_error(command, first, second):
    name, *rest = command.split()
    _check_line([name, *rest, first, *([second] if name != "reduce" else [])])
