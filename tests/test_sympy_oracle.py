"""Differential test of `Poly` arithmetic, `vf_apply`, `vf_bracket` and the expression reader against sympy.

sympy computes the same sums, products, derivatives, powers, derivations
and brackets on its own polynomial type over QQ; every igc result must have
exactly sympy's terms.  Expression strings are written together with their
sympy value, and each must parse to exactly that value.  sympy is a test aid, not a dependency: without it the
module is skipped.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igc import ChartSpec, FreeLRElem, Poly, VField, free_bracket, parse_expression, vf_apply, vf_bracket
from igc.parsing import Session

sympy = pytest.importorskip("sympy")

DIM = 3
X = sympy.symbols(f"x0:{DIM}")

coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
exponents = st.tuples(*[st.integers(0, 3)] * DIM)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(lambda t: Poly(DIM, t))
scalars = st.one_of(st.integers(-3, 3), coeffs)
points = st.tuples(*[coeffs] * DIM)


def to_sympy(p: Poly):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *X, domain="QQ")


def terms_of(s) -> dict:
    """The nonzero terms of a sympy polynomial as {exponents: Fraction}."""
    return {e: Fraction(int(c.p), int(c.q)) for e, c in s.as_dict().items() if c}


def assert_agrees(p: Poly, s):
    assert dict(p.terms) == terms_of(s)


@settings(max_examples=150, deadline=None)
@given(polys, polys, scalars, st.integers(0, DIM - 1), st.integers(0, 4), points)
def test_poly_arithmetic_matches_sympy(f, g, c, i, n, point):
    sf, sg = to_sympy(f), to_sympy(g)
    sc = sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
    assert_agrees(f + g, sf + sg)
    assert_agrees(f - g, sf - sg)
    assert_agrees(-f, -sf)
    assert_agrees(f * g, sf * sg)
    assert_agrees(f * c, sf * sc)
    assert_agrees(c - f, sc - sf)
    assert_agrees(f.derive(i), sf.diff(X[i]))
    assert_agrees(f**n, sf**n)
    value = sf.as_expr().subs({x: sympy.Rational(v.numerator, v.denominator) for x, v in zip(X, point)})
    assert f.evaluate(point) == Fraction(int(value.p), int(value.q))


@settings(max_examples=100, deadline=None)
@given(st.lists(polys, min_size=DIM, max_size=DIM), polys)
def test_vf_apply_matches_sympy(v, f):
    sv, sf = [to_sympy(p) for p in v], to_sympy(f)
    # v(f) = sum_i v^i d_i f
    want = sum((sv[i] * sf.diff(X[i]) for i in range(DIM)), to_sympy(Poly.zero(DIM)))
    assert_agrees(vf_apply(VField(v), f), want)


@settings(max_examples=60, deadline=None)
@given(st.lists(polys, min_size=DIM, max_size=DIM), st.lists(polys, min_size=DIM, max_size=DIM))
def test_vf_bracket_matches_sympy(u, v):
    su, sv = [to_sympy(p) for p in u], [to_sympy(p) for p in v]
    # [u, v]^i = sum_j u^j d_j v^i - v^j d_j u^i
    want = [
        sum((su[j] * sv[i].diff(X[j]) - sv[j] * su[i].diff(X[j]) for j in range(DIM)), to_sympy(Poly.zero(DIM)))
        for i in range(DIM)
    ]
    got = vf_bracket(VField(u), VField(v))
    for p, s in zip(got.coeffs, want):
        assert_agrees(p, s)


# expression strings, each drawn with its sympy value -----------------------------

def power(pair):
    (text, value), exps = pair
    # the caret groups to the left: x0^2^3 is (x0^2)^3
    for e in exps:
        text, value = f"{text}^{e}", value**e
    return text, value


def negated(pair):
    signs, (text, value) = pair
    return "-" * signs + text, (-1) ** signs * value


def joined_product(factors):
    return "*".join(t for t, _ in factors), sympy.Mul(*(v for _, v in factors))


def joined_sum(pair):
    (text, value), rest = pair
    for op, (t, v) in rest:
        text, value = f"{text} {op} {t}", value + v if op == "+" else value - v
    return text, value


def products(atoms):
    signs = st.sampled_from((0, 0, 1, 2, 3))
    return st.lists(st.tuples(signs, atoms).map(negated), min_size=1, max_size=3).map(joined_product)


def sums(atoms):
    return st.tuples(products(atoms), st.lists(st.tuples(st.sampled_from("+-"), products(atoms)), max_size=3)).map(
        joined_sum
    )


small = st.integers(0, 12)
leaves = st.one_of(
    small.map(lambda n: (str(n), sympy.Integer(n))),
    st.tuples(small, st.integers(1, 9)).map(lambda t: (f"{t[0]}/{t[1]}", sympy.Rational(*t))),
    st.integers(0, DIM - 1).map(lambda i: (f"x{i}", X[i])),
)
# powers of literals and coordinates, x0^2^3 among them, and parenthesized
# sums, nested, with at most one small power
powers = st.tuples(leaves, st.one_of(st.just(()), st.lists(st.integers(0, 3), min_size=1, max_size=2))).map(power)
atoms = st.recursive(
    powers,
    lambda inner: st.tuples(sums(inner).map(lambda tv: (f"({tv[0]})", tv[1])), st.lists(st.integers(0, 2), max_size=1))
    .map(power),
    max_leaves=6,
)
expressions = sums(atoms)
CHART = ChartSpec(DIM, 4)


def from_sympy(value) -> Poly:
    return Poly(DIM, terms_of(sympy.Poly(value, *X, domain="QQ")))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(expressions)
def test_parsed_polynomial_matches_sympy(expression):
    text, value = expression
    got = parse_expression(text, Session(CHART))
    assert isinstance(got, Poly)
    assert_agrees(got, sympy.Poly(value, *X, domain="QQ"))
    # stored in the one reduced form, as the public constructor stores it
    want = from_sympy(value)
    assert (got.num, got.den) == (want.num, want.den)


generators = st.integers(0, DIM - 1)
# coefficients of element terms: sums of products of powers, with no parentheses
flat = sums(powers)


def generator(i):
    return FreeLRElem.generator(CHART, i)


# each element term as (text, element factor, polynomial factor)
element_terms = st.one_of(
    st.tuples(flat, generators).map(lambda t: (f"({t[0][0]})*d{t[1]}", generator(t[1]), from_sympy(t[0][1]))),
    st.tuples(generators, flat).map(lambda t: (f"d{t[0]}*({t[1][0]})", generator(t[0]), from_sympy(t[1][1]))),
    st.tuples(coeffs, st.integers(0, 3), generators).map(
        lambda t: (
            f"{t[0].numerator}/{t[0].denominator}*x0^{t[1]}*d{t[2]}",
            generator(t[2]),
            Poly(DIM, {(t[1],) + (0,) * (DIM - 1): t[0]}),
        )
    ),
    # a scaled generator times a monomial, often with a common factor that cancels
    st.tuples(products(powers), coeffs, generators).map(
        lambda t: (
            f"({t[0][0]})*({t[1].numerator}/{t[1].denominator}*d{t[2]})",
            generator(t[2]) * t[1],
            from_sympy(t[0][1]),
        )
    ),
    # a run of factors with no parentheses before the generator, read straight into the element
    st.tuples(products(powers), generators).map(lambda t: (f"{t[0][0]}*d{t[1]}", generator(t[1]), from_sympy(t[0][1]))),
    generators.map(lambda i: (f"0*d{i}", generator(i), Poly.zero(DIM))),
    # a factor after the generator: the term is read as a product
    st.tuples(products(powers), generators, products(powers)).map(
        lambda t: (f"{t[0][0]}*d{t[1]}*{t[2][0]}", generator(t[1]), from_sympy(t[0][1] * t[2][1]))
    ),
    st.tuples(generators, generators, flat, st.booleans()).map(
        lambda t: (
            f"F[d{t[0]},d{t[1]}]*({t[2][0]})" if t[3] else f"({t[2][0]})*F[d{t[0]},d{t[1]}]",
            free_bracket(generator(t[0]), generator(t[1])),
            from_sympy(t[2][1]),
        )
    ),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from("+-"), element_terms), min_size=1, max_size=3))
def test_parsed_element_matches_public_arithmetic(terms):
    # the first term takes a unary minus or no sign
    text = " ".join(f"{op} {t}" for op, (t, _, _) in terms).removeprefix("+ ")
    want = FreeLRElem.zero(CHART)
    for op, (_, elem, poly) in terms:
        assert elem * poly == poly * elem
        want = want + elem * poly if op == "+" else want - poly * elem
    got = parse_expression(text, Session(CHART))
    assert got == want
    # stored in the one reduced form, as the public constructor stores it
    assert FreeLRElem(CHART, got.terms) == got
