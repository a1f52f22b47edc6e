"""Differential test of `Poly` arithmetic, `vf_apply` and `vf_bracket` against sympy.

sympy computes the same sums, products, derivatives, powers, derivations
and brackets on its own polynomial type over QQ; every igc result must have
exactly sympy's terms.  sympy is a test aid, not a dependency: without it the
module is skipped.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igc import Poly, VField, vf_apply, vf_bracket

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
