"""Every internal result is canonical, so the unchecked private constructors are safe.

Sums, products, derivatives and brackets wrap their dicts without a second
validation pass; a `Poly` result only cancels the common factor of its int
numerators and denominator.  These properties check, over random operands
with many colliding and cancelling terms, that each such result is exactly
what the validating public constructor would have built from the same data.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igc import (
    ArityMismatchError,
    ChartMismatchError,
    ChartSpec,
    DomainError,
    FreeLRElem,
    LyndonWord,
    Poly,
    Polyvector,
    RelativeSpec,
    VField,
    WeilElem,
    free_bracket,
    lie_bracket_ext,
    project_to_lie,
    schouten,
    vf_bracket,
    wedge,
)
from igc.lyndon import is_lyndon

DIM = 2
CHART = ChartSpec(DIM, 4)
ARITY = 3
WORDS = [(0,), (1,), (0, 1)]
SUBSETS = [frozenset(s) for s in [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]]
# (1, 0) and (0, 1) name the same monomial up to sign, so they collide too
INDEX_TUPLES = [(0,), (1,), (0, 1), (1, 0)]

# few monomials and small coefficients, so that sums and products collide and cancel
coeffs = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
exponents = st.tuples(*[st.integers(0, 2)] * DIM)
polys = st.dictionaries(exponents, coeffs, max_size=4).map(lambda t: Poly(DIM, t))
scalars = st.one_of(st.integers(-2, 2), coeffs, polys)
elems = st.dictionaries(st.sampled_from(WORDS), polys, max_size=3).map(lambda t: FreeLRElem(CHART, t))
weils = st.dictionaries(st.sampled_from(SUBSETS), polys, max_size=4).map(lambda t: WeilElem(ARITY, DIM, t))
pvs = st.dictionaries(st.sampled_from(INDEX_TUPLES), polys, max_size=4).map(lambda t: Polyvector(DIM, t))
vfields = st.lists(polys, min_size=DIM, max_size=DIM).map(VField)
specs = st.sets(st.integers(0, DIM - 1)).map(lambda v: RelativeSpec(CHART, frozenset(v)))


def assert_canonical_poly(p: Poly):
    assert p.dim == DIM
    # int numerators over one positive denominator, with no common factor left
    assert type(p.den) is int and p.den > 0
    for key, c in p.num.items():
        assert type(key) is int and 0 <= key < 1 << (64 * DIM)
        assert all((key >> (64 * i)) & (2**64 - 1) <= Poly.MAX_EXPONENT for i in range(DIM))
        assert type(c) is int and c != 0
    assert gcd(p.den, *p.num.values()) == 1
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
    rebuilt = Poly(p.dim, p.terms)
    assert rebuilt == p and hash(rebuilt) == hash(p)


def assert_canonical_vfield(v: VField):
    assert v.dim == DIM
    for i, p in v.terms.items():
        assert type(i) is int and 0 <= i < DIM
        assert not p.is_zero()
        assert_canonical_poly(p)
    assert len(v.coeffs) == DIM and all(v.coeffs[i] == v.terms.get(i, 0) for i in range(DIM))
    assert VField(v.coeffs) == v and hash(VField(v.coeffs)) == hash(v)
    assert str(VField(v.coeffs)) == str(v)


def assert_canonical_elem(u: FreeLRElem):
    assert u.chart == CHART
    for w, p in u.terms.items():
        assert type(w) is LyndonWord and type(w.letters) is tuple
        assert all(type(a) is int and 0 <= a < DIM for a in w.letters)
        assert is_lyndon(w.letters) and len(w) <= CHART.max_degree
        assert not p.is_zero()
        assert_canonical_poly(p)
    assert FreeLRElem(u.chart, u.terms) == u
    assert hash(FreeLRElem(u.chart, u.terms)) == hash(u)


def assert_canonical_weil(a: WeilElem):
    assert (a.arity, a.dim) == (ARITY, DIM)
    for phi, p in a.terms.items():
        assert type(phi) is frozenset and all(0 <= i < ARITY for i in phi)
        assert not p.is_zero()
        assert_canonical_poly(p)
    assert WeilElem(a.arity, a.dim, a.terms) == a
    assert hash(WeilElem(a.arity, a.dim, a.terms)) == hash(a)


def assert_canonical_pv(p: Polyvector):
    assert p.dim == DIM
    for idx, c in p.terms.items():
        assert type(idx) is tuple and idx and all(type(i) is int for i in idx)
        assert list(idx) == sorted(set(idx)) and all(0 <= i < DIM for i in idx)
        assert not c.is_zero()
        assert_canonical_poly(c)
    assert Polyvector(p.dim, p.terms) == p
    assert hash(Polyvector(p.dim, p.terms)) == hash(p)


@settings(max_examples=300, deadline=None)
@given(polys, polys, scalars, st.integers(0, DIM - 1))
def test_poly_results_are_canonical(f, g, c, i):
    for result in (f + g, f - g, -f, f * g, f * f, f * c, c * f, f + c, c - f, f.derive(i), (f * g).derive(i), f**3):
        assert_canonical_poly(result)
    assert_canonical_poly(f - f)
    assert (f - f).terms == {}
    assert f + g == g + f and hash(f + g) == hash(g + f)


def test_poly_stores_integer_numerators_over_one_denominator():
    p = Poly(DIM, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-2, 3), (0, 0): 0})
    assert (p.num, p.den) == ({1: 3, 1 << 64: -4}, 6)
    assert dict(p.terms) == {(1, 0): Fraction(1, 2), (0, 1): Fraction(-2, 3)}
    # the common factor of a result is cancelled: 2 * (x0/2 + 1/2) = x0 + 1
    q = Poly(DIM, {(1, 0): Fraction(1, 2), (0, 0): Fraction(1, 2)}) * 2
    assert (q.num, q.den) == ({1: 1, 0: 1}, 1)
    assert (Poly.zero(DIM).num, Poly.zero(DIM).den) == ({}, 1)
    assert Poly.const(DIM, Fraction(4, 6)).den == 3
    # the trusted constant keeps the public dimension check
    with pytest.raises(DomainError, match="dimension must be >= 1"):
        Poly.const(0, 1)


@settings(max_examples=200, deadline=None)
@given(elems, elems, scalars, specs)
def test_free_lr_results_are_canonical(u, v, c, spec):
    for result in (u + v, u - v, -u, u * c, c * u, u - u):
        assert_canonical_elem(result)
    # the sum's terms arrive in another order, but equal values hash equal
    assert u + v == v + u and hash(u + v) == hash(v + u)
    assert_canonical_elem(free_bracket(u, v))
    assert_canonical_elem(free_bracket(u, u))
    assert_canonical_elem(free_bracket(u, v, spec))
    assert_canonical_elem(lie_bracket_ext(u, v))
    assert_canonical_elem(lie_bracket_ext(u, u))


@settings(max_examples=200, deadline=None)
@given(vfields, vfields, scalars, elems)
def test_vfield_results_are_canonical(u, v, c, e):
    for result in (u + v, u - v, -u, u * c, c * u, u - u, vf_bracket(u, v), vf_bracket(u, u), project_to_lie(e)):
        assert_canonical_vfield(result)
    assert u + v == v + u and hash(u + v) == hash(v + u)
    assert project_to_lie(FreeLRElem.from_vfield(CHART, u)) == u
    # a sum stores d1 before d0 and still prints in index order
    assert str(VField.basis(DIM, 1) + VField.basis(DIM, 0)) == "d0 + d1"


@settings(max_examples=200, deadline=None)
@given(weils, weils, scalars)
def test_weil_results_are_canonical(a, b, c):
    for result in (a + b, a - b, -a, a * b, b * a, a * a, a * c, c * a, a - a):
        assert_canonical_weil(result)
    assert a + b == b + a and hash(a + b) == hash(b + a)


@settings(max_examples=200, deadline=None)
@given(pvs, pvs, scalars)
def test_polyvector_results_are_canonical(p, q, c):
    for result in (p + q, p - q, -p, p * c, c * p, p - p, wedge(p, q), wedge(p, p), schouten(p, q), schouten(p, p)):
        assert_canonical_pv(result)
    assert p + q == q + p and hash(p + q) == hash(q + p)


def test_mixed_modules_neither_add_nor_compare_equal():
    one = Poly.const(DIM, 1)
    u = FreeLRElem.generator(CHART, 0)
    for chart in (ChartSpec(3, 4), ChartSpec(DIM, 5)):
        with pytest.raises(ChartMismatchError):
            u + FreeLRElem.generator(chart, 0)
    assert FreeLRElem.zero(CHART) != FreeLRElem.zero(ChartSpec(DIM, 5))
    a = WeilElem.unit(ARITY, DIM)
    with pytest.raises(ArityMismatchError):
        a + WeilElem.unit(ARITY + 1, DIM)
    with pytest.raises(ChartMismatchError):
        a - WeilElem.unit(ARITY, DIM + 1)
    assert WeilElem.zero(ARITY, DIM) != WeilElem.zero(ARITY + 1, DIM)
    p = Polyvector(DIM, {(0,): one})
    with pytest.raises(ChartMismatchError):
        p + Polyvector(DIM + 1, {(0,): Poly.const(DIM + 1, 1)})
    assert Polyvector.zero(DIM) != Polyvector.zero(DIM + 1)
    x = VField.basis(DIM, 0)
    with pytest.raises(ChartMismatchError):
        x + VField.basis(DIM + 1, 0)
    assert VField.zero(DIM) != VField.zero(DIM + 1)
    with pytest.raises(AttributeError):
        x.dim = DIM + 1
    # elements of different modules neither add nor compare equal
    with pytest.raises(TypeError):
        u + p
    with pytest.raises(TypeError):
        x + u
    assert u != p and p != FreeLRElem(CHART, {(0,): one})
    assert x != u and u != x and x != p and p != x
