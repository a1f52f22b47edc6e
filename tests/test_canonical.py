"""Every internal result is canonical, so the unchecked private constructors are safe.

Sums, products, derivatives and brackets wrap their dicts without a second
validation pass; a `Poly` result only cancels the common factor of its int
numerators and denominator.  These properties check, over random operands
with many colliding and cancelling terms, that each such result is exactly
what the validating public constructor would have built from the same data.
"""

from fractions import Fraction
from itertools import chain
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
    KField,
    LyndonWord,
    Poly,
    Polyvector,
    RelativeSpec,
    VField,
    WeilElem,
    act,
    act_transposition,
    add_over_face,
    compose,
    cup,
    face,
    free_bracket,
    homotopy,
    lie_bracket_ext,
    project_to_lie,
    reduce_to_polyvector,
    schouten,
    strong_diff,
    vf_bracket,
    vf_pushforward,
    wedge,
)
from igc.free_lr import _drop_vertical
from igc.lyndon import is_lyndon
from igc.parsing import Session, as_elem, parse_expression
from parse_corpus import kfield_literal
from test_free_lr import reference_free_bracket, reference_lie_bracket_ext

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
comp_dicts = st.dictionaries(st.sampled_from(SUBSETS[1:]), elems, max_size=4)
kfields = comp_dicts.map(lambda t: KField(CHART, ARITY, t))
# first-order 2-fields, the second factors `cup` accepts
singles = st.dictionaries(st.sampled_from(SUBSETS[1:3]), elems).map(lambda t: KField(CHART, 2, t))


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


def assert_stored(x):
    """num/den of a free-module element as stored: int numerators, none zero and no label empty, over a reduced den."""
    assert type(x.den) is int and x.den > 0
    for n in x.num.values():
        assert n and all(type(k) is int and type(c) is int and c != 0 for k, c in n.items())
    assert gcd(x.den, *(c for n in x.num.values() for c in n.values())) == 1


def assert_stored_elem(u: FreeLRElem):
    """num/den as stored, by LyndonWord."""
    assert_stored(u)
    assert all(type(w) is LyndonWord for w in u.num)


def assert_canonical_elem(u: FreeLRElem):
    assert u.chart == CHART
    assert_stored_elem(u)
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


def assert_canonical_kfield(nu: KField):
    assert nu.chart == CHART
    for phi, elem in nu.components.items():
        assert type(phi) is frozenset and phi and all(type(i) is int and 0 <= i < nu.arity for i in phi)
        assert not elem.is_zero()
        assert_canonical_elem(elem)
    rebuilt = KField(nu.chart, nu.arity, nu.components)
    assert rebuilt == nu and hash(rebuilt) == hash(nu) and str(rebuilt) == str(nu)


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


def reference_str(u: FreeLRElem) -> str:
    """How an element printed when each word held its own reduced Poly."""
    chunks = []
    for w in sorted(u.terms, key=lambda w: (-len(w), w)):
        p, atom = u.terms[w], FreeLRElem._word_str(w)
        text = str(p)
        if len(p.num) == 1:
            body = text.lstrip("-")
            chunks.append((text.startswith("-"), atom if body == "1" else f"{body}*{atom}"))
        else:
            chunks.append((False, f"({text})*{atom}"))
    if not chunks:
        return "0"
    out = "".join((" - " if negative else " + ") + text for negative, text in chunks)
    return out[3:] if out[1] == "+" else "-" + out[3:]


def reference_json(u: FreeLRElem) -> list:
    return [{"word": list(w), "coeff": str(u.terms[w])} for w in sorted(u.terms, key=lambda w: (len(w), w))]


# coefficients over several denominators, so the routes below lift and cancel differently
route_coeffs = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9]))
route_polys = st.dictionaries(exponents, route_coeffs, min_size=1, max_size=3).map(lambda t: Poly(DIM, t))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(route_polys, min_size=DIM, max_size=DIM), route_polys, st.sampled_from([5, 7, 35]))
def test_equal_elements_store_one_form_along_every_route(coeffs, f, q):
    # one classical value a = sum_i a_i*d_i, built along several routes
    gens = [FreeLRElem.generator(CHART, i) for i in range(DIM)]
    routes = [
        FreeLRElem(CHART, {(i,): p for i, p in enumerate(coeffs)}),
        FreeLRElem.from_vfield(CHART, VField(coeffs)),
        sum((g * p for g, p in zip(gens, coeffs)), FreeLRElem.zero(CHART)),
        sum((p * g for g, p in reversed(list(zip(gens, coeffs)))), FreeLRElem.zero(CHART)),
    ]
    # a long word whose coefficient alone carries the factor q of the denominator
    with_long = routes[0] + FreeLRElem(CHART, {(0, 1): Poly.const(DIM, Fraction(1, q))})
    assert with_long.den % q == 0
    routes += [
        _drop_vertical(with_long, frozenset({1})),
        FreeLRElem.from_vfield(CHART, project_to_lie(with_long)),
        with_long - FreeLRElem(CHART, {(0, 1): Poly.const(DIM, Fraction(1, q))}),
    ]
    # [f*d_0, d_0] = -d_0(f)*d_0: a bracket result against the constructor
    pairs = [
        (free_bracket(gens[0] * f, gens[0]), FreeLRElem(CHART, {(0,): -f.derive(0)})),
        (lie_bracket_ext(gens[0] * f, gens[0]), FreeLRElem(CHART, {(0,): -f.derive(0)})),
    ]
    pairs += [(u, routes[0]) for u in routes[1:]]
    pairs.append((routes[2] * Fraction(1, q), FreeLRElem(CHART, {(i,): p * Fraction(1, q) for i, p in enumerate(coeffs)})))
    for got, want in pairs:
        assert_stored_elem(got)
        assert (got.num, got.den) == (want.num, want.den) and got == want and hash(got) == hash(want)
        assert dict(got.terms) == {w: Poly(DIM, p.terms) for w, p in want.terms.items()}
        assert str(got) == reference_str(want) and got.to_json() == reference_json(want)


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


@settings(max_examples=150, deadline=None)
@given(kfields, kfields, singles, comp_dicts, st.sampled_from([(0, 1), (0, 2), (1, 2)]), st.sampled_from(["free", "lie"]))
def test_kfield_results_are_canonical(mu, nu, first_order, extra, pair, flavor):
    i, j = pair
    results = [face(mu, s) for s in range(ARITY)]
    results += [cup(mu, first_order), compose(mu, nu), compose(first_order, mu)]
    results += [act([i], mu, flavor), act_transposition(mu, i, j, flavor), homotopy(mu, i, j)]
    # the twin agrees with mu off the sets holding both i and j, and on those
    # it differs only where extra has an entry, so some differences vanish
    twin = {phi: elem for phi, elem in mu.components.items() if not {i, j} <= phi}
    twin.update((phi, extra.get(phi, mu.component(phi))) for phi in SUBSETS if {i, j} <= phi)
    results += [strong_diff(mu, KField(CHART, ARITY, twin), pair), strong_diff(mu, mu, pair)]
    # the partner agrees with mu inside psi and cancels it outside, except where extra has an entry
    psi = frozenset(pair)
    partner = {phi: elem for phi, elem in mu.components.items() if phi <= psi}
    partner.update((phi, extra.get(phi, -mu.component(phi))) for phi in SUBSETS[1:] if not phi <= psi)
    results += [add_over_face(mu, KField(CHART, ARITY, partner), psi), add_over_face(mu, mu, psi)]
    for result in results:
        assert_canonical_kfield(result)


def top_level_terms(expression: str) -> list[str]:
    """The terms of a sum joined by " + ", outside parentheses and brackets."""
    terms, depth, start = [], 0, 0
    for at, char in enumerate(expression):
        depth += (char in "([") - (char in ")]")
        if not depth and expression.startswith(" + ", at):
            terms.append(expression[start:at])
            start = at + 3
    return terms + [expression[start:]]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3]), st.sampled_from(["as drawn", "twice", "cancelled"]))
def test_a_k_literal_is_the_field_the_public_constructor_builds(rng, dim, twist):
    # the parser checks a K literal once and wraps it unchecked, and sums a component's generator terms by word:
    # the field is the one `KField` builds from each component parsed alone, and each component is stored as
    # `FreeLRElem` stores it.  The last component may be read twice, so that its terms collide and may need a
    # reduction, or followed by each of its terms negated, so that it vanishes and is dropped
    chart = ChartSpec(dim, 4)
    session = Session(chart)
    arity, *parts = kfield_literal(rng, dim)[2:-1].split("; ")
    slots, _, expression = parts[-1].partition(": ")
    if twist == "twice":
        expression += " + " + expression
    elif twist == "cancelled":
        expression += "".join(f" - {term}" for term in top_level_terms(expression))
    parts[-1] = f"{slots}: {expression}"
    components = {}
    for part in parts:
        slots, _, expression = part.partition(": ")
        components[frozenset(map(int, slots.split(",")))] = as_elem(parse_expression(expression, session), chart)
    field = parse_expression("K{" + "; ".join([arity, *parts]) + "}", session)
    assert field == KField(chart, int(arity.removeprefix("arity=")), components)
    for elem in field.components.values():
        assert_stored_elem(elem)
        assert elem == FreeLRElem(chart, elem.terms) and hash(elem) == hash(FreeLRElem(chart, elem.terms))


def test_reduce_drops_components_whose_projection_vanishes():
    # F[d0,d1] projects to zero, which leaves the one-set support {1}: a chain
    chart = ChartSpec(DIM, 4)
    long_word = FreeLRElem(chart, {(0, 1): Poly.const(DIM, 1)})
    nu = KField(chart, 2, {frozenset({0}): long_word, frozenset({1}): FreeLRElem.generator(chart, 0)})
    assert reduce_to_polyvector(nu) == Polyvector(DIM, {(0,): Poly.const(DIM, 1)})


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


# the free-module operations worked Poly by Poly: each returns {label: Poly}, zero parts dropped


def poly_sum(pairs) -> dict:
    acc = {}
    for label, p in pairs:
        acc[label] = acc.get(label, Poly.zero(p.dim)) + p
    return {label: p for label, p in acc.items() if p}


def sorted_with_sign(idx):
    """idx sorted and the sign of the sorting permutation; None when an index repeats."""
    if len(set(idx)) < len(idx):
        return None
    inversions = sum(a > b for n, a in enumerate(idx) for b in idx[n + 1 :])
    return tuple(sorted(idx)), (-1) ** inversions


def reference_vf_bracket(u, v):
    return poly_sum(chain(
        ((j, a * b.derive(i)) for i, a in u.terms.items() for j, b in v.terms.items()),
        ((j, -(b * a.derive(i))) for i, b in v.terms.items() for j, a in u.terms.items()),
    ))


def reference_weil_product(a, b):
    return poly_sum((phi | psi, p * q) for phi, p in a.terms.items() for psi, q in b.terms.items() if not phi & psi)


def reference_wedge(p, q):
    return poly_sum(
        (norm[0], c1 * c2 * norm[1])
        for i1, c1 in p.terms.items()
        for i2, c2 in q.terms.items()
        if (norm := sorted_with_sign(i1 + i2))
    )


def reference_schouten(p, q):
    def parts(i1, f, i2, g):
        a = len(i1)
        for r, i in enumerate(i1):
            yield i1[:r] + i1[r + 1 :] + i2, f * g.derive(i) * (-1) ** (r + a - 1)
        for s, j in enumerate(i2):
            yield i1 + i2[:s] + i2[s + 1 :], -(g * f.derive(j)) * (-1) ** s

    return poly_sum(
        (norm[0], c * norm[1])
        for i1, f in p.terms.items()
        for i2, g in q.terms.items()
        for idx, c in parts(i1, f, i2, g)
        if (norm := sorted_with_sign(idx))
    )


def reference_pushforward(v, target_dim, emb):
    def moved(exps):
        new = [0] * target_dim
        for i, e in enumerate(exps):
            new[emb[i]] = e
        return tuple(new)

    return {emb[i]: Poly(target_dim, {moved(e): c for e, c in p.terms.items()}) for i, p in v.terms.items()}


def module_cases(x, y, c):
    """(result, its Poly-by-Poly terms) for the base operations on two elements of one module."""
    tx, ty = x.terms.items(), y.terms.items()
    return [
        (x + y, poly_sum(chain(tx, ty))),
        (x - y, poly_sum(chain(tx, ((b, -p) for b, p in ty)))),
        (-x, {b: -p for b, p in tx}),
        (x - x, {}),
        (x * c, poly_sum((b, p * c) for b, p in tx)),
        (c * y, poly_sum((b, p * c) for b, p in ty)),
    ]


# coefficients over several denominators, so results lift over an lcm and cancel
stored_polys = st.dictionaries(exponents, route_coeffs, max_size=3).map(lambda t: Poly(DIM, t))
stored_scalars = st.one_of(st.integers(-3, 3), route_coeffs, stored_polys)
stored_vfields = st.lists(stored_polys, min_size=DIM, max_size=DIM).map(VField)
stored_elems = st.dictionaries(st.sampled_from(WORDS), stored_polys, max_size=3).map(lambda t: FreeLRElem(CHART, t))
stored_weils = st.dictionaries(st.sampled_from(SUBSETS), stored_polys, max_size=4).map(
    lambda t: WeilElem(ARITY, DIM, t)
)
stored_pvs = st.dictionaries(st.sampled_from(INDEX_TUPLES), stored_polys, max_size=4).map(lambda t: Polyvector(DIM, t))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.tuples(stored_vfields, stored_vfields),
    st.tuples(stored_elems, stored_elems),
    st.tuples(stored_weils, stored_weils),
    st.tuples(stored_pvs, stored_pvs),
    stored_scalars,
    specs,
    st.integers(0, ARITY - 1),
)
def test_every_module_result_is_stored_canonically(vfs, lrs, ws, pv, c, spec, i):
    # each result is num/den in the one form, and its terms are the same operation worked Poly by Poly
    (u, v), (e, f), (a, b), (p, q) = vfs, lrs, ws, pv
    cases = module_cases(u, v, c) + module_cases(e, f, c) + module_cases(a, b, c) + module_cases(p, q, c)
    cases += [
        (vf_bracket(u, v), reference_vf_bracket(u, v)),
        (vf_bracket(u, u), {}),
        (project_to_lie(e), {w[0]: g for w, g in e.terms.items() if len(w) == 1}),
        (FreeLRElem.from_vfield(CHART, u), {LyndonWord((j,)): g for j, g in u.terms.items()}),
        (Polyvector.from_vfield(u), {(j,): g for j, g in u.terms.items()}),
        (vf_pushforward(u, 3, (0, 2)), reference_pushforward(u, 3, (0, 2))),
        (a * b, reference_weil_product(a, b)),
        (a * a, reference_weil_product(a, a)),
        (a.set_generator_zero(i), {frozenset(x - (x > i) for x in phi): g for phi, g in a.terms.items() if i not in phi}),
        (a.shift(1, ARITY + 1), {frozenset(x + 1 for x in phi): g for phi, g in a.terms.items()}),
        (wedge(p, q), reference_wedge(p, q)),
        (wedge(p, p), reference_wedge(p, p)),
        (schouten(p, q), reference_schouten(p, q)),
        (schouten(p, p), reference_schouten(p, p)),
        (free_bracket(e, f), dict(reference_free_bracket(e, f).terms)),
        (free_bracket(e, f, spec), dict(reference_free_bracket(e, f, spec.vertical).terms)),
        (lie_bracket_ext(e, f), dict(reference_lie_bracket_ext(e, f).terms)),
    ]
    for got, want in cases:
        assert_stored(got)
        assert dict(got.terms) == want
