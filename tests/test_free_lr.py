"""Lyndon machinery and the two brackets of the free Lie-Rinehart layer."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igc import (
    ChartSpec,
    DegreeOverflowError,
    DomainError,
    FreeLRElem,
    LyndonWord,
    Poly,
    RelativeSpec,
    VField,
    anchor_apply,
    free_bracket,
    lie_bracket_ext,
    lyndon_basis,
    project_to_lie,
    vertical_reduce,
    vf_apply,
    vf_bracket,
)
from igc import free_lr, lyndon
from igc.lyndon import standard_factorization, tensor_expansion
from igc.oracle import oracle_bracket, random_poly, random_vfield

CHART = ChartSpec(2, 4)
X0, X1 = Poly.var(2, 0), Poly.var(2, 1)
D0 = FreeLRElem.generator(CHART, 0)
D1 = FreeLRElem.generator(CHART, 1)


def elem(v: VField) -> FreeLRElem:
    return FreeLRElem.from_vfield(CHART, v)


def random_elem(rng, chart=CHART, max_len=2):
    out = FreeLRElem.from_vfield(chart, random_vfield(rng, chart.dim))
    for length in range(2, max_len + 1):
        words = lyndon_basis(chart.dim, length)
        if words:
            w = words[rng.randrange(len(words))]
            out = out + FreeLRElem(chart, {w: random_poly(rng, chart.dim)})
    return out


# Lyndon words ---------------------------------------------------------------


def brute_lyndon(word):
    return all(word < word[k:] + word[:k] for k in range(1, len(word)))


def test_lyndon_basis_small():
    assert [w.letters for w in lyndon_basis(2, 1)] == [(0,), (1,)]
    assert [w.letters for w in lyndon_basis(2, 2)] == [(0, 1)]
    # brute-force rotation test over every word agrees
    for d in range(1, 5):
        expected = sorted(w for w in product(range(2), repeat=d) if brute_lyndon(w))
        assert [w.letters for w in lyndon_basis(2, d)] == expected


def test_lyndon_counts_table():
    assert [len(lyndon_basis(2, d)) for d in range(1, 6)] == [2, 1, 2, 3, 6]
    assert [len(lyndon_basis(3, d)) for d in range(1, 5)] == [3, 3, 8, 18]
    assert lyndon_basis(1, 2) == []


def test_lyndon_basis_is_found_once_and_returned_in_a_new_list(monkeypatch):
    calls = []
    monkeypatch.setattr(lyndon, "is_lyndon", lambda w: calls.append(w) or brute_lyndon(w))
    free_lr._lyndon_basis.cache_clear()
    first = lyndon_basis(3, 4)
    assert len(first) == 18 and calls and all(type(w) is LyndonWord for w in first)
    calls.clear()
    first.append((0,))
    assert lyndon_basis(3, 4) == first[:-1] and not calls


def test_lyndon_word_validation():
    with pytest.raises(DomainError):
        LyndonWord((1, 0))
    with pytest.raises(DomainError):
        LyndonWord(())


def test_lyndon_word_is_its_letter_tuple():
    w = LyndonWord((0, 1))
    assert w == (0, 1) and hash(w) == hash((0, 1))
    assert type(w.letters) is tuple and w.letters == (0, 1)
    assert FreeLRElem(CHART, {w: X0}).terms[(0, 1)] == X0
    with pytest.raises(AttributeError):
        w.letters = (1,)


def test_standard_bracketing_is_triangular():
    # expansion of b(w) starts at w itself with coefficient 1
    for n, d in ((2, 3), (2, 4), (3, 3)):
        for w in lyndon_basis(n, d):
            exp = tensor_expansion(w.letters)
            assert min(exp) == w.letters and exp[w.letters] == 1
    # the right factor is the lexicographically least proper suffix
    u, v = standard_factorization((0, 0, 1, 1))
    assert u == (0,) and v == (0, 1, 1)
    u, v = standard_factorization((0, 1, 1))
    assert u == (0, 1) and v == (1,)


# free bracket ---------------------------------------------------------------


def test_free_bracket_alternating():
    assert free_bracket(D0, D0).is_zero()
    rng = Random(20)
    for _ in range(10):
        u = random_elem(rng)
        assert free_bracket(u, u).is_zero()


def test_free_bracket_leibniz_example():
    # [x1*d0, d1] = x1*F[d0,d1] - d0
    got = free_bracket(elem(VField([X1, Poly.zero(2)])), D1)
    want = FreeLRElem(CHART, {LyndonWord((0, 1)): X1, LyndonWord((0,)): -Poly.const(2, 1)})
    assert got == want
    assert str(got) == "x1*F[d0,d1] - d0"


def test_free_bracket_defining_relation():
    rng = Random(21)
    for _ in range(25):
        x, y = random_elem(rng), random_elem(rng)
        f = random_poly(rng, 2)
        lhs = free_bracket(x, y * f) - free_bracket(x * f, y)
        rhs = y * anchor_apply(x, f) + x * anchor_apply(y, f)
        assert lhs == rhs


def test_free_bracket_jacobi():
    rng = Random(22)
    for idx in range(15):
        x = random_elem(rng, max_len=1)
        y = random_elem(rng, max_len=1)
        z = random_elem(rng, max_len=2 if idx % 2 else 1)
        jac = (
            free_bracket(x, free_bracket(y, z))
            + free_bracket(y, free_bracket(z, x))
            + free_bracket(z, free_bracket(x, y))
        )
        assert jac.is_zero()


def test_free_bracket_degree_overflow_is_loud():
    chart = ChartSpec(3, 3)
    one = Poly.const(3, 1)
    u = FreeLRElem(chart, {LyndonWord((0, 1)): one})
    v = FreeLRElem(chart, {LyndonWord((0, 2)): one})
    with pytest.raises(DegreeOverflowError) as err:
        free_bracket(u, v)
    assert err.value.length == 4 and err.value.limit == 3


# the numerator kernel against the term-by-term expansion -------------------


def reference_free_bracket(u, v, vertical=frozenset()):
    """The free bracket expanded term by term with Poly arithmetic, one gcd per product."""
    chart = u.chart

    def kept(x):
        return {w: p for w, p in x.terms.items() if len(w) == 1 or not set(w) & vertical}

    acc = {}

    def add(word, p):
        acc[word] = acc.get(word, Poly.zero(chart.dim)) + p

    for w1, f in kept(u).items():
        for w2, g in kept(v).items():
            # bare monomial bracket; in the relative algebra any long word
            # containing a vertical letter is zero, so skip those wholesale
            if not (set(w1) | set(w2)) & vertical:
                fg = f * g
                for word, c in lyndon.monomial_bracket(w1, w2).items():
                    if len(word) > chart.max_degree:
                        raise DegreeOverflowError(len(word), chart.max_degree)
                    add(word, fg * c)
            # Leibniz corrections through the anchor
            if len(w1) == 1:
                add(w2, f * g.derive(w1[0]))
            if len(w2) == 1:
                add(w1, -(g * f.derive(w2[0])))
    return FreeLRElem(chart, {LyndonWord(w): p for w, p in acc.items()})


def polys(dim):
    """Polynomials of up to 3 terms, exponents 0-2 and coefficients n/d with |n| <= 3, d <= 3."""
    exps = st.tuples(*[st.integers(0, 2)] * dim)
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.dictionaries(exps, coeffs, max_size=3).map(lambda t: Poly(dim, t))


def elems(chart, max_len):
    """Elements of up to 4 terms on words of length 1 to max_len, cut at max_degree."""
    words = [w for d in range(1, min(max_len, chart.max_degree) + 1) for w in lyndon_basis(chart.dim, d)]
    return st.dictionaries(st.sampled_from(words), polys(chart.dim), max_size=4).map(lambda t: FreeLRElem(chart, t))


@st.composite
def bracket_cases(draw):
    """A chart of dimension 1-3, a vertical set, and two elements on words of length 1-3."""
    dim = draw(st.integers(1, 3))
    chart = ChartSpec(dim, draw(st.integers(1, 6)))
    vertical = draw(st.sampled_from([frozenset(), frozenset({0}), frozenset(range(dim))]))
    return chart, vertical, draw(elems(chart, 3)), draw(elems(chart, 3))


def _outcome(bracket, *args):
    try:
        return bracket(*args)
    except DomainError as err:
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(bracket_cases())
def test_free_bracket_kernel_matches_term_by_term(case):
    chart, vertical, u, v = case
    got = _outcome(free_bracket, u, v, RelativeSpec(chart, vertical))
    assert got == _outcome(reference_free_bracket, u, v, vertical)
    if not vertical:
        assert _outcome(free_bracket, u, v) == got


@st.composite
def degree1_pairs(draw):
    """A chart of dimension 1-4 and two degree-1 elements with multi-term coefficients."""
    dim = draw(st.integers(1, 4))
    chart = ChartSpec(dim, draw(st.sampled_from([1, 2, 4])))
    letters = st.dictionaries(st.integers(0, dim - 1).map(lambda i: (i,)), polys(dim), max_size=dim)
    return chart, FreeLRElem(chart, draw(letters)), FreeLRElem(chart, draw(letters))


@settings(max_examples=300, deadline=None)
@given(degree1_pairs())
def test_degree1_kernel_matches_term_by_term(pair):
    chart, u, v = pair
    assert _outcome(free_bracket, u, v) == _outcome(reference_free_bracket, u, v)
    assert _outcome(free_bracket, u, v, RelativeSpec(chart)) == _outcome(free_bracket, u, v)
    assert lie_bracket_ext(u, v) == reference_lie_bracket_ext(u, v)
    a, b = project_to_lie(u), project_to_lie(v)
    assert vf_bracket(a, b) == VField([vf_apply(a, b.coeffs[i]) - vf_apply(b, a.coeffs[i]) for i in range(chart.dim)])
    # the free bracket overflows at max_degree 1 exactly when two distinct letters meet
    distinct = any(i != j for (i,) in u.terms for (j,) in v.terms)
    overflow = (DegreeOverflowError, str(DegreeOverflowError(2, 1)))
    assert (_outcome(free_bracket, u, v) == overflow) == (chart.max_degree == 1 and distinct)


# extended classical bracket --------------------------------------------------


def reference_lie_bracket_ext(u, v):
    """lie_bracket_ext expanded term by term: one element per pair of terms, each derivation worked on its own."""
    chart = u.chart
    one = Poly.const(chart.dim, 1)

    def monomial(word, p=one):
        return FreeLRElem(chart, {LyndonWord(word): p})

    def term(f, w1, g, w2):
        if len(w2) >= 2:
            # [x, g*m] = g*[x,m] + x(g)*m  with m = F[b(a), b(b)] expanded as a
            # derivation of the free bracket
            a, b = standard_factorization(w2)
            inner_a, inner_b = term(f, w1, one, a), term(f, w1, one, b)
            part = (free_bracket(inner_a, monomial(b)) + free_bracket(monomial(a), inner_b)) * g
            if len(w1) == 1:
                part = part + monomial(w2, f * g.derive(w1[0]))
            return part
        if len(w1) == 1:
            # classical coordinate bracket of f*d_i and g*d_j
            return monomial(w2, f * g.derive(w1[0])) - monomial(w1, g * f.derive(w2[0]))
        return -term(g, w2, f, w1)

    total = FreeLRElem.zero(chart)
    for w1, f in u.terms.items():
        for w2, g in v.terms.items():
            total = total + term(f, w1, g, w2)
    return total


@st.composite
def lie_cases(draw):
    """A chart of dimension 1-3 and two elements, on words of length 1-3 and 1-4."""
    chart = ChartSpec(draw(st.integers(1, 3)), draw(st.integers(1, 6)))
    return draw(elems(chart, 3)), draw(elems(chart, 4))


@settings(max_examples=200, deadline=None)
@given(lie_cases())
def test_lie_bracket_ext_matches_term_by_term(case):
    u, v = case
    for x, y in ((u, v), (v, u)):
        got = _outcome(lie_bracket_ext, x, y)
        want = _outcome(reference_lie_bracket_ext, x, y)
        if isinstance(want, tuple):
            # a refusal keeps its class; the derivation may meet a different
            # overflowing bracket first, so the length it names may move
            got, want = got[:1] if isinstance(got, tuple) else got, want[:1]
        assert got == want


def test_lie_bracket_degree_one_is_classical():
    got = lie_bracket_ext(D0, elem(VField([Poly.zero(2), X0])))
    assert got == D1
    rng = Random(23)
    for _ in range(20):
        u, v = random_elem(rng, max_len=1), random_elem(rng, max_len=1)
        want = elem(oracle_bracket(project_to_lie(u), project_to_lie(v)))
        assert lie_bracket_ext(u, v) == want


def test_lie_bracket_derivation_examples():
    assert lie_bracket_ext(D0, free_bracket(D0, D1)).is_zero()
    x0d0 = elem(VField([X0, Poly.zero(2)]))
    assert lie_bracket_ext(x0d0, free_bracket(D0, D1)) == -free_bracket(D0, D1)


def test_lie_bracket_derivation_rule_random():
    rng = Random(24)
    for idx in range(15):
        x = random_elem(rng, max_len=1)
        y = random_elem(rng, max_len=2 if idx % 2 else 1)
        z = random_elem(rng, max_len=1)
        lhs = lie_bracket_ext(x, free_bracket(y, z))
        rhs = free_bracket(lie_bracket_ext(x, y), z) + free_bracket(y, lie_bracket_ext(x, z))
        assert lhs == rhs


def test_lie_bracket_antisymmetric_against_degree_one():
    rng = Random(25)
    for _ in range(10):
        x = random_elem(rng, max_len=1)
        y = random_elem(rng, max_len=2)
        assert lie_bracket_ext(x, y) == -lie_bracket_ext(y, x)


# anchor and projection --------------------------------------------------------


def test_anchor_examples():
    assert anchor_apply(free_bracket(D0, D1), random_poly(Random(1), 2)).is_zero()
    u = free_bracket(elem(VField([X1, Poly.zero(2)])), D1)
    assert anchor_apply(u, X0) == Poly.const(2, -1)
    f = random_poly(Random(2), 2)
    g = random_poly(Random(3), 2)
    assert anchor_apply(elem(VField([f, Poly.zero(2)])), g) == f * g.derive(0)


def test_project_examples():
    assert project_to_lie(free_bracket(D0, D1)).is_zero()
    assert project_to_lie(free_bracket(D0, elem(VField([Poly.zero(2), X0])))) == VField.basis(2, 1)
    u = free_bracket(D0, elem(VField([Poly.zero(2), X0]))) * X0 + D0
    assert project_to_lie(u) == VField([Poly.const(2, 1), X0])


def test_projection_is_lie_hom_for_both_brackets():
    rng = Random(26)
    for _ in range(15):
        u, v = random_elem(rng), random_elem(rng)
        classical = vf_bracket(project_to_lie(u), project_to_lie(v))
        assert project_to_lie(free_bracket(u, v)) == classical
        assert project_to_lie(lie_bracket_ext(u, v)) == classical


# relative algebras ------------------------------------------------------------


def test_vertical_reduce_examples():
    spec = RelativeSpec(CHART, frozenset({1}))
    got = free_bracket(elem(VField([Poly.zero(2), X0])), D0, spec)
    assert got == -D1
    # no vertical letters: identity on normal forms
    free_spec = RelativeSpec(CHART, frozenset())
    u = free_bracket(D0, elem(VField([Poly.zero(2), X0])))
    assert vertical_reduce(u, free_spec) == u
    # all letters vertical: collapse to classical fields
    all_spec = RelativeSpec(CHART, frozenset({0, 1}))
    rng = Random(27)
    for _ in range(10):
        a, b = random_vfield(rng, 2), random_vfield(rng, 2)
        got = free_bracket(elem(a), elem(b), all_spec)
        assert got == elem(oracle_bracket(a, b))


def test_vertical_reduce_trees_idempotent():
    spec = RelativeSpec(CHART, frozenset({1}))
    tree = ("bracket", ("scale", X0, ("gen", 1)), ("bracket", ("gen", 0), ("gen", 1)))
    reduced = vertical_reduce(tree, spec)
    assert vertical_reduce(reduced, spec) == reduced
    for w in reduced.terms:
        assert len(w) == 1 or 1 not in w.letters


def test_vertical_reduce_antisymmetry_of_tree_orders():
    spec = RelativeSpec(CHART, frozenset({1}))
    a = ("scale", X0, ("gen", 1))
    b = ("bracket", ("gen", 0), ("gen", 1))
    assert vertical_reduce(("bracket", a, b), spec) == -vertical_reduce(("bracket", b, a), spec)


def test_relative_spec_validation():
    with pytest.raises(DomainError):
        RelativeSpec(CHART, frozenset({5}))


def test_relative_spec_is_a_hashable_value():
    spec = RelativeSpec(CHART, [1, 1])
    assert spec.vertical == frozenset({1}) and type(spec.vertical) is frozenset
    assert spec == RelativeSpec(CHART, frozenset({1})) and hash(spec) == hash(RelativeSpec(CHART, {1}))
    assert RelativeSpec(CHART) == RelativeSpec(CHART, []) and RelativeSpec(CHART).vertical == frozenset()
    assert spec != RelativeSpec(CHART) and spec != RelativeSpec(ChartSpec(CHART.dim, CHART.max_degree + 1), [1])
    assert {spec: 1, RelativeSpec(CHART, (1,)): 2} == {spec: 2}
    assert repr(spec) == f"RelativeSpec(chart={CHART!r}, vertical=frozenset({{1}}))"
    with pytest.raises(AttributeError):
        spec.vertical = frozenset()
    assert spec.vertical == frozenset({1})
