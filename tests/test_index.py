"""One index rule, one count rule and one budget rule at every public entry point.

An index is an int that is not a bool, with 0 <= i < n; anything else is
refused with a one-line DomainError that says "not an int" or "out of range".
A count (a dimension, an arity, a degree cutoff, an exponent, a length) is an
int that is not a bool, at least its floor; anything else is refused with a
one-line DomainError that says "not an int" or "must be >= FLOOR, got VALUE".
A count past its size cap is refused with a one-line DomainError that says
"WHAT COUNT exceeds the budget of Owner.NAME = LIMIT".
"""

from itertools import combinations

import pytest

from igc import (
    ChartSpec,
    CupFactorization,
    DomainError,
    FreeLRElem,
    KField,
    Poly,
    Polyvector,
    RelativeSpec,
    VField,
    WeilElem,
    WeilMorphism,
    act,
    act_transposition,
    add_over_face,
    face,
    homotopy,
    is_trivial_homotopy,
    kfield_to_weil,
    lyndon_basis,
    oracle_lyndon_count,
    oracle_quotient_lowdegree,
    reduce_to_polyvector,
    schouten,
    strong_diff,
    vf_apply,
    vf_pushforward,
    wedge,
)

CHART = ChartSpec(3, 4)
ONE = Poly.const(3, 1)
D0 = FreeLRElem.generator(CHART, 0)
NU = KField(CHART, 3, {frozenset({0}): D0, frozenset({2}): FreeLRElem.generator(CHART, 1)})
MU = KField(CHART, 3, {frozenset({0}): D0, frozenset({0, 1, 2}): D0})
W = WeilElem(3, 3, {frozenset({0, 2}): ONE, frozenset({1}): Poly.var(3, 0)})

# (name, n, the call on one index, a valid index, the printed value there)
ENTRY_POINTS = [
    ("Poly.var", 3, lambda i: Poly.var(3, i), 1, "x1"),
    ("Poly.derive", 3, lambda i: Poly(3, {(1, 1, 1): 2}).derive(i), 1, "2*x0*x2"),
    ("VField.basis", 3, lambda i: VField.basis(3, i), 2, "d2"),
    ("vf_pushforward", 3, lambda i: vf_pushforward(VField([Poly.var(1, 0)]), 3, [i]), 1, "x1*d1"),
    ("RelativeSpec", 3, lambda i: sorted(RelativeSpec(CHART, [0, i]).vertical), 2, "[0, 2]"),
    ("FreeLRElem letter", 3, lambda i: FreeLRElem(CHART, {(i,): ONE}), 1, "d1"),
    ("FreeLRElem word", 3, lambda i: FreeLRElem(CHART, {(0, i): ONE}), 2, "F[d0,d2]"),
    ("KField index set", 3, lambda i: KField(CHART, 3, {frozenset({i}): D0}), 1, "K{arity=3; 1: d0}"),
    ("WeilElem index set", 3, lambda i: WeilElem(3, 3, {frozenset({i}): ONE}), 2, "(1)*e2"),
    ("face", 3, lambda i: face(NU, i), 1, "K{arity=2; 0: d0; 1: d1}"),
    ("add_over_face", 3, lambda i: add_over_face(MU, MU, [0, i]), 1, "K{arity=3; 0: d0; 0,1,2: 2*d0}"),
    ("strong_diff i", 3, lambda i: strong_diff(MU, MU, (i, 2)), 0, "K{arity=2}"),
    ("strong_diff j", 3, lambda i: strong_diff(MU, MU, (1, i)), 2, "K{arity=2; 0: d0}"),
    ("act_transposition i", 3, lambda i: act_transposition(NU, i, 2), 0, "K{arity=3; 0: d1; 0,2: F[d0,d1]; 2: d0}"),
    ("act_transposition j", 3, lambda i: act_transposition(NU, 0, i), 1, "K{arity=3; 1: d0; 2: d1}"),
    ("homotopy i", 3, lambda i: homotopy(NU, i, 2), 0, "K{arity=2; 0: F[d0,d1]}"),
    ("homotopy j", 3, lambda i: homotopy(NU, 1, i), 2, "K{arity=2; 0: d0}"),
    ("act", 2, lambda i: act([i], NU), 1, "K{arity=3; 0: d0; 1: d1}"),
    ("Polyvector", 3, lambda i: Polyvector(3, {(i, 0): ONE}), 2, "-d0 ^ d2"),
    ("WeilElem.set_generator_zero", 3, lambda i: W.set_generator_zero(i), 1, "(1)*e0e1"),
]

ARITIES = [
    ("KField arity", lambda a: KField(CHART, a, {frozenset({0}): D0}), "K{arity=2; 0: d0}"),
    ("WeilElem arity", lambda a: WeilElem(a, 3, {frozenset({1}): ONE}), "(1)*e1"),
]


CHART2 = ChartSpec(2, 4)
X0_PLUS_E0 = WeilElem(1, 1, {frozenset(): Poly.var(1, 0), frozenset({0}): Poly.const(1, 1)})
E0 = WeilElem.generator(1, 2, 0)

# (name, the call on one count, its floor, a valid count, the printed value there)
COUNTS = [
    ("ChartSpec dim", lambda n: ChartSpec(n, 4), 1, 3, "ChartSpec(dim=3, max_degree=4)"),
    ("ChartSpec max_degree", lambda n: ChartSpec(3, n), 1, 2, "ChartSpec(dim=3, max_degree=2)"),
    ("Poly dim", lambda n: Poly(n, {}), 1, 2, "0"),
    ("Poly.zero", lambda n: Poly.zero(n), 1, 2, "0"),
    ("Poly.const", lambda n: Poly.const(n, 3), 1, 2, "3"),
    ("Poly.var", lambda n: Poly.var(n, 0), 1, 2, "x0"),
    ("Poly exponent", lambda e: Poly(2, {(e, 0): 1}), 0, 2, "x0^2"),
    ("Poly.__pow__", lambda e: Poly.var(2, 0) ** e, 0, 2, "x0^2"),
    ("WeilElem.__pow__", lambda e: WeilElem(2, 3, {frozenset(): ONE, frozenset({0}): ONE}) ** e, 0, 2,
     "(1) + (2)*e0"),
    ("KField arity", lambda a: KField(CHART, a, {}), 1, 2, "K{arity=2}"),
    ("WeilElem arity", lambda a: WeilElem(a, 3, {}), 0, 2, "0"),
    ("WeilElem dim", lambda n: WeilElem(2, n, {}), 1, 3, "0"),
    ("WeilMorphism arity", lambda a: WeilMorphism(a, 1, [X0_PLUS_E0]), 0, 1, "WeilMorphism(x0 -> (x0) + (1)*e0)"),
    ("WeilMorphism dim", lambda n: WeilMorphism(1, n, [X0_PLUS_E0]), 1, 1, "WeilMorphism(x0 -> (x0) + (1)*e0)"),
    ("WeilMorphism.from_callable dim", lambda n: WeilMorphism.from_callable(1, n, lambda f: WeilElem.scalar(1, f)),
     1, 2, "WeilMorphism(x0 -> (x0), x1 -> (x1))"),
    ("CupFactorization arity", lambda a: CupFactorization(a, 2, [E0]).images, 0, 1, "(WeilElem((1)*e0),)"),
    ("CupFactorization dim", lambda n: CupFactorization(1, n, [E0]).images, 1, 2, "(WeilElem((1)*e0),)"),
    ("Polyvector", lambda n: Polyvector(n, {(0, 2): ONE}), 1, 3, "d0 ^ d2"),
    ("Polyvector.zero", lambda n: Polyvector.zero(n), 1, 3, "0"),
    ("VField.basis", lambda n: VField.basis(n, 0), 1, 2, "d0"),
    ("vf_pushforward", lambda n: vf_pushforward(VField([Poly.var(1, 0)]), n, [0]), 1, 2, "x0*d0"),
    ("lyndon_basis alphabet", lambda n: lyndon_basis(n, 3), 1, 2, "[LyndonWord(0, 0, 1), LyndonWord(0, 1, 1)]"),
    ("lyndon_basis length", lambda d: lyndon_basis(2, d), 1, 3, "[LyndonWord(0, 0, 1), LyndonWord(0, 1, 1)]"),
    ("oracle_lyndon_count alphabet", lambda n: oracle_lyndon_count(n, 3), 1, 2, "2"),
    ("oracle_lyndon_count length", lambda d: oracle_lyndon_count(2, d), 1, 3, "2"),
    ("oracle_quotient_lowdegree", lambda d: oracle_quotient_lowdegree(RelativeSpec(CHART2, ()), d, (0,)).cases, 1, 2,
     "1"),
]


def assert_one_line_refusal(call, value, reason):
    with pytest.raises(DomainError, match=reason) as err:
        call(value)
    assert type(err.value) is DomainError and "\n" not in str(err.value)


@pytest.mark.parametrize("name, n, call, valid, want", ENTRY_POINTS, ids=[e[0] for e in ENTRY_POINTS])
def test_every_index_follows_one_rule(name, n, call, valid, want):
    for value in (0.5, True, False, "1", None):
        assert_one_line_refusal(call, value, "not an int")
    for value in (-1, n, n + 10**30):
        assert_one_line_refusal(call, value, "out of range")
    assert str(call(valid)) == want


@pytest.mark.parametrize("name, call, want", ARITIES, ids=[a[0] for a in ARITIES])
def test_every_arity_is_an_int(name, call, want):
    for value in (2.5, 2.0, True, "2"):
        assert_one_line_refusal(call, value, "not an int")
    assert str(call(2)) == want


@pytest.mark.parametrize("name, call, floor, valid, want", COUNTS, ids=[c[0] for c in COUNTS])
def test_every_count_follows_one_rule(name, call, floor, valid, want):
    for value in (True, 2.0, "2"):
        assert_one_line_refusal(call, value, "not an int")
    assert_one_line_refusal(call, floor - 1, f"must be >= {floor}, got {floor - 1}$")
    assert str(call(valid)) == want


K2 = KField(CHART2, 2, {frozenset({0}): FreeLRElem.generator(CHART2, 0)})
W2 = WeilElem(2, 2, {frozenset({0}): Poly.var(2, 1)})
LOOKUPS = [
    ("KField.component", K2.component, "d0", "0"),
    ("KField.component_vfield", K2.component_vfield, "d0", "0"),
    ("WeilElem.part", W2.part, "x1", "0"),
]


@pytest.mark.parametrize("name, lookup, stored, missing", LOOKUPS, ids=[entry[0] for entry in LOOKUPS])
def test_public_lookups_follow_the_index_rule(name, lookup, stored, missing):
    for phi in ({0.0}, {True}, {"0"}):
        assert_one_line_refusal(lookup, phi, "not an int")
    for phi in ({7}, {-1}, {0, 2}):
        assert_one_line_refusal(lookup, phi, "out of range")
    assert (str(lookup({0})), str(lookup([1])), str(lookup(frozenset({0, 1})))) == (stored, missing, missing)


def test_strong_diff_refuses_a_pair_that_is_not_two_slot_indices():
    for pair in ((0, 1, 2), (0,), (), 5, None):
        assert_one_line_refusal(lambda p: strong_diff(MU, MU, p), pair, "is not two slot indices")
    assert str(strong_diff(MU, MU, [1, 2])) == "K{arity=2; 0: d0}"


def poly_terms(n):
    """1 + x0 + ... + x0^(n-1), a polynomial of n terms."""
    return Poly(1, {(e,): 1 for e in range(n)})


def product(n):
    """A product of two polynomials of two terms or more that forms n term products."""
    d = next(d for d in range(2, n) if n % d == 0)
    return poly_terms(d) * poly_terms(n // d)


def polyvector_terms(n):
    """A polyvector of n monomials on a 5-dimensional chart."""
    indices = [idx for grade in range(1, 6) for idx in combinations(range(5), grade)]
    return Polyvector(5, {idx: Poly.const(5, 1) for idx in indices[:n]})


def parts_field(count):
    """A classical field whose blocks have exactly count disjoint unions.

    m disjoint singletons have 2^m - 1; each further block meets all of them
    and every other block, so it adds only itself.
    """
    m = (count + 1).bit_length() - 1
    extra = count - (2**m - 1)
    blocks = [frozenset({i}) for i in range(m)] + [frozenset({*range(m), m + j}) for j in range(extra)]
    return KField.from_vfields(CHART, m + extra, {b: VField.basis(3, 0) for b in blocks})


def one_slot_field(k):
    return KField(CHART, k, {frozenset({0}): D0})


X0 = Poly.var(1, 0)
PV = polyvector_terms(1)
# (name, the owner of the budget, its name, the limit under test, what the
# message counts, the call on one count)
BUDGETS = [
    ("ChartSpec dim", ChartSpec, "MAX_DIM", 1000, "chart dimension", lambda n: ChartSpec(n, 4)),
    ("KField arity", KField, "MAX_ARITY", 1000, "arity", lambda k: KField(CHART, k, {})),
    ("act", KField, "MAX_ACTION_ARITY", 8, "arity", lambda k: act([0], one_slot_field(k))),
    ("act word length", KField, "MAX_WORD_LENGTH", 6, "word length", lambda n: act([0] * n, one_slot_field(2))),
    ("homotopy", KField, "MAX_ACTION_ARITY", 8, "arity", lambda k: homotopy(one_slot_field(k), 0, 1)),
    ("is_trivial_homotopy", KField, "MAX_ACTION_ARITY", 8, "arity", lambda k: is_trivial_homotopy(one_slot_field(k))),
    ("reduce_to_polyvector", KField, "MAX_ACTION_ARITY", 8, "arity",
     lambda k: reduce_to_polyvector(one_slot_field(k))),
    ("Poly * monomial", Poly, "MAX_POW_PRODUCTS", 15, "term product count", lambda n: X0 * poly_terms(n)),
    ("Poly * Poly", Poly, "MAX_POW_PRODUCTS", 15, "term product count", product),
    ("vf_apply", Poly, "MAX_POW_PRODUCTS", 15, "term product count",
     lambda n: vf_apply(VField([Poly.const(1, 1)]), X0 * poly_terms(n))),
    ("wedge", Poly, "MAX_POW_PRODUCTS", 15, "wedge monomial pair count", lambda n: wedge(PV, polyvector_terms(n))),
    ("schouten", Poly, "MAX_POW_PRODUCTS", 15, "Schouten bracket monomial pair count",
     lambda n: schouten(PV, polyvector_terms(n))),
    ("kfield_to_weil", WeilElem, "MAX_PARTS", 7, "disjoint-union count", lambda n: kfield_to_weil(parts_field(n))),
]


@pytest.mark.parametrize("name, owner, budget, limit, what, call", BUDGETS, ids=[b[0] for b in BUDGETS])
def test_every_count_budget_follows_one_rule(name, owner, budget, limit, what, call, monkeypatch):
    if getattr(owner, budget) != limit:
        # a lowered product or parts budget keeps the inputs small
        monkeypatch.setattr(owner, budget, limit)
    call(limit)
    message = f"{what} {limit + 1} exceeds the budget of {owner.__name__}.{budget} = {limit}"
    with pytest.raises(DomainError) as err:
        call(limit + 1)
    assert type(err.value) is DomainError and str(err.value) == message
