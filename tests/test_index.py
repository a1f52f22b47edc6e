"""One index rule at every public entry point that takes an index.

An index is an int that is not a bool, with 0 <= i < n; anything else is
refused with a one-line DomainError that says "not an int" or "out of range".
"""

import pytest

from igc import (
    ChartSpec,
    DomainError,
    FreeLRElem,
    KField,
    Poly,
    Polyvector,
    RelativeSpec,
    VField,
    WeilElem,
    act,
    act_transposition,
    add_over_face,
    face,
    homotopy,
    strong_diff,
    vf_pushforward,
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
