"""The refusals of the four free-module types, pinned row by row: the exception class and the exact message.

Each row is one call on a `VField`, `FreeLRElem`, `WeilElem` or `Polyvector`,
or on a `KField` of `FreeLRElem` components, or one public function given a
value of another type, that the library must refuse.
The rows hold what the public boundary of each type refuses: a change of how
the types store their values must leave every one of them as it is.  A last table pins what the constructors keyed by index
sets do with two keys that name one label: they sum them.
"""

import pytest

from igc.chart_algebra import ChartSpec, Poly, VField, vf_apply, vf_bracket, vf_pushforward
from igc.errors import ChartMismatchError, DegreeOverflowError, DomainError
from igc.free_lr import FreeLRElem, RelativeSpec, anchor_apply, free_bracket, lie_bracket_ext, project_to_lie
from igc.groupoid import (
    KField, act, act_transposition, add_over_face, compose, cup, face, homotopy, is_trivial_homotopy,
    lie_derivative_thin, reduce_to_polyvector, strong_diff, trivial_by_disjoint_pairs,
)
from igc.lyndon import LyndonWord
from igc.polyvector import Polyvector, degree, schouten, wedge
from igc.weil import WeilElem, kfield_to_weil, weil_to_kfield

C2 = ChartSpec(2, max_degree=2)
C3 = ChartSpec(3, max_degree=2)
X2 = Poly.var(2, 0)
X3 = Poly.var(3, 0)
D0 = FreeLRElem.generator(C2, 0)
K2 = KField(C2, 2, {frozenset({0}): D0})
P2 = Polyvector(2, {(0, 1): X2})
V2 = VField.basis(2, 0)

# (call, exception class, message)
ROWS = [
    (lambda: FreeLRElem(C2, {LyndonWord((0,)): X3}), ChartMismatchError, "coefficient lives on a different chart"),
    (lambda: FreeLRElem(C2, {LyndonWord((0, 0, 1)): X2}), DegreeOverflowError,
     "bracket monomial of length 3 exceeds max_degree 2"),
    (lambda: FreeLRElem.from_vfield(C2, VField.basis(3, 0)), ChartMismatchError, "field lives on a different chart"),
    (lambda: D0 * X3, ChartMismatchError, "polynomials live on charts of different dimension"),
    (lambda: anchor_apply(D0, X3), ChartMismatchError, "polynomial lives on a different chart"),
    (lambda: free_bracket(D0, D0, RelativeSpec(C3)), ChartMismatchError, "relative spec is for a different chart"),
    (lambda: VField([]), DomainError, "a vector field needs at least one coefficient"),
    (lambda: VField([X2, X3]), ChartMismatchError, "vector field needs exactly dim coefficients on one chart"),
    (lambda: VField([X2]), ChartMismatchError, "vector field needs exactly dim coefficients on one chart"),
    (lambda: vf_pushforward(VField.basis(2, 0), 3, [0]), DomainError,
     "embedding must list a target index for every source coordinate"),
    (lambda: WeilElem(1, 2, {frozenset({0}): X3}), ChartMismatchError, "part lives on a different chart"),
    (lambda: Polyvector(2, {(0,): X3}), ChartMismatchError, "coefficient lives on a different chart"),
    (lambda: Polyvector(2, {(): X2}), DomainError, "polyvector monomials have grade >= 1"),
    # a coefficient that is not a Poly, or a component that is not a FreeLRElem, is refused by its label
    (lambda: FreeLRElem(C2, {(0,): 3}), DomainError, "coefficient of word (0,) is int, not Poly"),
    (lambda: VField([1, 2]), DomainError, "coefficient of d0 is int, not Poly"),
    (lambda: Polyvector(2, {(0, 1): 1}), DomainError, "coefficient of blade (0, 1) is int, not Poly"),
    (lambda: WeilElem(2, 2, {(0,): 1}), DomainError, "part (0,) is int, not Poly"),
    (lambda: KField(C2, 2, {frozenset({0}): 5}), DomainError, "component frozenset({0}) is int, not FreeLRElem"),
    # a value argument of a public function that is not of its type is refused by its name
    (lambda: free_bracket(D0, 3), DomainError, "free_bracket argument v is int, not FreeLRElem"),
    (lambda: lie_bracket_ext(D0, K2), DomainError, "lie_bracket_ext argument v is KField, not FreeLRElem"),
    (lambda: cup(K2, D0), DomainError, "cup argument nu is FreeLRElem, not KField"),
    (lambda: compose(D0, K2), DomainError, "compose argument mu is FreeLRElem, not KField"),
    (lambda: wedge(P2, 3), DomainError, "wedge argument q is int, not Polyvector"),
    (lambda: schouten(3, P2), DomainError, "schouten argument p is int, not Polyvector"),
    (lambda: homotopy(D0, 0, 1), DomainError, "homotopy argument nu is FreeLRElem, not KField"),
    (lambda: KField(C2, 2, [frozenset({0})]), DomainError, "KField components is list, not Mapping"),
    (lambda: face(D0, 0), DomainError, "face argument nu is FreeLRElem, not KField"),
    (lambda: strong_diff(K2, D0, (0, 1)), DomainError, "strong_diff argument nu is FreeLRElem, not KField"),
    (lambda: add_over_face(D0, K2, {0}), DomainError, "add_over_face argument mu is FreeLRElem, not KField"),
    (lambda: act([0], D0), DomainError, "act argument nu is FreeLRElem, not KField"),
    (lambda: act(None, K2), DomainError, "act argument word is NoneType, not Sequence"),
    (lambda: act_transposition(D0, 0, 1), DomainError, "act_transposition argument nu is FreeLRElem, not KField"),
    (lambda: is_trivial_homotopy(D0), DomainError, "is_trivial_homotopy argument nu is FreeLRElem, not KField"),
    (lambda: reduce_to_polyvector(D0), DomainError, "reduce_to_polyvector argument nu is FreeLRElem, not KField"),
    (lambda: trivial_by_disjoint_pairs(3), DomainError, "trivial_by_disjoint_pairs argument nu is int, not KField"),
    (lambda: lie_derivative_thin(V2, D0), DomainError, "lie_derivative_thin argument alpha is FreeLRElem, not VField"),
    (lambda: anchor_apply(D0, 3), DomainError, "anchor_apply argument f is int, not Poly"),
    (lambda: project_to_lie(3), DomainError, "project_to_lie argument u is int, not FreeLRElem"),
    (lambda: vf_apply(3, X2), DomainError, "vf_apply argument v is int, not VField"),
    (lambda: vf_bracket(V2, 3), DomainError, "vf_bracket argument v is int, not VField"),
    (lambda: vf_pushforward(D0, 3, [0, 1]), DomainError, "vf_pushforward argument v is FreeLRElem, not VField"),
    (lambda: degree(3), DomainError, "degree argument p is int, not Polyvector"),
    (lambda: kfield_to_weil(3), DomainError, "kfield_to_weil argument nu is int, not KField"),
    (lambda: weil_to_kfield(K2), DomainError, "weil_to_kfield argument w is KField, not WeilMorphism"),
    (lambda: weil_to_kfield(kfield_to_weil(KField(C2, 1)), 3), DomainError,
     "weil_to_kfield argument chart is int, not ChartSpec"),
]


@pytest.mark.parametrize("call, error, message", ROWS, ids=[f"row{n}" for n in range(len(ROWS))])
def test_module_refusal_is_pinned(call, error, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_polyvector_drops_a_monomial_with_a_repeated_index():
    # d0 ^ d0 = 0: the monomial is dropped, not refused, and the rest is kept
    p = Polyvector(2, {(0, 0): X2, (1, 0): X2})
    assert p == Polyvector(2, {(0, 1): -X2}) and Polyvector(2, {(1, 1): X2}).is_zero()


# (a constructor call whose dict names one label twice, the value it prints):
# the coefficients of one label are summed, in every module keyed by an index set
COLLISIONS = [
    (lambda: WeilElem(2, 2, {(0, 1): X2, (1, 0): Poly.const(2, 1)}), "(x0 + 1)*e0e1"),
    (lambda: WeilElem(2, 2, {(0, 1): X2, frozenset({1, 0}): -X2, (): X2}), "(x0)"),
    (lambda: Polyvector(2, {(0, 1): X2, (1, 0): Poly.const(2, 1)}), "(x0 - 1)*d0 ^ d1"),
]


@pytest.mark.parametrize("call, text", COLLISIONS, ids=[f"collision{n}" for n in range(len(COLLISIONS))])
def test_colliding_labels_are_summed(call, text):
    assert str(call()) == text
