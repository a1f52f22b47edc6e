"""The refusals of the four free-module types, pinned row by row: the exception class and the exact message.

Each row is one call on a `VField`, `FreeLRElem`, `WeilElem` or `Polyvector`,
or on a `KField` of `FreeLRElem` components, or one public function given a
value of another type, that the library must refuse.
The rows hold what the public boundary of each type refuses: a change of how
the types store their values must leave every one of them as it is.  A last table pins what the constructors keyed by index
sets do with two keys that name one label: they sum them.  A derandomized
property test calls every public callable with values of other types and
lets only the library's own errors through.
"""

import inspect
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import igc
from igc.chart_algebra import ChartSpec, Poly, VField, vf_apply, vf_bracket, vf_pushforward
from igc.errors import ArityMismatchError, ChartMismatchError, DegreeOverflowError, DomainError
from igc.free_lr import (
    FreeLRElem, RelativeSpec, anchor_apply, free_bracket, lie_bracket_ext, project_to_lie, vertical_reduce,
)
from igc.groupoid import (
    KField, act, act_transposition, add_over_face, compose, cup, face, homotopy, is_trivial_homotopy,
    lie_derivative_thin, reduce_to_polyvector, strong_diff, trivial_by_disjoint_pairs,
)
from igc.lyndon import LyndonWord
from igc.oracle import oracle_bracket, oracle_multiplicativity, oracle_quotient_lowdegree
from igc.parsing import Session, parse_expression
from igc.polyvector import Polyvector, degree, schouten, wedge
from igc.weil import CupFactorization, WeilElem, WeilMorphism, kfield_to_weil, weil_cup, weil_to_kfield

C2 = ChartSpec(2, max_degree=2)
C3 = ChartSpec(3, max_degree=2)
X2 = Poly.var(2, 0)
X3 = Poly.var(3, 0)
D0 = FreeLRElem.generator(C2, 0)
D1 = FreeLRElem.generator(C2, 1)
K2 = KField(C2, 2, {frozenset({0}): D0})
K3 = KField(C3, 2, {frozenset({0}): FreeLRElem.generator(C3, 0)})
P2 = Polyvector(2, {(0, 1): X2})
V2 = VField.basis(2, 0)
W2 = WeilElem(1, 2, {(): X2})
M2 = kfield_to_weil(KField(C2, 1))
F2 = CupFactorization.canonical(2)

# (call, exception class, message)
ROWS = [
    (lambda: FreeLRElem(C2, {LyndonWord((0,)): X3}), ChartMismatchError,
     "coefficient of word (0,) lives on chart R^3, not R^2"),
    (lambda: FreeLRElem(C2, {LyndonWord((0, 0, 1)): X2}), DegreeOverflowError,
     "bracket monomial of length 3 exceeds max_degree 2"),
    (lambda: FreeLRElem.from_vfield(C2, VField.basis(3, 0)), ChartMismatchError,
     "FreeLRElem.from_vfield argument v lives on chart R^3, not R^2"),
    (lambda: D0 * X3, ChartMismatchError, "polynomial factor lives on chart R^3, not R^2"),
    (lambda: anchor_apply(D0, X3), ChartMismatchError, "anchor_apply argument f lives on chart R^3, not R^2"),
    (lambda: free_bracket(D0, D0, RelativeSpec(C3)), ChartMismatchError,
     "free_bracket argument spec lives on chart (3, 2), not (2, 2)"),
    (lambda: VField([]), DomainError, "a vector field needs at least one coefficient"),
    (lambda: VField([X2, X3]), ChartMismatchError, "coefficient of d1 lives on chart R^3, not R^2"),
    (lambda: VField([X2]), ChartMismatchError, "coefficient of d0 lives on chart R^2, not R^1"),
    (lambda: vf_pushforward(VField.basis(2, 0), 3, [0]), DomainError,
     "embedding must list a target index for every source coordinate"),
    (lambda: WeilElem(1, 2, {frozenset({0}): X3}), ChartMismatchError,
     "part frozenset({0}) lives on chart R^3, not R^2"),
    (lambda: Polyvector(2, {(0,): X3}), ChartMismatchError, "coefficient of blade (0,) lives on chart R^3, not R^2"),
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
    # the refusals of k-fields and of the Weil layer that no other test reaches
    (lambda: KField(C2, 2, {frozenset(): D0}), DomainError, "component index set is empty"),
    (lambda: KField(C2, 2, {frozenset({0}): FreeLRElem.generator(C3, 0)}), ChartMismatchError,
     "component frozenset({0}) lives on chart (3, 2), not (2, 2)"),
    (lambda: strong_diff(K2, K3, (0, 1)), ChartMismatchError,
     "strong_diff argument nu lives on chart (3, 2), not (2, 2)"),
    (lambda: add_over_face(K2, K2, {0, 1}), DomainError, "psi must be a size-1 subset of the slot indices"),
    (lambda: cup(K2, K3), ChartMismatchError, "cup argument nu lives on chart (3, 2), not (2, 2)"),
    (lambda: compose(K2, K3), ChartMismatchError, "compose argument nu lives on chart (3, 2), not (2, 2)"),
    (lambda: trivial_by_disjoint_pairs(KField(C2, 2, {frozenset({0}): free_bracket(D0, D1)})), DomainError,
     "the disjoint-pair test applies to classical fields"),
    (lambda: WeilMorphism(1, 2, [WeilElem(1, 2), WeilElem(1, 2)]), DomainError, "empty part of image(x0) must be x0"),
    (lambda: M2.image(X3), ChartMismatchError, "WeilMorphism.image argument f lives on chart R^3, not R^2"),
    (lambda: WeilMorphism(1, 2, [W2]), DomainError, "need one coordinate image per chart dimension"),
    (lambda: CupFactorization(2, 2, [W2]), DomainError, "need one image per V generator"),
    (lambda: CupFactorization(1, 2, [WeilElem(2, 2)]), ArityMismatchError,
     "factorization image in the wrong Weil algebra"),
    (lambda: weil_cup(M2, CupFactorization.canonical(3), []), ChartMismatchError,
     "weil_cup argument fact lives on chart R^3, not R^2"),
    (lambda: weil_cup(M2, F2, []), DomainError, "need one derivation per V generator"),
    (lambda: weil_cup(M2, F2, [VField.basis(3, 0)]), ChartMismatchError, "derivation 0 lives on chart R^3, not R^2"),
    # a coordinate or factorization image of the right arity on another chart is a chart mismatch, not an arity one
    (lambda: WeilMorphism(1, 2, [WeilElem(1, 3), WeilElem(1, 3)]), ChartMismatchError,
     "image of x0 lives on chart R^3, not R^2"),
    (lambda: CupFactorization(1, 2, [WeilElem(1, 3)]), ChartMismatchError,
     "image of V generator 0 lives on chart R^3, not R^2"),
    # every other operation that takes two values of one chart, refused by the one chart rule
    (lambda: X2 + X3, ChartMismatchError, "polynomial operand lives on chart R^3, not R^2"),
    (lambda: X2.evaluate([1, 2, 3]), ChartMismatchError, "Poly.evaluate argument point lives on chart R^3, not R^2"),
    (lambda: V2 + VField.basis(3, 0), ChartMismatchError, "sum operand lives on chart R^3, not R^2"),
    (lambda: D0 - FreeLRElem.generator(ChartSpec(2, 3), 0), ChartMismatchError,
     "sum operand lives on chart (2, 3), not (2, 2)"),
    (lambda: W2 * WeilElem(1, 3, {(): X3}), ChartMismatchError, "product factor lives on chart R^3, not R^2"),
    (lambda: W2 * WeilElem(2, 2), ArityMismatchError, "arities differ: 1 vs 2"),
    (lambda: vf_apply(V2, X3), ChartMismatchError, "vf_apply argument f lives on chart R^3, not R^2"),
    (lambda: vf_bracket(V2, VField.basis(3, 0)), ChartMismatchError,
     "vf_bracket argument v lives on chart R^3, not R^2"),
    (lambda: free_bracket(D0, FreeLRElem.generator(ChartSpec(2, 3), 0)), ChartMismatchError,
     "free_bracket argument v lives on chart (2, 3), not (2, 2)"),
    (lambda: lie_bracket_ext(D0, FreeLRElem.generator(C3, 0)), ChartMismatchError,
     "lie_bracket_ext argument v lives on chart (3, 2), not (2, 2)"),
    (lambda: add_over_face(K2, K3, {0}), ChartMismatchError,
     "add_over_face argument nu lives on chart (3, 2), not (2, 2)"),
    (lambda: wedge(P2, Polyvector(3, {(0,): X3})), ChartMismatchError, "wedge argument q lives on chart R^3, not R^2"),
    (lambda: schouten(P2, Polyvector(3)), ChartMismatchError, "schouten argument q lives on chart R^3, not R^2"),
    # a container or a value of another type, refused by its name where the boundary test below found it unchecked
    (lambda: Poly(2, [1]), DomainError, "Poly terms is list, not Mapping"),
    (lambda: Poly(2, {0: 1}), DomainError, "Poly exponent 0 is int, not Iterable"),
    (lambda: VField(None), DomainError, "VField coeffs is NoneType, not Iterable"),
    (lambda: vf_pushforward(V2, 3, 0), DomainError, "vf_pushforward argument embedding is int, not Iterable"),
    (lambda: Polyvector(2, [1]), DomainError, "Polyvector terms is list, not Mapping"),
    (lambda: Polyvector(2, {0: X2}), DomainError, "blade 0 is int, not Iterable"),
    (lambda: WeilElem(1, 2, [1]), DomainError, "WeilElem terms is list, not Mapping"),
    (lambda: KField(C2, 2, {0: D0}), DomainError, "component index set 0 is int, not Iterable"),
    (lambda: WeilMorphism(1, 2, None), DomainError, "WeilMorphism coord_images is NoneType, not Iterable"),
    (lambda: WeilMorphism(1, 1, [3]), DomainError, "image of x0 is int, not WeilElem"),
    (lambda: CupFactorization(1, 2, None), DomainError, "CupFactorization images is NoneType, not Iterable"),
    (lambda: CupFactorization(1, 2, [3]), DomainError, "image of V generator 0 is int, not WeilElem"),
    (lambda: weil_cup(M2, 3, []), DomainError, "weil_cup argument fact is int, not CupFactorization"),
    (lambda: weil_cup(3, F2, []), DomainError, "weil_cup argument x is int, not WeilMorphism"),
    (lambda: weil_cup(M2, F2, 3), DomainError, "weil_cup argument derivations is int, not Sequence"),
    (lambda: weil_cup(M2, F2, [3]), DomainError, "derivation 0 is int, not VField"),
    (lambda: RelativeSpec(3), DomainError, "RelativeSpec chart is int, not ChartSpec"),
    (lambda: RelativeSpec(C2, 3), DomainError, "RelativeSpec vertical is int, not Iterable"),
    (lambda: FreeLRElem(3), DomainError, "FreeLRElem chart is int, not ChartSpec"),
    (lambda: FreeLRElem(C2, [1]), DomainError, "FreeLRElem terms is list, not Mapping"),
    (lambda: FreeLRElem(C2, {0: X2}), DomainError, "word 0 is int, not Iterable"),
    (lambda: free_bracket(D0, D0, 3), DomainError, "free_bracket argument spec is int, not RelativeSpec"),
    (lambda: vertical_reduce(D0, 3), DomainError, "vertical_reduce argument spec is int, not RelativeSpec"),
    (lambda: LyndonWord(3), DomainError, "LyndonWord letters is int, not Iterable"),
    (lambda: oracle_bracket(3, V2), DomainError, "oracle_bracket argument u is int, not VField"),
    (lambda: oracle_bracket(V2, 3), DomainError, "oracle_bracket argument v is int, not VField"),
    (lambda: oracle_multiplicativity(3, 1, Random(0)), DomainError,
     "oracle_multiplicativity argument nu is int, not KField"),
    (lambda: oracle_multiplicativity(K2, 1, 3), DomainError, "oracle_multiplicativity argument rng is int, not Random"),
    (lambda: oracle_multiplicativity(K2, None, Random(0)), DomainError, "trial count None is not an int"),
    (lambda: oracle_quotient_lowdegree(3, 1), DomainError,
     "oracle_quotient_lowdegree argument spec is int, not RelativeSpec"),
    (lambda: parse_expression(3, Session(C2)), DomainError, "parse_expression argument src is int, not str"),
    (lambda: parse_expression("x0", C2), DomainError, "parse_expression argument session is ChartSpec, not Session"),
    # a value parameter is checked from its annotation, so a constructor that stores its arguments refuses them too,
    # and so does a function whose parameter only a later test reads
    (lambda: KField(None, 2), DomainError, "KField chart is NoneType, not ChartSpec"),
    (lambda: Session(3), DomainError, "Session chart is int, not ChartSpec"),
    (lambda: act([0], K2, 3), DomainError, "act argument flavor is int, not str"),
    # the public alternate constructors go through the same wrapper, labelled by class and name
    (lambda: FreeLRElem.generator(3, 0), DomainError, "FreeLRElem.generator argument chart is int, not ChartSpec"),
    (lambda: FreeLRElem.from_vfield(C2, 3), DomainError, "FreeLRElem.from_vfield argument v is int, not VField"),
    (lambda: FreeLRElem.zero(3), DomainError, "FreeLRElem.zero argument chart is int, not ChartSpec"),
    (lambda: Polyvector.from_vfield(3), DomainError, "Polyvector.from_vfield argument v is int, not VField"),
    (lambda: KField.from_vfields(C2, 1, 3), DomainError, "KField.from_vfields argument components is int, not Mapping"),
    (lambda: KField.zero(3, 1), DomainError, "KField.zero argument chart is int, not ChartSpec"),
    (lambda: WeilElem.scalar(1, 3), DomainError, "WeilElem.scalar argument p is int, not Poly"),
    (lambda: WeilMorphism.from_callable(1, 2, 3), DomainError,
     "WeilMorphism.from_callable argument fn is int, not Callable"),
    # and so do the public instance methods with a value parameter
    (lambda: M2.image(3), DomainError, "WeilMorphism.image argument f is int, not Poly"),
    (lambda: X2.evaluate(3), DomainError, "Poly.evaluate argument point is int, not Sequence"),
    # and each entry of a point is an exact rational, an int or a Fraction, by the one value rule
    (lambda: X2.evaluate("ab"), DomainError, "Poly.evaluate argument point entry 0 is str, not Rational"),
    (lambda: X2.evaluate([None, 1]), DomainError, "Poly.evaluate argument point entry 0 is NoneType, not Rational"),
    (lambda: X2.evaluate([1, 0.1]), DomainError, "Poly.evaluate argument point entry 1 is float, not Rational"),
    # a shift keeps every generator inside the larger algebra
    (lambda: WeilElem(1, 2, {(0,): X2}).shift(5, 1), DomainError, "shifted arity must be >= 6, got 1"),
    (lambda: W2.shift(-1, 3), DomainError, "shift offset must be >= 0, got -1"),
    (lambda: oracle_bracket(V2, VField.basis(3, 0)), ChartMismatchError,
     "oracle_bracket argument v lives on chart R^3, not R^2"),
    # a value the caller gave is shown by one rule, `errors._shown`: whole up to 40 characters, past that by its
    # first 20 characters and its size, and an int past Python's int-to-str limit too
    (lambda: ChartSpec(10**5000), DomainError,
     "chart dimension 10000000000000000000... (5001 digits) exceeds the budget of ChartSpec.MAX_DIM = 1000"),
    (lambda: ChartSpec(-(10**5000)), DomainError,
     "chart dimension must be >= 1, got -10000000000000000000... (5001 digits)"),
    (lambda: Poly.var(2, 10**5000), DomainError,
     "variable index 10000000000000000000... (5001 digits) out of range [0, 2)"),
    (lambda: free_bracket(FreeLRElem.generator(ChartSpec(2, 10**5000), 0), D0), ChartMismatchError,
     "free_bracket argument v lives on chart (2, 2), not (2, 10000000000000000000... (5001 digits))"),
    (lambda: Poly(2, {(0,) * 5000: 1}), DomainError,
     "bad exponent tuple (0, 0, 0, 0, 0, 0, 0... (5000 entries) for dimension 2"),
    (lambda: Poly(2, {(0, 0): "x" * 50}), DomainError,
     "coefficient 'xxxxxxxxxxxxxxxxxxx... (50 characters) is not an integer or a Fraction"),
    (lambda: LyndonWord((1,) + (0,) * 100), DomainError,
     "(1, 0, 0, 0, 0, 0, 0... (101 entries) is not a Lyndon word"),
    # a label that is the caller's key is shown by the same rule, and so is a value whose repr raises
    (lambda: Poly(2, {10**5000: 1}), DomainError,
     "Poly exponent 10000000000000000000... (5001 digits) is int, not Iterable"),
    (lambda: Polyvector(2, {10**5000: X2}), DomainError,
     "blade 10000000000000000000... (5001 digits) is int, not Iterable"),
    (lambda: Polyvector(2, {"0" * 5000: 1}), DomainError,
     "coefficient of blade '0000000000000000000... (5000 characters) is int, not Poly"),
    (lambda: Polyvector(2, {10**5000: X3}), ChartMismatchError,
     "coefficient of blade 10000000000000000000... (5001 digits) lives on chart R^3, not R^2"),
    (lambda: FreeLRElem(ChartSpec(2), {10**5000: X2}), DomainError,
     "word 10000000000000000000... (5001 digits) is int, not Iterable"),
    (lambda: KField(ChartSpec(2), 2).component(10**5000), DomainError,
     "component index set 10000000000000000000... (5001 digits) is int, not Iterable"),
    (lambda: Poly(2, {(0, 0): [10**5000]}), DomainError, "coefficient list (1 entries) is not an integer or a Fraction"),
    (lambda: Poly(2, {(0, 0): range(10**5000)}), DomainError, "coefficient range is not an integer or a Fraction"),
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


# every callable of the package but the error types, which the library raises and does not take values into
PUBLIC = sorted(
    name for name, value in ((name, getattr(igc, name)) for name in igc.__all__)
    if callable(value) and not (isinstance(value, type) and issubclass(value, BaseException))
)
# values of every kind the library takes, and of kinds it does not; each call draws its arguments from here
POOL = [
    None, 0, -1, True, 2.5, "x0", (), [0], {0: 1}, frozenset({0}), object(),
    X2, X3, D0, K2, K3, P2, V2, C2, W2, M2, F2,
]


@pytest.mark.parametrize("name", PUBLIC)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_public_callable_given_values_of_other_types_raises_only_the_library_s_errors(name, data):
    # a wrong-typed argument is refused at the boundary, by `_value` or a check of its own, not by a TypeError or
    # AttributeError from deep inside; the arguments are drawn for the callable's positional parameters
    function = getattr(igc, name)
    params = [p for p in inspect.signature(function).parameters.values() if p.kind is p.POSITIONAL_OR_KEYWORD]
    least = sum(p.default is p.empty for p in params)
    count = data.draw(st.integers(least, len(params)), label="argument count")
    args = data.draw(st.lists(st.sampled_from(POOL), min_size=count, max_size=count), label="arguments")
    try:
        function(*args)
    except DomainError:
        pass
