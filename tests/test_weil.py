"""Weil elements, the k-field dictionary, and the partial cup product."""

from random import Random

import pytest

from igc import (
    ArityMismatchError,
    ChartSpec,
    CupFactorization,
    DomainError,
    KField,
    NotMultiplicativeError,
    Poly,
    VField,
    WeilElem,
    WeilMorphism,
    compose,
    cup,
    face,
    kfield_to_weil,
    vf_apply,
    weil_cup,
    weil_to_kfield,
)
from igc.oracle import random_kfield, random_poly, random_vfield

CHART = ChartSpec(2, 4)
X0, X1 = Poly.var(2, 0), Poly.var(2, 1)
ONE = Poly.const(2, 1)


def one_field(v: VField, chart=CHART) -> KField:
    return KField.from_vfields(chart, 1, {frozenset({0}): v})


def test_weil_mul_examples():
    e0 = WeilElem.generator(2, 2, 0)
    assert (e0 * e0).is_zero()
    a = WeilElem(2, 2, {frozenset(): ONE, frozenset({0}): X1})
    b = WeilElem(2, 2, {frozenset(): ONE, frozenset({1}): X0})
    want = WeilElem(
        2,
        2,
        {frozenset(): ONE, frozenset({0}): X1, frozenset({1}): X0, frozenset({0, 1}): X0 * X1},
    )
    assert a * b == want
    rng = Random(30)
    for _ in range(10):
        u = WeilElem(2, 2, {frozenset(s): random_poly(rng, 2) for s in [(), (0,), (1,), (0, 1)]})
        v = WeilElem(2, 2, {frozenset(s): random_poly(rng, 2) for s in [(), (0,), (1,)]})
        assert u * v == v * u


def test_weil_mul_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        WeilElem.unit(1, 2) * WeilElem.unit(2, 2)


def test_kfield_to_weil_one_jet():
    rng = Random(31)
    alpha = random_vfield(rng, 2)
    w = kfield_to_weil(one_field(alpha))
    f = random_poly(rng, 2)
    img = w.image(f)
    assert img.part(frozenset()) == f
    assert img.part({0}) == vf_apply(alpha, f)


def test_kfield_to_weil_second_order_part():
    rng = Random(32)
    for _ in range(10):
        a0, a1, a01 = (random_vfield(rng, 2) for _ in range(3))
        nu = KField.from_vfields(
            CHART, 2, {frozenset({0}): a0, frozenset({1}): a1, frozenset({0, 1}): a01}
        )
        f = random_poly(rng, 2)
        part = kfield_to_weil(nu).image(f).part({0, 1})
        assert part == vf_apply(a01, f) + vf_apply(a1, vf_apply(a0, f))


def test_kfield_to_weil_third_order_ordered_decompositions():
    rng = Random(33)
    nu = random_kfield(rng, CHART, 3)
    fields = {phi: nu.component_vfield(phi) for phi in nu.support()}
    f = random_poly(rng, 2)

    def ap(subset, g):
        return vf_apply(fields[frozenset(subset)], g)

    want = (
        ap((0, 1, 2), f)
        + ap((1, 2), ap((0,), f))
        + ap((1,), ap((0, 2), f))
        + ap((2,), ap((0, 1), f))
        + ap((2,), ap((1,), ap((0,), f)))
    )
    assert kfield_to_weil(nu).image(f).part({0, 1, 2}) == want


def test_kfield_to_weil_rejects_free_components():
    from igc import FreeLRElem, free_bracket

    d0 = FreeLRElem.generator(CHART, 0)
    d1 = FreeLRElem.generator(CHART, 1)
    nu = KField(CHART, 1, {frozenset({0}): free_bracket(d0, d1)})
    with pytest.raises(DomainError):
        kfield_to_weil(nu)


def test_morphism_multiplicative_by_construction():
    rng = Random(34)
    nu = random_kfield(rng, CHART, 2)
    w = kfield_to_weil(nu)
    for _ in range(5):
        f, g = random_poly(rng, 2), random_poly(rng, 2)
        assert w.image(f * g) == w.image(f) * w.image(g)


def test_weil_to_kfield_one_jet_inverse():
    alpha = random_vfield(Random(35), 2)
    back = weil_to_kfield(kfield_to_weil(one_field(alpha)), CHART)
    assert back == one_field(alpha)


def test_weil_to_kfield_explicit_two_jet():
    # morphism written out with parts f, a0(f), a1(f), a01(f)+a1(a0(f))
    rng = Random(36)
    a0, a1, a01 = (random_vfield(rng, 2) for _ in range(3))

    def image(f):
        return WeilElem(
            2,
            2,
            {
                frozenset(): f,
                frozenset({0}): vf_apply(a0, f),
                frozenset({1}): vf_apply(a1, f),
                frozenset({0, 1}): vf_apply(a01, f) + vf_apply(a1, vf_apply(a0, f)),
            },
        )

    w = WeilMorphism.from_callable(2, 2, image)
    want = KField.from_vfields(
        CHART, 2, {frozenset({0}): a0, frozenset({1}): a1, frozenset({0, 1}): a01}
    )
    assert weil_to_kfield(w, CHART) == want


def test_roundtrip_random_fields():
    rng = Random(37)
    for idx in range(30):
        chart = ChartSpec(2 + idx % 2, 4)
        nu = random_kfield(rng, chart, 1 + idx % 3)
        assert weil_to_kfield(kfield_to_weil(nu), chart) == nu


def test_non_multiplicative_witness():
    def bad(f):
        d = f.derive(0)
        return WeilElem(1, 2, {frozenset(): f, frozenset({0}): d * d})

    with pytest.raises(NotMultiplicativeError) as err:
        weil_to_kfield(WeilMorphism.from_callable(1, 2, bad))
    f, g = err.value.witness
    assert not (f * g).is_zero()


def test_raw_morphism_empty_part_must_be_identity():
    # swapping the coordinates is multiplicative, but its empty part is not
    # the identity, so it is not a point of the iterated tangent bundle
    def swapped(f):
        return WeilElem.scalar(1, Poly(2, {(b, a): c for (a, b), c in f.terms.items()}))

    with pytest.raises(NotMultiplicativeError) as err:
        weil_to_kfield(WeilMorphism.from_callable(1, 2, swapped))
    assert err.value.witness == (ONE, X0)


def test_face_compatibility():
    rng = Random(38)
    nu = random_kfield(rng, CHART, 3)
    w = kfield_to_weil(nu)
    for i in range(3):
        assert w.restrict(i) == kfield_to_weil(face(nu, i))


def test_weil_cup_vertical_lift():
    rng = Random(39)
    alpha, beta = random_vfield(rng, 2), random_vfield(rng, 2)
    x = kfield_to_weil(one_field(alpha))
    out = weil_cup(x, CupFactorization.canonical(2), [beta])
    back = weil_to_kfield(out, CHART)
    want = KField.from_vfields(CHART, 2, {frozenset({0}): alpha, frozenset({0, 1}): beta})
    assert back == want
    assert back == cup(one_field(alpha), one_field(beta))


def test_weil_cup_zero_derivation_pads():
    alpha = random_vfield(Random(40), 2)
    x = kfield_to_weil(one_field(alpha))
    out = weil_cup(x, CupFactorization.canonical(2), [VField.zero(2)])
    assert weil_to_kfield(out, CHART) == KField.from_vfields(
        CHART, 2, {frozenset({0}): alpha}
    )


def test_weil_cup_second_factor_lands_on_top_block():
    rng = Random(41)
    mu = random_kfield(rng, CHART, 2)
    beta = random_vfield(rng, 2)
    out = weil_cup(kfield_to_weil(mu), CupFactorization.canonical(2), [beta])
    back = weil_to_kfield(out, CHART)
    assert back.component_vfield({0, 1, 2}) == beta
    assert frozenset({2}) not in back.support()
    assert back == cup(mu, one_field(beta))


def test_weil_cup_general_factorization():
    # images e0 and e0e1 have all pairwise products zero inside W_2
    fact = CupFactorization(
        2,
        2,
        [WeilElem.generator(2, 2, 0), WeilElem(2, 2, {frozenset({0, 1}): ONE})],
    )
    rng = Random(42)
    x = kfield_to_weil(random_kfield(rng, CHART, 1))
    out = weil_cup(x, fact, [random_vfield(rng, 2), random_vfield(rng, 2)])
    f, g = random_poly(rng, 2), random_poly(rng, 2)
    assert out.image(f * g) == out.image(f) * out.image(g)


def test_cup_factorization_invariant_rejects_coordinate_embedding_at_m2():
    with pytest.raises(DomainError):
        CupFactorization(2, 2, [WeilElem.generator(2, 2, 0), WeilElem.generator(2, 2, 1)])


def test_weil_elem_json():
    w = WeilElem(2, 2, {frozenset(): ONE, frozenset({0, 1}): X0})
    assert w.to_json() == {"": "1", "0,1": "x0"}


def test_compose_weil_consistency():
    # composition product: the top part of the morphism is beta after alpha
    rng = Random(43)
    alpha, beta = random_vfield(rng, 2), random_vfield(rng, 2)
    w = kfield_to_weil(compose(one_field(alpha), one_field(beta)))
    f = random_poly(rng, 2)
    assert w.image(f).part({0, 1}) == vf_apply(beta, vf_apply(alpha, f))
