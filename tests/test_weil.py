"""Weil elements, the k-field dictionary, and the partial cup product."""

import re
import time
from itertools import combinations
from random import Random

import pytest

from igc import (
    ArityMismatchError,
    ChartSpec,
    CupFactorization,
    DomainError,
    FreeLRElem,
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
from igc import weil
from igc.oracle import random_kfield, random_poly, random_vfield

CHART = ChartSpec(2, 4)
X0, X1 = Poly.var(2, 0), Poly.var(2, 1)
ONE, ZERO = Poly.const(2, 1), Poly.zero(2)


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


def reference_set_partitions(items: tuple[int, ...]):
    """All partitions of items into nonempty blocks, as tuples of frozensets."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in reference_set_partitions(rest):
        for idx in range(len(sub)):
            yield sub[:idx] + (sub[idx] | {first},) + sub[idx + 1 :]
        yield sub + (frozenset({first}),)


def reference_subset_operator_apply(fields, phi, f: Poly) -> Poly:
    """Every set partition of phi, skipping those with an unsupported block."""
    total = Poly.zero(f.dim)
    for blocks in reference_set_partitions(tuple(sorted(phi))):
        if any(b not in fields for b in blocks):
            continue
        value = f
        for b in sorted(blocks, key=sorted):
            value = vf_apply(fields[b], value)
        total = total + value
    return total


def test_kfield_to_weil_parts_match_the_set_partition_reference():
    rng = Random(38)
    for k in range(1, 6):
        for _ in range(3):
            # missing blocks, singletons included
            nu = random_kfield(rng, CHART, k, density=0.6)
            fields = {phi: nu.component_vfield(phi) for phi in nu.support() if rng.random() < 0.8}
            w = kfield_to_weil(KField.from_vfields(CHART, k, fields))
            f = random_poly(rng, 2)
            for g, image in [(f, w.image(f)), *zip((X0, X1), w.coord_images)]:
                for size in range(1, k + 1):
                    for phi in map(frozenset, combinations(range(k), size)):
                        got = image.part(phi)
                        want = reference_subset_operator_apply(fields, phi, g)
                        assert got == want and str(got) == str(want)


def reference_kfield_to_weil(nu: KField) -> WeilMorphism:
    """The morphism form, evaluated on every index set of the arity."""
    k, dim = nu.arity, nu.chart.dim
    fields = {phi: nu.component_vfield(phi) for phi in nu.support()}
    images = []
    for i in range(dim):
        xi = Poly.var(dim, i)
        parts = {frozenset(): xi}
        for size in range(1, k + 1):
            for phi in map(frozenset, combinations(range(k), size)):
                parts[phi] = reference_subset_operator_apply(fields, phi, xi)
        images.append(WeilElem(k, dim, parts))
    return WeilMorphism(k, dim, images)


def reference_weil_to_kfield(w: WeilMorphism, chart: ChartSpec) -> KField:
    """The decomposition, peeling every index set of the arity in size order."""
    k, dim = w.arity, w.dim
    coord_parts = [w.image(Poly.var(dim, i)) for i in range(dim)]
    fields = {}
    for size in range(1, k + 1):
        for phi in map(frozenset, combinations(range(k), size)):
            composite = [reference_subset_operator_apply(fields, phi, Poly.var(dim, i)) for i in range(dim)]
            field = VField([coord_parts[i].part(phi) - composite[i] for i in range(dim)])
            if not field.is_zero():
                fields[phi] = field
    return KField.from_vfields(chart, k, fields)


def sparse_kfield(rng: Random, chart: ChartSpec, k: int) -> KField:
    """A classical field on a few random index sets; singletons may be missing."""
    comps = {}
    for _ in range(rng.randint(1, 5)):
        phi = frozenset(rng.sample(range(k), rng.randint(1, min(k, 3))))
        comps[phi] = random_vfield(rng, chart.dim)
    return KField.from_vfields(chart, k, comps)


def assert_same(got, want):
    assert got == want and repr(got) == repr(want)


def assert_dictionary_matches_the_reference(w: WeilMorphism, chart: ChartSpec) -> KField:
    nu = weil_to_kfield(w, chart)
    assert_same(nu, reference_weil_to_kfield(w, chart))
    assert_same(kfield_to_weil(nu), reference_kfield_to_weil(nu))
    return nu


def test_kfield_to_weil_matches_the_all_index_set_reference():
    rng = Random(44)
    for k in range(1, 9):
        for idx in range(4):
            chart = ChartSpec(2 + idx % 2, 4)
            if idx % 2 or k > 5:
                nu = sparse_kfield(rng, chart, k)
            else:
                dense = random_kfield(rng, chart, k, density=0.5)
                nu = KField(chart, k, {phi: e for phi, e in dense.components.items() if rng.random() < 0.6})
            w = kfield_to_weil(nu)
            assert_same(w, reference_kfield_to_weil(nu))
            assert_same(weil_to_kfield(w, chart), nu)
            assert_same(reference_weil_to_kfield(w, chart), nu)


def test_weil_to_kfield_matches_the_all_index_set_reference():
    rng = Random(45)
    for k in range(1, 5):
        for _ in range(4):
            images = []
            for i in range(2):
                subsets = {frozenset(rng.sample(range(k), rng.randint(1, k))) for _ in range(rng.randint(0, 4))}
                images.append(WeilElem(k, 2, {frozenset(): Poly.var(2, i), **{s: random_poly(rng, 2) for s in subsets}}))
            w = WeilMorphism(k, 2, images)
            nu = assert_dictionary_matches_the_reference(w, CHART)
            assert kfield_to_weil(nu) == w
            # a raw callable takes the same route once it passes the probe
            assert_same(weil_to_kfield(WeilMorphism.from_callable(k, 2, w.image), CHART), nu)


def test_weil_to_kfield_finds_a_field_where_no_part_is_stored():
    # the composite e0 then e1 sends x0 to 1, so {0,1} carries -d0 though no
    # coordinate image stores a {0,1} part
    w = WeilMorphism(
        2, 2, [WeilElem(2, 2, {frozenset(): X0, frozenset({0}): X1}), WeilElem(2, 2, {frozenset(): X1, frozenset({1}): ONE})]
    )
    assert all(frozenset({0, 1}) not in image.terms for image in w.coord_images)
    nu = assert_dictionary_matches_the_reference(w, CHART)
    assert nu.component_vfield({0, 1}) == VField([-ONE, ZERO])
    assert kfield_to_weil(nu) == w


def test_weil_cup_outputs_match_the_all_index_set_reference():
    rng = Random(46)
    general = CupFactorization(2, 2, [WeilElem.generator(2, 2, 0), WeilElem(2, 2, {frozenset({0, 1}): ONE})])
    for idx in range(6):
        fact = general if idx % 2 else CupFactorization.canonical(2)
        x = kfield_to_weil(sparse_kfield(rng, CHART, 1 + idx % 3))
        out = weil_cup(x, fact, [random_vfield(rng, 2) for _ in range(fact.arity)])
        assert kfield_to_weil(assert_dictionary_matches_the_reference(out, CHART)) == out


@pytest.mark.parametrize("k", [30, 200])
def test_two_block_field_visits_only_its_disjoint_unions(k, monkeypatch):
    original = weil._derivation_into
    parts = []

    def counting(accs, f, g, sign):
        parts.extend(phi for phi, _ in g)
        return original(accs, f, g, sign)

    monkeypatch.setattr(weil, "_derivation_into", counting)
    blocks = {frozenset({0}): VField([X1, ZERO]), frozenset({1, k - 1}): VField([ZERO, X0 * X0])}
    two = {frozenset({0}), frozenset({1, k - 1}), frozenset({0, 1, k - 1})}
    # a block {1,2} meeting {1,k-1} adds {1,2} and {0,1,2}
    three = two | {frozenset({1, 2}), frozenset({0, 1, 2})}
    for extra, unions in (({}, two), ({frozenset({1, 2}): VField([ONE, X1])}, three)):
        nu = KField.from_vfields(CHART, k, {**blocks, **extra})
        # each derivation lands on a disjoint union of blocks, each union here splitting one way
        parts.clear()
        w = kfield_to_weil(nu)
        assert set(parts) == unions and len(parts) <= CHART.dim * len(unions)
        parts.clear()
        assert weil_to_kfield(w, CHART) == nu
        assert set(parts) <= unions and len(parts) <= CHART.dim * len(unions)


def test_disjoint_unions_hit_the_parts_budget():
    message = re.escape(f"exceeds the budget of WeilElem.MAX_PARTS = {WeilElem.MAX_PARTS}")
    singletons = {frozenset({i}): VField([ONE, ZERO]) for i in range(40)}
    with pytest.raises(DomainError, match=message):
        kfield_to_weil(KField.from_vfields(CHART, 40, singletons))
    images = [WeilElem(40, 2, {frozenset(): X0, **{phi: ONE for phi in singletons}}), WeilElem(40, 2, {frozenset(): X1})]
    with pytest.raises(DomainError, match=message):
        weil_to_kfield(WeilMorphism(40, 2, images), CHART)
    # n disjoint blocks have 2^n - 1 unions: 13 fit in the budget, 14 do not
    unions = set()
    for i in range(13):
        weil._add_union(unions, frozenset({i}))
    assert len(unions) == 2**13 - 1 <= WeilElem.MAX_PARTS
    with pytest.raises(DomainError, match=message):
        weil._add_union(unions, frozenset({13}))


def singletons_and_pairs(k: int) -> KField:
    rng = Random(49)
    comps = {frozenset(c): random_vfield(rng, 2) for size in (1, 2) for c in combinations(range(k), size)}
    return KField.from_vfields(CHART, k, comps)


def test_each_dictionary_step_forms_at_most_parts_times_blocks_derivations(monkeypatch):
    flow, derivation = weil._flow, weil._derivation_into
    # [parts of the stepped image, blocks of the step, derivations formed]
    steps = []

    def counting_flow(w, blocks, sign):
        steps.append([len(w.num), len(blocks), 0])
        return flow(w, blocks, sign)

    def counting_derivation(accs, f, g, sign):
        steps[-1][2] += len(g)
        return derivation(accs, f, g, sign)

    monkeypatch.setattr(weil, "_flow", counting_flow)
    monkeypatch.setattr(weil, "_derivation_into", counting_derivation)
    # 10 singletons and 45 pairs: every index set of 10 slots is a disjoint union of them
    nu = singletons_and_pairs(10)
    w = kfield_to_weil(nu)
    assert weil_to_kfield(w, CHART) == nu
    # one step per coordinate and least element each way
    assert len(steps) == 2 * CHART.dim * 10
    assert all(0 < formed <= parts * blocks for parts, blocks, formed in steps)
    steps.clear()
    # 14 singletons and 91 pairs have 2^14 - 1 unions, refused before any step
    message = re.escape(f"disjoint-union count 16383 exceeds the budget of WeilElem.MAX_PARTS = {WeilElem.MAX_PARTS}")
    with pytest.raises(DomainError, match=message):
        kfield_to_weil(singletons_and_pairs(14))
    assert steps == []


@pytest.mark.parametrize("index", [0.5, 1.0, True, False, "0"])
def test_index_sets_must_hold_ints(index):
    # such an index printed as `0.5: d0` or `True: d0`, which does not reparse
    d0 = FreeLRElem.generator(CHART, 0)
    with pytest.raises(DomainError, match="not an int"):
        KField(CHART, 3, {frozenset({index}): d0})
    with pytest.raises(DomainError, match="not an int"):
        WeilElem(3, 2, {frozenset({index}): ONE})
    assert str(KField(CHART, 3, {frozenset({1}): d0})) == "K{arity=3; 1: d0}"


def test_kfield_to_weil_rejects_free_components():
    from igc import free_bracket

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


def test_a_weil_power_squares_and_multiplies():
    # w^e by square and multiply equals e repeated products, and its empty part is that of w to the e
    w = kfield_to_weil(random_kfield(Random(36), CHART, 2))
    x0 = w.coord_images[0]
    folded = WeilElem.unit(2, 2)
    for e in range(41):
        assert x0**e == folded and w.image(X0**e) == folded, e
        folded = folded * x0
    start = time.perf_counter()
    big = w.image(X0 ** 10**18)
    assert time.perf_counter() - start < 2
    assert big.part(()) == X0 ** 10**18 and big.part((0, 1))
    with pytest.raises(DomainError, match="polynomial power exceeds the coefficient budget of Poly.MAX_DIGITS"):
        (x0 + WeilElem.scalar(2, 3 * ONE)) ** 10**18


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


def test_from_callable_probes_by_itself():
    # the probe runs where the callable enters, not when the morphism is read
    def bad(f):
        return WeilElem(1, 2, {frozenset(): f, frozenset({0}): f.derive(0) * f.derive(0)})

    def swapped(f):
        return WeilElem.scalar(1, Poly(2, {(b, a): c for (a, b), c in f.terms.items()}))

    with pytest.raises(NotMultiplicativeError) as err:
        WeilMorphism.from_callable(1, 2, bad)
    assert err.value.witness == (X0, X0)
    with pytest.raises(NotMultiplicativeError) as err:
        WeilMorphism.from_callable(1, 2, swapped)
    assert err.value.witness == (ONE, X0)
    with pytest.raises(ArityMismatchError, match="wrong Weil algebra"):
        WeilMorphism.from_callable(1, 2, lambda f: WeilElem.scalar(2, f))


def test_from_callable_is_its_coordinate_images():
    rng = Random(47)
    for k in range(1, 4):
        w = kfield_to_weil(random_kfield(rng, CHART, k))
        calls = []

        def image(f):
            calls.append(f)
            return w.image(f)

        got = WeilMorphism.from_callable(k, 2, image)
        # each coordinate is evaluated once, the probe products once each
        assert calls[:2] == [X0, X1] and calls.count(X0) == calls.count(X1) == 1
        rebuilt = WeilMorphism(k, 2, [image(X0), image(X1)])
        assert got == rebuilt == w and hash(got) == hash(rebuilt) == hash(w)
        assert len({got, rebuilt, w, w.restrict(0)}) == 2


def test_internal_morphisms_equal_their_validated_rebuilds():
    # kfield_to_weil, restrict and weil_cup skip the constructor's checks
    rng = Random(48)
    for idx in range(50):
        chart = ChartSpec(2 + idx % 2, 4)
        k = 1 + idx % 3
        w = kfield_to_weil(random_kfield(rng, chart, k, density=0.7))
        fact = CupFactorization.canonical(chart.dim)
        outs = [w, w.restrict(idx % k), weil_cup(w, fact, [random_vfield(rng, chart.dim)])]
        for out in outs:
            rebuilt = WeilMorphism(out.arity, out.dim, list(out.coord_images))
            assert_same(out, rebuilt)
            assert hash(out) == hash(rebuilt) and type(out.coord_images) is tuple
            # image and weil_to_kfield skip them too
            image = out.image(random_poly(Random(idx), chart.dim))
            assert_same(image, WeilElem(image.arity, image.dim, dict(image.terms)))
        for out in (w, outs[2]):
            back = weil_to_kfield(out)
            assert_same(back, KField(back.chart, back.arity, dict(back.components)))


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
