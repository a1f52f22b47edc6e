"""Subset-indexed fields: faces, products, actions, homotopies, reduction."""

from fractions import Fraction
from itertools import combinations, permutations
from random import Random

import pytest

from igc import (
    ChartSpec,
    CupUndefinedError,
    DomainError,
    FacePreconditionError,
    FreeLRElem,
    KField,
    NotClosedError,
    NotFlagReducibleError,
    Poly,
    Polyvector,
    VField,
    act,
    act_transposition,
    add_over_face,
    compose,
    cup,
    face,
    free_bracket,
    homotopy,
    is_trivial_homotopy,
    lie_bracket_ext,
    lie_derivative_thin,
    project_to_lie,
    reduce_to_polyvector,
    strong_diff,
    trivial_by_disjoint_pairs,
    wedge,
)
from igc.oracle import oracle_bracket, random_kfield, random_vfield
from igc.parsing import Session, parse_expression

CHART = ChartSpec(2, 6)
X0 = Poly.var(2, 0)
D0V, D1V = VField.basis(2, 0), VField.basis(2, 1)


def one_field(v, chart=CHART):
    return KField.from_vfields(chart, 1, {frozenset({0}): v})


def two_field(a0, a1, a01, chart=CHART):
    return KField.from_vfields(
        chart, 2, {frozenset({0}): a0, frozenset({1}): a1, frozenset({0, 1}): a01}
    )


# faces and additions ---------------------------------------------------------


def test_face_examples():
    rng = Random(50)
    nu = two_field(*(random_vfield(rng, 2) for _ in range(3)))
    assert face(nu, 1) == one_field(nu.component_vfield({0}))
    assert face(KField.zero(CHART, 3), 0) == KField.zero(CHART, 2)
    with pytest.raises(DomainError):
        face(nu, 2)


def test_face_simplicial_identities():
    rng = Random(51)
    nu = random_kfield(rng, CHART, 4)
    for j in range(4):
        for i in range(j):
            assert face(face(nu, j), i) == face(face(nu, i), j - 1)


def test_add_over_face():
    rng = Random(52)
    a0, a1, a01, b1, b01 = (random_vfield(rng, 2) for _ in range(5))
    mu = two_field(a0, a1, a01)
    nu = two_field(a0, b1, b01)
    out = add_over_face(mu, nu, {0})
    assert out == two_field(a0, a1 + b1, a01 + b01)
    zero_compatible = two_field(a0, VField.zero(2), VField.zero(2))
    assert add_over_face(mu, zero_compatible, {0}) == mu
    bad = two_field(random_vfield(rng, 2), a1, a01)
    with pytest.raises(FacePreconditionError) as err:
        add_over_face(mu, bad, {0})
    assert err.value.subset == frozenset({0})


def test_face_precondition_names_the_first_disagreement_in_subset_lex_order():
    rng = Random(58)
    comps = {frozenset(s): FreeLRElem.from_vfield(CHART, random_vfield(rng, 2)) for s in [(0,), (1,), (2,), (1, 2)]}
    mu = KField(CHART, 4, comps)
    other = lambda: FreeLRElem.from_vfield(CHART, random_vfield(rng, 2))  # noqa: E731
    # {2} and {1,2} differ, {0,2} is stored on one side only and {1} on the other
    partner = {**comps, frozenset({2}): other(), frozenset({1, 2}): other(), frozenset({0, 2}): other()}
    del partner[frozenset({1})]
    nu = KField(CHART, 4, partner)
    for a, b in ((mu, nu), (nu, mu)):
        with pytest.raises(FacePreconditionError) as err:
            add_over_face(a, b, {0, 1, 2})
        assert err.value.subset == frozenset({0, 2})
        with pytest.raises(FacePreconditionError) as err:
            strong_diff(a, b, (0, 3))
        assert err.value.subset == frozenset({0, 2})
        with pytest.raises(FacePreconditionError) as err:
            strong_diff(a, b, (0, 2))
        assert err.value.subset == frozenset({1})


def test_add_over_face_arity_one_is_plain_addition():
    rng = Random(53)
    u, v = random_vfield(rng, 2), random_vfield(rng, 2)
    assert add_over_face(one_field(u), one_field(v), frozenset()) == one_field(u + v)


# strong difference ------------------------------------------------------------


def test_strong_diff_basic():
    rng = Random(54)
    a0, a1, a, b = (random_vfield(rng, 2) for _ in range(4))
    mu, nu = two_field(a0, a1, a), two_field(a0, a1, b)
    assert strong_diff(mu, nu, (0, 1)) == one_field(a - b)
    assert strong_diff(mu, mu, (0, 1)) == KField.zero(CHART, 1)
    bad = two_field(random_vfield(rng, 2), a1, b)
    with pytest.raises(FacePreconditionError):
        strong_diff(mu, bad, (0, 1))


def test_face_sums_build_no_zero_element(monkeypatch):
    # both sums run over the stored components, and a sum that cancels is dropped
    rng = Random(56)
    elem = lambda: FreeLRElem.from_vfield(CHART, random_vfield(rng, 2))  # noqa: E731
    cases, cancelled = [], 0
    for k in range(2, 5):
        mu = random_kfield(rng, CHART, k, density=0.7)
        psi = frozenset(range(k - 1))
        over, diff = dict(mu.components), dict(mu.components)
        for phi, e in mu.components.items():
            # cancel, replace or drop the components the face and the pair (0, 1) leave free
            r = rng.random()
            change = -e if r < 0.4 else elem() if r < 0.7 else None
            for comps, free in ((over, not phi <= psi), (diff, {0, 1} <= phi)):
                if free and change is None:
                    del comps[phi]
                elif free:
                    comps[phi] = change
                    cancelled += r < 0.4
        cases.append((mu, KField(CHART, k, over), psi, KField(CHART, k, diff)))
    assert cancelled
    want = [(add_over_face(mu, nu, psi), strong_diff(mu, other, (0, 1))) for mu, nu, psi, other in cases]

    def refuse(cls, chart):
        raise AssertionError("a zero FreeLRElem was built")

    monkeypatch.setattr(FreeLRElem, "zero", classmethod(refuse))
    got = [(add_over_face(mu, nu, psi), strong_diff(mu, other, (0, 1))) for mu, nu, psi, other in cases]
    assert got == want
    assert all(not e.is_zero() for pair in got for nu in pair for e in nu.components.values())


def test_strong_diff_pipeline_bracket():
    alpha, beta = D0V, VField([Poly.zero(2), X0])
    swapped = act([0], compose(one_field(alpha), one_field(beta)), "lie")
    out = strong_diff(swapped, compose(one_field(beta), one_field(alpha)), (0, 1))
    assert out.component_vfield({0}) == D1V


def test_strong_diff_general_pair():
    rng = Random(55)
    nu = random_kfield(rng, CHART, 3)
    # build a partner differing only where {0, 2} is contained
    delta = random_vfield(rng, 2)
    comps = dict(nu.components)
    key = frozenset({0, 2})
    comps[key] = comps[key] + FreeLRElem.from_vfield(CHART, delta)
    mu = KField(CHART, 3, comps)
    out = strong_diff(mu, nu, (0, 2))
    assert out.component_vfield({0}) == delta


def reference_strong_diff(mu: KField, nu: KField, pair: tuple[int, int]) -> KField:
    """The strong difference taken over every index set of the face deleting j."""
    k = mu.arity
    i, j = pair
    for phi in sorted(set(mu.components) | set(nu.components), key=sorted):
        if not (i in phi and j in phi) and mu.component(phi) != nu.component(phi):
            raise FacePreconditionError(phi)
    remaining = [x for x in range(k) if x != j]
    reindex = {old: new for new, old in enumerate(remaining)}
    comps = {}
    for size in range(1, k):
        for chi in map(frozenset, combinations(remaining, size)):
            if i in chi:
                elem = mu.component(chi | {j}) - nu.component(chi | {j})
            else:
                elem = mu.component(chi)
            if not elem.is_zero():
                comps[frozenset(reindex[x] for x in chi)] = elem
    return KField(mu.chart, k - 1, comps)


def test_strong_diff_matches_the_all_index_set_reference():
    rng = Random(59)
    elem = lambda: FreeLRElem.from_vfield(CHART, random_vfield(rng, 2))  # noqa: E731
    for k in range(2, 6):
        for _ in range(4):
            # missing blocks, singletons included
            full = random_kfield(rng, CHART, k, density=0.6).components
            comps = {phi: e for phi, e in full.items() if rng.random() < 0.8}
            mu = KField(CHART, k, comps)
            for i, j in combinations(range(k), 2):
                # a partner that drops, replaces, adds or keeps the components holding i and j
                partner = dict(comps)
                for rest in range(1 << k):
                    phi = frozenset(x for x in range(k) if rest >> x & 1) | {i, j}
                    r = rng.random()
                    if r < 0.25:
                        partner.pop(phi, None)
                    elif r < 0.5:
                        partner[phi] = elem()
                    elif r < 0.6:
                        partner[phi] = free_bracket(elem(), elem())
                nu = KField(CHART, k, partner)
                for a, b in ((mu, nu), (nu, mu), (mu, mu)):
                    got, want = strong_diff(a, b, (i, j)), reference_strong_diff(a, b, (i, j))
                    assert got == want and str(got) == str(want)
                # a difference off the components holding i and j is the same error in both
                bad = KField(CHART, k, {**partner, frozenset({i}): elem()})
                for diff in (strong_diff, reference_strong_diff):
                    with pytest.raises(FacePreconditionError) as err:
                        diff(mu, bad, (i, j))
                    assert err.value.subset == frozenset({i})


# cup and compose ---------------------------------------------------------------


def test_cup_examples():
    rng = Random(56)
    alpha, beta, gamma = (random_vfield(rng, 2) for _ in range(3))
    ab = cup(one_field(alpha), one_field(beta))
    assert ab == KField.from_vfields(
        CHART, 2, {frozenset({0}): alpha, frozenset({0, 1}): beta}
    )
    vertical = cup(KField.zero(CHART, 1), one_field(alpha))
    assert vertical == KField.from_vfields(CHART, 2, {frozenset({0, 1}): alpha})
    # chains associate onto the flag supports (right-nesting needs the
    # Weil-level cup, since beta cup gamma is no longer first order)
    left = cup(ab, one_field(gamma))
    assert left == KField.from_vfields(
        CHART,
        3,
        {frozenset({0}): alpha, frozenset({0, 1}): beta, frozenset({0, 1, 2}): gamma},
    )


def test_cup_places_each_singleton_at_its_own_slot():
    # the singleton {s} of the second factor lands at {0..k-1} + {k+s}
    session = Session(CHART)
    got = cup(parse_expression("K{arity=1; 0: d0}", session), parse_expression("K{arity=2; 0: d0; 1: x1*d1}", session))
    assert got == parse_expression("K{arity=3; 0: d0; 0,1: d0; 0,2: x1*d1}", session)


def test_cup_definedness():
    rng = Random(57)
    second = random_kfield(rng, CHART, 2)
    with pytest.raises(CupUndefinedError) as err:
        cup(one_field(random_vfield(rng, 2)), second)
    assert err.value.subset == frozenset({0, 1})


def test_compose_examples():
    rng = Random(58)
    alpha, beta = random_vfield(rng, 2), random_vfield(rng, 2)
    out = compose(one_field(alpha), one_field(beta))
    assert out == KField.from_vfields(
        CHART, 2, {frozenset({0}): alpha, frozenset({1}): beta}
    )
    padded = compose(out, KField.zero(CHART, 1))
    assert padded.arity == 3 and padded.support() == out.support()


# symmetric-group action -----------------------------------------------------------


def test_act_swap_k2_formula():
    rng = Random(59)
    for _ in range(10):
        a0, a1, a01 = (random_vfield(rng, 2) for _ in range(3))
        nu = two_field(a0, a1, a01)
        assert act([0], nu, "lie") == two_field(a1, a0, a01 + oracle_bracket(a0, a1))


def test_act_equal_components_just_permute():
    rng = Random(60)
    alpha = random_vfield(rng, 2)
    nu = two_field(alpha, alpha, alpha)
    for flavor in ("free", "lie"):
        assert act([0], nu, flavor) == nu


def test_act_free_flavor_k2():
    nu = two_field(D0V, VField([Poly.zero(2), X0]), VField.zero(2))
    d0 = FreeLRElem.generator(CHART, 0)
    x0d1 = FreeLRElem.from_vfield(CHART, VField([Poly.zero(2), X0]))
    out = act([0], nu, "free")
    assert out.component({0}) == x0d1
    assert out.component({1}) == d0
    assert out.component({0, 1}) == free_bracket(d0, x0d1)


def relabeling_word(perm) -> list[int]:
    """Adjacent-swap word whose act() application relabels components by perm."""
    lst = list(perm)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(lst) - 1):
            if lst[i] > lst[i + 1]:
                lst[i], lst[i + 1] = lst[i + 1], lst[i]
                swaps.append(i)
                changed = True
    return swaps[::-1]


def test_act_word_is_componentwise_relabeling_on_commuting_fields():
    # constant multiples of one direction commute, so any word acts by pure
    # relabeling new[phi] = old[perm(phi)]
    k = 3
    consts = {}
    counter = 1
    for size in range(1, k + 1):
        for phi in combinations(range(k), size):
            consts[frozenset(phi)] = VField([Poly.const(2, counter), Poly.zero(2)])
            counter += 1
    nu = KField.from_vfields(CHART, k, consts)
    for perm in permutations(range(k)):
        out = act(relabeling_word(perm), nu, "lie")
        for phi in consts:
            assert out.component_vfield(phi) == consts[frozenset(perm[x] for x in phi)]


def test_act_relations_spot():
    rng = Random(61)
    chart = ChartSpec(2, 8)
    nu = random_kfield(rng, chart, 3, degree=1, terms=1)
    for flavor in ("free", "lie"):
        assert act([0, 0], nu, flavor) == nu
        assert act([0, 1, 0], nu, flavor) == act([1, 0, 1], nu, flavor)


def test_act_malformed_word(monkeypatch):
    import igc.groupoid as groupoid

    nu = random_kfield(Random(62), CHART, 2)
    with pytest.raises(DomainError):
        act([1], nu, "lie")
    with pytest.raises(DomainError):
        act([0], nu, "classical")
    # the whole input is checked before the first walk: a bad flavor with no
    # letter to apply, a bad last letter, the arity budget and a bad flavor
    # after valid letters are each refused with no walk run
    walks = []
    monkeypatch.setattr(groupoid, "_act_by_transposition", lambda *args: walks.append(args))
    wide = KField(CHART, KField.MAX_ACTION_ARITY + 1, {frozenset({0}): FreeLRElem.generator(CHART, 0)})
    refusals = [
        (lambda: act([], nu, "bogus"), "unknown bracket flavor 'bogus'; use 'free' or 'lie'"),
        (lambda: act([0, 0, 0, 1], nu, "free"), "swap generator 1 out of range [0, 1)"),
        (lambda: act([0, 1], wide, "free"), "arity 9 exceeds the budget of KField.MAX_ACTION_ARITY = 8"),
        (lambda: act([0, 0], nu, "classical"), "unknown bracket flavor 'classical'; use 'free' or 'lie'"),
        (lambda: act_transposition(nu, 0, 1, "bogus"), "unknown bracket flavor 'bogus'; use 'free' or 'lie'"),
        (lambda: act_transposition(wide, 0, 1), "arity 9 exceeds the budget of KField.MAX_ACTION_ARITY = 8"),
    ]
    for call, message in refusals:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message
    assert walks == []
    act([0, 0], nu, "free")
    assert len(walks) == 2


# homotopies ---------------------------------------------------------------------


def test_homotopy_k2_formula():
    rng = Random(63)
    for _ in range(10):
        a0, a1, a01 = (random_vfield(rng, 2) for _ in range(3))
        nu = two_field(a0, a1, a01)
        e0 = FreeLRElem.from_vfield(CHART, a0)
        e1 = FreeLRElem.from_vfield(CHART, a1)
        want = KField(
            CHART, 1, {frozenset({0}): free_bracket(e0, e1) - lie_bracket_ext(e0, e1)}
        )
        h = homotopy(nu, 0, 1)
        assert h == want
        assert all(project_to_lie(c).is_zero() for c in h.components.values())


def test_homotopy_zero_leg_vanishes():
    rng = Random(64)
    a0, a01 = random_vfield(rng, 2), random_vfield(rng, 2)
    nu = two_field(a0, VField.zero(2), a01)
    assert homotopy(nu, 0, 1).is_zero()


def test_homotopy_arity_and_count():
    rng = Random(65)
    with pytest.raises(DomainError):
        homotopy(one_field(random_vfield(rng, 2)), 0, 1)
    chart = ChartSpec(2, 8)
    for k in (2, 3, 4):
        nu = random_kfield(rng, chart, k, degree=1, terms=1)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        assert len(pairs) == k * (k - 1) // 2
        for i, j in pairs:
            homotopy(nu, i, j)


def test_act_transposition_boundary_lemma():
    rng = Random(66)
    chart = ChartSpec(2, 8)
    nu = random_kfield(rng, chart, 3, degree=1, terms=1)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        free_side = act_transposition(nu, i, j, "free")
        lie_side = act_transposition(nu, i, j, "lie")
        for phi in set(free_side.components) | set(lie_side.components):
            if not (i in phi and j in phi):
                assert free_side.component(phi) == lie_side.component(phi)


# trivial homotopies ----------------------------------------------------------------


def test_trivial_examples():
    rng = Random(67)
    alpha, beta = D0V, VField([Poly.zero(2), X0])
    assert is_trivial_homotopy(cup(one_field(alpha), one_field(beta)))[0]
    ok, witness = is_trivial_homotopy(compose(one_field(alpha), one_field(beta)))
    assert not ok
    assert witness == (0, 1, frozenset({0}), frozenset({1}))
    assert is_trivial_homotopy(KField.zero(CHART, 3))[0]


def test_trivial_characterizations_agree():
    rng = Random(68)
    chart = ChartSpec(2, 8)
    for idx in range(20):
        nu = random_kfield(rng, chart, 2 + idx % 3, degree=1, terms=1, density=0.7)
        assert is_trivial_homotopy(nu)[0] == trivial_by_disjoint_pairs(nu)[0]
    # disjoint components that are unequal but parallel still give a trivial
    # homotopy: the free and classical brackets differ by their wedge
    session = Session(chart)
    parallel = parse_expression("K{arity=2; 0: 9/2*d0; 0,1: -2/3*x1*d0 - x1*d1; 1: -2/3*d0}", session)
    assert is_trivial_homotopy(parallel) == (True, None)
    assert trivial_by_disjoint_pairs(parallel) == (True, None)
    skew = parse_expression("K{arity=2; 0: 9/2*d0; 1: x0*d1}", session)
    assert not is_trivial_homotopy(skew)[0]
    assert trivial_by_disjoint_pairs(skew) == (False, (frozenset({0}), frozenset({1})))


def reference_homotopy(nu: KField, i: int, j: int) -> KField:
    """The definitional homotopy: the strong difference of both swap actions."""
    return strong_diff(act_transposition(nu, i, j, "free"), act_transposition(nu, i, j, "lie"), (i, j))


def reference_is_trivial(nu: KField) -> tuple[bool, tuple | None]:
    """Both swap actions for every pair; the witness is the first disjoint
    supported pair, in subset-lex order, whose two brackets differ."""
    support = sorted(nu.components, key=sorted)
    for i, j in combinations(range(nu.arity), 2):
        if act_transposition(nu, i, j, "free") == act_transposition(nu, i, j, "lie"):
            continue
        for a, phi in enumerate(support):
            for psi in support[a + 1 :]:
                x, y = nu.components[phi], nu.components[psi]
                if not phi & psi and free_bracket(x, y) != lie_bracket_ext(x, y):
                    return False, (i, j, phi, psi)
        raise AssertionError(f"the swaps ({i} {j}) differ but no bracket pair does: {nu}")
    return True, None


def reference_act_by_transposition(nu: KField, i: int, j: int, flavor: str) -> KField:
    """The all-subsets walk that forms both swapped parts of every splitting
    element by element and compares them in subset-lex order before it looks
    them up; every image it forms is checked against the rule the walk uses,
    s ^ {i, j} when s holds exactly one of i and j, and s otherwise."""
    bracket = free_bracket if flavor == "free" else lie_bracket_ext
    swap = {i: j, j: i}
    pair = frozenset((i, j))

    def image(s):
        out = frozenset(swap.get(x, x) for x in s)
        assert out == (s ^ pair if len(s & pair) == 1 else s), (s, i, j)
        return out

    comps = {}
    for phi in (frozenset(c) for size in range(1, nu.arity + 1) for c in combinations(range(nu.arity), size)):
        elem = nu.component(image(phi))
        if image(phi) == phi:
            items = sorted(phi)
            for size in range(len(items)):
                for extra in combinations(items[1:], size):
                    part_a = frozenset((items[0],) + extra)
                    part_b = phi - part_a
                    part1, part2 = (part_a, part_b) if sorted(part_a) < sorted(part_b) else (part_b, part_a)
                    if sorted(image(part1)) > sorted(image(part2)):
                        a, b = nu.components.get(part1), nu.components.get(part2)
                        if a is not None and b is not None:
                            elem = elem + bracket(a, b)
        if not elem.is_zero():
            comps[phi] = elem
    return KField(nu.chart, nu.arity, comps)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def multi_flip_fields(rng: Random, chart: ChartSpec) -> list[KField]:
    """Fields of arity 3-5 supported on every index set, over unlike denominators.

    Every swap then flips two or more splittings of {0..k-1} and of other
    fixed index sets.  The second field of each arity holds a length-2 word
    at {0}, so that its words stay within max_degree 6 along any word of swaps.
    """
    fields = []
    for k in (3, 4, 5):
        subsets = [frozenset(c) for size in range(1, k + 1) for c in combinations(range(k), size)]
        for long_word in (False, True):
            comps = {}
            for idx, phi in enumerate(subsets):
                a = FreeLRElem.from_vfield(chart, random_vfield(rng, 2, degree=1, terms=2))
                if long_word and phi == {0}:
                    a = a + free_bracket(a, FreeLRElem.generator(chart, 1))
                comps[phi] = a * Fraction(1, PRIMES[idx % len(PRIMES)])
            fields.append(KField(chart, k, comps))
    # the corrections the swap (0 1) adds at {0, 1, 2} cancel its component exactly
    full = frozenset(range(3))
    for flavor in ("free", "lie"):
        rest = {phi: e for phi, e in fields[0].components.items() if phi != full}
        corrections = reference_act_by_transposition(KField(chart, 3, rest), 0, 1, flavor).component(full)
        nu = KField(chart, 3, {**rest, full: -corrections})
        assert not corrections.is_zero() and full not in act([0], nu, flavor).components
        fields.append(nu)
    return fields


def assert_rebuilds(nu: KField):
    """Every component is what the public constructor builds from its terms, num and den alike."""
    for elem in nu.components.values():
        rebuilt = FreeLRElem(nu.chart, elem.terms)
        assert (rebuilt.num, rebuilt.den) == (elem.num, elem.den) and hash(rebuilt) == hash(elem)
    rebuilt = KField(nu.chart, nu.arity, nu.components)
    assert rebuilt == nu and str(rebuilt) == str(nu)


def test_swap_action_matches_the_subset_key_reference():
    rng = Random(73)
    chart = ChartSpec(2, 6)
    fields = multi_flip_fields(rng, chart)
    for idx in range(60):
        k = 2 + idx % 5
        subsets = [frozenset(c) for size in range(1, k + 1) for c in combinations(range(k), size)]
        pool = [FreeLRElem.from_vfield(chart, random_vfield(rng, 2, degree=1, terms=1)) for _ in range(3)]
        pool.append(free_bracket(pool[0], pool[1]) + pool[2])
        if idx % 2:
            fields.append(random_kfield(rng, chart, k, degree=1, terms=1, density=0.5))
        else:
            fields.append(KField(chart, k, {phi: rng.choice(pool) for phi in rng.sample(subsets, min(len(subsets), 9))}))
    for nu in fields:
        for flavor in ("free", "lie"):
            for i in range(nu.arity - 1):
                got, want = act([i], nu, flavor), reference_act_by_transposition(nu, i, i + 1, flavor)
                assert got == want and str(got) == str(want), (str(nu), i, flavor)
                assert_rebuilds(got)
            for i, j in combinations(range(nu.arity), 2):
                got, want = act_transposition(nu, i, j, flavor), reference_act_by_transposition(nu, i, j, flavor)
                assert got == want and str(got) == str(want), (str(nu), i, j, flavor)
                assert_rebuilds(got)
            # a word of up to four letters, folded one letter at a time
            word = [rng.randrange(nu.arity - 1) for _ in range(rng.randint(2, 4))]
            want = nu
            for i in word:
                want = reference_act_by_transposition(want, i, i + 1, flavor)
            got = act(word, nu, flavor)
            assert got == want and str(got) == str(want), (str(nu), word, flavor)


@pytest.mark.parametrize("flavor", ["free", "lie"])
def test_swap_walk_reduces_each_corrected_component_once(monkeypatch, flavor):
    from igc import chart_algebra

    # under (0 1) the splittings {0} | {1,2,3} and {0,2,3} | {1} of {0,1,2,3}
    # both flip, and so does {0} | {1}; no other fixed index set is corrected
    rng = Random(74)
    support = [{0}, {1}, {2}, {3}, {1, 2, 3}, {0, 2, 3}]
    nu = KField(CHART, 4, {
        frozenset(phi): FreeLRElem.from_vfield(CHART, random_vfield(rng, 2, degree=1, terms=2)) * Fraction(1, p)
        for phi, p in zip(support, PRIMES)
    })
    reductions = []
    reduce = chart_algebra._cancelled
    monkeypatch.setattr(chart_algebra, "_cancelled", lambda *args: reductions.append(1) or reduce(*args))
    got = act([0], nu, flavor)
    monkeypatch.undo()
    assert got == reference_act_by_transposition(nu, 0, 1, flavor)
    assert {frozenset({0, 1}), frozenset(range(4))} <= got.support()
    assert len(reductions) <= 2


# two pairs with union {0,1,2} whose defects cancel at (0, 1) but not at (0, 2)
CANCELLING = "K{arity=3; 0: d0; 1: d0; 0,2: d1; 1,2: d1}"


def test_flip_defects_match_the_definitional_route():
    rng = Random(72)
    chart = ChartSpec(2, 6)
    fields = [parse_expression(CANCELLING, Session(chart))]
    for idx in range(120):
        k = 2 + idx % 5
        subsets = [frozenset(c) for size in range(1, k + 1) for c in combinations(range(k), size)]
        # a small pool repeats components, so defects at one union can cancel
        pool = [FreeLRElem.from_vfield(chart, random_vfield(rng, 2, degree=1, terms=1)) for _ in range(3)]
        pool.append(free_bracket(pool[0], pool[1]) + pool[2])
        comps = {}
        if idx % 3 == 2:
            # one element per size: the defects of mirrored pairs cancel at their union
            by_size = [rng.choice(pool) for _ in range(k + 1)]
            comps = {phi: by_size[len(phi)] for phi in subsets if len(phi) <= 2 and rng.random() < 0.8}
        for _ in range(rng.randint(0, 7)):
            comps[rng.choice(subsets)] = (
                rng.choice(pool) if rng.random() < 0.6 else FreeLRElem.from_vfield(chart, random_vfield(rng, 2))
            )
        fields.append(KField(chart, k, comps))
    verdicts = []
    for nu in fields:
        verdicts.append(is_trivial_homotopy(nu))
        assert verdicts[-1] == reference_is_trivial(nu), str(nu)
        for i, j in combinations(range(nu.arity), 2):
            got, want = homotopy(nu, i, j), reference_homotopy(nu, i, j)
            assert got == want and str(got) == str(want), (str(nu), i, j)
    # both verdicts occur, and some non-trivial field's least pair is not (0, 1)
    assert {ok for ok, _ in verdicts} == {True, False}
    assert any(witness and witness[:2] != (0, 1) for _, witness in verdicts)


def test_flip_defects_sum_at_each_union():
    nu = parse_expression(CANCELLING, Session(ChartSpec(2, 6)))
    d0, d1 = nu.components[frozenset({0})], nu.components[frozenset({0, 2})]
    assert free_bracket(d0, d1) != lie_bracket_ext(d0, d1)
    assert str(homotopy(nu, 0, 1)) == "K{arity=2}"
    assert str(homotopy(nu, 0, 2)) == "K{arity=2; 0,1: F[d0,d1]; 1: d0}"
    assert str(homotopy(nu, 1, 2)) == "K{arity=2; 0: d0}"
    assert is_trivial_homotopy(nu) == (False, (0, 2, frozenset({0}), frozenset({1, 2})))


def test_trivial_and_homotopy_run_no_swap_action(monkeypatch):
    import igc.groupoid as groupoid

    def no_action(*args):
        raise AssertionError("swap action called")

    calls = {"_free_bracket_into": 0, "_lie_bracket_into": 0, "_bracket": 0}

    def counted(name):
        bracket = getattr(groupoid, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return bracket(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(groupoid, "_act_by_transposition", no_action)
    for name in calls:
        monkeypatch.setattr(groupoid, name, counted(name))
    k, chart = 8, ChartSpec(2, 4)
    d0, x0d1 = (FreeLRElem.from_vfield(chart, v) for v in (D0V, VField([Poly.zero(2), X0])))
    subsets = [frozenset(c) for size in range(1, k + 1) for c in combinations(range(k), size)]
    disjoint_pairs = (3**k - 2 * 2**k + 1) // 2
    # a trivial field has every pair walked, and each pair's two brackets
    # added into one accumulator and reduced once
    assert is_trivial_homotopy(KField(chart, k, dict.fromkeys(subsets, d0))) == (True, None)
    assert calls == dict.fromkeys(calls, disjoint_pairs)
    # x0*d1 at {0} gives each pair ({0}, q) a defect
    nu = KField(chart, k, {**dict.fromkeys(subsets, d0), frozenset({0}): x0d1})
    assert is_trivial_homotopy(nu) == (False, (0, 1, frozenset({0}), frozenset({1})))
    assert homotopy(nu, 2, 5).arity == k - 1
    chain = KField.from_vfields(CHART, 3, {frozenset(range(m + 1)): D0V for m in range(3)})
    assert reduce_to_polyvector(chain) == Polyvector.from_vfield(D0V)
    with pytest.raises(NotClosedError):
        reduce_to_polyvector(compose(one_field(D0V), one_field(VField([Poly.zero(2), X0]))))


# classical fields and reduction --------------------------------------------------------


def test_classical_flavor():
    rng = Random(69)
    nu = random_kfield(rng, CHART, 2)
    assert nu.is_classical() and nu.flavor == "classical"
    free_comp = free_bracket(FreeLRElem.generator(CHART, 0), FreeLRElem.generator(CHART, 1))
    free_field = KField(CHART, 1, {frozenset({0}): free_comp})
    assert free_field.flavor == "free"
    with pytest.raises(DomainError):
        free_field.component_vfield({0})
    assert not is_trivial_homotopy(compose(one_field(D0V), one_field(VField([Poly.zero(2), X0]))))[0]


def test_reduce_examples():
    rng = Random(70)
    alpha, beta = random_vfield(rng, 2, degree=1, terms=1), random_vfield(rng, 2, degree=1, terms=1)
    got = reduce_to_polyvector(cup(one_field(alpha), one_field(beta)))
    assert got == wedge(Polyvector.from_vfield(alpha), Polyvector.from_vfield(beta))
    assert reduce_to_polyvector(one_field(alpha)) == Polyvector.from_vfield(alpha)
    assert reduce_to_polyvector(cup(one_field(alpha), one_field(alpha))) == Polyvector.from_vfield(alpha)
    assert reduce_to_polyvector(KField.zero(CHART, 2)).is_zero()
    # a zero chain entry drops out rather than zeroing the wedge
    zero = KField.zero(CHART, 1)
    got = reduce_to_polyvector(cup(cup(one_field(alpha), zero), one_field(beta)))
    assert got == wedge(Polyvector.from_vfield(alpha), Polyvector.from_vfield(beta))


def test_reduce_not_closed():
    with pytest.raises(NotClosedError) as err:
        reduce_to_polyvector(compose(one_field(D0V), one_field(VField([Poly.zero(2), X0]))))
    assert err.value.witness[0:2] == (0, 1)


def test_reduce_not_flag_reducible():
    alpha = VField.basis(2, 0)
    nu = KField.from_vfields(CHART, 2, {frozenset({0}): alpha, frozenset({1}): alpha})
    with pytest.raises(NotFlagReducibleError):
        reduce_to_polyvector(nu)
    # the all-equal field is homotopy-trivial, and no support reaches the
    # flag chain at k=6 either
    k = 6
    equal = {frozenset(c): alpha for size in range(1, k + 1) for c in combinations(range(k), size)}
    nu = KField.from_vfields(ChartSpec(2, 8), k, equal)
    assert is_trivial_homotopy(nu)[0]
    with pytest.raises(NotFlagReducibleError, match="no relabeling moves the support into the flag chain"):
        reduce_to_polyvector(nu)


def test_reducing_a_chain_takes_no_bracket(monkeypatch):
    import igc.groupoid as groupoid

    def refuse(*args):
        raise AssertionError("a chain has no disjoint pair to test or bracket")

    for name in ("is_trivial_homotopy", "_bracket"):
        monkeypatch.setattr(groupoid, name, refuse)
    x0d1 = VField([Poly.zero(2), X0])
    chain = KField.from_vfields(CHART, 4, {frozenset({1}): D0V, frozenset({1, 3}): x0d1, frozenset(range(4)): x0d1})
    assert str(reduce_to_polyvector(chain)) == "x0*d0 ^ d1"
    # a non-chain still runs the trivial test, which picks the error
    with pytest.raises(AssertionError, match="no disjoint pair"):
        reduce_to_polyvector(KField.from_vfields(CHART, 2, {frozenset({0}): D0V, frozenset({1}): x0d1}))


def reference_reduce(nu: KField) -> Polyvector:
    """The k! relabeling search that reduce_to_polyvector replaced."""
    chart = nu.chart
    k = nu.arity
    classical = KField(
        chart,
        k,
        {
            phi: FreeLRElem.from_vfield(chart, project_to_lie(elem))
            for phi, elem in nu.components.items()
        },
    )
    ok, witness = is_trivial_homotopy(classical)
    if not ok:
        raise NotClosedError(witness)
    flags = [frozenset(range(m + 1)) for m in range(k)]
    flag_set = set(flags)
    for perm in permutations(range(k)):
        cand = act(relabeling_word(perm), classical, "lie")
        if cand.support() <= flag_set:
            chain = [cand.component_vfield(flags[m]) for m in range(k)]
            chain = [v for v in chain if not v.is_zero()]
            deduped: list[VField] = []
            for v in chain:
                if not deduped or deduped[-1] != v:
                    deduped.append(v)
            if not deduped:
                return Polyvector.zero(chart.dim)
            out = Polyvector.from_vfield(deduped[0])
            for v in deduped[1:]:
                out = wedge(out, Polyvector.from_vfield(v))
            return out
    raise NotFlagReducibleError("no relabeling moves the support into the flag chain")


def reduce_outcome(reduce, nu):
    try:
        return reduce(nu)
    except (NotClosedError, NotFlagReducibleError) as exc:
        return type(exc).__name__, str(exc)


def assert_reduce_matches_search(nu) -> str:
    got = reduce_outcome(reduce_to_polyvector, nu)
    assert got == reduce_outcome(reference_reduce, nu), str(nu)
    return got[0] if isinstance(got, tuple) else "class"


def test_reduce_matches_relabeling_search_on_every_small_support():
    rng = Random(72)
    chart = ChartSpec(2, 8)
    seen = {}
    for k in (1, 2, 3):
        subsets = [frozenset(c) for size in range(1, k + 1) for c in combinations(range(k), size)]
        for mask in range(1, 1 << len(subsets)):
            support = [phi for b, phi in enumerate(subsets) if mask >> b & 1]
            # constant multiples of d0 are pairwise parallel, so every such
            # field is homotopy-trivial; repeated constants exercise the
            # collapse of equal neighbours
            parallel = {phi: D0V * rng.choice((1, 2, -3)) for phi in support}
            generic = {phi: random_vfield(rng, 2, degree=1, terms=1) for phi in support}
            for comps in (parallel, generic):
                kind = assert_reduce_matches_search(KField.from_vfields(chart, k, comps))
                seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"class", "NotClosedError", "NotFlagReducibleError"}


def _chain(vfields, chart):
    out = one_field(vfields[0], chart)
    for v in vfields[1:]:
        out = cup(out, one_field(v, chart))
    return out


def test_reduce_matches_relabeling_search_at_arity_4_and_5():
    rng = Random(73)
    chart = ChartSpec(2, 8)
    for k, rounds in ((4, 3), (5, 1)):
        for _ in range(rounds):
            a, b, c = (random_vfield(rng, 2, degree=1, terms=1) for _ in range(3))
            word = [rng.randrange(k - 1) for _ in range(2 * k)]
            generic = [random_vfield(rng, 2, degree=1, terms=1) for _ in range(k)]
            degenerate = ([a, VField.zero(2), a, b, b, c] * 2)[:k]
            assert assert_reduce_matches_search(act(word, _chain(generic, chart), "lie")) == "class"
            assert assert_reduce_matches_search(act(word, _chain(degenerate, chart), "lie")) == "class"
            # {0} and {1} parallel, every other set holding both: trivial, no chain
            trivial = {frozenset({0}): D0V * 2, frozenset({1}): D0V * -3}
            for size in range(2, k + 1):
                for rest in combinations(range(2, k), size - 2):
                    trivial[frozenset({0, 1, *rest})] = random_vfield(rng, 2, degree=1, terms=1)
            nu = act(word, KField.from_vfields(chart, k, trivial), "lie")
            assert assert_reduce_matches_search(nu) == "NotFlagReducibleError"
        alpha = random_vfield(rng, 2, degree=1, terms=1)
        equal = {frozenset(c): alpha for size in range(1, k + 1) for c in combinations(range(k), size)}
        assert assert_reduce_matches_search(KField.from_vfields(chart, k, equal)) == "NotFlagReducibleError"


def test_lie_derivative_thin():
    beta = VField([Poly.zero(2), X0])
    alpha = D0V
    assert lie_derivative_thin(beta, alpha) == -D1V
    assert lie_derivative_thin(alpha, alpha).is_zero()
    rng = Random(71)
    for _ in range(10):
        u, v = random_vfield(rng, 3), random_vfield(rng, 3)
        assert lie_derivative_thin(u, v) == oracle_bracket(u, v)
    # bilinear over constants
    assert lie_derivative_thin(beta * 3, alpha) == lie_derivative_thin(beta, alpha) * 3
