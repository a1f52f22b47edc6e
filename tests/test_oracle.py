"""The independent verifiers themselves, including their negative controls."""

from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest

from igc import (
    ChartSpec,
    DomainError,
    RelativeSpec,
    oracle_bracket,
    oracle_lyndon_count,
    oracle_multiplicativity,
    oracle_quotient_lowdegree,
    vf_bracket,
)
from igc.oracle import _operator_image, _partitions, _QuotientModel, random_kfield, random_poly, random_vfield

CHART = ChartSpec(2, 4)


def test_oracle_bracket_examples():
    from igc import Poly, VField

    d0 = VField.basis(2, 0)
    x0d1 = VField([Poly.zero(2), Poly.var(2, 0)])
    assert oracle_bracket(d0, x0d1) == VField.basis(2, 1)
    assert oracle_bracket(x0d1, x0d1).is_zero()


def test_oracle_bracket_matches_vf_bracket():
    rng = Random(90)
    for _ in range(200):
        u, v = random_vfield(rng, 3), random_vfield(rng, 3)
        assert oracle_bracket(u, v) == vf_bracket(u, v)


def test_oracle_lyndon_count_values():
    assert oracle_lyndon_count(2, 3) == 2
    assert oracle_lyndon_count(1, 2) == 0
    assert oracle_lyndon_count(3, 4) == 18


def test_oracle_lyndon_count_brute_force():
    def brute(n, d):
        def lyndon(w):
            return all(w < w[k:] + w[:k] for k in range(1, len(w)))

        return sum(1 for w in product(range(n), repeat=d) if lyndon(w))

    for n in (1, 2, 3):
        for d in range(1, 6):
            assert oracle_lyndon_count(n, d) == brute(n, d)


def test_oracle_multiplicativity_passes_and_fails():
    rng = Random(91)
    nu = random_kfield(rng, CHART, 2)
    good = oracle_multiplicativity(nu, trials=4, rng=Random(92))
    assert good.passed and good.cases == 4
    bad = oracle_multiplicativity(nu, trials=4, rng=Random(92), corrupt=True)
    assert not bad.passed
    inputs, expected, got = bad.failures[0]
    assert "differ" in got


def test_oracle_multiplicativity_deterministic():
    rng = Random(93)
    nu = random_kfield(rng, CHART, 2)
    r1 = oracle_multiplicativity(nu, trials=3, rng=Random(5))
    r2 = oracle_multiplicativity(nu, trials=3, rng=Random(5))
    assert r1.failures == r2.failures and r1.cases == r2.cases


def test_quotient_examples():
    chart = ChartSpec(2, 4)
    collapse = oracle_quotient_lowdegree(RelativeSpec(chart, frozenset({0, 1})), 2)
    assert collapse.passed
    fully_free = oracle_quotient_lowdegree(RelativeSpec(chart, frozenset()), 2)
    assert fully_free.passed
    half = oracle_quotient_lowdegree(RelativeSpec(chart, frozenset({1})), 2)
    assert half.passed


def test_quotient_degree_three():
    chart = ChartSpec(2, 4)
    rep = oracle_quotient_lowdegree(RelativeSpec(chart, frozenset({1})), 3, weights=(-1, 0))
    assert rep.passed


def test_quotient_expected_ranks():
    from igc.oracle import _QuotientModel

    chart = ChartSpec(2, 4)
    # all generators vertical at weight 0: rank n * dim(A_1) = 2 * 2
    model = _QuotientModel(RelativeSpec(chart, frozenset({0, 1})), 2, 0)
    assert model.expected_dimension() == 4
    # one horizontal generator leaves no length-2 words
    model = _QuotientModel(RelativeSpec(chart, frozenset({1})), 2, 0)
    assert model.expected_dimension() == 4
    # fully free: extra dim(A_2) * 1 Lyndon word
    model = _QuotientModel(RelativeSpec(chart, frozenset()), 2, 0)
    assert model.expected_dimension() == 7


def test_quotient_guardrails():
    with pytest.raises(DomainError):
        oracle_quotient_lowdegree(RelativeSpec(ChartSpec(3, 4), frozenset()), 2)
    with pytest.raises(DomainError):
        oracle_quotient_lowdegree(RelativeSpec(CHART, frozenset()), 4)


def test_check_report_json():
    from igc import CheckReport

    rep = CheckReport("demo", cases=3)
    assert rep.passed
    rep.record("in", "want", "got")
    data = rep.to_json()
    assert data["passed"] is False and data["failures"][0]["expected"] == "want"


def test_check_report_seconds_stay_out_of_equality_repr_and_json():
    from igc import CheckReport
    from igc.checks import run_suite

    (report,) = run_suite(seed=0, only="parse-roundtrip")
    assert report.seconds > 0
    twin = CheckReport(report.name, report.cases, list(report.failures))
    assert report == twin and repr(report) == repr(twin) and report.to_json() == twin.to_json()
    assert "seconds" not in repr(report)


def reference_operator_image(fields, arity, f, corrupt=False):
    """Every set partition's block chain applied to f afresh, in subset-lex block order."""
    from igc import Poly, vf_apply

    out = {frozenset(): f} if not f.is_zero() else {}
    for size in range(1, arity + 1):
        for phi in combinations(range(arity), size):
            total = Poly.zero(f.dim)
            for blocks in _partitions(phi):
                if any(b not in fields for b in blocks):
                    continue
                val = f
                for b in sorted(blocks, key=lambda s: tuple(sorted(s))):
                    val = vf_apply(fields[b], val)
                total = total + val
            if not total.is_zero():
                out[frozenset(phi)] = total
    if corrupt:
        top = frozenset(range(arity))
        out[top] = out.get(top, Poly.zero(f.dim)) + f.derive(0) * f.derive(0)
        if out[top].is_zero():
            del out[top]
    return out


def test_operator_image_matches_the_per_partition_reference():
    rng = Random(94)
    for idx in range(40):
        arity = 1 + idx % 4
        nu = random_kfield(rng, ChartSpec(2 + idx % 2, 4), arity, degree=1 + idx % 2, density=0.6)
        fields = {phi: nu.component_vfield(phi) for phi in nu.support()}
        f = random_poly(rng, nu.chart.dim, degree=2 + idx % 2)
        for corrupt in (False, True):
            got, want = _operator_image(fields, arity, f, corrupt), reference_operator_image(fields, arity, f, corrupt)
            assert got == want, (str(nu), str(f))
            assert {phi: str(p) for phi, p in got.items()} == {phi: str(p) for phi, p in want.items()}


def reference_rank(vectors) -> int:
    """Gaussian elimination over Fractions, each pivot row scaled to a leading 1."""
    pivots = {}
    rank = 0
    for vec in vectors:
        v = {w: Fraction(c) for w, c in vec.items()}
        while v:
            col = min(v, key=lambda w: (len(w), w))
            if col in pivots:
                c = v.pop(col)
                for w, pc in pivots[col].items():
                    if w != col:
                        s = v.get(w, Fraction(0)) - c * pc
                        if s:
                            v[w] = s
                        else:
                            v.pop(w, None)
            else:
                c = v[col]
                pivots[col] = {w: cv / c for w, cv in v.items()}
                rank += 1
                break
    return rank


def test_rank_matches_the_fraction_reference():
    rng = Random(95)
    words = [(a,) for a in range(4)] + [(a, b) for a in range(3) for b in range(3)]
    for idx in range(200):
        rows = []
        for _ in range(rng.randint(1, 12)):
            support = rng.sample(words, rng.randint(1, 6))
            if idx % 2:
                row = {w: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for w in support}
            else:
                row = {w: rng.randint(-9, 9) for w in support}
            row = {w: c for w, c in row.items() if c}
            if row:
                rows.append(row)
        # repeated and scaled rows make the matrices rank deficient
        rows += [{w: 3 * c for w, c in row.items()} for row in rows[: idx % 4]]
        assert _QuotientModel._rank(rows) == reference_rank(rows)
    for vertical, d, weight in ((frozenset({0, 1}), 2, 0), (frozenset(), 2, 1), (frozenset({1}), 3, -1)):
        model = _QuotientModel(RelativeSpec(CHART, vertical), d, weight)
        for vectors in (model._lie_spanning(), model._relations()):
            assert all(type(c) is int for vec in vectors for c in vec.values())
            assert _QuotientModel._rank(vectors) == reference_rank(vectors)


def reference_random_poly(rng, dim, degree=2, terms=3):
    """The sampler on exponent tuples and Fractions through the public Poly constructor."""
    from igc import Poly

    out = {}
    for _ in range(terms):
        exps = [0] * dim
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(dim)] += 1
        out[tuple(exps)] = out.get(tuple(exps), Fraction(0)) + Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Poly(dim, out)


def test_random_poly_matches_the_fraction_reference():
    for seed in range(100):
        rng, ref = Random(seed), Random(seed)
        for dim, degree, terms in ((1, 2, 3), (2, 2, 3), (3, 3, 4), (2, 1, 1), (3, 0, 2)):
            got, want = random_poly(rng, dim, degree, terms), reference_random_poly(ref, dim, degree, terms)
            assert (got.num, got.den) == (want.num, want.den)
        assert rng.getstate() == ref.getstate()


# the first samples at seeds 0-2, as the sampler printed them before it worked on numerators
SAMPLES = {
    0: [
        "7/3*x0 - 8/5*x1",
        "-1/3*x1*x2^2 - 1/9*x0^2 - x1*x2 - 3*x1",
        "(7/5*x1 + 8)*d0 + (-1/3*x1^2 + 3)*d1",
        "-3/4*d0 - 5/9*d1 - 7/6*x0*d2",
        "K{arity=2; 0: 4/3*x0*d0 + (5/2*x0*x1 + 9/4*x1^2)*d1; 0,1: (7/4*x1^2 + 9/7)*d0 + (x1^2 + 1/2)*d1;"
        " 1: (-x0 - 1/8)*d0 - 19/3*d1}",
        "K{arity=3; 0: -3/4*x1*d0 - 1/2*d1; 1: 2/3*d0 - 4*x1*d1; 1,2: x0*d0 - 9/4*d1; 2: -2*d0 - 9/2*d1}",
    ],
    1: [
        "3/4*x0 - 3/2*x1 + 9/2",
        "-9/8*x0*x1^2 - x0^2 + 9/2*x0*x2 + 3/4",
        "(7/4*x0 + 2*x1)*d0 + 7/36*x0*d1",
        "-4/5*d0 + 1/9*d1 - 3/5*x2*d2",
        "K{arity=2; 0: (-2/7*x0*x1 + x1)*d0 + (5/9*x0*x1 + 2/9*x0)*d1; 0,1: 11/9*d0 + (7/3*x0*x1 + x1)*d1;"
        " 1: (6*x1 - 4/9)*d0 + 7/4*x0^2*d1}",
        "K{arity=3; 0: 4*d0 + x1*d1; 0,1,2: -1/2*x0*d0 + 2/5*d1; 0,2: -7/9*d0 - 7/2*x0*d1; 1: d0 + 2/3*x1*d1;"
        " 2: 8/9*d0 - 9/4*x1*d1}",
    ],
    2: [
        "3*x0^2 - 7/2",
        "-3/2*x0*x1*x2 + 7/3*x1^3 + 7/6*x1*x2^2 - 2*x0",
        "10/9*d0 + (1/4*x1^2 + 5/7*x0)*d1",
        "3/8*d0 + 6/5*d1 + 7/6*x2*d2",
        "K{arity=2; 0: -1/9*x1^2*d0 + 6/5*x0*x1*d1; 0,1: 13/3*d0 - 5*d1;"
        " 1: (-6*x0^2 - 7/6*x1)*d0 + (-1/4*x0^2 + 9/4*x0*x1)*d1}",
        "K{arity=3; 0: -8*d0 - 5/3*x1*d1; 0,1: 8*x1*d0 - 5/8*x1*d1; 0,1,2: 1/5*x0*d0 - x1*d1; 1: 7*d0 - 2/3*x0*d1;"
        " 1,2: -9/8*x0*d0 + d1; 2: -3/2*d0}",
    ],
}


def test_sampler_draws_the_pinned_stream():
    for seed, want in SAMPLES.items():
        rng = Random(seed)
        got = [
            random_poly(rng, 2),
            random_poly(rng, 3, degree=3, terms=4),
            random_vfield(rng, 2),
            random_vfield(rng, 3, degree=1, terms=1),
            random_kfield(rng, ChartSpec(2, 4), 2),
            random_kfield(rng, ChartSpec(2, 8), 3, degree=1, terms=1, density=0.6),
        ]
        assert [str(v) for v in got] == want


def test_sampled_values_are_canonical():
    from igc import FreeLRElem, KField, Poly, VField

    rng = Random(96)
    for _ in range(200):
        p = random_poly(rng, 2, degree=1, terms=2)
        assert p == Poly(2, dict(p.terms))
        v = random_vfield(rng, 2, degree=1, terms=1)
        assert v == VField(v.coeffs) and all(v.terms.values())
    nu = random_kfield(rng, ChartSpec(2, 4), 3, degree=0, terms=1)
    assert nu == KField(nu.chart, 3, nu.components)
    assert all(not e.is_zero() and e == FreeLRElem(nu.chart, e.terms) for e in nu.components.values())
