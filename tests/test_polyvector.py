"""Wedge, Schouten bracket and the shifted degree bookkeeping."""

from random import Random

import pytest

from igc import (
    DomainError,
    Poly,
    Polyvector,
    VField,
    degree,
    schouten,
    vf_bracket,
    wedge,
)
from igc.oracle import oracle_bracket, random_poly, random_vfield

X0 = Poly.var(3, 0)
ONE = Poly.const(3, 1)


def monomial(rng, dim=3, grade=None):
    grade = grade or rng.randint(1, 3)
    idx = tuple(sorted(rng.sample(range(dim), grade)))
    coeff = random_poly(rng, dim, degree=1, terms=1)
    if coeff.is_zero():
        coeff = Poly.const(dim, 1)
    return Polyvector(dim, {idx: coeff})


def test_wedge_examples():
    d0 = Polyvector.from_vfield(VField.basis(3, 0))
    assert wedge(d0, d0).is_zero()
    x0d1 = Polyvector.from_vfield(VField([Poly.zero(3), X0, Poly.zero(3)]))
    assert wedge(d0, x0d1) == Polyvector(3, {(0, 1): X0})
    d01 = Polyvector(3, {(0, 1): ONE})
    d2 = Polyvector.from_vfield(VField.basis(3, 2))
    out = wedge(d01, d2)
    assert out == Polyvector(3, {(0, 1, 2): ONE})
    assert degree(out) == -2


def test_wedge_laws():
    rng = Random(80)
    for _ in range(20):
        p, q, r = (monomial(rng) for _ in range(3))
        assert wedge(wedge(p, q), r) == wedge(p, wedge(q, r))
        gp, gq = -degree(p) + 1, -degree(q) + 1
        sign = -1 if (gp * gq) % 2 else 1
        assert wedge(p, q) == wedge(q, p) * sign
    f = random_poly(rng, 3)
    p, q = monomial(rng), monomial(rng)
    assert wedge(p * f, q) == wedge(p, q * f) == wedge(p, q) * f


def test_schouten_examples():
    rng = Random(81)
    for _ in range(10):
        u, v = random_vfield(rng, 3), random_vfield(rng, 3)
        got = schouten(Polyvector.from_vfield(u), Polyvector.from_vfield(v))
        assert got == Polyvector.from_vfield(vf_bracket(u, v))
        assert got == Polyvector.from_vfield(oracle_bracket(u, v))
    p = Polyvector(3, {(0,): X0})
    q = Polyvector(3, {(0, 1): ONE})
    assert schouten(p, q) == Polyvector(3, {(0, 1): Poly.const(3, -1)})


def test_schouten_graded_identities():
    rng = Random(82)
    for _ in range(30):
        p, q, r = (monomial(rng) for _ in range(3))
        gp, gq = -degree(p) + 1, -degree(q) + 1
        sign = -1 if ((gp - 1) * (gq - 1)) % 2 == 0 else 1
        assert schouten(p, q) == schouten(q, p) * sign
        s2 = 1 if ((gp - 1) * (gq - 1)) % 2 == 0 else -1
        jac = (
            schouten(p, schouten(q, r))
            - schouten(schouten(p, q), r)
            - schouten(q, schouten(p, r)) * s2
        )
        assert jac.is_zero()


def test_schouten_wedge_leibniz():
    rng = Random(83)
    for _ in range(25):
        p, q, r = (monomial(rng) for _ in range(3))
        gp, gq = -degree(p) + 1, -degree(q) + 1
        s3 = 1 if ((gp - 1) * gq) % 2 == 0 else -1
        leib = (
            schouten(p, wedge(q, r))
            - wedge(schouten(p, q), r)
            - wedge(q, schouten(p, r)) * s3
        )
        assert leib.is_zero()


def _schouten_factorwise(p, q):
    """Reference: sum_{r,s} (-1)^(r+s) [a_r, b_s] ^ (a without a_r) ^ (b without b_s)
    over honest vector-field factors, the coefficient absorbed into the first."""

    def factors(idx, coeff):
        fields = [VField.basis(p.dim, i) for i in idx]
        fields[0] = fields[0] * coeff
        return fields

    total = Polyvector.zero(p.dim)
    for i1, c1 in p.terms.items():
        fa = factors(i1, c1)
        for i2, c2 in q.terms.items():
            fb = factors(i2, c2)
            for r, ar in enumerate(fa):
                for s, bs in enumerate(fb):
                    term = Polyvector.from_vfield(vf_bracket(ar, bs))
                    for rest in fa[:r] + fa[r + 1 :] + fb[:s] + fb[s + 1 :]:
                        term = wedge(term, Polyvector.from_vfield(rest))
                    total = total + (-term if (r + s) % 2 else term)
    return total


def test_schouten_matches_factorwise_reference():
    rng = Random(86)
    for _ in range(100):
        dim = rng.randint(1, 4)
        p, q = (
            Polyvector(dim, {
                tuple(rng.sample(range(dim), rng.randint(1, min(4, dim)))): random_poly(rng, dim)
                for _ in range(rng.randint(1, 3))
            })
            for _ in range(2)
        )
        want = _schouten_factorwise(p, q)
        got = schouten(p, q)
        assert got == want and str(got) == str(want), (str(p), str(q))


def test_schouten_independent_of_coefficient_placement():
    # f*(d0^d1) can carry f on either slot; the bracket value is unchanged
    rng = Random(84)
    f = random_poly(rng, 3, degree=2)
    q = monomial(rng)
    via_first = Polyvector(3, {(0, 1): f})
    explicit = wedge(
        Polyvector.from_vfield(VField([f, Poly.zero(3), Poly.zero(3)])),
        Polyvector.from_vfield(VField.basis(3, 1)),
    )
    assert via_first == explicit
    assert schouten(via_first, q) == schouten(explicit, q)


def test_degree_examples():
    d0 = Polyvector.from_vfield(VField.basis(3, 0))
    assert degree(d0) == 0
    assert degree(Polyvector(3, {(0, 1): ONE})) == -1
    rng = Random(85)
    for _ in range(20):
        p, q = monomial(rng), monomial(rng)
        w = wedge(p, q)
        if not w.is_zero():
            assert degree(w) == degree(p) + degree(q) - 1
        s = schouten(p, q)
        if not s.is_zero():
            assert degree(s) == degree(p) + degree(q)


def test_degree_rejects_inhomogeneous():
    mixed = Polyvector(3, {(0,): ONE, (0, 1): ONE})
    with pytest.raises(DomainError):
        degree(mixed)
    with pytest.raises(DomainError):
        degree(Polyvector.zero(3))


def test_polyvector_str_and_json():
    pv = Polyvector(3, {(0, 1): ONE})
    assert str(pv) == "d0 ^ d1"
    assert pv.to_json() == {"grades": {"2": [{"factors": ["d0", "d1"], "coeff": "1"}]}}
    assert str(Polyvector.zero(3)) == "0"
