"""Chart-level arithmetic: polynomials, derivations, brackets, pushforwards."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igc import (
    ChartMismatchError,
    ChartSpec,
    DomainError,
    Poly,
    VField,
    vf_apply,
    vf_bracket,
    vf_pushforward,
)
from igc.chart_algebra import render_combination
from igc.oracle import random_poly, random_vfield


def P(dim, s=None, **terms):
    """Shorthand: P(2, c=3, x0=1) style constructors used below."""
    return Poly(dim, s or {})


def fd_derivative(f: Poly, point, i: int) -> Fraction:
    """Exact finite-difference derivative along x_i at a rational point.

    Samples f on integer offsets and reads the derivative off the Newton
    forward series, which is exact for polynomials.
    """
    depth = max(f.total_degree(), 1)
    samples = []
    for t in range(depth + 1):
        shifted = [p + (t if k == i else 0) for k, p in enumerate(point)]
        samples.append(f.evaluate(shifted))
    total = Fraction(0)
    level = samples
    for m in range(1, depth + 1):
        level = [b - a for a, b in zip(level, level[1:])]
        total += Fraction((-1) ** (m - 1), m) * level[0]
    return total


def test_poly_derive_power_rule():
    # d/dx0 (x0^2 x1) = 2 x0 x1
    f = Poly(2, {(2, 1): 1})
    assert f.derive(0) == Poly(2, {(1, 1): 2})


def test_poly_derive_constant_and_independent():
    one = Poly.const(3, 1)
    for i in range(3):
        assert one.derive(i).is_zero()
    assert Poly.var(2, 1).derive(0).is_zero()


def test_poly_derive_matches_finite_differences():
    rng = Random(101)
    points = [(Fraction(1, 2), Fraction(-2, 3)), (Fraction(3), Fraction(1, 5))]
    for _ in range(25):
        f = random_poly(rng, 2, degree=3, terms=4)
        for i in range(2):
            df = f.derive(i)
            for pt in points:
                assert df.evaluate(pt) == fd_derivative(f, pt, i)


def test_poly_derive_index_range():
    with pytest.raises(DomainError):
        Poly.var(2, 0).derive(2)


def test_poly_leibniz():
    rng = Random(7)
    for _ in range(30):
        f = random_poly(rng, 2)
        g = random_poly(rng, 2)
        for i in range(2):
            assert (f * g).derive(i) == f * g.derive(i) + g * f.derive(i)


def test_poly_ring_laws():
    rng = Random(8)
    for _ in range(20):
        f, g, h = (random_poly(rng, 3) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
    assert Poly.var(2, 0) ** 3 == Poly(2, {(3, 0): 1})


def test_poly_canonical_equality_and_str():
    f = Poly(2, {(1, 0): Fraction(1), (0, 0): Fraction(0)})
    assert f == Poly.var(2, 0)
    assert str(Poly(2, {(0, 2): 1, (1, 0): 1})) == "x1^2 + x0"
    assert str(Poly.zero(2)) == "0"
    assert str(Poly(2, {(1, 0): -1, (0, 0): Fraction(1, 2)})) == "-x0 + 1/2"


def test_poly_rejects_non_integer_exponents():
    for exps in [(1.7, 0), (1.0, 0), (Fraction(1), 0), ("1", 0)]:
        with pytest.raises(DomainError, match="bad exponent tuple"):
            Poly(2, {exps: 1})
    with pytest.raises(DomainError, match="bad exponent tuple"):
        Poly(2, {(-1, 0): 1})
    with pytest.raises(DomainError, match="bad exponent tuple"):
        Poly(2, {(1,): 1})


def test_poly_rejects_float_coefficients():
    for coeff in [0.1, 2.0, 0.0]:
        with pytest.raises(DomainError, match="not an integer or a Fraction"):
            Poly(2, {(1, 0): coeff})
    with pytest.raises(DomainError, match="not an integer or a Fraction"):
        Poly.const(2, 0.5)
    assert Poly(2, {(1, 0): 3, (0, 1): Fraction(-1, 2)}).terms == {
        (1, 0): Fraction(3),
        (0, 1): Fraction(-1, 2),
    }
    assert all(type(c) is Fraction for c in Poly(2, {(1, 0): 3}).terms.values())


def test_poly_zero_checks_dimension():
    for dim in (0, -3):
        with pytest.raises(DomainError, match="dimension must be >= 1"):
            Poly.zero(dim)
    assert Poly.zero(1).is_zero()


def test_exponent_budget():
    top = Poly.MAX_EXPONENT
    assert top == 2**63 - 1
    message = f"exceeds the budget of Poly.MAX_EXPONENT = {top}"
    half = Poly(2, {(2**62, 0): 1})
    # the largest exponent is kept, and the next variable's field is untouched
    assert half * Poly(2, {(2**62 - 1, 5): 1}) == Poly(2, {(top, 5): 1})
    assert Poly(2, {(0, top): 3}).derive(1) == Poly(2, {(0, top - 1): 3 * top})
    # a product past the budget raises instead of carrying into the next field
    over = [
        (half, half),
        (Poly(2, {(top, 0): 1}), Poly.var(2, 0)),
        (Poly(2, {(0, top): 1, (1, 0): 1}), Poly(2, {(0, 1): 1, (0, 0): 1})),
    ]
    for f, g in over:
        with pytest.raises(DomainError, match=message):
            f * g
    with pytest.raises(DomainError, match=message):
        Poly(2, {(top + 1, 0): 1})
    with pytest.raises(DomainError, match=message):
        Poly.var(2, 1) ** (top + 1)
    # the degree-1 bracket kernel checks its products too
    f, g = Poly(2, {(2**62, 0): 1}), Poly(2, {(2**62 + 1, 0): 1})
    with pytest.raises(DomainError, match=message):
        vf_bracket(VField([f, Poly.zero(2)]), VField([Poly.zero(2), g]))
    assert str(Poly.var(2, 0) ** 4294967296) == "x0^4294967296"
    assert (Poly.var(2, 1) ** top).terms == {(0, top): 1}


def test_coefficient_budget():
    two = Poly.const(2, 2)
    # 2^14284 has 4300 digits, the most a printed coefficient may have
    assert str(two**14284) == str(2**14284) and len(str(2**14284)) == Poly.MAX_DIGITS
    third = Poly.const(2, Fraction(1, 3))
    for base, n in [(two, 14285), (two, 10**8), (third, 10**8), (two * Poly.var(2, 0), 10**30)]:
        with pytest.raises(DomainError, match="coefficient budget of Poly.MAX_DIGITS"):
            base**n
    # a value built past the budget by products is refused where it is printed
    big = two**14000 * two**14000
    for value in (big, big * Poly.var(2, 1), Poly.var(2, 0) * Fraction(1, 10**4300)):
        with pytest.raises(DomainError, match="more digits than the budget of Poly.MAX_DIGITS"):
            str(value)
    assert str(Poly.const(2, 10**4300 - 1)) == "9" * 4300


def test_bracket_product_budget_counts_the_products_it_forms():
    x0, x1, x2 = (Poly.var(3, i) for i in range(3))
    zero = Poly.zero(3)
    # 351 terms each; q has no x1 and p no x0
    q, p = (x0 + x2 + 1) ** 25, (x1 + x2 + 1) ** 25
    # q*d0(q) would form 351 * 325 term products
    with pytest.raises(DomainError, match="polynomial product exceeds the budget of 100000 term products"):
        vf_bracket(VField([q, zero, zero]), VField([zero, q, zero]))
    # d0(p) and d1(q) vanish, so no product is formed
    assert vf_bracket(VField([q, zero, zero]), VField([zero, p, zero])).is_zero()


def test_vf_apply_examples():
    d0 = VField.basis(2, 0)
    assert vf_apply(d0, Poly(2, {(2, 0): 1})) == Poly(2, {(1, 0): 2})
    x0d1 = VField([Poly.zero(2), Poly.var(2, 0)])
    assert vf_apply(x0d1, Poly.var(2, 0)).is_zero()
    v = VField([Poly.var(2, 1), Poly.const(2, 1)])
    assert vf_apply(v, Poly(2, {(1, 1): 1})) == Poly(2, {(0, 2): 1, (1, 0): 1})


def reference_vf_apply(v: VField, f: Poly) -> Poly:
    """The per-coordinate route: sum_i a_i * df/dx_i on Poly values."""
    out = Poly.zero(f.dim)
    for i, a in v.terms.items():
        out = out + a * f.derive(i)
    return out


def test_vf_apply_matches_the_per_coordinate_reference():
    rng = Random(61)
    for idx in range(300):
        dim = 1 + idx % 3
        v = random_vfield(rng, dim, degree=1 + idx % 3, terms=1 + idx % 4)
        f = random_poly(rng, dim, degree=idx % 5, terms=1 + idx % 6)
        got, want = vf_apply(v, f), reference_vf_apply(v, f)
        assert got == want and str(got) == str(want), (str(v), str(f))
    zero = Poly.zero(2)
    assert vf_apply(VField.zero(2), Poly.var(2, 0)) == zero
    assert vf_apply(VField.basis(2, 1), zero) == zero


def test_vf_apply_product_budget():
    x0, x1 = Poly.var(2, 0), Poly.var(2, 1)
    # 400 and 351 terms; every term of f holds x0, so a*d0(f) forms 140,400 products
    a = sum((x1**n for n in range(400)), Poly.zero(2))
    f = x0 * (x0 + x1 + 1) ** 25
    v = VField([a, Poly.zero(2)])
    with pytest.raises(DomainError) as want:
        reference_vf_apply(v, f)
    with pytest.raises(DomainError, match="polynomial product exceeds the budget of 100000 term products") as got:
        vf_apply(v, f)
    assert str(got.value) == str(want.value)
    # f without x1 differentiates to zero along d1: no product is formed
    assert vf_apply(VField([Poly.zero(2), a]), (x0 + 1) ** 400).is_zero()


def test_vf_bracket_examples():
    d0, d1 = VField.basis(2, 0), VField.basis(2, 1)
    assert vf_bracket(d0, d1).is_zero()
    x0d1 = VField([Poly.zero(2), Poly.var(2, 0)])
    assert vf_bracket(d0, x0d1) == d1
    x1d0 = VField([Poly.var(2, 1), Poly.zero(2)])
    assert vf_bracket(x1d0, x0d1) == VField([-Poly.var(2, 0), Poly.var(2, 1)])


def test_vf_bracket_antisymmetry_and_jacobi():
    rng = Random(9)
    for _ in range(15):
        u, v, w = (random_vfield(rng, 3) for _ in range(3))
        assert vf_bracket(u, v) == -vf_bracket(v, u)
        jac = (
            vf_bracket(u, vf_bracket(v, w))
            + vf_bracket(v, vf_bracket(w, u))
            + vf_bracket(w, vf_bracket(u, v))
        )
        assert jac.is_zero()


def test_vf_bracket_is_derivation_commutator():
    rng = Random(10)
    for _ in range(15):
        u, v = random_vfield(rng, 2), random_vfield(rng, 2)
        f = random_poly(rng, 2)
        assert vf_apply(vf_bracket(u, v), f) == vf_apply(u, vf_apply(v, f)) - vf_apply(
            v, vf_apply(u, f)
        )


def test_vf_pushforward_examples():
    d0 = VField.basis(1, 0)
    assert vf_pushforward(d0, 2, [0]) == VField.basis(2, 0)
    x0d0 = VField([Poly.var(1, 0)])
    assert vf_pushforward(x0d0, 2, [1]) == VField([Poly.zero(2), Poly.var(2, 1)])


def test_vf_pushforward_functorial():
    rng = Random(11)
    for _ in range(10):
        v = random_vfield(rng, 2)
        step1 = vf_pushforward(v, 3, [0, 2])
        step2 = vf_pushforward(step1, 5, [0, 2, 3])
        direct = vf_pushforward(v, 5, [0, 3])
        assert step2 == direct


def test_vf_pushforward_rejects_bad_embeddings():
    v = random_vfield(Random(0), 2)
    with pytest.raises(DomainError):
        vf_pushforward(v, 3, [1, 1])
    with pytest.raises(DomainError):
        vf_pushforward(v, 2, [0, 3])
    with pytest.raises(DomainError):
        vf_pushforward(v, 3, [2, 0])


# The printing of the Fraction-per-term renderer that Poly.__str__ and
# render_combination replaced, kept as the reference for their output.


def fraction_term_str(exps, coeff: Fraction) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    mono = "*".join(parts)
    if not mono:
        return str(coeff)
    if coeff == 1:
        return mono
    if coeff == -1:
        return "-" + mono
    return f"{coeff}*{mono}"


def fraction_str(p: Poly) -> str:
    terms = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    chunks = [fraction_term_str(exps, c) for exps, c in terms]
    if not chunks:
        return "0"
    out = chunks[0]
    for ch in chunks[1:]:
        out += " - " + ch[1:] if ch.startswith("-") else " + " + ch
    return out


def fraction_render(pairs) -> str:
    chunks = []
    for coeff, atom in pairs:
        c = coeff.as_constant()
        if c == 0:
            continue
        if c == 1 or c == -1:
            chunks.append((c < 0, atom))
        elif len(coeff.terms) == 1:
            ((exps, f),) = coeff.terms.items()
            chunks.append((f < 0, f"{fraction_term_str(exps, abs(f))}*{atom}"))
        else:
            chunks.append((False, f"({fraction_str(coeff)})*{atom}"))
    if not chunks:
        return "0"
    out = ("-" if chunks[0][0] else "") + chunks[0][1]
    for neg, body in chunks[1:]:
        out += (" - " if neg else " + ") + body
    return out


@st.composite
def printed_polys(draw, dim):
    big = st.integers(-(10**40), 10**40)
    coeffs = st.one_of(
        st.integers(-3, 3), big, st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
        st.builds(Fraction, big, st.integers(1, 10**30)),
    )
    exponents = st.tuples(*[st.sampled_from([0, 0, 1, 2, 7, 2**40])] * dim)
    return Poly(dim, draw(st.dictionaries(exponents, coeffs, max_size=6)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda dim: st.lists(printed_polys(dim), min_size=1, max_size=4)))
def test_printing_matches_fraction_rendering(polys):
    for p in polys:
        assert str(p) == fraction_str(p)
    pairs = [(p, f"d{i}") for i, p in enumerate(polys)]
    assert render_combination(pairs) == fraction_render(pairs)


def test_printing_applies_the_digit_budget_after_reduction():
    half = 5 * 10**4299  # 4300 digits
    p = Poly(2, {(1, 0): half, (0, 1): Fraction(1, 2)})
    # stored as a 4301-digit numerator over 2, printed reduced
    assert p.den == 2 and max(p.num.values()) == 10**Poly.MAX_DIGITS
    assert str(p) == f"{half}*x0 + 1/2*x1"
    assert render_combination([(p, "d0")]) == f"({half}*x0 + 1/2*x1)*d0"
    over = Poly(2, {(1, 0): 10**4300, (0, 1): Fraction(1, 2)})
    with pytest.raises(DomainError, match="more digits than the budget of Poly.MAX_DIGITS"):
        str(over)
    with pytest.raises(DomainError, match="more digits than the budget of Poly.MAX_DIGITS"):
        render_combination([(Poly.const(2, Fraction(1, 10**4300)), "d0")])


def test_chart_mismatch():
    with pytest.raises(ChartMismatchError):
        Poly.var(2, 0) + Poly.var(3, 0)
    with pytest.raises(ChartMismatchError):
        vf_apply(VField.basis(2, 0), Poly.var(3, 0))


def test_chart_spec_validation():
    with pytest.raises(DomainError):
        ChartSpec(0)
    assert ChartSpec(ChartSpec.MAX_DIM).dim == ChartSpec.MAX_DIM
    with pytest.raises(DomainError, match=f"exceeds the budget of ChartSpec.MAX_DIM = {ChartSpec.MAX_DIM}"):
        ChartSpec(ChartSpec.MAX_DIM + 1)
    with pytest.raises(DomainError):
        ChartSpec(2, 0)


def test_chart_spec_is_a_hashable_value():
    a, b = ChartSpec(2), ChartSpec(dim=2, max_degree=4)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != ChartSpec(2, 5) and a != ChartSpec(3) and a != (2, 4)
    assert {a: "first", b: "second"} == {ChartSpec(2, 4): "second"}
    assert repr(ChartSpec(2)) == "ChartSpec(dim=2, max_degree=4)"
    for name in ("dim", "max_degree"):
        with pytest.raises(AttributeError):
            setattr(a, name, 3)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.dim, a.max_degree) == (2, 4)
