"""Alternating multivector fields with wedge and Schouten bracket.

A polyvector is stored in the coordinate basis, as a `_Module` by strictly
increasing index tuples (i1 < ... < ik).  Expanding every vector-field factor
over d0..d{n-1} makes the wedge A-multilinear and alternating by
construction, so structural equality is equality.

Grading: the grade-k slice sits in cohomological degree -k+1, which makes
the Schouten bracket degree 0 and the wedge degree -1 (so the pair is not a
Gerstenhaber structure).  Koszul signs are taken with respect to the grade;
the shifted degree is bookkeeping only, exposed through `degree`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .chart_algebra import (
    Poly, VField, _accumulate, _budget, _checked, _derivation_into, _index, _int, _Module, _mul_into, _numerators,
    _poly_text, _same_chart, _summed, _value, render_combination,
)
from .errors import DomainError

IndexTuple = tuple[int, ...]


def _sort_with_sign(indices: tuple[int, ...]) -> tuple[IndexTuple, int] | None:
    """Sorted index tuple and permutation sign; None when an index repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None
    return tuple(idx), sign


class Polyvector(_Module):
    """Sum of wedge monomials coeff * d_{i1} ^ ... ^ d_{ik}, grades k >= 1."""

    __slots__ = ("dim", "num", "den")

    @_checked
    def __init__(self, dim: int, terms: Mapping[IndexTuple, Poly] | None = None):
        _int(dim, "chart dimension", 1)
        pairs = []
        for idx, p in ({} if terms is None else terms).items():
            _same_chart(_value(p, Poly, "coefficient of blade", idx).dim, dim, "coefficient of blade", idx)
            norm = _sort_with_sign(tuple(_index(i, dim, "field index") for i in _value(idx, Iterable, "blade", idx)))
            if norm is None:
                continue
            key, sign = norm
            if not key:
                raise DomainError("polyvector monomials have grade >= 1")
            if p:
                pairs.append((key, p if sign == 1 else -p))
        self._set(dim, *_numerators(_accumulate({}, pairs)))

    @classmethod
    def zero(cls, dim: int) -> "Polyvector":
        return cls._make(_int(dim, "chart dimension", 1), {}, 1)

    @classmethod
    @_checked
    def from_vfield(cls, v: VField) -> "Polyvector":
        return cls._make(v.dim, {(i,): n for i, n in v.num.items()}, v.den)

    def grades(self) -> set[int]:
        return {len(idx) for idx in self.num}

    def __str__(self):
        order = sorted(self.num, key=lambda i: (len(i), i))
        return render_combination(self.dim, ((self.num[i], self.den, " ^ ".join(f"d{j}" for j in i)) for i in order))

    def __repr__(self):
        return f"Polyvector({self})"

    def to_json(self):
        grades: dict[str, list] = {}
        for idx in sorted(self.num, key=lambda i: (len(i), i)):
            grades.setdefault(str(len(idx)), []).append(
                {"factors": [f"d{j}" for j in idx], "coeff": _poly_text(self.dim, self.num[idx], self.den)}
            )
        return {"grades": grades}


@_checked
def wedge(p: Polyvector, q: Polyvector) -> Polyvector:
    """Alternating A-multilinear product; adds -1 in cohomological degree."""
    p._check(q, "wedge argument", "q")
    _budget(len(p.num) * len(q.num), Poly, "MAX_POW_PRODUCTS", "wedge monomial pair count")
    accs: dict[IndexTuple, dict[int, int]] = {}
    for i1, c1 in p.num.items():
        for i2, c2 in q.num.items():
            norm = _sort_with_sign(i1 + i2)
            if norm is not None:
                key, sign = norm
                _mul_into(accs.setdefault(key, {}), c1 if sign == 1 else {k: -c for k, c in c1.items()}, c2)
    return Polyvector._make(p.dim, *_summed(p.dim, accs, p.den * q.den))


@_checked
def schouten(p: Polyvector, q: Polyvector) -> Polyvector:
    """Schouten bracket, grade p+q-1, cohomological degree 0.

    On monomials f d_I and g d_J, with I = (i_0 < ... < i_{a-1}) and
    J = (j_0 < ... < j_{b-1}), it is the coordinate formula

        sum_r (-1)^(r+a-1) f (dg/dx_{i_r}) d_{I - i_r} ^ d_J
      - sum_s (-1)^s g (df/dx_{j_s}) d_I ^ d_{J - j_s},

    extended bilinearly.
    """
    p._check(q, "schouten argument", "q")
    _budget(len(p.num) * len(q.num), Poly, "MAX_POW_PRODUCTS", "Schouten bracket monomial pair count")
    accs: dict[IndexTuple, dict[int, int]] = {}
    for i1, f in p.num.items():
        for i2, g in q.num.items():
            # (sign, u, v, i, idx) stands for sign * u * (dv/dx_i) d_idx
            a = len(i1)
            terms = [((-1) ** (r + a - 1), f, g, i, i1[:r] + i1[r + 1 :] + i2) for r, i in enumerate(i1)]
            terms += [(-((-1) ** s), g, f, j, i1 + i2[:s] + i2[s + 1 :]) for s, j in enumerate(i2)]
            for sign, u, v, i, idx in terms:
                norm = _sort_with_sign(idx)
                if norm is not None:
                    key, perm_sign = norm
                    _derivation_into(accs, [(i, u)], [(key, v)], sign * perm_sign)
    return Polyvector._make(p.dim, *_summed(p.dim, accs, p.den * q.den))


@_checked
def degree(p: Polyvector) -> int:
    """Cohomological degree -k+1 of a homogeneous grade-k polyvector."""
    ks = p.grades()
    if len(ks) != 1:
        raise DomainError("degree is defined for nonzero homogeneous polyvectors only")
    return -ks.pop() + 1
