"""Alternating multivector fields with wedge and Schouten bracket.

A polyvector is stored in the coordinate basis: a map from strictly
increasing index tuples (i1 < ... < ik) to Poly coefficients.  Expanding
every vector-field factor over d0..d{n-1} makes the wedge A-multilinear and
alternating by construction, so structural equality is equality.

Grading: the grade-k slice sits in cohomological degree -k+1, which makes
the Schouten bracket degree 0 and the wedge degree -1 (so the pair is not a
Gerstenhaber structure).  Koszul signs are taken with respect to the grade;
the shifted degree is bookkeeping only, exposed through `degree`.
"""

from __future__ import annotations

from typing import Mapping

from .chart_algebra import Poly, VField, _accumulate, _Module, render_combination
from .errors import ChartMismatchError, DomainError

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

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[IndexTuple, Poly] | None = None):
        pairs = []
        for idx, p in (terms or {}).items():
            if p.dim != dim:
                raise ChartMismatchError("coefficient lives on a different chart")
            norm = _sort_with_sign(tuple(idx))
            if norm is None:
                continue
            key, sign = norm
            if not key:
                raise DomainError("polyvector monomials have grade >= 1")
            if any(i < 0 or i >= dim for i in key):
                raise DomainError(f"field index in {key} out of range")
            if p:
                pairs.append((key, p if sign == 1 else -p))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", _accumulate({}, pairs))

    @classmethod
    def _make(cls, dim: int, terms: dict[IndexTuple, Poly]) -> "Polyvector":
        """Wrap a canonical dict: increasing nonempty index tuples within dim, nonzero Polys."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)
        return self

    def _like(self, terms: dict[IndexTuple, Poly]) -> "Polyvector":
        return Polyvector._make(self.dim, terms)

    def _space(self):
        return self.dim

    def _check(self, other: "Polyvector"):
        if self.dim != other.dim:
            raise ChartMismatchError("polyvectors live on different charts")

    @classmethod
    def zero(cls, dim: int) -> "Polyvector":
        return cls._make(dim, {})

    @classmethod
    def from_vfield(cls, v: VField) -> "Polyvector":
        return cls._make(v.dim, {(i,): p for i, p in v.terms.items()})

    def grades(self) -> set[int]:
        return {len(idx) for idx in self.terms}

    def __str__(self):
        order = sorted(self.terms, key=lambda i: (len(i), i))
        return render_combination(
            (self.terms[i], " ^ ".join(f"d{j}" for j in i)) for i in order
        )

    def __repr__(self):
        return f"Polyvector({self})"

    def to_json(self):
        grades: dict[str, list] = {}
        for idx in sorted(self.terms, key=lambda i: (len(i), i)):
            grades.setdefault(str(len(idx)), []).append(
                {"factors": [f"d{j}" for j in idx], "coeff": str(self.terms[idx])}
            )
        return {"grades": grades}


def wedge(p: Polyvector, q: Polyvector) -> Polyvector:
    """Alternating A-multilinear product; adds -1 in cohomological degree."""
    p._check(q)
    pairs = []
    for i1, c1 in p.terms.items():
        for i2, c2 in q.terms.items():
            norm = _sort_with_sign(i1 + i2)
            if norm is not None:
                key, sign = norm
                pairs.append((key, c1 * c2 if sign == 1 else -(c1 * c2)))
    return Polyvector._make(p.dim, _accumulate({}, pairs))


def schouten(p: Polyvector, q: Polyvector) -> Polyvector:
    """Schouten bracket, grade p+q-1, cohomological degree 0.

    On monomials f d_I and g d_J, with I = (i_0 < ... < i_{a-1}) and
    J = (j_0 < ... < j_{b-1}), it is the coordinate formula

        sum_r (-1)^(r+a-1) f (dg/dx_{i_r}) d_{I - i_r} ^ d_J
      - sum_s (-1)^s g (df/dx_{j_s}) d_I ^ d_{J - j_s},

    extended bilinearly.
    """
    p._check(q)
    pairs = []
    for i1, f in p.terms.items():
        for i2, g in q.terms.items():
            # (sign, u, v, i, idx) stands for sign * u * (dv/dx_i) d_idx
            a = len(i1)
            terms = [((-1) ** (r + a - 1), f, g, i, i1[:r] + i1[r + 1 :] + i2) for r, i in enumerate(i1)]
            terms += [(-((-1) ** s), g, f, j, i1 + i2[:s] + i2[s + 1 :]) for s, j in enumerate(i2)]
            for sign, u, v, i, idx in terms:
                norm = _sort_with_sign(idx)
                if norm is None:
                    continue
                coeff = u * v.derive(i)
                if coeff:
                    key, perm_sign = norm
                    pairs.append((key, coeff if sign * perm_sign == 1 else -coeff))
    return Polyvector._make(p.dim, _accumulate({}, pairs))


def degree(p: Polyvector) -> int:
    """Cohomological degree -k+1 of a homogeneous grade-k polyvector."""
    ks = p.grades()
    if len(ks) != 1:
        raise DomainError("degree is defined for nonzero homogeneous polyvectors only")
    return -ks.pop() + 1
