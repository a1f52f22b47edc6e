"""Exact arithmetic on one global coordinate chart R^n.

`Poly` is a sparse multivariate polynomial over Q: a dict from exponent
tuples to nonzero `Fraction` coefficients, so structural equality is
mathematical equality.  `VField` is a derivation sum_i a_i*d_i with `Poly`
coefficients.  All values are immutable after construction and all
operations are pure, so everything is safe to share between threads.

The canonical term order used for printing is graded lexicographic on
exponent vectors, largest first.

Validation happens at the public boundary.  The public constructors (here
`Poly(...)`, and `FreeLRElem(...)`, `WeilElem(...)`, `Polyvector(...)` and
`LyndonWord(...)` in their modules) check and normalize whatever they are
given.  Results that a class computes itself from canonical operands, the
sums, products, derivatives, brackets and wedges, are canonical by
construction and are wrapped by the private `_make` without a second check.
The three free A-modules (`FreeLRElem`, `WeilElem`, `Polyvector`) share
their module operations through `_Module`; each keeps its own constructors,
mismatch errors, products and printing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import ChartMismatchError, DomainError

Exponent = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ChartSpec:
    """Chart dimension plus the cutoff of the bracket-length filtration."""

    dim: int
    max_degree: int = 4

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise DomainError(f"chart dimension must be a positive integer, got {self.dim}")
        if not isinstance(self.max_degree, int) or self.max_degree < 1:
            raise DomainError(f"max_degree must be a positive integer, got {self.max_degree}")


class Poly:
    """Polynomial in Q[x0..x{n-1}], stored as {exponent tuple: Fraction}."""

    __slots__ = ("dim", "terms", "_hash")

    def __init__(self, dim: int, terms: Mapping[Exponent, Fraction | int] | None = None):
        if dim < 1:
            raise DomainError(f"polynomial dimension must be >= 1, got {dim}")
        clean: dict[Exponent, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != dim or any(not isinstance(e, int) or e < 0 for e in exps):
                raise DomainError(f"bad exponent tuple {exps} for dimension {dim}")
            if not isinstance(coeff, (int, Fraction)):
                raise DomainError(f"coefficient {coeff!r} is not an integer or a Fraction")
            if coeff:
                clean[exps] = Fraction(coeff)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, dim: int, terms: dict[Exponent, Fraction]) -> "Poly":
        """Wrap a canonical dict: int exponent tuples of length dim, nonzero Fractions."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls._make(dim, {})

    @classmethod
    def const(cls, dim: int, value) -> "Poly":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def var(cls, dim: int, i: int) -> "Poly":
        if not 0 <= i < dim:
            raise DomainError(f"variable index {i} out of range for dimension {dim}")
        exps = tuple(1 if j == i else 0 for j in range(dim))
        return cls(dim, {exps: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def as_constant(self) -> Fraction | None:
        """The value of a constant polynomial, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            ((exps, c),) = self.terms.items()
            if all(e == 0 for e in exps):
                return c
        return None

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        if len(point) != self.dim:
            raise ChartMismatchError("evaluation point has wrong dimension")
        pt = [Fraction(p) for p in point]
        total = Fraction(0)
        for exps, c in self.terms.items():
            val = c
            for x, e in zip(pt, exps):
                if e:
                    val *= x**e
            total += val
        return total

    def derive(self, i: int) -> "Poly":
        if not 0 <= i < self.dim:
            raise DomainError(f"derivation index {i} out of range for dimension {self.dim}")
        # lowering exponent i is injective on the terms it keeps
        return Poly._make(
            self.dim,
            {exps[:i] + (exps[i] - 1,) + exps[i + 1 :]: c * exps[i] for exps, c in self.terms.items() if exps[i]},
        )

    def _lift(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.dim != self.dim:
                raise ChartMismatchError("polynomials live on charts of different dimension")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.dim, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Poly._make(self.dim, _accumulate(dict(self.terms), o.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        pairs = (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in o.terms.items()
        )
        return Poly._make(self.dim, _accumulate({}, pairs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("polynomial exponent must be a nonnegative integer")
        result = Poly.const(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.dim, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.dim, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical order: graded lex, largest first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    @staticmethod
    def _monomial_str(exps: Exponent) -> str:
        parts = []
        for i, e in enumerate(exps):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts)

    @staticmethod
    def _term_str(exps: Exponent, coeff: Fraction) -> str:
        mono = Poly._monomial_str(exps)
        if not mono:
            return str(coeff)
        if coeff == 1:
            return mono
        if coeff == -1:
            return "-" + mono
        return f"{coeff}*{mono}"

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exps, c in self.sorted_terms():
            chunks.append(self._term_str(exps, c))
        out = chunks[0]
        for ch in chunks[1:]:
            if ch.startswith("-"):
                out += " - " + ch[1:]
            else:
                out += " + " + ch
        return out

    def __repr__(self):
        return f"Poly({self})"


def _accumulate(acc: dict, pairs: Iterable[tuple]) -> dict:
    """Add the values of pairs, each nonzero, into acc under their keys; return acc.

    A missing key starts at the value itself and a key whose sum vanishes is
    dropped, so a dict of nonzero values stays one of nonzero values.
    """
    for key, value in pairs:
        old = acc.get(key)
        if old is None:
            acc[key] = value
        else:
            value = old + value
            if value:
                acc[key] = value
            else:
                del acc[key]
    return acc


class _Module:
    """Element of a free A-module: `terms` maps basis labels to nonzero Polys.

    A subclass names the module it lives in by `_space()` (what two elements
    must share to be added or equal), raises its own mismatch error in
    `_check` and wraps a canonical dict of the same module with `_like`.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._like(_accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({b: -p for b, p in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            # Q[x0..x{n-1}] has no zero divisors: a product vanishes only for other == 0
            return self._like({b: p * other for b, p in self.terms.items()} if other else {})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))


def render_combination(pairs: Iterable[tuple[Poly, str]]) -> str:
    """Render sum of coeff*atom with folded signs; '0' when everything vanishes.

    A one-term coefficient is printed inline (`2*x0*d1`), a multi-term one is
    parenthesized (`(x0 + 1)*d1`), so every output reparses to the same value.
    """
    chunks: list[tuple[bool, str]] = []
    for coeff, atom in pairs:
        if coeff.is_zero():
            continue
        c = coeff.as_constant()
        if c == 1:
            chunks.append((False, atom))
        elif c == -1:
            chunks.append((True, atom))
        elif len(coeff.terms) == 1:
            ((exps, val),) = coeff.terms.items()
            body = Poly._term_str(exps, abs(val))
            chunks.append((val < 0, f"{body}*{atom}"))
        else:
            chunks.append((False, f"({coeff})*{atom}"))
    if not chunks:
        return "0"
    neg, body = chunks[0]
    out = ("-" if neg else "") + body
    for neg, body in chunks[1:]:
        out += (" - " if neg else " + ") + body
    return out


class VField:
    """Vector field sum_i coeffs[i]*d_i on R^n; a derivation of the chart ring."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, coeffs: Sequence[Poly]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("a vector field needs at least one coefficient")
        dim = coeffs[0].dim
        if len(coeffs) != dim or any(c.dim != dim for c in coeffs):
            raise ChartMismatchError("vector field needs exactly dim coefficients on one chart")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("VField is immutable")

    @classmethod
    def zero(cls, dim: int) -> "VField":
        return cls([Poly.zero(dim)] * dim)

    @classmethod
    def basis(cls, dim: int, i: int) -> "VField":
        if not 0 <= i < dim:
            raise DomainError(f"basis index {i} out of range for dimension {dim}")
        return cls([Poly.const(dim, 1) if j == i else Poly.zero(dim) for j in range(dim)])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, VField):
            return NotImplemented
        _check_same_dim(self, other)
        return VField([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, VField):
            return NotImplemented
        _check_same_dim(self, other)
        return VField([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return VField([-c for c in self.coeffs])

    def __mul__(self, other):
        # scalar or Poly multiple
        if isinstance(other, (int, Fraction, Poly)):
            return VField([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VField):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, self.coeffs))

    def __str__(self):
        return render_combination((self.coeffs[i], f"d{i}") for i in range(self.dim))

    def __repr__(self):
        return f"VField({self})"


def _check_same_dim(u, v):
    if u.dim != v.dim:
        raise ChartMismatchError("values live on charts of different dimension")


def vf_apply(v: VField, f: Poly) -> Poly:
    """Action of the derivation v on f: sum_i coeffs[i] * df/dx_i."""
    if v.dim != f.dim:
        raise ChartMismatchError("field and polynomial live on different charts")
    out = Poly.zero(f.dim)
    for i, a in enumerate(v.coeffs):
        if not a.is_zero():
            out = out + a * f.derive(i)
    return out


def vf_bracket(u: VField, v: VField) -> VField:
    """Lie bracket of vector fields: [u,v]^i = u(v^i) - v(u^i)."""
    _check_same_dim(u, v)
    return VField([vf_apply(u, v.coeffs[i]) - vf_apply(v, u.coeffs[i]) for i in range(u.dim)])


def vf_pushforward(v: VField, target_dim: int, embedding: Sequence[int]) -> VField:
    """Relabel v along a strictly increasing coordinate inclusion.

    The image field is constant in the new coordinates: coefficient i of v is
    moved to slot embedding[i] with x_i renamed to x_{embedding[i]}.
    """
    emb = tuple(int(e) for e in embedding)
    if len(emb) != v.dim:
        raise DomainError("embedding must list a target index for every source coordinate")
    if any(e < 0 or e >= target_dim for e in emb):
        raise DomainError("embedding index out of range for the target chart")
    if any(a >= b for a, b in zip(emb, emb[1:])):
        raise DomainError("embedding must be strictly increasing")

    def relabel(p: Poly) -> Poly:
        out: dict[Exponent, Fraction] = {}
        for exps, c in p.terms.items():
            new = [0] * target_dim
            for i, e in enumerate(exps):
                new[emb[i]] = e
            out[tuple(new)] = c
        return Poly(target_dim, out)

    coeffs = [Poly.zero(target_dim)] * target_dim
    for i, a in enumerate(v.coeffs):
        coeffs[emb[i]] = relabel(a)
    return VField(coeffs)
