"""Weil algebras with square-zero generators and the k-field dictionary.

W_k is spanned by products of e_0..e_{k-1} with e_i^2 = 0 over the chart
ring, so elements are maps from subsets of {0..k-1} to Poly and products
convolve over disjoint subsets.  A point/field of the k-th iterated tangent
bundle is the same thing as a unital multiplicative map from the chart ring
into W_k tensor the chart ring whose empty part is the identity; such a
morphism is pinned down by its values on the coordinates x_i.

`kfield_to_weil` encodes a classical subset-indexed field as the morphism
whose phi part applies, for every splitting of phi into disjoint blocks
taken in decreasing subset-lex order, the corresponding composite of the
block fields.  `weil_to_kfield` inverts this by induction on subset size.

The partial cup product against a factor through V_m (all pairwise
generator products zero) is `weil_cup`: the m derivations enter multiplied
by the image of the V_m generators shifted past the first block times the
full first-block monomial e_0...e_{k-1}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, Sequence

from .chart_algebra import ChartSpec, Poly, VField, _accumulate, _Module, _unpack, vf_apply
from .errors import (
    ArityMismatchError,
    ChartMismatchError,
    DomainError,
    NotMultiplicativeError,
)
from .free_lr import project_to_lie
from .groupoid import KField, _drop_slot, _subset_key

Subset = frozenset[int]


class WeilElem(_Module):
    """Element of W_k over the chart ring: map from subsets to Poly parts."""

    __slots__ = ("arity", "dim", "terms")

    def __init__(self, arity: int, dim: int, terms: Mapping[Subset, Poly] | None = None):
        if arity < 0:
            raise DomainError("arity must be >= 0")
        clean: dict[Subset, Poly] = {}
        for phi, p in (terms or {}).items():
            phi = frozenset(phi)
            if any(i < 0 or i >= arity for i in phi):
                raise DomainError(f"generator index in {sorted(phi)} out of range for arity {arity}")
            if p.dim != dim:
                raise ChartMismatchError("part lives on a different chart")
            if not p.is_zero():
                clean[phi] = p
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, arity: int, dim: int, terms: dict[Subset, Poly]) -> "WeilElem":
        """Wrap a canonical dict: frozensets within the arity, nonzero Polys on the chart."""
        self = object.__new__(cls)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)
        return self

    def _like(self, terms: dict[Subset, Poly]) -> "WeilElem":
        return WeilElem._make(self.arity, self.dim, terms)

    def _space(self):
        return self.arity, self.dim

    def _check(self, other: "WeilElem"):
        if self.arity != other.arity:
            raise ArityMismatchError(f"arities differ: {self.arity} vs {other.arity}")
        if self.dim != other.dim:
            raise ChartMismatchError("elements live on different charts")

    @classmethod
    def zero(cls, arity: int, dim: int) -> "WeilElem":
        return cls(arity, dim, {})

    @classmethod
    def unit(cls, arity: int, dim: int) -> "WeilElem":
        return cls(arity, dim, {frozenset(): Poly.const(dim, 1)})

    @classmethod
    def generator(cls, arity: int, dim: int, i: int) -> "WeilElem":
        return cls(arity, dim, {frozenset({i}): Poly.const(dim, 1)})

    @classmethod
    def scalar(cls, arity: int, p: Poly) -> "WeilElem":
        return cls(arity, p.dim, {frozenset(): p})

    def part(self, phi) -> Poly:
        return self.terms.get(frozenset(phi), Poly.zero(self.dim))

    def __mul__(self, other):
        if not isinstance(other, WeilElem):
            return super().__mul__(other)
        self._check(other)
        pairs = (
            (phi | psi, p * q)
            for phi, p in self.terms.items()
            for psi, q in other.terms.items()
            if not phi & psi
        )
        return WeilElem._make(self.arity, self.dim, _accumulate({}, pairs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("Weil exponent must be a nonnegative integer")
        result = WeilElem.unit(self.arity, self.dim)
        for _ in range(n):
            result = result * self
        return result

    def set_generator_zero(self, i: int) -> "WeilElem":
        """Quotient by e_i = 0: drop subsets containing i and reindex the rest."""
        if not 0 <= i < self.arity:
            raise DomainError(f"generator index {i} out of range")
        terms = {_drop_slot(phi, i): p for phi, p in self.terms.items() if i not in phi}
        return WeilElem._make(self.arity - 1, self.dim, terms)

    def shift(self, offset: int, new_arity: int) -> "WeilElem":
        """Reindex every generator i to i + offset inside a larger algebra."""
        return WeilElem(
            new_arity,
            self.dim,
            {frozenset(x + offset for x in phi): p for phi, p in self.terms.items()},
        )

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for phi in sorted(self.terms, key=lambda s: (len(s), _subset_key(s))):
            mono = "".join(f"e{i}" for i in sorted(phi)) or "1"
            chunks.append(f"({self.terms[phi]})*{mono}" if phi else f"({self.terms[phi]})")
        return " + ".join(chunks)

    def __repr__(self):
        return f"WeilElem({self})"

    def to_json(self):
        return {
            ",".join(map(str, sorted(phi))): str(p)
            for phi, p in sorted(self.terms.items(), key=lambda t: (len(t[0]), _subset_key(t[0])))
        }


def subset_operator_apply(fields: Mapping[Subset, VField], phi: Subset, f: Poly) -> Poly:
    """Order-|phi| part of the morphism attached to a classical field.

    Sums over partitions of phi into supported blocks; each partition
    contributes the composite of its block fields applied smallest block
    first (blocks compared subset-lexicographically).  Disjoint blocks
    compare by their least index, so the block holding min(phi) acts first
    and the rest of phi is partitioned after it.
    """
    first = min(phi)
    total = Poly.zero(f.dim)
    for block, v in fields.items():
        if first in block and block <= phi:
            value = vf_apply(v, f)
            if value and block != phi:
                value = subset_operator_apply(fields, phi - block, value)
            total = total + value
    return total


class WeilMorphism:
    """Unital multiplicative map from the chart ring into W_k over itself.

    Stored by the images of the coordinates; the image of any polynomial is
    the multiplicative extension.  A raw callable may be attached instead,
    in which case nothing guarantees multiplicativity -- `weil_to_kfield`
    probes for it and reports a witness on failure.
    """

    __slots__ = ("arity", "dim", "coord_images", "raw")

    def __init__(
        self,
        arity: int,
        dim: int,
        coord_images: Sequence[WeilElem],
        raw: Callable[[Poly], WeilElem] | None = None,
    ):
        coord_images = tuple(coord_images)
        if len(coord_images) != dim:
            raise DomainError("need one coordinate image per chart dimension")
        for i, w in enumerate(coord_images):
            if w.arity != arity or w.dim != dim:
                raise ArityMismatchError("coordinate image in the wrong Weil algebra")
            if raw is None and w.part(frozenset()) != Poly.var(dim, i):
                raise DomainError(f"empty part of image({'x%d' % i}) must be x{i}")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coord_images", coord_images)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, name, value):
        raise AttributeError("WeilMorphism is immutable")

    @classmethod
    def from_callable(cls, arity: int, dim: int, fn: Callable[[Poly], WeilElem]) -> "WeilMorphism":
        images = [fn(Poly.var(dim, i)) for i in range(dim)]
        return cls(arity, dim, images, raw=fn)

    def image(self, f: Poly) -> WeilElem:
        if f.dim != self.dim:
            raise ChartMismatchError("polynomial lives on a different chart")
        if self.raw is not None:
            return self.raw(f)
        out = WeilElem.zero(self.arity, self.dim)
        for key, c in f.num.items():
            term = WeilElem.scalar(self.arity, Poly.const(self.dim, Fraction(c, f.den)))
            for i, e in enumerate(_unpack(key, self.dim)):
                if e:
                    term = term * self.coord_images[i] ** e
            out = out + term
        return out

    def restrict(self, i: int) -> "WeilMorphism":
        """Set generator e_i to zero, landing one arity down."""
        return WeilMorphism(
            self.arity - 1,
            self.dim,
            [w.set_generator_zero(i) for w in self.coord_images],
        )

    def __eq__(self, other):
        if not isinstance(other, WeilMorphism):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.dim == other.dim
            and self.coord_images == other.coord_images
        )

    def __repr__(self):
        imgs = ", ".join(f"x{i} -> {w}" for i, w in enumerate(self.coord_images))
        return f"WeilMorphism({imgs})"


class CupFactorization:
    """Images of the V_m generators inside W_m, all pairwise products zero."""

    __slots__ = ("arity", "dim", "images")

    def __init__(self, arity: int, dim: int, images: Sequence[WeilElem]):
        images = tuple(images)
        if len(images) != arity:
            raise DomainError("need one image per V generator")
        for w in images:
            if w.arity != arity or w.dim != dim:
                raise ArityMismatchError("factorization image in the wrong Weil algebra")
        for a in images:
            for b in images:
                if not (a * b).is_zero():
                    raise DomainError(
                        "invalid factorization: generator images must have all pairwise products zero"
                    )
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("CupFactorization is immutable")

    @classmethod
    def canonical(cls, dim: int) -> "CupFactorization":
        """The coordinate embedding, available at arity 1 where it is valid."""
        return cls(1, dim, [WeilElem.generator(1, dim, 0)])


def kfield_to_weil(nu: KField) -> WeilMorphism:
    """Morphism form of a classical subset-indexed field."""
    if not nu.is_classical():
        raise DomainError("kfield_to_weil needs a classical field")
    k, dim = nu.arity, nu.chart.dim
    fields = {phi: project_to_lie(elem) for phi, elem in nu.components.items()}
    images = []
    for i in range(dim):
        xi = Poly.var(dim, i)
        parts: dict[Subset, Poly] = {frozenset(): xi}
        for size in range(1, k + 1):
            for phi in combinations(range(k), size):
                val = subset_operator_apply(fields, frozenset(phi), xi)
                if not val.is_zero():
                    parts[frozenset(phi)] = val
        images.append(WeilElem(k, dim, parts))
    return WeilMorphism(k, dim, images)


def weil_to_kfield(w: WeilMorphism, chart: ChartSpec | None = None) -> KField:
    """Recover the subset-indexed decomposition of a morphism.

    Components are extracted by induction on subset size, peeling composite
    terms off the stored parts.  A morphism stored by coordinate images is
    multiplicative by construction and has its empty parts checked when
    built; a raw callable is first probed for multiplicativity on low-degree
    monomial pairs, and a failing pair is raised as a NotMultiplicativeError
    witness.
    """
    k, dim = w.arity, w.dim
    chart = chart or ChartSpec(dim, max_degree=max(2, k))
    coord_parts = [w.image(Poly.var(dim, i)) for i in range(dim)]
    if w.raw is not None:
        _probe_multiplicative(w, coord_parts)
    fields: dict[Subset, VField] = {}
    for size in range(1, k + 1):
        for phi_t in combinations(range(k), size):
            phi = frozenset(phi_t)
            # phi has no field yet, so this is the sum over its partitions
            # into two or more blocks: the composite terms to peel off
            field = VField(
                [coord_parts[i].part(phi) - subset_operator_apply(fields, phi, Poly.var(dim, i)) for i in range(dim)]
            )
            if not field.is_zero():
                fields[phi] = field
    return KField.from_vfields(chart, k, fields)


def _probe_multiplicative(w: WeilMorphism, coord_parts: Sequence[WeilElem]):
    """Check that the empty part of image(x_i) is x_i, as unitality needs,
    and image(f*g) = image(f)*image(g) on monomials up to order arity+1."""
    dim, k = w.dim, w.arity
    for i, elem in enumerate(coord_parts):
        if elem.part(frozenset()) != Poly.var(dim, i):
            raise NotMultiplicativeError(Poly.const(dim, 1), Poly.var(dim, i))
    monos = [Poly.var(dim, i) for i in range(dim)]
    quadratic = [monos[i] * monos[j] for i in range(dim) for j in range(i, dim)]
    probes = monos + quadratic
    for f in probes:
        for g in probes:
            if f.total_degree() + g.total_degree() > k + 1:
                continue
            if w.image(f * g) != w.image(f) * w.image(g):
                raise NotMultiplicativeError(f, g)


def weil_cup(x: WeilMorphism, fact: CupFactorization, derivations: Sequence[VField]) -> WeilMorphism:
    """Cup product of x with a factor through V_m given by m derivations.

    The result sends f to the lift of x(f) plus, for each j, the shifted
    factorization image of the j-th V generator times e_0...e_{k-1} times
    derivations[j](f).
    """
    if fact.dim != x.dim:
        raise ChartMismatchError("factorization lives on a different chart")
    m = fact.arity
    if len(derivations) != m:
        raise DomainError("need one derivation per V generator")
    for beta in derivations:
        if beta.dim != x.dim:
            raise ChartMismatchError("derivation lives on a different chart")
    k = x.arity
    total = k + m
    first_block = WeilElem(total, x.dim, {frozenset(range(k)): Poly.const(x.dim, 1)})
    multipliers = [fact.images[j].shift(k, total) * first_block for j in range(m)]
    images = []
    for i in range(x.dim):
        xi = Poly.var(x.dim, i)
        img = x.image(xi).shift(0, total)
        for j, beta in enumerate(derivations):
            img = img + multipliers[j] * vf_apply(beta, xi)
        images.append(img)
    return WeilMorphism(total, x.dim, images)
