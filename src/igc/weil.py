"""Weil algebras with square-zero generators and the k-field dictionary.

W_k is spanned by products of e_0..e_{k-1} with e_i^2 = 0 over the chart
ring, so elements are maps from subsets of {0..k-1} to Poly and products
convolve over disjoint subsets.  A point/field of the k-th iterated tangent
bundle is the same thing as a unital multiplicative map from the chart ring
into W_k tensor the chart ring whose empty part is the identity; such a
morphism is pinned down by its values on the coordinates x_i, and
`WeilMorphism` stores exactly those.  A morphism given as a function on the
chart ring enters through `WeilMorphism.from_callable`, which probes it for
multiplicativity once and keeps its coordinate images.

The phi part of the morphism of a classical field sums v_{B_r}(...v_{B_1}(x_i))
over the splittings of phi into supported blocks, least index first.  Blocks
with one least element meet, so image(x_i) = L_{k-1}(...L_0(x_i)), where
L_m = 1 + N_m and N_m(w) sums e_B*v_B(w) over the blocks B with least element
m; N_m^2 = 0, so L_m^{-1} = 1 - N_m.  `kfield_to_weil` applies the steps from
L_0 up, and `weil_to_kfield` reads the fields starting at m off the parts
starting at m and peels L_m off, from the greatest m down.  Each step is one
`_flow`: one derivation per block and disjoint part.

The partial cup product against a factor through V_m (all pairwise
generator products zero) is `weil_cup`: the m derivations enter multiplied
by the image of the V_m generators shifted past the first block times the
full first-block monomial e_0...e_{k-1}.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import combinations_with_replacement
from math import lcm

from .chart_algebra import (
    ChartSpec, Poly, VField, _accumulate, _budget, _cancelled, _checked, _derivation_into, _index, _int, _Module,
    _mul_into, _numerators, _poly_text, _Record, _reduced, _same_chart, _summed, _unpack, _value, vf_apply,
)
from .errors import ArityMismatchError, DomainError, NotMultiplicativeError
from .free_lr import FreeLRElem, project_to_lie
from .groupoid import KField, Subset, _check_arity, _drop_slot, _index_set, _subset_key


class WeilElem(_Module):
    """Element of W_k over the chart ring: map from subsets to Poly parts, stored by subset as a `_Module`."""

    __slots__ = ("arity", "dim", "num", "den")

    # most index sets the k-field dictionary forms: n disjoint blocks have 2^n - 1 unions
    MAX_PARTS = 10_000

    @_checked
    def __init__(self, arity: int, dim: int, terms: Mapping[Subset, Poly] | None = None):
        _int(arity, "arity", 0)
        _int(dim, "chart dimension", 1)
        pairs = []
        for label, p in ({} if terms is None else terms).items():
            phi = _index_set(label, arity, "generator")
            _same_chart(_value(p, Poly, "part", label).dim, dim, "part", label)
            if p:
                pairs.append((phi, p))
        # labels naming one index set, as (0, 1) and (1, 0), are summed
        self._set(arity, dim, *_numerators(_accumulate({}, pairs)))

    def _check(self, other, what: str, label):
        if self.arity != other.arity:
            raise ArityMismatchError(f"arities differ: {self.arity} vs {other.arity}")
        _same_chart(other.dim, self.dim, what, label)

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
    @_checked
    def scalar(cls, arity: int, p: Poly) -> "WeilElem":
        return cls(arity, p.dim, {frozenset(): p})

    def part(self, phi) -> Poly:
        n = self.num.get(_index_set(phi, self.arity, "generator"))
        return _reduced(self.dim, n, self.den) if n else Poly.zero(self.dim)

    def __mul__(self, other):
        if not isinstance(other, WeilElem):
            return super().__mul__(other)
        if self._space(self) != self._space(other):
            self._check(other, "product", "factor")
        # one accumulator per disjoint union phi | psi
        accs: dict[Subset, dict[int, int]] = {}
        for phi, p in self.num.items():
            for psi, q in other.num.items():
                if not phi & psi:
                    _mul_into(accs.setdefault(phi | psi, {}), p, q)
        return self._like(*_summed(self.dim, accs, self.den * other.den))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        _int(n, "Weil exponent", 0)
        result = WeilElem.unit(self.arity, self.dim)
        for _ in range(n):
            result = result * self
        return result

    def set_generator_zero(self, i: int) -> "WeilElem":
        """Quotient by e_i = 0: drop subsets containing i and reindex the rest."""
        _index(i, self.arity, "generator index")
        num = {_drop_slot(phi, i): n for phi, n in self.num.items() if i not in phi}
        # the dropped parts may have held the common factor
        num, den = (num, self.den) if len(num) == len(self.num) else _cancelled(num, self.den)
        return WeilElem._make(self.arity - 1, self.dim, num, den)

    def shift(self, offset: int, new_arity: int) -> "WeilElem":
        """Reindex every generator i to i + offset inside a larger algebra, of arity at least offset + arity."""
        _int(new_arity, "shifted arity", _int(offset, "shift offset", 0) + self.arity)
        num = {frozenset(x + offset for x in phi): n for phi, n in self.num.items()}
        return WeilElem._make(new_arity, self.dim, num, self.den)

    def _parts(self) -> list[tuple[Subset, str]]:
        """(subset, text of its part) for every stored part, by size, then subset-lexicographically."""
        order = sorted(self.num, key=lambda s: (len(s), _subset_key(s)))
        return [(phi, _poly_text(self.dim, self.num[phi], self.den)) for phi in order]

    def __str__(self):
        chunks = []
        for phi, text in self._parts():
            mono = "".join(f"e{i}" for i in sorted(phi))
            chunks.append(f"({text})*{mono}" if mono else f"({text})")
        return " + ".join(chunks) or "0"

    def __repr__(self):
        return f"WeilElem({self})"

    def to_json(self):
        return {",".join(map(str, sorted(phi))): text for phi, text in self._parts()}


def _add_union(unions: set[Subset], block: Subset):
    """Add block and its union with every member disjoint from it."""
    unions |= {block}.union(u | block for u in unions if not u & block)
    _budget(len(unions), WeilElem, "MAX_PARTS", "disjoint-union count")


def _flow(w: WeilElem, blocks: Sequence[tuple[Subset, VField]], sign: int) -> WeilElem:
    """w + sign * sum of e_B*v_B(w) over blocks (B, v_B) that share their least element.

    Over the lcm of the fields' denominators: one `_derivation_into` per
    block over the parts of w disjoint from B, and one `_summed` finish.
    """
    den = lcm(*[v.den for _, v in blocks])
    accs = {phi: {key: c * den for key, c in n.items()} for phi, n in w.num.items()}
    for block, v in blocks:
        parts = [(phi | block, n) for phi, n in w.num.items() if not phi & block]
        _derivation_into(accs, v.num.items(), parts, sign * (den // v.den))
    return w._like(*_summed(w.dim, accs, w.den * den))


class WeilMorphism(_Record, frozen=True):
    """Unital multiplicative map from the chart ring into W_k over itself.

    Stored by the images of the coordinates; the image of any polynomial is
    the multiplicative extension.  The constructor checks that the empty
    part of image(x_i) is x_i; `from_callable` builds one from a function on
    the chart ring after probing that function for multiplicativity.
    """

    __slots__ = ("arity", "dim", "coord_images")

    @_checked
    def __init__(self, arity: int, dim: int, coord_images: Iterable[WeilElem]):
        coord_images = _coordinate_images(arity, dim, coord_images)
        for i, w in enumerate(coord_images):
            if w.part(frozenset()) != Poly.var(dim, i):
                raise DomainError(f"empty part of image({'x%d' % i}) must be x{i}")
        self._set(arity, dim, coord_images)

    @classmethod
    @_checked
    def from_callable(cls, arity: int, dim: int, fn: Callable[[Poly], WeilElem]) -> "WeilMorphism":
        """The morphism sending each x_i to fn(x_i), once fn passes the probe.

        The empty part of fn(x_i) must be x_i, as unitality needs, and
        fn(f*g) = fn(f)*fn(g) must hold on monomials up to order arity+1;
        the first failure is raised as a NotMultiplicativeError witness.
        """
        monos = [Poly.var(dim, i) for i in range(_int(dim, "chart dimension", 1))]
        images = _coordinate_images(arity, dim, [fn(x) for x in monos])
        for x, elem in zip(monos, images):
            if elem.part(frozenset()) != x:
                raise NotMultiplicativeError(Poly.const(dim, 1), x)
        quadratic = [monos[i] * monos[j] for i in range(dim) for j in range(i, dim)]
        probes = list(zip(monos, images)) + [(f, fn(f)) for f in quadratic]
        for f, image_f in probes:
            for g, image_g in probes:
                if f.total_degree() + g.total_degree() <= arity + 1 and fn(f * g) != image_f * image_g:
                    raise NotMultiplicativeError(f, g)
        return cls._make(arity, dim, images)

    @_checked
    def image(self, f: Poly) -> WeilElem:
        _same_chart(f.dim, self.dim, "WeilMorphism.image argument", "f")
        out = WeilElem._make(self.arity, self.dim, {}, 1)
        for key, c in f.num.items():
            term = WeilElem._make(self.arity, self.dim, *_cancelled({frozenset(): {0: c}}, f.den))
            for i, e in enumerate(_unpack(key, self.dim)):
                if e:
                    term = term * self.coord_images[i] ** e
            out = out + term
        return out

    def restrict(self, i: int) -> "WeilMorphism":
        """Set generator e_i to zero, landing one arity down."""
        return WeilMorphism._make(self.arity - 1, self.dim, tuple(w.set_generator_zero(i) for w in self.coord_images))

    def __repr__(self):
        imgs = ", ".join(f"x{i} -> {w}" for i, w in enumerate(self.coord_images))
        return f"WeilMorphism({imgs})"


def _coordinate_images(arity: int, dim: int, images: Iterable[WeilElem]) -> tuple[WeilElem, ...]:
    """images as a tuple, one per chart dimension, each in W_arity over the chart."""
    images = tuple(images)
    _int(arity, "arity", 0)
    if len(images) != _int(dim, "chart dimension", 1):
        raise DomainError("need one coordinate image per chart dimension")
    for i, w in enumerate(images):
        if _value(w, WeilElem, "image of", f"x{i}").arity != arity:
            raise ArityMismatchError("coordinate image in the wrong Weil algebra")
        _same_chart(w.dim, dim, "image of", f"x{i}")
    return images


class CupFactorization(_Record, frozen=True):
    """Images of the V_m generators inside W_m, all pairwise products zero."""

    __slots__ = ("arity", "dim", "images")

    @_checked
    def __init__(self, arity: int, dim: int, images: Iterable[WeilElem]):
        images = tuple(images)
        _int(dim, "chart dimension", 1)
        if len(images) != _int(arity, "arity", 0):
            raise DomainError("need one image per V generator")
        for j, w in enumerate(images):
            if _value(w, WeilElem, "image of V generator", j).arity != arity:
                raise ArityMismatchError("factorization image in the wrong Weil algebra")
            _same_chart(w.dim, dim, "image of V generator", j)
        # W_m is commutative, so each unordered pair is tested once
        for a, b in combinations_with_replacement(images, 2):
            if not (a * b).is_zero():
                raise DomainError("invalid factorization: generator images must have all pairwise products zero")
        self._set(arity, dim, images)

    @classmethod
    def canonical(cls, dim: int) -> "CupFactorization":
        """The coordinate embedding, available at arity 1 where it is valid."""
        return cls(1, dim, [WeilElem.generator(1, dim, 0)])


@_checked
def kfield_to_weil(nu: KField) -> WeilMorphism:
    """Morphism form of a classical subset-indexed field: image(x_i) = L_{k-1}(...L_0(x_i))."""
    if not nu.is_classical():
        raise DomainError("kfield_to_weil needs a classical field")
    k, dim = nu.arity, nu.chart.dim
    unions: set[Subset] = set()
    steps: dict[int, list[tuple[Subset, VField]]] = {}
    for block, elem in nu.components.items():
        _add_union(unions, block)
        steps.setdefault(min(block), []).append((block, project_to_lie(elem)))
    images = [WeilElem.scalar(k, Poly.var(dim, i)) for i in range(dim)]
    for m in sorted(steps):
        images = [_flow(image, steps[m], 1) for image in images]
    return WeilMorphism._make(k, dim, tuple(images))


@_checked
def weil_to_kfield(w: WeilMorphism, chart: ChartSpec | None = None) -> KField:
    """Recover the subset-indexed decomposition of a morphism from its coordinate images.

    From the greatest least element m of a stored part down, the parts whose
    least element is m are the coefficients of the fields starting at m, and
    L_m^{-1} = 1 - N_m peels them off with their composites.
    """
    k, dim = w.arity, w.dim
    _check_arity(k)
    chart = ChartSpec(dim, max_degree=max(2, k)) if chart is None else chart
    images, found, unions = w.coord_images, [], set()
    while least := [min(phi) for image in images for phi in image.num if phi]:
        m = max(least)
        coeffs: dict[Subset, dict[int, Poly]] = {}
        for i, image in enumerate(images):
            for phi, n in image.num.items():
                if phi and min(phi) == m:
                    coeffs.setdefault(phi, {})[i] = _reduced(dim, n, image.den)
        blocks = [(phi, VField._make(dim, *_numerators(field))) for phi, field in coeffs.items()]
        for phi, _ in blocks:
            _add_union(unions, phi)
        images = [_flow(image, blocks, -1) for image in images]
        found += blocks
    return KField._make(chart, k, {phi: FreeLRElem.from_vfield(chart, v) for phi, v in found})


@_checked
def weil_cup(x: WeilMorphism, fact: CupFactorization, derivations: Sequence[VField]) -> WeilMorphism:
    """Cup product of x with a factor through V_m given by m derivations.

    The result sends f to the lift of x(f) plus, for each j, the shifted
    factorization image of the j-th V generator times e_0...e_{k-1} times
    derivations[j](f).
    """
    _same_chart(fact.dim, x.dim, "weil_cup argument", "fact")
    m = fact.arity
    if len(derivations) != m:
        raise DomainError("need one derivation per V generator")
    for j, beta in enumerate(derivations):
        _same_chart(_value(beta, VField, "derivation", j).dim, x.dim, "derivation", j)
    k = x.arity
    total = k + m
    first_block = WeilElem._make(total, x.dim, {frozenset(range(k)): {0: 1}}, 1)
    multipliers = [fact.images[j].shift(k, total) * first_block for j in range(m)]
    images = []
    for i in range(x.dim):
        xi = Poly.var(x.dim, i)
        img = x.coord_images[i].shift(0, total)
        for j, beta in enumerate(derivations):
            img = img + multipliers[j] * vf_apply(beta, xi)
        images.append(img)
    return WeilMorphism._make(total, x.dim, tuple(images))
