"""Free and relatively free Lie-Rinehart algebras over the chart ring.

Elements are A-linear combinations of standard bracketings of Lyndon words
in the coordinate generators d0..d{n-1}, where A = Q[x0..x{n-1}].  Two Lie
structures live here:

* the free bracket `free_bracket` -- bilinear over constants, with the
  Leibniz corrections  [x, f*y] - [f*x, y] = x(f)*y + y(f)*x  through the
  anchor, and bare monomials multiplied in the free Lie algebra;
* the extended classical bracket `lie_bracket_ext` -- the coordinate bracket
  on degree-1 elements, pushed through free-bracket monomials as a
  derivation:  [x, F[y,z]] = F[[x,y], z] + F[y, [x,z]].

A `RelativeSpec` marks a subset of generators as vertical (tangent to the
fibers of a projection).  In the relative algebra every bracket monomial of
length >= 2 that touches a vertical generator collapses:  [g, x] for
vertical g rewrites to the classical action of g on x, which vanishes on
bare coordinate generators, so only the Leibniz terms survive.  Making all
generators vertical collapses the algebra onto classical vector fields;
making none keeps it fully free.

Degrees are truncated at the chart's max_degree: a bracket whose result
would contain a longer surviving word raises DegreeOverflowError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import lyndon
from .chart_algebra import ChartSpec, Poly, VField, _accumulate, _degree1_bracket, _Module, render_combination
from .errors import ChartMismatchError, DegreeOverflowError, DomainError

Word = tuple[int, ...]


class LyndonWord(tuple):
    """An aperiodic word minimal among its rotations; basis label for monomials.

    The word is its tuple of letters, so it equals, hashes and orders like
    that tuple.
    """

    __slots__ = ()

    def __new__(cls, letters: Sequence[int]):
        letters = tuple(int(a) for a in letters)
        if not lyndon.is_lyndon(letters):
            raise DomainError(f"{letters} is not a Lyndon word")
        return tuple.__new__(cls, letters)

    @classmethod
    def _make(cls, letters: Word) -> "LyndonWord":
        """Wrap a tuple of ints that is already a Lyndon word."""
        return tuple.__new__(cls, letters)

    @property
    def letters(self) -> Word:
        """The letters as a plain tuple."""
        return tuple(self)

    def __repr__(self):
        return f"LyndonWord{tuple.__repr__(self)}"


@dataclass(frozen=True)
class RelativeSpec:
    """Chart plus the set of generator indices tangent to the fibers."""

    chart: ChartSpec
    vertical: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "vertical", frozenset(self.vertical))
        if any(i < 0 or i >= self.chart.dim for i in self.vertical):
            raise DomainError("vertical index out of range for the chart")


class FreeLRElem(_Module):
    """A-combination of Lyndon bracket monomials: sum f_w * b(w)."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: ChartSpec, terms: Mapping[LyndonWord, Poly] | None = None):
        clean: dict[LyndonWord, Poly] = {}
        for w, p in (terms or {}).items():
            if not isinstance(w, LyndonWord):
                w = LyndonWord(w)
            if p.dim != chart.dim:
                raise ChartMismatchError("coefficient lives on a different chart")
            if len(w) > chart.max_degree:
                raise DegreeOverflowError(len(w), chart.max_degree)
            if any(a >= chart.dim for a in w):
                raise DomainError(f"generator index in {tuple(w)} out of range")
            if not p.is_zero():
                clean[w] = p
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, chart: ChartSpec, terms: dict[LyndonWord, Poly]) -> "FreeLRElem":
        """Wrap a canonical dict: Lyndon words within the chart, nonzero Polys on it."""
        self = object.__new__(cls)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", terms)
        return self

    def _like(self, terms: dict[LyndonWord, Poly]) -> "FreeLRElem":
        return FreeLRElem._make(self.chart, terms)

    def _space(self):
        return self.chart

    def _check(self, other: "FreeLRElem"):
        if self.chart != other.chart:
            raise ChartMismatchError("elements live on different charts")

    @classmethod
    def zero(cls, chart: ChartSpec) -> "FreeLRElem":
        return cls._make(chart, {})

    @classmethod
    def generator(cls, chart: ChartSpec, i: int) -> "FreeLRElem":
        return cls(chart, {LyndonWord((i,)): Poly.const(chart.dim, 1)})

    @classmethod
    def from_vfield(cls, chart: ChartSpec, v: VField) -> "FreeLRElem":
        if v.dim != chart.dim:
            raise ChartMismatchError("field lives on a different chart")
        return cls._make(chart, {LyndonWord._make((i,)): p for i, p in v.terms.items()})

    def is_classical(self) -> bool:
        """True when only length-1 words occur, i.e. the element is a vector field."""
        return all(len(w) == 1 for w in self.terms)

    def max_length(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    @staticmethod
    def _word_str(word: Word) -> str:
        if len(word) == 1:
            return f"d{word[0]}"
        u, v = lyndon.standard_factorization(word)
        return f"F[{FreeLRElem._word_str(u)},{FreeLRElem._word_str(v)}]"

    def __str__(self):
        # long monomials first, then lexicographic, matching F[..] nesting depth
        order = sorted(self.terms, key=lambda w: (-len(w), w))
        return render_combination((self.terms[w], self._word_str(w)) for w in order)

    def __repr__(self):
        return f"FreeLRElem({self})"

    def to_json(self):
        order = sorted(self.terms, key=lambda w: (len(w), w))
        return [{"word": list(w), "coeff": str(self.terms[w])} for w in order]


def lyndon_basis(n: int, d: int) -> list[LyndonWord]:
    """All Lyndon words of length d over n generators, sorted."""
    if n < 1 or d < 1:
        raise DomainError("alphabet size and length must be >= 1")
    return [LyndonWord(w) for w in lyndon.lyndon_words(n, d)]


def _drop_vertical(elem: FreeLRElem, vertical: frozenset[int]) -> FreeLRElem:
    """Normal form in the relative algebra: kill long words touching a vertical index."""
    if not vertical:
        return elem
    kept = {
        w: p
        for w, p in elem.terms.items()
        if len(w) == 1 or not (set(w) & vertical)
    }
    if len(kept) == len(elem.terms):
        return elem
    return elem._like(kept)


def anchor_apply(u: FreeLRElem, f: Poly) -> Poly:
    """Action of u on the chart ring through the anchor.

    Monomials act as nested commutators of the coordinate derivations, which
    commute, so only the degree-1 part contributes.
    """
    if f.dim != u.chart.dim:
        raise ChartMismatchError("polynomial lives on a different chart")
    out = Poly.zero(f.dim)
    for w, p in u.terms.items():
        if len(w) == 1:
            out = out + p * f.derive(w[0])
    return out


def project_to_lie(u: FreeLRElem) -> VField:
    """Evaluate every bracket monomial as a classical nested bracket.

    Coordinate generators commute, so all words of length >= 2 evaluate to
    zero and the projection keeps exactly the degree-1 part.
    """
    return VField._make(u.chart.dim, {w[0]: p for w, p in u.terms.items() if len(w) == 1})


def free_bracket(u: FreeLRElem, v: FreeLRElem, spec: RelativeSpec | None = None) -> FreeLRElem:
    """The free Lie-Rinehart bracket of u and v, in Lyndon normal form.

    Expands  [f*b(w), g*b(w')] = f*g*[b(w),b(w')] + f*w(g)*b(w') - g*w'(f)*b(w)
    with the bare monomial bracket rewritten into the Lyndon basis, then
    reduces vertical monomials when a RelativeSpec is given.  Two degree-1
    elements with no vertical set go to the numerator kernel
    `_degree1_bracket` instead, which gives the same value.
    """
    u._check(v)
    chart = u.chart
    vertical = spec.vertical if spec else frozenset()
    if spec and spec.chart != chart:
        raise ChartMismatchError("relative spec is for a different chart")
    f, g = _classical_coeffs(u), _classical_coeffs(v)
    if vertical or f is None or g is None:
        return _free_bracket_terms(u, v, vertical)
    # some d_i of u and d_j of v with i != j bracket to the word (i, j)
    one_letter = len(u.terms) == 1 and u.terms.keys() == v.terms.keys()
    if chart.max_degree < 2 and u.terms and v.terms and not one_letter:
        raise DegreeOverflowError(2, chart.max_degree)
    return _degree1_elem(chart, *_degree1_bracket(chart.dim, f, g, True))


def _free_bracket_terms(u: FreeLRElem, v: FreeLRElem, vertical: frozenset[int]) -> FreeLRElem:
    """free_bracket expanded term by term, for any words and vertical set."""
    chart = u.chart
    u = _drop_vertical(u, vertical)
    v = _drop_vertical(v, vertical)

    pairs: list[tuple[Word, Poly]] = []
    for w1, f in u.terms.items():
        for w2, g in v.terms.items():
            # bare monomial bracket; in the relative algebra any long word
            # containing a vertical letter is zero, so skip those wholesale
            if not (vertical and (set(w1) | set(w2)) & vertical):
                fg = f * g
                for word, c in lyndon.monomial_bracket(w1, w2).items():
                    if len(word) > chart.max_degree:
                        raise DegreeOverflowError(len(word), chart.max_degree)
                    pairs.append((word, fg * c))
            # Leibniz corrections through the anchor
            if len(w1) == 1:
                p = f * g.derive(w1[0])
                if p:
                    pairs.append((w2, p))
            if len(w2) == 1:
                p = g * f.derive(w2[0])
                if p:
                    pairs.append((w1, -p))

    # monomial_bracket returns Lyndon coordinates, so every word is Lyndon
    acc = _accumulate({}, pairs)
    return FreeLRElem._make(chart, {LyndonWord._make(w): p for w, p in acc.items()})


def lie_bracket_ext(u: FreeLRElem, v: FreeLRElem) -> FreeLRElem:
    """The second Lie structure on the fully free algebra.

    Degree-1 against degree-1 is the classical coordinate bracket; against a
    free monomial F[y,z] the first argument acts as a derivation; a long
    first argument against a degree-1 second is lowered by antisymmetry.
    Two degree-1 elements go to the numerator kernel `_degree1_bracket`.
    """
    u._check(v)
    f, g = _classical_coeffs(u), _classical_coeffs(v)
    if f is None or g is None:
        return _lie_bracket_terms(u, v)
    return _degree1_elem(u.chart, *_degree1_bracket(u.chart.dim, f, g, False))


def _lie_bracket_terms(u: FreeLRElem, v: FreeLRElem) -> FreeLRElem:
    """lie_bracket_ext expanded term by term, for any words."""
    acc: dict[LyndonWord, Poly] = {}
    for w1, f in u.terms.items():
        for w2, g in v.terms.items():
            _accumulate(acc, _lie_term(u.chart, f, w1, g, w2).terms.items())
    return FreeLRElem._make(u.chart, acc)


def _lie_term(chart: ChartSpec, f: Poly, w1: Word, g: Poly, w2: Word) -> FreeLRElem:
    if len(w2) >= 2:
        # [x, g*m] = g*[x,m] + x(g)*m  with m = F[b(a), b(b)] expanded as a
        # derivation of the free bracket
        a, b = lyndon.standard_factorization(w2)
        # both standard factors of a Lyndon word are Lyndon words
        one = Poly.const(chart.dim, 1)
        elem_a = FreeLRElem._make(chart, {LyndonWord._make(a): one})
        elem_b = FreeLRElem._make(chart, {LyndonWord._make(b): one})
        inner_a = _lie_term(chart, f, w1, one, a)
        inner_b = _lie_term(chart, f, w1, one, b)
        part = free_bracket(inner_a, elem_b) + free_bracket(elem_a, inner_b)
        part = part * g
        if len(w1) == 1:
            p = f * g.derive(w1[0])
            if p:
                part = part + FreeLRElem._make(chart, {LyndonWord._make(w2): p})
        return part
    if len(w1) == 1:
        # classical coordinate bracket of f*d_i and g*d_j
        pairs = [(w2, f * g.derive(w1[0])), (w1, -(g * f.derive(w2[0])))]
        return FreeLRElem._make(chart, _accumulate({}, [(LyndonWord._make(w), p) for w, p in pairs if p]))
    return -_lie_term(chart, g, w2, f, w1)


def _classical_coeffs(u: FreeLRElem) -> dict[int, Poly] | None:
    """The coefficient of each d_i in u by i, or None when u has a longer word."""
    coeffs = {}
    for w, p in u.terms.items():
        if len(w) != 1:
            return None
        coeffs[w[0]] = p
    return coeffs


def _degree1_elem(chart: ChartSpec, coords: dict[int, Poly], pairs: dict[tuple[int, int], Poly]) -> FreeLRElem:
    """Wrap the outputs of `_degree1_bracket` as a FreeLRElem."""
    terms = {LyndonWord._make((j,)): p for j, p in coords.items()}
    terms.update((LyndonWord._make(w), p) for w, p in pairs.items())
    return FreeLRElem._make(chart, terms)


def vertical_reduce(expr, spec: RelativeSpec) -> FreeLRElem:
    """Normal form of a raw bracket expression in the relative algebra.

    The expression is either a FreeLRElem or a nested tuple built from
    ("gen", i), ("scale", poly, e), ("add", e1, e2) and ("bracket", e1, e2).
    The result carries length >= 2 monomials on horizontal generators only;
    applying the function twice gives the same answer.
    """
    chart = spec.chart
    if isinstance(expr, FreeLRElem):
        return _drop_vertical(expr, spec.vertical)
    if isinstance(expr, VField):
        return FreeLRElem.from_vfield(chart, expr)
    if not isinstance(expr, tuple) or not expr:
        raise DomainError(f"unrecognized expression node: {expr!r}")
    tag = expr[0]
    if tag == "gen":
        return FreeLRElem.generator(chart, expr[1])
    if tag == "scale":
        return vertical_reduce(expr[2], spec) * expr[1]
    if tag == "add":
        return vertical_reduce(expr[1], spec) + vertical_reduce(expr[2], spec)
    if tag == "bracket":
        return free_bracket(vertical_reduce(expr[1], spec), vertical_reduce(expr[2], spec), spec)
    raise DomainError(f"unrecognized expression node: {tag!r}")
