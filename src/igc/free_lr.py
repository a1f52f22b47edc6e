"""Free and relatively free Lie-Rinehart algebras over the chart ring.

Elements are A-linear combinations of standard bracketings of Lyndon words
in the coordinate generators d0..d{n-1}, where A = Q[x0..x{n-1}].  Two Lie
structures live here:

* the free bracket `free_bracket` -- bilinear over constants, with the
  Leibniz corrections  [x, f*y] - [f*x, y] = x(f)*y + y(f)*x  through the
  anchor, and bare monomials multiplied in the free Lie algebra;
* the extended classical bracket `lie_bracket_ext` -- with u1, v1 the
  degree-1 parts,  [u, v] = [u1, v1] + u▷v_long - v1▷u_long,  where [u1, v1]
  is the coordinate bracket and x▷y_long sums g*D_x(b(w)) + x(g)*b(w) over
  the long words w of y with coefficient g; D_x is the derivation of the
  free bracket sending d_c to -dx/dx_c, D_x(F[a,b]) = F[D_x a, b] + F[a, D_x b].

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

from functools import cache
from typing import Iterable, Mapping, Sequence

from . import lyndon
from .chart_algebra import (
    ChartSpec, Poly, VField, _accumulate, _degree1_bracket, _derivation_into, _index, _int, _Module, _mul_into,
    _nonzero_polys, _numerators, _Record, render_combination, vf_apply,
)
from .errors import ChartMismatchError, DegreeOverflowError, DomainError

Word = tuple[int, ...]


class LyndonWord(tuple):
    """An aperiodic word minimal among its rotations; basis label for monomials.

    The word is its tuple of letters, so it equals, hashes and orders like
    that tuple.
    """

    __slots__ = ()

    def __new__(cls, letters: Sequence[int]):
        letters = tuple(_int(a, "generator index") for a in letters)
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


class RelativeSpec(_Record, frozen=True):
    """Chart plus the set of generator indices tangent to the fibers."""

    __slots__ = ("chart", "vertical")

    def __init__(self, chart: ChartSpec, vertical: Iterable[int] = frozenset()):
        vertical = frozenset(_index(i, chart.dim, "vertical index") for i in vertical)
        self._set(chart, vertical)


class FreeLRElem(_Module):
    """A-combination of Lyndon bracket monomials: sum f_w * b(w)."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: ChartSpec, terms: Mapping[LyndonWord, Poly] | None = None):
        clean: dict[LyndonWord, Poly] = {}
        for w, p in (terms or {}).items():
            for a in w:
                _index(a, chart.dim, "generator index")
            if not isinstance(w, LyndonWord):
                w = LyndonWord(w)
            if p.dim != chart.dim:
                raise ChartMismatchError("coefficient lives on a different chart")
            if len(w) > chart.max_degree:
                raise DegreeOverflowError(len(w), chart.max_degree)
            if not p.is_zero():
                clean[w] = p
        self._set(chart, clean)

    def _check(self, other: "FreeLRElem"):
        if self.chart != other.chart:
            raise ChartMismatchError("elements live on different charts")

    @classmethod
    def zero(cls, chart: ChartSpec) -> "FreeLRElem":
        return cls._make(chart, {})

    @classmethod
    def generator(cls, chart: ChartSpec, i: int) -> "FreeLRElem":
        _index(i, chart.dim, "generator index")
        return cls._make(chart, {LyndonWord._make((i,)): Poly.const(chart.dim, 1)})

    @classmethod
    def from_vfield(cls, chart: ChartSpec, v: VField) -> "FreeLRElem":
        if v.dim != chart.dim:
            raise ChartMismatchError("field lives on a different chart")
        return cls._make(chart, {LyndonWord._make((i,)): p for i, p in v.terms.items()})

    def is_classical(self) -> bool:
        """True when only length-1 words occur, i.e. the element is a vector field."""
        return all(len(w) == 1 for w in self.terms)

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
    """All Lyndon words of length d over n generators, sorted, in a new list."""
    return list(_lyndon_basis(_int(n, "alphabet size", 1), _int(d, "word length", 1)))


@cache
def _lyndon_basis(n: int, d: int) -> tuple[LyndonWord, ...]:
    """The Lyndon words of length d over n generators, found once per (n, d)."""
    return tuple(LyndonWord._make(w) for w in lyndon.lyndon_words(n, d))


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
    return vf_apply(project_to_lie(u), f)


def project_to_lie(u: FreeLRElem) -> VField:
    """Evaluate every bracket monomial as a classical nested bracket.

    Coordinate generators commute, so all words of length >= 2 evaluate to
    zero and the projection keeps exactly the degree-1 part.
    """
    return VField._make(u.chart.dim, {w[0]: p for w, p in u.terms.items() if len(w) == 1})


def free_bracket(u: FreeLRElem, v: FreeLRElem, spec: RelativeSpec | None = None) -> FreeLRElem:
    """The free Lie-Rinehart bracket of u and v, in Lyndon normal form.

    Expands  [f*b(w), g*b(w')] = f*g*[b(w),b(w')] + f*w(g)*b(w') - g*w'(f)*b(w)
    with the bare monomial bracket rewritten into the Lyndon basis; with a
    RelativeSpec, long words touching a vertical generator are dropped from
    the operands and no bare bracket touching one is formed.  Every word
    length is checked against max_degree before any product is formed.  Each
    operand is brought over the lcm of its denominators, so every output word
    is one numerator dict over their product, reduced once.
    """
    u._check(v)
    chart = u.chart
    vertical = spec.vertical if spec else frozenset()
    if spec and spec.chart != chart:
        raise ChartMismatchError("relative spec is for a different chart")
    un, ud = _numerators(_drop_vertical(u, vertical).terms)
    vn, vd = _numerators(_drop_vertical(v, vertical).terms)
    brackets = []
    for w1, p in un:
        for w2, q in vn:
            # in the relative algebra any long word holding a vertical letter
            # is zero, so such bare brackets are skipped wholesale
            if vertical and (set(w1) | set(w2)) & vertical:
                continue
            words = lyndon.monomial_bracket(w1, w2)
            if words:
                if len(w1) + len(w2) > chart.max_degree:
                    raise DegreeOverflowError(len(w1) + len(w2), chart.max_degree)
                brackets.append((p, q, words))
    accs: dict[Word, dict[int, int]] = {}
    # Leibniz corrections through the anchor, then the bare brackets
    _derivation_into(accs, [(w[0], p) for w, p in un if len(w) == 1], vn, 1)
    _derivation_into(accs, [(w[0], q) for w, q in vn if len(w) == 1], un, -1)
    for p, q, words in brackets:
        for word, c in words.items():
            _mul_into(accs.setdefault(word, {}), p if c == 1 else [(k, c * a) for k, a in p], q)
    # monomial_bracket returns Lyndon coordinates, so every word is Lyndon
    terms = _nonzero_polys(chart.dim, accs, ud * vd)
    return FreeLRElem._make(chart, {LyndonWord._make(w): p for w, p in terms.items()})


def lie_bracket_ext(u: FreeLRElem, v: FreeLRElem) -> FreeLRElem:
    """The second Lie structure on the fully free algebra.

    With u1 and v1 the degree-1 parts,  [u, v] = [u1, v1] + u▷v_long - v1▷u_long.
    [u1, v1] is the classical coordinate bracket, worked by the numerator
    kernel `_degree1_bracket`.  x▷y_long sums g*D_x(b(w)) + x(g)*b(w) over
    the long words w of y with coefficient g, where D_x is the derivation of
    the free bracket sending d_c to -dx/dx_c (coefficient by coefficient)
    and x(g) is the anchor, zero for long x.  Classical operands have no long
    words, so one pass over each operand's terms does all the work.
    """
    u._check(v)
    chart = u.chart
    f = {w[0]: p for w, p in u.terms.items() if len(w) == 1}
    g = {w[0]: p for w, p in v.terms.items() if len(w) == 1}
    acc = {LyndonWord._make((j,)): p for j, p in _degree1_bracket(chart.dim, f, g).items()}
    if len(g) < len(v.terms):
        _long_action_into(acc, u, v)
    if len(f) < len(u.terms):
        # D_x and the anchor are linear in x, so -v1▷u_long is (-v1)▷u_long
        _long_action_into(acc, -FreeLRElem.from_vfield(chart, project_to_lie(v)), u)
    return FreeLRElem._make(chart, acc)


def _long_action_into(acc: dict, x: FreeLRElem, y: FreeLRElem):
    """Add x▷y_long, the sum of g*D_x(b(w)) + x(g)*b(w) over the long words w of y, into acc.

    D_x(b(w)) is worked with coefficient 1 through the standard factorization,
    D_x(F[a,b]) = F[D_x a, b] + F[a, D_x b] by `free_bracket`, once per word.
    """
    chart = x.chart
    one = Poly.const(chart.dim, 1)
    derived: dict[Word, FreeLRElem] = {}

    def derive(word: Word) -> FreeLRElem:
        got = derived.get(word)
        if got is None:
            if len(word) == 1:
                got = x._like({w: -d for w, p in x.terms.items() if (d := p.derive(word[0]))})
            else:
                # both standard factors of a Lyndon word are Lyndon words
                a, b = lyndon.standard_factorization(word)
                da, db = derive(a), derive(b)
                got = free_bracket(da, x._like({LyndonWord._make(b): one}))
                got += free_bracket(x._like({LyndonWord._make(a): one}), db)
            derived[word] = got
        return got

    for w, g in y.terms.items():
        if len(w) > 1:
            _accumulate(acc, [(z, p * g) for z, p in derive(w).terms.items()])
            p = anchor_apply(x, g)
            if p:
                _accumulate(acc, [(w, p)])


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
