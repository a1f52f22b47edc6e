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

An element is a `_Module`, stored as `Poly` is, fraction-free: int
numerators by word and packed monomial key over one denominator.  Both
brackets are the anchor terms u1(v) - v1(u), each degree-1 part acting on
every coefficient of the other operand, plus products of their own: the bare
brackets f*g*[b(w), b(w')] of the free one, and g*D_x(b(w)) over the long
words of the classical extension (D_x(b(w)) is built by `_unit_bracket_into`).
The kernels `_free_bracket_into` and `_lie_bracket_into` list their products
and hand them to `_anchored_into`, which adds both phases into one integer
numerator dict per output word, reading the operands' numerators as stored,
under one refusal rule: a product count past the budget names the largest
count of the first phase past it, the anchor terms first.  `_bracket`
finishes the result once.

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

from collections.abc import Iterable, Mapping, Sequence
from functools import cache
from math import lcm

from . import lyndon
from .chart_algebra import (
    _PRODUCTS, ChartSpec, Poly, VField, _budget, _cancelled, _checked, _derivation_counts, _derivation_into, _index,
    _int, _Module, _mul_into, _numerators, _partial_into, _poly_text, _Record, _runs_summed, _same_chart, _summed,
    _value, render_combination, vf_apply,
)
from .errors import DegreeOverflowError, DomainError, _shown
from .lyndon import LyndonWord

Word = tuple[int, ...]


class RelativeSpec(_Record, frozen=True):
    """Chart plus the set of generator indices tangent to the fibers."""

    __slots__ = ("chart", "vertical")

    @_checked
    def __init__(self, chart: ChartSpec, vertical: Iterable[int] = frozenset()):
        vertical = frozenset(_index(i, chart.dim, "vertical index") for i in vertical)
        self._set(chart, vertical)


class FreeLRElem(_Module):
    """A-combination of Lyndon bracket monomials: sum f_w * b(w), stored by word as a `_Module`."""

    __slots__ = ("chart", "num", "den")

    @_checked
    def __init__(self, chart: ChartSpec, terms: Mapping[LyndonWord, Poly] | None = None):
        clean: dict[LyndonWord, Poly] = {}
        for w, p in ({} if terms is None else terms).items():
            for a in _value(w, Iterable, "word", w):
                _index(a, chart.dim, "generator index")
            if not isinstance(w, LyndonWord):
                w = LyndonWord(w)
            label = tuple(w)
            _same_chart(_value(p, Poly, "coefficient of word", label).dim, chart.dim, "coefficient of word", label)
            if len(w) > chart.max_degree:
                raise DegreeOverflowError(len(w), chart.max_degree)
            clean[w] = p
        self._set(chart, *_numerators(clean))

    @property
    def dim(self) -> int:
        return self.chart.dim

    @classmethod
    @_checked
    def zero(cls, chart: ChartSpec) -> "FreeLRElem":
        return cls._make(chart, {}, 1)

    @classmethod
    @_checked
    def generator(cls, chart: ChartSpec, i: int) -> "FreeLRElem":
        _index(i, chart.dim, "generator index")
        return cls._make(chart, {LyndonWord._make((i,)): {0: 1}}, 1)

    @classmethod
    @_checked
    def from_vfield(cls, chart: ChartSpec, v: VField) -> "FreeLRElem":
        _same_chart(v.dim, chart.dim, "FreeLRElem.from_vfield argument", "v")
        return cls._make(chart, {LyndonWord._make((i,)): n for i, n in v.num.items()}, v.den)

    def is_classical(self) -> bool:
        """True when only length-1 words occur, i.e. the element is a vector field."""
        return all(len(w) == 1 for w in self.num)

    @staticmethod
    def _word_str(word: Word) -> str:
        if len(word) == 1:
            return f"d{word[0]}"
        u, v = lyndon.standard_factorization(word)
        return f"F[{FreeLRElem._word_str(u)},{FreeLRElem._word_str(v)}]"

    def __str__(self):
        # long monomials first, then lexicographic, matching F[..] nesting depth
        order = sorted(self.num, key=lambda w: (-len(w), w))
        return render_combination(self.chart.dim, ((self.num[w], self.den, self._word_str(w)) for w in order))

    def __repr__(self):
        return f"FreeLRElem({self})"

    def to_json(self):
        order = sorted(self.num, key=lambda w: (len(w), w))
        return [{"word": list(w), "coeff": _poly_text(self.chart.dim, self.num[w], self.den)} for w in order]


def _generator_runs(chart: ChartSpec, terms: list[tuple[int, list]]) -> FreeLRElem:
    """The sum of terms (i, runs) for generators d_i of the chart, each run (num, den, key) in num/den*x^key*d_i."""
    num, den = _runs_summed(terms)
    return FreeLRElem._make(chart, {LyndonWord._make((i,)): n for i, n in num.items() if n}, den)


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
    kept = {w: n for w, n in elem.num.items() if len(w) == 1 or not set(w) & vertical}
    # the dropped words may have held the common factor
    return elem if len(kept) == len(elem.num) else FreeLRElem._make(elem.chart, *_cancelled(kept, elem.den))


@_checked
def anchor_apply(u: FreeLRElem, f: Poly) -> Poly:
    """Action of u on the chart ring through the anchor.

    Monomials act as nested commutators of the coordinate derivations, which
    commute, so only the degree-1 part contributes.
    """
    _same_chart(f.dim, u.chart.dim, "anchor_apply argument", "f")
    return vf_apply(project_to_lie(u), f)


@_checked
def project_to_lie(u: FreeLRElem) -> VField:
    """Evaluate every bracket monomial as a classical nested bracket.

    Coordinate generators commute, so all words of length >= 2 evaluate to
    zero and the projection keeps exactly the degree-1 part.
    """
    num = {w[0]: n for w, n in u.num.items() if len(w) == 1}
    # the dropped words may have held the common factor
    num, den = (num, u.den) if len(num) == len(u.num) else _cancelled(num, u.den)
    return VField._make(u.chart.dim, num, den)


@_checked
def free_bracket(u: FreeLRElem, v: FreeLRElem, spec: RelativeSpec | None = None) -> FreeLRElem:
    """The free Lie-Rinehart bracket of u and v, in Lyndon normal form.

    Expands  [f*b(w), g*b(w')] = f*g*[b(w),b(w')] + f*w(g)*b(w') - g*w'(f)*b(w)
    with the bare monomial bracket rewritten into the Lyndon basis; with a
    RelativeSpec, long words touching a vertical generator are dropped from
    the operands and no bare bracket touching one is formed.  Every word
    length is checked against max_degree before any product is formed.
    """
    u._check(v, "free_bracket argument", "v")
    if spec is not None:
        _same_chart(spec.chart, u.chart, "free_bracket argument", "spec")
    vertical = frozenset() if spec is None else spec.vertical
    return _bracket(None, [(_drop_vertical(u, vertical), _drop_vertical(v, vertical))], _free_bracket_into, vertical)


def _bracket(base: FreeLRElem | None, pairs: Sequence[tuple[FreeLRElem, FreeLRElem]], kernel, *args) -> FreeLRElem:
    """base plus what kernel(accs, un, vn, max_degree, *args) adds over the stored numerators of each pair (u, v).

    One accs sums all over L = lcm(base.den, each u.den*v.den), u's numerators scaled by L // (u.den*v.den),
    exact as every kernel is bilinear.  The sum takes the finish `_summed`.
    """
    chart = pairs[0][0].chart
    den = lcm(base.den if base else 1, *(u.den * v.den for u, v in pairs))
    accs = {w: {k: c * (den // base.den) for k, c in n.items()} for w, n in base.num.items()} if base else {}
    for done, (u, v) in enumerate(pairs):
        s = den // (u.den * v.den)
        un = u.num.items() if s == 1 else [(w, {k: c * s for k, c in n.items()}) for w, n in u.num.items()]
        try:
            kernel(accs, un, v.num.items(), chart.max_degree, *args)
        except DomainError:
            # an exponent overflow of an earlier pair is refused first, as when each pair is finished alone
            if done:
                _bracket(None, pairs[:done], kernel, *args)
            raise
    # operand words and monomial_bracket's coordinates are LyndonWords already
    return FreeLRElem._make(chart, *_summed(chart.dim, accs, den))


def _free_bracket_into(accs: dict, un, vn, max_degree: int, vertical: frozenset[int] = frozenset()):
    """Add the free bracket of two (word, numerator dict) collections into accs by word; zero sums stay.

    Every pair's length is checked before any product is formed, and an
    overflow names the longest bracket; the anchor terms and the bare
    brackets f*g*[b(w), b(w')] are added by `_anchored_into`.
    """
    brackets = []
    longest = 0
    for w1, p in un:
        for w2, q in vn:
            # in the relative algebra any long word holding a vertical letter
            # is zero, so such bare brackets are skipped wholesale
            if vertical and (set(w1) | set(w2)) & vertical:
                continue
            words = lyndon.monomial_bracket(w1, w2)
            if words:
                longest = max(longest, len(w1) + len(w2))
                brackets.append((p, q, words))
    if longest > max_degree:
        raise DegreeOverflowError(longest, max_degree)
    _anchored_into(accs, un, vn, 1, brackets)


def _anchored_into(accs: dict, un, vn, sign: int, products):
    """Add sign * (u1(v) - v1(u)), then c*p*q into accs[word] for each (p, q, words) of products and each
    (word, c) of words; u1, v1 are the degree-1 parts, each acting through the anchor on every coefficient
    of the other operand.  A product count past the budget is refused with the largest count of the first
    phase past it, the anchor terms first and the products second, as `_derivation_into` and `_mul_into`
    count them, so the message depends only on the operands' values."""
    anchors = [([(w[0], p) for w, p in un if len(w) == 1], vn, sign),
               ([(w[0], q) for w, q in vn if len(w) == 1], un, -sign)]
    try:
        for xn, yn, s in anchors:
            _derivation_into(accs, xn, yn, s)
        for p, q, words in products:
            for word, c in words.items():
                _mul_into(accs.setdefault(word, {}), p if c == 1 else {k: c * a for k, a in p.items()}, q)
    except DomainError:
        for counts in ((c for xn, yn, _ in anchors for c in _derivation_counts(xn, yn)),
                       (len(p) * len(q) for p, q, _ in products)):
            _budget(max(counts, default=0), Poly, "MAX_POW_PRODUCTS", _PRODUCTS)
        raise


@_checked
def lie_bracket_ext(u: FreeLRElem, v: FreeLRElem) -> FreeLRElem:
    """The second Lie structure,  [u, v] = [u1, v1] + u▷v_long - v1▷u_long,  u1 and v1 the degree-1 parts.

    [u1, v1] is the coordinate bracket and x▷y_long sums g*D_x(b(w)) + x(g)*b(w) over the long words w
    of y with coefficient g.  Every long word is derived before any product is formed, and an overflow
    names the longest derived bracket.
    """
    u._check(v, "lie_bracket_ext argument", "v")
    return _bracket(None, [(u, v)], _lie_bracket_into)


def _lie_bracket_into(accs: dict, un, vn, max_degree: int, sign: int = 1):
    """Add sign * lie_bracket_ext of two (word, numerator dict) collections into accs by word; zero sums stay.

    The anchor terms sign * (u1(v) - v1(u)) hold [u1, v1] and each x(g)*b(w), and the products are
    g * sign * D_x(b(w)) over the long words w of v under x = u and of u under x = -v1 (D_x and the
    anchor are linear in x).  Every long word is derived before any product enters accs, so an overflow
    names the longest derived bracket, whatever the operands' term order.
    """
    products = []
    for x, y, s in ((un, vn, sign), ([(w, q) for w, q in vn if len(w) == 1], un, -sign)):
        long = [(w, g) for w, g in y if len(w) > 1]
        if long:
            derived = _derivatives(x, long, max_degree, s)
            products += [(g, dz, {z: 1}) for w, g in long for z, dz in derived[w]]
    _anchored_into(accs, un, vn, sign, products)


def _derivatives(xn, yn, max_degree: int, sign: int) -> dict[Word, list]:
    """sign * D_x(b(w)) as a (word, numerator dict) list, for each long word w of y and the words it is built of.

    D_x(d_c) = -dx/dx_c is one `_partial_into` and D_x(F[a,b]) = F[D_x a, b] - F[D_x b, a] is two
    `_unit_bracket_into` calls, once per word, both factors derived first.  Every long word
    of y is derived before an overflow is raised, and the overflow names the longest.  Each step
    scales terms by numbers, with no product of two polynomials, so the product budget is charged
    where `_anchored_into` multiplies a derived word by its coefficient.
    """
    derived: dict[Word, list] = {}

    def derive(word: Word) -> list:
        if word not in derived:
            acc: dict[Word, dict[int, int]] = {}
            if len(word) == 1:
                _partial_into(acc, word[0], xn, -sign)
            else:
                a, b = lyndon.standard_factorization(word)  # both Lyndon words
                da, db = derive(a), derive(b)
                _unit_bracket_into(acc, da, b, max_degree, 1)
                _unit_bracket_into(acc, db, a, max_degree, -1)
            derived[word] = [(z, n if all(n.values()) else {k: c for k, c in n.items() if c})
                             for z, n in acc.items() if any(n.values())]
        return derived[word]

    longest = 0
    for w, _ in yn:
        if len(w) > 1:
            try:
                derive(w)
            except DegreeOverflowError as err:
                longest = max(longest, err.length)
    if longest:
        raise DegreeOverflowError(longest, max_degree)
    return derived


def _unit_bracket_into(acc: dict, en, b: Word, max_degree: int, sign: int):
    """Add sign * [e, b(b)] = sign * (sum f*[b(z), b(b)] - b(f)*b(z)) over the (z, f) of en into acc, zero sums kept;
    b(f) is df/dx_b for a letter b and 0 for a long word.  Every nonzero bracket is checked against max_degree
    first, an overflow naming the longest."""
    brackets, longest = [], 0
    for z, f in en:
        if words := lyndon.monomial_bracket(z, b):
            brackets.append((f, words))
            if len(z) > longest:
                longest = len(z)
    if longest + len(b) > max_degree:
        raise DegreeOverflowError(longest + len(b), max_degree)
    if any(len(z) == 1 for z, _ in en):
        # b takes the slot of the general kernel's zero term f*z(1)*b(b), so derived words keep their order
        acc.setdefault(b, {})
    if len(b) == 1:
        _partial_into(acc, b[0], en, -sign)
    for f, words in brackets:
        for word, c in words.items():
            t = acc.setdefault(word, {})
            for k, a in f.items():
                t[k] = t.get(k, 0) + sign * c * a


@_checked
def vertical_reduce(expr, spec: RelativeSpec) -> FreeLRElem:
    """Normal form of a raw bracket expression in the relative algebra.

    The expression is either a FreeLRElem or a nested tuple built from
    ("gen", i), ("scale", poly, e), ("add", e1, e2) and ("bracket", e1, e2).
    The result carries length >= 2 monomials on horizontal generators only;
    applying the function twice gives the same answer.
    """
    if isinstance(expr, FreeLRElem):
        return _drop_vertical(expr, spec.vertical)
    if not isinstance(expr, tuple) or not expr:
        raise DomainError(f"unrecognized expression node: {_shown(expr)}")
    tag = expr[0]
    if tag == "gen":
        return FreeLRElem.generator(spec.chart, expr[1])
    if tag == "scale":
        return vertical_reduce(expr[2], spec) * expr[1]
    if tag == "add":
        return vertical_reduce(expr[1], spec) + vertical_reduce(expr[2], spec)
    if tag == "bracket":
        return free_bracket(vertical_reduce(expr[1], spec), vertical_reduce(expr[2], spec), spec)
    raise DomainError(f"unrecognized expression node: {_shown(tag)}")
