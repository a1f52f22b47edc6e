"""Exact arithmetic on one global coordinate chart R^n.

`Poly` is a sparse multivariate polynomial over Q, stored fraction-free: a
dict from packed monomial keys to nonzero int numerators over one positive
common denominator, reduced so that no prime divides the denominator and
every numerator.  A key holds the whole exponent vector in one int, the
exponent of x_i in bits 64*i to 64*i+63, so a monomial product is one int
addition and d/dx_i one shift-and-mask and one subtraction.  The form is
unique, so structural equality is mathematical equality, and arithmetic works
on ints with one gcd per result.  `VField` is a derivation sum_i a_i*d_i with
`Poly` coefficients, stored by its nonzero ones.  All values are immutable
after construction and all operations are pure, so everything is safe to
share between threads.

The canonical term order used for printing is graded lexicographic on
exponent vectors, largest first.

Validation happens at the public boundary.  The public constructors (here
`Poly(...)`, and `FreeLRElem(...)`, `WeilElem(...)`, `Polyvector(...)`,
`KField(...)` and `LyndonWord(...)` in their modules) check and normalize
whatever they are given.  Results that a class computes itself from
canonical operands, the sums, products, derivatives, brackets, wedges and
k-field operations, are canonical by construction and are wrapped by the
private `_make` (for `Poly`, `_poly` and `_reduced`, which cancels the one
common factor) without a second check.
The four free A-modules (`VField`, `FreeLRElem`, `WeilElem`, `Polyvector`)
share their module operations through `_Module`; each keeps its own
constructors, mismatch errors, products and printing.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import attrgetter, or_
from typing import Collection, Iterable, Sequence

from .errors import ChartMismatchError, DomainError

Exponent = tuple[int, ...]


class _Record:
    """A record of the fields named in `__slots__`, at least two of them.

    Equality, hash and repr are those a dataclass gives: equal records share
    their class and field values, and the repr reads `Name(field=value, ...)`.
    A record declared with `frozen=True` refuses assignment and sets its
    fields through `object.__setattr__`; any other record is unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False):
        cls._fields = attrgetter(*cls.__slots__)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _Record._refuse
        else:
            cls.__hash__ = None

    def _refuse(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__name__}({fields})"


class ChartSpec(_Record, frozen=True):
    """Chart dimension plus the cutoff of the bracket-length filtration."""

    __slots__ = ("dim", "max_degree")

    # largest chart dimension: printing unpacks a dim-long exponent tuple for
    # every term, so the cost of each value grows with it
    MAX_DIM = 1000

    def __init__(self, dim: int, max_degree: int = 4):
        if not isinstance(dim, int) or dim < 1:
            raise DomainError(f"chart dimension must be a positive integer, got {dim}")
        if dim > self.MAX_DIM:
            raise DomainError(f"chart dimension {dim} exceeds the budget of ChartSpec.MAX_DIM = {self.MAX_DIM}")
        if not isinstance(max_degree, int) or max_degree < 1:
            raise DomainError(f"max_degree must be a positive integer, got {max_degree}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "max_degree", max_degree)


class Poly:
    """Polynomial in Q[x0..x{n-1}], stored fraction-free as num/den.

    `num` maps packed monomial keys to nonzero ints and `den` is a positive
    int sharing no factor with all of them, so each value has one
    representation.  `terms` is the read-only {exponent tuple: Fraction} view
    of the same data.
    """

    __slots__ = ("dim", "num", "den")

    # most term products one multiplication of two polynomials may form, in
    # `*` and `**` and inside brackets, wedges and Schouten brackets
    MAX_POW_PRODUCTS = 100_000
    # largest exponent a 64-bit key field holds; a product that sets the
    # field's top bit is refused, so no carry reaches the next variable
    MAX_EXPONENT = 2**63 - 1
    # most decimal digits of a printed numerator or denominator: Python's
    # default limit on int-to-str conversion, so every accepted value prints
    MAX_DIGITS = 4300

    def __init__(self, dim: int, terms: Mapping[Exponent, Fraction | int] | None = None):
        if dim < 1:
            raise DomainError(f"polynomial dimension must be >= 1, got {dim}")
        clean: dict[Exponent, int | Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != dim or any(not isinstance(e, int) or e < 0 for e in exps):
                raise DomainError(f"bad exponent tuple {exps} for dimension {dim}")
            if not isinstance(coeff, (int, Fraction)):
                raise DomainError(f"coefficient {coeff!r} is not an integer or a Fraction")
            if coeff:
                clean[exps] = coeff
        # over the lcm of the reduced denominators no prime divides every numerator
        den = lcm(*(c.denominator for c in clean.values()))
        try:
            num = {_pack(e): c.numerator * (den // c.denominator) for e, c in clean.items()}
        except struct.error:
            raise DomainError(_EXPONENT_OVERFLOW) from None
        _set_dim(self, dim)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        return _Terms(self)

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        if dim < 1:
            raise DomainError(f"polynomial dimension must be >= 1, got {dim}")
        return _poly(dim, {}, 1)

    @classmethod
    def const(cls, dim: int, value) -> "Poly":
        if (type(value) is int or type(value) is Fraction) and dim >= 1:
            return _poly(dim, {0: value.numerator} if value else {}, value.denominator)
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def var(cls, dim: int, i: int) -> "Poly":
        if not 0 <= i < dim:
            raise DomainError(f"variable index {i} out of range for dimension {dim}")
        return _poly(dim, {1 << (64 * i): 1}, 1)

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def as_constant(self) -> Fraction | None:
        """The value of a constant polynomial, else None."""
        if not self.num:
            return Fraction(0)
        if len(self.num) == 1:
            ((key, c),) = self.num.items()
            if not key:
                return Fraction(c, self.den)
        return None

    def total_degree(self) -> int:
        return max((sum(_unpack(k, self.dim)) for k in self.num), default=0)

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        if len(point) != self.dim:
            raise ChartMismatchError("evaluation point has wrong dimension")
        pt = [Fraction(p) for p in point]
        total = Fraction(0)
        for key, c in self.num.items():
            val = Fraction(c)
            for x, e in zip(pt, _unpack(key, self.dim)):
                if e:
                    val *= x**e
            total += val
        return total / self.den

    def derive(self, i: int) -> "Poly":
        if not 0 <= i < self.dim:
            raise DomainError(f"derivation index {i} out of range for dimension {self.dim}")
        # lowering exponent i is one subtraction, injective on the terms it keeps
        shift = 64 * i
        one = 1 << shift
        num = {k - one: c * e for k, c in self.num.items() if (e := (k >> shift) & _FIELD_MASK)}
        return _reduced(self.dim, num, self.den)

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
        if not o.num:
            return self
        if not self.num:
            return o
        a, b = self.den, o.den
        if a == b:
            return _reduced(self.dim, _accumulate(dict(self.num), o.num.items()), a)
        g = gcd(a, b)
        sa, sb = b // g, a // g
        acc = {e: c * sa for e, c in self.num.items()}
        return _reduced(self.dim, _accumulate(acc, [(e, c * sb) for e, c in o.num.items()]), a * sa)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.dim, {e: -c for e, c in self.num.items()}, self.den)

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
        if type(other) is int or type(other) is Fraction:
            # a scalar scales the numerators and the denominator, with no lift
            if not other or not self.num:
                return _poly(self.dim, {}, 1)
            n, d = other.numerator, other.denominator
            if d == 1 and (n == 1 or n == -1):
                return self if n == 1 else -self
            return _reduced(self.dim, {e: c * n for e, c in self.num.items()}, self.den * d)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        p, q = self.num, o.num
        if not p or not q:
            return _poly(self.dim, {}, 1)
        if len(q) == 1:
            p, q = q, p
        if len(p) > 1:
            return _product_poly(self.dim, _mul_into({}, p.items(), q.items()), self.den * o.den)
        # a monomial shifts the exponents of the other factor injectively
        _check_products(len(q))
        ((e1, c1),) = p.items()
        num = {e1 + e2: c1 * c2 for e2, c2 in q.items()}
        _check_exponents(self.dim, num)
        return _reduced(self.dim, num, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("polynomial exponent must be a nonnegative integer")
        result = Poly.const(self.dim, 1)
        base = self
        while n:
            base._check_power_growth(n)
            if n & 1:
                result = result._budgeted_mul(base)
            n >>= 1
            if n:
                base = base._budgeted_mul(base)
        return result

    def _check_power_growth(self, n: int):
        # an int c gives c**n at least (bit_length(c) - 1)*n bits, and the
        # denominator of a power is that power of the denominator
        bits = max((self.den, *map(abs, self.num.values()))).bit_length() - 1
        if bits * n >= _DIGIT_BOUND_BITS:
            raise DomainError(
                f"polynomial power exceeds the coefficient budget of Poly.MAX_DIGITS = {self.MAX_DIGITS} digits"
            )

    def _budgeted_mul(self, other: "Poly") -> "Poly":
        if len(self.num) * len(other.num) > self.MAX_POW_PRODUCTS:
            raise DomainError(
                f"polynomial power exceeds the budget of {self.MAX_POW_PRODUCTS} term products per multiplication"
            )
        return self * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.dim, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.num.items())))

    def __str__(self):
        dim, den = self.dim, self.den
        # canonical order: graded lex on exponent tuples, largest first
        terms = [(_unpack(k, dim), c) for k, c in self.num.items()]
        terms.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return _signed_sum([_term(exps, c, den) for exps, c in terms])

    def __repr__(self):
        return f"Poly({self})"


_set_dim = Poly.dim.__set__
_set_num = Poly.num.__set__
_set_den = Poly.den.__set__
_new = object.__new__

_FIELD_MASK = (1 << 64) - 1
_EXPONENT_OVERFLOW = f"monomial exponent exceeds the budget of Poly.MAX_EXPONENT = {Poly.MAX_EXPONENT}"
# the least int with more than MAX_DIGITS digits; every int of at least
# 2**_DIGIT_BOUND_BITS is past it too
_DIGIT_BOUND = 10**Poly.MAX_DIGITS
_DIGIT_BOUND_BITS = _DIGIT_BOUND.bit_length()


@cache
def _layout(dim: int) -> struct.Struct:
    """dim 64-bit fields, x0 first, read little-endian like the key's bits.

    The fields are signed, so packing an exponent past MAX_EXPONENT raises
    struct.error, and the top bit of a stored field is never set.
    """
    return struct.Struct(f"<{dim}q")


def _pack(exps: Sequence[int]) -> int:
    """The key of a nonnegative exponent vector; struct.error past MAX_EXPONENT."""
    return int.from_bytes(_layout(len(exps)).pack(*exps), "little")


def _unpack(key: int, dim: int) -> Exponent:
    """The exponent tuple of a key."""
    return _layout(dim).unpack(key.to_bytes(8 * dim, "little"))


@cache
def _top_bits(dim: int) -> int:
    """The top bit of each of dim fields."""
    return int.from_bytes(b"\0\0\0\0\0\0\0\x80" * dim, "little")


def _check_exponents(dim: int, keys: Iterable[int]):
    """Refuse keys of a product that carried an exponent past MAX_EXPONENT.

    Each factor's exponents are at most MAX_EXPONENT, so a field of the sum
    overflows into its own top bit and never into the next field.
    """
    if reduce(or_, keys, 0) & _top_bits(dim):
        raise DomainError(_EXPONENT_OVERFLOW)


def _check_products(count: int):
    """Refuse a multiplication of count term products past MAX_POW_PRODUCTS."""
    if count > Poly.MAX_POW_PRODUCTS:
        raise DomainError(
            f"polynomial product exceeds the budget of {Poly.MAX_POW_PRODUCTS} term products per multiplication"
        )


def _mul_into(acc: dict[int, int], p: Collection[tuple[int, int]], q: Collection[tuple[int, int]]) -> dict[int, int]:
    """Add the product of two numerator item lists or views into acc; zero sums stay."""
    _check_products(len(p) * len(q))
    get = acc.get
    for k1, c1 in p:
        for k2, c2 in q:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


def _product_poly(dim: int, acc: dict[int, int], den: int) -> Poly:
    """The Poly of a product accumulator over den: exponents checked, zero sums dropped."""
    _check_exponents(dim, acc)
    return _reduced(dim, {k: c for k, c in acc.items() if c}, den)


def _poly(dim: int, num: dict[int, int], den: int) -> Poly:
    """Wrap canonical data: nonzero int numerators, den > 0 sharing no factor with all of them."""
    p = _new(Poly)
    _set_dim(p, dim)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _reduced(dim: int, num: dict[int, int], den: int) -> Poly:
    """Wrap nonzero int numerators over den > 0, cancelling their common factor."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return _poly(dim, num, den)


def _term(exps: Exponent, n: int, den: int) -> tuple[bool, str]:
    """Whether the term (n/den)*x^exps is negative, and its text without the sign.

    Every coefficient is printed here, in text and in JSON: reduced with one
    gcd, then held to MAX_DIGITS; a coefficient of 1 is left out.
    """
    if den != 1:
        g = gcd(n, den)
        n //= g
        den //= g
    negative = n < 0
    n = abs(n)
    if n >= _DIGIT_BOUND or den >= _DIGIT_BOUND:
        raise DomainError(f"coefficient has more digits than the budget of Poly.MAX_DIGITS = {Poly.MAX_DIGITS}")
    coeff = str(n) if den == 1 else f"{n}/{den}"
    mono = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e)
    if not mono:
        return negative, coeff
    return negative, mono if coeff == "1" else f"{coeff}*{mono}"


def _signed_sum(chunks: list[tuple[bool, str]]) -> str:
    """Join (negative, text) chunks with folded signs; '0' when there are none."""
    if not chunks:
        return "0"
    out = "".join((" - " if negative else " + ") + text for negative, text in chunks)
    return out[3:] if out[1] == "+" else "-" + out[3:]


class _Terms(Mapping):
    """Read-only {exponent tuple: Fraction} view of a Poly's numerators over its denominator."""

    __slots__ = ("_poly",)

    def __init__(self, poly: Poly):
        self._poly = poly

    def __getitem__(self, exps: Exponent) -> Fraction:
        p = self._poly
        if len(exps) != p.dim or not all(0 <= e <= Poly.MAX_EXPONENT for e in exps):
            raise KeyError(exps)
        return Fraction(p.num[_pack(exps)], p.den)

    def __iter__(self):
        dim = self._poly.dim
        return (_unpack(k, dim) for k in self._poly.num)

    def __len__(self):
        return len(self._poly.num)


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
    chunks = []
    for coeff, atom in pairs:
        if len(coeff.num) == 1:
            ((key, n),) = coeff.num.items()
            negative, body = _term(_unpack(key, coeff.dim), n, coeff.den)
            chunks.append((negative, atom if body == "1" else f"{body}*{atom}"))
        elif coeff.num:
            chunks.append((False, f"({coeff})*{atom}"))
    return _signed_sum(chunks)


class VField(_Module):
    """Vector field sum_i a_i*d_i on R^n; a derivation of the chart ring.

    `terms` maps an index i to its nonzero coefficient a_i, and `coeffs` is
    the dense tuple (a_0, ..., a_{n-1}).
    """

    __slots__ = ("dim", "terms")

    def __init__(self, coeffs: Sequence[Poly]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("a vector field needs at least one coefficient")
        dim = coeffs[0].dim
        if len(coeffs) != dim or any(c.dim != dim for c in coeffs):
            raise ChartMismatchError("vector field needs exactly dim coefficients on one chart")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", {i: c for i, c in enumerate(coeffs) if c})

    @classmethod
    def _make(cls, dim: int, terms: dict[int, Poly]) -> "VField":
        """Wrap a canonical dict: indices below dim, nonzero Polys on the chart."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)
        return self

    def _like(self, terms: dict[int, Poly]) -> "VField":
        return VField._make(self.dim, terms)

    def _space(self):
        return self.dim

    def _check(self, other: "VField"):
        if self.dim != other.dim:
            raise ChartMismatchError("values live on charts of different dimension")

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        zero = Poly.zero(self.dim)
        return tuple(self.terms.get(i, zero) for i in range(self.dim))

    @classmethod
    def zero(cls, dim: int) -> "VField":
        return cls([Poly.zero(dim)] * dim)

    @classmethod
    def basis(cls, dim: int, i: int) -> "VField":
        if not 0 <= i < dim:
            raise DomainError(f"basis index {i} out of range for dimension {dim}")
        return cls._make(dim, {i: Poly.const(dim, 1)})

    def __str__(self):
        return render_combination((self.terms[i], f"d{i}") for i in sorted(self.terms))

    def __repr__(self):
        return f"VField({self})"


def vf_apply(v: VField, f: Poly) -> Poly:
    """Action of the derivation v on f: sum_i a_i * df/dx_i."""
    if v.dim != f.dim:
        raise ChartMismatchError("field and polynomial live on different charts")
    # one numerator dict over the product of the denominators, reduced once
    vn, vd = _numerators(v.terms)
    accs: dict[int, dict[int, int]] = {}
    _derivation_into(accs, vn, [(0, list(f.num.items()))], 1)
    return _product_poly(f.dim, accs.get(0, {}), vd * f.den)


def vf_bracket(u: VField, v: VField) -> VField:
    """Lie bracket of vector fields: [u,v]^i = u(v^i) - v(u^i)."""
    u._check(v)
    coords, _ = _degree1_bracket(u.dim, u.terms, v.terms, False)
    return VField._make(u.dim, coords)


def _degree1_bracket(
    dim: int, f: Mapping[int, Poly], g: Mapping[int, Poly], free: bool
) -> tuple[dict[int, Poly], dict[tuple[int, int], Poly]]:
    """Bracket of sum_i f[i]*d_i and sum_j g[j]*d_j, worked on numerators.

    The coordinate part puts sum_i (f_i*d_i(g_j) - g_i*d_i(f_j)) on d_j,
    returned by j.  With free, the free bracket's F[d_i,d_j] for i < j gets
    f_i*g_j - f_j*g_i, returned by (i, j).  Only nonzero values are returned,
    and zero coefficients of f and g may be left out.  Each side is brought
    over the lcm of its denominators, so every output is one accumulated
    numerator dict over their product, reduced once.
    """
    fn, fd = _numerators(f)
    gn, gd = _numerators(g)
    den = fd * gd
    accs: dict[int | tuple[int, int], dict[int, int]] = {}
    _derivation_into(accs, fn, gn, 1)
    _derivation_into(accs, gn, fn, -1)
    coords = _nonzero_polys(dim, accs, den)
    pairs = {}
    if free:
        accs = {}
        for i, p in fn:
            for j, q in gn:
                if i < j:
                    _mul_into(accs.setdefault((i, j), {}), p, q)
                elif i > j:
                    _mul_into(accs.setdefault((j, i), {}), [(k, -c) for k, c in p], q)
        pairs = _nonzero_polys(dim, accs, den)
    return coords, pairs


def _numerators(ps: Mapping[int, Poly]) -> tuple[list[tuple[int, list[tuple[int, int]]]], int]:
    """(index, numerator items) of the nonzero ps over the lcm of their denominators."""
    ps = [(i, p) for i, p in ps.items() if p.num]
    den = lcm(*[p.den for _, p in ps])
    return [
        (i, list(p.num.items()) if p.den == den else [(k, c * (den // p.den)) for k, c in p.num.items()]) for i, p in ps
    ], den


def _derivation_into(accs: dict, f: list, g: list, sign: int):
    """Add sign * sum_i f_i*d_i(g_j) into accs[j]; f and g list (index, numerator items)."""
    for i, fi in f:
        shift = 64 * i
        one = 1 << shift
        for j, gj in g:
            if len(fi) * len(gj) > Poly.MAX_POW_PRODUCTS:
                # only the terms of g_j holding x_i form products
                _check_products(len(fi) * sum(1 for kg, _ in gj if (kg >> shift) & _FIELD_MASK))
            acc = accs.setdefault(j, {})
            get = acc.get
            for kg, cg in gj:
                e = (kg >> shift) & _FIELD_MASK
                if e:
                    # the term cg*x^kg of g_j differentiates to cg*e*x^(kg - one)
                    kg -= one
                    cg *= sign * e
                    for kf, cf in fi:
                        k = kf + kg
                        acc[k] = get(k, 0) + cf * cg


def _nonzero_polys(dim: int, accs: dict, den: int) -> dict:
    """The nonzero Polys of product accumulators over den, by the same keys."""
    polys = ((key, _product_poly(dim, acc, den)) for key, acc in accs.items() if acc)
    return {key: p for key, p in polys if p.num}


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
        # an injective renaming of exponents keeps the numerators canonical
        out: dict[int, int] = {}
        for key, c in p.num.items():
            new = [0] * target_dim
            for i, e in enumerate(_unpack(key, p.dim)):
                new[emb[i]] = e
            out[_pack(new)] = c
        return _poly(target_dim, out, p.den)

    return VField._make(target_dim, {emb[i]: relabel(a) for i, a in v.terms.items()})
