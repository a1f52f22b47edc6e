"""Exact arithmetic on one global coordinate chart R^n.

`Poly` is a sparse multivariate polynomial over Q, stored fraction-free: a
dict from packed monomial keys to nonzero int numerators over one positive
common denominator, reduced so that no prime divides the denominator and
every numerator.  A key holds the whole exponent vector in one int, the
exponent of x_i in bits 64*i to 64*i+63, so a monomial product is one int
addition and d/dx_i one shift-and-mask and one subtraction.  The form is
unique, so structural equality is mathematical equality, and arithmetic works
on ints with one gcd per result.  All values are immutable after
construction and all operations are pure, so everything is safe to share
between threads.

The canonical term order used for printing is graded lexicographic on
exponent vectors, largest first.

Validation happens at the public boundary, and a value argument's type is
stated once, in its annotation: every public function, constructor and
alternate constructor goes through `_checked`, which refuses a wrong-typed
value argument through `_value` before the body runs.  Next to `_value`,
`_same_chart` is the one rule for values that must share a chart, which
every operation and constructor taking such values applies.  The public
constructors (here `Poly(...)` and `VField(...)`, and `FreeLRElem(...)`,
`WeilElem(...)`, `WeilMorphism(...)`, `Polyvector(...)`, `KField(...)` and
`LyndonWord(...)` in their modules) then check and normalize the entries of
what they are given, each under its own label.  Results that a class
computes itself from canonical operands, the sums, products,
derivatives, brackets, wedges, k-field operations and Weil morphisms, are
canonical by construction and are wrapped without a second check by the
private `_make` (for `Poly`, `_poly` and `_reduced`, each of which cancels
the one common factor).  Every value type is a frozen `_Record`, which
generates `_make` from the class's `__slots__`, gives the validating
constructors `_set`, compares and hashes field values and refuses to set or
delete a field.  The four free A-modules (`VField`, `FreeLRElem`, `WeilElem`,
`Polyvector`) are stored as `Poly` is, fraction-free: int numerators by basis
label and packed monomial key over one denominator.  They share their module
operations and their chart test, `_check`, through `_Module`, and every
result of theirs takes one of two finishes, `_cancelled` or `_summed`; each
keeps its own constructors, products and printing.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from numbers import Rational
from itertools import chain
from operator import attrgetter, or_
from types import MappingProxyType, NoneType, UnionType
from typing import Union, get_args, get_origin

from .errors import ChartMismatchError, DomainError, _shown

Exponent = tuple[int, ...]


class _Record:
    """A record of the fields named in `__slots__`, at least two of them.

    Equality compares the class and the field values, and the repr reads
    `Name(field=value, ...)`.  A record declared with `frozen=True`, and
    every subclass of one, refuses to set or delete a field and hashes its
    field values; it is also given, as `dataclasses` gives its methods, two
    functions generated from its slots: `_make(*fields)`, the trusted
    constructor, and `self._set(*fields)`, with which a validating
    `__init__` sets its fields.  Both take the fields in `__slots__` order
    and write them through the slot descriptors.  Any other record sets its
    fields as plain attributes, is given neither function and is unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False):
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _Record._refuse
        names = cls.__slots__
        if names:
            cls._fields = attrgetter(*names)
        if cls.__setattr__ is not _Record._refuse:
            cls.__hash__ = None
        elif names:
            # by position, so that records with as many fields share one source
            args = ", ".join(f"f{i}" for i in range(len(names)))
            sets = "".join(f"    _set{i}(self, f{i})\n" for i in range(len(names)))
            scope = _define(
                f"def _set(self, {args}):\n{sets}\n"
                f"def _make({args}):\n    self = _new(_cls)\n{sets}    return self\n",
                _cls=cls,
                _new=object.__new__,
                **{f"_set{i}": getattr(cls, name).__set__ for i, name in enumerate(names)},
            )
            cls._set = scope["_set"]
            cls._make = staticmethod(scope["_make"])

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


def _define(source: str, **scope) -> dict:
    """Run source with scope as its globals and return them; each text compiles once."""
    exec(_compiled(source), scope)
    return scope


@cache
def _compiled(source: str):
    return compile(source, "<_Record>", "exec")


def _int(x, what: str, least: int | None = None) -> int:
    """x when it is a count: an int, not a bool, and at least `least` when given.

    This is the one rule for every count the library takes (a dimension, an
    arity, a degree cutoff, an exponent, a length) and the int test of
    `_index`; anything else raises a one-line DomainError naming `what`.
    """
    if type(x) is not int:
        raise DomainError(f"{what} {_shown(x)} is not an int")
    if least is not None and x < least:
        raise DomainError(f"{what} must be >= {least}, got {_shown(x)}")
    return x


def _index(i, n: int, what: str) -> int:
    """i when it is an index below n: an `_int` with 0 <= i < n.

    This is the one rule for every index the library takes (a slot, a
    generator, a coordinate, a letter); anything else raises a one-line
    DomainError naming `what`.
    """
    if type(i) is int and 0 <= i < n:
        return i
    _int(i, what)
    raise DomainError(f"{what} {_shown(i)} out of range [0, {n})")


def _value(x, cls: type, what: str, label):
    """x when it is a cls.

    This is the one rule for every value a module constructor takes under a
    label (a `Poly` coefficient, a `FreeLRElem` component) and, through
    `_checked`, every value argument of a public function or constructor,
    checked before its chart is read; anything else raises a one-line
    DomainError naming `what` and the label, shown by `_label`.
    """
    if isinstance(x, cls):
        return x
    raise DomainError(f"{what} {_label(label)} is {type(x).__name__}, not {cls.__name__}")


def _label(label) -> str:
    """The text of a refusal's label: a str of at most 40 characters as it is, as the names the library writes (a
    parameter, `d0`) are, and any other label, a key the caller gave (an exponent tuple, a word, an index set, a
    long str), as `_shown` shows a value."""
    return label if type(label) is str and len(label) <= 40 else _shown(label)


def _checked(f):
    """f behind a wrapper that refuses each value argument of the wrong type through `_value`, before f runs.

    A value parameter is one annotated with a class other than int, bool and
    tuple: counts and indices go through `_int` and `_index`, with texts of
    their own, and a tuple is unpacked by the function.  A generic hint is
    checked as its origin (`Iterable[int]` as `Iterable`), `T | None` also
    accepts None, and a parameter also accepts its own default.  The checks
    run in parameter order; a function's are labelled "<name> argument", an
    alternate constructor's "<Class>.<name> argument" and a constructor's
    (`__init__` or `__new__`) by its class, so that `v` of `free_bracket` is
    refused as "free_bracket argument v is int, not FreeLRElem".  Under
    `@classmethod` the wrapper takes `cls` as f does; only the parameters'
    hints are read.  As `_Record` generates `_make`, the wrapper is generated
    with f's own positional parameters, so a call pays one isinstance test per
    value argument and no argument packing.
    """
    code = f.__code__
    names = code.co_varnames[: code.co_argcount]
    # the parameters' hints alone, each a string: a classmethod's return hint names its class, not yet bound
    hints = {p: eval(h, f.__globals__) for p, h in f.__annotations__.items() if p != "return"}
    defaults = dict(zip(reversed(names), reversed(f.__defaults__ or ())))
    owner, _, name = f.__qualname__.rpartition(".")
    what = owner if name in ("__init__", "__new__") else f"{f.__qualname__} argument"
    scope = {"_f": f, "_value": _value, "_what": what}
    checks = []
    for i, param in enumerate(names):
        hint = hints.get(param)
        optional = get_origin(hint) in (Union, UnionType)
        kinds = [get_origin(k) or k for k in (get_args(hint) if optional else (hint,)) if k is not NoneType]
        if len(kinds) != 1 or not isinstance(kinds[0], type) or kinds[0] in (int, bool, tuple):
            continue
        cls = scope[f"_c{i}"] = kinds[0]
        test = f"not isinstance({param}, _c{i})"
        if optional:
            test = f"{param} is not None and {test}"
        if param in defaults and not isinstance(defaults[param], cls) and not (optional and defaults[param] is None):
            # as a dataclass's default factory stands behind a marker default
            scope[f"_d{i}"] = defaults[param]
            test = f"{param} is not _d{i} and {test}"
        checks.append(f"    if {test}:\n        _value({param}, _c{i}, _what, {param!r})\n")
    params = ", ".join(names)
    source = f"def _checked_call({params}):\n{''.join(checks)}    return _f({params})\n"
    wrapper = _define(source, **scope)["_checked_call"]
    wrapper.__defaults__ = f.__defaults__
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(f, attr))
    wrapper.__wrapped__ = f
    return wrapper


def _same_chart(got, want, what: str, label):
    """Nothing when the charts got and want are equal: two `ChartSpec`s, or two chart dimensions.

    This is the one rule for every value that must live on the chart of
    another (an operand, a coefficient, a component, a relative spec);
    anything else raises a one-line ChartMismatchError naming `what`, the
    label, shown by `_label`, and both charts, a `ChartSpec` as
    (dim, max_degree) and a dimension n as R^n.
    """
    if got != want:
        got, want = (f"({_shown(c.dim)}, {_shown(c.max_degree)})" if isinstance(c, ChartSpec) else f"R^{_shown(c)}"
                     for c in (got, want))
        raise ChartMismatchError(f"{what} {_label(label)} lives on chart {got}, not {want}")


def _budget(count: int, owner: type, name: str, what: str) -> int:
    """count when it is at most the budget owner.name.

    This is the one rule for every size cap the library keeps (a dimension,
    an arity, a number of term products or of parts); a count past its
    budget raises a one-line DomainError naming `what` and the budget.
    """
    limit = getattr(owner, name)
    if count > limit:
        raise DomainError(f"{what} {_shown(count)} exceeds the budget of {owner.__name__}.{name} = {limit}")
    return count


class ChartSpec(_Record, frozen=True):
    """Chart dimension plus the cutoff of the bracket-length filtration."""

    __slots__ = ("dim", "max_degree")

    # largest chart dimension: printing unpacks a dim-long exponent tuple for
    # every term, so the cost of each value grows with it
    MAX_DIM = 1000

    def __init__(self, dim: int, max_degree: int = 4):
        dim = _budget(_int(dim, "chart dimension", 1), ChartSpec, "MAX_DIM", "chart dimension")
        self._set(dim, _int(max_degree, "max_degree", 1))


class Poly(_Record, frozen=True):
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

    @_checked
    def __init__(self, dim: int, terms: Mapping[Exponent, Fraction | int] | None = None):
        _int(dim, "polynomial dimension", 1)
        clean: dict[Exponent, int | Fraction] = {}
        for exps, coeff in ({} if terms is None else terms).items():
            exps = tuple(_int(e, "bad exponent tuple entry", 0) for e in _value(exps, Iterable, "Poly exponent", exps))
            if len(exps) != dim:
                raise DomainError(f"bad exponent tuple {_shown(exps)} for dimension {_shown(dim)}")
            if not isinstance(coeff, (int, Fraction)):
                raise DomainError(f"coefficient {_shown(coeff)} is not an integer or a Fraction")
            if coeff:
                clean[exps] = coeff
        # over the lcm of the reduced denominators no prime divides every numerator
        den = lcm(*(c.denominator for c in clean.values()))
        try:
            num = {_pack(e): c.numerator * (den // c.denominator) for e, c in clean.items()}
        except struct.error:
            raise DomainError(_EXPONENT_OVERFLOW) from None
        self._set(dim, num, den)

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        return _Terms(self)

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return _poly(_int(dim, "polynomial dimension", 1), {}, 1)

    # `const` and `var` are hot: valid counts pass an inline test, and `_int` only raises
    @classmethod
    def const(cls, dim: int, value) -> "Poly":
        if type(dim) is int and dim >= 1 and (type(value) is int or type(value) is Fraction):
            return _poly(dim, {0: value.numerator} if value else {}, value.denominator)
        return cls(_int(dim, "polynomial dimension", 1), {(0,) * dim: value})

    @classmethod
    def var(cls, dim: int, i: int) -> "Poly":
        if type(dim) is int and type(i) is int and 0 <= i < dim:
            return _poly(dim, {_var_key(i): 1}, 1)
        _index(i, _int(dim, "polynomial dimension", 1), "variable index")

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

    @_checked
    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        _same_chart(len(point), self.dim, "Poly.evaluate argument", "point")
        pt = [Fraction(_value(p, Rational, "Poly.evaluate argument point entry", i)) for i, p in enumerate(point)]
        total = Fraction(0)
        for key, c in self.num.items():
            val = Fraction(c)
            for x, e in zip(pt, _unpack(key, self.dim)):
                if e:
                    val *= x**e
            total += val
        return total / self.den

    def derive(self, i: int) -> "Poly":
        _index(i, self.dim, "derivation index")
        # lowering exponent i is one subtraction, injective on the terms it keeps
        shift = 64 * i
        one = 1 << shift
        num = {k - one: c * e for k, c in self.num.items() if (e := (k >> shift) & _FIELD_MASK)}
        return _reduced(self.dim, num, self.den)

    def _lift(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.dim != self.dim:
                _same_chart(other.dim, self.dim, "polynomial", "operand")
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
            return _product_poly(self.dim, _mul_into({}, p, q), self.den * o.den)
        return _reduced(self.dim, _shifted(self.dim, p, q), self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        _int(n, "polynomial exponent", 0)
        result = Poly.const(self.dim, 1)
        base = self
        while n:
            base._check_power_growth(n)
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _check_power_growth(self, n: int):
        # an int c gives c**n at least (bit_length(c) - 1)*n bits, and the
        # denominator of a power is that power of the denominator
        bits = max((self.den, *map(abs, self.num.values()))).bit_length() - 1
        if bits * n >= _DIGIT_BOUND_BITS:
            raise DomainError(
                f"polynomial power exceeds the coefficient budget of Poly.MAX_DIGITS = {self.MAX_DIGITS} digits"
            )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.dim, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.num.items())))

    def __str__(self):
        return _poly_text(self.dim, self.num, self.den)

    def __repr__(self):
        return f"Poly({self})"


# the trusted constructor of canonical data: nonzero int numerators, den > 0
# sharing no factor with all of them
_poly = Poly._make

_FIELD_MASK = (1 << 64) - 1
# the count `_budget` names when one multiplication would form too many term products
_PRODUCTS = "term product count"
_EXPONENT_OVERFLOW = f"monomial exponent exceeds the budget of Poly.MAX_EXPONENT = {Poly.MAX_EXPONENT}"
# the least int with more than MAX_DIGITS digits; every int of at least
# 2**_DIGIT_BOUND_BITS is past it too
_DIGIT_BOUND = 10**Poly.MAX_DIGITS
_DIGIT_BOUND_BITS = _DIGIT_BOUND.bit_length()


def _var_key(i: int, e: int = 1) -> int:
    """The packed key of x_i^e."""
    return e << 64 * i


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


def _mul_into(acc: dict[int, int], p: Mapping[int, int], q: Mapping[int, int]) -> dict[int, int]:
    """Add the product of two numerator dicts into acc; zero sums stay."""
    _budget(len(p) * len(q), Poly, "MAX_POW_PRODUCTS", _PRODUCTS)
    get = acc.get
    q = q.items()
    for k1, c1 in p.items():
        for k2, c2 in q:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


def _shifted(dim: int, p: Mapping[int, int], q: Mapping[int, int]) -> dict[int, int]:
    """The product of a one-term numerator dict p and q: p's key shifts q's keys injectively."""
    _budget(len(q), Poly, "MAX_POW_PRODUCTS", _PRODUCTS)
    ((e1, c1),) = p.items()
    num = {e1 + e2: c1 * c2 for e2, c2 in q.items()}
    _check_exponents(dim, num)
    return num


def _product_poly(dim: int, acc: dict[int, int], den: int) -> Poly:
    """The Poly of a product accumulator over den: exponents checked, zero sums dropped."""
    _check_exponents(dim, acc)
    return _reduced(dim, {k: c for k, c in acc.items() if c}, den)


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


def _poly_text(dim: int, num: Mapping[int, int], den: int) -> str:
    """The text of the sum of the terms n/den*x^key, in graded lex order, largest first."""
    terms = [(_unpack(k, dim), c) for k, c in num.items()]
    terms.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return _signed_sum([_term(exps, c, den) for exps, c in terms])


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


class _Module(_Record, frozen=True):
    """Element of a free A-module, stored fraction-free as `Poly` is.

    A subclass declares the fields that name its module first, then `num`
    and `den`, and has a chart dimension `dim`.  `num` maps each basis label
    to a never-empty dict of packed monomial key -> nonzero int, and `den` is
    a positive int sharing no factor with all of them, so each value has one
    representation; `terms` is the read-only {label: Poly} view of the same
    data.  From the slots a subclass gets `_space(self)`, the module's fields
    (what two elements must share to be added), and `_like`, which wraps
    canonical num and den of the same module.  `_check` refuses an element of
    another module through `_same_chart`.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        space = cls.__slots__[:-2]
        cls._space = attrgetter(*space)
        own = "".join(f"self.{name}, " for name in space)
        cls._like = _define(f"def _like(self, num, den):\n    return _make({own}num, den)\n", _make=cls._make)["_like"]

    def _check(self, other, what: str, label):
        _same_chart(self._space(other), self._space(self), what, label)

    @property
    def terms(self) -> Mapping:
        dim, den = self.dim, self.den
        return MappingProxyType({b: _reduced(dim, n, den) for b, n in self.num.items()})

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._space(self) != self._space(other):
            self._check(other, "sum", "operand")
        if not other.num:
            return self
        if not self.num:
            return other
        # both sides over the lcm of the denominators, as `Poly.__add__`; that
        # form is reduced unless some label holds terms of both sides
        g = gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        shared = not self.num.keys().isdisjoint(other.num)
        num = dict(self.num) if sa == 1 else {b: {k: c * sa for k, c in n.items()} for b, n in self.num.items()}
        for b, n in other.num.items():
            if sb != 1:
                n = {k: c * sb for k, c in n.items()}
            if acc := (_accumulate(dict(num[b]), n.items()) if b in num else n):
                num[b] = acc
            else:
                del num[b]
        return self._like(*_cancelled(num, self.den * sa)) if shared else self._like(num, self.den * sa)

    def __neg__(self):
        return self._like({b: {k: -c for k, c in n.items()} for b, n in self.num.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.dim, other)
        if not isinstance(other, Poly):
            return NotImplemented
        # Q[x0..x{n-1}] has no zero divisors: a product vanishes only for a zero factor
        if not other.num or not self.num:
            return self._like({}, 1)
        if other.dim != self.dim:
            _same_chart(other.dim, self.dim, "polynomial", "factor")
        if len(self.num) == 1 and len(n := next(iter(self.num.values()))) == 1:
            # one label with a monomial coefficient, as d_i, shifts the keys of other
            (b,) = self.num
            return self._like(*_cancelled({b: _shifted(self.dim, n, other.num)}, self.den * other.den))
        accs = {b: _mul_into({}, n, other.num) for b, n in self.num.items()}
        return self._like(*_summed(self.dim, accs, self.den * other.den))

    __rmul__ = __mul__

    def __hash__(self):
        return hash((self._space(self), self.den, frozenset((b, frozenset(n.items())) for b, n in self.num.items())))


def _cancelled(num: dict, den: int) -> tuple[dict, int]:
    """Nonempty numerator dicts by label over den > 0, with their one common factor cancelled."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(n.values() for n in num.values()))
        if g != 1:
            num = {b: {k: c // g for k, c in n.items()} for b, n in num.items()}
            den //= g
    return num, den


def _summed(dim: int, accs: dict, den: int) -> tuple[dict, int]:
    """The canonical num and den of product accumulators by label over den.

    One exponent check over every key, zero sums included, the zero sums and
    the empty labels dropped and one reduction.
    """
    _check_exponents(dim, chain.from_iterable(accs.values()))
    num = {b: a for b, acc in accs.items() if (a := acc if all(acc.values()) else {k: c for k, c in acc.items() if c})}
    return _cancelled(num, den)


def _numerators(ps: Mapping) -> tuple[dict, int]:
    """The numerator dicts of the nonzero Polys ps by label over the lcm of their denominators, and that lcm.

    Over the lcm of the reduced denominators no prime divides every numerator.
    """
    ps = {b: p for b, p in ps.items() if p.num}
    den = lcm(*[p.den for p in ps.values()])
    return {b: p.num if p.den == den else {k: c * (den // p.den) for k, c in p.num.items()} for b, p in ps.items()}, den


def render_combination(dim: int, terms: Iterable[tuple[Mapping[int, int], int, str]]) -> str:
    """Render the sum of (num/den)*atom over (num, den, atom) with folded signs; '0' when everything vanishes.

    A one-term coefficient is printed inline (`2*x0*d1`), a multi-term one is
    parenthesized (`(x0 + 1)*d1`), so every output reparses to the same value.
    Each term's coefficient is reduced on its own (`_term`), so a coefficient
    prints alike over any denominator.
    """
    chunks = []
    for num, den, atom in terms:
        if len(num) == 1:
            ((key, n),) = num.items()
            negative, body = _term(_unpack(key, dim), n, den)
            chunks.append((negative, atom if body == "1" else f"{body}*{atom}"))
        elif num:
            chunks.append((False, f"({_poly_text(dim, num, den)})*{atom}"))
    return _signed_sum(chunks)


class VField(_Module):
    """Vector field sum_i a_i*d_i on R^n; a derivation of the chart ring.

    `num` holds the numerators of each nonzero coefficient a_i under i,
    `terms` maps i to a_i, and `coeffs` is the dense tuple (a_0, ..., a_{n-1}).
    """

    __slots__ = ("dim", "num", "den")

    @_checked
    def __init__(self, coeffs: Iterable[Poly]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("a vector field needs at least one coefficient")
        # one coefficient per coordinate: the field lives on R^len(coeffs)
        for i, c in enumerate(coeffs):
            _same_chart(_value(c, Poly, "coefficient of", f"d{i}").dim, len(coeffs), "coefficient of", f"d{i}")
        self._set(len(coeffs), *_numerators(dict(enumerate(coeffs))))

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        zero, terms = Poly.zero(self.dim), self.terms
        return tuple(terms.get(i, zero) for i in range(self.dim))

    @classmethod
    def zero(cls, dim: int) -> "VField":
        return cls([Poly.zero(dim)] * dim)

    @classmethod
    def basis(cls, dim: int, i: int) -> "VField":
        _index(i, _int(dim, "chart dimension", 1), "basis index")
        return cls._make(dim, {i: {0: 1}}, 1)

    def __str__(self):
        return render_combination(self.dim, ((self.num[i], self.den, f"d{i}") for i in sorted(self.num)))

    def __repr__(self):
        return f"VField({self})"


@_checked
def vf_apply(v: VField, f: Poly) -> Poly:
    """Action of the derivation v on f: sum_i a_i * df/dx_i, one numerator sum reduced once."""
    _same_chart(f.dim, v.dim, "vf_apply argument", "f")
    accs: dict[int, dict[int, int]] = {}
    _derivation_into(accs, v.num.items(), [(0, f.num)], 1)
    return _product_poly(f.dim, accs.get(0, {}), v.den * f.den)


@_checked
def vf_bracket(u: VField, v: VField) -> VField:
    """Lie bracket of vector fields: [u,v]^j = sum_i (u_i*d_i(v_j) - v_i*d_i(u_j)).

    The coefficients are one numerator sum over the product of the denominators, reduced once.
    """
    u._check(v, "vf_bracket argument", "v")
    accs: dict[int, dict[int, int]] = {}
    _derivation_into(accs, u.num.items(), v.num.items(), 1)
    _derivation_into(accs, v.num.items(), u.num.items(), -1)
    return VField._make(u.dim, *_summed(u.dim, accs, u.den * v.den))


def _derivation_into(accs: dict, f: Iterable, g: Iterable, sign: int):
    """Add sign * sum_i f_i*d_i(g_j) into accs[j]; f and g hold (index, numerator dict) pairs."""
    for i, fi in f:
        shift = 64 * i
        one = 1 << shift
        fi_items = fi.items()
        for j, gj in g:
            if len(fi) * len(gj) > Poly.MAX_POW_PRODUCTS:
                _budget(next(_derivation_counts([(i, fi)], [(j, gj)])), Poly, "MAX_POW_PRODUCTS", _PRODUCTS)
            acc = accs.setdefault(j, {})
            get = acc.get
            for kg, cg in gj.items():
                e = (kg >> shift) & _FIELD_MASK
                if e:
                    # the term cg*x^kg of g_j differentiates to cg*e*x^(kg - one)
                    kg -= one
                    cg *= sign * e
                    for kf, cf in fi_items:
                        k = kf + kg
                        acc[k] = get(k, 0) + cf * cg


def _derivation_counts(f, g):
    """The term product count of each (i, j) of `_derivation_into(accs, f, g, sign)`: only the terms of g_j
    that hold x_i form products."""
    return (len(fi) * sum(1 for k in gj if (k >> 64 * i) & _FIELD_MASK) for i, fi in f for _, gj in g)


def _partial_into(acc: dict, c: int, en, sign: int):
    """Add sign * df/dx_c into acc[z] for each (z, f) of en; zero sums stay."""
    shift = 64 * c
    one = 1 << shift
    for z, f in en:
        t = acc.setdefault(z, {})
        for k, a in f.items():
            if e := (k >> shift) & _FIELD_MASK:
                t[k - one] = t.get(k - one, 0) + sign * e * a


@_checked
def vf_pushforward(v: VField, target_dim: int, embedding: Iterable[int]) -> VField:
    """Relabel v along a strictly increasing coordinate inclusion.

    The image field is constant in the new coordinates: coefficient i of v is
    moved to slot embedding[i] with x_i renamed to x_{embedding[i]}.
    """
    _int(target_dim, "target dimension", 1)
    emb = tuple(_index(e, target_dim, "embedding index") for e in embedding)
    if len(emb) != v.dim:
        raise DomainError("embedding must list a target index for every source coordinate")
    if any(a >= b for a, b in zip(emb, emb[1:])):
        raise DomainError("embedding must be strictly increasing")

    def relabel(n: dict) -> dict:
        # an injective renaming of exponents keeps the numerators canonical
        out: dict[int, int] = {}
        for key, c in n.items():
            new = [0] * target_dim
            for i, e in enumerate(_unpack(key, v.dim)):
                new[emb[i]] = e
            out[_pack(new)] = c
        return out

    return VField._make(target_dim, {emb[i]: relabel(n) for i, n in v.num.items()}, v.den)
