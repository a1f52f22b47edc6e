"""Recursive-descent parser for the calculator's expression grammar.

Values are polynomials, free Lie-Rinehart elements (with `d{i}` generators
and `F[a,b]` brackets), subset-indexed k-fields (`K{arity=2; 0: d0; ...}`
literals or cup/compose/... calls) and polyvectors (`a ^ b` wedges).  The
caret is type-dispatched: integer power on polynomials, wedge on fields.
Errors carry line and column.

The tokens are the plain texts of one regex scan; a token's kind is read from
its text, and its offset is found by a re-scan only when an error needs it.
A term's leading factors INT, INT/INT, xI and xI^INT are read into one packed
monomial, and a sum's polynomial terms into one numerator dict, reduced once;
a term that is such a run alone is added as its numerator, denominator and
key, with no Poly built for it.
A polynomial of the chart times a generator dI with no ^ or * after it is a
generator term, the polynomial's numerators under the word (i,); any other
factor is read and multiplied as a value.  A sum's generator terms, while no
other term comes before them, are added into one numerator dict per word,
reduced once, with no element built per term.  A K literal is checked once,
after its closing brace, by the checks `KField(...)` runs and in their order,
and is wrapped with no second check.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Any

from .chart_algebra import (
    _EXPONENT_OVERFLOW, _PRODUCTS, ChartSpec, Poly, _accumulate, _budget, _checked, _poly, _Record, _reduced,
    _same_chart, _top_bits, _var_key,
)
from .errors import DomainError, _shown
from .free_lr import FreeLRElem, free_bracket, project_to_lie
from .groupoid import KField, _check_arity, _index_set, compose, cup, face, homotopy, strong_diff
from .polyvector import Polyvector, wedge, schouten


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class Session(_Record):
    """Parsing/evaluation context: the chart plus named bindings."""

    __slots__ = ("chart", "bindings", "fmt", "seed")

    @_checked
    def __init__(self, chart: ChartSpec, bindings: dict[str, Any] | None = None, fmt: str = "text", seed: int = 0):
        self.chart = chart
        self.bindings = {} if bindings is None else bindings
        self.fmt = fmt
        self.seed = seed


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_OPS = "-+*^/()[]{},;:="
_OP = "[" + re.escape(_OPS) + "]"
# the token texts of a string that holds no character outside a token or whitespace and no long digit run
_SCAN_RE = re.compile(_OP + "|" + _IDENT + r"|\d+")
# a string of token characters and whitespace only, and the start of a digit run past the digit budget
_PLAIN_RE = re.compile(r"[\s\dA-Za-z_" + re.escape(_OPS) + "]*")
_LONG_RE = re.compile(r"(?<!\d)\d{%d}" % (Poly.MAX_DIGITS + 1))
# one match per token after its leading whitespace; group 4 is any other
# character, so only trailing whitespace is left unmatched.  Only a refusal or
# an error position needs it, so `re` compiles it on first use.
_TOKEN = r"\s*(?:(\d+)|(" + _IDENT + ")|(" + _OP + r")|(\S))"


def _tokenize(src: str) -> list[str]:
    """The text of each token, then "" for the end of input.

    A token's kind is read from its text: an integer literal is all digits (`str.isdigit`), an
    identifier is an ASCII identifier (`str.isidentifier`) and an operator is one character of _OPS.
    """
    if _PLAIN_RE.fullmatch(src) and not _LONG_RE.search(src):
        tokens = _SCAN_RE.findall(src)
    else:
        # the scan that refuses a stray character or a long integer literal, at its position; an
        # identifier may hold a long digit run, and then the tokens are those of the one-regex scan
        tokens = []
        for m in re.finditer(_TOKEN, src):
            group = m.lastindex
            text = m[group]
            if group == 4:
                raise ParseError(f"unexpected character {_shown(text)}", *_position(src, m.start(group)))
            if group == 1 and len(text) > Poly.MAX_DIGITS:
                # int() refuses such a literal, and no value built from it would print
                raise ParseError(long_integer("literal", len(text)), *_position(src, m.start(group)))
            tokens.append(text)
    tokens.append("")
    return tokens


def long_integer(what: str, digits: int) -> str:
    """The refusal of an integer what of more digits than Poly.MAX_DIGITS, which int() does not read."""
    return f"integer {what} of {digits} digits exceeds the budget of Poly.MAX_DIGITS = {Poly.MAX_DIGITS}"


def _offset(src: str, index: int) -> int:
    """The offset in src of the token at index of `_tokenize(src)`; len(src) for the end of input."""
    m = next(islice(re.finditer(_TOKEN, src), index, None), None)
    return len(src) if m is None else m.start(m.lastindex)


def _position(src: str, offset: int) -> tuple[int, int]:
    """Line and column of offset in src, both from 1; only \\n ends a line."""
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


_VAR_RE = re.compile(r"^x(\d+)$")
_GEN_RE = re.compile(r"^d(\d+)$")


def bindable(name: str) -> bool:
    """Whether an expression reads name from the session's bindings: an
    identifier that is not a coordinate x<i> or a generator d<i>."""
    return bool(re.fullmatch(_IDENT, name)) and not (_VAR_RE.match(name) or _GEN_RE.match(name))


class _Parser:
    # Deepest nesting of parentheses, F[..] brackets, call arguments and K
    # literal components: each level costs several Python frames, so without
    # a budget deep input would end in a RecursionError.
    MAX_NESTING = 100

    def __init__(self, src: str, session: Session):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        # the text of the current token, tokens[pos]
        self.text = self.tokens[0]
        self.depth = 0
        self.session = session
        self.dim = session.chart.dim

    def _advance(self) -> str:
        """Move past the current token and return its text."""
        text = self.text
        self.pos += 1
        self.text = self.tokens[self.pos]
        return text

    def _expect(self, text: str):
        if self.text != text:
            self._error(f"expected {_shown(text)}, found {_shown(self.text or 'end of input')}")
        self._advance()

    def _error(self, message: str, at: int | None = None):
        """Raise a ParseError at token index at, by default the current token."""
        raise ParseError(message, *_position(self.src, _offset(self.src, self.pos if at is None else at)))

    # grammar ---------------------------------------------------------------

    def parse(self):
        value = self.sum()
        if self.text:
            self._error(f"unexpected trailing input {_shown(self.text)}")
        return value

    def sum(self):
        # every nested subexpression is parsed by a call of sum
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            self._error(
                f"expression nests deeper than the parser budget of _Parser.MAX_NESTING = {self.MAX_NESTING} levels"
            )
        dim = self.dim
        # polynomial terms wait here for `_poly_sum`, a whole monomial run as its (num, den, key) and any other
        # polynomial of the chart as (sign, den, p); a term of another type first turns them into the Poly value
        # `_add` sees, and after it the polynomial terms are added one by one too.  Generator terms p*dI wait in
        # gens for `FreeLRElem._generator_sum`, as (sign, i, p), while every term before them is one; any other term
        # first turns them into their element
        polys: list | None = []
        gens: list = []
        op = "+"
        while True:
            run = self._monomial_run()
            # no ^ follows a run: the run reader leaves a factor with a ^ after it to `unary`
            if run is not None and self.text != "*" and polys is not None:
                polys.append(run if op == "+" else (-run[0], run[1], run[2]))
            else:
                rhs = self.product(run) if run is None or self.text == "*" else _run_poly(dim, run)
                if type(rhs) is tuple and (gens or polys == []):
                    gens.append((1 if op == "+" else -1, *rhs))
                    polys = None
                else:
                    if type(rhs) is tuple:
                        rhs = FreeLRElem._generator_sum(self.session.chart, [(1, *rhs)])
                    if gens:
                        value, gens = FreeLRElem._generator_sum(self.session.chart, gens), []
                    if polys is None:
                        value = _add(value, rhs if op == "+" else _neg(rhs), self.session.chart)
                    elif type(rhs) is Poly and rhs.dim == dim:
                        polys.append((1 if op == "+" else -1, rhs.den, rhs))
                    elif not polys:  # the first term
                        value, polys = rhs, None
                    else:
                        value = _add(_poly_sum(dim, polys), rhs if op == "+" else _neg(rhs), self.session.chart)
                        polys = None
            if self.text != "+" and self.text != "-":
                break
            op = self._advance()
        self.depth -= 1
        if gens:
            return FreeLRElem._generator_sum(self.session.chart, gens)
        return value if polys is None else _poly_sum(dim, polys)

    def product(self, run: tuple[int, int, int] | None):
        """A product whose leading monomial run, if any, is already read as run; a polynomial p of the chart times
        a generator dI that ends the product comes as (i, p), for `sum` to add as p's numerators under the word
        (i,), with the term product budget `Poly * d_i` checks."""
        value = self.unary() if run is None else _run_poly(self.dim, run)
        while self.text == "*":
            self._advance()
            if type(value) is Poly and value.dim == self.dim and (i := self._lone_generator()) is not None:
                _budget(len(value.num), Poly, "MAX_POW_PRODUCTS", _PRODUCTS)
                return i, value
            value = _mul(value, self.unary())
        return value

    def _monomial_run(self) -> tuple[int, int, int] | None:
        """A product's leading run of factors INT, INT/INT, xI and xI^INT, each after any minuses, read as one
        monomial's numerator, denominator and key, its key checked per factor as a product checks it; None when
        the first factor is not one of them.  A factor that may be refused (INT^.., INT/0, xI past the chart, xI^INT
        past MAX_EXPONENT, a second ^) ends the run, read as before."""
        tokens, dim = self.tokens, self.dim
        if (factor := self._monomial_factor(self.pos)) is None:
            return None
        num, den, key, pos = factor
        while tokens[pos] == "*" and (factor := self._monomial_factor(pos + 1)):
            n, d, k, pos = factor
            num, den, key = num * n, den * d, key + k
            if num and key & _top_bits(dim):
                raise DomainError(_EXPONENT_OVERFLOW)
        self.pos = pos
        self.text = tokens[pos]
        return num, den, key

    def _monomial_factor(self, at: int) -> tuple[int, int, int, int] | None:
        """Numerator, denominator and key of a monomial factor at token index at, and the index after it."""
        tokens = self.tokens
        sign = 1
        while tokens[at] == "-":
            sign, at = -sign, at + 1
        text = tokens[at]
        if text.isdigit():
            if tokens[at + 1] != "/":
                return None if tokens[at + 1] == "^" else (sign * int(text), 1, 0, at + 1)
            ok = tokens[at + 2].isdigit() and tokens[at + 3] != "^" and (den := int(tokens[at + 2]))
            return (sign * int(text), den, 0, at + 3) if ok else None
        # int() refuses more than 4,300 digits: a longer index is left to `chart_index`
        if not _VAR_RE.match(text) or len(text) > 21 or (i := int(text[1:])) >= self.dim:
            return None
        if tokens[at + 1] != "^":
            return sign, 1, _var_key(i), at + 1
        # the grammar reads an exponent INT/INT or INT^.., and refuses one past MAX_EXPONENT
        ok = tokens[at + 2].isdigit() and tokens[at + 3] not in ("^", "/")
        return (sign, 1, _var_key(i, e), at + 3) if ok and (e := int(tokens[at + 2])) <= Poly.MAX_EXPONENT else None

    def _lone_generator(self) -> int | None:
        """The index of a generator dI in the chart at the current token, moved past, when no ^ or * follows it;
        else None, the token left for `unary` to read or refuse."""
        text = self.text
        # as in `_monomial_factor`, a longer index is left to `chart_index`
        if not _GEN_RE.match(text) or len(text) > 21 or (i := int(text[1:])) >= self.dim:
            return None
        if self.tokens[self.pos + 1] in ("^", "*"):
            return None
        self._advance()
        return i

    def unary(self):
        signs = 0
        while self.text == "-":
            self._advance()
            signs += 1
        value = self.power()
        for _ in range(signs):
            value = _neg(value)
        return value

    def power(self):
        value = self.atom()
        while self.text == "^":
            self._advance()
            value = _pow(value, self.atom(), self.session.chart)
        return value

    def atom(self):
        if self.text.isdigit():
            num = int(self._advance())
            if self.text == "/":
                self._advance()
                if not self.text.isdigit():
                    self._error("expected an integer denominator")
                if not (den := int(self.text)):
                    self._error("division by zero")
                self._advance()
                return Poly.const(self.dim, Fraction(num, den))
            return Poly.const(self.dim, num)
        if self.text == "(":
            self._advance()
            value = self.sum()
            self._expect(")")
            return value
        if self.text.isidentifier():
            return self.ident_atom()
        self._error(f"unexpected token {_shown(self.text or 'end of input')}")

    def ident_atom(self):
        at = self.pos
        name = self._advance()
        dim = self.dim
        if name == "F" and self.text == "[":
            self._advance()
            lhs = as_elem(self.sum(), self.session.chart)
            self._expect(",")
            rhs = as_elem(self.sum(), self.session.chart)
            self._expect("]")
            return free_bracket(lhs, rhs)
        if name == "K" and self.text == "{":
            return self.kfield_literal()
        if _VAR_RE.match(name):
            return Poly.var(dim, self.chart_index(name, "coordinate", at))
        if _GEN_RE.match(name):
            return FreeLRElem.generator(self.session.chart, self.chart_index(name, "generator", at))
        if self.text == "(":
            return self.call(name, at)
        if name in self.session.bindings:
            return self.session.bindings[name]
        self._error(f"unknown identifier {_shown(name)}", at)

    def chart_index(self, name: str, what: str, at: int) -> int:
        """The index of the name xI or dI at token index at, refused past the chart, and by its digit count past
        Poly.MAX_DIGITS, which int() does not read, as an integer literal is."""
        digits = name[1:].lstrip("0") or "0"
        if len(digits) > Poly.MAX_DIGITS:
            self._error(long_integer(f"{what} index", len(digits)), at)
        if (i := int(digits)) < self.dim:
            return i
        self._error(f"{what} {name[0]}{_shown(i)} out of range for dimension {self.dim}", at)

    def call(self, name: str, at: int):
        self._expect("(")
        args = [self.sum()]
        while self.text == ",":
            self._advance()
            args.append(self.sum())
        self._expect(")")
        if name not in OPERATIONS:
            self._error(f"unknown function {_shown(name)}", at)
        arity = len(OPERATIONS[name][1].split())
        if len(args) != arity:
            self._error(f"{name} expects {arity} arguments, got {len(args)}", at)
        return apply_operation(name, args, self.session.chart, lambda value: value, as_int)

    def kfield_literal(self):
        chart = self.session.chart
        self._expect("{")
        if self.text != "arity":
            self._error("K literal starts with arity=<k>")
        self._advance()
        self._expect("=")
        if not self.text.isdigit():
            self._error("arity must be an integer")
        k = int(self._advance())
        comps = {}
        while self.text == ";":
            self._advance()
            start = self.pos
            indices = [self._subset_index([])]
            while self.text == ",":
                self._advance()
                indices.append(self._subset_index(indices))
            subset = frozenset(indices)
            if subset in comps:
                self._error(f"repeated index set {_shown(sorted(subset))}", start)
            self._expect(":")
            comps[subset] = as_elem(self.sum(), chart)
        self._expect("}")
        # the checks of `KField(chart, k, comps)`, in its order, once the whole literal has parsed
        _check_arity(k)
        for subset, elem in comps.items():
            if max(subset) >= k:
                _index_set(subset, k, "component")
            if elem.chart is not chart:
                _same_chart(elem.chart, chart, "component", subset)
        return KField._make(chart, k, {subset: elem for subset, elem in comps.items() if elem.num})

    def _subset_index(self, seen: list[int]) -> int:
        if not self.text.isdigit():
            self._error("expected a slot index")
        index = int(self.text)
        if index in seen:
            self._error(f"repeated slot index {_shown(index)}")
        self._advance()
        return index


# value coercion ------------------------------------------------------------


def as_int(v) -> int:
    if isinstance(v, Poly):
        c = v.as_constant()
        if c is not None and c.denominator == 1:
            return int(c)
    raise DomainError("expected an integer argument")


def as_elem(v, chart: ChartSpec) -> FreeLRElem:
    if isinstance(v, FreeLRElem):
        return v
    if isinstance(v, Poly) and v.is_zero():
        return FreeLRElem.zero(chart)
    raise DomainError(f"expected a field element, got {type(v).__name__}")


def as_kfield(v, chart: ChartSpec) -> KField:
    if isinstance(v, KField):
        return v
    if isinstance(v, (FreeLRElem, Poly)):
        elem = as_elem(v, chart)
        return KField(chart, 1, {frozenset({0}): elem})
    raise DomainError(f"expected a k-field, got {type(v).__name__}")


def as_pv(v, chart: ChartSpec) -> Polyvector:
    if isinstance(v, Polyvector):
        return v
    if isinstance(v, Poly) and v.is_zero():
        return Polyvector.zero(chart.dim)
    if isinstance(v, FreeLRElem):
        if not v.is_classical():
            raise DomainError("only classical elements convert to polyvectors")
        return Polyvector.from_vfield(project_to_lie(v))
    raise DomainError(f"expected a polyvector, got {type(v).__name__}")


# operations shared with the command line ------------------------------------

# name -> (function, argument signature); in a signature E is a k-field, P and
# Q are polyvectors and I and J are slot indices.  Each function looks its
# operation up when called, so a wrapper installed on the module function (a
# profiler, or perfbench's tracer) sees the calls made through this table.
OPERATIONS = {
    "cup": (lambda mu, nu: cup(mu, nu), "E1 E2"),
    "compose": (lambda mu, nu: compose(mu, nu), "E1 E2"),
    "sdiff": (lambda mu, nu, i, j: strong_diff(mu, nu, (i, j)), "E1 E2 I J"),
    "face": (lambda nu, i: face(nu, i), "E I"),
    "homotopy": (lambda nu, i, j: homotopy(nu, i, j), "E I J"),
    "wedge": (lambda p, q: wedge(p, q), "P Q"),
    "schouten": (lambda p, q: schouten(p, q), "P Q"),
}


def apply_operation(name: str, args: list, chart: ChartSpec, read, index):
    """Call the operation `name` on as many args as its signature names.

    Each front end brings its own argument coercion: `read` turns an argument
    into a value, which is then taken as a k-field or polyvector, and `index`
    turns one into a slot index.
    """
    function, signature = OPERATIONS[name]
    values = []
    for kind, arg in zip(signature.split(), args):
        if kind in ("I", "J"):
            values.append(index(arg))
        elif kind.startswith("E"):
            values.append(as_kfield(read(arg), chart))
        else:
            values.append(as_pv(read(arg), chart))
    return function(*values)


# type-dispatched operators ---------------------------------------------------


def _run_poly(dim: int, run: tuple[int, int, int]) -> Poly:
    """The monomial num/den*x^key of a run (num, den, key)."""
    num, den, key = run
    g = gcd(num, den)
    return _poly(dim, {key: num // g} if num else {}, den // g)


def _poly_sum(dim: int, terms: list[tuple[int, int, Any]]) -> Poly:
    """The sum of the terms, each a run (num, den, key) or a polynomial (sign, den, p) of denominator den, over the
    lcm of their denominators, reduced once."""
    if len(terms) == 1 and type(terms[0][2]) is Poly:
        return terms[0][2]
    den = lcm(*[d for _, d, _ in terms])
    acc: dict[int, int] = {}
    for c, d, x in terms:
        s = den // d * c
        if type(x) is Poly:
            _accumulate(acc, [(k, s * n) for k, n in x.num.items()])
        elif s:
            _accumulate(acc, ((x, s),))
    return _reduced(dim, acc, den)


def _neg(v):
    if isinstance(v, KField):
        raise DomainError("k-fields have no global negation; additions are face-wise")
    return -v


def _add(a, b, chart: ChartSpec):
    if isinstance(a, KField) or isinstance(b, KField):
        raise DomainError("k-fields have no global addition; additions are face-wise")
    if isinstance(a, Poly) and isinstance(b, Poly):
        return a + b
    if isinstance(a, Polyvector) or isinstance(b, Polyvector):
        return as_pv(a, chart) + as_pv(b, chart)
    if isinstance(a, FreeLRElem) or isinstance(b, FreeLRElem):
        return as_elem(a, chart) + as_elem(b, chart)
    raise DomainError(f"cannot add {type(a).__name__} and {type(b).__name__}")


def _mul(a, b):
    if isinstance(a, Poly) and isinstance(b, Poly):
        return a * b
    if isinstance(a, Poly) and isinstance(b, (FreeLRElem, Polyvector)):
        return b * a
    if isinstance(b, Poly) and isinstance(a, (FreeLRElem, Polyvector)):
        return a * b
    raise DomainError(f"cannot multiply {type(a).__name__} and {type(b).__name__}")


def _pow(a, b, chart: ChartSpec):
    if isinstance(a, Poly) and isinstance(b, Poly):
        c = b.as_constant()
        if c is None or c.denominator != 1:
            raise DomainError("polynomial exponent must be a nonnegative integer")
        return a ** int(c)
    return wedge(as_pv(a, chart), as_pv(b, chart))


@_checked
def parse_expression(src: str, session: Session):
    """Parse and evaluate one expression in the session's chart."""
    return _Parser(src, session).parse()
