"""Recursive-descent parser for the calculator's expression grammar.

Values are polynomials, free Lie-Rinehart elements (with `d{i}` generators
and `F[a,b]` brackets), subset-indexed k-fields (`K{arity=2; 0: d0; ...}`
literals or cup/compose/... calls) and polyvectors (`a ^ b` wedges).  The
caret is type-dispatched: integer power on polynomials, wedge on fields.
Errors carry line and column.

A term's leading factors INT, INT/INT, xI and xI^INT are read into one packed
monomial, and a sum's polynomial terms into one numerator dict, reduced once.
A polynomial of the chart times a generator dI with no ^ or * after it is read
straight into its stored element, the polynomial's numerators under the word
(i,); any other factor is read and multiplied as a value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Any

from .chart_algebra import (
    _EXPONENT_OVERFLOW, ChartSpec, Poly, _accumulate, _poly, _Record, _reduced, _top_bits, _var_key,
)
from .errors import DomainError
from .free_lr import FreeLRElem, free_bracket, project_to_lie
from .groupoid import KField, compose, cup, face, homotopy, strong_diff
from .polyvector import Polyvector, wedge, schouten


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class Session(_Record):
    """Parsing/evaluation context: the chart plus named bindings."""

    __slots__ = ("chart", "bindings", "fmt", "seed")

    def __init__(self, chart: ChartSpec, bindings: dict[str, Any] | None = None, fmt: str = "text", seed: int = 0):
        self.chart = chart
        self.bindings = {} if bindings is None else bindings
        self.fmt = fmt
        self.seed = seed


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# one match per token after its leading whitespace; group 4 is any other
# character, so only trailing whitespace is left unmatched
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(" + _IDENT + r")|([-+*^/()\[\]{},;:=])|(\S))")
_KINDS = (None, "int", "ident", "op")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, then ("eof", "", len(src))."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        group = m.lastindex
        text = m[group]
        start = m.start(group)
        if group == 4:
            raise ParseError(f"unexpected character {text!r}", *_position(src, start))
        if group == 1 and len(text) > Poly.MAX_DIGITS:
            # int() refuses such a literal, and no value built from it would print
            raise ParseError(
                f"integer literal of {len(text)} digits exceeds the budget of Poly.MAX_DIGITS = {Poly.MAX_DIGITS}",
                *_position(src, start),
            )
        tokens.append((_KINDS[group], text, start))
    tokens.append(("eof", "", len(src)))
    return tokens


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
        # kind and text of the current token, tokens[pos]
        self.kind, self.text, _ = self.tokens[0]
        self.depth = 0
        self.session = session
        self.dim = session.chart.dim

    def _advance(self) -> str:
        """Move past the current token and return its text."""
        text = self.text
        self.pos += 1
        self.kind, self.text, _ = self.tokens[self.pos]
        return text

    def _expect(self, text: str):
        if self.text != text:
            self._error(f"expected {text!r}, found {self.text or 'end of input'!r}")
        self._advance()

    def _error(self, message: str, at: int | None = None):
        """Raise a ParseError at token index at, by default the current token."""
        offset = self.tokens[self.pos if at is None else at][2]
        raise ParseError(message, *_position(self.src, offset))

    # grammar ---------------------------------------------------------------

    def parse(self):
        value = self.sum()
        if self.kind != "eof":
            self._error(f"unexpected trailing input {self.text!r}")
        return value

    def sum(self):
        # every nested subexpression is parsed by a call of sum
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            self._error(
                f"expression nests deeper than the parser budget of _Parser.MAX_NESTING = {self.MAX_NESTING} levels"
            )
        value = self.product()
        # polynomial terms wait here; a term of another type first turns them into the Poly value `_add` sees
        polys = [("+", value)] if type(value) is Poly and value.dim == self.dim else None
        while self.text == "+" or self.text == "-":
            op = self._advance()
            rhs = self.product()
            if polys is not None:
                if type(rhs) is Poly and rhs.dim == self.dim:
                    polys.append((op, rhs))
                    continue
                value, polys = _poly_sum(self.dim, polys), None
            value = _add(value, rhs if op == "+" else _neg(rhs), self.session.chart)
        self.depth -= 1
        return value if polys is None else _poly_sum(self.dim, polys)

    def product(self):
        value = self.leading_factors()
        while self.text == "*":
            self._advance()
            if type(value) is Poly and value.dim == self.dim and (i := self._lone_generator()) is not None:
                value = FreeLRElem._scaled_generator(self.session.chart, i, value)
            else:
                value = _mul(value, self.unary())
        return value

    def leading_factors(self):
        """A product's leading run of factors INT, INT/INT, xI and xI^INT, each after any minuses, as one monomial
        whose key is checked per factor as a product checks it, else its first factor.  A factor that may be refused
        (INT^.., INT/0, xI past the chart, xI^INT past MAX_EXPONENT, a second ^) ends the run, read as before."""
        tokens, dim = self.tokens, self.dim
        if (factor := self._monomial_factor(self.pos)) is None:
            return self.unary()
        num, den, key, pos = factor
        while tokens[pos][1] == "*" and (factor := self._monomial_factor(pos + 1)):
            n, d, k, pos = factor
            num, den, key = num * n, den * d, key + k
            if num and key & _top_bits(dim):
                raise DomainError(_EXPONENT_OVERFLOW)
        self.pos = pos
        self.kind, self.text, _ = tokens[pos]
        g = gcd(num, den)
        return _poly(dim, {key: num // g} if num else {}, den // g)

    def _monomial_factor(self, at: int) -> tuple[int, int, int, int] | None:
        """Numerator, denominator and key of a monomial factor at token index at, and the index after it."""
        tokens = self.tokens
        sign = 1
        while tokens[at][1] == "-":
            sign, at = -sign, at + 1
        kind, text, _ = tokens[at]
        if kind == "int":
            if tokens[at + 1][1] != "/":
                return None if tokens[at + 1][1] == "^" else (sign * int(text), 1, 0, at + 1)
            ok = tokens[at + 2][0] == "int" and tokens[at + 3][1] != "^" and (den := int(tokens[at + 2][1]))
            return (sign * int(text), den, 0, at + 3) if ok else None
        # int() refuses more than 4,300 digits: a longer index is left to `chart_index`
        if kind != "ident" or not _VAR_RE.match(text) or len(text) > 21 or (i := int(text[1:])) >= self.dim:
            return None
        if tokens[at + 1][1] != "^":
            return sign, 1, _var_key(i), at + 1
        # the grammar reads an exponent INT/INT or INT^.., and refuses one past MAX_EXPONENT
        ok = tokens[at + 2][0] == "int" and tokens[at + 3][1] not in ("^", "/")
        return (sign, 1, _var_key(i, e), at + 3) if ok and (e := int(tokens[at + 2][1])) <= Poly.MAX_EXPONENT else None

    def _lone_generator(self) -> int | None:
        """The index of a generator dI in the chart at the current token, moved past, when no ^ or * follows it;
        else None, the token left for `unary` to read or refuse."""
        tokens, at = self.tokens, self.pos
        kind, text, _ = tokens[at]
        # as in `_monomial_factor`, a longer index is left to `chart_index`
        if kind != "ident" or not _GEN_RE.match(text) or len(text) > 21 or (i := int(text[1:])) >= self.dim:
            return None
        if tokens[at + 1][1] in ("^", "*"):
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
        if self.kind == "int":
            num = int(self._advance())
            if self.text == "/":
                self._advance()
                if self.kind != "int":
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
        if self.kind == "ident":
            return self.ident_atom()
        self._error(f"unexpected token {self.text or 'end of input'!r}")

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
        self._error(f"unknown identifier {name!r}", at)

    def chart_index(self, name: str, what: str, at: int) -> int:
        """The index of the name xI or dI at token index at, refused past the chart before int() meets 4,300 digits."""
        digits = name[1:].lstrip("0") or "0"
        if len(digits) <= len(str(self.dim)) and (i := int(digits)) < self.dim:
            return i
        shown = digits if len(digits) <= 20 else f"{digits[:20]}... ({len(digits)} digits)"
        self._error(f"{what} {name[0]}{shown} out of range for dimension {self.dim}", at)

    def call(self, name: str, at: int):
        self._expect("(")
        args = [self.sum()]
        while self.text == ",":
            self._advance()
            args.append(self.sum())
        self._expect(")")
        if name not in OPERATIONS:
            self._error(f"unknown function {name!r}", at)
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
        if self.kind != "int":
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
                names = ",".join(map(str, sorted(subset)))
                self._error(f"repeated index set {names}", start)
            self._expect(":")
            comps[subset] = as_elem(self.sum(), chart)
        self._expect("}")
        return KField(chart, k, comps)

    def _subset_index(self, seen: list[int]) -> int:
        if self.kind != "int":
            self._error("expected a slot index")
        index = int(self.text)
        if index in seen:
            self._error(f"repeated slot index {index}")
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
    raise DomainError(f"expected a field element, got {v!r}")


def as_kfield(v, chart: ChartSpec) -> KField:
    if isinstance(v, KField):
        return v
    if isinstance(v, (FreeLRElem, Poly)):
        elem = as_elem(v, chart)
        return KField(chart, 1, {frozenset({0}): elem})
    raise DomainError(f"expected a k-field, got {v!r}")


def as_pv(v, chart: ChartSpec) -> Polyvector:
    if isinstance(v, Polyvector):
        return v
    if isinstance(v, Poly) and v.is_zero():
        return Polyvector.zero(chart.dim)
    if isinstance(v, FreeLRElem):
        if not v.is_classical():
            raise DomainError("only classical elements convert to polyvectors")
        return Polyvector.from_vfield(project_to_lie(v))
    raise DomainError(f"expected a polyvector, got {v!r}")


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


def _poly_sum(dim: int, terms: list[tuple[str, Poly]]) -> Poly:
    """The sum of the terms (op, p), op "+" or "-", over the lcm of their denominators, reduced once."""
    if len(terms) == 1:
        return terms[0][1]
    den = lcm(*(p.den for _, p in terms))
    acc: dict[int, int] = {}
    for op, p in terms:
        s = den // p.den if op == "+" else -(den // p.den)
        _accumulate(acc, [(k, s * c) for k, c in p.num.items()])
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


def parse_expression(src: str, session: Session):
    """Parse and evaluate one expression in the session's chart."""
    return _Parser(src, session).parse()
