"""Recursive-descent parser for the calculator's expression grammar.

Values are polynomials, free Lie-Rinehart elements (with `d{i}` generators
and `F[a,b]` brackets), subset-indexed k-fields (`K{arity=2; 0: d0; ...}`
literals or cup/compose/... calls) and polyvectors (`a ^ b` wedges).  The
caret is type-dispatched: integer power on polynomials, wedge on fields.
Errors carry line and column.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any

from .chart_algebra import ChartSpec, Poly, _Record
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
        while self.text == "+" or self.text == "-":
            op = self._advance()
            rhs = self.product()
            value = _add(value, rhs if op == "+" else _neg(rhs), self.session.chart)
        self.depth -= 1
        return value

    def product(self):
        value = self.unary()
        while self.text == "*":
            self._advance()
            value = _mul(value, self.unary())
        return value

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
        dim = self.session.chart.dim
        if self.kind == "int":
            num = int(self._advance())
            if self.text == "/":
                self._advance()
                if self.kind != "int":
                    self._error("expected an integer denominator")
                den = int(self.text)
                if den == 0:
                    self._error("division by zero")
                self._advance()
                return Poly.const(dim, Fraction(num, den))
            return Poly.const(dim, num)
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
        dim = self.session.chart.dim
        if name == "F" and self.text == "[":
            self._advance()
            lhs = as_elem(self.sum(), self.session.chart)
            self._expect(",")
            rhs = as_elem(self.sum(), self.session.chart)
            self._expect("]")
            return free_bracket(lhs, rhs)
        if name == "K" and self.text == "{":
            return self.kfield_literal()
        m = _VAR_RE.match(name)
        if m:
            i = int(m.group(1))
            if i >= dim:
                self._error(f"coordinate x{i} out of range for dimension {dim}", at)
            return Poly.var(dim, i)
        m = _GEN_RE.match(name)
        if m:
            i = int(m.group(1))
            if i >= dim:
                self._error(f"generator d{i} out of range for dimension {dim}", at)
            return FreeLRElem.generator(self.session.chart, i)
        if self.text == "(":
            return self.call(name, at)
        if name in self.session.bindings:
            return self.session.bindings[name]
        self._error(f"unknown identifier {name!r}", at)

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
