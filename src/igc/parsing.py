"""Recursive-descent parser for the calculator's expression grammar.

Values are polynomials, free Lie-Rinehart elements (with `d{i}` generators
and `F[a,b]` brackets), subset-indexed k-fields (`K{arity=2; 0: d0; ...}`
literals or cup/compose/... calls) and polyvectors (`a ^ b` wedges).  The
caret is type-dispatched: integer power on polynomials, wedge on fields.
Errors carry line and column.

The tokens are the plain texts of one regex scan; a token's kind is read from
its text, and its offset is found by a re-scan only when an error needs it.
Factors INT, INT/INT, xI and xI^INT in a row are read in one loop into one
packed monomial, a run.  Every term of a sum is read once, by `_term`: its
leading factor flat, as a run or, after any minuses, as a parenthesized sum of
runs (r ± r ± ...), whose nested sum goes on from its first term that is no
run, and its further factors as values multiplied onto it.  A term that is a
polynomial of the chart, or one times a lone generator dI of the chart, is
kept as its label, None or i, and its runs (num, den, key); a sum's terms wait
in one list while they are of one kind and are added into one numerator dict
per label, reduced once.  A K literal is checked once, after its closing
brace, by the checks `KField(...)` runs and in their order, and is wrapped
with no second check.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from typing import Any

from .chart_algebra import (
    _EXPONENT_OVERFLOW, _PRODUCTS, ChartSpec, Poly, _budget, _checked, _poly, _Record, _runs_summed, _same_chart,
    _top_bits, _var_key,
)
from .errors import DomainError, _shown
from .free_lr import FreeLRElem, _generator_runs, free_bracket, project_to_lie
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

    def sum(self, pending: list | None = None, sign: int = 1, run: tuple[int, int, int, int] | None = None):
        """A sum, or the rest of one whose first terms are pending and whose next, of sign sign, starts with run."""
        # every nested subexpression is parsed by a call of sum
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            self._error(
                f"expression nests deeper than the parser budget of _Parser.MAX_NESTING = {self.MAX_NESTING} levels"
            )
        # terms (label, runs) of one kind wait for `_value_of`; any other hands their sum to `_add`, as each later one
        pending = pending or []
        while True:
            term = self._term(sign, run)
            if term[1] is None or pending is None or pending and (term[0] is None) != (pending[0][0] is None):
                rhs = term[0] if term[1] is None else self._value_of([term])
                if pending != []:  # the first term is the value itself
                    rhs = _add(value if pending is None else self._value_of(pending), rhs, self.session.chart)
                value, pending = rhs, None
            else:
                pending.append(term)
            if self.text != "+" and self.text != "-":
                break
            sign, run = 1 if self._advance() == "+" else -1, None
        self.depth -= 1
        return value if pending is None else self._value_of(pending)

    def _value_of(self, terms: list):
        """The sum of terms (label, runs) that are each a polynomial (label None) or each a generator term."""
        return _poly_sum(self.dim, terms) if terms[0][0] is None else _generator_runs(self.session.chart, terms)

    def _term(self, sign: int, run: tuple[int, int, int, int] | None = None) -> tuple:
        """A term times sign: while it is a polynomial p of the chart or p*dI for a lone generator dI of the chart,
        its label, None or i, and its runs (num, den, key); else its value and None.

        Its leading factor is read once: flat when it is a monomial run (run, if the caller read it) or, after any
        minuses, a parenthesized sum of runs, whose nested sum goes on from its first term that is no run.  Its
        other factors are read as values; the product stops before a lone dI while it is a polynomial of the chart."""
        tokens, at, minuses, value, s0 = self.tokens, self.pos, 0, None, sign
        if run is not None or (run := self._monomial_run(at)) is not None:
            runs, at = [(sign * run[0], run[1], run[2])], run[3]
        else:
            runs = None
            while tokens[at] == "-":
                minuses, at, s0 = minuses + 1, at + 1, -s0
            # at the nesting budget the nested sum refuses the parenthesis
            if tokens[at] == "(" and self.depth < self.MAX_NESTING:
                runs, s = [], s0
                while (run := self._monomial_run(at + 1)) is not None:
                    num, den, key, at = run
                    runs.append((s * num, den, key))
                    if tokens[at] != "+" and tokens[at] != "-":
                        break
                    s = s0 if tokens[at] == "+" else -s0
                if tokens[at] == ")":
                    at += 1
                else:
                    # the nested sum goes on from the term that is no run, or that the run read last only starts
                    if run is None:
                        at += 1
                    else:
                        runs.pop()
                    self.pos, self.text = at, tokens[at]
                    runs = [(None, [(s0 * num, den, key) for num, den, key in runs])] if runs else []
                    value, runs = self.sum(runs, s0 * s, run), None
                    self._expect(")")
                    at = self.pos
        if runs is not None:
            # runs is the flat factor times s0, the term's sign flipped by each minus before it
            if tokens[at] == "*" and (i := self._lone_generator(at + 1)) is not None:
                # the nonzero monomials are at most the runs, so only a term of more runs needs their count
                if len(runs) > Poly.MAX_POW_PRODUCTS:
                    _budget(len(_poly_sum(self.dim, [(None, runs)]).num), Poly, "MAX_POW_PRODUCTS", _PRODUCTS)
                self.pos, self.text = at + 2, tokens[at + 2]
                return i, runs
            if tokens[at] != "*" and tokens[at] != "^":
                self.pos, self.text = at, tokens[at]
                return None, runs
            value = _poly_sum(self.dim, [(None, runs)]) * s0
        self.pos, self.text = at, tokens[at]
        value, i = self.unary(minuses, value), None
        while self.text == "*":
            if type(value) is Poly and value.dim == self.dim and (i := self._lone_generator(self.pos + 1)) is not None:
                _budget(len(value.num), Poly, "MAX_POW_PRODUCTS", _PRODUCTS)
                self.pos, self.text = self.pos + 2, self.tokens[self.pos + 2]
                break
            self._advance()
            value = _mul(value, self.unary())
        if type(value) is Poly and value.dim == self.dim:
            return i, [(sign * n, value.den, key) for key, n in value.num.items()]
        return _neg(value) if sign < 0 else value, None

    def _monomial_run(self, at: int) -> tuple[int, int, int, int] | None:
        """The run of factors INT, INT/INT, xI, xI^INT at token index at, each after any minuses, as one monomial's
        numerator, denominator and key, checked per factor, and the index after it; None if the first is not one.  A
        factor that may be refused (INT^.., INT/0, xI past the chart or MAX_EXPONENT, a second ^) ends the run."""
        tokens, dim, top = self.tokens, self.dim, _top_bits(self.dim)
        num, den, key, end = 1, 1, 0, None
        while True:
            sign = 1
            while tokens[at] == "-":
                sign, at = -sign, at + 1
            text = tokens[at]
            if text.isdigit() and tokens[at + 1] != "^":
                n, d = sign * int(text), 1
                # the grammar reads a denominator INT^.. and refuses a zero one
                if tokens[at + 1] == "/":
                    if not (tokens[at + 2].isdigit() and tokens[at + 3] != "^" and (d := int(tokens[at + 2]))):
                        break
                    at += 2
                num, den = num * n, den * d
            # int() refuses more than 4,300 digits: a longer index is left to `chart_index`
            elif _VAR_RE.match(text) and len(text) <= 21 and (i := int(text[1:])) < dim:
                e = 1
                # the grammar reads an exponent INT/INT or INT^.., and refuses one past MAX_EXPONENT
                if tokens[at + 1] == "^":
                    ok = tokens[at + 2].isdigit() and tokens[at + 3] not in ("^", "/")
                    if not ok or (e := int(tokens[at + 2])) > Poly.MAX_EXPONENT:
                        break
                    at += 2
                num, key = num * sign, key + _var_key(i, e)
            else:
                break
            end = at = at + 1
            if num and key & top:
                raise DomainError(_EXPONENT_OVERFLOW)
            if tokens[at] != "*":
                break
            at += 1
        return None if end is None else (num, den, key, end)

    def _lone_generator(self, at: int) -> int | None:
        """The index of a generator dI of the chart at token index at with no ^ or * after it; else None."""
        text = self.tokens[at]
        # as in `_monomial_run`, a longer index is left to `chart_index`
        if not _GEN_RE.match(text) or len(text) > 21 or (i := int(text[1:])) >= self.dim:
            return None
        return None if self.tokens[at + 1] in ("^", "*") else i

    def unary(self, minuses: int = 0, value=None):
        """A factor: minuses, an atom and its powers, of which the first minuses, and the atom as value, may be read."""
        if value is None:
            while self.text == "-":
                self._advance()
                minuses += 1
            value = self.atom()
        while self.text == "^":
            self._advance()
            value = _pow(value, self.atom(), self.session.chart)
        for _ in range(minuses):
            value = _neg(value)
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


def _poly_sum(dim: int, terms: list[tuple[None, list]]) -> Poly:
    """The sum of terms (None, runs), each run (num, den, key) the monomial num/den*x^key, reduced once."""
    num, den = _runs_summed(terms)
    return _poly(dim, num.get(None) or {}, den)


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
