"""The parser's outcome on a seeded corpus of strings, one line per string and chart.

    python tests/parse_corpus.py [--seed N] [--count N] [--sha256]

Each string is parsed by `parse_expression` in a session of dimension 2 and
one of dimension 3, both holding the bindings of BINDINGS.  A line names the
dimension and the string, then the outcome: the value's type, repr and stored
numerators over their denominator, or the error's class, message, line and
column.  The strings are token soup, grammar-shaped sums and products,
session-mix-shaped K literals (some with one character changed), Unicode
digits and whitespace, digit runs past `Poly.MAX_DIGITS` and names from the
bindings.  `--sha256` prints the digest of the report instead of the report;
`tests/test_parse_corpus.py` pins it, so a change of how the parser reads its
input that moves any value, message or position moves the digest.  The name
does not start with `test_`, so pytest does not collect this script.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from random import Random

from igc.chart_algebra import ChartSpec, Poly
from igc.groupoid import KField
from igc.parsing import ParseError, Session, parse_expression

CHARTS = (ChartSpec(2, 4), ChartSpec(3, 3))
BINDINGS = {
    "a": "x0 - 1/2",
    "u": "x1*d0 + F[d0,d1]",
    "mu": "K{arity=2; 0: d0; 1: x0*d1; 0,1: d1}",
    "p": "d0 ^ d1",
}
LONG = Poly.MAX_DIGITS + 1
FIXED = [
    "", " ", "\n", "7" * Poly.MAX_DIGITS, "7" * LONG, "x0 +\n " + "9" * LONG, "1/" + "3" * LONG,
    "x" + "1" * LONG, "d" + "0" * (LONG + 20), "x0*y" + "5" * LONG, "٣" * LONG, "2*x0 + ٣" * 3,
    "x٣", "٣*x0", "٢/٣*x1", "K{arity=٢; 0: d0; ١: d1}", "x0^٣",
    "　x0 + 1\xa0", "x0\r\n*\tx1\x0c-\x0b2", "d0\n+ d1\n+ $", "x0 + 1²", "x0 + 1⅕",
    "x0^9223372036854775807*x0", "x0^9223372036854775807", "x0^9223372036854775808", "0*x0^9223372036854775807*x0",
    "(" * 101 + "d0" + ")" * 101, "(" * 99 + "x0" + ")" * 99, "-" * 300 + "x0*d1", "--x0 - -x1 + - -1",
    "n + x0", "a*d0 + u", "cup(mu, mu)", "face(mu, 1)", "homotopy(mu, 0, 1)", "sdiff(mu, mu, 0, 1)",
    "wedge(p, d1)", "schouten(p, a*p)", "a^2*p", "mu + mu", "-mu", "zz + 1", "x0*a*a - a^2", "p ^ d0",
    # K literals checked after their closing brace: a slot past the arity, an arity out of range, a component that
    # cancels, one of another type, a parse error after a bad slot, a sum of generator terms and a later refusal
    "K{arity=2; 0,2: d0}", "K{arity=0; 0: d0}", "K{arity=1001; 0: d0}", "K{arity=1; 0: d0 - d0}",
    "K{arity=1; 0: p}", "K{arity=1; 0: mu}", "K{arity=1; 3: d0; 0: (}",
    "K{arity=1; 0: 1/2*d0 + (x0 - 1/3)*d1 - 1/6*d0}", "K{arity=2; 5,0: d0; 1: x0 + d1}",
]


def _soup(rng: Random) -> str:
    spaces = ["\n", "\r", "\t", "\x0b", "\x0c", "\xa0", " ", " ", "　", "\x1c"]
    other = ["\xe9", "λ", "٣", "١٢", "$", "#", ".", "'"]
    words = ["x0", "x1", "x2", "x7", "d0", "d1", "d12", "F", "K", "arity", "a", "u", "mu", "p", "7", "0042", "3/4"]
    alphabet = spaces + other + words * 2 + list("-+*^/()[]{},;:=") * 2 + list("xd019_aZ")
    return "".join(rng.choices(alphabet, k=rng.randint(1, 16)))


def _factor(rng: Random, depth: int) -> str:
    r = rng.random()
    if r < 0.2:
        return rng.choice(["0", "1", "2", "7", "12", "007", "٣"])
    if r < 0.3:
        return f"{rng.randint(0, 9)}/{rng.choice(['0', '1', '2', '3', '06'])}"
    if r < 0.5:
        return f"x{rng.choice(['0', '1', '2', '00', '3', '12'])}"
    if r < 0.62:
        exponent = rng.choice(["0", "1", "2", "3", "2^2", "x1", "-1", "1/2", "9223372036854775807"])
        return f"x{rng.randrange(3)}^{exponent}"
    if r < 0.75:
        return rng.choice(["d0", "d1", "d2", "d01", "d5", "d0^d1"])
    if r < 0.82:
        return rng.choice(["a", "u", "mu", "p", "n", "zz"])
    if depth <= 0:
        return "x0"
    if r < 0.9:
        return f"({_sum(rng, depth - 1)})"
    if r < 0.96:
        return f"F[{_sum(rng, depth - 1)},{_sum(rng, depth - 1)}]"
    return rng.choice(["face(mu, 0)", "cup(mu, u)", f"wedge({_sum(rng, depth - 1)}, d1)", "foo(x0)", "2^3"])


def _term(rng: Random, depth: int) -> str:
    factors = [rng.choice(["", "", "", "-", "--"]) + _factor(rng, depth) for _ in range(rng.randint(1, 4))]
    return rng.choice(["", "", "-", "- "]) + "*".join(factors)


def _sum(rng: Random, depth: int) -> str:
    out = _term(rng, depth)
    for _ in range(rng.randint(0, 3)):
        out += rng.choice([" + ", " - ", "+", "-", " +-", " - -"]) + _term(rng, depth)
    return out


def _poly_factor(rng: Random, depth: int) -> str:
    r = rng.random()
    if r < 0.25:
        return rng.choice(["0", "1", "2", "3", "10", "٣"])
    if r < 0.4:
        return f"{rng.randint(0, 9)}/{rng.choice(['1', '2', '3', '4', '6'])}"
    if r < 0.7:
        return f"x{rng.choice('0011')}"
    if r < 0.88:
        return f"x{rng.choice('0012')}^{rng.choice(['0', '1', '2', '3', '2^2', '1/2'])}"
    if depth <= 0:
        return "x1"
    return f"({_polys(rng, depth - 1)})" + rng.choice(["", "", "^2"])


def _polys(rng: Random, depth: int) -> str:
    """A polynomial sum, mostly in the chart, whose terms are runs of monomial factors and now and then more."""
    out = ""
    for n in range(rng.randint(1, 5)):
        factors = [rng.choice(["", "", "", "-", "--"]) + _poly_factor(rng, depth) for _ in range(rng.randint(1, 4))]
        term = "*".join(factors)
        out += rng.choice(["", "-"] if not n else [" + ", " - ", "+", "-", " +-", " - -"]) + term
    return out


def _poly_text(rng: Random, dim: int) -> str:
    terms = []
    for _ in range(rng.randint(1, 4)):
        c = rng.randint(1, 9)
        den = rng.choice([1, 1, 2, 3, 7])
        mono = [f"x{rng.randrange(dim)}" + rng.choice(["", "", "^2", "^3"]) for _ in range(rng.randint(0, 3))]
        body = "*".join([f"{c}/{den}" if den > 1 else str(c)] + mono)
        terms.append((rng.choice(["-", ""]) if not terms else rng.choice([" - ", " + "])) + body)
    return "".join(terms)


def kfield_literal(rng: Random, dim: int) -> str:
    """A session-mix-shaped K literal on a chart of dimension dim: each component a sum of generator terms
    COEF*dI and (poly)*dI and of F[d0,d1] terms."""
    k = rng.randint(1, 3)
    parts = [f"arity={k}"]
    subsets = [[i for i in range(k) if n >> i & 1] for n in range(1, 1 << k)]
    for phi in sorted(rng.sample(subsets, rng.randint(1, len(subsets))), key=lambda s: (len(s), s)):
        terms = []
        for _ in range(rng.randint(1, 3)):
            word = rng.choice([f"d{rng.randrange(dim)}", f"d{rng.randrange(dim)}", "F[d0,d1]"])
            if rng.random() < 0.7:
                terms.append(f"({_poly_text(rng, dim)})*{word}")
            else:
                terms.append(f"{_poly_text(rng, dim).split(' ')[0]}*{word}")
        parts.append(f"{','.join(map(str, phi))}: {' + '.join(terms)}")
    return "K{" + "; ".join(parts) + "}"


def _kfield(rng: Random) -> str:
    text = kfield_literal(rng, rng.choice([2, 3]))
    if rng.random() < 0.3:
        # one character dropped, doubled or replaced by another token's
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice(["", text[at] * 2, ";", "+", "x5", "d9", "1/0", "^", " "]) + text[at + 1:]
    return text


def corpus(seed: int = 0, count: int = 400) -> list[str]:
    """FIXED and then count strings of each generated kind, drawn from seed."""
    rng = Random(seed)
    out = list(FIXED)
    out += [_soup(rng) for _ in range(count)]
    out += [_sum(rng, 2) for _ in range(count)]
    out += [_polys(rng, 2) for _ in range(count)]
    out += [_kfield(rng) for _ in range(count)]
    return out


def _stored(value) -> str:
    """A value's stored numerators over their denominator, with every dict and set sorted."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {v}" for k, v in sorted((_stored(k), _stored(v)) for k, v in value.items())) + "}"
    if isinstance(value, frozenset):
        return "{" + ", ".join(sorted(map(_stored, value))) + "}"
    if isinstance(value, KField):
        return f"arity {value.arity} {_stored(dict(value.components))}"
    if hasattr(value, "num"):
        return f"{_stored(value.num)}/{value.den}"
    return repr(value)


def outcome(src: str, session: Session) -> str:
    try:
        value = parse_expression(src, session)
    except ParseError as exc:
        return f"ParseError {exc} @ {exc.line}:{exc.column}"
    except Exception as exc:  # noqa: BLE001 - the report names whatever the parser raises
        return f"{type(exc).__name__} {exc}"
    return f"{type(value).__name__} {value!r} = {_stored(value)}"


def report(seed: int = 0, count: int = 400) -> list[str]:
    sessions = []
    for chart in CHARTS:
        session = Session(chart)
        for name, text in BINDINGS.items():
            session.bindings[name] = parse_expression(text, session)
        session.bindings["n"] = 5
        sessions.append(session)
    return [f"{s.chart.dim} {src!r} => {outcome(src, s)}" for src in corpus(seed, count) for s in sessions]


def sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=400, help="strings of each generated kind")
    parser.add_argument("--sha256", action="store_true", help="print the report's digest only")
    opts = parser.parse_args(argv)
    lines = report(opts.seed, opts.count)
    print(sha256(lines) if opts.sha256 else "\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
