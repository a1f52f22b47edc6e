"""Seeded input sampling and the calculator's input syntax.

The benchmark draws its own inputs with `random.Random(seed)` instead of
igc.oracle's samplers, so a change to igc's sampling policy cannot silently
change what the benchmark measures.  Values are the plain containers of
ref.py; the text renderers write them in the expression grammar the CLI
parses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial
from random import Random

from ref import all_subsets, elem_of_vf


def coeff(rng: Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def poly(rng: Random, dim: int, degree: int, terms: int) -> dict:
    """Nonzero polynomial: terms random terms of total degree <= degree,
    fewer only where two coincide."""
    while True:
        out: dict = {}
        for _ in range(terms):
            exps = [0] * dim
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(dim)] += 1
            e = tuple(exps)
            s = out.get(e, 0) + coeff(rng)
            if s:
                out[e] = s
            else:
                out.pop(e)
        if out:
            return out


def vf(rng: Random, dim: int, degree: int, terms: int, fill: float = 0.7) -> tuple:
    """Vector field with a share fill of its coordinates populated, at least one."""
    populated = rng.sample(range(dim), max(1, round(fill * dim)))
    return tuple(poly(rng, dim, degree, terms) if i in populated else {} for i in range(dim))


def is_lyndon(word: tuple) -> bool:
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


@lru_cache(maxsize=None)
def lyndon_words(alphabet: int, length: int) -> list:
    words = [()]
    for _ in range(length):
        words = [w + (a,) for w in words for a in range(alphabet)]
    return [w for w in words if is_lyndon(w)]


def standard_factorization(word: tuple) -> tuple:
    best = 1
    for k in range(2, len(word)):
        if word[k:] < word[best:]:
            best = k
    return word[:best], word[best:]


def elem(rng: Random, dim: int, lengths, degree: int, terms: int) -> dict:
    """Element with one random word of each given length (1 means a full field)."""
    out: dict = {}
    for length in lengths:
        if length == 1:
            out.update(elem_of_vf(vf(rng, dim, degree, terms)))
        else:
            out[rng.choice(lyndon_words(dim, length))] = poly(rng, dim, degree, terms)
    return out


def classical_comps(rng: Random, k: int, dim: int, degree: int, terms: int, density: float,
                    shape: Random | None = None) -> dict:
    """Random classical k-field: every singleton and, of each larger size, a
    share density of the index sets populated, chosen by shape (rng if None)."""
    shape = shape or rng
    support = []
    for size in range(1, k + 1):
        same = [phi for phi in all_subsets(k) if len(phi) == size]
        support += same if size == 1 else shape.sample(same, ceil(density * len(same)))
    return {phi: elem_of_vf(vf(rng, dim, degree, terms)) for phi in support}


def word(rng: Random, k: int, length: int) -> list:
    return [rng.randrange(k - 1) for _ in range(length)]


def spread(count: int, low: int, high: int) -> list:
    """count integers evenly spaced over low..high.  Sizes that set an op's
    cost are spread this way rather than drawn, so the cost of a pass
    hardly depends on the seed."""
    width = (high - low + 1) / count
    return [low + int((i + 0.5) * width) for i in range(count)]


def nth_permutation(k: int, n: int) -> list:
    """The n-th permutation of range(k) in lexicographic order."""
    items, out = list(range(k)), []
    for place in range(k, 0, -1):
        block = factorial(place - 1)
        out.append(items.pop(n // block))
        n %= block
    return out


def chain_comps(vectors, perm) -> dict:
    """Flag chain {0} < {0,1} < ... carrying vectors, relabeled by perm."""
    return {frozenset(perm[i] for i in range(m + 1)): elem_of_vf(v) for m, v in enumerate(vectors) if any(v)}


# text ------------------------------------------------------------------------


def _frac(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_text(p: dict) -> str:
    if not p:
        return "0"
    out = ""
    for e, c in sorted(p.items()):
        mono = "*".join(f"x{i}" if n == 1 else f"x{i}^{n}" for i, n in enumerate(e) if n)
        body = _frac(abs(c)) + (f"*{mono}" if mono else "")
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def word_text(w: tuple) -> str:
    if len(w) == 1:
        return f"d{w[0]}"
    u, v = standard_factorization(w)
    return f"F[{word_text(u)},{word_text(v)}]"


def elem_text(e: dict) -> str:
    if not e:
        return "0"
    return " + ".join(f"({poly_text(p)})*{word_text(w)}" for w, p in sorted(e.items()))


def vf_text(v: tuple) -> str:
    return elem_text({(i,): p for i, p in enumerate(v) if p})


def kfield_text(k: int, comps: dict) -> str:
    parts = [f"arity={k}"]
    for phi in sorted(comps, key=lambda s: tuple(sorted(s))):
        parts.append(f"{','.join(map(str, sorted(phi)))}: {elem_text(comps[phi])}")
    return "K{" + "; ".join(parts) + "}"


def pv_text(pv: dict) -> str:
    if not pv:
        return "0"
    return " + ".join(
        f"({poly_text(p)})*" + " ^ ".join(f"d{i}" for i in idx) for idx, p in sorted(pv.items())
    )
