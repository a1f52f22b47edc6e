"""Independent brute-force verifiers and the random sampling policy.

Each oracle recomputes its target through a different route than the code it
checks: the morphism multiplicativity check re-derives subset operators and
multiplies Weil elements with its own convolution; the bracket oracle is the
raw coordinate formula on polynomial coefficients; word counts come from the
necklace formula; and the low-degree quotient check builds the relation
ideal inside the tensor algebra and compares ranks by Gaussian elimination.

Sampling policy: rational coefficients with numerator and denominator
bounded by 9, polynomial degree <= 2, chart dimension <= 3.  Everything is
deterministic given the Random instance handed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from random import Random
from typing import Mapping, Sequence

from .chart_algebra import ChartSpec, Poly, VField, _checked, _int, _reduced, _same_chart, _var_key, vf_apply
from .errors import DomainError
from .free_lr import FreeLRElem, RelativeSpec
from .groupoid import KField, Subset


@dataclass
class CheckReport:
    """Outcome of one verification run; empty failures means pass.

    `seconds` is the wall time `run_suite` measured for the run; it takes no
    part in equality, repr or JSON, so the printed report does not change
    from run to run.
    """

    name: str
    cases: int = 0
    failures: list = field(default_factory=list)
    seconds: float = field(default=0.0, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, inputs, expected, got):
        self.failures.append((inputs, expected, got))

    def compare(self, inputs, expected, got):
        """Count one case; record it with both values as text when got != expected.

        A passing case is not rendered: str of a large value is costly.
        """
        self.cases += 1
        if got != expected:
            self.record(inputs, str(expected), str(got))

    def to_json(self):
        return {
            "name": self.name,
            "cases": self.cases,
            "passed": self.passed,
            "failures": [
                {"inputs": str(i), "expected": str(e), "got": str(g)}
                for i, e, g in self.failures
            ],
        }


# the constructor `dataclass` generates, behind the public boundary's checks
CheckReport.__init__ = _checked(CheckReport.__init__)


# ---------------------------------------------------------------------------
# sampling


# every sampled denominator divides lcm(1..9)
_SAMPLE_DEN = 2520


def random_poly(rng: Random, dim: int, degree: int = 2, terms: int = 3) -> Poly:
    """Sum of `terms` random monomials of degree <= degree.

    Each monomial draws its degree, then its variables, then a coefficient
    randint(-9, 9) / randint(1, 9); the sums are kept over the common
    denominator 2520 on packed monomial keys.
    """
    acc: dict[int, int] = {}
    for _ in range(terms):
        key = 0
        for _ in range(rng.randint(0, degree)):
            key += _var_key(rng.randrange(dim))
        n = rng.randint(-9, 9)
        acc[key] = acc.get(key, 0) + n * (_SAMPLE_DEN // rng.randint(1, 9))
    return _reduced(dim, {k: c for k, c in acc.items() if c}, _SAMPLE_DEN)


def random_vfield(rng: Random, dim: int, degree: int = 2, terms: int = 2) -> VField:
    return VField([random_poly(rng, dim, degree, terms) for _ in range(dim)])


def random_kfield(
    rng: Random,
    chart: ChartSpec,
    arity: int,
    degree: int = 2,
    terms: int = 2,
    density: float = 1.0,
) -> KField:
    """Classical field with random components; singletons always populated."""
    comps: dict[Subset, FreeLRElem] = {}
    for size in range(1, arity + 1):
        for phi in combinations(range(arity), size):
            if size > 1 and rng.random() > density:
                continue
            v = random_vfield(rng, chart.dim, degree, terms)
            if not v.is_zero():
                comps[frozenset(phi)] = FreeLRElem.from_vfield(chart, v)
    return KField._make(chart, arity, comps)


# ---------------------------------------------------------------------------
# bracket oracle


@_checked
def oracle_bracket(u: VField, v: VField) -> VField:
    """Coordinate-formula bracket [u,v]^i = u(v^i) - v(u^i), written out raw."""
    n = u.dim
    _same_chart(v.dim, n, "oracle_bracket argument", "v")
    a, b = u.coeffs, v.coeffs
    coeffs = []
    for i in range(n):
        acc = Poly.zero(n)
        for j in range(n):
            acc = acc + a[j] * b[i].derive(j) - b[j] * a[i].derive(j)
        coeffs.append(acc)
    return VField(coeffs)


# ---------------------------------------------------------------------------
# Lyndon counting oracle


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def oracle_lyndon_count(n: int, d: int) -> int:
    """Necklace formula (1/d) * sum_{e | d} mu(e) * n^(d/e)."""
    _int(n, "alphabet size", 1)
    _int(d, "word length", 1)
    total = sum(_mobius(e) * n ** (d // e) for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


# ---------------------------------------------------------------------------
# morphism multiplicativity oracle


def _partitions(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        for idx in range(len(sub)):
            yield sub[:idx] + (sub[idx] | {first},) + sub[idx + 1 :]
        yield sub + (frozenset({first}),)


def _operator_image(
    fields: Mapping[Subset, VField], arity: int, f: Poly, corrupt: bool = False
) -> dict[Subset, Poly]:
    """Subset-indexed image of f, recomputed by brute-force block enumeration."""
    dim = f.dim
    # the value of each ordered block chain, by the chain: the empty chain is f
    chains: dict[tuple[Subset, ...], Poly] = {(): f}
    out: dict[Subset, Poly] = {}
    if not f.is_zero():
        out[frozenset()] = f
    for size in range(1, arity + 1):
        for phi in combinations(range(arity), size):
            total = Poly.zero(dim)
            for blocks in _partitions(phi):
                if all(b in fields for b in blocks):
                    total = total + _chain_value(chains, fields, tuple(sorted(blocks, key=min)))
            if not total.is_zero():
                out[frozenset(phi)] = total
    if corrupt:
        top = frozenset(range(arity))
        bad = f.derive(0) * f.derive(0)
        out[top] = out.get(top, Poly.zero(dim)) + bad
        if out[top].is_zero():
            del out[top]
    return out


def _chain_value(chains: dict, fields: Mapping[Subset, VField], chain: tuple[Subset, ...]) -> Poly:
    """X_{b_m}(...X_{b_1}(f)) for the chain (b_1, ..., b_m), each prefix taken once from the table."""
    val = chains.get(chain)
    if val is None:
        val = chains[chain] = vf_apply(fields[chain[-1]], _chain_value(chains, fields, chain[:-1]))
    return val


def _convolve(a: dict[Subset, Poly], b: dict[Subset, Poly], dim: int) -> dict[Subset, Poly]:
    out: dict[Subset, Poly] = {}
    for phi, p in a.items():
        for psi, q in b.items():
            if phi & psi:
                continue
            key = phi | psi
            s = out.get(key, Poly.zero(dim)) + p * q
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return out


@_checked
def oracle_multiplicativity(
    nu: KField, trials: int, rng: Random, corrupt: bool = False
) -> CheckReport:
    """Probe image(f*g) = image(f)*image(g) for random low-degree f, g.

    The image is rebuilt here from the component fields; with corrupt=True a
    non-derivation term is injected into the top part, which must be caught.
    """
    report = CheckReport("multiplicativity")
    if not nu.is_classical():
        raise DomainError("oracle_multiplicativity needs a classical field")
    dim = nu.chart.dim
    fields = {phi: nu.component_vfield(phi) for phi in nu.support()}
    for _ in range(_int(trials, "trial count", 0)):
        f = random_poly(rng, dim, degree=2)
        g = random_poly(rng, dim, degree=2)
        report.cases += 1
        lhs = _operator_image(fields, nu.arity, f * g, corrupt)
        rhs = _convolve(
            _operator_image(fields, nu.arity, f, corrupt),
            _operator_image(fields, nu.arity, g, corrupt),
            dim,
        )
        if lhs != rhs:
            bad = sorted(
                set(lhs) | set(rhs),
                key=lambda s: tuple(sorted(s)),
            )
            keys = [s for s in bad if lhs.get(s) != rhs.get(s)]
            report.record((str(f), str(g)), "equal images", f"parts differ at {[sorted(s) for s in keys]}")
    return report


# ---------------------------------------------------------------------------
# low-degree quotient oracle

Letter = tuple[tuple[int, ...], int]  # (monomial exponents, generator index)
WordVec = dict[tuple[int, ...], int]  # tensor words over letter ids, integral coefficients


class _QuotientModel:
    """Weight-graded slice of the relation quotient, built in the tensor algebra."""

    def __init__(self, spec: RelativeSpec, d: int, weight: int):
        self.spec = spec
        self.d = d
        self.weight = weight
        self.dim = spec.chart.dim
        qcap = max(weight + d, 0)
        self.monomials = self._monomials_up_to(qcap + 1)
        self.letters: list[Letter] = [
            (m, j) for m in self.monomials for j in range(self.dim)
        ]
        self.letter_id = {let: i for i, let in enumerate(self.letters)}

    def _monomials_up_to(self, q: int) -> list[tuple[int, ...]]:
        out = []
        for exps in product(range(q + 1), repeat=self.dim):
            if sum(exps) <= q:
                out.append(exps)
        out.sort(key=lambda e: (sum(e), e))
        return out

    def _letter_degree(self, lid: int) -> int:
        return sum(self.letters[lid][0])

    def _scaled_letter(self, coeff: int, mono: tuple[int, ...], j: int) -> WordVec:
        if coeff == 0:
            return {}
        lid = self.letter_id.get((mono, j))
        if lid is None:
            raise DomainError("monomial degree cap too small for the requested window")
        return {(lid,): coeff}

    @staticmethod
    def _add(acc: WordVec, other: WordVec, scale: int = 1):
        for w, c in other.items():
            s = acc.get(w, 0) + c * scale
            if s:
                acc[w] = s
            else:
                acc.pop(w, None)

    @staticmethod
    def _comm(a: WordVec, b: WordVec) -> WordVec:
        out: WordVec = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                for word, sign in ((w1 + w2, 1), (w2 + w1, -1)):
                    s = out.get(word, 0) + sign * c1 * c2
                    if s:
                        out[word] = s
                    else:
                        out.pop(word, None)
        return out

    def _derive_mono(self, mono: tuple[int, ...], j: int) -> tuple[int, tuple[int, ...]]:
        e = mono[j]
        if e == 0:
            return 0, mono
        return e, mono[:j] + (e - 1,) + mono[j + 1 :]

    def _letter_action(self, lid: int, f: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """Letter (m, j) acting on monomial f: m * df/dx_j as (coeff, monomial)."""
        m, j = self.letters[lid]
        c, df = self._derive_mono(f, j)
        if c == 0:
            return 0, f
        return c, tuple(a + b for a, b in zip(m, df))

    def _classical_bracket(self, g: int, x: int) -> WordVec:
        """Coordinate bracket of two letters as a combination of letters."""
        (mg, a), (mx, b) = self.letters[g], self.letters[x]
        out: WordVec = {}
        c1, d1 = self._derive_mono(mx, a)
        if c1:
            self._add(out, self._scaled_letter(c1, tuple(p + q for p, q in zip(mg, d1)), b))
        c2, d2 = self._derive_mono(mg, b)
        if c2:
            self._add(out, self._scaled_letter(-c2, tuple(p + q for p, q in zip(mx, d2)), a))
        return out

    def _base_relations(self, weight: int) -> list[WordVec]:
        """Leibniz and vertical-contraction generators at one exact weight."""
        out: list[WordVec] = []
        target = weight + 2
        vertical = self.spec.vertical
        for x in range(len(self.letters)):
            px = self._letter_degree(x)
            if px > target:
                continue
            for y in range(len(self.letters)):
                py = self._letter_degree(y)
                if px + py > target:
                    continue
                q = target - px - py
                if q >= 1:
                    for f in self.monomials:
                        if sum(f) != q:
                            continue
                        vec = self._leibniz_vector(x, y, f)
                        if vec:
                            out.append(vec)
                # vertical contraction needs no function factor
                if q == 0 and self.letters[x][1] in vertical:
                    vec = self._comm({(x,): 1}, {(y,): 1})
                    self._add(vec, self._classical_bracket(x, y), -1)
                    if vec:
                        out.append(vec)
        return out

    def _leibniz_vector(self, x: int, y: int, f: tuple[int, ...]) -> WordVec:
        mx, jx = self.letters[x]
        my, jy = self.letters[y]
        fy = (tuple(a + b for a, b in zip(f, my)), jy)
        fx = (tuple(a + b for a, b in zip(f, mx)), jx)
        vec = self._comm({(x,): 1}, {(self.letter_id[fy],): 1})
        self._add(vec, self._comm({(self.letter_id[fx],): 1}, {(y,): 1}), -1)
        cx, mono_x = self._letter_action(x, f)
        if cx:
            self._add(vec, self._scaled_letter(cx, tuple(a + b for a, b in zip(mono_x, my)), jy), -1)
        cy, mono_y = self._letter_action(y, f)
        if cy:
            self._add(vec, self._scaled_letter(cy, tuple(a + b for a, b in zip(mono_y, mx)), jx), -1)
        return vec

    def _lie_spanning(self) -> list[WordVec]:
        """Right-normed brackets of letter tuples at the target weight."""
        out: list[WordVec] = []
        for length in range(1, self.d + 1):
            degree_needed = self.weight + length
            if degree_needed < 0:
                continue
            for tup in product(range(len(self.letters)), repeat=length):
                if sum(self._letter_degree(l) for l in tup) != degree_needed:
                    continue
                vec: WordVec = {(tup[-1],): 1}
                for lid in reversed(tup[:-1]):
                    vec = self._comm({(lid,): 1}, vec)
                if vec:
                    out.append(vec)
        return out

    def _relations(self) -> list[WordVec]:
        out = list(self._base_relations(self.weight))
        if self.d >= 3:
            for w_base in range(-2, self.weight + 2):
                deg_z = self.weight - w_base + 1
                zs = [
                    lid
                    for lid in range(len(self.letters))
                    if self._letter_degree(lid) == deg_z
                ]
                for vec in self._base_relations(w_base):
                    for z in zs:
                        closed = self._comm({(z,): 1}, vec)
                        closed = {w: c for w, c in closed.items() if len(w) <= self.d}
                        if closed:
                            out.append(closed)
        return out

    @staticmethod
    def _rank(vectors: list[dict[tuple[int, ...], int | Fraction]]) -> int:
        """Rank over Q by fraction-free elimination on the least word of each row.

        Rows are scaled to coprime ints.  Eliminating a pivot column takes
        p*v - c*row, a nonzero multiple of v - (c/p)*row, so the pivot columns
        and the rank are those of elimination over Q.
        """
        pivots: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        rank = 0
        for vec in vectors:
            v = _primitive(vec)
            while v:
                col = min(v, key=lambda w: (len(w), w))
                row = pivots.get(col)
                if row is None:
                    pivots[col] = _primitive(v)
                    rank += 1
                    break
                p, c = row[col], v.pop(col)
                g = math.gcd(p, c)
                p, c = p // g, c // g
                v = {w: p * x for w, x in v.items()}
                for w, pc in row.items():
                    if w != col:
                        s = v.get(w, 0) - c * pc
                        if s:
                            v[w] = s
                        else:
                            v.pop(w, None)
        return rank

    def quotient_dimension(self) -> int:
        return self._rank(self._lie_spanning()) - self._rank(self._relations())

    def expected_dimension(self) -> int:
        n = self.dim
        horizontal = n - len(self.spec.vertical)
        total = 0
        for length in range(1, self.d + 1):
            q = self.weight + length
            if q < 0:
                continue
            coeff_dim = math.comb(n + q - 1, q)
            if length == 1:
                total += coeff_dim * n
            elif horizontal >= 1:
                total += coeff_dim * oracle_lyndon_count(horizontal, length)
        return total


def _primitive(vec: Mapping[tuple[int, ...], int | Fraction]) -> dict[tuple[int, ...], int]:
    """A positive rational multiple of vec with coprime int entries."""
    den = math.lcm(*(c.denominator for c in vec.values()))
    out = {w: c.numerator * (den // c.denominator) for w, c in vec.items()}
    g = math.gcd(*out.values())
    return {w: c // g for w, c in out.items()} if g > 1 else out


@_checked
def oracle_quotient_lowdegree(
    spec: RelativeSpec, d: int, weights: Sequence[int] = (-1, 0, 1)
) -> CheckReport:
    """Compare relation-quotient ranks with the normal-form prediction.

    Works weight by weight (weight = coefficient degree minus bracket
    length, which every relation preserves), so each slice is a finite
    exact linear-algebra problem.
    """
    if spec.chart.dim > 2:
        raise DomainError("quotient oracle supports chart dimension <= 2")
    if _int(d, "filtration degree", 1) > 3:
        raise DomainError("quotient oracle supports filtration degree <= 3")
    report = CheckReport("quotient-lowdegree")
    for w in weights:
        model = _QuotientModel(spec, d, w)
        got = model.quotient_dimension()
        want = model.expected_dimension()
        report.cases += 1
        if got != want:
            report.record(f"weight={w}", want, got)
    return report
