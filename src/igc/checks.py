"""Verification suite behind `igc check`.

Each entry recomputes one family of identities at desk scale (dimension
<= 3, degree <= 4, exact rationals) and returns a CheckReport.  Sampling is
deterministic per seed, so two runs with the same flags print the same
thing.  Dimensions are fixed per check -- the suite does not depend on the
session chart.

Every case goes through one call, `report.compare(inputs, expected, got)`,
which counts it and, when the values differ, records both as text; a case
that tests several things compares them together, as a tuple or as a list
of what broke against [].  Only folded-in oracle sub-reports touch
`report.cases` and `report.failures` directly.
"""

from __future__ import annotations

import time
from itertools import combinations
from random import Random

from .chart_algebra import ChartSpec, Poly, vf_apply, vf_bracket
from .free_lr import (
    FreeLRElem,
    RelativeSpec,
    anchor_apply,
    free_bracket,
    lie_bracket_ext,
    lyndon_basis,
    project_to_lie,
    vertical_reduce,
)
from .groupoid import (
    KField,
    act,
    act_transposition,
    compose,
    cup,
    homotopy,
    is_trivial_homotopy,
    lie_derivative_thin,
    reduce_to_polyvector,
    strong_diff,
    trivial_by_disjoint_pairs,
)
from .lyndon import tensor_expansion
from .oracle import (
    CheckReport,
    oracle_bracket,
    oracle_lyndon_count,
    oracle_multiplicativity,
    oracle_quotient_lowdegree,
    random_kfield,
    random_poly,
    random_vfield,
)
from .parsing import Session, as_kfield, as_pv, parse_expression
from .polyvector import Polyvector, degree, schouten, wedge
from .weil import kfield_to_weil, weil_to_kfield


def _rng(seed: int, salt: int) -> Random:
    return Random(seed * 1000003 + salt)


def _random_elem(rng: Random, chart: ChartSpec, max_len: int = 2) -> FreeLRElem:
    """Element mixing a random degree-1 part with random longer monomials; max_len <= chart.max_degree."""
    terms = dict(FreeLRElem.from_vfield(chart, random_vfield(rng, chart.dim)).terms)
    for length in range(2, max_len + 1):
        words = lyndon_basis(chart.dim, length)
        if words:
            w = words[rng.randrange(len(words))]
            p = random_poly(rng, chart.dim)
            if p:
                terms[w] = p
    return FreeLRElem._make(chart, terms)


def check_weil_multiplicativity(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("weil-multiplicativity")
    rng = _rng(seed, 1)
    for idx in range(100):
        chart = ChartSpec(2 + idx % 2, max_degree)
        nu = random_kfield(rng, chart, 1 + idx % 3)
        sub = oracle_multiplicativity(nu, trials=2, rng=rng)
        report.cases += sub.cases
        report.failures.extend(sub.failures)
    return report


def check_weil_negative_control(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("weil-negative-control")
    rng = _rng(seed, 2)
    chart = ChartSpec(2, max_degree)
    nu = random_kfield(rng, chart, 2)
    sub = oracle_multiplicativity(nu, trials=4, rng=rng, corrupt=True)
    report.cases = sub.cases
    if sub.passed:
        report.record("corrupted top part", "multiplicativity failures", "none detected")
    return report


def check_weil_dictionary(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("weil-dictionary")
    rng = _rng(seed, 3)
    for idx in range(100):
        chart = ChartSpec(2 + idx % 2, max_degree)
        nu = random_kfield(rng, chart, 1 + idx % 3)
        report.compare(f"field #{idx}", nu, weil_to_kfield(kfield_to_weil(nu), chart))
    chart = ChartSpec(2, max_degree)
    for idx in range(20):
        a0, a1, a01 = (random_vfield(rng, 2) for _ in range(3))
        nu = KField.from_vfields(
            chart, 2, {frozenset({0}): a0, frozenset({1}): a1, frozenset({0, 1}): a01}
        )
        f = random_poly(rng, 2)
        want = vf_apply(a01, f) + vf_apply(a1, vf_apply(a0, f))
        report.compare(f"second-order part #{idx}", want, kfield_to_weil(nu).image(f).part({0, 1}))
    return report


def check_action_relations(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("action-relations")
    rng = _rng(seed, 4)
    for k in (3, 4):
        for idx in range(50):
            chart = ChartSpec(2, 8)
            nu = random_kfield(
                rng, chart, k, degree=1, terms=1, density=0.6 if k == 4 else 1.0
            )
            for flavor in ("free", "lie"):
                broken = [f"square s{i}" for i in range(k - 1) if act([i, i], nu, flavor) != nu]
                broken += [
                    f"braid s{i}"
                    for i in range(k - 2)
                    if act([i, i + 1, i], nu, flavor) != act([i + 1, i, i + 1], nu, flavor)
                ]
                if k >= 4 and act([0, 2], nu, flavor) != act([2, 0], nu, flavor):
                    broken.append("distant commutation")
                report.compare(f"k={k} #{idx} flavor={flavor}", [], broken)
    return report


def check_action_swap_k2(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("action-swap-k2")
    rng = _rng(seed, 5)
    chart = ChartSpec(2, max_degree)
    for idx in range(50):
        a0, a1, a01 = (random_vfield(rng, 2) for _ in range(3))
        nu = KField.from_vfields(
            chart, 2, {frozenset({0}): a0, frozenset({1}): a1, frozenset({0, 1}): a01}
        )
        want = KField.from_vfields(
            chart,
            2,
            {
                frozenset({0}): a1,
                frozenset({1}): a0,
                frozenset({0, 1}): a01 + oracle_bracket(a0, a1),
            },
        )
        report.compare(f"#{idx}", want, act([0], nu, "lie"))
    return report


def check_strong_difference(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("strong-difference-bracket")
    rng = _rng(seed, 6)
    chart = ChartSpec(3, max_degree)
    for idx in range(50):
        alpha = random_vfield(rng, 3)
        beta = random_vfield(rng, 3)
        one_a = KField.from_vfields(chart, 1, {frozenset({0}): alpha})
        one_b = KField.from_vfields(chart, 1, {frozenset({0}): beta})
        swapped = act([0], compose(one_a, one_b), "lie")
        diff = strong_diff(swapped, compose(one_b, one_a), (0, 1))
        report.compare(f"pipeline #{idx}", oracle_bracket(alpha, beta), diff.component_vfield({0}))
        report.compare(f"thin #{idx}", oracle_bracket(beta, alpha), lie_derivative_thin(beta, alpha))
    return report


def check_free_lie_rinehart(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("free-lie-rinehart")
    rng = _rng(seed, 7)
    chart = ChartSpec(2, max(4, max_degree))
    for idx in range(20):
        u = _random_elem(rng, chart)
        report.compare(f"alternation #{idx}", FreeLRElem.zero(chart), free_bracket(u, u))
    for idx in range(20):
        if idx % 2:
            x, y, z = (_random_elem(rng, chart, 1) for _ in range(3))
            z = z + FreeLRElem(chart, {lyndon_basis(2, 2)[0]: random_poly(rng, 2)})
        else:
            x, y, z = (_random_elem(rng, chart, 1) for _ in range(3))
        jac = (
            free_bracket(x, free_bracket(y, z))
            + free_bracket(y, free_bracket(z, x))
            + free_bracket(z, free_bracket(x, y))
        )
        report.compare(f"jacobi #{idx}", FreeLRElem.zero(chart), jac)
    for idx in range(50):
        x = _random_elem(rng, chart)
        y = _random_elem(rng, chart)
        f = random_poly(rng, 2)
        lhs = free_bracket(x, y * f) - free_bracket(x * f, y)
        rhs = y * anchor_apply(x, f) + x * anchor_apply(y, f)
        report.compare(f"leibniz #{idx}", rhs, lhs)
    for n in (1, 2, 3):
        for d in range(1, 6):
            # basis words and their distinct leading tensor words, against the necklace count
            words = lyndon_basis(n, d)
            leads = {min(tensor_expansion(w)) for w in words}
            want = (oracle_lyndon_count(n, d),) * 2
            report.compare(f"count n={n} d={d}", want, (len(words), len(leads)))
    return report


def check_lie_extension(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("lie-extension")
    rng = _rng(seed, 8)
    chart = ChartSpec(2, max(4, max_degree))
    for idx in range(30):
        u = _random_elem(rng, chart, 1)
        v = _random_elem(rng, chart, 1)
        want = FreeLRElem.from_vfield(chart, oracle_bracket(project_to_lie(u), project_to_lie(v)))
        report.compare(f"degree-1 #{idx}", want, lie_bracket_ext(u, v))
    for idx in range(20):
        # the derivation rule is stated for degree-1 first arguments; the
        # higher extension is a convention and not an identity
        x = _random_elem(rng, chart, 1)
        y = _random_elem(rng, chart, 2 if idx % 2 else 1)
        z = _random_elem(rng, chart, 1)
        lhs = lie_bracket_ext(x, free_bracket(y, z))
        rhs = free_bracket(lie_bracket_ext(x, y), z) + free_bracket(y, lie_bracket_ext(x, z))
        report.compare(f"derivation rule #{idx}", rhs, lhs)
    for idx in range(20):
        u = _random_elem(rng, chart)
        v = _random_elem(rng, chart)
        want = vf_bracket(project_to_lie(u), project_to_lie(v))
        report.compare(f"projection free #{idx}", want, project_to_lie(free_bracket(u, v)))
        report.compare(f"projection lie #{idx}", want, project_to_lie(lie_bracket_ext(u, v)))
    return report


def check_relative_cases(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("relative-cases")
    rng = _rng(seed, 9)
    chart = ChartSpec(2, max(4, max_degree))
    all_vertical = RelativeSpec(chart, frozenset({0, 1}))
    for idx in range(30):
        u = _random_elem(rng, chart, 1)
        v = _random_elem(rng, chart, 1)
        want = FreeLRElem.from_vfield(chart, oracle_bracket(project_to_lie(u), project_to_lie(v)))
        report.compare(f"collapse #{idx}", want, free_bracket(u, v, all_vertical))
    fully_free = RelativeSpec(chart, frozenset())
    for idx in range(20):
        u = _random_elem(rng, chart)
        v = _random_elem(rng, chart)
        report.compare(f"free #{idx}", free_bracket(u, v), free_bracket(u, v, fully_free))
    mixed = RelativeSpec(chart, frozenset({1}))
    for idx in range(15):
        tree = _random_tree(rng, chart, depth=2)
        # the normal form is stable and its long words avoid the vertical letter 1
        reduced = vertical_reduce(tree, mixed)
        vertical_long = [w for w in reduced.terms if len(w) >= 2 and 1 in w]
        got = (vertical_reduce(reduced, mixed), vertical_long)
        report.compare(f"normal form #{idx}", (reduced, []), got)
    for spec, d in (
        (all_vertical, 2),
        (fully_free, 2),
        (mixed, 2),
    ):
        sub = oracle_quotient_lowdegree(spec, d)
        report.cases += sub.cases
        report.failures.extend(sub.failures)
    return report


def _random_tree(rng: Random, chart: ChartSpec, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return ("gen", rng.randrange(chart.dim))
    kind = rng.choice(["bracket", "add", "scale"])
    if kind == "scale":
        return ("scale", random_poly(rng, chart.dim, degree=1), _random_tree(rng, chart, depth - 1))
    return (kind, _random_tree(rng, chart, depth - 1), _random_tree(rng, chart, depth - 1))


def check_homotopy(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("homotopy")
    rng = _rng(seed, 10)
    chart = ChartSpec(2, max(4, max_degree))
    for idx in range(20):
        a0, a1, a01 = (random_vfield(rng, 2) for _ in range(3))
        nu = KField.from_vfields(
            chart, 2, {frozenset({0}): a0, frozenset({1}): a1, frozenset({0, 1}): a01}
        )
        e0 = FreeLRElem.from_vfield(chart, a0)
        e1 = FreeLRElem.from_vfield(chart, a1)
        want = KField(chart, 1, {frozenset({0}): free_bracket(e0, e1) - lie_bracket_ext(e0, e1)})
        h = homotopy(nu, 0, 1)
        report.compare(f"h2 formula #{idx}", want, h)
        report.compare(f"projection #{idx}", KField.zero(chart, 1), _projection_at(h, 0))
    for k in (2, 3, 4):
        chart_k = ChartSpec(2, 8)
        nu = random_kfield(rng, chart_k, k, degree=1, terms=1)
        homotopies = {(i, j): homotopy(nu, i, j) for i in range(k) for j in range(i + 1, k)}
        report.compare(f"arity k={k}", [k - 1] * len(homotopies), [h.arity for h in homotopies.values()])
        for i, j in homotopies:
            free_side = _off_pair(act_transposition(nu, i, j, "free"), i, j)
            lie_side = _off_pair(act_transposition(nu, i, j, "lie"), i, j)
            report.compare(f"boundary lemma k={k} ({i},{j})", lie_side, free_side)
        for (i, j), h in homotopies.items():
            # difference slots (those containing i) always project to zero;
            # the remaining slots copy plain boundary components
            report.compare(f"projection k={k} ({i},{j})", KField.zero(chart_k, k - 1), _projection_at(h, i))
    return report


def _off_pair(nu: KField, i: int, j: int) -> KField:
    """The components of nu whose index sets do not contain both i and j."""
    return KField(nu.chart, nu.arity, {phi: c for phi, c in nu.components.items() if not {i, j} <= phi})


def _projection_at(nu: KField, i: int) -> KField:
    """The degree-1 parts of the components of nu whose index sets contain i."""
    return KField.from_vfields(
        nu.chart, nu.arity, {phi: project_to_lie(c) for phi, c in nu.components.items() if i in phi}
    )


def check_trivial_agreement(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("trivial-homotopy-agreement")
    rng = _rng(seed, 11)
    chart = ChartSpec(2, 8)
    for idx in range(100):
        k = 2 + idx % 3
        style = idx % 4
        if style == 0:
            nu = random_kfield(rng, chart, k, degree=1, terms=1, density=0.7)
        elif style == 1:
            alpha = random_vfield(rng, 2)
            nu = KField.from_vfields(
                chart, k, {frozenset(c): alpha for s in range(1, k + 1) for c in combinations(range(k), s)}
            )
        elif style == 2:
            base = KField.from_vfields(chart, 1, {frozenset({0}): random_vfield(rng, 2)})
            nu = base
            for _ in range(k - 1):
                extra = KField.from_vfields(chart, 1, {frozenset({0}): random_vfield(rng, 2)})
                nu = cup(nu, extra)
        else:
            parts = [
                KField.from_vfields(chart, 1, {frozenset({0}): random_vfield(rng, 2)})
                for _ in range(k)
            ]
            nu = parts[0]
            for p in parts[1:]:
                nu = compose(nu, p)
        definitional = is_trivial_homotopy(nu)[0]
        report.compare(f"#{idx} style={style}", trivial_by_disjoint_pairs(nu)[0], definitional)
    return report


def check_cohomology(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("cohomology-reduction")
    rng = _rng(seed, 12)
    chart = ChartSpec(3, 8)
    for k in (2, 3, 4):
        fields = [random_vfield(rng, 3, degree=1, terms=1) for _ in range(k)]
        chain = KField.from_vfields(chart, 1, {frozenset({0}): fields[0]})
        for v in fields[1:]:
            chain = cup(chain, KField.from_vfields(chart, 1, {frozenset({0}): v}))
        # a degenerate chain entry (zero, or equal to the entry before it)
        # drops out, as in the degeneracy cases below
        want = Polyvector.zero(3)
        previous = None
        for v in fields:
            if v.is_zero() or v == previous:
                continue
            want = Polyvector.from_vfield(v) if previous is None else wedge(want, Polyvector.from_vfield(v))
            previous = v
        report.compare(f"chain k={k}", want, reduce_to_polyvector(chain))
        word = [rng.randrange(k - 1) for _ in range(3)]
        report.compare(f"permuted chain k={k}", want, reduce_to_polyvector(act(word, chain, "lie")))
    alpha = random_vfield(rng, 3, degree=1, terms=2)
    one = KField.from_vfields(chart, 1, {frozenset({0}): alpha})
    zero1 = KField.zero(chart, 1)
    want = Polyvector.from_vfield(alpha)
    for label, field in (
        ("alpha", one),
        ("alpha cup 0", cup(one, zero1)),
        ("alpha cup alpha", cup(one, one)),
        ("0 cup alpha", cup(zero1, one)),
    ):
        report.compare(f"degeneracy {label}", want, reduce_to_polyvector(field))
    for idx in range(20):
        u = random_vfield(rng, 3)
        v = random_vfield(rng, 3)
        report.compare(
            f"grade-1 bracket #{idx}",
            Polyvector.from_vfield(oracle_bracket(u, v)),
            schouten(Polyvector.from_vfield(u), Polyvector.from_vfield(v)),
        )
    for idx in range(50):
        p, q, r = (_random_monomial_pv(rng, 3) for _ in range(3))
        gp = degree(p), degree(q), degree(r)
        sp, sq, sr = (-d + 1 for d in gp)
        sign = -1 if ((sp - 1) * (sq - 1)) % 2 == 0 else 1
        report.compare(f"antisymmetry #{idx}", schouten(q, p) * sign, schouten(p, q))
        jac = (
            schouten(p, schouten(q, r))
            - schouten(schouten(p, q), r)
            - schouten(q, schouten(p, r)) * (1 if ((sp - 1) * (sq - 1)) % 2 == 0 else -1)
        )
        report.compare(f"jacobi #{idx}", Polyvector.zero(3), jac)
        leib = schouten(p, wedge(q, r)) - wedge(schouten(p, q), r) - wedge(
            q, schouten(p, r)
        ) * (1 if ((sp - 1) * sq) % 2 == 0 else -1)
        report.compare(f"wedge leibniz #{idx}", Polyvector.zero(3), leib)
        # wedge has degree -1 and the bracket degree 0; zero has every degree
        d = degree(p) + degree(q)
        w, s = wedge(p, q), schouten(p, q)
        got = (d - 1 if w.is_zero() else degree(w), d if s.is_zero() else degree(s))
        report.compare(f"degrees of wedge, schouten #{idx}", (d - 1, d), got)
    return report


def _random_monomial_pv(rng: Random, dim: int) -> Polyvector:
    grade = rng.randint(1, 3)
    idx = tuple(sorted(rng.sample(range(dim), grade)))
    coeff = random_poly(rng, dim, degree=1, terms=1)
    if coeff.is_zero():
        coeff = Poly.const(dim, 1)
    return Polyvector(dim, {idx: coeff})


def check_s_invariance(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("s-invariance")
    rng = _rng(seed, 13)
    chart = ChartSpec(2, 8)
    for idx in range(25):
        k = 2 + idx % 2
        m = 2 + (idx // 2) % 2
        mu = random_kfield(rng, chart, k, degree=1, terms=1)
        nu = random_kfield(rng, chart, m, degree=1, terms=1)
        word_k = [rng.randrange(k - 1) for _ in range(2)]
        word_m = [rng.randrange(m - 1) for _ in range(2)]
        combined = word_k + [k + i for i in word_m]
        for flavor in ("free", "lie"):
            lhs = act(combined, compose(mu, nu), flavor)
            rhs = compose(act(word_k, mu, flavor), act(word_m, nu, flavor))
            report.compare(f"compose #{idx} {flavor}", rhs, lhs)
    for idx in range(25):
        k = 2 + idx % 2
        mu = random_kfield(rng, chart, k, degree=1, terms=1)
        word_k = [rng.randrange(k - 1) for _ in range(2)]
        beta = random_vfield(rng, 2, degree=1, terms=1)
        one = KField.from_vfields(chart, 1, {frozenset({0}): beta})
        for flavor in ("free", "lie"):
            lhs = act(word_k, cup(mu, one), flavor)
            report.compare(f"cup m=1 #{idx} {flavor}", cup(act(word_k, mu, flavor), one), lhs)
        # second-block swap with an equal pair, where the factored action is a
        # pure relabeling
        pair = KField.from_vfields(chart, 2, {frozenset({0}): beta, frozenset({1}): beta})
        lhs = act(word_k + [k], cup(mu, pair), "lie")
        report.compare(f"cup m=2 #{idx}", cup(act(word_k, mu, "lie"), pair), lhs)
    return report


def check_parse_roundtrip(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("parse-roundtrip")
    rng = _rng(seed, 14)
    chart = ChartSpec(2, max(4, max_degree))
    session = Session(chart)
    for idx in range(40):
        kind = idx % 4
        if kind == 0:
            value = random_poly(rng, 2)
        elif kind == 1:
            value = _random_elem(rng, chart)
        elif kind == 2:
            a = KField.from_vfields(chart, 1, {frozenset({0}): random_vfield(rng, 2)})
            b = KField.from_vfields(chart, 1, {frozenset({0}): random_vfield(rng, 2)})
            value = cup(a, b) if idx % 2 else compose(a, b)
            if idx % 3 == 0:
                value = act([0], value, "free")
        else:
            p = Polyvector.from_vfield(random_vfield(rng, 2))
            q = Polyvector.from_vfield(random_vfield(rng, 2))
            value = wedge(p, q) if idx % 2 else p + q
        text = str(value)
        reparsed = parse_expression(text, session)
        if isinstance(value, Polyvector):
            reparsed = as_pv(reparsed, chart)
        elif isinstance(value, KField):
            reparsed = as_kfield(reparsed, chart)
        report.compare(f"#{idx}: {text}", value, reparsed)
    return report


CHECKS = [
    ("weil-multiplicativity", check_weil_multiplicativity),
    ("weil-negative-control", check_weil_negative_control),
    ("weil-dictionary", check_weil_dictionary),
    ("action-relations", check_action_relations),
    ("action-swap-k2", check_action_swap_k2),
    ("strong-difference-bracket", check_strong_difference),
    ("free-lie-rinehart", check_free_lie_rinehart),
    ("lie-extension", check_lie_extension),
    ("relative-cases", check_relative_cases),
    ("homotopy", check_homotopy),
    ("trivial-homotopy-agreement", check_trivial_agreement),
    ("cohomology-reduction", check_cohomology),
    ("s-invariance", check_s_invariance),
    ("parse-roundtrip", check_parse_roundtrip),
]

CHECK_NAMES = [name for name, _ in CHECKS]


def run_suite(
    seed: int = 0,
    max_degree: int = 4,
    only: str | None = None,
    invert: str | None = None,
) -> list[CheckReport]:
    for name in (only, invert):
        if name is not None and name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    reports = []
    for name, fn in CHECKS:
        if only is not None and name != only:
            continue
        start = time.perf_counter()
        report = fn(seed, max_degree)
        report.seconds = time.perf_counter() - start
        if invert == name:
            if report.passed:
                report.failures.append(("inverted", "failure", "pass"))
            else:
                report.failures.clear()
        reports.append(report)
    return reports
