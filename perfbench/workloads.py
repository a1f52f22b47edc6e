"""The three benchmark workloads, each a list of ops with its own answer check.

An op is one call the benchmark times.  `run` does the work and nothing
else; `check` compares the result with an answer that does not come from the
timed code path and returns the printed form of the result for the output
digest.  `count` is how many user-visible operations the op stands for: a
check of the suite counts its cases, and `split` gives the time each of them
took in the op's last run, with when it began and ended by time.perf_counter.

Every op is built from the seed before timing starts.  The program receives
only the generated command strings and objects.
"""

from __future__ import annotations

import json
import re
import shlex
import time
from dataclasses import dataclass
from math import factorial
from random import Random
from typing import Any, Callable

import gen
import ref
from hostspeed import HOST
from igc import (
    ChartSpec,
    FreeLRElem,
    KField,
    LyndonWord,
    NotFlagReducibleError,
    Poly,
    VField,
    act,
    act_transposition,
    free_bracket,
    homotopy,
    is_trivial_homotopy,
    lie_bracket_ext,
    oracle_bracket,
    reduce_to_polyvector,
)
from igc.checks import run_suite
from igc.cli import UsageError, run_command
from igc.errors import DomainError
from igc.oracle import CheckReport
from igc.parsing import ParseError, Session, as_elem, as_kfield, as_pv, parse_expression

WORKLOADS = ("check-suite", "session-mix", "high-arity")

# Ops the traced run does not repeat untraced for trace_overhead: this check
# alone takes most of a suite pass at the seed commit.
NO_REFERENCE = {"checks.weil-dictionary"}


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, str]]
    count: int = 1
    split: Callable[[], list[tuple[float, float, float]]] | None = None


# igc values from the plain containers of ref.py --------------------------------


def to_vfield(dim: int, v: tuple) -> VField:
    return VField([Poly(dim, p) for p in v])


def to_elem(chart: ChartSpec, e: dict) -> FreeLRElem:
    return FreeLRElem(chart, {LyndonWord(w): Poly(chart.dim, p) for w, p in e.items()})


def to_kfield(chart: ChartSpec, k: int, comps: dict) -> KField:
    return KField(chart, k, {phi: to_elem(chart, e) for phi, e in comps.items()})


def vf_of(v: VField) -> tuple:
    return tuple(ref.poly_of(c) for c in v.coeffs)


def _exc_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# check-suite -------------------------------------------------------------------

# Two checks of the suite are left out of the workload: igc fails them on
# some seeds, and an op that fails on a correct run of the benchmark would
# make every such seed report incorrect outputs.  Both are program defects:
#   trivial-homotopy-agreement: on style-0 fields whose disjoint components
#     are unequal constant multiples of one another (9/2*d0 and -2/3*d0 at
#     seed 4), is_trivial_homotopy answers True and trivial_by_disjoint_pairs
#     False (seeds 4, 18, 41, 53, 84, 96, 52750, 83657, 79971144);
#   cohomology-reduction: reduce_to_polyvector gives a nonzero class for a
#     chain with a zero vector field in it, whose wedge is 0 (seed 19).
# Replay one with `igc check --seed N --only NAME`.

# Case counts of every check run, fixed by the suite's construction and the
# same for every seed; a report with another count fails the gate.
CHECK_CASES = {
    "weil-multiplicativity": 200,
    "weil-negative-control": 4,
    "weil-dictionary": 120,
    "action-relations": 200,
    "action-swap-k2": 50,
    "strong-difference-bracket": 100,
    "free-lie-rinehart": 105,
    "lie-extension": 90,
    "relative-cases": 74,
    "homotopy": 63,
    "s-invariance": 125,
    "parse-roundtrip": 40,
}


class _CaseClock:
    """Times each case of a check from outside igc.

    While a check runs, this stands in as the `cases` attribute of igc's
    CheckReport and stamps the time of every increase of the check's own
    report; the sub-reports a check folds in carry other names and are not
    stamped.  The time from one stamp to the next is split evenly over the
    cases counted at the later one; the time before the first stamp goes to
    the first case and the time after the last to the last.
    """

    def __init__(self):
        self.name = None
        self.stamps: list[tuple[float, float, int]] = []
        self.last: list[tuple[float, float, float]] = []

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.get("cases", 0)

    def __set__(self, obj, value):
        added = value - obj.__dict__.get("cases", 0)
        obj.__dict__["cases"] = value
        if added > 0 and obj.name == self.name:
            self.stamps.append((HOST.clock(), time.perf_counter(), added))
            HOST.tick()

    def run(self, name: str, fn):
        self.name, self.stamps = name, []
        default = CheckReport.__dict__["cases"]
        CheckReport.cases = self
        start, wall = HOST.clock(), time.perf_counter()
        try:
            return fn()
        finally:
            end = HOST.clock(), time.perf_counter()
            CheckReport.cases = default
            self.last = []
            for n, (at, wall_at, added) in enumerate(self.stamps):
                until, wall_until = end if n == len(self.stamps) - 1 else (at, wall_at)
                self.last += [((until - start) / added, wall, wall_until)] * added
                start, wall = until, wall_until


_CLOCK = _CaseClock()


def check_suite(seed: int, names=tuple(CHECK_CASES)) -> list[Op]:
    """One op per check, run through run_suite exactly as `igc check --only`.

    The checks run in reverse suite order: the short ones then come before
    the long weil checks and their repeat runs after them, far enough apart
    in time that one burst of load on the host does not slow every run.
    """

    def op(name):
        def check(report):
            if isinstance(report, BaseException):
                return False, f"ERROR {name}: {_exc_text(report)}"
            if report.passed:
                line = f"ok {name} ({report.cases} cases)"
            else:
                line = f"FAIL {name}: {len(report.failures)} failure(s); first: {report.failures[0]}"
            return report.passed and report.cases == CHECK_CASES[name], line

        run = lambda: _CLOCK.run(name, lambda: run_suite(seed, 4, only=name)[0])  # noqa: E731
        return Op(f"checks.{name}", run, check, CHECK_CASES[name], lambda: _CLOCK.last)

    return [op(name) for name in reversed(names)]


# session-mix -------------------------------------------------------------------

_WITNESS_RE = re.compile(r"^false  witness: \((\d+),(\d+),\{([\d,]*)\},\{([\d,]*)\}\)$")


@dataclass
class Expect:
    code: int
    error: str | None = None  # exception class name for codes 1 and 2
    kind: str | None = None  # elem | kfield | pv | trivial | none
    value: Any = None
    projected: bool = False  # compare only the degree-1 part of each element


def _subset(text: str) -> frozenset:
    return frozenset(int(t) for t in text.split(",") if t)


class _SessionGen:
    """Command lines for one chart dimension, with the answers the lines must give."""

    def __init__(self, rng: Random, dim: int):
        self.rng = rng
        self.dim = dim
        self.names: dict[str, list] = {"vf": [], "kf": [], "pv": []}
        self.counter = 0
        self.turns: dict[tuple, int] = {}
        self.shapes: dict[tuple, Random] = {}

    def cycle(self, key, values):
        """The next of values, in turn.  Sizes and variants that set a
        command's cost take fixed shares of the lines this way instead of
        being drawn, so the mix hardly depends on the seed."""
        turn = self.turns.get((key, values), 0)
        self.turns[(key, values)] = turn + 1
        return values[turn % len(values)]

    # arguments: a bound name or a literal, in turn

    def vf_arg(self, degree=2):
        rng = self.rng
        if self.names["vf"] and self.cycle("name-vf", (True, False)):
            return rng.choice(self.names["vf"])
        v = gen.vf(rng, self.dim, degree, 2)
        return gen.vf_text(v), v

    def kf_arg(self, kmin, kmax):
        """A classical k-field with kmin <= k <= kmax: (text, k, comps)."""
        rng = self.rng
        bound = [(name, v) for name, v in self.names["kf"] if kmin <= v[0] <= kmax]
        if bound and self.cycle("name-kf", (True, False)):
            name, (k, comps) = rng.choice(bound)
            return name, k, comps
        k = self.arity(kmin, kmax, "field")
        comps = self.classical(k)
        return gen.kfield_text(k, comps), k, comps

    def arity(self, kmin, kmax, key=None):
        """Arity in kmin..kmax, each as often as the others."""
        return self.cycle(key, tuple(range(kmin, kmax + 1)))

    def classical(self, k, density=0.5, degree=2):
        return gen.classical_comps(self.rng, k, self.dim, degree, 2, density)

    def pv(self, grades=(1, 2)):
        rng = self.rng
        out: dict = {}
        for _ in range(self.cycle("pv-terms", (1, 2))):
            g = min(self.cycle("pv-grade", grades), self.dim)
            idx = tuple(sorted(rng.sample(range(self.dim), g)))
            out = ref.e_add(out, {idx: gen.poly(rng, self.dim, 2, 2)})
        return out

    def nontrivial(self, k):
        """Classical field whose singletons {0} and {1} are not parallel."""
        while True:
            comps = self.classical(k)
            if not ref.wedge2_is_zero(comps[frozenset({0})], comps[frozenset({1})], self.dim):
                return comps

    def trivial_nonchain(self, k, command):
        """Homotopy-trivial field that no relabeling moves into the flag chain:
        every singleton carries the same field, so disjoint pairs agree.
        Every other one of each arity also has a component on all indices.

        Reducing such a field searches every relabeling, the longest lines of
        the session, so their coefficients, which set that cost, come from a
        generator with a fixed seed, one per command, dimension and arity:
        the tail latency then hardly depends on the seed."""
        shape = self.shapes.setdefault((command, k), Random(f"{command} {self.dim} {k}"))
        a = gen.elem(shape, self.dim, [1], 2, 2)
        comps = {frozenset({i}): a for i in range(k)}
        if k > 2 and self.cycle(("nonchain-top", command, k), (True, False)):
            comps[frozenset(range(k))] = gen.elem(shape, self.dim, [1], 2, 2)
        return comps

    def chain(self, k):
        """Flag chain, relabeled at random half the time, and its class as a
        polyvector.  Each vector is new, zero or, after the first, the one
        before, with equal chances."""
        rng = self.rng
        vectors = []
        for _ in range(k):
            shape = rng.choice(["new", "zero", "repeat"] if vectors else ["new", "zero"])
            if shape == "repeat":
                vectors.append(vectors[-1])
            elif shape == "zero":
                vectors.append(tuple({} for _ in range(self.dim)))
            else:
                vectors.append(gen.vf(rng, self.dim, 1, 2))
        perm = list(range(k))
        if rng.random() < 0.5:
            rng.shuffle(perm)
        return gen.chain_comps(vectors, perm), ref.chain_class(vectors)

    # commands

    def line(self, kind):
        argv, expect = getattr(self, "cmd_" + kind.replace("-", "_"))()
        fmt = self.cycle(("format", kind), ("text", "json"))
        return shlex.join(argv), fmt, expect

    def cmd_bracket_lie(self):
        (tu, u), (tv, v) = self.vf_arg(), self.vf_arg()
        want = vf_of(oracle_bracket(to_vfield(self.dim, u), to_vfield(self.dim, v)))
        return ["bracket", "lie", tu, tv], Expect(0, kind="elem", value=ref.elem_of_vf(want))

    def cmd_bracket_free(self):
        rng, dim = self.rng, self.dim
        if self.cycle("bracket-free", (True, False)):
            (tu, u), (tv, v) = self.vf_arg(), self.vf_arg()
            want = ref.free_bracket_deg1(ref.elem_of_vf(u), ref.elem_of_vf(v), dim)
            return ["bracket", "free", tu, tv], Expect(0, kind="elem", value=want)
        u = gen.elem(rng, dim, [1, 2], 1, 2)
        v = gen.elem(rng, dim, rng.choice([[1], [1, 2]]), 1, 2)
        want = ref.lie_bracket(u, v, dim)
        argv = ["bracket", "free", gen.elem_text(u), gen.elem_text(v)]
        return argv, Expect(0, kind="elem", value=want, projected=True)

    def cmd_act(self):
        rng, dim = self.rng, self.dim
        text, k, comps = self.kf_arg(2, 4)
        w = gen.word(rng, k, self.cycle(("act", k), tuple(range(1, k * (k - 1) // 2 + 1))))
        flavor = self.cycle("act-flavor", ("free", "lie"))
        want = (k, ref.lie_act(w, comps, k, dim))
        argv = ["act", ",".join(map(str, w)), flavor, text]
        return argv, Expect(0, kind="kfield", value=want, projected=flavor == "free")

    def cmd_cup(self):
        text, k, mu = self.kf_arg(1, 3)
        m = self.arity(1, 4 - k, ("cup", k))
        nu = self.classical(m, density=0.0)
        want = dict(mu)
        for phi, e in nu.items():
            (s,) = phi
            want[frozenset(range(k)) | {k + s}] = e
        return ["cup", text, gen.kfield_text(m, nu)], Expect(0, kind="kfield", value=(k + m, want))

    def cmd_cup_undefined(self):
        """A second factor with components beyond its singletons."""
        text, k, _ = self.kf_arg(1, 2)
        m = self.arity(2, 4 - k, ("cup-undefined", k))
        return ["cup", text, gen.kfield_text(m, self.classical(m))], Expect(2, "CupUndefinedError")

    def cmd_compose(self):
        text_mu, k, mu = self.kf_arg(1, 3)
        text_nu, m, nu = self.kf_arg(1, 4 - k)
        want = dict(mu)
        want.update(ref.relabel(nu, {x: x + k for x in range(m)}))
        return ["compose", text_mu, text_nu], Expect(0, kind="kfield", value=(k + m, want))

    def sdiff_pair(self):
        """Arity, pair (i, j) and two fields that agree off the sets holding both."""
        rng, dim = self.rng, self.dim
        k = self.arity(2, 4, "sdiff")
        i, j = sorted(rng.sample(range(k), 2))
        mu = self.classical(k)
        nu = dict(mu)
        for phi in ref.all_subsets(k):
            if i in phi and j in phi and rng.random() < 0.5:
                nu[phi] = gen.elem(rng, dim, [1], 2, 2)
        return k, i, j, mu, nu

    def cmd_sdiff(self):
        k, i, j, mu, nu = self.sdiff_pair()
        argv = ["sdiff", gen.kfield_text(k, mu), gen.kfield_text(k, nu), str(i), str(j)]
        remaining = [x for x in range(k) if x != j]
        reindex = {old: new for new, old in enumerate(remaining)}
        want = {}
        for chi in ref.all_subsets(k):
            if j in chi:
                continue
            if i in chi:
                e = ref.e_add(mu.get(chi | {j}, {}), nu.get(chi | {j}, {}), -1)
            else:
                e = mu.get(chi, {})
            if e:
                want[frozenset(reindex[x] for x in chi)] = e
        return argv, Expect(0, kind="kfield", value=(k - 1, want))

    def cmd_sdiff_precondition(self):
        """Fields that also differ on a set without both of i and j."""
        k, i, j, mu, nu = self.sdiff_pair()
        outside = [phi for phi in ref.all_subsets(k) if not (i in phi and j in phi)]
        nu[self.rng.choice(outside)] = gen.elem(self.rng, self.dim, [1], 2, 2)
        argv = ["sdiff", gen.kfield_text(k, mu), gen.kfield_text(k, nu), str(i), str(j)]
        return argv, Expect(2, "FacePreconditionError")

    def cmd_face(self):
        text, k, comps = self.kf_arg(2, 4)
        i = self.rng.randrange(k)
        reindex = {old: new for new, old in enumerate(x for x in range(k) if x != i)}
        want = ref.relabel({phi: e for phi, e in comps.items() if i not in phi}, reindex)
        return ["face", text, str(i)], Expect(0, kind="kfield", value=(k - 1, want))

    def cmd_homotopy(self):
        text, k, comps = self.kf_arg(2, 4)
        i, j = sorted(self.rng.sample(range(k), 2))
        want = homotopy_answer(comps, k, i, j, self.dim)
        return ["homotopy", text, str(i), str(j)], Expect(0, kind="kfield", value=want)

    def cmd_trivial(self):
        k = self.arity(2, 4, "trivial")
        shape = self.cycle("trivial", ("nontrivial", "chain", "nonchain"))
        if shape == "nontrivial":
            comps = self.nontrivial(k)
            want = (False, (0, 1, frozenset({0}), frozenset({1})))
        elif shape == "chain":
            comps, _ = self.chain(k)
            want = (True, None)
        else:
            comps = self.trivial_nonchain(k, "trivial?")
            want = (True, None)
        return ["trivial?", gen.kfield_text(k, comps)], Expect(0, kind="trivial", value=want)

    def cmd_reduce(self):
        k = self.arity(1, 4, "reduce")
        comps, want = self.chain(k)
        return ["reduce", gen.kfield_text(k, comps)], Expect(0, kind="pv", value=want)

    def cmd_reduce_notclosed(self):
        k = self.arity(2, 4, "reduce-notclosed")
        return ["reduce", gen.kfield_text(k, self.nontrivial(k))], Expect(2, "NotClosedError")

    def cmd_reduce_nonchain(self):
        k = self.arity(2, 4, "reduce-nonchain")
        return ["reduce", gen.kfield_text(k, self.trivial_nonchain(k, "reduce"))], Expect(2, "NotFlagReducibleError")

    def pv_arg(self, grades):
        rng = self.rng
        if self.names["pv"] and self.cycle("name-pv", (True, False)):
            return rng.choice(self.names["pv"])
        p = self.pv(grades)
        return gen.pv_text(p), p

    def cmd_wedge(self):
        (tp, p), (tq, q) = self.pv_arg((1, 2)), self.pv_arg((1, 2))
        return ["wedge", tp, tq], Expect(0, kind="pv", value=ref.pv_wedge(p, q))

    def cmd_schouten(self):
        (tp, p), (tq, q) = self.pv_arg((1, 2, 3)), self.pv_arg((1, 2, 3))
        return ["schouten", tp, tq], Expect(0, kind="pv", value=ref.schouten(p, q, self.dim))

    def cmd_let(self, bind=True):
        rng = self.rng
        self.counter += 1
        kind = rng.choice(["vf", "kf", "pv"])
        name = f"{kind}{self.counter}"
        if kind == "vf":
            v = gen.vf(rng, self.dim, 2, 2)
            text, value = gen.vf_text(v), v
        elif kind == "kf":
            k = self.arity(1, 3, "let")
            comps = self.classical(k)
            text, value = gen.kfield_text(k, comps), (k, comps)
        else:
            p = self.pv()
            text, value = gen.pv_text(p), p
        if bind:
            self.names[kind].append((name, value))
        return ["let", name, "=", text], Expect(0, kind="none")

    def cmd_parse_error(self):
        """A line of one of the commands, in turn, with one expression
        argument replaced by text the parser rejects."""
        rng, dim = self.rng, self.dim
        kind = self.cycle("parse-error", SESSION_COMMANDS)
        argv, _ = self.cmd_let(bind=False) if kind == "let" else getattr(self, "cmd_" + kind.replace("-", "_"))()
        at = rng.choice(_EXPRESSION_ARGS[argv[0]])
        v = argv[at]
        argv[at] = rng.choice(
            [
                f"({v}",
                f"{v} +",
                f"x{dim + rng.randint(0, 5)}*d0",
                f"d{dim + rng.randint(0, 5)}",
                f"undefined_{rng.randint(0, 99)} + {v}",
            ]
        )
        return argv, Expect(1, "ParseError")


def homotopy_answer(comps: dict, k: int, i: int, j: int, dim: int):
    """Exact homotopy of a classical field: the strong difference of the
    free- and classical-flavored (i j) swaps."""
    sigma = ref.transposition(i, j)
    free_side = ref.swap_action(comps, k, sigma, lambda a, b: ref.free_bracket_deg1(a, b, dim))
    lie_side = ref.swap_action(comps, k, sigma, lambda a, b: ref.lie_bracket(a, b, dim))
    remaining = [x for x in range(k) if x != j]
    reindex = {old: new for new, old in enumerate(remaining)}
    out = {}
    for chi in ref.all_subsets(k):
        if j in chi:
            continue
        if i in chi:
            e = ref.e_add(free_side.get(chi | {j}, {}), lie_side.get(chi | {j}, {}), -1)
        else:
            e = free_side.get(chi, {})
        if e:
            out[frozenset(reindex[x] for x in chi)] = e
    return k - 1, out


def _decode_json(kind: str, payload, session: Session):
    def poly(text):
        return ref.poly_of(parse_expression(text, session))

    def elem(items):
        return {tuple(t["word"]): poly(t["coeff"]) for t in items}

    if kind == "elem":
        return elem(payload)
    if kind == "kfield":
        return payload["arity"], {_subset(key): elem(v) for key, v in payload["components"].items()}
    if kind == "pv":
        out = {}
        for terms in payload["grades"].values():
            for t in terms:
                out[tuple(int(f[1:]) for f in t["factors"])] = poly(t["coeff"])
        return out
    if kind == "trivial":
        w = payload["witness"]
        return payload["trivial"], None if w is None else (w[0], w[1], frozenset(w[2]), frozenset(w[3]))
    raise ValueError(kind)


def _decode_text(kind: str, text: str, session: Session):
    chart = session.chart
    if kind == "trivial":
        if text == "true":
            return True, None
        m = _WITNESS_RE.match(text)
        if not m:
            raise ValueError(f"unreadable trivial? output {text!r}")
        return False, (int(m.group(1)), int(m.group(2)), _subset(m.group(3)), _subset(m.group(4)))
    value = parse_expression(text, session)
    if kind == "elem":
        return ref.elem_of(as_elem(value, chart))
    if kind == "kfield":
        kf = as_kfield(value, chart)
        return kf.arity, ref.comps_of(kf)
    if kind == "pv":
        return ref.pv_of(as_pv(value, chart))
    raise ValueError(kind)


def _matches(expect: Expect, got, dim: int) -> bool:
    if not expect.projected:
        return got == expect.value
    if expect.kind == "elem":
        return ref.elem_of_vf(ref.projection(got, dim)) == expect.value
    (k, comps), (wk, wcomps) = got, expect.value
    return k == wk and ref.project_comps(comps, dim) == wcomps


# The commands of a session, each as often as the others, and the five ways a
# line ends in exit 1 or 2, each as often as the others and together one line
# in five.  These shares are assumed, not measured: no record of real session
# traffic exists to take them from.
SESSION_COMMANDS = (
    "bracket-lie", "bracket-free", "act", "cup", "compose", "sdiff", "face",
    "homotopy", "trivial", "reduce", "wedge", "schouten", "let",
)
SESSION_ERRORS = ("parse-error", "cup-undefined", "sdiff-precondition", "reduce-notclosed", "reduce-nonchain")
ERROR_SHARE = 1 / 5

# Positions of the expression arguments of each command in its argv.
_EXPRESSION_ARGS = {
    "bracket": (2, 3), "act": (3,), "cup": (1, 2), "compose": (1, 2), "sdiff": (1, 2), "face": (1,),
    "homotopy": (1,), "trivial?": (1,), "reduce": (1,), "wedge": (1, 2), "schouten": (1, 2), "let": (3,),
}


def session_mix(seed: int, lines: int = 1300) -> list[Op]:
    """A seeded stream of command lines, one Session per chart dimension.

    Each kind of line makes up a fixed share of the stream, in seeded
    order, and sizes, formats and dimensions take their values in turn, so
    the mix is the same for every seed.
    """
    rng = Random(seed)
    errors = round(lines * ERROR_SHARE)
    kinds = [kind for kind in SESSION_ERRORS for _ in range(errors // len(SESSION_ERRORS))]
    kinds += [kind for kind in SESSION_COMMANDS for _ in range((lines - errors) // len(SESSION_COMMANDS))]
    rng.shuffle(kinds)
    gens = {dim: _SessionGen(rng, dim) for dim in (2, 3)}
    sessions = {dim: Session(ChartSpec(dim, 4)) for dim in (2, 3)}
    verifiers = {dim: Session(ChartSpec(dim, 4)) for dim in (2, 3)}
    seen: dict[str, int] = {}
    ops = []
    for kind in kinds:
        seen[kind] = seen.get(kind, 0) + 1
        dim = 2 + seen[kind] % 2  # each kind half in each dimension
        line, fmt, expect = gens[dim].line(kind)
        ops.append(_session_op(kind, line, fmt, expect, sessions[dim], verifiers[dim]))
    return ops


def _session_op(kind, line, fmt, expect: Expect, session: Session, verifier: Session) -> Op:
    def run():
        # mirrors igc.cli.main: exit class of the command and what it prints
        try:
            outcome = run_command(shlex.split(line), session)
        except (UsageError, ParseError) as exc:
            return 1, "", type(exc).__name__, str(exc)
        except DomainError as exc:
            return 2, "", type(exc).__name__, str(exc)
        out = json.dumps(outcome.payload) if fmt == "json" else outcome.text
        return outcome.code, out, None, None

    def check(result):
        if isinstance(result, BaseException):
            return False, f"{line} -> {_exc_text(result)}"
        code, out, error, message = result
        printed = f"[{fmt}] {line} -> {code} {out}"
        if code != expect.code:
            return False, printed
        if code:
            return error == expect.error and "\n" not in message, printed
        if expect.kind == "none":
            return out == ("null" if fmt == "json" else ""), printed
        try:
            if fmt == "json":
                got = _decode_json(expect.kind, json.loads(out), verifier)
            else:
                got = _decode_text(expect.kind, out, verifier)
        except (ValueError, KeyError, TypeError, ParseError, DomainError):
            return False, printed
        return _matches(expect, got, session.chart.dim), printed

    return Op(kind, run, check)


# high-arity --------------------------------------------------------------------

GROUPOID_CHART = ChartSpec(2, 8)
REDUCE_CHART = ChartSpec(3, 8)

# Share of the larger index sets populated in the random k-fields, per arity:
# the component count, and so the work per swap, grows with k all the same.
DENSITY = {3: 1.0, 4: 0.6, 5: 0.3, 6: 0.15}


def _reparses(value, chart: ChartSpec) -> bool:
    """Whether the printed form of value reads back as an equal value."""
    parsed = parse_expression(str(value), Session(chart))
    if isinstance(value, KField):
        return as_kfield(parsed, chart) == value
    if isinstance(value, FreeLRElem):
        return as_elem(parsed, chart) == value
    return as_pv(parsed, chart) == value


def _value_op(label, run, chart, want, compare) -> Op:
    def check(result):
        if isinstance(result, BaseException):
            return False, f"{label} -> {_exc_text(result)}"
        return compare(result, want) and _reparses(result, chart), f"{label} -> {result}"

    return Op(label, run, check)


def _kfield_equal(result, want):
    k, comps = want
    return result.arity == k and ref.comps_of(result) == comps


def _kfield_projection_equal(result, want):
    k, comps = want
    return result.arity == k and ref.project_comps(ref.comps_of(result), result.chart.dim) == comps


def high_arity(seed: int, max_k: int = 6) -> list[Op]:
    """Direct library calls where combinatorics, not coefficients, dominate."""
    rng = Random(seed)
    ops: list[Op] = []
    for k in range(3, max_k + 1):
        ops += _groupoid_ops(rng, k)
        ops += _reduce_ops(rng, k)
    for d in range(4, 8):
        ops += _bracket_ops(rng, d)
    rng.shuffle(ops)
    return ops


def _groupoid_ops(rng: Random, k: int) -> list[Op]:
    chart, dim = GROUPOID_CHART, GROUPOID_CHART.dim
    ops = []

    # The supports of the fields and the words of the acts, which set an
    # op's cost, come from a generator of their own with a fixed seed, so
    # that they are the same for every seed; the seed draws the coefficients.
    shape = Random(k)

    def field():
        comps = gen.classical_comps(rng, k, dim, 1, 2, DENSITY[k], shape)
        return comps, to_kfield(chart, k, comps)

    # at the largest arity every word has the longest reduced length, so
    # these acts form one block of like cost at the top of the latencies
    longest = k * (k - 1) // 2
    lengths = [longest] * 16 if k == 6 else gen.spread(8, 1, longest)
    for n, length in enumerate(lengths):
        comps, nu = field()
        flavor = ("free", "lie")[n % 2]
        w = gen.word(shape, k, length)
        want = (k, ref.lie_act(w, comps, k, dim))
        compare = _kfield_equal if flavor == "lie" else _kfield_projection_equal
        ops.append(_value_op(f"act-{flavor} k={k}", lambda w=w, nu=nu, f=flavor: act(w, nu, f), chart, want, compare))
    for n in range(4):
        comps, nu = field()
        flavor = ("free", "lie")[n % 2]
        i, j = sorted(rng.sample(range(k), 2))
        bracket = ref.free_bracket_deg1 if flavor == "free" else ref.lie_bracket
        want = (k, ref.swap_action(comps, k, ref.transposition(i, j), lambda a, b, f=bracket: f(a, b, dim)))
        run = lambda nu=nu, i=i, j=j, f=flavor: act_transposition(nu, i, j, f)  # noqa: E731
        ops.append(_value_op(f"act_transposition-{flavor} k={k}", run, chart, want, _kfield_equal))
    for _ in range(4):
        comps, nu = field()
        i, j = sorted(rng.sample(range(k), 2))
        want = homotopy_answer(comps, k, i, j, dim)
        ops.append(_value_op(f"homotopy k={k}", lambda nu=nu, i=i, j=j: homotopy(nu, i, j), chart, want, _kfield_equal))
    for n in range(4):
        if n % 2:
            while True:
                comps, nu = field()
                if not ref.wedge2_is_zero(comps[frozenset({0})], comps[frozenset({1})], dim):
                    break
            want = (False, (0, 1, frozenset({0}), frozenset({1})))
        else:
            a = gen.elem(rng, dim, [1], 1, 2)
            comps = {frozenset({i}): a for i in range(k)}
            comps[frozenset(range(k))] = gen.elem(rng, dim, [1], 1, 2)
            nu = to_kfield(chart, k, comps)
            want = (True, None)
        ops.append(_trivial_op(k, nu, want))
    return ops


def _trivial_op(k: int, nu: KField, want) -> Op:
    def check(result):
        if isinstance(result, BaseException):
            return False, f"trivial? k={k} -> {_exc_text(result)}"
        return result == want, f"trivial? k={k} -> {result}"

    return Op(f"is_trivial_homotopy k={k}", lambda: is_trivial_homotopy(nu), check)


def _reduce_ops(rng: Random, k: int) -> list[Op]:
    """Flag chains; below k = 6 also relabeled chains and trivial fields
    outside the chain, which send reduce_to_polyvector through its search.

    The search tries relabelings in lexicographic order and stops at the
    chain's own, so the relabelings are spread over that order.
    """
    chart, dim = REDUCE_CHART, REDUCE_CHART.dim
    ops = []
    perms = [list(range(k))] * 3
    if k <= 5:
        perms += [gen.nth_permutation(k, n) for n in gen.spread(4, 1, factorial(k) - 1)]
    for perm in perms:
        vectors = []
        for _ in range(k):
            if vectors and rng.random() < 0.4:
                vectors.append(vectors[-1])
            else:
                vectors.append(gen.vf(rng, dim, 1, 2))
        nu = to_kfield(chart, k, gen.chain_comps(vectors, perm))
        shape = "permuted" if perm != sorted(perm) else "chain"
        ops.append(_value_op(f"reduce-{shape} k={k}", lambda nu=nu: reduce_to_polyvector(nu), chart,
                             ref.chain_class(vectors), lambda result, want: ref.pv_of(result) == want))
    for _ in range(4 if k <= 5 else 0):
        a = gen.elem(rng, dim, [1], 1, 2)
        comps = {frozenset({0}): a, frozenset({1}): a, frozenset(range(k)): gen.elem(rng, dim, [1], 1, 2)}
        ops.append(_nonchain_op(k, to_kfield(chart, k, comps)))
    return ops


def _nonchain_op(k: int, nu: KField) -> Op:
    def run():
        try:
            return reduce_to_polyvector(nu)
        except NotFlagReducibleError as exc:
            return exc

    def check(result):
        return isinstance(result, NotFlagReducibleError), f"reduce-nonchain k={k} -> {result!r}"

    return Op(f"reduce-nonchain k={k}", run, check)


def _bracket_ops(rng: Random, d: int) -> list[Op]:
    """Brackets whose Lyndon words reach max_degree d, constant or linear
    coefficients with 1-2 terms."""
    chart, dim = ChartSpec(3, d), 3
    ops = []
    for a in gen.spread(24, 1, d - 1):
        u = gen.elem(rng, dim, sorted({1, a}), 1, 2)
        v = gen.elem(rng, dim, sorted({1, d - a}), 1, 2)
        want = ref.lie_bracket(u, v, dim)
        eu, ev = to_elem(chart, u), to_elem(chart, v)
        compare = lambda result, want: ref.elem_of_vf(ref.projection(ref.elem_of(result), dim)) == want  # noqa: E731
        ops.append(_value_op(f"free_bracket d={d}", lambda eu=eu, ev=ev: free_bracket(eu, ev), chart, want, compare))
        x = gen.elem(rng, dim, [1], 1, 2)
        y = gen.elem(rng, dim, [1, d], 1, 2)
        want = ref.lie_bracket(x, y, dim)
        ex, ey = to_elem(chart, x), to_elem(chart, y)
        ops.append(_value_op(f"lie_bracket_ext d={d}", lambda ex=ex, ey=ey: lie_bracket_ext(ex, ey), chart, want, compare))
    return ops


def build(workload: str, seed: int, small: bool = False) -> list[Op]:
    """The ops of one pass; small gives a quick version for the self-test."""
    if workload == "check-suite":
        names = ["action-swap-k2", "parse-roundtrip", "homotopy"] if small else tuple(CHECK_CASES)
        return check_suite(seed, names)
    if workload == "session-mix":
        return session_mix(seed, 130) if small else session_mix(seed)
    if workload == "high-arity":
        return high_arity(seed, max_k=4 if small else 6)
    raise ValueError(f"unknown workload {workload!r}")
