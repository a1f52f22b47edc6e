"""Command-line front end.

Usage:  igc --dim N [--max-degree D] [--seed S] [--format text|json]
            [--script FILE] [--profile] <command> [args...]

Commands:
  bracket (free|lie) E1 E2      bracket of two field elements
  act PERM (free|lie) E         apply a word of adjacent swaps, e.g. PERM=0,1,0
  cup E1 E2 | compose E1 E2     products of k-fields
  sdiff E1 E2 I J               strong difference over the pair (I, J)
  face E I                      face map
  homotopy E I J                homotopy of the (I, J) swap pair
  trivial? E                    trivial-homotopy test with witness
  reduce E                      cohomology class as a polyvector
  wedge P Q | schouten P Q      polyvector operations
  let NAME = EXPR               bind a name (scripts and shared sessions)
  check [--max-degree D] [--seed S] [--only NAME] [--invert NAME] [--timings]

Exit codes: 0 ok, 1 usage or parse error, 2 violated precondition,
3 check failures.

`--profile` runs the command under cProfile and prints the functions with the
most own time, then the sizes of the Lyndon caches, to stderr.  `check
--timings` prints each check's name, wall time and case count to stderr;
stdout stays as without it.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from . import lyndon
from .chart_algebra import ChartSpec, _Record
from .errors import DomainError
from .free_lr import free_bracket, lie_bracket_ext
from .groupoid import act, is_trivial_homotopy, reduce_to_polyvector
from .parsing import (
    OPERATIONS,
    ParseError,
    Session,
    apply_operation,
    as_elem,
    as_kfield,
    bindable,
    parse_expression,
)


class UsageError(Exception):
    pass


class CommandOutcome(_Record):
    __slots__ = ("text", "payload", "code")

    def __init__(self, text: str, payload: object, code: int = 0):
        self.text = text
        self.payload = payload
        self.code = code


def _subset_str(phi) -> str:
    return "{" + ",".join(map(str, sorted(phi))) + "}"


def _need(argv, n, usage):
    if len(argv) != n:
        raise UsageError(f"usage: {usage}")


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"expected an integer, got {text!r}") from None


def run_command(argv: list[str], session: Session) -> CommandOutcome:
    """Execute one parsed command against the session."""
    if not argv:
        raise UsageError("no command given")
    cmd, args = argv[0], argv[1:]
    chart = session.chart

    if cmd == "check":
        return _run_check(args, session)

    if cmd == "let":
        if len(args) < 3 or args[1] != "=":
            raise UsageError("usage: let NAME = EXPR")
        if not bindable(args[0]):
            raise UsageError(f"bad binding name {args[0]!r}")
        session.bindings[args[0]] = parse_expression(" ".join(args[2:]), session)
        return CommandOutcome("", None)

    if cmd == "trivial?":
        _need(argv, 2, "trivial? E")
        ok, witness = is_trivial_homotopy(as_kfield(parse_expression(args[0], session), chart))
        if ok:
            return CommandOutcome("true", {"trivial": True, "witness": None})
        i, j, phi, psi = witness
        text = f"false  witness: ({i},{j},{_subset_str(phi)},{_subset_str(psi)})"
        payload = {"trivial": False, "witness": [i, j, sorted(phi), sorted(psi)]}
        return CommandOutcome(text, payload)

    if cmd == "bracket":
        _need(argv, 4, "bracket (free|lie) E1 E2")
        flavor = args[0]
        if flavor not in ("free", "lie"):
            raise UsageError("bracket flavor must be 'free' or 'lie'")
        u = as_elem(parse_expression(args[1], session), chart)
        v = as_elem(parse_expression(args[2], session), chart)
        result = free_bracket(u, v) if flavor == "free" else lie_bracket_ext(u, v)
    elif cmd == "act":
        _need(argv, 4, "act PERM (free|lie) E")
        try:
            word = [int(t) for t in args[0].split(",")] if args[0] else []
        except ValueError:
            raise UsageError(f"bad swap word {args[0]!r}; use comma-separated indices") from None
        if args[1] not in ("free", "lie"):
            raise UsageError("act flavor must be 'free' or 'lie'")
        result = act(word, as_kfield(parse_expression(args[2], session), chart), args[1])
    elif cmd == "reduce":
        _need(argv, 2, "reduce E")
        result = reduce_to_polyvector(as_kfield(parse_expression(args[0], session), chart))
    elif cmd in OPERATIONS:
        signature = OPERATIONS[cmd][1]
        _need(argv, 1 + len(signature.split()), f"{cmd} {signature}")
        result = apply_operation(cmd, args, chart, lambda src: parse_expression(src, session), _int_arg)
    else:
        raise UsageError(f"unknown command {cmd!r}")
    return CommandOutcome(str(result), result.to_json())


def _run_check(args: list[str], session: Session) -> CommandOutcome:
    # imported here, so that no other command loads the check suite
    from .checks import run_suite

    seed = session.seed
    max_degree = session.chart.max_degree
    only = invert = None
    timings = False
    it = iter(args)
    for flag in it:
        if flag == "--timings":
            timings = True
        elif flag == "--max-degree":
            max_degree = _int_arg(next(it, ""))
        elif flag == "--seed":
            seed = _int_arg(next(it, ""))
        elif flag in ("--only", "--invert"):
            name = next(it, None)
            if name is None:
                raise UsageError(f"check flag {flag} needs a check name")
            if flag == "--only":
                only = name
            else:
                invert = name
        else:
            raise UsageError(f"unknown check flag {flag!r}")
    try:  # the global --max-degree's check, refused the same way
        ChartSpec(session.chart.dim, max_degree)
    except DomainError as exc:
        raise UsageError(f"error: {exc}") from None
    try:
        reports = run_suite(seed=seed, max_degree=max_degree, only=only, invert=invert)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if timings:
        for r in reports:
            print(f"timing {r.name}: {r.seconds:.3f} s ({r.cases} cases)", file=sys.stderr)
    lines = []
    for r in reports:
        if r.passed:
            lines.append(f"ok {r.name} ({r.cases} cases)")
        else:
            first = r.failures[0]
            lines.append(f"FAIL {r.name}: {len(r.failures)} failure(s); first: {first}")
    failed = sum(not r.passed for r in reports)
    lines.append("all checks passed" if not failed else f"{failed} check(s) failed")
    payload = {"passed": failed == 0, "reports": [r.to_json() for r in reports]}
    return CommandOutcome("\n".join(lines), payload, 3 if failed else 0)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="igc",
        description="Exact calculator for iterated tangent fields and their cohomology.",
    )
    parser.add_argument("--dim", type=int, required=True, help="chart dimension n")
    parser.add_argument("--max-degree", type=int, default=4, dest="max_degree",
                        help="bracket-length cutoff (default 4)")
    parser.add_argument("--seed", type=int, default=0, help="seed for check sampling")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--script", help="run commands from a file, one per line")
    parser.add_argument("--profile", action="store_true",
                        help="print the hot functions and the Lyndon cache sizes to stderr")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="command and arguments")
    return parser


def _emit(outcome: CommandOutcome, fmt: str):
    if fmt == "json":
        print(json.dumps(outcome.payload))
    elif outcome.text:
        print(outcome.text)


def main(argv: list[str] | None = None) -> int:
    opts = _build_parser().parse_args(argv)
    if not opts.profile:
        return _run(opts)
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(_run, opts)
    finally:
        pstats.Stats(profiler, stream=sys.stderr).sort_stats("tottime").print_stats(20)
        print(
            f"lyndon caches: _EXPANSION_CACHE {len(lyndon._EXPANSION_CACHE)} entries, "
            f"_BRACKET_CACHE {len(lyndon._BRACKET_CACHE)} entries",
            file=sys.stderr,
        )


def _run(opts: argparse.Namespace) -> int:
    try:
        chart = ChartSpec(opts.dim, opts.max_degree)
    except DomainError as exc:
        print(f"igc: error: {exc}", file=sys.stderr)
        return 1
    session = Session(chart, fmt=opts.format, seed=opts.seed)

    def run_one(tokens: list[str]) -> int:
        try:
            outcome = run_command(tokens, session)
        except UsageError as exc:
            print(f"igc: {exc}", file=sys.stderr)
            return 1
        except ParseError as exc:
            print(f"igc: parse error: {exc}", file=sys.stderr)
            return 1
        except DomainError as exc:
            print(f"igc: error: {exc}", file=sys.stderr)
            return 2
        _emit(outcome, session.fmt)
        return outcome.code

    if opts.script:
        if opts.command:
            print("igc: give either --script or an inline command, not both", file=sys.stderr)
            return 1
        try:
            with open(opts.script, encoding="utf-8") as f:
                lines = f.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"igc: cannot read script: {exc}", file=sys.stderr)
            return 1
        for number, line in enumerate(lines, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                tokens = shlex.split(stripped)
            except ValueError as exc:
                print(f"igc: script line {number}: {exc}", file=sys.stderr)
                return 1
            code = run_one(tokens)
            if code != 0:
                print(f"igc: script line {number} failed", file=sys.stderr)
                return code
        return 0

    if not opts.command:
        print("igc: no command given (try `igc --dim 2 check`)", file=sys.stderr)
        return 1
    return run_one(opts.command)
