"""Acceptance suite: one test per criterion, each printing a pass line.

Everything is exact rational arithmetic, so every tolerance is equality.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The criteria run the deterministic checks behind `igc check`
(seed 0) one at a time, as `igc check --only NAME` does, plus CLI lines run
in process through `cli_lines.run_igc` for the last one.
"""

import hashlib
import re
from functools import cache

import pytest
from cli_lines import run_igc

from igc.checks import CHECK_NAMES, CHECKS, run_suite
from igc.oracle import CheckReport

SEED = 0
MAX_DEGREE = 4


def _require(report):
    assert report.passed, f"{report.name}: {report.failures[:3]}"
    return report


def _run(name):
    """One check at SEED, run as `igc check --only NAME` runs it."""
    (report,) = run_suite(SEED, MAX_DEGREE, only=name)
    return report


def _announce(number, label, reports):
    cases = sum(r.cases for r in reports)
    print(f"PASS criterion {number}: {label} ({cases} cases)")


def test_criterion_1_weil_multiplicativity():
    reports = [
        _require(_run("weil-multiplicativity")),
        _require(_run("weil-negative-control")),
    ]
    _announce(1, "morphism multiplicativity on 100 fields + negative control", reports)


def test_criterion_2_decomposition_dictionary():
    reports = [_require(_run("weil-dictionary"))]
    _announce(2, "roundtrip dictionary and second-order part", reports)


def test_criterion_3_symmetric_group_action():
    reports = [
        _require(_run("action-relations")),
        _require(_run("action-swap-k2")),
    ]
    _announce(3, "square/braid/distant relations both flavors, k=3,4", reports)


def test_criterion_4_strong_difference_bracket():
    reports = [_require(_run("strong-difference-bracket"))]
    _announce(4, "strong-difference pipeline equals the coordinate bracket", reports)


def test_criterion_5_free_lie_rinehart():
    reports = [
        _require(_run("free-lie-rinehart")),
        _require(_run("lie-extension")),
    ]
    _announce(5, "alternation, Jacobi, defining relation, slice ranks", reports)


def test_criterion_6_relative_special_cases():
    reports = [_require(_run("relative-cases"))]
    _announce(6, "vertical collapse, fully free case, quotient ranks", reports)


def test_criterion_7_homotopy():
    reports = [_require(_run("homotopy"))]
    _announce(7, "h2 formula, projection kill, pair counts", reports)


def test_criterion_8_trivial_homotopy_agreement():
    reports = [_require(_run("trivial-homotopy-agreement"))]
    _announce(8, "definitional vs disjoint-pair characterization, 100 fields", reports)


def test_criterion_9_cohomology():
    reports = [_require(_run("cohomology-reduction"))]
    _announce(9, "cup chains to wedges, degeneracies, Schouten identities", reports)


def test_criterion_10_s_invariance():
    reports = [_require(_run("s-invariance"))]
    _announce(10, "cup and compose equivariance", reports)


# seeds at which these checks once failed on sound fields; replayed one check
# at a time as `igc check --seed S --only NAME` would
FOUND_SEEDS = [
    *(("trivial-homotopy-agreement", s) for s in (4, 18, 41, 53, 84, 96, 52750, 83657, 79971144)),
    ("cohomology-reduction", 19),
]


@pytest.mark.parametrize("name, seed", FOUND_SEEDS)
def test_found_seeds_replay(name, seed):
    (report,) = run_suite(seed, MAX_DEGREE, only=name)
    _require(report)


# every check's case count; a change to a check's sampling or to how its
# cases are counted shows here
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
    "trivial-homotopy-agreement": 100,
    "cohomology-reduction": 230,
    "s-invariance": 125,
    "parse-roundtrip": 40,
}


@cache
def _recorded_suite(seed):
    """The reports of `run_suite(seed, MAX_DEGREE)` and one "name|inputs|expected|got" line per compared case."""
    lines = []
    compare = CheckReport.compare

    def recording(report, inputs, expected, got):
        lines.append(f"{report.name}|{inputs}|{expected}|{got}")
        compare(report, inputs, expected, got)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CheckReport, "compare", recording)
        reports = run_suite(seed, MAX_DEGREE)
    return reports, lines


@pytest.mark.parametrize("seed", [0, 3])
def test_check_case_counts(seed):
    assert list(CHECK_CASES) == CHECK_NAMES
    reports, _ = _recorded_suite(seed)
    assert {r.name: r.cases for r in reports} == CHECK_CASES


# sha256 of every compared case of `run_suite(seed, MAX_DEGREE)`, one
# "name|inputs|expected|got" line per case (1,288 per seed); a change that
# resamples any check, or reorders or reseeds the table, shows here even
# where the printed case counts stay put
CASE_STREAM_SHA256 = {
    0: "9951f4dfdc5ea9d5b43824564ebdba181829adc0cc8618189073e4a62f9c71d1",
    3: "c53efb1e0be5193f62716e1df5233adc98e8a6f8a2d1ca0825fccc387b99fdc4",
}


@pytest.mark.parametrize("seed", sorted(CASE_STREAM_SHA256))
def test_check_case_stream_is_pinned(seed):
    _, lines = _recorded_suite(seed)
    assert len(lines) == 1288
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CASE_STREAM_SHA256[seed]


def test_check_table_repeats_no_name_and_no_salt():
    names = [name for name, _, _ in CHECKS]
    salts = [salt for _, salt, _ in CHECKS]
    assert len(set(names)) == len(names) and len(set(salts)) == len(salts)


def test_check_failures_carry_compared_values(monkeypatch):
    import igc.checks
    from igc import ChartSpec, Session, parse_expression

    bracket = igc.checks.lie_bracket_ext
    monkeypatch.setattr(igc.checks, "lie_bracket_ext", lambda u, v: -bracket(u, v))
    report = _run("lie-extension")
    assert not report.passed and report.cases == CHECK_CASES["lie-extension"]
    session = Session(ChartSpec(2, MAX_DEGREE))
    for inputs, expected, got in report.failures:
        assert parse_expression(expected, session) != parse_expression(got, session), inputs


def test_an_inverted_failing_check_passes(monkeypatch):
    # `--invert` turns a failing check into a pass, as it turns a passing one into a failure
    import igc.checks

    bracket = igc.checks.lie_bracket_ext
    monkeypatch.setattr(igc.checks, "lie_bracket_ext", lambda u, v: -bracket(u, v))
    (report,) = run_suite(SEED, MAX_DEGREE, only="lie-extension", invert="lie-extension")
    assert report.passed and report.cases == CHECK_CASES["lie-extension"]


def test_action_relations_fail_when_one_letter_drops_its_corrections(monkeypatch):
    import igc.groupoid
    from igc import KField

    swap = igc.groupoid._act_by_transposition

    def relabel_one_letter(nu, i, j, bracket):
        if i != 1:
            return swap(nu, i, j, bracket)
        # the letter s1 moves components to their swapped index sets and adds no bracket
        moved = {frozenset({i: j, j: i}.get(x, x) for x in phi): e for phi, e in nu.components.items()}
        return KField(nu.chart, nu.arity, moved)

    monkeypatch.setattr(igc.groupoid, "_act_by_transposition", relabel_one_letter)
    (report,) = run_suite(SEED, MAX_DEGREE, only="action-relations")
    assert not report.passed and report.cases == CHECK_CASES["action-relations"]
    assert all("braid" in got or "commutation" in got for _, _, got in report.failures)


def test_action_relations_fail_when_a_distant_letter_does_not_commute(monkeypatch):
    import igc.groupoid
    from igc import KField

    swap = igc.groupoid._act_by_transposition

    def doubling_slot_0(nu, i, j, bracket):
        out = swap(nu, i, j, bracket)
        if i != 2:
            return out
        # s2 also doubles the component on {0}, which s0 moves: s0 s2 != s2 s0
        return KField(out.chart, out.arity, {phi: e * 2 if phi == {0} else e for phi, e in out.components.items()})

    monkeypatch.setattr(igc.groupoid, "_act_by_transposition", doubling_slot_0)
    report = _run("action-relations")
    assert not report.passed and report.cases == CHECK_CASES["action-relations"]
    distant = [(inputs, expected) for inputs, expected, got in report.failures if "'distant commutation'" in got]
    assert distant and all(re.fullmatch(r"k=4 #\d+ flavor=(free|lie)", i) and e == "[]" for i, e in distant)


def test_weil_negative_control_fails_when_the_corruption_is_lost(monkeypatch):
    import igc.oracle

    image = igc.oracle._operator_image
    monkeypatch.setattr(igc.oracle, "_operator_image", lambda fields, arity, f, corrupt=False: image(fields, arity, f))
    report = _run("weil-negative-control")
    assert report.cases == CHECK_CASES["weil-negative-control"]
    assert report.failures == [("corrupted top part", "multiplicativity failures", "none detected")]


def test_criterion_11_cli():
    # each line runs in process through igc.cli.main, as `python -m igc` runs it
    examples = [
        (["--dim", "2", "bracket", "lie", "d0", "x0*d1"], "d1\n"),
        (["--dim", "2", "reduce", "cup(d0, d1)"], "d0 ^ d1\n"),
        (
            ["--dim", "2", "trivial?", "compose(d0, x0*d1)"],
            "false  witness: (0,1,{0},{1})\n",
        ),
    ]
    for args, expected in examples:
        r = run_igc(args)
        assert r.returncode == 0 and r.stdout == expected, (args, r.stdout, r.stderr)

    r = run_igc(["--dim", "2", "check"])
    assert r.returncode == 0, r.stdout + r.stderr

    for name in CHECK_NAMES:
        r = run_igc(["--dim", "2", "check", "--only", name, "--invert", name])
        assert r.returncode == 3, (name, r.stdout)

    print("PASS criterion 11: CLI outputs bit-exact; check exits 0, inverted checks exit 3")
