"""Expression parsing, printing roundtrips, and the command front end."""

import json
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest

from igc import ChartSpec, FreeLRElem, KField, Poly, Polyvector, VField, cup
from igc.cli import UsageError, run_command
from igc.parsing import ParseError, Session, as_kfield, parse_expression
from igc.oracle import random_vfield


def session(dim=2, max_degree=4):
    return Session(ChartSpec(dim, max_degree))


def run(args):
    return subprocess.run(
        [sys.executable, "-m", "igc", *args], capture_output=True, text=True
    )


# parsing ---------------------------------------------------------------------


def test_parse_vfield_literal():
    s = session()
    value = parse_expression("x0*d1 - (1/2)*d0", s)
    want = FreeLRElem.from_vfield(
        s.chart, VField([Poly.const(2, Fraction(-1, 2)), Poly.var(2, 0)])
    )
    assert value == want


def test_parse_free_bracket_normalizes():
    s = session()
    value = parse_expression("F[d0, x0*d1]", s)
    assert str(value) == "x0*F[d0,d1] + d1"


def test_parse_cup_call():
    s = session()
    value = parse_expression("cup(d0, x0*d1)", s)
    assert isinstance(value, KField)
    assert value.component_vfield({0}) == VField.basis(2, 0)
    assert value.component_vfield({0, 1}) == VField([Poly.zero(2), Poly.var(2, 0)])


def test_parse_polynomials_and_powers():
    s = session()
    assert parse_expression("x0^2*x1 + 3/4", s) == Poly(
        2, {(2, 1): 1, (0, 0): Fraction(3, 4)}
    )
    assert parse_expression("(x0 + x1)^2", s) == Poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_parse_wedge_is_type_dispatched():
    s = session()
    value = parse_expression("d0 ^ d1", s)
    assert isinstance(value, Polyvector)
    assert str(value) == "d0 ^ d1"
    scaled = parse_expression("x0*d0 ^ d1", s)
    assert scaled == Polyvector(2, {(0, 1): Poly.var(2, 0)})


def test_parse_kfield_literal_roundtrip():
    s = session()
    nu = parse_expression("K{arity=2; 0: d0; 0,1: x0*d1}", s)
    assert isinstance(nu, KField)
    assert parse_expression(str(nu), s) == nu


def test_parse_errors_carry_position():
    s = session()
    with pytest.raises(ParseError) as err:
        parse_expression("x0 + (x1 *", s)
    assert err.value.line == 1 and err.value.column > 0
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("nope", s)
    with pytest.raises(ParseError, match="out of range"):
        parse_expression("x5", s)


def test_print_parse_roundtrip_random():
    rng = Random(100)
    s = session()
    for _ in range(20):
        v = random_vfield(rng, 2)
        elem = FreeLRElem.from_vfield(s.chart, v)
        assert parse_expression(str(elem), s) == elem
        field = cup(
            KField.from_vfields(s.chart, 1, {frozenset({0}): v}),
            KField.from_vfields(s.chart, 1, {frozenset({0}): random_vfield(rng, 2)}),
        )
        assert as_kfield(parse_expression(str(field), s), s.chart) == field


def test_parse_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError, match="division by zero") as err:
        parse_expression("1/0*d0", session())
    assert (err.value.line, err.value.column) == (1, 3)
    r = run(["--dim", "2", "bracket", "free", "1/0*d0", "d1"])
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "igc: parse error: division by zero (line 1, column 3)\n"


def test_parse_kfield_literal_rejects_repeated_slot():
    s = session()
    with pytest.raises(ParseError, match="repeated slot index 0"):
        parse_expression("K{arity=2; 0,0: d0}", s)
    with pytest.raises(ParseError, match="repeated slot index 1"):
        parse_expression("K{arity=3; 1,2,1: d0}", s)
    r = run(["--dim", "2", "reduce", "K{arity=2; 0,0: d0}"])
    assert r.returncode == 1 and "repeated slot index 0" in r.stderr


def test_parse_kfield_literal_rejects_repeated_index_set():
    s = session()
    with pytest.raises(ParseError, match="repeated index set 0") as err:
        parse_expression("K{arity=1; 0: d0; 0: d1}", s)
    assert (err.value.line, err.value.column) == (1, 19)
    with pytest.raises(ParseError, match="repeated index set 0,1"):
        parse_expression("K{arity=2; 0,1: d0; 1: d1; 1,0: x0*d1}", s)
    r = run(["--dim", "2", "cup", "K{arity=1; 0: d0; 0: d1}", "d0"])
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "igc: parse error: repeated index set 0 (line 1, column 19)\n"


# run_command ------------------------------------------------------------------


def test_run_command_bracket():
    out = run_command(["bracket", "lie", "d0", "x0*d1"], session())
    assert out.text == "d1" and out.code == 0


def test_run_command_reduce():
    out = run_command(["reduce", "cup(d0, d1)"], session())
    assert out.text == "d0 ^ d1"


def test_run_command_trivial():
    out = run_command(["trivial?", "compose(d0, x0*d1)"], session())
    assert out.text == "false  witness: (0,1,{0},{1})"
    assert out.payload == {"trivial": False, "witness": [0, 1, [0], [1]]}
    out2 = run_command(["trivial?", "cup(d0, x0*d1)"], session())
    assert out2.text == "true"


def test_run_command_let_binds():
    s = session()
    run_command(["let", "a", "=", "x0*d1"], s)
    out = run_command(["bracket", "free", "d0", "a"], s)
    assert out.text == "x0*F[d0,d1] + d1"


def test_run_command_usage_errors():
    with pytest.raises(UsageError):
        run_command(["bracket", "lie", "d0"], session())
    with pytest.raises(UsageError):
        run_command(["frobnicate"], session())
    with pytest.raises(UsageError):
        run_command(["act", "zero", "lie", "d0"], session())


def test_run_command_check_flag_needs_a_name():
    for flag in ("--only", "--invert"):
        with pytest.raises(UsageError, match=f"{flag} needs a check name"):
            run_command(["check", flag], session())
        with pytest.raises(UsageError, match=f"{flag} needs a check name"):
            run_command(["check", "--seed", "3", flag], session())
        r = run(["--dim", "2", "check", flag])
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == f"igc: check flag {flag} needs a check name\n"


# subprocess-level: exact bytes and exit codes ----------------------------------


def test_cli_examples_bit_exact():
    r = run(["--dim", "2", "bracket", "lie", "d0", "x0*d1"])
    assert r.returncode == 0 and r.stdout == "d1\n"
    r = run(["--dim", "2", "reduce", "cup(d0, d1)"])
    assert r.returncode == 0 and r.stdout == "d0 ^ d1\n"
    r = run(["--dim", "2", "trivial?", "compose(d0, x0*d1)"])
    assert r.returncode == 0 and r.stdout == "false  witness: (0,1,{0},{1})\n"


def test_cli_json_format():
    r = run(["--dim", "2", "--format", "json", "bracket", "free", "d0", "x0*d1"])
    data = json.loads(r.stdout)
    assert data == [
        {"word": [1], "coeff": "1"},
        {"word": [0, 1], "coeff": "x0"},
    ]
    r = run(["--dim", "2", "--format", "json", "cup", "d0", "d1"])
    data = json.loads(r.stdout)
    assert data["arity"] == 2 and data["flavor"] == "classical"
    assert data["components"]["0,1"] == [{"word": [1], "coeff": "1"}]


def test_cli_exit_codes():
    assert run(["--dim", "2", "bracket", "lie", "d0", "x0*)"]).returncode == 1
    assert run(["--dim", "2", "face", "cup(d0,d1)", "7"]).returncode == 2
    assert run(["--dim", "2"]).returncode == 1
    assert run(["bracket", "lie", "d0", "d1"]).returncode == 1  # missing --dim


def test_cli_dimension_flag():
    r = run(["--dim", "3", "bracket", "lie", "d0", "x2*d1"])
    assert r.returncode == 0 and r.stdout == "0\n"
    r = run(["--dim", "2", "bracket", "lie", "d0", "x2*d1"])
    assert r.returncode == 1 and "out of range" in r.stderr


def test_cli_script(tmp_path):
    script = tmp_path / "demo.igc"
    script.write_text(
        "# bind then bracket\n"
        "let a = x0*d1\n"
        'bracket free "d0" "a"\n'
        'reduce "cup(d0, d1)"\n'
    )
    r = run(["--dim", "2", "--script", str(script)])
    assert r.returncode == 0
    assert r.stdout == "x0*F[d0,d1] + d1\nd0 ^ d1\n"
    bad = tmp_path / "bad.igc"
    bad.write_text('bracket lie "d0" "x9*d1"\n')
    r = run(["--dim", "2", "--script", str(bad)])
    assert r.returncode == 1 and "line 1" in r.stderr


def test_cli_identical_output_across_runs():
    args = ["--dim", "2", "--seed", "3", "check", "--only", "parse-roundtrip"]
    r1, r2 = run(args), run(args)
    assert r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0
