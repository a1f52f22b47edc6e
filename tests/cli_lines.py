"""Run an `igc` command line in this process, as `python -m igc` runs it.

    run_igc(argv, seconds=60) -> subprocess.CompletedProcess

`run_igc` calls `igc.cli.main(argv)` with stdout and stderr captured, turns
an argparse `SystemExit` into the exit code, and returns what a launch of
`python -m igc ARGV` with `capture_output=True, text=True` returns, so a test
reads `returncode`, `stdout` and `stderr` as it would from the launch.  The
line runs under `wall_bound(seconds)`, so a runaway line fails its test
instead of stalling the suite.

Only the tests in LAUNCH_TESTS start a `python` process; a guard in
`test_package.py` fails when any other function in `tests` calls
`subprocess` or `sys.executable`.  The name does not start with `test_`, so
pytest does not collect this module.
"""

from __future__ import annotations

import io
import signal
import subprocess
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from igc.cli import main

# the tests that launch `python`, because a fresh process is what each one checks
LAUNCH_TESTS = {
    "test_one_shot_command_loads_only_what_it_runs": "the modules `python -X importtime -m igc` imports, two launches",
    "test_one_shot_command_leaves_check_suite_and_profiler_unloaded": "the modules a fresh `main` call loads",
    "test_cli_identical_output_across_runs": "stdout of two fresh interpreters",
}


class LineTimeout(Exception):
    pass


@contextmanager
def wall_bound(seconds: float):
    """Raise LineTimeout in the body once it has run for `seconds` of wall time."""

    def expire(signum, frame):
        raise LineTimeout(f"line still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_igc(argv: list[str], seconds: float = 60) -> subprocess.CompletedProcess:
    """The exit code, stdout and stderr of `igc ARGV`, run in process under a wall bound of `seconds`."""
    out, err = io.StringIO(), io.StringIO()
    with wall_bound(seconds), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(["igc", *argv], code, out.getvalue(), err.getvalue())
