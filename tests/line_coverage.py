"""Lines of `src/igc` that the tier-1 suite never runs.

    python tests/line_coverage.py [--only NAME.py ...] [-- PYTEST_ARGS ...]

Runs pytest in this process under `sys.settrace` and prints, for each module
of `src/igc`, the executable lines (those of its code objects, compiled
before pytest starts) that no test ran, as ranges.  `--only` limits the
report to the named files; the arguments after `--` go to pytest (by default
the whole `tests` directory, quietly).  The tests run their command lines in
process, so `cli.py` is traced; only the `python` processes of the tests in
`cli_lines.LAUNCH_TESTS` are not, so `__main__.py`, which only they run, is
listed as never run.
Tracing makes the suite about three times slower.  The name does not start
with `test_`, so pytest does not collect this script, and it needs no package
beyond pytest.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "igc"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction of every code object compiled from path."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's code starts with an instruction at line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, such as 3, 7-9."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and the lines run in each file under src/igc."""
    import pytest

    prefix = str(SRC)
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # the first line of a code object runs on entry, with no line event
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", default=None, metavar="NAME.py", help="report only these files")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    opts = parser.parse_args(argv)
    # compiled before the run, as the suite imports them, so an edit during the run cannot shift the report
    paths = [path for path in sorted(SRC.glob("*.py")) if not opts.only or path.name in opts.only]
    sources = {path: executable_lines(path) for path in paths}
    code, ran = run_traced(opts.pytest_args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    total = missed = 0
    for path, lines in sources.items():
        never = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        missed += len(never)
        print(f"{path.name}: {len(never)} of {len(lines)} lines never ran" + (f": {ranges(never)}" if never else ""))
    print(f"total: {missed} of {total} lines never ran (pytest exit code {code})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
