"""The outcome of every public callable on a seeded set of argument tuples, one line per call.

    python tests/boundary_corpus.py [--seed N] [--count N] [--sha256]

For each callable of `igc.__all__` but the error types, COUNT argument tuples
are drawn from the POOL of `tests/test_module_refusals.py`, as the boundary
property test there draws them: a count between the number of parameters
without a default and the number of positional parameters, then that many
values.  A line names the callable and its arguments, then the outcome: the
result's type, or the error's class and message.  Memory addresses are cut
from every text, so the report is the same from run to run.  `--sha256` prints
the digest of the report instead of the report; `tests/test_boundary_corpus.py`
pins it, so a change of which value the public boundary refuses, or of how it
words or orders a refusal, moves the digest.  The name does not start with
`test_`, so pytest does not collect this script.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import re
import sys
from random import Random

from test_module_refusals import POOL, PUBLIC

import igc

COUNT = 40


def _text(value) -> str:
    """str of value with every memory address cut."""
    return re.sub(r" at 0x[0-9a-f]+", "", str(value))


def calls(name: str, seed: int = 0, count: int = COUNT) -> list[tuple]:
    """count argument tuples for the callable name, drawn from POOL by a Random of seed and name."""
    params = [
        p for p in inspect.signature(getattr(igc, name)).parameters.values() if p.kind is p.POSITIONAL_OR_KEYWORD
    ]
    least = sum(p.default is p.empty for p in params)
    rng = Random(f"{seed}:{name}")
    return [tuple(rng.choices(POOL, k=rng.randint(least, len(params)))) for _ in range(count)]


def outcome(function, args: tuple) -> str:
    try:
        value = function(*args)
    except Exception as exc:  # noqa: BLE001 - the report names whatever the callable raises
        return f"{type(exc).__name__} {_text(exc)}"
    return type(value).__name__


def report(seed: int = 0, count: int = COUNT) -> list[str]:
    lines = []
    for name in PUBLIC:
        function = getattr(igc, name)
        for args in calls(name, seed, count):
            shown = ", ".join(_text(repr(a)) for a in args)
            lines.append(f"{name}({shown}) => {outcome(function, args)}")
    return lines


def sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=COUNT, help="argument tuples per callable")
    parser.add_argument("--sha256", action="store_true", help="print the report's digest only")
    opts = parser.parse_args(argv)
    lines = report(opts.seed, opts.count)
    print(sha256(lines) if opts.sha256 else "\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
