"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a small size and requires that
  * every op passes the correctness gate (fail_ratio 0);
  * a deliberately wrong result raises fail_ratio above 0, so the gate bites;
  * two runs with the same seed print byte-identical outputs;
  * the traced run reports every per-layer metric named in BENCHMARK.json.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


@contextmanager
def negated_lie_bracket():
    """Make igc's classical bracket return the negative of its value, in every
    module that holds it."""
    from igc import free_lr

    original = free_lr.lie_bracket_ext

    def wrong(u, v):
        return -original(u, v)

    holders = [m for m in list(sys.modules.values()) if getattr(m, "lie_bracket_ext", None) is original]
    for m in holders:
        m.lie_bracket_ext = wrong
    try:
        yield
    finally:
        for m in holders:
            m.lie_bracket_ext = original


def main() -> int:
    problems = []
    units = run.per_layer_units()
    for name in workloads.WORKLOADS:
        clean = run.timed_run(name, 0, 0.0, small=True)
        again = run.timed_run(name, 0, 0.0, small=True)
        with negated_lie_bracket():
            broken = run.timed_run(name, 0, 0.0, small=True)
        traced = run.traced_run(name, 0, small=True)
        print(f"{name:12s} clean {clean['failed']}/{clean['attempted']} failed, "
              f"injected {broken['failed']}/{broken['attempted']} failed, digest {clean['digest'][:16]}")
        if clean["failed"]:
            problems.append(f"{name}: {clean['failed']} ops fail on a correct program")
            problems += [f"  {line}" for line in clean["lines"] if line.startswith("FAILED")]
        if not broken["failed"]:
            problems.append(f"{name}: a wrong bracket went unnoticed")
        if clean["digest"] != again["digest"]:
            problems.append(f"{name}: same seed, different output digests")
        missing = sorted(set(units) - set(traced["metrics"]))
        if missing or traced["failed"]:
            problems.append(f"{name}: traced run lacks {missing} or fails {traced['failed']} ops")
    for p in problems:
        print(p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
