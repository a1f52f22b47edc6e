"""Recompute the output digests pinned in digests.json.

    python3 perfbench/pin_digests.py [FIRST LAST [WORKLOAD ...]]

Runs the first pass of each WORKLOAD (default session-mix and high-arity)
for each seed from FIRST to LAST (default 0 to 99), checks every op, and
pins the digest of the printed outputs; other pins are kept.  check-suite
has no pin: a check passes only with its expected case count, and then its
printed line is fixed, so the per-check gate already covers its output.  Pin
again only when a change to the printed output is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    first, last = (int(a) for a in argv[:2]) if argv else (0, 99)
    names = argv[2:] or ["session-mix", "high-arity"]
    path = HERE / "digests.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    for name in names:
        pins.setdefault(name, {})
        for seed in range(first, last + 1):
            res = run.Result(workloads.build(name, seed))
            res.run_pass()
            if res.failed:
                print(f"{name} seed {seed}: {res.failed} ops fail; not pinned", file=sys.stderr)
                return 1
            pins[name][str(seed)] = res.digest()
            print(f"{name} seed {seed}: {pins[name][str(seed)]}", flush=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
