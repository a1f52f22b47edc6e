"""igc benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; igc is imported from its `src`.
Workloads: check-suite, session-mix, high-arity (see BENCHMARK.json for why
each exists), or `all` to run the three in turn, each in its own process.
The ops of one pass are generated from the seed before timing.  Each cycle
runs a full pass and then some of the workload's ops a few more times (see
REPEATS), and cycles repeat until the full passes have been busy for S
seconds.  Every
time is scaled to the reference speed of the host (hostspeed.py).  An op's
latency is the median of its runs, and ops_per_s is the ops of the full
passes over their busy time.  An op's first run is checked against an
answer that does not come from the timed code path and its later runs must
repeat it exactly; the printed outputs of the first pass are hashed and
compared with the digests pinned in digests.json.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
two untraced passes, a warm-up and the reference, then the same pass with
every public igc function and method wrapped in a span, and reports the
per-layer metrics and the tracing overhead; the spans are written under
.bench_build/perfbench/.

Human-readable lines go first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from hostspeed import HOST, MARGIN, REFERENCE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One-shot CLI command for setup_s: a fresh interpreter imports igc and
# answers it.  Median over SETUP_RUNS launches, after one that warms the
# bytecode cache.
SETUP_ARGV = ["-m", "igc", "--dim", "2", "bracket", "lie", "d0", "x0*d1"]
SETUP_OUTPUT = "d1\n"
SETUP_RUNS = 11
SETUP_PROBES = 5

# Per workload, (low, high, extra): after each full pass, the ops whose least
# run takes from low to high seconds run extra more times, so that an op's
# median run is not one of a few samples of a noisy host.  This matters where
# a few long ops leave time for only a few passes, as on high-arity, and for
# the longest lines of a session, which set op_p99_ms.  A pass of the check
# suite outlasts the measured time and its checks run once: their cases are
# many, and each case is scaled to the host speed of its own time.
REPEATS = {
    "check-suite": (),
    "session-mix": ((0.0, 0.005, 1), (0.015, math.inf, 3)),
    "high-arity": ((0.0, 0.05, 1),),
}

# Percentiles tried for the tail latency, highest first; the first one with
# at least TAIL_BEYOND samples above it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def measure_setup() -> tuple[float, float]:
    """Median time of SETUP_RUNS launches, raw and scaled to the reference
    host speed; the probe runs a few times after each launch."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    launches = []
    for n in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *SETUP_ARGV], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        t1 = time.perf_counter()
        if done.returncode != 0 or done.stdout != SETUP_OUTPUT:
            raise RuntimeError(f"one-shot command failed: exit {done.returncode}, {done.stderr.strip()!r}")
        for _ in range(SETUP_PROBES):
            HOST.tick(force=True)
        if n:
            launches.append((t0, t1))
    raw = statistics.median(t1 - t0 for t0, t1 in launches)
    return raw, statistics.median((t1 - t0) * HOST.scale(t0, t1) for t0, t1 in launches)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least TAIL_BEYOND of n samples above it."""
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100 * n) >= TAIL_BEYOND:
            return q
    return 50.0


class Result:
    """Timing and correctness of the ops run so far."""

    def __init__(self, ops):
        self.ops = ops
        self.first: list = [None] * len(ops)
        self.good = [True] * len(ops)
        self.printed: list[str | None] = [None] * len(ops)
        self.times: list[list[float]] = [[] for _ in ops]
        # per op, per run: the time of each case with when it began and ended
        # by time.perf_counter, and whether the run was part of a full pass
        self.runs: list[list[tuple]] = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.pass_busy = 0.0  # busy time and ops of the full passes
        self.pass_ops = 0

    def run_pass(self, indices=None, sink=None) -> float:
        """Run the ops once, all or those at indices, and return their busy
        time.  An op's first run checks its answer; later runs must repeat it."""
        clock = HOST.clock
        busy = 0.0
        full = indices is None
        HOST.tick(force=True)
        for idx in range(len(self.ops)) if full else indices:
            op = self.ops[idx]
            HOST.tick()
            start = time.perf_counter()
            with sink(op.label) if sink else nullcontext():
                t0 = clock()
                try:
                    result = op.run()
                except Exception as exc:  # an unexpected error is a failed op, not a crash
                    result = exc
                dt = clock() - t0
            end = time.perf_counter()
            busy += dt
            if self.printed[idx] is None:
                self.first[idx] = result
                self.good[idx], self.printed[idx] = op.check(result)
                ok = self.good[idx]
            else:
                ok = self.good[idx] and _same(result, self.first[idx])
            self.attempted += op.count
            if not ok:
                self.failed += op.count
            self.times[idx].append(dt)
            self.runs[idx].append((op.split() if op.split else [(dt, start, end)], full))
        if full:
            self.passes += 1
            self.pass_busy += busy
            self.pass_ops += sum(op.count for op in self.ops)
        return busy

    def scaled(self) -> list[list[tuple[list[float], bool]]]:
        """Per op, per run: its case times scaled to the reference host speed
        (see hostspeed.py), and whether the run was part of a full pass."""
        return [[([t * HOST.scale(a, b) for t, a, b in cases], full) for cases, full in runs] for runs in self.runs]

    def latencies(self, scaled) -> list[float]:
        """Latency of each user-visible operation, a session line, a library
        call or one case of a check: the median of its scaled runs."""
        return [statistics.median(case) for runs in scaled for case in zip(*(cases for cases, _ in runs))]

    def throughput(self, scaled) -> float:
        """Ops of the full passes over their scaled busy time."""
        busy = sum(sum(cases) for runs in scaled for cases, full in runs if full)
        return self.pass_ops / busy

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.printed).encode()).hexdigest()


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def pinned_digest(workload: str, seed: int) -> str | None:
    pins = json.loads((HERE / "digests.json").read_text())
    return pins.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="igc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "igc" / "__init__.py").is_file():
        print(f"perfbench: no igc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import igc

    if Path(igc.__file__).resolve().parent != SRC / "igc":
        print(f"perfbench: imported igc from {igc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":  # each workload in a process of its own
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}, all",
              file=sys.stderr)
        return 2

    if args.trace:
        report = traced_run(args.workload, args.seed)
    else:
        report = timed_run(args.workload, args.seed, args.seconds)
    for line in report["lines"]:
        print(line)
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def timed_run(workload: str, seed: int, seconds: float, small: bool = False) -> dict:
    """End-to-end metrics, tracing off."""
    import workloads

    setup_raw, setup_s = measure_setup()
    ops = workloads.build(workload, seed, small)
    res = Result(ops)
    while True:
        res.run_pass()
        for low, high, extra in REPEATS[workload]:
            chosen = [i for i, t in enumerate(res.times) if low <= min(t) < high]
            for _ in range(extra):
                res.run_pass(chosen)
        if res.pass_busy >= seconds:
            break
    scaled = res.scaled()
    latency = res.latencies(scaled)
    n = len(latency)
    q = tail_percentile(n)
    pinned = pinned_digest(workload, seed)
    digest = res.digest()
    # a failed op explains a changed digest; with every op passing, a
    # changed digest is byte-level drift of the printed outputs
    drift = pinned is not None and digest != pinned and not small and res.failed == 0
    if drift:
        res.failed = res.attempted
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (res.throughput(scaled), "ops/s"),
        "op_p50_ms": (percentile(latency, 50) * 1e3, "ms"),
        "op_p99_ms": (percentile(latency, q) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    probe_ms = statistics.median(HOST.samples) * 1e3
    lines = [
        f"workload {workload}  seed {seed}  closed loop, 1 client, 1 thread",
        f"setup_s      {setup_s:.4f} s      median of {SETUP_RUNS} fresh interpreters running "
        f"`igc {' '.join(SETUP_ARGV[2:])}` ({setup_raw:.4f} s unscaled)",
        f"ops_per_s    {metrics['ops_per_s'][0]:.3f} ops/s  ({res.passes} full pass(es) of {len(ops)} calls: "
        f"{res.pass_ops} ops in {res.pass_busy:.3f} s busy, {res.pass_ops / res.pass_busy:.3f} ops/s unscaled)",
        f"op_p50_ms    {metrics['op_p50_ms'][0]:.4f} ms",
        f"op_p99_ms    {metrics['op_p99_ms'][0]:.4f} ms  (p{q:g} over {n} samples)",
        f"             (an op's latency is the median of its runs; after each pass, ops whose least run takes "
        + (", ".join(f"{low:g} to {high:g} s run {extra} more times" for low, high, extra in REPEATS[workload])
           or "no op runs again")
        + f"; {res.attempted} ops run in all; each case of a check is one op, timed between "
        f"the check's counts of its cases)",
        f"host speed   probe {probe_ms:.4f} ms median over {len(HOST.samples)} runs, reference "
        f"{REFERENCE * 1e3:g} ms; every time above is scaled by the reference over the probe's median "
        f"within {MARGIN:g} s of the run",
        f"fail_ratio   {res.failed / res.attempted:.6f} 1  ({res.failed} of {res.attempted} ops)",
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.2f} MB",
        f"digest       {digest}  "
        + ("unpinned" if pinned is None else "pinned, match" if digest == pinned
           else "pinned, drift" if drift else "pinned, differs where ops failed"),
    ]
    bad = [text for ok, text in zip(res.good, res.printed) if not ok]
    lines += [f"FAILED       {text[:300]}" for text in bad[:10]]
    return {
        "lines": lines,
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "digest": digest,
    }


def traced_run(workload: str, seed: int, small: bool = False) -> dict:
    """Per-layer metrics from one traced pass.

    trace_overhead compares the traced and untraced busy time of the same
    ops, after one untraced warm-up run of them, so that both passes find
    igc's caches in the same state.  The comparison leaves out the ops in
    workloads.NO_REFERENCE, whose further runs would not fit the time a run
    may take; they run once, traced.
    """
    import workloads
    from tracer import Tracer

    HOST.active = False  # the probe would add its time to the spans around it
    ops = workloads.build(workload, seed, small)
    res = Result(ops)
    reference = [i for i, op in enumerate(ops) if op.label not in workloads.NO_REFERENCE]
    res.run_pass(reference)
    untraced = res.run_pass(reference)
    tracer = Tracer()
    tracer.install()
    traced_busy = [0.0] * len(ops)
    try:
        sink = tracer.span if workload == "check-suite" else None
        for i in range(len(ops)):
            traced_busy[i] = res.run_pass([i], sink)
    finally:
        tracer.uninstall()
    traced = sum(traced_busy[i] for i in reference)
    check_names = [op.label.split(".", 1)[1] for op in ops] if workload == "check-suite" else []
    metrics = tracer.metrics(check_names)
    for name in workloads.CHECK_CASES:
        metrics.setdefault(f"checks.{name}.s", 0.0)
        metrics[f"checks.{name}.cases"] = sum(
            r.cases for op, r in zip(ops, res.first) if op.label == f"checks.{name}" and hasattr(r, "cases")
        )
    metrics["trace_overhead"] = traced / untraced
    tracer.write(ROOT / ".bench_build" / "perfbench", f"spans-{workload}")
    HOST.active = True
    units = per_layer_units()
    left_out = [op.label for op in ops if op.label in workloads.NO_REFERENCE]
    lines = [f"workload {workload}  seed {seed}  traced pass: {len(tracer.span_name)} spans in "
             f"{sum(traced_busy):.3f} s; over the {len(reference)} of {len(ops)} ops run both ways, "
             f"{traced:.3f} s traced vs {untraced:.3f} s untraced (warm)"
             + (f"; trace_overhead leaves out {', '.join(left_out)}" if left_out else "")]
    lines += [f"{name:50s} {metrics[name]:.6g} {units[name]}" for name in units]
    return {
        "lines": lines,
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def per_layer_units() -> dict[str, str]:
    """Names and units of the per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
