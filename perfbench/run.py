"""Benchmark of the quasitrivial CLI.  Stdlib only; run from the repository root:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `enumerate` and `classify` call
`quasitrivial.cli.main` in this process, `crosscheck` starts a fresh
`python -m quasitrivial` for every op.  One client, closed loop.

The run repeats whole rounds of ops until the next round would end after
`--seconds`, gates every output, and prints a `record: {...}` line with the
full result (environment, failures, tail percentile) and, as its last line,
one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
end-to-end metrics with `--trace 0` or the per-layer metrics with `--trace 1`.
A traced run executes the first round untraced and then traced, and reports
the tracing overhead as the traced time over the untraced time, minus 1.

An op fails when it gives a wrong answer or none at all (an uncaught
exception, a traceback, a timeout).  Every failure makes `correct` false and
the exit status 1, except the one known defect an op's `meta["known_defect"]`
names (see workloads.py): that op counts as failed but not as wrong.
`python3 perfbench/report.py` prints every metric of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402

# fresh interpreters timed for setup_s: half before the timed loop, half after
# it, so that the median spans the run rather than one moment of the host
SETUP_REPEATS = 41
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "emitted_per_s": "lines/s",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "platform": platform.platform(),
    }


class Tally:
    """Outcome and timing of every op run."""

    def __init__(self):
        self.seconds: list[float] = []
        self.lines = 0
        self.ok = 0
        self.wrong: list[str] = []
        self.known_defect: list[str] = []

    def add(self, op, res, reason: str | None) -> None:
        self.seconds.append(res.seconds)
        self.lines += res.lines
        known = op.meta.get("known_defect")
        if res.error and known and res.error.startswith(known):
            self.known_defect.append(f"{op.key}: {res.error}")
        elif res.error or reason:
            self.wrong.append(f"{op.key}: {res.error or reason}")
        else:
            self.ok += 1

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return len(self.wrong) + len(self.known_defect)


def run_round(workload: str, ops, execute, tally: Tally) -> None:
    _, gate, round_check = workloads.WORKLOADS[workload]
    state: dict = {}
    for op in ops:
        res = execute(op)
        tally.add(op, res, None if res.error else gate(op, res, state))
    tally.wrong += round_check(state)


def tail(seconds: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    the (TAIL_BEYOND+1)-th largest value, and that percentile."""
    ordered = sorted(seconds)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "crosscheck" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def make_executor(workload: str):
    if workload == "crosscheck":
        return runner.Subprocess(ROOT)
    return runner.InProcess(keep_all=workload == "classify")


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, Tally]:
    generated = workloads.rounds(workload, seed)
    first = next(generated)
    setup = runner.measure_setup(ROOT, first[0].argv, SETUP_REPEATS // 2)
    execute = make_executor(workload)
    tally = Tally()
    start = perf_counter()
    ops, rounds = first, 0
    while True:
        run_round(workload, ops, execute, tally)
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
        ops = next(generated)
    wall = perf_counter() - start
    setup += runner.measure_setup(ROOT, first[0].argv, SETUP_REPEATS - len(setup))
    busy = sum(tally.seconds)
    tail_s, tail_pct = tail(tally.seconds)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": tally.ok / busy,
        "op_s_p50": statistics.median(tally.seconds),
        "op_s_tail": tail_s,
        "emitted_per_s": tally.lines / busy,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    detail = {
        "rounds": rounds,
        "wall_s": wall,
        "busy_s": busy,
        "setup_samples_s": setup,
        "op_s_tail_percentile": tail_pct,
        "op_samples": tally.attempted,
        "failed_frac": tally.failed / tally.attempted,
    }
    return {"metrics": metrics, "detail": detail}, tally


def measure_traced(workload: str, seed: int) -> tuple[dict, Tally]:
    ops = next(workloads.rounds(workload, seed))
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    trace_file = work / f"trace-{workload}.spans"
    span_file = work / "child.spans" if workload == "crosscheck" else None
    tally = Tally()
    run_round(workload, ops, make_executor(workload), tally)
    untraced_s = sum(tally.seconds)
    traced = runner.Traced(make_executor(workload) if span_file is None else
                           runner.Subprocess(ROOT, span_file), trace_file, span_file)
    try:
        run_round(workload, ops, traced, tally)
    finally:
        traced.close()
    traced_s = sum(tally.seconds) - untraced_s
    metrics = layers.compute(ops, traced.reductions, traced_s / untraced_s - 1)
    detail = {"rounds": 1, "trace_file": str(trace_file.relative_to(ROOT)),
              "failed_frac": tally.failed / tally.attempted}
    return {"metrics": metrics, "detail": detail}, tally


def units() -> dict:
    out = dict(END_TO_END_UNITS)
    out.update({name: unit for name, unit, *_ in layers.PER_LAYER})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quasitrivial" / "cli.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.trace:
        result, tally = measure_traced(args.workload, args.seed)
    else:
        result, tally = measure(args.workload, args.seed, args.seconds)
    u = units()
    metrics = {name: {"value": value, "unit": u[name]} for name, value in result["metrics"].items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, 1 process, no threads",
        "environment": environment(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "known_defect": tally.known_defect,
        **result["detail"],
        "metrics": metrics,
    }
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 1 if tally.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
