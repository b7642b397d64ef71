"""Print every metric of every workload, with units, from the repository root:

    python3 perfbench/report.py                    # one run per workload, seed 1
    python3 perfbench/report.py --seeds 1-10       # ten seeds: median and spread
    python3 perfbench/report.py --trace            # add the per-layer metrics
    python3 perfbench/report.py --save perfbench/baseline/NAME.json

Each run is `run.py` in its own process.  For several seeds the table shows
the median of each metric and its spread: the distance between the first and
third quartile (`statistics.quantiles(values, n=4)`) over the median.  The
exit status is 1 if any run gated a wrong output or did not finish.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MOVES = {name: moves for name, _, _, moves in PER_LAYER}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, int]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith("record: "):
            record = json.loads(line[len("record: "):])
    if record is None:
        sys.stderr.write(proc.stderr)
    return record, proc.returncode


def spread(values: list[float]) -> float | None:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summarize(workload: str, records: list[dict]) -> None:
    first = records[0]
    print(f"\n{workload}: {len(records)} run(s), seeds {[r['seed'] for r in records]}, "
          f"{first['client']}")
    print(f"  {'metric':58s} {'median':>14s} {'unit':8s} spread  should move")
    for name in first["metrics"]:
        values = [r["metrics"][name]["value"] for r in records]
        s = spread(values)
        print(f"  {name:58s} {statistics.median(values):14.6g} {first['metrics'][name]['unit']:8s} "
              + ("-    " if s is None else f"{s:.3f}") + f"  {MOVES.get(name, '')}")
    extra = [("failed_frac", "1", "failed_frac")]
    if "op_s_tail_percentile" in first:
        extra += [("op_s_tail percentile", "%", "op_s_tail_percentile"),
                  ("op samples per run", "count", "op_samples"), ("rounds per run", "count", "rounds")]
    for label, unit, key in extra:
        values = [r[key] for r in records]
        print(f"  {label:58s} {statistics.median(values):14.6g} {unit:8s}")
    causes = sorted({e.split(": ", 1)[1] for r in records for e in r["known_defect"]})
    for cause in causes:
        print(f"  failed op, known defect: {cause}")
    for r in records:
        for wrong in r["wrong"]:
            print(f"  WRONG (seed {r['seed']}): {wrong}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", action="store_true", help="also make one traced run per seed")
    parser.add_argument("--save", default=None, help="write every record to this JSON file")
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    status = 0
    saved = {}
    for workload in args.workload or list(WORKLOADS):
        for trace in (0, 1) if args.trace else (0,):
            records = []
            for seed in seed_list(args.seeds):
                record, rc = run(workload, seed, seconds, trace)
                if record is None or rc != 0:
                    status = 1
                if record is not None:
                    records.append(record)
            if records:
                summarize(workload + (" (traced)" if trace else ""), records)
                saved[f"{workload}{'-traced' if trace else ''}"] = records
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
