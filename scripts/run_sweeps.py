#!/usr/bin/env python3
"""Full difficulty sweeps: solve time vs alphabet size and output count.

Runs the obs-sweep and out-sweep benchmark suites at 10 seeds per point,
writes one CSV per suite, and prints the per-point median solve time for
each method so the trend is visible without plotting.

Usage:
    python scripts/run_sweeps.py [--repeats 10] [--timeout-ms 60000]
                                 [--jobs N] [--outdir results]
"""
import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from filtermin import BENCH_HEADER, run_bench  # noqa: E402
from filtermin.cli import nonnegative_int, positive_int  # noqa: E402

COLUMN = {"obs-sweep": 7, "out-sweep": 5}
AXIS = {"obs-sweep": "observation tokens", "out-sweep": "output colors"}


def medians_by_point(csv_text, suite, method):
    per_point = {}
    for line in csv_text.splitlines()[1:]:
        f = line.split(",")
        if f[11] == "error":
            print(f"  warning: error row {line}", file=sys.stderr)
            continue
        if f[10] != method:
            continue
        per_point.setdefault(int(f[COLUMN[suite]]), []).append(float(f[14]))
    return {x: statistics.median(v) for x, v in sorted(per_point.items())}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=positive_int, default=10)
    ap.add_argument("--timeout-ms", type=nonnegative_int, default=60000)
    ap.add_argument("--jobs", type=positive_int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for suite in ("obs-sweep", "out-sweep"):
        print(f"== {suite}: {args.repeats} seeds per point ==")
        csv_text = run_bench(suite, repeats=args.repeats, seed=args.seed,
                             timeout_ms=args.timeout_ms, jobs=args.jobs)
        assert csv_text.splitlines()[0] == BENCH_HEADER
        path = outdir / f"{suite}.csv"
        path.write_text(csv_text)
        print(f"wrote {path}")
        for method in ("sat", "lazy-sat"):
            med = medians_by_point(csv_text, suite, method)
            print(f"  median ms vs {AXIS[suite]} [{method}]: {med}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
