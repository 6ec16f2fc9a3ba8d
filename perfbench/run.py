#!/usr/bin/env python3
"""filtermin benchmark: run one workload and print its figures.

    python3 perfbench/run.py --workload medium-prove --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
The inputs are a pure function of the workload, `--seed` and `--seconds`.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run, whose
spans are also written to `perfbench/out/`.  The exit code is 0 once that
line is printed; any other outcome exits non-zero and prints no result.
See `perfbench/README.md` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "filtermin" / "__init__.py").is_file():
        print(f"no filtermin sources under {SRC}", file=sys.stderr)
        return 1
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 1

    import workload
    from tracer import Tracer

    requests = workload.requests_for(args.workload, args.seed, args.seconds)
    info = {}
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            done = [workload.run_isolated(req, tracer) for req in requests]
        metrics = tracer.layer_metrics()
        spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        with spans.open("w") as out:
            for rec in tracer.spans:
                out.write(json.dumps(rec) + "\n")
    else:
        done = [workload.run_isolated(req) for req in requests]
    calls = [c for cs, _ in done for c in cs]
    failed = [c for c in calls if c.error is not None]
    for c in failed:
        print(f"failed {c.method}: {c.error}", file=sys.stderr)
    if not args.trace:
        if all(any(c.error is not None for c in cs) for cs, _ in done):
            print("no request passed its checks; no figures to report",
                  file=sys.stderr)
            return 1
        metrics, info = workload.end_to_end(done)

    for key, value in info.items():
        print(f"{args.workload} {key} {value}")
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} {value} {unit}")
    print(json.dumps({
        "correct": not failed, "attempted": len(calls), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
