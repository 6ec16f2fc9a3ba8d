#!/usr/bin/env python3
"""Exact-repeat check of the medium-prove workload.

    python3 perfbench/check_repeat.py --seed 7 --seconds 4

No budget cuts a medium-prove call, so two traced runs with the same seed
must report identical search counters, and a different seed must give a
different corpus.  Exits 0 when both hold, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workload import requests_for  # puts the checkout's src on the path

from filtermin import generate, write_flt

HERE = Path(__file__).resolve().parent
COUNTERS = ("sat.decisions", "sat.conflicts", "sat.propagations",
            "minimize.k_steps")


def traced_counters(seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "medium-prove",
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
        timeout=600)
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTERS}


def corpus(seed, seconds):
    return [write_flt(generate(r.params))
            for r in requests_for("medium-prove", seed, seconds)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=4)
    args = ap.parse_args(argv)
    first = traced_counters(args.seed, args.seconds)
    second = traced_counters(args.seed, args.seconds)
    ok = True
    for name in COUNTERS:
        same = first[name] == second[name]
        ok &= same
        print(f"{name}: {first[name]} vs {second[name]} "
              f"{'identical' if same else 'DIFFERENT'}")
    differs = corpus(args.seed, args.seconds) != corpus(args.seed + 1,
                                                         args.seconds)
    ok &= differs
    print(f"seed {args.seed + 1} corpus "
          f"{'differs' if differs else 'is the SAME'} from seed {args.seed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
