#!/usr/bin/env python3
"""Eager vs lazy clause loading on large instances under a fixed budget.

Generates layered filters with roughly a hundred states and a 50-token
alphabet, runs both methods with the same wall-clock budget, and prints
best size, lower and upper bound, proof status, and final clause count
side by side.  A call whose best size equals its upper bound was settled
by the bounds alone or got no better answer from the solver.  The point
of the comparison: the eager method spends its budget wading through a
complete constraint system, while the lazy method only ever materializes
the zip constraints the solver actually trips over.

Usage:
    python scripts/run_large.py [--instances 3] [--budget-s 60] [--csv out.csv]
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from filtermin import (Budget, GenParams, METHOD_LAZY, METHOD_SAT,  # noqa: E402
                       generate, minimize)
from filtermin.bench import LARGE_SHAPE  # noqa: E402
from filtermin.cli import positive_int  # noqa: E402
from filtermin.rng import derive  # noqa: E402

CSV_HEADER = ("instance,seed,n_states,method,best_size,lower_bound,"
              "upper_bound,proven,elapsed_s,final_clause_count,"
              "zip_obs_loaded,zip_pairs_loaded")


def nonnegative_float(text: str) -> float:
    x = float(text)
    if not x >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return x


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=positive_int, default=3)
    ap.add_argument("--budget-s", type=nonnegative_float, default=60.0)
    ap.add_argument("--seed", type=int, default=0xB1A5)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    rows = [CSV_HEADER]
    for i in range(args.instances):
        seed = derive(args.seed, i)
        flt = generate(GenParams(seed=seed, **LARGE_SHAPE))
        print(f"instance {i}: {flt.n_states} states, "
              f"{sum(len(d) for d in flt.succ.values())} edges")
        results = {}
        for method in (METHOD_SAT, METHOD_LAZY):
            t0 = time.monotonic()
            report = minimize(flt, method=method, budget=Budget(args.budget_s))
            elapsed = time.monotonic() - t0
            results[method] = report
            print(f"  {method:>8}: best {report.best_size:>3} "
                  f"(bounds {report.lower_bound}..{report.upper_bound}, "
                  f"proven={report.proven_minimal}) in {elapsed:.1f}s, "
                  f"{report.final_clause_count} clauses in solver, "
                  f"zip groups loaded: {report.zip_obs_loaded} obs / "
                  f"{report.zip_pairs_loaded} edge")
            rows.append(f"{i},{seed},{flt.n_states},{method},"
                        f"{report.best_size},{report.lower_bound},"
                        f"{report.upper_bound},{report.proven_minimal},"
                        f"{elapsed:.1f},{report.final_clause_count},"
                        f"{report.zip_obs_loaded},{report.zip_pairs_loaded}")
        eager, lazy = results[METHOD_SAT], results[METHOD_LAZY]
        verdict = ("lazy ahead" if lazy.best_size < eager.best_size
                   else "tie" if lazy.best_size == eager.best_size
                   else "eager ahead")
        print(f"  -> {verdict}; clause ratio "
              f"{lazy.final_clause_count / max(1, eager.final_clause_count):.2f}")
    if args.csv:
        Path(args.csv).write_text("\n".join(rows) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
