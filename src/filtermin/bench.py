"""Benchmark suites comparing the eager and lazy methods on random filters.

Each suite is a parameter sweep; every generated instance runs under both
methods and yields one CSV row per (instance, method).  A row's status is
the outcome of the call's last size query (sat, unsat or unknown), or
"bounds" when the lower and upper bounds met and no query ran, which is
a proven answer.  The last four columns are the call's clique lower
bound, its merged-cover upper bound and the zip groups it loaded
just in time (observation groups, then edge groups; 0 under the eager
method).  Failures become rows with status "error" and empty figures
instead of killing the sweep.  Rows come out in sweep order, so equal
inputs give byte-equal CSVs when timing is zeroed.
"""
from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .generate import GenParams, GenerationError, generate
from .minimize import Budget, METHOD_LAZY, METHOD_SAT, minimize
from .rng import derive

BENCH_HEADER = ("suite,layers,width,self_loops,back_edges,outputs,"
                "outputs_per_state,observations,instance,seed,method,"
                "status,best_size,proven,elapsed_ms,final_clause_count,"
                "lower_bound,upper_bound,zip_obs_loaded,zip_pairs_loaded")

SUITES = ("obs-sweep", "out-sweep", "large")

# 13 states; the sweeps vary n_observations or n_outputs around it
MEDIUM_SHAPE = dict(layers=4, width=3, self_loops=2, back_edges=2,
                    n_outputs=5, outputs_per_state=2, n_observations=6)
# 101 states over a 50-token alphabet
LARGE_SHAPE = dict(layers=20, width=5, self_loops=10, back_edges=10,
                   n_outputs=5, outputs_per_state=1, n_observations=50)


@dataclass(frozen=True)
class BenchCase:
    suite: str
    params: GenParams
    instance: int
    method: str
    timeout_ms: Optional[int]
    zero_timing: bool


def suite_cases(suite: str, repeats: int, seed: int,
                timeout_ms: Optional[int], zero_timing: bool):
    """Expand a suite name into the ordered list of cases to run."""
    if suite == "obs-sweep":
        # n_observations=2 cannot generate at width 3: the root always has
        # three distinctly labelled out-edges, so the sweep starts at 3
        shapes = [dict(MEDIUM_SHAPE, n_observations=n) for n in range(3, 11)]
    elif suite == "out-sweep":
        shapes = [dict(MEDIUM_SHAPE, n_outputs=n) for n in range(2, 9)]
    elif suite == "large":
        shapes = [LARGE_SHAPE]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    cases = []
    for shape_idx, shape in enumerate(shapes):
        for instance in range(repeats):
            params = GenParams(seed=derive(seed, shape_idx, instance), **shape)
            for method in (METHOD_SAT, METHOD_LAZY):
                cases.append(BenchCase(suite=suite, params=params,
                                       instance=instance, method=method,
                                       timeout_ms=timeout_ms,
                                       zero_timing=zero_timing))
    return cases


def run_case(case: BenchCase) -> str:
    p = case.params
    prefix = (f"{case.suite},{p.layers},{p.width},{p.self_loops},"
              f"{p.back_edges},{p.n_outputs},{p.outputs_per_state},"
              f"{p.n_observations},{case.instance},{p.seed},{case.method}")
    try:
        flt = generate(p)
        budget = Budget(case.timeout_ms / 1000.0
                        if case.timeout_ms is not None else None)
        t0 = time.monotonic()
        report = minimize(flt, method=case.method, budget=budget,
                          seed=p.seed)
        elapsed_ms = 0 if case.zero_timing else int(
            round((time.monotonic() - t0) * 1000))
        status = report.iterations[-1].outcome if report.iterations else "bounds"
        return (f"{prefix},{status},{report.best_size},"
                f"{report.proven_minimal},{elapsed_ms},"
                f"{report.final_clause_count},{report.lower_bound},"
                f"{report.upper_bound},{report.zip_obs_loaded},"
                f"{report.zip_pairs_loaded}")
    except (GenerationError, ValueError, RuntimeError):
        traceback.print_exc()
        return f"{prefix},error,,False,,,,,,"


def run_bench(suite: str, repeats: int = 3, seed: int = 0,
              timeout_ms: Optional[int] = None, jobs: int = 1,
              zero_timing: bool = False) -> str:
    cases = suite_cases(suite, repeats, seed, timeout_ms, zero_timing)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_case, cases))
    else:
        rows = [run_case(c) for c in cases]
    return "\n".join([BENCH_HEADER] + rows) + "\n"
