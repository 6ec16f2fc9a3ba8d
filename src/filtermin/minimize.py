"""Anytime minimization: shrink a size bound with one incremental solver.

Two facts about the filter frame the search before any clause is built.
Greedy merging of its Moore classes under closure (`merged_cover`) gives a
valid zipped cover, so it is the first best cover and the fallback when no
SAT answer arrives.  A clique of pairwise-incompatible states
(`clique_lower_bound`, over the Paull-Unger incompatible pairs, computed
once per call) needs that many subsets in any valid zipped cover, so no
cover can be smaller.  When the two meet the call is proven at once,
with no solver.

Otherwise one descent loop serves both methods.  It builds the constraint
system once at bound k = merged cover size - 1, then for each bound solves,
decodes the model into a cover and checks the zip condition.  An accepted
cover of size s bans every slot from s up to k with unit clauses, and the
loop re-solves at k = s - 1, reusing everything the solver has learned.
This jump is sound because every clause schema is symmetric under slot
permutation: any cover smaller than s fits in slots 1..s-1.  So every
accepted cover is smaller than the one before it.  The descent stops
proven when k falls below the clique bound or a bound is unsatisfiable;
running out of budget still leaves the best cover found so far.  The
budget covers the whole call, bounds, formula build and solver load
included.

The methods differ only in what is loaded up front.  The eager `sat`
method loads every clause, so a zip violation can only be an encoding
bug.  The lazy `lazy-sat` method withholds the children-containment
("zip") clauses and loads them in groups only when a proposed cover
actually violates the zip condition, which keeps the loaded formula a
fraction of the full one on filters with many observations.  Every group
covers all of the layout's slots, as in the eager formula.

Both methods branch on the R block only (the cover itself); the solver
completes the routing and output witnesses, which `filtermin.encoding`
shows is sound for its CNF.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .encoding import (build_cnf, build_layout, ban_size_units,
                       cover_from_model, zip1_clauses_for_state,
                       zip2_clauses_for_obs)
from .filters import (Cover, Filter, clique_lower_bound, find_zip_violation,
                      induced_filter, merged_cover, require_minimizable)
from .sat import SAT, UNSAT, CdclSolver

METHOD_SAT = "sat"
METHOD_LAZY = "lazy-sat"


class Budget:
    """Wall-clock allowance for a whole minimize run.

    Construction does not start the clock; `start` does, and `minimize`
    calls it first, so formula building and solver loading count against
    the allowance.  The build itself is not interrupted.  A None allowance
    never expires; a negative or NaN one is rejected.
    """

    def __init__(self, seconds: Optional[float] = None):
        if seconds is not None and not seconds >= 0:
            raise ValueError(f"budget must be >= 0, got {seconds}")
        self.seconds = seconds
        self._deadline = None

    def start(self) -> "Budget":
        if self.seconds is not None:
            self._deadline = time.monotonic() + self.seconds
        return self

    def remaining(self) -> Optional[float]:
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()


@dataclass(frozen=True)
class IterationStat:
    """Outcome of one size bound k (lazy reload rounds are aggregated).

    Bounds decrease from row to row but may skip values: after a cover of
    size s the next row is at k = s - 1.
    """

    k: int
    outcome: str
    elapsed_s: float
    clauses_in_solver: int
    best_size: Optional[int]


@dataclass(frozen=True)
class MinimizeReport:
    """The best cover a call found, its bounds and its iteration rows.

    `lower_bound` is the clique bound and `upper_bound` the size of the
    merged cover the descent started from, so a `best_size` below
    `upper_bound` came from the solver and one equal to it did not.
    """

    method: str
    best_cover: Cover
    best_filter: Filter
    proven_minimal: bool
    lower_bound: int
    upper_bound: int
    iterations: tuple
    zip_obs_loaded: int = 0
    zip_pairs_loaded: int = 0

    @property
    def best_size(self) -> int:
        return self.best_cover.size

    @property
    def final_clause_count(self) -> int:
        if not self.iterations:
            return 0
        return self.iterations[-1].clauses_in_solver

    def summary_lines(self):
        head = (f"method={self.method} best_size={self.best_size} "
                f"lower_bound={self.lower_bound} "
                f"upper_bound={self.upper_bound} "
                f"proven={self.proven_minimal}")
        rows = [head]
        for it in self.iterations:
            rows.append(f"  k={it.k} {it.outcome} {it.elapsed_s * 1000:.1f}ms "
                        f"clauses={it.clauses_in_solver} best={it.best_size}")
        return rows


def _load_zip_groups(solver, layout, cover, violation, loaded_obs,
                     loaded_pairs) -> bool:
    """Load the zip groups behind one violation; False if none were new.

    A violated (subset, observation) pair loads the routing clauses for
    that observation plus the containment clauses for the subset's member
    states, each over the layout's slots 1..k.  Groups loaded after a ban
    stay sound: a containment clause whose subset is banned is true at the
    root, one whose target is banned shrinks to [-a, -R], and a banned
    subset's routing clause is met by the completion that
    `filtermin.encoding` describes.
    """
    i, y = violation
    progress = False
    if y not in loaded_obs:
        loaded_obs.add(y)
        progress = True
        for clause in zip2_clauses_for_obs(layout, y):
            solver.add_clause(clause)
    for v in sorted(cover.subsets[i]):
        if layout.child(v, y) is None or (v, y) in loaded_pairs:
            continue
        loaded_pairs.add((v, y))
        progress = True
        for clause in zip1_clauses_for_state(layout, v, y):
            solver.add_clause(clause)
    return progress


def minimize(flt: Filter, method: str = METHOD_SAT,
             budget: Optional[Budget] = None, seed: int = 0) -> MinimizeReport:
    """Descend the size bound from the merged cover to the clique bound.

    The merged cover is the first best cover, and its size the report's
    upper bound; the clique bound, read from the call's one
    `incompatible_pairs` closure, is the lower bound.  When they meet the
    call returns proven with no solver and no iteration row.  Otherwise the
    descent starts one below the merged cover's size.  Each bound runs
    solve, decode and zip check; a violation reloads zip groups and solves
    again, an accepted cover of size s bans every slot from s up to k and
    the descent continues at k = s - 1.  Every reload round strictly grows
    the loaded set, so the inner loop terminates.  The descent ends proven
    when k falls below the lower bound or a bound is unsatisfiable, and
    unproven when the budget ends, with the best cover so far (the merged
    cover if the solver accepted none).  Under `sat` every group is loaded
    up front and a violation is an encoding bug.  The budget starts before
    the bounds and the build; if they use it up, the first solve answers
    unknown at once.
    """
    if method not in (METHOD_SAT, METHOD_LAZY):
        raise ValueError(f"unknown method {method!r}")
    lazy = method == METHOD_LAZY
    if budget is None:
        budget = Budget(None)
    budget.start()
    require_minimizable(flt)
    best = merged_cover(flt)
    lower = len(clique_lower_bound(flt))
    loaded_obs = set()          # observations with routing clauses in
    loaded_pairs = set()        # (state, obs) with containment clauses in
    iterations = []
    accepted = None             # smallest cover the solver produced
    proven = True
    upper = best.size
    k = upper - 1
    if k >= lower:
        layout = build_layout(flt, k)
        solver = CdclSolver(num_vars=layout.num_cnf_vars, seed=seed,
                            decision_vars=layout.n_cover_vars)
        for clause in build_cnf(layout, lazy=lazy).clauses:
            solver.add_clause(clause)
    while k >= lower:
        t0 = time.monotonic()
        while True:
            out = solver.solve(budget.remaining())
            if out.status != SAT:
                break
            cover = cover_from_model(layout, out.model)
            violation = find_zip_violation(cover)
            if violation is None:
                best = accepted = cover
                break
            if not (lazy and _load_zip_groups(solver, layout, cover, violation,
                                              loaded_obs, loaded_pairs)):
                raise RuntimeError(
                    "zip violation with all groups loaded; encoding bug")
        iterations.append(IterationStat(
            k=k, outcome=out.status, elapsed_s=time.monotonic() - t0,
            clauses_in_solver=solver.n_problem,
            best_size=accepted.size if accepted else None))
        if out.status != SAT:
            proven = out.status == UNSAT
            break
        for slot in range(best.size, k + 1):
            for unit in ban_size_units(layout, slot):
                solver.add_clause(unit)
        k = best.size - 1
    return MinimizeReport(
        method=method, best_cover=best, best_filter=induced_filter(best),
        proven_minimal=proven, lower_bound=lower, upper_bound=upper,
        iterations=tuple(iterations),
        zip_obs_loaded=len(loaded_obs), zip_pairs_loaded=len(loaded_pairs))

