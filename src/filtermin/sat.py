"""Incremental CDCL SAT engine used by the minimization loop.

Conflict-driven clause learning with two watched literals per clause,
first-UIP conflict analysis, VSIDS-style variable activities, geometric
restarts, and periodic deletion of long learned clauses.  The solver is
incremental at the root level: clauses (including unit bans) may be added
between `solve` calls and learned clauses survive, which is what makes the
shrinking size loop and the just-in-time constraint loading cheap.

Literal convention is DIMACS-like: variables are positive ints, a negative
int is the negated literal.  The variable range 1..num_vars is fixed when
the solver is built, and every table is sized once then and never grows:
each variable has its two watch lists and its slots from construction on.
Literal-indexed tables exploit Python's negative indexing: with n
variables they have length 2n + 1, so table[lit] works for -n <= lit <= n.
`add_clause` rejects any literal outside that range, 0 included.

Branching is restricted to the decision variables 1..decision_vars (all
variables by default), as in MiniSat's decision-variable flag.  Each
decision variable starts with a tiny seeded activity, its jitter, that
breaks equal-activity ties by seed.  The solver keeps one invariant:
every unassigned decision variable has an entry in the VSIDS heap
carrying its current activity.  The heap is built once, from every
decision variable, at construction, and backtracking is its one push
site: it pushes every decision variable it unassigns.  Bumps push
nothing: conflict analysis bumps only assigned variables, which
backtracking pushes with their bumped activity.  Each solve ends at
level 0, so the invariant holds between solves.  Between rebuilds
activities only grow, so no entry carries more than its variable's
current activity and the smallest entry naming an unassigned variable
carries exactly that: a pick skips only assigned variables, and a
drained heap means every decision variable is assigned.  The heap is
rebuilt at construction, in backtracking once it holds more than twice
as many entries as there are decision variables (which bounds it however
long a search runs), and in a rescale, since scaled activities must not
be compared against unscaled entries.  No rebuild changes a pick.

A solve answers SAT when the heap is drained and propagation is quiet.
The model maps every variable in 1..num_vars to a bool.  Variables above
decision_vars may then still be unassigned, and the model reports each
such variable as true.  This is a satisfying model only for formulas where
completing with true is sound, which the caller must know:
`filtermin.encoding` states why its CNF is one when the R block is the
decision set.  With the default, every variable is assigned.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Optional

from .rng import _GAMMA, mix64

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


@dataclass
class SolveStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0


@dataclass
class SolveOutcome:
    status: str
    model: Optional[dict]
    stats: SolveStats


class CdclSolver:
    def __init__(self, num_vars: int, seed: int = 0,
                 decision_vars: Optional[int] = None):
        if num_vars < 0:
            raise ValueError(f"variable count must be >= 0, got {num_vars}")
        if decision_vars is None:
            decision_vars = num_vars
        elif not 0 <= decision_vars <= num_vars:
            raise ValueError(f"decision variables must be 0..{num_vars}, "
                             f"got {decision_vars}")
        self.num_vars = num_vars
        self.decision_vars = decision_vars   # branch on 1..decision_vars only
        lits, nv = 2 * num_vars + 1, num_vars + 1
        self.values = [0] * lits       # lit-indexed: 1 true, -1 false, 0 unset
        # lit-indexed lists of clauses watching lit
        self.watches = [[] for _ in range(lits)]
        self.level = [0] * nv          # var-indexed tables from here down
        self.reason = [None] * nv
        # jitter(v) == (derive(seed, v) % 997) * 1e-12, the first mix
        # hoisted; variables above decision_vars are never picked
        base = mix64(seed ^ _GAMMA)
        self.activity = [0.0] * nv
        for v in range(1, decision_vars + 1):
            self.activity[v] = (mix64(base ^ ((v + 1) * _GAMMA)) % 997) * 1e-12
        self.saved_phase = [False] * nv
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self._rebuild_heap()
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.unsat = False
        self.learnts = []
        self.max_learnts = 30000.0
        self.n_problem = 0

    # -- storage -------------------------------------------------------------

    def add_clause(self, lits) -> bool:
        """Add a problem clause; returns False once the formula is known unsat.

        Must be called with the solver at decision level 0 (it always is
        between `solve` calls).  Every literal must name a variable in
        1..num_vars: one pass checks each literal in turn, and raises
        ValueError, leaving the solver as it was, at the first one out of
        range.  The same pass deduplicates and reads root values; it drops
        the clause at a tautology or at the first literal true at the root,
        so a literal after that point is never read or checked.  Otherwise
        it strips false literals and keeps the rest in order.  A clause
        that simplifies to a unit is assigned at the root immediately and
        propagated on the next solve.
        """
        if self.unsat:
            return False
        values = self.values
        num_vars = self.num_vars
        seen = set()
        out = []
        for lit in lits:
            if lit in seen:
                continue
            if -lit in seen:
                return True          # tautology
            seen.add(lit)
            if not lit or not -num_vars <= lit <= num_vars:
                raise ValueError(
                    f"literal {lit} outside variables 1..{num_vars}")
            val = values[lit]
            if val == 0:
                out.append(lit)
            elif val == 1:
                return True          # satisfied at the root
        if not out:
            self.unsat = True
            return False
        self.n_problem += 1
        if len(out) == 1:
            self._assign(out[0], None)
            return True
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)
        return True

    # -- trail ---------------------------------------------------------------

    def _assign(self, lit, reason):
        self.values[lit] = 1
        self.values[-lit] = -1
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.saved_phase[v] = lit > 0
        self.trail.append(lit)

    def _backtrack(self, target_level):
        if len(self.trail_lim) <= target_level:
            return
        bound = self.trail_lim[target_level]
        values = self.values
        activity = self.activity
        heap = self.heap
        push = heapq.heappush
        decision_vars = self.decision_vars
        for lit in self.trail[bound:]:
            values[lit] = 0
            values[-lit] = 0
            v = lit if lit > 0 else -lit
            if v <= decision_vars:
                push(heap, (-activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)
        if len(heap) > 2 * decision_vars:
            self._rebuild_heap()

    # -- propagation ---------------------------------------------------------

    def _propagate(self):
        values = self.values
        watches = self.watches
        trail = self.trail
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            self.stats.propagations += 1
            ws = watches[-p]
            if not ws:
                continue
            watches[-p] = keep = []
            i = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == -p:
                    c[0] = c[1]
                    c[1] = -p
                first = c[0]
                if values[first] == 1:
                    keep.append(c)
                    continue
                for idx in range(2, len(c)):
                    l = c[idx]
                    if values[l] >= 0:
                        c[1] = l
                        c[idx] = -p
                        watches[l].append(c)
                        break
                else:
                    keep.append(c)
                    if values[first] == -1:
                        keep.extend(ws[i:])
                        return c
                    self._assign(first, c)
        return None

    # -- conflict analysis ---------------------------------------------------

    def _bump_var(self, v):
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        if act > _RESCALE_LIMIT:
            self._rescale()

    def _rescale(self):
        activity = self.activity
        activity[:] = [act * _RESCALE_FACTOR for act in activity]
        self.var_inc *= _RESCALE_FACTOR
        self._rebuild_heap()

    def _rebuild_heap(self):
        """One current entry per unassigned decision variable."""
        activity = self.activity
        values = self.values
        self.heap = [(-activity[v], v)
                     for v in range(1, self.decision_vars + 1)
                     if values[v] == 0]
        heapq.heapify(self.heap)

    def _analyze(self, confl):
        """First-UIP learning; returns (learnt_clause, backjump_level)."""
        seen = set()
        level = self.level
        trail = self.trail
        cur_level = len(self.trail_lim)
        learnt = []
        counter = 0
        p = None
        idx = len(trail) - 1
        while True:
            for l in (confl if p is None else confl[1:]):
                v = l if l > 0 else -l
                if v not in seen and level[v] > 0:
                    seen.add(v)
                    self._bump_var(v)
                    if level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(l)
            while True:
                p = trail[idx]
                idx -= 1
                v = p if p > 0 else -p
                if v in seen:
                    break
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[v]
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        # watch position 1 must hold the deepest remaining literal
        max_pos = 1
        max_level = level[abs(learnt[1])]
        for pos in range(2, len(learnt)):
            lv = level[abs(learnt[pos])]
            if lv > max_level:
                max_level = lv
                max_pos = pos
        learnt[1], learnt[max_pos] = learnt[max_pos], learnt[1]
        return learnt, max_level

    # -- decisions -----------------------------------------------------------

    def _pick_branch(self):
        values = self.values
        heap = self.heap
        while heap:
            _, v = heapq.heappop(heap)
            # entries of assigned variables are stale; an unassigned
            # variable's smallest entry carries its current activity
            if values[v] == 0:
                return v if self.saved_phase[v] else -v
        return None

    # -- learned clause deletion ----------------------------------------------

    def _locked(self, c):
        lit = c[0]
        return self.values[lit] == 1 and self.reason[abs(lit)] is c

    def _reduce_learnts(self):
        self.learnts.sort(key=len)
        keep_n = len(self.learnts) // 2
        kept = []
        removed = []
        for pos, c in enumerate(self.learnts):
            if pos < keep_n or len(c) <= 2 or self._locked(c):
                kept.append(c)
            else:
                removed.append(c)
        if removed:
            dead = set(map(id, removed))
            watches = self.watches
            for lit, ws in enumerate(watches):
                if ws:
                    watches[lit] = [c for c in ws if id(c) not in dead]
            self.learnts = kept
            self.stats.deleted += len(removed)
        self.max_learnts *= 1.3

    # -- main loop -----------------------------------------------------------

    def solve(self, time_budget_s: Optional[float] = None) -> SolveOutcome:
        """Run search until SAT, UNSAT, or the time budget runs out.

        Returns to decision level 0 before returning, whatever the outcome,
        so the solver stays usable for further clauses and calls.  UNSAT is
        permanent; later calls return it immediately.  A SAT model maps
        every variable in 1..num_vars and reports those left unassigned
        (only possible above decision_vars) as true.

        A None budget never runs out; a budget of zero or less answers
        UNKNOWN without searching.  A NaN budget raises ValueError, as
        `Budget` does, since no deadline could ever pass.
        """
        if time_budget_s is not None and math.isnan(time_budget_s):
            raise ValueError("time budget must not be NaN")
        self.stats = stats = SolveStats()
        if self.unsat:
            return SolveOutcome(UNSAT, None, stats)
        deadline = None
        if time_budget_s is not None:
            if time_budget_s <= 0:
                return SolveOutcome(UNKNOWN, None, stats)
            deadline = time.monotonic() + time_budget_s
        restart_limit = 100.0
        conflicts_at_restart = 0
        while True:
            if deadline is not None and time.monotonic() > deadline:
                self._backtrack(0)
                return SolveOutcome(UNKNOWN, None, stats)
            confl = self._propagate()
            if confl is not None:
                stats.conflicts += 1
                if not self.trail_lim:
                    self.unsat = True
                    return SolveOutcome(UNSAT, None, stats)
                learnt, back_level = self._analyze(confl)
                self._backtrack(back_level)
                if len(learnt) == 1:
                    self._assign(learnt[0], None)
                else:
                    self.learnts.append(learnt)
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._assign(learnt[0], learnt)
                stats.learned += 1
                self.var_inc /= self.var_decay
                if stats.conflicts - conflicts_at_restart >= restart_limit:
                    conflicts_at_restart = stats.conflicts
                    restart_limit *= 1.5
                    stats.restarts += 1
                    self._backtrack(0)
                if len(self.learnts) > self.max_learnts:
                    self._reduce_learnts()
            else:
                lit = self._pick_branch()
                if lit is None:
                    values = self.values
                    model = {v: values[v] != -1
                             for v in range(1, self.num_vars + 1)}
                    self._backtrack(0)
                    return SolveOutcome(SAT, model, stats)
                stats.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._assign(lit, None)
