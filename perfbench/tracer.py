"""Span tracer for the benchmark's traced runs.

The tracer records spans from outside the program: it rebinds the names
that the descent loop in `filtermin.minimize` looks up at call time, and
three methods of `CdclSolver`, for as long as it is installed.  The
program's source is not touched and no second copy of the loop exists.

A span is a dict with the call id shared by every span of one `minimize`
call, its own id, its parent's id, a name, `start`/`end` in seconds from
`time.perf_counter`, and counters noted by the wrapper.  `add_clause`
runs about a million times per large eager call, so it is not a span: its
call count and time are summed onto the root span of the call it runs in.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager

SOLVE_COUNTERS = ("decisions", "conflicts", "propagations", "restarts",
                  "learned", "deleted")


def _note_layout(rec, out):
    rec["cnf_vars"] = out.num_cnf_vars


def _note_clauses(rec, out):
    rec["clauses"] = len(out)


def _note_cnf(rec, out):
    rec["clauses"] = len(out.clauses)


def _note_zip_check(rec, out):
    rec["violation"] = out is not None


def _note_solve(rec, out):
    rec["status"] = out.status
    for name in SOLVE_COUNTERS:
        rec[name] = getattr(out.stats, name)


# names looked up in the filtermin.minimize module -> (span name, the
# function that notes counters from the call's result on its span)
FUNCTION_SPANS = {
    "build_layout": ("encoding.layout", _note_layout),
    "build_cnf": ("encoding.build_cnf", _note_cnf),
    "zip1_clauses_for_state": ("encoding.zip_groups", _note_clauses),
    "zip2_clauses_for_obs": ("encoding.zip_groups", _note_clauses),
    "ban_size_units": ("encoding.ban", _note_clauses),
    "cover_from_model": ("encoding.cover_from_model", None),
    "find_zip_violation": ("filters.zip_check", _note_zip_check),
    "induced_filter": ("filters.induce", None),
}


class Tracer:
    """In-memory spans of one benchmark run.

    `span_cost_s` and `add_clause_cost_s` are the measured extra wall time
    of one traced call over an untraced one; they turn span and add_clause
    counts into the `trace.overhead_s` estimate.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.call = -1              # id of the current minimize call
        self._load = [0, 0.0]       # add_clause calls and seconds, this call
        self.span_cost_s, self.add_clause_cost_s = self._calibrate()

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        stack = self._stack
        rec = {"call": self.call, "id": len(self.spans),
               "parent": stack[-1]["id"] if stack else None, "name": name,
               "start": time.perf_counter()}
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec):
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def next_call(self):
        """Start a new call id; the spans that follow share it."""
        self.call += 1

    def adopt(self, spans, call):
        """Take over the spans a forked copy of this tracer recorded."""
        self.spans.extend(spans)
        self.call = call

    @contextmanager
    def root(self, name):
        """A top-level span of the current call.  Yields the span dict, so
        the caller can note counters on it; add_clause totals land there."""
        self._load = [0, 0.0]
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)
            rec["add_clause_calls"], rec["add_clause_s"] = self._load

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, note=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if note is not None:
                note(rec, out)
            return out
        return traced

    def _wrap_add_clause(self, fn):
        clock = time.perf_counter

        def add_clause(solver, lits):
            t0 = clock()
            ok = fn(solver, lits)
            load = self._load
            load[1] += clock() - t0
            load[0] += 1
            return ok
        return add_clause

    def _calibrate(self, n=20000, reps=3):
        """Best-of-reps extra seconds per traced span and per add_clause."""
        def noop(*args):
            return None

        def per_call(fn):
            best = float("inf")
            for _ in range(reps):
                t0 = time.perf_counter()
                for _ in range(n):
                    fn(None, None)
                best = min(best, time.perf_counter() - t0)
            return best / n

        base = per_call(noop)
        span = per_call(self._wrap(noop, "calibrate",
                                   lambda rec, out: None))
        load = per_call(self._wrap_add_clause(noop))
        self.spans.clear()
        self._stack.clear()
        return max(0.0, span - base), max(0.0, load - base)

    @contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        mod = sys.modules["filtermin.minimize"]
        solver = mod.CdclSolver
        patches = [(mod, attr, self._wrap(getattr(mod, attr), span, note))
                   for attr, (span, note) in FUNCTION_SPANS.items()]
        patches += [
            (solver, "__init__", self._wrap(solver.__init__, "sat.init")),
            (solver, "solve", self._wrap(solver.solve, "sat.solve",
                                         _note_solve)),
            (solver, "add_clause", self._wrap_add_clause(solver.add_clause)),
        ]
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self):
        """Per-layer totals over the run, as {name: (value, unit)}.

        Times are summed span durations.  Every wrapped name is called from
        the descent loop itself, so each traced span is a direct child of
        its call's `minimize` root; `minimize.self_s` is what is left of the
        root after its children, the add_clause time and the estimated
        tracing overhead, so the self times, `sat.add_clause_s` and
        `trace.overhead_s` add up to `minimize.wall_s`.
        """
        seconds = dict.fromkeys(
            ["encoding.layout", "encoding.build_cnf", "encoding.zip_groups",
             "encoding.ban", "encoding.cover_from_model", "filters.zip_check",
             "filters.induce", "filters.verify", "sat.init", "sat.solve",
             "minimize"], 0.0)
        child_s = {}
        child_n = {}
        counts = dict.fromkeys(
            ["clauses", "cnf_vars", "violations", "sat", "unsat", "unknown"]
            + list(SOLVE_COUNTERS), 0)
        last_solve = {}
        for rec in self.spans:
            dur = rec["end"] - rec["start"]
            name = rec["name"]
            seconds[name] += dur
            parent = rec["parent"]
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + dur
                child_n[parent] = child_n.get(parent, 0) + 1
            counts["clauses"] += rec.get("clauses", 0)
            counts["cnf_vars"] += rec.get("cnf_vars", 0)
            counts["violations"] += rec.get("violation", False)
            if name == "sat.solve":
                counts[rec["status"]] += 1
                for key in SOLVE_COUNTERS:
                    counts[key] += rec[key]
                last_solve[rec["call"]] = dur
        roots = [rec for rec in self.spans if rec["name"] == "minimize"]
        add_calls = sum(r["add_clause_calls"] for r in roots)
        add_s = sum(r["add_clause_s"] for r in roots)
        overhead = (sum(child_n.get(r["id"], 0) for r in roots)
                    * self.span_cost_s + add_calls * self.add_clause_cost_s)
        self_s = (seconds["minimize"]
                  - sum(child_s.get(r["id"], 0.0) for r in roots)
                  - add_s - overhead)
        def total(key):     # a call that raised noted nothing on its root
            return sum(r.get(key, 0) for r in roots)

        accepted = total("accepted")

        return {
            "encoding.layout_s": (seconds["encoding.layout"], "s"),
            "encoding.build_cnf_s": (seconds["encoding.build_cnf"], "s"),
            "encoding.clauses_built": (counts["clauses"], "count"),
            "encoding.cnf_vars": (counts["cnf_vars"], "count"),
            "encoding.zip_groups_s": (seconds["encoding.zip_groups"], "s"),
            "encoding.ban_s": (seconds["encoding.ban"], "s"),
            "encoding.cover_from_model_s":
                (seconds["encoding.cover_from_model"], "s"),
            "sat.init_s": (seconds["sat.init"], "s"),
            "sat.add_clause_s": (add_s, "s"),
            "sat.add_clause_calls": (add_calls, "count"),
            "sat.solve_s": (seconds["sat.solve"], "s"),
            "sat.final_solve_s": (sum(last_solve.values()), "s"),
            "sat.solve_sat": (counts["sat"], "count"),
            "sat.solve_unsat": (counts["unsat"], "count"),
            "sat.solve_unknown": (counts["unknown"], "count"),
            **{f"sat.{key}": (counts[key], "count")
               for key in SOLVE_COUNTERS},
            "filters.zip_check_s": (seconds["filters.zip_check"], "s"),
            "filters.zip_violations": (counts["violations"], "count"),
            "filters.induce_s": (seconds["filters.induce"], "s"),
            "filters.verify_s": (seconds["filters.verify"], "s"),
            "minimize.k_steps": (total("k_steps"), "count"),
            "minimize.reload_rounds": (counts["sat"] - accepted, "count"),
            "minimize.accept_ratio":
                (accepted / counts["sat"] if counts["sat"] else 0.0, "ratio"),
            "minimize.zip_obs_loaded": (total("zip_obs_loaded"), "count"),
            "minimize.zip_pairs_loaded": (total("zip_pairs_loaded"), "count"),
            "minimize.proven_frac":
                (total("proven") / len(roots) if roots else 0.0, "ratio"),
            "minimize.self_s": (self_s, "s"),
            "minimize.wall_s": (seconds["minimize"], "s"),
            "trace.overhead_s": (overhead, "s"),
            "trace.spans": (len(self.spans), "count"),
        }
