"""Exercises the CDCL engine on classic pigeonhole and random 3-CNF inputs."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from filtermin import SAT, UNKNOWN, UNSAT, CdclSolver
from filtermin.rng import SplitMix64, derive


def php_clauses(pigeons, holes):
    """Pigeonhole clauses over vars x[p][h] = p*holes + h + 1."""
    var = lambda p, h: p * holes + h + 1
    cls = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            cls.append([-var(p1, h), -var(p2, h)])
    return cls


def random_3cnf(n_vars, n_clauses, seed):
    rng = SplitMix64(seed)
    cls = []
    for _ in range(n_clauses):
        vs = [v + 1 for v in rng.sample(n_vars, 3)]
        cls.append([v if rng.randbelow(2) else -v for v in vs])
    return cls


def model_satisfies(clauses, model):
    return all(any(model.get(abs(l), False) == (l > 0) for l in c)
               for c in clauses)


def fresh(clauses, solver=CdclSolver, decision_vars=None):
    s = solver(max((abs(l) for c in clauses for l in c), default=0),
               seed=7, decision_vars=decision_vars)
    for c in clauses:
        s.add_clause(c)
    return s


def test_php_4_3_unsat_and_stays_unsat():
    s = fresh(php_clauses(4, 3))
    assert s.solve().status == UNSAT
    # unsat is permanent: later calls answer without search
    out = s.solve()
    assert out.status == UNSAT and out.stats.conflicts == 0


def test_php_5_5_sat_is_a_permutation():
    cls = php_clauses(5, 5)
    out = fresh(cls).solve()
    assert out.status == SAT
    assert model_satisfies(cls, out.model)


@given(st.integers(0, 2**32))
@settings(max_examples=20)
def test_random_3cnf_models_verify(seed):
    cls = random_3cnf(20, 60, seed)
    out = fresh(cls).solve()
    if out.status == SAT:
        assert model_satisfies(cls, out.model)
    else:
        assert out.status == UNSAT


def test_zero_budget_returns_unknown():
    s = fresh(php_clauses(7, 6))
    out = s.solve(time_budget_s=0.0)
    assert out.status == UNKNOWN and out.model is None
    # engine stays usable afterwards
    assert s.solve().status == UNSAT


def test_budget_cut_search_returns_at_the_root():
    # php(7,6) takes about 0.1 s to refute, far past this budget
    s = fresh(php_clauses(7, 6))
    out = s.solve(time_budget_s=0.005)
    assert out.status == UNKNOWN and out.model is None
    assert s.trail_lim == []
    assert_heap_invariant(s)
    assert s.solve().status == UNSAT


def test_nan_budget_raises_instead_of_running_unbounded():
    # 10 pigeons in 9 holes is far too hard to settle in 0.3 s
    s = fresh(php_clauses(10, 9))
    assert s.solve(time_budget_s=0.3).status == UNKNOWN
    with pytest.raises(ValueError):
        s.solve(time_budget_s=float("nan"))


def test_incremental_bans_flip_sat_to_unsat():
    s = fresh([[1, 2, 3]])
    assert s.solve().status == SAT
    s.add_clause([-1])
    s.add_clause([-2])
    assert s.solve().status == SAT
    s.add_clause([-3])
    assert s.solve().status == UNSAT


def test_empty_clause_is_unsat():
    s = CdclSolver(0)
    s.add_clause([])
    assert s.solve().status == UNSAT


def test_negative_variable_count_rejected():
    with pytest.raises(ValueError, match="variable count"):
        CdclSolver(-2)


def test_conflicting_units_unsat():
    s = fresh([[4], [-4]])
    assert s.solve().status == UNSAT
    # a clause whose only literal, repeated, is false at the root
    s = fresh([[-4]])
    assert s.add_clause([4, 4]) is False
    assert s.unsat and s.solve().status == UNSAT


def test_tautologies_and_duplicates_normalized():
    s = CdclSolver(13)
    s.add_clause([1, -1])            # dropped outright
    assert s.n_problem == 0
    s.add_clause([2, 2, 3])
    assert s.n_problem == 1
    out = s.solve()
    assert out.status == SAT
    assert out.model[1] is False     # in no clause: decided at its default phase
    # a repeated literal inside a long clause is stored once, in order
    s.add_clause([4, 5, 6, 7, 8, 9, 5, 10, 11, 4])
    assert s.watches[4] == [[4, 5, 6, 7, 8, 9, 10, 11]]
    # a tautology with one side false at the root is dropped, not unsat
    s.add_clause([-12])
    n_problem = s.n_problem
    assert s.add_clause([12, 13, -12]) is True
    assert s.n_problem == n_problem and not s.unsat
    assert s.solve().status == SAT


def test_root_simplification_tracks_problem_count():
    s = CdclSolver(7)
    s.add_clause([5])
    assert s.n_problem == 1
    s.solve()
    s.add_clause([5, 6])             # satisfied at root: not counted
    assert s.n_problem == 1
    s.add_clause([-5, 7])            # strips to unit [7]
    assert s.n_problem == 2
    out = s.solve()
    assert out.status == SAT and out.model[7]


def test_model_maps_every_variable():
    s = fresh([[2], [10, -2]])
    out = s.solve()
    assert out.status == SAT
    assert set(out.model) == set(range(1, 11))
    # every literal must name a variable of the fixed range 1..num_vars
    s = CdclSolver(3)
    for clause in ([0, 1], [4], [-4], [1, -4]):
        with pytest.raises(ValueError):
            s.add_clause(clause)
    assert s.n_problem == 0
    # a clause an earlier literal made vacuous is dropped unread
    assert s.add_clause([1, -1, 4]) is True


def test_fixed_seed_reruns_identical():
    cls = random_3cnf(50, 180, 0xD00D)
    runs = []
    for _ in range(3):
        out = fresh(cls).solve()
        runs.append((out.status, out.model,
                     out.stats.conflicts, out.stats.decisions))
    assert runs[0] == runs[1] == runs[2]


def test_different_seeds_still_agree_on_status():
    cls = php_clauses(5, 4)
    for seed in (1, 2, 3):
        s = CdclSolver(20, seed=seed)
        for c in cls:
            s.add_clause(c)
        assert s.solve().status == UNSAT


def test_learnt_reduction_keeps_answers_right():
    s = fresh(php_clauses(6, 5))
    s.max_learnts = 10              # force aggressive clause deletion
    assert s.solve().status == UNSAT


def test_restarts_fire_on_hard_instance():
    s = fresh(php_clauses(6, 5))
    out = s.solve()
    assert out.status == UNSAT
    assert out.stats.restarts >= 1
    assert out.stats.conflicts > 100


def test_model_assignment_respects_polarity():
    out = fresh([[1], [-2], [1, 2, -3]]).solve()
    assert out.model[1] is True
    assert out.model[2] is False


def assert_heap_invariant(s):
    """Every unassigned decision variable has a current entry, and no other
    variable has any."""
    entries = set(s.heap)
    for v in range(1, s.decision_vars + 1):
        if s.values[v] == 0:
            assert (-s.activity[v], v) in entries
    assert all(v <= s.decision_vars for _, v in entries)


def test_heap_invariant_holds_before_the_first_solve():
    s = CdclSolver(6, seed=3, decision_vars=4)
    assert_heap_invariant(s)
    assert sorted(v for _, v in s.heap) == [1, 2, 3, 4]
    s.add_clause([2])                # a root unit, assigned at once
    s.add_clause([-2, 5, 6])
    assert s.values[2] == 1
    assert_heap_invariant(s)
    # each solve ends at level 0 with the invariant intact, so the next
    # solve starts from the same heap
    assert s.solve().status == SAT
    assert_heap_invariant(s)
    s.add_clause([-1, -3])
    assert s.solve().status == SAT
    assert_heap_invariant(s)
    assert CdclSolver(3, decision_vars=0).heap == []


def test_rescale_keeps_heap_and_jitter_scaled():
    cls = random_3cnf(60, 250, derive(0x5CA1E, 0))
    s = CdclSolver(num_vars=70, seed=7)
    for c in cls:
        s.add_clause(c)
    s.var_inc = 1e99                 # the first bump past 1e100 rescales
    out = s.solve()
    assert out.status == SAT and out.stats.conflicts == 14
    assert model_satisfies(cls, out.model)
    assert s.var_inc < 1
    assert_heap_invariant(s)
    # a variable no clause mentioned yet was scaled with the rest
    s.add_clause([65, -66])
    assert s.activity[65] == (derive(7, 65) % 997) * 1e-12 * 1e-100
    # the same after a rescale under restricted branching; the pigeons of
    # the last row are never decided, only propagated
    s = CdclSolver(num_vars=20, seed=7, decision_vars=16)
    for c in php_clauses(5, 4):
        s.add_clause(c)
    s.var_inc = 1e99
    assert s.solve().status == UNSAT
    assert s.var_inc < 1
    assert_heap_invariant(s)


def test_decision_vars_outside_the_variables_rejected():
    for bad in (4, -1):
        with pytest.raises(ValueError, match=r"decision variables must be 0\.\.3"):
            CdclSolver(3, decision_vars=bad)
    assert CdclSolver(3, decision_vars=0).solve().status == SAT


def test_decision_vars_outside_the_range_rejected():
    for bad in (-1, 6):
        with pytest.raises(ValueError, match=r"decision variables must be 0\.\.5"):
            CdclSolver(5, decision_vars=bad)
    assert CdclSolver(5, decision_vars=0).decision_vars == 0
    assert CdclSolver(5).decision_vars == 5


def test_unassigned_non_decision_vars_read_true():
    s = CdclSolver(4, decision_vars=2)
    for c in ([1], [-1, -3], [2, 3, 4]):
        s.add_clause(c)
    out = s.solve()
    assert out.status == SAT
    # 1 is a root unit; 2 is decided, at its default phase, and is the only
    # decision; then [2, 3, 4] forces 4, while -3 came from [-1, -3]
    assert out.stats.decisions == 1
    assert out.model == {1: True, 2: False, 3: False, 4: True}
    # no conflict bumped anything: decision variables hold just their
    # jitter, and the others start at zero since no pick reads them
    assert s.activity[1:] == [(derive(0, 1) % 997) * 1e-12,
                              (derive(0, 2) % 997) * 1e-12, 0.0, 0.0]
    # with 3 no longer forced, neither 3 nor 4 is ever assigned: both are
    # reported true, the decision variables as assigned
    s = CdclSolver(4, decision_vars=2)
    for c in ([1], [2, 3, 4]):
        s.add_clause(c)
    out = s.solve()
    assert out.status == SAT and out.stats.decisions == 1
    assert out.model == {1: True, 2: False, 3: True, 4: True}


def test_default_branching_counters_pinned():
    # criterion 8's rerun instance: branching on every variable keeps the
    # search it had before decision variables existed
    s = CdclSolver(50, seed=99)
    for c in random_3cnf(50, 180, 0xF1DE):
        s.add_clause(c)
    out = s.solve()
    assert out.status == SAT
    assert (out.stats.decisions, out.stats.conflicts) == (22, 11)


class HeapWatch(CdclSolver):
    """Records the largest heap any branching decision sees."""

    max_heap = 0

    def _pick_branch(self):
        self.max_heap = max(self.max_heap, len(self.heap))
        return super()._pick_branch()


def test_heap_stays_bounded_on_long_search():
    s = HeapWatch(30, seed=7)
    for c in php_clauses(6, 5):
        s.add_clause(c)
    out = s.solve()
    assert out.status == UNSAT and out.stats.conflicts > 100
    # stale entries are dropped once they outnumber twice the decision
    # variables: without that this run ends with 1859 entries, where
    # the bound is 60
    bound = 2 * s.decision_vars
    assert s.max_heap <= bound and len(s.heap) <= bound


class PickWatch(CdclSolver):
    """Asserts that each pick is the most active unassigned decision
    variable, ties to the smaller index, and that only assigned variables
    are bumped."""

    picks = 0

    def _pick_branch(self):
        free = [v for v in range(1, self.decision_vars + 1)
                if self.values[v] == 0]
        want = min(free, key=lambda v: (-self.activity[v], v), default=None)
        lit = super()._pick_branch()
        assert (None if lit is None else abs(lit)) == want
        self.picks += 1
        return lit

    def _bump_var(self, v):
        assert self.values[v] != 0
        super()._bump_var(v)


def test_each_pick_is_the_most_active_unassigned_decision_var():
    assert fresh(php_clauses(6, 5), PickWatch).solve().status == UNSAT
    # the last pigeon's row is never decided, only propagated
    s = fresh(php_clauses(7, 6), PickWatch, decision_vars=36)
    assert s.solve().status == UNSAT and s.picks > 500
    # incremental: each solve starts from the heap the last one left, and
    # bans the model before the next
    cls = random_3cnf(60, 250, derive(0x91C5, 0))
    s = fresh(cls, PickWatch)
    for _ in range(3):
        out = s.solve()
        assert out.status == SAT and model_satisfies(cls, out.model)
        s.add_clause([-v if val else v for v, val in out.model.items()])
    assert s.picks > 100
    # a rescale in the middle of conflict analysis; without its rebuild,
    # unscaled entries would outrank the variables bumped since
    s = fresh(cls, PickWatch)
    s.var_inc = 1e98
    assert s.solve().status == SAT and s.var_inc < 1e98
