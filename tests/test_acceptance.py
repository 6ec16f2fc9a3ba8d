"""End-to-end acceptance suite.

One test per shipping criterion, named so that `pytest -v` reads as a
per-criterion pass/fail report.  Each test also prints a single summary
line with its headline numbers (visible under -s or on failure).

The heavyweight corpora are module-scoped fixtures so the exactness,
method-agreement, and soundness criteria share one set of runs.
"""
import csv
import io
import statistics
import time

import pytest

from filtermin import (BENCH_HEADER, Budget, Cover, GenParams,
                       GenerationError, METHOD_LAZY, METHOD_SAT, SAT, UNSAT,
                       CdclSolver, assignment_satisfies, brute_minimal,
                       build_cnf, build_layout, common_outputs,
                       extension_from_cover, eval_ilp, eval_inp, generate,
                       is_deterministic, is_zipped, minimize,
                       output_simulates, run_bench)
from filtermin.bench import LARGE_SHAPE, MEDIUM_SHAPE
from filtermin.rng import SplitMix64, derive

from test_sat import model_satisfies, php_clauses, random_3cnf

# state-count bound for the exhaustively checkable corpus
SMALL_BOUND = 6
SMALL_SHAPES = [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1),
                (1, 2), (2, 2), (1, 3), (1, 5)]


def _small_corpus(target=210):
    filters = []
    idx = 0
    while len(filters) < target and idx < 5000:
        bits = derive(0x5EED5, idx)
        layers, width = SMALL_SHAPES[idx % len(SMALL_SHAPES)]
        try:
            params = GenParams(
                layers=layers, width=width,
                self_loops=bits % 3,
                back_edges=(bits >> 2) % 3,
                n_outputs=1 + (bits >> 4) % 3,
                outputs_per_state=1 + (bits >> 6) % (1 + (bits >> 4) % 3),
                n_observations=1 + (bits >> 8) % 3,
                seed=derive(0x5EED5, idx, 1))
            flt = generate(params)
        except (ValueError, GenerationError):
            idx += 1
            continue
        assert flt.n_states <= SMALL_BOUND
        filters.append(flt)
        idx += 1
    return filters


@pytest.fixture(scope="module")
def small_runs():
    t0 = time.monotonic()
    runs = [(flt, brute_minimal(flt), minimize(flt, method=METHOD_SAT))
            for flt in _small_corpus()]
    return runs, time.monotonic() - t0


@pytest.fixture(scope="module")
def medium_runs():
    runs = []
    for n_obs in range(2, 11):
        for j in range(7):
            try:
                flt = generate(GenParams(
                    seed=derive(0xACC2, n_obs, j),
                    **dict(MEDIUM_SHAPE, n_observations=n_obs)))
            except GenerationError:
                continue            # cramped alphabets cannot be realized
            runs.append((flt,
                         minimize(flt, method=METHOD_SAT,
                                  budget=Budget(120.0)),
                         minimize(flt, method=METHOD_LAZY,
                                  budget=Budget(120.0))))
    return runs


def test_criterion_1_small_corpus_matches_brute_force(small_runs):
    runs, elapsed = small_runs
    assert len(runs) >= 200
    exact = sum(report.best_size == oracle.minimal_size
                for _, oracle, report in runs)
    assert exact == len(runs)
    assert all(report.proven_minimal for _, _, report in runs)
    assert elapsed < 600.0
    print(f"criterion 1: PASS - {len(runs)} filters <= {SMALL_BOUND} states, "
          f"{exact}/{len(runs)} match brute force, all proven, "
          f"{elapsed:.1f}s")


def test_criterion_2_methods_agree_on_medium_corpus(medium_runs):
    assert len(medium_runs) >= 50
    agree = sum(sat.best_size == lazy.best_size
                for _, sat, lazy in medium_runs)
    assert agree == len(medium_runs)
    assert all(sat.proven_minimal and lazy.proven_minimal
               for _, sat, lazy in medium_runs)
    print(f"criterion 2: PASS - {len(medium_runs)} instances, "
          f"{agree}/{len(medium_runs)} size agreement between methods")


def test_criterion_3_all_returned_filters_sound(small_runs, medium_runs):
    checked = 0
    for flt, report in (
            [(flt, report) for flt, _, report in small_runs[0]]
            + [(flt, r) for flt, sat, lazy in medium_runs
               for r in (sat, lazy)]):
        best = report.best_filter
        assert is_deterministic(best)
        assert output_simulates(best, flt).holds
        checked += 1
    print(f"criterion 3: PASS - {checked} returned filters deterministic "
          f"and output-faithful")


def test_criterion_4_constraint_renderings_agree(small_runs):
    filters = [flt for flt, _, _ in small_runs[0]]
    witnesses = {i: oracle.witness_cover
                 for i, (_, oracle, _) in enumerate(small_runs[0])}
    rng = SplitMix64(0xC04E4)
    total = feasible = infeasible = 0
    while total < 1000:
        i = rng.randbelow(len(filters))
        flt = filters[i]
        n = flt.n_states
        mode = rng.randbelow(4)
        if mode == 0:
            cov = Cover(tuple(frozenset({v}) for v in range(n)), flt)
        elif mode == 1:
            cov = witnesses[i]
        elif mode == 2 and n >= 2:
            groups = [{v} for v in range(n)]
            a, b = rng.sample(n, 2)
            groups[a] |= groups[b]
            del groups[b]
            cov = Cover(tuple(frozenset(g) for g in groups), flt)
        else:
            k = 1 + rng.randbelow(n)
            cov = Cover(tuple(
                frozenset(v for v in range(n) if rng.randbelow(2))
                for _ in range(k)), flt)

        semantic = (
            all(any(v0 in s for s in cov.subsets) for v0 in flt.initial)
            and is_zipped(cov)
            and all(common_outputs(flt, s) for s in cov.subsets if s))
        lay = build_layout(flt, len(cov.subsets))
        asg = extension_from_cover(lay, cov)
        verdicts = (semantic,
                    assignment_satisfies(build_cnf(lay), asg),
                    eval_ilp(lay, asg).feasible,
                    eval_inp(lay, asg).feasible)
        assert len(set(verdicts)) == 1, (flt, cov.subsets, verdicts)
        total += 1
        if semantic:
            feasible += 1
        else:
            infeasible += 1
    assert feasible and infeasible
    print(f"criterion 4: PASS - {total} cover checks, "
          f"{feasible} feasible / {infeasible} infeasible, "
          f"all four renderings agree")


def test_criterion_5_lazy_loads_fewer_clauses(medium_runs):
    for _, sat, lazy in medium_runs:
        assert lazy.final_clause_count <= sat.final_clause_count
    sizes = []
    solved = 0
    for i in range(3):
        flt = generate(GenParams(seed=derive(0xB1A5, i), **LARGE_SHAPE))
        eager = minimize(flt, method=METHOD_SAT, budget=Budget(60.0))
        lazy = minimize(flt, method=METHOD_LAZY, budget=Budget(60.0))
        assert lazy.final_clause_count <= eager.final_clause_count
        assert lazy.best_size <= eager.best_size
        # calls whose bounds meet load nothing, so 0 <= 0 shows nothing
        solved += bool(eager.iterations and lazy.iterations)
        sizes.append((flt.n_states, eager.best_size, lazy.best_size,
                      eager.final_clause_count, lazy.final_clause_count))
    assert solved >= 1
    detail = "; ".join(
        f"n={n}: best {e}->{l}, clauses {ec}->{lc}"
        for n, e, l, ec, lc in sizes)
    print(f"criterion 5: PASS - lazy never larger on "
          f"{len(medium_runs)} medium runs; large instances {detail}")


def test_criterion_6_difficulty_trends_informational(tmp_path):
    medians = {}
    for suite, column in (("obs-sweep", "observations"),
                          ("out-sweep", "outputs")):
        csv_text = run_bench(suite, repeats=3, seed=1, timeout_ms=30000)
        path = tmp_path / f"{suite}.csv"
        path.write_text(csv_text)
        lines = csv_text.splitlines()
        assert lines[0] == BENCH_HEADER
        assert not any(",error," in line for line in lines[1:])
        per_point = {}
        for row in csv.DictReader(io.StringIO(csv_text)):
            if row["method"] != METHOD_SAT:
                continue
            per_point.setdefault(int(row[column]), []).append(
                float(row["elapsed_ms"]))
        medians[suite] = {x: statistics.median(v)
                          for x, v in sorted(per_point.items())}
    print("criterion 6: PASS (informational) - median solve ms by "
          f"alphabet size {medians['obs-sweep']}; by output count "
          f"{medians['out-sweep']}")


def test_criterion_7_reference_example_unavailable():
    pytest.skip("criterion 7: N/A - the published reference instance exists "
                "only as a picture, with no machine-readable transition "
                "structure to minimize")


def test_criterion_8_solver_sanity():
    # a pigeonhole instance that is unsatisfiable by counting
    s = CdclSolver(12, seed=3)
    for c in php_clauses(4, 3):
        s.add_clause(c)
    assert s.solve().status == UNSAT

    verified = 0
    for i in range(10):
        cls = random_3cnf(50, 100, derive(0x5A7, i))
        solver = CdclSolver(50, seed=11)
        for c in cls:
            solver.add_clause(c)
        out = solver.solve()
        if out.status == SAT:
            assert model_satisfies(cls, out.model)
            verified += 1
    assert verified >= 1

    def run_once():
        solver = CdclSolver(50, seed=99)
        for c in random_3cnf(50, 180, 0xF1DE):
            solver.add_clause(c)
        out = solver.solve()
        return (out.status, out.model, out.stats.conflicts,
                out.stats.decisions)

    assert run_once() == run_once()
    print(f"criterion 8: PASS - pigeonhole unsat, {verified}/10 random "
          f"instances satisfiable with verified models, reruns identical")
