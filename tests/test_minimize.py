import importlib
import time

import pytest
from hypothesis import given, settings

from filtermin import (METHOD_LAZY, METHOD_SAT, Budget, GenParams,
                       GenerationError, brute_minimal, generate,
                       incompatible_pairs, is_deterministic, is_zipped,
                       merged_cover, minimize, output_simulates,
                       partition_cover)
from filtermin.bench import MEDIUM_SHAPE
from filtermin.filters import Filter
from filtermin.rng import derive

from conftest import max_slot, small_filters
from test_acceptance import _small_corpus


def check_report(report, flt):
    assert report.best_cover.is_valid() and is_zipped(report.best_cover)
    small = report.best_filter
    assert is_deterministic(small)
    assert output_simulates(small, flt).holds
    assert small.n_states == report.best_size == len(report.best_cover.subsets)


def test_chain3_minimizes_to_one_state(chain3):
    for method in (METHOD_SAT, METHOD_LAZY):
        report = minimize(chain3, method=method)
        assert report.best_size == 1 and report.proven_minimal
        check_report(report, chain3)


def test_twocolor_minimizes_to_three(twocolor):
    for method in (METHOD_SAT, METHOD_LAZY):
        report = minimize(twocolor, method=method)
        assert report.best_size == 3 and report.proven_minimal
        check_report(report, twocolor)


@pytest.mark.parametrize("method", [METHOD_SAT, METHOD_LAZY])
@pytest.mark.parametrize("name", ["gap_clique", "gap_unsat"])
def test_iteration_shape(name, method, request):
    flt = request.getfixturevalue(name)
    report = minimize(flt, method=method)
    ks = [it.k for it in report.iterations]
    assert ks[0] == report.upper_bound - 1 == merged_cover(flt).size - 1
    assert all(a > b for a, b in zip(ks, ks[1:]))
    bests = [it.best_size for it in report.iterations if it.best_size]
    assert all(a >= b for a, b in zip(bests, bests[1:]))
    # jump descent: a sat step at best b is followed by the bound b - 1
    for it, after in zip(report.iterations, report.iterations[1:]):
        if it.outcome == "sat":
            assert after.k == it.best_size - 1
    # proof comes from either an unsat step at best - 1 or a sat step at
    # the clique bound, below which no query is needed
    last = report.iterations[-1]
    if last.outcome == "unsat":
        assert last.k == report.best_size - 1
    else:
        assert last.outcome == "sat" and report.best_size == report.lower_bound
    assert report.final_clause_count == last.clauses_in_solver


@pytest.mark.parametrize("budget", [None, 0.0])
@pytest.mark.parametrize("method", [METHOD_SAT, METHOD_LAZY])
def test_meeting_bounds_prove_without_a_solver(chain3, twocolor, method,
                                               budget, monkeypatch):
    # chain3: clique 1 = partition 1; twocolor: clique 3 = partition 3
    def no_layout(*args):
        raise AssertionError("a layout was built")

    monkeypatch.setattr(importlib.import_module("filtermin.minimize"),
                        "build_layout", no_layout)
    for flt, size in ((chain3, 1), (twocolor, 3)):
        report = minimize(flt, method=method, budget=Budget(budget))
        assert report.iterations == ()
        assert report.proven_minimal
        assert report.best_size == report.lower_bound == size
        assert report.upper_bound == size
        assert report.final_clause_count == 0
        check_report(report, flt)


def test_bounds_bracket_the_oracle_on_the_small_corpus():
    for flt in _small_corpus():
        report = minimize(flt, method=METHOD_LAZY)
        optimum = brute_minimal(flt).minimal_size
        assert report.lower_bound <= optimum <= report.upper_bound
        assert report.upper_bound <= partition_cover(flt).size
        assert report.best_size == optimum and report.proven_minimal


def test_one_incompatibility_closure_per_call(gap_unsat, chain3,
                                              monkeypatch):
    # only the clique bound reads the pairs, so a call computes them once,
    # whether or not the solver runs
    filters = importlib.import_module("filtermin.filters")
    calls = []

    def counted(f, incompatible_pairs=filters.incompatible_pairs):
        calls.append(f)
        return incompatible_pairs(f)

    monkeypatch.setattr(filters, "incompatible_pairs", counted)
    for flt in (gap_unsat, chain3):
        for method in (METHOD_SAT, METHOD_LAZY):
            calls.clear()
            minimize(flt, method=method)
            assert calls == [flt]


def test_accepted_covers_keep_incompatible_states_apart(monkeypatch):
    module = importlib.import_module("filtermin.minimize")
    accepted = []

    def check(cover, find_zip_violation=module.find_zip_violation):
        violation = find_zip_violation(cover)
        if violation is None:
            accepted.append(cover)
        return violation

    monkeypatch.setattr(module, "find_zip_violation", check)
    runs = 0
    for n_obs in range(3, 11):
        for j in range(2):
            try:
                flt = generate(GenParams(
                    seed=derive(0x1C0A, n_obs, j),
                    **dict(MEDIUM_SHAPE, n_observations=n_obs)))
            except GenerationError:
                continue
            pairs = incompatible_pairs(flt)
            for method in (METHOD_SAT, METHOD_LAZY):
                accepted.clear()
                report = minimize(flt, method=method)
                assert report.proven_minimal
                runs += bool(accepted)
                for cover in accepted:
                    for group in cover.subsets:
                        members = sorted(group)
                        assert not any(
                            (u, w) in pairs for i, u in enumerate(members)
                            for w in members[i + 1:])
    assert runs >= 10


def test_zero_budget_falls_back_to_merged_cover(gap_unsat, gap_clique):
    # both merged covers are smaller than the partition, which is smaller
    # than the input, so the fallback tells all three apart
    for flt in (gap_unsat, gap_clique):
        report = minimize(flt, method=METHOD_SAT, budget=Budget(0.0))
        assert report.best_cover.subsets == merged_cover(flt).subsets
        assert report.best_size == report.upper_bound
        assert report.best_size < partition_cover(flt).size < flt.n_states
        assert not report.proven_minimal
        check_report(report, flt)
        assert report.iterations
        assert all(it.outcome == "unknown" for it in report.iterations)


def test_budget_covers_the_build(gap_unsat, monkeypatch):
    # `filtermin.minimize` is the function; the module holds build_cnf
    module = importlib.import_module("filtermin.minimize")
    build_cnf = module.build_cnf

    def slow_build(layout, lazy):
        time.sleep(0.1)
        return build_cnf(layout, lazy=lazy)

    monkeypatch.setattr(module, "build_cnf", slow_build)
    report = minimize(gap_unsat, method=METHOD_SAT, budget=Budget(0.02))
    assert report.iterations
    assert all(it.outcome == "unknown" for it in report.iterations)
    assert report.best_size == merged_cover(gap_unsat).size
    assert not report.proven_minimal


def test_budget_rejects_negative_and_nan():
    for seconds in (-1.0, -1e-9, float("nan")):
        with pytest.raises(ValueError, match="budget"):
            Budget(seconds)


def test_zero_budget_single_state_is_still_proven():
    one = Filter.build(1, [0], [(0, "a", 0)], [["g"]])
    report = minimize(one, method=METHOD_LAZY, budget=Budget(0.0))
    assert report.best_size == 1 and report.proven_minimal


def test_lazy_counters_within_bounds(twocolor):
    report = minimize(twocolor, method=METHOD_LAZY)
    n_obs = len(twocolor.observations)
    assert 0 <= report.zip_obs_loaded <= n_obs
    live = {(v, y) for v in range(twocolor.n_states)
            for y in twocolor.observations
            if twocolor.children(v, y)}
    assert 0 <= report.zip_pairs_loaded <= len(live)


def test_eager_report_has_zero_lazy_counters(twocolor):
    report = minimize(twocolor, method=METHOD_SAT)
    assert report.zip_obs_loaded == 0 and report.zip_pairs_loaded == 0
    assert report.method == METHOD_SAT


def test_dispatcher(chain3):
    assert minimize(chain3, method=METHOD_SAT).method == METHOD_SAT
    assert minimize(chain3, method=METHOD_LAZY).method == METHOD_LAZY
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        minimize(chain3, method="magic")


def test_eager_zip_violation_is_an_encoding_bug(gap_unsat, monkeypatch):
    # without ZIP1 the eager formula admits unzipped covers; the loop must
    # check every accepted cover rather than trust the encoding
    monkeypatch.setattr("filtermin.encoding.zip1_clauses_for_state",
                        lambda layout, v, y: [])
    with pytest.raises(RuntimeError, match="encoding bug"):
        minimize(gap_unsat, method=METHOD_SAT)


def test_lazy_groups_span_the_whole_layout(gap_clique, monkeypatch):
    # groups first loaded after a ban still name every slot 1..layout.k
    module = importlib.import_module("filtermin.minimize")
    flt = gap_clique
    banned = [False]
    zip2_after_ban = []

    def ban(layout, slot, ban_size_units=module.ban_size_units):
        banned[0] = True
        return ban_size_units(layout, slot)

    def zip2(layout, y, zip2=module.zip2_clauses_for_obs):
        out = zip2(layout, y)
        k = layout.k
        assert len(out) == k and all(len(c) == k for c in out)
        assert max_slot(layout, out) == k
        if banned[0]:
            zip2_after_ban.append(y)
        return out

    def zip1(layout, v, y, zip1=module.zip1_clauses_for_state):
        out = zip1(layout, v, y)
        k = layout.k
        assert len(out) == k * k and max_slot(layout, out) == k
        return out

    monkeypatch.setattr(module, "ban_size_units", ban)
    monkeypatch.setattr(module, "zip2_clauses_for_obs", zip2)
    monkeypatch.setattr(module, "zip1_clauses_for_state", zip1)
    report = minimize(flt, method=METHOD_LAZY)
    assert report.proven_minimal and report.best_size == 4
    assert [it.k for it in report.iterations] == [6, 5, 4]
    assert zip2_after_ban
    check_report(report, flt)


def test_rejects_nondeterministic_input():
    bad = Filter.build(2, [0, 1], [(0, "a", 1)], [["g"], ["g"]])
    with pytest.raises(ValueError):
        minimize(bad, method=METHOD_SAT)


def test_summary_lines_mention_both_sizes(gap_unsat):
    report = minimize(gap_unsat, method=METHOD_LAZY)
    text = "\n".join(report.summary_lines())
    assert "3" in text and "2" in text and "lazy-sat" in text
    assert "best_size=2 lower_bound=1 upper_bound=4 " in text


@given(small_filters())
@settings(max_examples=15, deadline=None)
def test_methods_agree_on_small_filters(flt):
    a = minimize(flt, method=METHOD_SAT)
    b = minimize(flt, method=METHOD_LAZY)
    assert a.proven_minimal and b.proven_minimal
    assert a.best_size == b.best_size
    check_report(a, flt)
    check_report(b, flt)
