import pytest
from hypothesis import given, strategies as st

from filtermin import (SAT, UNSAT, CdclSolver, CnfFormula, Cover, GenParams,
                       GenerationError, assignment_satisfies, ban_size_units,
                       build_cnf, build_layout, common_outputs,
                       cover_from_model, eval_ilp, eval_inp,
                       extension_from_cover, find_zip_violation, generate,
                       write_lp)
from filtermin.bench import MEDIUM_SHAPE
from filtermin.encoding import (cover_clause, out1_clauses_for_state,
                                out2_clauses, zip1_clauses_for_state,
                                zip2_clauses_for_obs)
from filtermin.rng import derive

from conftest import covers_for, small_filters


def lp_shape(text):
    binary = rows = 0
    in_binary = False
    for line in text.splitlines():
        if line == "Binary":
            in_binary = True
        elif line == "End":
            in_binary = False
        elif in_binary and line.strip():
            binary += 1
        elif ":" in line and not line.startswith(" obj"):
            rows += 1
    return binary, rows


# -- layout ------------------------------------------------------------------

def test_chain3_k1_layout_is_five_variables(chain3):
    lay = build_layout(chain3, 1)
    assert lay.num_cnf_vars == 5
    assert lay.num_vars == 6      # q block on top
    assert lay.r_index(1, 0) == 1
    assert lay.a_index(1, 1, "a") == 4
    assert lay.b_index(1, "g") == 5
    assert lay.q_index(1) == 6


def test_twocolor_k2_layout(twocolor):
    lay = build_layout(twocolor, 2)
    assert lay.num_cnf_vars == 20
    assert lay.r_index(2, 0) == 5
    assert lay.a_index(1, 2, "b") == 12
    assert lay.b_index(2, "r") == 20


def test_decode_is_inverse_of_indexing(twocolor):
    lay = build_layout(twocolor, 3)
    seen = set()
    for var in range(1, lay.num_vars + 1):
        desc = lay.decode(var)
        seen.add(desc)
        if desc[0] == "R":
            assert lay.r_index(desc[1], desc[2]) == var
        elif desc[0] == "a":
            assert lay.a_index(desc[1], desc[2], desc[3]) == var
        elif desc[0] == "b":
            assert lay.b_index(desc[1], desc[2]) == var
        else:
            assert lay.q_index(desc[1]) == var
    assert len(seen) == lay.num_vars


def test_layout_constant_tables(twocolor):
    lay = build_layout(twocolor, 2)
    assert lay.t_table("a", 0) == 1
    assert lay.t_table("b", 1) == 0
    assert lay.child(0, "b") == 2
    assert lay.child(1, "b") is None
    assert lay.p_table("g", 0) == 1
    assert lay.p_table("g", 1) == 0
    assert (0, "r") in lay.zero_outputs
    assert (0, "g") not in lay.zero_outputs


def test_layout_rejects_bad_inputs(chain3, twocolor):
    with pytest.raises(ValueError, match="k >= 1"):
        build_layout(chain3, 0)
    from filtermin import Filter
    nondet = Filter.build(2, [0, 1], [(0, "a", 1)], [["g"], ["g"]])
    with pytest.raises(ValueError, match="deterministic"):
        build_layout(nondet, 1)
    unreachable = Filter.build(2, [0], [(0, "a", 0), (1, "a", 1)],
                               [["g"], ["g"]])
    with pytest.raises(ValueError, match="reachable"):
        build_layout(unreachable, 1)
    lay = build_layout(twocolor, 2)
    with pytest.raises(ValueError, match="subset index"):
        lay.r_index(3, 0)


# -- clause emission ----------------------------------------------------------

def test_chain3_clause_counts(chain3):
    lay = build_layout(chain3, 1)
    assert len(build_cnf(lay, lazy=True)) == 4
    assert len(build_cnf(lay, lazy=False)) == 6


def test_twocolor_k2_clause_counts_by_schema(twocolor):
    lay = build_layout(twocolor, 2)
    cnf = build_cnf(lay)
    states = range(twocolor.n_states)
    assert len(cnf) == 35
    assert sum(cover_clause(lay, v) in cnf.clauses for v in states) == 1
    assert sum(len(zip1_clauses_for_state(lay, v, y))
               for v, y in lay.live_edges) == 20
    assert sum(len(zip2_clauses_for_obs(lay, y)) for y in lay.obs) == 4
    assert sum(len(out1_clauses_for_state(lay, v)) for v in states) == 8
    assert len(out2_clauses(lay)) == 2


def test_state_groups_hand_values(twocolor):
    # state 1 carries r only, so it lacks g (b_1_g = 17, b_2_g = 19)
    lay = build_layout(twocolor, 2)
    assert cover_clause(lay, 1) == [2, 6]
    assert out1_clauses_for_state(lay, 1) == [[-17, -2], [-19, -6]]
    assert out1_clauses_for_state(lay, 0) == [[-18, -1], [-20, -5]]


def test_eager_clause_order(twocolor):
    lay = build_layout(twocolor, 2)
    zip1 = [zip1_clauses_for_state(lay, v, y) for v, y in lay.live_edges]
    zip2 = [zip2_clauses_for_obs(lay, y) for y in lay.obs]
    expected = [cover_clause(lay, 0)]
    for block in zip1 + zip2:
        expected += block
    for v in range(twocolor.n_states):
        expected += out1_clauses_for_state(lay, v)
    expected += out2_clauses(lay)
    assert build_cnf(lay).clauses == expected
    # zip1 blocks are grouped per live edge, (state, obs) major
    assert lay.live_edges[:2] == ((0, "a"), (0, "b"))
    assert [len(block) for block in zip1[:2]] == [4, 4]
    assert lay.obs == ("a", "b")
    assert [len(block) for block in zip2] == [2, 2]


def test_lazy_base_has_per_state_cover_clauses(twocolor):
    lay = build_layout(twocolor, 2)
    lazy = build_cnf(lay, lazy=True)
    states = range(twocolor.n_states)
    expected = [cover_clause(lay, v) for v in states]
    assert expected[0] == [lay.r_index(1, 0), lay.r_index(2, 0)]
    # no zip clause in the lazy base
    for v in states:
        expected += out1_clauses_for_state(lay, v)
    assert lazy.clauses == expected + out2_clauses(lay)


def test_self_loop_zip1_contains_tautology(chain3):
    # the (2, a) self loop yields -R v R for i == j; emitted, solver drops it
    lay = build_layout(chain3, 1)
    cnf = build_cnf(lay)
    taut = [c for c in cnf.clauses if any(-l in c for l in c)]
    assert len(taut) == 1


def test_ban_units(twocolor):
    lay = build_layout(twocolor, 2)
    assert ban_size_units(lay, 2) == [[-lay.r_index(2, v)] for v in range(4)]


def medium_filters(count):
    out = []
    j = 0
    while len(out) < count:
        try:
            out.append(generate(GenParams(seed=derive(0xC0B1E7, j),
                                          **MEDIUM_SHAPE)))
        except GenerationError:
            pass
        j += 1
    return out


def descent_models(flt, lazy):
    """Descend like `minimize`, branching on the R block only, and check
    every SAT model against every clause loaded so far, bans included."""
    lay = build_layout(flt, flt.n_states)
    solver = CdclSolver(lay.num_cnf_vars, seed=3,
                        decision_vars=lay.n_cover_vars)
    loaded = CnfFormula([])
    obs, pairs = set(), set()

    def load(clauses):
        for c in clauses:
            solver.add_clause(c)
        loaded.clauses.extend(clauses)

    base = build_cnf(lay, lazy=lazy).clauses
    # every cover variable occurs in the base formula under both methods
    assert set(range(1, lay.n_cover_vars + 1)) <= {abs(l) for c in base
                                                   for l in c}
    load(base)
    k, models = lay.k, 0
    while k >= 1:
        out = solver.solve()
        if out.status == UNSAT:
            break
        assert out.status == SAT
        assert assignment_satisfies(loaded, out.model)
        models += 1
        cover = cover_from_model(lay, out.model)
        violation = find_zip_violation(cover)
        if violation is not None:
            assert lazy
            i, y = violation
            new = []
            if y not in obs:
                obs.add(y)
                new += zip2_clauses_for_obs(lay, y)
            for v in cover.subsets[i] - {v for v, z in pairs if z == y}:
                pairs.add((v, y))
                new += zip1_clauses_for_state(lay, v, y)
            assert new
            load(new)
            continue
        load([u for slot in range(cover.size, k + 1)
              for u in ban_size_units(lay, slot)])
        k = cover.size - 1
    return models


@pytest.mark.parametrize("lazy", [False, True])
def test_cover_branching_models_complete_to_satisfying(lazy):
    # the completion property of the module docstring: branching on R and
    # reporting unassigned a/b variables true satisfies the loaded formula
    models = sum(descent_models(flt, lazy) for flt in medium_filters(20))
    assert models >= 40


# -- assignments ---------------------------------------------------------------

def test_extension_matches_hand_values(twocolor):
    lay = build_layout(twocolor, 3)
    cov = Cover((frozenset({0}), frozenset({1, 2}), frozenset({3})), twocolor)
    asg = extension_from_cover(lay, cov)
    assert asg[lay.a_index(1, 2, "a")] and asg[lay.a_index(1, 2, "b")]
    assert asg[lay.a_index(2, 3, "a")] and asg[lay.a_index(3, 3, "a")]
    # subsets 2 and 3 have no b-children: witness points at slot 1
    assert asg[lay.a_index(2, 1, "b")] and asg[lay.a_index(3, 1, "b")]
    assert not asg[lay.a_index(2, 2, "b")]
    assert asg[lay.b_index(1, "g")] and not asg[lay.b_index(1, "r")]
    assert asg[lay.q_index(1)] and asg[lay.q_index(3)]
    assert assignment_satisfies(build_cnf(lay), asg)


def test_extension_compacts_empty_subsets(twocolor):
    lay = build_layout(twocolor, 4)
    with_gap = Cover((frozenset({0}), frozenset(), frozenset({1, 2}),
                      frozenset({3})), twocolor)
    packed = Cover((frozenset({0}), frozenset({1, 2}), frozenset({3})),
                   twocolor)
    assert extension_from_cover(lay, with_gap) == extension_from_cover(lay, packed)
    asg = extension_from_cover(lay, with_gap)
    assert not asg[lay.q_index(4)]
    # empty slot keeps the integer renderings happy
    assert asg[lay.b_index(4, "g")]
    assert eval_ilp(lay, asg).families["sym"]


def test_extension_rejects_oversized_cover(chain3):
    lay = build_layout(chain3, 1)
    cov = Cover((frozenset({0}), frozenset({1, 2})), chain3)
    with pytest.raises(ValueError, match="non-empty subsets"):
        extension_from_cover(lay, cov)


def test_cover_from_model_reads_partial_models(twocolor):
    lay = build_layout(twocolor, 2)
    model = {lay.r_index(1, 0): True, lay.r_index(1, 1): False}
    cov = cover_from_model(lay, model)
    assert cov.subsets == (frozenset({0}),)


@given(small_filters(), st.data())
def test_extension_cover_roundtrip(flt, data):
    cov = data.draw(covers_for(flt, allow_empty_subsets=False))
    lay = build_layout(flt, flt.n_states)
    asg = extension_from_cover(lay, cov)
    assert cover_from_model(lay, asg).subsets == cov.subsets


# -- integer renderings --------------------------------------------------------

def test_chain3_all_in_one_cover_feasible_objective_one(chain3):
    lay = build_layout(chain3, 1)
    cov = Cover((frozenset({0, 1, 2}),), chain3)
    asg = extension_from_cover(lay, cov)
    rep = eval_inp(lay, asg)
    assert rep.feasible and rep.objective == 1
    rep2 = eval_ilp(lay, asg)
    assert rep2.feasible and rep2.objective == 1


def test_unzipped_cover_fails_zip_families(twocolor):
    lay = build_layout(twocolor, 2)
    cov = Cover((frozenset({0, 3}), frozenset({1, 2})), twocolor)
    asg = extension_from_cover(lay, cov)
    assert not eval_inp(lay, asg).families["zip"]
    ilp = eval_ilp(lay, asg).families
    assert not (ilp["zip1"] and ilp["zip2"])
    assert not assignment_satisfies(build_cnf(lay), asg)


def test_colorless_subset_fails_out_families(twocolor):
    lay = build_layout(twocolor, 2)
    cov = Cover((frozenset({0, 1}), frozenset({2, 3})), twocolor)
    asg = extension_from_cover(lay, cov)
    assert common_outputs(twocolor, {0, 1}) == frozenset()
    assert not eval_inp(lay, asg).families["out"]
    assert not eval_ilp(lay, asg).families["out2"]


def test_uncovered_initial_fails_valid_cover(twocolor):
    lay = build_layout(twocolor, 2)
    cov = Cover((frozenset({1, 2}), frozenset({3})), twocolor)
    asg = extension_from_cover(lay, cov)
    assert not eval_inp(lay, asg).families["valid_cover"]
    assert not eval_ilp(lay, asg).families["valid_cover"]


def test_uncovered_state_is_informational_only(twocolor):
    # {0} alone with self-routing subsets: zipped pieces but missing states
    lay = build_layout(twocolor, 2)
    cov = Cover((frozenset({3}),), twocolor)
    asg = extension_from_cover(lay, cov)
    rep = eval_inp(lay, asg)
    assert not rep.families["valid_cover"]      # 0 not covered
    # 1 and 2 are uncovered too, yet no other family fails on them
    assert [fam for fam, ok in rep.families.items() if not ok] == [
        "valid_cover"]


# -- LP export -----------------------------------------------------------------

def test_chain3_k3_lp_shape(chain3):
    lp = write_lp(build_layout(chain3, 3))
    assert lp_shape(lp) == (24, 45)
    assert lp.startswith("Minimize\n obj: q_1 + q_2 + q_3\n")
    assert " ValidCover: R_1_0 + R_2_0 + R_3_0 >= 1\n" in lp
    assert " Sym_2: q_2 - q_1 <= 0\n" in lp
    assert lp.rstrip().endswith("End")


def test_twocolor_lp_binary_section_in_block_order(twocolor):
    lp = write_lp(build_layout(twocolor, 2))
    binary = lp.split("Binary\n", 1)[1].split()
    assert binary == [
        "R_1_0", "R_1_1", "R_1_2", "R_1_3", "R_2_0", "R_2_1", "R_2_2", "R_2_3",
        "a_1_1_a", "a_1_1_b", "a_1_2_a", "a_1_2_b",
        "a_2_1_a", "a_2_1_b", "a_2_2_a", "a_2_2_b",
        "b_1_g", "b_1_r", "b_2_g", "b_2_r",
        "q_1", "q_2", "End"]


def test_twocolor_lp_folds_constants(twocolor):
    lp = write_lp(build_layout(twocolor, 2))
    # zip rows exist only for live (state, obs) pairs: no Zip1 for (1, b)
    assert "Zip1_1_1_0_b" in lp
    assert "Zip1_1_1_1_b" not in lp
    # out rows exist only for missing colors
    assert "Out1_1_r_0" in lp
    assert "Out1_1_g_0" not in lp


@given(small_filters(), st.data())
def test_lp_row_agreement_with_eval_ilp(flt, data):
    # the rows written are exactly the families eval_ilp checks
    cov = data.draw(covers_for(flt))
    lay = build_layout(flt, flt.n_states)
    asg = extension_from_cover(lay, cov)
    rep = eval_ilp(lay, asg)
    assert set(rep.families) == {
        "nesubset", "sym", "valid_cover", "zip1", "zip2", "out1", "out2"}
