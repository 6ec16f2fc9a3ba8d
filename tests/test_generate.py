import pytest
from hypothesis import given, settings, strategies as st

from filtermin import (GenParams, GenerationError, generate,
                       is_deterministic, parse_flt, reachable_states,
                       write_flt)

from conftest import canonical_key


def out_degree(flt, v):
    return sum(len(dsts) for (src, _), dsts in flt.succ.items() if src == v)


def edge_triples(flt):
    return [(src, y, dst) for (src, y), dsts in flt.succ.items()
            for dst in dsts]


def test_state_count_and_layers():
    flt = generate(GenParams(layers=3, width=2, self_loops=1, back_edges=1,
                             n_outputs=2, outputs_per_state=1,
                             n_observations=4, seed=5))
    assert flt.n_states == 1 + 3 * 2
    assert flt.initial == frozenset({0})


def test_everything_reachable_and_deterministic():
    for seed in range(8):
        p = GenParams(layers=4, width=3, self_loops=2, back_edges=2,
                      n_outputs=3, outputs_per_state=2, n_observations=6,
                      seed=seed)
        flt = generate(p)
        assert is_deterministic(flt)
        assert reachable_states(flt) == frozenset(range(flt.n_states))
        assert all(out_degree(flt, v) <= p.n_observations
                   for v in range(flt.n_states))


def test_edge_budget():
    p = GenParams(layers=3, width=3, self_loops=2, back_edges=3,
                  n_outputs=2, outputs_per_state=1, n_observations=5, seed=11)
    flt = generate(p)
    n = flt.n_states
    loops = sum(1 for (s, _, d) in edge_triples(flt) if s == d)
    assert loops == p.self_loops
    # tree: one parent edge per non-root state; everything else is back edges
    non_loop = sum(1 for (s, _, d) in edge_triples(flt) if s != d)
    assert non_loop == (n - 1) + p.back_edges


def test_colors_per_state():
    p = GenParams(layers=2, width=2, self_loops=0, back_edges=0,
                  n_outputs=4, outputs_per_state=2, n_observations=3, seed=3)
    flt = generate(p)
    assert all(len(flt.coloring[v]) == 2 for v in range(flt.n_states))
    assert len(flt.colors) == 4


def test_alphabets_are_the_used_tokens_in_index_order():
    # shortlex keeps y2 before y10, so a 50-token formula numbers its
    # variables as the token pool does
    flt = generate(GenParams(layers=4, width=3, self_loops=2, back_edges=2,
                             n_outputs=12, outputs_per_state=2,
                             n_observations=12, seed=1))
    used_obs = {y for _, y in flt.succ}
    used_cols = set().union(*flt.coloring.values())
    assert {"y2", "y10"} <= used_obs and {"o2", "o10"} <= used_cols
    index = lambda token: int(token[1:])
    assert flt.observations == tuple(sorted(used_obs, key=index))
    assert flt.colors == tuple(sorted(used_cols, key=index))


def test_reproducible_bytes():
    p = GenParams(layers=3, width=2, self_loops=1, back_edges=2,
                  n_outputs=2, outputs_per_state=1, n_observations=4,
                  seed=123)
    a, b = generate(p), generate(p)
    assert write_flt(a) == write_flt(b)


def test_negative_seed_names_a_writable_filter():
    p = lambda s: GenParams(layers=2, width=2, self_loops=1, back_edges=1,
                            n_outputs=2, outputs_per_state=1,
                            n_observations=3, seed=s)
    # "-" is no .flt token character, so a negative seed spells it "m"
    assert [generate(p(s)).name for s in (-3, 0, 3)] == [
        "gen_m3", "gen_0", "gen_3"]
    flt = generate(p(-3))
    back = parse_flt(write_flt(flt))
    assert back.name == "gen_m3"
    assert write_flt(back) == write_flt(flt)


def test_distinct_seeds_usually_differ():
    p = lambda s: GenParams(layers=3, width=2, self_loops=1, back_edges=1,
                            n_outputs=2, outputs_per_state=1,
                            n_observations=4, seed=s)
    keys = {canonical_key(generate(p(s))) for s in range(6)}
    assert len(keys) > 1


def test_width3_two_observations_cannot_exist():
    # the root must feed all three states of layer 1 with distinct labels
    with pytest.raises(GenerationError):
        generate(GenParams(layers=4, width=3, self_loops=2, back_edges=2,
                           n_outputs=2, outputs_per_state=2,
                           n_observations=2, seed=0))


@pytest.mark.parametrize("bad", [
    dict(layers=0),
    dict(width=0),
    dict(self_loops=-1),
    dict(back_edges=-1),
    dict(back_edges=20),         # > layers * width
    dict(n_outputs=0),
    dict(outputs_per_state=0),
    dict(outputs_per_state=5),   # > n_outputs
    dict(n_observations=0),
])
def test_param_validation(bad):
    base = dict(layers=3, width=2, self_loops=1, back_edges=1, n_outputs=3,
                outputs_per_state=2, n_observations=4, seed=0)
    base.update(bad)
    with pytest.raises(ValueError):
        GenParams(**base)


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_generated_filters_are_well_formed(seed):
    p = GenParams(layers=2, width=2, self_loops=1, back_edges=1,
                  n_outputs=2, outputs_per_state=1, n_observations=3,
                  seed=seed)
    flt = generate(p)
    assert is_deterministic(flt)
    assert reachable_states(flt) == frozenset(range(5))
