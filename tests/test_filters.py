from collections import deque

import pytest
from hypothesis import given

from filtermin import (Cover, Filter, GenParams, children_of_set,
                       clique_lower_bound, common_outputs, find_zip_violation,
                       generate, incompatible_pairs, induced_filter,
                       is_deterministic, is_zipped, merged_cover,
                       output_simulates, partition_cover, reachable_states,
                       strip_unreachable)
from filtermin.bench import LARGE_SHAPE
from filtermin.filters import CRASH, COLOR_ESCAPE, NONDETERMINISTIC
from filtermin.rng import derive

from conftest import canonical_key, small_filters


# -- construction ------------------------------------------------------------

def test_build_orders_alphabets_by_first_appearance(twocolor):
    assert twocolor.observations == ("a", "b")
    assert twocolor.colors == ("g", "r")


def test_state_without_output_rejected():
    with pytest.raises(ValueError, match="no outputs"):
        Filter.build(2, [0], [(0, "a", 1)], {0: ["g"], 1: []})


def test_undeclared_tokens_rejected():
    with pytest.raises(ValueError, match="undeclared observation"):
        Filter.build(2, [0], [(0, "a", 1)], [["g"], ["g"]],
                     observations=("b",))
    with pytest.raises(ValueError, match="undeclared color"):
        Filter.build(1, [0], [], {0: ["g"]}, colors=("r",))


def test_out_of_range_pieces_rejected():
    with pytest.raises(ValueError):
        Filter.build(2, [5], [(0, "a", 1)], [["g"], ["g"]])
    with pytest.raises(ValueError):
        Filter.build(2, [0], [(0, "a", 7)], [["g"], ["g"]])


def test_duplicate_alphabet_token_rejected():
    with pytest.raises(ValueError, match="duplicate token"):
        Filter.build(1, [0], [], {0: ["g"]}, observations=("a", "a"))


# -- determinism -------------------------------------------------------------

def test_chain3_is_deterministic(chain3):
    assert is_deterministic(chain3)


def test_label_reuse_across_siblings_is_nondeterministic():
    f = Filter.build(3, [0], [(0, "a", 1), (0, "a", 2)],
                     [["g"], ["g"], ["g"]])
    assert not is_deterministic(f)


def test_two_initial_states_is_nondeterministic():
    f = Filter.build(2, [0, 1], [(0, "a", 1)], [["g"], ["g"]])
    assert not is_deterministic(f)


def test_strip_unreachable_renumbers():
    f = Filter.build(4, [0], [(0, "a", 1), (1, "a", 1), (2, "a", 3), (3, "a", 2)],
                     [["g"], ["r"], ["g"], ["g"]])
    g, removed = strip_unreachable(f)
    assert removed == (2, 3)
    assert g.n_states == 2
    assert reachable_states(g) == frozenset({0, 1})
    assert output_simulates(g, f).holds and output_simulates(f, g).holds


def test_strip_unreachable_noop_returns_same_object(chain3):
    g, removed = strip_unreachable(chain3)
    assert g is chain3 and removed == ()


# -- output simulation --------------------------------------------------------

def test_simulates_itself(twocolor):
    assert output_simulates(twocolor, twocolor).holds


def test_crash_witness_is_shortest(chain3, chain3_wide):
    # chain3_wide admits nothing on b, so it simulates chain3 trivially;
    # the reverse needs chain3 to survive strings chain3_wide survives,
    # which it does (b-strings crash in the reference too)
    assert output_simulates(chain3_wide, chain3).holds

    # candidate that loses the self loop dies after two steps
    cand = Filter.build(3, [0], [(0, "a", 1), (1, "a", 2)],
                        [["g"], ["g"], ["g"]])
    verdict = output_simulates(cand, chain3)
    assert not verdict.holds
    assert verdict.failure_kind == CRASH
    assert verdict.witness == ("a", "a", "a")


def test_color_escape_witness(twocolor):
    cand = Filter.build(1, [0], [(0, "a", 0), (0, "b", 0)], [["g"]])
    verdict = output_simulates(cand, twocolor)
    assert not verdict.holds
    assert verdict.failure_kind == COLOR_ESCAPE
    assert verdict.witness == ("a",)   # candidate says g, reference says r


def test_nondeterministic_candidate_detected(chain3):
    cand = Filter.build(3, [0], [(0, "a", 1), (0, "a", 2), (1, "a", 1), (2, "a", 2)],
                        [["g"], ["g"], ["g"]])
    verdict = output_simulates(cand, chain3)
    assert not verdict.holds
    assert verdict.failure_kind == NONDETERMINISTIC
    assert verdict.witness == ("a",)


def test_candidate_missing_tokens_is_an_error(chain3, chain3_wide):
    with pytest.raises(ValueError, match="lacks observation"):
        output_simulates(chain3, chain3_wide)


# -- covers ------------------------------------------------------------------

def test_cover_basics(twocolor):
    c = Cover((frozenset({0}), frozenset({1, 2}), frozenset({3})), twocolor)
    assert c.size == 3
    assert c.is_valid()
    assert is_zipped(c)
    assert children_of_set(twocolor, {0}, "a") == frozenset({1})
    assert common_outputs(twocolor, {1, 2}) == frozenset({"r"})
    assert common_outputs(twocolor, {0, 1}) == frozenset()


def test_common_outputs_rejects_empty_group(twocolor):
    with pytest.raises(ValueError, match="empty group"):
        common_outputs(twocolor, ())


def test_cover_rejects_unknown_states(chain3):
    with pytest.raises(ValueError, match="unknown state"):
        Cover((frozenset({7}),), chain3)


def test_zip_violation_reports_first_by_subset_then_obs(twocolor):
    c = Cover((frozenset({0, 3}), frozenset({1, 2})), twocolor)
    # subset 0 children on a are {1,3}: fit nowhere
    assert find_zip_violation(c) == (0, "a")
    c2 = Cover((frozenset({3}), frozenset({0, 1})), twocolor)
    # subset 1 breaks on a ({1,3}) before b ({2})
    assert find_zip_violation(c2) == (1, "a")


def test_identity_cover_always_works(twocolor):
    c = Cover(tuple(frozenset({v}) for v in range(twocolor.n_states)),
              twocolor)
    assert c.is_valid() and is_zipped(c)
    g = induced_filter(c)
    assert g.n_states == twocolor.n_states
    assert output_simulates(g, twocolor).holds


def test_induced_filter_structure(twocolor):
    c = Cover((frozenset({0}), frozenset({1, 2}), frozenset({3})), twocolor)
    g = induced_filter(c)
    assert g.n_states == 3
    assert g.initial == frozenset({0})
    assert g.coloring[1] == frozenset({"r"})
    assert g.name == "twocolor_induced"
    assert output_simulates(g, twocolor).holds


def test_induced_filter_colors_by_alphabet_order():
    # shortlex puts o2 before o10; plain string order would pick o10
    f = Filter.build(1, [0], [(0, "a", 0)], [["o2", "o10"]])
    g = induced_filter(Cover((frozenset({0}),), f))
    assert g.coloring[0] == frozenset({"o2"})


def test_induced_filter_rejects_bad_covers(twocolor):
    with pytest.raises(ValueError, match="not cover"):
        induced_filter(Cover((frozenset({0}),), twocolor))
    broken = Cover((frozenset({0, 3}), frozenset({1, 2})), twocolor)
    with pytest.raises(ValueError, match="not zipped"):
        induced_filter(broken)


def test_induced_filter_skips_empty_subsets(twocolor):
    c = Cover((frozenset({0}), frozenset(), frozenset({1, 2}), frozenset({3})),
              twocolor)
    assert induced_filter(c).n_states == 3


@given(small_filters())
def test_identity_cover_roundtrip_property(flt):
    # the induced filter keeps one color per subset, so only behavior is
    # preserved, not the full coloring
    g = induced_filter(
        Cover(tuple(frozenset({v}) for v in range(flt.n_states)), flt))
    assert g.n_states == flt.n_states
    assert output_simulates(g, flt).holds


# -- test helpers --------------------------------------------------------------

def test_canonical_key_invariant_under_renumbering(twocolor):
    # same diamond with states 1 and 2 swapped
    g = Filter.build(
        4, [0],
        [(0, "a", 2), (0, "b", 1), (2, "a", 3), (1, "a", 3), (3, "a", 3)],
        [["g"], ["r"], ["r"], ["g"]], name="twocolor")
    assert canonical_key(g) == canonical_key(twocolor)
    h = Filter.build(
        4, [0],
        [(0, "a", 1), (0, "b", 2), (1, "a", 3), (2, "a", 3), (3, "a", 3)],
        [["g"], ["r"], ["r"], ["r"]], name="twocolor")
    assert canonical_key(h) != canonical_key(twocolor)


# -- size bounds ---------------------------------------------------------------

def separated_by_a_word(f, u, w):
    """Independent check: a search over state pairs for an observation word
    that leads u and w to two states with no common color."""
    seen = {(u, w)}
    queue = deque(seen)
    while queue:
        a, b = queue.popleft()
        if not f.coloring[a] & f.coloring[b]:
            return True
        for y in f.observations:
            for nxt in ((a2, b2) for a2 in f.children(a, y)
                        for b2 in f.children(b, y)):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


@given(small_filters())
def test_incompatible_pairs_match_separating_words(flt):
    n = flt.n_states
    assert incompatible_pairs(flt) == {
        (u, w) for u in range(n) for w in range(u + 1, n)
        if separated_by_a_word(flt, u, w)}


@given(small_filters())
def test_bounds_are_sound_on_small_filters(flt):
    cover = partition_cover(flt)
    assert cover.is_valid() and is_zipped(cover)
    assert cover.size <= flt.n_states
    assert all(common_outputs(flt, group) for group in cover.subsets)
    clique = clique_lower_bound(flt)
    assert clique and list(clique) == sorted(set(clique))
    pairs = incompatible_pairs(flt)
    assert all((u, w) in pairs for i, u in enumerate(clique)
               for w in clique[i + 1:])
    assert len(clique) <= cover.size


def test_bounds_of_the_hand_filters(chain3, twocolor):
    assert incompatible_pairs(chain3) == frozenset()
    assert clique_lower_bound(chain3) == (0,)
    assert partition_cover(chain3).subsets == (frozenset({0, 1, 2}),)
    # 0 and 3 are green, 1 and 2 red; 0 and 3 differ on a (red vs green)
    assert incompatible_pairs(twocolor) == {(0, 1), (0, 2), (0, 3), (1, 3),
                                            (2, 3)}
    assert clique_lower_bound(twocolor) == (0, 1, 3)
    assert partition_cover(twocolor).subsets == (
        frozenset({0}), frozenset({1, 2}), frozenset({3}))


def test_partition_cover_rejects_nondeterministic_filters():
    bad = Filter.build(3, [0], [(0, "a", 1), (0, "a", 2)],
                       [["g"], ["g"], ["g"]])
    with pytest.raises(ValueError, match="deterministic"):
        partition_cover(bad)
    with pytest.raises(ValueError, match="deterministic"):
        merged_cover(bad)


@given(small_filters())
def test_merged_cover_is_a_zipped_partition_between_the_bounds(flt):
    cover = merged_cover(flt)
    groups = cover.subsets
    assert cover.is_valid() and is_zipped(cover)
    assert sum(len(group) for group in groups) == flt.n_states  # disjoint
    assert all(common_outputs(flt, group) for group in groups)
    pairs = incompatible_pairs(flt)
    assert not any((u, w) in pairs for group in groups
                   for u in group for w in group if u < w)
    # merging only joins Moore classes, never splits one
    assert all(any(cls <= group for group in groups)
               for cls in partition_cover(flt).subsets)
    assert [min(group) for group in groups] == sorted(map(min, groups))
    assert merged_cover(flt).subsets == groups
    assert (len(clique_lower_bound(flt)) <= cover.size
            <= partition_cover(flt).size)
    assert output_simulates(induced_filter(cover), flt).holds


def test_merged_cover_sizes_pinned(chain3, twocolor, gap_unsat, gap_clique,
                                   gap_unmerged):
    # (merged cover, clique bound): the hand filters' bounds meet, the gap
    # fixtures' do not, nor do those of the second large instance
    assert merged_cover(chain3).subsets == (frozenset({0, 1, 2}),)
    assert merged_cover(twocolor).subsets == (
        frozenset({0}), frozenset({1, 2}), frozenset({3}))
    fixtures = [(merged_cover(f).size, len(clique_lower_bound(f)))
                for f in (gap_unsat, gap_clique, gap_unmerged)]
    assert fixtures == [(4, 1), (7, 4), (3, 2)]
    large = []
    for i in range(3):
        flt = generate(GenParams(seed=derive(0xB1A5, i), **LARGE_SHAPE))
        large.append((merged_cover(flt).size, len(clique_lower_bound(flt))))
    assert large == [(10, 10), (13, 11), (11, 11)]
