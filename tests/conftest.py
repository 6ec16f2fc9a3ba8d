from collections import deque

import pytest
from hypothesis import HealthCheck, assume, settings, strategies as st

from filtermin import (Cover, Filter, GenParams, GenerationError, generate,
                       is_deterministic)
from filtermin.rng import derive

settings.register_profile(
    "suite", deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
settings.load_profile("suite")


def make_chain3():
    """0 -a-> 1 -a-> 2 with a self loop on 2; everything outputs g."""
    return Filter.build(3, [0], [(0, "a", 1), (1, "a", 2), (2, "a", 2)],
                        [["g"], ["g"], ["g"]], name="chain3")


def make_chain3_wide():
    """chain3 with "b" declared but never used: traces on b crash, not reject."""
    return Filter.build(3, [0], [(0, "a", 1), (1, "a", 2), (2, "a", 2)],
                        [["g"], ["g"], ["g"]], observations=("a", "b"),
                        name="chain3_wide")


def make_twocolor():
    """Diamond with colors g,r,r,g; minimal zipped cover has 3 subsets."""
    return Filter.build(
        4, [0],
        [(0, "a", 1), (0, "b", 2), (1, "a", 3), (2, "a", 3), (3, "a", 3)],
        [["g"], ["r"], ["r"], ["g"]], name="twocolor")


def make_gap_unsat():
    """6 states whose size bounds do not meet: the clique bound is 1 (no
    two states are incompatible), the merged cover has 4 subsets and the
    optimum is 2.  The descent runs k = 3 and 2 (both sat) and proves 2
    with an unsat step at k = 1.  (`try_small_filter(1300)`.)"""
    return Filter.build(
        6, [0],
        [(0, "y0", 1), (0, "y1", 5), (1, "y0", 3), (1, "y1", 2),
         (3, "y0", 4), (3, "y1", 1), (4, "y0", 2)],
        [["o0", "o1"], ["o0", "o1"], ["o0", "o2"], ["o0", "o2"],
         ["o1", "o2"], ["o0", "o1"]],
        observations=("y0", "y1"), colors=("o0", "o1", "o2"),
        name="gap_unsat")


def make_gap_clique():
    """13 states, clique bound 4, merged cover 7: the descent runs k = 6, 5
    and 4 (all sat) and stops proven at the clique bound, with no unsat
    step.  (A 3-token medium filter of the benchmark's medium shape.)"""
    return Filter.build(
        13, [0],
        [(0, "y0", 3), (0, "y1", 1), (0, "y2", 2), (1, "y0", 8),
         (1, "y1", 12), (2, "y0", 4), (2, "y2", 5), (3, "y0", 6),
         (3, "y1", 9), (4, "y0", 11), (4, "y1", 7), (4, "y2", 10),
         (7, "y1", 7), (11, "y0", 3), (12, "y0", 9), (12, "y1", 12)],
        [["o0", "o2"], ["o3", "o4"], ["o0", "o2"], ["o0", "o4"],
         ["o2", "o3"], ["o1", "o2"], ["o1", "o4"], ["o1", "o2"],
         ["o3", "o4"], ["o0", "o3"], ["o0", "o4"], ["o0", "o4"],
         ["o2", "o3"]],
        observations=("y0", "y1", "y2"),
        colors=("o0", "o1", "o2", "o3", "o4"), name="gap_clique")


def make_gap_unmerged():
    """3 states that greedy merging leaves apart (merged cover 3) although
    the optimum is 2, because the optimal cover overlaps; clique bound 2.
    Without a solver answer the call returns the input's size."""
    return Filter.build(
        3, [0],
        [(0, "y0", 2), (0, "y1", 1), (1, "y0", 1), (2, "y0", 0)],
        [["o0", "o3"], ["o1", "o3"], ["o1", "o2"]],
        observations=("y0", "y1"), colors=("o0", "o1", "o2", "o3"),
        name="gap_unmerged")


@pytest.fixture
def chain3():
    return make_chain3()


@pytest.fixture
def chain3_wide():
    return make_chain3_wide()


@pytest.fixture
def twocolor():
    return make_twocolor()


@pytest.fixture
def gap_unsat():
    return make_gap_unsat()


@pytest.fixture
def gap_clique():
    return make_gap_clique()


@pytest.fixture
def gap_unmerged():
    return make_gap_unmerged()


# shapes with 1 + layers*width <= 6 states
SMALL_SHAPES = [
    (1, 1, 0, 0), (2, 1, 1, 0), (3, 1, 1, 1), (4, 1, 2, 1), (5, 1, 0, 2),
    (1, 2, 1, 0), (2, 2, 1, 1), (1, 3, 0, 1), (1, 5, 2, 0),
]
SMALL_COLORINGS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]  # (n_outputs, per state)


def try_small_filter(idx: int):
    """Deterministic small instance for an index, or None when the combo
    cannot generate (cramped alphabets are a legitimate generator outcome)."""
    d, w, m, b = SMALL_SHAPES[idx % len(SMALL_SHAPES)]
    n_o, p = SMALL_COLORINGS[(idx // len(SMALL_SHAPES)) % len(SMALL_COLORINGS)]
    n_y = idx % 3 + 1
    try:
        return generate(GenParams(
            layers=d, width=w, self_loops=m, back_edges=b, n_outputs=n_o,
            outputs_per_state=p, n_observations=n_y,
            seed=derive(0xACCE91, idx)))
    except GenerationError:
        return None


@st.composite
def small_filters(draw):
    flt = try_small_filter(draw(st.integers(0, 2**20)))
    assume(flt is not None)
    return flt


def max_slot(layout, clauses):
    """Highest subset slot any literal of `clauses` names (0 for none)."""
    slots = [0]
    for lit in (lit for c in clauses for lit in c):
        block, *coords = layout.decode(abs(lit))
        slots += coords[:2] if block == "a" else coords[:1]
    return max(slots)


@st.composite
def covers_for(draw, flt, allow_empty_subsets=True):
    k = draw(st.integers(1, flt.n_states))
    min_size = 0 if allow_empty_subsets else 1
    subsets = draw(st.lists(
        st.frozensets(st.integers(0, flt.n_states - 1), min_size=min_size),
        min_size=1, max_size=k))
    return Cover(tuple(subsets), flt)


def canonical_key(f):
    """Isomorphism key for the reachable part of a deterministic filter.

    Two deterministic filters get equal keys exactly when renumbering
    states makes them identical (same tokens, same structure, same colors).
    """
    if not is_deterministic(f):
        raise ValueError("canonical_key needs a deterministic filter")
    v0 = next(iter(f.initial))
    index = {v0: 0}
    order = [v0]
    queue = deque([v0])
    while queue:
        v = queue.popleft()
        for y in sorted(f.observations):
            for w in f.children(v, y):
                if w not in index:
                    index[w] = len(order)
                    order.append(w)
                    queue.append(w)
    # the search above indexes every successor of an indexed state
    edges = sorted((index[src], y, index[dst])
                   for (src, y), dsts in f.succ.items() if src in index
                   for dst in dsts)
    colors = tuple(tuple(sorted(f.coloring[v])) for v in order)
    return (len(order), colors, tuple(edges))
