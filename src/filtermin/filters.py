"""Data model and semantics for combinatorial (procrustean) filters.

A filter is a finite transition system whose edges carry observation tokens
and whose states each carry a non-empty set of output colors.  Its one edge
table, `Filter.succ`, maps (state v, observation y) to v's y-children; every
operation here, and every constraint in `encoding`, reads edges from it.
Feeding it an observation string traces a set of states; the union of their
colors is the filter's output for that string.  A string "crashes" when the
traced set becomes empty, and the set of non-crashing strings is the
filter's interaction language.

This module keeps all value-level semantics in one place:

* the observation-children of a state set (`children_of_set`),
* determinism and reachability checks, unreachable-state stripping, and
  the input check minimization makes (`require_minimizable`),
* output simulation between two filters (`output_simulates`),
* vertex covers and their machinery: zipped-ness, common outputs, and the
  smaller filter induced by a zipped cover,
* bounds on the size of a valid zipped cover, which are facts about the
  filter rather than constraints: Paull-Unger incompatible state pairs
  (`incompatible_pairs`), a greedy clique of them as the lower bound
  (`clique_lower_bound`), a Moore-refinement partition as a cover that
  always works (`partition_cover`), and the smaller cover that greedy
  merging of its classes reaches (`merged_cover`).

Filters and covers are immutable values; every operation here is read-only.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

CRASH = "crash"
NONDETERMINISTIC = "nondeterministic"
COLOR_ESCAPE = "color-escape"


def shortlex(token):
    """Sort key of the canonical alphabet order: shorter first, then by
    character, so y2 precedes y10."""
    return (len(token), token)


@dataclass(frozen=True, eq=False)
class Filter:
    """A finite observation-labelled transition system with colored states.

    States are dense ints 0..n_states-1.  `succ`, the one edge table, maps
    a (state, observation) pair to the sorted tuple of its successor states;
    a pair with no edge is absent.  `coloring` gives every state its
    non-empty color set.  `observations` and `colors` are the alphabets,
    stored in shortlex order (`shortlex`) however they were given, so
    variable numbering and serialization depend only on the tokens.
    """

    n_states: int
    initial: frozenset
    observations: tuple
    succ: dict
    colors: tuple
    coloring: dict
    name: str = "filter"

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("a filter needs at least one state")
        states = range(self.n_states)
        object.__setattr__(self, "initial", frozenset(int(v) for v in self.initial))
        if not self.initial:
            raise ValueError("a filter needs at least one initial state")
        if not self.initial <= set(states):
            raise ValueError("initial state out of range")
        obs = tuple(sorted(self.observations, key=shortlex))
        cols = tuple(sorted(self.colors, key=shortlex))
        if len(set(obs)) != len(obs) or len(set(cols)) != len(cols):
            raise ValueError("duplicate token in alphabet")
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "colors", cols)
        obs_set, col_set = set(obs), set(cols)
        succ = {}
        for (src, y), dsts in self.succ.items():
            dsts = tuple(sorted(set(dsts)))
            if not dsts:
                continue
            if src not in states or not all(d in states for d in dsts):
                raise ValueError(f"transition ({src},{y!r}) out of range")
            if y not in obs_set:
                raise ValueError(
                    f"undeclared observation {y!r} on state {src}")
            succ[(src, y)] = dsts
        object.__setattr__(self, "succ", succ)
        coloring = {}
        for v in states:
            got = frozenset(self.coloring.get(v, ()))
            if not got:
                raise ValueError(f"state {v} has no outputs")
            if not got <= col_set:
                raise ValueError(f"undeclared color on state {v}")
            coloring[v] = got
        if set(self.coloring) - set(states):
            raise ValueError("coloring mentions unknown state")
        object.__setattr__(self, "coloring", coloring)

    @classmethod
    def build(cls, n_states, initial, edges, coloring, observations=None,
              colors=None, name="filter"):
        """Convenience constructor from (src, obs, dst) triples.

        Alphabets default to the observations the edges use and the colors
        the states carry; pass them to declare unused tokens too.
        `coloring` may be a dict keyed by state or a sequence indexed by
        state.
        """
        if not isinstance(coloring, dict):
            coloring = {v: cs for v, cs in enumerate(coloring)}
        succ = {}
        for src, y, dst in edges:
            succ.setdefault((src, y), set()).add(dst)
        if observations is None:
            observations = {y for _, y in succ}
        if colors is None:
            colors = set().union(*coloring.values())
        return cls(n_states=n_states, initial=frozenset(initial),
                   observations=observations, succ=succ,
                   colors=colors, coloring=dict(coloring), name=name)

    def children(self, v, y):
        return self.succ.get((v, y), ())


# ---------------------------------------------------------------------------
# children of a state set

def children_of_set(f: Filter, group, y) -> frozenset:
    """Union of y-successors over a state set."""
    out = set()
    for v in group:
        out.update(f.children(v, y))
    return frozenset(out)


# ---------------------------------------------------------------------------
# determinism and reachability

def is_deterministic(f: Filter) -> bool:
    """One initial state and at most one y-child per (state, observation)."""
    return (len(f.initial) == 1
            and all(len(dsts) == 1 for dsts in f.succ.values()))


def require_minimizable(f: Filter) -> None:
    """Raise ValueError unless `f` is deterministic and fully reachable.

    Minimization, its size bounds and its constraint layouts assume both.
    """
    if not is_deterministic(f):
        raise ValueError("minimization needs a deterministic filter")
    if reachable_states(f) != frozenset(range(f.n_states)):
        raise ValueError("minimization needs every state reachable")


def reachable_states(f: Filter) -> frozenset:
    seen = set(f.initial)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for y in f.observations:
            for w in f.children(v, y):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return frozenset(seen)


def strip_unreachable(f: Filter):
    """Drop unreachable states, renumbering densely.

    Returns (new filter, tuple of removed old ids).  Minimization assumes
    every state is reachable; loaders call this first and warn.
    """
    keep = sorted(reachable_states(f))
    if len(keep) == f.n_states:
        return f, ()
    remap = {old: new for new, old in enumerate(keep)}
    # a reachable state's successors are reachable too
    succ = {(remap[s], y): tuple(remap[d] for d in dsts)
            for (s, y), dsts in f.succ.items() if s in remap}
    coloring = {remap[v]: f.coloring[v] for v in keep}
    removed = tuple(v for v in range(f.n_states) if v not in remap)
    g = Filter(n_states=len(keep), initial=frozenset(remap[v] for v in f.initial),
               observations=f.observations, succ=succ, colors=f.colors,
               coloring=coloring, name=f.name)
    return g, removed


# ---------------------------------------------------------------------------
# output simulation

@dataclass(frozen=True)
class SimulationVerdict:
    """Outcome of an output-simulation check, with a shortest witness on failure.

    failure_kind is one of CRASH (candidate dies on a live string),
    NONDETERMINISTIC (candidate reaches two or more states on a live
    string), or COLOR_ESCAPE (candidate's output is empty or not a subset
    of the reference's output).
    """

    holds: bool
    witness: Optional[tuple] = None
    failure_kind: Optional[str] = None

    def __post_init__(self):
        if self.holds != (self.witness is None and self.failure_kind is None):
            raise ValueError("verdict carries a witness iff it fails")


def output_simulates(candidate: Filter, reference: Filter) -> SimulationVerdict:
    """Check that `candidate` admits every live string of `reference`, reaching
    exactly one state whose colors form a non-empty subset of the reference's
    output for that string.

    Implemented as a breadth-first search over reachable pairs of traced
    state sets, so a reported witness is a shortest failing string.
    """
    missing = set(reference.observations) - set(candidate.observations)
    if missing:
        raise ValueError(f"candidate lacks observation tokens {sorted(missing)}")

    start = (frozenset(reference.initial), frozenset(candidate.initial))
    parents = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        ref_set, cand_set = pair
        kind = None
        if not cand_set:
            kind = CRASH
        elif len(cand_set) >= 2:
            kind = NONDETERMINISTIC
        else:
            (v,) = cand_set
            got = candidate.coloring[v]
            want = frozenset().union(*(reference.coloring[u] for u in ref_set))
            if not got or not got <= want:
                kind = COLOR_ESCAPE
        if kind is not None:
            witness = []
            node = pair
            while parents[node] is not None:
                node, y = parents[node]
                witness.append(y)
            return SimulationVerdict(holds=False, witness=tuple(reversed(witness)),
                                     failure_kind=kind)
        for y in reference.observations:
            ref_next = children_of_set(reference, ref_set, y)
            if not ref_next:
                continue  # string leaves the reference's language
            cand_next = children_of_set(candidate, cand_set, y)
            nxt = (ref_next, cand_next)
            if nxt not in parents:
                parents[nxt] = (pair, y)
                queue.append(nxt)
    return SimulationVerdict(holds=True)


# ---------------------------------------------------------------------------
# covers

@dataclass(frozen=True, eq=False)
class Cover:
    """An ordered collection of state subsets over a filter.

    Empty subsets are permitted in intermediate values; a cover is valid
    for minimization when the union of its subsets is the whole state set.
    """

    subsets: tuple
    over: Filter

    def __post_init__(self):
        states = set(range(self.over.n_states))
        subsets = tuple(frozenset(k) for k in self.subsets)
        for k in subsets:
            if not k <= states:
                raise ValueError("cover subset mentions unknown state")
        object.__setattr__(self, "subsets", subsets)

    @property
    def size(self) -> int:
        return len(self.subsets)

    def is_valid(self) -> bool:
        union = set()
        for k in self.subsets:
            union.update(k)
        return union == set(range(self.over.n_states))


def common_outputs(f: Filter, group) -> frozenset:
    """Intersection of member colors; demands a non-empty group."""
    group = frozenset(group)
    if not group:
        raise ValueError("common_outputs of an empty group")
    it = iter(group)
    out = set(f.coloring[next(it)])
    for v in it:
        out &= f.coloring[v]
        if not out:
            break
    return frozenset(out)


def zip_routes(f: Filter, groups):
    """Yield (i, y, j) for each group i and observation y under which group
    i has children, in that order, where j is the lowest-indexed group
    holding all those children, or None when no group does."""
    for i, group in enumerate(groups):
        for y in f.observations:
            ch = children_of_set(f, group, y)
            if ch:
                yield i, y, next((j for j, other in enumerate(groups)
                                  if ch <= other), None)


def find_zip_violation(cover: Cover):
    """First (subset index, observation) whose children fit in no subset.

    "First" is lowest subset index, then the alphabet's shortlex order;
    None when the cover is zipped.
    """
    return next(((i, y) for i, y, j in zip_routes(cover.over, cover.subsets)
                 if j is None), None)


def is_zipped(cover: Cover) -> bool:
    return find_zip_violation(cover) is None


def induced_filter(cover: Cover) -> Filter:
    """Collapse a valid zipped cover into a filter with one state per subset.

    Ties resolve deterministically: each edge enters the lowest-indexed
    subset containing all children (`zip_routes`), the initial state is the
    lowest-indexed subset containing the original initial state, and each
    state is colored with its subset's first common output in `f.colors`.
    """
    f = cover.over
    if len(f.initial) != 1:
        raise ValueError("induced_filter needs a single initial state")
    if not cover.is_valid():
        raise ValueError("cover does not cover every state")
    groups = [k for k in cover.subsets if k]
    v0 = next(iter(f.initial))
    init_idx = next((i for i, k in enumerate(groups) if v0 in k), None)
    if init_idx is None:
        raise ValueError("initial state not covered")
    coloring = {}
    for i, group in enumerate(groups):
        shared = common_outputs(f, group)
        if not shared:
            raise ValueError(f"subset {i} has no common output")
        coloring[i] = frozenset({next(o for o in f.colors if o in shared)})
    succ = {}
    for i, y, j in zip_routes(f, groups):
        if j is None:
            raise ValueError(f"cover is not zipped at subset {i} on {y!r}")
        succ[(i, y)] = (j,)
    return Filter(n_states=len(groups), initial=frozenset({init_idx}),
                  observations=f.observations, succ=succ,
                  colors=f.colors, coloring=coloring,
                  name=f.name + "_induced")


# ---------------------------------------------------------------------------
# bounds on the size of a valid zipped cover

def incompatible_pairs(f: Filter) -> frozenset:
    """Pairs (u, w), u < w, that no subset of a zipped cover can hold.

    Paull-Unger closure: u and w are incompatible when they share no color,
    or when some observation leads them to an incompatible pair.  A subset
    of a zipped cover shares a color and sends its y-children into one
    subset, so by induction its members are pairwise compatible.  Computed
    by a backward worklist from the color-disjoint pairs over a predecessor
    table keyed by (child, observation).
    """
    preds = {}
    for (v, y), dsts in f.succ.items():
        for c in dsts:
            preds.setdefault(c, {}).setdefault(y, []).append(v)
    pairs = {(u, w) for u in range(f.n_states)
             for w in range(u + 1, f.n_states)
             if f.coloring[u].isdisjoint(f.coloring[w])}
    work = list(pairs)
    while work:
        a, b = work.pop()
        into_b = preds.get(b, {})
        for y, ps in preds.get(a, {}).items():
            for q in into_b.get(y, ()):
                for p in ps:
                    pair = (p, q) if p < q else (q, p)
                    if p != q and pair not in pairs:
                        pairs.add(pair)
                        work.append(pair)
    return frozenset(pairs)


def clique_lower_bound(f: Filter) -> tuple:
    """Sorted pairwise-incompatible states: a lower bound on cover size.

    A valid cover holds every state, and incompatible states need distinct
    subsets, so every valid zipped cover has at least this many subsets.
    Greedy over `incompatible_pairs(f)`: each state seeds a clique in turn,
    in order of falling incompatibility degree, and grows it by the states
    in that same order that are incompatible with every member so far; the
    largest is kept.
    """
    adj = [0] * f.n_states         # per state, the states it clashes with
    for u, w in incompatible_pairs(f):
        adj[u] |= 1 << w
        adj[w] |= 1 << u
    order = sorted(range(f.n_states), key=lambda v: (-adj[v].bit_count(), v))
    best = []
    for seed in order:
        clique, common = [seed], adj[seed]
        for v in order:
            if common >> v & 1:
                clique.append(v)
                common &= adj[v]
        if len(clique) > len(best):
            best = clique
    return tuple(sorted(best))


def partition_cover(f: Filter) -> Cover:
    """A valid zipped cover of at most |V| subsets, by Moore refinement.

    Classes start from each state's smallest color, then split on the class
    of each state's y-child for every observation y, "no y-child" being a
    class of its own, until the number of classes stops growing.  At that
    point every class shares a color and sends its y-children into one
    class.  Classes are numbered in order of their lowest state.
    """
    if not is_deterministic(f):
        raise ValueError("partition_cover needs a deterministic filter")

    def number(keys):
        ids = {}
        return [ids.setdefault(key, len(ids)) for key in keys]

    states = range(f.n_states)
    block = number(min(f.coloring[v]) for v in states)
    while True:
        finer = number(
            (block[v],) + tuple(block[f.succ[(v, y)][0]]
                                if (v, y) in f.succ else -1
                                for y in f.observations)
            for v in states)
        if max(finer) == max(block):
            break
        block = finer
    classes = [[] for _ in range(max(block) + 1)]
    for v in states:
        classes[block[v]].append(v)
    return Cover(tuple(classes), f)


def merged_cover(f: Filter) -> Cover:
    """A valid zipped cover no larger than `partition_cover`, by merging.

    Greedy state merging from the Moore classes: each pair of classes is
    tried once, in order of class number.  A trial merges the two blocks
    under closure, so merging two blocks also merges the blocks of their
    y-children, for every observation y.  It is kept only if each block it
    made still shares a color; otherwise it is undone.  The Moore classes
    send each observation's children into one class and closure keeps that
    true, so the blocks form a zipped partition.  They are numbered in
    order of their lowest state.  A zipped partition whose blocks share a
    color holds no incompatible pair, so a trial that would join one fails
    the color check somewhere in its closure.
    """
    classes = partition_cover(f).subsets
    block_of = [0] * f.n_states
    for b, group in enumerate(classes):
        for v in group:
            block_of[v] = b
    # per block root: its shared colors, and per observation the block of
    # its children
    parent = list(range(len(classes)))
    shared = [frozenset.intersection(*(f.coloring[v] for v in group))
              for group in classes]
    kids = [{y: block_of[f.succ[(v, y)][0]] for y in f.observations
             if (v, y) in f.succ} for v in (min(g) for g in classes)]

    def find(b):
        while parent[b] != b:
            b = parent[b]
        return b

    def try_merge(i, j):
        trail = []
        pending = [(i, j)]
        while pending:
            a, b = sorted(map(find, pending.pop()))
            if a == b:
                continue
            if not shared[a] & shared[b]:
                for root, child, *saved in reversed(trail):
                    parent[child] = child
                    shared[root], kids[root] = saved
                return
            trail.append((a, b, shared[a], kids[a]))
            parent[b] = a
            shared[a] &= shared[b]
            kids[a] = dict(kids[a])
            for y, c in kids[b].items():
                if y in kids[a]:
                    pending.append((kids[a][y], c))
                else:
                    kids[a][y] = c

    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if find(i) != find(j):
                try_merge(i, j)
    blocks = {}
    for v in range(f.n_states):
        blocks.setdefault(find(block_of[v]), []).append(v)
    return Cover(tuple(blocks.values()), f)
