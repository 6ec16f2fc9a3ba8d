"""Layered random filter generator for experiments and tests.

The shape is a rooted layered graph: state 0 alone in layer 0, then
`layers` layers of `width` states each (state s > 0 sits in layer
(s - 1) // width + 1).  Every non-root state gets one tree edge from a
uniformly chosen state in any strictly earlier layer, so everything is
reachable.  On top of that come self loops and back edges, then colors
and observation labels.

Draws happen in a fixed order so instances are reproducible from the seed
alone: tree parents (state 1 upward), self-loop states, back-edge sources,
back-edge targets (interleaved per source), per-state colors (state 0
upward), then edge labels in sorted (src, dst) order.  Labels are drawn
uniformly from the source state's still-unused observation tokens, which
keeps the result deterministic by construction.  If a state ends up with
more outgoing edges than there are tokens, the whole attempt is thrown
away and redrawn from a re-derived seed (up to 64 attempts).
"""
from __future__ import annotations

from dataclasses import dataclass

from .filters import Filter
from .rng import SplitMix64, derive

MAX_ATTEMPTS = 64


class GenerationError(RuntimeError):
    """No valid instance found within the attempt limit."""


@dataclass(frozen=True)
class GenParams:
    layers: int
    width: int
    self_loops: int
    back_edges: int
    n_outputs: int
    outputs_per_state: int
    n_observations: int
    seed: int

    def __post_init__(self):
        if self.layers < 1 or self.width < 1:
            raise ValueError("layers and width must be >= 1")
        if self.self_loops < 0 or self.back_edges < 0:
            raise ValueError("self_loops and back_edges must be >= 0")
        n_states = 1 + self.layers * self.width
        if self.self_loops > n_states:
            raise ValueError("more self loops than states")
        if self.back_edges > self.layers * self.width:
            raise ValueError("more back edges than non-root states")
        if self.n_outputs < 1 or self.n_observations < 1:
            raise ValueError("token pools must be non-empty")
        if not 1 <= self.outputs_per_state <= self.n_outputs:
            raise ValueError("outputs_per_state out of range")

    @property
    def n_states(self) -> int:
        return 1 + self.layers * self.width


def _layer(params: GenParams, s: int) -> int:
    return 0 if s == 0 else (s - 1) // params.width + 1


def _attempt(params: GenParams, rng: SplitMix64):
    n = params.n_states
    w = params.width
    edges = set()
    for s in range(1, n):
        # states in strictly earlier layers are exactly 0..(layer-1)*w
        bound = (_layer(params, s) - 1) * w + 1
        edges.add((rng.randbelow(bound), s))
    for v in rng.sample(n, params.self_loops):
        edges.add((v, v))
    for src in (s + 1 for s in rng.sample(n - 1, params.back_edges)):
        bound = (_layer(params, src) - 1) * w + 1
        fresh = [t for t in range(bound) if (src, t) not in edges]
        if not fresh:
            return None
        edges.add((src, rng.choice(fresh)))
    out_pool = [f"o{i}" for i in range(params.n_outputs)]
    coloring = {v: [out_pool[i] for i in
                    rng.sample(params.n_outputs, params.outputs_per_state)]
                for v in range(n)}
    obs_pool = [f"y{i}" for i in range(params.n_observations)]
    unused = {v: list(obs_pool) for v in range(n)}
    labelled = []
    for src, dst in sorted(edges):
        if not unused[src]:
            return None
        y = rng.choice(unused[src])
        unused[src].remove(y)
        labelled.append((src, y, dst))
    # a .flt name takes no "-", so a negative seed is spelled with "m"
    return Filter.build(
        n_states=n, initial=[0], edges=labelled, coloring=coloring,
        name=f"gen_{params.seed}".replace("-", "m"))


def generate(params: GenParams) -> Filter:
    """Build the instance for `params`, retrying with re-derived seeds."""
    for attempt in range(MAX_ATTEMPTS):
        rng = SplitMix64(derive(params.seed, attempt))
        flt = _attempt(params, rng)
        if flt is not None:
            return flt
    raise GenerationError(
        f"no instance for {params} within {MAX_ATTEMPTS} attempts")
