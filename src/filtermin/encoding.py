"""Constraint renderings of the bounded-size zipped-cover search.

Given a deterministic filter and a subset budget k, the search asks for up
to k state subsets that cover the initial state, are zipped (each subset's
observation-children fit inside some subset), and each share a common
output.  This module renders that search three ways over one shared
variable layout:

* CNF clauses for the SAT engine, in groups: per state a cover clause and
  OUT1 rows, per live edge ZIP1, per observation ZIP2, and OUT2; only
  `build_cnf` picks the groups that load up front (lazy withholds zip),
* linear rows exported in LP format,
* product-form integer constraints evaluated directly on an assignment.

Variable blocks, in id order: R (subset i contains state v), a (subset i's
y-children fit in subset j), b (subset i shares output o), then q (subset i
is used; integer renderings only, never in a clause).  Constant tables are
folded at emission time: clauses and rows that a constant satisfies are
dropped and constant literals never appear.

The CNF can be solved by branching on the R block alone.  Only two schemas
hold a negative a or b literal: ZIP1 `[-a, -R, R']` and OUT1 `[-b, -R]`.
ZIP2 and OUT2 hold only positive a/b literals, and cover clauses and size
bans hold only R literals.  So once every R variable is assigned and
unit propagation is quiet, each ZIP1 and OUT1 clause is either satisfied
by its R literals or has already forced its a/b literal false, and setting
every still unassigned a/b variable true satisfies ZIP2 and OUT2 as well.
Clauses a solver learns are implied by these, so the completed assignment
satisfies them too.  `VarLayout.n_cover_vars` is the size of that block.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

from .filters import (Cover, Filter, children_of_set, common_outputs,
                      require_minimizable)


class VarLayout:
    """Deterministic bijection between search variables and solver ids.

    Ids are contiguous from 1: the R block (i-major, then state), the a
    block (i, j, observation position), the b block (i, color position),
    then the q block.  CNF never mentions q, so `num_cnf_vars` stops before
    it; the integer renderings use `num_vars` which includes it.
    """

    def __init__(self, flt: Filter, k: int):
        if k < 1:
            raise ValueError("layout needs k >= 1")
        require_minimizable(flt)
        self.filter = flt
        self.k = k
        self.n = flt.n_states
        self.obs = flt.observations
        self.cols = flt.colors
        self._obs_pos = {y: i for i, y in enumerate(self.obs)}
        self._col_pos = {o: i for i, o in enumerate(self.cols)}
        self._a_base = k * self.n
        self._b_base = self._a_base + k * k * len(self.obs)
        self._q_base = self._b_base + k * len(self.cols)
        # live (state, observation) pairs, ordered by (state, alphabet order)
        self.live_edges = tuple(sorted(
            flt.succ, key=lambda e: (e[0], self._obs_pos[e[1]])))
        # (state, color) pairs the state does NOT carry, same ordering idea
        self.zero_outputs = tuple(
            (v, o) for v in range(self.n) for o in self.cols
            if o not in flt.coloring[v])

    # -- variable indexing ---------------------------------------------------

    def r_index(self, i, v):
        self._check_i(i)
        if not 0 <= v < self.n:
            raise ValueError(f"state {v} out of range")
        return (i - 1) * self.n + v + 1

    def a_index(self, i, j, y):
        self._check_i(i)
        self._check_i(j)
        ny = len(self.obs)
        return self._a_base + ((i - 1) * self.k + (j - 1)) * ny + self._obs_pos[y] + 1

    def b_index(self, i, o):
        self._check_i(i)
        return self._b_base + (i - 1) * len(self.cols) + self._col_pos[o] + 1

    def q_index(self, i):
        self._check_i(i)
        return self._q_base + i

    def _check_i(self, i):
        if not 1 <= i <= self.k:
            raise ValueError(f"subset index {i} outside 1..{self.k}")

    @property
    def n_cover_vars(self):
        """Size of the R block, ids 1..n_cover_vars: the only variables a
        solver needs to branch on (see the module docstring)."""
        return self._a_base

    @property
    def num_cnf_vars(self):
        return self._q_base

    @property
    def num_vars(self):
        return self._q_base + self.k

    # -- constant tables -----------------------------------------------------

    def t_table(self, y, v):
        """1 when state v has a y-child."""
        return 1 if (v, y) in self.filter.succ else 0

    def p_table(self, o, v):
        """1 when color o is among state v's outputs."""
        return 1 if o in self.filter.coloring[v] else 0

    def child(self, v, y):
        """v's one y-child (the filter is deterministic), or None."""
        dsts = self.filter.succ.get((v, y))
        return None if dsts is None else dsts[0]

    def decode(self, var):
        """Map a variable id back to its block and coordinates."""
        if not 1 <= var <= self.num_vars:
            raise ValueError(f"variable {var} outside layout")
        idx = var - 1
        if idx < self._a_base:
            return ("R", idx // self.n + 1, idx % self.n)
        if idx < self._b_base:
            idx -= self._a_base
            ny = len(self.obs)
            ij, ypos = divmod(idx, ny)
            i, j = divmod(ij, self.k)
            return ("a", i + 1, j + 1, self.obs[ypos])
        if idx < self._q_base:
            idx -= self._b_base
            i, opos = divmod(idx, len(self.cols))
            return ("b", i + 1, self.cols[opos])
        return ("q", idx - self._q_base + 1)


def build_layout(flt: Filter, k: int) -> VarLayout:
    return VarLayout(flt, k)


# ---------------------------------------------------------------------------
# clause schemas

@dataclass
class CnfFormula:
    """A CNF formula over the CNF variables of one layout.

    `clauses` are lists of signed variable ids, none above the layout's
    `num_cnf_vars`.  Which schema emitted a clause is not recorded:
    `build_cnf` documents the order, and the schema functions below
    regenerate any part of it.
    """

    clauses: list

    def __len__(self):
        return len(self.clauses)


def cover_clause(layout: VarLayout, v):
    """State v sits in some subset."""
    return [layout.r_index(i, v) for i in range(1, layout.k + 1)]


def zip1_clauses_for_state(layout: VarLayout, v, y):
    """For every subset pair (i, j): if subset i claims state v and routes its
    y-children to subset j, then v's y-child is in subset j.  Empty when v has
    no y-child (the constant makes every instance vacuous)."""
    child = layout.child(v, y)
    if child is None:
        return []
    n, k = layout.n, layout.k
    ny = len(layout.obs)
    ypos = layout._obs_pos[y]
    a_base = layout._a_base
    out = []
    for i in range(1, k + 1):
        r_iv = (i - 1) * n + v + 1
        row = a_base + (i - 1) * k * ny + ypos + 1
        for j in range(1, k + 1):
            a_ijy = row + (j - 1) * ny
            out.append([-a_ijy, -r_iv, (j - 1) * n + child + 1])
    return out


def zip2_clauses_for_obs(layout: VarLayout, y):
    """Every subset routes its y-children somewhere."""
    k = layout.k
    return [[layout.a_index(i, j, y) for j in range(1, k + 1)]
            for i in range(1, k + 1)]


def out1_clauses_for_state(layout: VarLayout, v):
    """A subset claiming a color that state v lacks cannot contain v: one
    row per subset and missing color, subset-major."""
    lacks = [o for o in layout.cols if o not in layout.filter.coloring[v]]
    return [[-layout.b_index(i, o), -layout.r_index(i, v)]
            for i in range(1, layout.k + 1) for o in lacks]


def out2_clauses(layout: VarLayout):
    """Every subset claims at least one output."""
    return [[layout.b_index(i, o) for o in layout.cols]
            for i in range(1, layout.k + 1)]


def build_cnf(layout: VarLayout, lazy: bool = False) -> CnfFormula:
    """Render the full CNF, or the lazy base with the zip clauses withheld.

    Eager: the initial state's cover clause, then ZIP1 per live edge in
    `layout.live_edges` order and ZIP2 per observation in `layout.obs`
    order.  Lazy: every state's cover clause.  Then OUT1 state by state,
    and OUT2.  A solver visits each watch list in load order, and ZIP1 and
    OUT1 both watch negated R literals, so eager keeps its zip clauses
    ahead of OUT1: the other order changes the search.
    """
    if lazy:
        clauses = [cover_clause(layout, v) for v in range(layout.n)]
    else:
        clauses = [cover_clause(layout, next(iter(layout.filter.initial)))]
        for v, y in layout.live_edges:
            clauses += zip1_clauses_for_state(layout, v, y)
        for y in layout.obs:
            clauses += zip2_clauses_for_obs(layout, y)
    for v in range(layout.n):
        clauses += out1_clauses_for_state(layout, v)
    clauses += out2_clauses(layout)
    return CnfFormula(clauses)


def ban_size_units(layout: VarLayout, k_banned: int):
    """Unit clauses emptying subset k_banned; shrinks the size bound by one."""
    return [[-layout.r_index(k_banned, v)] for v in range(layout.n)]


# ---------------------------------------------------------------------------
# models and assignments

def cover_from_model(layout: VarLayout, model) -> Cover:
    """Read the R block of a model into a cover, dropping empty subsets but
    keeping subset order.  Variables absent from the model read as false."""
    subsets = []
    for i in range(1, layout.k + 1):
        group = frozenset(v for v in range(layout.n)
                          if model.get(layout.r_index(i, v), False))
        if group:
            subsets.append(group)
    return Cover(tuple(subsets), layout.filter)


def extension_from_cover(layout: VarLayout, cover: Cover) -> dict:
    """Total assignment witnessing a cover, by fixed deterministic rules.

    Non-empty subsets occupy slots 1..m in order (empty entries in the
    cover are skipped so that slot usage is contiguous, which the symmetry
    rows of the integer renderings expect).  a-variables are set exactly
    where children containment holds; slots with no y-children point their
    witness at slot 1.  b-variables follow common outputs; empty slots
    claim the alphabet's first color.  q marks non-empty slots.
    """
    flt = layout.filter
    groups = [g for g in cover.subsets if g]
    if len(groups) > layout.k:
        raise ValueError(f"cover has {len(groups)} non-empty subsets, layout k={layout.k}")
    asg = {}
    first_color = layout.cols[0]
    for i in range(1, layout.k + 1):
        group = groups[i - 1] if i <= len(groups) else frozenset()
        for v in range(layout.n):
            asg[layout.r_index(i, v)] = v in group
        asg[layout.q_index(i)] = bool(group)
        for y in layout.obs:
            ch = children_of_set(flt, group, y) if group else frozenset()
            if ch:
                for j in range(1, layout.k + 1):
                    inside = j <= len(groups) and ch <= groups[j - 1]
                    asg[layout.a_index(i, j, y)] = inside
            else:
                for j in range(1, layout.k + 1):
                    asg[layout.a_index(i, j, y)] = j == 1
        if group:
            shared = common_outputs(flt, group)
            for o in layout.cols:
                asg[layout.b_index(i, o)] = o in shared
        else:
            for o in layout.cols:
                asg[layout.b_index(i, o)] = o == first_color
    return asg


def assignment_satisfies(formula: CnfFormula, asg) -> bool:
    """Direct clause evaluation; absent variables read as false."""
    for clause in formula.clauses:
        for lit in clause:
            val = asg.get(abs(lit), False)
            if (lit > 0) == val:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# integer renderings

@dataclass(frozen=True)
class FeasibilityReport:
    """Per-family verdicts for one assignment against one rendering.

    `families` maps each constraint family to whether all its rows hold.
    """

    families: dict
    objective: int

    @property
    def feasible(self) -> bool:
        return all(self.families.values())


def eval_inp(layout: VarLayout, asg) -> FeasibilityReport:
    """Evaluate the product-form integer constraints literally on 0/1 values.

    Needs R and q values; a/b are not part of this rendering.  A missing
    y-child contributes 0 for its R term, matching the constant fold that
    makes those factors vacuous.
    """
    k, n = layout.k, layout.n
    r = lambda i, v: int(asg.get(layout.r_index(i, v), False))
    q = lambda i: int(asg.get(layout.q_index(i), False))
    fam = {}
    fam["nesubset"] = all(r(i, v) <= q(i)
                          for i in range(1, k + 1) for v in range(n))
    fam["sym"] = all(q(i) <= q(i - 1) for i in range(2, k + 1))
    v0 = next(iter(layout.filter.initial))
    fam["valid_cover"] = sum(r(j, v0) for j in range(1, k + 1)) >= 1
    zip_ok = True
    for i in range(1, k + 1):
        for y in layout.obs:
            total = 0
            for j in range(1, k + 1):
                prod = 1
                for v in range(n):
                    t = layout.t_table(y, v)
                    w = layout.child(v, y)
                    r_jw = r(j, w) if w is not None else 0
                    prod *= 2 - r(i, v) - t + r_jw
                    if prod == 0:
                        break
                total += prod
            if total < 1:
                zip_ok = False
                break
        if not zip_ok:
            break
    fam["zip"] = zip_ok
    out_ok = True
    for i in range(1, k + 1):
        total = 0
        for o in layout.cols:
            prod = 1
            for v in range(n):
                prod *= 1 - r(i, v) + layout.p_table(o, v)
                if prod == 0:
                    break
            total += prod
        if total < 1:
            out_ok = False
            break
    fam["out"] = out_ok
    objective = sum(q(i) for i in range(1, k + 1))
    return FeasibilityReport(families=fam, objective=objective)


# LP row-name prefix -> family, in report order
_LP_FAMILIES = {"NESubset": "nesubset", "Sym": "sym",
                "ValidCover": "valid_cover", "Zip1": "zip1", "Zip2": "zip2",
                "Out1": "out1", "Out2": "out2"}


def eval_ilp(layout: VarLayout, asg) -> FeasibilityReport:
    """Evaluate the rows of `write_lp(layout)`, read back from its text.

    The verdict is thus about the exported file, not a second copy of its
    rows.  Every term has coefficient +1 or -1; variables absent from `asg`
    read as 0.  A family holds when all its rows do, and trivially when it
    has none (Sym at k = 1).
    """
    value = {_lp_name(layout, var): int(asg.get(var, False))
             for var in range(1, layout.num_vars + 1)}

    def lhs(terms):
        return sum(-value[t[1:]] if t[0] == "-" else value[t]
                   for t in terms.replace("- ", "-").split() if t != "+")

    fam = dict.fromkeys(_LP_FAMILIES.values(), True)
    objective = 0
    for line in write_lp(layout).splitlines():
        name, colon, expr = line.strip().partition(": ")
        if name == "obj":
            objective = lhs(expr)
        elif colon:              # a row; headers and Binary entries have none
            terms, sense, rhs = expr.rsplit(" ", 2)
            total, rhs = lhs(terms), int(rhs)
            if (total > rhs) if sense == "<=" else (total < rhs):
                fam[_LP_FAMILIES[name.split("_")[0]]] = False
    return FeasibilityReport(families=fam, objective=objective)


# ---------------------------------------------------------------------------
# LP export

def _lp_name(layout: VarLayout, var):
    """The LP name of variable id `var`: its `decode` parts joined by '_'."""
    return "_".join(map(str, layout.decode(var)))


def write_lp(layout: VarLayout) -> str:
    """Render the linear rows as an LP-format file with binary variables.

    Variable names are R_i_v, a_i_j_y, b_i_o and q_i; row names identify
    the family and coordinates.  Vacuous rows (those a constant satisfies)
    are dropped, mirroring the CNF constant fold.
    """
    k, n = layout.k, layout.n
    buf = io.StringIO()
    w = buf.write
    w("Minimize\n")
    w(" obj: " + " + ".join(f"q_{i}" for i in range(1, k + 1)) + "\n")
    w("Subject To\n")
    for i in range(1, k + 1):
        for v in range(n):
            w(f" NESubset_{i}_{v}: R_{i}_{v} - q_{i} <= 0\n")
    for i in range(2, k + 1):
        w(f" Sym_{i}: q_{i} - q_{i - 1} <= 0\n")
    v0 = next(iter(layout.filter.initial))
    w(" ValidCover: " +
      " + ".join(f"R_{j}_{v0}" for j in range(1, k + 1)) + " >= 1\n")
    for v, y in layout.live_edges:
        child = layout.child(v, y)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                w(f" Zip1_{i}_{j}_{v}_{y}: a_{i}_{j}_{y} + R_{i}_{v}"
                  f" - R_{j}_{child} <= 1\n")
    for y in layout.obs:
        for i in range(1, k + 1):
            w(f" Zip2_{i}_{y}: " +
              " + ".join(f"a_{i}_{j}_{y}" for j in range(1, k + 1)) + " >= 1\n")
    for i in range(1, k + 1):
        for v, o in layout.zero_outputs:
            w(f" Out1_{i}_{o}_{v}: b_{i}_{o} + R_{i}_{v} <= 1\n")
    for i in range(1, k + 1):
        w(f" Out2_{i}: " +
          " + ".join(f"b_{i}_{o}" for o in layout.cols) + " >= 1\n")
    w("Binary\n")
    for var in range(1, layout.num_vars + 1):
        w(f" {_lp_name(layout, var)}\n")
    w("End\n")
    return buf.getvalue()
