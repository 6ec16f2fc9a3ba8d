"""Text formats: the .flt filter format, DIMACS CNF, varmap, stats CSV.

The .flt format, one directive per line::

    # anything after a hash is a comment
    filter traffic_monitor
    states 4
    initial 0
    out 0 green
    out 1 red
    trans 0 go 1

Tokens (names, observation labels, colors) match [A-Za-z0-9_]+, and
counts and state ids match [0-9]+.  Every state needs exactly one `out`
line listing its colors; `initial` may repeat for multiple initial
states; `trans src label dst` declares one labelled edge and may not
repeat verbatim.  Parse errors carry the 1-based line number.  Both
readers, this one and `parse_dimacs`, end a line only at \\n, \\r\\n or
\\r.

Writing is canonical: initial lines ascending, out lines in state order
with colors in shortlex order, trans lines by src, shortlex label, dst.
A file carries only the colors and observations its lines use; a parse
takes those as the alphabets, which `Filter` keeps in shortlex order, so
a filter without unused tokens reads back with the same variable
numbering.  Writing a parsed canonical file reproduces it byte for byte.
"""
from __future__ import annotations

import io
import re
from typing import Optional

from .filters import Filter, shortlex
from .minimize import MinimizeReport

_TOKEN = re.compile(r"[A-Za-z0-9_]+\Z")
_NUMBER = re.compile(r"[0-9]+\Z")   # str.isdigit also takes '²', int() does not
_INTEGER = re.compile(r"-?[0-9]+\Z")  # int() also takes '١', '1_0' and '+1'
# str.splitlines also ends lines at \x0b, \x0c, \x1c-\x1e, \x85, \u2028, \u2029
_LINE_END = re.compile(r"\r\n?|\n")

STATS_HEADER = "method,k,outcome,elapsed_ms,clauses_in_solver,best_size_so_far"


class FltError(ValueError):
    def __init__(self, message, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def integer(text: str) -> int:
    """A number as the formats spell it: ASCII digits, optional leading minus."""
    if not _INTEGER.match(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _lines(text: str):
    """The lines of `text`, ended only by \\n, \\r\\n or \\r."""
    return _LINE_END.split(text)


def _check_token(tok, line, what):
    if not _TOKEN.match(tok):
        raise FltError(f"bad {what} token {tok!r}", line)
    return tok


def parse_flt(text: str) -> Filter:
    name = None
    n_states = None
    initial = []
    outs = {}
    trans = []
    seen_trans = set()
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        directive, args = fields[0], fields[1:]
        if directive == "filter":
            if name is not None:
                raise FltError("duplicate filter directive", lineno)
            if len(args) != 1:
                raise FltError("filter needs exactly one name", lineno)
            name = _check_token(args[0], lineno, "name")
        elif directive == "states":
            if n_states is not None:
                raise FltError("duplicate states directive", lineno)
            if len(args) != 1 or not _NUMBER.match(args[0]):
                raise FltError("states needs one non-negative count", lineno)
            n_states = int(args[0])
        elif directive == "initial":
            if len(args) != 1 or not _NUMBER.match(args[0]):
                raise FltError("initial needs one state id", lineno)
            initial.append((int(args[0]), lineno))
        elif directive == "out":
            if len(args) < 2 or not _NUMBER.match(args[0]):
                raise FltError("out needs a state id and colors", lineno)
            v = int(args[0])
            if v in outs:
                raise FltError(f"duplicate out line for state {v}", lineno)
            cols = [_check_token(c, lineno, "color") for c in args[1:]]
            if len(set(cols)) != len(cols):
                raise FltError(f"repeated color for state {v}", lineno)
            outs[v] = (cols, lineno)
        elif directive == "trans":
            if (len(args) != 3 or not _NUMBER.match(args[0])
                    or not _NUMBER.match(args[2])):
                raise FltError("trans needs src label dst", lineno)
            src, dst = int(args[0]), int(args[2])
            y = _check_token(args[1], lineno, "observation")
            if (src, y, dst) in seen_trans:
                raise FltError(f"duplicate trans {src} {y} {dst}", lineno)
            seen_trans.add((src, y, dst))
            trans.append((src, y, dst, lineno))
        else:
            raise FltError(f"unknown directive {directive!r}", lineno)
    if n_states is None:
        raise FltError("missing states directive")
    if not initial:
        raise FltError("missing initial directive")
    for v, lineno in initial:
        if not 0 <= v < n_states:
            raise FltError(f"initial state {v} out of range", lineno)
    for v in range(n_states):
        if v not in outs:
            raise FltError(f"state {v} has no outputs")
    for v, (_cols, lineno) in outs.items():
        if not 0 <= v < n_states:
            raise FltError(f"out line for unknown state {v}", lineno)
    for src, y, dst, lineno in trans:
        for end in (src, dst):
            if not 0 <= end < n_states:
                raise FltError(f"transition mentions unknown state {end}",
                               lineno)
    return Filter.build(
        n_states, (v for v, _ in initial),
        [(src, y, dst) for src, y, dst, _ in trans],
        {v: cols for v, (cols, _) in outs.items()},
        name=name if name is not None else "filter")


def write_flt(flt: Filter) -> str:
    """Canonical .flt text; ValueError for a token `parse_flt` cannot read."""
    for what, tokens in (("filter name", (flt.name,)),
                         ("observation", flt.observations),
                         ("color", flt.colors)):
        for tok in tokens:
            if not _TOKEN.match(tok):
                raise ValueError(f"{what} {tok!r} not writable")
    buf = io.StringIO()
    buf.write(f"filter {flt.name}\n")
    buf.write(f"states {flt.n_states}\n")
    for v in sorted(flt.initial):
        buf.write(f"initial {v}\n")
    for v in range(flt.n_states):
        cols = sorted(flt.coloring[v], key=shortlex)
        buf.write(f"out {v} {' '.join(cols)}\n")
    edges = sorted(flt.succ.items(), key=lambda e: (e[0][0], shortlex(e[0][1])))
    for (src, y), dsts in edges:
        for dst in dsts:                # sorted by `Filter`
            buf.write(f"trans {src} {y} {dst}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# DIMACS and the variable map

def write_dimacs(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str):
    """Read DIMACS CNF text into (num_vars, clauses).

    There must be exactly one problem line, with non-negative counts.
    Clauses must follow it, and every literal must name a variable in
    1..num_vars, the range `CdclSolver(num_vars)` accepts.  Numbers are
    spelled as `integer` reads them.
    """
    num_vars = None
    n_clauses = None
    clauses = []
    pending = []
    for raw in _lines(text):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if (len(parts) != 4 or parts[1] != "cnf"
                    or not all(map(_NUMBER.match, parts[2:]))):
                raise ValueError(f"bad problem line {line!r}, want 'p cnf' "
                                 f"and two non-negative counts")
            if num_vars is not None:
                raise ValueError(f"second problem line {line!r}")
            num_vars, n_clauses = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise ValueError(f"missing problem line before {line!r}")
        for tok in line.split():
            lit = integer(tok)
            if abs(lit) > num_vars:
                raise ValueError(f"literal {lit} outside variables "
                                 f"1..{num_vars}")
            if lit == 0:
                clauses.append(pending)
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ValueError("clause without terminating 0")
    if num_vars is None:
        raise ValueError("missing problem line")
    if n_clauses is not None and n_clauses != len(clauses):
        raise ValueError(f"problem line says {n_clauses} clauses, "
                         f"found {len(clauses)}")
    return num_vars, clauses


def write_varmap(layout) -> str:
    """One line per CNF variable: id, block letter, coordinates."""
    lines = []
    for var in range(1, layout.num_cnf_vars + 1):
        desc = layout.decode(var)
        lines.append(" ".join(str(part) for part in (var,) + desc))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV

def write_stats_csv(report: MinimizeReport) -> str:
    rows = [STATS_HEADER]
    for it in report.iterations:
        best = "" if it.best_size is None else str(it.best_size)
        rows.append(f"{report.method},{it.k},{it.outcome},"
                    f"{int(round(it.elapsed_s * 1000))},"
                    f"{it.clauses_in_solver},{best}")
    return "\n".join(rows) + "\n"
