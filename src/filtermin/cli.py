"""Command line interface.

Subcommands: minimize, gen, check, export, bench.  Exit codes: 0 on
success, 1 on a semantic failure (nondeterministic input, failed check,
generation failure), 2 on parse or usage errors, 3 when a minimize run
ran out of budget and found no filter smaller than the input.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional

from .bench import SUITES, run_bench
from .encoding import build_cnf, build_layout, write_lp
from .filters import (is_deterministic, output_simulates, strip_unreachable)
from .formats import (FltError, integer, parse_flt, write_dimacs, write_flt,
                      write_stats_csv, write_varmap)
from .generate import GenParams, GenerationError, generate
from .minimize import Budget, METHOD_LAZY, METHOD_SAT, minimize


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def nonnegative_int(text: str) -> int:
    n = integer(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def positive_int(text: str) -> int:
    n = integer(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _load_deterministic(path: str):
    """Parse, insist on determinism, drop unreachable states with a warning."""
    flt = parse_flt(_read(path))
    if not is_deterministic(flt):
        raise ValueError(f"{path}: filter is not deterministic")
    flt, removed = strip_unreachable(flt)
    if removed:
        print(f"warning: dropped unreachable states {sorted(removed)}",
              file=sys.stderr)
    return flt


def _cmd_minimize(args) -> int:
    flt = _load_deterministic(args.input)
    budget = Budget(args.timeout_ms / 1000.0
                    if args.timeout_ms is not None else None)
    report = minimize(flt, method=args.method, budget=budget, seed=args.seed)
    verdict = output_simulates(report.best_filter, flt)
    if not verdict.holds:
        print(f"error: result fails simulation check ({verdict.failure_kind} "
              f"after {verdict.witness!r})", file=sys.stderr)
        return 1
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    if args.stats is not None:
        _emit(write_stats_csv(report), args.stats)
    _emit(write_flt(report.best_filter), args.out)
    if not report.proven_minimal and report.best_size == flt.n_states:
        return 3
    return 0


def _cmd_gen(args) -> int:
    params = GenParams(layers=args.layers, width=args.width,
                       self_loops=args.self_loops, back_edges=args.back_edges,
                       n_outputs=args.outputs,
                       outputs_per_state=args.outputs_per_state,
                       n_observations=args.observations, seed=args.seed)
    _emit(write_flt(generate(params)), args.out)
    return 0


def _cmd_check(args) -> int:
    if args.deterministic is not None:
        flt = parse_flt(_read(args.deterministic))
        if is_deterministic(flt):
            print(f"{flt.name}: deterministic")
            return 0
        print(f"{flt.name}: not deterministic")
        return 1
    cand_path, ref_path = args.simulates
    cand = parse_flt(_read(cand_path))
    ref = parse_flt(_read(ref_path))
    verdict = output_simulates(cand, ref)
    if verdict.holds:
        print(f"{cand.name} simulates {ref.name}")
        return 0
    word = " ".join(verdict.witness) if verdict.witness else "(empty string)"
    print(f"{cand.name} does not simulate {ref.name}: "
          f"{verdict.failure_kind} on {word}")
    return 1


def _cmd_export(args) -> int:
    flt = _load_deterministic(args.input)
    if args.dimacs is None and args.varmap is None and args.lp is None:
        print("error: export needs --dimacs, --varmap, or --lp",
              file=sys.stderr)
        return 2
    layout = build_layout(flt, args.k if args.k is not None else flt.n_states)
    if args.dimacs is not None:
        formula = build_cnf(layout, lazy=args.lazy)
        _emit(write_dimacs(layout.num_cnf_vars, formula.clauses), args.dimacs)
    if args.varmap is not None:
        _emit(write_varmap(layout), args.varmap)
    if args.lp is not None:
        _emit(write_lp(layout), args.lp)
    return 0


def _cmd_bench(args) -> int:
    csv = run_bench(suite=args.suite, repeats=args.repeats, seed=args.seed,
                    timeout_ms=args.timeout_ms, jobs=args.jobs,
                    zero_timing=args.no_timing)
    _emit(csv, args.csv)
    return 1 if ",error," in csv else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtermin",
        description="Minimize deterministic filters by zipped-cover search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minimize", help="find a smallest equivalent filter")
    p.add_argument("input", help="input .flt file")
    p.add_argument("--method", choices=(METHOD_SAT, METHOD_LAZY),
                   default=METHOD_SAT)
    p.add_argument("--timeout-ms", type=nonnegative_int, default=None)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--out", default=None, help="output .flt path (default stdout)")
    p.add_argument("--stats", default=None, help="per-iteration CSV path")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("gen", help="generate a random layered filter")
    p.add_argument("--layers", type=positive_int, default=4)
    p.add_argument("--width", type=positive_int, default=3)
    p.add_argument("--self-loops", type=nonnegative_int, default=2)
    p.add_argument("--back-edges", type=nonnegative_int, default=2)
    p.add_argument("--outputs", type=positive_int, default=5)
    p.add_argument("--outputs-per-state", type=positive_int, default=2)
    p.add_argument("--observations", type=positive_int, default=6)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="check determinism or simulation")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--deterministic", metavar="FLT")
    group.add_argument("--simulates", nargs=2, metavar=("CAND", "REF"))
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("export", help="export constraint renderings")
    p.add_argument("input")
    p.add_argument("--k", type=positive_int, default=None,
                   help="size bound for every output (default: state count)")
    p.add_argument("--dimacs", default=None, help="CNF output path")
    p.add_argument("--varmap", default=None, help="variable map output path")
    p.add_argument("--lazy", action="store_true",
                   help="export the lazy base formula (zip clauses withheld)")
    p.add_argument("--lp", default=None, help="LP output path")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--repeats", type=positive_int, default=3)
    p.add_argument("--csv", default=None, help="CSV output path")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--timeout-ms", type=nonnegative_int, default=None)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--no-timing", action="store_true",
                   help="write zeros for elapsed columns")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 2
    try:
        return args.func(args)
    except FltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, GenerationError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
