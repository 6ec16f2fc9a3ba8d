"""Minimization of deterministic filtering automata via zipped covers."""

from .filters import (CRASH, Cover, Filter, SimulationVerdict,
                      children_of_set, clique_lower_bound, common_outputs,
                      find_zip_violation, incompatible_pairs, induced_filter,
                      is_deterministic, is_zipped, merged_cover,
                      output_simulates, partition_cover, reachable_states,
                      require_minimizable, strip_unreachable)
from .encoding import (CnfFormula, FeasibilityReport, VarLayout,
                       assignment_satisfies, ban_size_units, build_cnf,
                       build_layout, cover_from_model, eval_ilp, eval_inp,
                       extension_from_cover, write_lp)
from .generate import GenParams, GenerationError, generate
from .minimize import (Budget, IterationStat, METHOD_LAZY, METHOD_SAT,
                       MinimizeReport, minimize)
from .oracle import CapExceeded, OracleResult, brute_minimal
from .sat import SAT, UNKNOWN, UNSAT, CdclSolver, SolveOutcome, SolveStats
from .formats import (STATS_HEADER, FltError, parse_dimacs, parse_flt,
                      write_dimacs, write_flt, write_stats_csv, write_varmap)
from .bench import BENCH_HEADER, SUITES, BenchCase, run_bench, suite_cases

__version__ = "0.1.0"
