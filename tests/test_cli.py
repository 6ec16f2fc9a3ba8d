import csv
import io

import pytest

from filtermin import (BENCH_HEADER, STATS_HEADER, GenParams, build_layout,
                       build_cnf, generate, parse_dimacs, parse_flt,
                       run_bench, write_dimacs, write_flt)
from filtermin.bench import MEDIUM_SHAPE, BenchCase, run_case
from filtermin.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def chain3_path(tmp_path, chain3):
    p = tmp_path / "chain3.flt"
    p.write_text(write_flt(chain3))
    return str(p)


@pytest.fixture
def twocolor_path(tmp_path, twocolor):
    p = tmp_path / "twocolor.flt"
    p.write_text(write_flt(twocolor))
    return str(p)


@pytest.fixture
def gap_unsat_path(tmp_path, gap_unsat):
    p = tmp_path / "gap_unsat.flt"
    p.write_text(write_flt(gap_unsat))
    return str(p)


@pytest.fixture
def gap_unmerged_path(tmp_path, gap_unmerged):
    p = tmp_path / "gap_unmerged.flt"
    p.write_text(write_flt(gap_unmerged))
    return str(p)


@pytest.fixture
def nondet_path(tmp_path):
    p = tmp_path / "nondet.flt"
    p.write_text("filter nd\nstates 2\ninitial 0\ninitial 1\n"
                  "out 0 g\nout 1 g\ntrans 0 a 1\n")
    return str(p)


def test_gen_check_minimize_pipeline(tmp_path, capsys):
    gen_out = str(tmp_path / "g.flt")
    code, _, _ = run(capsys, "gen", "--layers", "2", "--width", "2",
                     "--self-loops", "1", "--back-edges", "1",
                     "--outputs", "2", "--outputs-per-state", "1",
                     "--observations", "3", "--seed", "9", "--out", gen_out)
    assert code == 0
    code, out, _ = run(capsys, "check", "--deterministic", gen_out)
    assert code == 0 and "deterministic" in out

    sizes = {}
    for method in ("sat", "lazy-sat"):
        small_out = str(tmp_path / f"min_{method}.flt")
        code, _, err = run(capsys, "minimize", gen_out, "--method", method,
                           "--out", small_out)
        assert code == 0
        assert "proven=True" in err
        sizes[method] = parse_flt(open(small_out).read()).n_states
        code, out, _ = run(capsys, "check", "--simulates", small_out, gen_out)
        assert code == 0 and "simulates" in out
    assert sizes["sat"] == sizes["lazy-sat"]


def test_minimize_writes_stats_csv(tmp_path, capsys, gap_unsat_path):
    stats = tmp_path / "stats.csv"
    code, out, _ = run(capsys, "minimize", gap_unsat_path,
                       "--stats", str(stats))
    assert code == 0
    assert out.startswith("filter ")          # .flt on stdout by default
    lines = stats.read_text().splitlines()
    assert lines[0] == STATS_HEADER
    assert len(lines) >= 2


def test_minimize_timeout_zero_exits_three(capsys, gap_unmerged_path):
    # the merged cover of this filter is no smaller than the input
    code, out, err = run(capsys, "minimize", gap_unmerged_path,
                         "--timeout-ms", "0")
    assert code == 3
    assert "lower_bound=2 upper_bound=3 proven=False" in err
    assert parse_flt(out).n_states == 3       # merged fallback emitted


def test_minimize_timeout_zero_can_still_prove(capsys, twocolor_path):
    # twocolor's clique bound meets its merged cover: no solver needed
    code, out, err = run(capsys, "minimize", twocolor_path,
                         "--timeout-ms", "0")
    assert code == 0
    assert "lower_bound=3 upper_bound=3 proven=True" in err
    assert parse_flt(out).n_states == 3


def test_minimize_strips_unreachable_with_warning(tmp_path, capsys):
    p = tmp_path / "u.flt"
    p.write_text("filter u\nstates 3\ninitial 0\nout 0 g\nout 1 g\nout 2 g\n"
                 "trans 0 a 1\ntrans 1 a 1\ntrans 2 a 2\n")
    code, out, err = run(capsys, "minimize", str(p))
    assert code == 0
    assert "unreachable" in err
    assert parse_flt(out).n_states == 1


def test_check_simulates_failure_prints_witness(tmp_path, capsys,
                                                twocolor_path):
    cand = tmp_path / "cand.flt"
    cand.write_text("filter c\nstates 1\ninitial 0\nout 0 g\n"
                    "trans 0 a 0\ntrans 0 b 0\n")
    code, out, _ = run(capsys, "check", "--simulates", str(cand),
                       twocolor_path)
    assert code == 1
    assert "does not simulate" in out and "on a" in out


def test_check_simulates_empty_witness_spelled_out(tmp_path, capsys):
    ref = tmp_path / "ref.flt"
    ref.write_text("filter r\nstates 1\ninitial 0\nout 0 g\ntrans 0 a 0\n")
    cand = tmp_path / "cand.flt"
    cand.write_text("filter c\nstates 1\ninitial 0\nout 0 r\ntrans 0 a 0\n")
    code, out, _ = run(capsys, "check", "--simulates", str(cand), str(ref))
    assert code == 1
    assert "(empty string)" in out


def test_export_dimacs_and_varmap(tmp_path, capsys, twocolor, twocolor_path):
    cnf_path = tmp_path / "f.cnf"
    map_path = tmp_path / "f.map"
    code, _, _ = run(capsys, "export", twocolor_path, "--k", "2",
                     "--dimacs", str(cnf_path), "--varmap", str(map_path))
    assert code == 0
    num_vars, clauses = parse_dimacs(cnf_path.read_text())
    lay = build_layout(twocolor, 2)
    assert num_vars == lay.num_cnf_vars    # q block has no clauses to export
    assert len(clauses) == len(build_cnf(lay))
    assert len(map_path.read_text().splitlines()) == lay.num_cnf_vars


@pytest.mark.parametrize("lazy", [False, True])
def test_export_of_a_generated_file_is_the_library_formula(tmp_path, capsys,
                                                           lazy):
    # the .flt file carries no alphabet order; both sides sort it the same
    flt_path, cnf_path = tmp_path / "g.flt", tmp_path / "g.cnf"
    assert run(capsys, "gen", "--seed", "1", "--observations", "12",
               "--out", str(flt_path))[0] == 0
    assert run(capsys, "export", str(flt_path), "--k", "3",
               "--dimacs", str(cnf_path), *(["--lazy"] if lazy else []))[0] == 0
    lay = build_layout(generate(GenParams(
        layers=4, width=3, self_loops=2, back_edges=2, n_outputs=5,
        outputs_per_state=2, n_observations=12, seed=1)), 3)
    assert cnf_path.read_text() == write_dimacs(
        lay.num_cnf_vars, build_cnf(lay, lazy=lazy).clauses)


def test_export_lazy_is_smaller(tmp_path, capsys, twocolor_path):
    eager, lazy = tmp_path / "e.cnf", tmp_path / "l.cnf"
    run(capsys, "export", twocolor_path, "--k", "2", "--dimacs", str(eager))
    run(capsys, "export", twocolor_path, "--k", "2", "--dimacs", str(lazy),
        "--lazy")
    _, e_cls = parse_dimacs(eager.read_text())
    _, l_cls = parse_dimacs(lazy.read_text())
    assert len(l_cls) < len(e_cls)


def test_export_lp(tmp_path, capsys, chain3_path):
    lp_path = tmp_path / "f.lp"
    code, _, _ = run(capsys, "export", chain3_path, "--lp", str(lp_path))
    assert code == 0
    text = lp_path.read_text()
    assert text.startswith("Minimize") and text.rstrip().endswith("End")


def test_export_lp_honours_k(tmp_path, capsys, twocolor_path):
    lp_path = tmp_path / "f.lp"
    code, _, _ = run(capsys, "export", twocolor_path, "--k", "2",
                     "--lp", str(lp_path))
    assert code == 0
    assert lp_path.read_text().splitlines()[1] == " obj: q_1 + q_2"


def test_export_nothing_requested_is_usage_error(capsys, chain3_path):
    code, _, err = run(capsys, "export", chain3_path)
    assert code == 2


def test_bench_tiny_run(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "--suite", "obs-sweep", "--repeats",
                     "1", "--csv", str(csv_path), "--timeout-ms", "2000",
                     "--no-timing")
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) > 1
    assert not any(",error," in line for line in lines[1:])


def test_bench_status_says_bounds_for_calls_the_bounds_proved():
    text = run_bench("obs-sweep", repeats=2, zero_timing=True)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 32
    bounds = [r for r in rows
              if r["proven"] == "True" and r["final_clause_count"] == "0"]
    assert bounds and all(r["status"] == "bounds" for r in bounds)
    assert not any(r["status"] == "unknown" and r["proven"] == "True"
                   for r in rows)
    assert all(r["status"] in ("sat", "unsat", "unknown", "bounds")
               for r in rows)
    for r in rows:
        assert (int(r["lower_bound"]) <= int(r["best_size"])
                <= int(r["upper_bound"]))
        if r["status"] == "bounds" or r["method"] == "sat":
            assert r["zip_obs_loaded"] == r["zip_pairs_loaded"] == "0"
        if r["status"] == "bounds":
            assert r["lower_bound"] == r["upper_bound"] == r["best_size"]
    # width 3 with a 2-token alphabet cannot label the root's edges
    params = GenParams(seed=0, **dict(MEDIUM_SHAPE, layers=1,
                                      n_observations=2))
    error_row = run_case(BenchCase(suite="obs-sweep", params=params,
                                   instance=0, method="sat", timeout_ms=None,
                                   zero_timing=True)).split(",")
    header = BENCH_HEADER.split(",")
    assert len(error_row) == len(header)
    assert dict(zip(header, error_row))["status"] == "error"


def test_bench_jobs_pool_gives_the_serial_csv():
    serial = run_bench("obs-sweep", repeats=1, zero_timing=True, jobs=1)
    assert run_bench("obs-sweep", repeats=1, zero_timing=True,
                     jobs=2) == serial


def test_exit_codes_for_usage_errors(capsys, tmp_path, chain3_path):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "minimize", "x.flt", "--method", "magic")[0] == 2
    # rejected while the arguments are read, before the input is opened
    code, _, err = run(capsys, "minimize", "x.flt", "--timeout-ms", "-1")
    assert code == 2 and "--timeout-ms" in err
    for flag, value in (("--timeout-ms", "-5"), ("--timeout-ms", "-1"),
                        ("--timeout-ms", "nan"), ("--timeout-ms", "soon"),
                        ("--repeats", "0"), ("--repeats", "-2"),
                        ("--jobs", "-1")):
        code, out, err = run(capsys, "bench", "--suite", "obs-sweep",
                             flag, value)
        assert code == 2 and flag in err and out == ""
    for flag, value in (("--layers", "0"), ("--self-loops", "-1"),
                        ("--observations", "0"),
                        # ASCII digits only, as in .flt: int() reads these
                        ("--width", "1_0"), ("--seed", "٣"),
                        ("--layers", "+2")):
        code, out, err = run(capsys, "gen", flag, value)
        assert code == 2 and flag in err and out == ""
    code, out, err = run(capsys, "minimize", "x.flt", "--timeout-ms", "١٠")
    assert code == 2 and "--timeout-ms" in err and out == ""
    assert run(capsys, "minimize", chain3_path, "--seed", "-7")[0] == 0
    code, _, err = run(capsys, "export", "x.flt", "--k", "0", "--dimacs",
                       str(tmp_path / "x.cnf"))
    assert code == 2 and "--k" in err
    bad = tmp_path / "bad.flt"
    bad.write_text("states 1\ninitial 0\nout 0 g\nbogus directive\n")
    code, _, err = run(capsys, "minimize", str(bad))
    assert code == 2
    assert "line 4" in err


def test_exit_code_help_is_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_exit_codes_for_semantic_errors(capsys, nondet_path, tmp_path):
    assert run(capsys, "minimize", str(tmp_path / "missing.flt"))[0] == 1
    code, _, err = run(capsys, "minimize", nondet_path)
    assert code == 1 and "deterministic" in err
    assert run(capsys, "export", nondet_path, "--lp",
               str(tmp_path / "x.lp"))[0] == 1
    code, _, _ = run(capsys, "check", "--deterministic", nondet_path)
    assert code == 1


def test_gen_negative_seed_writes_a_checkable_filter(capsys, tmp_path):
    out_path = tmp_path / "neg.flt"
    code, _, err = run(capsys, "gen", "--seed", "-3", "--out", str(out_path))
    assert code == 0 and err == ""
    code, out, _ = run(capsys, "check", "--deterministic", str(out_path))
    assert code == 0 and out.strip() == "gen_m3: deterministic"


def test_gen_failure_reports_semantic_error(capsys):
    # width 3 with a 2-token alphabet cannot label the root's edges
    code, _, err = run(capsys, "gen", "--width", "3", "--observations", "2")
    assert code == 1
