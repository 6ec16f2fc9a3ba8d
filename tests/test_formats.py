import pytest
from hypothesis import given, settings

from filtermin import (Budget, Filter, FltError, METHOD_SAT, STATS_HEADER,
                       build_cnf, build_layout, minimize, parse_dimacs,
                       parse_flt, write_dimacs, write_flt, write_stats_csv,
                       write_varmap)

from conftest import small_filters


def same_filter(a, b):
    """The parser keeps state ids and both alphabets are shortlex-ordered,
    so a round trip gives back the same states, edges, colors and
    alphabets, in the same order."""
    return (a.n_states == b.n_states and a.initial == b.initial
            and a.succ == b.succ and a.coloring == b.coloring
            and a.observations == b.observations and a.colors == b.colors)


def test_write_parse_write_fixed_point(chain3, twocolor):
    for flt in (chain3, twocolor):
        once = write_flt(flt)
        again = write_flt(parse_flt(once))
        assert once == again
        assert same_filter(parse_flt(once), flt)


@given(small_filters())
@settings(max_examples=25)
def test_round_trip_generated(flt):
    text = write_flt(flt)
    back = parse_flt(text)
    assert same_filter(back, flt)
    # same alphabet order, so the same variable numbering
    assert (build_cnf(build_layout(back, 3)).clauses
            == build_cnf(build_layout(flt, 3)).clauses)
    assert write_flt(back) == text


def test_canonical_ordering():
    text = write_flt(parse_flt(
        "filter f\nstates 2\ninitial 1\ninitial 0\n"
        "out 1 b a\nout 0 a\ntrans 1 z 0\ntrans 0 a 1\ntrans 0 b 1\n"))
    lines = text.splitlines()
    assert lines[2:4] == ["initial 0", "initial 1"]
    assert lines[4] == "out 0 a"
    # colors in shortlex order, whatever order the line gave them in
    assert lines[5] == "out 1 a b"
    assert lines[6:] == ["trans 0 a 1", "trans 0 b 1", "trans 1 z 0"]


def test_trans_lines_sort_labels_shortlex():
    flt = Filter.build(3, [0], [(0, "y10", 2), (0, "y2", 1)],
                       [["g"], ["g"], ["g"]])
    lines = write_flt(flt).splitlines()
    assert lines[-2:] == ["trans 0 y2 1", "trans 0 y10 2"]


def test_comments_and_blanks_ignored():
    flt = parse_flt(
        "# header comment\n\nfilter f # trailing\nstates 1\n"
        "initial 0   # indented comment\n\nout 0 g\ntrans 0 a 0\n")
    assert flt.n_states == 1 and flt.name == "f"


def test_multiple_initial_states_round_trip():
    text = "filter f\nstates 3\ninitial 0\ninitial 2\n" \
           "out 0 g\nout 1 g\nout 2 g\ntrans 0 a 1\ntrans 0 b 2\ntrans 2 a 1\n"
    flt = parse_flt(text)
    assert flt.initial == frozenset({0, 2})
    assert write_flt(flt) == text


@pytest.mark.parametrize("text,fragment,line", [
    ("states 1\nout 0 g", "missing initial", None),
    ("initial 0\nout 0 g", "missing states", None),
    ("states 2\ninitial 0\nout 0 g", "state 1 has no outputs", None),
    ("states 1\ninitial 0\ninitial 5\nout 0 g", "out of range", 3),
    ("states 1\ninitial 0\nout 0 g\nout 0 r", "duplicate out", 4),
    ("states 1\ninitial 0\nout 0 g g", "repeated color", 3),
    ("states 1\ninitial 0\nout 0 g\ntrans 0 a 0\ntrans 0 a 0",
     "duplicate trans", 5),
    ("states 1\ninitial 0\nout 0 g\ntrans 0 a 7", "unknown state 7", 4),
    ("states 1\ninitial 0\nout 0 g\nout 3 r", "unknown state 3", 4),
    ("states 1\ninitial 0\nout 0 g\nspin 0", "unknown directive", 4),
    ("states 1\ninitial 0\nout 0 g-r", "bad color token", 3),
    ("filter a\nfilter b\nstates 1\ninitial 0\nout 0 g",
     "duplicate filter", 2),
    ("states 1\nstates 1\ninitial 0\nout 0 g", "duplicate states", 2),
    ("states x\ninitial 0\nout 0 g", "non-negative count", 1),
    ("states ²\ninitial 0\nout 0 g", "non-negative count", 1),
    ("states 1\ninitial ¹\nout 0 g", "one state id", 2),
    ("states 1\ninitial 0\nout 0 g\ntrans 0 a", "src label dst", 4),
])
def test_parse_errors(text, fragment, line):
    with pytest.raises(FltError, match=fragment) as err:
        parse_flt(text)
    assert err.value.line == line


def test_error_message_carries_line_number():
    with pytest.raises(FltError, match=r"line 4: unknown directive"):
        parse_flt("states 1\ninitial 0\nout 0 g\nbogus\n")


def test_write_rejects_unprintable_name(chain3):
    from dataclasses import replace
    with pytest.raises(ValueError, match="not writable"):
        write_flt(replace(chain3, name="has space"))


@pytest.mark.parametrize("edge,colors,fragment", [
    # written as 'trans 0 go left 1', which the reader rejects
    ((0, "go left", 1), ["red"], "observation 'go left'"),
    # written as 'out 1 red x#y', which reads back as the colors {red, x}
    ((0, "go", 1), ["red", "x#y"], "color 'x#y'"),
])
def test_write_rejects_tokens_the_reader_cannot_read_back(edge, colors,
                                                           fragment):
    flt = Filter.build(2, [0], [edge], [["red"], colors])
    with pytest.raises(ValueError, match=f"{fragment} not writable"):
        write_flt(flt)


def test_flt_comment_ends_only_at_a_newline():
    # str.splitlines would end the comment at the form feed
    flt = parse_flt("states 2\ninitial 0\nout 0 g\nout 1 g\n"
                    "# note\x0ctrans 0 go 1\n")
    assert flt.succ == {}


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_error_line_counts_only_line_ends(eol):
    # the vertical tab on line 2 does not start a line
    text = eol.join(["states 1", "# tab\x0b", "initial 0", "out 0 g",
                     "spin 0"])
    with pytest.raises(FltError, match="line 5: unknown directive") as err:
        parse_flt(text)
    assert err.value.line == 5


# -- dimacs --------------------------------------------------------------------

def test_dimacs_round_trip():
    clauses = [[1, -2, 3], [-1], [2, 3]]
    text = write_dimacs(4, clauses)
    assert text.splitlines()[0] == "p cnf 4 3"
    assert parse_dimacs(text) == (4, clauses)


def test_dimacs_comment_ends_only_at_a_newline():
    # str.splitlines would end the comment at the \x85 and read "1 0"
    assert parse_dimacs("p cnf 1 0\nc note\x851 0\n") == (1, [])


def test_dimacs_accepts_comments_and_multiline_clauses():
    n, cls = parse_dimacs("c hi\np cnf 2 2\n1\n-2 0\nc mid\n2 0\n")
    assert (n, cls) == (2, [[1, -2], [2]])


@pytest.mark.parametrize("text,fragment", [
    ("p cnf 2 3\n1 0\n", "says 3 clauses"),
    ("1 0\n", "missing problem line"),
    ("p cnf 2 1\n1 2\n", "terminating 0"),
    ("p dnf 2 1\n1 0\n", "bad problem line"),
    ("p cnf 3 1\n5 -9 0\n", "literal 5 outside variables 1..3"),
    ("1 0\np cnf 1 1\n", "missing problem line before '1 0'"),
    ("p cnf -2 0\n", "negative count"),
    ("p cnf 3 1\n1 0\np cnf 1 1\n", "second problem line"),
    # ASCII digits only, as in .flt: int() would read these as 2, 10 and 1
    ("p cnf ٢ 1\n١ 0\n", "negative count"),
    ("p cnf 20 1\n1_0 0\n", "not an integer: '1_0'"),
    ("p cnf 2 1\n+1 0\n", "not an integer"),
])
def test_dimacs_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_dimacs(text)


def test_varmap_covers_cnf_vars_without_q(twocolor):
    lay = build_layout(twocolor, 2)
    lines = write_varmap(lay).splitlines()
    assert len(lines) == lay.num_cnf_vars
    assert lines[0].split() == ["1", "R", "1", "0"]
    assert not any(line.split()[1] == "q" for line in lines)
    ids = [int(line.split()[0]) for line in lines]
    assert ids == list(range(1, lay.num_cnf_vars + 1))


# -- csv and dot ---------------------------------------------------------------

def test_stats_csv_shape(gap_unsat):
    report = minimize(gap_unsat, method=METHOD_SAT)
    lines = write_stats_csv(report).splitlines()
    assert lines[0] == STATS_HEADER
    assert len(lines) == 1 + len(report.iterations)
    first = lines[1].split(",")
    assert first[0] == "sat" and first[1] == "3"
    assert first[2] in ("sat", "unsat", "unknown")
    int(first[3]);  int(first[4])       # numeric columns parse


def test_stats_csv_empty_best_before_an_accepted_cover(gap_unsat):
    # the merged cover is the report's best, not a row's
    report = minimize(gap_unsat, method=METHOD_SAT, budget=Budget(0.0))
    rows = write_stats_csv(report).splitlines()[1:]
    assert rows and all(row.endswith(",") for row in rows)
