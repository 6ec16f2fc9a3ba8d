import pytest
from hypothesis import given, settings

from filtermin import (CapExceeded, METHOD_LAZY, METHOD_SAT, brute_minimal,
                       is_zipped, minimize, output_simulates)
from filtermin.filters import Filter, induced_filter

from conftest import small_filters


def test_chain3_minimal_is_one(chain3):
    res = brute_minimal(chain3)
    assert res.minimal_size == 1
    assert res.witness_cover.subsets == (frozenset({0, 1, 2}),)
    assert res.enumerated >= 1


def test_twocolor_minimal_is_three(twocolor):
    res = brute_minimal(twocolor)
    assert res.minimal_size == 3
    cov = res.witness_cover
    assert cov.is_valid() and is_zipped(cov)
    assert output_simulates(induced_filter(cov), twocolor).holds


def test_single_state_filter():
    one = Filter.build(1, [0], [(0, "a", 0)], [["g"]])
    res = brute_minimal(one)
    assert res.minimal_size == 1 and res.enumerated >= 1


def test_cap_stops_search(twocolor):
    with pytest.raises(CapExceeded):
        brute_minimal(twocolor, cap=2)


def test_cap_equal_to_answer_is_fine(twocolor):
    assert brute_minimal(twocolor, cap=3).minimal_size == 3


def test_cap_below_one_rejected(twocolor):
    with pytest.raises(ValueError, match="cap must be >= 1"):
        brute_minimal(twocolor, cap=0)


@pytest.mark.parametrize("method", [METHOD_SAT, METHOD_LAZY])
@given(flt=small_filters())
@settings(max_examples=20, deadline=None)
def test_oracle_agrees_with_sat_search(method, flt):
    res = brute_minimal(flt)
    report = minimize(flt, method=method)
    assert report.proven_minimal
    assert res.minimal_size == report.best_size
