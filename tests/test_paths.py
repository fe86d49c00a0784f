"""Path representation conversions and the restriction/polytope predicates."""

from __future__ import annotations

import re
import sys
from itertools import product

import pytest
from hypothesis import given, strategies as st

from pathcount import macmahon_bruteforce, macmahon_total, symbolic_lp
from pathcount.paths import (
    delta,
    format_heights,
    heights_to_word,
    in_polytope,
    is_restricted_by,
    parse_path_spec,
    sigma,
    validate_diffs,
    validate_heights,
    word_to_heights,
)

from test_refusals import check_refusals

heights_st = st.lists(st.integers(min_value=0, max_value=60), max_size=25).map(
    lambda xs: tuple(sorted(xs))
)
diffs_st = st.lists(st.integers(min_value=0, max_value=60), max_size=25).map(tuple)
words_st = st.text(alphabet="EN", max_size=50)


def test_delta_examples():
    assert delta((0, 0, 1, 3, 3, 4, 6)) == (0, 0, 1, 2, 0, 1, 2)
    assert delta(()) == ()
    assert delta((1, 2, 3)) == (1, 1, 1)


def test_sigma_examples():
    assert sigma((1, 1, 1)) == (1, 2, 3)
    assert sigma(()) == ()
    assert sigma((0, 0, 1, 2, 0, 1, 2)) == (0, 0, 1, 3, 3, 4, 6)


@given(heights_st)
def test_sigma_delta_round_trip(p):
    assert sigma(delta(p)) == p


@given(diffs_st)
def test_delta_sigma_round_trip(v):
    assert delta(sigma(v)) == v


def test_word_to_heights_examples():
    assert word_to_heights("EENENNEENENNEN") == (0, 0, 1, 3, 3, 4, 6)
    assert word_to_heights("") == ()
    assert word_to_heights("ENEN") == (0, 1)


def test_heights_to_word_examples():
    assert heights_to_word((0, 0, 1, 3, 3, 4, 6), 7) == "EENENNEENENNEN"
    assert heights_to_word((), 0) == ""
    # the word carries exactly m N steps, so the terminal run length is m - p_n
    assert heights_to_word((0, 1), 2) == "ENEN"
    assert heights_to_word((0, 1), 3) == "ENENN"


@given(words_st)
def test_word_round_trip(w):
    assert heights_to_word(word_to_heights(w), w.count("N")) == w


def test_is_restricted_by_examples():
    assert is_restricted_by((0, 0, 1, 3, 3, 4, 6), (1, 2, 3, 4, 5, 6, 7))
    assert is_restricted_by((2, 2), (2, 2))
    assert not is_restricted_by((0, 3), (1, 2))


def test_in_polytope_examples():
    assert not in_polytope((0, 3, 2), (1, 1, 1))
    assert in_polytope((0, 0, 0), (5, 0, 2))
    assert in_polytope((1, 0, 2), (1, 0, 2))


def test_restriction_matches_polytope_membership():
    # the difference map is a bijection between restricted paths and polytope points
    paths = [
        tuple(q)
        for q in product(range(4), repeat=3)
        if all(q[i] <= q[i + 1] for i in range(2))
    ]
    for q in paths:
        for p in paths:
            assert is_restricted_by(q, p) == in_polytope(delta(q), delta(p))


def test_heights_to_word_rejects_low_terminal():
    check_refusals(lambda call, message: message.startswith("terminal height") and "below" in message)


def test_restriction_is_partial_order():
    paths = [
        tuple(q)
        for q in product(range(3), repeat=3)
        if all(q[i] <= q[i + 1] for i in range(2))
    ]
    for q in paths:
        assert is_restricted_by(q, q)
    for q in paths:
        for p in paths:
            if is_restricted_by(q, p) and is_restricted_by(p, q):
                assert q == p
            for r in paths:
                if is_restricted_by(q, p) and is_restricted_by(p, r):
                    assert is_restricted_by(q, r)


def test_validate_heights():
    assert validate_heights([0, 1, 1]) == (0, 1, 1)


def test_validate_refuses_what_operator_index_refuses():
    check_refusals(lambda call, message: call.startswith(("validate_heights", "validate_diffs")))


def test_integer_arguments_take_what_operator_index_accepts():
    # each is used as the plain int it stands for, never stored as a bool, then faces the usual checks
    assert validate_heights((False, True, True)) == (0, 1, 1)
    assert validate_diffs((True, 0)) == (1, 0)
    assert all(type(x) is int for x in validate_heights((False, True)) + validate_diffs((True, 0)))
    assert heights_to_word((1,), True) == "NE"
    assert macmahon_total(True, 2) == macmahon_bruteforce(True, 2) == 6
    assert type(symbolic_lp(True).nvars) is int


def test_parse_path_spec_forms():
    assert parse_path_spec("h:0,0,1,3") == (0, 0, 1, 3)
    assert parse_path_spec("d:1,0,2") == (1, 1, 3)
    assert parse_path_spec("w:EENEN") == (0, 0, 1)
    assert parse_path_spec("h:") == ()
    assert parse_path_spec("d:") == ()
    assert parse_path_spec("w:") == ()
    # int() reads each entry: surrounding whitespace, a sign and digit-group underscores pass
    assert parse_path_spec("h: 1_2 ,+13") == (12, 13)


@pytest.mark.parametrize("bad", ["h:1,x", "h:2,1", "h:-1", "d:1,-2", "w:ENQ", "1,2,3", "x:1"])
def test_parse_path_spec_rejects(bad):
    check_refusals(lambda call, message: call == f"parse_path_spec({bad!r})")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_parse_path_spec_names_an_entry_over_the_digit_limit():
    # an entry of 5 000 ones was said not to be an integer; the CLI says it has too many digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError, match="^" + re.escape("h: entry 1 has too many digits: '" + "1" * 20 + "'...") + "$"):
            parse_path_spec("h:" + "1" * 5000)
        with pytest.raises(ValueError, match="^" + re.escape("d: entry 2 is not an integer: '" + "7" * 20 + "'...") + "$"):
            parse_path_spec("d:1," + "7" * 5000 + "z")
    finally:
        sys.set_int_max_str_digits(limit)


def test_format_heights():
    assert format_heights((0, 0, 1, 3)) == "h:0,0,1,3"
    assert format_heights(()) == "h:"


@given(heights_st)
def test_parse_format_round_trip(p):
    assert parse_path_spec(format_heights(p)) == p
