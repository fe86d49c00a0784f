"""Rising-factorial polynomials: golden term sets, expansion, evaluation."""

from __future__ import annotations

import copy
import pickle
import random
import re
from fractions import Fraction
from itertools import product
from math import prod

import pytest

import pathcount
from pathcount.counting import count_dp, count_recurrence
from pathcount.exactmath import catalan, factorial, rising_factorial
from pathcount.identities import children
from pathcount.paths import sigma
from pathcount.symbolic import (
    MonomialPolynomial,
    RFPolynomial,
    RFTerm,
    _rf_coeffs,
    evaluate,
    expand,
    serialize,
    symbolic_lp,
    term_items,
)

from test_refusals import NOT_SORTED, check_refusals

F = Fraction

GOLDEN_N1 = {((0,), F(1)), ((1,), F(1))}

GOLDEN_N2 = {
    ((0, 0), F(1)),
    ((0, 1), F(1)),
    ((0, 2), F(1, 2)),
    ((1, 0), F(1)),
    ((1, 1), F(1)),
}

# position i of an exponent tuple drives variable v_{n+1-i}, so a term
# written v3^a v2^b v1^c is stored as the tuple (a, b, c)
GOLDEN_N3 = {
    ((0, 0, 0), F(1)),
    ((0, 0, 1), F(1)),
    ((0, 0, 2), F(1, 2)),
    ((0, 0, 3), F(1, 6)),
    ((0, 1, 0), F(1)),
    ((0, 1, 1), F(1)),
    ((0, 1, 2), F(1, 2)),
    ((0, 2, 0), F(1, 2)),
    ((0, 2, 1), F(1, 2)),
    ((1, 0, 0), F(1)),
    ((1, 0, 1), F(1)),
    ((1, 0, 2), F(1, 2)),
    ((1, 1, 0), F(1)),
    ((1, 1, 1), F(1)),
}


def term_set(poly):
    return {(t.exponents, t.coeff) for t in poly.terms}


def test_golden_term_sets():
    assert term_set(symbolic_lp(1)) == GOLDEN_N1
    assert term_set(symbolic_lp(2)) == GOLDEN_N2
    assert term_set(symbolic_lp(3)) == GOLDEN_N3


def test_term_counts_are_catalan():
    for n in range(11):
        assert len(symbolic_lp(n).terms) == catalan(n + 1)


def test_coefficients_are_inverse_factorial_products():
    for n in range(7):
        for term in symbolic_lp(n).terms:
            assert term.coeff == F(1, prod(factorial(e) for e in term.exponents))


def test_symbolic_cap():
    check_refusals(
        lambda call, message: call.startswith("symbolic_lp(")
        and message.startswith(("symbolic expansion", "variable count -"))
    )


def test_rfpolynomial_rejects_disorder():
    check_refusals(lambda call, message: message == NOT_SORTED or message.endswith("does not have 1 entries"))


def test_monomial_polynomial_refuses_a_long_exponent_tuple():
    check_refusals(lambda call, message: "(1, 2, 7)" in call or "nvars=3" in call)


def test_records_compare_by_value_and_are_immutable():
    rf, mono, kids = symbolic_lp(4), expand(symbolic_lp(3)), children((1, 2))
    assert (rf, mono, kids) == (symbolic_lp(4), expand(symbolic_lp(3)), children((1, 2)))
    for record, field in ((rf, "terms"), (rf.terms[0], "coeff"), (mono, "coeffs"), (kids, "children")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_expand_n1():
    mono = expand(symbolic_lp(1))
    assert mono.coeffs == {(0,): F(1), (1,): F(1)}


def test_expand_n2_display():
    mono = expand(symbolic_lp(2))
    assert mono.coeffs == {
        (0, 0): F(1),
        (1, 0): F(3, 2),
        (2, 0): F(1, 2),
        (0, 1): F(1),
        (1, 1): F(1),
    }


def test_expand_n0_is_constant_one():
    mono = expand(symbolic_lp(0))
    assert mono.coeffs == {(): F(1)}
    assert evaluate(mono, ()) == 1


def test_expand_agrees_with_rf_at_random_points():
    rng = random.Random(4242)
    for n in range(7):
        rf = symbolic_lp(n)
        mono = expand(rf)
        for _ in range(50):
            v = tuple(rng.randint(0, 20) for _ in range(n))
            assert evaluate(mono, v) == evaluate(rf, v)


def test_evaluate_examples():
    assert evaluate(symbolic_lp(2), (1, 1)) == catalan(3) == 5
    for n in range(6):
        assert evaluate(symbolic_lp(n), (0,) * n) == 1
    v = (2, 0, 1)
    assert count_dp(sigma(v)) == 16
    assert evaluate(symbolic_lp(3), v) == count_recurrence(sigma(v)) == 16


def test_evaluate_length_mismatch():
    check_refusals(lambda call, message: message.startswith("expected "))


def test_evaluate_matches_recurrence_exhaustive():
    for n in range(5):
        poly = symbolic_lp(n)
        for v in product(range(4), repeat=n):
            value = evaluate(poly, v)
            assert value.denominator == 1
            assert value == count_recurrence(sigma(v))


def test_evaluate_matches_recurrence_random():
    rng = random.Random(31337)
    for _ in range(100):
        n = rng.randint(0, 6)
        v = tuple(rng.randint(0, 20) for _ in range(n))
        value = evaluate(symbolic_lp(n), v)
        assert value.denominator == 1
        assert value == count_recurrence(sigma(v))


def fraction_sum_evaluate(poly, v):
    """Test-side oracle: the per-term ``Fraction`` loop that ``evaluate`` replaced."""
    if len(v) != poly.nvars:
        raise ValueError(f"expected {poly.nvars} values, got {len(v)}")
    total = Fraction(0)
    if isinstance(poly, RFPolynomial):
        rev = tuple(reversed(v))
        for term in poly.terms:
            factor = 1
            for base, m in zip(rev, term.exponents):
                factor *= rising_factorial(base, m)
            total += term.coeff * factor
    else:
        for exps, coeff in poly.coeffs.items():
            mono = 1
            for base, e in zip(v, exps):
                mono *= base**e
            total += coeff * mono
    if total.denominator != 1:
        raise ArithmeticError(f"count polynomial evaluated to the non-integer {total}")
    return total


def fraction_expand(rf):
    """Test-side oracle: the per-term ``Fraction`` loop that ``expand`` replaced; returns the coefficient dict."""
    n = rf.nvars
    out = {}
    for term in rf.terms:
        per_var = [[1]] * n
        for i, m in enumerate(term.exponents):
            per_var[n - 1 - i] = _rf_coeffs(m)
        for degrees in product(*(range(len(c)) for c in per_var)):
            scale = 1
            for coeffs, d in zip(per_var, degrees):
                scale *= coeffs[d]
                if scale == 0:
                    break
            if scale == 0:
                continue
            out[degrees] = out.get(degrees, Fraction(0)) + term.coeff * scale
    return {e: c for e, c in out.items() if c != 0}


def random_polynomials(rng, cases):
    """Random polynomials of both bases, ``nvars = 0`` and the empty one included."""
    for i in range(cases):
        nvars = i % 5
        points = {tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(rng.randint(0, 8))}
        coeffs = {e: F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6, 12))) for e in points}
        yield MonomialPolynomial(coeffs, nvars)
        yield RFPolynomial(tuple(RFTerm(c, e) for e, c in sorted(coeffs.items())), nvars)


def test_evaluate_matches_fraction_sum_oracle():
    rng = random.Random(2024)
    outcomes = {"integer": 0, "non-integer": 0}
    for poly in random_polynomials(rng, 600):
        for _ in range(3):
            v = tuple(rng.randint(-5, 5) for _ in range(poly.nvars))
            try:
                expected = fraction_sum_evaluate(poly, v)
            except ArithmeticError as exc:
                with pytest.raises(ArithmeticError) as got:
                    evaluate(poly, v)
                assert str(got.value) == str(exc)
                outcomes["non-integer"] += 1
            else:
                value = evaluate(poly, v)
                assert type(value) is Fraction and value == expected
                outcomes["integer"] += 1
    assert min(outcomes.values()) > 300, outcomes
    for poly in (MonomialPolynomial({}, 3), RFPolynomial((), 2), RFPolynomial((), 0)):
        assert evaluate(poly, (7,) * poly.nvars) == 0
    for n in range(6):
        rf = symbolic_lp(n)
        for poly in (rf, expand(rf)):
            v = tuple(rng.randint(-8, 20) for _ in range(n))
            assert evaluate(poly, v) == fraction_sum_evaluate(poly, v)


def test_expand_matches_fraction_expand_oracle():
    for n in range(8):
        rf = symbolic_lp(n)
        mono = expand(rf)
        expected = fraction_expand(rf)
        assert mono.coeffs.keys() == expected.keys() and mono.coeffs == expected
        assert all(type(c) is Fraction for c in mono.coeffs.values())
    rng = random.Random(4048)
    rfs = [poly for poly in random_polynomials(rng, 400) if isinstance(poly, RFPolynomial)]
    assert any(t.coeff == 0 for rf in rfs for t in rf.terms)
    assert any(t.coeff < 0 for rf in rfs for t in rf.terms)
    assert {rf.nvars for rf in rfs} == set(range(5)) and any(not rf.terms for rf in rfs)
    for rf in rfs:
        mono = expand(rf)
        assert mono.nvars == rf.nvars
        assert mono.coeffs.keys() == fraction_expand(rf).keys() and mono.coeffs == fraction_expand(rf)


def test_evaluate_reuses_the_form_of_one_polynomial():
    rf = symbolic_lp(6)
    rng = random.Random(77)
    points = [(0,) * 6, (-3, 2, -1, 0, 5, -7)] + [tuple(rng.randint(-9, 12) for _ in range(6)) for _ in range(20)]
    for v in points + points[::-1]:
        assert evaluate(rf, v) == fraction_sum_evaluate(rf, v)
    half = RFPolynomial((RFTerm(F(1, 2), (1,)), RFTerm(F(-1, 3), (2,))), 1)
    for v in ((-4,), (3,), (0,), (-4,)):
        try:
            expected = fraction_sum_evaluate(half, v)
        except ArithmeticError as exc:
            with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
                evaluate(half, v)
        else:
            assert evaluate(half, v) == expected


def test_evaluate_walks_the_prefix_tree_of_the_terms(monkeypatch):
    # the prefixes of the polytope points of dimension n are the points of
    # dimension k <= n, so the tree has C_{n+1}, ..., C_2 nodes, one product each
    products = 0

    def counted(a, b):
        nonlocal products
        products += 1
        return a * b

    monkeypatch.setattr(pathcount.symbolic, "mul", counted)
    for n in range(9):
        rf = symbolic_lp(n)
        levels = rf._form[0]
        assert [col for col, _, _ in levels] == list(range(n - 1, -1, -1))
        assert [len(exponents) for _, exponents, _ in levels] == [catalan(k) for k in range(n + 1, 1, -1)]
        # reading the tree from the root down gives back the terms, in order
        prefixes = [()]
        for _, exponents, slices in reversed(levels):
            assert len(slices) == len(prefixes)
            assert [s.start for s in slices] == [0, *(s.stop for s in slices[:-1])]
            assert slices[-1].stop == len(exponents) and all(s.start < s.stop for s in slices)
            prefixes = [(*prefix, e) for prefix, s in zip(prefixes, slices) for e in exponents[s]]
        assert prefixes == [t.exponents for t in rf.terms]
        # each level's exponent set is built with the form, once, not on every evaluation
        assert rf._form[3] == [set(exponents) for _, exponents, _ in levels]
        products = 0
        v = tuple(range(2, n + 2))
        monkeypatch.setattr(pathcount.symbolic, "set", None, raising=False)  # a set built here fails
        assert evaluate(rf, v) == count_recurrence(sigma(v))
        monkeypatch.delattr(pathcount.symbolic, "set")
        assert products == sum(catalan(k) for k in range(2, n + 2))


def test_copies_of_an_evaluated_polynomial_behave_as_new_ones():
    rf = symbolic_lp(4)
    fresh = symbolic_lp(4)
    before = (hash(rf), repr(rf), pickle.dumps(rf))
    v = (2, -1, 3, 0)
    evaluate(rf, v)
    assert (hash(rf), repr(rf), pickle.dumps(rf)) == before
    assert rf == fresh and hash(rf) == hash(fresh)
    assert pickle.dumps(rf) == pickle.dumps(fresh)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(rf, protocol))
        assert type(copy) is RFPolynomial and copy == rf and evaluate(copy, v) == evaluate(rf, v)
    # copies built from other terms get their own form, not the evaluated one's
    shorter = rf._replace(terms=rf.terms[:-3])
    scaled = RFPolynomial._make((tuple(RFTerm(2 * t.coeff, t.exponents) for t in rf.terms), rf.nvars))
    # a leading exponent 0 adds the variable v_5, the last entry of the point
    widened = rf._replace(terms=tuple(RFTerm(t.coeff, (0, *t.exponents)) for t in rf.terms), nvars=5)
    for w in (v, (5, 0, -2, 7), (1, 1, 1, 1)):
        for copy, point in ((shorter, w), (scaled, w), (widened, (*w, 9))):
            assert evaluate(copy, point) == fraction_sum_evaluate(copy, point)
        assert evaluate(scaled, w) == 2 * evaluate(rf, w)
        assert evaluate(widened, (*w, 9)) == evaluate(rf, w)


def test_monomial_polynomial_builds_its_form_once_over_read_only_coefficients(monkeypatch):
    given = dict(expand(symbolic_lp(5)).coeffs)
    mono = MonomialPolynomial(given, 5)
    builds = []
    real = pathcount.symbolic._integer_form
    monkeypatch.setattr(pathcount.symbolic, "_integer_form", lambda *args: builds.append(1) or real(*args))
    for v in ((1, 2, 3, 4, 5), (0, -1, 2, 0, 7), (3, 3, 3, 3, 3)):
        assert evaluate(mono, v) == fraction_sum_evaluate(mono, v)
    assert len(builds) == 1
    # the coefficients are a read-only view of a private copy: no write reaches the cached form
    with pytest.raises(TypeError):
        mono.coeffs[(0,) * 5] = F(7)
    with pytest.raises(TypeError):
        del mono.coeffs[(0,) * 5]
    given[(0,) * 5] = F(7)
    assert mono.coeffs[(0,) * 5] == 1 and evaluate(mono, (0,) * 5) == 1


def test_monomial_polynomial_compares_replaces_and_pickles_as_before():
    mono = expand(symbolic_lp(3))
    v = (4, 0, 2)
    evaluate(mono, v)
    assert mono.coeffs == dict(mono.coeffs) and mono == MonomialPolynomial(dict(mono.coeffs), 3)
    # a replaced copy gets its own form, not the evaluated one's
    shifted = mono._replace(coeffs={**mono.coeffs, (0, 0, 0): mono.coeffs[(0, 0, 0)] + 5})
    assert type(shifted.coeffs) is type(mono.coeffs) and evaluate(shifted, v) == evaluate(mono, v) + 5
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(mono, protocol))
        assert type(copy) is MonomialPolynomial and copy == mono and "_form" not in vars(copy)
        assert evaluate(copy, v) == evaluate(mono, v)


def test_shallow_and_deep_copies_of_an_evaluated_polynomial_carry_no_form():
    # copy goes through the same reduce hooks as pickle: the fields are copied, the cached form is not
    points = {4: ((2, -1, 3, 0), (5, 0, 7, 1)), 3: ((4, 0, 2), (1, -3, 6))}
    for poly in (symbolic_lp(4), expand(symbolic_lp(3))):
        values = [evaluate(poly, v) for v in points[poly.nvars]]
        assert "_form" in vars(poly)
        for duplicate in (copy.copy(poly), copy.deepcopy(poly)):
            assert type(duplicate) is type(poly) and duplicate == poly and "_form" not in vars(duplicate)
            assert [evaluate(duplicate, v) for v in points[poly.nvars]] == values


def test_serialize_matches_the_term_by_term_text():
    # the per-call text tables must not change a byte: shared Fractions, ints, repeated exponents
    rf = RFPolynomial((RFTerm(2, (1, 10)), RFTerm(F(-3, 4), (10, 1)), RFTerm(F(-3, 4), (10, 10))), 2)
    for poly in (symbolic_lp(6), expand(symbolic_lp(5)), rf):
        lines = (f"{c.numerator}/{c.denominator}  {','.join(str(e) for e in exps)}" for exps, c in term_items(poly))
        assert serialize(poly) == "\n".join(lines)


def test_rfpolynomial_stores_its_terms_as_a_tuple():
    terms = [RFTerm(F(1), (0,)), RFTerm(F(1), (1,))]
    rf = RFPolynomial(terms, 1)
    assert type(rf.terms) is tuple and rf == RFPolynomial(tuple(terms), 1)
    assert evaluate(rf, (3,)) == 4
    terms.append(RFTerm(F(5), (2,)))
    assert len(rf.terms) == 2 and evaluate(rf, (3,)) == 4 and hash(rf) == hash(symbolic_lp(1))


def test_symbolic_lp_shares_one_coefficient_per_value():
    coeffs = [t.coeff for t in symbolic_lp(8).terms]
    distinct = set(coeffs)
    assert len({id(c) for c in coeffs}) == len(distinct) == 20


def test_evaluate_refuses_non_integer_entries():
    check_refusals(lambda call, message: message.startswith(("value ", "count polynomial evaluated")))


def test_negative_exponents_are_refused():
    check_refusals(lambda call, message: message.endswith("has a negative entry"))


def test_exponents_that_are_not_tuples_of_ints_are_refused():
    check_refusals(lambda call, message: message.endswith(("are not a tuple", "has an entry that is not an int")))


def test_coefficients_that_are_not_int_or_fraction_are_refused():
    check_refusals(lambda call, message: message.endswith("is not an int or a Fraction"))


def test_evaluate_takes_every_integer_point_and_int_entries():
    for poly in (symbolic_lp(2), expand(symbolic_lp(2))):
        # the polynomial is defined at every integer point
        # (1 + v1 + v1 (v1 + 1) / 2 + v2 + v1 v2 at v1 = -2, v2 = 3)
        assert evaluate(poly, (-2, 3)) == fraction_sum_evaluate(poly, (-2, 3)) == -3
        assert evaluate(poly, (True, 1)) == 5
    # an int-subclass exponent counts as its int, and int coefficients work in both bases
    assert evaluate(RFPolynomial((RFTerm(F(1), (True,)),), 1), (3,)) == 3
    rf = RFPolynomial((RFTerm(2, (1,)),), 1)
    assert evaluate(rf, (3,)) == 6
    assert expand(rf).coeffs == {(1,): 2}
    assert serialize(rf) == "2/1  1"
    assert evaluate(MonomialPolynomial({(0,): 1, (2,): 3}, 1), (3,)) == 28


def test_evaluate_table_holds_only_present_exponents():
    # a table sized by the largest exponent would take a million entries here
    assert evaluate(MonomialPolynomial({(10**6,): F(1)}, 1), (1,)) == 1
    assert evaluate(MonomialPolynomial({(0, 10**6): F(2), (3, 10**6 + 1): F(1)}, 2), (2, -1)) == -6


def test_serialize_golden_n2():
    assert serialize(symbolic_lp(2)) == "\n".join(
        [
            "1/1  0,0",
            "1/1  0,1",
            "1/2  0,2",
            "1/1  1,0",
            "1/1  1,1",
        ]
    )


def test_serialize_monomial_sorted():
    text = serialize(expand(symbolic_lp(2)))
    assert text == "\n".join(
        [
            "1/1  0,0",
            "1/1  0,1",
            "3/2  1,0",
            "1/1  1,1",
            "1/2  2,0",
        ]
    )


def test_serialize_n0():
    assert serialize(symbolic_lp(0)) == "1/1"
    assert serialize(MonomialPolynomial({(): F(3, 2)}, 0)) == "3/2"
