"""Rising-factorial polynomials: golden term sets, expansion, evaluation."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from pathcount.counting import CapacityError, count_recurrence, dp_oracle
from pathcount.exactmath import catalan, factorial
from pathcount.paths import sigma
from pathcount.symbolic import (
    MonomialPolynomial,
    RFPolynomial,
    RFTerm,
    evaluate,
    expand,
    serialize,
    symbolic_lp,
    verify_det_identity,
)

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
    for n in (13, 15):
        with pytest.raises(CapacityError, match=f"n = {n} is over the cap 12"):
            symbolic_lp(n)
    with pytest.raises(ValueError):
        symbolic_lp(-1)


def test_rfpolynomial_rejects_disorder():
    t0 = RFTerm(F(1), (0,))
    t1 = RFTerm(F(1), (1,))
    with pytest.raises(ValueError):
        RFPolynomial((t1, t0), 1)
    with pytest.raises(ValueError):
        RFPolynomial((t0, t0), 1)
    with pytest.raises(ValueError):
        RFPolynomial((RFTerm(F(1), (0, 0)),), 1)


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
    assert dp_oracle(sigma(v)) == 16
    assert evaluate(symbolic_lp(3), v) == count_recurrence(v) == 16


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        evaluate(symbolic_lp(2), (1, 2, 3))
    with pytest.raises(ValueError):
        evaluate(expand(symbolic_lp(2)), (1,))


def test_evaluate_matches_recurrence_exhaustive():
    for n in range(5):
        poly = symbolic_lp(n)
        for v in product(range(4), repeat=n):
            value = evaluate(poly, v)
            assert value.denominator == 1
            assert value == count_recurrence(v)


def test_evaluate_matches_recurrence_random():
    rng = random.Random(31337)
    for _ in range(100):
        n = rng.randint(0, 6)
        v = tuple(rng.randint(0, 20) for _ in range(n))
        value = evaluate(symbolic_lp(n), v)
        assert value.denominator == 1
        assert value == count_recurrence(v)


def test_verify_det_identity():
    assert verify_det_identity(0, 1)
    assert verify_det_identity(1, 5, seed=1)
    assert verify_det_identity(3, 100, seed=2)


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
