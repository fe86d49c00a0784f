"""Exact arithmetic: binomial extension, rising factorials, determinants."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from pathcount.exactmath import (
    binom,
    catalan,
    det_int,
    factorial,
    rising_factorial,
)

from test_refusals import check_refusals


def det_cofactor(a):
    """Independent oracle: cofactor expansion along the first row."""
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j, head in enumerate(a[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = head * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def det_leibniz(a):
    """Independent oracle: signed sum over all permutations."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions for the sign
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def test_binom_extension_values():
    assert binom(-1, 0) == 1
    assert binom(-1, 3) == 0
    assert binom(5, 2) == 10
    assert binom(3, -2) == 0
    assert binom(-7, 0) == 1
    assert binom(2, 5) == 0


def test_binom_follows_the_documented_convention_over_a_grid():
    # the convention written out case by case, with no math.comb
    def convention(n, k):
        if k < 0:
            return 0
        if k == 0:
            return 1
        if n <= -2:
            return ValueError
        if k > n:
            return 0
        return math.prod(range(n - k + 1, n + 1)) // math.factorial(k)

    refused = 0
    for n in range(-6, 41):
        for k in range(-6, 46):
            want = convention(n, k)
            if want is ValueError:
                with pytest.raises(ValueError) as refusal:
                    binom(n, k)
                assert str(refusal.value) == f"binom({n}, {k}): n <= -2 with k >= 1 is outside the supported domain"
                refused += 1
            else:
                got = binom(n, k)
                assert type(got) is int and got == want, (n, k)
    assert refused == 5 * 45


def test_binom_matches_comb_on_standard_domain():
    for n in range(13):
        for k in range(n + 1):
            assert binom(n, k) == math.comb(n, k)


def test_binom_pascal():
    for n in range(1, 31):
        for k in range(1, n + 1):
            assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_rising_factorial_values():
    assert rising_factorial(3, 0) == 1
    assert rising_factorial(2, 3) == 24
    assert rising_factorial(0, 2) == 0
    assert rising_factorial(-3, 2) == 6
    assert rising_factorial(True, 2) == 2


def test_rising_factorial_matches_the_product_loop():
    # negative starts included: the product passes through zero or stays negative
    for a in range(-12, 13):
        for m in range(12):
            out = 1
            for t in range(m):
                out *= a + t
            assert rising_factorial(a, m) == out, (a, m)


def test_rising_factorial_binomial_identity():
    for a in range(1, 31):
        for m in range(31):
            assert rising_factorial(a, m) == binom(a + m - 1, m) * factorial(m)


def brute_staircase_count(n):
    """Nondecreasing q with q_i <= i - 1: the classical one-sided tallies."""
    if n == 0:
        return 1
    total = 0
    for q in product(*(range(i) for i in range(1, n + 1))):
        if all(q[i] <= q[i + 1] for i in range(n - 1)):
            total += 1
    return total


def test_catalan_small_values():
    assert catalan(0) == 1
    assert catalan(4) == 14
    assert catalan(7) == 429
    assert catalan(4) == brute_staircase_count(4)
    assert catalan(5) == brute_staircase_count(5)
    assert catalan(True) == 1


def test_catalan_convolution_recurrence():
    for n in range(1, 16):
        assert catalan(n) == sum(catalan(i - 1) * catalan(n - i) for i in range(1, n + 1))


def test_det_small_cases():
    assert det_int([]) == 1
    assert det_int([[7]]) == 7
    assert det_int([[2, 1], [1, 3]]) == 5
    eye5 = [[int(i == j) for j in range(5)] for i in range(5)]
    assert det_int(eye5) == 1


def test_det_zero_column_and_singular():
    assert det_int([[0, 1], [0, 5]]) == 0
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([[0, 0, 0], [1, 2, 3], [4, 5, 6]]) == 0


def test_det_needs_square():
    check_refusals(lambda call, message: call.startswith("det_int"))


def test_det_requires_pivot_swap():
    a = [[0, 2, 1], [3, 0, 0], [1, 1, 1]]
    assert det_int(a) == det_leibniz(a)


def test_det_against_leibniz_randomized():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expected = det_leibniz(a)
        assert det_int(a) == expected
        assert det_cofactor(a) == expected


def test_det_larger_random_consistency():
    rng = random.Random(7)
    for _ in range(10):
        a = [[rng.randint(-50, 50) for _ in range(8)] for _ in range(8)]
        d = det_int(a)
        # row-swapped copy must flip the sign
        b = [row[:] for row in a]
        b[0], b[1] = b[1], b[0]
        assert det_int(b) == -d


def det_fraction(a):
    """Independent oracle: Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    assert det.denominator == 1
    return int(det)


def test_det_skipped_row_scaled_when_it_pivots():
    # row 1 has a zero lead at step 0, so it is left at divisor 1; at step 1 it
    # is the pivot row while the divisor in force is 2, and must be scaled first
    a = [[2, 1, 1], [0, 3, 1], [1, 1, 5]]
    assert det_int(a) == det_cofactor(a) == 26
    # after step 0 the pivot entry of row 1 is zero, so the skipped row 2
    # swaps in and is scaled before it pivots
    b = [[2, 2, 1], [1, 1, 2], [0, 3, 1]]
    assert det_int(b) == det_cofactor(b) == -9


def test_det_sparse_against_cofactor_randomized():
    rng = random.Random(4)
    for _ in range(3000):
        n = rng.randint(0, 6)
        density = rng.random()
        a = [[rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.5:
            # zero a leading block so pivots need swaps and rows wait to be updated
            cut = rng.randint(1, n - 1)
            for i in range(cut):
                for j in range(rng.randint(1, n)):
                    a[i][j] = 0
            rng.shuffle(a)
        assert det_int(a) == det_cofactor(a), a


def test_det_hessenberg_against_fractions():
    rng = random.Random(30)
    for n in list(range(1, 31)) + [30] * 10:
        a = [
            [rng.randint(-20, 20) if j >= i - 1 else 0 for j in range(n)]
            for i in range(n)
        ]
        if rng.random() < 0.5:
            a[rng.randrange(n)][rng.randrange(n)] = 0
        assert det_int(a) == det_fraction(a), a


def test_factorial():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(10) == 3628800
