"""Exact integer arithmetic helpers: binomials, rising factorials, determinants.

Everything here is exact. Counts are plain Python integers (arbitrary
precision) and the determinant is evaluated by fraction-free elimination,
so no floating point appears anywhere.  The elimination leaves a row with a
zero in the pivot column untouched, so sparse matrices such as the upper
Hessenberg Kreweras matrix cost O(n^2) operations instead of O(n^3).
"""

from __future__ import annotations

import math

__all__ = [
    "binom",
    "catalan",
    "det_int",
    "factorial",
    "rising_factorial",
]


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the one extension the counting formulas need.

    ``binom(n, 0) == 1`` for every integer ``n`` (including negatives) and
    ``binom(-1, k) == 0`` for ``k >= 1``, the m = -1 case of the binomial
    series.  ``k < 0`` gives 0.  Arguments with ``n <= -2`` and ``k >= 1``
    never arise in this library and raise ``ValueError``.
    """
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < -1:
        raise ValueError(f"binom({n}, {k}): n <= -2 with k >= 1 is outside the supported domain")
    if n < k:
        return 0
    return math.comb(n, k)


factorial = math.factorial


def rising_factorial(a: int, m: int) -> int:
    """Product a (a+1) ... (a+m-1); the empty product 1 when m == 0."""
    if m < 0:
        raise ValueError(f"rising factorial length {m} is negative")
    out = 1
    for t in range(m):
        out *= a + t
    return out


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1), exactly."""
    if n < 0:
        raise ValueError(f"Catalan index {n} is negative")
    return math.comb(2 * n, n) // (n + 1)


def _exact_div(num: int, den: int) -> int:
    """``num / den``, which the elimination guarantees is an integer; raise if it is not."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free elimination hit an inexact division")
    return q


def det_int(a) -> int:
    """Exact determinant of a square integer matrix.

    Runs fraction-free (Bareiss) elimination: by Sylvester's identity every
    division performed is exact, keeping all intermediates integral.  The
    0x0 matrix has determinant 1.

    A row whose entry in the pivot column is zero is left alone: Bareiss
    would only scale it by pivot / prev, and those factors telescope.  So
    each stored row carries ``div[i]``, the pivot in force when it was last
    written (1 at the start), and the Bareiss row is ``row * prev / div[i]``.
    A row is brought up to date when it next has a nonzero lead, or when it
    becomes the pivot row.  Dense matrices cost O(n^3) operations;
    upper Hessenberg ones, such as Kreweras', touch one row per step, O(n^2).
    """
    a = [list(row) for row in a]
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    div = [1] * n
    for k in range(n - 1):
        if a[k][k] == 0:
            # first nonzero pivot below, in column order; none means det 0
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    div[k], div[r] = div[r], div[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = a[k]
        if div[k] != prev:
            for j in range(k, n):
                row_k[j] = _exact_div(row_k[j] * prev, div[k])
            div[k] = prev
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            if not lead:
                continue
            d = div[i]
            for j in range(k + 1, n):
                q, r = divmod(row_i[j] * pivot - lead * row_k[j], d)
                if r:
                    raise ArithmeticError("fraction-free elimination hit an inexact division")
                row_i[j] = q
            row_i[k] = 0
            div[i] = pivot
        prev = pivot
    return sign * _exact_div(a[-1][-1] * prev, div[-1])
