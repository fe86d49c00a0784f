"""Exact integer arithmetic helpers: binomials, rising factorials, determinants.

Everything here is exact. Counts are plain Python integers (arbitrary
precision) and the determinant is evaluated by textbook fraction-free
(Bareiss) elimination, so no floating point appears anywhere.  No engine
calls it; it is the reference the ``determinant`` engine is tested against.
"""

from __future__ import annotations

import math

from .paths import _shown, as_integer

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
    never arise in this library and raise ``ValueError``; a non-int argument
    raises ``TypeError``.  ``math.comb`` answers first: it refuses only a
    negative argument, and only then is the extension consulted.
    """
    try:
        return math.comb(n, k)
    except ValueError:
        pass
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < -1:
        raise ValueError(f"binom({_shown(n)}, {_shown(k)}): n <= -2 with k >= 1 is outside the supported domain")
    return 0  # n == -1 and k >= 1


factorial = math.factorial


def rising_factorial(a: int, m: int) -> int:
    """Product a (a+1) ... (a+m-1); the empty product 1 when m == 0.

    An argument that ``operator.index`` refuses, or a negative ``m``, raises ``ValueError``.
    """
    a, m = as_integer(a, "rising factorial base"), as_integer(m, "rising factorial length")
    if m < 0:
        raise ValueError(f"rising factorial length {_shown(m)} is negative")
    return math.prod(range(a, a + m))


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1), exactly; a non-integer or negative n raises ValueError."""
    n = as_integer(n, "Catalan index")
    if n < 0:
        raise ValueError(f"Catalan index {_shown(n)} is negative")
    return math.comb(2 * n, n) // (n + 1)


def _exact_div(num: int, den: int) -> int:
    """``num / den``, which the elimination guarantees is an integer; raise if it is not."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free elimination hit an inexact division")
    return q


def det_int(a) -> int:
    """Exact determinant of a square integer matrix.

    Runs fraction-free (Bareiss, 1968) elimination: by Sylvester's identity
    every division by the previous pivot is exact, keeping all intermediates
    integral, and each one goes through :func:`_exact_div`.  A zero pivot is
    swapped with the first row below that has a nonzero entry in its column;
    none means the determinant is 0.  O(n^3) operations.  The 0x0 matrix has
    determinant 1.
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
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = a[k]
        pivot = row_k[k]
        for row_i in a[k + 1:]:
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = _exact_div(row_i[j] * pivot - lead * row_k[j], prev)
        prev = pivot
    return sign * a[-1][-1]
