"""Reference values and output checks, written without pathcount.

Every output the benchmark sees is compared with a value computed here, by
methods chosen to be independent of the engines under test.  ``self_check``
proves these methods against brute force on tiny inputs before any run uses
them, so a wrong reference fails the run instead of passing a wrong answer.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, product
from math import comb, factorial, prod


def lp_dp(p) -> int:
    """Paths below ``p`` by a prefix-sum sweep over heights (cost sum(p))."""
    ways = [1]  # ways[h]: admissible prefixes whose last height is exactly h
    for bound in p:
        ways = list(accumulate(ways[: bound + 1] + [0] * (bound + 1 - len(ways))))
    return sum(ways)


def lp_first_violation(p) -> int:
    """Paths below ``p`` by subtracting paths grouped by their first violation.

    N_k, the count for the length-k prefix, is every nondecreasing k-tuple
    bounded by p_k minus, for each i < k, those first exceeding p at i:
    N_{i-1} * C(p_k - p_i + k - i, k - i + 1).  O(n^2) binomials whose size
    does not depend on the heights' magnitude, so it stays cheap for tall
    paths, and it shares no recurrence with the program's engines.
    """
    n_of = [1]
    for k in range(1, len(p) + 1):
        top = p[k - 1]
        total = comb(top + k, k)
        for i in range(1, k):
            total -= n_of[i - 1] * comb(top - p[i - 1] + k - i, k - i + 1)
        n_of.append(total)
    return n_of[-1]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def staircase_count(n: int) -> int:
    """Paths below the staircase (1, 2, ..., n): the Catalan number C_{n+1}."""
    return catalan(n + 1)


def rectangle_count(n: int, m: int) -> int:
    """Paths below the rectangle (m, ..., m) of width n: C(n + m, n)."""
    return comb(n + m, n)


def macmahon_closed(n: int, m: int) -> int:
    num = factorial(m + n) * factorial(m + n + 1)
    den = factorial(m) * factorial(n) * factorial(m + 1) * factorial(n + 1)
    return num // den


def brute_count(p) -> int:
    return len(brute_paths(p))


def brute_paths(p) -> list[tuple[int, ...]]:
    """Every nondecreasing q <= p, by exhausting the box prod [0, p_i]."""
    return [
        q
        for q in product(*(range(b + 1) for b in p))
        if all(a <= b for a, b in zip(q, q[1:]))
    ]


def partial_sums(v) -> tuple[int, ...]:
    return tuple(accumulate(v))


def enumeration_ok(p, paths, expected_total: int) -> bool:
    """Strictly increasing lexicographic order, q <= p, q nondecreasing, right total."""
    if len(paths) != expected_total:
        return False
    prev = None
    for q in paths:
        if len(q) != len(p) or (prev is not None and not prev < q):
            return False
        if any(a > b for a, b in zip(q, p)) or any(a > b for a, b in zip(q, q[1:])):
            return False
        if q and q[0] < 0:
            return False
        prev = q
    return True


def parse_terms(text: str) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Parse ``num/den  e1,e2,...`` lines, the program's symbolic text form."""
    terms = []
    for line in text.splitlines():
        coeff, _, exps = line.partition("  ")
        exponents = tuple(int(e) for e in exps.split(",")) if exps.strip() else ()
        terms.append((Fraction(coeff), exponents))
    return terms


def rising(a: int, m: int) -> int:
    return prod(a + t for t in range(m))


def eval_rising_factorial(terms, v) -> Fraction:
    """Value at v of rising-factorial terms; position i drives v_{n+1-i}."""
    rev = tuple(reversed(v))
    return sum(
        (c * prod(rising(base, m) for base, m in zip(rev, e)) for c, e in terms),
        Fraction(0),
    )


def eval_monomial(terms, v) -> Fraction:
    """Value at v of monomial terms; exponents in natural v_1..v_n order."""
    return sum((c * prod(b**e for b, e in zip(v, ex)) for c, ex in terms), Fraction(0))


def symbolic_ok(text: str, n: int, basis: str, rng: random.Random, points: int = 3) -> bool:
    """Printed polynomial in ``basis`` counts paths at random difference vectors."""
    terms = parse_terms(text) if text else []
    if any(len(e) != n for _, e in terms):
        return False
    if basis == "rising-factorial" and len(terms) != catalan(n + 1):
        return False
    evaluate = eval_rising_factorial if basis == "rising-factorial" else eval_monomial
    for _ in range(points):
        v = tuple(rng.randint(0, 6) for _ in range(n))
        if evaluate(terms, v) != lp_dp(partial_sums(v)):
            return False
    return True


def in_all_ones(x) -> bool:
    """x >= 0 lies in the all-ones polytope: x_1 + ... + x_k <= k for every k."""
    return min(x, default=0) >= 0 and all(s <= k + 1 for k, s in enumerate(accumulate(x)))


def all_ones_points(n: int) -> list[tuple[int, ...]]:
    return [x for x in product(range(n + 1), repeat=n) if in_all_ones(x)]


def self_check() -> list[str]:
    """Prove every reference above against brute force; returns the failures."""
    bad = []
    for n in range(5):
        for p in combinations_with_replacement(range(5), n):
            want = brute_count(p)
            if lp_dp(p) != want or lp_first_violation(p) != want:
                bad.append(f"count references disagree with brute force at {p}")
            if not enumeration_ok(p, brute_paths(p), want):
                bad.append(f"enumeration check rejects the brute-force list of {p}")
        if n and staircase_count(n) != brute_count(tuple(range(1, n + 1))):
            bad.append(f"staircase formula is wrong at n = {n}")
        for m in range(5):
            if rectangle_count(n, m) != brute_count((m,) * n):
                bad.append(f"rectangle formula is wrong at ({n}, {m})")
            total = sum(brute_count(p) for p in combinations_with_replacement(range(m + 1), n))
            if macmahon_closed(n, m) != total:
                bad.append(f"MacMahon closed form is wrong at ({n}, {m})")
    paths = brute_paths((1, 2, 3))
    for broken in (paths[:-1], paths[1:] + paths[:1], paths[:3] + [(2, 1, 3)] + paths[4:]):
        if enumeration_ok((1, 2, 3), broken, len(paths)):
            bad.append("enumeration check accepts a broken list")
    rng = random.Random(0)
    for n in range(5):
        rf_text = "\n".join(
            f"1/{prod(factorial(e) for e in x)}  {','.join(map(str, x))}"
            for x in all_ones_points(n)
        )
        if not symbolic_ok(rf_text, n, "rising-factorial", rng, points=5):
            bad.append(f"rising-factorial evaluator is wrong at n = {n}")
        if n == 2:
            mirrored = "\n".join(
                f"{c}  {','.join(map(str, reversed(e)))}" for c, e in parse_terms(rf_text)
            )
            if symbolic_ok(mirrored, n, "rising-factorial", rng, points=8):
                bad.append("rising-factorial evaluator ignores the variable order")
    # LP(v1, v2) = v1^2/2 + v1 v2 + 3 v1/2 + v2 + 1, expanded by hand
    mono = "1/1  0,0\n1/1  0,1\n3/2  1,0\n1/1  1,1\n1/2  2,0"
    if not symbolic_ok(mono, 2, "monomial", rng, points=8):
        bad.append("monomial evaluator is wrong")
    return bad
