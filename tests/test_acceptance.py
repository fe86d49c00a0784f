"""Acceptance criteria, one test per criterion.

Each test prints a single ``[C##] PASS`` line on success (run with ``-s`` or
``-rA`` to see them); tolerances and ranges are fixed here, not configurable.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

from pathcount.counting import (
    ENGINES,
    count,
    count_determinant,
    count_dp,
    count_recurrence,
    count_theorem,
    count_triangular,
    enumerate_polytope,
)
from pathcount.exactmath import binom, catalan
from pathcount.identities import CHECKS, cross_engine_paths
from pathcount.paths import in_polytope
from pathcount.symbolic import evaluate, symbolic_lp
from test_counting import monomial_oracle

F = Fraction


def test_c01_cross_engine_equality_exhaustive():
    paths = list(cross_engine_paths(0))
    assert set(paths) >= {p for n in range(6) for p in combinations_with_replacement(range(6), n)}
    start = time.perf_counter()
    bad, summary = CHECKS["cross-engine"](0)
    elapsed = time.perf_counter() - start
    assert bad == []
    # every engine answers every path of the suite
    assert summary == f"{len(paths)} paths agree across all engines"
    assert elapsed < 30.0, f"cross-engine sweep took {elapsed:.1f}s"
    print(f"[C01] PASS cross-engine equality on {len(paths)} paths (n <= 5, p_i <= 5, 60 random) in {elapsed:.1f}s")


def test_c02_ballot_special_cases():
    for n in range(13):
        p = tuple(range(1, n + 1))
        for engine in ENGINES:
            assert count(p, engine) == catalan(n + 1), (n, engine)
    for n in range(13):
        assert count_dp(tuple(range(n))) == catalan(n)
    print("[C02] PASS ballot cases: count(1..n) = C_{n+1} and staircase = C_n for n <= 12")


def test_c03_rectangle_special_case():
    for n in range(11):
        for m in range(11):
            p = (m,) * n
            expected = binom(m + n, n)
            for engine in ENGINES:
                assert count(p, engine) == expected, (n, m, engine)
    print("[C03] PASS rectangle case: count((m,)*n) = binom(m+n, n) for n, m <= 10")


def test_c04_all_ones_polytope_term_structure():
    for n in range(13):
        ones = (1,) * n
        points = list(enumerate_polytope(ones))
        assert len(points) == catalan(n + 1), n
        assert len(set(points)) == len(points), n
        if n <= 8:
            assert all(in_polytope(x, ones) for x in points)
    print("[C04] PASS all-ones polytope has exactly C_{n+1} distinct points for n <= 12")


def test_c05_macmahon_aggregate():
    # convention (fixed by matching n = m = 1 and 2): the aggregate runs over
    # all nondecreasing height tuples bounded by m, each counted with free
    # terminal height, which for paths to (n, m) is also the fixed-endpoint count
    assert CHECKS["macmahon"](0)[0] == []
    print("[C05] PASS MacMahon aggregate matches brute-force sum for n, m <= 5")


def test_c06_symbolic_golden_term_sets():
    golden1 = {((0,), F(1)), ((1,), F(1))}
    golden2 = {
        ((0, 0), F(1)),
        ((0, 1), F(1)),
        ((0, 2), F(1, 2)),
        ((1, 0), F(1)),
        ((1, 1), F(1)),
    }
    golden3 = {
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
    for n, golden in ((1, golden1), (2, golden2), (3, golden3)):
        got = {(t.exponents, t.coeff) for t in symbolic_lp(n).terms}
        assert got == golden, n
    print("[C06] PASS symbolic polynomials for n = 1, 2, 3 match the displayed term sets")


def test_c07_symbolic_numeric_agreement():
    for n in range(5):
        poly = symbolic_lp(n)
        for v in product(range(4), repeat=n):
            value = evaluate(poly, v)
            assert value.denominator == 1
            assert value == count_recurrence(v), v
    rng = random.Random(2025)
    for _ in range(100):
        n = rng.randint(0, 6)
        v = tuple(rng.randint(0, 20) for _ in range(n))
        value = evaluate(symbolic_lp(n), v)
        assert value.denominator == 1
        assert value == count_recurrence(v), v
    print("[C07] PASS symbolic evaluation matches the recurrence (exhaustive + 100 random)")


def test_c08_symbolic_determinant_identity():
    # 100 random difference vectors for each n <= 6, at a seed the golden test does not use
    assert CHECKS["det-identity"](1000)[0] == []
    print("[C08] PASS determinant identity verified at 100 random points for each n <= 6")


def test_c09_lemma_suite():
    # the lemma row checks both sides and the telescoped form against the closed form
    assert CHECKS["lemma"](0)[0] == []
    assert CHECKS["vandermonde"](0)[0] == []
    print("[C09] PASS lemma, generalized Vandermonde and telescoping identities (bounds 20)")


def test_c10_children_parent_partition():
    # the children row checks that parent inverts children on the box of entries <= 6, length <= 6 and
    # on every all-ones polytope point up to n = 7, that the children tile each polytope up to n = 8,
    # and that every point of dimension 1 has the empty parent
    assert CHECKS["children"](0)[0] == []
    print("[C10] PASS children partition the all-ones polytopes up to n = 8, parent inverts")


def test_c11_monomial_oracle():
    checked = 0
    for n in range(5):
        for p in combinations_with_replacement(range(5), n):
            size = 1
            for h in p:
                size *= h + 1
            if size <= 10**4:
                assert monomial_oracle(p) == count_dp(p), p
                checked += 1
    print(f"[C11] PASS monomial count equals the path count on {checked} paths (n <= 4, p_i <= 4)")


def test_c12_performance_soft_bounds():
    rng = random.Random(12)
    p100 = tuple(sorted(rng.randint(0, 100) for _ in range(100)))

    start = time.perf_counter()
    d = count_determinant(p100)
    t_det = time.perf_counter() - start
    assert t_det < 10.0, f"determinant n=100 took {t_det:.2f}s"

    start = time.perf_counter()
    t = count_triangular(p100)
    t_tri = time.perf_counter() - start
    assert t_tri < 10.0, f"triangular n=100 took {t_tri:.2f}s"
    assert d == t

    # strictly increasing heights leave no zero differences: the theorem's sum
    # over C_13 = 742900 lattice points takes a running-sum step at every position
    p12 = tuple(range(1, 13))
    start = time.perf_counter()
    count_theorem(p12)
    t_thm = time.perf_counter() - start
    assert t_thm < 5.0, f"theorem n=12 took {t_thm:.2f}s"

    print(
        f"[C12] PASS timings: determinant n=100 {t_det:.2f}s, "
        f"triangular n=100 {t_tri:.2f}s, theorem n=12 {t_thm:.2f}s"
    )
