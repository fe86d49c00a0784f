"""The five counting engines, the polytope enumerator, and the aggregates."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, groupby, product
from math import comb, gcd, prod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pathcount
from pathcount import counting
from pathcount.counting import (
    ENGINES,
    CapacityError,
    count,
    count_determinant,
    count_dp,
    count_recurrence,
    count_theorem,
    count_triangular,
    enumerate_polytope,
    enumerate_restricted,
    macmahon_bruteforce,
    macmahon_total,
)
from pathcount.exactmath import binom, catalan, det_int
from pathcount.paths import delta, in_polytope, is_restricted_by, sigma

from test_refusals import check_refusals


def brute_restricted_count(p):
    """Independent oracle: try every height tuple below p and keep the monotone ones."""
    if not p:
        return 1
    total = 0
    for q in product(*(range(h + 1) for h in p)):
        if all(q[i] <= q[i + 1] for i in range(len(q) - 1)):
            total += 1
    return total


def brute_polytope_points(v):
    """Independent oracle: scan the bounding box for prefix-sum-feasible tuples."""
    if not v:
        return [()]
    bound = sum(v)
    out = []
    for x in product(range(bound + 1), repeat=len(v)):
        sx, sv, ok = 0, 0, True
        for a, b in zip(x, v):
            sx += a
            sv += b
            if sx > sv:
                ok = False
                break
        if ok:
            out.append(x)
    return out


def nondecreasing_tuples(n, top):
    return combinations_with_replacement(range(top + 1), n)


# sorted heights made of runs of equal values, zero included
runs_st = st.lists(st.tuples(st.integers(0, 12), st.integers(1, 5)), max_size=8).map(
    lambda runs: tuple(sorted(h for h, k in runs for _ in range(k)))
)


# --- enumerate_polytope ---------------------------------------------------


def test_enumerate_polytope_trivial():
    assert list(enumerate_polytope(())) == [()]
    assert list(enumerate_polytope((1,))) == [(0,), (1,)]
    assert list(enumerate_polytope((0, 0))) == [(0, 0)]


def test_enumerate_polytope_matches_brute_force():
    for v in [(1, 1, 1), (2, 0, 1), (0, 3), (2, 2), (1, 0, 0, 2)]:
        assert list(enumerate_polytope(v)) == sorted(brute_polytope_points(v))


def test_enumerate_polytope_is_lexicographic_and_valid():
    for v in [(1, 1, 1, 1), (3, 0, 2)]:
        points = list(enumerate_polytope(v))
        assert points == sorted(points)
        assert len(set(points)) == len(points)
        assert all(in_polytope(x, v) for x in points)


def test_enumerate_polytope_all_ones_counts():
    for n in range(9):
        assert sum(1 for _ in enumerate_polytope((1,) * n)) == catalan(n + 1)


def test_enumerate_polytope_is_lazy():
    stream = enumerate_polytope((10,) * 10)
    first = next(iter(stream))
    assert first == (0,) * 10


def test_enumerate_polytope_long_single_point():
    # one coordinate per step, no recursion: 5000 zeros give the one point
    assert list(enumerate_polytope((0,) * 5000)) == [(0,) * 5000]
    assert len(list(enumerate_polytope((0,) * 3000 + (2,)))) == 3


# --- individual engines ---------------------------------------------------


def test_recurrence_base_cases():
    # lp(()) = 1, lp((s,)) = s + 1, and lp((1, 1, 1)) counts the paths below the heights (1, 2, 3)
    assert count_recurrence(()) == 1
    assert count_recurrence((4,)) == 5
    assert count_recurrence(sigma((1, 1, 1))) == 14
    assert count_recurrence((1, 2, 3)) == brute_restricted_count((1, 2, 3))


def test_recurrence_fills_memo():
    # each column entry f_k(s) is the suffix problem (s,) + v[k:], and the
    # head recurrence sums the next column over t = v_{k+1}..s + v_{k+1}
    for v in [(2, 1), (1, 1, 1), (3, 0, 2), (0, 4, 1, 2)]:
        for k in range(len(v) - 1):
            for s in range(v[k], sum(v[: k + 1]) + 1):
                tail = v[k + 1 :]
                head = count_recurrence(sigma((s,) + tail))
                nxt = sum(
                    count_recurrence(sigma((t,) + tail[1:]))
                    for t in range(tail[0], s + tail[0] + 1)
                )
                assert head == nxt, (v, k, s)
    assert count_recurrence(sigma((2, 1))) == brute_restricted_count((2, 3))


def test_memo_entries_match_oracle():
    # the suffix problems (s,) + v[k:] are the columns the recurrence builds
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(0, 7)
        v = tuple(rng.randint(0, 6) for _ in range(n))
        assert count_recurrence(sigma(v)) == count_dp(sigma(v)), v
        for k in range(1, n):
            for s in range(sum(v[:k]) + 1):
                u = (s,) + v[k:]
                assert count_recurrence(sigma(u)) == count_dp(sigma(u)), u


def test_recurrence_long_low_paths():
    for n in (800, 2000):
        p = tuple(8 * i // n for i in range(n))
        assert count(p, "recurrence") == count_dp(p)


def test_determinant_examples():
    assert count_determinant(()) == 1
    assert count_determinant((1, 2)) == 5
    assert count_determinant((1, 2, 3, 4, 5, 6, 7)) == catalan(8)
    assert count_determinant((1, 2)) == brute_restricted_count((1, 2))


def test_determinant_matrix_shape():
    # the 2x2 case spelled out: [[C(2,1), C(2,2)], [C(3,0), C(3,1)]]
    assert binom(1 + 1, 1) == 2 and binom(1 + 1, 2) == 1
    assert binom(2 + 1, 0) == 1 and binom(2 + 1, 1) == 3


def test_triangular_examples():
    assert count_triangular(()) == 1
    for m in range(11):
        assert count_triangular((m,)) == m + 1
    assert count_triangular((2, 2, 2)) == 10
    assert count_triangular((2, 2, 2)) == brute_restricted_count((2, 2, 2))


@given(runs_st)
def test_triangular_matches_dp_oracle(p):
    assert count_triangular(p) == count_dp(p)


def test_triangular_single_row():
    for m in (0, 1, 2, 17, 10**3, 10**6, 10**9 - 1, 10**9):
        assert count_triangular((m,)) == m + 1


def test_triangular_long_low_paths():
    rng = random.Random(2000)
    for n in (2000, 5000):
        p = tuple(sorted(rng.randint(0, 3) for _ in range(n)))
        assert count_triangular(p) == count_dp(p)
    assert count_triangular((0,) * 5000) == 1


def test_triangular_mirrored_rows_match_dp():
    # row r of (h,) * n + (h + 1,) runs to last = min(h, n - r), so these take m = h + 1 odd and
    # even through every last from 0 to h: m - 1 and m - 2 (the mirrors of t_r(-1) and t_r(0)),
    # ceil(m / 2), the values between, where lo = m - 2 - last > 1, and 15 and 16 around the guard;
    # the rectangle (h,) * n itself is one run, which takes no steps
    for h in range(14, 41):
        for n in range(1, 46):
            for p in ((h,) * n, (h,) * n + (h + 1,)):
                assert count(p, "triangular") == count(p, "dp"), p
    rng = random.Random(35)
    for _ in range(60):
        top = rng.randint(16, 300)
        p = tuple(sorted(rng.randint(0, top) for _ in range(rng.randint(17, 200))))
        assert count(p, "triangular") == count(p, "dp"), p


def test_triangular_short_tall_paths():
    rng = random.Random(40)
    for top in (10**6, 10**18, 10**30):
        p = tuple(sorted(rng.randint(0, top) for _ in range(40)))
        assert count_triangular(p) == count_determinant(p)
    p = (10**30,) * 40
    assert count_triangular(p) == binom(10**30 + 40, 40)


def monomial_oracle(p, cap=10**6):
    """Count distinct monomials of prod_i (a_1 + ... + a_{p_i + 1}) by expansion.

    Exhausts all prod(p_i + 1) index choices and collects them as multisets;
    capped, and kept only as an independent small-scale check on the path
    counters.
    """
    total = prod(x + 1 for x in p)
    if total > cap:
        raise CapacityError(f"monomial oracle capacity exceeded: {total} choices is over the cap {cap}")
    seen = set()
    for choice in product(*(range(1, x + 2) for x in p)):
        seen.add(tuple(sorted(choice)))
    return len(seen)


def theorem_walk(p):
    """Reference oracle for n <= 8: the theorem's sum, walked point by point.

    Recurses once per coordinate of the all-ones polytope, carrying the slack
    i - (x_1 + ... + x_i) and the partial product of the binomials so far.
    """
    w = tuple(reversed(delta(p)))

    def walk(i, slack, partial):
        if i == len(w):
            return partial
        if not w[i]:  # a zero entry forces x_i = 0: factor 1, one more slack
            return walk(i + 1, slack + 1, partial)
        return sum(walk(i + 1, slack + 1 - x, partial * binom(w[i] - 1 + x, x)) for x in range(slack + 2))

    return walk(0, 0, 1)


def theorem_table(p):
    """Reference slack table for ``count_theorem``, with no cap: one binomial convolution per step.

    ``weight[s]`` is the summed partial product of the prefixes that leave slack s; a
    nonzero reversed difference x folds it through binom(x - 1 + k, k) into a table one
    longer, so unlike the engine it makes its products without ``_running_sums``.
    """
    w = tuple(reversed(delta(p)))
    weight = [1]  # weight[s]: summed partial products of the prefixes leaving slack s
    for x in w:
        if not x:  # x_i = 0 is forced: factor 1, one more unit of slack
            weight.insert(0, 0)
            continue
        c = [comb(x - 1 + k, k) for k in range(len(weight) + 1)]
        nxt = [0] * (len(weight) + 1)
        for s, ws in enumerate(weight):
            for k in range(s + 2):
                nxt[s + 1 - k] += ws * c[k]
        weight = nxt
    return sum(weight)


def recurrence_columns(v):
    """Reference sweep for ``count_recurrence``: one running-sum pass per difference, zero or not."""
    if not v:
        return 1
    column = range(v[-1] + 1, sum(v) + 2)
    for x in reversed(v[:-1]):
        column = list(accumulate(column))[x:]
    return column[0]


def dp_columns(p):
    """Reference sweep for ``count_dp``: one running-sum pass per column, runs or not.

    Each column is the running sums of the last, cut to its first p_i + 1
    entries or padded with the running total, so it takes any tuple of bounds;
    an emptied column (a negative bound) stays empty.
    """
    ending = [1]
    for bound in p:
        ending = list(accumulate(ending))
        gap = bound + 1 - len(ending)
        if gap > 0:
            ending += ending[-1:] * gap
        elif gap < 0:
            del ending[gap:]
    return sum(ending)


# sorted heights of at most 30 steps: runs of zeros and of heights up to 10^20
tall_runs_st = st.lists(
    st.tuples(st.just(0) | st.integers(0, 10**20), st.integers(1, 8)), max_size=10
).map(lambda runs: tuple(sorted([h for h, k in runs for _ in range(k)][:30])))


def test_theorem_examples():
    assert count_theorem(()) == 1
    for n in range(1, 8):
        for m in range(5):
            assert count_theorem((m,) * n) == binom(m + n, n)
        assert count_theorem(tuple(range(1, n + 1))) == catalan(n + 1)
    p = (0, 0, 1, 3, 3, 4, 6)
    assert count_theorem(p) == count_determinant(p) == count_dp(p)


def test_theorem_cap():
    with mock.patch.object(counting, "THEOREM_CAP", 3):
        with pytest.raises(CapacityError, match="n = 4 is over the cap 3"):
            count_theorem((1, 2, 3, 4))
    with mock.patch.object(counting, "THEOREM_CAP", 4):
        assert count_theorem((1, 2, 3, 4)) == catalan(5)


def test_theorem_long_zero_runs():
    # zero differences force x_i = 0 and make no products: only the two nonzero ones fill the table
    with mock.patch.object(counting, "THEOREM_CAP", 5000):
        assert count_theorem((0,) * 1200) == 1
        p = (0,) * 600 + (5,) * 3 + (6,) * 600
        assert count_theorem(p) == count_dp(p) == 69126091837236


def test_theorem_matches_triangular_on_huge_heights():
    # at the fixed cap the sweep's running sums stay fast however many digits the heights have
    rng = random.Random(14)
    p = tuple(sorted(rng.randint(0, 10**1000) for _ in range(counting.THEOREM_CAP)))
    assert count_theorem(p) == count_triangular(p)


def test_theorem_table_matches_walk_exhaustively():
    for n in range(7):
        for p in nondecreasing_tuples(n, 6):
            assert count_theorem(p) == theorem_walk(p), p


def test_theorem_table_matches_walk_on_random_paths():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(0, 8)
        top = rng.choice((3, 20, 10**6))
        p = tuple(sorted(rng.randint(0, top) for _ in range(n)))
        assert count_theorem(p) == theorem_walk(p), p


def test_theorem_matches_table_on_long_zero_runs_and_tall_heights(weighted_sums, total_products):
    # up to 40 steps: runs of zeros between runs of heights up to 10^20, so the sweep takes
    # both branches of _running_sums and of _running_total, and the table, which calls
    # neither, checks them
    rng = random.Random(16)
    with mock.patch.object(counting, "THEOREM_CAP", 40):
        for _ in range(40):
            heights = [rng.choice((0, rng.randint(1, 9), rng.randint(0, 10**20))) for _ in range(8)]
            p = tuple(sorted([h for h in heights for _ in range(rng.randint(1, 12))][:40]))
            assert count_theorem(p) == theorem_table(p), p
    assert weighted_sums and total_products


@given(tall_runs_st)
def test_theorem_matches_triangular(p):
    with mock.patch.object(counting, "THEOREM_CAP", 30):
        assert count_theorem(p) == count_triangular(p)


def test_determinant_matrix_skips_zero_entries():
    # rows are built from the subdiagonal on; the full binomial matrix has the same determinant
    rng = random.Random(41)
    for _ in range(30):
        p = tuple(sorted(rng.randint(0, 12) for _ in range(rng.randint(0, 10))))
        full = [[binom(p[i] + 1, j - i + 1) for j in range(len(p))] for i in range(len(p))]
        assert count_determinant(p) == det_int(full) == count_dp(p)


def test_dp_oracle_examples():
    assert count_dp(()) == 1
    assert count_dp((1, 2)) == 5
    for n in range(13):
        assert count_dp(tuple(range(n))) == catalan(n)


def test_dp_oracle_against_brute_force():
    for n in range(5):
        for p in nondecreasing_tuples(n, 4):
            assert count_dp(p) == brute_restricted_count(p)


def test_dp_oracle_at_benchmark_sizes():
    # columns that grow by hundreds or thousands of heights at a step, or repeat their height
    rng = random.Random(11)
    paths = (
        tuple(sorted(rng.randint(0, 20) for _ in range(4000))),  # long-low
        tuple(sorted(rng.randint(0, 10**4) for _ in range(20))),  # short-tall
        (200,) * 200,  # rectangle
        tuple(range(1, 301)),  # staircase
    )
    for p in paths:
        assert count_dp(p) == count_recurrence(p), p[:3]
    assert count_dp((200,) * 200) == binom(400, 200)
    assert count_dp(tuple(range(1, 301))) == catalan(301)


def test_running_sums_equal_k_accumulate_passes():
    rng = random.Random(15)
    for c in range(9):
        for k in range(41):
            column = [rng.randint(0, 10**40) for _ in range(c)]
            want = column
            for _ in range(k):
                want = list(accumulate(want))
            given_column = list(column)
            assert counting._running_sums(column, k) == want, (c, k)
            assert column == given_column, (c, k)


@pytest.fixture
def products(monkeypatch):
    """Count the weighted branches' products, filed under the helper that makes them.

    ``_running_sums`` and ``_running_total`` are the only users of ``counting.mul``; ``map``
    calls it from C, so the nearest helper frame below the product's is the one that made it.
    """
    made = {"_running_sums": [], "_running_total": []}

    def counted(a, b):
        frame = sys._getframe(1)
        while frame.f_code.co_name not in made:  # past a comprehension's own frame
            frame = frame.f_back
        made[frame.f_code.co_name].append(1)
        return a * b

    monkeypatch.setattr(counting, "mul", counted)
    return made


@pytest.fixture
def weighted_sums(products):
    """The products of _running_sums' weighted branch: runs paid before the bound changes."""
    return products["_running_sums"]


@pytest.fixture
def total_products(products):
    """The products of _running_total's weighted sum: the last run, read only as a total."""
    return products["_running_total"]


def test_dp_oracle_matches_dp_columns_on_every_small_bound_tuple():
    for n in range(8):
        for p in nondecreasing_tuples(n, 5):
            assert count_dp(p) == dp_columns(p), p


@given(st.integers(0, 60), st.data())
def test_running_sums_equal_k_accumulate_passes_on_random_runs(c, data):
    # k up to 3000 takes both branches; k up to 4c reaches the rule's boundary, which lies
    # between 2c and about 3.5c for every c <= 60
    column = data.draw(st.lists(st.integers(0, 10**30), min_size=c, max_size=c))
    k = data.draw(st.integers(0, 4 * c) | st.integers(0, 3000))
    want = column
    for _ in range(k):
        want = list(accumulate(want))
    given_column = list(column)
    assert counting._running_sums(column, k) == want
    assert column == given_column


def test_running_sums_take_the_passes_below_k_2c(monkeypatch):
    # there the weighted sum's 2c interpreted steps cost more than the k passes whatever the
    # digits, so the rule must not even compute its largest weight
    def refuse(*args):
        raise AssertionError(f"comb{args} reached below k = 2c")

    monkeypatch.setattr(counting, "comb", refuse)
    rng = random.Random(19)
    for c in range(1, 17):
        for k in range(2 * c):
            column = [rng.randint(0, 10**30) for _ in range(c)]
            want = column
            for _ in range(k):
                want = list(accumulate(want))
            assert counting._running_sums(column, k) == want, (c, k)


def test_tiny_counts_pay_their_runs_by_passes(weighted_sums, total_products):
    # theorem steps a table of i + 2 entries by x <= 3 sums, so always by passes; for a run of
    # k + 1 equal bounds h, dp owes k sums over h + 1 entries and weighs them only from k = 2(h + 1).
    # A last run is read only as a total, so p + (4,) makes every run of p an interior one; the
    # total of c entries, when weighed, takes one product per entry
    for n in range(8):
        for p in nondecreasing_tuples(n, 3):
            weighted_sums.clear()
            total_products.clear()
            count_theorem(p)
            assert not weighted_sums, p
            assert len(total_products) in (0, n + 1), p
            long_run = any(len(list(run)) - 1 >= 2 * (h + 1) for h, run in groupby(p))
            weighted_sums.clear()
            count_dp(p + (4,))
            assert bool(weighted_sums) == long_run, p
            total_products.clear()
            count_dp(p)
            assert len(total_products) in (0, p[-1] + 1 if p else 0), p


def test_recurrence_matches_recurrence_columns_exhaustively():
    for n in range(7):
        for p in nondecreasing_tuples(n, 6):
            assert count_recurrence(p) == recurrence_columns(delta(p)), p


def test_recurrence_weighted_sum_on_long_low_paths(weighted_sums):
    rng = random.Random(17)
    for n, top in ((3000, 6), (1200, 40)):
        p = tuple(sorted(rng.randint(0, top) for _ in range(n)))
        weighted_sums.clear()
        assert count_recurrence(p) == recurrence_columns(delta(p)), (n, top)
        assert weighted_sums, (n, top)


def code_names(code):
    """Every global and attribute name ``code`` and the code nested in it refer to."""
    yield from code.co_names
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            yield from code_names(const)


def test_reference_oracles_do_not_call_running_sums():
    # dp, recurrence and theorem share _running_sums, so agreement between them cannot show a
    # fault in it; each is checked against one of these, which must not reach it.  The band engines
    # step their own weights and binomials too, so dp's agreement with triangular on a path that
    # ends in a run checks _running_total's weighted sum
    sweeps = {"_running_sums", "_running_total", "_weights"}
    for oracle in (theorem_walk, theorem_table, dp_columns, recurrence_columns):
        assert not sweeps & set(code_names(oracle.__code__)), oracle.__name__
    for engine in (count_triangular, count_determinant):
        assert not (sweeps | {"mul", "comb", "binom"}) & set(code_names(engine.__code__)), engine.__name__


def test_determinant_steps_its_binomials():
    # a full binomial per entry cost the engine over half its time; each row steps them instead
    assert not {"comb", "binom"} & set(code_names(count_determinant.__code__))


def test_dp_oracle_weighted_sum_on_long_runs_over_short_columns(weighted_sums):
    rng = random.Random(16)
    paths = [
        tuple(sorted(rng.randint(0, 6) for _ in range(400))),
        (0,) * 10 + (2,) * 80 + (4,) * 60 + (5,) * 50 + (9,) * 30,
        (4,) * 10**5 + (5,) * 300 + (8,) * 41,  # the run of 5s is weighed over entries near 2^62
        (3,) * 1000 + (8,) * 500 + (9,) * 2,
    ]
    for p in paths:
        weighted_sums.clear()
        assert count_dp(p) == dp_columns(p), p[:3]
        assert weighted_sums, p[:3]


def test_dp_oracle_passes_on_wide_columns_of_big_integers(weighted_sums, total_products):
    # the first two owe k < 2c sums; the last owes k >= 2c, but the weights' digits make the
    # passes cheaper.  Each path's last run is read only as a total, one product per entry; a
    # last bound one higher after it makes that run an interior one, paid before the bound changes
    paths = [
        tuple(range(1, 301)) + (300,) * 199,
        tuple(range(1, 121)) + (150,) * 100 + (190,) * 60,
        (120,) * 400,
    ]
    for p in paths:
        for q in (p, p + (p[-1] + 1,)):
            total_products.clear()
            assert count_dp(q) == dp_columns(q), q[:3]
            assert len(total_products) <= q[-1] + 1, q[:3]
    assert not weighted_sums


@given(st.integers(0, 60), st.data())
def test_running_total_equals_the_sum_after_k_accumulate_passes(c, data):
    # k up to 4c reaches the rule's boundary and k up to 3000 takes the weighted sum; c = 0
    # must total 0 without reaching the weights
    column = data.draw(st.lists(st.integers(0, 10**30), min_size=c, max_size=c))
    k = data.draw(st.integers(0, 4 * c) | st.integers(0, 3000))
    want = column
    for _ in range(k):
        want = list(accumulate(want))
    given_column = list(column)
    assert counting._running_total(column, k) == sum(want)
    assert column == given_column


def test_running_total_of_an_empty_column_reaches_no_weight(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"comb{args} reached for an empty column")

    monkeypatch.setattr(counting, "comb", refuse)
    for k in (0, 1, 2, 50, 3000):
        assert counting._running_total([], k) == 0


def test_running_total_hands_its_passes_to_running_sums_unweighed(weighted_sums, monkeypatch):
    # where the total keeps the passes, the _running_sums call it hands them to must take the
    # passes too and make no product.  A total that weighs is stopped at its weights, so only the
    # declined calls run: k = 0 for every c, and small k on top
    class Weighed(Exception):
        pass

    weights = counting._weights

    def stop_the_total(k, c):
        if sys._getframe(1).f_code.co_name == "_running_total":
            raise Weighed
        return weights(k, c)

    monkeypatch.setattr(counting, "_weights", stop_the_total)
    declined = 0
    for c in range(1, 121):
        for k in (*range(3001), 10**4, 10**10, 10**100):
            try:
                total = counting._running_total([1] * c, k)
            except Weighed:
                continue
            declined += 1
            assert total == comb(k + c, c - 1), (c, k)  # c ones after k passes are binom(k + i, i)
            assert not weighted_sums, (c, k)
    assert declined > 120


def test_theorem_with_p1_zero_never_reaches_running_total(monkeypatch):
    # a last step of x = p_1 = 0 leaves the table as it is, so its total is its sum, as dp
    # reads a last column that owes no run
    def refuse(column, k):
        raise AssertionError(f"_running_total reached with k = {k}")

    monkeypatch.setattr(counting, "_running_total", refuse)
    for n in range(1, 8):
        for p in nondecreasing_tuples(n, 3):
            if not p[0]:
                assert count_theorem(p) == theorem_walk(p), p


def test_dp_oracle_matches_dp_columns_on_paths_that_end_in_long_runs():
    # (2, 10**5) + ...: a run of 8 over 10^5 + 1 entries, which the total pays by passes
    for p in ((5,) * 40, (3, 9) + (9,) * 300, (2, 10**5) + (10**5,) * 8, (1, 2) + (2,) * 90, (0,) * 500):
        assert count_dp(p) == dp_columns(p), p[:3]


def test_dp_oracle_pays_a_rectangle_in_one_weighted_total(total_products, monkeypatch):
    # (n,) * n is the first column of n + 1 ones and a run of n - 1 equal bounds, read only as
    # its total binom(2n, n): c = n + 1 products and no running-sum pass
    passes = []
    monkeypatch.setattr(counting, "accumulate", lambda *args: passes.append(1) or accumulate(*args))
    assert count_dp((2000,) * 2000) == binom(4000, 2000)
    assert 0 < len(total_products) <= 2001
    assert not passes
    # a short run over a wide column stays on its two passes, which cost less than the weights
    total_products.clear()
    assert count_dp((10**5,) * 3) == binom(10**5 + 3, 3)
    assert len(passes) == 2 and not total_products


def test_dp_oracle_closed_forms_on_long_rectangles():
    assert count_dp((20,) * 100000) == binom(100020, 20)
    assert count_dp((7,) * 300) == binom(307, 7)


# --- engine dispatch and cross-checks --------------------------------------


def test_count_dispatch():
    assert count((1, 2, 3), "recurrence") == 14
    assert count((2, 2, 2), "determinant") == 10
    for engine in ENGINES:
        assert count((), engine) == 1
        # what operator.index accepts is counted as the int it stands for
        assert count((True, 2), engine) == count((1, 2), engine) == 5


def test_refusals_show_a_cut_of_a_huge_value():
    check_refusals(lambda call, message: "..." in message)


def test_non_integer_heights_refused_by_every_engine():
    check_refusals(lambda call, message: call.startswith("count(") and message.endswith("is not an integer"))


def test_engine_kernels_are_not_exported():
    # the engines check no path; they are reached only through count, which does
    public = [getattr(pathcount, name) for name in pathcount.__all__]
    for engine, kernel in counting._KERNELS.items():
        assert all(obj is not kernel for obj in public), engine
    engine_bodies = {"count_recurrence", "count_determinant", "count_triangular", "count_theorem", "count_dp"}
    assert not engine_bodies & (set(pathcount.__all__) | set(vars(pathcount)))
    # count hands every kernel the same validated height tuple: no engine is reached through a wrapper
    assert counting._KERNELS == {engine: getattr(counting, f"count_{engine}") for engine in ENGINES}


def test_column_guard(monkeypatch):
    # dp builds a column of p_n + 1 heights, recurrence one of p_(n-1) + 1
    monkeypatch.setattr(counting, "MAX_COLUMN", 5)
    assert count((1, 4), "dp") == dp_columns((1, 4))
    assert count((4, 9), "recurrence") == dp_columns((4, 9))
    for p, engine in (((1, 5), "dp"), ((5, 9), "recurrence")):
        with pytest.raises(CapacityError) as refused:
            count(p, engine)
        assert str(refused.value) == f"{engine} engine capacity exceeded: a column of 6 integers is over the cap 5"
    # count_recurrence guards its own column: called directly it refuses (5, 9) alike
    with pytest.raises(CapacityError) as direct:
        count_recurrence((5, 9))
    with pytest.raises(CapacityError) as through_count:
        count((5, 9), "recurrence")
    assert str(direct.value) == str(through_count.value)
    assert count((10**9,), "recurrence") == 10**9 + 1  # one column, never built
    # count_dp guards its own column too: called directly it refuses (1, 5) alike
    with pytest.raises(CapacityError) as direct:
        count_dp((1, 5))
    with pytest.raises(CapacityError) as through_count:
        count((1, 5), "dp")
    assert str(direct.value) == str(through_count.value)


def test_cross_engine_exhaustive_small():
    # all 1 716 paths with n <= 6 and heights <= 6, where many determinant rows step their
    # binomial to zero before they end
    for n in range(7):
        for p in nondecreasing_tuples(n, 6):
            values = {engine: count(p, engine) for engine in ENGINES}
            assert len(set(values.values())) == 1, (p, values)


def test_triangular_and_theorem_kernels_match_dp_on_every_tiny_path():
    # the same 1 716 paths through the kernels themselves: most end in a run of one row, which
    # triangular returns as its last step, and theorem reads each difference from the heights,
    # a difference of 1 paid as one running sum in place
    for n in range(7):
        for p in nondecreasing_tuples(n, 6):
            want = count_dp(p)
            assert count_triangular(p) == want, p
            assert count_theorem(p) == want, p


def transpose(p):
    """The heights of p's transpose p*: v_n ones, then v_(n-1) twos, ..., then v_1 n's.

    Turning the grid by 180 degrees and reflecting it in the diagonal maps the paths below p
    onto the paths below p*, so LP(p) = LP(p*).  p* has p_n entries, each at most n: a short,
    tall path becomes a long, low one with n runs, and the reverse.
    """
    n, v = len(p), delta(p)
    return tuple(n - i for i in reversed(range(n)) for _ in range(v[i]))


def test_transpose_examples():
    assert transpose(()) == ()
    assert transpose((0, 3)) == (1, 1, 1)
    assert transpose((1, 2, 3)) == (1, 2, 3)
    assert transpose((2, 2, 5)) == (1, 1, 1, 3, 3)
    for n in range(6):
        for p in nondecreasing_tuples(n, 5):
            assert transpose(transpose(p)) == p[next((i for i, h in enumerate(p) if h), n):]


@given(runs_st)
def test_each_engine_counts_a_path_and_its_transpose_alike(p):
    pt = transpose(p)
    for engine in ENGINES:
        if engine != "theorem" or max(len(p), len(pt)) <= counting.THEOREM_CAP:
            assert count(p, engine) == count(pt, engine), engine


@pytest.mark.parametrize("n, top", [(160, 10**5), (220, 3 * 10**4)])
def test_dp_on_a_long_low_transpose_matches_triangular_on_the_short_tall_path(n, top):
    # at 160 x 10^5 dp pays p*'s runs of equal heights, 26 of them over a thousand long, by
    # weighted sums; at 220 x 3 * 10^4 triangular's early rows step past 200 terms
    rng = random.Random(12)
    p = tuple(sorted(rng.randint(0, top) for _ in range(n)))
    pt = transpose(p)
    assert len(pt) == p[-1] and max(pt) == n
    assert count(pt, "dp") == count(p, "triangular")


def ballot(a, m, n):
    """LP of the line (a, a + m, ..., a + m(n - 1)), by the generalized ballot formula.

    LP = (a + 1) / (a + 1 + (m + 1)n) * binom(a + 1 + (m + 1)n, n) counts the paths below a line
    of integer slope (Mohanty 1979, ch. 1).  It is exact at every size and shares no arithmetic
    with any engine; m = 0 is the rectangle and a = m = 1 the staircase.
    """
    top = a + 1 + (m + 1) * n
    lp, rest = divmod((a + 1) * comb(top, n), top)
    assert not rest, (a, m, n)
    return lp


def line(a, m, n):
    return tuple(a + m * i for i in range(n))


def test_ballot_matches_dp_oracle_on_small_lines():
    for a, m, n in product(range(9), range(8), range(9)):  # 648 lines
        assert ballot(a, m, n) == count_dp(line(a, m, n)), (a, m, n)


# bounded by size: a tall line of 40 costs triangular about 800 steps, a line of 30 below 600 costs dp
# about 9 000 additions
@settings(deadline=None)
@given(st.integers(0, 10**30), st.integers(0, 10**30), st.integers(0, 40))
def test_triangular_matches_the_ballot_formula_on_tall_lines(a, m, n):
    assert count_triangular(line(a, m, n)) == ballot(a, m, n)


@settings(deadline=None)
@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 30))
def test_dp_matches_the_ballot_formula_on_lines(a, m, n):
    assert count_dp(line(a, m, n)) == ballot(a, m, n)


@pytest.mark.parametrize("engines, a, m, n, transposed", [
    # tall lines: triangular's and determinant's rows run the whole length
    (("triangular", "determinant"), 0, 10**13, 160, False),
    (("triangular", "determinant"), 3, 10**20, 250, False),
    # every band and running-sum engine on one long line
    (("dp", "recurrence", "triangular", "determinant"), 2, 5, 600, False),
    # n = 800, and long-low transposes whose runs have length m: 1 771 x 60 and 3 800 x 20
    (("dp", "recurrence", "triangular"), 1, 3, 800, False),
    (("dp", "recurrence", "triangular"), 1, 30, 60, True),
    (("dp", "recurrence", "triangular"), 0, 200, 20, True),
    (("theorem",), 5, 10**30, 14, False),
], ids=["tall-160", "tall-250", "long-600", "long-800", "transpose-1771x60", "transpose-3800x20", "theorem-14"])
def test_engines_match_the_ballot_formula_at_size(engines, a, m, n, transposed):
    p = transpose(line(a, m, n)) if transposed else line(a, m, n)
    expected = ballot(a, m, n)
    for engine in engines:
        assert count(p, engine) == expected, engine


def bizley(m, n, k):
    """LP of the line of slope n / m, p_i = floor(n(i - 1) / m) for i = 1..km, by Bizley's formula.

    For coprime m, n >= 1 the paths from (0, 0) to (km, kn) weakly below y = (n / m)x number G_k,
    the coefficient of t^k in exp(sum_j F_j t^j) with F_j = binom(j(m + n), jm) / (j(m + n))
    (Bizley 1954, J. Inst. Actuaries 80), so that i G_i = sum_(j <= i) j F_j G_(i - j).  A rational
    slope gives runs of two lengths, which ``ballot`` misses; it shares no arithmetic with any engine.
    """
    f = [Fraction(comb(j * (m + n), j * m), j * (m + n)) for j in range(1, k + 1)]
    g = [Fraction(1)]
    for i in range(1, k + 1):
        g.append(sum(j * f[j - 1] * g[i - j] for j in range(1, i + 1)) / i)
    assert g[k].denominator == 1, (m, n, k)
    return g[k].numerator


def rational_line(m, n, k):
    return tuple(n * i // m for i in range(k * m))


def test_dp_matches_bizley_on_every_small_rational_line():
    triples = [(m, n, k) for m, n, k in product(range(1, 7), range(1, 7), range(6)) if gcd(m, n) == 1]
    assert len(triples) == 138
    for m, n, k in triples:
        assert count(rational_line(m, n, k), "dp") == bizley(m, n, k), (m, n, k)


@pytest.mark.parametrize("engines, m, n, k", [
    # tall lines of slope (10^20 + 1) / 3 and (10^13 + 3) / 7, N = 150 and 210: only the band engines count them
    (("triangular", "determinant"), 3, 10**20 + 1, 50),
    (("triangular", "determinant"), 7, 10**13 + 3, 30),
    # long lines of small slope, N = 600 and 700
    (("dp", "recurrence", "triangular"), 3, 5, 200),
    (("dp", "recurrence", "triangular"), 7, 4, 100),
], ids=["tall-150", "tall-210", "long-600", "long-700"])
def test_engines_match_bizley_on_rational_lines_at_size(engines, m, n, k):
    p = rational_line(m, n, k)
    expected = bizley(m, n, k)
    for engine in engines:
        assert count(p, engine) == expected, engine


# bounded by size: at most 48 heights of at most 48; theorem refuses a path over THEOREM_CAP
@settings(deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 6), st.sampled_from([e for e in ENGINES if e != "theorem"]))
def test_engines_match_bizley_on_small_rational_lines(m, n, k, engine):
    # with d = gcd(m, n), the line through (km, kn) is the one through (kd m', kd n'), m' and n' coprime
    d = gcd(m, n)
    assert count(rational_line(m, n, k), engine) == bizley(m // d, n // d, k * d)


def ehrhart_at(p, T):
    """LP(T * p) as a Fraction, by Lagrange's formula through LP(t * p) for t = 0..n, counted by ``dp``.

    The paths below t * p are the lattice points of the t-th dilate of {0 <= q_1 <= ... <= q_n,
    q_i <= p_i}, whose constraint matrix is totally unimodular, so its vertices are integral and
    LP(t * p) is its Ehrhart polynomial in t, of degree at most n: the n + 1 samples fix it.  At a
    huge T the samples stay small, so this shares no arithmetic with the band engines, which then
    step and weigh huge heights.
    """
    ts = range(len(p) + 1)
    total = Fraction(0)
    for i in ts:
        sample = count(tuple(i * h for h in p), "dp")
        total += Fraction(sample * prod(T - j for j in ts if j != i), prod(i - j for j in ts if j != i))
    return total


def test_ehrhart_at_is_an_integer_that_dp_reaches():
    # one and more steps past the samples, where dp still counts T * p directly
    rng = random.Random(25)
    for _ in range(30):
        p = tuple(sorted(rng.randint(0, 4) for _ in range(rng.randint(0, 8))))
        for T in (len(p) + 1, len(p) + 5, 40):
            value = ehrhart_at(p, T)
            assert value.denominator == 1, (p, T)
            assert value == count(tuple(T * h for h in p), "dp"), (p, T)


def test_band_engines_match_ehrhart_at_huge_dilations():
    # T * p for T from 10^13 to 10^30 on random shapes of up to 60 heights, every other one ending
    # in a run of at least 3, whose weights binom(T * p_n + d, d) triangular then steps at huge heights
    rng = random.Random(36)
    for i in range(12):
        p = tuple(sorted(rng.randint(0, 5) for _ in range(rng.randint(1, 60))))
        if i % 2:
            p = p[:-3] + (p[-1] + rng.randint(0, 2),) * 3
        T = rng.randint(10**13, 10**30)
        expected = ehrhart_at(p, T)
        assert expected.denominator == 1, (p, T)
        scaled = tuple(T * h for h in p)
        for engine in ("triangular", "determinant"):
            assert count(scaled, engine) == expected, (p, T, engine)


def test_band_engines_match_ehrhart_just_past_its_samples_on_mirrored_rows():
    # at T = n + 1 and n + 2 the first rows, of height T (m = T + 1 even, then odd), reach past
    # their middle by more than _MIRROR_STEPS steps and are mirrored; the run of height 2T is summed
    p = (1,) * 20 + (2,) * 20
    for T in (len(p) + 1, len(p) + 2):
        scaled = tuple(T * h for h in p)
        n = len(scaled)
        lasts = [(min(h, n - 1 - r), h + 1) for r, h in enumerate(scaled[:20])]
        assert any(last >= counting._MIRROR_STEPS and 2 * last >= m for last, m in lasts), T
        expected = ehrhart_at(p, T)
        for engine in ("triangular", "determinant"):
            assert count(scaled, engine) == expected, (T, engine)


def test_band_engines_match_ehrhart_at_10_30_up_to_100_heights():
    # n = 64, 80 and 100 at T = 10^30, each once as drawn and once ending in a run of 3; about
    # 0.05 s of dp samples each
    rng = random.Random(37)
    for n in (64, 80, 100):
        drawn = tuple(sorted(rng.randint(0, 5) for _ in range(n)))
        for p in (drawn, drawn[:-3] + (drawn[-1] + 1,) * 3):
            expected = ehrhart_at(p, 10**30)
            assert expected.denominator == 1, p
            scaled = tuple(10**30 * h for h in p)
            for engine in ("triangular", "determinant"):
                assert count(scaled, engine) == expected, (p, engine)


def test_band_engines_match_ehrhart_just_past_n_on_paths_that_start_at_0_and_1():
    # 80 heights whose early ones are 0 and 1: at T just above n a score of the rows of height T
    # have at least _MIRROR_STEPS steps and reach past their middle, so they are mirrored, with
    # m = T + 1 even and odd; the taller rows after them step whole and the last run is summed
    rng = random.Random(87)
    for zeros in (10, 5):
        p = (0,) * zeros + (1,) * (40 - zeros) + tuple(sorted(rng.randint(2, 4) for _ in range(40)))
        n = len(p)
        for T in (n + 1, n + 2, n + 7):
            scaled = tuple(T * h for h in p)
            mirrored = [r for r, h in enumerate(p) if h == 1 and 2 * min(T, n - 1 - r) >= T + 1]
            assert len(mirrored) >= 20 and n - 1 - mirrored[-1] >= counting._MIRROR_STEPS, (zeros, T)
            expected = ehrhart_at(p, T)
            for engine in ("triangular", "determinant"):
                assert count(scaled, engine) == expected, (zeros, T, engine)


# bounded by size: at most 6 heights of at most 4, so 7 dp samples of at most 24 heights each
@settings(deadline=None)
@given(st.lists(st.integers(0, 4), max_size=6).map(lambda heights: tuple(sorted(heights))), st.data())
def test_band_engines_match_ehrhart_at_any_scale_on_small_paths(p, data):
    T = data.draw(st.integers(len(p) + 1, 10**30))
    expected = ehrhart_at(p, T)
    assert expected.denominator == 1, T
    scaled = tuple(T * h for h in p)
    for engine in ("triangular", "determinant"):
        assert count(scaled, engine) == expected, (T, engine)


def test_recurrence_and_theorem_match_ehrhart_where_they_finish():
    # recurrence builds a column of T * p_(n-1) + 1 entries, so T stays near 10^3; theorem's
    # table has at most n + 2 entries at any T, so it also takes T = 10^30, up to its cap on n
    rng = random.Random(25)
    for _ in range(8):
        p = tuple(sorted(rng.randint(0, 4) for _ in range(rng.randint(1, counting.THEOREM_CAP))))
        T = rng.randint(10**3, 3 * 10**3)
        expected = ehrhart_at(p, T)
        scaled = tuple(T * h for h in p)
        assert count(scaled, "recurrence") == expected, (p, T)
        assert count(scaled, "theorem") == expected, (p, T)
        assert count(tuple(10**30 * h for h in p), "theorem") == ehrhart_at(p, 10**30), p


def test_cross_engine_randomized():
    for seed, paths, longest, tallest in ((1234, 200, 12, 40), (50, 50, 9, 30)):
        rng = random.Random(seed)
        for _ in range(paths):
            n = rng.randint(0, longest)
            p = tuple(sorted(rng.randint(0, tallest) for _ in range(n)))
            values = {engine: count(p, engine) for engine in ENGINES}
            assert len(set(values.values())) == 1, (p, values)


def test_cross_engine_large_random_paths():
    # n = 200 and 400, which the determinant's live row of minors, O(n^2) big-integer
    # operations, reaches in a fraction of a second
    rng = random.Random(400)
    for n in (200, 400):
        p = tuple(sorted(rng.randint(0, n) for _ in range(n)))
        assert count_determinant(p) == count_triangular(p) == count_dp(p)


def test_determinant_matches_det_int_on_the_full_kreweras_matrix():
    # every length up to 40, so an engine that goes wrong only on its later rows still shows;
    # the matrix is built whole, the zeros below the subdiagonal included
    rng = random.Random(42)
    for n in range(41):
        top = rng.choice((1, n, 10**3, 10**9, 10**20))  # 10**20: step factors past 2^64
        p = tuple(sorted(rng.randint(0, top) for _ in range(n)))
        full = [[binom(p[i] + 1, j - i + 1) for j in range(n)] for i in range(n)]
        assert count_determinant(p) == det_int(full), p


def unsorted_heights_and_full_kreweras_matrices():
    """704 height tuples in no order, outside what count passes, each with its whole matrix."""
    rng = random.Random(6)
    paths = [tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 12))) for _ in range(300)]
    # a tall height among zeros and ones: short rows after a tall one
    paths += [tuple(rng.choice((0, 1, 9)) for _ in range(rng.randint(0, 16))) for _ in range(300)]
    # a last run of equal heights after a taller one, which a search of sorted heights misplaces
    paths += [(9, 2, 2, 2), (0, 7, 7, 3, 3, 3), (5, 0, 0), (4, 9, 1, 1, 1, 1)]
    paths += [
        tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 8))) + (rng.randint(0, 3),) * rng.randint(2, 6)
        for _ in range(100)
    ]
    for p in paths:
        yield p, [[binom(p[i] + 1, j - i + 1) for j in range(len(p))] for i in range(len(p))]


def test_triangular_solve_is_exact_on_unsorted_heights():
    # each row is stepped from its own height alone, so no order of the heights is assumed
    for p, full in unsorted_heights_and_full_kreweras_matrices():
        assert count_triangular(p) == det_int(full), p


@pytest.fixture
def range_steps(monkeypatch):
    """Count the steps of every ``range`` that ``counting`` builds: ``range_steps[0]`` sums their lengths."""
    steps = [0]

    def counted(*args):
        r = range(*args)
        steps[0] += len(r)
        return r

    monkeypatch.setattr(counting, "range", counted, raising=False)
    return steps


def test_triangular_sums_its_last_run_without_steps(range_steps):
    # the rows of the last run of equal heights take no steps; stepped row by row, a rectangle
    # (h,) * n would take about n^2 / 4 steps once h passes n / 2
    for h, n in product((0, 1, 5, 40, 300, 10**20), (1, 2, 10, 100, 300)):
        range_steps[0] = 0
        got = count_triangular((h,) * n)
        assert range_steps[0] <= n, (h, n)
        assert got == binom(h + n, n), (h, n)
    # a random head below a run of R: the head's rows step as before, the run adds at most R
    rng = random.Random(36)
    for _ in range(40):
        head = tuple(sorted(rng.randint(0, 60) for _ in range(rng.randint(0, 80))))
        top = (head[-1] if head else 0) + rng.randint(1, 40)
        p = head + (top,) * rng.randint(1, 80)
        n = len(p)
        range_steps[0] = 0
        got = count_triangular(p)
        assert range_steps[0] <= sum(min(h, n - 1 - r) for r, h in enumerate(head)) + n - len(head), p
        assert got == count_dp(p), p


# long and low, medium, and square, where most rows reach the last equation
ZERO_TAIL_SIZES = ((2000, 3), (600, 20), (200, 200))


def test_determinant_rows_stop_at_their_zero_tail(range_steps):
    # row i of a nondecreasing path has min(n - i, p_i + 1) nonzero minors; the whole live row
    # would be n - i steps, n^2 / 2 in all, on a long, low path
    rng = random.Random(23)
    for n, top in ZERO_TAIL_SIZES:
        p = tuple(sorted(rng.randint(0, top) for _ in range(n)))
        range_steps[0] = 0
        got = count_determinant(p)
        assert range_steps[0] <= sum(min(n - i, h + 1) for i, h in enumerate(p)), (n, top)
        assert got == count_dp(p), (n, top)


def test_triangular_rows_stop_at_their_zero(range_steps):
    # row r has min(p_r, n - 1 - r) terms past its first, and a mirrored row steps about half of
    # them; the whole row would be n - 1 - r steps
    rng = random.Random(23)
    for n, top in ZERO_TAIL_SIZES:
        p = tuple(sorted(rng.randint(0, top) for _ in range(n)))
        range_steps[0] = 0
        got = count_triangular(p)
        assert range_steps[0] <= sum(min(h, n - 1 - r) for r, h in enumerate(p)), (n, top)
        assert got == count_dp(p), (n, top)


def test_determinant_matches_triangular_on_short_tall_paths():
    # up to 250 x 10^20, where the stepped binomials pass 2^53 in every row
    rng = random.Random(50)
    for n, top in ((50, 10), (50, 10**5), (50, 10**10), (50, 10**15), (160, 10**13), (250, 10**20)):
        p = tuple(sorted(rng.randint(0, top) for _ in range(n)))
        assert count_determinant(p) == count_triangular(p), (n, top)
    p = (10**15,) * 50
    assert count_determinant(p) == count_triangular(p) == binom(10**15 + 50, 50)


# two primes just under 2^61: 2^61 - 1 and 2^61 - 31
RESIDUE_PRIMES = (2**61 - 1, 2**61 - 31)


def lp_mod(p, q):
    """LP(p) mod the prime q > len(p): Kreweras' determinant det[binom(p_i + 1, j - i + 1)] mod q.

    The Hessenberg expansion along the rows, M_i(j) = binom(p_i + 1, j - i + 1) * M_(i-1)(i - 1)
    - M_(i-1)(j), is taken mod q over every column j >= i, with no zero tail and no early stop;
    binom(p_i + 1, k) is stepped from binom(p_i + 1, k - 1) by p_i + 2 - k and the inverse of k
    mod q.  No big integer is ever formed, so this shares no arithmetic with the band engines.
    """
    n = len(p)
    inverse = [0] + [pow(k, q - 2, q) for k in range(1, n + 1)]
    minors, pivot = [0] * n, 1  # M_(-1)(j) = 0 for every column j; the empty minor is 1
    for i, h in enumerate(p):
        b = 1  # binom(p_i + 1, 0)
        for j in range(i, n):
            k = j - i + 1
            b = b * (h + 2 - k) % q * inverse[k] % q
            minors[j] = (b * pivot - minors[j]) % q
        pivot = minors[i]
    return pivot


def test_lp_mod_matches_dp_oracle_on_every_small_path():
    for n in range(7):
        for p in nondecreasing_tuples(n, 7):
            assert lp_mod(p, 101) == count_dp(p) % 101, p


@pytest.mark.parametrize("engines, n, top", [
    (("triangular", "determinant"), 160, 10**13),
    (("triangular", "determinant"), 250, 10**20),
    (("triangular",), 400, 10**30),
], ids=["tall-160", "tall-250", "tall-400"])
def test_band_engines_match_residues_on_tall_random_paths(engines, n, top):
    # past n = 40 only the ballot lines check the band engines on tall paths, and the two engines
    # agree with each other by construction; step factors pass 2^64 from 10^20 on
    rng = random.Random(n)
    p = tuple(sorted(rng.randint(0, top) for _ in range(n)))
    residues = [lp_mod(p, q) for q in RESIDUE_PRIMES]
    for engine in engines:
        value = count(p, engine)
        assert [value % q for q in RESIDUE_PRIMES] == residues, engine


def test_restriction_bijection_counts():
    # direct enumeration of restricted paths vs the polytope recurrence
    for n in range(5):
        for p in nondecreasing_tuples(n, 4):
            direct = sum(
                1
                for q in product(*(range(h + 1) for h in p))
                if all(q[i] <= q[i + 1] for i in range(len(q) - 1))
            )
            assert direct == count_recurrence(p)


def test_enumerate_restricted():
    assert list(enumerate_restricted((1, 1))) == [(0, 0), (0, 1), (1, 1)]
    assert list(enumerate_restricted(())) == [()]
    for p in [(1, 2), (0, 0, 2), (2, 2, 2)]:
        qs = list(enumerate_restricted(p))
        assert len(qs) == count_dp(p)
        assert qs == sorted(qs)
        assert all(is_restricted_by(q, p) for q in qs)


def test_enumerate_restricted_is_partial_summation_of_the_polytope_points():
    # two independent odometers, one over heights and one over lattice points,
    # meet through the partial-summation bijection, order included
    paths = 0
    for n in range(7):
        for p in nondecreasing_tuples(n, 6):
            qs = list(enumerate_restricted(p))
            assert qs == list(map(sigma, enumerate_polytope(delta(p)))), p
            paths += len(qs)
    assert paths == sum(macmahon_total(n, 6) for n in range(7))


def test_enumerate_restricted_refuses_heights_as_count_does():
    check_refusals(lambda call, message: "enumerate_restricted" in call)


# --- aggregates -------------------------------------------------------------


def test_macmahon_bruteforce_refuses_a_negative_endpoint():
    check_refusals(lambda call, message: message.endswith("has a negative coordinate"))


def test_macmahon_total_values():
    assert macmahon_total(1, 1) == 3
    assert macmahon_total(2, 2) == 20
    for m in range(6):
        assert macmahon_total(0, m) == 1


def macmahon_pathwise(n, m):
    """Reference aggregate: count_dp summed path by path, no column shared."""
    return sum(count_dp(p) for p in nondecreasing_tuples(n, m))


def test_macmahon_brute_force_matches():
    # every endpoint up to (7, 7), the zero rows included, against both oracles
    for n in range(8):
        for m in range(8):
            assert macmahon_bruteforce(n, m) == macmahon_pathwise(n, m) == macmahon_total(n, m), (n, m)


def test_macmahon_bruteforce_at_larger_endpoints():
    # deeper walks and wider fans than verify's box; 184 756, 969 and 969 paths
    for n, m in ((10, 10), (16, 3), (3, 16)):
        assert macmahon_bruteforce(n, m) == macmahon_total(n, m), (n, m)


def test_monomial_oracle():
    assert monomial_oracle((1,)) == 2
    assert monomial_oracle((1, 2)) == 5
    assert monomial_oracle(()) == 1
    with pytest.raises(CapacityError):
        monomial_oracle((9,) * 8, cap=100)


def test_monomial_oracle_matches_dp():
    for n in range(5):
        for p in nondecreasing_tuples(n, 4):
            assert monomial_oracle(p) == count_dp(p)
