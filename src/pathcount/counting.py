"""Exact counters for northeast lattice paths below a bounding path.

``lp(v)``, the number of lattice points in the Pitman-Stanley polytope of
``v``, equals the number of paths restricted by the height path ``sigma(v)``.
Five engines compute it:

* ``recurrence``  - bottom-up head recurrence on the differences v = delta(p), read from
  the heights as it goes: column k holds f_k(s) for v_k <= s <= p_k, each column one
  running sum of the last, a run of zero differences paid at once;
* ``determinant`` - Kreweras' binomial determinant; its matrix is upper
  Hessenberg with every subdiagonal entry 1, so one cofactor expansion row by
  row evaluates it exactly with no pivot search: each row steps binom(p_i + 1, k)
  times the pivot by one small multiply and one exact small division, so no
  step multiplies two big integers, and each row stops at the zero tail of the
  minors, which a nondecreasing path keeps, so O(n * min(n, max p)) steps;
* ``triangular``  - column-oriented forward substitution through the triangular
  system behind that determinant: once a prefix's LP is known, its row steps its
  terms by one small multiply and one exact small division each and adds them into
  the equations below, stopping at its last nonzero term.  A row's terms repeat
  about its middle up to sign, so a row of 16 or more steps that passes its middle
  steps only to the middle, (p_r - 1) // 2 divisions, and adds the rest as mirrors.
  The R rows of the last run of equal heights, from row a on, take no steps: the run
  is one sum of their pending terms and the LP before it, weighted by binomials that
  cost R small divisions and R products.  At most R plus the sum over r < a of
  min(p_r, n - 1 - r) divisions, n for a rectangle, exact on heights in any order;
* ``theorem``     - sum of binomial products over the lattice points of the
  all-ones polytope, grouped by slack into a table kept reversed, which a
  nonzero difference x steps by x running sums (n capped at ``THEOREM_CAP``);
* ``dp``          - column-by-column dynamic program directly over admissible
  heights, each column one running sum of the last padded with its total up
  to the new bound, a run of equal bounds paid at once.

``recurrence``, ``theorem`` and ``dp`` pay k running sums over c entries through one
helper, ``_running_sums``, as k passes or as one weighted sum, by the rule in its docstring.
All three read their last column only as its total, which ``_running_total``
pays as one sum of c products where its own rule finds that cheaper than the passes.
A path that ends in a run of equal heights pays that run in O(c) steps; (n,) * n costs O(n).
The engines are reached through :func:`count`, which validates the path once and runs its
kernel from ``_KERNELS``; the engine functions assume a validated path, so ``pathcount``
does not export them, and none keeps code for a path ``count`` refuses.  All engines agree
on every input; the test suite and the ``verify`` CLI subcommand enforce this, and the tests
check ``dp`` and ``recurrence`` against plain one-pass sweeps.  Each engine guards its own
cap: ``dp`` and ``recurrence`` refuse, through ``CapacityError``, a path whose longest column
would pass ``MAX_COLUMN``, and ``theorem`` refuses n over ``THEOREM_CAP``.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import mul
from typing import Iterator

from .exactmath import factorial
from .paths import Diffs, Heights, Point, _shown, as_integers, validate_diffs, validate_heights

__all__ = [
    "CapacityError",
    "ENGINES",
    "THEOREM_CAP",
    "count",
    "enumerate_polytope",
    "enumerate_restricted",
    "macmahon_bruteforce",
    "macmahon_total",
]

# longest path the theorem engine takes; it refuses longer ones, which `count --engine all` skips
THEOREM_CAP = 14
# longest column, in integers, that the dp and recurrence engines may build.  It bounds entries,
# not bytes: an entry can be as long as LP(p), so a column under the cap can pass a gigabyte
# ((9999999,) * 3 peaked at 1.0 GB under dp, and raised MemoryError under a 0.5 GiB address space).
# cli.main maps a MemoryError that escapes to exit 3; a cap by predicted bytes that refuses such
# a path before it allocates is ROADMAP item 24
MAX_COLUMN = 10**7
# an interpreted step costs about as much as this many small additions in C (see _running_total)
_STEP = 5
# count_triangular mirrors a row's terms only from this many steps (at least 2, or a row has no
# middle to step to): on shorter rows the mirrored loop's setup costs more than the steps it saves;
# mirroring from 2 steps made perfbench's algebra triangular_s (tiny counts) 5% slower and left
# shapes triangular_s where it was
_MIRROR_STEPS = 16


class CapacityError(Exception):
    """An engine or enumeration was asked to exceed its configured cap."""


def _column_refusal(engine: str, length: int) -> CapacityError:
    return CapacityError(
        f"{engine} engine capacity exceeded: a column of {_shown(length)} integers is over the cap {MAX_COLUMN}"
    )


def enumerate_polytope(v: Diffs) -> Iterator[Point]:
    """Yield the lattice points of the Pitman-Stanley polytope of ``v``.

    Points are the nonnegative integer tuples whose every prefix sum is
    bounded by the matching prefix sum of ``v``, emitted in lexicographic
    order.  The stream is lazy and single-consumer.  An odometer: ``cap[i]``
    bounds coordinate i given those before it; each step bumps the last
    coordinate below its cap and zeroes the ones after it, which needs
    ``v`` nonnegative: a negative entry raises ``ValueError``.
    """
    v = validate_diffs(v)
    n = len(v)
    point = [0] * n
    cap = list(accumulate(v))
    while True:
        yield tuple(point)
        i = n - 1
        while i >= 0 and point[i] == cap[i]:
            i -= 1
        if i < 0:
            return
        point[i] += 1
        room = cap[i] - point[i]
        for j in range(i + 1, n):
            point[j] = 0
            room += v[j]
            cap[j] = room


def count_recurrence(p: Heights) -> int:
    """Count lattice points of the polytope of v = delta(p) by the head recurrence.

    lp(()) = 1 and lp(v) = sum over j = 0..v_1 of
    lp((v_1 + v_2 - j, v_3, ..., v_n)): group points by first coordinate j;
    dropping that coordinate lands in the polytope of the shortened vector.
    With f_k(s) = lp((s, v_{k+1}, ..., v_n)) this reads
    f_k(s) = sum over t = v_{k+1}..s + v_{k+1} of f_{k+1}(t), and
    f_n(s) = s + 1.  The columns f_n, ..., f_1 are built right to left, each as one
    running sum of the last, and lp(v) = f_1(v_1).  Column k holds f_k(s) for
    v_k <= s <= p_k, the arguments column k - 1 reads, so it has p_(k-1) + 1 entries.
    The loop reads each difference from the heights as it goes, with no difference tuple.
    A zero difference cuts nothing, so it only owes its running sum: :func:`_running_sums`
    pays a run's sums before the next nonzero difference.  The last step, x = v_1 = p_1,
    leaves one entry, the sum of column 2, so that column is read only as its total:
    its sum, or :func:`_running_total`'s when sums are still owed.

    ``p`` is a height tuple :func:`count` has validated.  The first column, of p_(n-1) + 1
    entries, is the longest; over ``MAX_COLUMN`` it is refused through ``CapacityError``
    before it is built.
    """
    if not p:
        return 1
    hi = p[-2] if len(p) > 1 else 0  # p_(n-1), with p_0 = 0
    if hi >= MAX_COLUMN:
        raise _column_refusal("recurrence", hi + 1)
    column, owed = range(p[-1] - hi + 1, p[-1] + 2), 0  # f_n(s) = s + 1 for v_n <= s <= p_n
    for lo in p[-3::-1]:  # x = hi - lo is v_(n-1) = p_(n-1) - p_(n-2), then v_(n-2), ..., v_2
        x = hi - lo
        hi = lo
        if not x:
            owed += 1
            continue
        if owed:
            column, owed = _running_sums(list(column), owed), 0
        column = list(accumulate(column))[x:]
    return _running_total(list(column), owed) if owed else sum(column)  # the last step, x = p_1


def count_determinant(p: Heights) -> int:
    """Count restricted paths as Kreweras' determinant det[binom(p_i + 1, j - i + 1)].

    Its entries vanish for j < i - 1 and its subdiagonal entries are binom(p_i + 1, 0) = 1,
    so it is upper Hessenberg with a unit subdiagonal.  Let M_i(j) be the minor on rows 0..i
    and columns 0..i-1, j.  Row i has only two nonzero entries there, the 1 in column i - 1
    and binom(p_i + 1, j - i + 1) in column j, so expanding along it gives
    M_i(j) = binom(p_i + 1, j - i + 1) * M_(i-1)(i - 1) - M_(i-1)(j).  The pivot M_(i-1)(i - 1)
    is the leading i x i minor, LP(p_1..p_i), and the determinant is M_(n-1)(n - 1).  One live
    row of M_i(j) for j >= i, rebuilt in place, is the whole state: no matrix.  Along row i the
    product b = binom(m, k) * pivot, m = p_i + 1, steps from its value at k - 1 by one small
    multiply and one exact division, (m + 1 - k) / k, so no step multiplies two big integers.
    k divides binom(m, k - 1) * (m + 1 - k), so the division is exact for any integer pivot,
    zero or negative included.  The minors need no pivot search, and the expansion holds for
    any pivot value.  The band engines hold the same state up to ``triangular``'s last run:
    after row i, ``row[0]`` is LP(p_1..p_(i+1)) and ``row[j - i]`` = M_i(j) is (-1)^(j - i) times
    ``triangular``'s ``pending[j]`` for every j > i.  That run ``triangular`` reads as one weighted
    sum where this steps every row, so only on a path that ends in a run of two or more equal
    heights does their agreement check arithmetic and not just index bookkeeping.  These checks
    share none of it: ``det_int``'s Bareiss elimination, the ballot closed form and this
    determinant's residues modulo two 61-bit primes, all in ``tests/test_counting.py``, and
    ``verify det-identity``.

    The row keeps a zero tail.  After a row of height m - 1 it starts at m, and on a
    nondecreasing path the next row's m is no lower, so past k = m both binom(m, k) and the
    entry the step reads are 0: row i stops at k = m, min(n - i, p_i + 1) steps, and the path
    costs O(n * min(n, max p)) big-integer operations, the bound ``triangular`` has.  ``p`` is a
    height tuple :func:`count` has validated; a lower height after a higher one would leave
    nonzero minors past that row's stop.
    """
    row = [1] + [0] * len(p)  # M_(-1): the empty minor 1, then M_(-1)(j) = 0 for every column j
    width = len(row)
    for h in p:
        m, b = h + 1, row[0]  # b = binom(m, 0) * pivot
        # a conditional, not min(): min() and max() calls made a 1-7 step path 75% slower;
        # row[k] is read before row[k - 1] is set: the row moves down one
        for k in range(1, m + 1 if m < width else width):
            b = b * (m + 1 - k) // k  # binom(m, k) * pivot, exact
            row[k - 1] = b - row[k]
        row.pop()  # the last entry, already moved down or in the zero tail
        width -= 1
    return row[0]


def count_triangular(p: Heights) -> int:
    """Solve the inclusion-exclusion triangular system by column-oriented forward substitution.

    Equation j reads LP(p_1..p_(j+1)) = sum over rows r <= j of t_r(j - r), where row r's term
    t_r(k) = (-1)^k binom(m, k + 1) LP(p_1..p_r), m = p_r + 1, is zero once k >= m.  Once
    LP(p_1..p_r) is known, row r is added whole into ``pending``, the known part of every later
    equation, so equation r is complete when the loop reaches it.  The row steps its term from
    t_r(0) = m * LP(p_1..p_r) as t_r(k) = t_r(k - 1) * (k - m) / (k + 1), one small multiply and
    one exact small division: t_r(k - 1) * (k - m) = (-1)^k (k + 1) binom(m, k + 1) LP(p_1..p_r)
    for any integer LP.  The row ends at its last nonzero term below equation n, k = last =
    min(p_r, n - 1 - r).  Since binom(m, k + 1) = binom(m, m - 1 - k), t_r(m - 2 - k) =
    (-1)^m t_r(k), down to the virtual t_r(-1) = -LP(p_1..p_r), whose mirror is t_r(m - 1).  So a
    row of at least ``_MIRROR_STEPS`` steps that reaches past its middle, 2 * last >= m, steps
    only while k < m - 2 - k, and for even m once more to the middle term, its own mirror: it
    makes (m - 2) // 2 divisions in place of last, and adds each term's mirror where
    m - 2 - k <= last.  Every other row steps to its last term.

    The last run of equal heights, rows a..n - 1 of height h, found by a scan from the end, takes
    no steps.  Its block of the system is Toeplitz: with R = n - a and Q(x) the sum over s < R of
    pending[a + s] x^s, the sum over k of (-1)^k binom(h + 1, k + 1) x^(k + 1) = 1 - (1 - x)^(h + 1)
    makes LP(p_1..p_(a+s)) the coefficient of x^s in (LP(p_1..p_a) + x Q(x)) / (1 - x)^(h + 1), so
    LP(p) = LP(p_1..p_a) binom(h + R, R) + sum over s < R of pending[a + s] binom(h + R - 1 - s, R - 1 - s).
    Its weights binom(h + d, d) step by one small multiply and one exact division each, so the run
    costs R divisions and R + 1 products.  A run of one row, as on most tiny counts, is the last step,
    pending[n - 1] + (h + 1) LP(p_1..p_(n-1)), returned with no weight loop, and the rows before the
    run are walked as the slice p[:a], with no test on each row for the run's start.  The path costs
    at most R plus the sum over r < a of min(p_r, n - 1 - r) divisions, O(n * min(n, max p)), about
    half that where its rows run to their last nonzero term, and n for a rectangle (h,) * n.  Each row
    and the run depend only on their own heights and LP, so the solve is exact on heights in any
    order.  ``pending[j]`` after row r < a is (-1)^(j - r) times :func:`count_determinant`'s M_r(j),
    j > r, since a finished row has added every term; the run is summed where ``count_determinant``
    steps every row, so on a path that ends in a run of two or more the two agree through different
    arithmetic, and ``det_int``, the ballot form and the residue tests check both.  ``p`` is a height
    tuple :func:`count` has validated.
    """
    n = len(p)
    if not n:
        return 1
    top, a = p[-1], n - 1  # the last run is rows a..n - 1, of height top
    while a and p[a - 1] == top:  # a scan, not bisect: heights in any order keep the solve exact
        a -= 1
    lp, pending = 1, [0] * n  # LP of the prefix so far; pending[j]: equation j's rows added so far
    for r, h in enumerate(p[:a]):  # not range(a): the tests' step bound counts every range built
        m = h + 1
        prev, t = lp, m * lp  # LP(p_1..p_r), t_r(0)
        lp = pending[r] + t
        last = n - 1 - r  # a conditional, not min(): its call made 6 000 tiny counts 37% slower
        if h < last:
            last = h
        if last < _MIRROR_STEPS or 2 * last < m:
            for k in range(1, last + 1):
                t = t * (k - m) // (k + 1)  # t_r(k), exact
                pending[r + k] += t
            continue
        # t_r(k)'s mirror t_r(m - 2 - k) goes to pending[far - k] from k = lo on, where it lies in the row
        lo, far, half, t0 = m - 2 - last, r + m - 2, (m - 1) // 2, t
        for k in range(1, lo):  # the mirror lies past equation n - 1
            t = t * (k - m) // (k + 1)
            pending[r + k] += t
        if m & 1:  # the mirror is -t_r(k)
            for k in range(lo if lo > 1 else 1, half):
                t = t * (k - m) // (k + 1)
                pending[r + k] += t
                pending[far - k] -= t
            if lo <= 0:
                pending[far] -= t0
                if lo:
                    pending[far + 1] += prev
        else:  # the mirror is t_r(k)
            for k in range(lo if lo > 1 else 1, half):
                t = t * (k - m) // (k + 1)
                pending[r + k] += t
                pending[far - k] += t
            pending[r + half] += t * (half - m) // (half + 1)  # the middle term
            if lo <= 0:
                pending[far] += t0
                if lo:
                    pending[far + 1] -= prev
    if a == n - 1:  # a run of one row: the sum is the last step, with no weight loop
        return pending[a] + (top + 1) * lp
    total, w, d = 0, 1, 0  # w = binom(top + d, d), the weight of pending[n - 1 - d]
    for q in reversed(pending[a:]):  # a counter, not enumerate(): its call made tiny counts 3% slower
        d += 1
        total += q * w
        w = w * (top + d) // d
    return total + lp * w  # lp is LP(p_1..p_a), weighted by binom(top + R, R)


def count_theorem(p: Heights) -> int:
    """Sum binomial products over the lattice points of the all-ones polytope.

    With v the difference vector of ``p`` and w = reversed(v), the count is the
    sum over the C_{n+1} lattice points x of prod_i binom(w_i + x_i - 1, x_i), the
    binomials taken with the extended convention of :func:`~pathcount.exactmath.binom`
    so that a zero w_i forces x_i = 0.  A prefix x_1..x_i leaves slack
    s = i - (x_1 + ... + x_i) and x_(i+1) ranges over 0..s + 1, so the points are
    summed as a table: weight[s] totals the partial products of the prefixes that
    leave slack s.  With w' = [0] + weight, the step for w_i = x > 0 is
    next[m] = sum over u >= m of binom(x - 1 + u - m, u - m) * w'[u], x suffix running
    sums of w'.  Kept reversed, the table takes each new slack-0 entry as an append and
    these sums as the prefix sums of :func:`_running_sums`.  The loop reads each difference from
    the heights as it goes, with no difference tuple, and pays a single sum, x = 1, in place as one
    ``accumulate``, as ``dp`` pays a column; x >= 2 goes through :func:`_running_sums`, whose rule
    then decides.  The last step, x = p_1, is read only as the table's total: its sum when
    p_1 = 0 and otherwise :func:`_running_total`'s.
    ``p`` is a height tuple :func:`count` has validated; n > ``THEOREM_CAP`` is refused.
    """
    n = len(p)
    if n > THEOREM_CAP:
        raise CapacityError(f"theorem engine capacity exceeded: n = {n} is over the cap {THEOREM_CAP}")
    if not p:
        return 1
    rev, hi = [1], p[-1]  # the slack table, reversed: rev[-1 - s] is the weight of slack s
    for lo in p[-2::-1]:  # x = hi - lo is w_1 = p_n - p_(n-1), then w_2, ..., w_(n-1)
        x = hi - lo
        hi = lo
        rev.append(0)
        if x == 1:  # one running sum, paid in place as dp pays a column
            rev = list(accumulate(rev))
        elif x:
            rev = _running_sums(rev, x)
    rev.append(0)
    return _running_total(rev, hi) if hi else sum(rev)  # the last step, x = p_1, read only as a total


def _weights(k: int, c: int) -> list[int]:
    """Return binom(k + d, d) for d < c, c >= 1, each stepped from the last by one exact small division."""
    weights = [1]
    for d in range(1, c):
        weights.append(weights[-1] * (k + d) // d)
    return weights


def _running_sums(column: list[int], k: int) -> list[int]:
    """Return ``column`` after k running-sum passes.

    After k passes entry i is the sum over t <= i of binom(k - 1 + i - t, i - t) * column[t].
    A caller that reads only the total takes :func:`_running_total` instead.
    With c = len(column) the passes cost k * c additions in C and k interpreted steps, one
    ``accumulate`` call each.  That weighted sum costs c^2 / 2 products in C, each as long as its
    largest weight binom(k + c - 2, c - 1), counted here in 30-bit digits, and about 2c
    interpreted steps: c - 1 weight steps and c ``sum`` calls.  On short columns those steps,
    not the arithmetic, are the cost, so the weighted sum is taken only when it wins on both
    counts, 2c <= k and c * (digits of that weight) < 2k, and the k passes otherwise.  ``comb`` is
    reached only once 2c <= k, so never for an empty column, which the passes leave empty.
    """
    c = len(column)
    if 0 < 2 * c <= k and c * (comb(k + c - 2, c - 1).bit_length() // 30 + 1) < 2 * k:
        weights = _weights(k - 1, c)[::-1]  # weights[c - 1 - d] = binom(k - 1 + d, d)
        return [sum(map(mul, weights[c - 1 - i :], column)) for i in range(c)]
    for _ in range(k):
        column = list(accumulate(column))
    return column


def _running_total(column: list[int], k: int) -> int:
    """Return ``sum(_running_sums(column, k))``, the total of ``column`` after k running-sum passes.

    Summing entry i of :func:`_running_sums` over i weighs column[t] by
    sum over d <= c - 1 - t of binom(k - 1 + d, d) = binom(k + c - 1 - t, c - 1 - t), so the
    total is one sum of c products weighted by :func:`_weights`.  That costs about c
    interpreted steps and c products as long as the largest weight binom(k + c - 1, c - 1),
    counted in 30-bit digits; the k passes cost k steps and k * c additions.  An interpreted
    step costs about ``_STEP`` additions, so the weighted sum is taken when
    c * (``_STEP`` + digits) < k * (``_STEP`` + c).  Otherwise (tiny runs, and short runs over
    wide columns) the passes are handed to :func:`_running_sums`, whose rule then takes them
    too: it weighs only when 2c <= k and c * (its digits) < 2k, and there the weights here have
    at most one digit more, so c * (``_STEP`` + digits) < 6c + 2k <= 5k is under the budget.
    ``comb`` is reached only once the test holds with one digit, so never for an empty column,
    whose total is 0 either way.
    """
    c = len(column)
    budget = k * (_STEP + c)
    if 0 < c * (_STEP + 1) < budget and c * (_STEP + 1 + comb(k + c - 1, c - 1).bit_length() // 30) < budget:
        return sum(map(mul, _weights(k, c), reversed(column)))  # binom(k + d, d) weighs column[c - 1 - d]
    return sum(_running_sums(column, k))


def count_dp(p: Heights) -> int:
    """Count nondecreasing q with q_i <= p_i by a direct column sweep.

    Keeps, per column, the number of admissible prefixes ending at each
    height 0..p_i.  The first column holds one prefix at each height; each
    later one is one running sum of the last: the prefixes that may end at
    height h are those that ended at any height up to h.  A bound higher than
    the last adds its new heights, each holding the running total.  The
    terminal height is free (anything up to p_n).

    A bound equal to the last leaves the column's length alone, so a run of
    k such bounds only owes k running sums, which :func:`_running_sums` pays
    when the bound changes.  The last column is read only as its total, so
    a run that ends the path is paid by :func:`_running_total`.  So the sweep
    never costs more than one pass per column, O(n * max p) additions, and a
    long run costs far less: (20,) * 100000 takes 21 products in place of
    2.1 million additions, and a rectangle (n,) * n takes n + 1, so O(n)
    steps in place of O(n^2).

    ``p`` is a height tuple :func:`count` has validated, so no bound is lower
    than the last.  The last column, of p_n + 1 entries, is the longest; over
    ``MAX_COLUMN`` it is refused through ``CapacityError`` before it is built.
    """
    if p and p[-1] >= MAX_COLUMN:
        raise _column_refusal("dp", p[-1] + 1)
    bounds = iter(p)
    last = next(bounds, 0)
    ending, owed = [1] * (last + 1), 0  # the first column; no sum owed
    for bound in bounds:
        if bound == last:  # the column keeps its length: owe its running sum
            owed += 1
            continue
        if owed:
            ending = _running_sums(ending, owed)
            owed = 0
        ending = list(accumulate(ending))
        ending += [ending[-1]] * (bound - last)
        last = bound
    return _running_total(ending, owed) if owed else sum(ending)  # no call for tiny counts with no run


def enumerate_restricted(p: Heights) -> Iterator[Heights]:
    """Yield every nondecreasing q <= p in lexicographic order.

    An odometer over heights: each step raises the last height below its
    bound and sets every later height to the new value, the least a
    nondecreasing path allows; p nondecreasing keeps them under their bounds.
    Partial summation maps these paths onto the polytope's lattice points in
    the same order.  ``p`` is checked as ``count`` checks it, when the first
    path is asked for.
    """
    p = validate_heights(p)
    n = len(p)
    q = [0] * n
    while True:
        yield tuple(q)
        i = n - 1
        while i >= 0 and q[i] == p[i]:
            i -= 1
        if i < 0:
            return
        q[i:] = [q[i] + 1] * (n - i)


def _check_endpoint(n: int, m: int) -> tuple[int, int]:
    n, m = as_integers((n, m), "endpoint coordinate")
    if n < 0 or m < 0:
        raise ValueError(f"endpoint ({_shown(n)}, {_shown(m)}) has a negative coordinate")
    return n, m


def macmahon_total(n: int, m: int) -> int:
    """Closed form for the sum of LP(p) over all paths p from (0,0) to (n,m):

    (m+n)! (m+n+1)! / (m! n! (m+1)! (n+1)!), always an integer: it equals
    C(m+n, n)^2 - C(m+n, n+1) C(m+n, n-1), as both are C(m+n, n)^2 (m+n+1) / ((m+1)(n+1)).
    """
    n, m = _check_endpoint(n, m)
    num = factorial(m + n) * factorial(m + n + 1)
    den = factorial(m) * factorial(n) * factorial(m + 1) * factorial(n + 1)
    return num // den


def macmahon_bruteforce(n: int, m: int) -> int:
    """The same aggregate summed over every path, sharing :func:`count_dp`'s columns.

    Paths from (0,0) to (n, m) are exactly the nondecreasing height tuples of
    length n bounded by m (the climb to height m after the last E is forced),
    and for the same reason count_dp's free-terminal count already equals the
    fixed-endpoint count.  Paths with a common prefix share that prefix's
    columns, so one depth-first walk over the nondecreasing prefixes keeps one
    column per prefix: a child's is the running sum of its parent's, padded
    with its total up to the child's height, and each path of length n adds
    its column's sum.  The empty prefix holds one way to stand at height 0.
    At (7, 7) that is 6 434 column steps in place of 3 432 sweeps of 7 columns
    each.  A negative coordinate is refused as by :func:`macmahon_total`.
    """
    n, m = _check_endpoint(n, m)
    total, stack = 0, [([1], 0)]  # (column, prefix length)
    while stack:
        ending, k = stack.pop()
        if k == n:
            total += sum(ending)
            continue
        ending = list(accumulate(ending))
        for gap in range(m + 2 - len(ending)):
            stack.append((ending + ending[-1:] * gap, k + 1))
    return total


# engine name -> kernel(heights); a kernel over its cap raises CapacityError
_KERNELS = {
    "recurrence": count_recurrence,
    "determinant": count_determinant,
    "triangular": count_triangular,
    "theorem": count_theorem,
    "dp": count_dp,
}
ENGINES = tuple(_KERNELS)


def count(p: Heights, engine: str) -> int:
    """Count paths restricted by ``p`` with the named engine."""
    p = validate_heights(p)
    try:
        kernel = _KERNELS[engine]
    except (KeyError, TypeError):  # TypeError: an unhashable name, such as a list
        raise ValueError(f"unknown engine {_shown(engine)}; expected one of: {', '.join(ENGINES)}") from None
    return kernel(p)
