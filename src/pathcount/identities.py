"""Executable checks for the binomial identities behind the counting proof.

The children/parent correspondence ties the lattice points of consecutive
all-ones polytopes together; the summation lemma, its telescoping half and
the generalized Vandermonde identity are what make the correspondence count
correctly.  Each identity is exposed as plain functions that compute its
sides.  ``CHECKS`` lists the suites of ``pathcount verify``: every suite runs
:func:`disagreements` over its points (the children suite three times: parent
inverts children, the children tile each polytope, and dimension 1 has the
empty parent) and returns its counterexample descriptions (empty = pass).
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, Iterator, NamedTuple

from .counting import ENGINES, count, count_determinant, enumerate_polytope, macmahon_bruteforce, macmahon_total
from .exactmath import binom
from .paths import Diffs, Heights, Point, sigma
from .symbolic import evaluate, symbolic_lp

__all__ = [
    "ChildSet",
    "children",
    "lemma_closed",
    "lemma_lhs",
    "lemma_rhs",
    "parent",
    "vandermonde_gen",
]


class ChildSet(NamedTuple):
    """A point together with all points one coordinate longer that map back to it."""

    parent: Point
    children: tuple[Point, ...]


def children(y: Point) -> ChildSet:
    """All points whose parent is ``y``; undefined for the empty point.

    For y = (y_1, ..., y_k) the children are (y_1, ..., y_k, 0) together with
    (y_1, ..., y_{k-1}, y_k - i, i + 1) for 0 <= i <= y_k, giving y_k + 2 of
    them.  The verify suite calls this on every point of its box, so the kids
    are built in one plain loop and the record by ``tuple.__new__``, which
    skips the NamedTuple's Python-level constructor.
    """
    if len(y) == 0:
        raise ValueError("children of the empty point are undefined")
    y = tuple(y)
    head, last = y[:-1], y[-1]
    kids = [y + (0,)]
    i = 1
    for j in range(last, -1, -1):
        kids.append(head + (j, i))
        i += 1
    return tuple.__new__(ChildSet, (y, tuple(kids)))


def parent(x: Point) -> Point:
    """The unique point whose children include ``x``; any sequence of integers will do."""
    if len(x) == 0:
        raise ValueError("the empty point has no parent")
    x = tuple(x)
    if x[-1] == 0:
        return x[:-1]
    if len(x) == 1:
        return ()
    return x[:-2] + (x[-2] + x[-1] - 1,)


def children_points() -> Iterator[Point]:
    """Every point with entries <= 6 and length 1..6, then the all-ones polytope points of dimension 7.

    The polytope points of dimension 1..6 have entries <= 6, so the box holds them already.
    """
    for k in range(1, 7):
        yield from product(range(7), repeat=k)
    yield from enumerate_polytope((1,) * 7)


def tiling_counts(n: int) -> tuple[int, int, int]:
    """The points of the all-ones polytope of dimension n >= 2, the children of
    the points one dimension down, and how many distinct points of dimension n
    are among those children.

    The three agree exactly when the children tile the polytope: no child is
    repeated and none falls outside it.
    """
    points = set(enumerate_polytope((1,) * n))
    kids = [x for y in enumerate_polytope((1,) * (n - 1)) for x in children(y).children]
    return len(points), len(kids), len(points.intersection(kids))


def lemma_lhs(a: int, b: int, c: int) -> int:
    """sum_{i=0}^{c} binom(b+c-i-1, c-i) * binom(a+i, i+1)."""
    return sum(binom(b + c - i - 1, c - i) * binom(a + i, i + 1) for i in range(c + 1))


def lemma_rhs(a: int, b: int, c: int) -> int:
    """sum_{j=0}^{a-1} binom(a+b+c-j-1, c); the empty sum 0 when a = 0."""
    return sum(binom(a + b + c - j - 1, c) for j in range(a))


def lemma_closed(a: int, b: int, c: int) -> int:
    """binom(a+b+c, c+1) - binom(b+c, c+1), the common value of both lemma sides."""
    return binom(a + b + c, c + 1) - binom(b + c, c + 1)


def telescoped_sum(a: int, b: int, c: int) -> int:
    """The lemma's right side rewritten as consecutive binomial differences."""
    return sum(
        binom(a + b + c - j, c + 1) - binom(a + b + c - j - 1, c + 1) for j in range(a)
    )


def vandermonde_gen(d: int, e: int, f: int) -> tuple[int, int]:
    """Both sides of the generalized Vandermonde identity.

    Returns (sum_{k=0}^{f} binom(d+k, k) * binom(e-k, f-k), binom(d+e+1, f));
    the two agree whenever f <= e + 1.
    """
    lhs = sum(binom(d + k, k) * binom(e - k, f - k) for k in range(f + 1))
    return lhs, binom(d + e + 1, f)


def eq3_sides(v1: int, v2: int, y: int) -> tuple[int, int]:
    """Both sides of the two-coordinate reduction driving the head recurrence.

    The left side sums binom(v2 + s - 1, s) * binom(v1 + t - 1, t) over the
    last two coordinates (s, t) of the children of a point ending in ``y``;
    the right side is sum_{j=0}^{v1} binom(v1 + v2 - j + y - 1, y).
    """
    kids = children((y,)).children
    lhs = sum(binom(v2 + s - 1, s) * binom(v1 + t - 1, t) for s, t in kids)
    rhs = sum(binom(v1 + v2 - j + y - 1, y) for j in range(v1 + 1))
    return lhs, rhs


def disagreements(points: Iterable[tuple], sides: Callable[..., tuple]) -> list[str]:
    """Each point at which the values of ``sides(*point)`` are not all equal.

    A point is reported as ``"<point>: <values>"``; an empty list is a pass.
    """
    bad = []
    for point in points:
        values = sides(*point)
        if values.count(values[0]) != len(values):
            bad.append(f"{point}: {values}")
    return bad


def det_identity_points(seed: int) -> Iterator[Diffs]:
    """100 difference vectors with entries in [0, 50] for each n <= 6, drawn by ``Random(seed * 31 + n)``."""
    for n in range(7):
        rng = random.Random(seed * 31 + n)
        for _ in range(100):
            yield tuple(rng.randint(0, 50) for _ in range(n))


def cross_engine_paths(seed: int) -> Iterator[Heights]:
    """Every path with n <= 5 and heights <= 5, then 60 random ones with n <= 9.

    All of them have n <= 9 and heights <= 40, inside every engine's cap, so
    no engine refuses one.
    """
    for n in range(6):
        yield from combinations_with_replacement(range(6), n)
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(0, 9)
        yield tuple(sorted(rng.randint(0, 40) for _ in range(n)))


# verify suite name -> check(seed) -> (counterexamples, summary of a pass)
CHECKS: dict[str, Callable[[int], tuple[list[str], str]]] = {
    "cross-engine": lambda seed: (
        disagreements(paths := list(cross_engine_paths(seed)), lambda *p: tuple(count(p, e) for e in ENGINES)),
        f"{len(paths)} paths agree across all engines"),
    "macmahon": lambda seed: (
        disagreements(product(range(6), repeat=2), lambda n, m: (macmahon_bruteforce(n, m), macmahon_total(n, m))),
        "aggregate matches the closed form for all endpoints up to (5, 5)"),
    "lemma": lambda seed: (
        disagreements(product(range(21), repeat=3), lambda a, b, c: (
            lemma_lhs(a, b, c), lemma_rhs(a, b, c), lemma_closed(a, b, c), telescoped_sum(a, b, c))),
        "9261 triples agree (both sides, closed form, telescoping)"),
    "vandermonde": lambda seed: (
        disagreements(((d, e, f) for d, e in product(range(21), repeat=2) for f in range(e + 2)), vandermonde_gen),
        "all d, e <= 20 with f <= e + 1 agree"),
    "children": lambda seed: (
        disagreements(children_points(), lambda *y: (y, *map(parent, children(y).children)))
        + disagreements(((n,) for n in range(2, 9)), tiling_counts)
        + disagreements(enumerate_polytope((1,)), lambda *x: (parent(x), ())),
        "children tile every polytope up to n = 8 and parent inverts them"),
    "det-identity": lambda seed: (
        disagreements(det_identity_points(seed), lambda *v, polys=[symbolic_lp(n) for n in range(7)]: (
            evaluate(polys[len(v)], v), count_determinant(sigma(v)))),
        "determinant equals the rising-factorial sum at 100 random points per n <= 6"),
    "eq3": lambda seed: (
        disagreements(product(range(7), repeat=3), eq3_sides), "two-coordinate reduction agrees for all v1, v2, y <= 6"),
}
