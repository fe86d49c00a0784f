"""Executable checks for the binomial identities behind the counting proof.

The children/parent correspondence ties the lattice points of consecutive
all-ones polytopes together; the summation lemma, its telescoping half and
the generalized Vandermonde identity are what make the correspondence count
correctly.  Each identity is exposed as plain functions plus an exhaustive
``check_*`` driver that returns counterexample descriptions (empty = pass).
``CHECKS`` lists these checks, with the cross-engine, MacMahon and
determinant-identity ones, as the suites of ``pathcount verify``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Callable, Iterator

from .counting import ENGINES, count, enumerate_polytope, macmahon_bruteforce, macmahon_total
from .exactmath import binom
from .paths import Heights, Point
from .symbolic import verify_det_identity


@dataclass(frozen=True)
class ChildSet:
    """A point together with all points one coordinate longer that map back to it."""

    parent: Point
    children: tuple[Point, ...]


def children(y: Point) -> ChildSet:
    """All points whose parent is ``y``; undefined for the empty point.

    For y = (y_1, ..., y_k) the children are (y_1, ..., y_k, 0) together with
    (y_1, ..., y_{k-1}, y_k - i, i + 1) for 0 <= i <= y_k, giving y_k + 2 of
    them.
    """
    if len(y) == 0:
        raise ValueError("children of the empty point are undefined")
    y = tuple(y)
    last = y[-1]
    kids = [y + (0,)]
    kids.extend(y[:-1] + (last - i, i + 1) for i in range(last + 1))
    return ChildSet(y, tuple(kids))


def parent(x: Point) -> Point:
    """The unique point whose children include ``x``."""
    if len(x) == 0:
        raise ValueError("the empty point has no parent")
    if x[-1] == 0:
        return x[:-1]
    if len(x) == 1:
        return ()
    return x[:-2] + (x[-2] + x[-1] - 1,)


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


def check_lemma(bound: int = 20) -> list[str]:
    """Exhaustive lemma check (lhs = rhs = closed form) on the [0, bound]^3 box."""
    bad = []
    for a, b, c in product(range(bound + 1), repeat=3):
        lhs, rhs, closed = lemma_lhs(a, b, c), lemma_rhs(a, b, c), lemma_closed(a, b, c)
        if not (lhs == rhs == closed):
            bad.append(f"a={a} b={b} c={c}: lhs={lhs} rhs={rhs} closed={closed}")
    return bad


def check_telescoping(bound: int = 20) -> list[str]:
    """Exhaustive check that the telescoped sum equals the closed form."""
    bad = []
    for a, b, c in product(range(bound + 1), repeat=3):
        tele, closed = telescoped_sum(a, b, c), lemma_closed(a, b, c)
        if tele != closed:
            bad.append(f"a={a} b={b} c={c}: telescoped={tele} closed={closed}")
    return bad


def check_vandermonde(bound: int = 20) -> list[str]:
    """Exhaustive generalized-Vandermonde check for d, e <= bound, f <= e + 1."""
    bad = []
    for d, e in product(range(bound + 1), repeat=2):
        for f in range(e + 2):
            lhs, rhs = vandermonde_gen(d, e, f)
            if lhs != rhs:
                bad.append(f"d={d} e={e} f={f}: lhs={lhs} rhs={rhs}")
    return bad


def check_eq3(bound: int = 6) -> list[str]:
    """Exhaustive two-coordinate reduction check for v1, v2, y <= bound."""
    bad = []
    for v1, v2, y in product(range(bound + 1), repeat=3):
        lhs, rhs = eq3_sides(v1, v2, y)
        if lhs != rhs:
            bad.append(f"v1={v1} v2={v2} y={y}: lhs={lhs} rhs={rhs}")
    return bad


def check_children_partition(max_n: int = 8) -> list[str]:
    """Children of the all-ones polytope points one dimension down must tile
    the polytope exactly, each child recovering its parent."""
    bad = []
    for n in range(1, max_n + 1):
        points = set(enumerate_polytope((1,) * n))
        if n == 1:
            for x in points:
                if parent(x) != ():
                    bad.append(f"n=1: parent({x}) != ()")
            continue
        owner: dict[Point, Point] = {}
        for y in enumerate_polytope((1,) * (n - 1)):
            for child in children(y).children:
                if parent(child) != y:
                    bad.append(f"parent({child}) != {y}")
                if child in owner:
                    bad.append(f"{child} is a child of both {owner[child]} and {y}")
                owner[child] = y
        if set(owner) != points:
            missing = points - set(owner)
            extra = set(owner) - points
            bad.append(f"n={n}: tiling is off ({len(missing)} missing, {len(extra)} extra)")
    return bad


def check_parent_child_box(max_entry: int = 6, max_len: int = 6) -> list[str]:
    """parent(children(y)) == y for every y with bounded entries and length."""
    bad = []
    for k in range(1, max_len + 1):
        for y in product(range(max_entry + 1), repeat=k):
            for child in children(y).children:
                if parent(child) != y:
                    bad.append(f"parent({child}) != {y}")
    return bad


def cross_engine_paths(seed: int) -> Iterator[Heights]:
    """Every path with n <= 5 and heights <= 5, then 60 random ones with n <= 9."""
    for n in range(6):
        yield from combinations_with_replacement(range(6), n)
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(0, 9)
        yield tuple(sorted(rng.randint(0, 40) for _ in range(n)))


def check_cross_engine(seed: int = 0) -> list[str]:
    """All five engines must give the same count on each of :func:`cross_engine_paths`.

    Those paths have n <= 9 and heights <= 40, inside every engine's cap, so
    no engine refuses one.
    """
    bad = []
    for p in cross_engine_paths(seed):
        values = {engine: count(p, engine) for engine in ENGINES}
        if len(set(values.values())) > 1:
            bad.append(f"p={p}: {values}")
    return bad


def check_macmahon(bound: int = 5) -> list[str]:
    """MacMahon's closed form against the path-by-path sum for n, m <= bound."""
    bad = []
    for n, m in product(range(bound + 1), repeat=2):
        got, want = macmahon_bruteforce(n, m), macmahon_total(n, m)
        if got != want:
            bad.append(f"n={n} m={m}: brute force {got} != closed form {want}")
    return bad


def check_det_identity(max_n: int = 6, trials: int = 100, seed: int = 0) -> list[str]:
    """The symbolic determinant identity at ``trials`` random points per n <= max_n."""
    return [
        f"determinant identity failed at n = {n}"
        for n in range(max_n + 1)
        if not verify_det_identity(n, trials, seed=seed * 31 + n)
    ]


# verify suite name -> check(seed) -> (counterexamples, summary of a pass)
CHECKS: dict[str, Callable[[int], tuple[list[str], str]]] = {
    "cross-engine": lambda seed: (
        check_cross_engine(seed), f"{len(list(cross_engine_paths(seed)))} paths agree across all engines"),
    "macmahon": lambda seed: (
        check_macmahon(5), "aggregate matches the closed form for all endpoints up to (5, 5)"),
    "lemma": lambda seed: (
        check_lemma(20) + check_telescoping(20), "9261 triples agree (both sides, closed form, telescoping)"),
    "vandermonde": lambda seed: (
        check_vandermonde(20), "all d, e <= 20 with f <= e + 1 agree"),
    "children": lambda seed: (
        check_children_partition(8) + check_parent_child_box(6, 6),
        "children tile every polytope up to n = 8 and parent inverts them"),
    "det-identity": lambda seed: (
        check_det_identity(6, 100, seed), "determinant equals the rising-factorial sum at 100 random points per n <= 6"),
    "eq3": lambda seed: (
        check_eq3(6), "two-coordinate reduction agrees for all v1, v2, y <= 6"),
}
