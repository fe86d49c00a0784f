"""Children/parent correspondence and the binomial identity suite."""

from __future__ import annotations

from itertools import product

from pathcount.counting import enumerate_polytope
from pathcount.exactmath import binom
from pathcount.identities import (
    CHECKS,
    ChildSet,
    children,
    children_points,
    disagreements,
    eq3_sides,
    lemma_closed,
    lemma_lhs,
    lemma_rhs,
    parent,
    telescoped_sum,
    vandermonde_gen,
)


def test_children_examples():
    assert children((0, 3, 2)).children == (
        (0, 3, 2, 0),
        (0, 3, 2, 1),
        (0, 3, 1, 2),
        (0, 3, 0, 3),
    )
    assert children((0,)).children == ((0, 0), (0, 1))
    assert children((2,)).children == ((2, 0), (2, 1), (1, 2), (0, 3))


def test_children_size_and_parent_field():
    for y in [(0,), (4,), (1, 3), (2, 0, 5)]:
        cs = children(y)
        assert cs.parent == y
        assert len(cs.children) == y[-1] + 2
        assert len(set(cs.children)) == len(cs.children)


def children_oracle(y):
    """Reference child set: the zero-extended point, then the kids as one comprehension."""
    y = tuple(y)
    head, last = y[:-1], y[-1]
    return ChildSet(y, (y + (0,), *[head + (last - i, i + 1) for i in range(last + 1)]))


def test_children_matches_the_oracle_on_the_verify_box():
    # every point verify checks, in the same order; every seventh also as a list
    for index, y in enumerate(children_points()):
        expected = children_oracle(y)
        assert children(y) == expected, y
        if index % 7 == 0:
            got = children(list(y))
            assert got == expected and type(got.parent) is tuple, y


def test_children_points_are_the_box_and_every_polytope_point_once():
    points = list(children_points())
    assert len(points) == 138_686 == len(set(points))
    assert set(points).issuperset(x for n in range(1, 8) for x in enumerate_polytope((1,) * n))


def test_children_returns_a_child_set():
    cs = children([2, 1])
    assert type(cs) is ChildSet
    assert cs.parent == (2, 1) and cs.children == ((2, 1, 0), (2, 1, 1), (2, 0, 2))
    replaced = cs._replace(children=())
    assert type(replaced) is ChildSet and replaced == ((2, 1), ())


def test_parent_examples():
    assert parent((0, 3, 1, 2)) == (0, 3, 2)
    assert parent((0, 3, 2, 0)) == (0, 3, 2)
    assert parent((5,)) == ()
    assert parent((0,)) == ()


def test_parent_takes_lists_and_tuples_as_children_does():
    for x, expected in (((1, 2), (2,)), ((3, 0), (3,)), ((0, 3, 1, 2), (0, 3, 2)), ((4,), ())):
        for arg in (x, list(x)):
            got = parent(arg)
            assert type(got) is tuple and got == expected
    for y in ((0,), (2,), (1, 3)):
        assert all(parent(list(x)) == y for x in children(list(y)).children)


def test_partition_counts_add_up():
    # sizes of the child sets over one level must sum to the next level's count
    for n in range(2, 7):
        level = list(enumerate_polytope((1,) * (n - 1)))
        total = sum(len(children(y).children) for y in level)
        assert total == sum(1 for _ in enumerate_polytope((1,) * n))


def test_disagreements_names_each_point_whose_sides_differ():
    def sides(a, b):
        return a + b, b + a, 2 * a

    assert disagreements([(1, 1), (1, 2), (0, 0), (3, 0)], sides) == ["(1, 2): (3, 3, 2)", "(3, 0): (3, 3, 6)"]
    assert disagreements([(4,), (5,)], lambda x: (x,)) == []
    assert disagreements([], sides) == []


def test_lemma_spot_values():
    assert lemma_lhs(1, 1, 1) == 2
    assert lemma_rhs(1, 1, 1) == 2
    assert lemma_closed(1, 1, 1) == 2
    assert lemma_lhs(2, 1, 0) == 2
    assert lemma_rhs(2, 1, 0) == 2
    for b in range(5):
        for c in range(5):
            assert lemma_lhs(0, b, c) == 0
            assert lemma_rhs(0, b, c) == 0
            assert lemma_closed(0, b, c) == 0
    for a in range(6):
        assert lemma_closed(a, 0, 0) == a


def test_lemma_exhaustive():
    # both sides, the closed form and the telescoped sum over [0, 20]^3
    assert CHECKS["lemma"](0)[0] == []


def test_telescoping():
    for a in range(8):
        for b in range(8):
            for c in range(8):
                assert telescoped_sum(a, b, c) == lemma_closed(a, b, c)


def test_vandermonde_spot_values():
    for e in range(6):
        for f in range(e + 2):
            lhs, rhs = vandermonde_gen(0, e, f)
            assert lhs == rhs == binom(e + 1, f)
    for d in range(6):
        for e in range(6):
            assert vandermonde_gen(d, e, 0) == (1, 1)
    assert vandermonde_gen(1, 2, 2) == (6, 6)


def test_vandermonde_exhaustive():
    assert CHECKS["vandermonde"](0)[0] == []


def test_eq3_spot_and_exhaustive():
    lhs, rhs = eq3_sides(1, 1, 1)
    assert lhs == rhs
    assert CHECKS["eq3"](0)[0] == []


def test_eq3_reduction_matches_direct_expansion():
    # rebuild the left side without the children helper
    for v1, v2, y in product(range(4), repeat=3):
        direct = binom(v2 + y - 1, y) * binom(v1 - 1, 0) + sum(
            binom(v2 + (y - i) - 1, y - i) * binom(v1 + i, i + 1) for i in range(y + 1)
        )
        assert direct == eq3_sides(v1, v2, y)[0]
