"""Symbolic restricted-path counts in the rising-factorial basis.

For a path of length n the count is a polynomial in the difference entries
v_1, ..., v_n with one term per lattice point x of the all-ones polytope:
the term carries coefficient prod_i 1/x_i! and the rising-factorial product
prod_i v_{n+1-i}^(x_i).  Stored exponent tuples ARE the lattice points, so
position i of a tuple belongs to variable v_{n+1-i}; this reversal lives in
exactly two places (:func:`evaluate` and :func:`expand`).  Monomial-basis
expansions store exponents in natural v_1..v_n order instead.  Every prefix
of a lattice point is a lattice point one dimension down, so the terms form
a prefix tree with C_2, ..., C_{n+1} nodes per level, and :func:`evaluate`
runs Horner's rule on it: one product per node, not n + 1 per term.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from itertools import chain, compress, count, product
from math import lcm, prod
from operator import itemgetter, lt, mul, ne
from types import MappingProxyType
from typing import NamedTuple

from .counting import CapacityError, enumerate_polytope
from .exactmath import factorial, rising_factorial
from .paths import Diffs, _shown, as_integers, as_nonnegative

# largest n that symbolic_lp expands: C_13 = 742 900 stored terms, about 300 MB
SYMBOLIC_CAP = 12

__all__ = [
    "MonomialPolynomial",
    "RFPolynomial",
    "RFTerm",
    "evaluate",
    "expand",
    "serialize",
    "symbolic_lp",
]


def _check_terms(exps, coeffs, nvars: int) -> int:
    """Refuse terms a polynomial cannot hold; return ``nvars`` as an int.

    ``nvars`` must be a nonnegative integer, with no cap: a record built by hand
    may hold more variables than ``symbolic_lp`` expands.  Every exponent tuple
    must be a ``tuple`` of ``nvars`` nonnegative ints (a list could change under
    the cached form), and every coefficient an ``int`` or a ``Fraction``.
    """
    from fractions import Fraction
    nvars = as_nonnegative(nvars, "variable count")
    for e in exps:
        if not isinstance(e, tuple):
            raise ValueError(f"exponents {_shown(e)} are not a tuple")
        if len(e) != nvars:
            raise ValueError(f"exponent tuple {_shown(e)} does not have {_shown(nvars)} entries")
    # each check is one scan in C over the types present; a per-entry test costs more
    if not all(issubclass(kind, int) for kind in set(map(type, chain.from_iterable(exps)))):
        bad = next(e for e in exps if not all(isinstance(x, int) for x in e))
        raise ValueError(f"exponent tuple {_shown(bad)} has an entry that is not an int")
    if min(chain.from_iterable(exps), default=0) < 0:
        raise ValueError(f"exponent tuple {_shown(min(exps, key=min))} has a negative entry")
    if not all(issubclass(kind, (int, Fraction)) for kind in set(map(type, coeffs))):
        bad = next(c for c in coeffs if not isinstance(c, (int, Fraction)))
        raise ValueError(f"coefficient {_shown(bad)} is not an int or a Fraction")
    return nvars


class RFTerm(NamedTuple):
    """One rising-factorial term: coeff * prod_i v_{n+1-i}^(exponents[i])."""

    coeff: Fraction
    exponents: tuple[int, ...]


class _Polynomial:
    """What both polynomial records share; listed before their fields class, so its ``_make`` wins."""

    # no __slots__ = (): the instance dict holds the cached _form, which cannot
    # go stale because every field is immutable

    @classmethod
    def _make(cls, iterable):  # _replace builds through here; keep the checks
        return cls(*iterable)

    def __getstate__(self):  # pickle and copy the fields only, never the cached form
        return None

    @cached_property
    def _form(self):  # built on the first evaluate (or expand), over the terms in lexicographic order
        exps, coeffs = list(zip(*term_items(self))) or ((), ())
        return _integer_form(exps, coeffs)


class RFPolynomial(_Polynomial, NamedTuple("_RFFields", [("terms", "tuple[RFTerm, ...]"), ("nvars", int)])):
    """Rising-factorial terms in lexicographic exponent order, all distinct and nonnegative."""

    def __new__(cls, terms: tuple[RFTerm, ...], nvars: int):
        terms = tuple(terms)  # a list would be unhashable and could change under the cached form
        try:  # no scan for the types on the way: only a refusal pays for finding the bad term
            exps, coeffs = [t.exponents for t in terms], [t.coeff for t in terms]
        except AttributeError:
            bad = next(t for t in terms if not (hasattr(t, "exponents") and hasattr(t, "coeff")))
            raise ValueError(f"term {_shown(bad)} is not an RFTerm") from None
        nvars = _check_terms(exps, coeffs, nvars)
        if not all(map(lt, exps, exps[1:])):
            raise ValueError("terms must be lexicographically sorted and distinct")
        return super().__new__(cls, terms, nvars)


class MonomialPolynomial(
    _Polynomial, NamedTuple("_MonomialFields", [("coeffs", "Mapping[tuple[int, ...], Fraction]"), ("nvars", int)])
):
    """Map from natural-order exponent tuples to nonzero rational coefficients.

    Every tuple has ``nvars`` nonnegative entries.  ``coeffs`` is built from any
    mapping and held as a read-only view (``types.MappingProxyType``) of a
    private copy, checked once here, so writing to it raises ``TypeError`` and
    the cached evaluation form cannot go stale.  It compares equal to a dict of
    the same items.
    """

    def __new__(cls, coeffs: Mapping[tuple[int, ...], Fraction], nvars: int):
        coeffs = MappingProxyType(dict(coeffs))
        nvars = _check_terms(coeffs, coeffs.values(), nvars)
        return super().__new__(cls, coeffs, nvars)

    def __reduce__(self):  # a mapping proxy cannot be pickled: rebuild from a copy, without the form
        return type(self), (dict(self.coeffs), self.nvars)


def _integer_form(
    exps, coeffs
) -> tuple[list[tuple[int, list[int], list[slice]]], int, list[int], list[set[int]]]:
    """What ``evaluate`` needs of the terms ``zip(exps, coeffs)``, ``exps`` sorted and distinct.

    Returns the prefix tree of the exponent tuples, the lcm of the coefficient
    denominators, each coefficient's numerator scaled to that lcm, and the set
    of exponents present in each level of the tree.  The tree is one level per
    column, from the last column up: the column index, the exponent at each
    node (a prefix ending in that column), and one ``slice`` per parent over
    its children.  The leaves are the terms.
    """
    dens = {c.denominator for c in coeffs}
    common = lcm(*dens)
    scale = {d: common // d for d in dens}
    numerators = [c.numerator * scale[c.denominator] for c in coeffs]
    levels, present = [], []
    for col in reversed(range(len(exps[0]) if exps else 0)):
        parents = list(map(itemgetter(slice(col)), exps))
        # a node opens its parent's run of children where its prefix differs from the node before
        starts = list(compress(count(), map(ne, parents, [None, *parents])))
        exponents = [e[col] for e in exps]
        levels.append((col, exponents, list(map(slice, starts, [*starts[1:], len(exps)]))))
        present.append(set(exponents))
        exps = [parents[i] for i in starts]
    return levels, common, numerators, present


def check_nvars(n: int) -> int:
    """Return ``n`` as an int, refusing a variable count ``symbolic_lp`` would not expand."""
    n = as_nonnegative(n, "variable count")
    if n > SYMBOLIC_CAP:
        raise CapacityError(f"symbolic expansion capacity exceeded: n = {_shown(n)} is over the cap {SYMBOLIC_CAP}")
    return n


def symbolic_lp(n: int) -> RFPolynomial:
    """The count below a length-n path as a rising-factorial polynomial.

    One term per lattice point x of the all-ones polytope, coefficient
    prod_i 1/x_i!; the term count is the Catalan number C_{n+1}.  Refuses
    n > ``SYMBOLIC_CAP`` before building any term.
    """
    from fractions import Fraction
    n = check_nvars(n)
    shared: dict[int, Fraction] = {}  # one Fraction per denominator: 27 of them for the 16 796 terms at n = 9
    terms = []
    for x in enumerate_polytope((1,) * n):
        den = prod(map(factorial, x))
        if den not in shared:
            shared[den] = Fraction(1, den)
        terms.append(RFTerm(shared[den], x))
    return RFPolynomial(tuple(terms), n)


def _rf_coeffs(m: int) -> list[int]:
    """Coefficients, by degree, of a(a+1)...(a+m-1) as a polynomial in a."""
    coeffs = [1]
    for t in range(m):
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] += c
            nxt[d] += t * c
        coeffs = nxt
    return coeffs


def expand(rf: RFPolynomial) -> MonomialPolynomial:
    """Rewrite into the plain monomial basis, variables in natural v_1..v_n order.

    The sum is taken over the integers: each term's numerator scaled to the
    lcm of the denominators, one ``Fraction`` per monomial at the end.
    """
    from fractions import Fraction
    if not isinstance(rf, RFPolynomial):
        raise ValueError(f"polynomial {_shown(rf)} is not an RFPolynomial")
    _, common, numerators, present = rf._form
    # the degrees and the coefficients of the nonzero entries of _rf_coeffs(m), for each exponent m present
    nonzero = {}
    for m in set().union(*present):
        c = _rf_coeffs(m)
        nonzero[m] = [d for d in range(m + 1) if c[d]], [x for x in c if x]
    out: dict[tuple[int, ...], int] = {}
    for term, num in zip(rf.terms, numerators):
        # factor i acts on variable v_{n-i} (0-based), so the reversed
        # exponents give the per-variable expansions in natural order
        per_var = [nonzero[m] for m in reversed(term.exponents)]
        for e, f in zip(product(*[d for d, _ in per_var]), product(*[c for _, c in per_var])):
            out[e] = out.get(e, 0) + num * prod(f)
    return MonomialPolynomial({e: Fraction(c, common) for e, c in out.items() if c}, rf.nvars)


def evaluate(poly: RFPolynomial | MonomialPolynomial, v: Diffs) -> Fraction:
    """Exact value at the integer point ``v``, as a ``Fraction`` with denominator 1.

    Any integer point will do, negative entries included; a non-integer entry
    raises ``ValueError``.  The sum is taken over the integers by Horner's rule
    on the prefix tree of the sorted exponent tuples (see ``_integer_form``):
    the leaves start as the coefficient numerators scaled to the lcm of the
    denominators; from the last column up, each node multiplies in its factor,
    from a table of the exponents present in that column (rising factorials
    of the reversed ``v`` for the rising-factorial basis, powers of ``v`` for
    the monomial one), and each parent takes the sum of its children; one
    division ends it.  The tree, the lcm, the scaled numerators and each
    level's exponent set are built once per polynomial and cached in its
    ``_form``, from ``term_items`` (on an ``RFPolynomial``'s first evaluation
    or expansion, on a ``MonomialPolynomial``'s first evaluation).
    These polynomials take integer values at integer points; a non-integer
    value raises ``ArithmeticError``.  Both bases refuse a negative exponent,
    or a tuple of the wrong length, when built.
    """
    from fractions import Fraction
    v = as_integers(v, "value")
    if isinstance(poly, RFPolynomial):
        bases, power = v[::-1], rising_factorial
    elif isinstance(poly, MonomialPolynomial):
        bases, power = v, pow
    else:
        raise ValueError(f"polynomial {_shown(poly)} is not an RFPolynomial or a MonomialPolynomial")
    if len(v) != poly.nvars:
        raise ValueError(f"expected {poly.nvars} values, got {len(v)}")
    levels, common, values, present = poly._form
    # Horner's rule on the prefix tree: each node multiplies in its factor, each parent sums its children
    for (col, exponents, slices), distinct in zip(levels, present):
        table = {e: power(bases[col], e) for e in distinct}
        values = list(map(mul, values, map(table.__getitem__, exponents)))
        values = list(map(sum, map(values.__getitem__, slices)))
    total = Fraction(sum(values), common)
    if total.denominator != 1:
        raise ArithmeticError(f"count polynomial evaluated to the non-integer {total}")
    return total


def term_items(poly: RFPolynomial | MonomialPolynomial) -> list[tuple[tuple[int, ...], Fraction]]:
    """The ``(exponents, coeff)`` pairs of ``poly`` in lexicographic exponent order."""
    if isinstance(poly, RFPolynomial):
        return [(t.exponents, t.coeff) for t in poly.terms]
    if isinstance(poly, MonomialPolynomial):
        return sorted(poly.coeffs.items(), key=itemgetter(0))  # the keys are distinct: no coefficient is compared
    raise ValueError(f"polynomial {_shown(poly)} is not an RFPolynomial or a MonomialPolynomial")


class _Text(dict):
    """A table from a value to its ``str``, each text made on the first lookup."""

    __slots__ = ()

    def __missing__(self, key):
        text = self[key] = str(key)
        return text


def serialize(poly: RFPolynomial | MonomialPolynomial) -> str:
    """Stable text form: one term per line, ``num/den  e1,e2,...,en``.

    Each distinct exponent and each distinct coefficient object is turned into
    text once per call: exponents through a ``_Text`` table, so a tuple's text
    is one ``map`` in C, and coefficients keyed by ``id``, which stays unique
    while ``poly`` holds every coefficient (``Fraction.__hash__`` runs in Python
    and costs more than the text it would save).
    """
    exponent_text, coeff_text, lines = _Text(), {}, []
    for exps, coeff in term_items(poly):
        head = coeff_text.get(id(coeff))
        if head is None:
            head = coeff_text[id(coeff)] = f"{coeff.numerator}/{coeff.denominator}  "
        lines.append((head + ",".join(map(exponent_text.__getitem__, exps))).rstrip())
    return "\n".join(lines)
