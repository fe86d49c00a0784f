"""Symbolic restricted-path counts in the rising-factorial basis.

For a path of length n the count is a polynomial in the difference entries
v_1, ..., v_n with one term per lattice point x of the all-ones polytope:
the term carries coefficient prod_i 1/x_i! and the rising-factorial product
prod_i v_{n+1-i}^(x_i).  Stored exponent tuples ARE the lattice points, so
position i of a tuple belongs to variable v_{n+1-i}; this reversal lives in
exactly two places (:func:`evaluate` and :func:`expand`).  Monomial-basis
expansions store exponents in natural v_1..v_n order instead.
"""

from __future__ import annotations

from itertools import chain, product
from math import lcm, prod
from operator import lt
from typing import NamedTuple

from .counting import CapacityError, enumerate_polytope
from .exactmath import catalan, factorial, rising_factorial
from .paths import Diffs, as_integers

# largest n that symbolic_lp expands: C_13 = 742 900 stored terms, about 300 MB
SYMBOLIC_CAP = 12

__all__ = [
    "MonomialPolynomial",
    "RFPolynomial",
    "RFTerm",
    "check_nvars",
    "evaluate",
    "expand",
    "serialize",
    "symbolic_lp",
    "term_items",
]


def _check_exponents(exps, nvars: int) -> None:
    """Refuse an exponent tuple that does not have ``nvars`` entries or has a negative one."""
    for e in exps:
        if len(e) != nvars:
            raise ValueError(f"exponent tuple {e} does not have {nvars} entries")
    if min(chain.from_iterable(exps), default=0) < 0:  # one scan; a per-tuple min costs more
        raise ValueError(f"exponent tuple {min(exps, key=min)} has a negative entry")


class RFTerm(NamedTuple):
    """One rising-factorial term: coeff * prod_i v_{n+1-i}^(exponents[i])."""

    coeff: Fraction
    exponents: tuple[int, ...]


class RFPolynomial(NamedTuple("_RFFields", [("terms", "tuple[RFTerm, ...]"), ("nvars", int)])):
    """Rising-factorial terms in lexicographic exponent order, all distinct and nonnegative."""

    __slots__ = ()

    def __new__(cls, terms: tuple[RFTerm, ...], nvars: int):
        exps = [t.exponents for t in terms]
        if not all(map(lt, exps, exps[1:])):
            raise ValueError("terms must be lexicographically sorted and distinct")
        _check_exponents(exps, nvars)
        return super().__new__(cls, terms, nvars)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here; keep the checks
        return cls(*iterable)


class MonomialPolynomial(
    NamedTuple("_MonomialFields", [("coeffs", "dict[tuple[int, ...], Fraction]"), ("nvars", int)])
):
    """Map from natural-order exponent tuples to nonzero rational coefficients.

    Every tuple has ``nvars`` nonnegative entries.  ``coeffs`` is a plain dict,
    checked once here: it must not be changed after construction.
    """

    __slots__ = ()

    def __new__(cls, coeffs: dict[tuple[int, ...], Fraction], nvars: int):
        _check_exponents(coeffs, nvars)
        return super().__new__(cls, coeffs, nvars)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here; keep the checks
        return cls(*iterable)


def check_nvars(n: int) -> None:
    """Refuse a variable count ``symbolic_lp`` would not expand."""
    if n < 0:
        raise ValueError(f"variable count {n} is negative")
    if n > SYMBOLIC_CAP:
        raise CapacityError(f"symbolic expansion capacity exceeded: n = {n} is over the cap {SYMBOLIC_CAP}")


def symbolic_lp(n: int) -> RFPolynomial:
    """The count below a length-n path as a rising-factorial polynomial.

    One term per lattice point x of the all-ones polytope, coefficient
    prod_i 1/x_i!; the term count is the Catalan number C_{n+1}.  Refuses
    n > ``SYMBOLIC_CAP`` before building any term.
    """
    from fractions import Fraction
    check_nvars(n)
    terms = []
    for x in enumerate_polytope((1,) * n):
        coeff = Fraction(1, prod(factorial(e) for e in x))
        terms.append(RFTerm(coeff, x))
    if len(terms) != catalan(n + 1):
        raise RuntimeError(f"{len(terms)} terms for n = {n}, expected the Catalan number C_{n + 1}")
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
    """Rewrite into the plain monomial basis, variables in natural v_1..v_n order."""
    from fractions import Fraction
    n = rf.nvars
    out: dict[tuple[int, ...], Fraction] = {}
    for term in rf.terms:
        # factor i acts on variable v_{n-i} (0-based); collect per-variable
        # univariate expansions in natural order
        per_var = [[1]] * n
        for i, m in enumerate(term.exponents):
            per_var[n - 1 - i] = _rf_coeffs(m)
        for degrees in product(*(range(len(c)) for c in per_var)):
            scale = 1
            for coeffs, d in zip(per_var, degrees):
                scale *= coeffs[d]
                if scale == 0:
                    break
            if scale == 0:
                continue
            out[degrees] = out.get(degrees, Fraction(0)) + term.coeff * scale
    pruned = {e: c for e, c in out.items() if c != 0}
    return MonomialPolynomial(pruned, n)


def evaluate(poly: RFPolynomial | MonomialPolynomial, v: Diffs) -> Fraction:
    """Exact value at the integer point ``v``, as a ``Fraction`` with denominator 1.

    Any integer point will do, negative entries included; a non-integer entry
    raises ``ValueError``.  The sum is taken over the integers: every
    coefficient's numerator is scaled to the lcm of the denominators, each
    variable multiplies in its factors column by column from a table of the
    exponents present in its column (rising factorials of the reversed ``v``
    for the rising-factorial basis, powers of ``v`` for the monomial one), and
    one division ends it.  These polynomials take integer values at integer
    points; a non-integer value raises ``ArithmeticError``.  Both bases
    refuse a negative exponent, or a tuple of the wrong length, when built.
    """
    from fractions import Fraction
    v = as_integers(v, "value")
    if len(v) != poly.nvars:
        raise ValueError(f"expected {poly.nvars} values, got {len(v)}")
    if isinstance(poly, RFPolynomial):
        exps = [t.exponents for t in poly.terms]
        coeffs = [t.coeff for t in poly.terms]
        bases, power = v[::-1], rising_factorial
    else:
        exps = list(poly.coeffs)
        coeffs = list(poly.coeffs.values())
        bases, power = v, pow
    dens = [c.denominator for c in coeffs]
    common = lcm(*set(dens))
    scale = {d: common // d for d in set(dens)}
    # one iterator per factor of a term's integer summand, zipped and multiplied term by term
    factors = []
    for base, column in zip(bases, zip(*exps)):
        table = {e: power(base, e) for e in set(column)}
        factors.append(map(table.__getitem__, column))
    factors += [map(scale.__getitem__, dens), [c.numerator for c in coeffs]]
    total = Fraction(sum(map(prod, zip(*factors))), common)
    if total.denominator != 1:
        raise ArithmeticError(f"count polynomial evaluated to the non-integer {total}")
    return total


def term_items(poly: RFPolynomial | MonomialPolynomial) -> list[tuple[tuple[int, ...], Fraction]]:
    """The ``(exponents, coeff)`` pairs of ``poly`` in lexicographic exponent order."""
    if isinstance(poly, RFPolynomial):
        return [(t.exponents, t.coeff) for t in poly.terms]
    return sorted(poly.coeffs.items())


def serialize(poly: RFPolynomial | MonomialPolynomial) -> str:
    """Stable text form: one term per line, ``num/den  e1,e2,...,en``."""
    lines = []
    for exps, coeff in term_items(poly):
        tail = ",".join(str(e) for e in exps)
        lines.append(f"{coeff.numerator}/{coeff.denominator}  {tail}".rstrip())
    return "\n".join(lines)
