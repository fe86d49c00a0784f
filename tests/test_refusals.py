"""Every refusal the library and the CLI make, with its exact type or exit code and its text.

Each row of ``LIBRARY_REFUSALS`` is a call, written as the expression it evaluates, the exact
exception type it raises (not a subclass) and the exception's full message.  Each row of
``CLI_REFUSALS`` is an argv for ``cli.main``, the exit code and the last line of stderr: whole
where pathcount words that line, a fragment where argparse does.  A refusal checked only under a
patched cap, in a capped child process or under a lowered interpreter digit limit is tested
where that setting is made.  A library test elsewhere that is named after what several rows
share runs those rows through ``check_refusals``; it states no row of its own.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

import pytest

import pathcount
from pathcount import cli, counting
from pathcount.counting import ENGINES, CapacityError
from pathcount.paths import validate_diffs

# what a call may name: the package, its private kernels through counting, and F for Fraction
NAMESPACE = {
    **vars(pathcount), "counting": counting, "validate_diffs": validate_diffs, "F": Fraction, "Fraction": Fraction,
}

NOT_SORTED = "terms must be lexicographically sorted and distinct"
NONDECREASING = "heights must be nondecreasing (found {} followed by {})"
UNKNOWN_ENGINE = "unknown engine {}; expected one of: recurrence, determinant, triangular, theorem, dp"
COLUMN = "{} engine capacity exceeded: a column of {} integers is over the cap 10000000"
SYMBOLIC_OVER_CAP = "symbolic expansion capacity exceeded: n = {} is over the cap 12"
BIG = "10000000000000000000..."  # what _shown keeps of 10**5000; the negative keeps one digit less
NEG_BIG = "-1000000000000000000..."

LIBRARY_REFUSALS = [
    # paths
    ("word_to_heights('ENX')", ValueError, "invalid step 'X' (expected E or N)"),
    ("heights_to_word((0, 3), 2)", ValueError, "terminal height 2 is below the last height 3"),
    ("heights_to_word((), -1)", ValueError, "terminal height -1 is below the last height 0"),
    ("heights_to_word((10**5000,), 1)", ValueError, f"terminal height 1 is below the last height {BIG}"),
    ("heights_to_word((1,), 2.5)", ValueError, "terminal height 2.5 is not an integer"),
    ("heights_to_word((1,), '3')", ValueError, "terminal height '3' is not an integer"),
    ("is_restricted_by((0,), (0, 1))", ValueError, "cannot compare paths of lengths 1 and 2"),
    ("in_polytope((1,), (1, 2))", ValueError, "cannot compare tuples of lengths 1 and 2"),
    ("validate_heights((1, 0))", ValueError, NONDECREASING.format(1, 0)),
    ("validate_heights((2, 1))", ValueError, NONDECREASING.format(2, 1)),
    ("validate_heights((True, False))", ValueError, NONDECREASING.format(1, 0)),
    ("validate_heights((-1,))", ValueError, "height -1 is negative"),
    ("validate_heights((0, -1))", ValueError, "height -1 is negative"),
    ("validate_heights((2, -3))", ValueError, "height -3 is negative"),
    ("validate_heights((0, 1.5))", ValueError, "height 1.5 is not an integer"),
    ("validate_heights((0.0,))", ValueError, "height 0.0 is not an integer"),
    ("validate_heights(('1',))", ValueError, "height '1' is not an integer"),
    ("validate_heights([1, 2.0])", ValueError, "height 2.0 is not an integer"),
    ("validate_diffs((0, 1.5))", ValueError, "difference 1.5 is not an integer"),
    ("validate_diffs((0.0,))", ValueError, "difference 0.0 is not an integer"),
    ("validate_diffs(('1',))", ValueError, "difference '1' is not an integer"),
    ("validate_diffs(iter([1, 2.0]))", ValueError, "difference 2.0 is not an integer"),
    ("validate_diffs((1, -1))", ValueError, "difference -1 is negative"),
    ("validate_diffs((1, -10**5000))", ValueError, f"difference {NEG_BIG} is negative"),
    ("parse_path_spec('h:1,x')", ValueError, "h: entry 2 is not an integer: 'x'"),
    ("parse_path_spec('h:1__2')", ValueError, "h: entry 1 is not an integer: '1__2'"),
    ("parse_path_spec('h:+-3')", ValueError, "h: entry 1 is not an integer: '+-3'"),
    ("parse_path_spec('h: 1_2_')", ValueError, "h: entry 1 is not an integer: ' 1_2_'"),
    ("parse_path_spec('h:2,1')", ValueError, NONDECREASING.format(2, 1)),
    ("parse_path_spec('h:-1')", ValueError, "height -1 is negative"),
    ("parse_path_spec('d:1,-2')", ValueError, "difference -2 is negative"),
    ("parse_path_spec('w:ENQ')", ValueError, "invalid step 'Q' (expected E or N)"),
    ("parse_path_spec('1,2,3')", ValueError, "path spec '1,2,3' must start with w:, h:, or d:"),
    ("parse_path_spec('x:1')", ValueError, "path spec 'x:1' must start with w:, h:, or d:"),
    # exactmath: binom keeps math.comb's TypeError for a non-int argument, whatever k is
    *((f"binom{n, k}", TypeError, "'float' object cannot be interpreted as an integer")
      for n, k in ((2.5, 0), (2.5, -1), (2.5, 1), (0.5, 1), (3, 1.5), (2, -0.5))),
    ("binom(F(4), 0)", TypeError, "'Fraction' object cannot be interpreted as an integer"),
    ("binom(-10**5000, 3)", ValueError, f"binom({NEG_BIG}, 3): n <= -2 with k >= 1 is outside the supported domain"),
    ("rising_factorial(2, -1)", ValueError, "rising factorial length -1 is negative"),
    ("rising_factorial(1, -10**5000)", ValueError, f"rising factorial length {NEG_BIG} is negative"),
    ("rising_factorial(2, '3')", ValueError, "rising factorial length '3' is not an integer"),
    ("rising_factorial(2.5, 2)", ValueError, "rising factorial base 2.5 is not an integer"),
    ("catalan(-1)", ValueError, "Catalan index -1 is negative"),
    ("catalan(-10**5000)", ValueError, f"Catalan index {NEG_BIG} is negative"),
    ("catalan('3')", ValueError, "Catalan index '3' is not an integer"),
    ("det_int([[1, 2]])", ValueError, "matrix is not square"),
    # rational entries break Sylvester's guarantee: the inexact division is refused, not truncated
    *((f"det_int({a})", ArithmeticError, "fraction-free elimination hit an inexact division")
      for a in ("[[1, 0], [1, F(1, 2)]]", "[[1, 1], [0, F(1, 3)]]", "[[2, 0, 0], [0, F(1, 3), 1], [0, 0, 1]]")),
    # counting: count checks the path before any engine sees it
    *((f"count({p}, {engine!r})", ValueError, message) for engine in ENGINES for p, message in (
        ("(3, 1)", NONDECREASING.format(3, 1)),
        ("(-1,)", "height -1 is negative"),
        ("(1.5, 2.0)", "height 1.5 is not an integer"),
        ("(1, 2.0)", "height 2.0 is not an integer"),
        ("(F(1), 2)", "height Fraction(1, 1) is not an integer"),
        ("('1', 2)", "height '1' is not an integer"),
    )),
    ("count((-10**5000,), 'dp')", ValueError, f"height {NEG_BIG} is negative"),
    ("count((10**5000, 1), 'dp')", ValueError, NONDECREASING.format(BIG, 1)),
    ("count((10**5001, 10**5000), 'dp')", ValueError, NONDECREASING.format(BIG, BIG)),
    ("count(('7' * 5000,), 'dp')", ValueError, "height '77777777777777777777'... is not an integer"),
    ("count((F(10**5000, 3),), 'dp')", ValueError, "height Fraction(...) is not an integer"),
    # an engine name that is not a string, or not a dict key, is refused the same way
    ("count((1,), 'magic')", ValueError, UNKNOWN_ENGINE.format("'magic'")),
    ("count((1,), 'x' * 300)", ValueError, UNKNOWN_ENGINE.format("'xxxxxxxxxxxxxxxxxxxx'...")),
    ("count((1,), ['dp'])", ValueError, UNKNOWN_ENGINE.format("['dp']")),
    ("count((1,), {})", ValueError, UNKNOWN_ENGINE.format("{}")),
    # dp builds a column of p_n + 1 heights, recurrence one of p_(n-1) + 1; a length past len() is refused too
    ("count((10**5000,), 'dp')", CapacityError, COLUMN.format("dp", BIG)),
    ("count((10**5000,) * 2, 'recurrence')", CapacityError, COLUMN.format("recurrence", BIG)),
    ("counting.count_recurrence((10**9, 10**9 + 1))", CapacityError, COLUMN.format("recurrence", 1000000001)),
    ("counting.count_recurrence((10**30, 10**30 + 1))", CapacityError, COLUMN.format("recurrence", BIG)),
    ("counting.count_theorem(tuple(range(1, 16)))", CapacityError,
     "theorem engine capacity exceeded: n = 15 is over the cap 14"),
    ("list(enumerate_polytope((2, -1)))", ValueError, "difference -1 is negative"),
    ("list(enumerate_polytope((0.5, 1)))", ValueError, "difference 0.5 is not an integer"),
    # enumerate_restricted is lazy: the path is checked when the first one is asked for
    ("next(enumerate_restricted((3, 1)))", ValueError, NONDECREASING.format(3, 1)),
    ("list(enumerate_restricted((1.5,)))", ValueError, "height 1.5 is not an integer"),
    ("list(enumerate_restricted((-1, 2)))", ValueError, "height -1 is negative"),
    *((f"{aggregate}{n, m}", ValueError, f"endpoint {n, m} has a negative coordinate")
      for n, m in ((2, -1), (0, -3), (-1, 2)) for aggregate in ("macmahon_total", "macmahon_bruteforce")),
    ("macmahon_total(-10**5000, 1)", ValueError, f"endpoint ({NEG_BIG}, 1) has a negative coordinate"),
    ("macmahon_bruteforce(1, -10**5000)", ValueError, f"endpoint (1, {NEG_BIG}) has a negative coordinate"),
    ("macmahon_total(1.5, 2)", ValueError, "endpoint coordinate 1.5 is not an integer"),
    ("macmahon_bruteforce(2, 1.5)", ValueError, "endpoint coordinate 1.5 is not an integer"),
    # symbolic
    ("symbolic_lp(13)", CapacityError, SYMBOLIC_OVER_CAP.format(13)),
    ("symbolic_lp(15)", CapacityError, SYMBOLIC_OVER_CAP.format(15)),
    ("symbolic_lp(10**5000)", CapacityError, SYMBOLIC_OVER_CAP.format(BIG)),
    ("symbolic_lp(-1)", ValueError, "variable count -1 is negative"),
    ("symbolic_lp(-10**5000)", ValueError, f"variable count {NEG_BIG} is negative"),
    ("symbolic_lp(2.0)", ValueError, "variable count 2.0 is not an integer"),
    ("symbolic_lp('7' * 5000)", ValueError, "variable count '77777777777777777777'... is not an integer"),
    ("RFPolynomial((RFTerm(F(1), (1,)), RFTerm(F(1), (0,))), 1)", ValueError, NOT_SORTED),
    ("RFPolynomial((RFTerm(F(1), (0,)), RFTerm(F(1), (0,))), 1)", ValueError, NOT_SORTED),
    ("RFPolynomial((RFTerm(F(1), (0, 0)),), 1)", ValueError, "exponent tuple (0, 0) does not have 1 entries"),
    ("symbolic_lp(4)._replace(terms=symbolic_lp(4).terms[::-1])", ValueError, NOT_SORTED),
    # nvars is checked with no cap, before any term, so an empty polynomial cannot hold a bad one
    ("RFPolynomial((), None)", ValueError, "variable count None is not an integer"),
    ("RFPolynomial((), 2.5)", ValueError, "variable count 2.5 is not an integer"),
    ("MonomialPolynomial({}, -1)", ValueError, "variable count -1 is negative"),
    ("MonomialPolynomial({(1,): 1}, None)", ValueError, "variable count None is not an integer"),
    # a tuple of the wrong length is refused, where evaluate would zip it down to the shorter one
    ("evaluate(MonomialPolynomial({(1,): F(1), (1, 2): F(1)}, 2), (3, 5))", ValueError,
     "exponent tuple (1,) does not have 2 entries"),
    ("evaluate(MonomialPolynomial({(1, 2, 7): F(1)}, 2), (3, 5))", ValueError,
     "exponent tuple (1, 2, 7) does not have 2 entries"),
    ("MonomialPolynomial({(1, 2): F(1)}, 2)._replace(nvars=3)", ValueError,
     "exponent tuple (1, 2) does not have 3 entries"),
    ("RFPolynomial((RFTerm(1, (10**5000, 1)),), 1)", ValueError,
     "exponent tuple (1000000000000000000... does not have 1 entries"),
    # rising-factorial basis: refused where the polynomial is built, so evaluate and expand never see it
    *((f"RFPolynomial((RFTerm(F(1), {e}),), {len(e)})", ValueError, f"exponent tuple {e} has a negative entry")
      for e in ((-1,), (0, -2), (3, 1, -1))),
    ("expand(RFPolynomial((RFTerm(F(1), (-1,)),), 1))", ValueError, "exponent tuple (-1,) has a negative entry"),
    ("evaluate(RFPolynomial((RFTerm(F(1), (-1,)), RFTerm(F(1), (0,))), 1), (2,))", ValueError,
     "exponent tuple (-1,) has a negative entry"),
    ("RFPolynomial((RFTerm(1, (-10**5000,)),), 1)", ValueError,
     "exponent tuple (-100000000000000000... has a negative entry"),
    ("evaluate(MonomialPolynomial({(-1,): F(1)}, 1), (2,))", ValueError, "exponent tuple (-1,) has a negative entry"),
    ("evaluate(MonomialPolynomial({(0, 0): F(1), (2, -3): F(5)}, 2), (2, 1))", ValueError,
     "exponent tuple (2, -3) has a negative entry"),
    ("MonomialPolynomial({(-10**5000,): 1}, 1)", ValueError,
     "exponent tuple (-100000000000000000... has a negative entry"),
    # a list exponent could change under the cached form; a list first would meet the sort as TypeError
    ("RFPolynomial((RFTerm(F(1), (0,)), RFTerm(F(1), [1])), 1)", ValueError, "exponents [1] are not a tuple"),
    ("RFPolynomial((RFTerm(F(1), [0]), RFTerm(F(1), [1])), 1)", ValueError, "exponents [0] are not a tuple"),
    ("RFPolynomial((RFTerm(F(1), [0]), RFTerm(F(1), (1,))), 1)", ValueError, "exponents [0] are not a tuple"),
    ("RFPolynomial((RFTerm(1, [10**5000]),), 1)", ValueError, "exponents list(...) are not a tuple"),
    *((build, ValueError, f"exponent tuple {bad} has an entry that is not an int")
      for bad in ((1.0,), (0, Fraction(1, 2)), (0, "1"))
      for build in (f"RFPolynomial((RFTerm(F(1), {(0,) * len(bad)}), RFTerm(F(1), {bad!r})), {len(bad)})",
                    f"MonomialPolynomial({{{(0,) * len(bad)}: F(1), {bad!r}: F(1)}}, {len(bad)})")),
    ("MonomialPolynomial({(1.0,): F(1)}, 1)", ValueError, "exponent tuple (1.0,) has an entry that is not an int"),
    ("MonomialPolynomial({(1,): F(1)}, 1)._replace(coeffs={(2.5,): F(1)})", ValueError,
     "exponent tuple (2.5,) has an entry that is not an int"),
    ("RFPolynomial((RFTerm(1, (10**5000, 0.5)),), 2)", ValueError,
     "exponent tuple (1000000000000000000... has an entry that is not an int"),
    # a coefficient is checked where the polynomial is built, before evaluate or expand uses it
    *((build, ValueError, f"coefficient {bad} is not an int or a Fraction")
      for bad in ("0.5", "1.0", "'1'", "1j", "None")
      for build in (f"RFPolynomial((RFTerm(F(1), (0,)), RFTerm({bad}, (1,))), 1)",
                    f"MonomialPolynomial({{(0,): F(1), (1,): {bad}}}, 1)")),
    ("RFPolynomial((RFTerm(F(1), (0,)),), 1)._replace(terms=(RFTerm(0.5, (0,)),))", ValueError,
     "coefficient 0.5 is not an int or a Fraction"),
    ("RFPolynomial((RFTerm(0.5, (1,)),), 1)", ValueError, "coefficient 0.5 is not an int or a Fraction"),
    ("MonomialPolynomial({(1,): 0.5}, 1)", ValueError, "coefficient 0.5 is not an int or a Fraction"),
    *((f"evaluate({poly}, {v})", ValueError, message) for poly in ("symbolic_lp(2)", "expand(symbolic_lp(2))")
      for v, message in (("(1.5, 2)", "value 1.5 is not an integer"),
                         ("(1, F(1, 2))", "value Fraction(1, 2) is not an integer"))),
    # what is not a polynomial, or not a term, is refused by name rather than met as a missing attribute
    ("evaluate(None, (1,))", ValueError, "polynomial None is not an RFPolynomial or a MonomialPolynomial"),
    ("serialize(None)", ValueError, "polynomial None is not an RFPolynomial or a MonomialPolynomial"),
    ("expand(None)", ValueError, "polynomial None is not an RFPolynomial"),
    ("expand(MonomialPolynomial({(1,): 1}, 1))", ValueError,
     "polynomial MonomialPolynomial(c... is not an RFPolynomial"),
    ("RFPolynomial('3', 1)", ValueError, "term '3' is not an RFTerm"),
    ("evaluate(symbolic_lp(2), (1, 2, 3))", ValueError, "expected 2 values, got 3"),
    ("evaluate(expand(symbolic_lp(2)), (1,))", ValueError, "expected 2 values, got 1"),
    # a coefficient of 1/2 makes a non-integer value, refused in both bases
    ("evaluate(RFPolynomial((RFTerm(F(1, 2), (1,)),), 1), (1,))", ArithmeticError,
     "count polynomial evaluated to the non-integer 1/2"),
    ("evaluate(MonomialPolynomial({(1,): F(1, 2)}, 1), (1,))", ArithmeticError,
     "count polynomial evaluated to the non-integer 1/2"),
    # identities
    ("children(())", ValueError, "children of the empty point are undefined"),
    ("parent(())", ValueError, "the empty point has no parent"),
    ("parent([])", ValueError, "the empty point has no parent"),
]


@pytest.mark.parametrize("call, kind, message", LIBRARY_REFUSALS, ids=[row[0] for row in LIBRARY_REFUSALS])
def test_library_refusal(call, kind, message):
    with pytest.raises(kind) as refused:
        eval(call, NAMESPACE)
    assert type(refused.value) is kind
    assert str(refused.value) == message


def check_refusals(where):
    """Check every row whose call and message satisfy ``where``, for a test named after what they share."""
    rows = [row for row in LIBRARY_REFUSALS if where(row[0], row[2])]
    assert rows, "no row is selected"
    for row in rows:
        test_library_refusal(*row)


THEOREM_OVER_CAP = "error: theorem engine capacity exceeded: n = {} is over the cap 14"

# At least one row for each subcommand and each exit code it can reach.  verify and probability
# cannot exit 3: verify's suites have fixed sizes, and probability counts with triangular, which
# has no cap.
CLI_REFUSALS = [
    (["bench"], 2, "invalid choice: 'bench'"),
    (["count", "h:1,x"], 2, "error: h: entry 2 is not an integer: 'x'"),
    (["count", "h:1,,2"], 2, "error: h: entry 2 is not an integer: ''"),
    (["count", "h:1.5"], 2, "error: h: entry 1 is not an integer: '1.5'"),
    (["count", "h:2,1"], 2, "error: " + NONDECREASING.format(2, 1)),
    (["count", "h:-1"], 2, "error: height -1 is negative"),
    (["count", "d:1,-1"], 2, "error: difference -1 is negative"),
    (["count", "w:ENQ"], 2, "error: invalid step 'Q' (expected E or N)"),
    (["count", "q:1"], 2, "error: path spec 'q:1' must start with w:, h:, or d:"),
    # a huge value, or the spec it sits in, is shown cut to 20 characters
    (["count", "h:-" + "9" * 30000], 2, "error: height -9999999999999999999... is negative"),
    (["count", "h:" + "9" * 30000 + ",1"], 2, "error: " + NONDECREASING.format("99999999999999999999...", 1)),
    (["count", "d:1,-" + "9" * 30000], 2, "error: difference -9999999999999999999... is negative"),
    (["count", "h:" + "1," * 30000 + "x"], 2, "error: h: entry 30001 is not an integer: 'x'"),
    (["count", "d:1," + "7" * 5000 + "z"], 2, "error: d: entry 2 is not an integer: '77777777777777777777'..."),
    (["count", "q:" + "1," * 30000], 2, "error: path spec 'q:1,1,1,1,1,1,1,1,1,'... must start with w:, h:, or d:"),
    # --theorem-cap is gone from every subcommand: any value, negative included, is a usage error
    (["count", "h:1", "--theorem-cap", "3"], 2, "unrecognized arguments: --theorem-cap 3"),
    (["count", "h:1,2,3", "--theorem-cap", "-5"], 2, "unrecognized arguments: --theorem-cap -5"),
    (["count", "h:" + ",".join(map(str, range(1, 16))), "--engine", "theorem"], 3, THEOREM_OVER_CAP.format(15)),
    (["count", "h:" + ",".join(map(str, range(1, 1201))), "--engine", "theorem"], 3, THEOREM_OVER_CAP.format(1200)),
    (["enumerate", "h:2,1"], 2, "error: " + NONDECREASING.format(2, 1)),
    (["enumerate", "h:1", "--theorem-cap", "3"], 2, "unrecognized arguments: --theorem-cap 3"),
    # 60 heights near 10^31: a count of over a thousand digits, over the output cap
    (["enumerate", "h:" + ",".join(str(10**31 + i) for i in range(60))], 3,
     "error: 12017804936493226702... paths is over the output cap 100000; use --count-only"),
    (["symbolic", "1", "--theorem-cap", "3"], 2, "unrecognized arguments: --theorem-cap 3"),
    (["symbolic", "-1"], 2, "pathcount symbolic: error: argument n: -1 is negative"),
    (["symbolic", "x"], 2, "pathcount symbolic: error: argument n: 'x' is not an integer"),
    (["symbolic", "1.5"], 2, "pathcount symbolic: error: argument n: '1.5' is not an integer"),
    (["symbolic", "7" * 5000], 2,
     "pathcount symbolic: error: argument n: '77777777777777777777'... has too many digits"),
    (["symbolic", "13"], 3, "error: " + SYMBOLIC_OVER_CAP.format(13)),
    (["symbolic", "15"], 3, "error: " + SYMBOLIC_OVER_CAP.format(15)),
    (["symbolic", "13", "--count-terms"], 3, "error: " + SYMBOLIC_OVER_CAP.format(13)),
    (["symbolic", "7" * 4000], 3, "error: " + SYMBOLIC_OVER_CAP.format("77777777777777777777...")),
    (["verify", "eq3", "--theorem-cap", "3"], 2, "unrecognized arguments: --theorem-cap 3"),
    (["verify", "bogus"], 2, "invalid choice: 'bogus'"),
    (["verify", "--seed", "7" * 5000], 2,
     "pathcount verify: error: argument --seed: '77777777777777777777'... has too many digits"),
    (["verify", "--seed", "1.5"], 2, "pathcount verify: error: argument --seed: '1.5' is not an integer"),
    # int() refuses these for their form, not their length
    (["verify", "--seed=--5"], 2, "pathcount verify: error: argument --seed: '--5' is not an integer"),
    (["verify", "--seed", "1__2"], 2, "pathcount verify: error: argument --seed: '1__2' is not an integer"),
    (["probability", "h:1", "1", "1", "--theorem-cap", "3"], 2, "unrecognized arguments: --theorem-cap 3"),
    (["probability", "h:0,1", "3", "2"], 2, "error: path h:0,1 is inconsistent with endpoint (3, 2)"),
    (["probability", "h:0,5", "2", "2"], 2, "error: path h:0,5 is inconsistent with endpoint (2, 2)"),
    (["probability", "h:" + ",".join(["0"] * 3000), "1", "0"], 2,
     "error: path h:0,0,0,0,0,0,0,0,0,... is inconsistent with endpoint (1, 0)"),
    (["probability", "h:0", "2", "7" * 300], 2,
     "error: path h:0 is inconsistent with endpoint (2, 77777777777777777777...)"),
    (["probability", "h:0", "-1", "2"], 2, "pathcount probability: error: argument n: -1 is negative"),
    (["probability", "h:0", "1", "-2"], 2, "pathcount probability: error: argument m: -2 is negative"),
    (["probability", "h:0", "x", "1"], 2, "pathcount probability: error: argument n: 'x' is not an integer"),
    (["probability", "h:0", "1", "1.5"], 2, "pathcount probability: error: argument m: '1.5' is not an integer"),
    (["probability", "h:0", "7" * 5000, "1"], 2,
     "pathcount probability: error: argument n: '77777777777777777777'... has too many digits"),
]


def _argv_id(argv):
    return " ".join(arg if len(arg) <= 24 else arg[:20] + f"...<{len(arg)}>" for arg in argv)


def _usages():
    """What argparse prints above its error line: the usage of the parser that refused."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {parser.format_usage(), *(sp.format_usage() for sp in sub.choices.values())}


@pytest.mark.parametrize("argv, code, text", CLI_REFUSALS, ids=[_argv_id(row[0]) for row in CLI_REFUSALS])
def test_cli_refusal(capsys, argv, code, text):
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    last = err.splitlines()[-1]
    assert (got, out) == (code, "")
    # pathcount's own words are pinned whole, argparse's by a fragment
    assert (last == text) if "error: " in text else (text in last)
    # the line stays short however long the input, and only argparse's usage comes before it
    assert len(last.encode()) < 200
    assert err[: -len(last) - 1] in {"", *_usages()}
