"""Command-line front end.

Subcommands: count, enumerate, symbolic, verify, probability.
Exit codes: 0 success, 1 failed check/disagreement, 2 usage or parse error,
3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .counting import ENGINES, CapacityError, count, enumerate_restricted
from .exactmath import binom, catalan
from .identities import CHECKS
from .paths import Heights, format_heights, parse_path_spec
from .symbolic import check_nvars, expand, serialize, symbolic_lp, term_items

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

ENUMERATE_CAP = 100_000


class UsageError(Exception):
    """Bad command input: unparsable path spec, unknown suite, bad endpoint."""


def _parse_path(spec: str) -> Heights:
    try:
        return parse_path_spec(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _print_json(record) -> None:
    import json  # only JSON output pays for the import
    print(json.dumps(record))


def _refusal(exc: CapacityError) -> str:
    """The reason in a "<what> capacity exceeded: <reason>" refusal."""
    return str(exc).partition("capacity exceeded: ")[2]


def cmd_count(args) -> int:
    p = _parse_path(args.path)
    engines = ENGINES if args.engine == "all" else (args.engine,)
    results = {}
    for engine in engines:
        try:
            results[engine] = count(p, engine)
        except CapacityError as exc:
            if args.engine != "all":
                raise
            print(f"note: {engine} engine skipped ({_refusal(exc)})", file=sys.stderr)
    for engine, value in results.items():
        if args.format == "json":
            _print_json({"path": {"heights": list(p)}, "engine": engine, "count": str(value)})
        elif args.engine == "all":
            print(f"{engine} {value}")
        else:
            print(value)
    if len(set(results.values())) > 1:
        print("error: engines disagree", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def cmd_enumerate(args) -> int:
    p = _parse_path(args.path)
    total = count(p, "triangular")
    if args.count_only:
        print(total)
        return EXIT_OK
    if total > ENUMERATE_CAP:
        raise CapacityError(
            f"{total} paths is over the output cap {ENUMERATE_CAP}; use --count-only"
        )
    for q in enumerate_restricted(p):
        if args.format == "json":
            _print_json({"heights": list(q)})
        else:
            print(format_heights(q))
    return EXIT_OK


def cmd_symbolic(args) -> int:
    if args.count_terms:
        check_nvars(args.n)
        print(catalan(args.n + 1))  # one term per point of the all-ones polytope
        return EXIT_OK
    poly = symbolic_lp(args.n)
    if args.expand:
        poly = expand(poly)
    if args.format == "json":
        terms = [
            {"coeff": f"{c.numerator}/{c.denominator}", "exponents": list(e)}
            for e, c in term_items(poly)
        ]
        basis = "monomial" if args.expand else "rising-factorial"
        _print_json({"nvars": poly.nvars, "basis": basis, "terms": terms})
    else:
        print(serialize(poly))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = CHECKS
    elif args.suite in CHECKS:
        names = (args.suite,)
    else:
        raise UsageError(
            f"unknown suite {args.suite!r}; expected one of: all, {', '.join(CHECKS)}"
        )
    all_passed = True
    for name in names:
        bad, summary = CHECKS[name](args.seed)
        all_passed = all_passed and not bad
        detail = bad[0] if bad else summary
        if args.format == "json":
            _print_json({"suite": name, "passed": not bad, "detail": detail})
        else:
            print(f"{name}: {'FAIL' if bad else 'pass'} ({detail})")
    return EXIT_OK if all_passed else EXIT_FAILED


def cmd_probability(args) -> int:
    from fractions import Fraction
    p = _parse_path(args.path)
    n, m = args.n, args.m
    if n < 0 or m < 0:
        raise UsageError(f"endpoint ({n}, {m}) has a negative coordinate")
    if len(p) != n or (p and p[-1] > m):
        raise UsageError(
            f"path {format_heights(p)} is inconsistent with endpoint ({n}, {m})"
        )
    favorable, total = count(p, "triangular"), binom(n + m, n)
    probability = Fraction(favorable, total)
    if args.format == "json":
        _print_json({
            "path": {"heights": list(p)}, "n": n, "m": m, "favorable": str(favorable),
            "total": str(total), "probability": f"{probability.numerator}/{probability.denominator}",
        })
    else:
        print(probability)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcount",
        description="Exact counting of northeast lattice paths below a bounding path.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=("plain", "json"), default="plain")

    sp = sub.add_parser("count", help="count paths below a path spec (w:/h:/d:)")
    sp.add_argument("path")
    sp.add_argument("--engine", choices=ENGINES + ("all",), default="all")
    add_common(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("enumerate", help="list every path below a path spec")
    sp.add_argument("path")
    sp.add_argument("--count-only", action="store_true", dest="count_only")
    add_common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("symbolic", help="rising-factorial count polynomial in n variables")
    sp.add_argument("n", type=nonnegative_int)
    sp.add_argument("--expand", action="store_true")
    sp.add_argument("--count-terms", action="store_true", dest="count_terms")
    add_common(sp)
    sp.set_defaults(func=cmd_symbolic)

    sp = sub.add_parser("verify", help="run the consistency suites")
    sp.add_argument("suite", nargs="?", default="all")
    add_common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("probability", help="chance a uniform path to (n, m) stays below the given path")
    sp.add_argument("path")
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)
    add_common(sp)
    sp.set_defaults(func=cmd_probability)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # counts may have any number of digits; lift the interpreter's int/str
    # conversion limit for this call only
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows up here at the latest
        return code
    except BrokenPipeError:
        # point stdout at devnull so the flush at interpreter exit cannot fail
        # again (the SIGPIPE note in the documentation of Python's signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILED
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
