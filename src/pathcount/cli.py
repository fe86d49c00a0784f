"""Command-line front end.

Subcommands: count, enumerate, symbolic, verify, probability.
Exit codes: 0 success, 1 failed check, engine disagreement or a write to a closed
stdout, 2 a refusal by argparse or a ``ValueError`` from the library (an unparsable
path spec, or an endpoint that does not fit the path), 3 capacity exceeded, or memory
exhausted: a ``MemoryError`` that escapes a command, such as a ``dp`` column under the
cap that the process may not allocate, is one ``error: out of memory`` line.
"""

from __future__ import annotations

import argparse
import os
import sys

from .counting import ENGINES, CapacityError, count, enumerate_restricted
from .exactmath import binom, catalan
from .identities import CHECKS
from .paths import SHOWN_CHARS, _int_refusal, _shown, format_heights, parse_path_spec
from .symbolic import check_nvars, expand, serialize, symbolic_lp, term_items

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

ENUMERATE_CAP = 100_000


def integer(text: str) -> int:
    """Read an integer argument, such as a seed; a refusal shows the text through ``_shown`` and says why."""
    try:
        return int(text)
    except ValueError:  # int() also refuses more digits than the interpreter's limit
        raise argparse.ArgumentTypeError(f"{_shown(text)} {_int_refusal(text)}") from None


def nonnegative_int(text: str) -> int:
    """Read a size or endpoint, refused as :func:`integer` refuses it or when negative."""
    value = integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{_shown(value)} is negative")
    return value


def _print_json(record) -> None:
    import json  # only JSON output pays for the import
    print(json.dumps(record))


def _emit(args, record, text: str) -> None:
    """Print one output line: ``record`` as JSON under ``--format json``, else ``text``."""
    if args.format == "json":
        _print_json(record)
    else:
        print(text)


def _refusal(exc: CapacityError) -> str:
    """The reason in a "<what> capacity exceeded: <reason>" refusal."""
    return str(exc).partition("capacity exceeded: ")[2]


def cmd_count(args) -> int:
    p = parse_path_spec(args.path)
    engines = ENGINES if args.engine == "all" else (args.engine,)
    path, values = {"heights": list(p)}, set()
    for engine in engines:  # each line is written as its count returns
        try:
            value = count(p, engine)
        except CapacityError as exc:
            if args.engine != "all":
                raise
            print(f"note: {engine} engine skipped ({_refusal(exc)})", file=sys.stderr)
            continue
        values.add(value)
        text = str(value)
        _emit(args, {"path": path, "engine": engine, "count": text},
              f"{engine} {text}" if args.engine == "all" else text)
    if len(values) > 1:
        print("error: engines disagree", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def cmd_enumerate(args) -> int:
    p = parse_path_spec(args.path)
    total = count(p, "triangular")
    if args.count_only:
        text = str(total)
        _emit(args, {"path": {"heights": list(p)}, "count": text}, text)
        return EXIT_OK
    if total > ENUMERATE_CAP:
        raise CapacityError(
            f"{_shown(total)} paths is over the output cap {ENUMERATE_CAP}; use --count-only"
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
        text = str(catalan(args.n + 1))  # one term per point of the all-ones polytope
        _emit(args, {"nvars": args.n, "term_count": text}, text)
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
    names = CHECKS if args.suite == "all" else (args.suite,)
    all_passed = True
    for name in names:
        bad, summary = CHECKS[name](args.seed)
        all_passed = all_passed and not bad
        detail = bad[0] if bad else summary
        _emit(args, {"suite": name, "passed": not bad, "detail": detail},
              f"{name}: {'FAIL' if bad else 'pass'} ({detail})")
    return EXIT_OK if all_passed else EXIT_FAILED


def cmd_probability(args) -> int:
    from fractions import Fraction
    p = parse_path_spec(args.path)
    n, m = args.n, args.m
    if len(p) != n or (p and p[-1] > m):
        # more than SHOWN_CHARS heights never fit in SHOWN_CHARS characters, so only those are formatted
        shown = format_heights(p[:SHOWN_CHARS])
        if len(shown) > SHOWN_CHARS:
            shown = shown[:SHOWN_CHARS] + "..."
        raise ValueError(f"path {shown} is inconsistent with endpoint ({_shown(n)}, {_shown(m)})")
    favorable, total = count(p, "triangular"), binom(n + m, n)
    ratio = str(Fraction(favorable, total))  # "a/b", or "a" when b is 1
    _emit(args, {
        "path": {"heights": list(p)}, "n": n, "m": m, "favorable": str(favorable),
        "total": str(total), "probability": ratio if "/" in ratio else f"{ratio}/1",
    }, ratio)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcount",
        description="Exact counting of northeast lattice paths below a bounding path.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "json"), default="plain")

    sp = sub.add_parser("count", parents=[common], help="count paths below a path spec (w:/h:/d:)")
    sp.add_argument("path")
    sp.add_argument("--engine", choices=ENGINES + ("all",), default="all")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("enumerate", parents=[common], help="list every path below a path spec")
    sp.add_argument("path")
    sp.add_argument("--count-only", action="store_true")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("symbolic", parents=[common], help="rising-factorial count polynomial in n variables")
    sp.add_argument("n", type=nonnegative_int)
    sp.add_argument("--expand", action="store_true")
    sp.add_argument("--count-terms", action="store_true")
    sp.set_defaults(func=cmd_symbolic)

    sp = sub.add_parser("verify", parents=[common], help="run the consistency suites")
    sp.add_argument("suite", nargs="?", choices=("all", *CHECKS), default="all")
    sp.add_argument("--seed", type=integer, default=0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("probability", parents=[common],
                        help="chance a uniform path to (n, m) stays below the given path")
    sp.add_argument("path")
    sp.add_argument("n", type=nonnegative_int)
    sp.add_argument("m", type=nonnegative_int)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAPACITY
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
