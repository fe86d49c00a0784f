"""The three workloads, built as fixed lists of operations from a seed.

Each operation is one call into the program: an in-process library call or,
for ``cli``, one child process.  ``run`` does the call and returns its raw
output; ``check`` compares that output with a value from ``reference``,
which shares no code with pathcount.  A round is the whole list, and every
round of a run repeats the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Callable

import reference as ref

ENGINES = ("dp", "triangular", "determinant", "recurrence", "theorem")
SHAPES = ("long-low", "short-tall", "staircase", "rectangle", "random")
CLI_COMMANDS = ("count", "enumerate", "symbolic", "verify", "probability")
VERIFY_SUITES = ("cross-engine", "macmahon", "lemma", "vandermonde", "children", "det-identity", "eq3")

# Path lengths per shape class, each about twice the last, so that every
# engine's cost is seen growing and the operation times spread evenly.
# long-low draws sorted heights on [0, 2 + n // 200], short-tall on
# [0, 10^(3 + n // 16)] and random on [0, n]; staircase is (1, ..., n) and
# rectangle is (n, ..., n).
SIZES = {
    "long-low": (10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120, 10240),
    "short-tall": (10, 15, 22, 33, 50, 75, 110, 160),
    "staircase": (10, 20, 40, 80, 160, 320, 640),
    "rectangle": (10, 20, 40, 80, 160, 320),
    "random": (10, 20, 40, 80, 160, 320, 640),
}


def in_range(engine: str, p) -> bool:
    """The inputs the benchmark gives each engine: those it finishes in well under a second."""
    n, top = len(p), max(p, default=0)
    if engine == "dp":
        return sum(p) <= 10**6
    if engine == "triangular":
        return n <= 2000
    if engine == "determinant":
        return n <= 100 and n * top.bit_length() <= 1000
    if engine == "recurrence":
        return n <= 400 and n * top * top <= 10**6
    return n <= 10  # theorem: C_{n+1} terms


@dataclass
class Op:
    kind: str  # the end-to-end group: an engine name or "other"
    layer: str  # span name in the traced run
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    timed: bool = True  # False for the operations that fail today
    work: int = 0  # items the call yields, for rates


def _sorted_uniform(rng: random.Random, n: int, top: int) -> tuple[int, ...]:
    return tuple(sorted(rng.randint(0, top) for _ in range(n)))


def _path_with_count(rng: random.Random, n: int, top: int, lo: int, hi: int) -> tuple[int, ...]:
    """A random path whose count lies in [lo, hi], so that every seed enumerates
    about as many paths as any other."""
    while True:
        p = _sorted_uniform(rng, n, top)
        if lo <= ref.lp_dp(p) <= hi:
            return p


def shape_case(shape: str, n: int, rng: random.Random) -> tuple[tuple[int, ...], int]:
    """One bounding path of a shape class and its reference count."""
    if shape == "staircase":
        return tuple(range(1, n + 1)), ref.staircase_count(n)
    if shape == "rectangle":
        return (n,) * n, ref.rectangle_count(n, n)
    if shape == "short-tall":
        p = _sorted_uniform(rng, n, 10 ** (3 + n // 16))
        return p, ref.lp_first_violation(p)
    p = _sorted_uniform(rng, n, 2 + n // 200 if shape == "long-low" else n)
    return p, ref.lp_dp(p)


def shape_cases(seed: int) -> list[tuple[str, tuple[int, ...], int]]:
    rng = random.Random(seed)
    cases = []
    for shape in SHAPES:
        for n in SIZES[shape]:
            p, want = shape_case(shape, n, rng)
            if n <= 100 and sum(p) <= 10**5 and ref.lp_first_violation(p) != ref.lp_dp(p):
                raise AssertionError(f"reference methods disagree on {shape} n = {n}")
            cases.append((shape, p, want))
    return cases


# (a) The recursion depth of the recurrence engine grows with n, so it raises
# RecursionError on long-low paths from n of about 500.  Fixed input.
RECURSION_PATH = tuple(8 * i // 800 for i in range(800))


def equals(want) -> Callable[[Any], bool]:
    return lambda got: got == want


def shapes(seed: int, pc) -> list[Op]:
    ops = []
    for shape, p, want in shape_cases(seed):
        for engine in ENGINES:
            if in_range(engine, p):
                ops.append(
                    Op(engine, f"counting.{engine}.{shape}", lambda p=p, e=engine: pc.count(p, e), equals(want))
                )
    ops.append(
        Op("recurrence", "counting.recurrence.long-low", lambda: pc.count(RECURSION_PATH, "recurrence"),
           equals(ref.lp_dp(RECURSION_PATH)), timed=False)
    )
    return ops


def shape_probes(seed: int, pc) -> list[Op]:
    """Traced-run probes: validation, the Kreweras binomials and Bareiss alone."""
    ops = []
    for shape, p, want in shape_cases(seed):
        n = len(p)
        ops.append(Op("other", "paths.validate_heights", lambda p=p: pc.validate_heights(p), equals(p)))
        if in_range("triangular", p) or in_range("determinant", p):
            # the n(n+1)/2 values binom(p_i + 1, j - i + 1) both engines evaluate
            total = sum(comb(p[i] + 1, j - i + 1) for j in range(n) for i in range(j + 1))
            ops.append(Op("other", f"exactmath.binom.{shape}", lambda p=p, n=n, binom=pc.binom: sum(
                binom(p[i] + 1, j - i + 1) for j in range(n) for i in range(j + 1)), equals(total)))
        if in_range("determinant", p):
            kreweras = [[comb(p[i] + 1, j - i + 1) if j >= i - 1 else 0 for j in range(n)] for i in range(n)]
            ops.append(Op("other", "exactmath.det_int", lambda m=kreweras: pc.det_int(m), equals(want)))
    return ops


# --- cli -------------------------------------------------------------------

def spec(p, form: str) -> str:
    if form == "w":
        word, prev = [], 0
        for h in p:
            word.append("N" * (h - prev) + "E")
            prev = h
        return "w:" + "".join(word)
    if form == "d":
        return "d:" + ",".join(str(b - a) for a, b in zip((0,) + tuple(p), p))
    return "h:" + ",".join(map(str, p))


def parse_int(text: str) -> int:
    return int(text.strip())


def count_ok(want: int) -> Callable[[str], bool]:
    """One count per line, bare or after an engine name, every one right."""
    def check(out: str) -> bool:
        lines = out.splitlines()
        return bool(lines) and all(parse_int(line.split()[-1]) == want for line in lines)
    return check


def count_json_ok(p, want: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        records = [json.loads(line) for line in out.splitlines()]
        return bool(records) and all(
            r["path"]["heights"] == list(p) and parse_int(r["count"]) == want for r in records
        )
    return check


def enumerate_ok(p, json_lines: bool) -> Callable[[str], bool]:
    want = ref.lp_dp(p)

    def check(out: str) -> bool:
        if json_lines:
            paths = [tuple(json.loads(line)["heights"]) for line in out.splitlines()]
        else:
            paths = [tuple(int(x) for x in line[2:].split(",") if x) for line in out.splitlines()]
            if not all(line.startswith("h:") for line in out.splitlines()):
                return False
        return ref.enumeration_ok(p, paths, want)
    return check


def symbolic_text_ok(n: int, basis: str, rng: random.Random) -> Callable[[str], bool]:
    return lambda out: ref.symbolic_ok(out.rstrip("\n"), n, basis, rng)


def symbolic_json_ok(n: int, basis: str, rng: random.Random) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        doc = json.loads(out)
        text = "\n".join(f"{t['coeff']}  {','.join(map(str, t['exponents']))}" for t in doc["terms"])
        return doc["nvars"] == n and doc["basis"] == basis and ref.symbolic_ok(text, n, basis, rng)
    return check


def probability_ok(p, n: int, m: int, json_out: bool) -> Callable[[str], bool]:
    favorable, total = ref.lp_dp(p), comb(n + m, n)

    def check(out: str) -> bool:
        if not json_out:
            return Fraction(out.strip()) == Fraction(favorable, total)
        doc = json.loads(out)
        return (
            parse_int(doc["favorable"]) == favorable
            and parse_int(doc["total"]) == total
            and Fraction(doc["probability"]) == Fraction(favorable, total)
        )
    return check


def verify_ok(suite: str, json_out: bool) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        if json_out:
            doc = json.loads(out)
            return doc["suite"] == suite and doc["passed"] is True
        return out.startswith(f"{suite}: pass")
    return check


@dataclass
class CliCall:
    argv: list[str]
    check: Callable[[str], bool]
    kind: str = "other"
    kernel: Callable[[], Any] | None = None  # the library calls the command makes
    timed: bool = True


# (b) `enumerate --count-only` counts with the recurrence engine, which runs
# out of stack on a 1200-step path.  (c) A 150-step rectangle of height 10^31
# has a count of more than 4300 digits, past Python's int-to-str limit, which
# the CLI's print hits.  Both inputs are fixed.
LONG_ENUMERATE_PATH = tuple(8 * i // 1200 for i in range(1200))
HUGE_RECTANGLE = (10**31,) * 150


def cli_calls(seed: int, pc) -> list[CliCall]:
    rng = random.Random(seed)
    check_rng = random.Random(seed + 1)

    def small(n_lo=3, n_hi=8, top=12):
        return _sorted_uniform(rng, rng.randint(n_lo, n_hi), top)

    calls = []
    for form in ("h", "w", "d"):
        p = small()
        calls.append(CliCall(["count", spec(p, form)], count_ok(ref.lp_dp(p)),
                             kernel=lambda p=p: [pc.count(p, e) for e in ENGINES]))
    p = small()
    calls.append(CliCall(["count", spec(p, "h"), "--format", "json"], count_json_ok(p, ref.lp_dp(p)),
                         kernel=lambda p=p: [pc.count(p, e) for e in ENGINES]))
    for engine in ENGINES:
        for form in ("h", "d", "w", "h"):
            p = small()
            calls.append(CliCall(["count", spec(p, form), "--engine", engine], count_ok(ref.lp_dp(p)),
                                 kind=engine, kernel=lambda p=p, e=engine: pc.count(p, e)))
    p = small()
    calls.append(CliCall(["count", spec(p, "w"), "--engine", "triangular", "--format", "json"],
                         count_json_ok(p, ref.lp_dp(p)),
                         kernel=lambda p=p: pc.count(p, "triangular")))
    # large outputs: thousands of digits, under the int-to-str limit
    for n, top, engine in ((40, 10**80, "triangular"), (20, 10**100, "determinant")):
        p = _sorted_uniform(rng, n, top)
        calls.append(CliCall(["count", spec(p, "h"), "--engine", engine], count_ok(ref.lp_first_violation(p)),
                             kind=engine, kernel=lambda p=p, e=engine: pc.count(p, e)))
    for json_out in (False, True):
        p = _path_with_count(rng, 6, 6, 200, 400)
        argv = ["enumerate", spec(p, "h")] + (["--format", "json"] if json_out else [])
        calls.append(CliCall(argv, enumerate_ok(p, json_out),
                             kernel=lambda p=p: (pc.count(p, "recurrence"), list(pc.enumerate_restricted(p)))))
    for p in (small(), _sorted_uniform(rng, 40, 20)):
        calls.append(CliCall(["enumerate", spec(p, "d"), "--count-only"], count_ok(ref.lp_dp(p)),
                             kernel=lambda p=p: pc.count(p, "recurrence")))
    calls += [
        CliCall(["symbolic", "6"], symbolic_text_ok(6, "rising-factorial", check_rng),
                kernel=lambda: pc.symbolic_lp(6)),
        CliCall(["symbolic", "5", "--expand"], symbolic_text_ok(5, "monomial", check_rng),
                kernel=lambda: pc.expand(pc.symbolic_lp(5))),
        CliCall(["symbolic", "8", "--count-terms"], count_ok(ref.catalan(9)),
                kernel=lambda: len(pc.symbolic_lp(8).terms)),
        CliCall(["symbolic", "5", "--format", "json"], symbolic_json_ok(5, "rising-factorial", check_rng),
                kernel=lambda: pc.symbolic_lp(5)),
        CliCall(["symbolic", "4", "--expand", "--format", "json"], symbolic_json_ok(4, "monomial", check_rng),
                kernel=lambda: pc.expand(pc.symbolic_lp(4))),
    ]
    for json_out in (False, True):
        p = small()
        n, m = len(p), p[-1] + rng.randint(0, 3)
        argv = ["probability", spec(p, "h"), str(n), str(m)] + (["--format", "json"] if json_out else [])
        calls.append(CliCall(argv, probability_ok(p, n, m, json_out),
                             kernel=lambda p=p, n=n, m=m: (pc.count(p, "dp"), pc.binom(n + m, n))))
    for suite, json_out in (("eq3", False), ("macmahon", True), ("vandermonde", False)):
        argv = ["verify", suite] + (["--format", "json"] if json_out else [])
        calls.append(CliCall(argv, verify_ok(suite, json_out)))
    calls += [
        CliCall(["enumerate", spec(LONG_ENUMERATE_PATH, "h"), "--count-only"],
                count_ok(ref.lp_dp(LONG_ENUMERATE_PATH)), kind="recurrence", timed=False),
        CliCall(["count", spec(HUGE_RECTANGLE, "h"), "--engine", "triangular"],
                count_ok(ref.rectangle_count(150, 10**31)), kind="triangular", timed=False),
    ]
    return calls


@dataclass
class Exit:
    code: int
    stdout: str
    error: str = ""  # the exception a failed call ended with
    max_rss_kb: int = 0


def spawn(argv: list[str], env: dict, scratch: str) -> Exit:
    """Run one child to its end; wait4 gives this child's own peak RSS."""
    out_path, err_path = os.path.join(scratch, "child.out"), os.path.join(scratch, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        last = (f.read().strip().splitlines() or [""])[-1]
    return Exit(proc.returncode, stdout, last.split(":")[0], usage.ru_maxrss)


def in_process(main, argv: list[str]) -> Exit:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return Exit(main(argv), out.getvalue())
        except SystemExit as exc:  # argparse refusing the arguments
            return Exit(exc.code, out.getvalue(), "SystemExit")


def exited_ok(check: Callable[[str], bool]) -> Callable[[Exit], bool | None]:
    """None marks a call that failed (non-zero exit) rather than a wrong answer."""
    return lambda e: check(e.stdout) if e.code == 0 else None


def cli(seed: int, pc, env: dict, scratch: str) -> list[Op]:
    """One ``python -m pathcount.cli`` child per call, one at a time."""
    prefix = [sys.executable, "-m", "pathcount.cli"]
    return [
        Op(c.kind, f"cli.main.{c.argv[0]}", lambda c=c: spawn(prefix + c.argv, env, scratch),
           exited_ok(c.check), c.timed)
        for c in cli_calls(seed, pc)
    ]


def cli_in_process(seed: int, pc) -> list[Op]:
    """The same calls through ``main(argv)`` in this process, for the traced run."""
    return [
        Op(c.kind, f"cli.main.{c.argv[0]}", lambda c=c: in_process(pc.main, c.argv), exited_ok(c.check), c.timed)
        for c in cli_calls(seed, pc)
    ]


def cli_probes(seed: int, pc) -> list[Op]:
    calls = cli_calls(seed, pc)
    specs = [a for c in calls for a in c.argv if a[:2] in ("h:", "w:", "d:")]
    ops = [Op("other", "paths.parse_path_spec", lambda s=s: pc.parse_path_spec(s), lambda q: True)
           for s in specs]
    ops += [Op("other", "cli.kernel", c.kernel, lambda out: True) for c in calls if c.kernel and c.timed]
    return ops


# --- algebra ---------------------------------------------------------------

def algebra(seed: int, pc) -> list[Op]:
    rng = random.Random(seed)
    check_rng = random.Random(seed + 1)
    ops = []
    for n in (8, 9):
        ops.append(Op("other", "counting.enumerate_polytope", lambda n=n: list(pc.enumerate_polytope((1,) * n)),
                      lambda pts, n=n: points_ok(pts, n)))
        ops.append(Op("other", "symbolic.symbolic_lp", lambda n=n: pc.symbolic_lp(n),
                      lambda poly, n=n: rf_poly_ok(poly, n, check_rng)))
    poly9 = pc.symbolic_lp(9)
    ops.append(Op("other", "symbolic.serialize", lambda: pc.serialize(poly9),
                  lambda text: ref.symbolic_ok(text, 9, "rising-factorial", check_rng)))
    for n in (6, 7):
        poly = pc.symbolic_lp(n)
        ops.append(Op("other", "symbolic.expand", lambda poly=poly: pc.expand(poly),
                      lambda mono, n=n: mono_poly_ok(mono, n, check_rng)))
    mono6 = pc.expand(pc.symbolic_lp(6))
    for poly, n in ((poly9, 9), (mono6, 6)):
        for _ in range(10):
            v = tuple(rng.randint(0, 9) for _ in range(n))
            ops.append(Op("other", "symbolic.evaluate", lambda poly=poly, v=v: pc.evaluate(poly, v),
                          equals(ref.lp_dp(ref.partial_sums(v)))))
    for n, top, lo, hi in ((8, 9, 6000, 8000), (12, 6, 6000, 8000), (20, 4, 3000, 4000)):
        p = _path_with_count(rng, n, top, lo, hi)
        total = ref.lp_dp(p)
        ops.append(Op("other", "counting.enumerate_restricted", lambda p=p: list(pc.enumerate_restricted(p)),
                      lambda paths, p=p, total=total: ref.enumeration_ok(p, paths, total), work=total))
    for n in range(1, 8):
        for m in range(1, 8):
            ops.append(Op("other", "counting.macmahon_bruteforce", lambda n=n, m=m: pc.macmahon_bruteforce(n, m),
                          equals(ref.macmahon_closed(n, m))))
    for suite in VERIFY_SUITES:
        ops.append(Op("other", f"cli.verify.{suite}",
                      lambda s=suite: in_process(pc.main, ["verify", s, "--format", "json"]),
                      exited_ok(verify_ok(suite, True))))
    # tiny counts, more for the engines that are cheaper per call, so that
    # each engine's batch takes tens of milliseconds
    for engine, calls in zip(ENGINES, (8000, 6000, 2000, 2000, 2000)):
        for i in range(calls):
            p = _sorted_uniform(rng, 1 + i % 7, 10)
            ops.append(Op(engine, f"counting.{engine}.tiny", lambda p=p, e=engine: pc.count(p, e),
                          equals(ref.lp_dp(p))))
    return ops


def points_ok(points, n: int) -> bool:
    """The all-ones polytope's C_{n+1} points, each once, in increasing order."""
    return (
        len(points) == ref.catalan(n + 1)
        and all(a < b for a, b in zip(points, points[1:]))
        and all(len(x) == n and ref.in_all_ones(x) for x in points)
    )


def rf_poly_ok(poly, n: int, rng: random.Random) -> bool:
    text = "\n".join(
        f"{t.coeff.numerator}/{t.coeff.denominator}  {','.join(map(str, t.exponents))}" for t in poly.terms
    )
    return poly.nvars == n and ref.symbolic_ok(text, n, "rising-factorial", rng)


def mono_poly_ok(mono, n: int, rng: random.Random) -> bool:
    text = "\n".join(
        f"{c.numerator}/{c.denominator}  {','.join(map(str, e))}" for e, c in mono.coeffs.items()
    )
    return mono.nvars == n and ref.symbolic_ok(text, n, "monomial", rng)


# Run once in each fresh interpreter that times set-up, and once before the
# timed loop, so lazy set-up and first-call costs land in setup_s.
WARMUP = {
    "shapes": "from pathcount import count\nfor e in %r: count((1, 2, 3), e)\n" % (ENGINES,),
    "cli": (
        "import contextlib, io\nfrom pathcount.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()): main(['count', 'h:1,2,3'])\n"
    ),
    "algebra": (
        "from pathcount import count, enumerate_restricted, evaluate, expand, macmahon_bruteforce, symbolic_lp\n"
        "from pathcount.cli import main\n"
        "for e in %r: count((1, 2), e)\n"
        "evaluate(expand(symbolic_lp(2)), (1, 1)); list(enumerate_restricted((1, 2))); macmahon_bruteforce(2, 2)\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()): main(['verify', 'eq3'])\n" % (ENGINES,)
    ),
}
