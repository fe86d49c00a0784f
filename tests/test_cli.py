"""End-to-end CLI behavior: output formats, exit codes, golden values."""

from __future__ import annotations

import argparse
import ast
import glob
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pathcount
from pathcount import cli, counting, exactmath, identities, paths, symbolic
from pathcount.counting import ENGINES, count_dp
from pathcount.identities import CHECKS
from pathcount.paths import parse_path_spec, sigma


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pathcount.__file__)))


def run_capped(*argv, limit=1 << 30):
    """Run the CLI in a child whose address space is capped at ``limit`` bytes."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "pathcount.cli", *argv],
        env=CHILD_ENV, preexec_fn=cap, capture_output=True, text=True, timeout=120,
    )


def test_count_plain_single_engine(capsys):
    code, out, _ = run(capsys, "count", "h:1,2,3", "--engine", "recurrence")
    assert code == 0
    assert out == "14\n"


def test_count_all_engines_agree(capsys):
    code, out, _ = run(capsys, "count", "h:1,2,3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(ENGINES)
    assert {line.split()[0] for line in lines} == set(ENGINES)
    assert {line.split()[1] for line in lines} == {"14"}


def test_count_all_engines_disagree(capsys, monkeypatch):
    # one kernel off by one: every engine still writes its line, then the run fails
    monkeypatch.setitem(counting._KERNELS, "dp", lambda p: 15)
    want = {engine: "15" if engine == "dp" else "14" for engine in ENGINES}
    code, out, err = run(capsys, "count", "h:1,2,3")
    assert (code, err) == (1, "error: engines disagree\n")
    assert out == "".join(f"{engine} {value}\n" for engine, value in want.items())
    code, out, err = run(capsys, "count", "h:1,2,3", "--format", "json")
    assert (code, err) == (1, "error: engines disagree\n")
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [{"path": {"heights": [1, 2, 3]}, "engine": e, "count": v} for e, v in want.items()]


def test_count_empty_path(capsys):
    code, out, _ = run(capsys, "count", "d:", "--engine", "dp")
    assert code == 0
    assert out == "1\n"


def test_count_figure_path_golden(capsys):
    # value pinned from count_dp (and confirmed by direct enumeration)
    code, out, _ = run(capsys, "count", "w:EENENNEENENNEN")
    assert code == 0
    assert {line.split()[1] for line in out.splitlines()} == {"188"}


def test_count_json_round_trip(capsys):
    code, out, _ = run(capsys, "count", "h:1,2,3", "--format", "json")
    assert code == 0
    for line in out.splitlines():
        record = json.loads(line)
        heights = tuple(record["path"]["heights"])
        assert heights == (1, 2, 3)
        spec = "h:" + ",".join(str(h) for h in heights)
        assert parse_path_spec(spec) == heights
        code2, out2, _ = run(capsys, "count", spec, "--engine", record["engine"])
        assert code2 == 0
        assert out2.strip() == record["count"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
def test_count_over_int_str_digit_limit(capsys):
    n, m = 120, 10**40
    spec = "h:" + ",".join([str(m)] * n)
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "count", spec, "--engine", "triangular")
    code_json, out_json, _ = run(capsys, "count", spec, "--engine", "triangular", "--format", "json")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = str(math.comb(n + m, n))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > 4300
    assert code == code_json == 0
    assert out == want + "\n"
    assert json.loads(out_json)["count"] == want


def test_count_entry_over_the_digit_limit(capsys):
    # the CLI lifts the interpreter's digit limit, so a 5 000-digit height is counted, not refused
    code, out, err = run(capsys, "count", "h:" + "1" * 5000)
    assert code == 0
    want = "1" * 4999 + "2"  # a single height h has h + 1 paths below it
    assert out == "".join(f"{engine} {want}\n" for engine in ENGINES if engine != "dp")
    assert err.startswith("note: dp engine skipped (a column of ")


# a long entry: 8 or more repeated digits, so anything but zeros is over dp's column cap of 10**7
_long_entry_st = st.builds(str.__mul__, st.sampled_from("0179"), st.integers(8, 5000))
# a path-spec entry: a sign, spaces, and digits with underscores, an empty or stray text, or
# now and then a long entry
_entry_st = st.tuples(
    st.sampled_from(["", "+", "-"]),
    st.sampled_from(["", " "]),
    st.one_of(
        st.integers(0, 40).map(str),
        st.integers(1000, 20_000).map("{:_}".format),
        st.text("0123456789_ x", max_size=4),
        _long_entry_st,
    ),
    st.sampled_from(["", " "]),
).map("".join)
_spec_st = st.one_of(
    st.tuples(st.sampled_from(["h:", "d:", "q:"]), st.lists(_entry_st, max_size=6).map(",".join)).map("".join),
    st.tuples(st.sampled_from(["h:", "d:"]), _long_entry_st).map("".join),
    st.text("EN", max_size=12).map("w:".__add__),
    st.text("EN x", max_size=8).map("w:".__add__),
)


# run() drains capsys on every call, so one capture can serve every example
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_spec_st)
def test_count_path_spec_answers_or_refuses_in_one_line(capsys, spec):
    code, out, err = run(capsys, "count", spec, "--engine", "dp")
    assert code in (0, 2, 3)
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        return
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:  # an entry of 5 000 digits may still be a small number, such as 0...07
        sys.set_int_max_str_digits(0)
    try:
        want = str(counting.count(parse_path_spec(spec), "triangular"))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert (out, err) == (want + "\n", "")


def test_count_all_skips_theorem_over_cap(capsys):
    spec = "h:" + ",".join(str(i) for i in range(1, 16))
    code, out, err = run(capsys, "count", spec)
    assert code == 0
    engines_run = {line.split()[0] for line in out.splitlines()}
    assert engines_run == set(ENGINES) - {"theorem"}
    assert "skipped" in err


def test_count_theorem_over_budget_exit_3_in_a_child():
    # C_901 points: the fixed cap refuses before any table is built
    spec = "h:" + ",".join(str(i) for i in range(1, 901))
    proc = run_capped("count", spec, "--engine", "theorem")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: theorem engine capacity exceeded: n = 900 is over the cap 14\n"


def test_count_all_tall_path_bounded_memory():
    proc = run_capped("count", "d:1000000000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{e} 1000000001" for e in ENGINES if e != "dp"]
    assert proc.stderr.startswith("note: dp engine skipped (a column of 1000000001 integers")


def test_count_recurrence_tall_path_exit_3():
    proc = run_capped("count", "d:1000000000,1", "--engine", "recurrence")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "recurrence engine capacity exceeded" in proc.stderr


def test_count_dp_out_of_memory_exit_3_in_a_child():
    # a dp column of 10^7 integers is under MAX_COLUMN but not under half a GiB of address space:
    # the MemoryError is one line on stderr and exit 3, not a traceback
    proc = run_capped("count", "h:9999999,9999999,9999999", "--engine", "dp", limit=1 << 29)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


def test_enumerate_small(capsys):
    code, out, _ = run(capsys, "enumerate", "h:1,1")
    assert code == 0
    assert out.splitlines() == ["h:0,0", "h:0,1", "h:1,1"]


def test_enumerate_empty_path(capsys):
    code, out, _ = run(capsys, "enumerate", "h:")
    assert code == 0
    assert out == "h:\n"


def test_enumerate_line_count_matches_catalan(capsys):
    code, out, _ = run(capsys, "enumerate", "h:0,1")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "h:1,2,3", "--count-only")
    assert code == 0
    assert out == "14\n"


def test_enumerate_count_only_json_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "h:1,2,3", "--count-only", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record == {"path": {"heights": [1, 2, 3]}, "count": "14"}
    spec = "h:" + ",".join(map(str, record["path"]["heights"]))
    assert run(capsys, "enumerate", spec, "--count-only")[1].strip() == record["count"]


def test_enumerate_count_only_long_path(capsys):
    p = tuple(8 * i // 1200 for i in range(1200))
    code, out, _ = run(capsys, "enumerate", "h:" + ",".join(map(str, p)), "--count-only")
    assert code == 0
    assert out == f"{count_dp(p)}\n"


def test_enumerate_long_single_point_path(capsys):
    spec = "h:" + ",".join("0" * 1200)
    code, out, _ = run(capsys, "enumerate", spec)
    assert code == 0
    assert out == spec + "\n"


def test_enumerate_count_only_tall_path_bounded_memory():
    proc = run_capped("enumerate", "d:1000000000,1", "--count-only")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{(10**9 + 2) * (10**9 + 3) // 2 - 1}\n"


def test_enumerate_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ENUMERATE_CAP", 5)
    code, _, err = run(capsys, "enumerate", "h:1,2,3")
    assert code == 3
    assert "--count-only" in err
    code, out, _ = run(capsys, "enumerate", "h:1,2,3", "--count-only")
    assert code == 0
    assert out == "14\n"


# every option each subcommand takes, besides --help; a new one must be added here on purpose
OPTIONS = {
    "count": {"--engine", "--format"},
    "enumerate": {"--count-only", "--format"},
    "symbolic": {"--expand", "--count-terms", "--format"},
    "verify": {"--format", "--seed"},
    "probability": {"--format"},
}


def test_subcommand_option_inventory(capsys):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
        for name, sp in sub.choices.items()
    }
    assert got == OPTIONS


def test_enumerate_closed_pipe_exits_quietly():
    # 11 440 lines, ~180 KB: more than a pipe buffer, so the child is still writing
    proc = subprocess.Popen(
        [sys.executable, "-m", "pathcount.cli", "enumerate", "h:9,9,9,9,9,9,9"],
        env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"h:0,0,0,0,0,0,0\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err, err


def run_child(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], env=CHILD_ENV, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_import_loads_no_unused_stdlib_modules():
    # measured against the child's own start set, so site-wide .pth imports do not count
    added = run_child(
        "import sys\n"
        "before = set(sys.modules)\n"
        "from pathcount.cli import main\n"
        "main(['count', 'h:1,2,3'])\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    ).split()
    assert "pathcount.cli" in added
    assert {"dataclasses", "inspect", "fractions", "decimal", "json"}.isdisjoint(added)


def test_package_namespace_is_eager():
    # perfbench builds its namespace from vars(pathcount): no name may be lazy
    missing = run_child(
        "import pathcount\n"
        "missing = set(pathcount.__all__) - set(vars(pathcount))\n"
        "star = {}\n"
        "exec('from pathcount import *', star)\n"
        "print(sorted(missing | (set(pathcount.__all__) - set(star))))\n"
    )
    assert missing == "[]"


def test_package_exports_the_union_of_the_module_lists():
    # each public name is declared once, in the __all__ of the module that defines it
    modules = (counting, exactmath, identities, paths, symbolic)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(pathcount.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(pathcount, name) is getattr(module, name), name


def test_library_raises_and_never_asserts():
    # python -O strips assert statements and sets __debug__ to False; with neither in the library,
    # -O cannot change a count or a refusal, so no refusal needs its own -O child
    paths = sorted(glob.glob(os.path.join(os.path.dirname(pathcount.__file__), "*.py")))
    assert counting.__file__ in paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__":
                found.append(f"{os.path.basename(path)}:{node.lineno}: {type(node).__name__}")
    assert found == []


def test_benchmark_uses_only_the_public_namespace():
    # perfbench calls the library as pc.<name>, with pc built from vars(pathcount) plus cli.main;
    # removing a name from the public API must not break it unnoticed
    workloads = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    with open(workloads, encoding="utf-8") as f:
        used = set(re.findall(r"\bpc\.(\w+)", f.read()))
    assert "count" in used
    assert sorted(used - set(pathcount.__all__) - {"main"}) == []


def test_checked_in_bench_files_are_well_formed():
    # a BENCH_*.json backs a speed claim with parent/change pairs of perfbench result lines;
    # every run must be correct, fail nothing and name the commit and sources it measured
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    assert paths
    for path in paths:
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as f:
            bench = json.load(f)
        runs = bench["runs"]
        assert {run["side"] for run in runs} == {"parent", "change"}, name
        for run in runs:
            record, result = run["record"], run["result"]
            where = (name, run["side"], record["workload"], record["seed"], record["trace"])
            assert re.fullmatch(r"[0-9a-f]{40}", record["environment"]["git_commit"]), where
            assert re.fullmatch(r"[0-9a-f]{64}", record["environment"]["source_sha256"]), where
            assert result["correct"] is True and result["failed"] == 0, where
            if run["side"] == "parent":
                assert record["environment"]["git_commit"] == bench["parent"], where


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "h:1,1", "--format", "json")
    assert code == 0
    got = [tuple(json.loads(line)["heights"]) for line in out.splitlines()]
    assert got == [(0, 0), (0, 1), (1, 1)]


def test_symbolic_plain(capsys):
    code, out, _ = run(capsys, "symbolic", "1")
    assert code == 0
    assert out.splitlines() == ["1/1  0", "1/1  1"]


def test_symbolic_count_terms(capsys):
    code, out, _ = run(capsys, "symbolic", "3", "--count-terms")
    assert code == 0
    assert out == "14\n"


def test_symbolic_count_terms_json_round_trip(capsys):
    code, out, _ = run(capsys, "symbolic", "3", "--count-terms", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record == {"nvars": 3, "term_count": "14"}
    code, out, _ = run(capsys, "symbolic", str(record["nvars"]), "--format", "json")
    assert len(json.loads(out)["terms"]) == int(record["term_count"])


def test_symbolic_expand(capsys):
    code, out, _ = run(capsys, "symbolic", "2", "--expand")
    assert code == 0
    coeffs = sorted(line.split()[0] for line in out.splitlines())
    assert coeffs == sorted(["1/1", "1/1", "1/1", "3/2", "1/2"])


def test_symbolic_json(capsys):
    code, out, _ = run(capsys, "symbolic", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["nvars"] == 2
    assert len(record["terms"]) == 5
    assert {"coeff": "1/2", "exponents": [0, 2]} in record["terms"]


def test_symbolic_count_terms_builds_no_term(capsys, monkeypatch):
    # the term count is the Catalan number C_{n+1}; no polytope point is enumerated,
    # nor is one before a refusal over the cap
    monkeypatch.setattr(symbolic, "enumerate_polytope", None)
    code, out, _ = run(capsys, "symbolic", "12", "--count-terms")
    assert (code, out) == (0, "742900\n")
    for argv in (["13", "--count-terms"], ["13"], ["15"]):
        assert run(capsys, "symbolic", *argv)[:2] == (3, "")


def test_verify_single_suites(capsys):
    for suite in ("lemma", "vandermonde", "eq3", "macmahon"):
        code, out, _ = run(capsys, "verify", suite)
        assert code == 0
        assert out.startswith(f"{suite}: pass")


def test_verify_children_suite(capsys):
    code, out, _ = run(capsys, "verify", "children")
    assert code == 0
    assert "pass" in out


def test_verify_help_lists_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    # the parser's choices are the registry's rows, in its order
    assert "{" + ",".join(("all", *CHECKS)) + "}" in capsys.readouterr().out


def test_verify_det_identity_deterministic_under_seed(capsys):
    code1, out1, _ = run(capsys, "verify", "det-identity", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "det-identity", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "eq3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["suite"] == "eq3"
    assert record["passed"] is True


def test_verify_failure_path(capsys, monkeypatch):
    counterexample = "a=1 b=2 c=3: lhs=0 rhs=1 closed=1"
    monkeypatch.setitem(CHECKS, "lemma", lambda seed: ([counterexample], "unused"))
    code, out, _ = run(capsys, "verify", "all")
    assert code == 1
    lines = out.splitlines()
    assert [line.partition(":")[0] for line in lines] == list(CHECKS)
    for name, line in zip(CHECKS, lines):
        if name == "lemma":
            assert line == f"lemma: FAIL ({counterexample})"
        else:
            assert line.startswith(f"{name}: pass (")
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 1
    records = {r["suite"]: r for r in map(json.loads, out.splitlines())}
    assert list(records) == list(CHECKS)
    assert records["lemma"] == {"suite": "lemma", "passed": False, "detail": counterexample}
    assert all(r["passed"] for name, r in records.items() if name != "lemma")


def test_verify_reports_the_point_where_a_real_row_fails(capsys, monkeypatch):
    # one side of the macmahon row is wrong at (2, 3) only; the row must name that point and no other
    closed_form = identities.macmahon_total
    want = closed_form(2, 3)
    monkeypatch.setattr(identities, "macmahon_total", lambda n, m: closed_form(n, m) + ((n, m) == (2, 3)))
    counterexample = f"(2, 3): ({want}, {want + 1})"
    assert CHECKS["macmahon"](0)[0] == [counterexample]
    code, out, _ = run(capsys, "verify", "macmahon")
    assert code == 1
    assert out == f"macmahon: FAIL ({counterexample})\n"


def test_verify_children_names_the_point_whose_child_has_a_wrong_parent(capsys, monkeypatch):
    # parent is wrong at (0, 3, 1, 2) only, one of the four children of (0, 3, 2); the row must name (0, 3, 2)
    real = identities.parent
    monkeypatch.setattr(identities, "parent", lambda x: (9,) if x == (0, 3, 1, 2) else real(x))
    y = (0, 3, 2)
    counterexample = f"{y}: {(y, y, y, (9,), y)}"
    assert CHECKS["children"](0)[0] == [counterexample]
    code, out, _ = run(capsys, "verify", "children")
    assert code == 1
    assert out == f"children: FAIL ({counterexample})\n"


def test_verify_children_reports_three_counts_when_a_child_is_dropped(capsys, monkeypatch):
    # (0, 1) loses its child (0, 0, 2): dimension 3 has 14 points, but gets 13 children, all distinct
    real = identities.children
    monkeypatch.setattr(
        identities, "children", lambda y: real(y)._replace(children=real(y).children[:-1]) if y == (0, 1) else real(y)
    )
    assert CHECKS["children"](0)[0] == ["(3,): (14, 13, 13)"]
    code, out, _ = run(capsys, "verify", "children")
    assert code == 1
    assert out == "children: FAIL ((3,): (14, 13, 13))\n"


def test_verify_det_identity_names_each_v_where_the_determinant_is_off(capsys, monkeypatch):
    # the determinant is off by one at n = 4 only; the row must name every one of the 100 vectors drawn there
    real = identities.count_determinant
    monkeypatch.setattr(identities, "count_determinant", lambda p: real(p) + (len(p) == 4))
    rng = random.Random(0 * 31 + 4)
    drawn = [tuple(rng.randint(0, 50) for _ in range(4)) for _ in range(100)]
    bad = CHECKS["det-identity"](0)[0]
    assert [line.partition(": ")[0] for line in bad] == [str(v) for v in drawn]
    want = real(sigma(drawn[0]))
    assert bad[0] == f"{drawn[0]}: {(Fraction(want), want + 1)}"
    code, out, _ = run(capsys, "verify", "det-identity")
    assert code == 1
    assert out == f"det-identity: FAIL ({bad[0]})\n"


VERIFY_ALL_SEED_7 = """\
cross-engine: pass (522 paths agree across all engines)
macmahon: pass (aggregate matches the closed form for all endpoints up to (5, 5))
lemma: pass (9261 triples agree (both sides, closed form, telescoping))
vandermonde: pass (all d, e <= 20 with f <= e + 1 agree)
children: pass (children tile every polytope up to n = 8 and parent inverts them)
det-identity: pass (determinant equals the rising-factorial sum at 100 random points per n <= 6)
eq3: pass (two-coordinate reduction agrees for all v1, v2, y <= 6)
"""

VERIFY_ALL_SEED_7_JSON = """\
{"suite": "cross-engine", "passed": true, "detail": "522 paths agree across all engines"}
{"suite": "macmahon", "passed": true, "detail": "aggregate matches the closed form for all endpoints up to (5, 5)"}
{"suite": "lemma", "passed": true, "detail": "9261 triples agree (both sides, closed form, telescoping)"}
{"suite": "vandermonde", "passed": true, "detail": "all d, e <= 20 with f <= e + 1 agree"}
{"suite": "children", "passed": true, "detail": "children tile every polytope up to n = 8 and parent inverts them"}
{"suite": "det-identity", "passed": true, \
"detail": "determinant equals the rising-factorial sum at 100 random points per n <= 6"}
{"suite": "eq3", "passed": true, "detail": "two-coordinate reduction agrees for all v1, v2, y <= 6"}
"""


def test_verify_all_seed_7_golden(capsys):
    assert run(capsys, "verify", "all", "--seed", "7") == (0, VERIFY_ALL_SEED_7, "")
    assert run(capsys, "verify", "all", "--seed", "7", "--format", "json") == (0, VERIFY_ALL_SEED_7_JSON, "")


SINGLE_RECORD_GOLDEN = {
    ("count", "h:0,1,1,3"): (
        "recurrence 10\ndeterminant 10\ntriangular 10\ntheorem 10\ndp 10\n",
        '{"path": {"heights": [0, 1, 1, 3]}, "engine": "recurrence", "count": "10"}\n'
        '{"path": {"heights": [0, 1, 1, 3]}, "engine": "determinant", "count": "10"}\n'
        '{"path": {"heights": [0, 1, 1, 3]}, "engine": "triangular", "count": "10"}\n'
        '{"path": {"heights": [0, 1, 1, 3]}, "engine": "theorem", "count": "10"}\n'
        '{"path": {"heights": [0, 1, 1, 3]}, "engine": "dp", "count": "10"}\n',
    ),
    ("count", "h:0,1,1,3", "--engine", "dp"): (
        "10\n",
        '{"path": {"heights": [0, 1, 1, 3]}, "engine": "dp", "count": "10"}\n',
    ),
    ("enumerate", "h:1,2", "--count-only"): (
        "5\n",
        '{"path": {"heights": [1, 2]}, "count": "5"}\n',
    ),
    ("symbolic", "3", "--count-terms"): (
        "14\n",
        '{"nvars": 3, "term_count": "14"}\n',
    ),
    ("verify", "eq3"): (
        "eq3: pass (two-coordinate reduction agrees for all v1, v2, y <= 6)\n",
        '{"suite": "eq3", "passed": true, "detail": "two-coordinate reduction agrees for all v1, v2, y <= 6"}\n',
    ),
    ("probability", "h:1,2", "2", "3"): (
        "1/2\n",
        '{"path": {"heights": [1, 2]}, "n": 2, "m": 3, "favorable": "5", "total": "10", "probability": "1/2"}\n',
    ),
    ("probability", "h:2,2", "2", "2"): (
        "1\n",
        '{"path": {"heights": [2, 2]}, "n": 2, "m": 2, "favorable": "6", "total": "6", "probability": "1/1"}\n',
    ),
}


@pytest.mark.parametrize("argv", SINGLE_RECORD_GOLDEN)
def test_single_record_outputs_byte_exact(capsys, argv):
    # key order and separators too, which the round-trip tests do not see
    plain, json_lines = SINGLE_RECORD_GOLDEN[argv]
    assert run(capsys, *argv) == (0, plain, "")
    assert run(capsys, *argv, "--format", "json") == (0, json_lines, "")


def test_verify_all_under_optimize():
    # the one end-to-end python -O child: every suite in the registry must still run and pass
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pathcount.cli", "verify", "all", "--format", "json"],
        env=CHILD_ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 7
    assert [r["suite"] for r in records] == list(CHECKS)
    assert all(r["passed"] is True for r in records)


def test_probability_staircase(capsys):
    code, out, _ = run(capsys, "probability", "h:0,1", "2", "2")
    assert code == 0
    assert out == "1/3\n"


def test_probability_unrestricted_is_one(capsys):
    code, out, _ = run(capsys, "probability", "h:2,2", "2", "2")
    assert code == 0
    assert out == "1\n"


def test_probability_derived_example(capsys):
    code, out, _ = run(capsys, "probability", "h:0,0", "2", "1")
    assert code == 0
    assert out == "1/3\n"


def test_probability_empty_path(capsys):
    code, out, _ = run(capsys, "probability", "h:", "0", "3")
    assert code == 0
    assert out == "1\n"


def test_probability_tall_path_bounded_memory():
    proc = run_capped("probability", "h:1000000000", "1", "1000000000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_verify_seed_takes_a_negative_integer(capsys):
    code, out, _ = run(capsys, "verify", "eq3", "--seed", "-3")
    assert code == 0 and out.startswith("eq3: pass")


def test_probability_json(capsys):
    code, out, _ = run(capsys, "probability", "h:0,1", "2", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["probability"] == "1/3"
    assert record["favorable"] == "2"
    assert record["total"] == "6"
