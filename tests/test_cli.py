"""End-to-end CLI behavior: output formats, exit codes, golden values."""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

import pytest

import pathcount
from pathcount import cli, symbolic
from pathcount.counting import ENGINES, dp_oracle
from pathcount.identities import CHECKS
from pathcount.paths import parse_path_spec


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


def test_count_empty_path(capsys):
    code, out, _ = run(capsys, "count", "d:", "--engine", "dp")
    assert code == 0
    assert out == "1\n"


def test_count_figure_path_golden(capsys):
    # value pinned from dp_oracle (and confirmed by direct enumeration)
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


def test_count_parse_errors_exit_2(capsys):
    for bad in ("h:1,x", "h:2,1", "q:1", "w:ENQ"):
        code, _, err = run(capsys, "count", bad)
        assert code == 2
        assert "error:" in err


def test_count_theorem_cap_exit_3(capsys):
    spec = "h:" + ",".join(str(i) for i in range(1, 16))
    code, _, err = run(capsys, "count", spec, "--engine", "theorem")
    assert code == 3
    assert "cap" in err


def test_count_theorem_deep_walk_exit_3(capsys):
    spec = "h:" + ",".join(str(i) for i in range(1, 1201))
    code, out, err = run(capsys, "count", spec, "--engine", "theorem")
    assert code == 3
    assert out == ""
    assert err == "error: theorem engine capacity exceeded: n = 1200 is over the cap 14\n"


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
    proc = subprocess.run(
        [sys.executable, "-m", "pathcount.cli", "count", spec, "--engine", "theorem"],
        env=CHILD_ENV, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: theorem engine capacity exceeded: n = 900 is over the cap 14\n"


def test_bench_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


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


def test_enumerate_count_only_long_path(capsys):
    p = tuple(8 * i // 1200 for i in range(1200))
    code, out, _ = run(capsys, "enumerate", "h:" + ",".join(map(str, p)), "--count-only")
    assert code == 0
    assert out == f"{dp_oracle(p)}\n"


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
    argvs = (["count", "h:1"], ["enumerate", "h:1"], ["symbolic", "1"], ["verify", "eq3"],
             ["probability", "h:1", "1", "1"])
    assert [argv[0] for argv in argvs] == list(OPTIONS)
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--theorem-cap", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --theorem-cap 3" in capsys.readouterr().err


def test_enumerate_and_probability_take_no_theorem_cap(capsys):
    for argv in (["enumerate", "h:1"], ["probability", "h:1", "1", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--theorem-cap", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --theorem-cap 3" in capsys.readouterr().err


def test_negative_theorem_cap_exit_2(capsys):
    # --theorem-cap is gone from count too: any value, negative included, is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "h:1,2,3", "--theorem-cap", "-5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --theorem-cap -5" in capsys.readouterr().err


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


def test_symbolic_cap_exit_3(capsys, monkeypatch):
    # refused before a single term is built
    monkeypatch.setattr(symbolic, "enumerate_polytope", None)
    for n in (13, 15):
        code, out, err = run(capsys, "symbolic", str(n))
        assert code == 3
        assert out == ""
        assert err == f"error: symbolic expansion capacity exceeded: n = {n} is over the cap 12\n"


def test_symbolic_count_terms_builds_no_term(capsys, monkeypatch):
    # the term count is the Catalan number C_{n+1}; no polytope point is enumerated
    monkeypatch.setattr(symbolic, "enumerate_polytope", None)
    code, out, _ = run(capsys, "symbolic", "12", "--count-terms")
    assert (code, out) == (0, "742900\n")
    code, out, err = run(capsys, "symbolic", "13", "--count-terms")
    assert (code, out) == (3, "")
    assert err == "error: symbolic expansion capacity exceeded: n = 13 is over the cap 12\n"


def test_symbolic_negative_n_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["symbolic", "-1"])
    assert exc.value.code == 2
    assert "negative" in capsys.readouterr().err


def test_verify_single_suites(capsys):
    for suite in ("lemma", "vandermonde", "eq3", "macmahon"):
        code, out, _ = run(capsys, "verify", suite)
        assert code == 0
        assert out.startswith(f"{suite}: pass")


def test_verify_children_suite(capsys):
    code, out, _ = run(capsys, "verify", "children")
    assert code == 0
    assert "pass" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 2
    assert "bogus" in err


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


def test_verify_all_under_optimize():
    # a python -O child strips asserts; every suite in the registry must still run and pass
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


def test_probability_inconsistent_endpoint(capsys):
    code, _, err = run(capsys, "probability", "h:0,1", "3", "2")
    assert code == 2
    assert "inconsistent" in err
    code, _, _ = run(capsys, "probability", "h:0,5", "2", "2")
    assert code == 2


def test_probability_json(capsys):
    code, out, _ = run(capsys, "probability", "h:0,1", "2", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["probability"] == "1/3"
    assert record["favorable"] == "2"
    assert record["total"] == "6"
