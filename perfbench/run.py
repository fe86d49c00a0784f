"""pathcount benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {shapes,cli,algebra} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  The program is used from ``src`` as it
stands (no install); the seed only shapes the inputs and is never passed to
the program.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; a record of the run and,
when traced, its spans are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import contextlib
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from math import comb
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("shapes", "cli", "algebra")
SETUP_REPEATS = 9


class Clock:
    """Wall times, and the speed of the processor around each one.

    The shared vCPUs this benchmark was built on change speed by up to 25%,
    in bursts of tens of milliseconds, and a run's median moves with them.
    So a calibration loop (big-integer binomials, tuple-keyed dict stores
    and a short recursion, the kinds of work the program does) is timed
    between operations at least every 10 ms and after every operation longer
    than that.  An operation's scaled time is its wall time times
    REFERENCE_S over the mean loop time in a window around it, as long again
    as the operation on each side and at least 10 ms.  A change to pathcount moves the scaled time as
    much as the wall time; a change in machine speed moves the loop as well
    and cancels.  Raw wall times go to the run record.
    """

    REFERENCE_S = 0.0035  # the calibration loop at the speed the figures refer to
    EVERY_NS = 10_000_000

    def __init__(self):
        self.ends: list[int] = []  # perf_counter_ns at the end of each loop
        self.loops: list[float] = []  # seconds each loop took
        self.probe()

    def probe(self):
        start = perf_counter_ns()
        table, total = {}, 0
        for i in range(1, 40):
            for j in range(i):
                total += comb(10**12 + i, j % 30)
                table[i, j] = total & 255
        total += _descend(10)
        self.ends.append(perf_counter_ns())
        self.loops.append((self.ends[-1] - start) / 1e9)

    def time(self, call):
        """Run ``call``; returns (wall seconds, start in ns, its result)."""
        if perf_counter_ns() - self.ends[-1] > self.EVERY_NS:
            self.probe()
        start = perf_counter_ns()
        out = call()
        wall_ns = perf_counter_ns() - start
        if wall_ns > self.EVERY_NS:
            self.probe()
        return wall_ns / 1e9, start, out

    def scaled(self, wall: float, start: int) -> float:
        """``wall`` at the reference speed; call after a final probe()."""
        reach = max(int(wall * 1e9), self.EVERY_NS)
        lo = bisect.bisect_left(self.ends, start - reach)
        hi = bisect.bisect_right(self.ends, start + int(wall * 1e9) + reach)
        window = self.loops[lo:hi] or self.loops[max(lo - 1, 0):lo + 1]
        return wall * self.REFERENCE_S / statistics.fmean(window)


def _descend(depth: int) -> int:
    return 1 if depth == 0 else sum(_descend(depth - 1) for _ in range(2)) - 1


class Tracer:
    """Spans kept in memory, one per call into a layer, written out at the end."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.spans[sid] = (sid, parent, name, start, perf_counter_ns())
            self._open.pop()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, int] = {}

    def add(self, op: wl.Op, status: str):
        self.attempted += 1
        if status != "ok":
            self.failed += 1
            self.wrong += status == "wrong"
            key = f"{op.layer}: {status}"
            self.failures[key] = self.failures.get(key, 0) + 1


@dataclass(slots=True)
class Sample:
    op: wl.Op
    wall: float
    start: int  # perf_counter_ns when the call began
    out: object  # kept only for child processes, whose record holds their peak RSS


def run_round(ops, clock: Clock, tally: Tally, tracer: Tracer | None = None) -> list[Sample]:
    """Run every operation once and check it; returns the samples of the timed ones.

    The operations that fail today run without a clock or a span, so that a
    fix changes the failure count and no time.
    """
    samples = []
    for op in ops:
        try:
            if not op.timed:
                sample = Sample(op, 0.0, 0, op.run())
            elif tracer is None:
                sample = Sample(op, *clock.time(op.run))
            else:
                sample = Sample(op, *clock.time(lambda: traced_call(tracer, op)))
        except Exception as exc:  # a crash is a failed operation, and the run goes on
            tally.add(op, type(exc).__name__)
            continue
        with unlimited_int_digits():
            try:
                verdict = op.check(sample.out)
            except (ValueError, LookupError, TypeError, AttributeError):  # output that does not parse
                verdict = False
        if verdict is None:
            tally.add(op, f"exit {sample.out.code} {sample.out.error}".rstrip())
        else:
            tally.add(op, "ok" if verdict else "wrong")
        if not isinstance(sample.out, wl.Exit):
            sample.out = None
        if op.timed:
            samples.append(sample)
    return samples


def traced_call(tracer: Tracer, op: wl.Op):
    with tracer.span(op.layer):
        return op.run()


@contextlib.contextmanager
def unlimited_int_digits():
    """Checks parse counts of any size; the program itself keeps the default limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def python(code: str, env: dict) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def summarize(name: str, rounds: list[list[Sample]], setup: list[Sample], peak_kb: int, clock: Clock | None) -> dict:
    """End-to-end metrics from the timed samples: scaled by ``clock``, or raw.

    Totals and rates take each operation at its median over the rounds, so
    one slow round of one operation does not move them; the percentiles
    pool every sample of the run.
    """
    def at(s: Sample) -> float:
        return clock.scaled(s.wall, s.start) if clock else s.wall

    times = [at(s) for r in rounds for s in r]
    by_op: dict[int, list[Sample]] = {}
    for s in (s for r in rounds for s in r):
        by_op.setdefault(id(s.op), []).append(s)
    per_op = [statistics.median(map(at, samples)) for samples in by_op.values()]
    kinds = [samples[0].op.kind for samples in by_op.values()]
    if name == "cli":
        peak_kb = max(s.out.max_rss_kb for r in rounds for s in r)
    metrics = {
        "setup_s": (statistics.median(map(at, setup)), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[-1] * 1e3, "ms"),
    }
    for engine in wl.ENGINES:
        metrics[f"{engine}_s"] = (sum(t for t, k in zip(per_op, kinds) if k == engine), "s")
    return metrics


def end_to_end(name: str, seed: int, seconds: float, pc, env: dict, out_dir: str, tally: Tally):
    if name == "shapes":
        ops = wl.shapes(seed, pc)
    elif name == "algebra":
        ops = wl.algebra(seed, pc)
    else:
        ops = wl.cli(seed, pc, env, out_dir)
        python("import pathcount.cli", env)
    exec(wl.WARMUP[name], {})
    gc.collect()
    gc.freeze()  # the benchmark's own objects stay out of the program's garbage collections
    clock = Clock()
    code = "import pathcount.cli\n" + wl.WARMUP[name]
    setup = [Sample(None, *clock.time(lambda: python(code, env))) for _ in range(SETUP_REPEATS)]
    rounds, start = [], time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(ops, clock, tally))
        if len(rounds) == 1:  # before the samples of later rounds add to it
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    clock.probe()
    detail = {
        "rounds": len(rounds),
        "samples": sum(map(len, rounds)),
        "calibration_loops": len(clock.loops),
        "wall_metrics": {k: v for k, (v, _) in summarize(name, rounds, setup, peak_kb, None).items()},
    }
    return summarize(name, rounds, setup, peak_kb, clock), detail


def per_layer(name: str, seed: int, seconds: float, pc, env: dict, out_dir: str, tally: Tally):
    """Traced passes over all three workloads' in-process operations and probes.

    The per-layer metrics are one set for the whole program, so every traced
    run measures all of them, each as the scaled time of its spanned calls
    per pass.  ``name`` picks the workload whose tracing overhead is
    measured, against an untraced round of the same operations.
    """
    in_process = {"shapes": wl.shapes, "cli": wl.cli_in_process, "algebra": wl.algebra}
    probes = {"shapes": wl.shape_probes, "cli": wl.cli_probes, "algebra": lambda seed, pc: []}
    ops = {w: in_process[w](seed, pc) for w in WORKLOADS}
    probe_ops = {w: probes[w](seed, pc) for w in WORKLOADS}
    for w in WORKLOADS:
        exec(wl.WARMUP[w], {})
    gc.collect()
    gc.freeze()
    clock, tracer = Clock(), Tracer()
    run_round(ops[name], clock, Tally())  # first calls into every command path, uncounted
    passes, start = [], time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        traced, untraced, processes = {}, None, {"cli.interpreter": [], "cli.import": []}
        with tracer.span("pass"):
            for w in WORKLOADS:
                with tracer.span(f"workload.{w}"):
                    traced[w] = run_round(ops[w], clock, tally, tracer)
                    traced[w + ".probes"] = run_round(probe_ops[w], clock, tally, tracer)
            for _ in range(SETUP_REPEATS):
                for layer, code in (("cli.interpreter", "pass"), ("cli.import", IMPORT_TIMER)):
                    with tracer.span(layer):
                        processes[layer].append(Sample(None, *clock.time(lambda: python(code, env))))
        untraced = run_round(ops[name], clock, tally)
        passes.append((traced, untraced, processes))
    clock.probe()

    def at(s: Sample) -> float:
        return clock.scaled(s.wall, s.start)

    layer_passes, overheads = [], []
    for traced, untraced, processes in passes:
        layer_s: dict[str, float] = {}
        for samples in traced.values():
            for s in samples:
                layer_s[s.op.layer] = layer_s.get(s.op.layer, 0.0) + at(s)
        layer_s["cli.interpreter"] = statistics.median(map(at, processes["cli.interpreter"]))
        # the child times its own import; scale it by the speed around its process
        layer_s["cli.import"] = statistics.median(
            clock.scaled(float(s.out), s.start) for s in processes["cli.import"]
        )
        paths = sum(s.op.work for s in traced["algebra"] if s.op.layer == "counting.enumerate_restricted")
        layer_s["counting.enumerate_restricted_paths_per_s"] = paths / layer_s["counting.enumerate_restricted"]
        layer_passes.append(layer_s)
        traced_s, untraced_s = (sum(map(at, samples)) for samples in (traced[name], untraced))
        overheads.append((traced_s - untraced_s) / untraced_s * 100)
    metrics = {}
    for metric, unit in layer_metric_names():
        key = metric.rsplit("_", 1)[0] if unit in ("s", "ms") else metric
        metrics[metric] = (statistics.median(p[key] for p in layer_passes) * (1e3 if unit == "ms" else 1), unit)
    metrics["trace.overhead_pct"] = (statistics.median(overheads), "%")
    spans_path = os.path.join(out_dir, f"spans-{name}-seed{seed}.json")
    with open(spans_path, "w") as f:
        json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns"], "spans": tracer.spans}, f)
    return metrics, {"passes": len(passes), "spans": len(tracer.spans), "spans_file": spans_path}


IMPORT_TIMER = (
    "import time\nt = time.perf_counter()\nimport pathcount.cli\nprint(time.perf_counter() - t)\n"
)


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in the order BENCHMARK.json lists them."""
    names = []
    cases = wl.shape_cases(0)
    for engine in wl.ENGINES:
        for shape in wl.SHAPES:
            if any(s == shape and wl.in_range(engine, p) for s, p, _ in cases):
                names.append((f"counting.{engine}.{shape}_s", "s"))
        names.append((f"counting.{engine}.tiny_s", "s"))
    names += [(f"exactmath.binom.{shape}_s", "s") for shape in wl.SHAPES]
    names += [("exactmath.det_int_s", "s"), ("paths.validate_heights_s", "s")]
    names += [("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"), ("paths.parse_path_spec_ms", "ms")]
    names += [(f"cli.main.{c}_ms", "ms") for c in wl.CLI_COMMANDS]
    names += [("cli.kernel_ms", "ms")]
    names += [(f"{n}_s", "s") for n in (
        "counting.enumerate_polytope", "symbolic.symbolic_lp", "symbolic.expand", "symbolic.evaluate",
        "symbolic.serialize", "counting.enumerate_restricted", "counting.macmahon_bruteforce")]
    names += [("counting.enumerate_restricted_paths_per_s", "1/s")]
    names += [(f"cli.verify.{s}_s", "s") for s in wl.VERIFY_SUITES]
    return names


def environment(root: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "pathcount", "*.py"))):
        with open(path, "rb") as f:
            digest.update(f.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pathcount", "cli.py")):
        print(f"error: no src/pathcount under {root}; run from the root of a pathcount checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(src, "pathcount"), quiet=1)  # warm the byte-code cache
    sys.path.insert(0, src)
    import pathcount
    import pathcount.cli

    if not os.path.abspath(pathcount.__file__).startswith(src + os.sep):
        print(f"error: imported pathcount from {pathcount.__file__}, not from {src}", file=sys.stderr)
        return 2
    pc = types.SimpleNamespace(**vars(pathcount), main=pathcount.cli.main)
    env = dict(os.environ, PYTHONPATH=src)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    if hasattr(os, "sched_setaffinity"):
        # one vCPU for this process and its children, so the calibration loop
        # measures the speed of the processor the operations run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    problems = reference.self_check()
    for problem in problems:
        print(f"reference self-check: {problem}", file=sys.stderr)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(args.workload, args.seed, args.seconds, pc, env, out_dir, tally)
    for failure, times in sorted(tally.failures.items()):
        print(f"failed x{times}: {failure}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        **detail,
        "failures": tally.failures,
    }
    result = {
        "correct": not problems and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({**record, **result}, f, indent=1)
    print("# " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
