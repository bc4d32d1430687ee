"""Benchmark of the mub3q pipeline: solve -> table -> MUB set.

    python3 perfbench/run.py --workload solve-schemes --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from ./src; no
install is needed.  Inputs are drawn from --seed by the generators in
inputs.py and reach the program only as argv.  Each workload process
(worker.py) runs a closed loop of ops for about --seconds, one op at a time
on its main thread, with numpy's BLAS pool held to one thread.  This
process checks every op's output against the oracle afterwards.

--trace 0 reports the end-to-end metrics; set-up is measured in
SETUP_REPEATS fresh interpreters and the median is reported.  --trace 1
runs one process that runs every op untraced and then traced, or the other
way round, and reports the per-layer metrics of the traced runs, per op.  The last line of stdout is
the JSON result; the line before it gives the tail latency where the run
has enough ops for one.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import checks
import inputs
import oracle as O

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# Workload processes all run on one CPU and this process on the others.  On
# the reference machine the speed of its two CPUs drifts apart by up to 40%
# under load from outside, so a process that lands on either one at random
# widens the run-to-run spread of every timing.
WORKER_CPU = min(os.sched_getaffinity(0))
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

EXAMPLE_FIXINGS = [
    ["solve", "--scenario", "three-axes", "--l1", "m2", "--l2", "m6"],
    ["solve", "--scenario", "two-axes", "--b11", "m4", "--b12", "m3", "--b13", "m5",
     "--a21", "1"],
    ["solve", "--scenario", "one-axis", "--b11", "m4", "--b12", "m3", "--b13", "m",
     "--a21", "1", "--b22", "m2", "--b23", "m6"],
    ["solve", "--scenario", "no-axis", "--a11", "m2", "--b11", "m5", "--b12", "m3",
     "--b13", "1", "--a21", "m3", "--b22", "m2", "--b23", "m"],
]

# name: (op generator, distinct ops per run, warm-up ops, tail percentile).
# The warm-up ops are fixed, so set-up time does not depend on the seed.  The
# tail percentile is the highest one with ten ops beyond it, with some margin,
# at the op count a 25 s run reaches on the reference machine (README.md);
# solve-generic reaches about 24 ops, too few for a tail.
WORKLOADS = {
    "solve-generic": (
        inputs.solve_generic_op, 12,
        [[inputs.generic_argv({n: v for n, v in inputs.BASE_SEED.items()
                               if n not in ("a22", "b22", "a23")})]],
        None,
    ),
    "solve-schemes": (inputs.solve_schemes_op, 256, [EXAMPLE_FIXINGS], 98),
    "seed-report": (
        inputs.seed_report_op, 64, [inputs.seed_report_argv(inputs.BASE_SEED)], 95,
    ),
    "reproduce-paper": (inputs.reproduce_paper_op, 1, [inputs.reproduce_paper_op(None)], 85),
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_worker(job: dict, seconds: float, trace: int, setup_only: bool = False) -> dict:
    """Run one workload process; returns its summary and its op records."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--seconds", str(seconds),
           "--trace", str(trace), "--cpu", str(WORKER_CPU)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(2 * seconds + 60, proc.kill)
    watchdog.start()
    records, summary = [], None
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        for line in proc.stdout:
            rec = json.loads(line)
            if "summary" in rec:
                summary = rec["summary"]
            else:
                records.append(rec)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or summary is None:
        raise HarnessError(f"workload process exited with {proc.returncode}")
    return {"summary": summary, "records": records}


class Verdicts:
    """Checks op records.  The first output of each op is checked in full;
    later runs of the op must repeat it byte for byte (compared by SHA-256),
    and share its verdict."""

    def __init__(self, pool: list):
        self.pool = pool
        self.first: dict[int, tuple] = {}  # op index -> (exit codes, hashes, problems)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._known = self._misprinted = None

    def _check_call(self, argv, code, out) -> list[str]:
        kind = argv[0]
        if kind == "solve":
            return checks.check_solve(argv, code, out)
        if kind == "table":
            return checks.check_table(argv, code, out)
        if kind == "verify":
            return checks.check_verify(argv, code, out)
        if kind == "classify":
            return checks.check_classify(argv, code, out, self._program_data()[0])
        return checks.check_reproduce(code, out, self._program_data()[1])

    def _program_data(self):
        """KNOWN_STRUCTURES and the check names of the documented misprints."""
        if self._known is None:
            sys.path.insert(0, str(SRC))
            from mub3q import reference

            self._known = set(reference.KNOWN_STRUCTURES)
            self._misprinted = {f"{ex} curve {k}" for ex, k in reference.MISPRINTED_CURVES}
        return self._known, self._misprinted

    def add(self, rec: dict) -> None:
        self.attempted += 1
        k, codes = rec["op"], rec["rc"]
        if "out" in rec:
            hashes = [hashlib.sha256(o.encode()).hexdigest() for o in rec["out"]]
            if k not in self.first:
                found = []
                for argv, code, out in zip(self.pool[k], codes, rec["out"]):
                    try:
                        found += self._check_call(argv, code, out)
                    except Exception as exc:  # unreadable output fails the op
                        found.append(f"unreadable output: {type(exc).__name__}: {exc}")
                self.first[k] = (codes, hashes, found)
        else:
            hashes = rec["sha"]
        first_codes, first_hashes, problems = self.first[k]
        if (codes, hashes) != (first_codes, first_hashes):
            problems = problems + ["output differs from an earlier run of the same op"]
        if problems:
            self.failed += 1
            errs = [e for e in rec["err"] if e]
            self.problems.append(f"op {k} {self.pool[k]}: {problems[:3]} {errs[:1]}")


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def end_to_end(job, seconds, verdicts, tail_pct) -> dict:
    setups = [run_worker(job, seconds, 0, setup_only=True)["summary"]["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    run = run_worker(job, seconds, 0)
    for rec in run["records"]:
        verdicts.add(rec)
    s = run["summary"]
    lat = s["latencies_s"]
    setups.append(s["setup_s"])
    n = len(lat)
    if tail_pct is not None and n * (100 - tail_pct) >= 1000:
        tail = {"latency_tail_ms": percentile(lat, tail_pct) * 1000, "percentile": tail_pct}
    else:
        tail = {"latency_tail_ms": None, "percentile": tail_pct}
    print(json.dumps(dict(tail, ops=n)))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "peak_rss_mb": (s["peak_rss_mb"], "MB"),
    }


def _exact_fit_share(fits) -> float:
    total = exact = 0
    for (row, lcoef, mcoef), n in fits:
        total += n
        points = {tuple(p) for p in row} | {(0, 0)}
        exact += n * (O.curve_points(lcoef, mcoef) == points)
    return exact / total if total else 0.0


def per_layer(job, seconds, verdicts) -> dict:
    run = run_worker(job, seconds, 1)
    for rec in run["records"]:
        verdicts.add(rec)
    s = run["summary"]
    ops = len(s["traced_latencies_s"])
    spans, counts = s["spans"], s["counts"]

    def calls(name):
        return (spans.get(name, [0])[0] / ops, "count")

    def ms(name, col=1):
        return (spans.get(name, [0, 0.0, 0.0])[col] * 1000 / ops, "ms")

    def count(name):
        return (counts.get(name, 0) / ops, "count")

    valid_calls = spans.get("solver.solution_is_valid", [0])[0]
    valid = counts.get("solver.solution_is_valid.valid", 0)
    overhead = statistics.median(
        t - p for t, p in zip(s["traced_latencies_s"], s["latencies_s"]))
    return {
        "cli.main.self_ms": ms("cli.main", 2),
        "solver.enumerate_assignments.ms": ms("solver.enumerate_assignments"),
        "solver.enumerate_assignments.candidates": count("solver.enumerate_assignments.candidates"),
        "solver.enumerate_assignments.hits": count("solver.enumerate_assignments.hits"),
        "solver.solution_is_valid.ms": ms("solver.solution_is_valid"),
        "solver.solution_is_valid.calls": calls("solver.solution_is_valid"),
        "solver.solution_is_valid.valid_ratio": (valid / valid_calls if valid_calls else 0.0, "ratio"),
        "phasespace.build_table.calls": calls("phasespace.build_table"),
        "phasespace.build_table.ms": ms("phasespace.build_table"),
        "phasespace.validate_table.calls": calls("phasespace.validate_table"),
        "phasespace.validate_table.ms": ms("phasespace.validate_table"),
        "phasespace.failing_equations.ms": ms("phasespace.failing_equations"),
        "phasespace.fit_curve.ms": ms("phasespace.fit_curve"),
        "phasespace.fit_curve.exact_ratio": (_exact_fit_share(s["fits"]), "ratio"),
        "phasespace.render_grid.ms": ms("phasespace.render_grid"),
        "pauli.class_from_row.ms": ms("pauli.class_from_row"),
        "mub.eigenbasis.calls": calls("mub.eigenbasis"),
        "mub.eigenbasis.ms": ms("mub.eigenbasis"),
        "mub.verify_mub_set.ms": ms("mub.verify_mub_set"),
        "mub.structure.ms": ms("mub.structure"),
        "reference.solve_example.calls": calls("reference.solve_example"),
        "reference.system_solutions.ms": ms("reference.system_solutions"),
        "reference.run_all_checks.self_ms": ms("reference.run_all_checks", 2),
        "trace.overhead_ms": (overhead * 1000, "ms"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mub3q" / "cli.py").is_file():
        print(f"error: no mub3q sources under {SRC}", file=sys.stderr)
        return 2

    others = os.sched_getaffinity(0) - {WORKER_CPU}
    if others:
        os.sched_setaffinity(0, others)
    generate, distinct, warmup, tail_pct = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}/{args.seed}")
    pool = [generate(rng) for _ in range(distinct)]
    job = {"src": str(SRC), "warmup": warmup, "pool": pool}
    verdicts = Verdicts(pool)
    try:
        if args.trace:
            metrics = per_layer(job, args.seconds, verdicts)
        else:
            metrics = end_to_end(job, args.seconds, verdicts, tail_pct)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in verdicts.problems[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
