"""One workload process: import mub3q, warm up, then run a closed loop of ops.

Reads {"src": ..., "warmup": [op, ...], "pool": [op, ...]} as JSON on stdin,
where an op is a list of argv lists, each one `cli.main(argv)` call with
stdout and stderr captured.  The loop runs the pool in whole rounds, one op
at a time on the main thread (on one CPU with --cpu), and stops at the
round boundary nearest to --seconds; with --trace 1 every op runs twice,
untraced and traced.  Each op's exit codes and output go to
stdout as one JSON line after the op's clock has stopped (the full text the
first time an op is run, its SHA-256 afterwards), so checking them is left
to the parent and adds nothing to this process's memory.  The last line is
a summary.

    python3 perfbench/worker.py --seconds 10 --trace 0 --cpu 0 < job.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def _run_op(main, op, tracer):
    codes, outs, errs = [], [], []
    for argv in op:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv) if tracer is None else tracer.call("cli.main", main, argv)
            except Exception:  # an op that raises is a failed op, not a crash
                err.write(traceback.format_exc())
                code = None
        codes.append(code)
        outs.append(out.getvalue())
        errs.append(err.getvalue())
    return codes, outs, errs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cpu", type=int, default=None, help="CPU to run on")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    job = json.load(sys.stdin)
    channel = sys.stdout

    t0 = perf_counter()
    sys.path.insert(0, job["src"])
    import mub3q
    import mub3q.cli
    for op in job["warmup"]:
        _run_op(mub3q.cli.main, op, None)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"summary": {"setup_s": setup_s}}), file=channel)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    def run(k: int, op, traced: bool) -> None:
        t = perf_counter()
        codes, outs, errs = _run_op(mub3q.cli.main, op, tracer if traced else None)
        latencies[traced].append(perf_counter() - t)
        record = {"op": k, "rc": codes, "err": errs}
        if k in seen:
            record["sha"] = [hashlib.sha256(o.encode()).hexdigest() for o in outs]
        else:
            seen.add(k)
            record["out"] = outs
        print(json.dumps(record), file=channel)

    # A traced process runs every op twice, untraced and traced in turn, so
    # that the tracing overhead is taken between neighbouring runs.
    pool = job["pool"]
    seen: set[int] = set()
    latencies: dict[bool, list[float]] = {False: [], True: []}
    loop_start = perf_counter()
    while True:
        round_start = perf_counter()
        for k, op in enumerate(pool):
            if tracer is None:
                run(k, op, False)
                continue
            for traced in (k % 2 == 1, k % 2 == 0):
                with tracing.installed(tracer, mub3q) if traced else contextlib.nullcontext():
                    run(k, op, traced)
        now = perf_counter()
        if now - loop_start + (now - round_start) / 2 >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summary = {"setup_s": setup_s, "latencies_s": latencies[False], "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        summary["traced_latencies_s"] = latencies[True]
        summary["spans"] = dict(tracer.spans)
        summary["counts"] = dict(tracer.counts)
        summary["fits"] = [[list(key), n] for key, n in tracer.fits.items()]
    print(json.dumps({"summary": summary}), file=channel)
    return 0


if __name__ == "__main__":
    sys.exit(main())
