"""One workload run in a fresh interpreter: a closed loop with one client.

Requests go one after another through ``hypbranch.cli.main(argv)`` with
stdout and stderr captured, as a user scripting the CLI would call it.  Each
output is checked by its oracle after the request's clock has stopped.  The
last line of stdout is a JSON object with one record per request, the
calibration kernel's samples (see calibration.py), the peak RSS, and (with
``--trace-out``) the tracer's per-function totals.

    python3 perfbench/worker.py --workload g2_scan --seed 1 --seconds 25
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def _cache_counts(fn):
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--count", type=int, help="run only the first COUNT requests")
    ap.add_argument("--deadline", type=float, default=float("inf"),
                    help="issue no request after this many seconds")
    ap.add_argument("--trace-out", help="trace the run and write its spans here")
    args = ap.parse_args(argv)

    requests = workloads.generate(args.workload, args.seed, args.seconds)[: args.count]

    from hypbranch import cli, harmonics, numerics

    tracer = None
    if args.trace_out:
        from run import LAYER_FUNCTIONS
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("hypbranch", set(LAYER_FUNCTIONS))
    witness = getattr(harmonics, "_witness_harmonics", None)
    legendre = getattr(numerics, "_legendre_rule", None)
    legendre_start = _cache_counts(legendre)

    records = []
    # [start, seconds] of each kernel run, from the start of the run.  The
    # kernel runs before the first request and after every request.
    kernel = []
    calibration.kernel_seconds()  # warm-up
    start = time.perf_counter()

    def calibrate():
        for _ in range(calibration.RUNS):
            kernel.append([time.perf_counter() - start, calibration.kernel_seconds()])

    calibrate()
    for rid, req in enumerate(requests):
        if time.perf_counter() - start > args.deadline:
            break
        out, err = io.StringIO(), io.StringIO()
        w0 = _cache_counts(witness)
        if tracer:
            tracer.request = rid
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(req["argv"])
            except Exception as exc:  # the CLI would end in a traceback: exit 1
                print(f"{type(exc).__name__}: {exc}", file=err)
                code = 1
        latency = time.perf_counter() - t0
        calibrate()
        w1 = _cache_counts(witness)
        fault, rows, why = oracles.check(req, code, out.getvalue())
        if fault and err.getvalue():
            why += " | stderr: " + err.getvalue().strip().splitlines()[-1]
        records.append({
            "kind": req["kind"],
            "block": req["block"],
            "a": req["a"],
            "start_s": t0 - start,
            "latency_s": latency,
            "exit": code,
            "rows": rows,
            "fault": fault,
            "why": why,
            "witness_hits": w1[0] - w0[0] if w0 else 0,
            "witness_misses": w1[1] - w0[1] if w0 else 0,
        })
    wall = time.perf_counter() - start

    result = {
        "records": records,
        "kernel": kernel,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "legendre": None,
    }
    if legendre_start:
        end = _cache_counts(legendre)
        result["legendre"] = [end[0] - legendre_start[0], end[1] - legendre_start[1]]
    if tracer:
        tracer.write(args.trace_out)
        result["trace"] = {
            "functions": tracer.summary(),
            "absent": tracer.absent,
            "verdicts": tracer.verdicts,
            "mismatches": tracer.mismatches,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
