"""hypbranch benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload g2_scan --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout that holds ``src/hypbranch``.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; a summary of the run's measured properties goes to stderr.

Set-up time is the median import of ``hypbranch.cli`` over several fresh
interpreters, half of them before the workload runs and half after it.  The workload then runs untraced in a fresh interpreter (see
worker.py); with --trace 1 the same requests run again, traced, in another
fresh interpreter, and ``python -X importtime`` splits the import.

Every time in the end-to-end metrics is rescaled to the machine's reference
speed by the calibration kernel (see calibration.py); the raw wall-time
figures go to stderr.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

BUDGET_S = 170.0  # every run, build included, must end within 180 s
SETUP_SAMPLES = 8  # half before the workload runs, half after it
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import hypbranch.cli; print(time.perf_counter() - t)"
)
# Every interpreter the benchmark starts keeps OpenBLAS, which numpy loads,
# to one thread.  Left alone, its thread pool starts during the import and
# makes the import use both cores of a 2-core machine, so set-up time would
# follow the load on the second core.  hypbranch's matrices are at most
# 16 x 16, too small for OpenBLAS to split, so requests do the same work.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}

# BENCHMARK.json names the metrics and their units; the functions traced
# are the <module>.<function> of every per-layer <module>.<function>.calls.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
LAYER_FUNCTIONS = tuple(name.removesuffix(".calls") for name in PER_LAYER if name.endswith(".calls"))


class RunError(RuntimeError):
    pass


def _python(args, deadline, **kw):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time budget")
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=remaining, **kw)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"timed out: {' '.join(args[:3])}") from exc
    if proc.returncode != 0:
        raise RunError(f"{' '.join(args[:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def import_seconds(deadline, samples) -> list[float]:
    """Wall times of the import in fresh interpreters."""
    return [float(_python(["-c", IMPORT_PROBE], deadline).stdout) for _ in range(samples)]


def import_split(deadline) -> dict:
    """Seconds spent in the module bodies of numpy, scipy and hypbranch."""
    err = _python(["-X", "importtime", "-c", "import sys; sys.path.insert(0, 'src'); import hypbranch.cli"],
                  deadline).stderr
    totals = {"numpy": 0.0, "scipy": 0.0, "hypbranch": 0.0}
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue  # the header line
        top = parts[2].strip().split(".")[0]
        if top in totals:
            totals[top] += self_us / 1e6
    return totals


def run_worker(args, deadline, stop_after, count=None, trace_out=None) -> dict:
    cmd = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--deadline", str(stop_after)]
    if count is not None:
        cmd += ["--count", str(count)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    return json.loads(_python(cmd, deadline).stdout.strip().splitlines()[-1])


def rescale_factors(records, kernel) -> list[float]:
    """Per request, the reference kernel time over the mean time of the
    kernel runs just before it and just after it (see calibration.py)."""
    starts = [k[0] for k in kernel]
    factors = []
    for r in records:
        before = bisect.bisect_left(starts, r["start_s"])
        after = bisect.bisect_left(starts, r["start_s"] + r["latency_s"])
        near = kernel[max(0, before - calibration.RUNS):before] + kernel[after:after + calibration.RUNS]
        factors.append(calibration.REFERENCE_KERNEL_S / statistics.fmean(k for _, k in near))
    return factors


def harrell_davis(values, p) -> float:
    """The Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights (here the density at each interval's midpoint).  Unlike a
    single order statistic it does not jump when the quantile falls in a
    gap between two request classes.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(w - top) for w in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def timings(records, factors) -> dict:
    """Throughput and latency percentiles over the whole blocks of the run.

    Each request's time is multiplied by its factor.  Every block holds the
    same request mix.  A block cut short by the deadline is left out, so the
    mix behind the figures stays fixed.
    """
    sizes = {}
    for r in records:
        sizes[r["block"]] = sizes.get(r["block"], 0) + 1
    whole = [(r, f) for r, f in zip(records, factors) if sizes[r["block"]] == max(sizes.values())]
    latencies = [r["latency_s"] * f for r, f in whole]
    return {
        "rows_per_s": sum(r["rows"] for r, _ in whole) / sum(latencies),
        "latency_p50_ms": harrell_davis(latencies, 0.5) * 1000.0,
        "latency_p90_ms": harrell_davis(latencies, 0.9) * 1000.0,
    }


def per_layer(untraced, traced, imports) -> dict:
    funcs = traced["trace"]["functions"]
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "summed": 0, "errors": {}}
    get = lambda name: funcs.get(name, zero)  # noqa: E731
    out = {}
    for fn in LAYER_FUNCTIONS:
        out[f"{fn}.calls"] = get(fn)["calls"]
        out[f"{fn}.self_s"] = get(fn)["self_s"]
    main_s = get("cli.main")["incl_s"]
    records = traced["records"]
    hits = sum(r["witness_hits"] for r in records)
    lookups = hits + sum(r["witness_misses"] for r in records)
    leg_hits, leg_misses = traced["legendre"] or (0, 0)
    untraced_records = untraced["records"][:len(records)]
    # Both runs rescaled, so that a change of the machine's speed between
    # them does not read as tracing overhead.
    traced_s = sum(r["latency_s"] * f for r, f in zip(records, rescale_factors(records, traced["kernel"])))
    untraced_s = sum(r["latency_s"] * f for r, f in
                     zip(untraced_records, rescale_factors(untraced_records, untraced["kernel"])))
    out.update({
        "harmonics.ktype_pairing_nonzero.incl_share":
            get("harmonics.ktype_pairing_nonzero")["incl_s"] / main_s if main_s else 0.0,
        "harmonics.witness_harmonics.hit_ratio": hits / lookups if lookups else 0.0,
        "harmonics.gegenbauer.degree_sum": get("harmonics.gegenbauer")["summed"],
        "harmonics.weighted_cos_integral.nodes_sum": get("harmonics.weighted_cos_integral")["summed"],
        "numerics.legendre_rule.hit_ratio":
            leg_hits / (leg_hits + leg_misses) if leg_hits + leg_misses else 0.0,
        "geometry.radial_integral_numeric.tolerance_errors":
            get("geometry.radial_integral_numeric")["errors"].get("ToleranceError", 0),
        "periods.verdict_mismatch_ratio":
            traced["trace"]["mismatches"] / traced["trace"]["verdicts"] if traced["trace"]["verdicts"] else 0.0,
        "import.numpy_s": imports["numpy"],
        "import.scipy_s": imports["scipy"],
        "import.hypbranch_s": imports["hypbranch"],
        "trace.overhead_s": traced_s - untraced_s,
        "trace.absent_functions": len(traced["trace"]["absent"]),
    })
    return out


def properties(records) -> dict:
    """What the workload measured: mix, degrees, witness reuse, failures."""
    rows = sum(r["rows"] for r in records)
    bins = ((0, 7), (8, 15), (16, 31), (32, 63), (64, 127), (128, 511))
    hist = {f"{lo}-{hi}": sum(1 for r in records if r["a"] is not None and lo <= r["a"] <= hi)
            for lo, hi in bins}
    hist["none"] = sum(1 for r in records if r["a"] is None)
    scans = [r for r in records if r["kind"] in ("branch", "period")]
    hits = sum(r["witness_hits"] for r in scans)
    lookups = hits + sum(r["witness_misses"] for r in scans)
    high = [r for r in records if r["a"] is not None and r["a"] > oracles.DEFECT_DEGREE]
    failures = {}
    for r in records:
        if r["fault"]:
            key = f"{r['fault']} {r['kind']} a={r['a']}"
            failures[key] = failures.get(key, 0) + 1
    return {
        "requests": len(records),
        "rows": rows,
        "kinds": {k: sum(1 for r in records if r["kind"] == k) for k in sorted({r["kind"] for r in records})},
        "degree_histogram": {k: v for k, v in hist.items() if v},
        "rows_share_a_gt_64": sum(r["rows"] for r in high) / rows if rows else 0.0,
        "witness_reuse_share": hits / lookups if lookups else None,
        "oracle_failures": failures,
        "first_failures": [r["why"] for r in records if r["fault"]][:3],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hypbranch benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hypbranch" / "cli.py").is_file():
        print(f"error: no hypbranch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    raw = {}  # untraced timings, not rescaled
    try:
        if not args.trace:
            _python(["-c", IMPORT_PROBE], deadline)  # compile bytecode once
            setup_samples = import_seconds(deadline, SETUP_SAMPLES // 2)
        untraced = run_worker(args, deadline, stop_after=3 * args.seconds)
        records = untraced["records"]
        if not records:
            raise RunError("no request completed")
        if args.trace:
            out_dir = ROOT / ".perfbench"
            out_dir.mkdir(exist_ok=True)
            trace_out = out_dir / f"trace-{args.workload}-{args.seed}.json.gz"
            # Leave time for the import split and for writing the trace.
            stop_after = deadline - time.monotonic() - 20.0
            traced = run_worker(args, deadline, stop_after, count=len(records), trace_out=trace_out)
            metrics = per_layer(untraced, traced, import_split(deadline))
            units = PER_LAYER
        else:
            kernel = untraced["kernel"]
            setup_samples += import_seconds(deadline, SETUP_SAMPLES - SETUP_SAMPLES // 2)
            kernel_mean_s = statistics.fmean(k for _, k in kernel)
            metrics = {
                # The imports ran just before and after the workload: the
                # kernel's mean over the workload gives the machine's speed.
                "setup_s": statistics.median(setup_samples) * calibration.REFERENCE_KERNEL_S / kernel_mean_s,
                **timings(records, rescale_factors(records, kernel)),
                "pass_ratio": sum(r["fault"] is None for r in records) / len(records),
                "peak_rss_mb": untraced["peak_rss_mb"],
            }
            raw.update(timings(records, [1.0] * len(records)))
            raw["setup_s"] = statistics.median(setup_samples)
            raw["kernel_ms"] = kernel_mean_s * 1000.0
            units = END_TO_END
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # DEFECT faults are the known defects (a) and (b) above DEFECT_DEGREE:
    # they lower pass_ratio; a WRONG fault makes the run incorrect.
    failed = sum(1 for r in records if r["fault"] == oracles.WRONG)
    props = properties(records)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **props,
                      "wall_time_figures": raw}), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
