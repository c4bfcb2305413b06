"""Steadiness self-check: do repeated runs of one commit agree within the bounds?

    python3 perfbench/steadiness.py                        # 2 sets x 10 seeds x every workload
    python3 perfbench/steadiness.py --sets 1 --seeds 5 --workloads g2_scan

For each set, every workload runs once per seed (each set uses its own
seeds), for BENCHMARK.json's run_seconds.  For each end-to-end metric it
reports the median and the interquartile range as a share of the median,
from ``statistics.quantiles(values, n=4)``.  The check fails when a spread
exceeds the metric's bound in BENCHMARK.json, or when a later set's median
is worse than the first set's by more than the bound.  A spread above a
third of the bound, the margin aimed for, is reported as a note.  Exit code
0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import SPEC  # noqa: E402


def run_once(workload: str, seed: int) -> tuple[dict, float]:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output: {proc.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args(argv)
    if args.seeds < 2:
        ap.error("--seeds must be at least 2 for quartiles")

    errors, notes = [], []
    metrics = SPEC["end_to_end"]
    values = {}  # (set, workload) -> metric -> [values]
    walls = []
    for s in range(args.sets):
        for i in range(args.seeds):
            seed = 1 + s * args.seeds + i
            for w in args.workloads:
                measured, wall = run_once(w, seed)
                walls.append(wall)
                for name, value in measured.items():
                    values.setdefault((s, w), {}).setdefault(name, []).append(value)
                print(f"set {s} seed {seed} {w}: {wall:.1f} s", file=sys.stderr)

    for w in args.workloads:
        print(f"\n{w}")
        print(f"  {'metric':<16}{'bound':>7}" + "".join(f"{'median':>14}{'spread':>9}" for _ in range(args.sets)))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = f"  {name:<16}{bound:>7.2f}"
            first = None
            for s in range(args.sets):
                vals = values[(s, w)][name]
                med, spr = statistics.median(vals), spread(vals)
                line += f"{med:>14.6g}{spr:>9.4f}"
                if spr > bound:
                    errors.append(f"{w} {name}: set {s} spread {spr:.4f} > bound {bound}")
                elif spr > bound / 3:
                    notes.append(f"{w} {name}: set {s} spread {spr:.4f} > bound/3 {bound / 3:.4f}")
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    if worse > bound:
                        errors.append(f"{w} {name}: set {s} median worse by {worse:.4f} > bound {bound}")
            print(line)
    print(f"\nruns: {len(walls)}, wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    for n in notes:
        print("NOTE", n)
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
