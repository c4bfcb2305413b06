"""The committed differential sweep: a fixed command list and what each command printed when it was blessed.

`commands()` builds the list from one seed.  It covers `fj`, `period`, `branch` and `packet`, both subgroups,
`--witness`, JSON and CSV, the corners and edges of the checked range, every command of ROADMAP's defect
ledger, and a few non-canonical spellings: an abbreviated flag, `--flag=value`, a repeated flag, reordered
flags, a missing flag, a bad int, an out-of-choice value, `-h`.  It leaves out `check`, whose digits come
from numpy's rounding.

`golden/sweep_manifest.json` stores, per command, the exit code, the SHA-256 of stdout, and stderr;
`test_sweep.py` runs the list in process and compares.  After a deliberate output change, run

    PYTHONPATH=src python tests/sweep.py --rebless

to rewrite the manifest from the package under src/; it prints the moves as (old exit -> new exit) counts and the number of changed
stdouts and stderrs.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path
from unittest import mock

MANIFEST = Path(__file__).parent / "golden" / "sweep_manifest.json"
SEED = 33

# ROADMAP's defect ledger, one command per open row that has one, and the sphere range's pair of g1 periods
LEDGER = [
    ["branch", "--p", "4", "--q", "16", "--lambda-x2", "786", "--subgroup", "g2", "--max-target-x2", "785"],  # (e)
    ["packet", "--p", "4", "--q", "8", "--lambda-x2", "2"],  # (m)
    ["fj", "--p", "4", "--q", "8", "--lambda-x2", "2"],  # (m), its control
    ["fj", "--p", "4", "--q", "4", "--lambda-x2", "4"],  # (n)
    ["fj", "--p", "5", "--q", "5", "--lambda-x2", "400000"],  # (o)
    ["period", "--p", "5", "--q", "1000", "--lambda-x2", "1077", "--target-x2", "1078", "--subgroup", "g1"],
    ["period", "--p", "5", "--q", "1000", "--lambda-x2", "1077", "--target-x2", "1082", "--subgroup", "g1"],
]

# the corners and edges of the checked range (`fjrep.check_range`): degree 0 and 400, target degree 402, q = 4 and
# 16, and just past each; and requests far past it, on spheres to S^999 and at p = 10^6
CORNERS = [
    ["fj", "--p", "4", "--q", "4", "--lambda-x2", "2"],
    ["fj", "--p", "6", "--q", "5", "--lambda-x2", "801"],
    ["fj", "--p", "4", "--q", "438", "--lambda-x2", "10434"],
    ["fj", "--p", "1000000", "--q", "4", "--lambda-x2", "1000000"],
    ["period", "--p", "4", "--q", "4", "--lambda-x2", "2", "--target-x2", "1", "--subgroup", "g2"],
    ["period", "--p", "5", "--q", "4", "--lambda-x2", "1", "--target-x2", "2", "--subgroup", "g1"],
    ["period", "--p", "6", "--q", "5", "--lambda-x2", "801", "--target-x2", "806", "--subgroup", "g1"],
    ["period", "--p", "6", "--q", "5", "--lambda-x2", "803", "--target-x2", "806", "--subgroup", "g1"],
    ["period", "--p", "5", "--q", "4", "--lambda-x2", "801", "--target-x2", "806", "--subgroup", "g1"],
    ["period", "--p", "5", "--q", "4", "--lambda-x2", "801", "--target-x2", "808", "--subgroup", "g1"],
    ["period", "--p", "5", "--q", "16", "--lambda-x2", "813", "--target-x2", "816", "--subgroup", "g2", "--witness"],
    ["period", "--p", "5", "--q", "17", "--lambda-x2", "14", "--target-x2", "15", "--subgroup", "g1"],
    ["fj", "--p", "4", "--q", "17", "--lambda-x2", "15"],
    ["period", "--p", "4", "--q", "16", "--lambda-x2", "814", "--target-x2", "13", "--subgroup", "g2"],
    ["period", "--p", "4", "--q", "432", "--lambda-x2", "750", "--target-x2", "751", "--subgroup", "g1"],
    ["period", "--p", "5", "--q", "438", "--lambda-x2", "437", "--target-x2", "438", "--subgroup", "g1"],
    ["period", "--p", "5", "--q", "438", "--lambda-x2", "437", "--target-x2", "442", "--subgroup", "g1"],
    ["period", "--p", "5", "--q", "130", "--lambda-x2", "133", "--target-x2", "2200", "--subgroup", "g1"],
    ["period", "--p", "16", "--q", "6", "--lambda-x2", "392", "--target-x2", "1", "--subgroup", "g2", "--witness"],
    ["period", "--p", "18", "--q", "14", "--lambda-x2", "768", "--target-x2", "771", "--subgroup", "g2", "--witness"],
    ["period", "--p", "4", "--q", "6", "--lambda-x2", "8", "--target-x2", "5", "--subgroup", "g1", "--witness"],
    ["branch", "--p", "16", "--q", "6", "--lambda-x2", "392", "--subgroup", "g2", "--max-target-x2", "1"],
    ["branch", "--p", "5", "--q", "4", "--lambda-x2", "201", "--subgroup", "g1", "--max-target-x2", "206"],
    ["branch", "--p", "5", "--q", "4", "--lambda-x2", "799", "--subgroup", "g1", "--max-target-x2", "802"],
    ["branch", "--p", "5", "--q", "4", "--lambda-x2", "799", "--subgroup", "g1", "--max-target-x2", "804"],
    ["branch", "--p", "4", "--q", "6", "--lambda-x2", "40004", "--subgroup", "g2", "--max-target-x2", "5"],
    ["branch", "--p", "4", "--q", "4", "--lambda-x2", "4", "--subgroup", "g2", "--max-target-x2", "0"],
    ["packet", "--p", "4", "--q", "100000"],
    ["packet", "--p", "5", "--q", "4"],
    ["packet", "--p", "4", "--q", "4", "--lambda-x2", "0"],
]

# help, usage errors, and other spellings of commands that exit 0: abbreviated, `=`, repeated, reordered, missing
# and refused values
SPELLINGS = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["fj", "-h"],
    ["branch", "--help"],
    ["period", "-h"],
    ["packet", "-h"],
    ["fj", "--p", "4", "--q", "4", "--lambda", "4"],
    ["fj", "--p=4", "--q=4", "--lambda-x2=4"],
    ["fj", "--p", "4", "--q", "4", "--lambda-x2", "4", "--p", "5"],
    ["fj", "--lambda-x2", "4", "--q", "4", "--p", "4"],
    ["fj", "--p", "4", "--q", "4"],
    ["fj", "--p", "4", "--q", "four", "--lambda-x2", "4"],
    ["fj", "--p", "4", "--q", "4", "--lambda-x2", "4", "--bogus"],
    ["period", "--p", "4", "--q", "4", "--lambda-x2", "4", "--target-x2", "3", "--subgroup", "g3"],
    ["period", "--subgroup", "g2", "--target-x2", "3", "--lambda-x2", "4", "--q", "4", "--p", "4"],
    ["period", "--p", "4", "--q", "4", "--lambda-x2", "4", "--target-x2", "3", "--sub", "g2", "--wit"],
    ["period", "--p", "4", "--q", "4", "--lambda-x2", "4", "--target-x2", "3", "--subgroup", "g2", "--witness",
     "--witness"],
    ["branch", "--p", "4", "--q", "6", "--lambda-x2", "40", "--subgroup", "g2", "--max-target-x2", "44",
     "--format", "xml"],
    ["branch", "--p", "4", "--q", "6", "--lambda-x2", "40", "--subgroup=g2", "--max-target-x2=44", "--format=csv"],
    ["branch", "--p", "4", "--q", "6", "--lambda-x2", "40", "--subgroup", "g2"],
    ["packet", "--p", "4", "--q", "4", "extra"],
    ["packet", "--p", "4", "--q", "4", "--inner", "--lambda-x2", "6"],
    ["packet", "--q", "6", "--p", "4", "--inner-forms-only", "--inner-forms-only"],
    ["packet", "--p", "4", "--q", "-4"],
]


def _seeded(seed: int) -> list[list]:
    rng = random.Random(seed)
    argvs = []
    for _ in range(400):
        p, q = rng.randrange(4, 17), rng.randrange(4, 17)
        a = rng.choice((rng.randrange(0, 8), rng.randrange(0, 40), rng.randrange(0, 401)))
        # now and then a lambda of the wrong parity or sign, which is no representation of X(p, q)
        lam_x2 = 2 * a + 2 - (p - q) + rng.choice((0, 0, 0, 0, 0, 0, 0, 1, -2 * a - 4))
        kind = rng.choice(("fj", "g1", "g1", "g2", "g2w", "branch", "branch", "packet"))
        if kind == "fj":
            argvs.append(["fj", "--p", p, "--q", q, "--lambda-x2", lam_x2])
        elif kind == "packet":
            inner = ["--inner-forms-only"] if rng.random() < 0.3 else []
            argvs.append(["packet", "--p", p, "--q", q, *(["--lambda-x2", lam_x2] if rng.random() < 0.8 else inner)])
        elif kind == "branch":
            sub = rng.choice(("g1", "g2"))
            reach = min(a, 30) if sub == "g2" else a  # g2 witness scans cost a^2 per row
            d = reach + rng.choice((-1, 0, 2))
            top = 2 * d + 2 - (p - q + (1 if sub == "g2" else -1))
            lam_x2 = 2 * reach + 2 - (p - q) if sub == "g2" else lam_x2
            argvs.append(["branch", "--p", p, "--q", q, "--lambda-x2", lam_x2, "--subgroup", sub,
                          "--max-target-x2", top, *(["--format", rng.choice(("json", "csv"))] if rng.random() < 0.8
                                                   else [])])
        else:
            sub = kind[:2]
            d = max(0, a + rng.choice((-3, -2, -1, 0, 0, 1, 2)))
            t_x2 = 2 * d + 2 - (p - q + (1 if sub == "g2" else -1))
            argvs.append(["period", "--p", p, "--q", q, "--lambda-x2", lam_x2, "--target-x2", t_x2,
                          "--subgroup", sub, *(["--witness"] if kind == "g2w" else [])])
    return argvs


def commands(seed: int = SEED) -> list[list[str]]:
    """The fixed command list: seeded fj, period, branch and packet requests, then corners, ledger and spellings."""
    return [[str(x) for x in argv] for argv in (*_seeded(seed), *CORNERS, *LEDGER, *SPELLINGS)]


def run(argv: list[str]) -> dict:
    """One command in process: its exit code, the SHA-256 of its stdout, and its stderr.

    Help text is wrapped at COLUMNS, so the width is pinned at 80 for the run.
    """
    from hypbranch.cli import main

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def run_all(seed: int = SEED) -> list[dict]:
    return [run(argv) for argv in commands(seed)]


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def dump(records: list[dict]) -> str:
    """The manifest text: one command a line, so a re-bless diffs line by line."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n"


def moves(old: list[dict], new: list[dict]) -> str:
    """(old exit -> new exit) counts over the commands in both lists, and the commands whose output changed."""
    before = {tuple(r["argv"]): r for r in old}
    exits, stdouts, stderrs = collections.Counter(), 0, 0
    for record in new:
        prior = before.get(tuple(record["argv"]))
        if prior is None:
            exits[f"new -> {record['exit']}"] += 1
            continue
        if prior["exit"] != record["exit"]:
            exits[f"{prior['exit']} -> {record['exit']}"] += 1
        stdouts += prior["stdout_sha256"] != record["stdout_sha256"]
        stderrs += prior["stderr"] != record["stderr"]
    dropped = len(before.keys() - {tuple(r["argv"]) for r in new})
    lines = [f"exit {move}: {count}" for move, count in sorted(exits.items())]
    lines.append(f"changed stdout: {stdouts}, changed stderr: {stderrs}, dropped commands: {dropped}")
    return "\n".join(lines)


def census(records: list[dict]) -> str:
    counts = collections.Counter(r["exit"] for r in records)
    return ", ".join(f"exit {code}: {counts[code]}" for code in sorted(counts)) + f" ({len(records)} commands)"


if __name__ == "__main__":
    if sys.argv[1:] != ["--rebless"]:
        sys.exit("usage: python tests/sweep.py --rebless")
    records = run_all()
    old = load() if MANIFEST.exists() else []
    MANIFEST.write_text(dump(records), encoding="utf-8")
    print(moves(old, records))
    print(census(records))
