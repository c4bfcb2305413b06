"""Command-line front-end: JSON/CSV reports and the verification suites.

Half-integer flags use the doubled-integer convention (`--lambda-x2 3` means
lambda = 3/2) so no parameter ever passes through float parsing.  Exit codes:
0 success, 1 property failure or a branch row or period whose numeric verdict
disagrees with its predicate, 2 invalid parameters, an unwritable --out file,
`period --witness` with `--subgroup g1` (the witness pairing is g2's), a
`period` or `branch` ambient degree above 400 or a `branch --max-target-x2`
that admits a target degree above 400, 3 divergent integral, 4 a verdict kernel
row whose norm is off 1, or a printed number exactly nonzero but not a normal double.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

# Only the standard library and modules built on it load here: `branch` and `period` import
# periods, and `check` imports checks, when they run, so fj, packet, help and usage errors load no numpy.
from .errors import DivergenceError, InvalidParameterError, ToleranceError
from .fjrep import FJParam, SpaceTag, degree_x2, valid_lambdas_x2
from .packets import RealForm, arthur_packet, pure_inner_forms, relevant_pairs

BRANCH_COLUMNS = [
    "p",
    "q",
    "lambda_x2",
    "subgroup",
    "target_x2",
    "converges",
    "nonzero",
    "predicate",
    "value",
    "err",
    "parity",
    "interlace",
    "admissible",
]


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # exit 2, like any other unusable flag value
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    else:
        print(text)


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, sort_keys=True))


def cmd_fj(args) -> int:
    param = FJParam(args.p, args.q, args.lambda_x2)
    _emit_json(args, param.to_json_dict())
    return 0


def _branch_rows(args):
    from .periods import MAX_SCAN_DEGREE, branching_verdicts_x2
    tag = SpaceTag(args.subgroup)
    top = degree_x2(args.p, args.q, args.max_target_x2, tag) // 2
    if top > MAX_SCAN_DEGREE:
        raise ValueError(
            f"--max-target-x2 {args.max_target_x2} admits target degree {top};"
            f" branch scans stop at degree {MAX_SCAN_DEGREE}"
        )
    targets_x2 = valid_lambdas_x2(args.p, args.q, args.max_target_x2, tag)
    results = branching_verdicts_x2(args.p, args.q, args.lambda_x2, args.subgroup, targets_x2)
    rows = []
    for target_x2, result in zip(targets_x2, results):
        v = result.verdict
        rows.append(
            {
                "p": args.p,
                "q": args.q,
                "lambda_x2": args.lambda_x2,
                "subgroup": args.subgroup,
                "target_x2": target_x2,
                "converges": v.converges,
                "nonzero": v.nonzero,
                "predicate": v.predicate_nonzero,
                "value": v.value,
                "err": v.err_est,
                "parity": v.parity_match,
                "interlace": result.interlace.value,
                "admissible": result.admissible_restriction,
            }
        )
    return rows


def _verdicts_agree(rows, predicate: str) -> bool:
    """Whether each row's `nonzero` equals its `predicate`; one `error: verdict mismatch` line per row that differs."""
    mismatches = [row for row in rows if row["nonzero"] != row[predicate]]
    for row in mismatches:
        detail = " ".join(f"{k}={v}" for k, v in row.items())
        print(f"error: verdict mismatch: {detail}", file=sys.stderr)
    return not mismatches


def cmd_branch(args) -> int:
    rows = _branch_rows(args)
    if not _verdicts_agree(rows, "predicate"):
        return 1
    if args.format == "csv":
        # rows hold their values in BRANCH_COLUMNS order
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(BRANCH_COLUMNS)
        writer.writerows([str(v).lower() if isinstance(v, bool) else v for v in row.values()] for row in rows)
        _emit(args, buf.getvalue().rstrip("\n"))
    else:
        _emit_json(args, rows)
    return 0


def cmd_period(args) -> int:
    from .periods import period_integral_G1, period_integral_G2
    if args.witness and args.subgroup == "g1":
        raise ValueError("--witness applies to --subgroup g2 only")
    lam, target = Fraction(args.lambda_x2, 2), Fraction(args.target_x2, 2)
    if args.subgroup == "g1":
        verdict = period_integral_G1(args.p, args.q, lam, target)
    else:
        verdict = period_integral_G2(args.p, args.q, lam, target, use_witness=args.witness)
    payload = verdict.to_json_dict() | {
        "p": args.p,
        "q": args.q,
        "lambda_x2": args.lambda_x2,
        "target_x2": args.target_x2,
        "subgroup": args.subgroup,
    }
    if not _verdicts_agree([payload], "predicate_nonzero"):
        return 1
    _emit_json(args, payload)
    return 0


def cmd_packet(args) -> int:
    form = RealForm(args.p, args.q)
    inner = [[f.p_sig, f.q_sig] for f in pure_inner_forms(form)]
    if args.inner_forms_only:
        _emit_json(args, {"p": args.p, "q": args.q, "pure_inner_forms": inner})
        return 0
    report = arthur_packet(args.p, args.q, Fraction(args.lambda_x2, 2))
    report["pure_inner_forms"] = inner
    report["relevant_pairs"] = {
        direction: [
            [[sub.p_sig, sub.q_sig], [amb.p_sig, amb.q_sig]]
            for sub, amb in relevant_pairs(form, direction)
        ]
        for direction in ("drop_p", "drop_q")
    }
    _emit_json(args, report)
    return 0


def cmd_check(args) -> int:
    from .checks import run_suite
    results = run_suite(args.suite, args.seed)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"[{status}] {res.name}"
        if res.detail:
            line += f"  ({res.detail})"
        print(line)
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} properties passed")
    return 0 if failures == 0 else 1


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


# main reuses one set of parsers per process: building them costs more than ten parses
@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="hypbranch",
        description="Branching verdicts for hyperboloid discrete series via period integrals",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    fj = sub.add_parser("fj", help="report a representation parameter")
    fj.add_argument("--p", type=int, required=True)
    fj.add_argument("--q", type=int, required=True)
    fj.add_argument("--lambda-x2", dest="lambda_x2", type=int, required=True)
    fj.add_argument("--out")
    fj.set_defaults(func=cmd_fj)

    branch = sub.add_parser("branch", help="scan branching targets")
    branch.add_argument("--p", type=int, required=True)
    branch.add_argument("--q", type=int, required=True)
    branch.add_argument("--lambda-x2", dest="lambda_x2", type=int, required=True)
    branch.add_argument("--subgroup", choices=("g1", "g2"), required=True)
    branch.add_argument("--max-target-x2", dest="max_target_x2", type=int, required=True)
    branch.add_argument("--format", choices=("json", "csv"), default="json")
    branch.add_argument("--out")
    branch.set_defaults(func=cmd_branch)

    period = sub.add_parser("period", help="evaluate one period integral")
    period.add_argument("--p", type=int, required=True)
    period.add_argument("--q", type=int, required=True)
    period.add_argument("--lambda-x2", dest="lambda_x2", type=int, required=True)
    period.add_argument("--target-x2", dest="target_x2", type=int, required=True)
    period.add_argument("--subgroup", choices=("g1", "g2"), required=True)
    period.add_argument("--witness", action="store_true", help="use the twisted witness pairing (g2 only)")
    period.add_argument("--out")
    period.set_defaults(func=cmd_period)

    packet = sub.add_parser("packet", help="packet combinatorics and inner forms")
    packet.add_argument("--p", type=int, required=True)
    packet.add_argument("--q", type=int, required=True)
    packet.add_argument("--lambda-x2", dest="lambda_x2", type=int, default=2)
    packet.add_argument("--inner-forms-only", action="store_true")
    packet.add_argument("--out")
    packet.set_defaults(func=cmd_packet)

    check = sub.add_parser("check", help="run property suites")
    check.add_argument(
        "--suite",
        default="all",
        choices=("all", "quadrature", "harmonics", "decay", "branching", "packets", "conjecture"),
    )
    check.add_argument("--seed", type=_seed, default=0)
    check.set_defaults(func=cmd_check)
    return parser, {"fj": fj, "branch": branch, "period": period, "packet": packet, "check": check}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, verbs = _parsers()
    verb = verbs.get(argv[0]) if argv else None
    try:
        # a known verb parses in its own parser, once; all else, and any leftover argument, in the full parser
        args, extra = verb.parse_known_args(argv[1:]) if verb else (None, None)
        if verb is None or extra:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches the contract
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # InvalidParameterError and friends
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
