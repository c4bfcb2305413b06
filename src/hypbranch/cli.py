"""Command-line front-end: JSON/CSV reports and the verification suites.

Half-integer flags use the doubled-integer convention (`--lambda-x2 3` means
lambda = 3/2) so no parameter ever passes through float parsing.  Exit codes:
0 success, 1 property failure or a branch row or period whose numeric verdict
disagrees with its predicate, 2 invalid parameters, an unwritable --out file,
`period --witness` with `--subgroup g1` (the witness pairing is g2's), or an
`fj`, `period` or `branch` request past the checked range (`fjrep.check_range`),
3 divergent integral, 4 a printed number exactly nonzero but not a normal double.

Every verb and flag is declared once, in VERBS.  `main` reads a canonical argv (each flag once by its full
name, every required flag, every value accepted) straight from that table; argparse, whose parsers are built
from the same table, reads every other argv, so help, usage and error texts are argparse's own, and neither
argparse nor a parser is loaded for a canonical one.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
import types
from fractions import Fraction

# Only the standard library and modules built on it load here: `branch` and `period` import
# periods, and `check` imports checks, when they run, so fj, packet, help and usage errors load no numpy.
from .errors import DivergenceError, ToleranceError
from .fjrep import MAX_TARGET_DEGREE, FJParam, SpaceTag, check_range, degree_x2, valid_lambdas_x2
from .packets import RealForm, arthur_packet, pure_inner_forms, relevant_pairs


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
    check_range(args.q, param.degree)  # before the Wallis factor of its L2 norm
    _emit_json(args, param.to_json_dict())
    return 0


def _mismatches(rows) -> bool:
    """One `error: verdict mismatch` line per row, each given as its (name, value) pairs; whether there was any."""
    for items in rows:
        print("error: verdict mismatch: " + " ".join(f"{k}={v}" for k, v in items), file=sys.stderr)
    return bool(rows)


def cmd_branch(args) -> int:
    from .periods import BranchingVerdict, branching_verdicts_x2
    tag = SpaceTag(args.subgroup)
    top = degree_x2(args.p, args.q, args.max_target_x2, tag) // 2
    if top > MAX_TARGET_DEGREE:  # before valid_lambdas_x2 lists the targets
        raise ValueError(f"--max-target-x2 {args.max_target_x2} admits target degree {top},"
                         f" past the checked range, which ends at {MAX_TARGET_DEGREE}")
    targets_x2 = valid_lambdas_x2(args.p, args.q, args.max_target_x2, tag)
    # every row's value is rounded, and refused, before any verdict is compared
    rows = branching_verdicts_x2(args.p, args.q, args.lambda_x2, args.subgroup, targets_x2)
    columns = BranchingVerdict._fields
    if _mismatches([zip(columns, row) for row in rows if row.nonzero != row.predicate]):
        return 1
    # A row's text: its bools as true/false, then each value by str(), which for a float is its repr, as in
    # csv.writer and json.dumps.  A JSON row lists its keys sorted; its two text columns hold identifiers (g1, g2
    # and the InterlaceClass values), which JSON quotes with no escape.
    texts = [tuple([("false", "true")[v] if v.__class__ is bool else v for v in row]) for row in rows]
    if args.format == "csv":
        # csv.writer's lines, none of whose fields needs quoting: CRLF ends, the last one's LF left to _emit
        line = ",".join(["%s"] * len(columns))
        _emit(args, "\r\n".join([",".join(columns), *[line % text for text in texts]]) + "\r")
    else:
        keys = sorted(columns)
        line = "{" + ", ".join(f'"{k}": ' + ('"%s"' if k in ("subgroup", "interlace") else "%s") for k in keys) + "}"
        order = operator.itemgetter(*map(columns.index, keys))
        _emit(args, "[" + ", ".join([line % order(text) for text in texts]) + "]")
    return 0


def cmd_period(args) -> int:
    from .periods import period_integral_G1, period_integral_G2
    if args.witness and args.subgroup == "g1":
        raise ValueError("--witness applies to --subgroup g2 only")
    lam, target = Fraction(args.lambda_x2, 2), Fraction(args.target_x2, 2)
    if args.subgroup == "g1":
        record = period_integral_G1(args.p, args.q, lam, target)
    else:
        record = period_integral_G2(args.p, args.q, lam, target, use_witness=args.witness)
    if _mismatches([record._asdict().items()] if record.nonzero != record.predicate_nonzero else []):
        return 1
    _emit_json(args, record._asdict())
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
        import argparse

        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


# Every verb once: its handler, its help and its flags, each flag as (type, default or REQUIRED, choices, help).
# A `bool` flag is a switch.  `main` reads a canonical argv from this table; argparse's parsers are built from it.
REQUIRED = object()
_INT, _OUT, _SWITCH = (int, REQUIRED, None, None), (str, None, None, None), (bool, False, None, None)
_SUBGROUP = (str, REQUIRED, ("g1", "g2"), None)
_SIGNATURE = {"--p": _INT, "--q": _INT, "--lambda-x2": _INT}
_SUITES = ("all", "quadrature", "harmonics", "decay", "branching", "packets", "conjecture")
VERBS = {
    "fj": (cmd_fj, "report a representation parameter", {**_SIGNATURE, "--out": _OUT}),
    "branch": (cmd_branch, "scan branching targets", {
        **_SIGNATURE, "--subgroup": _SUBGROUP, "--max-target-x2": _INT,
        "--format": (str, "json", ("json", "csv"), None), "--out": _OUT,
    }),
    "period": (cmd_period, "evaluate one period integral", {
        **_SIGNATURE, "--target-x2": _INT, "--subgroup": _SUBGROUP,
        "--witness": (bool, False, None, "use the twisted witness pairing (g2 only)"), "--out": _OUT,
    }),
    "packet": (cmd_packet, "packet combinatorics and inner forms", {
        "--p": _INT, "--q": _INT, "--lambda-x2": (int, 2, None, None), "--inner-forms-only": _SWITCH, "--out": _OUT,
    }),
    "check": (cmd_check, "run property suites", {
        "--suite": (str, "all", _SUITES, None),
        "--seed": (_seed, 0, None, None),
    }),
}


def _canonical(argv):
    """The namespace of a canonical argv, read from VERBS, or None when argparse must read it.

    Canonical: a verb, then each of its flags at most once by its full name, as `--flag value` or `--switch`,
    every required flag present, and every value accepted by its type and choices and not starting with `-`.
    """
    if not argv or argv[0] not in VERBS:
        return None
    func, _, flags = VERBS[argv[0]]
    values, tokens = {}, iter(argv[1:])
    for option in tokens:
        if option not in flags or option in values:
            return None
        kind, _, choices, _ = flags[option]
        if kind is bool:
            values[option] = True
            continue
        text = next(tokens, "-")  # a flag with no value reads as one followed by a flag
        if text.startswith("-") or (choices and text not in choices):
            return None
        try:
            values[option] = kind(text)
        except Exception:  # argparse calls the type again, and words the refusal or lets it propagate
            return None
    if any(flag[1] is REQUIRED and option not in values for option, flag in flags.items()):
        return None
    return types.SimpleNamespace(
        **{option[2:].replace("-", "_"): values.get(option, flag[1]) for option, flag in flags.items()}, func=func
    )


@functools.cache
def _parsers():
    import argparse

    parser = argparse.ArgumentParser(
        prog="hypbranch",
        description="Branching verdicts for hyperboloid discrete series via period integrals",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}
    for name, (func, help_text, flags) in VERBS.items():
        verbs[name] = verb = sub.add_parser(name, help=help_text)
        for option, (kind, default, choices, flag_help) in flags.items():
            if kind is bool:
                verb.add_argument(option, action="store_true", help=flag_help)
            else:
                verb.add_argument(option, type=kind, choices=choices, required=default is REQUIRED,
                                  default=None if default is REQUIRED else default, help=flag_help)
        verb.set_defaults(func=func)
    return parser, verbs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _canonical(argv)
    if args is None:
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
