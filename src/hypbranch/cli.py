"""Command-line front-end: JSON/CSV reports and the verification suites.

Half-integer flags use the doubled-integer convention (`--lambda-x2 3` means lambda = 3/2) so no parameter
ever passes through float parsing.  Exit codes: 0 success, 1 property failure, or a branch row or period whose
numeric verdict (or a branch row whose interlace class) contradicts its predicate, 2 invalid parameters, an
unwritable --out file, `period --witness` with `--subgroup g1` (the witness pairing is g2's), or an `fj`,
`period` or `branch` request past the checked range (`fjrep.check_range`), 3 divergent integral, 4 a printed
number exactly nonzero but not a normal double.

Every verb and flag is declared once, in VERBS.  `main` reads a canonical argv (each flag once by its full
name, every required flag, every value accepted) straight from that table; argparse, whose parsers are built
from the same table, reads every other argv, so help, usage and error texts are argparse's own, and neither
argparse nor a parser is loaded for a canonical one.

The standard-library modules each verb loads beyond this module's import: `fj` none, `packet` json (its report
is json.dumps), `branch`, `period` and `check` numpy (and numpy's own imports), help and usage errors argparse.
Of the package, `branch` and `period` load `interlace` but not `packets`, which only `packet` and the `packets` and
`conjecture` suites of `check` load.
Flags stay doubled ints and every other report prints through a template cached per record type
(`_report_template`, `_branch_skeleton`), so no verb loads fractions or decimal, and none but `packet` json.
"""

from __future__ import annotations

import functools
import operator
import os
import sys
import types

# Only the standard library and modules built on it load here: `branch` and `period` import periods, `packet`
# packets and `check` checks, when they run, so fj, packet, help and usage errors load no numpy, and fj, branch and
# period no packets.
from .errors import DivergenceError, ToleranceError
from .fjrep import MAX_TARGET_DEGREE, FJParam, SpaceTag, check_range, degree_x2, valid_lambdas_x2


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # exit 2, like any other unusable flag value
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    else:
        print(text)


def _json_template(fields, cells) -> str:
    """One JSON object of `fields` in order from their cell texts (or % slots), identifiers quoted with no escape."""
    return "{" + ", ".join(f'"{k}": ' + (f'"{c}"' if k in ("subgroup", "interlace") else c)
                           for k, c in zip(fields, cells)) + "}"


@functools.cache
def _report_template(fields):
    """A report's template, its keys sorted as json.dumps(sort_keys=True) writes them, and their places in `fields`."""
    keys = sorted(fields)
    return _json_template(keys, ["%s"] * len(keys)), operator.itemgetter(*map(fields.index, keys))


def _report_text(fields, values) -> str:
    """json.dumps(dict(zip(fields, values)), sort_keys=True) for a report of bools, ints, int lists, floats and quoted
    identifiers: bools print as true/false, all else by str() (a float's repr, an int list as `[1, 2]`)."""
    template, ordered = _report_template(fields)
    return template % tuple([("false", "true")[v] if v.__class__ is bool else v for v in ordered(values)])


def cmd_fj(args) -> int:
    param = FJParam(args.p, args.q, args.lambda_x2)
    check_range(args.q, param.degree)  # before the Wallis factor of its L2 norm
    record = param.to_json_dict()
    _emit(args, _report_text(tuple(record), tuple(record.values())))
    return 0


def _mismatches(rows) -> bool:
    """One `error: verdict mismatch` line per row, each given as its (name, value) pairs; whether there was any."""
    for items in rows:
        print("error: verdict mismatch: " + " ".join(f"{k}={v}" for k, v in items), file=sys.stderr)
    return bool(rows)


def cmd_branch(args) -> int:
    from .periods import BranchingVerdict, branch_columns_x2, verdict_rows
    tag = SpaceTag(args.subgroup)
    top = degree_x2(args.p, args.q, args.max_target_x2, tag) // 2
    if top > MAX_TARGET_DEGREE:  # before valid_lambdas_x2 lists the targets
        raise ValueError(f"--max-target-x2 {args.max_target_x2} admits target degree {top},"
                         f" past the checked range, which ends at {MAX_TARGET_DEGREE}")
    targets_x2 = valid_lambdas_x2(args.p, args.q, args.max_target_x2, tag)
    # every value is rounded, and refused, before any verdict is compared
    shared, columns = branch_columns_x2(args.p, args.q, args.lambda_x2, args.subgroup, targets_x2)
    # a row is a mismatch when its numeric verdict or its interlace class contradicts its predicate (g2's predicate
    # holds exactly on FiniteType, g1's implies InfiniteType1)
    nonzero, predicate, g2 = columns["nonzero"], columns["predicate"], tag is SpaceTag.G2_SPACE
    classed = [c == "FiniteType" if g2 else p and c == "InfiniteType1" for p, c in zip(predicate, columns["interlace"])]
    if nonzero != predicate or classed != predicate:  # the rows of the mismatched targets only
        wrong = [i for i, (n, p, c) in enumerate(zip(nonzero, predicate, classed)) if not n == p == c]
        rows = verdict_rows(shared, {k: [column[i] for i in wrong] for k, column in columns.items()})
        _mismatches([row._asdict().items() for row in rows])
        return 1
    # One line template per scan, the shared fields filled into the format's skeleton: bools print as true/false, all
    # else by str() (a float's repr, as in csv.writer and json.dumps).
    header, skeleton, varying = _branch_skeleton(args.format, BranchingVerdict._fields, tuple(columns))
    text = ("false", "true").__getitem__
    line = skeleton % {k: text(v) if v.__class__ is bool else v for k, v in shared.items()}
    rows = zip(*[map(text, c) if c and c[0].__class__ is bool else c for c in map(columns.__getitem__, varying)])
    # CSV as csv.writer's lines, none of whose fields needs quoting: CRLF ends, the last one's LF left to _emit
    _emit(args, "\r\n".join([header, *map(line.__mod__, rows)]) + "\r" if args.format == "csv"
          else "[" + ", ".join(map(line.__mod__, rows)) + "]")
    return 0


@functools.cache
def _branch_skeleton(fmt, fields, columns):
    """`branch`'s header, its line with a `%(name)s` slot per shared field and a `%%s` per column, and its columns."""
    fields = fields if fmt == "csv" else sorted(fields)
    cells = ["%%s" if k in columns else f"%({k})s" for k in fields]
    line = ",".join(cells) if fmt == "csv" else _json_template(fields, cells)
    return ",".join(fields), line, tuple(k for k in fields if k in columns)


def cmd_period(args) -> int:
    from .periods import PeriodVerdict, period_x2
    if args.witness and args.subgroup == "g1":
        raise ValueError("--witness applies to --subgroup g2 only")
    record = period_x2(args.p, args.q, args.lambda_x2, args.target_x2, SpaceTag(args.subgroup), args.witness)
    if _mismatches([record._asdict().items()] if record.nonzero != record.predicate_nonzero else []):
        return 1
    _emit(args, _report_text(PeriodVerdict._fields, record))
    return 0


def cmd_packet(args) -> int:
    import json

    from .packets import RealForm, arthur_packet_x2, pure_inner_forms, relevant_pairs

    form = RealForm(args.p, args.q)
    # the packet refuses its form and lambda before any inner form is built
    report = {"p": args.p, "q": args.q} if args.inner_forms_only else arthur_packet_x2(args.p, args.q, args.lambda_x2)
    report["pure_inner_forms"] = [[f.p_sig, f.q_sig] for f in pure_inner_forms(form)]
    if not args.inner_forms_only:
        report["relevant_pairs"] = {
            direction: [
                [[sub.p_sig, sub.q_sig], [amb.p_sig, amb.q_sig]]
                for sub, amb in relevant_pairs(form, direction)
            ]
            for direction in ("drop_p", "drop_q")
        }
    _emit(args, json.dumps(report, sort_keys=True))
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


# Each verb's flags by option as (attribute, type, choices), and each attribute's default, derived once.
_ATTRS = {verb: ({o: (o[2:].replace("-", "_"), f[0], f[2]) for o, f in flags.items()},
                 {o[2:].replace("-", "_"): f[1] for o, f in flags.items()}) for verb, (_, _, flags) in VERBS.items()}


def _canonical(argv):
    """The namespace of a canonical argv, read from VERBS, or None when argparse must read it.

    Canonical: a verb, then each of its flags at most once by its full name, as `--flag value` or `--switch`,
    every required flag present, and every value accepted by its type and choices and not starting with `-`.
    """
    if not argv or argv[0] not in VERBS:
        return None
    options, defaults = _ATTRS[argv[0]]
    values, tokens = {}, iter(argv[1:])
    for option in tokens:
        name, kind, choices = options.get(option, (None, None, None))
        if name is None or name in values:
            return None
        if kind is bool:
            values[name] = True
            continue
        text = next(tokens, "-")  # a flag with no value reads as one followed by a flag
        if text.startswith("-") or (choices and text not in choices):
            return None
        try:
            values[name] = kind(text)
        except Exception:  # argparse calls the type again, and words the refusal or lets it propagate
            return None
    values = {**defaults, **values}
    return None if REQUIRED in values.values() else types.SimpleNamespace(**values, func=VERBS[argv[0]][0])


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
    # One OpenBLAS thread unless the user sets a count (before numpy loads): its thread pool slows a Gram build.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    entry()
