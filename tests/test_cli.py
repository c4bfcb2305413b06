import argparse
import ast
import concurrent.futures
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hypbranch
import sweep
from hypbranch import checks, cli, exact, fjrep, harmonics, numerics, packets, periods
from hypbranch.checks import SUITES, CheckResult, run_suite
from hypbranch.cli import main
from hypbranch.fjrep import SpaceTag, make_fj_param, valid_lambdas
from hypbranch.exact import doubled
from hypbranch.periods import valid_targets

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_json_matches(actual, expected, rel=1e-9):
    assert type(actual) is type(expected), (actual, expected)
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected)
        for key in expected:
            assert_json_matches(actual[key], expected[key], rel)
    elif isinstance(expected, list):
        assert len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_json_matches(a, e, rel)
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=rel, abs=1e-12)
    else:
        assert actual == expected


class TestGoldenOutputs:
    def test_fj(self, capsys):
        code, out, _ = run_cli(capsys, "fj", "--p", "4", "--q", "4", "--lambda-x2", "4")
        assert code == 0
        payload = json.loads(out)
        golden = json.loads((GOLDEN / "fj_4_4_l4.json").read_text())
        assert_json_matches(payload, golden)
        assert out.encode() == (GOLDEN / "fj_4_4_l4.json").read_bytes()
        # pinned against the factored oracle
        assert payload["a"] == 1
        assert payload["inf_char_x2"] == [12, 6, 4, 2]
        assert payload["l2_norm_sq"] == pytest.approx(math.pi**4 / 3.0, rel=1e-9)

    def test_period(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "period", "--p", "4", "--q", "4", "--lambda-x2", "4",
            "--target-x2", "3", "--subgroup", "g2",
        )
        assert code == 0
        payload = json.loads(out)
        golden = json.loads((GOLDEN / "period_4_4_l4_t3_g2.json").read_text())
        assert_json_matches(payload, golden)
        assert out.encode() == (GOLDEN / "period_4_4_l4_t3_g2.json").read_bytes()
        expected = 2 * math.pi**2 * (8 * math.pi / 3) / 12.0
        assert payload["value"] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("target_x2", ["98", "102"], ids=["diagonal", "zero_row"])
    def test_g1_period(self, capsys, target_x2):
        # a = 48 against c = 48 and c = 50: the zero row prints its radial factor, with value and err 0.0
        code, out, _ = run_cli(
            capsys,
            "period", "--p", "5", "--q", "4", "--lambda-x2", "97",
            "--target-x2", target_x2, "--subgroup", "g1",
        )
        assert code == 0
        assert out.encode() == (GOLDEN / f"period_g1_5_4_l97_t{target_x2}.json").read_bytes()
        payload = json.loads(out)
        assert payload["radial_factor"] > 0 and (payload["value"] > 0) == (payload["err_est"] > 0) == payload["nonzero"]

    def test_packet(self, capsys):
        code, out, _ = run_cli(capsys, "packet", "--p", "4", "--q", "4", "--lambda-x2", "4")
        assert code == 0
        payload = json.loads(out)
        golden = json.loads((GOLDEN / "packet_4_4.json").read_text())
        assert_json_matches(payload, golden)
        assert payload["size"] == 2

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("branch_g1_5_4_l97", ("--p", "5", "--q", "4", "--lambda-x2", "97", "--subgroup", "g1",
                                   "--max-target-x2", "102")),
            ("branch_g2_4_6_l40", ("--p", "4", "--q", "6", "--lambda-x2", "40", "--subgroup", "g2",
                                   "--max-target-x2", "44")),
        ],
        ids=["g1", "g2"],
    )
    def test_branch(self, capsys, name, argv):
        code, out, _ = run_cli(capsys, "branch", *argv)
        assert code == 0
        golden = json.loads((GOLDEN / f"{name}.json").read_text())
        assert_json_matches(json.loads(out), golden)
        # the CSV pins the fixed column order and every printed digit
        code, out, _ = run_cli(capsys, "branch", *argv, "--format", "csv")
        assert code == 0
        assert out.encode() == (GOLDEN / f"{name}.csv").read_bytes()

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "fj", "--p", "4", "--q", "4", "--lambda-x2", "4")
        keys = list(json.loads(out))
        assert keys == sorted(keys)


class TestBranch:
    def test_g2_scan_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "branch", "--p", "4", "--q", "4", "--lambda-x2", "4",
            "--subgroup", "g2", "--max-target-x2", "7", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["target_x2"] for r in rows] == ["1", "3", "5", "7"]
        assert [r["nonzero"] for r in rows] == ["true", "true", "false", "false"]
        assert [r["predicate"] for r in rows] == ["true", "true", "false", "false"]

    def test_g1_single_nonzero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "branch", "--p", "4", "--q", "4", "--lambda-x2", "4",
            "--subgroup", "g1", "--max-target-x2", "7",
        )
        assert code == 0
        rows = json.loads(out)
        nonzero = [r["target_x2"] for r in rows if r["nonzero"]]
        assert nonzero == [5]
        assert all(r["admissible"] for r in rows)

    @pytest.mark.parametrize("subgroup", ["g1", "g2"])
    def test_empty_range_header_only(self, capsys, subgroup):
        # no target has doubled value <= 0: the Gram kernel gets an empty degree list
        argv = ("branch", "--p", "4", "--q", "4", "--lambda-x2", "4",
                "--subgroup", subgroup, "--max-target-x2", "0")
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = [ln for ln in out.strip().splitlines() if ln]
        assert len(lines) == 1
        assert lines[0].startswith("p,q,lambda_x2")
        code, out, err = run_cli(capsys, *argv)
        assert (code, json.loads(out), err) == (0, [], "")

    @pytest.mark.parametrize("subgroup", ["g1", "g2"])
    def test_empty_scan_past_the_sphere_range_exits_0(self, capsys, subgroup):
        # no target: no Gram row is built, so the sphere areas of S^443 and S^444, which would refuse, are not read;
        # the checked range bounds q but not p, so the empty scan at q = 445 is refused like any other request there
        argv = ("branch", "--p", "445", "--q", "5", "--lambda-x2", "2", "--subgroup", subgroup, "--max-target-x2", "0")
        assert run_cli(capsys, *argv) == (0, "[]\n", "")
        argv = ("branch", "--p", "5", "--q", "445", "--lambda-x2", "448",
                "--subgroup", subgroup, "--max-target-x2", "1")
        assert run_cli(capsys, *argv) == (2, "", "error: q = 445 is past the checked range, which ends at 16\n")

    def test_half_integer_fields_are_doubled_ints(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "branch", "--p", "4", "--q", "4", "--lambda-x2", "4",
            "--subgroup", "g2", "--max-target-x2", "5",
        )
        for row in json.loads(out):
            assert isinstance(row["lambda_x2"], int)
            assert isinstance(row["target_x2"], int)
            assert isinstance(row["nonzero"], bool)
            assert isinstance(row["predicate"], bool)

    @staticmethod
    def _flip_target_5(monkeypatch):
        # flip the Gram verdict of target 5 in the one scan that both the rows and the verdict objects read
        scan_x2 = periods.branch_scan_x2

        def flip_target_5(p, q, lam_x2, subgroup, targets_x2):
            scan, interlaces = scan_x2(p, q, lam_x2, subgroup, targets_x2)
            nonzeros = [v != (t == 5) for t, v in zip(targets_x2, scan.nonzeros)]
            return scan._replace(nonzeros=nonzeros), interlaces

        monkeypatch.setattr(periods, "branch_scan_x2", flip_target_5)

    def test_disagreeing_verdict_exits_1(self, capsys, monkeypatch):
        self._flip_target_5(monkeypatch)
        code, out, err = run_cli(
            capsys,
            "branch", "--p", "4", "--q", "4", "--lambda-x2", "4",
            "--subgroup", "g2", "--max-target-x2", "7", "--format", "csv",
        )
        assert code == 1
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: verdict mismatch: ")
        assert " target_x2=5 " in lines[0]
        assert " nonzero=True predicate=False " in lines[0]

    def test_disagreeing_g1_verdict_exits_1(self, capsys, monkeypatch):
        self._flip_target_5(monkeypatch)
        code, out, err = run_cli(
            capsys,
            "branch", "--p", "4", "--q", "4", "--lambda-x2", "4",
            "--subgroup", "g1", "--max-target-x2", "7", "--format", "csv",
        )
        assert code == 1
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: verdict mismatch: ")
        assert " target_x2=5 " in lines[0]
        assert " nonzero=False predicate=True " in lines[0]

    @pytest.mark.parametrize(
        "subgroup, target_x2, flipped",
        [("g1", 5, "NoPattern"), ("g2", 3, "InfiniteType1"), ("g2", 5, "FiniteType")],
        ids=["g1_predicate_not_InfiniteType1", "g2_predicate_not_FiniteType", "g2_FiniteType_not_predicate"],
    )
    def test_a_class_contradicting_its_predicate_exits_1(self, capsys, monkeypatch, subgroup, target_x2, flipped):
        # the interlace class is checked against the predicate on every row: g2's predicate holds exactly on
        # FiniteType, and g1's implies InfiniteType1; one flipped class is one mismatch line, the numeric verdict
        # still agreeing with the predicate
        classify = periods.interlace_classify_scan
        targets_x2 = list(fjrep.valid_lambdas_x2(4, 4, 7, SpaceTag(subgroup)))

        def flip(a, heads, tail):
            classes = classify(a, heads, tail)
            if len(classes) == len(targets_x2):  # the scan's call, not a one-target one
                classes[targets_x2.index(target_x2)] = packets.InterlaceClass(flipped)
            return classes

        monkeypatch.setattr(periods, "interlace_classify_scan", flip)
        code, out, err = run_cli(capsys, "branch", "--p", "4", "--q", "4", "--lambda-x2", "4",
                                 "--subgroup", subgroup, "--max-target-x2", "7")
        (row,) = [r for r in periods.branching_verdicts_x2(4, 4, 4, subgroup, targets_x2) if r.target_x2 == target_x2]
        assert row.interlace == flipped and row.nonzero == row.predicate
        assert (code, out) == (1, "")
        assert err == "error: verdict mismatch: " + " ".join(f"{k}={v}" for k, v in row._asdict().items()) + "\n"

    def test_high_degree_g1_verdicts_match_predicate(self, capsys):
        # ambient degree a = 100, target degrees c up to 102: exact only with a rule of degree a + c
        code, out, _ = run_cli(
            capsys,
            "branch", "--p", "5", "--q", "4", "--lambda-x2", "201",
            "--subgroup", "g1", "--max-target-x2", "206",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["target_x2"] for r in rows if r["nonzero"]] == [202]
        for row in rows:
            assert row["nonzero"] == row["predicate"], row["target_x2"]
        assert rows[-1]["target_x2"] == 206 and not rows[-1]["nonzero"]


G1_GOLDEN_SCAN = ("--p", "5", "--q", "4", "--lambda-x2", "97", "--subgroup", "g1", "--max-target-x2", "102")
G2_GOLDEN_SCAN = ("--p", "4", "--q", "6", "--lambda-x2", "40", "--subgroup", "g2", "--max-target-x2", "44")


def _parsed_rows(out: str, fmt: str) -> list[dict]:
    """A `branch` report's rows, with the CSV's texts read back into the JSON's types."""
    if fmt == "json":
        return json.loads(out)
    kinds = {"subgroup": str, "interlace": str, "value": float, "err": float}
    bools = {"converges", "nonzero", "predicate", "parity", "admissible"}
    return [
        {k: {"true": True, "false": False}[v] if k in bools else kinds.get(k, int)(v) for k, v in row.items()}
        for row in csv.DictReader(io.StringIO(out))
    ]


class TestBranchScan:
    """`branch` prints the columns `periods` builds from one scan, and each row equals its `period` record."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [G1_GOLDEN_SCAN, G2_GOLDEN_SCAN], ids=["g1", "g2"])
    def test_a_scan_builds_no_verdict_object(self, monkeypatch, capsys, argv, fmt):
        records, rows, wallis = [], [], []

        def counted(calls, function):
            return lambda *args, **kwargs: calls.append(args) or function(*args, **kwargs)

        # no row and no period record; a closed-form Wallis factor for the first row of each parity of m whose exact
        # pairing is nonzero, and none for the others, whose factors chain from it
        for cls, calls in ((periods.PeriodVerdict, records), (periods.BranchingVerdict, rows)):
            monkeypatch.setattr(cls, "__new__", counted(calls, cls.__new__))
        for module in (exact, periods):
            monkeypatch.setattr(module, "wallis_exact", counted(wallis, module.wallis_exact))
        code, out, err = run_cli(capsys, "branch", *argv, "--format", fmt)
        assert (code, err, records, rows) == (0, "", [], [])
        flags = dict(zip(argv[::2], argv[1::2]))
        p, q, lam_x2 = (int(flags[f]) for f in ("--p", "--q", "--lambda-x2"))
        tag = SpaceTag(flags["--subgroup"])
        targets_x2 = fjrep.valid_lambdas_x2(p, q, int(flags["--max-target-x2"]), tag)
        scan, _ = periods.branch_scan_x2(p, q, lam_x2, flags["--subgroup"], targets_x2)
        factors = periods.scan_factors(scan, p, q, lam_x2, tag, targets_x2, tag is SpaceTag.G2_SPACE)
        nonzero = [(factors.wallis_a, m) for pairing, m in zip(factors.pairings, factors.wallis_ms) if pairing[0]]
        assert 0 < len(nonzero) < len(targets_x2)
        firsts = {}
        for call in nonzero:
            firsts.setdefault(call[1] % 2, call)
        assert wallis == list(firsts.values())
        assert len(_parsed_rows(out, fmt)) == len(targets_x2)

    @pytest.mark.parametrize("subgroup", ["g1", "g2"])
    def test_a_mismatch_builds_the_rows_of_its_targets_only(self, monkeypatch, capsys, subgroup):
        rows = []
        TestBranch._flip_target_5(monkeypatch)
        new = periods.BranchingVerdict.__new__
        monkeypatch.setattr(periods.BranchingVerdict, "__new__", lambda *args: rows.append(new(*args)) or rows[-1])
        code, out, err = run_cli(capsys, "branch", "--p", "4", "--q", "4", "--lambda-x2", "4", "--subgroup", subgroup,
                                 "--max-target-x2", "7")
        assert (code, out) == (1, "")
        assert [row.target_x2 for row in rows] == [5]
        assert err == "error: verdict mismatch: " + " ".join(f"{k}={v}" for k, v in rows[0]._asdict().items()) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("subgroup", ["g1", "g2"])
    def test_rows_equal_the_period_records(self, capsys, subgroup, fmt):
        # a seeded grid of scans, p, q in 4..8 and ambient degree a <= 40, targets up to degree a + 3, and the golden
        # scan: every row is the `period` report of its (lambda, target) pair, g2 with the witness pairing, and the
        # report's bytes are the standard library's, csv.writer's or json.dumps's, of `branching_verdicts_x2`'s rows
        rng = random.Random(f"branch-rows-{subgroup}-{fmt}")
        tag = SpaceTag(subgroup)
        golden = {"g1": G1_GOLDEN_SCAN, "g2": G2_GOLDEN_SCAN}[subgroup]
        flags = dict(zip(golden[::2], golden[1::2]))
        scans = [tuple(int(flags[f]) for f in ("--p", "--q", "--lambda-x2", "--max-target-x2"))]
        for _ in range(12):
            p, q, a = rng.randint(4, 8), rng.randint(4, 8), rng.randint(0, 40)
            lam_x2 = 2 * a + 2 - (p - q)
            if lam_x2 > 0:
                scans.append((p, q, lam_x2, 2 * (a + 3) - fjrep.degree_x2(p, q, 0, tag)))
        for p, q, lam_x2, max_target_x2 in scans:
            head = ["--p", str(p), "--q", str(q), "--lambda-x2", str(lam_x2), "--subgroup", subgroup]
            argv = ["branch", *head, "--max-target-x2", str(max_target_x2), "--format", fmt]
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            targets_x2 = fjrep.valid_lambdas_x2(p, q, max_target_x2, tag)
            verdicts = periods.branching_verdicts_x2(p, q, lam_x2, subgroup, targets_x2)
            assert periods.branching_verdicts_x2(p, q, lam_x2, subgroup, iter(targets_x2)) == verdicts, argv
            if fmt == "csv":
                expected = io.StringIO()
                writer = csv.writer(expected, lineterminator="\r\n")
                writer.writerow(periods.BranchingVerdict._fields)
                writer.writerows([["true" if v is True else "false" if v is False else v for v in row]
                                  for row in verdicts])
                assert out == expected.getvalue(), argv
            else:
                assert out == json.dumps([row._asdict() for row in verdicts], sort_keys=True) + "\n", argv
            rows = _parsed_rows(out, fmt)
            assert [row["target_x2"] for row in rows] == list(targets_x2), argv
            for row in rows:
                t_x2 = row["target_x2"]
                witness = ["--witness"] if subgroup == "g2" else []
                code, out, err = run_cli(capsys, "period", *head, "--target-x2", str(t_x2), *witness)
                assert (code, err) == (0, ""), (argv, t_x2)
                record = json.loads(out)
                expected = {
                    "value": record["value"].hex(), "err": record["err_est"].hex(), "nonzero": record["nonzero"],
                    "predicate": record["predicate_nonzero"], "parity": record["parity_match"],
                    "interlace": periods.interlace_class_for_pair(p, q, Fraction(lam_x2, 2), Fraction(t_x2, 2),
                                                                  subgroup).value,
                    "admissible": subgroup == "g1",
                }
                actual = {k: row[k].hex() if k in ("value", "err") else row[k] for k in expected}
                assert actual == expected, (argv, t_x2)

    def test_a_value_refusal_comes_before_a_verdict_mismatch(self, capsys, monkeypatch):
        # a = 386: the g2 witness values leave the double range (ledger defect (e)); with the first row's
        # verdict flipped too, the scan still exits 4 on the value and prints no mismatch
        scan_x2 = periods.branch_scan_x2

        def flip_first_row(*args):
            scan, interlaces = scan_x2(*args)
            return scan._replace(nonzeros=[not scan.nonzeros[0], *scan.nonzeros[1:]]), interlaces

        monkeypatch.setattr(periods, "branch_scan_x2", flip_first_row)
        code, out, err = run_cli(capsys, "branch", "--p", "4", "--q", "16", "--lambda-x2", "786", "--subgroup", "g2",
                                 "--max-target-x2", "785")
        assert (code, out) == (4, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: period value inf is not a normal double"), err


PERIOD_GOLDENS = {
    "period_4_4_l4_t3_g2": ("--p", "4", "--q", "4", "--lambda-x2", "4", "--target-x2", "3", "--subgroup", "g2"),
    "period_g1_5_4_l97_t98": ("--p", "5", "--q", "4", "--lambda-x2", "97", "--target-x2", "98", "--subgroup", "g1"),
    "period_g1_5_4_l97_t102": ("--p", "5", "--q", "4", "--lambda-x2", "97", "--target-x2", "102", "--subgroup", "g1"),
}


class TestPeriodText:
    """`period` prints its record through one template built from `PeriodVerdict._fields`: its bytes are the
    standard library's, json.dumps(record._asdict(), sort_keys=True), of `period_integral_G1`/`_G2`'s record."""

    @staticmethod
    def _dumped(p, q, lam_x2, target_x2, subgroup, witness=False) -> str:
        lam, target = Fraction(lam_x2, 2), Fraction(target_x2, 2)
        if subgroup == "g1":
            record = periods.period_integral_G1(p, q, lam, target)
        else:
            record = periods.period_integral_G2(p, q, lam, target, use_witness=witness)
        return json.dumps(record._asdict(), sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", PERIOD_GOLDENS)
    def test_goldens_and_out_are_the_records_json(self, tmp_path, capsys, name):
        argv = PERIOD_GOLDENS[name]
        flags = dict(zip(argv[::2], argv[1::2]))
        expected = self._dumped(*(int(flags[f]) for f in ("--p", "--q", "--lambda-x2", "--target-x2")),
                                flags["--subgroup"])
        assert expected.encode() == (GOLDEN / f"{name}.json").read_bytes()
        assert run_cli(capsys, "period", *argv) == (0, expected, "")
        target = tmp_path / f"{name}.json"
        assert run_cli(capsys, "period", *argv, "--out", str(target)) == (0, "", "")
        assert target.read_text() == expected

    @pytest.mark.parametrize("kind", ["g1_diagonal", "g1_off_diagonal", "g2", "g2_witness"])
    def test_a_seeded_grid_prints_the_records_json(self, capsys, kind):
        # p in 4..8 and q in 4..16; g1 ambient degrees up to 400 (400 itself first) with diagonal targets or targets
        # up to 6 below and 2 above, g2 ambient degrees up to 40 with targets up to 3 above, reachable or not
        rng = random.Random(f"period-text-{kind}")
        subgroup, witness = kind[:2], ["--witness"] if kind == "g2_witness" else []
        tag = SpaceTag(subgroup)
        for i in range(12):
            p, q = rng.randint(4, 8), rng.randint(4, 16)
            a = 400 if i == 0 and subgroup == "g1" else rng.randint(0, 400 if subgroup == "g1" else 40)
            if kind == "g1_diagonal":
                c = a
            elif subgroup == "g1":
                c = rng.choice([c for c in range(max(0, a - 6), a + 3) if c != a])
            else:
                c = rng.randint(max(0, a - 6), a + 3)
            lam_x2, target_x2 = 2 * a + 2 - (p - q), 2 * c - fjrep.degree_x2(p, q, 0, tag)
            if lam_x2 <= 0 or target_x2 <= 0:
                continue
            argv = ["period", "--p", str(p), "--q", str(q), "--lambda-x2", str(lam_x2), "--target-x2", str(target_x2),
                    "--subgroup", subgroup, *witness]
            expected = self._dumped(p, q, lam_x2, target_x2, subgroup, bool(witness))
            assert run_cli(capsys, *argv) == (0, expected, ""), argv


class TestFjText:
    """`fj` prints its record through the template `period` uses, built once from the record's keys: its bytes are
    the standard library's, json.dumps(param.to_json_dict(), sort_keys=True)."""

    @staticmethod
    def _dumped(p, q, lam_x2) -> str:
        return json.dumps(fjrep.FJParam(p, q, lam_x2).to_json_dict(), sort_keys=True) + "\n"

    def test_golden_and_out_are_the_records_json(self, tmp_path, capsys):
        expected = self._dumped(4, 4, 4)
        assert expected.encode() == (GOLDEN / "fj_4_4_l4.json").read_bytes()
        target = tmp_path / "fj.json"
        assert run_cli(capsys, "fj", "--p", "4", "--q", "4", "--lambda-x2", "4", "--out", str(target)) == (0, "", "")
        assert target.read_text() == expected

    def test_a_grid_prints_the_records_json(self, capsys):
        # p, q in 4..16 and the ambient degrees 0..8 and 390..400 of each: odd and even totals (inf_char_x2 of every
        # length from 4 to 16), half-integer and integer lambda, and norms from about 3e-16 to 5e18
        printed = 0
        for p in range(4, 17):
            for q in range(4, 17):
                for a in (*range(9), *range(390, 401)):
                    lam_x2 = 2 * a + 2 - (p - q)
                    if lam_x2 <= 0:
                        continue
                    argv = ["fj", "--p", str(p), "--q", str(q), "--lambda-x2", str(lam_x2)]
                    assert run_cli(capsys, *argv) == (0, self._dumped(p, q, lam_x2), ""), argv
                    printed += 1
        assert printed > 3000

    def test_every_fj_command_of_the_sweep_prints_the_records_json(self, capsys):
        parser, _ = cli._parsers()
        commands = [argv for argv in sweep.commands() if argv[:1] == ["fj"]]
        printed = 0
        for argv in commands:
            code, out, _ = run_cli(capsys, *argv)
            if code != 0 or "-h" in argv:
                assert code != 0 or out.startswith("usage:"), argv
                continue
            args = parser.parse_args(argv)  # the values a non-canonical spelling means, as argparse reads them
            assert out == self._dumped(args.p, args.q, args.lambda_x2), argv
            printed += 1
        assert len(commands) == 70 and printed > 40


class TestExitCodes:
    def test_invalid_lambda(self, capsys):
        code, _, err = run_cli(capsys, "fj", "--p", "4", "--q", "4", "--lambda-x2", "0")
        assert code == 2
        assert "lambda" in err

    @pytest.mark.parametrize("lambda_x2", ["0", "-4"])
    def test_packet_nonpositive_lambda(self, capsys, lambda_x2):
        code, out, err = run_cli(capsys, "packet", "--p", "4", "--q", "4", "--lambda-x2", lambda_x2)
        assert code == 2
        assert out == ""
        assert err.startswith("error: lambda must be positive") and len(err.strip().splitlines()) == 1

    def test_standing_assumption(self, capsys):
        code, _, err = run_cli(capsys, "fj", "--p", "3", "--q", "4", "--lambda-x2", "4")
        assert code == 2
        assert "standing assumption" in err

    def test_divergent_period(self, capsys):
        code, _, err = run_cli(
            capsys,
            "period", "--p", "4", "--q", "4", "--lambda-x2", "-4",
            "--target-x2", "2", "--subgroup", "g2",
        )
        assert code == 3
        assert err == "error: period diverges: lambda + mu = -1 fails the > -1/2 threshold\n"

    def test_a_half_integer_degree_is_written_as_a_fraction(self, capsys):
        # the refusal writes a = 3/2 as str(Fraction(3, 2)) does, with no Fraction built (see COLD_PROBES)
        assert run_cli(capsys, "fj", "--p", "4", "--q", "4", "--lambda-x2", "5") == (
            2, "", "error: harmonic degree a = lambda - 1 + (p-q)/2 = 3/2 must be a non-negative integer\n")

    @pytest.mark.parametrize("subgroup, target_x2, message", [
        ("g2", 2, "harmonic degree b = mu - 1 + (p-q+1)/2 = 1/2 must be a non-negative integer"),
        ("g2", -1, "mu must be positive, got -1/2"),
        ("g1", 2, "harmonic degree c = nu - 1 + (p-1-q)/2 = -1/2 must be a non-negative integer"),
        ("g1", -1, "nu must be positive, got -1/2"),
    ], ids=["g2-degree", "g2-sign", "g1-degree", "g1-sign"])
    def test_a_refused_target_is_named_as_the_target(self, capsys, subgroup, target_x2, message):
        # lambda = 2 is valid on X(4, 4) (a = 1): `period`, a library scan and the closed-form predicate name the
        # target and its own degree, not lambda and a
        head = ("--p", "4", "--q", "4", "--lambda-x2", "4", "--subgroup", subgroup)
        assert run_cli(capsys, "period", *head, "--target-x2", str(target_x2)) == (2, "", f"error: {message}\n")
        nonvanishing = periods.nonvanishing_G1 if subgroup == "g1" else periods.nonvanishing_G2
        for refused in (lambda: periods.branching_verdicts_x2(4, 4, 4, subgroup, [3, target_x2]),
                        lambda: nonvanishing(4, 4, 2, Fraction(target_x2, 2))):
            with pytest.raises(ValueError) as info:
                refused()
            assert str(info.value) == message

    @pytest.mark.parametrize("lambda_x2", ["-4", "-1", "0"])
    @pytest.mark.parametrize("subgroup", ["g1", "g2"])
    def test_branch_refuses_a_nonpositive_lambda_as_period_does(self, capsys, subgroup, lambda_x2):
        # convergence first (exit 3), then the ambient parameter (exit 2): `period` at the first target `branch`
        # lists prints the same error line as `branch` itself
        head = ("--p", "4", "--q", "4", "--lambda-x2", lambda_x2, "--subgroup", subgroup)
        first = fjrep.valid_lambdas_x2(4, 4, 6, SpaceTag(subgroup))[0]
        branch = run_cli(capsys, "branch", *head, "--max-target-x2", "6")
        period = run_cli(capsys, "period", *head, "--target-x2", str(first))
        assert branch == period and branch[1] == ""
        assert branch[0] == (3 if int(lambda_x2) + first <= -1 else 2), branch
        assert branch[2].startswith("error: period diverges: " if branch[0] == 3 else "error: lambda must be positive")

    @pytest.mark.parametrize(
        "argv, flipped",
        [
            (("--p", "4", "--q", "4", "--lambda-x2", "4", "--target-x2", "3", "--subgroup", "g2"),
             " nonzero=False predicate_nonzero=True "),
            (("--p", "5", "--q", "4", "--lambda-x2", "3", "--target-x2", "6", "--subgroup", "g1"),
             " nonzero=True predicate_nonzero=False "),
        ],
        ids=["g2", "g1"],
    )
    def test_disagreeing_period_verdict_exits_1(self, capsys, monkeypatch, argv, flipped):
        # the rule of a branch row: nothing on stdout, and the period as one stderr line
        g1, witness = periods.zonal_pairings_nonzero, periods.ktype_pairings_nonzero
        monkeypatch.setattr(periods, "zonal_pairings_nonzero", lambda a, cs, n: [not v for v in g1(a, cs, n)])
        monkeypatch.setattr(periods, "ktype_pairings_nonzero", lambda a, bs, n: [not v for v in witness(a, bs, n)])
        code, out, err = run_cli(capsys, "period", *argv)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: verdict mismatch: ")
        assert flipped in lines[0]

    @pytest.mark.parametrize(
        "code, argv",
        [
            # the degree-200 leading-trace witness value overflows
            (4, ("period", "--p", "4", "--q", "6", "--lambda-x2", "404", "--witness",
                 "--target-x2", "3", "--subgroup", "g2")),
            # the L2 norm on X(4, 438) at degree 4999 would be 1.5e341: q and the degree are past the checked range
            (2, ("fj", "--p", "4", "--q", "438", "--lambda-x2", "10434")),
            # the degree-1200 Gram row on S^437 would lose mass (TestZonalGram): q is past the checked range
            (2, ("period", "--p", "5", "--q", "438", "--lambda-x2", "437",
                 "--target-x2", "2836", "--subgroup", "g1")),
            # the L2 norm on X(400, 4) is 1.3e-393, below the normal range
            (4, ("fj", "--p", "400", "--q", "4", "--lambda-x2", "400")),
            # the sphere area of S^348 times the radial factor is below the normal range
            (4, ("period", "--p", "350", "--q", "4", "--lambda-x2", "350",
                 "--target-x2", "351", "--subgroup", "g1")),
            # three witness rows with nonzero true would underflow to 0.0 at degree 31 on S^278: q is past the range
            (2, ("branch", "--p", "338", "--q", "280", "--lambda-x2", "6", "--subgroup", "g2",
                 "--max-target-x2", "33")),
            # the degree-840 row on S^437 would be 1.6e-10 short of 1 (TestZonalGram): q is past the checked range
            (2, ("period", "--p", "5", "--q", "438", "--lambda-x2", "437",
                 "--target-x2", "2116", "--subgroup", "g1")),
        ],
        ids=[
            "witness_overflow", "fj_norm_not_finite", "g1_row_norm_lost_mass",
            "fj_norm_below_normal_range", "g1_factors_below_normal_range",
            "g2_nonzero_row_below_normal_range", "g1_row_norm_past_its_bound",
        ],
    )
    def test_numeric_failure_exits_4(self, capsys, code, argv):
        # in the checked range a number that is not a normal double exits 4; past it the request is refused first
        exit_code, out, err = run_cli(capsys, *argv)
        assert exit_code == code
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_unreachable_witness_row_exits_0(self, capsys):
        # b = 387 > a = 385: the witness row is rounding noise, and its leading-trace
        # factor alone leaves the float range; the row reports the exact value 0.0
        code, out, err = run_cli(
            capsys,
            "period", "--p", "18", "--q", "14", "--lambda-x2", "768",
            "--target-x2", "771", "--subgroup", "g2", "--witness",
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert not payload["nonzero"] and not payload["predicate_nonzero"]
        assert payload["value"] == payload["err_est"] == payload["pairing_factor"] == 0.0

    def test_fj_norm_past_the_zonal_quadrature_range_is_exact(self, capsys):
        # degree 1036 on S^129: past the checked range `fj` refuses it, and the library's zonal norm is still exact,
        # with no Gegenbauer pass to overflow
        code, out, err = run_cli(capsys, "fj", "--p", "4", "--q", "130", "--lambda-x2", "2200")
        assert (code, out) == (2, "")
        assert err == "error: ambient degree 1036 is past the checked range, which ends at 400\n"
        exact = 8.6202590683892648783e109  # mpmath, 40 digits
        assert abs(fjrep.l2_norm_sq(fjrep.FJParam(4, 130, 2200)) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize(
        "code, argv",
        [
            (2, ("fj", "--p", "4", "--q", "438", "--lambda-x2", "10434")),
            (2, ("period", "--p", "5", "--q", "438", "--lambda-x2", "437",
                 "--target-x2", "2836", "--subgroup", "g1")),
            # the row norms on S^1999 would underflow to 0 by degree 1000: refused before any row
            (2, ("period", "--p", "5", "--q", "2000", "--lambda-x2", "1997",
                 "--target-x2", "3998", "--subgroup", "g1")),
            # in the checked range: a Gram table on S^4, then a witness value past the double range
            (4, ("period", "--p", "4", "--q", "6", "--lambda-x2", "404", "--witness",
                 "--target-x2", "3", "--subgroup", "g2")),
        ],
        ids=["fj", "period_g1_row_norm_lost_mass", "period_g1_row_norm_nan", "witness_overflow"],
    )
    def test_overflow_prints_one_error_line(self, code, argv):
        # in a fresh interpreter with warnings shown, which pytest would capture
        out = subprocess.run(
            [sys.executable, "-W", "default", "-m", "hypbranch.cli", *argv],
            env=_subprocess_env(), capture_output=True, text=True,
        )
        assert out.returncode == code
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            # defect (f): degree 1036 on S^129, where |Z_c|^2 overflows
            ("period", "--p", "5", "--q", "130", "--lambda-x2", "133",
             "--target-x2", "2200", "--subgroup", "g1"),
            # the witness Gram at degree 1000 on S^128
            ("period", "--p", "4", "--q", "130", "--lambda-x2", "130",
             "--target-x2", "2127", "--subgroup", "g2", "--witness"),
            # |Z_0|^2 |Z_1|^2 underflows to 0 on S^299
            ("period", "--p", "5", "--q", "300", "--lambda-x2", "297",
             "--target-x2", "300", "--subgroup", "g1"),
            # defect (k): a = 100 on S^359, where every norm product underflows
            ("branch", "--p", "5", "--q", "360", "--lambda-x2", "557", "--subgroup", "g1",
             "--max-target-x2", "566"),
            # defect (p): subnormal norm products on S^321 and S^313 once passed as positive and
            # divided the off-diagonal noise up to nonzero verdicts, each a verdict mismatch
            ("branch", "--p", "7", "--q", "322", "--lambda-x2", "673", "--subgroup", "g1",
             "--max-target-x2", "678"),
            ("period", "--p", "13", "--q", "315", "--lambda-x2", "728",
             "--target-x2", "729", "--subgroup", "g2"),
        ],
        ids=["f_period_g1_degree_1036", "period_g2_witness_degree_1000", "period_g1_q300",
             "k_branch_g1_q360", "p_branch_g1_q322", "p_period_g2_q315"],
    )
    def test_verdicts_past_the_norm_product_range(self, capsys, monkeypatch, argv):
        # the kernel's rows are unit vectors and form no norm product (TestZonalGram::test_full_gram_is_the_identity),
        # but each of these spheres or degrees is past the checked range: refused before any Gegenbauer pass
        passes = []
        monkeypatch.setattr(harmonics, "_gegenbauer_rows", lambda *args: passes.append(args[:2]))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, passes) == (2, "", [])
        assert err.startswith("error: ") and "is past the checked range" in err and len(err.splitlines()) == 1

    def test_witness_on_g1_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "period", "--p", "4", "--q", "4", "--lambda-x2", "4",
            "--target-x2", "5", "--subgroup", "g1", "--witness",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --witness applies to --subgroup g2 only\n"

    @pytest.mark.parametrize("max_target_x2", ["808", "100000"], ids=["degree_403", "degree_49999"])
    def test_oversized_branch_scan_exits_2(self, capsys, monkeypatch, max_target_x2):
        # g1 targets on X(4, 4) have degree (nu_x2 - 2) / 2; the refusal comes
        # before any Gram row, so a regression fails here instead of allocating
        def refuse(*args):
            raise AssertionError("Gram rows asked for a refused scan")

        monkeypatch.setattr(harmonics, "zonal_gram", refuse)
        monkeypatch.setattr(harmonics, "_gram_table", refuse)
        monkeypatch.setattr(periods, "zonal_pairings_nonzero", refuse)
        code, out, err = run_cli(
            capsys,
            "branch", "--p", "5", "--q", "4", "--lambda-x2", "9",
            "--subgroup", "g1", "--max-target-x2", max_target_x2,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --max-target-x2 ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("branch", "--p", "4", "--q", "6", "--lambda-x2", "40004", "--subgroup", "g2",
             "--max-target-x2", "5"),
            ("period", "--p", "5", "--q", "4", "--lambda-x2", "200001", "--target-x2", "200002",
             "--subgroup", "g1"),
            ("period", "--p", "5", "--q", "130", "--lambda-x2", "2127", "--target-x2", "2128",
             "--subgroup", "g1"),
            ("period", "--p", "4", "--q", "130", "--lambda-x2", "2128", "--target-x2", "127",
             "--subgroup", "g2", "--witness"),
            ("branch", "--p", "5", "--q", "4", "--lambda-x2", "803", "--subgroup", "g1",
             "--max-target-x2", "4"),
            ("fj", "--p", "5", "--q", "5", "--lambda-x2", "400000"),
        ],
        ids=["branch_g2_degree_20000", "period_g1_degree_100000", "period_g1_degree_1000",
             "period_g2_witness_degree_1000", "branch_g1_degree_401", "fj_degree_199999"],
    )
    def test_ambient_degree_above_400_exits_2_fast(self, capsys, monkeypatch, argv):
        # the refusal comes before any Gram row or exact factor: the memory of the zonal layer grows with the
        # square of the degree, and an `fj` Wallis factor with the degree
        passes = []
        monkeypatch.setattr(harmonics, "_gegenbauer_rows", lambda *args: passes.append(args[:2]))
        for module in (fjrep, periods):
            monkeypatch.setattr(module, "wallis_exact", lambda *args: passes.append(args))
        start = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert (code, out, passes) == (2, "", [])
        assert err.startswith("error: ambient degree ") and len(err.strip().splitlines()) == 1
        assert err.strip().endswith(f"is past the checked range, which ends at {fjrep.MAX_DEGREE}")

    def test_target_degree_above_402_exits_2_fast(self, capsys, monkeypatch):
        # target degree 50,000 at a = 4: the one Gegenbauer pass this period once made grew with its square
        passes = []
        monkeypatch.setattr(harmonics, "_gegenbauer_rows", lambda *args: passes.append(args[:2]))
        start = time.monotonic()
        code, out, err = run_cli(capsys, "period", "--p", "5", "--q", "4", "--lambda-x2", "9",
                                 "--target-x2", "100002", "--subgroup", "g1")
        assert time.monotonic() - start < 1.0
        assert (code, out, passes) == (2, "", [])
        assert err == (
            f"error: target degree 50000 is past the checked range, which ends at {fjrep.MAX_TARGET_DEGREE}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("period", "--p", "5", "--q", "4", "--lambda-x2", "9", "--target-x2", "10",
             "--subgroup", "g1", "--nodes", "1000000"),
            ("branch", "--p", "4", "--q", "6", "--lambda-x2", "40", "--subgroup", "g2",
             "--max-target-x2", "44", "--nodes", "4097"),
        ],
        ids=["period_1000000", "branch_4097"],
    )
    def test_oversized_nodes_exits_2(self, capsys, monkeypatch, argv):
        # no request builds a radial rule, so --nodes is gone: any value is a usage error
        def refuse(*args):
            raise AssertionError("Gauss rule built for a refused --nodes")

        monkeypatch.setattr(numerics, "_legendre_rule", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: unrecognized arguments: --nodes {argv[-1]}\n")

    @pytest.mark.parametrize(
        "code, argv, error",
        [
            (2, ("fj", "--p", "1000000", "--q", "4", "--lambda-x2", "1000000"), "ambient degree 999997 "),
            (2, ("fj", "--p", "5", "--q", "1000000", "--lambda-x2", "999997"), "q = 1000000 "),
            (2, ("period", "--p", "5", "--q", "1000000", "--lambda-x2", "999997",
                 "--target-x2", "999998", "--subgroup", "g1"), "q = 1000000 "),
            # p is not bounded by the checked range: at a = 217 the sphere area of S^438 is refused
            (4, ("fj", "--p", "439", "--q", "4", "--lambda-x2", "1"), "sphere area of S^438 "),
        ],
        ids=["fj_huge_p", "fj_huge_q", "period_huge_q", "fj_p_439"],
    )
    def test_huge_signature_exits_4_fast(self, capsys, code, argv, error):
        # the sphere area refuses before it builds any factorial, and the checked range before the sphere area
        start = time.monotonic()
        exit_code, out, err = run_cli(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert exit_code == code
        assert out == ""
        assert err.startswith(f"error: {error}") and len(err.strip().splitlines()) == 1

    def test_branch_scan_to_degree_400_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "branch", "--p", "5", "--q", "4", "--lambda-x2", "9",
            "--subgroup", "g1", "--max-target-x2", "803",
        )
        assert code == 0
        assert json.loads(out)[-1]["target_x2"] == 802

    def test_requests_to_target_degree_402_exit_0(self, capsys):
        # the top of the checked range on X(5, 16): ambient degree 400, targets to degree 402
        code, out, err = run_cli(capsys, "branch", "--p", "5", "--q", "16", "--lambda-x2", "813",
                                 "--subgroup", "g1", "--max-target-x2", "819", "--format", "csv")
        assert (code, err) == (0, "")
        last = list(csv.DictReader(io.StringIO(out)))[-1]
        assert (last["target_x2"], last["nonzero"], last["predicate"]) == ("818", "false", "false")
        code, out, err = run_cli(capsys, "period", "--p", "5", "--q", "16", "--lambda-x2", "813",
                                 "--target-x2", "816", "--subgroup", "g2", "--witness")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["degree_target"] == 402 and not payload["nonzero"] and not payload["predicate_nonzero"]

    def test_packet_odd_signature(self, capsys):
        code, _, _ = run_cli(capsys, "packet", "--p", "3", "--q", "3")
        assert code == 2

    def test_packet_inner_forms_only(self, capsys):
        code, out, _ = run_cli(capsys, "packet", "--p", "3", "--q", "3", "--inner-forms-only")
        assert code == 0
        assert json.loads(out)["pure_inner_forms"] == [[1, 5], [3, 3], [5, 1]]

    @pytest.mark.parametrize("argv, message", [
        (("--p", "3", "--q", "3"), "arthur_packet requires p and q even"),
        (("--p", "6", "--q", "4"), "arthur_packet requires 4 <= p <= q"),
        (("--p", "2", "--q", "4"), "arthur_packet requires 4 <= p <= q"),
        (("--p", "1000000", "--q", "4"), "arthur_packet requires 4 <= p <= q"),
        (("--p", "4", "--q", "4", "--lambda-x2", "0"), "lambda must be positive, got 0"),
        (("--p", "4", "--q", "6", "--lambda-x2", "-3"), "lambda must be positive, got -3/2"),
        (("--p", "-4", "--q", "4"), "signature entries must be >= 0"),
    ], ids=["odd", "p-above-q", "p-below-4", "p-million", "lambda-zero", "lambda-negative", "negative-signature"])
    def test_a_refused_packet_builds_no_inner_form(self, capsys, monkeypatch, argv, message):
        # the form and lambda are refused, with the texts they always had, before the inner forms (p/2 + q/2 + 1 of
        # them) are listed: at p = 10^6 that list took 0.6 s and 120 MB
        built = []
        monkeypatch.setattr(packets, "pure_inner_forms", lambda form: built.append(form) or [])
        assert run_cli(capsys, "packet", *argv) == (2, "", f"error: {message}\n")
        assert built == []
        run_cli(capsys, "packet", "--p", "4", "--q", "4")  # the control: an accepted packet lists them
        assert built[:1] == [packets.RealForm(4, 4)]


class TestCheck:
    def test_quadrature_suite_fast_and_green(self, capsys):
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "check", "--suite", "quadrature")
        assert time.monotonic() - start < 10.0
        assert code == 0
        assert "FAIL" not in out

    def test_seeded_determinism(self, capsys):
        for name in SUITES:
            _, out1, _ = run_cli(capsys, "check", "--suite", name, "--seed", "7")
            _, out2, _ = run_cli(capsys, "check", "--suite", name, "--seed", "7")
            assert out1 == out2, name
        code, out, _ = run_cli(capsys, "check", "--suite", "all", "--seed", "7")
        assert code == 0
        assert out == (GOLDEN / "check_all_seed7.txt").read_text()

    @pytest.mark.parametrize("name", [*SUITES, "all"])
    def test_negative_seed_exits_2(self, capsys, name):
        code, out, err = run_cli(capsys, "check", "--suite", name, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "argument --seed: must be a non-negative integer" in err

    def test_property_names_and_order(self):
        assert [r.name for r in run_suite("all")] == [
            "gauss_legendre_exactness",
            "half_gamma_vs_math_gamma",
            "gegenbauer_orthogonality",
            "ktype_witness_matches_branching",
            "decay_bound",
            "decay_log_slope_2pct",
            "g2_period_matches_predicate",
            "g1_period_matches_predicate",
            "g2_finite_interlacing_equivalence",
            "g1_nonzero_implies_infinite_type_1",
            "pure_inner_forms_constant_total",
            "admissibility_one_per_row_and_column",
            "default_predicate_supports_disjoint",
        ]

    def test_cli_suite_choices_are_the_check_suites(self):
        # cli states the suite names itself, so that parsing `check` loads no numpy: the two lists must agree
        assert cli._SUITES == ("all", *checks.SUITES)

    def test_flipped_g2_witness_fails_its_property(self, capsys, monkeypatch):
        witness = harmonics.ktype_pairings_nonzero

        def flip_b_equals_a(a, bs, n):
            bs = list(bs)
            return [ok != (b == a) for b, ok in zip(bs, witness(a, bs, n))]

        monkeypatch.setattr(periods, "ktype_pairings_nonzero", flip_b_equals_a)
        code, out, _ = run_cli(capsys, "check", "--suite", "branching")
        assert code == 1
        assert [ln for ln in out.splitlines() if ln.startswith("[FAIL]")] == [
            "[FAIL] g2_period_matches_predicate"
        ]

    def test_doubled_fj_eval_fails_decay_bound(self, capsys, monkeypatch):
        fj_eval = harmonics.fj_eval
        monkeypatch.setattr(harmonics, "fj_eval", lambda param, y, t: 2.0 * fj_eval(param, y, t))
        code, out, _ = run_cli(capsys, "check", "--suite", "decay")
        assert code == 1
        assert [ln for ln in out.splitlines() if ln.startswith("[FAIL]")] == [
            "[FAIL] decay_bound  (C = 2^rate * max|f_a|)"
        ]

    def test_quadrature_moments_are_the_per_k_sums(self):
        # the suite sums one row of scalar-exponent powers per k, so each moment is np.sum(w * x**k); powers taken
        # with an array of exponents missed that at k = 2 for some n (26 and 39 with one start of the Legendre rule,
        # 6 and 38 with another)
        worst = 0.0
        for n in range(2, 65):
            x, w = numerics.gauss_legendre_rule(n)
            per_k = [np.sum(w * x**k) for k in range(2 * n)]
            assert checks._legendre_moments(n).tolist() == per_k, n
            worst = max([worst] + [abs(float(m) - (0.0 if k % 2 else 2.0 / (k + 1))) for k, m in enumerate(per_k)])
        # the line states the bound, which these moments meet
        assert worst <= 1e-13
        assert run_suite("quadrature")[0] == CheckResult("gauss_legendre_exactness", True, "max err <= 1e-13")

    def test_decay_lines_do_not_depend_on_the_seed(self, capsys):
        # the bound holds at every random point, and the slope fit reads no random point
        outs = {run_cli(capsys, "check", "--suite", "decay", "--seed", str(seed))[1] for seed in range(20)}
        assert len(outs) == 1
        (out,) = outs
        assert out.splitlines()[0] == "[PASS] decay_bound  (C = 2^rate * max|f_a|)"
        assert out.splitlines()[1] == "[PASS] decay_log_slope_2pct  (slope rel err <= 0.02 at 4,4,1 4,4,2 4,4,3" \
            " 4,6,2 4,6,3 4,6,4 5,5,1 5,5,2 4,5,3/2)"
        assert out.splitlines()[2:] == ["2/2 properties passed"]

    @pytest.mark.parametrize("seed", [0, 7, 13, 999])
    def test_decay_slopes_are_the_polyfit_slopes_without_lapack(self, monkeypatch, seed):
        # the closed-form slopes of the suite's own fit are np.polyfit's, and the suite calls neither polyfit nor the
        # least-squares solver under it
        fits, log_slopes, polyfit = [], checks._log_slopes, np.polyfit

        def refused(*args, **kwargs):
            raise AssertionError("the decay suite called a least-squares solver")

        monkeypatch.setattr(checks, "_log_slopes", lambda ts, logs: fits.append((ts, logs)) or log_slopes(ts, logs))
        monkeypatch.setattr(np, "polyfit", refused)
        monkeypatch.setattr(np.linalg, "lstsq", refused)
        assert all(r.passed for r in run_suite("decay", seed))
        ((ts, logs),) = fits
        assert logs.shape == (len(checks._DECAY_COMBOS), 64)
        np.testing.assert_allclose(log_slopes(ts, logs), polyfit(ts, logs.T, 1)[0], rtol=1e-12, atol=0.0)

    def test_decay_draws_once_per_parameter(self, monkeypatch):
        # one randbytes call per run holds the 4-byte words of every parameter's directions (a Box-Muller pair per
        # two coordinates) and of its t
        draws = []

        class SpiedRandom(random.Random):
            def randbytes(self, n):
                draws.append(n)
                return super().randbytes(n)

        monkeypatch.setattr(checks.random, "Random", SpiedRandom)
        assert all(r.passed for r in run_suite("decay", 5))
        assert draws == [4 * sum(100 * q + 100 for _, q, _ in checks._DECAY_COMBOS)]

    def test_quadrature_points_depend_on_the_seed(self, monkeypatch):
        # the suite evaluates each distinct argument of its 200 seeded draws once
        def points(seed):
            drawn = []
            monkeypatch.setattr(checks, "half_gamma", lambda x2: drawn.append(x2) or exact.half_gamma(x2))
            assert run_suite("quadrature", seed)[1].passed
            distinct = set(random.Random(seed).choices(range(1, 343), k=200))
            assert len(drawn) == len(set(drawn)) and set(drawn) == distinct and distinct <= set(range(1, 343))
            return drawn

        assert points(4) == points(4)
        assert points(4) != points(5)

    def test_decay_makes_one_fj_eval_per_parameter(self, monkeypatch):
        # each parameter's 100 random points and its 64 points on the pole go through one call
        shapes = []
        fj_eval = harmonics.fj_eval

        def counted(param, y, t):
            shapes.append((param.q, np.shape(y), np.shape(t), np.asarray(y)[100:, -1].tolist()))
            return fj_eval(param, y, t)

        monkeypatch.setattr(harmonics, "fj_eval", counted)
        assert all(r.passed for r in run_suite("decay", 3))
        assert [(q, y, t) for q, y, t, _ in shapes] == [(q, (164, q), (164,)) for _, q, _ in checks._DECAY_COMBOS]
        assert all(pole == [1.0] * 64 for *_, pole in shapes)

    def test_decay_constant_is_the_gegenbauer_peak(self):
        # C_a^nu(1) = (2nu)_a / a! against the max of |C_a^nu| on the 2001-point grid the suite once scanned
        grid = np.linspace(-1.0, 1.0, 2001)
        for p, q, lam_x2 in checks._DECAY_COMBOS:
            a, nu = fjrep.FJParam(p, q, lam_x2).degree, (q - 2) / 2.0
            peak = float(np.max(np.abs(harmonics.gegenbauer(a, nu, grid))))
            closed = checks._gegenbauer_at_one(a, nu)
            assert abs(closed - peak) <= 2 * math.ulp(peak), (p, q, lam_x2, closed, peak)

    def test_branching_suite_scans_once_per_ambient(self, monkeypatch):
        cases, scans, single_calls = set(), [], []
        branch_scan_x2 = periods.branch_scan_x2

        def counted_scan(p, q, lam_x2, subgroup, targets_x2, *rest):
            scans.append((p, q, lam_x2, subgroup))
            cases.update((p, q, lam_x2, subgroup, t) for t in targets_x2)
            return branch_scan_x2(p, q, lam_x2, subgroup, targets_x2, *rest)

        def counted_single(fn):
            def counted(*args, **kwargs):
                single_calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(periods, "branch_scan_x2", counted_scan)
        # it reads the scans' columns: no period record and no row
        records = (periods.period_x2, periods.period_integral_G1, periods.period_integral_G2)
        for fn in (*records, periods.branching_verdicts_x2):
            monkeypatch.setattr(periods, fn.__name__, counted_single(fn))
        assert all(r.passed for r in run_suite("branching"))
        assert single_calls == []
        assert len(scans) == len(set(scans)) == 36
        # the per-target filter the suite used before it batched: every valid target
        # with doubled value <= 2 (a + 8) whose parameter has degree <= 6
        expected = set()
        for p in (4, 5, 6):
            for q in (4, 5, 6):
                for lam in valid_lambdas(p, q, 6):
                    if lam not in (1, Fraction(3, 2), 2, 3):
                        continue
                    max_twice = (make_fj_param(p, q, lam).degree + 8) * 2
                    for sub in ("g1", "g2"):
                        for t in valid_targets(p, q, sub, max_twice):
                            if make_fj_param(p, q, t, SpaceTag(sub)).degree <= 6:
                                expected.add((p, q, doubled(lam), sub, doubled(t)))
        assert len(expected) == 246
        assert cases == expected

    @pytest.mark.parametrize("name", list(SUITES))
    def test_every_suite_passes(self, capsys, name):
        code, out, _ = run_cli(capsys, "check", "--suite", name)
        assert code == 0
        assert any(ln.startswith("[PASS] ") for ln in out.splitlines())
        assert [ln for ln in out.splitlines() if ln.startswith("[FAIL]")] == []


class TestOutFile(object):
    def test_out_flag(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "fj", "--p", "4", "--q", "4", "--lambda-x2", "4", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["a"] == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "name, argv", [("branch_g1_5_4_l97", G1_GOLDEN_SCAN), ("branch_g2_4_6_l40", G2_GOLDEN_SCAN)], ids=["g1", "g2"]
    )
    def test_branch_out_writes_the_printed_bytes(self, tmp_path, capsys, name, argv, fmt):
        code, printed, _ = run_cli(capsys, "branch", *argv, "--format", fmt)
        assert code == 0 and printed.encode() == (GOLDEN / f"{name}.{fmt}").read_bytes()
        target = tmp_path / f"{name}.{fmt}"
        assert run_cli(capsys, "branch", *argv, "--format", fmt, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == printed.encode()

    @pytest.mark.parametrize(
        "argv",
        [
            ("fj", "--p", "4", "--q", "4", "--lambda-x2", "4"),
            ("branch", "--p", "4", "--q", "4", "--lambda-x2", "4", "--subgroup", "g2",
             "--max-target-x2", "7"),
            ("period", "--p", "4", "--q", "4", "--lambda-x2", "4", "--target-x2", "3",
             "--subgroup", "g2"),
            ("packet", "--p", "4", "--q", "4"),
        ],
        ids=["fj", "branch", "period", "packet"],
    )
    def test_unwritable_out_exits_2(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write --out {target}: ")
        assert not target.parent.exists()


DISPATCH_ARGVS = [
    # one argv of each benchmark request shape
    ["branch", "--p", "4", "--q", "6", "--lambda-x2", "8", "--subgroup", "g2", "--max-target-x2", "9",
     "--format", "csv"],
    ["branch", "--p", "5", "--q", "4", "--lambda-x2", "9", "--subgroup", "g1", "--max-target-x2", "12",
     "--format", "json"],
    ["fj", "--p", "5", "--q", "6", "--lambda-x2", "8"],
    ["period", "--p", "5", "--q", "4", "--lambda-x2", "9", "--target-x2", "10", "--subgroup", "g1"],
    ["period", "--p", "4", "--q", "6", "--lambda-x2", "8", "--target-x2", "5", "--subgroup", "g2", "--witness"],
    ["check", "--suite", "quadrature", "--seed", "3"],
    ["packet", "--p", "4", "--q", "5", "--lambda-x2", "4"],
    ["fj", "--p", "4", "--q", "4", "--lambda-x2", "3"],
    ["branch", "--p", "3", "--q", "4", "--lambda-x2", "4", "--subgroup", "g1", "--max-target-x2", "6"],
    # usage, help and argparse's own errors
    [],
    ["-h"],
    ["frobnicate"],
    ["branch", "-h"],
    ["branch", "--p", "x"],
    ["branch", "--subgroup", "g3"],
    ["fj", "--lam", "4"],
    ["fj", "--p=4", "--q=4", "--lambda-x2=4"],
    ["period", "--p", "4", "--q", "4", "--lambda-x2", "4", "--subgroup", "g2"],
    # leftover arguments, which only the full parser words
    ["fj", "--p", "4", "--q", "4", "--lambda-x2", "4", "--bogus"],
    ["packet", "--p", "4", "--q", "4", "extra"],
]


# one canonical argv per verb, each flag once by its full name; all are cheap to run
CANONICAL = [
    ["fj", "--p", "4", "--q", "6", "--lambda-x2", "8"],
    ["branch", "--p", "4", "--q", "6", "--lambda-x2", "8", "--subgroup", "g2", "--max-target-x2", "9", "--format", "csv"],
    ["period", "--p", "4", "--q", "6", "--lambda-x2", "8", "--target-x2", "5", "--subgroup", "g2", "--witness"],
    ["packet", "--p", "4", "--q", "6", "--lambda-x2", "4", "--inner-forms-only"],
    ["check", "--suite", "quadrature", "--seed", "3"],
]
SPELLING_KINDS = ("canonical", "abbreviated", "equals", "repeated", "missing", "bad-int", "negative", "out-of-choice",
                  "double-dash", "help", "leftover")


def spellings(seed: int = 33, rounds: int = 2):
    """(kind, argv): each canonical argv in a seeded flag order, and each of the non-canonical spellings of it."""
    rng = random.Random(seed)
    cases = []
    for verb, *flags in CANONICAL:
        groups = []  # each flag with its value, if it takes one
        for token in flags:
            if token.startswith("--"):
                groups.append([token])
            else:
                groups[-1].append(token)
        for _ in range(rounds):
            rng.shuffle(groups)
            for kind in SPELLING_KINDS:
                spelt = [list(g) for g in groups]
                valued = [g for g in spelt if len(g) == 2]
                ints = [g for g in valued if g[1].isdecimal()]
                if kind == "abbreviated":
                    g = rng.choice([g for g in spelt if len(g[0]) > 4])
                    g[0] = g[0][: rng.randrange(4, len(g[0]))]
                elif kind == "equals":
                    g = rng.choice(valued)
                    g[:] = [f"{g[0]}={g[1]}"]
                elif kind == "repeated":
                    spelt.append(list(rng.choice(spelt)))
                elif kind == "missing":
                    g = rng.choice(spelt)
                    spelt.remove(g)
                    if cli.VERBS[verb][2][g[0]][1] is not cli.REQUIRED:
                        kind = "canonical"  # an optional flag left out
                elif kind in ("bad-int", "negative"):
                    g = rng.choice(ints)
                    g[1] = rng.choice(("4.0", "x", "")) if kind == "bad-int" else f"-{g[1]}"
                elif kind == "out-of-choice":  # a flag with choices, or else an int flag
                    rng.choice([g for g in valued if g not in ints] or ints)[1] = "g3"
                elif kind != "canonical":
                    extra = {"double-dash": "--", "help": rng.choice(("-h", "--help")), "leftover": "extra"}[kind]
                    spelt.insert(rng.randrange(len(spelt) + 1), [extra])
                cases.append((kind, [verb, *(token for g in spelt for token in g)]))
    return cases


SPELLINGS = spellings()


class TestVerbDispatch:
    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=[" ".join(argv) or "no-argv" for argv in DISPATCH_ARGVS])
    def test_matches_the_full_parser(self, capsys, monkeypatch, argv):
        dispatched = run_cli(capsys, *argv)
        full = cli._parsers()[0]
        monkeypatch.setattr(cli, "_canonical", lambda argv: None)
        monkeypatch.setattr(cli, "_parsers", lambda: (full, {}))  # every argv through full.parse_args
        assert run_cli(capsys, *argv) == dispatched

    @pytest.mark.parametrize("kind, argv", SPELLINGS, ids=[f"{kind}:{' '.join(argv)}" for kind, argv in SPELLINGS])
    def test_the_reader_matches_argparse(self, capsys, monkeypatch, kind, argv):
        # the reader answers exactly the canonical spellings, with the namespace the verb's parser returns
        read = cli._canonical(argv)
        assert (read is not None) == (kind == "canonical")
        if read is not None:
            assert vars(read) == vars(cli._parsers()[1][argv[0]].parse_args(argv[1:]))
        answered = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "_canonical", lambda argv: None)
        assert run_cli(capsys, *argv) == answered

    def test_only_a_noncanonical_argv_builds_a_parser(self, capsys, monkeypatch):
        passes = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def spy(parser, *args, **kwargs):
            passes.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        cli._parsers.cache_clear()
        for argv in CANONICAL:
            assert run_cli(capsys, *argv)[0] == 0, argv
        assert (passes, cli._parsers.cache_info().misses) == ([], 0)
        # a leftover argument goes through the verb's parser, then the full one, which words the error
        code, _, _ = run_cli(capsys, *DISPATCH_ARGVS[-1])
        assert (code, passes) == (2, ["hypbranch packet", "hypbranch", "hypbranch packet"])


def _subprocess_env():
    path = [str(Path(hypbranch.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


# The modules a cold-start probe watches.  Half-integers stay doubled ints and every report but `packet`'s prints
# through a template, so only `packet` loads json, and only the Fraction readers load fractions (and with it decimal).
# Of the package, `branch` and `period` load periods and with it the interlace classifier, and only `packet` loads
# packets; each `check` suite loads the modules it certifies, so only the packets and conjecture suites load packets,
# and the quadrature and decay suites load neither periods nor packets.
PACKETS, INTERLACE, PERIODS = "hypbranch.packets", "hypbranch.interlace", "hypbranch.periods"
WATCHED = ("numpy", "numpy.random", "scipy", "argparse", "dataclasses", "fractions", "decimal", "json", PACKETS,
           INTERLACE, PERIODS)
SUITE_LOADS = {
    "quadrature": {"numpy"},
    "harmonics": {"numpy", PERIODS, INTERLACE},
    "decay": {"numpy"},
    "branching": {"numpy", PERIODS, INTERLACE},
    "packets": {"numpy", PACKETS, INTERLACE},
    "conjecture": {"numpy", PACKETS, INTERLACE},
}

# (id, an import or a CLI argv run in a fresh interpreter, its exit code, the watched modules it loads); `branch` is
# the control that shows the probe sees numpy when a verb loads it, `import numpy.random` the one that shows it sees
# numpy.random, help and the unknown verb the ones that show it sees argparse, `packet` the one for json and
# packets, `period` the one for periods and interlace, and a Fraction reader the one for fractions and decimal
COLD_PROBES = [
    ("import-cli", "import hypbranch.cli", None, set()),
    ("import-packets", "import hypbranch.packets", None, {PACKETS, INTERLACE}),
    ("fj", ["fj", "--p", "4", "--q", "4", "--lambda-x2", "4"], 0, set()),
    ("fj-past-the-range", ["fj", "--p", "5", "--q", "5", "--lambda-x2", "400000"], 2, set()),
    ("fj-half-integer-degree", ["fj", "--p", "4", "--q", "4", "--lambda-x2", "5"], 2, set()),
    ("packet", ["packet", "--p", "4", "--q", "4", "--lambda-x2", "4"], 0, {"json", PACKETS, INTERLACE}),
    ("packet-inner-forms", ["packet", "--p", "4", "--q", "6", "--inner-forms-only"], 0, {"json", PACKETS, INTERLACE}),
    ("help", ["--help"], 0, {"argparse"}),
    ("unknown-verb", ["frobnicate"], 2, {"argparse"}),
    ("branch", ["branch", "--p", "4", "--q", "6", "--lambda-x2", "8", "--subgroup", "g2", "--max-target-x2", "5"],
     0, {"numpy", PERIODS, INTERLACE}),
    ("branch-csv", ["branch", "--p", "5", "--q", "4", "--lambda-x2", "9", "--subgroup", "g1", "--max-target-x2", "12",
                    "--format", "csv"], 0, {"numpy", PERIODS, INTERLACE}),
    ("period-g1", ["period", "--p", "5", "--q", "4", "--lambda-x2", "9", "--target-x2", "10", "--subgroup", "g1"],
     0, {"numpy", PERIODS, INTERLACE}),
    ("period-g2-witness", ["period", "--p", "4", "--q", "6", "--lambda-x2", "8", "--target-x2", "5", "--subgroup", "g2",
                           "--witness"], 0, {"numpy", PERIODS, INTERLACE}),
    # a negative value is read by argparse
    ("period-divergent", ["period", "--p", "4", "--q", "4", "--lambda-x2", "-4", "--target-x2", "2",
                          "--subgroup", "g2"], 3, {"numpy", "argparse", PERIODS, INTERLACE}),
    ("check-all", ["check", "--suite", "all"], 0, {"numpy", PACKETS, INTERLACE, PERIODS}),
    *((f"check-{suite}", ["check", "--suite", suite], 0, SUITE_LOADS[suite]) for suite in SUITES),
    ("import-numpy-random", "import numpy.random", None, {"numpy", "numpy.random"}),
    ("fraction-reader", "from hypbranch.fjrep import valid_lambdas\nvalid_lambdas(4, 4, 7)", None,
     {"fractions", "decimal"}),
]


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "user_set"])
def test_entry_runs_openblas_on_one_thread_unless_the_user_sets_it(monkeypatch, capsys, preset):
    # the console script sets the count before a verb loads numpy; a count the user set is kept
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset or "")  # restored after the test, set or not
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.setattr(sys, "argv", ["hypbranch", "fj", "--p", "4", "--q", "4", "--lambda-x2", "4"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == (preset or "1")
    assert capsys.readouterr().out.encode() == (GOLDEN / "fj_4_4_l4.json").read_bytes()


@pytest.mark.parametrize("run, code, loads", [c[1:] for c in COLD_PROBES], ids=[c[0] for c in COLD_PROBES])
def test_cold_start_imports(run, code, loads):
    # scipy is a test dependency only, so the installed CLI runs on numpy alone; `fj`, `packet`,
    # help and usage errors are exact or argparse's own, so they run on the standard library alone;
    # `check` draws from the standard library's generator, so no verb loads numpy.random;
    # a canonical argv is read from the verb table, so only help and usage errors load argparse;
    # every record is a NamedTuple, so no probe loads dataclasses, nor a numpy-free one inspect;
    # no verb but `packet` loads json, none fractions or decimal; fj, branch and period load no packets, and the
    # quadrature and decay suites of check neither packets nor periods
    if isinstance(run, list):
        run = (
            "from hypbranch.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = main({run!r})"
        )
    probe = (
        f"import contextlib, io, sys\ncode = None\n{run}\n"
        f"print(code, *(name for name in {(*WATCHED, 'inspect')!r} if name in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_subprocess_env(), capture_output=True, text=True, check=True
    )
    printed_code, *loaded = out.stdout.split()
    assert (printed_code, set(loaded) - {"inspect"}) == (str(code), loads)
    assert "numpy" in loads or "inspect" not in loaded


def test_lazy_exports_resolve_to_their_home_modules():
    for name in hypbranch.__all__:
        value = getattr(hypbranch, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert len(set(hypbranch.__all__)) == len(hypbranch.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        hypbranch.no_such_name
    namespace = {}
    exec("from hypbranch import *", namespace)
    assert all(namespace[name] is getattr(hypbranch, name) for name in hypbranch.__all__)


def test_demos_run():
    # each demo's stdout is pinned byte for byte, printed half-integers included
    demos = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        out = subprocess.run([sys.executable, str(demo)], env=_subprocess_env(), capture_output=True)
        assert out.returncode == 0, (demo.name, out.stderr)
        assert out.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_bytes(), demo.name


# A g1 ladder on two spheres with p = 5: periods at a = 16, 100, 400 against c = a - 2, a, a + 2 (c = 402 is
# past the checked range, on the degree-400 rule) and scans at a = 16, 100, which share those rules.
G1_LADDER = [
    *(["period", "--p", "5", "--q", str(q), "--lambda-x2", str(2 * a + q - 3), "--target-x2", str(2 * c + q - 2),
       "--subgroup", "g1"] for q in (4, 7) for a in (16, 100, 400) for c in (a - 2, a, a + 2)),
    *(["branch", "--p", "5", "--q", str(q), "--lambda-x2", str(2 * a + q - 3), "--subgroup", "g1",
       "--max-target-x2", str(2 * a + q + 2), "--format", fmt]
      for q in (4, 7) for a, fmt in ((16, "csv"), (100, "json"))),
]


def test_checkpoints_leave_every_output_as_a_fresh_process_prints_it(capsys):
    # the ladder twice in one process, each time shuffled: later requests read a cached Gram table
    def fresh(argv):
        out = subprocess.run([sys.executable, "-m", "hypbranch.cli", *argv], env=_subprocess_env(), capture_output=True)
        return out.returncode, out.stdout.decode(), out.stderr.decode()  # bytes: CSV rows end in \r\n

    with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
        expected = dict(zip(map(tuple, G1_LADDER), pool.map(fresh, G1_LADDER)))
    assert all(code == 0 for code, _, _ in expected.values())
    harmonics._gram_table.cache_clear()
    rng = random.Random(30)
    for _ in range(2):
        for argv in rng.sample(G1_LADDER, len(G1_LADDER)):
            assert run_cli(capsys, *argv) == expected[tuple(argv)], argv
    assert harmonics._gram_table.cache_info().currsize == 6  # a degree-16, 100 and 400 rule per sphere


def test_no_lattice_past_the_sphere_range():
    # S^999 is past the checked range, so no verdict there builds or keeps a Gram table: both periods are refused,
    # with the bytes blessed in the sweep manifest
    harmonics._gram_table.cache_clear()
    period = ["period", "--p", "5", "--q", "1000", "--lambda-x2", "1077", "--target-x2"]
    for target_x2 in ("1078", "1082"):
        refused = sweep.run([*period, target_x2, "--subgroup", "g1"])
        assert refused["exit"] == 2
        assert refused["stderr"] == "error: q = 1000 is past the checked range, which ends at 16\n"
        assert refused in sweep.load()
    assert harmonics._gram_table.cache_info().misses == 0


def test_runtime_has_no_assert():
    # checks on the runtime path must survive python -O
    for path in Path(hypbranch.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name
