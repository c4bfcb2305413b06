import ast
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hypbranch
from hypbranch import fjrep, geometry, harmonics, numerics, periods
from hypbranch.checks import SUITES, run_suite
from hypbranch.cli import main
from hypbranch.fjrep import SpaceTag, make_fj_param, valid_lambdas
from hypbranch.numerics import HalfInt
from hypbranch.periods import branching_verdicts, valid_targets

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
        expected = 2 * math.pi**2 * (8 * math.pi / 3) / 12.0
        assert payload["value"] == pytest.approx(expected, rel=1e-9)

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

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "branch", "--p", "4", "--q", "4", "--lambda-x2", "4",
            "--subgroup", "g2", "--max-target-x2", "0", "--format", "csv",
        )
        assert code == 0
        lines = [ln for ln in out.strip().splitlines() if ln]
        assert len(lines) == 1
        assert lines[0].startswith("p,q,lambda_x2")

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
        def flip_target_5(p, q, lam, subgroup, targets, spec):
            results = branching_verdicts(p, q, lam, subgroup, targets, spec)
            for i, (target, result) in enumerate(zip(targets, results)):
                if target.twice == 5:
                    verdict = dataclasses.replace(result.verdict, nonzero=not result.verdict.nonzero)
                    results[i] = dataclasses.replace(result, verdict=verdict)
            return results

        monkeypatch.setattr("hypbranch.cli.branching_verdicts", flip_target_5)

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
        assert "-1/2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # the radial rule cannot meet its tolerance with 2 nodes
            ("period", "--p", "4", "--q", "4", "--lambda-x2", "4", "--nodes", "2",
             "--target-x2", "3", "--subgroup", "g2"),
            # the degree-200 leading-trace witness value overflows
            ("period", "--p", "4", "--q", "6", "--lambda-x2", "404", "--witness",
             "--target-x2", "3", "--subgroup", "g2"),
            # the squared zonal values overflow on S^129 at degree 1036: the norm is NaN
            ("fj", "--p", "4", "--q", "130", "--lambda-x2", "2200"),
            # |Z_a|^2 overflows to inf on S^129 at degree 1000
            ("period", "--p", "5", "--q", "130", "--lambda-x2", "2127",
             "--target-x2", "2128", "--subgroup", "g1"),
            # Gamma(p/2) in the sphere area of S^{p-1} leaves the float range from p = 344
            ("fj", "--p", "400", "--q", "4", "--lambda-x2", "400"),
            ("period", "--p", "350", "--q", "4", "--lambda-x2", "350",
             "--target-x2", "351", "--subgroup", "g1"),
        ],
        ids=[
            "radial_tolerance", "witness_overflow", "fj_norm_not_finite", "g1_norm_not_finite",
            "fj_sphere_area_overflow", "g1_sphere_area_overflow",
        ],
    )
    def test_numeric_failure_exits_4(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("fj", "--p", "4", "--q", "130", "--lambda-x2", "2200"),
            ("period", "--p", "5", "--q", "130", "--lambda-x2", "2127",
             "--target-x2", "2128", "--subgroup", "g1"),
            # the witness norms overflow on S^128 at degree 1000
            ("period", "--p", "4", "--q", "130", "--lambda-x2", "2128",
             "--target-x2", "127", "--subgroup", "g2", "--witness"),
        ],
        ids=["fj", "period_g1", "period_g2_witness"],
    )
    def test_overflow_prints_one_error_line(self, argv):
        # in a fresh interpreter with warnings shown, which pytest would capture
        out = subprocess.run(
            [sys.executable, "-W", "default", "-m", "hypbranch.cli", *argv],
            env=_subprocess_env(), capture_output=True, text=True,
        )
        assert out.returncode == 4
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr

    def test_witness_on_g1_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "period", "--p", "4", "--q", "4", "--lambda-x2", "4",
            "--target-x2", "5", "--subgroup", "g1", "--witness",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --witness applies to --subgroup g2 only\n"

    @pytest.mark.parametrize("max_target_x2", ["804", "100000"], ids=["degree_401", "degree_49999"])
    def test_oversized_branch_scan_exits_2(self, capsys, monkeypatch, max_target_x2):
        # g1 targets on X(4, 4) have degree (nu_x2 - 2) / 2; the refusal comes
        # before any Gram row, so a regression fails here instead of allocating
        def refuse(*args):
            raise AssertionError("zonal_gram called for a refused scan")

        monkeypatch.setattr(harmonics, "zonal_gram", refuse)
        monkeypatch.setattr(periods, "zonal_gram", refuse)
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
            ("period", "--p", "5", "--q", "4", "--lambda-x2", "9", "--target-x2", "10",
             "--subgroup", "g1", "--nodes", "1000000"),
            ("branch", "--p", "4", "--q", "6", "--lambda-x2", "40", "--subgroup", "g2",
             "--max-target-x2", "44", "--nodes", "4097"),
        ],
        ids=["period_1000000", "branch_4097"],
    )
    def test_oversized_nodes_exits_2(self, capsys, monkeypatch, argv):
        # the Newton build grows with the square of the node count; the refusal
        # comes before any Gauss rule is built
        def refuse(*args):
            raise AssertionError("Gauss rule built for refused --nodes")

        monkeypatch.setattr(numerics, "_legendre_rule", refuse)
        monkeypatch.setattr(geometry, "_radial_rule", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --nodes {argv[-1]} is above the largest radial rule, 4096 nodes\n"

    def test_nodes_at_the_bound_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "period", "--p", "5", "--q", "4", "--lambda-x2", "9", "--target-x2", "10",
            "--subgroup", "g1", "--nodes", "4096",
        )
        assert code == 0
        assert json.loads(out)["nonzero"]

    def test_branch_scan_to_degree_400_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "branch", "--p", "5", "--q", "4", "--lambda-x2", "9",
            "--subgroup", "g1", "--max-target-x2", "803",
        )
        assert code == 0
        assert json.loads(out)[-1]["target_x2"] == 802

    def test_packet_odd_signature(self, capsys):
        code, _, _ = run_cli(capsys, "packet", "--p", "3", "--q", "3")
        assert code == 2

    def test_packet_inner_forms_only(self, capsys):
        code, out, _ = run_cli(capsys, "packet", "--p", "3", "--q", "3", "--inner-forms-only")
        assert code == 0
        assert json.loads(out)["pure_inner_forms"] == [[1, 5], [3, 3], [5, 1]]


class TestNodesStability:
    def test_node_count_agreement(self, capsys):
        values = []
        for nodes in ("50", "400"):
            _, out, _ = run_cli(
                capsys,
                "period", "--p", "4", "--q", "4", "--lambda-x2", "4",
                "--target-x2", "3", "--subgroup", "g2", "--nodes", nodes,
            )
            values.append(json.loads(out)["value"])
        assert values[0] == pytest.approx(values[1], rel=1e-8)


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

    @pytest.mark.parametrize("name", [*SUITES, "all"])
    def test_negative_seed_exits_2(self, capsys, name):
        code, out, err = run_cli(capsys, "check", "--suite", name, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "argument --seed: must be a non-negative integer" in err

    def test_property_names_and_order(self):
        assert [r.name for r in run_suite("all")] == [
            "gauss_legendre_exactness",
            "beta_symmetry",
            "radial_numeric_vs_closed",
            "gegenbauer_orthogonality",
            "pairing_parity_vanishing",
            "zonal_norm_closed_vs_quadrature",
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

    def test_flipped_g2_witness_fails_its_property(self, capsys, monkeypatch):
        witness = harmonics.ktype_pairings_nonzero

        def flip_b_equals_a(a, bs, n):
            bs = list(bs)
            return [(ok != (b == a), value) for b, (ok, value) in zip(bs, witness(a, bs, n))]

        monkeypatch.setattr(periods, "ktype_pairings_nonzero", flip_b_equals_a)
        code, out, _ = run_cli(capsys, "check", "--suite", "branching")
        assert code == 1
        assert [ln for ln in out.splitlines() if ln.startswith("[FAIL]")] == [
            "[FAIL] g2_period_matches_predicate"
        ]

    def test_doubled_fj_eval_fails_decay_bound(self, capsys, monkeypatch):
        fj_eval = fjrep.fj_eval
        monkeypatch.setattr(fjrep, "fj_eval", lambda param, y, t: 2.0 * fj_eval(param, y, t))
        code, out, _ = run_cli(capsys, "check", "--suite", "decay")
        assert code == 1
        assert [ln for ln in out.splitlines() if ln.startswith("[FAIL]")] == [
            "[FAIL] decay_bound  (C = 2^rate * max|f_a|)"
        ]

    def test_branching_suite_scans_once_per_ambient(self, monkeypatch):
        cases, scans, single_calls = set(), [], []

        def counted_scan(p, q, lam, subgroup, targets, *rest):
            scans.append((p, q, lam.twice, subgroup))
            cases.update((p, q, lam.twice, subgroup, t.twice) for t in targets)
            return branching_verdicts(p, q, lam, subgroup, targets, *rest)

        def counted_single(fn):
            def counted(*args, **kwargs):
                single_calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(periods, "branching_verdicts", counted_scan)
        for fn in (periods.period_integral_G1, periods.period_integral_G2):
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
                    if lam not in (HalfInt(1), HalfInt.from_twice(3), HalfInt(2), HalfInt(3)):
                        continue
                    max_twice = (make_fj_param(p, q, lam).degree + 8) * 2
                    for sub in ("g1", "g2"):
                        for t in valid_targets(p, q, sub, max_twice):
                            if make_fj_param(p, q, t, SpaceTag(sub)).degree <= 6:
                                expected.add((p, q, lam.twice, sub, t.twice))
        assert len(expected) == 246
        assert cases == expected

    def test_packets_suite(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "packets")
        assert code == 0
        assert "FAIL" not in out

    def test_conjecture_suite(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--suite", "conjecture")
        assert code == 0

    @pytest.mark.parametrize("name", list(SUITES))
    def test_every_suite_passes(self, name):
        results = run_suite(name)
        assert results
        assert [r.name for r in results if not r.passed] == []


class TestOutFile(object):
    def test_out_flag(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "fj", "--p", "4", "--q", "4", "--lambda-x2", "4", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["a"] == 1

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


def _subprocess_env():
    path = [str(Path(hypbranch.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_import_leaves_scipy_out():
    # scipy is a test dependency only; the installed CLI runs on numpy alone
    env = _subprocess_env()
    probe = "import sys, hypbranch.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_demos_run():
    demos = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        out = subprocess.run(
            [sys.executable, str(demo)], env=_subprocess_env(), capture_output=True, text=True
        )
        assert out.returncode == 0, (demo.name, out.stderr)


def test_runtime_has_no_assert():
    # checks on the runtime path must survive python -O
    for path in Path(hypbranch.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name
