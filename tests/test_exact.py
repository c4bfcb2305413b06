"""Every printed number against an exact oracle that shares no code with the library.

`exact_oracle` integrates rational Gegenbauer coefficients against the exact
moments of (1-x^2)^{s/2}; here every `fj`, `period` and `branch` output of a
seeded sweep is held to it within its printed error, and every refusal to the
rule that a printed number that is exactly nonzero must be a normal double.
"""

import ast
import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import exact_oracle
import hypbranch.exact
from hypbranch import fjrep, harmonics, periods
from hypbranch.checks import run_suite
from hypbranch.cli import main
from hypbranch.errors import ToleranceError
from hypbranch.exact import normal_ratio, pairing_subsphere_exact, sphere_area_exact, wallis_exact, zonal_norm_sq_exact

# ROADMAP defects (l), the plain g2 pairing at a = 400, and (k), g1 values past q = 300: past the checked range,
# so the CLI refuses them, and their exact factors are held to the oracle here
DEFECT_L = ["period", "--p", "4", "--q", "16", "--lambda-x2", "814", "--target-x2", "13", "--subgroup", "g2"]
DEFECT_K = [
    ["period", "--p", "4", "--q", "432", "--lambda-x2", "750", "--target-x2", "751", "--subgroup", "g1"],
    ["period", "--p", "5", "--q", "321", "--lambda-x2", "738", "--target-x2", "739", "--subgroup", "g1"],
]
# ROADMAP defect (e) at large p: the witness pairing factor overflows while the period value is normal
DEFECT_E_BRANCH = ["branch", "--p", "16", "--q", "6", "--lambda-x2", "392", "--subgroup", "g2", "--max-target-x2", "1"]
DEFECT_E_PERIOD = ["period", "--p", "16", "--q", "6", "--lambda-x2", "392", "--target-x2", "1", "--subgroup", "g2",
                   "--witness"]
# the oracle's names of the numbers that a refusal names
REFUSED = {"period value": "value", "pairing factor": "pairing_factor", "radial factor": "radial_factor"}


def rounding_bound(value: float, r: int) -> float:
    """|value - exact| bound of one rounding of num / den * sqrt(pi)^r on math.pi's double: (ceil(|r|/2) + 4) 2^-53."""
    return abs(value) * (-(-abs(r) // 2) + 4) * 2.0**-53


def is_normal(x: float) -> bool:
    return sys.float_info.min <= abs(x) < math.inf


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(x) for x in argv])
    return code, out.getvalue(), err.getvalue()


def _flag(argv, name):
    return int(argv[argv.index(name) + 1])


def check_period_payload(argv, payload):
    """The printed value within err_est, and each printed factor within one rounding, of the oracle."""
    p, q, lam_x2, t_x2 = (_flag(argv, f) for f in ("--p", "--q", "--lambda-x2", "--target-x2"))
    exact = exact_oracle.period(p, q, lam_x2, t_x2, payload["subgroup"], payload["witness_used"])
    for field, (fraction, r) in exact.items():
        target = exact_oracle.to_float((fraction, r))
        assert fraction == 0 or is_normal(target), (argv, field, target)  # exit 0 prints only normal numbers
        printed = payload[field]
        bound = payload["err_est"] if field == "value" else rounding_bound(printed, r)
        assert abs(printed - target) <= bound, (argv, field, printed, target, bound)
        assert (printed == 0.0) == (fraction == 0), (argv, field)


def check_refusal(argv, err):
    """A refusal that names a printed number holds: that number's exact value is nonzero and not normal."""
    if "is not a normal double" not in err:
        return
    p, q, lam_x2 = (_flag(argv, f) for f in ("--p", "--q", "--lambda-x2"))
    if argv[0] == "fj":
        assert err.startswith("error: L2 norm ")
        exact = exact_oracle.l2_norm_sq(p, q, lam_x2)
    else:
        (field,) = [field for name, field in REFUSED.items() if err.startswith(f"error: {name} ")]
        subgroup, witness = argv[argv.index("--subgroup") + 1], "--witness" in argv
        exact = exact_oracle.period(p, q, lam_x2, _flag(argv, "--target-x2"), subgroup, witness)[field]
    assert exact[0] != 0 and not is_normal(exact_oracle.to_float(exact)), (argv, err)


def sweep_argvs(seed: int = 22):
    """The seeded sweep: fj, period (g1, g2 with and without --witness) and branch, plus edge commands."""
    rng = random.Random(seed)
    argvs = [DEFECT_L, *DEFECT_K]
    for _ in range(60):
        p, q = rng.randrange(4, 17), rng.randrange(4, 17)
        a = rng.choice((rng.randrange(0, 12), rng.randrange(0, 61)))
        lam_x2 = 2 * a + 2 - (p - q)
        kind = rng.choice(("fj", "g1", "g2", "g2w", "branch"))
        if kind == "fj":
            argvs.append(["fj", "--p", p, "--q", q, "--lambda-x2", lam_x2])
        elif kind == "branch":
            sub = rng.choice(("g1", "g2"))
            top = 2 * (a + 2) + 2 - (p - q + (1 if sub == "g2" else -1))  # targets of degree <= a + 2
            argvs.append(["branch", "--p", p, "--q", q, "--lambda-x2", lam_x2, "--subgroup", sub,
                          "--max-target-x2", top, "--format", rng.choice(("json", "csv"))])
        else:
            sub = kind[:2]
            d = max(0, a + rng.choice((-3, -2, -1, 0, 0, 1, 2)))
            t_x2 = 2 * d + 2 - (p - q + (1 if sub == "g2" else -1))
            argvs.append(["period", "--p", p, "--q", q, "--lambda-x2", lam_x2, "--target-x2", t_x2,
                          "--subgroup", sub, *(["--witness"] if kind == "g2w" else [])])
    argvs += [
        # exit 4: the witness value overflows, a period value below the normal range, an L2 norm out of range
        ["period", "--p", "4", "--q", "6", "--lambda-x2", "404", "--target-x2", "3", "--subgroup", "g2", "--witness"],
        ["period", "--p", "350", "--q", "4", "--lambda-x2", "350", "--target-x2", "351", "--subgroup", "g1"],
        ["fj", "--p", "400", "--q", "4", "--lambda-x2", "400"],
        # a branch prints the normal value whose pairing factor a period refuses
        DEFECT_E_BRANCH,
        DEFECT_E_PERIOD,
        # exit 2 and 3
        ["fj", "--p", "4", "--q", "4", "--lambda-x2", "3"],
        ["period", "--p", "4", "--q", "4", "--lambda-x2", "-4", "--target-x2", "2", "--subgroup", "g2"],
    ]
    return [[str(x) for x in argv] for argv in argvs]


def test_oracle_imports_nothing_from_the_library():
    tree = ast.parse(Path(exact_oracle.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "math", "fractions", "functools"}


def test_exact_layer_imports_only_the_standard_library():
    # `fj` and `packet` rest on it, so it must not pay numpy's import
    tree = ast.parse(Path(hypbranch.exact.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"errors"}
    assert imported and {name.split(".")[0] for name in imported} <= sys.stdlib_module_names


def test_oracle_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    assert exact_oracle.to_float((Fraction(1), 1)) == float(mp.sqrt(mp.pi))
    assert exact_oracle.to_float((Fraction(1, 3), 14)) == float(mp.pi**7 / 3)
    area = exact_oracle.to_float(exact_oracle.sphere_area(9))
    assert area == pytest.approx(float(2 * mp.pi**4.5 / mp.gamma(4.5)), rel=1e-15)
    # the defect (l) pairing; plain g2 pairings vanish at odd a - b and at b > a
    assert exact_oracle.to_float(exact_oracle.pairing_subsphere(400, 0, 16)) == 0.04123227128515454
    assert exact_oracle.pairing_subsphere(5, 2, 7)[0] == 0 and exact_oracle.pairing_subsphere(3, 5, 7)[0] == 0


def test_sweep():
    argvs = sweep_argvs()
    codes = []
    for argv in argvs:
        code, out, err = run(argv)
        codes.append(code)
        assert code in (0, 1, 2, 3, 4), argv
        assert "Traceback" not in err, argv
        if code:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
            check_refusal(argv, err)
            continue
        if argv[0] == "fj":
            p, q, lam_x2 = (_flag(argv, f) for f in ("--p", "--q", "--lambda-x2"))
            fraction, r = exact_oracle.l2_norm_sq(p, q, lam_x2)
            printed = json.loads(out)["l2_norm_sq"]
            assert abs(printed - exact_oracle.to_float((fraction, r))) <= rounding_bound(printed, r), argv
        elif argv[0] == "period":
            check_period_payload(argv, json.loads(out))
        else:
            p, q, lam_x2 = (_flag(argv, f) for f in ("--p", "--q", "--lambda-x2"))
            subgroup = argv[argv.index("--subgroup") + 1]
            for row in json.loads(out) if "json" in argv else list(csv_rows(out)):
                # a g2 branch row reports the witness value
                value = exact_oracle.period(p, q, lam_x2, int(row["target_x2"]), subgroup, subgroup == "g2")["value"]
                exact = exact_oracle.to_float(value)
                assert value[0] == 0 or is_normal(exact), (argv, row)
                assert abs(float(row["value"]) - exact) <= float(row["err"]), (argv, row, exact)
    assert codes.count(0) >= 50 and {2, 3, 4} <= set(codes)


def csv_rows(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        yield dict(zip(header, line.split(",")))


def test_defect_l_prints_the_exact_pairing():
    # the quadrature printed 0.04142540875226746, 0.47 % above the exact 0.041232271285154542...
    code, out, _ = run(DEFECT_L)
    payload = json.loads(out)
    assert code == 0
    assert payload["pairing_factor"] == 0.04123227128515453  # one rounding on math.pi's double: 1.4 ulp low
    check_period_payload(DEFECT_L, payload)
    # at low degree every plain pairing and zonal norm of the exact layer is the oracle's Fraction, 0 included
    for n in (4, 5, 6):
        for a in range(9):
            num, den, r = zonal_norm_sq_exact(a, n)
            assert (Fraction(num, den), r) == exact_oracle.zonal_norm_sq(a, n), (a, n)
            for b in range(9):
                num, den, r = pairing_subsphere_exact(a, b, n)
                fraction, oracle_r = exact_oracle.pairing_subsphere(a, b, n)
                assert Fraction(num, den) == fraction and (num == 0 or r == oracle_r), (a, b, n)


@pytest.mark.parametrize("argv", DEFECT_K, ids=["q432", "q321"])
def test_defect_k_prints_the_exact_value(argv):
    # q is past the checked range: one refusal line; the period the exact layer gives there is the oracle's
    p, q, lam_x2, t_x2 = (_flag(argv, f) for f in ("--p", "--q", "--lambda-x2", "--target-x2"))
    assert run(argv) == (2, "", f"error: q = {q} is past the checked range, which ends at 16\n")
    a = fjrep.checked_degree(p, q, lam_x2, fjrep.SpaceTag.G_ON_H)
    assert fjrep.checked_degree(p, q, t_x2, fjrep.SpaceTag.G1_SPACE) == a
    sphere, pairing = sphere_area_exact(p - 1), zonal_norm_sq_exact(a, q)
    radial = wallis_exact(p - 2, (lam_x2 + t_x2 - 1) // 2)
    value, err_est = periods.period_value(sphere, pairing, radial, (a, a))
    factors = {f"{name}_factor": normal_ratio(name, (a, a), factor)
               for name, factor in (("sphere", sphere), ("pairing", pairing), ("radial", radial))}
    check_period_payload(argv, {"subgroup": "g1", "witness_used": False, "value": value, "err_est": err_est, **factors})


def test_defect_e_branch_prints_the_value_whose_pairing_period_refuses():
    code, out, err = run(DEFECT_E_BRANCH)
    assert (code, err) == (0, "")
    assert [row["value"] for row in json.loads(out)] == [9.394933669609563e303]
    assert run(DEFECT_E_PERIOD) == (4, "", "error: pairing factor inf is not a normal double at degrees (200, 5)\n")


def test_g1_err_covers_the_whole_value():
    # ROADMAP defect (g): diagonal g1 periods on p in {5, 7, 12}, q in {4, 6, 16} and every
    # 5th valid lambda <= 200, against the exact factors' product in 40-digit mpmath
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    grid = [(p, q) for p in (5, 7, 12) for q in (4, 6, 16)]
    cases = [(p, q, lam_x2) for p, q in grid for lam_x2 in fjrep.valid_lambdas_x2(p, q, 400)[::5]]
    assert len(cases) == 358
    for p, q, lam_x2 in cases:
        verdict = periods.period_integral_G1(p, q, Fraction(lam_x2, 2), Fraction(lam_x2 + 1, 2))
        a, c = verdict.degree_a, verdict.degree_target
        assert a == c
        factors = (sphere_area_exact(p - 1), zonal_norm_sq_exact(a, q), wallis_exact(p - 2, lam_x2))
        exact = mp.fprod(mp.mpf(num) / den * mp.sqrt(mp.pi) ** r for num, den, r in factors)
        assert abs(verdict.value - exact) <= verdict.err_est, (p, q, lam_x2)


PERTURBED_ARGVS = [
    ["period", "--p", "5", "--q", "4", "--lambda-x2", "9", "--target-x2", "10", "--subgroup", "g1"],
    ["period", "--p", "4", "--q", "6", "--lambda-x2", "8", "--target-x2", "5", "--subgroup", "g2"],
    ["period", "--p", "4", "--q", "6", "--lambda-x2", "8", "--target-x2", "5", "--subgroup", "g2", "--witness"],
    ["branch", "--p", "5", "--q", "4", "--lambda-x2", "97", "--subgroup", "g1", "--max-target-x2", "102"],
    ["branch", "--p", "4", "--q", "6", "--lambda-x2", "40", "--subgroup", "g2", "--max-target-x2", "44"],
]


def test_no_printed_value_reads_the_quadrature(monkeypatch):
    # every Gram ratio changes and none crosses the threshold: only the verdicts read the kernel.  The unit rows
    # of every Gram, the tables' and the direct kernel's, scaled by 1.5 scale each ratio by 2.25
    before = [run(argv) for argv in PERTURBED_ARGVS]
    unit_rows = harmonics._unit_rows

    def perturbed(n, top, wanted):
        rows, norms, lost = unit_rows(n, top, wanted)
        return 1.5 * rows, norms, lost

    harmonics._gram_table.cache_clear()
    monkeypatch.setattr(harmonics, "_unit_rows", perturbed)
    after = [run(argv) for argv in PERTURBED_ARGVS]
    harmonics._gram_table.cache_clear()  # no table of scaled rows outlives the test
    assert after == before
    assert all(code == 0 for code, _, _ in after)


def _spy_rounding(monkeypatch) -> list[str]:
    """The names of the numbers `periods.period_value`, the one rounding of a period or a branch row, rounds."""
    calls, rounded = [], periods.period_value

    def spy(sphere, pairing, radial, degree_pair, what="period value"):
        calls.append(what)
        return rounded(sphere, pairing, radial, degree_pair, what)

    monkeypatch.setattr(periods, "period_value", spy)
    return calls


def test_a_branch_rounds_only_its_printed_value(monkeypatch):
    # a scan rounds and range-checks the value of each row whose exact pairing is nonzero (g2: b <= a) and
    # prints an exact 0.0 for the others; a period reads its three factors too, pairing first
    calls = _spy_rounding(monkeypatch)
    code, out, _ = run(PERTURBED_ARGVS[4])
    rows = json.loads(out)
    assert code == 0 and len(rows) == 21 and calls == ["period value"] * sum(row["predicate"] for row in rows)
    assert len(calls) == 19 and all(row["value"] == 0.0 for row in rows if not row["predicate"])
    calls.clear()
    assert run(PERTURBED_ARGVS[2])[0] == 0 and calls == ["period value", "pairing factor", "radial factor"]


def test_the_branching_suite_rounds_no_period_value(monkeypatch):
    # its properties read verdicts and predicates only, so none of its 246 rows rounds a number
    calls = _spy_rounding(monkeypatch)
    assert all(result.passed for result in run_suite("branching"))
    assert calls == []


def test_the_branching_suite_builds_no_exact_factor(monkeypatch):
    # its scans stop at the verdict stage: no sphere area, pairing or Wallis factor, as `periods` reads them
    built = []
    for name in ("sphere_area_exact", "witness_pairing_exact", "pairing_subsphere_exact", "zonal_norm_sq_exact",
                 "wallis_exact"):
        factor = getattr(periods, name)
        monkeypatch.setattr(periods, name, lambda *args, name=name, factor=factor: built.append(name) or factor(*args))
    assert all(result.passed for result in run_suite("branching"))
    assert built == []
    # the spies see what a scan's factors build
    code, _, _ = run(["branch", "--p", "4", "--q", "4", "--lambda-x2", "4", "--subgroup", "g2", "--max-target-x2", "7"])
    assert code == 0
    assert {"sphere_area_exact", "witness_pairing_exact", "wallis_exact"} <= set(built)


def _g2_scan_to(p: int, q: int, a: int) -> tuple[int, list[int]]:
    """lambda_x2 of ambient degree a on X(p, q), and every valid g2 target up to degree a + 2."""
    return 2 * a + 2 - p + q, fjrep.valid_lambdas_x2(p, q, 2 * a + 5 + q - p, fjrep.SpaceTag.G2_SPACE)


def test_a_scans_chained_factors_are_the_closed_forms(monkeypatch):
    # ROADMAP direction 4: a g2 scan chains its witness triples along consecutive target degrees and its Wallis
    # factors along each parity of m; each equals its closed form exactly, with the same power of sqrt(pi), on every
    # in-range sphere, to a = 400, with A = p - 1 from 3 to 19, and on a target list that skips, repeats and descends
    built = []
    monkeypatch.setattr(periods, "period_value", lambda sphere, pairing, radial, at: built.append(radial) or (1.0, 0.0))
    scans = []
    for q in range(4, 17):
        for a in [*range(41), 100, 193, 400]:
            p = 4 + (a + q) % 17 if 2 * a + q + 1 > 4 + (a + q) % 17 else 4  # lambda > 0
            scans.append((p, q, *_g2_scan_to(p, q, a)))
    offset_x2 = 5 - 6 - 1  # X(5, 6) at a = 8: a target's doubled degree is t_x2 - 2
    scans.append((5, 6, 17, [2 * b - offset_x2 for b in (5, 3, 4, 4, 9, 0, 1, 7, 8, 2)]))
    rows = 0
    for p, q, lam_x2, targets_x2 in scans:
        built.clear()
        scan, _ = periods.branch_scan_x2(p, q, lam_x2, "g2", targets_x2)
        factors = periods.scan_factors(scan, p, q, lam_x2, fjrep.SpaceTag.G2_SPACE, targets_x2, True)
        periods.scan_values(scan, factors)
        wallis = iter(built)
        for b, (num, den, r), m in zip(scan.degrees, factors.pairings, factors.wallis_ms, strict=True):
            c_num, c_den, c_r = hypbranch.exact.witness_pairing_exact(scan.a, b, q)
            assert num * c_den == c_num * den and (num == 0) == (c_num == 0) and r == c_r, (p, q, scan.a, b)
            if num:
                (w_num, w_den, w_r), (c_num, c_den, c_r) = next(wallis), wallis_exact(p - 1, m)
                assert w_num * c_den == c_num * w_den and w_r == c_r, (p, q, scan.a, b, m)
            rows += 1
        assert next(wallis, None) is None
    assert rows == 20_334 and len(scans) == 573


# ROADMAP defect (e): the first g2 scan to degree a + 2 that refuses a value, per (p, q), and the row it refuses
DEFECT_E_EDGES = [(4, 16, 194, 0), (4, 5, 197, 0), (16, 16, 198, 0), (16, 5, 204, 6)]


@pytest.mark.parametrize("p, q, a, b", DEFECT_E_EDGES, ids=[f"X({p},{q})" for p, q, *_ in DEFECT_E_EDGES])
def test_defect_e_scans_first_refuse_where_they_did(p, q, a, b):
    # the chains do not move the refusal: the scan at a - 1 prints every row, and the one at a refuses row (a, b)
    lam_x2, targets_x2 = _g2_scan_to(p, q, a - 1)
    assert len(periods.branching_verdicts_x2(p, q, lam_x2, "g2", targets_x2)) == len(targets_x2) > 0
    lam_x2, targets_x2 = _g2_scan_to(p, q, a)
    with pytest.raises(ToleranceError, match=rf"^period value inf is not a normal double at degrees \({a}, {b}\)$"):
        periods.branching_verdicts_x2(p, q, lam_x2, "g2", targets_x2)


def test_a_scan_refuses_its_value_when_read():
    # ROADMAP defect (e): at a = 386 on S^14 every witness value is above the float range; the scan's
    # verdicts still hold, and its rows refuse the first value as `branch` refuses it, with exit 4
    targets_x2 = fjrep.valid_lambdas_x2(4, 16, 785, fjrep.SpaceTag.G2_SPACE)
    scan, _ = periods.branch_scan_x2(4, 16, 786, "g2", targets_x2)
    assert len(scan.nonzeros) == 387 and all(scan.nonzeros) and scan.nonzeros == scan.predicates
    with pytest.raises(ToleranceError, match=r"^period value inf is not a normal double at degrees \(386, 0\)$"):
        periods.branching_verdicts_x2(4, 16, 786, "g2", targets_x2)
    code, out, err = run(["branch", "--p", "4", "--q", "16", "--lambda-x2", "786", "--subgroup", "g2",
                          "--max-target-x2", "785"])
    assert (code, out, err) == (4, "", "error: period value inf is not a normal double at degrees (386, 0)\n")
