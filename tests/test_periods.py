import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hypbranch import cli, exact, fjrep, geometry, harmonics, numerics, packets, periods
from hypbranch.cli import main
from hypbranch.errors import DivergenceError, InvalidParameterError
from hypbranch.exact import doubled, wallis_exact
from hypbranch.fjrep import SpaceTag, inf_char, make_fj_param, valid_lambdas
from hypbranch.geometry import radial_integral_closed
from hypbranch.harmonics import sphere_area, zonal_norm_sq_closed
from hypbranch.packets import InterlaceClass
from hypbranch.periods import (
    branching_verdict,
    branching_verdicts,
    converges_G1,
    converges_G2,
    interlace_class_for_pair,
    nonvanishing_G1,
    nonvanishing_G2,
    period_integral_G1,
    period_integral_G2,
    valid_targets,
)
from witness_oracle import zonal_norm_sq


def H(twice):
    return Fraction(twice, 2)


class TestConvergencePredicates:
    def test_examples(self):
        assert converges_G2(2, H(1))
        assert not converges_G2(0, H(-1))  # boundary is strict
        assert not converges_G2(-1, 0)
        assert converges_G1(1, H(-2))
        assert not converges_G1(H(-1), 0)


class TestNonvanishingPredicates:
    def test_g2_examples(self):
        assert nonvanishing_G2(4, 4, 2, H(3))  # b = 1 <= a = 1
        assert not nonvanishing_G2(4, 4, 2, H(5))  # b = 2 > a
        assert nonvanishing_G2(4, 4, 2, H(1))  # b = 0

    def test_g2_invalid_target_propagates(self):
        with pytest.raises(InvalidParameterError):
            nonvanishing_G2(4, 6, 3, H(1))  # b = -1 is not a degree

    def test_g1_examples(self):
        assert nonvanishing_G1(4, 4, 2, H(5))  # nu = lambda + 1/2
        assert not nonvanishing_G1(4, 4, 2, H(3))
        assert not nonvanishing_G1(4, 4, 2, H(7))

    def test_g1_degree_match_is_nu_equals_lambda_plus_half(self):
        # the predicate compares the two full-sphere degrees; the paper states
        # the criterion as nu = lambda + 1/2
        for p in range(4, 10):
            for q in range(4, 10):
                for lam in valid_lambdas(p, q, 30):
                    for nu in valid_targets(p, q, "g1", 34):
                        ambient = make_fj_param(p, q, lam)
                        target = make_fj_param(p, q, nu, SpaceTag.G1_SPACE)
                        same_degree = target.degree == ambient.degree
                        assert same_degree == (nu == lam + H(1)), (p, q, lam, nu)
                        assert nonvanishing_G1(p, q, lam, nu) == same_degree, (p, q, lam, nu)


class TestPeriodG2:
    def test_factored_value(self):
        # oracle factors: area(S^3) = 2pi^2, pairing = 8pi/3, R(3,-7) = 1/12
        verdict = period_integral_G2(4, 4, 2, H(3))
        expected = 2 * math.pi**2 * (8 * math.pi / 3) / 12.0
        assert verdict.value == pytest.approx(expected, rel=1e-9)
        assert verdict.converges and verdict.nonzero and verdict.predicate_nonzero
        assert verdict.parity_match
        assert (verdict.degree_a, verdict.degree_target) == (1, 1)

    def test_convergent_but_vanishing(self):
        verdict = period_integral_G2(4, 4, 2, H(5))
        assert verdict.converges
        assert not verdict.nonzero and not verdict.predicate_nonzero
        scale = math.sqrt(zonal_norm_sq(1, 4) * zonal_norm_sq(2, 3))
        assert abs(verdict.pairing_factor) <= 1e-8 * scale

    def test_odd_gap_witness(self):
        # plain zonal pairing vanishes by parity but the witness certifies hom != 0
        verdict = period_integral_G2(4, 4, 2, H(1))
        assert verdict.nonzero and verdict.predicate_nonzero
        assert not verdict.parity_match
        assert abs(verdict.value) < 1e-10  # zonal value is zero
        twisted = period_integral_G2(4, 4, 2, H(1), use_witness=True)
        assert twisted.witness_used
        assert abs(twisted.value) > 1.0

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            period_integral_G2(4, 4, -1, 0)

    def test_verdict_consistency_grid(self):
        lam = 3
        for mu in valid_targets(4, 4, "g2", 16):
            v = period_integral_G2(4, 4, lam, mu, use_witness=True)
            assert v.nonzero == v.predicate_nonzero
            assert v.value is not None and v.converges
            if v.nonzero:
                assert v.converges


class TestPeriodG1:
    def test_diagonal_nonzero(self):
        # (5,4): valid lambda are half-odd; lambda = 3/2 pairs with nu = 2
        verdict = period_integral_G1(5, 4, H(3), 2)
        assert verdict.nonzero and verdict.predicate_nonzero
        # oracle: area(S^3 in R^4) * |f_1|^2_{S^3} * R(3, -7) = 2pi^2 * 2pi^2 / 12
        expected = 2 * math.pi**2 * zonal_norm_sq(1, 4) / 12.0
        assert expected == pytest.approx(math.pi**4 / 3.0, rel=1e-10)
        assert verdict.value == pytest.approx(expected, rel=1e-9)

    def test_off_diagonal_orthogonality(self):
        for nu in (1, 3, 4):
            verdict = period_integral_G1(5, 4, H(3), nu)
            assert not verdict.nonzero and not verdict.predicate_nonzero
            a, c = verdict.degree_a, verdict.degree_target
            scale = math.sqrt(zonal_norm_sq(a, 4) * zonal_norm_sq(c, 4))
            assert abs(verdict.pairing_factor) <= 1e-10 * scale

    @pytest.mark.parametrize("a", [100, 200, 400])
    def test_off_diagonal_orthogonality_high_degree(self, a):
        # lambda_x2 = 2a + 1 at (5, 4); the target nu_x2 = 2c + 2 has degree c
        for c in (a - 2, a + 2):
            lam, nu = H(2 * a + 1), H(2 * c + 2)
            verdict = period_integral_G1(5, 4, lam, nu)
            assert (verdict.degree_a, verdict.degree_target) == (a, c)
            scale = math.sqrt(zonal_norm_sq(a, 4) * zonal_norm_sq(c, 4))
            assert abs(verdict.pairing_factor) / scale <= 1e-12
            assert not verdict.nonzero

    def test_integer_lambda_invalid_at_5_4(self):
        # the ambient degree lambda - 1/2 is non-integral for integer lambda
        with pytest.raises(InvalidParameterError):
            period_integral_G1(5, 4, 2, H(5))

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            period_integral_G1(5, 4, -2, 1)


class TestPeriodsG1Batched:
    @pytest.mark.parametrize("a", [0, 4, 16, 48, 100])
    def test_matches_per_target_and_closed_form(self, a):
        for p in (5, 6, 7):
            for q in (4, 5, 6, 7):
                lam = H(2 * a + 2 - (p - q))
                if not lam > 0:
                    continue
                top = 2 * (a + 2) + 2 - (p - 1 - q)  # target degrees c = 0..a+2
                nus = valid_targets(p, q, "g1", top)
                batch = branching_verdicts(p, q, lam, "g1", nus)
                ambient = make_fj_param(p, q, lam)
                assert [row.target_x2 for row in batch] == [doubled(nu) for nu in nus]
                for nu, c, v in zip(nus, range(a + 3 - len(nus), a + 3), batch):
                    single = period_integral_G1(p, q, lam, nu)
                    assert v.nonzero == single.nonzero == v.predicate, (p, q, a, nu)
                    assert (single.degree_a, single.degree_target) == (a, c)
                    target = make_fj_param(p, q, nu, SpaceTag.G1_SPACE)
                    c_exp = q - 1 + ambient.decay_exponent + target.decay_exponent
                    scale = (
                        sphere_area(p - 1)
                        * zonal_norm_sq_closed(a, q)
                        * radial_integral_closed(p - 2, float(c_exp))
                    )
                    if v.predicate:
                        assert abs(v.value - scale) <= 1e-12 * scale, (p, q, a, nu)
                        assert abs(single.value - scale) <= 1e-12 * scale, (p, q, a, nu)
                    else:
                        assert abs(v.value) <= 1e-12 * scale, (p, q, a, nu)
                        assert abs(single.value) <= 1e-12 * scale, (p, q, a, nu)

    def test_one_gegenbauer_pass(self, monkeypatch, capsys):
        calls = []
        kernel = harmonics._gegenbauer_rows

        def counted(*args):
            calls.append(args[:2])
            return kernel(*args)

        monkeypatch.setattr(harmonics, "_gegenbauer_rows", counted)
        lam = H(2 * 16 + 1)  # a = 16 at (5, 4)
        nus = valid_targets(5, 4, "g1", 2 * 18 + 2)
        assert len(branching_verdicts(5, 4, lam, "g1", nus)) == 19
        period_integral_G1(5, 4, lam, nus[16])
        assert main(["branch", "--p", "5", "--q", "4", "--lambda-x2", "33",
                     "--subgroup", "g1", "--max-target-x2", "38"]) == 0
        assert main(["period", "--p", "5", "--q", "4", "--lambda-x2", "33",
                     "--target-x2", "34", "--subgroup", "g1"]) == 0
        capsys.readouterr()
        assert calls == [(18, 1.0), (16, 1.0), (18, 1.0), (16, 1.0)]

    @pytest.mark.parametrize("p", [5, 6, 7])
    def test_matches_one_element_calls(self, p):
        # a scan's rows are, field for field, the one-target records, and so is every number they print
        for q in range(4, 8):
            for a in (0, 1, 4, 16, 48):
                lam = H(2 * a + 2 - (p - q))
                if not lam > 0:
                    continue
                nus = valid_targets(p, q, "g1", 2 * (a + 2) + 2 - (p - 1 - q))  # c up to a + 2
                batch = branching_verdicts(p, q, lam, "g1", nus)
                assert len(batch) == len(nus)
                for nu, v in zip(nus, batch):
                    case = (p, q, a, nu)
                    single = period_integral_G1(p, q, lam, nu)
                    assert _row_fields(v) == _row_fields(single) and v.nonzero == v.predicate, case
                    assert single.degree_a == a, case
                    assert (v.value != 0.0) == (single.degree_target == a) == (v.err != 0.0), case

    def test_a_zero_row_builds_its_radial_factor_when_read(self, monkeypatch):
        # off the diagonal a row's value is an exact 0.0 with no Wallis factor; the factor, read from the
        # target's `period` record, is the closed form
        wallis = _count_calls(monkeypatch, periods, "wallis_exact")
        p, q, lam = 5, 4, H(97)  # a = 48
        nus = valid_targets(p, q, "g1", 102)
        rows = branching_verdicts(p, q, lam, "g1", nus)
        zeros = [(nu, v) for nu, v in zip(nus, rows) if v.target_x2 != 98]
        assert len(zeros) == 50 and all(v.value == 0.0 and v.err == 0.0 for _, v in zeros)
        assert wallis == [(p - 2, 97)]  # the diagonal row's, m = (97 + 98 - 1) / 2
        wallis.clear()
        ambient = make_fj_param(p, q, lam)
        for nu, v in zeros:
            record = period_integral_G1(p, q, lam, nu)
            c_exp = q - 1 + ambient.decay_exponent + make_fj_param(p, q, nu, SpaceTag.G1_SPACE).decay_exponent
            assert wallis[-1] == (p - 2, int(-(p - 2 + c_exp)) - 1), nu
            assert record.radial_factor.hex() == radial_integral_closed(p - 2, float(c_exp)).hex(), nu
        assert len(wallis) == len(zeros)  # once per record

    def test_a_scan_builds_the_wallis_factor_of_its_diagonal_row_only(self, monkeypatch, capsys):
        # a = 100 at (5, 4) against c = 0..102: only the c = a row prints a nonzero value, and only
        # that row builds its Wallis factor
        wallis = _count_calls(monkeypatch, periods, "wallis_exact")
        assert main(["branch", "--p", "5", "--q", "4", "--lambda-x2", "201", "--subgroup", "g1",
                     "--max-target-x2", "206"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 103 and [r["target_x2"] for r in rows if r["value"]] == [202]
        assert wallis == [(3, 201)]


class TestPeriodsG2Batched:
    @pytest.mark.parametrize("p", [4, 5, 6])
    def test_matches_one_element_calls(self, p):
        # a scan's witness rows and verdicts are bitwise those of the one-target
        # witness records
        for q in range(5, 9):
            for a in range(21):
                lam = H(2 * a + 2 - (p - q))
                mus = valid_targets(p, q, "g2", 2 * (a + 2) + 2 - (p - q + 1))  # b up to a + 2
                batch = branching_verdicts(p, q, lam, "g2", mus)
                assert len(batch) == len(mus)
                for mu, v in zip(mus, batch):
                    case = (p, q, a, mu)
                    single = period_integral_G2(p, q, lam, mu, use_witness=True)
                    assert single.degree_a == a and single.witness_used, case
                    assert v.nonzero == v.predicate, case
                    assert _row_fields(v) == _row_fields(single), case

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            branching_verdicts(4, 4, 2, "g2", [H(3), H(-9)])

    def test_empty(self):
        assert branching_verdicts(4, 4, 2, "g2", []) == []


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _row_fields(record):
    """The fields a `branch` row and a `period` record share, by the row's names; floats by their bits."""
    fields = record._asdict()
    if isinstance(record, periods.PeriodVerdict):
        fields.update(predicate=record.predicate_nonzero, err=record.err_est, parity=record.parity_match)
    names = ("p", "q", "lambda_x2", "subgroup", "target_x2", "converges", "nonzero", "predicate", "parity")
    return {**{k: fields[k] for k in names}, "value": fields["value"].hex(), "err": fields["err"].hex()}


G1_GOLDEN_SCAN = ("--p", "5", "--q", "4", "--lambda-x2", "97", "--subgroup", "g1", "--max-target-x2", "102")
G2_GOLDEN_SCAN = ("--p", "4", "--q", "6", "--lambda-x2", "40", "--subgroup", "g2", "--max-target-x2", "44")


class TestBatchedScanPasses:
    @pytest.mark.parametrize(
        "max_target_x2, rows",
        [("39", 19), ("44", 21)],
        ids=["every_b_at_most_a", "golden_scan"],
    )
    def test_g2_gegenbauer_passes(self, monkeypatch, capsys, max_target_x2, rows):
        # a = 18 at (4, 6), b = (mu_x2 - 3) / 2 from 0.  The witness zonals live on S^{q-2}, sin
        # power q - 4 = 2 and Gegenbauer order (q - 3) / 2: degrees 2a = 36 to 2b = 40 all need 20 to
        # 22 nodes, which the one 32-node rule covers.  Its witness table is one pass to the largest
        # degree that rule serves, 32 - 1 - 1 = 30; a second scan on the rule reads the table.
        assert numerics.sphere_nodes(2 * 18, 2) == numerics.sphere_nodes(2 * 20, 2) == 32
        harmonics._witness_table.cache_clear()
        calls = _count_calls(monkeypatch, harmonics, "_gegenbauer_rows")
        argv = ["branch", *G2_GOLDEN_SCAN[:-1], max_target_x2]
        for passes in ([(30, 1.5)], []):
            calls.clear()
            assert main(argv) == 0
            assert len(json.loads(capsys.readouterr().out)) == rows
            assert [args[:2] for args in calls] == passes

    @pytest.mark.parametrize(
        "argv",
        [
            ("branch", *G1_GOLDEN_SCAN),
            ("branch", *G2_GOLDEN_SCAN),
            ("fj", "--p", "4", "--q", "4", "--lambda-x2", "4"),
            ("period", "--p", "5", "--q", "4", "--lambda-x2", "9", "--target-x2", "10", "--subgroup", "g1"),
            ("period", "--p", "4", "--q", "6", "--lambda-x2", "8", "--target-x2", "5", "--subgroup", "g2", "--witness"),
        ],
        ids=["g1", "g2", "fj", "period_g1", "period_g2_witness"],
    )
    def test_no_radial_rule_per_request(self, monkeypatch, capsys, argv):
        # the radial factor is exact: the Gauss pair is only the cross-check
        numeric = _count_calls(monkeypatch, geometry, "radial_integral_numeric")
        rules = _count_calls(monkeypatch, geometry, "gauss_legendre_on")
        assert main(list(argv)) == 0
        assert capsys.readouterr().out
        assert (numeric, rules) == ([], [])

    @pytest.mark.parametrize("via", ["cli", "library"])
    def test_fj_norm_runs_no_quadrature(self, monkeypatch, capsys, via):
        # the L2 norm is one exact ratio: no sphere rule and no Gegenbauer pass
        passes = _count_calls(monkeypatch, harmonics, "_gegenbauer_rows")
        rules = _count_calls(monkeypatch, numerics, "_sphere_rule")
        if via == "cli":
            assert main(["fj", "--p", "5", "--q", "7", "--lambda-x2", "804"]) == 0
            assert json.loads(capsys.readouterr().out)["a"] == 400
        else:
            assert fjrep.l2_norm_sq(make_fj_param(5, 7, 402)) > 0
        assert (passes, rules) == ([], [])

    def test_quadrature_suite_cross_checks_the_radial_factor(self, monkeypatch, capsys):
        numeric = _count_calls(monkeypatch, geometry, "radial_integral_numeric")
        assert main(["check", "--suite", "quadrature"]) == 0
        assert "[PASS] radial_numeric_vs_closed" in capsys.readouterr().out
        assert len(numeric) == 15  # five sine powers, three exponent sums each

    def test_legendre_rules_per_g2_ladder(self):
        # the g2_scan mix from cold caches: the witness sphere rules of q = 6 and
        # q = 8 (sin powers 2 and 4) all land on 16 or 32 nodes, and no radial
        # rule is built
        for cached in (numerics._legendre_rule, numerics._sphere_rule):
            cached.cache_clear()
        for p in (4, 5, 6):
            for q in (6, 8):
                for a in range(2, 21):
                    lam = H(2 * a + 2 - (p - q))
                    mus = valid_targets(p, q, "g2", 2 * (a + 2) + 2 - (p - q + 1))  # b up to a + 2
                    assert len(branching_verdicts(p, q, lam, "g2", mus)) == a + 3
        assert numerics._legendre_rule.cache_info().misses <= 2


@pytest.fixture(scope="module")
def factor_grid():
    """(a, m, lambda_x2 + target_x2, sp, radial_factor, sphere_factor) of each period on the exact-factor grid.

    The grid: p, q in {4, 7, 10, 13, 16}, every 5th valid lambda <= 200, both
    subgroups and every 3rd convergent target <= 200, each a `period` record.  The factors
    do not read the pairing, so a constant Gram row, witness and pairing stand in for the
    zonal layer; the Wallis exponents of sin^a cos^m are recorded as the periods pass them
    to `wallis_exact`.
    """
    exponents, rows = [], []

    def recorded(a, m):
        exponents.append((a, m))
        return wallis_exact(a, m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(periods, "zonal_gram", lambda cs, ks, n: np.ones((1, len(cs))))
        patch.setattr(periods, "ktype_pairings_nonzero", lambda a, bs, n: [True] * len(bs))
        for exact_pairing in ("zonal_norm_sq_exact", "witness_pairing_exact"):
            patch.setattr(periods, exact_pairing, lambda *degrees: (1, 1, 0))
        patch.setattr(periods, "wallis_exact", recorded)
        for p in (4, 7, 10, 13, 16):
            for q in (4, 7, 10, 13, 16):
                for lam_x2 in fjrep.valid_lambdas_x2(p, q, 400)[::5]:
                    for sub in ("g1", "g2"):
                        targets = fjrep.valid_lambdas_x2(p, q, 400, SpaceTag(sub))[::3]
                        targets = [t for t in targets if lam_x2 + t > -1]
                        sp = p - 1 if sub == "g1" else p
                        period = periods.period_integral_G1 if sub == "g1" else periods.period_integral_G2
                        for t_x2 in targets:
                            record = period(p, q, H(lam_x2), H(t_x2))
                            rows.append((lam_x2 + t_x2, sp, record.radial_factor, record.sphere_factor))
    return [(*exps, *row) for exps, row in zip(exponents, rows, strict=True)]


class TestExactFactors:
    def test_every_wallis_exponent_is_an_integer(self, factor_grid):
        # the radial factor is the Wallis integral of sin^a cos^m with m = lambda + target - 1/2
        # exactly on every row: a valid lambda_x2 + target_x2 is odd, so no half is dropped
        assert len(factor_grid) == 132808
        for a, m, twice_sum, sp, *_ in factor_grid:
            assert isinstance(m, int) and 2 * m + 1 == twice_sum and m >= 0, (a, m, twice_sum)
            assert a == sp - 1, (a, sp)

    def test_factors_against_mpmath(self, factor_grid):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        radials, spheres = {}, {}
        for a, m, _, sp, radial, sphere in factor_grid:
            radials.setdefault((a, m), set()).add(radial)
            spheres.setdefault(sp, set()).add(sphere)
        for (a, m), values in radials.items():
            (radial,) = values  # one factor per exponent pair
            exact = mp.beta(mp.mpf(a + 1) / 2, mp.mpf(m + 1) / 2) / 2
            assert abs(radial - exact) <= 2.3e-16 * exact, (a, m)
        for sp, values in spheres.items():
            (sphere,) = values
            exact = 2 * mp.pi ** (mp.mpf(sp) / 2) / mp.gamma(mp.mpf(sp) / 2)
            assert abs(sphere - exact) <= 4.5e-16 * exact, sp


class TestParametersBuiltOnce:
    @pytest.mark.parametrize("argv", [G1_GOLDEN_SCAN, G2_GOLDEN_SCAN], ids=["g1", "g2"])
    def test_make_fj_param_calls_per_scan(self, monkeypatch, capsys, argv):
        # the ambient parameter is built (and validated) once and the characters
        # come from two doubled-int calls (the ambient's, and the tail the targets
        # share); the targets stay doubled ints, whatever the row count: the scan
        # reads no half-integer through `doubled`
        modules = (fjrep, periods, packets, cli)
        params = _count_calls(monkeypatch, fjrep.FJParam, "__new__")  # every construction, wherever named
        reads = [_count_calls(monkeypatch, m, "doubled") for m in modules if hasattr(m, "doubled")]
        chars = _count_calls(monkeypatch, periods, "inf_char_x2")
        assert main(["branch", *argv]) == 0
        rows = len(json.loads(capsys.readouterr().out))
        assert rows > 10
        assert len(params) == 1, (params, rows)
        assert sum(map(len, reads)) == 0, (reads, rows)
        assert len(chars) == 2, (chars, rows)


class TestBranchingVerdict:
    def test_g2_example(self):
        res = branching_verdict(4, 4, 2, "g2", H(3))
        assert res.predicate
        assert not res.admissible

    def test_g1_examples(self):
        res = branching_verdict(4, 4, 2, "g1", H(5))
        assert res.predicate
        assert res.admissible
        res = branching_verdict(4, 4, 2, "g1", H(3))
        assert not res.predicate

    def test_unknown_subgroup(self):
        with pytest.raises(InvalidParameterError):
            branching_verdict(4, 4, 2, "g3", H(3))


class TestPredicateIntegralAgreement:
    def test_grid(self):
        # the central agreement check on a medium grid; the full grid runs in
        # the acceptance suite and `check --suite branching`
        for p, q in ((4, 4), (4, 6), (5, 5), (6, 4)):
            for lam_twice in (2, 3, 4, 6):
                lam = H(lam_twice)
                try:
                    ambient = make_fj_param(p, q, lam)
                except InvalidParameterError:
                    continue
                bound = (ambient.degree + 6) * 2
                for mu in valid_targets(p, q, "g2", bound):
                    v = period_integral_G2(p, q, lam, mu, use_witness=True)
                    assert v.nonzero == v.predicate_nonzero, (p, q, lam, mu)
                for nu in valid_targets(p, q, "g1", bound):
                    v = period_integral_G1(p, q, lam, nu)
                    assert v.nonzero == v.predicate_nonzero, (p, q, lam, nu)


class TestInterlacing:
    def test_finite_type_matches_g2_predicate(self):
        for p, q, lam in ((4, 4, 2), (4, 6, 3)):
            for mu in valid_targets(p, q, "g2", 20):
                finite = (
                    interlace_class_for_pair(p, q, lam, mu, "g2") is InterlaceClass.FINITE_TYPE
                )
                assert finite == nonvanishing_G2(p, q, lam, mu), (p, q, lam, mu)

    def test_g1_nonzero_is_infinite_type_1(self):
        for p, q, lam in ((5, 4, H(3)), (5, 4, H(5)), (4, 4, 2)):
            for nu in valid_targets(p, q, "g1", 20):
                if nonvanishing_G1(p, q, lam, nu):
                    cls = interlace_class_for_pair(p, q, lam, nu, "g1")
                    assert cls is InterlaceClass.INFINITE_TYPE_1, (p, q, lam, nu)

    def test_unknown_subgroup(self):
        with pytest.raises(InvalidParameterError):
            interlace_class_for_pair(4, 4, 2, 3 / 2, "bogus")

    @pytest.mark.parametrize("subgroup", ["g1", "g2"])
    def test_scan_rows_match_closed_form(self, subgroup):
        # Test-only oracle: for a valid target the character tails always
        # interlace, so the first entries alone decide the class.
        for p in range(4, 10):
            for q in range(4, 10):
                for lam in valid_lambdas(p, q, 40):
                    targets = valid_targets(p, q, subgroup, doubled(lam) + 4)
                    for target, row in zip(targets, branching_verdicts(p, q, lam, subgroup, targets)):
                        expected = (
                            InterlaceClass.FINITE_TYPE
                            if doubled(target) <= doubled(lam)
                            else InterlaceClass.INFINITE_TYPE_1
                        )
                        assert row.interlace == expected.value, (p, q, lam, subgroup, target)

    def test_equal_first_entries_case(self):
        # nu = lambda + 1/2 forces b1 = a1; only the non-strict first
        # comparison makes the pattern non-vacuous
        amb = make_fj_param(4, 4, 2)
        tgt = make_fj_param(4, 4, H(5), SpaceTag.G1_SPACE)
        assert inf_char(amb)[0] == inf_char(tgt)[0]
        assert interlace_class_for_pair(4, 4, 2, H(5), "g1") is InterlaceClass.INFINITE_TYPE_1


class TestEndToEndOracle:
    def test_factored_period_matches_direct_quadrature(self):
        # integrate over the suborbit X(4,3) = S^3 x S^2 x [0, inf) on a full
        # (theta, phi, t) product grid, using only fj_eval -- no separation,
        # no zonality shortcuts -- and compare with the factored value
        import numpy as np

        from hypbranch.numerics import gauss_legendre_on

        p, q, lam, mu = 4, 4, 2, H(3)
        amb = make_fj_param(p, q, lam)
        tgt = make_fj_param(p, q, mu, SpaceTag.G2_SPACE)
        from hypbranch.harmonics import fj_eval

        theta, w_theta = gauss_legendre_on(0.0, math.pi, 48)
        phi, w_phi = gauss_legendre_on(0.0, 2 * math.pi, 48)
        t, w_t = gauss_legendre_on(0.0, 30.0, 300)
        radial = np.sinh(t) ** (p - 1) * np.cosh(t) ** (q - 2)
        total = 0.0
        for th, w1 in zip(theta, w_theta):
            for ph, w2 in zip(phi, w_phi):
                y2 = np.array(
                    [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
                )
                ypr = np.concatenate([[0.0], y2])
                fa = fj_eval(amb, ypr, t)
                fb = fj_eval(tgt, y2, t)
                total += w1 * w2 * math.sin(th) * float(np.sum(w_t * fa * fb * radial))
        direct = 2 * math.pi**2 * total  # times area(S^3)
        factored = period_integral_G2(p, q, lam, mu).value
        assert direct == pytest.approx(factored, rel=1e-9)


class TestValidTargets:
    def test_lattice_parity(self):
        # (4,4) g2-targets are half-odd, g1-targets are half-odd as well
        assert [doubled(t) for t in valid_targets(4, 4, "g2", 7)] == [1, 3, 5, 7]
        assert [doubled(t) for t in valid_targets(4, 4, "g1", 7)] == [3, 5, 7]
        # (4,6) g2-targets start at b = 0, i.e. mu = 3/2
        assert [doubled(t) for t in valid_targets(4, 6, "g2", 9)] == [3, 5, 7, 9]

    def test_empty_range(self):
        assert valid_targets(4, 4, "g2", 0) == []

    def test_unknown_subgroup(self):
        with pytest.raises(InvalidParameterError):
            valid_targets(4, 4, "g3", 7)

    def test_closed_form_lattice_matches_brute_force(self):
        # the reference: every doubled value make_fj_param accepts
        for p in range(3, 10):
            for q in range(3, 10):
                for tag in SpaceTag:
                    brute = []
                    for twice in range(1, 41):
                        try:
                            brute.append(make_fj_param(p, q, H(twice), tag).lam)
                        except InvalidParameterError:
                            continue
                    for max_twice in range(41):
                        expected = [lam for lam in brute if doubled(lam) <= max_twice]
                        assert valid_lambdas(p, q, max_twice, tag) == expected, (p, q, tag, max_twice)
                        if tag is not SpaceTag.G_ON_H:
                            assert valid_targets(p, q, tag.value, max_twice) == expected
