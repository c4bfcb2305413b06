import math
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_gegenbauer

from hypbranch import harmonics, numerics
from hypbranch.errors import InvalidParameterError, ToleranceError
from hypbranch.exact import MAX_SPHERE_DIM
from hypbranch.fjrep import MAX_DEGREE, MAX_TARGET_DEGREE, SpaceTag
from hypbranch.harmonics import (
    gegenbauer,
    ktype_pairing_nonzero,
    ktype_pairings_nonzero,
    zonal_gram,
    zonal_pairings_nonzero,
)
from hypbranch.numerics import sphere_nodes, sphere_rule
from hypbranch.periods import _nonvanishing, branch_scan_x2, period_integral_G1
from witness_oracle import pairing_subsphere, sphere_area, weighted_cos_integral, witness_pairings, witness_scan
from witness_oracle import zonal_norm_sq, zonal_norm_sq_closed


@pytest.fixture
def cold_tables():
    """Gram tables built inside the test, none kept after it: a test that patches the kernel leaves no table."""
    harmonics._gram_table.cache_clear()
    yield
    harmonics._gram_table.cache_clear()


def _outcome(verdicts, *args):
    try:
        return verdicts(*args)
    except ToleranceError as error:
        return str(error)


class TestGegenbauer:
    def test_degree_zero(self):
        for nu in (0.5, 1.0, 2.5):
            for x in (-1.0, 0.3, 1.0):
                assert gegenbauer(0, nu, x) == 1.0

    def test_degree_one(self):
        assert gegenbauer(1, 1.0, 0.5) == pytest.approx(1.0)

    def test_degree_two(self):
        # C_2^1(x) = 4x^2 - 1
        assert gegenbauer(2, 1.0, 0.0) == pytest.approx(-1.0)
        assert gegenbauer(2, 1.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_against_scipy(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(0, 12))
            nu = float(rng.uniform(0.25, 4.0))
            x = float(rng.uniform(-1, 1))
            assert gegenbauer(n, nu, x) == pytest.approx(
                float(eval_gegenbauer(n, nu, x)), rel=1e-10, abs=1e-10
            )

    def test_vectorized(self):
        x = np.linspace(-1, 1, 7)
        vals = gegenbauer(3, 1.5, x)
        assert vals.shape == x.shape

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            gegenbauer(-1, 1.0, 0.0)

    @pytest.mark.parametrize("nu", [0.0, -1.0, -0.5, float("nan")])
    def test_order_must_be_positive(self, nu):
        # the rescaled recurrence has poles at nu <= 0
        with pytest.raises(ValueError, match="nu > 0"):
            gegenbauer(2, nu, 0.3)

    @pytest.mark.parametrize("nu", [h / 2 for h in range(1, 15)])
    def test_against_mpmath_on_sphere_rules(self, nu):
        # C_k^nu on nodes of the rule the zonal kernel uses for degree k, against
        # mpmath's hypergeometric form, relative to max |C_k^nu| = C_k^nu(1)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        worst = 0.0
        for k in (*range(21), 100, 200, 400):
            x, _ = sphere_rule(2 * k, int(2 * nu - 1))
            x = x[np.linspace(0, len(x) - 1, 5).astype(int)]
            exact = [mp.gegenbauer(k, nu, mp.mpf(float(v))) for v in x]
            top = mp.gegenbauer(k, nu, 1)
            got = gegenbauer(k, nu, x)
            worst = max(worst, max(float(abs(g - e) / top) for g, e in zip(got, exact)))
        assert worst <= 5e-13, worst


class TestSphereArea:
    def test_known_values(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
        assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)
        assert sphere_area(1) == pytest.approx(2.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            sphere_area(0)

    def test_against_mpmath_to_the_normal_range(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for n in range(1, MAX_SPHERE_DIM + 1):
            exact = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
            assert abs(sphere_area(n) - exact) <= 1e-14 * exact, n
        assert sphere_area(MAX_SPHERE_DIM) >= sys.float_info.min
        n = MAX_SPHERE_DIM + 1
        assert 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2) < sys.float_info.min

    @pytest.mark.parametrize("n", [439, 10**6])
    def test_below_the_normal_range_refuses_before_any_factorial(self, monkeypatch, n):
        def refuse(k):
            raise AssertionError("factorial built for a refused sphere")

        monkeypatch.setattr(math, "factorial", refuse)
        with pytest.raises(ToleranceError, match=f"sphere area of S\\^{n - 1} is out of floating-point range"):
            sphere_area(n)


class TestZonalNorm:
    # the quadrature side is `witness_oracle.zonal_norm_sq`, on the sphere rule exact to degree 2a
    def test_degree_zero_is_sphere_area(self):
        for n in (4, 5, 6):
            assert zonal_norm_sq(0, n) == pytest.approx(sphere_area(n), rel=1e-12)

    def test_degree_one_n4(self):
        # oracle: area(S^2) * 4 * int x^2 (1-x^2)^{1/2} = 4pi * 4 * pi/8 = 2 pi^2
        oracle = sphere_area(3) * 4.0 * (math.pi / 8)
        assert oracle == pytest.approx(2 * math.pi**2, rel=1e-13)
        assert zonal_norm_sq(1, 4) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n", range(4, 17))
    def test_exact_closed_form(self, n):
        # |Z_a|^2 = area(S^{n-2}) pi 2^{1-2nu} Gamma(a+2nu) / (a! (a+nu) Gamma(nu)^2),
        # nu = (n-2)/2, is a rational times pi^(n // 2): every Gamma here is at an
        # integer or a half-integer, so the rational part is exact in integers
        def gamma_half(h2):  # Gamma(h2 / 2), without its sqrt(pi) when h2 is odd
            m = h2 // 2
            if h2 % 2 == 0:
                return Fraction(math.factorial(m - 1))
            return Fraction(math.factorial(2 * m), 4**m * math.factorial(m))

        for a in range(0, 401, 17):
            line = Fraction(2) ** (3 - n) * math.factorial(a + n - 3)
            line /= math.factorial(a) * Fraction(2 * a + n - 2, 2) * gamma_half(n - 2) ** 2
            area = 2 / gamma_half(n - 1)
            exact = float(line * area) * math.pi ** (n // 2)
            assert abs(zonal_norm_sq(a, n) - exact) <= 5e-14 * exact, (a, n)
            # the closed form is the same ratio, rounded once
            assert abs(zonal_norm_sq_closed(a, n) - exact) <= 2e-15 * exact, (a, n)

    @pytest.mark.parametrize("n", range(4, 17))
    def test_closed_form_to_degree_400(self, n):
        # the sphere rule follows the degree, so high degrees stay exact
        for a in (*range(9), 16, 48, 100, 200, 400):
            assert zonal_norm_sq(a, n) == pytest.approx(zonal_norm_sq_closed(a, n), rel=1e-10)


class TestZonalGram:
    def test_rows_are_normalised_ratios(self):
        # the g1 row: one target a against the degrees c; a Gram ratio is 1 on the
        # diagonal and orthogonality noise off it
        for n in (4, 5, 8):
            for a in (0, 3, 12):
                cs = list(range(a + 3))
                ratios = zonal_gram(cs, [a], n)
                assert isinstance(ratios, np.ndarray) and ratios.shape == (1, a + 3)
                for c, ratio in zip(cs, ratios[0]):
                    assert (ratio > harmonics.GRAM_RATIO_TOL) == (c == a), (a, c, n)
                    assert ratio == pytest.approx(float(c == a), abs=1e-12)

    def test_rows_follow_target_order_across_rules(self):
        # targets that alone would take two sphere rules, in mixed order and repeated:
        # one shared rule, and each row's verdicts are those of its one-target call
        ks, targets = range(4), [40, 0, 3, 40, 17, 2]
        assert sphere_nodes(2 * 40, 3) > sphere_nodes(2 * 3, 3)
        ratios = zonal_gram(ks, targets, 6)
        assert ratios.shape == (len(targets), len(ks))
        for i, c in enumerate(targets):
            verdicts = ratios[i] > harmonics.GRAM_RATIO_TOL
            assert (verdicts == (zonal_gram(ks, [c], 6)[0] > harmonics.GRAM_RATIO_TOL)).all(), c
            assert verdicts.tolist() == [k == c for k in ks], c

    @pytest.mark.parametrize("n, top", [(130, 1036), (360, 100), (301, 400), (438, 400)])
    def test_full_gram_is_the_identity(self, n, top):
        # the rows are unit vectors on the sphere rule, so no norm leaves the float range; the
        # norm products |Z_k|^2 |Z_c|^2 of a scaled kernel overflow at (130, 1036) and underflow from S^299
        degrees = range(top + 1)
        assert np.abs(zonal_gram(degrees, degrees, n) - np.eye(top + 1)).max() <= 1e-12

    def test_empty_degree_lists(self):
        assert zonal_gram(range(4), [], 5).shape == (0, 4)
        assert zonal_gram([], [3], 5).shape == (1, 0)
        assert zonal_gram([], [], 5).shape == (0, 0)

    @pytest.mark.parametrize("gram", [lambda: zonal_gram([1200], [0], 438)], ids=["zonal_gram"])
    def test_lost_mass_raises(self, gram):
        # sphere-rule weights on S^437 below the float range carry mass the degree-1200 row needs; the verdicts
        # refuse that sphere before any row (TestWitnessTable::test_a_request_past_the_band_builds_no_table)
        with pytest.raises(ToleranceError, match=r"^zonal row norm at degree 1200 on S\^437 is 0\.96\d*, not 1$"):
            gram()

    def test_row_norm_bound_is_tighter_than_the_verdict_threshold(self):
        # off 1 by 1.6e-10, the degree-840 row on S^437 would still pass GRAM_RATIO_TOL
        assert harmonics.ROW_NORM_TOL < 1.6e-10 < harmonics.GRAM_RATIO_TOL
        with pytest.raises(ToleranceError, match=r"^zonal row norm at degree 840 on S\^437 is 0\.99999999\d*, not 1$"):
            zonal_gram([840], [0], 438)

    def test_guards(self):
        with pytest.raises(InvalidParameterError):
            zonal_gram([1], [1], 2)

    def test_recurrence_misses_do_not_grow(self, monkeypatch, cold_tables):
        # a g1 period ladder calls _recurrence once per table build and never per period, and misses at most once
        # per table; a period past the checked range calls it not at all.  The ladder's spheres have nu >= 1, so the
        # nu = 1/2 calls are the Newton passes of the Legendre rules under its sphere rules, which are left out
        ladder = [(q, a) for q in range(4, 8) for a in range(0, 401, 16)] * 2
        random.Random(30).shuffle(ladder)
        recurrence, calls = numerics._recurrence, []

        def spy(nu, length):
            misses = recurrence.cache_info().misses
            result = recurrence(nu, length)
            if nu != 0.5:
                calls.append(recurrence.cache_info().misses - misses)
            return result

        monkeypatch.setattr(numerics, "_recurrence", spy)
        recurrence.cache_clear()
        for q, a in ladder:
            verdict = period_integral_G1(5, q, Fraction(2 * a + q - 3, 2), Fraction(2 * a + q - 2, 2))
            assert verdict.nonzero and verdict.predicate_nonzero
        tables = harmonics._gram_table.cache_info()
        assert len(calls) == tables.misses and tables.hits
        assert sum(calls) <= tables.misses
        calls.clear()
        with pytest.raises(InvalidParameterError, match="^ambient degree 401 is past the checked range"):
            period_integral_G1(5, 4, Fraction(803, 2), Fraction(804, 2))
        assert calls == []


def _passes(monkeypatch):
    """The (n, top) of each `_unit_rows` pass the table reads make from here on, and a weak reference to its rows."""
    unit_rows, passes = harmonics._unit_rows, []

    def spy(n, top, wanted):
        rows, norms, lost = unit_rows(n, top, wanted)
        passes.append((n, top, weakref.ref(rows)))
        return rows, norms, lost

    monkeypatch.setattr(harmonics, "_unit_rows", spy)
    return passes


def _g1_direct(a, cs, n):
    # the Gram row of a against cs, formed on the request's own rule
    return (zonal_gram(cs, [a], n)[0] > harmonics.GRAM_RATIO_TOL).tolist()


class TestGramTable:
    @pytest.mark.parametrize("n", range(3, 17))
    def test_g1_verdicts_equal_the_direct_gram(self, n, cold_tables):
        for a in (*range(30), 50, 100, 199, 200, 201, 300, 398, 400):
            cs = list(range(a + 3))
            assert zonal_pairings_nonzero(a, cs, n) == _g1_direct(a, cs, n), (n, a)
        assert harmonics._gram_table.cache_info().misses

    @pytest.mark.parametrize(
        "a, cs, n",
        [(0, [0], 4), (3, [5, 1], 6), (20, range(23), 8), (7, [40, 2], 4), (100, [101, 0], 10), (400, [402], 5)],
    )
    def test_g1_lost_rows_raise_as_the_direct_gram(self, a, cs, n, monkeypatch, cold_tables):
        # with no tolerance nearly every row is lost: both paths name the first lost degree of cs, then a
        monkeypatch.setattr(harmonics, "ROW_NORM_TOL", 0.0)
        direct = _outcome(_g1_direct, a, list(cs), n)
        assert direct.startswith("zonal row norm at degree ")
        assert _outcome(zonal_pairings_nonzero, a, cs, n) == direct
        assert harmonics._gram_table.cache_info().misses == 1

    @pytest.mark.parametrize(
        "target_x2, degree", [(2116, r"840 on S\^437 is 0\.99999999"), (2836, r"1200 on S\^437 is 0\.96")]
    )
    def test_a_g1_period_past_the_band_builds_no_table(self, target_x2, degree, cold_tables):
        # a = 1 on X(5, 438), c = 840 and 1200: q = 438 is past the checked range, so the period is refused before
        # any row, where the rules of these targets would hold a Gram of 855 and 1207 rows; the kernel alone
        # still forms the target's row, and refuses it
        with pytest.raises(InvalidParameterError, match="^q = 438 is past the checked range"):
            period_integral_G1(5, 438, Fraction(437, 2), Fraction(target_x2, 2))
        assert harmonics._gram_table.cache_info().currsize == 0
        with pytest.raises(ToleranceError, match=rf"^zonal row norm at degree {degree}\d*, not 1$"):
            zonal_gram([(target_x2 - 436) // 2], [1], 438)

    def test_table_is_read_only(self, cold_tables):
        # the degree-800 rule on S^4 serves degrees 0..414: both g1 verdicts at a = 400 read its one table, which
        # forms only the block of column 400
        assert zonal_pairings_nonzero(400, [398, 400, 402], 5) == [False, True, False]
        assert zonal_pairings_nonzero(16, [16], 5) == [True]
        above, lost = harmonics._gram_table(5, 416)
        assert harmonics._gram_table.cache_info()[:2] == (1, 2)  # the 416- and the 32-node rule, then a read
        assert (above, lost) == ({k: (k,) for k in range(384, 415)}, {})
        assert {type(column) for column in above.values()} == {tuple}
        with pytest.raises(TypeError, match="does not support item assignment"):
            above[400][0] = 0

    def test_a_cold_g1_period_forms_one_block_and_keeps_no_rows(self, monkeypatch, cold_tables):
        # a = c = 400 on X(5, 4): the verdict reads column 400 of the 416-degree Gram on S^3, in block 12 of 13
        passes = _passes(monkeypatch)
        assert period_integral_G1(5, 4, Fraction(801, 2), Fraction(802, 2)).nonzero
        assert [(n, top) for n, top, _ in passes] == [(4, 415)]
        assert list(harmonics._gram_table(4, 416)[0]) == list(range(384, 416))
        assert passes[0][2]() is None  # the pass's rows were dropped

    def test_a_g2_scan_forms_only_the_blocks_of_its_degrees(self, monkeypatch, cold_tables):
        # a = 100 on X(4, 6), targets of degree 40..70: the witness reads columns 40..70 of the 111-degree Gram on
        # S^4, blocks 1 and 2 of 4, from one pass
        passes = _passes(monkeypatch)
        scan, _ = branch_scan_x2(4, 6, 204, "g2", range(83, 144, 2))
        assert list(scan.degrees) == list(range(40, 71)) and list(scan.nonzeros) == [True] * 31
        assert [(n, top) for n, top, _ in passes] == [(5, 110)]
        assert sorted(harmonics._gram_table(5, 112)[0]) == list(range(32, 96))
        assert passes[0][2]() is None

    def test_a_repeat_read_forms_no_block(self, monkeypatch, cold_tables):
        # the degree-200 rule on S^4 serves degrees 0..110; column 100 is in block 3 (96..110)
        assert zonal_pairings_nonzero(100, [99, 100], 5) == [False, True]
        passes = _passes(monkeypatch)
        # the same column, another column of its block, and the g2 witness on the same rule
        assert zonal_pairings_nonzero(100, [100, 101], 5) == [True, False]
        assert zonal_pairings_nonzero(98, [100, 98], 5) == [False, True]
        assert ktype_pairings_nonzero(100, [97, 100], 6) == [True, True]
        assert passes == [] and list(harmonics._gram_table(5, 112)[0]) == list(range(96, 111))

    def test_a_g1_verdict_at_402_reads_the_degree_400_table(self, cold_tables):
        # target degree 402, the top of the checked range, on S^4 selects the rule of the ambient degree 400
        assert sphere_nodes(2 * MAX_TARGET_DEGREE, 2) == sphere_nodes(2 * MAX_DEGREE, 2) == 416
        assert not period_integral_G1(5, 5, Fraction(802, 2), Fraction(807, 2)).nonzero  # a = 400, c = 402
        assert period_integral_G1(5, 5, Fraction(802, 2), Fraction(803, 2)).nonzero  # c = 400
        assert harmonics._gram_table.cache_info()[:2] == (1, 1)

    def test_tables_stay_within_their_byte_bound(self, cold_tables):
        # the cache keeps the 32 most recently used rules, each view at most the columns and degrees README states
        rules = [(top, n) for top in (100, 200, 400) for n in range(3, 17)]
        for top, n in rules:
            zonal_pairings_nonzero(top, [top], n)
        info = harmonics._gram_table.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (32, 32, 42)
        zonal_pairings_nonzero(400, [400], 16)  # the most recent rule is kept ...
        zonal_pairings_nonzero(100, [100], 3)  # ... and the least recent one rebuilt
        assert harmonics._gram_table.cache_info()[:2] == (1, 43)
        # with every block of the largest rules formed
        tops = [(n, sphere_nodes(2 * MAX_TARGET_DEGREE, n - 3)) for n in range(3, 17)]
        tables = [harmonics._read_table(n, nodes, range(nodes - (n - 3) // 2)) for n, nodes in tops]
        assert max(len(above) for above in tables) == 416
        assert max(sum(map(len, above.values())) for above in tables) == 416

    def test_threads_share_the_tables(self, cold_tables):
        # 4 threads build, read and evict the tables of more sphere rules than the cache keeps, g1 and g2 verdicts
        # alike, with a switch every microsecond; a race can only build one table twice
        tops = [(top, k) for top in (100, 200, 400) for k in (16, 50)]
        calls = [
            *((zonal_pairings_nonzero, (top, [k, top], n)) for n in range(3, 17) for top, k in tops),
            *((ktype_pairings_nonzero, (top, [k, top + 1], n)) for n in range(4, 17, 3) for top, k in tops),
        ]
        expected = [verdicts(*args) for verdicts, args in calls]
        assert harmonics._gram_table.cache_info().misses > 32

        def run(seed):
            order = list(range(len(calls))) * 2
            random.Random(seed).shuffle(order)
            return [(i, calls[i][0](*calls[i][1])) for i in order]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = [future.result(timeout=60) for future in [pool.submit(run, seed) for seed in range(4)]]
        finally:
            sys.setswitchinterval(switch)
        assert sum(map(len, results)) == 4 * 2 * len(calls)
        assert all(verdicts == expected[i] for result in results for i, verdicts in result)
        assert harmonics._gram_table.cache_info().currsize == 32


class TestOrthogonality:
    def test_gegenbauer_orthogonality(self):
        for nu in (0.5, 1.0, 1.5, 2.0):
            sin_power = int(round(2 * nu - 1))
            norms = [
                weighted_cos_integral(lambda x, m=m: gegenbauer(m, nu, x) ** 2, sin_power, 2 * m)
                for m in range(9)
            ]
            for m in range(9):
                for n in range(m + 1, 9):
                    val = weighted_cos_integral(
                        lambda x: gegenbauer(m, nu, x) * gegenbauer(n, nu, x), sin_power, m + n
                    )
                    assert abs(val) / math.sqrt(norms[m] * norms[n]) < 1e-10


class TestPairingSubsphere:
    def test_degree_zero_pair(self):
        # the relative odd-parity grid is the `pairing_parity_vanishing` check property
        for n in (4, 5, 6):
            assert pairing_subsphere(0, 0, n) == pytest.approx(sphere_area(n - 1), rel=1e-12)
            assert pairing_subsphere(1, 0, n) == pytest.approx(0.0, abs=1e-12)

    def test_one_one_five(self):
        # oracle: area(S^3) int C_1^{3/2} C_1^{1} (1-x^2)^{1/2}
        #       = 4pi * 6 * B(3/2, 3/2) = 3 pi^2, with B(3/2, 3/2) = pi / 8
        oracle = sphere_area(3) * 6.0 * (math.pi / 8)
        assert oracle == pytest.approx(3.0 * math.pi**2, rel=1e-13)
        assert pairing_subsphere(1, 1, 5) == pytest.approx(oracle, rel=1e-11)

    def test_one_one_four(self):
        # area(S^2) int 2x * x dx = 2pi * 4/3
        assert pairing_subsphere(1, 1, 4) == pytest.approx(8 * math.pi / 3, rel=1e-12)

    def test_requires_n_at_least_four(self):
        with pytest.raises(InvalidParameterError):
            pairing_subsphere(1, 1, 3)


class TestKTypeWitness:
    def test_odd_gap_reachable(self):
        nonzero, value = ktype_pairing_nonzero(2, 1, 5)
        assert nonzero
        assert abs(value) > 0

    def test_upward_unreachable(self):
        nonzero, value = ktype_pairing_nonzero(1, 2, 5)
        assert not nonzero
        assert value == 0.0

    def test_values_finite_on_unreachable_sweep(self):
        # an unreachable row is 0.0, never its noise times the leading-trace factor K,
        # which can leave the float range at high degree: (385, [387], 14) gave inf
        for n in range(4, 17):
            for a in range(0, 401, 17):
                assert ktype_pairings_nonzero(a, range(a + 1, a + 5), n) == [False] * 4, (n, a)
                assert ktype_pairing_nonzero(a, a + 1, n) == (False, 0.0), (n, a)
        assert ktype_pairing_nonzero(385, 387, 14) == (False, 0.0)

    def test_trivial_pair_witness_value(self):
        nonzero, value = ktype_pairing_nonzero(0, 0, 5)
        assert nonzero
        assert value == pytest.approx(sphere_area(4), rel=1e-12)

    def test_matches_scan_oracle(self):
        # the brute-force scan over every (member j, trace m) pairing: same
        # verdict, same best ratio, and the value is its leading trace pairing
        for n in range(4, 8):
            for a in range(11):
                for b in range(a + 3):
                    nonzero, value = ktype_pairing_nonzero(a, b, n)
                    scan_nonzero, _, scan_ratio = witness_scan(a, b, n)
                    ratios = zonal_gram(range(a + 1), [b], n - 1)
                    assert nonzero == scan_nonzero, (a, b, n)
                    assert abs(ratios.max() - scan_ratio) <= 1e-9, (a, b, n)
                    if b <= a:
                        leading = witness_pairings(a, b, n)[a - b, a - b][0]
                        assert value == pytest.approx(leading, rel=1e-9), (a, b, n)

    def test_value_is_leading_trace_closed_form(self):
        # K <Z_b, Z_b> with K = j! (2 lam)_j / (2^j (lam)_j), j = a - b, lam = b + (n-2)/2
        for a, b, n in ((20, 7, 6), (48, 20, 8)):
            j, lam = a - b, b + (n - 2) / 2.0
            log_k = (
                math.lgamma(j + 1) + math.lgamma(2 * lam + j) - math.lgamma(2 * lam)
                - j * math.log(2.0) - math.lgamma(lam + j) + math.lgamma(lam)
            )
            nonzero, value = ktype_pairing_nonzero(a, b, n)
            assert nonzero
            assert value == pytest.approx(math.exp(log_k) * zonal_norm_sq_closed(b, n - 1), rel=1e-9)

    def test_a_value_past_the_double_range_is_refused(self):
        # K |Z_0|^2 grows like 200!: the verdict holds, and the value is refused as every printed number is
        with pytest.raises(ToleranceError, match=r"^witness value inf is not a normal double at degrees \(200, 0\)$"):
            ktype_pairing_nonzero(200, 0, 4)
        assert ktype_pairings_nonzero(200, [0], 4) == [True]

    @pytest.mark.parametrize("b", [199, 200, 201])
    def test_high_degree_matches_branching(self, b):
        nonzero, _ = ktype_pairing_nonzero(200, b, 6)
        assert nonzero == (0 <= b <= 200)

    def test_batched_matches_one_element_calls(self):
        # one pass on the rule of the largest degree gives the verdicts of one pass per b
        for n in (4, 5, 8):
            for a in (0, 1, 7, 20):
                bs = [a + 2, 0, a, a + 1, a // 2, a + 2]
                assert ktype_pairings_nonzero(a, bs, n) == [ktype_pairing_nonzero(a, b, n)[0] for b in bs]
        # every target of the `ktype_witness_matches_branching` check property, one call at a time
        for n in (4, 5, 6):
            for a in range(7):
                singles = [ktype_pairing_nonzero(a, b, n)[0] for b in range(7)]
                assert ktype_pairings_nonzero(a, range(7), n) == singles
                for b, nonzero in enumerate(singles):
                    assert nonzero == _nonvanishing(SpaceTag.G2_SPACE, a, b), (a, b, n)
        assert ktype_pairings_nonzero(3, [], 5) == []
        with pytest.raises(InvalidParameterError):
            ktype_pairings_nonzero(3, [1, -1], 5)

    def test_batched_ratios_match_per_target_loop(self):
        # the reference: the Gram ratios and leading trace of each b on its own,
        # from the same rows; batching the elementwise steps keeps every bit
        for n in (4, 5, 8):
            for a in (0, 3, 12):
                bs = list(range(a + 3))
                batched = ktype_pairings_nonzero(a, bs, n)
                for b, result in zip(bs, batched):
                    top = max(a, b)
                    x, w = sphere_rule(2 * top, n - 4)
                    weight = sphere_area(n - 2) * w
                    rows = [gegenbauer(k, (n - 3) / 2.0, x) for k in range(top + 1)]
                    zonals = np.array(rows[: a + 1])
                    gram = zonals @ (weight * rows[b])
                    ratios = np.abs(gram) / np.sqrt(zonals**2 @ weight * float(rows[b] ** 2 @ weight))
                    k = int(np.argmax(ratios))
                    lam = k + (n - 2) / 2.0
                    leading = math.prod((i + 1) * (2.0 * lam + i) / (2.0 * (lam + i)) for i in range(a - k))
                    nonzero = bool(ratios[k] > 1e-8)
                    assert result == nonzero, (a, b, n)
                    # the witness value is exact and rounded once; the leading trace by quadrature agrees
                    expected = leading * float(gram[k]) if nonzero else 0.0
                    assert ktype_pairing_nonzero(a, b, n)[1] == pytest.approx(expected, rel=1e-12), (a, b, n)

    def test_verdicts_past_the_norm_product_range(self, cold_tables):
        # |Z_734|^2 overflows on S^128 and |Z_0|^2 |Z_0|^2 underflows on S^299: past the checked range the witness
        # refuses before any row (the kernel's unit rows there are TestZonalGram::test_full_gram_is_the_identity)
        for a, bs, n, past in ((1000, [0, 1, 1001], 130, "ambient degree 1000"), (0, [0, 1], 301, "q = 301")):
            with pytest.raises(InvalidParameterError, match=f"^{past} is past the checked range"):
                ktype_pairings_nonzero(a, bs, n)
        assert harmonics._gram_table.cache_info().currsize == 0

    def test_guards(self):
        with pytest.raises(InvalidParameterError):
            ktype_pairing_nonzero(1, 1, 3)




def _direct_verdicts(a, bs, n):
    # the Gram rows k = 0..a against bs, formed on the request's own rule
    return (zonal_gram(range(a + 1), bs, n - 1).max(axis=1) > harmonics.GRAM_RATIO_TOL).tolist()


class TestWitnessTable:
    @pytest.mark.parametrize("n", range(4, 17))
    def test_verdicts_equal_the_direct_gram(self, n, cold_tables):
        for a in (*range(30), 50, 100, 199, 200, 201, 300, 386, 400):
            bs = list(range(min(a + 3, MAX_TARGET_DEGREE) + 1))
            assert ktype_pairings_nonzero(a, bs, n) == _direct_verdicts(a, bs, n), (n, a)
        assert harmonics._gram_table.cache_info().misses

    def test_one_table_per_rule(self, cold_tables):
        # every request whose largest degree selects the 16-node rule of S^4 reads its one table, which
        # serves degrees 0..14
        for a in range(15):
            assert ktype_pairings_nonzero(a, range(15 - a), 6) == [b <= a for b in range(15 - a)]
        info = harmonics._gram_table.cache_info()
        assert (info.misses, info.hits) == (1, 14)
        above, lost = harmonics._gram_table(5, 16)
        assert (above, lost) == ({b: (b,) for b in range(15)}, {})

    @pytest.mark.parametrize(
        "a, bs, n",
        [(0, [0], 5), (3, [5, 1], 6), (20, range(23), 8), (7, [40, 2], 4), (100, [101, 0], 10), (400, [402], 5),
         (3, [], 6)],
    )
    def test_lost_rows_raise_as_the_direct_gram(self, a, bs, n, monkeypatch, cold_tables):
        # with no tolerance nearly every row is lost: both paths name the first lost degree of 0..a, then bs
        monkeypatch.setattr(harmonics, "ROW_NORM_TOL", 0.0)
        direct = _outcome(_direct_verdicts, a, list(bs), n)
        assert direct.startswith("zonal row norm at degree ")
        assert _outcome(ktype_pairings_nonzero, a, bs, n) == direct

    def test_a_column_is_read_from_its_least_degree(self, monkeypatch, cold_tables):
        # below a threshold of -1 every ratio clears it, so every column holds all its rule's degrees: each b is
        # reachable from every a, as the direct Gram says, and each g1 target is in column a
        monkeypatch.setattr(harmonics, "GRAM_RATIO_TOL", -1.0)
        for a, bs, n in ((0, [0, 5], 5), (3, [5, 1, 14], 6), (20, range(23), 8)):
            assert ktype_pairings_nonzero(a, bs, n) == _direct_verdicts(a, list(bs), n) == [True] * len(bs)
            assert zonal_pairings_nonzero(a, bs, n) == _g1_direct(a, list(bs), n) == [True] * len(bs)

    def test_an_unrequested_lost_row_refuses_nothing(self, monkeypatch, cold_tables):
        # the 16-node rule of S^4 serves degrees 0..14; mark its degree-10 row lost
        unit_rows = harmonics._unit_rows

        def lose_degree_10(n, top, wanted):
            rows, norms, lost = unit_rows(n, top, wanted)
            lost[10] = True
            return rows, norms, lost

        monkeypatch.setattr(harmonics, "_unit_rows", lose_degree_10)
        assert ktype_pairings_nonzero(5, range(8), 6) == [True] * 6 + [False] * 2
        assert ktype_pairings_nonzero(5, [14, 9, 11], 6) == [False] * 3
        for a, bs in ((5, [3, 10]), (12, [0])):
            with pytest.raises(ToleranceError, match=r"^zonal row norm at degree 10 on S\^4 is [0-9.e-]+, not 1$"):
                ktype_pairings_nonzero(a, bs, 6)
        assert harmonics._gram_table.cache_info().misses == 1

    def test_a_request_past_the_band_builds_no_table(self, cold_tables):
        # its rule would hold a 1207-row Gram on S^437: q = 439 is past the checked range, refused before any row
        with pytest.raises(InvalidParameterError, match="^q = 439 is past the checked range, which ends at 16$"):
            ktype_pairings_nonzero(0, [1200], 439)
        assert harmonics._gram_table.cache_info().currsize == 0
