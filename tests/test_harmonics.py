import math

import numpy as np
import pytest
from scipy.special import eval_gegenbauer

from hypbranch import harmonics
from hypbranch.errors import InvalidParameterError, ToleranceError
from hypbranch.harmonics import (
    ZonalHarmonic,
    gegenbauer,
    ktype_pairing_nonzero,
    ktype_pairings_nonzero,
    pairing_subsphere,
    so_branching_multiplicity,
    sphere_area,
    weighted_cos_integral,
    zonal_gram,
    zonal_norm_sq,
    zonal_norm_sq_closed,
)
from hypbranch.numerics import beta
from witness_oracle import witness_pairings, witness_scan


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


class TestSphereArea:
    def test_known_values(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
        assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)
        assert sphere_area(1) == pytest.approx(2.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            sphere_area(0)


class TestZonalHarmonic:
    def test_default_pole_and_values(self):
        z = ZonalHarmonic(2, 4)
        y = np.array([0.0, 0.0, 0.0, 1.0])
        assert z.value(y) == pytest.approx(gegenbauer(2, 1.0, 1.0))

    def test_value_depends_only_on_pole_cosine(self):
        rng = np.random.default_rng(13)
        z = ZonalHarmonic(3, 5)
        for _ in range(20):
            v = rng.normal(size=5)
            v /= np.linalg.norm(v)
            assert z.value(v) == pytest.approx(z.value_at_cos(v @ z.pole), rel=1e-12, abs=1e-12)

    def test_guards(self):
        with pytest.raises(InvalidParameterError):
            ZonalHarmonic(1, 2)  # degenerate nu = 0 case
        with pytest.raises(InvalidParameterError):
            ZonalHarmonic(-1, 4)
        with pytest.raises(InvalidParameterError):
            ZonalHarmonic(1, 4, np.array([1.0, 1.0, 0.0, 0.0]))


class TestZonalNorm:
    def test_degree_zero_is_sphere_area(self):
        for n in (4, 5, 6):
            assert zonal_norm_sq(0, n) == pytest.approx(sphere_area(n), rel=1e-12)

    def test_degree_one_n4(self):
        # oracle: area(S^2) * 4 * int x^2 (1-x^2)^{1/2} = 4pi * 4 * pi/8 = 2 pi^2
        oracle = sphere_area(3) * 4.0 * beta(1.5, 1.5)
        assert oracle == pytest.approx(2 * math.pi**2, rel=1e-13)
        assert zonal_norm_sq(1, 4) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n", range(4, 17))
    def test_closed_form_to_degree_400(self, n):
        # the sphere rule follows the degree, so high degrees stay exact
        for a in (*range(9), 16, 48, 100, 200, 400):
            assert zonal_norm_sq(a, n) == pytest.approx(zonal_norm_sq_closed(a, n), rel=1e-10)


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
        #       = 4pi * 6 * B(3/2, 3/2) = 3 pi^2
        oracle = sphere_area(3) * 6.0 * beta(1.5, 1.5)
        assert oracle == pytest.approx(3.0 * math.pi**2, rel=1e-13)
        assert pairing_subsphere(1, 1, 5) == pytest.approx(oracle, rel=1e-11)

    def test_one_one_four(self):
        # area(S^2) int 2x * x dx = 2pi * 4/3
        assert pairing_subsphere(1, 1, 4) == pytest.approx(8 * math.pi / 3, rel=1e-12)

    def test_requires_n_at_least_four(self):
        with pytest.raises(InvalidParameterError):
            pairing_subsphere(1, 1, 3)


class TestBranchingMultiplicity:
    def test_examples(self):
        assert so_branching_multiplicity(3, 2) == 1
        assert so_branching_multiplicity(2, 3) == 0
        assert so_branching_multiplicity(0, 0) == 1

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            so_branching_multiplicity(-1, 0)


class TestKTypeWitness:
    def test_odd_gap_reachable(self):
        nonzero, value = ktype_pairing_nonzero(2, 1, 5)
        assert nonzero
        assert abs(value) > 0

    def test_upward_unreachable(self):
        nonzero, value = ktype_pairing_nonzero(1, 2, 5)
        assert not nonzero

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
                    gram, norm_b, norms_sq = zonal_gram(b, range(a + 1), n - 1)
                    ratios = np.abs(gram) / np.sqrt(norms_sq * norm_b)
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

    @pytest.mark.parametrize("b", [199, 200, 201])
    def test_high_degree_matches_branching(self, b):
        nonzero, _ = ktype_pairing_nonzero(200, b, 6)
        assert nonzero == (0 <= b <= 200)

    def test_batched_matches_one_element_calls(self):
        # one pass per rule top = max(a, b) gives bitwise the rows of one pass per b
        for n in (4, 5, 8):
            for a in (0, 1, 7, 20):
                bs = [a + 2, 0, a, a + 1, a // 2, a + 2]
                assert ktype_pairings_nonzero(a, bs, n) == [ktype_pairing_nonzero(a, b, n) for b in bs]
        # every target of the `ktype_witness_matches_branching` check property, one call at a time
        for n in (4, 5, 6):
            for a in range(7):
                singles = [ktype_pairing_nonzero(a, b, n) for b in range(7)]
                assert ktype_pairings_nonzero(a, range(7), n) == singles
                for b, (nonzero, _) in enumerate(singles):
                    assert nonzero == (so_branching_multiplicity(a, b) == 1), (a, b, n)
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
                    rows, weight = harmonics._zonal_rows(top, n - 1, {*range(a + 1), top})
                    zonals = np.array([rows[k] for k in range(a + 1)])
                    gram = zonals @ (weight * rows[b])
                    ratios = np.abs(gram) / np.sqrt(zonals**2 @ weight * float(rows[b] ** 2 @ weight))
                    k = int(np.argmax(ratios))
                    lam = k + (n - 2) / 2.0
                    leading = math.prod((i + 1) * (2.0 * lam + i) / (2.0 * (lam + i)) for i in range(a - k))
                    assert result == (bool(ratios[k] > 1e-8), leading * float(gram[k])), (a, b, n)

    def test_norm_not_finite_raises(self):
        # the squared zonal values overflow on S^128 at degree 1000
        with pytest.raises(ToleranceError, match="not finite"):
            ktype_pairings_nonzero(1000, [0, 1], 130)

    def test_guards(self):
        with pytest.raises(InvalidParameterError):
            ktype_pairing_nonzero(1, 1, 3)
