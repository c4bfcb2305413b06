import math
from fractions import Fraction

import numpy as np
import pytest

from hypbranch.errors import InvalidParameterError
from hypbranch.numerics import (
    RADIAL_TOL,
    QuadratureSpec,
    beta,
    doubled,
    gauss_legendre_rule,
    log_gamma,
    sphere_nodes,
    sphere_rule,
)


class TestDoubled:
    def test_accepts_half_integers(self):
        assert doubled(2) == 4
        assert doubled(1.5) == 3
        assert doubled(-0.5) == -1
        assert doubled(Fraction(7, 2)) == 7
        assert doubled(Fraction(4, 2)) == 4

    def test_rejects_non_half_integers(self):
        for value in (0.3, Fraction(1, 3), math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                doubled(value)

    def test_rejects_other_types(self):
        for value in ("3/2", None):
            with pytest.raises(TypeError):
                doubled(value)

    def test_agrees_with_fraction_arithmetic(self):
        rng = np.random.default_rng(7)
        for twice in rng.integers(-40, 40, size=1000).tolist():
            assert doubled(Fraction(twice, 2)) == doubled(twice / 2) == 2 * Fraction(twice, 2) == twice


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.radial_nodes == 200
        assert RADIAL_TOL == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radial_nodes": 1},
            {"radial_nodes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestGaussLegendre:
    def test_midpoint_rule(self):
        x, w = gauss_legendre_rule(1)
        assert x == pytest.approx([0.0], abs=1e-15)
        assert w == pytest.approx([2.0], abs=1e-15)

    def test_two_point_rule(self):
        x, w = gauss_legendre_rule(2)
        assert sorted(x) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
        assert w == pytest.approx([1.0, 1.0], abs=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_polynomial_exactness(self, n):
        x, w = gauss_legendre_rule(n)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert float(np.sum(w * x**k)) == pytest.approx(exact, abs=1e-13)

    def test_x_squared_16_nodes(self):
        x, w = gauss_legendre_rule(16)
        assert float(np.sum(w * x**2)) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_weights_positive_sum_two_nodes_interior(self):
        for n in (3, 7, 50, 200):
            x, w = gauss_legendre_rule(n)
            assert np.all(w > 0)
            assert float(np.sum(w)) == pytest.approx(2.0, abs=1e-13)
            assert np.all(np.abs(x) < 1.0)

    def test_nodes_are_legendre_roots(self):
        # independent oracle: evaluate P_n via numpy's Legendre series
        from numpy.polynomial import legendre

        for n in (5, 12, 33):
            x, _ = gauss_legendre_rule(n)
            coeffs = np.zeros(n + 1)
            coeffs[-1] = 1.0
            assert np.max(np.abs(legendre.legval(x, coeffs))) < 1e-13

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            gauss_legendre_rule(0)


class TestSphereRule:
    @pytest.mark.parametrize("sin_power", [0, 1, 2, 3, 6, 13])
    def test_exact_to_its_degree(self, sin_power):
        # int x^k (1-x^2)^{s/2} dx = B((k+1)/2, s/2 + 1) for even k, 0 for odd k
        for degree in (0, 1, 2, 7, 30, 101):
            x, w = sphere_rule(degree, sin_power)
            assert np.all(w > 0) and np.all(np.abs(x) < 1.0)
            for k in range(degree + 1):
                exact = 0.0 if k % 2 else beta((k + 1) / 2.0, sin_power / 2.0 + 1.0)
                assert float(np.sum(w * x**k)) == pytest.approx(exact, abs=1e-13)

    def test_node_count_follows_degree(self):
        # the least multiple of 16 at or above the count that is exact: n
        # Gauss-Legendre nodes integrate polynomial degree 2n - 1 (even s),
        # n Gauss-Chebyshev nodes degree 2n - 1 against sqrt(1 - x^2) (odd s)
        for sin_power in (0, 1, 2, 3, 6, 13):
            for degree in (0, 1, 2, 7, 29, 30, 31, 32, 33, 101, 800):
                needed = (degree + sin_power) // 2 + 1 if sin_power % 2 == 0 else (degree + sin_power + 1) // 2
                n = len(sphere_rule(degree, sin_power)[0])
                assert n == sphere_nodes(degree, sin_power), (degree, sin_power)
                assert n % 16 == 0 and n - 16 < needed <= n, (degree, sin_power, n)
        assert len(sphere_rule(0, 0)[0]) == 16
        assert len(sphere_rule(800, 13)[0]) == 416
        # one step below is not exact: the 16-node rule misses x^32, which the 32-node rule integrates
        x16, w16 = sphere_rule(31, 0)
        x32, w32 = sphere_rule(32, 0)
        assert (len(x16), len(x32)) == (16, 32)
        assert abs(float(np.sum(w16 * x16**32)) - 2.0 / 33.0) > 1e-10
        assert float(np.sum(w32 * x32**32)) == pytest.approx(2.0 / 33.0, abs=1e-14)

    def test_invalid_arguments(self):
        for degree, sin_power in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                sphere_rule(degree, sin_power)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_domain_error(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(ValueError):
                log_gamma(bad)

    def test_accuracy_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for x in np.logspace(-3, 3, 61):
            exact = float(mp.loggamma(mp.mpf(float(x))))
            got = log_gamma(float(x))
            scale = max(abs(exact), 1.0)
            assert abs(got - exact) <= 1e-12 * scale


class TestBeta:
    def test_known_values(self):
        assert beta(1, 1) == pytest.approx(1.0, rel=1e-14)
        assert beta(2, 2) == pytest.approx(1.0 / 6.0, rel=1e-13)
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    def test_symmetry_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            x, y = rng.uniform(0.05, 30.0, size=2)
            assert beta(x, y) == pytest.approx(beta(y, x), rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta(-1.0, 2.0)
        with pytest.raises(ValueError):
            beta(1.0, 0.0)
