import math
from fractions import Fraction

import numpy as np
import pytest

from hypbranch.numerics import (
    HalfInt,
    QuadratureSpec,
    beta,
    gauss_legendre_rule,
    log_gamma,
    sphere_rule,
)


class TestHalfInt:
    def test_construction(self):
        assert HalfInt(2).twice == 4
        assert HalfInt(1.5).twice == 3
        assert HalfInt(-0.5).twice == -1
        assert HalfInt.from_twice(7).twice == 7
        assert HalfInt(HalfInt(3)).twice == 6

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            HalfInt(0.3)
        with pytest.raises(TypeError):
            HalfInt("3/2")

    def test_canonical_equality(self):
        assert HalfInt(1.5) == HalfInt.from_twice(3)
        assert HalfInt(2) == 2
        assert HalfInt.from_twice(3) == 1.5
        assert hash(HalfInt(2)) == hash(2.0)

    def test_total_order(self):
        values = [HalfInt.from_twice(t) for t in (-3, -1, 0, 1, 4)]
        assert sorted(values, reverse=True)[0] == HalfInt(2)
        assert HalfInt.from_twice(1) > 0
        assert HalfInt.from_twice(-1) < 0
        assert HalfInt(2) >= HalfInt(1.5)

    def test_repr(self):
        assert repr(HalfInt(2)) == "2"
        assert repr(HalfInt.from_twice(3)) == "3/2"
        assert repr(HalfInt.from_twice(-3)) == "-3/2"

    def test_integer_predicates(self):
        assert HalfInt(2).is_integer
        assert not HalfInt.from_twice(3).is_integer
        assert HalfInt(2).as_integer() == 2
        with pytest.raises(ValueError):
            HalfInt.from_twice(3).as_integer()

    def test_agrees_with_fraction_arithmetic(self):
        # randomized triples: HalfInt arithmetic must match exact rationals
        rng = np.random.default_rng(7)
        twices = rng.integers(-40, 40, size=(10_000, 3))
        for ta, tb, tc in twices:
            a, b, c = (HalfInt.from_twice(int(t)) for t in (ta, tb, tc))
            fa, fb, fc = (Fraction(int(t), 2) for t in (ta, tb, tc))
            assert Fraction((a + b).twice, 2) == fa + fb
            assert Fraction((a - c).twice, 2) == fa - fc
            assert ((a + b) + c) == (a + (b + c))
            assert (a + b) == (b + a)
            assert Fraction((-a).twice, 2) == -fa
            assert (a < b) == (fa < fb)

    def test_int_mixing(self):
        assert (HalfInt.from_twice(3) + 1).twice == 5
        assert (1 + HalfInt.from_twice(3)).twice == 5
        assert (HalfInt.from_twice(3) - 2).twice == -1
        assert (2 - HalfInt.from_twice(3)).twice == 1
        assert (HalfInt.from_twice(3) * 2).twice == 6
        assert (2 * HalfInt.from_twice(3)).twice == 6
        assert float(HalfInt.from_twice(3)) == 1.5
        assert abs(HalfInt.from_twice(-3)) == HalfInt.from_twice(3)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.radial_nodes == 200
        assert spec.abs_tol == 1e-10
        assert spec.rel_tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radial_nodes": 1},
            {"radial_nodes": 0},
            {"abs_tol": -1e-3},
            {"rel_tol": float("inf")},
            {"abs_tol": float("nan")},
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
        assert len(sphere_rule(0, 0)[0]) == 1
        assert len(sphere_rule(800, 13)[0]) == 407

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
