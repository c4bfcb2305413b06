import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hypbranch.errors import AssumptionError, DivergenceError, InvalidParameterError, ToleranceError
from hypbranch.exact import half_gamma, sqrt_pi_ratio
from hypbranch.geometry import (
    ChartPoint,
    HyperboloidChart,
    measure_weight,
    phi,
    q_form,
    radial_integral_closed,
    radial_integral_numeric,
    radial_integral_truncated,
)
from block_estimates import (
    BlockDecomposition,
    NotInGroupError,
    block_decompose,
    ellipsoid_gap,
    minkowski_form,
    scale,
    suborbit,
)
from group_elements import random_group_element


def random_unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


class TestChart:
    def test_standing_assumption(self):
        with pytest.raises(AssumptionError):
            HyperboloidChart(3, 4)
        with pytest.raises(AssumptionError):
            HyperboloidChart(4, 3)

    def test_chart_point_validation(self):
        with pytest.raises(InvalidParameterError):
            ChartPoint(np.array([1.0, 1.0, 0.0, 0.0]), np.eye(4)[0], 1.0)
        with pytest.raises(InvalidParameterError):
            ChartPoint(np.eye(4)[0], np.eye(4)[0], -0.5)

    def test_phi_at_t_zero(self):
        chart = HyperboloidChart(4, 4)
        rng = np.random.default_rng(0)
        pt = ChartPoint(random_unit(rng, 4), random_unit(rng, 4), 0.0)
        image = phi(chart, pt)
        assert image[:4] == pytest.approx(np.zeros(4), abs=1e-15)
        assert image[4:] == pytest.approx(pt.y_prime)
        assert q_form(image, image, 4, 4) == pytest.approx(-1.0, abs=1e-12)

    def test_phi_basis_point(self):
        chart = HyperboloidChart(4, 4)
        pt = ChartPoint(np.eye(4)[0], np.eye(4)[0], 1.0)
        expected = np.zeros(8)
        expected[0] = math.sinh(1.0)
        expected[4] = math.cosh(1.0)
        assert phi(chart, pt) == pytest.approx(expected, rel=1e-15)

    def test_phi_lands_on_hyperboloid(self):
        rng = np.random.default_rng(42)
        chart = HyperboloidChart(5, 4)
        for _ in range(100):
            pt = ChartPoint(random_unit(rng, 5), random_unit(rng, 4), rng.uniform(0, 4))
            image = phi(chart, pt)
            assert q_form(image, image, 5, 4) == pytest.approx(-1.0, abs=1e-10)

    def test_measure_weight(self):
        chart = HyperboloidChart(4, 4)
        assert measure_weight(chart, 0.0) == 0.0
        assert measure_weight(chart, 1.0) == pytest.approx(math.sinh(1.0) ** 3 * math.cosh(1.0) ** 3)
        # weight on the (p, q-1) chart is sinh^{p-1} cosh^{q-2}
        sub = HyperboloidChart(4, 4)
        amb = HyperboloidChart(4, 5)
        t = 0.7
        assert measure_weight(sub, t) == pytest.approx(
            math.sinh(t) ** (amb.p - 1) * math.cosh(t) ** (amb.q - 2)
        )


def wallis_three_factorials(a, m):
    """int_0^{pi/2} sin^a cos^m = Gamma((a+1)/2) Gamma((m+1)/2) / (2 Gamma((a+m+2)/2)), rounded once.

    The three Gammas are exact factorial ratios (`half_gamma`): the radial factor's form before the short products.
    """
    (num_a, den_a, r_a), (num_m, den_m, r_m), (num_s, den_s, r_s) = map(half_gamma, (a + 1, m + 1, a + m + 2))
    return sqrt_pi_ratio(num_a * num_m * den_s, 2 * den_a * den_m * num_s, r_a + r_m - r_s)


class TestRadialIntegrals:
    def test_closed_simple_antiderivative(self):
        # int sinh cosh^{-3} = [-cosh^{-2}/2] from 0 to inf = 1/2
        assert radial_integral_closed(1, -3) == pytest.approx(0.5, rel=1e-13)

    def test_closed_vs_quadrature_oracle(self):
        for a_exp, c_exp in [(1, -3), (3, -7), (0, -2), (5, -9), (3, -4), (2, -5)]:
            oracle, err = quad(
                lambda t: math.sinh(t) ** a_exp * math.cosh(t) ** c_exp, 0, 40, limit=200
            )
            assert radial_integral_closed(a_exp, c_exp) == pytest.approx(oracle, rel=1e-9)

    def test_closed_known_values(self):
        assert radial_integral_closed(3, -7) == pytest.approx(1.0 / 12.0, rel=1e-13)
        assert radial_integral_closed(0, -2) == pytest.approx(1.0, rel=1e-13)
        # a + c = -1 converges (integrand ~ e^{-t}); antiderivative gives 2/3
        assert radial_integral_closed(3, -4) == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_integer_exponents_round_once(self):
        # Wallis integrals: the nearest double to a rational, times pi / 2 when a and m are even
        assert radial_integral_closed(3, -7) == 1 / 12
        assert radial_integral_closed(0, -2) == 1.0
        assert radial_integral_closed(2, -5) == math.pi / 16  # int sin^2 cos^2 over [0, pi/2]

    def test_wallis_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for a in range(16):
            for m in range(0, 2800, 37):  # both parities of m
                exact = mp.beta(mp.mpf(a + 1) / 2, mp.mpf(m + 1) / 2) / 2
                assert abs(radial_integral_closed(a, -a - m - 1) - exact) <= 2.3e-16 * exact, (a, m)

    def test_short_products_match_three_factorials(self):
        # every parity case of (a, m): the same rational, so the same double, bit for bit
        for a in range(41):
            for m in itertools.chain(range(64), range(64, 3001, 43), [2999, 3000]):
                assert radial_integral_closed(a, -a - m - 1) == wallis_three_factorials(a, m), (a, m)

    def test_divergence_errors(self):
        with pytest.raises(DivergenceError):
            radial_integral_closed(3, -3)  # a + c = 0
        with pytest.raises(DivergenceError):
            radial_integral_closed(1, 0)
        with pytest.raises(DivergenceError):
            radial_integral_closed(-1, -2)  # endpoint t = 0
        with pytest.raises(DivergenceError):
            radial_integral_numeric(2, -2)

    def test_numeric_matches_closed_on_grid(self):
        for a_exp in (0, 1, 2, 3, 5):
            for total in (-2, -4, -7):
                c_exp = total - a_exp
                value, err = radial_integral_numeric(a_exp, c_exp)
                closed = radial_integral_closed(a_exp, c_exp)
                assert value == pytest.approx(closed, rel=1e-9)
                assert err <= max(1e-10, 1e-10 * abs(value))

    def test_numeric_examples(self):
        value, _ = radial_integral_numeric(1, -3)
        assert value == pytest.approx(0.5, abs=1e-10)
        value, _ = radial_integral_numeric(3, -7)
        assert value == pytest.approx(1.0 / 12.0, abs=1e-10)
        value, _ = radial_integral_numeric(0, -2)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_truncated_divergence_growth(self):
        # a + c >= 0: truncations grow without bound (> 10% per doubling)
        for a_exp, c_exp in [(3, -3), (2, -1), (1, 0)]:
            vals = [radial_integral_truncated(a_exp, c_exp, t) for t in (5, 10, 20)]
            assert vals[1] > 1.1 * vals[0]
            assert vals[2] > 1.1 * vals[1]

    def test_truncated_cauchy_when_convergent(self):
        # the exact T -> infinity tail is e^{(a+c) T}-sized (about 1.6e-8
        # relative at decay rate 2), so the final step is pinned at 1e-7
        for a_exp, c_exp in [(3, -7), (1, -3), (4, -7)]:
            vals = [radial_integral_truncated(a_exp, c_exp, t) for t in (5, 10, 20)]
            d1 = abs(vals[1] - vals[0])
            d2 = abs(vals[2] - vals[1])
            assert d2 < 0.1 * max(d1, 1e-300)
            assert d2 <= 1e-7 * abs(vals[2])


class TestRadialIntegralsBatched:
    def test_matches_closed_form_and_one_element_calls(self):
        # a + c from -3 down to -60 in half steps: the cosine power -(a+c)-1 is
        # at least 2 there; lower powers are singular at phi = pi/2 and only
        # meet the rule's own tolerance (see test_low_power_rows)
        totals = [-twice / 2 for twice in range(6, 121)]
        for a_exp in range(9):
            for total in totals:
                c_exp = total - a_exp
                value, err = radial_integral_numeric(a_exp, c_exp)
                closed = radial_integral_closed(a_exp, c_exp)
                assert abs(value - closed) <= 1e-12 * closed, (a_exp, c_exp)
                assert err <= 1e-12 * closed, (a_exp, c_exp)

    def test_low_power_rows(self):
        for a_exp in range(9):
            value, err = radial_integral_numeric(a_exp, -2.5 - a_exp)
            closed = radial_integral_closed(a_exp, -2.5 - a_exp)
            assert abs(value - closed) <= 1e-10 * closed
            assert err <= max(1e-10, 1e-10 * value)

    def test_divergent_entry_raises(self):
        with pytest.raises(DivergenceError):
            radial_integral_numeric(2, -2.0)  # a + c = 0
        with pytest.raises(DivergenceError):
            radial_integral_numeric(-1, -3.0)

    @pytest.mark.parametrize(
        "c_exps, bad",
        # the cosine power 0.5 of a + c = -1.5 is singular at phi = pi/2
        [([-10.0, -4.5, -12.0], -4.5)],
        ids=["singular"],
    )
    def test_out_of_tolerance_entry_raises(self, c_exps, bad):
        with pytest.raises(ToleranceError) as single:
            radial_integral_numeric(3, bad)
        assert str(single.value).startswith("radial quadrature error estimate")
        for c_exp in c_exps:
            if c_exp != bad:
                radial_integral_numeric(3, c_exp)


class TestSuborbit:
    def test_g1(self):
        desc = suborbit(HyperboloidChart(5, 4), "g1")
        assert (desc.p, desc.q) == (4, 4)
        assert desc.sphere_dims == (3, 3)

    def test_g2(self):
        desc = suborbit(HyperboloidChart(4, 5), "g2")
        assert (desc.p, desc.q) == (4, 4)
        assert desc.sphere_dims == (3, 3)

    def test_standing_assumption_violations(self):
        with pytest.raises(AssumptionError):
            suborbit(HyperboloidChart(4, 4), "g1")
        with pytest.raises(AssumptionError):
            suborbit(HyperboloidChart(4, 4), "g2")
        with pytest.raises(InvalidParameterError):
            suborbit(HyperboloidChart(5, 5), "g3")


def hyperbolic_rotation(s, p, q):
    z = np.zeros((p + q, p + q))
    z[0, p] = s
    z[p, 0] = s
    from scipy.linalg import expm

    return expm(z)


class TestBlocks:
    def test_identity(self):
        blocks = block_decompose(np.eye(8), 4, 4)
        assert blocks.a1 == pytest.approx(np.eye(4))
        assert blocks.a4 == pytest.approx(np.eye(4))
        assert blocks.a2 == pytest.approx(np.zeros((4, 4)), abs=1e-15)
        assert blocks.a3 == pytest.approx(np.zeros((4, 4)), abs=1e-15)

    def test_hyperbolic_rotation(self):
        g = hyperbolic_rotation(1.0, 4, 4)
        blocks = block_decompose(g, 4, 4)
        assert blocks.a4[0, 0] == pytest.approx(math.cosh(1.0), rel=1e-12)
        assert blocks.a1[0, 0] == pytest.approx(math.cosh(1.0), rel=1e-12)
        assert blocks.a3[0, 0] == pytest.approx(math.sinh(1.0), rel=1e-12)

    def test_random_elements_satisfy_block_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = random_group_element(4, 4, rng)
            blocks = block_decompose(g, 4, 4)
            gap = blocks.a4 @ blocks.a4.T - blocks.a3 @ blocks.a3.T - np.eye(4)
            assert np.max(np.abs(gap)) < 1e-8

    def test_not_in_group(self):
        with pytest.raises(NotInGroupError):
            block_decompose(2.0 * np.eye(8), 4, 4)
        with pytest.raises(NotInGroupError):
            block_decompose(np.eye(7), 4, 4)
        # Q-preserving but orientation-reversing in each factor
        flip = np.diag([-1.0, 1, 1, 1, -1.0, 1, 1, 1])
        with pytest.raises(NotInGroupError):
            block_decompose(flip, 4, 4)

    def test_block_invariant_enforced(self):
        with pytest.raises(NotInGroupError):
            BlockDecomposition(np.eye(4), np.zeros((4, 4)), np.zeros((4, 4)), 2 * np.eye(4))


class TestEllipsoidGap:
    def test_identity(self):
        q_min, bound = ellipsoid_gap(block_decompose(np.eye(8), 4, 4))
        assert q_min == pytest.approx(1.0)
        assert bound == pytest.approx(1.0 / 16.0)
        assert q_min >= bound

    def test_hyperbolic_rotation_closed_form(self):
        blocks = block_decompose(hyperbolic_rotation(1.0, 4, 4), 4, 4)
        q_min, bound = ellipsoid_gap(blocks)
        assert q_min == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert bound == pytest.approx(0.25 / (math.cosh(1.0) ** 2 + 3.0), rel=1e-10)
        assert q_min >= bound

    def test_random_elements_vs_sampling(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            g = random_group_element(4, 4, rng)
            blocks = block_decompose(g, 4, 4)
            q_min, bound = ellipsoid_gap(blocks)
            yp = rng.normal(size=(10_000, 4))
            yp /= np.linalg.norm(yp, axis=1, keepdims=True)
            ypp = rng.normal(size=(10_000, 4))
            ypp /= np.linalg.norm(ypp, axis=1, keepdims=True)
            sampled = np.min(np.linalg.norm(yp @ blocks.a3.T + ypp @ blocks.a4.T, axis=1))
            assert q_min <= sampled + 1e-9
            assert q_min >= bound

    def test_eigen_formula_matches_optimizer(self):
        # the closed-form minimum over the two unit spheres agrees with a
        # direct numerical minimization of |A3 y' + A4 y''|
        from scipy.optimize import minimize

        rng = np.random.default_rng(99)
        for _ in range(4):
            g = random_group_element(4, 4, rng)
            blocks = block_decompose(g, 4, 4)
            q_min, _ = ellipsoid_gap(blocks)

            def objective(x):
                u = x[:4] / np.linalg.norm(x[:4])
                v = x[4:] / np.linalg.norm(x[4:])
                return float(np.linalg.norm(blocks.a3 @ u + blocks.a4 @ v))

            best = min(
                minimize(
                    objective,
                    rng.normal(size=8),
                    method="Nelder-Mead",
                    options={"maxiter": 4000, "xatol": 1e-12, "fatol": 1e-14},
                ).fun
                for _ in range(12)
            )
            assert best == pytest.approx(q_min, abs=1e-9)


class TestScale:
    def test_identity(self):
        assert scale(np.eye(8), 4, 4) == pytest.approx(16.0)
        assert scale(np.eye(9), 4, 5) == pytest.approx(18.0)

    def test_inverse_invariance(self):
        rng = np.random.default_rng(5)
        j = minkowski_form(4, 4)
        for _ in range(100):
            g = random_group_element(4, 4, rng)
            g_inv = j @ g.T @ j
            assert scale(g, 4, 4) == pytest.approx(scale(g_inv, 4, 4), rel=1e-9)

    def test_submultiplicativity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            g1 = random_group_element(4, 4, rng)
            g2 = random_group_element(4, 4, rng)
            assert scale(g1 @ g2, 4, 4) <= scale(g1, 4, 4) * scale(g2, 4, 4) * (1 + 1e-12)
