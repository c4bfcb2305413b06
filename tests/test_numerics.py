import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypbranch.errors import InvalidParameterError, ToleranceError
from hypbranch.fjrep import MAX_Q, MAX_TARGET_DEGREE
import hypbranch
from hypbranch.exact import doubled, half_gamma, half_text, normal_ratio, sqrt_pi_error, sqrt_pi_ratio
from hypbranch import numerics
from hypbranch.numerics import _legendre_rule, _legendre_start, gauss_legendre_rule, sphere_nodes, sphere_rule


def beta_x2(x2: int, y2: int) -> float:
    """B(x2 / 2, y2 / 2) from the exact half-integer Gamma, rounded once."""
    (nx, dx, rx), (ny, dy, ry), (ns, ds, rs) = map(half_gamma, (x2, y2, x2 + y2))
    return sqrt_pi_ratio(nx * ny * ds, dx * dy * ns, rx + ry - rs)


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

    # (value, its doubled int, or the exception type and text it raises); doubled looks the Fraction class up in
    # sys.modules, so the same table must hold in an interpreter that has never imported fractions (the rows that
    # build a Fraction or a Decimal then import their module first)
    CASES = (
        ("7", 14), ("True", 2), ("False", 0), ("-3", -6), ("10**40", 2 * 10**40),
        ("1.5", 3), ("-0.5", -1), ("2.0", 4), ("2.0**50 + 0.5", 2**51 + 1),
        ("Fraction(7, 2)", 7), ("Fraction(4, 2)", 4), ("Half(-5, 2)", -5),
        ("0.3", (InvalidParameterError, "0.3 is not an exact half-integer")),
        ("math.nan", (InvalidParameterError, "nan is not an exact half-integer")),
        ("-math.inf", (InvalidParameterError, "-inf is not an exact half-integer")),
        ("Fraction(1, 3)", (InvalidParameterError, "Fraction(1, 3) is not an exact half-integer")),
        ("'3/2'", (TypeError, "a half-integer is an int, a Fraction or a float, not str")),
        ("Decimal('1.5')", (TypeError, "a half-integer is an int, a Fraction or a float, not Decimal")),
        ("None", (TypeError, "a half-integer is an int, a Fraction or a float, not NoneType")),
    )

    @staticmethod
    def _outcome(value):
        try:
            return doubled(value)
        except (InvalidParameterError, TypeError) as exc:
            return type(exc).__name__, str(exc)

    def test_accepts_and_refuses_exactly_these_types(self):
        class Half(Fraction):
            pass

        for text, expected in self.CASES:
            if isinstance(expected, tuple):
                expected = expected[0].__name__, expected[1]
            assert self._outcome(eval(text, {"math": math, "Fraction": Fraction, "Half": Half,
                                             "Decimal": Decimal})) == expected, text

    def test_the_same_table_holds_where_fractions_was_never_imported(self):
        # each value is built only when its row runs: the rows before the first Fraction run with no fractions loaded
        probe = (
            "import math, sys\n"
            "from hypbranch.exact import doubled\n"
            "assert 'fractions' not in sys.modules and 'decimal' not in sys.modules\n"
            f"for text in {[text for text, _ in self.CASES]!r}:\n"
            "    if 'Fraction' in text or 'Half' in text:\n"
            "        from fractions import Fraction\n"
            "        class Half(Fraction): pass\n"
            "    if 'Decimal' in text:\n"
            "        from decimal import Decimal\n"
            "    try:\n"
            "        print(repr(doubled(eval(text))))\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, str(exc))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(hypbranch.__file__).parents[1]),
                                                                          os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        expected = [f"{e[0].__name__} {e[1]}" if isinstance(e, tuple) else repr(e) for _, e in self.CASES]
        assert out.stdout.splitlines() == expected


class TestHalfText:
    def test_is_str_of_the_fraction(self):
        # every refusal that names a half-integer writes it by half_text, as str(Fraction(x2, 2)) did
        big = [10**100 + k for k in (-3, -2, -1, 0, 1, 2, 3)]
        for x2 in [*range(-1000, 1001), *big, *(-x for x in big)]:
            assert half_text(x2) == str(Fraction(x2, 2)), x2


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

    def test_count_must_be_an_integer(self):
        # int(n) used to truncate 2.5 to the 2-point rule and parse "16"
        for count in (2.5, 16.0, "16"):
            with pytest.raises(TypeError):
                gauss_legendre_rule(count)
        for count in (np.int64(16), np.uint8(16)):
            x, w = gauss_legendre_rule(count)
            assert len(x) == int(count)
            assert x.tobytes() == _legendre_rule(int(count))[0].tobytes()


# Every node count a sphere rule uses in the checked range (multiples of 16 to 416), a few others, and three past
# the range, to 1,088 nodes.
LEGENDRE_COUNTS = [1, 2, 3, 101, *range(16, 417, 16), 544, 800, 1088]


def _mp_legendre(n: int, x0: float):
    """The Gauss-Legendre node nearest x0 and its weight at 40 digits: one Newton step on P_n from x0, which is
    within about 1e-16 of the node, then the weight 2 / ((1 - x^2) P_n'(x)^2) at the stepped node."""
    mp = pytest.importorskip("mpmath")

    def p_and_derivative(x):
        p_prev, p = mp.mpf(0), mp.mpf(1)
        for j in range(1, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (p_prev - x * p) / (1 - x * x)

    with mp.workdps(40):
        x = mp.mpf(x0)
        p, dp = p_and_derivative(x)
        x -= p / dp
        return x, 2 / ((1 - x * x) * p_and_derivative(x)[1] ** 2)


def _written_out_legendre_rule(n: int):
    """The Legendre rule with its own nu = 1/2 Newton loop, as the package wrote it before the pass became
    `numerics._gegenbauer_rows`, from the rule's start and to its stop rule: the reference the shared pass must
    equal bit for bit."""
    four_c = [(2 * k - 2) ** 2 / ((2 * k - 1) * (2 * k - 3)) for k in range(2, n + 1)]
    x = _legendre_start(n)
    for _ in range(100):
        two_x = 2.0 * x
        d_prev, d = np.ones_like(x), two_x
        for c in four_c:
            d_next = two_x * d
            d_next -= c * d_prev
            d_prev, d = d, d_next
        s = 2 * n * d_prev - (2 * n - 1) * x * d
        r, one_minus_x2 = (2 * n - 1) * d / (n * s), (1.0 - x) * (1.0 + x)
        dx = one_minus_x2 * r
        x = x - dx
        if np.all(dx * dx <= 2.0**-56 * one_minus_x2):
            break
    scale = 2 * (2 * n - 1) ** 2 * 16**n / (n * math.comb(2 * n, n)) ** 2
    w = scale * one_minus_x2 / (s * s) * (1.0 + 2.0 * x * r)
    return np.concatenate([-x[: n // 2], x[::-1]]), np.concatenate([w[: n // 2], w[::-1]])


class TestLegendreRule:
    def test_the_shared_pass_is_the_written_out_loop(self):
        # 4c_k of the Gegenbauer pass at nu = 1/2 is the loop's ratio with both terms divided by 4, so every node
        # and weight is the same double; the uncached rule leaves the cache as the other tests find it
        for n in (*range(1, 65), *range(80, 1089, 16)):
            x, w = _legendre_rule.__wrapped__(n)
            x_ref, w_ref = _written_out_legendre_rule(n)
            assert (x.tobytes(), w.tobytes()) == (x_ref.tobytes(), w_ref.tobytes()), n

    def test_one_newton_pass_from_80_nodes(self, monkeypatch):
        # the asymptotic start is within 3.7e-9 of every node in angle from 80 nodes up, so the first step meets the
        # stop rule; below, one more pass does (and one at n = 1 and 77..79)
        passes = []
        rows = numerics._gegenbauer_rows

        def spy(n, nu, x, wanted):
            passes.append(n)
            return rows(n, nu, x, wanted)

        monkeypatch.setattr(numerics, "_gegenbauer_rows", spy)
        for n in range(1, 1089):
            passes.clear()
            _legendre_rule.__wrapped__(n)
            assert len(passes) == (2 if 2 <= n < 77 else 1), n

    def test_the_j0_zeros_match_mpmath(self):
        mp = pytest.importorskip("mpmath")
        assert numerics._J0_ZEROS == tuple(float(mp.besseljzero(0, k)) for k in range(1, 16))

    @pytest.mark.parametrize("n", LEGENDRE_COUNTS)
    def test_mirror_symmetric_bit_for_bit(self, n):
        x, w = gauss_legendre_rule(n)
        assert (np.diff(x) > 0).all() and (w > 0).all()
        assert (x[::-1] == -x).all() and (w[::-1] == w).all()
        assert n % 2 == 0 or x[n // 2] == 0.0

    def test_as_accurate_as_the_parent_rule(self):
        # Against the 40-digit oracle on the 12 largest nodes (where the weights are most sensitive to a node's
        # rounding, 2 / (1 - x^2) relative per unit of node error) and two interior ones.  The rule this replaced
        # (Newton on all n nodes, weights from the last pass's derivative) met the node bound, half an ulp of 1,
        # on these samples, but its largest weight errors grew like 2.5e-17 n^2 (1.2e-13 at n = 101, 3.5e-13 at
        # n = 208, 1.3e-12 at n = 416) and broke the weight bound, 32 eps + 1e-17 n^2, at 17 of these 30 counts
        eps = np.finfo(float).eps
        for n in LEGENDRE_COUNTS:
            x, w = gauss_legendre_rule(n)
            for i in sorted({*range(max(n - 12, 0), n), n // 2, 3 * n // 4}):
                node, weight = _mp_legendre(n, x[i])
                assert abs(float(x[i] - node)) <= eps / 2, (n, i)
                assert abs(float(w[i] / weight - 1)) <= 32 * eps + 1e-17 * n**2, (n, i)


class TestRecurrence:
    def test_is_the_written_out_generator(self):
        # one numpy expression and one cumprod, the same doubles as the per-k Python floats and their running product,
        # at nu = 1/2 (the Legendre rule) and on every sphere S^{n-1} of the range, at every cached length to 432;
        # cached as read-only float64 arrays
        for nu in (0.5, *((n - 2) / 2.0 for n in range(3, 17))):
            for length in range(16, 433, 16):
                four_c = (0.0, 0.0, *((k - 1) * (k + 2 * nu - 2) / ((k + nu - 1) * (k + nu - 2))
                                      for k in range(2, length)))
                norm_sq = [1.0]
                for c in four_c[2:]:
                    norm_sq.append(norm_sq[-1] * c)
                got = numerics._recurrence.__wrapped__(nu, length)
                assert all(part.dtype == np.float64 and not part.flags.writeable for part in got), (nu, length)
                assert (got[0].tolist(), got[1].tolist()) == (list(four_c), norm_sq), (nu, length)


class TestSphereRule:
    @pytest.mark.parametrize("sin_power", [0, 1, 2, 3, 6, 13])
    def test_exact_to_its_degree(self, sin_power):
        # int x^k (1-x^2)^{s/2} dx = B((k+1)/2, s/2 + 1) for even k, 0 for odd k
        for degree in (0, 1, 2, 7, 30, 101):
            x, w = sphere_rule(degree, sin_power)
            assert np.all(w > 0) and np.all(np.abs(x) < 1.0)
            for k in range(degree + 1):
                exact = 0.0 if k % 2 else beta_x2(k + 1, sin_power + 2)
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

    def test_odd_power_rules_are_mirrored_and_match_mpmath(self):
        # every odd-power rule the checked range reads (sin powers 1..13 on S^3..S^15, every lattice count to the
        # degree-804 rule) is symmetric bit for bit, and against the 40-digit cos(pi k / (n + 1)) and
        # pi / (n + 1) sin(pi k / (n + 1))^(s + 1) its nodes are within an ulp of 1 and its weights within 32 eps
        # relative.  The rule this replaced took cosines and sines of angles up to pi: its weights near x = -1 were
        # up to 3.2e3 eps off (n = 368, s = 13)
        mp = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        for sin_power in range(1, MAX_Q - 2, 2):
            for n in sorted({sphere_nodes(2 * top, sin_power) for top in range(MAX_TARGET_DEGREE + 1)}):
                x, w = numerics._sphere_rule(n, sin_power)
                assert len(x) == n and (x[::-1] == -x).all() and (w[::-1] == w).all(), (n, sin_power)
                with mp.workdps(40):
                    for i in range(n // 2, n):  # the non-negative half, the mirror of the rest
                        theta = mp.pi * (n - i) / (n + 1)
                        assert abs(float(x[i] - mp.cos(theta))) <= eps, (n, sin_power, i)
                        weight = mp.pi / (n + 1) * mp.sin(theta) ** (sin_power + 1)
                        assert abs(float(w[i] / weight - 1)) <= 32 * eps, (n, sin_power, i)

    def test_invalid_arguments(self):
        for degree, sin_power in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                sphere_rule(degree, sin_power)


class TestHalfGamma:
    def test_known_values(self):
        assert half_gamma(1) == (1, 1, 1)  # Gamma(1/2) = sqrt(pi)
        assert half_gamma(2) == (1, 1, 0)
        assert half_gamma(10) == (24, 1, 0)
        num, den, r = half_gamma(7)  # Gamma(7/2) = 15/8 sqrt(pi)
        assert (Fraction(num, den), r) == (Fraction(15, 8), 1)
        assert sqrt_pi_ratio(*half_gamma(1)) == math.sqrt(math.pi)
        assert beta_x2(1, 1) == math.pi
        assert beta_x2(4, 4) == 1.0 / 6.0

    def test_domain_error(self):
        for bad in (0, -1, -2):
            with pytest.raises(ValueError):
                half_gamma(bad)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for x2 in range(1, 343):  # Gamma(171.5) is above the float range
            exact = mp.gamma(mp.mpf(x2) / 2)
            assert abs(sqrt_pi_ratio(*half_gamma(x2)) - exact) <= 2.5e-16 * exact, x2

    def test_parts_outside_the_float_range_round_once(self):
        assert sqrt_pi_ratio(10**400 + 1, 3 * 10**400, 2) == math.pi / 3
        assert sqrt_pi_ratio(1, 10**400, 0) == 0.0


class TestRoundingBound:
    def test_bound_covers_the_rounding(self):
        # num / den * sqrt(pi)^r against 60 digits, for every sqrt(pi) power a period or norm can reach
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        rng = np.random.default_rng(3)
        for r in range(-40, 900):
            num, den = (int(v) for v in rng.integers(1, 2**62, size=2))
            den *= 10 ** max(r // 4, 0)  # keeps the result inside the normal range
            value = sqrt_pi_ratio(num, den, r)
            exact = mp.mpf(num) / den * mp.sqrt(mp.pi) ** r
            assert abs(value - exact) <= sqrt_pi_error(value, r), r

    def test_bound_is_a_few_ulps(self):
        assert sqrt_pi_error(1.0, 0) == math.nextafter(4 * 2.0**-53, 1.0)
        assert sqrt_pi_error(-1.0, 7) == sqrt_pi_error(1.0, -7) == math.nextafter(8 * 2.0**-53, 1.0)
        assert sqrt_pi_error(0.0, 5) == 0.0
        # rounded up where the bound itself is subnormal
        assert sqrt_pi_error(sys.float_info.min, 0) > 4 * 2.0**-53 * sys.float_info.min > 0.0

    def test_normal_ratio(self):
        assert normal_ratio("x", 1, (2, 3, 0), (3, 1, 2)) == sqrt_pi_ratio(6, 3, 2) == 2 * math.pi
        assert normal_ratio("x", 1, (0, 1, 0), (1, 10**400, 0)) == 0.0  # an exact zero is printed
        with pytest.raises(ToleranceError, match=r"^tiny 0.0 is not a normal double at degree 3$"):
            normal_ratio("tiny", 3, (1, 10**400, 0))
        with pytest.raises(ToleranceError, match=r"^huge inf is not a normal double at degrees \(4, 2\)$"):
            normal_ratio("huge", (4, 2), (10**400, 1, 0))
        with pytest.raises(ToleranceError, match="is not a normal double"):
            normal_ratio("subnormal", 1, (1, 2**1060, 0))
