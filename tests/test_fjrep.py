import math
from fractions import Fraction

import numpy as np
import pytest

from hypbranch.errors import DivergenceError, InvalidParameterError, ToleranceError
from hypbranch import fjrep
from hypbranch.exact import doubled
from hypbranch.fjrep import SpaceTag, inf_char, is_self_dual, l2_norm_sq, make_fj_param
from hypbranch.harmonics import fj_eval, gegenbauer
from hypbranch.packets import conjecture_explore
from hypbranch.periods import valid_targets
from coset_oracle import weyl_conjugate
from geometry_oracle import radial_integral_closed, radial_integral_truncated
from witness_oracle import sphere_area, zonal_norm_sq_closed


def H(twice):
    return Fraction(twice, 2)


def valid_lambdas(p, q, tag=SpaceTag.G_ON_H, max_twice=8):
    out = []
    for twice in range(1, max_twice + 1):
        try:
            out.append(make_fj_param(p, q, H(twice), tag).lam)
        except InvalidParameterError:
            continue
    return out


class TestMakeParam:
    def test_basic_example(self):
        p = make_fj_param(4, 4, 2)
        assert p.degree == 1
        assert p.decay_exponent == -5

    def test_lambda_positive(self):
        with pytest.raises(InvalidParameterError, match="lambda"):
            make_fj_param(4, 4, 0)
        with pytest.raises(InvalidParameterError):
            make_fj_param(4, 4, -1)

    def test_four_six(self):
        p = make_fj_param(4, 6, 2)
        assert p.degree == 0
        assert p.decay_exponent == -6

    def test_non_integral_degree_rejected(self):
        with pytest.raises(InvalidParameterError, match="degree"):
            make_fj_param(4, 6, H(1))  # a = -3/2
        with pytest.raises(InvalidParameterError, match="degree"):
            make_fj_param(5, 4, 2)  # a = 3/2

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidParameterError, match="degree"):
            make_fj_param(4, 6, 1)  # a = -1

    def test_standing_assumption(self):
        with pytest.raises(InvalidParameterError):
            make_fj_param(3, 4, 2)

    def test_min_ktype_equals_degree(self):
        for p in (4, 5, 6):
            for q in (4, 5, 6):
                for tag in SpaceTag:
                    for lam in valid_lambdas(p, q, tag):
                        param = make_fj_param(p, q, lam, tag)
                        assert param.to_json_dict()["min_ktype_x2"] == 2 * param.degree

    def test_subgroup_tags_shift_signature(self):
        p = make_fj_param(4, 4, H(5), SpaceTag.G1_SPACE)
        assert p.space_signature == (3, 4)
        assert p.degree == 1
        p = make_fj_param(4, 4, H(3), SpaceTag.G2_SPACE)
        assert p.space_signature == (4, 3)
        assert p.degree == 1

    def test_tag_given_by_its_value(self):
        # FJParam converts the tag itself, as make_fj_param always did
        by_value = fjrep.FJParam(4, 4, 5, "g1")
        assert by_value == make_fj_param(4, 4, 2.5, "g1") == fjrep.FJParam(4, 4, 5, SpaceTag.G1_SPACE)
        assert by_value.tag is SpaceTag.G1_SPACE and by_value.space_signature == (3, 4)
        assert [str(e) for e in inf_char(by_value)] == [str(e) for e in inf_char(make_fj_param(4, 4, 2.5, "g1"))]
        assert [str(e) for e in inf_char(by_value)] == ["6", "5/2", "3/2"]
        # a tag that is already a SpaceTag is used as it is; one given by its value is looked up, in degree_x2 too
        for tag in SpaceTag:
            assert fjrep.degree_x2(4, 6, 9, tag.value) == fjrep.degree_x2(4, 6, 9, tag), tag
        with pytest.raises(ValueError):
            fjrep.FJParam(4, 4, 5, "g3")
        with pytest.raises(ValueError):
            fjrep.degree_x2(4, 4, 5, "g3")


class TestEval:
    def test_t_zero_reduces_to_harmonic(self):
        # the zonal harmonic about the last axis: C_1^1 of the last coordinate
        param = make_fj_param(4, 4, 2)
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = rng.normal(size=4)
            v /= np.linalg.norm(v)
            assert fj_eval(param, v, 0.0) == pytest.approx(gegenbauer(1, 1.0, v[-1]), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("length", [3, 5])
    def test_wrong_length_rejected(self, length):
        param = make_fj_param(4, 4, 2)
        y = np.zeros(length)
        y[-1] = 1.0
        with pytest.raises(ValueError):
            fj_eval(param, y, 0.0)
        with pytest.raises(InvalidParameterError):
            fj_eval(param, np.tile(y, (2, 1)), np.zeros(2))

    def test_pole_value(self):
        param = make_fj_param(4, 4, 2)
        pole = np.array([0.0, 0.0, 0.0, 1.0])
        assert fj_eval(param, pole, 1.0) == pytest.approx(2.0 * math.cosh(1.0) ** -5, rel=1e-13)

    def test_degree_zero_constant_in_sphere(self):
        param = make_fj_param(4, 6, 2)
        rng = np.random.default_rng(2)
        vals = set()
        for _ in range(5):
            v = rng.normal(size=6)
            v /= np.linalg.norm(v)
            vals.add(round(fj_eval(param, v, 0.7), 12))
        assert len(vals) == 1


class TestL2Norm:
    def test_factored_value(self):
        # oracle: area(S^3) * |f_1|^2_{S^3} * R(3, -7) = 2pi^2 * 2pi^2 / 12
        param = make_fj_param(4, 4, 2)
        assert l2_norm_sq(param) == pytest.approx(math.pi**4 / 3.0, rel=1e-10)

    def test_below_the_normal_range_refuses(self):
        # the exact factors of X(400, 4) are normal, but the norm is 1.3e-393
        param = make_fj_param(400, 4, 200)
        with pytest.raises(ToleranceError, match="L2 norm 0.0 is not a normal double at degree 397"):
            l2_norm_sq(param)

    def test_finite_on_lambda_grid(self):
        # lambda in {1/2, 1, ..., 4} restricted to integral degree
        for p, q in ((4, 4), (5, 4), (4, 5), (5, 5)):
            for twice in range(1, 9):
                lam = H(twice)
                try:
                    param = make_fj_param(p, q, lam)
                except InvalidParameterError:
                    continue
                value = l2_norm_sq(param)
                assert math.isfinite(value) and value > 0

    @pytest.mark.parametrize("p, q", [(4, 4), (5, 9), (9, 6), (16, 4), (4, 16), (16, 16)])
    def test_closed_form_in_checked_range(self, p, q):
        # sphere_area(p) |f_a|^2 R(p-1, q-1+2e), harmonic degree up to 400
        for a in (0, 4, 16, 100, 400):
            if 2 * a + 2 <= p - q:
                continue  # lambda would not be positive
            param = make_fj_param(p, q, H(2 * a + 2 - (p - q)))
            e_x2 = doubled(param.decay_exponent)
            closed = (
                sphere_area(p)
                * zonal_norm_sq_closed(a, q)
                * radial_integral_closed(p - 1, q - 1 + e_x2)
            )
            assert l2_norm_sq(param) == pytest.approx(closed, rel=1e-10)

    def test_against_mpmath_in_checked_range(self):
        # sphere area, Gegenbauer-orthogonality zonal norm and Wallis factor, at 40 digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40

        def area(n):
            return 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)

        worst = 0.0
        for p in (4, 5, 7, 10, 13, 16):
            for q in (4, 5, 6, 9, 12, 16):
                for a in (0, 1, 2, 3, 17, 64, 101, 255, 398, 399, 400):
                    if 2 * a + 2 <= p - q:
                        continue  # lambda would not be positive
                    param = make_fj_param(p, q, H(2 * a + 2 - (p - q)))
                    nu = mp.mpf(q - 2) / 2
                    zonal = area(q - 1) * mp.pi * 2 ** (1 - 2 * nu) * mp.gamma(a + 2 * nu) / (
                        mp.factorial(a) * (a + nu) * mp.gamma(nu) ** 2
                    )
                    radial = mp.beta(mp.mpf(p) / 2, mp.mpf(param.lam_x2) / 2) / 2
                    exact = area(p) * zonal * radial
                    worst = max(worst, float(abs(l2_norm_sq(param) - exact) / exact))
        assert worst <= 1e-15

    def test_truncation_cauchy(self):
        # radial truncations settle; final step below 1e-7 relative
        for lam_twice in (2, 4, 6):
            param = make_fj_param(4, 4, H(lam_twice))
            c_exp = float(3 + 2 * param.decay_exponent)
            vals = [radial_integral_truncated(3, c_exp, t) for t in (5, 10, 20)]
            d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
            assert d2 < 0.1 * max(d1, 1e-300)
            assert d2 <= 1e-7 * abs(vals[2])

    def test_lambda_zero_breaks_radial_precondition(self):
        # at lambda = 0 the radial exponents sum to zero and convergence fails
        e_at_zero = 1 - (4 + 4) // 2
        with pytest.raises(DivergenceError):
            radial_integral_closed(3, 3 + 2 * e_at_zero)


class TestInfChar:
    def test_ambient_display(self):
        param = make_fj_param(4, 4, 2)
        assert [doubled(e) for e in inf_char(param)] == [12, 6, 4, 2]

    def test_subgroup_display(self):
        param = make_fj_param(4, 4, H(5), SpaceTag.G1_SPACE)
        assert [str(e) for e in inf_char(param)] == ["6", "5/2", "3/2"]

    def test_odd_total_length(self):
        param = make_fj_param(5, 4, H(3))
        entries = inf_char(param)
        assert len(entries) == 4
        assert entries[0] == 6


class TestSelfDual:
    def test_even_total_example(self):
        assert is_self_dual(make_fj_param(4, 4, 2))

    def test_odd_total_example(self):
        assert is_self_dual(make_fj_param(4, 5, H(3)))

    def test_full_valid_grid(self):
        for p in (4, 5, 6):
            for q in (4, 5, 6):
                for lam in valid_lambdas(p, q, max_twice=6):
                    assert is_self_dual(make_fj_param(p, q, lam)), (p, q, lam)

    @staticmethod
    def _weyl_orbit(total, lam_x2):
        # the oracle: negation-conjugacy of the standard-coordinate character
        # (each displayed entry minus one) in the Weyl group of type B or D
        entries = [H(e - 2) for e in fjrep.inf_char_x2(total, lam_x2)]
        return weyl_conjugate(entries, [-v for v in entries], "B" if total % 2 else "D")

    def test_closed_form_matches_weyl_orbit(self):
        for total in range(3, 41):
            for lam_x2 in range(1, 61):
                assert fjrep._self_dual(total, lam_x2) == self._weyl_orbit(total, lam_x2), (total, lam_x2)

    def test_closed_form_matches_weyl_orbit_on_valid_parameters(self):
        for p in range(4, 17):
            for q in range(4, 17):
                for tag in SpaceTag:
                    for lam in fjrep.valid_lambdas(p, q, 60, tag):
                        param = make_fj_param(p, q, lam, tag)
                        assert is_self_dual(param) == self._weyl_orbit(param.total, param.lam_x2), (p, q, tag, lam)


class TestDecay:
    def test_bound_and_slope(self):
        rng = np.random.default_rng(17)
        for p, q, lam in ((4, 4, 2), (4, 6, 3), (5, 5, 1)):
            param = make_fj_param(p, q, lam)
            rate = -float(param.decay_exponent)
            grid = np.linspace(-1, 1, 2001)
            c_const = 2.0**rate * float(np.max(np.abs(gegenbauer(param.degree, (q - 2) / 2, grid))))
            for _ in range(100):
                v = rng.normal(size=q)
                v /= np.linalg.norm(v)
                t = rng.uniform(1.0, 10.0)
                assert abs(fj_eval(param, v, t)) <= c_const * math.exp(-rate * t) + 1e-12
            ts = np.linspace(2, 10, 64)
            pole = np.zeros(q)
            pole[-1] = 1.0
            slope = np.polyfit(ts, np.log(np.abs(fj_eval(param, pole, ts))), 1)[0]
            assert abs(slope + rate) / rate < 0.02


class TestSerialization:
    def test_json_dict_fields(self):
        payload = make_fj_param(4, 4, 2).to_json_dict()
        assert payload["p"] == 4
        assert payload["lambda_x2"] == 4
        assert payload["a"] == 1
        assert payload["exponent_x2"] == -10
        assert payload["min_ktype_x2"] == 2
        assert payload["inf_char_x2"] == [12, 6, 4, 2]
        assert payload["self_dual"] is True
        assert payload["l2_norm_sq"] == pytest.approx(math.pi**4 / 3.0, rel=1e-9)


class TestFractionOutputs:
    def test_public_half_integers_are_fractions(self):
        # every public half-integer output, against the values and printed forms
        # it had as the former hand-rolled half-integer type
        param = make_fj_param(4, 5, H(3))
        report = conjecture_explore(4, 4, 2, "g1", [H(t) for t in range(1, 10)])
        outputs = {
            "lam": ([param.lam], ["3/2"]),
            "decay_exponent": ([param.decay_exponent], ["-5"]),
            "inf_char": (inf_char(param), ["6", "7/2", "5/2", "3/2"]),
            "valid_lambdas": (fjrep.valid_lambdas(4, 4, 7), ["1", "2", "3"]),
            "valid_targets": (valid_targets(4, 4, "g2", 7), ["1/2", "3/2", "5/2", "7/2"]),
            "support_s": (report.support_s, ["5/2"]),
            "support_as": (report.support_as, ["1/2", "3/2"]),
        }
        for name, (values, printed) in outputs.items():
            assert all(type(v) is Fraction for v in values), name
            assert [str(v) for v in values] == printed, name
        assert param.lam_x2 == 3 and param.lam == 1.5
        assert param.decay_exponent == -5 and hash(param.decay_exponent) == hash(-5.0)
