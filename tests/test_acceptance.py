"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hypbranch.errors import DivergenceError, InvalidParameterError
from hypbranch.exact import doubled
from hypbranch.fjrep import SpaceTag, is_self_dual, l2_norm_sq, make_fj_param
from hypbranch.harmonics import fj_eval, ktype_pairing_nonzero
from hypbranch.packets import (
    InterlaceClass,
    RealForm,
    admissibility_table,
    arthur_packet,
    conjecture_explore,
    pure_inner_forms,
    relevant_pairs,
)
from hypbranch.periods import (
    interlace_class_for_pair,
    nonvanishing_G1,
    nonvanishing_G2,
    period_integral_G1,
    period_integral_G2,
    valid_targets,
)
from block_estimates import block_decompose, ellipsoid_gap, scale
from coset_oracle import WeylGroup, double_cosets_brute
from geometry_oracle import radial_integral_closed, radial_integral_numeric, radial_integral_truncated
from group_elements import random_group_element
from witness_oracle import zonal_norm_sq_closed


def H(twice):
    return Fraction(twice, 2)


def report(number, name, passed):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_01_radial_oracle():
    start = time.monotonic()
    ok = True
    for a_exp, c_exp in ((1, -3), (3, -7), (0, -2), (5, -9)):
        value, _ = radial_integral_numeric(a_exp, c_exp)
        closed = radial_integral_closed(a_exp, c_exp)
        ok &= abs(value - closed) <= 1e-9 * abs(closed)
    elapsed = time.monotonic() - start
    report(1, "radial numeric matches Beta closed form", ok and elapsed < 1.0)


def test_criterion_02_square_integrability_boundary():
    ok = True
    for lam in (1, 2, 3):
        param = make_fj_param(4, 4, lam)
        value = l2_norm_sq(param)
        ok &= math.isfinite(value) and value > 0
        c_exp = float(3 + 2 * param.decay_exponent)
        vals = [radial_integral_truncated(3, c_exp, t) for t in (5, 10, 20)]
        d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        ok &= d2 < 0.1 * max(d1, 1e-300) and d2 <= 1e-7 * abs(vals[2])
    # at lambda = 0 the radial convergence precondition fails exactly
    exponent_at_zero = 3 + 2 * (1 - 4)  # a_exp + c_exp = 0 at lambda = 0
    try:
        radial_integral_closed(3, exponent_at_zero)
        boundary_fails = False
    except DivergenceError:
        boundary_fails = True
    # any positive lambda restores convergence (threshold is exactly 0)
    converged_above = radial_integral_closed(3, exponent_at_zero - 2e-6) > 0
    report(2, "L2 finite for lambda in {1,2,3}, boundary fails at lambda = 0", ok and boundary_fails and converged_above)


def test_criterion_03_decay_bound_slope():
    start = time.monotonic()
    combos = [
        (4, 4, 1), (4, 4, 2), (4, 4, 3),
        (4, 6, 2), (4, 6, 3), (4, 6, 4),
        (5, 5, 1), (5, 5, 2), (4, 5, H(3)),
    ]
    assert len(combos) == 9
    ok = True
    for p, q, lam in combos:
        param = make_fj_param(p, q, lam)
        rate = -float(param.decay_exponent)
        assert rate == float(lam) - 1 + (p + q) / 2
        ts = np.linspace(2.0, 10.0, 80)
        pole = np.zeros(q)
        pole[-1] = 1.0
        slope = np.polyfit(ts, np.log(np.abs(fj_eval(param, pole, ts))), 1)[0]
        ok &= abs(slope + rate) / rate <= 0.02
    elapsed = time.monotonic() - start
    report(3, "log-slope of |F| equals decay exponent within 2%", ok and elapsed < 5.0)


def test_criterion_04_compact_branching():
    start = time.monotonic()
    ok = True
    for n in (4, 5, 6):
        for a in range(7):
            for b in range(7):
                nonzero, _ = ktype_pairing_nonzero(a, b, n)
                ok &= nonzero == (0 <= b <= a)
    elapsed = time.monotonic() - start
    report(4, "witness pairing nonzero iff 0 <= b <= a", ok and elapsed < 60.0)


def test_criterion_05_g2_branching_support():
    ok = True
    # (4,4), lambda = 2: nonzero exactly for mu_x2 in {1, 3}
    lam = 2
    nonzero_set = []
    for twice in (1, 3, 5, 7, 9):
        v = period_integral_G2(4, 4, lam, H(twice), use_witness=True)
        ok &= v.nonzero == v.predicate_nonzero
        if v.nonzero:
            nonzero_set.append(twice)
        else:
            # zero cases sit below the scale-free 1e-8 threshold
            a, b = v.degree_a, v.degree_target
            scope = math.sqrt(zonal_norm_sq_closed(a, 4) * zonal_norm_sq_closed(b, 3))
            ok &= abs(v.pairing_factor) <= 1e-8 * scope or not v.witness_used
    ok &= nonzero_set == [1, 3]
    # (4,6), lambda = 3: the valid scan values are mu_x2 in {3,5,7,9} with
    # nonzero exactly {3, 5}; mu_x2 = 1 has degree -1 and is rejected
    lam = 3
    with pytest.raises(InvalidParameterError):
        make_fj_param(4, 6, H(1), SpaceTag.G2_SPACE)
    nonzero_set = []
    for twice in (3, 5, 7, 9):
        v = period_integral_G2(4, 6, lam, H(twice), use_witness=True)
        ok &= v.nonzero == v.predicate_nonzero
        if v.nonzero:
            nonzero_set.append(twice)
    ok &= nonzero_set == [3, 5]
    report(5, "G2 periods nonzero exactly on the inequality support", ok)


G1_GRIDS = {
    (5, 4): [H(3), H(5), H(7)],   # degrees 1, 2, 3
    (5, 6): [H(5), H(7), H(9)],   # degrees 1, 2, 3
}


def test_criterion_06_g1_branching_support():
    ok = True
    # integer lambda at these signatures has half-integral degree: invalid
    for (p, q) in G1_GRIDS:
        for lam_int in (1, 2, 3):
            with pytest.raises(InvalidParameterError):
                make_fj_param(p, q, lam_int)
    for (p, q), lambdas in G1_GRIDS.items():
        for lam in lambdas:
            expected = lam + H(1)
            for nu in valid_targets(p, q, "g1", doubled(expected) + 6):
                v = period_integral_G1(p, q, lam, nu)
                ok &= v.nonzero == (nu == expected) == v.predicate_nonzero
                if nu != expected:
                    a, c = v.degree_a, v.degree_target
                    scope = math.sqrt(zonal_norm_sq_closed(a, q) * zonal_norm_sq_closed(c, q))
                    ok &= abs(v.pairing_factor) <= 1e-10 * scope
    report(6, "G1 periods nonzero iff nu = lambda + 1/2 (delta orthogonality)", ok)


def test_criterion_07_interlacing_equivalence():
    ok = True
    for p, q, lam, grid in (
        (4, 4, 2, (1, 3, 5, 7, 9)),
        (4, 6, 3, (3, 5, 7, 9)),
    ):
        for twice in grid:
            mu = H(twice)
            finite = interlace_class_for_pair(p, q, lam, mu, "g2") is InterlaceClass.FINITE_TYPE
            ok &= finite == nonvanishing_G2(p, q, lam, mu)
    for (p, q), lambdas in G1_GRIDS.items():
        for lam in lambdas:
            nu = lam + H(1)
            if nonvanishing_G1(p, q, lam, nu):
                cls = interlace_class_for_pair(p, q, lam, nu, "g1")
                ok &= cls is InterlaceClass.INFINITE_TYPE_1
            else:
                ok = False
    report(7, "FiniteType == G2 predicate; G1 support is InfiniteType1", ok)


def test_criterion_08_double_coset_count():
    start = time.monotonic()
    ok = True
    for p, q in ((4, 4), (4, 6), (6, 6)):
        m = (p + q) // 2
        left = (WeylGroup("D", p // 2), WeylGroup("D", q // 2))
        mid, right = WeylGroup("D", m), WeylGroup("D", m - 1)
        fast = arthur_packet(p, q, 1)
        ok &= fast["size"] == 2
        ok &= fast["coset_space_size"] == 2 * ((p + q) // 2)
        ok &= double_cosets_brute(left, mid, right) == 2
    elapsed = time.monotonic() - start
    report(8, "double-coset count 2 (brute force) with coset space 2*floor((p+q)/2)", ok and elapsed < 60.0)


def test_criterion_09_so33_example():
    forms = [(f.p_sig, f.q_sig) for f in pure_inner_forms(RealForm(3, 3))]
    ok = forms == [(1, 5), (3, 3), (5, 1)]
    pairs = relevant_pairs(RealForm(3, 3), "drop_p")
    ok &= pairs == [
        (RealForm(0, 5), RealForm(1, 5)),
        (RealForm(2, 3), RealForm(3, 3)),
        (RealForm(4, 1), RealForm(5, 1)),
    ]
    report(9, "pure inner forms and relevant pairs of SO(3,3)", ok)


def test_criterion_10_admissibility_and_disjointness():
    ok = True
    for member in ("s", "as"):
        ok &= sum(admissibility_table(member, s) for s in ("g1", "g2")) == 1
    for sub in ("g1", "g2"):
        ok &= sum(admissibility_table(m, sub) for m in ("s", "as")) == 1
    grid = [H(t) for t in range(1, 16)]
    for p, q in ((4, 4), (4, 6)):
        for lam in (1, H(3), 2, H(5), 3):
            for sub in ("g1", "g2"):
                ok &= conjecture_explore(p, q, lam, sub, grid).disjoint
    report(10, "admissibility one per row/column; default supports disjoint", ok)


def test_criterion_11_ellipsoid_and_scale():
    rng = np.random.default_rng(2357)
    ok = True
    for _ in range(100):
        g = random_group_element(4, 4, rng)
        blocks = block_decompose(g, 4, 4)
        q_min, bound = ellipsoid_gap(blocks)
        yp = rng.normal(size=(10_000, 4))
        yp /= np.linalg.norm(yp, axis=1, keepdims=True)
        ypp = rng.normal(size=(10_000, 4))
        ypp /= np.linalg.norm(ypp, axis=1, keepdims=True)
        sampled = float(np.min(np.linalg.norm(yp @ blocks.a3.T + ypp @ blocks.a4.T, axis=1)))
        ok &= q_min <= sampled + 1e-9
        ok &= q_min >= bound
    for _ in range(100):
        g1 = random_group_element(4, 4, rng)
        g2 = random_group_element(4, 4, rng)
        ok &= abs(scale(g1, 4, 4) - scale(np.linalg.inv(g1), 4, 4)) <= 1e-7 * scale(g1, 4, 4)
        ok &= scale(g1 @ g2, 4, 4) <= scale(g1, 4, 4) * scale(g2, 4, 4) * (1 + 1e-12)
    report(11, "ellipsoid gap bounds and scale identities on random elements", ok)


def test_criterion_12_self_duality():
    ok = True
    for p in (4, 5, 6):
        for q in (4, 5, 6):
            for twice in range(1, 7):
                try:
                    param = make_fj_param(p, q, H(twice))
                except InvalidParameterError:
                    continue
                ok &= is_self_dual(param)
    report(12, "self-duality on the full valid grid p,q in {4,5,6}, lambda <= 3", ok)
