"""Named property suites: the module invariants, runnable from the CLI.

Each suite returns a list of (name, passed, detail) tuples and is
deterministic for a fixed seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fjrep, geometry, harmonics, packets, periods
from .exact import half_gamma, sqrt_pi_ratio
from .numerics import gauss_legendre_rule, sphere_rule

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name, passed, detail=""):
    return CheckResult(name, bool(passed), detail)


def quadrature_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for n in (2, 4, 8, 16, 32):
        x, w = gauss_legendre_rule(n)
        ks = np.arange(2 * n)
        # one contiguous row per k: each row sum is the pairwise sum np.sum(w * x**k), bit for bit
        moments = np.sum(w * x ** ks[:, None], axis=1)
        worst = max(worst, float(np.max(np.abs(moments - np.where(ks % 2, 0.0, 2.0 / (ks + 1))))))
    out.append(_result("gauss_legendre_exactness", worst <= 1e-13, f"max err {worst:.2e}"))

    worst = 0.0
    for x2 in rng.integers(1, 343, size=200).tolist():  # math.gamma(x2 / 2) is finite to x2 = 342
        exact = math.gamma(x2 / 2)
        worst = max(worst, abs(sqrt_pi_ratio(*half_gamma(x2)) - exact) / exact)
    out.append(_result("half_gamma_vs_math_gamma", worst <= 1e-14, f"max rel err {worst:.2e}"))

    worst = 0.0
    for a_exp in (0, 1, 2, 3, 5):
        for c_exp in (total - a_exp for total in (-2, -4, -7)):
            value, _ = geometry.radial_integral_numeric(a_exp, c_exp)
            closed = geometry.radial_integral_closed(a_exp, c_exp)
            worst = max(worst, abs(value - closed) / abs(closed))
    out.append(_result("radial_numeric_vs_closed", worst <= 1e-9, f"max rel err {worst:.2e}"))
    return out


def harmonics_suite(seed: int = 0) -> list[CheckResult]:
    out = []
    norm_sq = functools.cache(harmonics.zonal_norm_sq_closed)  # each (degree, sphere) once per run
    worst = 0.0
    for n in (3, 4, 5, 6):
        # Z_0..Z_8 on S^{n-1}, Gegenbauer order (n - 2) / 2: one rule exact to degree 16
        ratios = harmonics.zonal_gram(range(9), range(9), n)
        worst = max(worst, float(np.max(np.triu(ratios, 1))))
    out.append(_result("gegenbauer_orthogonality", worst <= 1e-10, f"max normalized {worst:.2e}"))

    worst = 0.0
    for n in (4, 5, 6):
        # every subsphere pairing of degrees a, b < 7 by quadrature, against its exact value
        x, w = sphere_rule(12, n - 4)
        subs = [harmonics.sphere_area(n - 2) * w * harmonics.gegenbauer(b, (n - 3) / 2.0, x) for b in range(7)]
        for a in range(7):
            zonal = harmonics.gegenbauer(a, (n - 2) / 2.0, x)
            for b, sub in enumerate(subs):
                scale = math.sqrt(norm_sq(a, n) * norm_sq(b, n - 1))
                worst = max(worst, abs(float(zonal @ sub) - harmonics.pairing_subsphere(a, b, n)) / scale)
    out.append(_result("pairing_exact_vs_quadrature", worst <= 1e-12, f"max normalized {worst:.2e}"))

    worst = 0.0
    for n in (4, 5, 6):
        for a in range(9):
            # |Z_a|^2 by quadrature on the sphere rule exact to degree 2a, against its closed form
            x, w = sphere_rule(2 * a, n - 3)
            quadrature = float(harmonics.gegenbauer(a, (n - 2) / 2.0, x) ** 2 @ (harmonics.sphere_area(n - 1) * w))
            closed = norm_sq(a, n)
            worst = max(worst, abs(closed - quadrature) / closed)
    out.append(_result("zonal_norm_closed_vs_quadrature", worst <= 1e-10, f"max rel {worst:.2e}"))

    ok = all(
        nonzero == periods._nonvanishing(fjrep.SpaceTag.G2_SPACE, a, b)
        for n in (4, 5, 6)
        for a in range(7)
        for b, nonzero in enumerate(harmonics.ktype_pairings_nonzero(a, range(7), n))
    )
    out.append(_result("ktype_witness_matches_branching", ok))
    return out


def decay_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    combos = [(4, 4, 2), (4, 4, 4), (4, 4, 6), (4, 6, 4), (4, 6, 6), (4, 6, 8), (5, 5, 2), (5, 5, 4), (4, 5, 3)]
    bound_ok = True
    params = [fjrep.FJParam(p, q, lam_x2) for p, q, lam_x2 in combos]
    rates = np.array([-float(param.decay_exponent) for param in params])
    xs, fit_ts, log_vals = np.linspace(-1.0, 1.0, 2001), np.linspace(2.0, 10.0, 64), []
    for param, rate in zip(params, rates.tolist()):
        max_f = float(np.max(np.abs(harmonics.gegenbauer(param.degree, (param.q - 2) / 2.0, xs))))
        c_const = 2.0**rate * max_f
        # 100 random points per parameter, from one draw of directions and one of t
        vecs = rng.normal(size=(100, param.q))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ts = rng.uniform(1.0, 10.0, size=100)
        if np.any(np.abs(harmonics.fj_eval(param, vecs, ts)) > c_const * np.exp(-rate * ts) + 1e-12):
            bound_ok = False
        pole = np.zeros(param.q)
        pole[-1] = 1.0
        log_vals.append(np.log(np.abs(harmonics.fj_eval(param, pole, fit_ts))))
    # the nine log-slopes share their abscissa: one least-squares fit, one column each
    rels = np.abs(np.polyfit(fit_ts, np.array(log_vals).T, 1)[0] + rates) / rates
    detail = " ".join(f"{param.p},{param.q},{param.lam}:{rel:.4f}" for param, rel in zip(params, rels))
    return [
        _result("decay_bound", bound_ok, "C = 2^rate * max|f_a|"),
        _result("decay_log_slope_2pct", not np.any(rels > 0.02), detail),
    ]


def branching_suite(seed: int = 0) -> list[CheckResult]:
    # doubled lambda in {1, 3/2, 2, 3}
    grid_x2 = (2, 3, 4, 6)
    # (numeric verdict, predicate, interlace class) of every target, read off the scans' columns: nothing is rounded
    rows = {"g1": [], "g2": []}
    for p in (4, 5, 6):
        for q in (4, 5, 6):
            for lam_x2 in [t for t in fjrep.valid_lambdas_x2(p, q, 6) if t in grid_x2]:
                for sub in ("g1", "g2"):
                    tag = fjrep.SpaceTag(sub)
                    # targets of degree <= 6 and doubled value <= 2 (a + 8) for the ambient degree a
                    max_twice = min(
                        fjrep.degree_x2(p, q, lam_x2, fjrep.SpaceTag.G_ON_H) + 16,
                        12 - fjrep.degree_x2(p, q, 0, tag),
                    )
                    targets_x2 = fjrep.valid_lambdas_x2(p, q, max_twice, tag)
                    scan, interlaces = periods.branch_scan_x2(p, q, lam_x2, sub, targets_x2)
                    rows[sub] += zip(scan.nonzeros, scan.predicates, interlaces)
    g1, g2 = rows["g1"], rows["g2"]
    finite = all((cls is packets.InterlaceClass.FINITE_TYPE) == predicate for _, predicate, cls in g2)
    type_1 = all(cls is packets.InterlaceClass.INFINITE_TYPE_1 for _, predicate, cls in g1 if predicate)
    return [
        _result("g2_period_matches_predicate", all(nonzero == predicate for nonzero, predicate, _ in g2)),
        _result("g1_period_matches_predicate", all(nonzero == predicate for nonzero, predicate, _ in g1)),
        _result("g2_finite_interlacing_equivalence", finite),
        _result("g1_nonzero_implies_infinite_type_1", type_1),
    ]


def packets_suite(seed: int = 0) -> list[CheckResult]:
    out = []
    forms = packets.pure_inner_forms(packets.RealForm(3, 3))
    out.append(
        _result(
            "pure_inner_forms_constant_total",
            all(f.total == 6 for f in forms)
            and [(f.p_sig, f.q_sig) for f in forms] == [(1, 5), (3, 3), (5, 1)],
        )
    )

    rows_ok = all(
        sum(packets.admissibility_table(member, sub) for sub in ("g1", "g2")) == 1
        for member in ("s", "as")
    )
    cols_ok = all(
        sum(packets.admissibility_table(member, sub) for member in ("s", "as")) == 1
        for sub in ("g1", "g2")
    )
    out.append(_result("admissibility_one_per_row_and_column", rows_ok and cols_ok))
    return out


def conjecture_suite(seed: int = 0) -> list[CheckResult]:
    grid = [Fraction(t, 2) for t in range(1, 16)]
    ok = all(
        packets.conjecture_explore(p, q, lam, sub, grid).disjoint
        for p, q in ((4, 4), (4, 6))
        for lam in fjrep.valid_lambdas(p, q, 2 * (p + q))[:5]  # the first five lambda of X(p, q)
        for sub in ("g1", "g2")
    )
    return [_result("default_predicate_supports_disjoint", ok)]


SUITES = {
    "quadrature": quadrature_suite,
    "harmonics": harmonics_suite,
    "decay": decay_suite,
    "branching": branching_suite,
    "packets": packets_suite,
    "conjecture": conjecture_suite,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite_name in SUITES:
            results.extend(run_suite(suite_name, seed))
        return results
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed)
