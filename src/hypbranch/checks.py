"""Named property suites: the module invariants, runnable from the CLI.

Each suite returns a list of (name, passed, detail) tuples and is
deterministic for a fixed seed.  A detail states the bound a property is held
to, not the figure measured, so no line moves with the last digits of numpy,
libm or the random generator.

The seeded draws come from the standard library's ``random.Random(seed)``, which
numpy's import already loads; ``numpy.random`` would add a dozen modules and
about 6 MB to each process that checks.  ``decay`` turns one ``randbytes`` call's
4-byte words into uniforms, and those into Gaussian directions by Box-Muller.

Each suite imports what it certifies when it runs: ``quadrature`` and ``decay``
load neither ``periods`` nor ``packets``.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from . import fjrep
from .exact import half_gamma, half_text, sqrt_pi_ratio
from .numerics import gauss_legendre_rule

__all__ = ["CheckResult", "SUITES", "run_suite"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _result(name, passed, detail=""):
    return CheckResult(name, bool(passed), detail)


def _legendre_moments(n: int) -> np.ndarray:
    """The moments of the n-point Gauss-Legendre rule for k < 2n: each is np.sum(w * x**k), bit for bit.

    The powers are one table, x ** ks[:, None], summed one contiguous row per k.  numpy squares x for a scalar
    exponent 2, but an array of exponents goes through its general power routine, whose x ** 2.0 is not always x * x,
    so the k = 2 row is x * x.
    """
    x, w = gauss_legendre_rule(n)
    powers = x ** np.arange(2.0 * n)[:, None]
    powers[2] = x * x
    return np.sum(w * powers, axis=1)


def quadrature_suite(seed: int = 0) -> list[CheckResult]:
    out = []
    worst = 0.0
    for n in (2, 4, 8, 16, 32):
        ks = np.arange(2 * n)
        worst = max(worst, float(np.max(np.abs(_legendre_moments(n) - np.where(ks % 2, 0.0, 2.0 / (ks + 1))))))
    out.append(_result("gauss_legendre_exactness", worst <= 1e-13, "max err <= 1e-13"))

    worst = 0.0
    # math.gamma(x2 / 2) is finite to x2 = 342; the worst error is over the distinct draws, each evaluated once
    for x2 in set(random.Random(seed).choices(range(1, 343), k=200)):
        exact = math.gamma(x2 / 2)
        worst = max(worst, abs(sqrt_pi_ratio(*half_gamma(x2)) - exact) / exact)
    out.append(_result("half_gamma_vs_math_gamma", worst <= 1e-14, "max rel err <= 1e-14"))
    return out


def harmonics_suite(seed: int = 0) -> list[CheckResult]:
    from . import harmonics, periods

    out = []
    worst = 0.0
    for n in (3, 4, 5, 6):
        # Z_0..Z_8 on S^{n-1}, Gegenbauer order (n - 2) / 2: one rule exact to degree 16
        ratios = harmonics.zonal_gram(range(9), range(9), n)
        worst = max(worst, float(np.max(np.triu(ratios, 1))))
    out.append(_result("gegenbauer_orthogonality", worst <= 1e-10, "max normalized <= 1e-10"))

    ok = all(
        nonzero == periods._nonvanishing(fjrep.SpaceTag.G2_SPACE, a, b)
        for n in (4, 5, 6)
        for a in range(7)
        for b, nonzero in enumerate(harmonics.ktype_pairings_nonzero(a, range(7), n))
    )
    out.append(_result("ktype_witness_matches_branching", ok))
    return out


_DECAY_COMBOS = ((4, 4, 2), (4, 4, 4), (4, 4, 6), (4, 6, 4), (4, 6, 6), (4, 6, 8), (5, 5, 2), (5, 5, 4), (4, 5, 3))


def _gegenbauer_at_one(a: int, nu: float) -> float:
    """C_a^nu(1) = (2nu)_a / a! (DLMF 18.14(i)), the max of |C_a^nu| on [-1, 1] for nu > 0, at integral 2nu."""
    return float(math.comb(a + round(2 * nu) - 1, a))


def _log_slopes(ts: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """The least-squares slope of each row of `logs` against the shared abscissa `ts`, in closed form:
    sum((t - mean t)(y - mean y)) / sum((t - mean t)^2).  A stacked np.polyfit gives the same slopes to 2e-16
    relative, but its first call, LAPACK's least squares, adds about 1.2 MB to peak RSS."""
    dt = ts - ts.mean()
    return (logs - logs.mean(axis=1, keepdims=True)) @ dt / (dt @ dt)


def decay_suite(seed: int = 0) -> list[CheckResult]:
    from . import harmonics

    params = [fjrep.FJParam(p, q, lam_x2) for p, q, lam_x2 in _DECAY_COMBOS]
    qs = np.array([param.q for param in params])
    rates = np.array([fjrep.decay_x2(param.total, param.lam_x2) for param in params]) / -2.0
    c_consts = 2.0**rates * np.array([_gegenbauer_at_one(param.degree, (param.q - 2) / 2.0) for param in params])
    # parameter i's 100 random points y', then 64 on its zonal pole (the last axis), in its last q_i columns
    ys = np.zeros((len(params), 164, qs.max()))
    inside = np.broadcast_to(np.arange(-qs.max(), 0) >= -qs[:, None, None], (len(params), 100, qs.max()))
    # one draw of uniforms in [0, 1) for all nine: Box-Muller pairs (both outputs) for the directions, then the t
    half = 50 * qs.sum()
    u = np.frombuffer(random.Random(seed).randbytes(4 * (2 * half + 100 * len(params))), "<u4") / 2.0**32
    radius, angle = np.sqrt(-2.0 * np.log1p(-u[:half])), 2.0 * np.pi * u[half : 2 * half]
    ys[:, :100][inside] = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    ys[:, :100] /= np.linalg.norm(ys[:, :100], axis=2, keepdims=True)
    ys[:, 100:, -1] = 1.0
    ts, fit_ts = 1.0 + 9.0 * u[2 * half :].reshape(len(params), 100), np.linspace(2.0, 10.0, 64)
    # one fj_eval call per parameter, its random points first
    values = np.abs([harmonics.fj_eval(pm, y[:, -pm.q :], np.append(t, fit_ts)) for pm, y, t in zip(params, ys, ts)])
    bound_ok = not np.any(values[:, :100] > c_consts[:, None] * np.exp(-rates[:, None] * ts) + 1e-12)
    # the nine log-slopes share their abscissa: one least-squares slope per row
    rels = np.abs(_log_slopes(fit_ts, np.log(values[:, 100:])) + rates) / rates
    detail = "slope rel err <= 0.02 at " + " ".join(f"{p},{q},{half_text(lam_x2)}" for p, q, lam_x2 in _DECAY_COMBOS)
    return [
        _result("decay_bound", bound_ok, "C = 2^rate * max|f_a|"),
        _result("decay_log_slope_2pct", not np.any(rels > 0.02), detail),
    ]


def branching_suite(seed: int = 0) -> list[CheckResult]:
    from . import interlace, periods

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
    finite = all((cls is interlace.InterlaceClass.FINITE_TYPE) == predicate for _, predicate, cls in g2)
    type_1 = all(cls is interlace.InterlaceClass.INFINITE_TYPE_1 for _, predicate, cls in g1 if predicate)
    return [
        _result("g2_period_matches_predicate", all(nonzero == predicate for nonzero, predicate, _ in g2)),
        _result("g1_period_matches_predicate", all(nonzero == predicate for nonzero, predicate, _ in g1)),
        _result("g2_finite_interlacing_equivalence", finite),
        _result("g1_nonzero_implies_infinite_type_1", type_1),
    ]


def packets_suite(seed: int = 0) -> list[CheckResult]:
    from . import packets

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
    from . import packets

    # the doubled grid 1/2, 1, ..., 15/2
    ok = all(
        packets.conjecture_explore_x2(p, q, lam_x2, sub, range(1, 16))[2]
        for p, q in ((4, 4), (4, 6))
        for lam_x2 in fjrep.valid_lambdas_x2(p, q, 2 * (p + q))[:5]  # the first five lambda of X(p, q)
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
