"""Charts, invariant measures, and radial integrals on X(p, q): a test oracle.

X(p, q) is the level set Q(xi, xi) = -1 of the signature-(p, q) form; in the
chart (y, y', t) the first p coordinates carry sinh(t) and the last q carry
cosh(t), with invariant measure sinh^{p-1}(t) cosh^{q-1}(t) dt dy dy'.

Every radial factor the package prints is the exact Wallis ratio
``hypbranch.exact.wallis_exact``; the chart, the measure and the Beta and Gauss
radial integrals here are the geometry it replaces, which the acceptance and
geometry tests and the paper's block estimates still read.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from hypbranch.errors import AssumptionError, DivergenceError, InvalidParameterError, ToleranceError
from hypbranch.exact import sqrt_pi_ratio, wallis_exact
from hypbranch.numerics import gauss_legendre_rule

# A radial quadrature must agree with its halved rule to RADIAL_TOL * max(1, |value|).
RADIAL_TOL = 1e-10
# Gauss nodes of the radial cross-check's finer rule and of a truncated integral.
RADIAL_NODES = 200
TRUNCATED_NODES = 400


def gauss_legendre_on(a: float, b: float, n: int):
    """The n-point Gauss-Legendre rule mapped to the interval [a, b]."""
    x, w = gauss_legendre_rule(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


class HyperboloidChart(NamedTuple("HyperboloidChart", [("p", int), ("q", int)])):
    """Signature data for X(p, q); the standing assumption is p, q >= 4."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if p < 4 or q < 4:
            raise AssumptionError(f"standing assumption p, q >= 4 violated: ({p}, {q})")
        return super().__new__(cls, p, q)


class ChartPoint(NamedTuple("ChartPoint", [("y", np.ndarray), ("y_prime", np.ndarray), ("t", float)])):
    """A point (y, y', t) with y in S^{p-1}, y' in S^{q-1}, t >= 0; y and y' are stored as float arrays."""

    __slots__ = ()

    def __new__(cls, y, y_prime, t: float):
        y = np.asarray(y, dtype=float)
        yp = np.asarray(y_prime, dtype=float)
        if t < 0:
            raise InvalidParameterError("radial coordinate t must be >= 0")
        for name, vec in (("y", y), ("y_prime", yp)):
            if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
                raise InvalidParameterError(f"{name} must be a unit vector (1e-12)")
        return super().__new__(cls, y, yp, t)


def q_form(u: np.ndarray, v: np.ndarray, p: int, q: int) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u[:p] @ v[:p] - u[p:] @ v[p:])


def phi(chart: HyperboloidChart, pt: ChartPoint) -> np.ndarray:
    """Chart map: (y, y', t) -> (y sinh t, y' cosh t) in R^{p+q}; Q = -1 on the image."""
    if pt.y.shape != (chart.p,) or pt.y_prime.shape != (chart.q,):
        raise InvalidParameterError("chart point dimensions do not match the chart")
    return np.concatenate([pt.y * math.sinh(pt.t), pt.y_prime * math.cosh(pt.t)])


def measure_weight(chart: HyperboloidChart, t) -> float:
    """Radial density sinh^{p-1}(t) cosh^{q-1}(t) of the invariant measure."""
    t = np.asarray(t, dtype=float)
    out = np.sinh(t) ** (chart.p - 1) * np.cosh(t) ** (chart.q - 1)
    return out if out.ndim else float(out)


def _check_radial_convergence(a_exp: float, c_exp: float) -> None:
    # Growth at infinity is e^{(a+c) t}; the integral converges iff a + c < 0
    # (and a > -1 at t = 0).
    if not a_exp > -1.0:
        raise DivergenceError(f"radial integral diverges at t = 0: a_exp = {a_exp} <= -1")
    if not a_exp + c_exp < 0.0:
        raise DivergenceError(
            f"radial integral diverges at infinity: a_exp + c_exp = {a_exp + c_exp} >= 0"
        )


def radial_integral_closed(a_exp: float, c_exp: float) -> float:
    """Closed form of R(a, c) = int_0^inf sinh^a(t) cosh^c(t) dt.

    Equals (1/2) B((a+1)/2, -(a+c)/2) for a > -1 and a + c < 0.  For integer
    exponents, which every period and L2 norm has, R is the Wallis integral
    int_0^{pi/2} sin^a cos^m with m = -(a+c)-1: a ratio of integers, times pi/2
    when a and m are both even, rounded once (:func:`exact.sqrt_pi_ratio`).
    Other exponents take the Beta function on math.lgamma.
    """
    a_exp, c_exp = float(a_exp), float(c_exp)
    _check_radial_convergence(a_exp, c_exp)
    if not (a_exp.is_integer() and c_exp.is_integer()):
        x, y = (a_exp + 1.0) / 2.0, -(a_exp + c_exp) / 2.0
        return 0.5 * math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
    return sqrt_pi_ratio(*wallis_exact(int(a_exp), int(-(a_exp + c_exp)) - 1))


def radial_integral_numeric(a_exp: float, c_exp: float) -> tuple[float, float]:
    """Numeric R(a, c), with an error estimate from halving the rule.

    The independent cross-check of :func:`radial_integral_closed`, on RADIAL_NODES
    Gauss nodes and half as many.  Raises ToleranceError when the estimate exceeds
    RADIAL_TOL max(1, |value|).
    """
    a_exp, c_exp = float(a_exp), float(c_exp)
    _check_radial_convergence(a_exp, c_exp)
    # x = tanh t maps [0, inf) to [0, 1); the residual endpoint singularity
    # is removed by x = sin(phi), i.e. t = atanh(sin phi): the integrand
    # becomes sin^a(phi) cos^{-(a+c)-1}(phi) on [0, pi/2], a trigonometric
    # polynomial whenever the exponents are integers.
    sums = []
    for n in (RADIAL_NODES, RADIAL_NODES // 2):
        phi, w = gauss_legendre_on(0.0, math.pi / 2.0, n)
        sums.append(float(np.sum(w * np.sin(phi) ** a_exp * np.cos(phi) ** (-(a_exp + c_exp) - 1.0))))
    value, coarse = sums
    err_est = abs(value - coarse)
    tol = RADIAL_TOL * max(1.0, abs(value))
    if err_est > tol:
        raise ToleranceError(f"radial quadrature error estimate {err_est:.3e} exceeds tolerance {tol:.3e}")
    return value, err_est


def radial_integral_truncated(a_exp: float, c_exp: float, t_max: float) -> float:
    """int_0^{t_max} sinh^a cosh^c dt on TRUNCATED_NODES Gauss nodes, for convergence/divergence probes."""
    t, w = gauss_legendre_on(0.0, float(t_max), TRUNCATED_NODES)
    return float(np.sum(w * np.sinh(t) ** float(a_exp) * np.cosh(t) ** float(c_exp)))
