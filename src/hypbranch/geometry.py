"""Charts, invariant measures, radial integrals, and block estimates on X(p, q).

X(p, q) is the level set Q(xi, xi) = -1 of the signature-(p, q) form; in the
chart (y, y', t) the first p coordinates carry sinh(t) and the last q carry
cosh(t), with invariant measure sinh^{p-1}(t) cosh^{q-1}(t) dt dy dy'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DivergenceError, InvalidParameterError, NotInGroupError, ToleranceError
from .numerics import QuadratureSpec, beta, gauss_legendre_on

__all__ = [
    "HyperboloidChart",
    "ChartPoint",
    "SuborbitChart",
    "BlockDecomposition",
    "minkowski_form",
    "q_form",
    "phi",
    "measure_weight",
    "radial_integral_closed",
    "radial_integral_numeric",
    "radial_integrals_numeric",
    "radial_integral_truncated",
    "suborbit",
    "block_decompose",
    "ellipsoid_gap",
    "scale",
]

_DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class HyperboloidChart:
    """Signature data for X(p, q); the standing assumption is p, q >= 4."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 4 or self.q < 4:
            raise AssumptionError(f"standing assumption p, q >= 4 violated: ({self.p}, {self.q})")


@dataclass(frozen=True)
class SuborbitChart:
    """Chart data for a codimension-one subgroup orbit inside X(p, q)."""

    p: int
    q: int
    sphere_dims: tuple[int, int]
    label: str


@dataclass(frozen=True)
class ChartPoint:
    """A point (y, y', t) with y in S^{p-1}, y' in S^{q-1}, t >= 0."""

    y: np.ndarray
    y_prime: np.ndarray
    t: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        yp = np.asarray(self.y_prime, dtype=float)
        if self.t < 0:
            raise InvalidParameterError("radial coordinate t must be >= 0")
        for name, vec in (("y", y), ("y_prime", yp)):
            if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
                raise InvalidParameterError(f"{name} must be a unit vector (1e-12)")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "y_prime", yp)


def minkowski_form(p: int, q: int) -> np.ndarray:
    """The matrix diag(I_p, -I_q) of the defining quadratic form."""
    return np.diag(np.concatenate([np.ones(p), -np.ones(q)]))


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

    Equals (1/2) B((a+1)/2, -(a+c)/2) for a > -1 and a + c < 0.
    """
    a_exp, c_exp = float(a_exp), float(c_exp)
    _check_radial_convergence(a_exp, c_exp)
    return 0.5 * beta((a_exp + 1.0) / 2.0, -(a_exp + c_exp) / 2.0)


def radial_integrals_numeric(
    a_exp: float, c_exps, spec: QuadratureSpec = _DEFAULT_SPEC
) -> list[tuple[float, float]]:
    """Numeric R(a, c) for each c in `c_exps`, with error estimates from halving the rule.

    Every exponent is evaluated on the same two node sets, as one (exponents x nodes)
    array.  Raises ToleranceError when an estimate exceeds max(abs_tol, rel_tol |value|).
    """
    a_exp, c_exps = float(a_exp), [float(c) for c in c_exps]
    for c_exp in c_exps:
        _check_radial_convergence(a_exp, c_exp)
    # x = tanh t maps [0, inf) to [0, 1); the residual endpoint singularity
    # is removed by x = sin(phi), i.e. t = atanh(sin phi): the integrand
    # becomes sin^a(phi) cos^{-(a+c)-1}(phi) on [0, pi/2], a trigonometric
    # polynomial whenever the exponents are integers.
    cos_powers = np.array([-(a_exp + c_exp) - 1.0 for c_exp in c_exps]).reshape(-1, 1)
    sums = []
    for n in (spec.radial_nodes, max(spec.radial_nodes // 2, 8)):
        phi, w = gauss_legendre_on(0.0, math.pi / 2.0, n)
        sums.append((w * np.sin(phi) ** a_exp * np.cos(phi) ** cos_powers).sum(axis=1).tolist())
    out = []
    for value, coarse in zip(*sums):
        err_est = abs(value - coarse)
        tol = max(spec.abs_tol, spec.rel_tol * abs(value))
        if err_est > tol:
            raise ToleranceError(
                f"radial quadrature error estimate {err_est:.3e} exceeds tolerance {tol:.3e}",
                err_est,
            )
        out.append((value, err_est))
    return out


def radial_integral_numeric(
    a_exp: float, c_exp: float, spec: QuadratureSpec = _DEFAULT_SPEC
) -> tuple[float, float]:
    """The one-exponent form of :func:`radial_integrals_numeric`."""
    return radial_integrals_numeric(a_exp, [c_exp], spec)[0]


def radial_integral_truncated(a_exp: float, c_exp: float, t_max: float, nodes: int = 400) -> float:
    """int_0^{t_max} sinh^a cosh^c dt, for convergence/divergence probes."""
    t, w = gauss_legendre_on(0.0, float(t_max), nodes)
    return float(np.sum(w * np.sinh(t) ** float(a_exp) * np.cosh(t) ** float(c_exp)))


def suborbit(chart: HyperboloidChart, which: str) -> SuborbitChart:
    """Descriptor of the codimension-one orbit X(p-1, q) ("g1") or X(p, q-1) ("g2").

    The suborbit must itself satisfy the standing assumption, hence p >= 5
    for g1 and q >= 5 for g2.
    """
    tag = which.lower()
    if tag == "g1":
        if chart.p < 5:
            raise AssumptionError("suborbit X(p-1, q) requires p >= 5")
        return SuborbitChart(chart.p - 1, chart.q, (chart.p - 2, chart.q - 1), "g1")
    if tag == "g2":
        if chart.q < 5:
            raise AssumptionError("suborbit X(p, q-1) requires q >= 5")
        return SuborbitChart(chart.p, chart.q - 1, (chart.p - 1, chart.q - 2), "g2")
    raise InvalidParameterError(f"unknown suborbit label {which!r}")


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks A1 (p x p), A2 (p x q), A3 (q x p), A4 (q x q) of g in SO0(p, q).

    Pseudo-orthogonality forces A4 A4^T - A3 A3^T = I.
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray

    def __post_init__(self):
        gap = self.a4 @ self.a4.T - self.a3 @ self.a3.T - np.eye(self.a4.shape[0])
        if np.max(np.abs(gap)) > 1e-8:
            raise NotInGroupError("block identity A4 A4^T - A3 A3^T = I fails (1e-8)")


def block_decompose(g: np.ndarray, p: int, q: int) -> BlockDecomposition:
    """Split g into its (p, q) blocks after verifying group membership.

    Membership: g^T J g = J to 1e-8 with J = diag(I_p, -I_q); the identity
    component is certified by det(A1) > 0 and det(A4) > 0.
    """
    g = np.asarray(g, dtype=float)
    n = p + q
    if g.shape != (n, n):
        raise NotInGroupError(f"expected a {n} x {n} matrix")
    j = minkowski_form(p, q)
    if np.max(np.abs(g.T @ j @ g - j)) > 1e-8:
        raise NotInGroupError("matrix does not preserve the quadratic form (1e-8)")
    a1, a2 = g[:p, :p], g[:p, p:]
    a3, a4 = g[p:, :p], g[p:, p:]
    if np.linalg.det(a1) <= 0 or np.linalg.det(a4) <= 0:
        raise NotInGroupError("matrix is not in the identity component (det A1, det A4 > 0)")
    return BlockDecomposition(a1, a2, a3, a4)


def ellipsoid_gap(blocks: BlockDecomposition) -> tuple[float, float]:
    """Lower bound for |A3 y' + A4 y''| over unit vectors, with the trace bound.

    The two image ellipsoids have parallel axes with semi-axes sqrt(lam_i)
    and sqrt(lam_i - 1) over the eigenvalues of A4^T A4, so the minimum gap
    is min_i (sqrt(lam_i) - sqrt(lam_i - 1)); this always dominates
    (1/4) (tr A4^T A4)^{-1}.
    """
    lam = np.linalg.eigvalsh(blocks.a4.T @ blocks.a4)
    lam = np.clip(lam, 1.0, None)
    q_min = float(np.min(np.sqrt(lam) - np.sqrt(lam - 1.0)))
    bound = 0.25 / float(np.trace(blocks.a4.T @ blocks.a4))
    return q_min, bound


def scale(g: np.ndarray, p: int, q: int) -> float:
    """Schwartz-algebra scale s(g) = tr(g g^T) + tr(g^{-1} g^{-T}).

    Satisfies s(g) = s(g^{-1}) and s(g1 g2) <= s(g1) s(g2).
    """
    g = np.asarray(g, dtype=float)
    j = minkowski_form(p, q)
    g_inv = j @ g.T @ j
    return float(np.sum(g * g) + np.sum(g_inv * g_inv))
