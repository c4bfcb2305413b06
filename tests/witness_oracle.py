"""Brute-force K-type witness scan: the test oracle for ``ktype_pairing_nonzero``.

This is the general construction that the closed form in
``hypbranch.harmonics`` replaces.  It builds the spanning family of
band-invariant degree-a harmonics on S^{n-1} as dict polynomials (member j is
the harmonic projection of u^j times the solid degree-(a-j) zonal harmonic of
the subsphere space, found by a dense linear solve), then pairs every
normal-derivative trace of every member with the degree-b zonal harmonic of
S^{n-2} by quadrature.  Its two sphere quadratures, `zonal_norm_sq` and
`weighted_cos_integral`, also serve the tests as oracles of their own, and
`sphere_area`, `zonal_norm_sq_closed` and `pairing_subsphere` are the exact
ratios of ``hypbranch.exact`` rounded once, as the tests compare them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from hypbranch.exact import pairing_subsphere_exact, sphere_area_exact, sqrt_pi_ratio, zonal_norm_sq_exact
from hypbranch.harmonics import gegenbauer
from hypbranch.numerics import sphere_rule


def sphere_area(n: int) -> float:
    """The area of S^{n-1}, exact and rounded once."""
    return sqrt_pi_ratio(*sphere_area_exact(n))


def zonal_norm_sq_closed(a: int, n: int) -> float:
    """|Z_a|^2 on S^{n-1}, exact and rounded once."""
    return sqrt_pi_ratio(*zonal_norm_sq_exact(a, n))


def pairing_subsphere(a: int, b: int, n: int) -> float:
    """The restriction pairing of Z_a on S^{n-1} with Z_b on S^{n-2}, exact and rounded once."""
    return sqrt_pi_ratio(*pairing_subsphere_exact(a, b, n))


def zonal_norm_sq(a: int, n: int) -> float:
    """|Z_a|^2 on S^{n-1} by quadrature, on the sphere rule exact to degree 2a (the closed form's oracle)."""
    x, w = sphere_rule(2 * a, n - 3)
    return float(gegenbauer(a, (n - 2) / 2.0, x) ** 2 @ (sphere_area(n - 1) * w))


def weighted_cos_integral(f, sin_power: int, degree: int) -> float:
    """Integral of f(x) (1-x^2)^{sin_power/2} over [-1, 1].

    Exact (up to rounding) when f is a polynomial of degree <= degree.
    """
    x, w = sphere_rule(degree, sin_power)
    return float(np.sum(w * np.asarray(f(x), dtype=float)))


# ---------------------------------------------------------------------------
# Witness machinery: harmonic polynomials invariant under rotations of the
# equatorial band, written in the variables
#   u = coordinate normal to the subsphere,
#   s = pole coordinate,
#   w = squared radius of the remaining n-2 band coordinates.
# A monomial u^i s^j w^k is stored as {(i, j, k): coeff} and has degree i+j+2k.
# ---------------------------------------------------------------------------


def _poly_laplacian(poly: dict, n: int) -> dict:
    out: dict = {}
    for (i, j, k), c in poly.items():
        if i >= 2:
            key = (i - 2, j, k)
            out[key] = out.get(key, 0.0) + c * i * (i - 1)
        if j >= 2:
            key = (i, j - 2, k)
            out[key] = out.get(key, 0.0) + c * j * (j - 1)
        if k >= 1:
            key = (i, j, k - 1)
            out[key] = out.get(key, 0.0) + c * 2 * k * (n + 2 * k - 4)
    return {key: c for key, c in out.items() if c != 0.0}


def _poly_mul_r2(poly: dict) -> dict:
    # multiply by r^2 = u^2 + s^2 + w
    out: dict = {}
    for (i, j, k), c in poly.items():
        for key in ((i + 2, j, k), (i, j + 2, k), (i, j, k + 1)):
            out[key] = out.get(key, 0.0) + c
    return out


def _monomials(degree: int):
    for k in range(degree // 2 + 1):
        rest = degree - 2 * k
        for i in range(rest + 1):
            yield (i, rest - i, k)


def _harmonic_projection(poly: dict, degree: int, n: int) -> dict:
    """Degree-`degree` harmonic component of a homogeneous band-invariant poly.

    Solves Delta(P - r^2 Q) = 0 for Q; the map Q -> Delta(r^2 Q) on the
    degree-(degree-2) space is invertible.
    """
    if degree < 2:
        return dict(poly)
    basis = list(_monomials(degree - 2))
    index = {mono: idx for idx, mono in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)))
    for col, mono in enumerate(basis):
        image = _poly_laplacian(_poly_mul_r2({mono: 1.0}), n)
        for key, c in image.items():
            mat[index[key], col] = c
    rhs = np.zeros(len(basis))
    for key, c in _poly_laplacian(poly, n).items():
        rhs[index[key]] = c
    q = np.linalg.solve(mat, rhs)
    out = dict(poly)
    correction = _poly_mul_r2({mono: coef for mono, coef in zip(basis, q) if coef != 0.0})
    for key, c in correction.items():
        out[key] = out.get(key, 0.0) - c
    return {key: c for key, c in out.items() if abs(c) > 1e-14}


def _solid_subsphere_zonal(degree: int, sub_dim: int) -> dict:
    """Homogeneous zonal harmonic of R^{sub_dim} in the (s, w) variables.

    Homogenized Gegenbauer recurrence with t^2 = s^2 + w; the result is a
    harmonic polynomial of the subsphere variables (u-degree zero).
    """
    nu = (sub_dim - 2) / 2.0
    p_prev = {(0, 0, 0): 1.0}
    if degree == 0:
        return p_prev
    p = {(0, 1, 0): 2.0 * nu}
    for d in range(2, degree + 1):
        nxt: dict = {}
        for (i, j, k), c in p.items():
            key = (i, j + 1, k)
            nxt[key] = nxt.get(key, 0.0) + 2.0 * (d + nu - 1.0) * c / d
        for (i, j, k), c in p_prev.items():
            for key in ((i, j + 2, k), (i, j, k + 1)):
                nxt[key] = nxt.get(key, 0.0) - (d + 2.0 * nu - 2.0) * c / d
        p, p_prev = nxt, p
    return p


@lru_cache(maxsize=None)
def _witness_harmonics(a: int, n: int):
    """Spanning family of degree-a band-invariant harmonics on S^{n-1}.

    Member j is the harmonic projection of u^j times the solid degree-(a-j)
    zonal harmonic of the subsphere space R^{n-1}.
    """
    out = []
    for j in range(a + 1):
        pre = {(j, s, k): c for (_, s, k), c in _solid_subsphere_zonal(a - j, n - 1).items()}
        out.append(_harmonic_projection(pre, a, n))
    return tuple(out)


def _normal_trace(poly: dict, m: int):
    """The m-th normal-derivative trace on the subsphere, as a function of s.

    Collects the u^m part, applies m!, and substitutes w = 1 - s^2 (the
    subsphere constraint with u = 0).
    """
    terms = [(j, k, c * math.factorial(m)) for (i, j, k), c in poly.items() if i == m]
    if not terms:
        return None

    def f(x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for j, k, c in terms:
            acc = acc + c * x**j * (1.0 - x * x) ** k
        return acc

    return f


def witness_pairings(a: int, b: int, n: int) -> dict:
    """Every (member j, trace m) pairing of the scan, as (pairing, ratio).

    The ratio is |pairing| over the product of the L^2 norms of the trace and
    of the degree-b zonal harmonic on S^{n-2}.  Traces that are absent or of
    zero norm are left out.  The m-th trace is a polynomial of degree a - m.
    """
    nu_sub = (n - 3) / 2.0
    zb = lambda x: gegenbauer(b, nu_sub, x)
    zb_norm = math.sqrt(zonal_norm_sq(b, n - 1))
    area = sphere_area(n - 2)
    out = {}
    for j, harmonic in enumerate(_witness_harmonics(a, n)):
        for m in range(a + 1):
            trace = _normal_trace(harmonic, m)
            if trace is None:
                continue
            t_norm_sq = area * weighted_cos_integral(lambda x: trace(x) ** 2, n - 4, 2 * (a - m))
            if t_norm_sq <= 0.0:
                continue
            pairing = area * weighted_cos_integral(lambda x: trace(x) * zb(x), n - 4, a - m + b)
            out[j, m] = (pairing, abs(pairing) / (math.sqrt(t_norm_sq) * zb_norm))
    return out


def witness_scan(a: int, b: int, n: int):
    """The scan's (nonzero, value, best_ratio).

    The first pairing, in (j, m) order, of the largest ratio is the best
    witness; nonzero is best_ratio > 1e-8.
    """
    best_ratio = 0.0
    best_value = 0.0
    for pairing, ratio in witness_pairings(a, b, n).values():
        if ratio > best_ratio:
            best_ratio = ratio
            best_value = pairing
    return best_ratio > 1e-8, best_value, best_ratio
