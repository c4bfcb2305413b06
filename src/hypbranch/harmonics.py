"""Gegenbauer polynomials, generating functions, zonal spherical harmonics, and subsphere pairings.

The branching layer of the library: restriction pairings between a degree-a
zonal harmonic on S^{n-1} and degree-b zonal harmonics on the equatorial
subsphere S^{n-2}, together with a K-type witness certifying when the degree-b
component of the restricted K-type can be reached at all.  Both branching
verdicts, the g1 period and the g2 witness, read the one zonal Gram kernel
:func:`zonal_gram`.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import InvalidParameterError, ToleranceError
from .exact import pairing_subsphere_exact, sphere_area_exact, sqrt_pi_ratio, witness_pairing_exact
from .exact import zonal_norm_sq_exact
from .fjrep import FJParam, decay_x2
from .numerics import SPHERE_NODE_STEP, sphere_rule

__all__ = [
    "gegenbauer",
    "fj_eval",
    "sphere_area",
    "zonal_norm_sq_closed",
    "zonal_gram",
    "pairing_subsphere",
    "ktype_pairing_nonzero",
    "ktype_pairings_nonzero",
]


@lru_cache(maxsize=64)
def _recurrence(nu: float, length: int):
    """Coefficients 4c_k and scales (nu)_k / k! of :func:`_gegenbauer_rows`, for degrees k < length."""
    four_c = (0.0, 0.0) + tuple(
        (k - 1) * (k + 2 * nu - 2) / ((k + nu - 1) * (k + nu - 2)) for k in range(2, length)
    )
    scale = tuple(accumulate(((nu + k - 1) / k for k in range(1, length)), operator.mul, initial=1.0))
    return four_c, scale


def _gegenbauer_rows(n: int, nu: float, x: np.ndarray, wanted) -> np.ndarray:
    """C_k^nu at the 1-D nodes x, one row per degree k of the sequence `wanted` (all <= n), from one pass to n.

    The pass runs on the rescaled family D_k = C_k^nu k! / (nu)_k, which is 2^k
    times the monic one (DLMF 18.9.1): D_0 = 1, D_1 = 2x and
    D_k = 2x D_{k-1} - 4c_k D_{k-2},  4c_k = (k-1)(k+2nu-2) / ((k+nu-1)(k+nu-2)),
    so each step is three array operations and D_k grows only like k^nu.  Only
    the wanted rows are scaled back by (nu)_k / k!.  The coefficients are cached
    per (nu, n + 1 rounded up to SPHERE_NODE_STEP).  Requires nu > 0: the
    coefficients have poles at nu <= 0.
    """
    four_c, scale = _recurrence(nu, -(-(n + 1) // SPHERE_NODE_STEP) * SPHERE_NODE_STEP)
    keep = set(wanted)
    d_prev = np.ones(len(x))
    two_x = d = 2.0 * x
    rows = {0: d_prev, 1: d}
    for k in range(2, n + 1):
        d_next = two_x * d
        d_next -= four_c[k] * d_prev
        d_prev, d = d, d_next
        if k in keep:
            rows[k] = d
    return np.array([scale[k] for k in wanted])[:, None] * np.array([rows[k] for k in wanted]).reshape(-1, len(x))


def gegenbauer(n: int, nu: float, x):
    """Evaluate the Gegenbauer polynomial C_n^nu(x), nu > 0, by the three-term recurrence.

    Accepts scalar or ndarray x.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if not nu > 0:
        raise ValueError(f"gegenbauer requires nu > 0, got {nu}")
    x = np.asarray(x, dtype=float)
    c = _gegenbauer_rows(n, nu, x.ravel(), [n])[0].reshape(x.shape)
    return c if c.ndim else float(c)


def fj_eval(param: FJParam, y_prime, t) -> float:
    """Generating function value f_a(y') cosh(t)^e at a chart point.

    y' is a unit vector on the cosh-sphere S^{sq-1} (or one per row); the zonal
    pole is the last axis (the base-point direction): f_a(y') = C_a^{(sq-2)/2}(y'_sq).
    """
    _, sq = param.space_signature
    y_prime = np.asarray(y_prime, dtype=float)
    if y_prime.shape[-1:] != (sq,):
        raise InvalidParameterError(f"y' must have {sq} coordinates, got shape {y_prime.shape}")
    t = np.asarray(t, dtype=float)
    zonal = gegenbauer(param.degree, (sq - 2) / 2.0, y_prime[..., -1])
    out = zonal * np.cosh(t) ** (decay_x2(param.total, param.lam_x2) / 2)
    return out if out.ndim else float(out)


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n: 2 pi^{n/2} / Gamma(n/2), rounded once.

    Raises ToleranceError above exact.MAX_SPHERE_DIM, before any factorial is built.
    """
    return sqrt_pi_ratio(*sphere_area_exact(n))


# A normalised Gram ratio |<Z_k, Z_c>| / (|Z_k| |Z_c|) above this is a non-zero
# pairing; the ratio is scale-free, so one threshold serves every degree.
GRAM_RATIO_TOL = 1e-8


# Beyond the checked range the zonal values overflow or underflow; the kernel
# refuses a norm product that is not a positive finite double with
# ToleranceError, so numpy's warnings would only be noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def zonal_gram(ks, targets, n: int) -> np.ndarray:
    """Normalised Gram rows |<Z_k, Z_c>| / (|Z_k| |Z_c|) of the zonal harmonics on S^{n-1}, one row per target c.

    Row i holds target c = targets[i] against each degree k in `ks`, so the result has shape
    (len(targets), len(ks)).  Every entry is a quadrature on the one sphere rule exact to degree
    2 max(ks, targets), from one Gegenbauer pass.  Raises ToleranceError when a product
    |Z_k|^2 |Z_c|^2 is not a positive finite double.  `ks` and `targets` are sequences of degrees.
    """
    if n < 3:
        raise InvalidParameterError("zonal harmonics require sphere_dim >= 3")
    top = max(max(ks, default=0), max(targets, default=0))
    x, w = sphere_rule(2 * top, n - 3)
    weight = sphere_area(n - 1) * w
    rows = _gegenbauer_rows(top, (n - 2) / 2.0, x, [*ks, *targets])
    zonals, target_rows = rows[: len(ks)], rows[len(ks) :]
    # stacked dot and gemv products: item i is c_i**2 @ weight and zonals @ (c_i * weight), bit for bit
    products = zonals**2 @ weight * np.matmul((target_rows**2)[:, None, :], weight)
    in_range = (products > 0) & (products < math.inf)  # false on nan too
    if not in_range.all():
        i, j = np.argwhere(~in_range)[0]
        raise ToleranceError(
            f"zonal norm product at degrees ({ks[j]}, {targets[i]}) on S^{n - 1} is not a positive finite double"
        )
    grams = np.matmul(zonals, (target_rows * weight)[:, :, None])[:, :, 0]
    return np.abs(grams) / np.sqrt(products)


def zonal_norm_sq_closed(a: int, n: int) -> float:
    """L^2(S^{n-1}) norm squared of the degree-a zonal harmonic, from Gegenbauer orthogonality, rounded once."""
    return sqrt_pi_ratio(*zonal_norm_sq_exact(a, n))


def pairing_subsphere(a: int, b: int, n: int) -> float:
    """Restriction pairing of zonal harmonics across the equatorial subsphere, exact and rounded once.

    The degree-a zonal harmonic of S^{n-1} (pole inside the subsphere), restricted to S^{n-2},
    against the degree-b zonal harmonic of S^{n-2} about that pole.  Vanishes when b > a or a - b is odd.
    """
    return sqrt_pi_ratio(*pairing_subsphere_exact(a, b, n))


def ktype_pairings_nonzero(a: int, bs, n: int) -> list[bool]:
    """Certify, for each degree b in `bs`, whether the degree-b subsphere type is reachable from a.

    The witness family spans the degree-a harmonics on S^{n-1} invariant
    under the equatorial band: member j = a - k is the harmonic projection of
    u^j Z_k, with u the coordinate normal to the subsphere S^{n-2} and Z_k its
    degree-k zonal harmonic.  That projection is a multiple of
    r^j C_j^lam(u/r) Z_k with lam = k + (n-2)/2 (Axler, Bourdon & Ramey,
    Harmonic Function Theory, ch. 5), so every normal-derivative trace of
    member j on S^{n-2} is a multiple of Z_k.  Pairing the traces against Z_b
    therefore reduces to the normalised Gram row |<Z_k, Z_b>| / (|Z_k| |Z_b|),
    k = 0..a, of :func:`zonal_gram` on S^{n-2}.  The type is reachable when the
    row's maximum exceeds GRAM_RATIO_TOL: true exactly when 0 <= b <= a.

    Returns one verdict per b.  Raises ToleranceError when the kernel refuses a
    norm product.
    """
    if n < 4:
        raise InvalidParameterError("ktype_pairing_nonzero requires n >= 4")
    bs = list(bs)
    if a < 0 or min(bs, default=0) < 0:
        raise InvalidParameterError("degrees must be non-negative")
    return (zonal_gram(range(a + 1), bs, n - 1).max(axis=1) > GRAM_RATIO_TOL).tolist()


def ktype_pairing_nonzero(a: int, b: int, n: int) -> tuple[bool, float]:
    """The one-target verdict of :func:`ktype_pairings_nonzero` and its witness value.

    The value is :func:`witness_pairing_exact` rounded once, or 0.0, the exact value, when the type is unreachable.
    """
    nonzero = ktype_pairings_nonzero(a, [b], n)[0]
    return nonzero, sqrt_pi_ratio(*witness_pairing_exact(a, b, n)) if nonzero else 0.0
