"""Gegenbauer polynomials, zonal spherical harmonics, and subsphere pairings.

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
from .numerics import SPHERE_NODE_STEP, half_gamma, sphere_nodes, sphere_rule, sqrt_pi_ratio

__all__ = [
    "gegenbauer",
    "sphere_area",
    "zonal_norm_sq",
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
    """C_k^nu at the 1-D nodes x for each degree k of the sequence `wanted` (all <= n), from one pass to n.

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
    return np.array([scale[k] for k in wanted])[:, None] * np.array([rows[k] for k in wanted])


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


# The area of S^{n-1} is below the normal floating-point range from n = 439.
MAX_SPHERE_DIM = 438


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n: 2 pi^{n/2} / Gamma(n/2), rounded once.

    Raises ToleranceError above MAX_SPHERE_DIM, before any factorial is built.
    """
    return sqrt_pi_ratio(*sphere_area_exact(n))


def sphere_area_exact(n: int) -> tuple[int, int, int]:
    """:func:`sphere_area` exactly, as (num, den, r) with area = num / den * sqrt(pi)^r.

    Raises ToleranceError above MAX_SPHERE_DIM, before any factorial is built.
    """
    if n < 1:
        raise ValueError("sphere_area requires n >= 1")
    if n > MAX_SPHERE_DIM:
        raise ToleranceError(f"sphere area of S^{n - 1} is out of floating-point range", math.inf)
    num, den, r = half_gamma(n)
    return 2 * den, num, n - r


# A normalised Gram ratio |<Z_k, Z_c>| / (|Z_k| |Z_c|) above this is a non-zero
# pairing; the ratio is scale-free, so one threshold serves every degree.
GRAM_RATIO_TOL = 1e-8


def _gram_rows(ks, batch, top_k: int, n: int):
    """:func:`zonal_gram` of the targets `batch`, which share one sphere rule, from one Gegenbauer pass."""
    top = max(top_k, *batch)
    x, w = sphere_rule(2 * top, n - 3)
    weight = sphere_area(n - 1) * w
    rows = _gegenbauer_rows(top, (n - 2) / 2.0, x, [*ks, *batch])
    zonals, targets = rows[: len(ks)], rows[len(ks) :]
    norms = np.array([c**2 @ weight for c in targets])
    products = zonals**2 @ weight * norms[:, None]
    if not np.isfinite(products).all():
        bad = batch[np.isfinite(products).all(axis=1).argmin()]
        raise ToleranceError(f"zonal norm not finite at degrees ({top_k}, {bad})", math.inf)
    grams = np.array([zonals @ (weight * c) for c in targets])
    return grams, np.abs(grams) / np.sqrt(products), norms


# Beyond the checked range the zonal values overflow or underflow; the kernel
# refuses non-finite norms and the verdicts non-finite ratios with
# ToleranceError, so numpy's warnings would only be noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def zonal_gram(ks, targets, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram rows of the zonal harmonics Z_k, k in `ks`, against each degree c in `targets` on S^{n-1}.

    Returns (grams, ratios, norms), one row per c: grams[i] = <Z_k, Z_c> over ks,
    ratios[i] = |<Z_k, Z_c>| / (|Z_k| |Z_c|) over ks and norms[i] = |Z_c|^2, as
    quadratures on the sphere rule exact to degree 2 max(ks, c).  Targets whose
    max(ks, c) maps to the same rule (:func:`sphere_nodes`) share one Gegenbauer
    pass; each c keeps its own row and norm, so a row does not depend on the other
    targets of its call.  Raises ToleranceError when a product |Z_k|^2 |Z_c|^2 is
    not finite.  `ks` and `targets` are sequences of degrees.
    """
    if n < 3:
        raise InvalidParameterError("zonal harmonics require sphere_dim >= 3")
    top_k = max(ks, default=0)
    groups = {}
    for i, c in enumerate(targets):
        groups.setdefault(sphere_nodes(2 * max(top_k, c), n - 3), []).append(i)
    if len(groups) == 1:  # one rule: the rows are already in target order
        return _gram_rows(ks, targets, top_k, n)
    shape = (len(targets), len(ks))
    grams, ratios, norms = np.empty(shape), np.empty(shape), np.empty(len(targets))
    for idx in groups.values():
        grams[idx], ratios[idx], norms[idx] = _gram_rows(ks, [targets[i] for i in idx], top_k, n)
    return grams, ratios, norms


def zonal_norm_sq(a: int, n: int) -> float:
    """L^2(S^{n-1}) norm squared of the degree-a zonal harmonic, by quadrature (:func:`zonal_gram`)."""
    return float(zonal_gram([a], [a], n)[2][0])


def zonal_norm_sq_closed(a: int, n: int) -> float:
    """Closed form of :func:`zonal_norm_sq` from Gegenbauer orthogonality, rounded once."""
    return sqrt_pi_ratio(*zonal_norm_sq_exact(a, n))


def zonal_norm_sq_exact(a: int, n: int) -> tuple[int, int, int]:
    """:func:`zonal_norm_sq_closed` exactly, as (num, den, r) with |Z_a|^2 = num / den * sqrt(pi)^r.

    |Z_a|^2 = area(S^{n-2}) pi 2^{1-2nu} Gamma(a+2nu) / (a! (a+nu) Gamma(nu)^2), nu = (n-2)/2
    (DLMF 18.3), with Gamma(a+2nu) / a! the (n-3)-factor product (a+1) ... (a+n-3).  Raises
    ToleranceError when n - 1 exceeds MAX_SPHERE_DIM (:func:`sphere_area_exact`).
    """
    if n < 3:
        raise InvalidParameterError("zonal_norm_sq_closed requires sphere_dim >= 3")
    # 2^{1-2nu} = 2^{3-n} and a + nu = (2a+n-2) / 2
    num_s, den_s, r_s = sphere_area_exact(n - 1)
    num_nu, den_nu, r_nu = half_gamma(n - 2)
    num = 2 * num_s * math.prod(range(a + 1, a + n - 2)) * den_nu**2
    den = den_s * (2 * a + n - 2) * num_nu**2 << (n - 3)
    return num, den, r_s + 2 - 2 * r_nu


def pairing_subsphere(a: int, b: int, n: int) -> float:
    """Restriction pairing of zonal harmonics across the equatorial subsphere, exact and rounded once.

    The degree-a zonal harmonic of S^{n-1} (pole inside the subsphere), restricted to S^{n-2},
    against the degree-b zonal harmonic of S^{n-2} about that pole.  Vanishes when b > a or a - b is odd.
    """
    return sqrt_pi_ratio(*pairing_subsphere_exact(a, b, n))


def pairing_subsphere_exact(a: int, b: int, n: int) -> tuple[int, int, int]:
    """:func:`pairing_subsphere` exactly, as (num, den, r); (0, 1, 0) when b > a or a - b is odd.

    C_a^nu = sum_l c_l C_{a-2l}^mu, nu = (n-2)/2, mu = (n-3)/2, with c_l = (1/2)_l (nu)_{a-l}
    (mu+a-2l) / (l! (mu+1)_{a-l} mu) (DLMF 18.18.16), so by orthogonality on S^{n-2} the
    pairing is c_l |Z_b|^2 at l = (a-b)/2, with (1/2)_l / l! = C(2l, l) / 4^l.
    """
    if n < 4:
        raise InvalidParameterError("pairing_subsphere requires n >= 4")
    if b > a or (a - b) % 2:
        return 0, 1, 0
    l, m = (a - b) // 2, (a + b) // 2
    num_z, den_z, r_z = zonal_norm_sq_exact(b, n - 1)
    num = math.comb(2 * l, l) * math.prod(range(n - 2, n - 2 + 2 * m, 2)) * (2 * b + n - 3) * num_z
    den = math.prod(range(n - 1, n - 1 + 2 * m, 2)) * (n - 3) * den_z << 2 * l
    return num, den, r_z


def witness_pairing_exact(a: int, b: int, n: int) -> tuple[int, int, int]:
    """The witness value K |Z_b|^2 on S^{n-2} of :func:`ktype_pairing_nonzero`, exactly; 0 unless 0 <= b <= a.

    K = j! (2 lam)_j / (2^j (lam)_j) = prod_{i<j} (i+1)(L+i) / (L+2i), j = a - b, L = 2 lam = 2b + n - 2.
    """
    if not 0 <= b <= a:
        return 0, 1, 0
    j, big_l = a - b, 2 * b + n - 2
    num_z, den_z, r_z = zonal_norm_sq_exact(b, n - 1)
    num = math.factorial(j) * math.prod(range(big_l, big_l + j)) * num_z
    return num, math.prod(range(big_l, big_l + 2 * j, 2)) * den_z, r_z


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

    Returns one verdict per b.  Raises ToleranceError when a zonal norm or a
    Gram ratio is not finite.
    """
    if n < 4:
        raise InvalidParameterError("ktype_pairing_nonzero requires n >= 4")
    bs = list(bs)
    if a < 0 or min(bs, default=0) < 0:
        raise InvalidParameterError("degrees must be non-negative")
    ratios = zonal_gram(range(a + 1), bs, n - 1)[1].max(axis=1)
    if not np.isfinite(ratios).all():  # some |Z_k|^2 |Z_b|^2 underflowed to 0
        raise ToleranceError(f"zonal Gram ratio not finite at degree {a} on S^{n - 2}", math.inf)
    return (ratios > GRAM_RATIO_TOL).tolist()


def ktype_pairing_nonzero(a: int, b: int, n: int) -> tuple[bool, float]:
    """The one-target verdict of :func:`ktype_pairings_nonzero` and its witness value.

    The value is :func:`witness_pairing_exact` rounded once, or 0.0, the exact value, when the type is unreachable.
    """
    nonzero = ktype_pairings_nonzero(a, [b], n)[0]
    return nonzero, sqrt_pi_ratio(*witness_pairing_exact(a, b, n)) if nonzero else 0.0
