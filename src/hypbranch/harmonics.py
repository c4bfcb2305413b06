"""Gegenbauer polynomials, generating functions, zonal spherical harmonics, and subsphere pairings.

The branching layer of the library: restriction pairings between a degree-a
zonal harmonic on S^{n-1} and degree-b zonal harmonics on the equatorial
subsphere S^{n-2}, together with a K-type witness certifying when the degree-b
component of the restricted K-type can be reached at all.  Both branching
verdicts read zonal Gram ratios of the same unit rows: the g1 period from
:func:`zonal_gram`, the g2 witness from the witness table of its sphere rule.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import InvalidParameterError, ToleranceError
from .exact import pairing_subsphere_exact, sphere_area_exact, sqrt_pi_ratio, witness_pairing_exact
from .exact import MAX_SPHERE_DIM, normal_ratio, zonal_norm_sq_exact
from .fjrep import FJParam, decay_x2
from .numerics import SPHERE_NODE_STEP, sphere_nodes, sphere_rule

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
    """Coefficients 4c_k of :func:`_gegenbauer_rows` for k < length, and the squared row norms of its pass.

    Norm k is |D_k|^2 against the weight of total mass 1: prod_{i=1..k} 4c_{i+1}, since c_{i+1} is
    the monic recurrence coefficient beta_i (Gautschi, Orthogonal Polynomials, 2004, sec. 1.3).
    """
    four_c = (0.0, 0.0) + tuple(
        (k - 1) * (k + 2 * nu - 2) / ((k + nu - 1) * (k + nu - 2)) for k in range(2, length)
    )
    return four_c, tuple(accumulate(four_c[2:], operator.mul, initial=1.0))


# The checked degree range: the largest ambient degree a period and target degree a `branch` scan accept.
# The zonal layer holds a Gram row per degree on a rule of about that many nodes, so memory grows with its square.
MAX_SCAN_DEGREE = 400


def _in_band(n: int, nodes: int) -> bool:
    """Whether `_lattice` and `_witness_table` cache this sphere rule of S^{n-1}; past it each grows as degree^2."""
    return n - 1 <= MAX_SPHERE_DIM and nodes <= sphere_nodes(2 * MAX_SCAN_DEGREE, n - 3)


def _gegenbauer_rows(n: int, nu: float, x: np.ndarray, wanted, start=None):
    """D_k = C_k^nu k! / (nu)_k at the 1-D nodes x, one row per degree k of `wanted` (all <= n), and each |D_k|^2.

    One pass to n on the rescaled family, 2^k times the monic one (DLMF 18.9.1): D_0 = 1, D_1 = 2x and
    D_k = 2x D_{k-1} - 4c_k D_{k-2},  4c_k = (k-1)(k+2nu-2) / ((k+nu-1)(k+nu-2)),
    so each step is three array operations and D_k grows only like k^nu.  The norms are against the
    weight (1-x^2)^{nu-1/2} of total mass 1.  The coefficients are cached per (nu, n + 2 rounded up
    to SPHERE_NODE_STEP).  Requires nu > 0: the coefficients have poles at nu <= 0.

    Given `start` = (k, (D_k, D_{k+1})) at x, every wanted degree k or more, the pass runs on from degree k + 2
    with the same operations, so its rows are bit for bit those of a pass from degree 0 when the start pair is.
    """
    four_c, norm_sq = _recurrence(nu, -(-(n + 2) // SPHERE_NODE_STEP) * SPHERE_NODE_STEP)
    keep, two_x = set(wanted), 2.0 * x
    first, (d_prev, d) = start or (0, (np.ones(len(x)), two_x))
    rows = {first: d_prev, first + 1: d}
    for k in range(first + 2, n + 1):
        d_next = two_x * d
        d_next -= four_c[k] * d_prev
        d_prev, d = d, d_next
        if k in keep:
            rows[k] = d
    return np.array([rows[k] for k in wanted]).reshape(-1, len(x)), np.array([norm_sq[k] for k in wanted])


@lru_cache(maxsize=32)
def _lattice(n: int, nodes: int) -> np.ndarray:
    """The checkpoints (D_k, D_{k+1}) of `_gegenbauer_rows` on the `nodes`-node sphere rule of S^{n-1}, read-only.

    Row i holds the pair at k = SPHERE_NODE_STEP (i + 1), for every such k up to the largest degree the rule
    serves, nodes - (n-3)//2 - 1, from one pass from degree 0 that ends at the last k + 1.  The cache keeps 32
    rules of 16 bytes a node and pair: at most 166,400 bytes each on S^2..S^15 and 249,600 on S^437 and S^438,
    the largest spheres that resume, so at most 8 MB.
    """
    served = nodes - (n - 3) // 2 - 1
    ks = [j for k in range(SPHERE_NODE_STEP, served + 1, SPHERE_NODE_STEP) for j in (k, k + 1)]
    pairs = _gegenbauer_rows(ks[-1], (n - 2) / 2.0, sphere_rule(2 * served, n - 3)[0], ks)[0].reshape(-1, 2, nodes)
    pairs.flags.writeable = False
    return pairs


def gegenbauer(n: int, nu: float, x):
    """Evaluate the Gegenbauer polynomial C_n^nu(x), nu > 0, by the three-term recurrence.

    Accepts scalar or ndarray x.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if not nu > 0:
        raise ValueError(f"gegenbauer requires nu > 0, got {nu}")
    x = np.asarray(x, dtype=float)
    scale = math.prod((nu + k - 1) / k for k in range(1, n + 1))  # (nu)_n / n!
    c = scale * _gegenbauer_rows(n, nu, x.ravel(), [n])[0][0].reshape(x.shape)
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


# A Gram ratio |<Z_k, Z_c>| / (|Z_k| |Z_c|) above this is a non-zero pairing; it is scale-free, so one
# threshold serves every degree.
GRAM_RATIO_TOL = 1e-8
# A kernel row norm off 1 by more than this is lost weight mass.  Sampled to degree 4000 on n <= 128 the row
# norms stay within 2.3e-13 of 1; rows let through at GRAM_RATIO_TOL carried off-diagonal ratios to 5.8e-9.
ROW_NORM_TOL = 1e-12
_LOST_ROW = "zonal row norm at degree {} on S^{} is {}, not 1"


def _unit_rows(rows: np.ndarray, norm_sq: np.ndarray, w: np.ndarray):
    """Scale the rows of a `_gegenbauer_rows` pass in place to sqrt(w) D_k / sqrt(sum(w) |D_k|^2), unit vectors
    whose dot products are Gram ratios; returns each row's norm and whether it is off 1 by more than ROW_NORM_TOL."""
    rows *= np.sqrt(w)
    rows /= np.sqrt(w.sum() * norm_sq)[:, None]
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    return norms, ~(np.abs(norms - 1.0) <= ROW_NORM_TOL)  # nan too


# Far past the checked range D_k overflows or its norm underflows, and the row-norm test refuses
# those rows; numpy's warnings would only be noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def zonal_gram(ks, targets, n: int) -> np.ndarray:
    """Normalised Gram rows |<Z_k, Z_c>| / (|Z_k| |Z_c|) of the zonal harmonics on S^{n-1}, one row per target c.

    Row i holds target c = targets[i] against each degree k in `ks`, so the result has shape
    (len(targets), len(ks)).  One Gegenbauer pass on the one sphere rule (x, w) exact to degree
    2 max(ks, targets) gives the rows sqrt(w) D_k / sqrt(sum(w) |D_k|^2), unit vectors whose dot
    products are the ratios.  Raises ToleranceError when a row's norm is off 1 by more than
    ROW_NORM_TOL: weights below the float range have lost their mass, and the ratios would no
    longer be clear of GRAM_RATIO_TOL.  `ks` and `targets` are sequences of degrees.

    A pass whose degrees are all SPHERE_NODE_STEP or more, on a rule in the checked band (`_in_band`), resumes
    from the rule's `_lattice` at the highest multiple of SPHERE_NODE_STEP at or below its lowest degree: a pass
    to 402 shares the degree-400 rule on small spheres.  Any other pass runs from degree 0 and touches no lattice.
    """
    if n < 3:
        raise InvalidParameterError("zonal harmonics require sphere_dim >= 3")
    degrees = [*ks, *targets]
    top = max(degrees, default=0)
    x, w = sphere_rule(2 * top, n - 3)
    # a scan's first degree is its lowest, so a scan from degree 0 never pays for the min
    resumable = SPHERE_NODE_STEP <= top and degrees[0] >= SPHERE_NODE_STEP and _in_band(n, len(x))
    k = min(degrees) // SPHERE_NODE_STEP if resumable else 0
    start = (k * SPHERE_NODE_STEP, _lattice(n, len(x))[k - 1]) if k else None
    rows, norm_sq = _gegenbauer_rows(top, (n - 2) / 2.0, x, degrees, start)
    norms, lost = _unit_rows(rows, norm_sq, w)
    if lost.any():
        i = int(np.argmax(lost))
        raise ToleranceError(_LOST_ROW.format(degrees[i], n - 1, norms[i]))
    return np.abs(rows[len(ks) :] @ rows[: len(ks)].T)


@lru_cache(maxsize=32)
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _witness_table(n: int, nodes: int):
    """Witness reach on the `nodes`-node sphere rule of S^{n-1}: reach[b] is the least k whose Gram ratio with b is
    above GRAM_RATIO_TOL (none: served + 1), from one pass to the largest degree the rule serves, served, and one full
    Gram of its unit rows, as `zonal_gram` forms them; and the norm of each lost row, by degree."""
    served = nodes - (n - 3) // 2 - 1
    x, w = sphere_rule(2 * served, n - 3)
    rows, norm_sq = _gegenbauer_rows(served, (n - 2) / 2.0, x, range(served + 1))
    norms, lost = _unit_rows(rows, norm_sq, w)
    above = np.abs(rows @ rows.T) > GRAM_RATIO_TOL
    reach = np.where(above.any(axis=1), above.argmax(axis=1), served + 1)
    return tuple(reach.tolist()), dict(zip(np.flatnonzero(lost).tolist(), norms[lost].tolist()))


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
    row norm, for the first lost degree in the order 0..a, then `bs`.

    In the checked band (`_in_band`) b is reachable when reach[b] <= a in the rule's `_witness_table`:
    one full Gram per rule, at most 416^2 doubles (1.4 MB) while it is built, and 32 cached rules of at
    most 416 ints each.  Past the band, where a table grows with degree^2, the rows are formed directly.
    """
    if n < 4:
        raise InvalidParameterError("ktype_pairing_nonzero requires n >= 4")
    bs = list(bs)
    if a < 0 or min(bs, default=0) < 0:
        raise InvalidParameterError("degrees must be non-negative")
    nodes = sphere_nodes(2 * max([a, *bs]), n - 4)
    if not _in_band(n - 1, nodes):
        return (zonal_gram(range(a + 1), bs, n - 1).max(axis=1) > GRAM_RATIO_TOL).tolist()
    reach, lost = _witness_table(n - 1, nodes)
    for degree in (*range(a + 1), *bs) if lost else ():
        if degree in lost:
            raise ToleranceError(_LOST_ROW.format(degree, n - 2, lost[degree]))
    return [reach[b] <= a for b in bs]


def ktype_pairing_nonzero(a: int, b: int, n: int) -> tuple[bool, float]:
    """The one-target verdict of :func:`ktype_pairings_nonzero` and its witness value.

    The value is :func:`witness_pairing_exact` rounded once, or 0.0, the exact value, when the type is unreachable.
    Raises ToleranceError when the value is nonzero but not a normal double (it grows like (a - b)!).
    """
    if not ktype_pairings_nonzero(a, [b], n)[0]:
        return False, 0.0
    return True, normal_ratio("witness value", f"degrees {(a, b)}", witness_pairing_exact(a, b, n))
