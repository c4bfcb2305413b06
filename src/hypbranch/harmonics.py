"""Gegenbauer polynomials, generating functions, zonal spherical harmonics, and subsphere pairings.

The branching layer of the library: restriction pairings between a degree-a
zonal harmonic on S^{n-1} and degree-b zonal harmonics on the equatorial
subsphere S^{n-2}, together with a K-type witness certifying when the degree-b
component of the restricted K-type can be reached at all.  Both branching
verdicts read zonal Gram ratios of the same unit rows, from the one Gram table
of their sphere rule, whose column k lists the degrees whose ratio with k clears
the threshold: the g1 period asks whether c is in column a, the g2 witness
whether column b starts at a degree <= a.  The Gegenbauer pass is
:func:`.numerics._gegenbauer_rows`, the one recurrence of the package.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import InvalidParameterError, ToleranceError
from .exact import normal_ratio, witness_pairing_exact
from .fjrep import FJParam, check_range, decay_x2
from .numerics import _gegenbauer_rows, sphere_nodes, sphere_rule

__all__ = [
    "gegenbauer",
    "fj_eval",
    "zonal_gram",
    "zonal_pairings_nonzero",
    "ktype_pairing_nonzero",
    "ktype_pairings_nonzero",
]


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


# A Gram ratio |<Z_k, Z_c>| / (|Z_k| |Z_c|) above this is a non-zero pairing; it is scale-free, so one
# threshold serves every degree.
GRAM_RATIO_TOL = 1e-8
# A kernel row norm off 1 by more than this is lost weight mass.  Sampled to degree 4000 on n <= 128 the row
# norms stay within 2.3e-13 of 1; rows let through at GRAM_RATIO_TOL carried off-diagonal ratios to 5.8e-9.
ROW_NORM_TOL = 1e-12
_LOST_ROW = "zonal row norm at degree {} on S^{} is {}, not 1"


def _unit_rows(n: int, top: int, wanted):
    """The rows sqrt(w) D_k / sqrt(sum(w) |D_k|^2) of the degrees `wanted` on S^{n-1}, from one `_gegenbauer_rows` pass
    to `top` on the non-negative half of the sphere rule exact to degree 2 top.  The rule is mirror-symmetric bit for
    bit, so D_k(-x) = (-1)^k D_k(x) exactly: the half rule's weights are doubled (an odd count's middle node, x = 0,
    counted once), the dot product of two same-parity rows is their Gram ratio, and an opposite-parity ratio is exactly
    0, which the rows do not carry.  Returns the rows, the norm of the row of each degree 0..top, and whether each is
    off 1 by more than ROW_NORM_TOL: the pass scales the other degrees' rows as it spills them, by the same
    operations, for their norms alone."""
    x, w = sphere_rule(2 * top, n - 3)
    half = len(x) // 2
    x, w = x[half:], 2.0 * w[half:]
    if len(x) > half:
        w[0] *= 0.5
    root_w, mass, norms = np.sqrt(w), w.sum(), np.empty(top + 1)

    def unit(ks, rows, norm_sq):  # scales the rows of the degrees ks in place, and keeps their norms
        rows *= root_w
        rows /= np.sqrt(mass * norm_sq)[:, None]
        norms[ks] = np.sqrt(np.einsum("ij,ij->i", rows, rows))

    rows, norm_sq = _gegenbauer_rows(top, (n - 2) / 2.0, x, wanted, unit)
    unit(list(wanted), rows, norm_sq)
    return rows, norms, ~(np.abs(norms - 1.0) <= ROW_NORM_TOL)  # nan too


# Far past the checked range D_k overflows or its norm underflows, and the row-norm test refuses
# those rows; numpy's warnings would only be noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def zonal_gram(ks, targets, n: int) -> np.ndarray:
    """Normalised Gram rows |<Z_k, Z_c>| / (|Z_k| |Z_c|) of the zonal harmonics on S^{n-1}, one row per target c.

    Row i holds target c = targets[i] against each degree k in `ks` (sequences of degrees), so the result has
    shape (len(targets), len(ks)): dot products of the `_unit_rows` of one pass to max(ks, targets) where k and c
    have the same parity, exact zeros where they do not.  Raises ToleranceError when a row's norm is off 1 by more
    than ROW_NORM_TOL: weights below the float range have lost their mass, and the ratios would no longer be clear of
    GRAM_RATIO_TOL.
    """
    if n < 3:
        raise InvalidParameterError("zonal harmonics require sphere_dim >= 3")
    degrees = [*ks, *targets]
    rows, norms, lost = _unit_rows(n, max(degrees, default=0), degrees)
    for degree in degrees if lost.any() else ():
        if lost[degree]:
            raise ToleranceError(_LOST_ROW.format(degree, n - 1, norms[degree]))
    parity = np.array(degrees) % 2
    same = parity[len(ks) :, None] == parity[: len(ks)]
    return np.where(same, np.abs(rows[len(ks) :] @ rows[: len(ks)].T), 0.0)


# Columns of one parity that a pass forms together, the degrees 64i + p to 64i + 62 + p: at most a 208 x 32 block
# (53 kB), from one same-parity product
_GRAM_BLOCK = 32


@lru_cache(maxsize=32)
def _gram_table(n: int, nodes: int) -> tuple[dict, dict]:
    """The verdict table of the `nodes`-node sphere rule of S^{n-1}: two dicts, empty until `_read_table` fills them
    as requests read the table.  Its Gram is that of the `_unit_rows` of degrees 0 to size - 1, the largest the rule
    serves.  Its ratios between degrees of opposite parity are exact zeros, so it is two Grams, one per parity class,
    and the columns of each are formed in blocks of _GRAM_BLOCK.

    above[k] is the ascending tuple of the degrees whose Gram ratio with k is above GRAM_RATIO_TOL, the one view both
    verdicts read; lost maps each lost row's degree to its norm, from the first pass, which norm-checks every degree.
    The table only gains entries, lost before above, so threads share it with no lock: a race can only run one pass
    twice.
    """
    return {}, {}


def _read_table(n: int, nodes: int, columns, *degrees) -> dict:
    """The `above` view of the rule's `_gram_table`, with the blocks that hold `columns` formed; the kernel's message
    for the first lost one of `degrees`.

    A read that lacks a column, or finds the table empty, runs one `_unit_rows` pass, which norm-checks every degree
    but holds only the rows of the parities of the missing columns, and drops them: a g1 read of one parity holds and
    multiplies half of them.  In each parity the pass holds it forms the blocks of the 64-degree ranges that hold the
    missing columns."""
    above, lost = _gram_table(n, nodes)
    if not above or not all(map(above.__contains__, columns)):
        size = nodes - (n - 3) // 2
        missing = [k for k in columns if k not in above]  # none if another thread formed them since the check
        # a table of one range, at most 64 degrees, is formed whole: the other parity adds at most 32 short rows,
        # where a later read of it would pay a pass
        parities = {0, 1} if missing and size <= 2 * _GRAM_BLOCK else {k % 2 for k in missing}
        # the degrees of both parities, of one, or of none (a pass that only norm-checks)
        wanted = range(size) if len(parities) == 2 else range(min(parities, default=size), size, 2)
        ranges = {k // (2 * _GRAM_BLOCK) for k in missing}
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rows, norms, lost_rows = _unit_rows(n, size - 1, wanted)
            lost.update(zip(np.flatnonzero(lost_rows).tolist(), norms[lost_rows].tolist()))
            for parity in parities:
                same = rows[parity::2] if wanted.step == 1 else rows  # degrees parity, parity + 2, ...
                for i in ranges:
                    block = same @ same[i * _GRAM_BLOCK : i * _GRAM_BLOCK + _GRAM_BLOCK].T
                    # one nonzero of the thresholded transpose lists each column's rows in turn, ascending
                    js, found = np.nonzero((np.abs(block, out=block) > GRAM_RATIO_TOL).T)
                    ends = np.bincount(js, minlength=block.shape[1]).cumsum().tolist()
                    found = (2 * found + parity).tolist()
                    ks = range(2 * i * _GRAM_BLOCK + parity, size, 2)
                    above.update(zip(ks, (tuple(found[start:end]) for start, end in zip([0, *ends], ends))))
    for degree in chain(*degrees) if lost else ():
        if degree in lost:
            raise ToleranceError(_LOST_ROW.format(degree, n - 1, lost[degree]))
    return above


def zonal_pairings_nonzero(a: int, cs, n: int) -> list[bool]:
    """The g1 verdict: whether |<Z_c, Z_a>| / (|Z_c| |Z_a|) on S^{n-1} is above GRAM_RATIO_TOL, for each c in `cs`.

    Each verdict is whether c is in column a of the `_gram_table` of the sphere rule :func:`zonal_gram` picks,
    exact to degree 2 max(a, cs).  Raises InvalidParameterError past the checked range (`fjrep.check_range`,
    with q = n), and ToleranceError as `zonal_gram` does, for the first lost degree in the order `cs`, then a.
    """
    cs = list(cs)
    if n < 3 or a < 0 or min(cs, default=0) < 0:
        raise InvalidParameterError("zonal verdicts require sphere_dim >= 3 and non-negative degrees")
    top = max([a, *cs])  # a is checked first, so only a target can put top past the range
    check_range(n, a, top)
    column = _read_table(n, sphere_nodes(2 * top, n - 3), (a,), cs, (a,))[a]
    return [c in column for c in cs]


def ktype_pairings_nonzero(a: int, bs, n: int) -> list[bool]:
    """Certify, for each degree b in `bs`, whether the degree-b subsphere type is reachable from a.

    The witness family spans the degree-a harmonics on S^{n-1} invariant under the equatorial band: member
    j = a - k is the harmonic projection of u^j Z_k, with u the coordinate normal to the subsphere S^{n-2} and
    Z_k its degree-k zonal harmonic.  That projection is a multiple of r^j C_j^lam(u/r) Z_k with
    lam = k + (n-2)/2 (Axler, Bourdon & Ramey, Harmonic Function Theory, ch. 5), so every normal-derivative
    trace of member j on S^{n-2} is a multiple of Z_k.  Pairing the traces against Z_b therefore reduces to the
    normalised Gram row |<Z_k, Z_b>| / (|Z_k| |Z_b|), k = 0..a, on S^{n-2}.  The type is reachable when the
    row's maximum exceeds GRAM_RATIO_TOL: true exactly when 0 <= b <= a.

    Returns one verdict per b: b is reachable when column b of the sphere rule's `_gram_table` starts at a degree <= a;
    b's row passed the lost-row test, so b's own ratio, its norm squared, is in that column.  Raises
    InvalidParameterError past the checked range (`fjrep.check_range`, with q = n), and ToleranceError when the
    kernel refuses a row norm, for the first lost degree in the order 0..a, then `bs`.
    """
    bs = list(bs)
    if n < 4 or a < 0 or min(bs, default=0) < 0:
        raise InvalidParameterError("the K-type witness requires n >= 4 and non-negative degrees")
    top = max([a, *bs])
    check_range(n, a, top)
    above = _read_table(n - 1, sphere_nodes(2 * top, n - 4), bs, range(a + 1), bs)
    return [above[b][0] <= a for b in bs]


def ktype_pairing_nonzero(a: int, b: int, n: int) -> tuple[bool, float]:
    """The one-target verdict of :func:`ktype_pairings_nonzero` and its witness value.

    The value is :func:`witness_pairing_exact` rounded once, or 0.0, the exact value, when the type is unreachable.
    Raises ToleranceError when the value is nonzero but not a normal double (it grows like (a - b)!).
    """
    if not ktype_pairings_nonzero(a, [b], n)[0]:
        return False, 0.0
    return True, normal_ratio("witness value", (a, b), witness_pairing_exact(a, b, n))
