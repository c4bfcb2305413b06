"""Gegenbauer polynomials, zonal spherical harmonics, and subsphere pairings.

The branching layer of the library: restriction pairings between a degree-a
zonal harmonic on S^{n-1} and degree-b zonal harmonics on the equatorial
subsphere S^{n-2}, together with a K-type witness certifying when the degree-b
component of the restricted K-type can be reached at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, ToleranceError
from .numerics import log_gamma, sphere_nodes, sphere_rule

__all__ = [
    "gegenbauer",
    "sphere_area",
    "ZonalHarmonic",
    "weighted_cos_integral",
    "zonal_norm_sq",
    "zonal_norm_sq_closed",
    "zonal_gram",
    "pairing_subsphere",
    "so_branching_multiplicity",
    "ktype_pairing_nonzero",
    "ktype_pairings_nonzero",
]

def _gegenbauer_series(n: int, nu: float, x: np.ndarray):
    """Yield C_0^nu(x), ..., C_n^nu(x) by the three-term recurrence.

    k * C_k = 2(k+nu-1) x C_{k-1} - (k+2nu-2) C_{k-2},  C_0 = 1,  C_1 = 2 nu x.
    """
    c_prev = np.ones_like(x)
    yield c_prev
    if n == 0:
        return
    c = 2.0 * nu * x
    yield c
    for k in range(2, n + 1):
        c, c_prev = (2.0 * (k + nu - 1.0) * x * c - (k + 2.0 * nu - 2.0) * c_prev) / k, c
        yield c


def gegenbauer(n: int, nu: float, x):
    """Evaluate the Gegenbauer polynomial C_n^nu(x) by the three-term recurrence.

    Accepts scalar or ndarray x.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    for c in _gegenbauer_series(n, nu, np.asarray(x, dtype=float)):
        pass
    return c if c.ndim else float(c)


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise ValueError("sphere_area requires n >= 1")
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.exp(log_gamma(n / 2.0))
    except OverflowError:  # Gamma(n/2) leaves the float range from n = 344
        raise ToleranceError(f"sphere area of S^{n - 1} is out of floating-point range", math.inf) from None


@dataclass(frozen=True)
class ZonalHarmonic:
    """The degree-a zonal spherical harmonic on S^{n-1} about a pole.

    Realized as C_a^{(n-2)/2} of the pole coordinate.  n = 2 would need the
    degenerate (nu = 0) Chebyshev limit and is rejected; every sphere in this
    library has n >= 3.
    """

    degree: int
    sphere_dim: int
    pole: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.degree < 0:
            raise InvalidParameterError("zonal harmonic degree must be >= 0")
        if self.sphere_dim < 3:
            raise InvalidParameterError(
                "sphere_dim < 3 hits the degenerate nu = 0 Gegenbauer case"
            )
        pole = self.pole
        if pole is None:
            pole = np.zeros(self.sphere_dim)
            pole[-1] = 1.0
        pole = np.asarray(pole, dtype=float)
        if pole.shape != (self.sphere_dim,):
            raise InvalidParameterError("pole has wrong dimension")
        if abs(np.linalg.norm(pole) - 1.0) > 1e-12:
            raise InvalidParameterError("pole must be a unit vector (1e-12)")
        object.__setattr__(self, "pole", pole)

    @property
    def gegenbauer_order(self) -> float:
        return (self.sphere_dim - 2) / 2.0

    def value_at_cos(self, x):
        """Value as a function of the cosine <y, pole>."""
        return gegenbauer(self.degree, self.gegenbauer_order, x)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return self.value_at_cos(y @ self.pole)


def weighted_cos_integral(f, sin_power: int, degree: int) -> float:
    """Integral of f(x) (1-x^2)^{sin_power/2} over [-1, 1].

    Exact (up to rounding) when f is a polynomial of degree <= degree.
    """
    x, w = sphere_rule(degree, sin_power)
    return float(np.sum(w * np.asarray(f(x), dtype=float)))


def _zonal_rows(top: int, n: int, wanted):
    """The wanted rows of Z_0..Z_top on S^{n-1}, on the sphere rule exact to degree 2 top, and its weights."""
    x, w = sphere_rule(2 * top, n - 3)
    rows = {k: z for k, z in enumerate(_gegenbauer_series(top, (n - 2) / 2.0, x)) if k in wanted}
    return rows, sphere_area(n - 1) * w


# Beyond the checked range the zonal values overflow; callers refuse non-finite
# results with ToleranceError, so numpy's warnings would only be noise.
@np.errstate(over="ignore", invalid="ignore")
def zonal_gram(a: int, targets, n: int):
    """Pairings of the degree-a zonal harmonic with the degree sequence `targets` on S^{n-1}.

    Returns (<Z_a, Z_c> for each c, |Z_a|^2, |Z_c|^2 for each c) as quadratures from
    one Gegenbauer pass up to top = max(a, targets) on the sphere rule exact to degree
    2 top, keeping only the rows of a and of the targets.
    """
    if n < 3:
        raise InvalidParameterError("zonal harmonics require sphere_dim >= 3")
    rows, weight = _zonal_rows(max([a, *targets]), n, {a, *targets})
    zonals = np.array([rows[c] for c in targets]).reshape(len(targets), len(weight))
    return zonals @ (weight * rows[a]), float(rows[a] ** 2 @ weight), zonals**2 @ weight


def zonal_norm_sq(a: int, n: int) -> float:
    """L^2(S^{n-1}) norm squared of the degree-a zonal harmonic, by quadrature."""
    return zonal_gram(a, (), n)[1]


def zonal_norm_sq_closed(a: int, n: int) -> float:
    """Closed form of :func:`zonal_norm_sq` from Gegenbauer orthogonality."""
    if n < 3:
        raise InvalidParameterError("zonal_norm_sq_closed requires sphere_dim >= 3")
    nu = (n - 2) / 2.0
    line = (
        math.pi
        * 2.0 ** (1.0 - 2.0 * nu)
        * math.exp(log_gamma(a + 2.0 * nu) - log_gamma(a + 1.0) - 2.0 * log_gamma(nu))
        / (a + nu)
    )
    return sphere_area(n - 1) * line


def pairing_subsphere(a: int, b: int, n: int) -> float:
    """Restriction pairing of zonal harmonics across the equatorial subsphere.

    The degree-a zonal harmonic of S^{n-1} (pole inside the subsphere) is
    restricted to S^{n-2} and integrated against the degree-b zonal harmonic
    of S^{n-2} about the same pole.  Vanishes when b > a or a - b is odd.
    """
    if n < 4:
        raise InvalidParameterError("pairing_subsphere requires n >= 4")
    nu_big = (n - 2) / 2.0
    nu_sub = (n - 3) / 2.0
    return sphere_area(n - 2) * weighted_cos_integral(
        lambda x: gegenbauer(a, nu_big, x) * gegenbauer(b, nu_sub, x),
        n - 4,
        a + b,
    )


def so_branching_multiplicity(a: int, b: int) -> int:
    """Multiplicity of the one-row SO(n-1)-type b in the restriction of type a."""
    if a < 0 or b < 0:
        raise InvalidParameterError("degrees must be non-negative")
    return 1 if b <= a else 0


@np.errstate(over="ignore", invalid="ignore")
def ktype_pairings_nonzero(a: int, bs, n: int) -> list[tuple[bool, float]]:
    """Certify, for each degree b in `bs`, whether the degree-b subsphere type is reachable from a.

    The witness family spans the degree-a harmonics on S^{n-1} invariant
    under the equatorial band: member j = a - k is the harmonic projection of
    u^j Z_k, with u the coordinate normal to the subsphere S^{n-2} and Z_k its
    degree-k zonal harmonic.  That projection is a multiple of
    r^j C_j^lam(u/r) Z_k with lam = k + (n-2)/2 (Axler, Bourdon & Ramey,
    Harmonic Function Theory, ch. 5), so every normal-derivative trace of
    member j on S^{n-2} is a multiple of Z_k.  Pairing the traces against Z_b
    therefore reduces to the normalised Gram row |<Z_k, Z_b>| / (|Z_k| |Z_b|),
    k = 0..a, on the sphere rule.  The type is reachable when the row's
    maximum exceeds 1e-8 (scale-free threshold): true exactly when
    0 <= b <= a.

    The targets are grouped by the sphere rule on S^{n-2} that max(a, b) maps
    to (:func:`sphere_nodes` of degree 2 max(a, b)), and each group takes one
    Gegenbauer pass up to its largest degree: all b <= a share the rule of
    degree 2a, and a b > a joins it unless 2b crosses a lattice step.  Each b
    keeps its own Gram row and norm, so a row does not depend on the other
    targets of its call.

    Returns one (nonzero, witness_value) per b.  witness_value is the pairing
    with Z_b of the leading (j-th) normal trace K Z_k of the best member k, where
    K = j! (2 lam)_j / (2^j (lam)_j).  Raises ToleranceError when a zonal norm
    is not finite.
    """
    if n < 4:
        raise InvalidParameterError("ktype_pairing_nonzero requires n >= 4")
    bs = list(bs)
    if a < 0 or min(bs, default=0) < 0:
        raise InvalidParameterError("degrees must be non-negative")
    groups = {}
    for b in bs:
        groups.setdefault(sphere_nodes(2 * max(a, b), n - 4), []).append(b)
    found = {}
    for batch in groups.values():
        rows, weight = _zonal_rows(max(a, *batch), n - 1, {*range(a + 1), *batch})
        zonals = np.array([rows[k] for k in range(a + 1)])
        norms_sq = zonals**2 @ weight
        largest = float(norms_sq.max())
        grams = np.array([zonals @ (weight * rows[b]) for b in batch])
        norms_b = [float(rows[b] ** 2 @ weight) for b in batch]
        for b, norm_b in zip(batch, norms_b):
            if not math.isfinite(norm_b * largest):
                raise ToleranceError(f"zonal norm not finite at degrees ({a}, {b})", math.inf)
        ratios = np.abs(grams) / np.sqrt(norms_sq * np.array(norms_b)[:, None])
        ks = np.argmax(ratios, axis=1).tolist()
        for b, k, r, gram in zip(batch, ks, ratios, grams):
            lam = k + (n - 2) / 2.0
            leading = math.prod((i + 1) * (2.0 * lam + i) / (2.0 * (lam + i)) for i in range(a - k))
            found[b] = bool(r[k] > 1e-8), leading * float(gram[k])
    return [found[b] for b in bs]


def ktype_pairing_nonzero(a: int, b: int, n: int) -> tuple[bool, float]:
    """The one-target form of :func:`ktype_pairings_nonzero`."""
    return ktype_pairings_nonzero(a, [b], n)[0]
