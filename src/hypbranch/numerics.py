"""Gauss rules and the one Gegenbauer recurrence: Gauss-Legendre on [-1, 1] and the degree-exact sphere rules.

Floating point enters the library only inside quadrature (these rules, and the pass :func:`_gegenbauer_rows` that the
Legendre rule's Newton steps and the Gram rows of :mod:`.harmonics` run) and in the one rounding of an exact ratio.
Half-integer input and the exact Gamma ratios live in :mod:`.exact`, which imports no numpy.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre_rule",
    "sphere_nodes",
    "sphere_rule",
]


# The rows of unwanted degrees a pass hands its `spill` at a time: a 16 x 208 buffer (27 kB) on the largest half rule
_SPILL_ROWS = 16


@lru_cache(maxsize=64)
def _recurrence(nu: float, length: int):
    """Coefficients 4c_k of :func:`_gegenbauer_rows` for k < length, and the squared row norms of its pass, as two
    read-only float64 arrays.

    Norm k is |D_k|^2 against the weight of total mass 1: prod_{i=1..k} 4c_{i+1}, since c_{i+1} is
    the monic recurrence coefficient beta_i (Gautschi, Orthogonal Polynomials, 2004, sec. 1.3).
    """
    k = np.arange(2.0, length)
    four_c = np.concatenate(([0.0, 0.0], (k - 1) * (k + 2 * nu - 2) / ((k + nu - 1) * (k + nu - 2))))
    norm_sq = np.concatenate(([1.0], np.cumprod(four_c[2:])))
    four_c.setflags(write=False)
    norm_sq.setflags(write=False)
    return four_c, norm_sq


def _gegenbauer_rows(n: int, nu: float, x: np.ndarray, wanted, spill=None):
    """D_k = C_k^nu k! / (nu)_k at the 1-D nodes x, one row per degree k of `wanted` (all <= n), and each |D_k|^2.

    One pass to n on the rescaled family, 2^k times the monic one (DLMF 18.9.1): D_0 = 1, D_1 = 2x and
    D_k = 2x D_{k-1} - 4c_k D_{k-2},  4c_k = (k-1)(k+2nu-2) / ((k+nu-1)(k+nu-2)),
    so each step is three array operations and D_k grows only like k^nu.  The norms are against the weight
    (1-x^2)^{nu-1/2} of total mass 1.  The coefficients are cached per (nu, n + 2 rounded up to SPHERE_NODE_STEP).
    Requires nu > 0: the coefficients have poles at nu <= 0.  Each distinct degree's row is written once into
    one preallocated array, which is copied only when `wanted` repeats a degree.  With `spill`, the rows of the
    other degrees are written in turn into one buffer of _SPILL_ROWS rows, and spill(ks, buffer, norm_sq) is called
    with its degrees, rows and squared norms each time it fills, and at the end: the caller reads every degree's row
    but holds only the wanted ones.
    """
    four_c, norm_sq = _recurrence(nu, -(-(n + 2) // SPHERE_NODE_STEP) * SPHERE_NODE_STEP)
    four_c = four_c[: n + 1].tolist()  # a Python float times an array costs less than a numpy scalar
    slot = {k: i for i, k in enumerate(dict.fromkeys(wanted))}
    rows, two_x = np.empty((len(slot), len(x))), 2.0 * x
    spare, spilled = np.empty((_SPILL_ROWS if spill else 0, len(x))), []
    d_prev, d = np.zeros(len(x)), np.ones(len(x))  # D_{-1} = 0, and 4c_1 = 0: the first step gives D_1 = 2x
    for k in range(n + 1):
        if k in slot:
            rows[slot[k]] = d
        elif spill:
            spare[len(spilled)] = d
            spilled.append(k)
            if len(spilled) == _SPILL_ROWS:
                spill(spilled, spare, norm_sq[spilled])
                spilled = []
        if k < n:
            d_next = two_x * d
            d_next -= four_c[k + 1] * d_prev
            d_prev, d = d, d_next
    if spilled:
        spill(spilled, spare[: len(spilled)], norm_sq[spilled])
    if len(slot) < len(wanted):
        rows = rows[[slot[k] for k in wanted]]
    return rows, norm_sq[list(wanted)]


# The first zeros j_k of J_0 (DLMF 10.21(i)), for Gatteschi's start at the largest Legendre nodes
_J0_ZEROS = (
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281, 14.930917708487787,
    18.071063967910924, 21.21163662987926, 24.352471530749302, 27.493479132040253, 30.634606468431976,
    33.77582021357357, 36.917098353664045, 40.05842576462824, 43.19979171317673, 46.341188371661815,
)


def _legendre_start(n: int):
    """The ceil(n/2) non-negative Legendre nodes to O(n^-5), largest first (Hale & Townsend, SIAM J. Sci. Comput. 35
    (2013) A652-A674, sec. 3).

    Tricomi's second-order (1 - (n-1)/(8n^3) - (39 - 28/sin^2 phi)/(384n^4)) cos phi, phi = pi (4k - 1)/(4n + 2),
    written as a sine so an odd n's middle node is exactly 0; at the len(_J0_ZEROS) largest positive nodes, where
    that loses accuracy, Gatteschi's cos theta = 1 - 2 sin^2(theta/2) with theta = (j_k/nu)(1 - (j_k^2 - 2)/(360 nu^4)),
    nu^2 = (n + 1/2)^2 + 1/12.  Sines only: numpy's cosine kernel, on first use, adds 0.25 MB to peak RSS.
    """
    s = np.sin(np.pi * np.arange(n - 1, -1, -2) / (2 * n + 1))
    x = (1.0 - (n - 1) / (8 * n**3) - (39.0 - 28.0 / ((1.0 - s) * (1.0 + s))) / (384 * n**4)) * s
    j = np.array(_J0_ZEROS[: n // 2])
    nu = math.sqrt((n + 0.5) ** 2 + 1 / 12)
    h = np.sin(j / nu * (0.5 - (j * j - 2.0) / (720 * nu**4)))
    x[: len(j)] = 1.0 - 2.0 * h * h
    return x


@lru_cache(maxsize=256)
def _legendre_rule(n: int):
    """Newton on the three-term recurrence for the ceil(n/2) non-negative nodes, mirrored; deterministic, no tables.

    A pass is :func:`_gegenbauer_rows` at nu = 1/2, on D_k = P_k 4^k / C(2k, k): its 4c_k = (k-1)^2 / ((k-1/2)(k-3/2))
    is (2k-2)^2 / ((2k-1)(2k-3)) with both terms divided by 4, exactly, so the same double.  Then
    (1 - x^2) P_n' = n C(2n, n) 4^-n s / (2n - 1) with s = 2n D_{n-1} - (2n - 1) x D_n, so the Newton step is
    (1 - x^2) r, r = (2n - 1) D_n / (n s), and the weight 2 / ((1 - x^2) P_n'^2) is (1 - x^2) / s^2 times the exact
    2 (2n - 1)^2 16^n / (n C(2n, n))^2, rounded once, and times 1 + 2xr, which carries it to first order from the
    last pass's nodes to the stepped ones (whether x there is the one or the other is a second-order difference).
    The start is :func:`_legendre_start`.  Newton's error after a step dx is about |x| dx^2 / (1 - x^2), so the
    loop stops after the step at which dx^2 <= 2^-56 (1 - x^2) at every node: that error is then below an
    eighth of an ulp.  From 80 nodes up the start is close enough that one pass meets it.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    x = _legendre_start(n)
    for _ in range(100):
        (d_prev, d), _ = _gegenbauer_rows(n, 0.5, x, (n - 1, n))
        s = 2 * n * d_prev - (2 * n - 1) * x * d
        r, one_minus_x2 = (2 * n - 1) * d / (n * s), (1.0 - x) * (1.0 + x)
        dx = one_minus_x2 * r
        x = x - dx
        # dx^2 <= 2^-56 (1 - x^2) at every node, as a max: np.all's reduction adds 0.25 MB to peak RSS
        if np.max(dx * dx - 2.0**-56 * one_minus_x2) <= 0.0:
            break
    scale = 2 * (2 * n - 1) ** 2 * 16**n / (n * math.comb(2 * n, n)) ** 2
    w = scale * one_minus_x2 / (s * s) * (1.0 + 2.0 * x * r)
    x, w = np.concatenate([-x[: n // 2], x[::-1]]), np.concatenate([w[: n // 2], w[::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Exact for polynomials of degree <= 2n-1; weights are positive and sum
    to 2.  n is an integer (`operator.index`): a float or a str raises TypeError.
    """
    x, w = _legendre_rule(operator.index(n))
    return x.copy(), w.copy()


# Sphere rules take their node counts from a lattice of this step, so nearby
# degrees share one rule (and nearby passes one cached set of recurrence coefficients).
SPHERE_NODE_STEP = 16


def sphere_nodes(degree: int, sin_power: int) -> int:
    """Node count of :func:`sphere_rule`: the least multiple of SPHERE_NODE_STEP exact to `degree`.

    Exactness needs (degree + sin_power) // 2 + 1 Gauss-Legendre nodes for even
    sin_power, and (degree + sin_power + 1) // 2 Gauss-Chebyshev nodes for odd.
    """
    if degree < 0 or sin_power < 0:
        raise ValueError("degree and sin_power must be >= 0")
    exact = (degree + sin_power + 2 - sin_power % 2) // 2
    return -(-exact // SPHERE_NODE_STEP) * SPHERE_NODE_STEP


def sphere_rule(degree: int, sin_power: int):
    """Nodes and weights on [-1, 1] for int f(x) (1-x^2)^{sin_power/2} dx.

    Exact whenever f is a polynomial of degree <= degree.  Even sin_power:
    Gauss-Legendre with the weight folded in; odd sin_power: Gauss-Chebyshev
    of the second kind, whose weight carries the half-odd power (DLMF 3.5(v)).
    The node count is :func:`sphere_nodes`, so every degree on one lattice
    step gets the same rule.  Arrays are read-only and shared between calls.
    """
    return _sphere_rule(sphere_nodes(degree, sin_power), sin_power)


@lru_cache(maxsize=256)
def _sphere_rule(n: int, sin_power: int):
    """Mirror-symmetric bit for bit.  Odd powers: the ceil(n/2) non-negative nodes cos(pi k / (n + 1)), largest first,
    and their weights pi / (n + 1) sin(pi k / (n + 1))^(sin_power + 1), mirrored as in :func:`_legendre_rule`; only
    sines of angles <= pi/2, so no weight near x = -1 rests on the sine of an angle rounded near pi."""
    if sin_power % 2 == 0:
        x, w = _legendre_rule(n)
        w = w * ((1.0 - x) * (1.0 + x)) ** (sin_power // 2)
    else:
        k = np.arange(1.0, (n + 1) // 2 + 1)
        x = np.sin(np.pi * (n + 1 - 2 * k) / (2 * (n + 1)))
        w = np.pi / (n + 1) * np.sin(np.pi * k / (n + 1)) ** (sin_power + 1)
        x, w = np.concatenate([-x[: n // 2], x[::-1]]), np.concatenate([w[: n // 2], w[::-1]])
        x.setflags(write=False)
    w.setflags(write=False)
    return x, w
