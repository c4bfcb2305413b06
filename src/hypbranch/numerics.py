"""Half-integer input, Gauss rules, and exact Gamma at half-integers.

Every representation-theoretic parameter in this library (spectral parameters,
harmonic degrees, decay exponents) is a half-integer.  Inside the library it
is a doubled int; a public function reads it through :func:`doubled` and
returns one as a ``fractions.Fraction``.  Floating point enters only inside
quadrature and in the one rounding of an exact Gamma ratio.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError, ToleranceError

__all__ = [
    "doubled",
    "gauss_legendre_rule",
    "gauss_legendre_on",
    "sphere_nodes",
    "sphere_rule",
    "half_gamma",
    "sqrt_pi_ratio",
]


def doubled(value) -> int:
    """Twice a half-integer given as an int, a Fraction or a finite float: doubled(1.5) == 3.

    Reads the numerator and denominator (float.as_integer_ratio for a float)
    and does no Fraction arithmetic.  Raises InvalidParameterError when the
    value is not an exact half-integer, and TypeError for any other type.
    """
    if isinstance(value, (int, Fraction)):
        num, den = value.numerator, value.denominator
    elif isinstance(value, float):
        # nan and inf have no ratio; den = 0 refuses them below
        num, den = value.as_integer_ratio() if math.isfinite(value) else (0, 0)
    else:
        raise TypeError(f"a half-integer is an int, a Fraction or a float, not {type(value).__name__}")
    if den not in (1, 2):
        raise InvalidParameterError(f"{value!r} is not an exact half-integer")
    return num if den == 2 else 2 * num


def _legendre_and_derivative(n: int, x):
    # P_n(x) and P_n'(x) by the three-term recurrence
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    for j in range(1, n + 1):
        p, p_prev = ((2 * j - 1) * x * p - (j - 1) * p_prev) / j, p
    return p, n * (p_prev - x * p) / (1.0 - x * x)


@lru_cache(maxsize=256)
def _legendre_rule(n: int):
    # Newton iteration on the three-term recurrence; deterministic, no tables.
    if n < 1:
        raise ValueError("node count must be >= 1")
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(n, x)  # derivative at the converged nodes
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Exact for polynomials of degree <= 2n-1; weights are positive and sum
    to 2.
    """
    x, w = _legendre_rule(int(n))
    return x.copy(), w.copy()


def gauss_legendre_on(a: float, b: float, n: int):
    """The n-point Gauss-Legendre rule mapped to the interval [a, b]."""
    x, w = _legendre_rule(int(n))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w.copy()


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
    if sin_power % 2 == 0:
        x, w = _legendre_rule(n)
        w = w * ((1.0 - x) * (1.0 + x)) ** (sin_power // 2)
    else:
        theta = np.pi * np.arange(n, 0, -1) / (n + 1)
        x = np.cos(theta)
        w = np.pi / (n + 1) * np.sin(theta) ** (sin_power + 1)
        x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def half_gamma(x2: int) -> tuple[int, int, int]:
    """Gamma(x2 / 2) for a doubled int x2 >= 1, exactly: (num, den, r) with Gamma = num / den * sqrt(pi)^r.

    Gamma(k) = (k-1)! and Gamma(k + 1/2) = (2k)! / (4^k k!) sqrt(pi) (DLMF 5.4.6),
    so r = x2 % 2.  math.factorial raises ValueError for x2 < 1.
    """
    k = x2 // 2
    if x2 % 2 == 0:
        return math.factorial(k - 1), 1, 0
    return math.factorial(2 * k), 4**k * math.factorial(k), 1


def sqrt_pi_ratio(num: int, den: int, sqrt_pi_power: int) -> float:
    """num / den * sqrt(pi)^sqrt_pi_power as a float, from one correctly rounded int/int division.

    The power of pi enters as the exact ratio of its double, so no intermediate
    result can underflow while the result is normal; a result above the float
    range is inf.
    """
    pi_num, pi_den = (math.pi ** (sqrt_pi_power / 2)).as_integer_ratio()
    try:
        return num * pi_num / (den * pi_den)
    except OverflowError:
        return math.inf


def sqrt_pi_error(value: float, sqrt_pi_power: int) -> float:
    """A rounded-up bound on |value - exact| for a normal value = :func:`sqrt_pi_ratio` (.., r); 0.0 at 0.0.

    math.pi^(r/2), C pow's last ulp (two) and the division are k = ceil(|r|/2) + 3 factors 1 + u, u = 2^-53, so
    gamma_k / (1 - gamma_k) <= (k + 1) u (Higham, Accuracy and Stability, 2nd ed., Lemma 3.1) bounds it relatively.
    """
    return math.nextafter(abs(value) * ((-(-abs(sqrt_pi_power) // 2) + 4) * 2.0**-53), math.inf) if value else 0.0


def normal_ratio(what: str, where: str, *factors: tuple[int, int, int]) -> float:
    """The exact product of (num, den, r) ratios, rounded once; ToleranceError when nonzero but not a normal double."""
    nums, dens, powers = zip(*factors)
    value = sqrt_pi_ratio(math.prod(nums), math.prod(dens), sum(powers))
    if all(nums) and not sys.float_info.min <= abs(value) < math.inf:
        raise ToleranceError(f"{what} {value} is not a normal double at {where}")
    return value
