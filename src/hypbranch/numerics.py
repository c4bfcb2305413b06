"""Gauss rules: Gauss-Legendre on an interval and the degree-exact sphere rules.

Floating point enters the library only inside quadrature (these rules and the
Gegenbauer recurrence in :mod:`.harmonics`) and in the one rounding of an exact
ratio.  Half-integer input and the exact Gamma ratios live in :mod:`.exact`,
which imports no numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre_rule",
    "gauss_legendre_on",
    "sphere_nodes",
    "sphere_rule",
]


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
