"""Exact half-integer scalars, Gauss rules, and Gamma/Beta helpers.

Every representation-theoretic parameter in this library (spectral parameters,
harmonic degrees, decay exponents) is a half-integer and is kept exact through
:class:`HalfInt`; floating point enters only inside quadrature and the special
functions below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HalfInt",
    "QuadratureSpec",
    "gauss_legendre_rule",
    "gauss_legendre_on",
    "sphere_rule",
    "log_gamma",
    "beta",
]


class HalfInt:
    """An exact element of (1/2)Z, stored as twice its value.

    Closed under addition, subtraction, negation and multiplication by
    integers; totally ordered.  Use :meth:`from_twice` when the input is a
    doubled integer (the wire convention used by the CLI), or pass a value
    that is an exact multiple of one half.
    """

    __slots__ = ("twice",)

    def __init__(self, value):
        if isinstance(value, HalfInt):
            self.twice = value.twice
        elif isinstance(value, int):
            self.twice = 2 * value
        elif isinstance(value, float):
            doubled = 2.0 * value
            if doubled != int(doubled):
                raise ValueError(f"{value!r} is not an exact half-integer")
            self.twice = int(doubled)
        else:
            raise TypeError(f"cannot build HalfInt from {type(value).__name__}")

    @classmethod
    def from_twice(cls, twice: int) -> "HalfInt":
        obj = cls.__new__(cls)
        obj.twice = int(twice)
        return obj

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_integer(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt.from_twice(self.twice + other.twice)
        if isinstance(other, int):
            return HalfInt.from_twice(self.twice + 2 * other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt.from_twice(self.twice - other.twice)
        if isinstance(other, int):
            return HalfInt.from_twice(self.twice - 2 * other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return HalfInt.from_twice(2 * other - self.twice)
        return NotImplemented

    def __neg__(self):
        return HalfInt.from_twice(-self.twice)

    def __abs__(self):
        return HalfInt.from_twice(abs(self.twice))

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfInt.from_twice(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    # -- ordering -----------------------------------------------------------
    def _cmp_twice(self, other):
        if isinstance(other, HalfInt):
            return other.twice
        if isinstance(other, int):
            return 2 * other
        if isinstance(other, float):
            return 2.0 * other
        return None

    def __eq__(self, other):
        t = self._cmp_twice(other)
        return NotImplemented if t is None else self.twice == t

    def __lt__(self, other):
        t = self._cmp_twice(other)
        return NotImplemented if t is None else self.twice < t

    def __le__(self, other):
        t = self._cmp_twice(other)
        return NotImplemented if t is None else self.twice <= t

    def __gt__(self, other):
        t = self._cmp_twice(other)
        return NotImplemented if t is None else self.twice > t

    def __ge__(self, other):
        t = self._cmp_twice(other)
        return NotImplemented if t is None else self.twice >= t

    def __hash__(self):
        return hash(self.twice / 2)

    def __float__(self):
        return self.twice / 2.0

    def __repr__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


HALF = HalfInt.from_twice(1)


@dataclass(frozen=True)
class QuadratureSpec:
    """Node count and tolerances of the radial rule (sphere rules follow the degree)."""

    radial_nodes: int = 200
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.radial_nodes < 2:
            raise ValueError("node counts must be >= 2")
        for tol in (self.abs_tol, self.rel_tol):
            if not (math.isfinite(tol) and tol >= 0):
                raise ValueError("tolerances must be finite and non-negative")


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


@lru_cache(maxsize=256)
def sphere_rule(degree: int, sin_power: int):
    """Nodes and weights on [-1, 1] for int f(x) (1-x^2)^{sin_power/2} dx.

    Exact whenever f is a polynomial of degree <= degree.  Even sin_power:
    Gauss-Legendre with the weight folded in; odd sin_power: Gauss-Chebyshev
    of the second kind, whose weight carries the half-odd power (DLMF 3.5(v)).
    Arrays are read-only and shared between calls.
    """
    if degree < 0 or sin_power < 0:
        raise ValueError("degree and sin_power must be >= 0")
    if sin_power % 2 == 0:
        x, w = _legendre_rule((degree + sin_power) // 2 + 1)
        w = w * ((1.0 - x) * (1.0 + x)) ** (sin_power // 2)
    else:
        n = (degree + sin_power - 1) // 2 + 1
        theta = np.pi * np.arange(n, 0, -1) / (n + 1)
        x = np.cos(theta)
        w = np.pi / (n + 1) * np.sin(theta) ** (sin_power + 1)
        x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    x = float(x)
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta(x: float, y: float) -> float:
    """Euler Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y) for x, y > 0."""
    x, y = float(x), float(y)
    if not (x > 0 and y > 0):
        raise ValueError(f"beta requires positive arguments, got ({x}, {y})")
    return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))
