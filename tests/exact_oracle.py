"""Exact oracle for every printed factor, on ``fractions`` alone.

Independent of ``hypbranch``: nothing is imported from it.  A sphere integral
int f(x) (1-x^2)^{s/2} dx of a polynomial f is the sum of f's rational
coefficients against the exact moments of (1-x^2)^{s/2}; the Gegenbauer
coefficients come from the explicit sum (DLMF 18.5.10), and Gamma at a
half-integer from (k-1)! and (2k)! / (4^k k!) sqrt(pi).  A quantity is held as
(q, r), the Fraction q times sqrt(pi)^r, and :func:`to_float` rounds it once
from a sqrt(pi) accurate to about 2^-400.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

_BITS = 400


def _arctan_inv(x: int, one: int) -> int:
    # arctan(1/x) scaled by `one`, by its alternating Taylor series
    total, term, k = 0, one // x, 0
    while term:
        total += term // (2 * k + 1) if k % 2 == 0 else -(term // (2 * k + 1))
        term //= x * x
        k += 1
    return total


@lru_cache(maxsize=None)
def _sqrt_pi_scaled() -> int:
    """floor(sqrt(pi) 2^_BITS), from Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    one = 1 << (2 * _BITS + 16)
    pi_scaled = 16 * _arctan_inv(5, one) - 4 * _arctan_inv(239, one)  # pi 2^(2 _BITS + 16)
    return math.isqrt(pi_scaled << 16) >> 16


def to_float(value: tuple[Fraction, int]) -> float:
    """q sqrt(pi)^r correctly rounded from a power of sqrt(pi) good to about (|r| + 1) 2^-400; inf above the range."""
    q, r = value
    s, scaled = _sqrt_pi_scaled(), 1 << _BITS
    for _ in range(abs(r)):
        scaled = scaled * s >> _BITS
    power = Fraction(scaled, 1 << _BITS)
    try:
        return float(q * power if r >= 0 else q / power)
    except OverflowError:
        return math.inf


def half_gamma(x2: int) -> tuple[Fraction, int]:
    """Gamma(x2 / 2) for x2 >= 1."""
    k = x2 // 2
    if x2 % 2 == 0:
        return Fraction(math.factorial(k - 1)), 0
    return Fraction(math.factorial(2 * k), 4**k * math.factorial(k)), 1


def mul(*values: tuple[Fraction, int]) -> tuple[Fraction, int]:
    return math.prod((q for q, _ in values), start=Fraction(1)), sum(r for _, r in values)


def div(x: tuple[Fraction, int], y: tuple[Fraction, int]) -> tuple[Fraction, int]:
    return x[0] / y[0], x[1] - y[1]


def sphere_area(n: int) -> tuple[Fraction, int]:
    """Area of S^{n-1}: 2 pi^{n/2} / Gamma(n/2)."""
    return div((Fraction(2), n), half_gamma(n))


def moment(j: int, s: int) -> tuple[Fraction, int]:
    """int_{-1}^{1} x^j (1-x^2)^{s/2} dx = B((j+1)/2, s/2+1) for even j, 0 for odd j."""
    if j % 2:
        return Fraction(0), 0
    return div(mul(half_gamma(j + 1), half_gamma(s + 2)), half_gamma(j + s + 3))


@lru_cache(maxsize=None)
def gegenbauer(n: int, nu2: int) -> tuple[Fraction, ...]:
    """Coefficients of C_n^nu in x^0 .. x^n, nu = nu2 / 2 > 0.

    C_n^nu(x) = sum_k (-1)^k (nu)_{n-k} (2x)^{n-2k} / (k! (n-2k)!).
    """
    nu = Fraction(nu2, 2)
    rising = [Fraction(1)]  # (nu)_i for i = 0..n
    for i in range(n):
        rising.append(rising[-1] * (nu + i))
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        power = n - 2 * k
        coeffs[power] = (-1) ** k * rising[n - k] * 2**power / (math.factorial(k) * math.factorial(power))
    return tuple(coeffs)


def sphere_integral(f: tuple[Fraction, ...], g: tuple[Fraction, ...], s: int) -> tuple[Fraction, int]:
    """int f(x) g(x) (1-x^2)^{s/2} dx of two coefficient lists."""
    product = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                product[i + j] += fi * gj
    r = moment(0, s)[1]  # every even moment carries the same power of sqrt(pi)
    return sum((c * moment(k, s)[0] for k, c in enumerate(product) if c and k % 2 == 0), Fraction(0)), r


def zonal_norm_sq(a: int, n: int) -> tuple[Fraction, int]:
    """|Z_a|^2 on S^{n-1}, Z_a = C_a^{(n-2)/2}(x)."""
    c = gegenbauer(a, n - 2)
    return mul(sphere_area(n - 1), sphere_integral(c, c, n - 3))


def pairing_subsphere(a: int, b: int, n: int) -> tuple[Fraction, int]:
    """area(S^{n-3}) int C_a^{(n-2)/2} C_b^{(n-3)/2} (1-x^2)^{(n-4)/2} dx."""
    return mul(sphere_area(n - 2), sphere_integral(gegenbauer(a, n - 2), gegenbauer(b, n - 3), n - 4))


def witness_pairing(a: int, b: int, n: int) -> tuple[Fraction, int]:
    """K |Z_b|^2 on S^{n-2}, K = j! (2 lam)_j / (2^j (lam)_j), j = a - b, lam = b + (n-2)/2; 0 unless 0 <= b <= a."""
    if not 0 <= b <= a:
        return Fraction(0), 0
    j, lam = a - b, Fraction(2 * b + n - 2, 2)
    k = math.factorial(j) * math.prod((2 * lam + i for i in range(j)), start=Fraction(1))
    k /= 2**j * math.prod((lam + i for i in range(j)), start=Fraction(1))
    return mul((k, 0), zonal_norm_sq(b, n - 1))


def wallis(a: int, m: int) -> tuple[Fraction, int]:
    """int_0^{pi/2} sin^a cos^m = B((a+1)/2, (m+1)/2) / 2."""
    return div(mul((Fraction(1, 2), 0), half_gamma(a + 1), half_gamma(m + 1)), half_gamma(a + m + 2))


def period(p: int, q: int, lam_x2: int, target_x2: int, subgroup: str, witness: bool = False) -> dict:
    """Exact sphere, pairing, radial and value of one period, by the same degrees as the CLI's JSON."""
    a = (lam_x2 - 2 + p - q) // 2
    sp, sq = (p - 1, q) if subgroup == "g1" else (p, q - 1)
    b = (target_x2 - 2 + sp - sq) // 2
    if subgroup == "g1":
        pairing = zonal_norm_sq(a, q) if a == b else (Fraction(0), 0)
    elif witness:
        pairing = witness_pairing(a, b, q)
    else:
        pairing = pairing_subsphere(a, b, q)
    sphere, radial = sphere_area(sp), wallis(sp - 1, (lam_x2 + target_x2 - 1) // 2)
    return {
        "sphere_factor": sphere,
        "pairing_factor": pairing,
        "radial_factor": radial,
        "value": mul(sphere, pairing, radial),
    }


def l2_norm_sq(p: int, q: int, lam_x2: int) -> tuple[Fraction, int]:
    """sphere_area(p) |Z_a|^2_{S^{q-1}} int_0^{pi/2} sin^{p-1} cos^{2 lambda - 1}."""
    a = (lam_x2 - 2 + p - q) // 2
    return mul(sphere_area(p), zonal_norm_sq(a, q), wallis(p - 1, lam_x2 - 1))
