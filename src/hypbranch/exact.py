"""The exact layer, on the standard library alone: half-integers, Gamma, Wallis, spheres, zonal pairings.

Every representation-theoretic parameter in this library (spectral parameters,
harmonic degrees, decay exponents) is a half-integer.  Inside the library it
is a doubled int; a public function reads it through :func:`doubled`.  Every
printed number is a product of exact (num, den, r) ratios, value
num / den * sqrt(pi)^r, rounded once by :func:`sqrt_pi_ratio`.  The CLI's
`fj` and `packet` verbs need nothing else, so this module imports no numpy.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidParameterError, ToleranceError


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


def period_value(sphere, pairing, radial, degree_pair, what="period value") -> tuple[float, float]:
    """`value` and `err_est` of a period's exact (num, den, r) factors, the pairing nonzero, rounded once: the one
    rounding of a `period` or `branch` number.  ToleranceError naming `what` at `degree_pair` if it is not normal."""
    (s_num, s_den, s_r), (p_num, p_den, p_r), (w_num, w_den, w_r) = sphere, pairing, radial
    value = sqrt_pi_ratio(s_num * p_num * w_num, s_den * p_den * w_den, s_r + p_r + w_r)
    if not sys.float_info.min <= abs(value) < math.inf:
        raise ToleranceError(f"{what} {value} is not a normal double at degrees {degree_pair}")
    return value, sqrt_pi_error(value, s_r + p_r + w_r)


def wallis_exact(a: int, m: int) -> tuple[int, int, int]:
    """int_0^{pi/2} sin^a cos^m for integers a, m >= 0, exactly: (num, den, r) with value num / den * sqrt(pi)^r.

    The value is (1/2) B((a+1)/2, (m+1)/2) (DLMF 5.12.1), here from short
    products instead of three full factorials:
      odd a, x = (a+1)/2:       (x-1)! 2^(x-1) / prod_{i<x} (m+1+2i);
      even a, odd m:            2^(m-1) (a-1)!! / (C(m-1, (m-1)/2) prod_{0<=j<=a/2} (m+2j));
      even a = 2k, even m = 2l: pi (2k)!/k! C(m, l) / (2^(a+m+1) prod_{0<i<=k} (l+i)).
    """
    if a % 2:
        x = (a + 1) // 2
        return math.factorial(x - 1) << (x - 1), math.prod(range(m + 1, m + 2 * x, 2)), 0
    k = a // 2
    if m % 2:
        return math.prod(range(1, a, 2)) << (m - 1), math.comb(m - 1, m // 2) * math.prod(range(m, m + a + 1, 2)), 0
    l = m // 2
    return math.prod(range(k + 1, a + 1)) * math.comb(m, l), math.prod(range(l + 1, l + k + 1)) << (a + m + 1), 2


# The area of S^{n-1} is below the normal floating-point range from n = 439.
MAX_SPHERE_DIM = 438


def sphere_area_exact(n: int) -> tuple[int, int, int]:
    """Surface area 2 pi^{n/2} / Gamma(n/2) of the unit sphere S^{n-1}, as (num, den, r): num / den * sqrt(pi)^r.

    Raises ToleranceError above MAX_SPHERE_DIM, before any factorial is built.
    """
    if n < 1:
        raise ValueError("sphere_area_exact requires n >= 1")
    if n > MAX_SPHERE_DIM:
        raise ToleranceError(f"sphere area of S^{n - 1} is out of floating-point range")
    num, den, r = half_gamma(n)
    return 2 * den, num, n - r


def zonal_norm_sq_exact(a: int, n: int) -> tuple[int, int, int]:
    """L^2(S^{n-1}) norm squared of the degree-a zonal harmonic, as (num, den, r): |Z_a|^2 = num / den * sqrt(pi)^r.

    |Z_a|^2 = area(S^{n-2}) pi 2^{1-2nu} Gamma(a+2nu) / (a! (a+nu) Gamma(nu)^2), nu = (n-2)/2
    (DLMF 18.3), with Gamma(a+2nu) / a! the (n-3)-factor product (a+1) ... (a+n-3).  Raises
    ToleranceError when n - 1 exceeds MAX_SPHERE_DIM (:func:`sphere_area_exact`).
    """
    if n < 3:
        raise InvalidParameterError("zonal_norm_sq_exact requires sphere_dim >= 3")
    num, den, r = _zonal_scale(n)
    return num * math.prod(range(a + 1, a + n - 2)), den * (2 * a + n - 2), r


@lru_cache(maxsize=64)
def _zonal_scale(n: int) -> tuple[int, int, int]:
    """The factors of :func:`zonal_norm_sq_exact` on S^{n-1} that no degree enters, built once per n."""
    # 2^{1-2nu} = 2^{3-n} and a + nu = (2a+n-2) / 2
    num_s, den_s, r_s = sphere_area_exact(n - 1)
    num_nu, den_nu, r_nu = half_gamma(n - 2)
    return 2 * num_s * den_nu**2, den_s * num_nu**2 << (n - 3), r_s + 2 - 2 * r_nu


def pairing_subsphere_exact(a: int, b: int, n: int) -> tuple[int, int, int]:
    """Restriction pairing of zonal harmonics across the equatorial subsphere, as (num, den, r).

    The degree-a zonal harmonic of S^{n-1} (pole inside the subsphere), restricted to S^{n-2}, against the
    degree-b zonal harmonic of S^{n-2} about that pole; (0, 1, 0) when b > a or a - b is odd.

    C_a^nu = sum_l c_l C_{a-2l}^mu, nu = (n-2)/2, mu = (n-3)/2, with c_l = (1/2)_l (nu)_{a-l}
    (mu+a-2l) / (l! (mu+1)_{a-l} mu) (DLMF 18.18.16), so by orthogonality on S^{n-2} the
    pairing is c_l |Z_b|^2 at l = (a-b)/2, with (1/2)_l / l! = C(2l, l) / 4^l.
    """
    if n < 4:
        raise InvalidParameterError("pairing_subsphere_exact requires n >= 4")
    if b > a or (a - b) % 2:
        return 0, 1, 0
    l, m = (a - b) // 2, (a + b) // 2
    num_z, den_z, r_z = zonal_norm_sq_exact(b, n - 1)
    num = math.comb(2 * l, l) * math.prod(range(n - 2, n - 2 + 2 * m, 2)) * (2 * b + n - 3) * num_z
    den = math.prod(range(n - 1, n - 1 + 2 * m, 2)) * (n - 3) * den_z << 2 * l
    return num, den, r_z


def witness_pairing_exact(a: int, b: int, n: int) -> tuple[int, int, int]:
    """The witness value K |Z_b|^2 on S^{n-2} of :func:`harmonics.ktype_pairing_nonzero`, exact; 0 unless 0 <= b <= a.

    K = j! (2 lam)_j / (2^j (lam)_j) = prod_{i<j} (i+1)(L+i) / (L+2i), j = a - b, L = 2 lam = 2b + n - 2.
    """
    if not 0 <= b <= a:
        return 0, 1, 0
    j, big_l = a - b, 2 * b + n - 2
    num_z, den_z, r_z = zonal_norm_sq_exact(b, n - 1)
    num = math.factorial(j) * math.prod(range(big_l, big_l + j)) * num_z
    return num, math.prod(range(big_l, big_l + 2 * j, 2)) * den_z, r_z
