"""Discrete-series parameters on hyperboloids: degrees, K-types, characters.

A parameter descriptor carries the ambient signature (p, q), the spectral
parameter lambda > 0, and a space tag saying which symmetric space the
representation lives on: the ambient X(p, q), or the codimension-one spaces
X(p-1, q) / X(p, q-1) used as restriction targets.  Validity is the
generating function existing as written: the harmonic degree must be a
non-negative integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, ToleranceError
from .geometry import radial_integral_closed, radial_integral_numeric
from .harmonics import ZonalHarmonic, sphere_area, zonal_norm_sq
from .numerics import RADIAL_TOL, HalfInt, QuadratureSpec
from .packets import weyl_conjugate

__all__ = [
    "SpaceTag",
    "FJParam",
    "InfChar",
    "make_fj_param",
    "valid_lambdas",
    "fj_eval",
    "l2_norm_sq",
    "inf_char",
    "is_self_dual",
]

_DEFAULT_SPEC = QuadratureSpec()


class SpaceTag(Enum):
    G_ON_H = "g_on_h"
    G1_SPACE = "g1"
    G2_SPACE = "g2"


@dataclass(frozen=True)
class FJParam:
    """Validated parameter of a discrete-series generating function."""

    p: int
    q: int
    lam: HalfInt
    tag: SpaceTag = SpaceTag.G_ON_H

    @property
    def space_signature(self) -> tuple[int, int]:
        return tag_signature(self.p, self.q, self.tag)

    @property
    def degree(self) -> int:
        return self.min_ktype.as_integer()

    @property
    def decay_exponent(self) -> HalfInt:
        sp, sq = self.space_signature
        return -self.lam + 1 - HalfInt.from_twice(sp + sq)

    @property
    def min_ktype(self) -> HalfInt:
        sp, sq = self.space_signature
        return self.lam + HalfInt.from_twice(sp - sq) - 1

    def to_json_dict(self, spec: QuadratureSpec = _DEFAULT_SPEC) -> dict:
        sp, sq = self.space_signature
        char_x2 = inf_char_x2(sp + sq, self.lam.twice)
        return {
            "p": self.p,
            "q": self.q,
            "lambda_x2": self.lam.twice,
            "a": self.degree,
            "exponent_x2": self.decay_exponent.twice,
            "min_ktype_x2": self.min_ktype.twice,
            "inf_char_x2": char_x2,
            "self_dual": _self_dual(sp + sq, char_x2),
            "l2_norm_sq": l2_norm_sq(self, spec),
        }


@dataclass(frozen=True)
class InfChar:
    """A strictly decreasing sequence of half-integers (regularity required)."""

    entries: tuple[HalfInt, ...]

    def __post_init__(self):
        entries = tuple(
            v if isinstance(v, HalfInt) else HalfInt(v) for v in self.entries
        )
        for prev, cur in zip(entries, entries[1:]):
            if not prev > cur:
                raise InvalidParameterError("infinitesimal character must be strictly decreasing")
        object.__setattr__(self, "entries", entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def tag_signature(p: int, q: int, tag: SpaceTag) -> tuple[int, int]:
    """Signature (sp, sq) of the tag's space: X(p, q), X(p-1, q) or X(p, q-1)."""
    if tag is SpaceTag.G1_SPACE:
        return p - 1, q
    if tag is SpaceTag.G2_SPACE:
        return p, q - 1
    return p, q


def checked_degree(p: int, q: int, lam_x2: int, tag: SpaceTag) -> int:
    """Harmonic degree a = lambda - 1 + (sp - sq)/2 of a doubled lambda on the tag's space.

    Rejects lambda <= 0 (square integrability) and non-integral or negative
    harmonic degree (the generating function needs an actual spherical
    harmonic of that degree).
    """
    if lam_x2 <= 0:
        raise InvalidParameterError(f"lambda must be positive, got {HalfInt.from_twice(lam_x2)}")
    sp, sq = tag_signature(p, q, SpaceTag(tag))
    a_x2 = lam_x2 - 2 + sp - sq
    if a_x2 % 2 or a_x2 < 0:
        raise InvalidParameterError(
            f"harmonic degree a = lambda - 1 + (p-q)/2 = {HalfInt.from_twice(a_x2)}"
            " must be a non-negative integer"
        )
    return a_x2 // 2


def make_fj_param(p: int, q: int, lam, tag: SpaceTag = SpaceTag.G_ON_H) -> FJParam:
    """Build a parameter descriptor, validated by `checked_degree`."""
    if p < 4 or q < 4:
        raise InvalidParameterError(f"standing assumption p, q >= 4 violated: ({p}, {q})")
    lam = lam if isinstance(lam, HalfInt) else HalfInt(lam)
    checked_degree(p, q, lam.twice, tag)
    return FJParam(p, q, lam, SpaceTag(tag))


def valid_lambdas(p: int, q: int, max_twice: int, tag: SpaceTag = SpaceTag.G_ON_H) -> list[HalfInt]:
    """Every lambda that `make_fj_param` accepts, with doubled value up to max_twice.

    On the tag's space X(sp, sq) these are lambda = c + 1 - (sp - sq)/2 > 0
    for degrees c >= 0: every other doubled value from the first positive one.
    """
    if p < 4 or q < 4:
        return []
    sp, sq = tag_signature(p, q, SpaceTag(tag))
    first = max(2 - (sp - sq), 2 - (sp - sq) % 2)
    return [HalfInt.from_twice(twice) for twice in range(first, max_twice + 1, 2)]


def fj_eval(param: FJParam, y_prime, t) -> float:
    """Generating function value f_a(y') cosh(t)^e at a chart point.

    y' is a unit vector on the cosh-sphere of the parameter's space; the
    zonal pole is the last coordinate axis (the base-point direction).
    """
    _, sq = param.space_signature
    zonal = ZonalHarmonic(param.degree, sq)
    t = np.asarray(t, dtype=float)
    out = zonal.value(y_prime) * np.cosh(t) ** float(param.decay_exponent)
    return out if out.ndim else float(out)


def l2_norm_sq(param: FJParam, spec: QuadratureSpec = _DEFAULT_SPEC) -> float:
    """Squared L^2 norm over the parameter's space, in factored form.

    sphere_area(p) * |f_a|^2_{S^{q-1}} * R(p-1, q-1+2e); the radial factor is
    evaluated numerically and cross-checked against the closed form.
    """
    sp, sq = param.space_signature
    a_exp = sp - 1
    c_exp = float(sq - 1 + 2 * param.decay_exponent)
    value, _ = radial_integral_numeric(a_exp, c_exp, spec)
    closed = radial_integral_closed(a_exp, c_exp)
    if abs(value - closed) > RADIAL_TOL * max(1.0, abs(closed)) * 10:
        raise ToleranceError("radial factor disagrees with its closed form", abs(value - closed))
    norm_sq = sphere_area(sp) * zonal_norm_sq(param.degree, sq) * value
    if not math.isfinite(norm_sq):
        raise ToleranceError(f"L2 norm {norm_sq} is not finite at degree {param.degree}", math.inf)
    return norm_sq


def inf_char_x2(total: int, lam_x2: int) -> list[int]:
    """Doubled entries of the character (lambda + N/2, (N-2)/2, ...) for N = total: see `inf_char`."""
    return [lam_x2 + total, *range(total - 2, total - 2 * (total // 2), -2)]


def inf_char(param: FJParam) -> InfChar:
    """Displayed infinitesimal character (lambda + N/2, (N-2)/2, (N-4)/2, ...).

    N is the total dimension of the parameter's space plus one (ambient:
    p+q; restriction targets: p+q-1); the length is floor(N/2).
    """
    sp, sq = param.space_signature
    return InfChar(tuple(HalfInt.from_twice(e) for e in inf_char_x2(sp + sq, param.lam.twice)))


def _self_dual(total: int, char_x2: list[int]) -> bool:
    # Standard-coordinate character (lambda, 0, ..., 0) + rho with the usual
    # half-sum: each displayed entry minus one.  Type D then ends in 0 and
    # type B in 1/2, which is what negation-conjugacy sees.
    entries = [HalfInt.from_twice(e - 2) for e in char_x2]
    return weyl_conjugate(entries, [-e for e in entries], "D" if total % 2 == 0 else "B")


def is_self_dual(param: FJParam) -> bool:
    """Whether the representation is isomorphic to its contragredient.

    Decided by Weyl conjugacy (type D for even total dimension, type B for
    odd) between the standard-coordinate infinitesimal character and its
    negative.
    """
    sp, sq = param.space_signature
    return _self_dual(sp + sq, inf_char_x2(sp + sq, param.lam.twice))
