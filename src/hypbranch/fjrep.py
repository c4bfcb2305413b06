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
from .numerics import HalfInt, QuadratureSpec
from .packets import weyl_conjugate

__all__ = [
    "SpaceTag",
    "FJParam",
    "InfChar",
    "make_fj_param",
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
        if self.tag is SpaceTag.G1_SPACE:
            return self.p - 1, self.q
        if self.tag is SpaceTag.G2_SPACE:
            return self.p, self.q - 1
        return self.p, self.q

    @property
    def degree(self) -> int:
        sp, sq = self.space_signature
        return (self.lam - 1 + HalfInt.from_twice(sp - sq)).as_integer()

    @property
    def decay_exponent(self) -> HalfInt:
        sp, sq = self.space_signature
        return -self.lam + 1 - HalfInt.from_twice(sp + sq)

    @property
    def min_ktype(self) -> HalfInt:
        sp, sq = self.space_signature
        return self.lam + HalfInt.from_twice(sp - sq) - 1

    @property
    def levi_tag(self) -> str:
        sp, sq = self.space_signature
        return f"SO({sp},{sq - 2})xSO(0,2)"

    def to_json_dict(self, spec: QuadratureSpec = _DEFAULT_SPEC) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "lambda_x2": self.lam.twice,
            "a": self.degree,
            "exponent_x2": self.decay_exponent.twice,
            "min_ktype_x2": self.min_ktype.twice,
            "inf_char_x2": [e.twice for e in inf_char(self).entries],
            "self_dual": is_self_dual(self),
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


def make_fj_param(p: int, q: int, lam, tag: SpaceTag = SpaceTag.G_ON_H) -> FJParam:
    """Build and validate a parameter descriptor.

    Rejects lambda <= 0 (square integrability) and non-integral or negative
    harmonic degree (the generating function needs an actual spherical
    harmonic of that degree).
    """
    if not isinstance(tag, SpaceTag):
        tag = SpaceTag(tag)
    if p < 4 or q < 4:
        raise InvalidParameterError(f"standing assumption p, q >= 4 violated: ({p}, {q})")
    lam = lam if isinstance(lam, HalfInt) else HalfInt(lam)
    if not lam > 0:
        raise InvalidParameterError(f"lambda must be positive, got {lam}")
    param = FJParam(p, q, lam, tag)
    sp, sq = param.space_signature
    a = lam - 1 + HalfInt.from_twice(sp - sq)
    if not a.is_integer or a < 0:
        raise InvalidParameterError(
            f"harmonic degree a = lambda - 1 + (p-q)/2 = {a} must be a non-negative integer"
        )
    return param


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
    if abs(value - closed) > max(spec.abs_tol, spec.rel_tol * abs(closed)) * 10:
        raise ToleranceError("radial factor disagrees with its closed form", abs(value - closed))
    return sphere_area(sp) * zonal_norm_sq(param.degree, sq) * value


def inf_char(param: FJParam) -> InfChar:
    """Displayed infinitesimal character (lambda + N/2, (N-2)/2, (N-4)/2, ...).

    N is the total dimension of the parameter's space plus one (ambient:
    p+q; restriction targets: p+q-1); the length is floor(N/2).
    """
    sp, sq = param.space_signature
    total = sp + sq
    entries = [param.lam + HalfInt.from_twice(total)]
    for i in range(1, total // 2):
        entries.append(HalfInt.from_twice(total - 2 * i))
    return InfChar(tuple(entries))


def _standard_entries(param: FJParam) -> list[HalfInt]:
    # Standard-coordinate character (lambda, 0, ..., 0) + rho with the usual
    # half-sum: each displayed entry minus one.  Type D then ends in 0 and
    # type B in 1/2, which is what negation-conjugacy sees.
    return [e - 1 for e in inf_char(param).entries]


def is_self_dual(param: FJParam) -> bool:
    """Whether the representation is isomorphic to its contragredient.

    Decided by Weyl conjugacy (type D for even total dimension, type B for
    odd) between the standard-coordinate infinitesimal character and its
    negative.
    """
    sp, sq = param.space_signature
    family = "D" if (sp + sq) % 2 == 0 else "B"
    entries = _standard_entries(param)
    negated = [-e for e in entries]
    return weyl_conjugate(entries, negated, family)
