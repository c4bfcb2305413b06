"""Discrete-series parameters on hyperboloids: degrees, K-types, characters.

A parameter descriptor carries the ambient signature (p, q), the spectral
parameter lambda > 0, and a space tag saying which symmetric space the
representation lives on: the ambient X(p, q), or the codimension-one spaces
X(p-1, q) / X(p, q-1) used as restriction targets.  Validity is the
generating function existing as written: the harmonic degree must be a
non-negative integer.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidParameterError
from .exact import doubled, normal_ratio, sphere_area_exact, wallis_exact, zonal_norm_sq_exact

__all__ = [
    "SpaceTag",
    "FJParam",
    "make_fj_param",
    "valid_lambdas",
    "l2_norm_sq",
    "inf_char",
    "is_self_dual",
]


class SpaceTag(Enum):
    G_ON_H = "g_on_h"
    G1_SPACE = "g1"
    G2_SPACE = "g2"


# The checked range, enforced by every verb but `packet`: q bounds the verdict spheres S^{q-1} and S^{q-2} that the
# Gram census enumerates, the degrees their rules (a g1 period reads a + 2 at a = MAX_DEGREE); p is not bounded.
MAX_Q, MAX_DEGREE, MAX_TARGET_DEGREE = 16, 400, 402
PARAMETER_NAMES = {  # each space's parameter and harmonic degree, as a refusal names them
    SpaceTag.G_ON_H: ("lambda", "a = lambda - 1 + (p-q)/2"), SpaceTag.G1_SPACE: ("nu", "c = nu - 1 + (p-1-q)/2"),
    SpaceTag.G2_SPACE: ("mu", "b = mu - 1 + (p-q+1)/2")}


def check_range(q: int, degree: int, top: int = 0) -> None:
    """Raise InvalidParameterError for the ambient degree, then q, then the largest target degree `top`, if past it."""
    if degree > MAX_DEGREE:
        raise InvalidParameterError(f"ambient degree {degree} is past the checked range, which ends at {MAX_DEGREE}")
    if q > MAX_Q:
        raise InvalidParameterError(f"q = {q} is past the checked range, which ends at {MAX_Q}")
    if top > MAX_TARGET_DEGREE:
        raise InvalidParameterError(f"target degree {top} is past the checked range, which ends at {MAX_TARGET_DEGREE}")


class FJParam(NamedTuple("FJParam", [("p", int), ("q", int), ("lam_x2", int), ("tag", SpaceTag)])):
    """Parameter of a discrete-series generating function, lambda doubled; validated by `checked_degree`."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, lam_x2: int, tag: SpaceTag = SpaceTag.G_ON_H):
        if p < 4 or q < 4:
            raise InvalidParameterError(f"standing assumption p, q >= 4 violated: ({p}, {q})")
        tag = tag if tag.__class__ is SpaceTag else SpaceTag(tag)  # a tag given by its value, such as "g1"
        checked_degree(p, q, lam_x2, tag)
        return super().__new__(cls, p, q, lam_x2, tag)

    @property
    def lam(self) -> Fraction:
        return Fraction(self.lam_x2, 2)

    @property
    def space_signature(self) -> tuple[int, int]:
        return tag_signature(self.p, self.q, self.tag)

    @property
    def total(self) -> int:
        return sum(self.space_signature)

    @property
    def degree(self) -> int:
        return checked_degree(self.p, self.q, self.lam_x2, self.tag)

    @property
    def decay_exponent(self) -> Fraction:
        return Fraction(decay_x2(self.total, self.lam_x2), 2)

    def to_json_dict(self) -> dict:
        a, total, lam_x2 = self.degree, self.total, self.lam_x2
        return {
            "p": self.p,
            "q": self.q,
            "lambda_x2": lam_x2,
            "a": a,
            "exponent_x2": decay_x2(total, lam_x2),
            "min_ktype_x2": 2 * a,
            "inf_char_x2": inf_char_x2(total, lam_x2),
            "self_dual": is_self_dual(self),
            "l2_norm_sq": l2_norm_sq(self),
        }


def tag_signature(p: int, q: int, tag: SpaceTag) -> tuple[int, int]:
    """Signature (sp, sq) of the tag's space: X(p, q), X(p-1, q) or X(p, q-1)."""
    if tag is SpaceTag.G1_SPACE:
        return p - 1, q
    if tag is SpaceTag.G2_SPACE:
        return p, q - 1
    return p, q


def degree_x2(p: int, q: int, lam_x2: int, tag: SpaceTag) -> int:
    """Doubled harmonic degree 2a = 2 lambda - 2 + sp - sq of a doubled lambda on the tag's space."""
    sp, sq = tag_signature(p, q, tag if tag.__class__ is SpaceTag else SpaceTag(tag))
    return lam_x2 - 2 + sp - sq


def decay_x2(total: int, lam_x2: int) -> int:
    """Doubled decay exponent 2e = 2 - 2 lambda - total on a space X(sp, sq) of sp + sq = total."""
    return 2 - lam_x2 - total


def checked_degree(p: int, q: int, lam_x2: int, tag: SpaceTag) -> int:
    """Harmonic degree a of a doubled lambda on the tag's space: see `degree_x2`.

    Rejects lambda <= 0 (square integrability) and non-integral or negative
    harmonic degree (the generating function needs an actual spherical
    harmonic of that degree), naming both by the tag's `PARAMETER_NAMES`.
    """
    if lam_x2 <= 0:
        raise InvalidParameterError(f"{PARAMETER_NAMES[tag][0]} must be positive, got {Fraction(lam_x2, 2)}")
    a_x2 = degree_x2(p, q, lam_x2, tag)
    if a_x2 % 2 or a_x2 < 0:
        name = PARAMETER_NAMES[tag][1]
        raise InvalidParameterError(f"harmonic degree {name} = {Fraction(a_x2, 2)} must be a non-negative integer")
    return a_x2 // 2


def make_fj_param(p: int, q: int, lam, tag: SpaceTag = SpaceTag.G_ON_H) -> FJParam:
    """Build a parameter descriptor for a half-integer lambda (int, Fraction or float)."""
    return FJParam(p, q, doubled(lam), tag)


def valid_lambdas_x2(p: int, q: int, max_twice: int, tag: SpaceTag = SpaceTag.G_ON_H) -> range:
    """Doubled value of every lambda that `make_fj_param` accepts, up to max_twice.

    These are the positive lambda of `degree_x2` even and non-negative: every
    other doubled value from the first positive one.
    """
    if p < 4 or q < 4:
        return range(0)
    # degree_x2 is lam_x2 + offset_x2
    offset_x2 = degree_x2(p, q, 0, tag)
    return range(max(-offset_x2, 2 - offset_x2 % 2), max_twice + 1, 2)


def valid_lambdas(p: int, q: int, max_twice: int, tag: SpaceTag = SpaceTag.G_ON_H) -> list[Fraction]:
    """Every lambda that `make_fj_param` accepts, with doubled value up to max_twice: see `valid_lambdas_x2`."""
    return [Fraction(twice, 2) for twice in valid_lambdas_x2(p, q, max_twice, tag)]


def l2_norm_sq(param: FJParam) -> float:
    """Squared L^2 norm over the parameter's space, in factored form, rounded once.

    sphere_area(p) * |f_a|^2_{S^{q-1}} * R(p-1, q-1+2e): the sphere area, the
    closed-form zonal norm and the Wallis radial factor, each an exact ratio times
    a power of sqrt(pi), multiplied exactly and divided once.  The sphere
    dimensions are checked first, so a huge p or q is refused before any
    factorial is built.  Raises ToleranceError when the norm is not a normal double.
    """
    (sp, sq), a = param.space_signature, param.degree
    sphere, zonal = sphere_area_exact(sp), zonal_norm_sq_exact(a, sq)
    # R(sp-1, sq-1+2e) is the Wallis integral of sin^{sp-1} cos^m, m = -(sp+sq-2+2e)-1 = 2 lambda - 1
    return normal_ratio("L2 norm", f"degree {a}", sphere, zonal, wallis_exact(sp - 1, param.lam_x2 - 1))


def inf_char_x2(total: int, lam_x2: int) -> list[int]:
    """Doubled entries of the character (lambda + N/2, (N-2)/2, ...) for N = total: see `inf_char`."""
    return [lam_x2 + total, *range(total - 2, total - 2 * (total // 2), -2)]


def inf_char(param: FJParam) -> tuple[Fraction, ...]:
    """Displayed infinitesimal character (lambda + N/2, (N-2)/2, (N-4)/2, ...).

    N is the total dimension of the parameter's space plus one (ambient:
    p+q; restriction targets: p+q-1); the length is floor(N/2).
    """
    return tuple(Fraction(e, 2) for e in inf_char_x2(param.total, param.lam_x2))


def _self_dual(total: int, lam_x2: int) -> bool:
    # Negation lies in the Weyl group of type B (odd total) and of type D
    # with even rank; in type D with odd rank the standard-coordinate
    # character (each displayed entry minus one) and its negative are
    # conjugate exactly when some entry is zero.
    return total % 2 == 1 or (total // 2) % 2 == 0 or 2 in inf_char_x2(total, lam_x2)


def is_self_dual(param: FJParam) -> bool:
    """Whether the representation is isomorphic to its contragredient.

    Decided by Weyl conjugacy (type D for even total dimension, type B for
    odd) between the standard-coordinate infinitesimal character and its
    negative, in closed form.
    """
    return _self_dual(param.total, param.lam_x2)
