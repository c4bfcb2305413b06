"""Period integrals over suborbits and the resulting branching verdicts.

The pairing of two generating functions over a codimension-one orbit factors
exactly in the chart: a full-sphere area, a one-dimensional sphere pairing,
and a radial cosh-power integral.  The non-vanishing verdict is always
decided from the K-type witness (the twisted pairing); the closed-form
predicates provide the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergenceError, InvalidParameterError, ToleranceError
from .fjrep import FJParam, SpaceTag, inf_char, make_fj_param, valid_lambdas
from .geometry import radial_integral_numeric
from .harmonics import ktype_pairing_nonzero, pairing_subsphere, sphere_area, zonal_gram
from .numerics import HalfInt, QuadratureSpec
from .packets import InterlaceClass, interlace_classify

__all__ = [
    "PeriodVerdict",
    "BranchingVerdict",
    "converges_G1",
    "converges_G2",
    "nonvanishing_G1",
    "nonvanishing_G2",
    "period_integral_G1",
    "period_integrals_G1",
    "period_integral_G2",
    "branching_verdict",
    "branching_verdicts",
    "valid_targets",
    "interlace_class_for_pair",
]

_DEFAULT_SPEC = QuadratureSpec()
_NEG_HALF = HalfInt.from_twice(-1)


@dataclass(frozen=True)
class PeriodVerdict:
    """Outcome of one period computation.

    `value` is the factored integral (with the plain zonal pairing unless
    `witness_used`); `nonzero` is the witness-based K-type decision and must
    agree with `predicate_nonzero` on every instance.
    """

    converges: bool
    parity_match: bool
    degree_pair: tuple[int, int]
    value: float | None
    err_est: float
    nonzero: bool
    predicate_nonzero: bool
    sphere_factor: float
    pairing_factor: float
    radial_factor: float
    witness_used: bool

    def to_json_dict(self) -> dict:
        out = dict(vars(self))
        out["degree_a"], out["degree_target"] = out.pop("degree_pair")
        return out


def _as_halfint(v) -> HalfInt:
    return v if isinstance(v, HalfInt) else HalfInt(v)


def _tag(subgroup: str) -> SpaceTag:
    if subgroup.lower() not in ("g1", "g2"):
        raise InvalidParameterError("subgroup must be 'g1' or 'g2'")
    return SpaceTag(subgroup.lower())


def _converges(lam, target) -> bool:
    """Convergence of the X(p-1, q) or X(p, q-1) period: lambda + target > -1/2, exactly."""
    return _as_halfint(lam) + _as_halfint(target) > _NEG_HALF


converges_G1 = converges_G2 = _converges


def _nonvanishing(ambient: FJParam, target: FJParam) -> bool:
    if target.tag is SpaceTag.G1_SPACE:
        return target.degree == ambient.degree
    return 0 <= target.degree <= ambient.degree


def nonvanishing_G2(p: int, q: int, lam, mu) -> bool:
    """Closed-form criterion for the restriction to SO0(p, q-1).

    True iff the target degree b = mu - 1 + (p-q+1)/2 satisfies 0 <= b <= a,
    equivalently mu + 1/2 <= lambda with b >= 0.
    """
    return _nonvanishing(make_fj_param(p, q, lam), make_fj_param(p, q, mu, SpaceTag.G2_SPACE))


def nonvanishing_G1(p: int, q: int, lam, nu) -> bool:
    """Closed-form criterion for the restriction to SO0(p-1, q).

    True iff nu = lambda + 1/2 exactly (the two full-sphere degrees match).
    """
    return _nonvanishing(make_fj_param(p, q, lam), make_fj_param(p, q, nu, SpaceTag.G1_SPACE))


def period_integral_G2(
    p: int,
    q: int,
    lam,
    mu,
    spec: QuadratureSpec = _DEFAULT_SPEC,
    use_witness: bool = False,
) -> PeriodVerdict:
    """Period of the (lambda, mu) pair over the suborbit X(p, q-1).

    Factored value: sphere_area(p) * [subsphere pairing on S^{q-2}] *
    R(p-1, (q-2) + e_lambda + e_mu).  With `use_witness`, the pairing factor
    is the K-type witness value (its leading normal trace paired with the
    target zonal harmonic) instead of the plain zonal restriction.
    """
    lam, mu = _as_halfint(lam), _as_halfint(mu)
    if not converges_G2(lam, mu):
        raise DivergenceError(
            f"period diverges: lambda + mu = {lam + mu} fails the > -1/2 threshold"
        )
    ambient = make_fj_param(p, q, lam)
    target = make_fj_param(p, q, mu, SpaceTag.G2_SPACE)
    a, b = ambient.degree, target.degree
    sphere = sphere_area(p)
    witness_ok, witness_value = ktype_pairing_nonzero(a, b, q)
    pairing = witness_value if use_witness else pairing_subsphere(a, b, q)
    c_exp = float(q - 2 + ambient.decay_exponent + target.decay_exponent)
    radial, err = radial_integral_numeric(p - 1, c_exp, spec)
    value = sphere * pairing * radial
    if not math.isfinite(value):
        raise ToleranceError(f"period value {value} is not finite at degrees ({a}, {b})", math.inf)
    return PeriodVerdict(
        converges=True,
        parity_match=(a - b) % 2 == 0,
        degree_pair=(a, b),
        value=value,
        err_est=abs(sphere * pairing) * err,
        nonzero=witness_ok,
        predicate_nonzero=_nonvanishing(ambient, target),
        sphere_factor=sphere,
        pairing_factor=pairing,
        radial_factor=radial,
        witness_used=use_witness,
    )


def period_integrals_G1(
    p: int,
    q: int,
    lam,
    nus,
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> list[PeriodVerdict]:
    """Periods of the (lambda, nu) pairs over the suborbit X(p-1, q), one per nu.

    Factored value: sphere_area(p-1) * [full-sphere pairing on S^{q-1},
    which is delta_{a,c} |f_a|^2 by orthogonality] * R(p-2, (q-1)+e_lambda+e_nu).
    The pairings and the norms of the scale-free nonzero test come from one
    Gegenbauer pass over all target degrees (`zonal_gram`).
    """
    lam, nus = _as_halfint(lam), [_as_halfint(nu) for nu in nus]
    for nu in nus:
        if not converges_G1(lam, nu):
            raise DivergenceError(
                f"period diverges: lambda + nu = {lam + nu} fails the > -1/2 threshold"
            )
    ambient = make_fj_param(p, q, lam)
    targets = [make_fj_param(p, q, nu, SpaceTag.G1_SPACE) for nu in nus]
    exponents = [float(q - 1 + ambient.decay_exponent + t.decay_exponent) for t in targets]
    radials = [radial_integral_numeric(p - 2, c_exp, spec) for c_exp in exponents]
    a, sphere = ambient.degree, sphere_area(p - 1)
    pairings, norm_a, norms_c = zonal_gram(a, [t.degree for t in targets], q)
    verdicts = [
        PeriodVerdict(
            converges=True,
            parity_match=(a - t.degree) % 2 == 0,
            degree_pair=(a, t.degree),
            value=sphere * pairing * radial,
            err_est=abs(sphere * pairing) * err,
            nonzero=abs(pairing) > 1e-8 * math.sqrt(norm_a * norm_c),
            predicate_nonzero=_nonvanishing(ambient, t),
            sphere_factor=sphere,
            pairing_factor=pairing,
            radial_factor=radial,
            witness_used=False,
        )
        for t, (radial, err), pairing, norm_c in zip(targets, radials, pairings.tolist(), norms_c)
    ]
    for verdict, norm_c in zip(verdicts, norms_c):
        if not all(map(math.isfinite, (verdict.value, norm_a, norm_c))):
            raise ToleranceError(f"period or norm not finite at degrees {verdict.degree_pair}", math.inf)
    return verdicts


def period_integral_G1(
    p: int,
    q: int,
    lam,
    nu,
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> PeriodVerdict:
    """Period of the (lambda, nu) pair over the suborbit X(p-1, q): see `period_integrals_G1`."""
    return period_integrals_G1(p, q, lam, [nu], spec)[0]


@dataclass(frozen=True)
class BranchingVerdict:
    hom_nonzero: bool
    verdict: PeriodVerdict
    admissible_restriction: bool
    interlace: InterlaceClass


def interlace_class_for_pair(p: int, q: int, lam, target, subgroup: str) -> InterlaceClass:
    tag = _tag(subgroup)
    ambient = make_fj_param(p, q, lam)
    sub = make_fj_param(p, q, target, tag)
    return interlace_classify(inf_char(ambient), inf_char(sub))


def branching_verdicts(
    p: int,
    q: int,
    lam,
    subgroup: str,
    targets,
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> list[BranchingVerdict]:
    """Full verdicts for one ambient parameter and subgroup, one per target.

    The restriction to SO0(p-1, q) is admissible, the one to SO0(p, q-1) is
    not (encoded branching data); the hom decision is the matching
    closed-form predicate, cross-checked by the numeric verdict.  The g1
    periods of the whole target list share one Gegenbauer pass.  The ambient
    parameter is validated even when the target list is empty.
    """
    tag = _tag(subgroup)
    ambient_char = inf_char(make_fj_param(p, q, lam))
    targets = list(targets)
    if tag is SpaceTag.G1_SPACE:
        verdicts = period_integrals_G1(p, q, lam, targets, spec)
    else:
        verdicts = [period_integral_G2(p, q, lam, t, spec, use_witness=True) for t in targets]
    return [
        BranchingVerdict(
            hom_nonzero=verdict.predicate_nonzero,
            verdict=verdict,
            admissible_restriction=tag is SpaceTag.G1_SPACE,
            interlace=interlace_classify(ambient_char, inf_char(make_fj_param(p, q, target, tag))),
        )
        for target, verdict in zip(targets, verdicts)
    ]


def branching_verdict(
    p: int,
    q: int,
    lam,
    subgroup: str,
    target,
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> BranchingVerdict:
    """Full verdict for one (ambient, subgroup, target) triple: see `branching_verdicts`."""
    return branching_verdicts(p, q, lam, subgroup, [target], spec)[0]


def valid_targets(p: int, q: int, subgroup: str, max_twice: int) -> list[HalfInt]:
    """All valid target parameters with doubled value up to max_twice."""
    return valid_lambdas(p, q, max_twice, _tag(subgroup))
