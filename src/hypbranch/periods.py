"""Period integrals over suborbits and the resulting branching verdicts.

The pairing of two generating functions over a codimension-one orbit factors
exactly in the chart: a full-sphere area, a one-dimensional sphere pairing,
and a radial cosh-power integral.  Both non-vanishing verdicts read the zonal
Gram kernel `harmonics.zonal_gram`: g1 the ratio of the ambient and target
zonal harmonics on S^{q-1}, g2 the K-type witness (the twisted pairing) on
S^{q-2}; the closed-form predicates provide the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivergenceError, InvalidParameterError, ToleranceError
from .fjrep import (
    FJParam,
    SpaceTag,
    checked_degree,
    decay_x2,
    inf_char_x2,
    make_fj_param,
    tag_signature,
    valid_lambdas,
)
from .geometry import radial_integrals_numeric
from .harmonics import GRAM_RATIO_TOL, ktype_pairings_nonzero, pairing_subsphere, sphere_area, zonal_gram
from .numerics import QuadratureSpec, doubled
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
    "period_integrals_G2",
    "branching_verdict",
    "branching_verdicts",
    "valid_targets",
    "interlace_class_for_pair",
]

_DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class PeriodVerdict:
    """Outcome of one period computation.

    `value` is the factored integral (with the plain zonal pairing unless
    `witness_used`); `nonzero` is the zonal Gram verdict (g1: the ratio
    |<Z_a, Z_c>| / (|Z_a| |Z_c|) on S^{q-1}; g2: the K-type witness) and must
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


def _tag(subgroup: str) -> SpaceTag:
    if subgroup.lower() not in ("g1", "g2"):
        raise InvalidParameterError("subgroup must be 'g1' or 'g2'")
    return SpaceTag(subgroup.lower())


def _converges_x2(lam_x2: int, target_x2: int) -> bool:
    return lam_x2 + target_x2 > -1


def _converges(lam, target) -> bool:
    """Convergence of the X(p-1, q) or X(p, q-1) period: lambda + target > -1/2, exactly."""
    return _converges_x2(doubled(lam), doubled(target))


converges_G1 = converges_G2 = _converges


def _nonvanishing(tag: SpaceTag, a: int, b: int) -> bool:
    """The closed-form predicate on the ambient degree a and the target degree b."""
    return b == a if tag is SpaceTag.G1_SPACE else 0 <= b <= a


def nonvanishing_G2(p: int, q: int, lam, mu) -> bool:
    """Closed-form criterion for the restriction to SO0(p, q-1).

    True iff the target degree b = mu - 1 + (p-q+1)/2 satisfies 0 <= b <= a,
    equivalently mu + 1/2 <= lambda with b >= 0.
    """
    a = make_fj_param(p, q, lam).degree
    return _nonvanishing(SpaceTag.G2_SPACE, a, checked_degree(p, q, doubled(mu), SpaceTag.G2_SPACE))


def nonvanishing_G1(p: int, q: int, lam, nu) -> bool:
    """Closed-form criterion for the restriction to SO0(p-1, q).

    True iff nu = lambda + 1/2 exactly (the two full-sphere degrees match).
    """
    a = make_fj_param(p, q, lam).degree
    return _nonvanishing(SpaceTag.G1_SPACE, a, checked_degree(p, q, doubled(nu), SpaceTag.G1_SPACE))


def _require_convergence(lam_x2: int, targets_x2, tag: SpaceTag) -> None:
    name = "nu" if tag is SpaceTag.G1_SPACE else "mu"
    for t in targets_x2:
        if not _converges_x2(lam_x2, t):
            total = Fraction(lam_x2 + t, 2)
            raise DivergenceError(f"period diverges: lambda + {name} = {total} fails the > -1/2 threshold")


def _assemble(ambient, tag, targets_x2, degrees, pairings, nonzeros, spec, witness) -> list[PeriodVerdict]:
    """Verdicts from the factored periods sphere_area(sp) * pairing * R(sp-1, sq-1 + e_lambda + e_target).

    X(sp, sq) is the targets' space and every exponent is a doubled int; the
    radial factors of all targets come from one pair of rules.  Refuses a
    value that is not finite.
    """
    if not targets_x2:
        return []
    sp, sq = tag_signature(ambient.p, ambient.q, tag)
    shift_x2 = 2 * (sq - 1) + decay_x2(ambient.total, ambient.lam_x2)
    radials = radial_integrals_numeric(sp - 1, [(shift_x2 + decay_x2(sp + sq, t)) / 2 for t in targets_x2], spec)
    a, sphere = ambient.degree, sphere_area(sp)
    verdicts = []
    for b, pairing, (radial, err), nonzero in zip(degrees, pairings, radials, nonzeros):
        value = sphere * pairing * radial
        if not math.isfinite(value):
            raise ToleranceError(f"period value {value} is not finite at degrees ({a}, {b})", math.inf)
        verdicts.append(
            PeriodVerdict(
                converges=True,
                parity_match=(a - b) % 2 == 0,
                degree_pair=(a, b),
                value=value,
                err_est=abs(sphere * pairing) * err,
                nonzero=nonzero,
                predicate_nonzero=_nonvanishing(tag, a, b),
                sphere_factor=sphere,
                pairing_factor=pairing,
                radial_factor=radial,
                witness_used=witness,
            )
        )
    return verdicts


def _periods_G2(ambient: FJParam, mus_x2, spec: QuadratureSpec, use_witness: bool) -> list[PeriodVerdict]:
    a, p, q = ambient.degree, ambient.p, ambient.q
    bs = [checked_degree(p, q, mu, SpaceTag.G2_SPACE) for mu in mus_x2]
    witness = ktype_pairings_nonzero(a, bs, q)
    pairings = [value for _, value in witness] if use_witness else [pairing_subsphere(a, b, q) for b in bs]
    nonzeros = [ok for ok, _ in witness]
    return _assemble(ambient, SpaceTag.G2_SPACE, mus_x2, bs, pairings, nonzeros, spec, use_witness)


def _periods_G1(ambient: FJParam, nus_x2, spec: QuadratureSpec) -> list[PeriodVerdict]:
    a, p, q = ambient.degree, ambient.p, ambient.q
    cs = [checked_degree(p, q, nu, SpaceTag.G1_SPACE) for nu in nus_x2]
    grams, ratios, _ = zonal_gram(cs, [a], q)
    nonzeros = (ratios[0] > GRAM_RATIO_TOL).tolist()
    return _assemble(ambient, SpaceTag.G1_SPACE, nus_x2, cs, grams[0].tolist(), nonzeros, spec, False)


def period_integrals_G2(
    p: int, q: int, lam, mus, spec: QuadratureSpec = _DEFAULT_SPEC, use_witness: bool = False
) -> list[PeriodVerdict]:
    """Periods of the (lambda, mu) pairs over the suborbit X(p, q-1), one per mu.

    Factored value: sphere_area(p) * [subsphere pairing on S^{q-2}] *
    R(p-1, (q-2) + e_lambda + e_mu).  With `use_witness`, the pairing factor
    is the K-type witness value (its leading normal trace paired with the
    target zonal harmonic) instead of the plain zonal restriction.  The
    witnesses of all targets share their Gegenbauer passes
    (`ktype_pairings_nonzero`).
    """
    lam_x2, mus_x2 = doubled(lam), [doubled(mu) for mu in mus]
    _require_convergence(lam_x2, mus_x2, SpaceTag.G2_SPACE)
    return _periods_G2(FJParam(p, q, lam_x2), mus_x2, spec, use_witness)


def period_integral_G2(
    p: int, q: int, lam, mu, spec: QuadratureSpec = _DEFAULT_SPEC, use_witness: bool = False
) -> PeriodVerdict:
    """Period of the (lambda, mu) pair over the suborbit X(p, q-1): see `period_integrals_G2`."""
    return period_integrals_G2(p, q, lam, [mu], spec, use_witness)[0]


def period_integrals_G1(
    p: int, q: int, lam, nus, spec: QuadratureSpec = _DEFAULT_SPEC
) -> list[PeriodVerdict]:
    """Periods of the (lambda, nu) pairs over the suborbit X(p-1, q), one per nu.

    Factored value: sphere_area(p-1) * [full-sphere pairing on S^{q-1},
    which is delta_{a,c} |f_a|^2 by orthogonality] * R(p-2, (q-1)+e_lambda+e_nu).
    The pairings and the scale-free nonzero ratios are the Gram row of Z_a over
    all target degrees, from one Gegenbauer pass (`zonal_gram`).
    """
    lam_x2, nus_x2 = doubled(lam), [doubled(nu) for nu in nus]
    _require_convergence(lam_x2, nus_x2, SpaceTag.G1_SPACE)
    return _periods_G1(FJParam(p, q, lam_x2), nus_x2, spec)


def period_integral_G1(p: int, q: int, lam, nu, spec: QuadratureSpec = _DEFAULT_SPEC) -> PeriodVerdict:
    """Period of the (lambda, nu) pair over the suborbit X(p-1, q): see `period_integrals_G1`."""
    return period_integrals_G1(p, q, lam, [nu], spec)[0]


@dataclass(frozen=True)
class BranchingVerdict:
    hom_nonzero: bool
    verdict: PeriodVerdict
    admissible_restriction: bool
    interlace: InterlaceClass


def _interlace_classes(ambient: FJParam, targets_x2) -> list[InterlaceClass]:
    """`interlace_classify` of the ambient character against each target's.

    The ambient character is built once; a target's character is its first
    entry t + (N-1)/2 followed by a tail that depends only on N = p + q.
    """
    ambient_x2 = inf_char_x2(ambient.total, ambient.lam_x2)
    head_x2, *tail_x2 = inf_char_x2(ambient.total - 1, 0)
    return [interlace_classify(ambient_x2, [head_x2 + t, *tail_x2]) for t in targets_x2]


def interlace_class_for_pair(p: int, q: int, lam, target, subgroup: str) -> InterlaceClass:
    tag = _tag(subgroup)
    ambient = make_fj_param(p, q, lam)
    target_x2 = doubled(target)
    checked_degree(p, q, target_x2, tag)
    return _interlace_classes(ambient, [target_x2])[0]


def branching_verdicts(
    p: int, q: int, lam, subgroup: str, targets, spec: QuadratureSpec = _DEFAULT_SPEC
) -> list[BranchingVerdict]:
    """Full verdicts for one ambient parameter and subgroup, one per target.

    The restriction to SO0(p-1, q) is admissible, the one to SO0(p, q-1) is
    not (encoded branching data); the hom decision is the matching
    closed-form predicate, cross-checked by the numeric verdict.  The periods
    of the whole target list share their Gegenbauer passes and radial rules.
    The ambient parameter is built once and validated even when the target
    list is empty; the targets stay doubled ints from validation to row.
    """
    return branching_verdicts_x2(p, q, doubled(lam), subgroup, [doubled(t) for t in targets], spec)


def branching_verdicts_x2(
    p: int, q: int, lam_x2: int, subgroup: str, targets_x2, spec: QuadratureSpec = _DEFAULT_SPEC
) -> list[BranchingVerdict]:
    """The scan behind `branching_verdicts`, on a doubled lambda and doubled targets."""
    tag = _tag(subgroup)
    ambient = FJParam(p, q, lam_x2)
    _require_convergence(lam_x2, targets_x2, tag)
    if tag is SpaceTag.G1_SPACE:
        verdicts = _periods_G1(ambient, targets_x2, spec)
    else:
        verdicts = _periods_G2(ambient, targets_x2, spec, use_witness=True)
    return [
        BranchingVerdict(
            hom_nonzero=verdict.predicate_nonzero,
            verdict=verdict,
            admissible_restriction=tag is SpaceTag.G1_SPACE,
            interlace=interlace,
        )
        for interlace, verdict in zip(_interlace_classes(ambient, targets_x2), verdicts)
    ]


def branching_verdict(
    p: int, q: int, lam, subgroup: str, target, spec: QuadratureSpec = _DEFAULT_SPEC
) -> BranchingVerdict:
    """Full verdict for one (ambient, subgroup, target) triple: see `branching_verdicts`."""
    return branching_verdicts(p, q, lam, subgroup, [target], spec)[0]


def valid_targets(p: int, q: int, subgroup: str, max_twice: int) -> list[Fraction]:
    """All valid target parameters with doubled value up to max_twice."""
    return valid_lambdas(p, q, max_twice, _tag(subgroup))
