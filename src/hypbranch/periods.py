"""Period integrals over suborbits and the resulting branching verdicts.

The pairing of two generating functions over a codimension-one orbit factors
exactly in the chart: a full-sphere area, a one-dimensional sphere pairing,
and a radial cosh-power integral.  Both non-vanishing verdicts read the zonal
Gram kernel `harmonics.zonal_gram`: g1 the ratio of the ambient and target
zonal harmonics on S^{q-1}, g2 the K-type witness (the twisted pairing) on
S^{q-2}; the closed-form predicates provide the independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import DivergenceError, InvalidParameterError
from .exact import doubled, normal_ratio, pairing_subsphere_exact, sphere_area_exact, sqrt_pi_error, sqrt_pi_ratio
from .exact import wallis_exact, witness_pairing_exact, zonal_norm_sq_exact
from .fjrep import FJParam, SpaceTag, checked_degree, inf_char_x2, make_fj_param, tag_signature, valid_lambdas
from .harmonics import GRAM_RATIO_TOL, ktype_pairings_nonzero, zonal_gram
from .packets import InterlaceClass, interlace_classify

__all__ = [
    "PeriodVerdict",
    "BranchingVerdict",
    "converges_G1",
    "converges_G2",
    "nonvanishing_G1",
    "nonvanishing_G2",
    "period_integral_G1",
    "period_integral_G2",
    "branching_verdict",
    "branching_verdicts",
    "valid_targets",
    "interlace_class_for_pair",
]

# The largest ambient degree a period and target degree a `branch` scan accept:
# the checked degree range.  The zonal layer holds a Gram row per degree on a
# rule of about that many nodes, so its memory grows with the square.
MAX_SCAN_DEGREE = 400


@dataclass(frozen=True)
class PeriodVerdict:
    """Outcome of one period computation.

    Each factor stays exact in `*_exact` as (num, den, r).  All five printed numbers are
    rounded once, and only when read: `value`, the factored integral (with the plain zonal
    pairing unless `witness_used`), `err_est`, which bounds |value - exact|, and each
    `*_factor`.  Reading `value` refuses a value exactly nonzero but not a normal double, and
    reading the pairing or radial factor refuses that factor the same way.  `nonzero` is the
    zonal Gram verdict (g1: |<Z_a, Z_c>| / (|Z_a| |Z_c|) on S^{q-1}; g2: the K-type witness),
    which no printed number reads, and must agree with `predicate_nonzero`.
    """

    converges: bool
    parity_match: bool
    degree_pair: tuple[int, int]
    nonzero: bool
    predicate_nonzero: bool
    sphere_exact: tuple[int, int, int]
    pairing_exact: tuple[int, int, int]
    radial_exact: tuple[int, int, int]
    witness_used: bool

    @cached_property
    def value(self) -> float:
        factors = (self.sphere_exact, self.pairing_exact, self.radial_exact)
        return normal_ratio("period value", f"degrees {self.degree_pair}", *factors)

    @property
    def err_est(self) -> float:
        return sqrt_pi_error(self.value, self.sphere_exact[2] + self.pairing_exact[2] + self.radial_exact[2])

    @property
    def sphere_factor(self) -> float:
        return sqrt_pi_ratio(*self.sphere_exact)  # normal wherever sphere_area_exact does not refuse it

    @property
    def pairing_factor(self) -> float:
        return normal_ratio("pairing factor", f"degrees {self.degree_pair}", self.pairing_exact)

    @property
    def radial_factor(self) -> float:
        return normal_ratio("radial factor", f"degrees {self.degree_pair}", self.radial_exact)

    def to_json_dict(self) -> dict:
        # read in this order, the value is refused before a pairing factor, and that before a radial one
        names = ("value", "err_est", "sphere_factor", "pairing_factor", "radial_factor")
        read = {name: getattr(self, name) for name in names}
        out = {key: v for key, v in vars(self).items() if not key.endswith("_exact")} | read
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


def _periods(ambient: FJParam, tag: SpaceTag, targets_x2, witness: bool) -> list[PeriodVerdict]:
    """Periods sphere_area(sp) * pairing * R(sp-1, ...) of the ambient against each doubled target.

    X(sp, sq) is the targets' space.  The verdicts are zonal Gram ratios from one Gegenbauer
    pass each: g1 the row of Z_a on S^{q-1} (`zonal_gram`), g2 the K-type witnesses on S^{q-2}
    (`ktype_pairings_nonzero`).  The sphere area, the pairing (g1: delta_{a,c} |Z_a|^2; g2: the
    witness value with `witness`, else the plain subsphere pairing) and the Wallis integral R of
    sin^{sp-1} cos^m, m = lambda + target - 1/2, are exact: their product, the value, and each
    factor are rounded only when read (`PeriodVerdict`).  Refuses an ambient degree above
    MAX_SCAN_DEGREE before any Gram row is built.
    """
    a, p, q = ambient.degree, ambient.p, ambient.q
    if a > MAX_SCAN_DEGREE:
        raise InvalidParameterError(f"ambient degree {a}: periods stop at degree {MAX_SCAN_DEGREE}")
    if not targets_x2:  # build no Gram row and read no sphere area, which a large p or q would refuse
        return []
    sp, sq = tag_signature(p, q, tag)
    offset_x2 = sp - sq - 2  # a target's doubled degree is t_x2 + offset_x2 (`degree_x2`)
    degrees = [(t_x2 + offset_x2) // 2 for t_x2 in targets_x2]
    for t_x2, b in zip(targets_x2, degrees):
        if t_x2 <= 0 or b < 0 or 2 * b != t_x2 + offset_x2:
            checked_degree(p, q, t_x2, tag)  # raises, with the reason
    if tag is SpaceTag.G1_SPACE:
        nonzeros = (zonal_gram(degrees, [a], q)[0] > GRAM_RATIO_TOL).tolist()
        pairings = [zonal_norm_sq_exact(a, q) if c == a else (0, 1, 0) for c in degrees]
    else:
        nonzeros = ktype_pairings_nonzero(a, degrees, q)
        exact = witness_pairing_exact if witness else pairing_subsphere_exact
        pairings = [exact(a, b, q) for b in degrees]
    sphere, verdicts = sphere_area_exact(sp), []
    for t_x2, b, pairing, nonzero in zip(targets_x2, degrees, pairings, nonzeros):
        verdicts.append(
            PeriodVerdict(
                converges=True,
                parity_match=(a - b) % 2 == 0,
                degree_pair=(a, b),
                nonzero=nonzero,
                predicate_nonzero=_nonvanishing(tag, a, b),
                sphere_exact=sphere,
                pairing_exact=pairing,
                radial_exact=wallis_exact(sp - 1, (ambient.lam_x2 + t_x2 - 1) // 2),
                witness_used=witness,
            )
        )
    return verdicts


def period_integral_G2(p: int, q: int, lam, mu, use_witness: bool = False) -> PeriodVerdict:
    """Period of the (lambda, mu) pair over the suborbit X(p, q-1).

    Factored value: sphere_area(p) * [subsphere pairing on S^{q-2}] *
    R(p-1, (q-2) + e_lambda + e_mu).  With `use_witness`, the pairing factor
    is the K-type witness value (its leading normal trace paired with the
    target zonal harmonic) instead of the plain zonal restriction.
    """
    lam_x2, mu_x2 = doubled(lam), doubled(mu)
    _require_convergence(lam_x2, [mu_x2], SpaceTag.G2_SPACE)
    return _periods(FJParam(p, q, lam_x2), SpaceTag.G2_SPACE, [mu_x2], use_witness)[0]


def period_integral_G1(p: int, q: int, lam, nu) -> PeriodVerdict:
    """Period of the (lambda, nu) pair over the suborbit X(p-1, q).

    Factored value: sphere_area(p-1) * [full-sphere pairing on S^{q-1},
    which is delta_{a,c} |f_a|^2 by orthogonality] * R(p-2, (q-1)+e_lambda+e_nu).
    """
    lam_x2, nu_x2 = doubled(lam), doubled(nu)
    _require_convergence(lam_x2, [nu_x2], SpaceTag.G1_SPACE)
    return _periods(FJParam(p, q, lam_x2), SpaceTag.G1_SPACE, [nu_x2], False)[0]


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


def branching_verdicts(p: int, q: int, lam, subgroup: str, targets) -> list[BranchingVerdict]:
    """Full verdicts for one ambient parameter and subgroup, one per target.

    The restriction to SO0(p-1, q) is admissible, the one to SO0(p, q-1) is
    not (encoded branching data); the hom decision is the matching
    closed-form predicate, cross-checked by the numeric verdict.  The periods
    of the whole target list share one Gegenbauer pass.
    The ambient parameter is built once and validated even when the target
    list is empty; the targets stay doubled ints from validation to row.
    """
    return branching_verdicts_x2(p, q, doubled(lam), subgroup, [doubled(t) for t in targets])


def branching_verdicts_x2(p: int, q: int, lam_x2: int, subgroup: str, targets_x2) -> list[BranchingVerdict]:
    """The scan behind `branching_verdicts`, on a doubled lambda and doubled targets."""
    tag = _tag(subgroup)
    ambient = FJParam(p, q, lam_x2)
    _require_convergence(lam_x2, targets_x2, tag)
    verdicts = _periods(ambient, tag, targets_x2, witness=tag is SpaceTag.G2_SPACE)
    return [
        BranchingVerdict(
            hom_nonzero=verdict.predicate_nonzero,
            verdict=verdict,
            admissible_restriction=tag is SpaceTag.G1_SPACE,
            interlace=interlace,
        )
        for interlace, verdict in zip(_interlace_classes(ambient, targets_x2), verdicts)
    ]


def branching_verdict(p: int, q: int, lam, subgroup: str, target) -> BranchingVerdict:
    """Full verdict for one (ambient, subgroup, target) triple: see `branching_verdicts`."""
    return branching_verdicts(p, q, lam, subgroup, [target])[0]


def valid_targets(p: int, q: int, subgroup: str, max_twice: int) -> list[Fraction]:
    """All valid target parameters with doubled value up to max_twice."""
    return valid_lambdas(p, q, max_twice, _tag(subgroup))
