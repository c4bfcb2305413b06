"""Period integrals over suborbits and the resulting branching verdicts.

The pairing of two generating functions over a codimension-one orbit factors
exactly in the chart: a full-sphere area, a one-dimensional sphere pairing,
and a radial cosh-power integral.  Both non-vanishing verdicts read zonal Gram
ratios: g1 the ratio of the ambient and target zonal harmonics on S^{q-1}
(`harmonics.zonal_gram`), g2 the K-type witness (the twisted pairing) on
S^{q-2}, from the witness table of its sphere rule; the closed-form predicates
provide the independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DivergenceError, InvalidParameterError
from .exact import doubled, normal_ratio, pairing_subsphere_exact, sphere_area_exact, sqrt_pi_error, sqrt_pi_ratio
from .exact import wallis_exact, witness_pairing_exact, zonal_norm_sq_exact
from .fjrep import FJParam, SpaceTag, checked_degree, inf_char_x2, make_fj_param, tag_signature, valid_lambdas
from .harmonics import GRAM_RATIO_TOL, MAX_SCAN_DEGREE, ktype_pairings_nonzero, zonal_gram
from .packets import InterlaceClass, interlace_classify_scan

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


def period_value(sphere, pairing, radial, degree_pair) -> tuple[float, float]:
    """`value` and `err_est` of a period from exact factors (num, den, r), the pairing nonzero: see `normal_ratio`."""
    value = normal_ratio("period value", f"degrees {degree_pair}", sphere, pairing, radial)
    return value, sqrt_pi_error(value, sphere[2] + pairing[2] + radial[2])


class PeriodVerdict(NamedTuple):
    """One `period` record: its fields are the report's JSON keys, in the order a verdict mismatch prints them.

    `value` is the factored integral (with the plain zonal pairing unless `witness_used`) and `err_est`
    bounds |value - exact|, both from `period_value`; a value whose exact pairing is 0 is 0.0, and its
    `err_est` 0.0, with nothing rounded.  The three factors are the exact sphere area, pairing and
    Wallis integral, each rounded once.  Every number is rounded when the record is built, in field
    order, so a value exactly nonzero but not a normal double is refused before a pairing factor, and
    that before a radial one.  `nonzero` is the zonal Gram verdict (g1: |<Z_a, Z_c>| / (|Z_a| |Z_c|)
    on S^{q-1}; g2: the K-type witness), which no printed number reads, and must agree with
    `predicate_nonzero`.
    """

    converges: bool
    parity_match: bool
    nonzero: bool
    predicate_nonzero: bool
    witness_used: bool
    value: float
    err_est: float
    sphere_factor: float
    pairing_factor: float
    radial_factor: float
    degree_a: int
    degree_target: int
    p: int
    q: int
    lambda_x2: int
    target_x2: int
    subgroup: str


class BranchingVerdict(NamedTuple):
    """One `branch` row: its fields are the report's CSV columns, in CSV order.

    `nonzero` is the numeric verdict and `predicate` the closed-form one (the hom decision), `value`
    and `err` the period as in `PeriodVerdict` (g2 with the witness pairing), `interlace` the
    `InterlaceClass` value of the two infinitesimal characters, and `admissible` whether the
    restriction is admissible (g1: SO0(p-1, q); not g2: SO0(p, q-1)).
    """

    p: int
    q: int
    lambda_x2: int
    subgroup: str
    target_x2: int
    converges: bool
    nonzero: bool
    predicate: bool
    value: float
    err: float
    parity: bool
    interlace: str
    admissible: bool


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


class _Scan(NamedTuple):
    """Per-target columns of one scan (`_scan`): row i is sphere * pairings[i] * R(wallis_a, wallis_ms[i])."""

    a: int
    sphere: tuple[int, int, int] | None
    wallis_a: int
    degrees: list[int]
    nonzeros: list[bool]
    predicates: list[bool]
    pairings: list[tuple[int, int, int]]
    wallis_ms: list[int]


def _scan(ambient: FJParam, tag: SpaceTag, targets_x2, witness: bool) -> _Scan:
    """Periods sphere_area(sp) * pairing * R(sp-1, ...) of the ambient against each doubled target, as columns.

    X(sp, sq) is the targets' space.  The verdicts are zonal Gram ratios: g1 the row of Z_a on
    S^{q-1} from one Gegenbauer pass (`zonal_gram`), g2 the K-type witnesses on S^{q-2}, read
    from the witness table of the sphere rule (`ktype_pairings_nonzero`).  The sphere area, the
    pairing (g1: delta_{a,c} |Z_a|^2; g2: the witness value with `witness`, else the plain
    subsphere pairing) and the Wallis integral R of sin^{sp-1} cos^m, m = lambda + target - 1/2,
    are exact; a `branch` row builds its Wallis factor and rounds (`period_value`) only where its
    pairing is nonzero.  Refuses an ambient degree above MAX_SCAN_DEGREE before any Gram row is built.
    """
    a, p, q = ambient.degree, ambient.p, ambient.q
    if a > MAX_SCAN_DEGREE:
        raise InvalidParameterError(f"ambient degree {a}: periods stop at degree {MAX_SCAN_DEGREE}")
    sp, sq = tag_signature(p, q, tag)
    if not targets_x2:  # build no Gram row and read no sphere area, which a large p or q would refuse
        return _Scan(a, None, sp - 1, [], [], [], [], [])
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
    predicates = [_nonvanishing(tag, a, b) for b in degrees]
    wallis_ms = [(ambient.lam_x2 + t_x2 - 1) // 2 for t_x2 in targets_x2]
    return _Scan(a, sphere_area_exact(sp), sp - 1, degrees, nonzeros, predicates, pairings, wallis_ms)


def _period(p: int, q: int, lam_x2: int, target_x2: int, tag: SpaceTag, witness: bool) -> PeriodVerdict:
    """The `period` record of one (lambda, target) pair, from a one-target scan; its numbers rounded in field order."""
    _require_convergence(lam_x2, [target_x2], tag)
    a, sphere, wallis_a, (b,), (nonzero,), (predicate,), (pairing,), (m,) = _scan(
        FJParam(p, q, lam_x2), tag, [target_x2], witness
    )
    radial, where = wallis_exact(wallis_a, m), f"degrees {(a, b)}"
    value, err = period_value(sphere, pairing, radial, (a, b)) if pairing[0] else (0.0, 0.0)
    sphere_factor = sqrt_pi_ratio(*sphere)  # normal wherever sphere_area_exact does not refuse it
    pairing_factor = normal_ratio("pairing factor", where, pairing)
    radial_factor = normal_ratio("radial factor", where, radial)
    return PeriodVerdict(True, (a - b) % 2 == 0, nonzero, predicate, witness, value, err, sphere_factor,
                         pairing_factor, radial_factor, a, b, p, q, lam_x2, target_x2, tag.value)


def period_integral_G2(p: int, q: int, lam, mu, use_witness: bool = False) -> PeriodVerdict:
    """Period of the (lambda, mu) pair over the suborbit X(p, q-1).

    Factored value: sphere_area(p) * [subsphere pairing on S^{q-2}] *
    R(p-1, (q-2) + e_lambda + e_mu).  With `use_witness`, the pairing factor
    is the K-type witness value (its leading normal trace paired with the
    target zonal harmonic) instead of the plain zonal restriction.
    """
    return _period(p, q, doubled(lam), doubled(mu), SpaceTag.G2_SPACE, use_witness)


def period_integral_G1(p: int, q: int, lam, nu) -> PeriodVerdict:
    """Period of the (lambda, nu) pair over the suborbit X(p-1, q).

    Factored value: sphere_area(p-1) * [full-sphere pairing on S^{q-1},
    which is delta_{a,c} |f_a|^2 by orthogonality] * R(p-2, (q-1)+e_lambda+e_nu).
    """
    return _period(p, q, doubled(lam), doubled(nu), SpaceTag.G1_SPACE, False)


def _interlace_classes(ambient: FJParam, targets_x2) -> list[InterlaceClass]:
    """`interlace_classify` of the ambient character against each target's, in one `interlace_classify_scan`.

    The ambient character is built once; a target's character is its first
    entry t + (N-1)/2 followed by a tail that depends only on N = p + q.
    """
    ambient_x2 = inf_char_x2(ambient.total, ambient.lam_x2)
    head_x2, *tail_x2 = inf_char_x2(ambient.total - 1, 0)
    return interlace_classify_scan(ambient_x2, [head_x2 + t for t in targets_x2], tail_x2)


def interlace_class_for_pair(p: int, q: int, lam, target, subgroup: str) -> InterlaceClass:
    tag = _tag(subgroup)
    ambient = make_fj_param(p, q, lam)
    target_x2 = doubled(target)
    checked_degree(p, q, target_x2, tag)
    return _interlace_classes(ambient, [target_x2])[0]


def branching_verdicts(p: int, q: int, lam, subgroup: str, targets) -> list[BranchingVerdict]:
    """The `branch` rows of one ambient parameter and subgroup, one per target: see `branching_verdicts_x2`."""
    return branching_verdicts_x2(p, q, doubled(lam), subgroup, [doubled(t) for t in targets])


def branch_scan_x2(p: int, q: int, lam_x2: int, subgroup: str, targets_x2) -> tuple[_Scan, list[InterlaceClass]]:
    """The one scan behind every `branch` row and `check --suite branching`: its columns and each target's class."""
    tag = _tag(subgroup)
    ambient = FJParam(p, q, lam_x2)
    _require_convergence(lam_x2, targets_x2, tag)
    return _scan(ambient, tag, targets_x2, witness=tag is SpaceTag.G2_SPACE), _interlace_classes(ambient, targets_x2)


def branching_verdicts_x2(p: int, q: int, lam_x2: int, subgroup: str, targets_x2) -> list[BranchingVerdict]:
    """The `branch` rows of one ambient parameter (lambda doubled) and subgroup, one per doubled target.

    The restriction to SO0(p-1, q) is admissible, the one to SO0(p, q-1) is not
    (encoded branching data); the hom decision is the closed-form predicate,
    cross-checked by the numeric verdict.  The ambient parameter is built once and
    validated even when the target list is empty, and the periods of the whole
    target list share one Gegenbauer pass (g2: one witness table per sphere rule).
    A row's Wallis factor is built, and its value rounded, only where its exact
    pairing is nonzero; a value exactly nonzero but not a normal double is refused
    (`ToleranceError`) before any row is returned.
    """
    tag = _tag(subgroup)
    scan, interlaces = branch_scan_x2(p, q, lam_x2, subgroup, targets_x2)
    sub, admissible = tag.value, tag is SpaceTag.G1_SPACE
    a, sphere, wallis_a, *columns = scan  # columns: degrees, nonzeros, predicates, pairings, wallis_ms
    rows = []
    for target_x2, b, nonzero, predicate, pairing, m, interlace in zip(targets_x2, *columns, interlaces):
        value, err = period_value(sphere, pairing, wallis_exact(wallis_a, m), (a, b)) if pairing[0] else (0.0, 0.0)
        parity = (a - b) % 2 == 0
        rows.append(BranchingVerdict(p, q, lam_x2, sub, target_x2, True, nonzero, predicate, value, err, parity,
                                     interlace.value, admissible))
    return rows


def branching_verdict(p: int, q: int, lam, subgroup: str, target) -> BranchingVerdict:
    """The `branch` row of one (ambient, subgroup, target) triple: see `branching_verdicts_x2`."""
    return branching_verdicts(p, q, lam, subgroup, [target])[0]


def valid_targets(p: int, q: int, subgroup: str, max_twice: int) -> list[Fraction]:
    """All valid target parameters with doubled value up to max_twice."""
    return valid_lambdas(p, q, max_twice, _tag(subgroup))
