"""Period integrals over suborbits and the resulting branching verdicts.

The pairing of two generating functions over a codimension-one orbit factors
exactly in the chart: a full-sphere area, a one-dimensional sphere pairing,
and a radial cosh-power integral.  Both non-vanishing verdicts read zonal Gram
ratios from the Gram table of their sphere rule: g1 the ratio of the ambient and
target zonal harmonics on S^{q-1}, g2 the K-type witness (the twisted pairing)
on S^{q-2}; the closed-form predicates provide the independent cross-check.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

from .errors import DivergenceError, InvalidParameterError
from .exact import doubled, half_text, pairing_subsphere_exact, period_value, sphere_area_exact, sqrt_pi_ratio
from .exact import wallis_exact, witness_pairing_exact, zonal_norm_sq_exact
from .fjrep import FJParam, SpaceTag, check_range, checked_degree, inf_char_x2, make_fj_param, tag_signature
from .fjrep import PARAMETER_NAMES, valid_lambdas
from .harmonics import ktype_pairings_nonzero, zonal_pairings_nonzero
from .interlace import InterlaceClass, interlace_classify_scan

if TYPE_CHECKING:
    from fractions import Fraction

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

    `nonzero` is the numeric verdict and `predicate` the closed-form one (the paper's non-vanishing criterion for
    this period), `value` and `err` the period as in `PeriodVerdict` (g2 with the witness pairing), `interlace` the
    `InterlaceClass` value of the two infinitesimal characters, and `admissible` whether the restriction is
    admissible (g1: SO0(p-1, q); not g2: SO0(p, q-1)).
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
    name = PARAMETER_NAMES[tag][0]
    for t in targets_x2:
        if not _converges_x2(lam_x2, t):
            total = half_text(lam_x2 + t)
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
    parities: list[bool]  # whether a - degrees[i] is even


def _scan(ambient: FJParam, tag: SpaceTag, targets_x2, witness: bool) -> _Scan:
    """Periods sphere_area(sp) * pairing * R(sp-1, ...) of the ambient against each doubled target, as columns.

    X(sp, sq) is the targets' space.  The verdicts are zonal Gram ratios from the Gram table of the sphere rule:
    g1 the ratios of Z_a on S^{q-1} (`zonal_pairings_nonzero`), g2 the K-type witnesses on S^{q-2}
    (`ktype_pairings_nonzero`).  The sphere area, the pairing (g1: delta_{a,c} |Z_a|^2; g2: the witness value with
    `witness`, chained along consecutive degrees, else the plain subsphere pairing) and the Wallis exponent m =
    lambda + target - 1/2 of R(sp-1, m) are exact.  Refuses an ambient degree or q past the checked range before it
    reads the targets, and a target degree past it (in the verdict) before any Gram row or exact factor.
    """
    a, p, q = ambient.degree, ambient.p, ambient.q
    check_range(q, a)
    sp, sq = tag_signature(p, q, tag)
    if not targets_x2:  # build no Gram row and read no sphere area, which a large p would refuse
        return _Scan(a, None, sp - 1, [], [], [], [], [], [])
    offset_x2 = sp - sq - 2  # a target's doubled degree is t_x2 + offset_x2 (`degree_x2`)
    degrees = [(t_x2 + offset_x2) // 2 for t_x2 in targets_x2]
    for t_x2, b in zip(targets_x2, degrees):
        if t_x2 <= 0 or b < 0 or 2 * b != t_x2 + offset_x2:
            checked_degree(p, q, t_x2, tag)  # raises, with the reason
    if tag is SpaceTag.G1_SPACE:
        nonzeros = zonal_pairings_nonzero(a, degrees, q)
        pairings = [zonal_norm_sq_exact(a, q) if c == a else (0, 1, 0) for c in degrees]
    else:
        nonzeros = ktype_pairings_nonzero(a, degrees, q)
        pairings = _witness_pairings(a, degrees, q) if witness else [pairing_subsphere_exact(a, b, q) for b in degrees]
    predicates = [b == a for b in degrees] if tag is SpaceTag.G1_SPACE else [0 <= b <= a for b in degrees]
    wallis_ms = [(ambient.lam_x2 + t_x2 - 1) // 2 for t_x2 in targets_x2]
    return _Scan(a, sphere_area_exact(sp), sp - 1, degrees, nonzeros, predicates, pairings, wallis_ms,
                 [(a - b) % 2 == 0 for b in degrees])


def _witness_pairings(a: int, degrees, n: int) -> list[tuple[int, int, int]]:
    """`witness_pairing_exact(a, b, n)` of each degree b, chained: a b <= a that follows the row before, c = b - 1, is
    its triple times (a + c + n - 2) (c + n - 3) (2c + n - 3) / ((a - c) (c + 1) (2c + n - 1)^2)."""
    pairings, c = [], -2
    for b in degrees:
        if b == c + 1 <= a:
            num, den, r = pairings[-1]
            pairings.append((num * (a + c + n - 2) * (c + n - 3) * (2 * c + n - 3),
                             den * (a - c) * (c + 1) * (2 * c + n - 1) ** 2, r))
        else:
            pairings.append(witness_pairing_exact(a, b, n))
        c = b
    return pairings


def scan_values(scan: _Scan) -> tuple[list[float], list[float]]:
    """The `value` and `err` columns of a scan: `period_value` rounds each row whose pairing is nonzero, in row order,
    and any other is 0.0 with no Wallis factor R(A, m): R(A, m - 2) (m - 1) / (A + m) if a row built it, else closed."""
    pairs, wallis, wallis_a = [], {}, scan.wallis_a  # wallis: the factors built, by m
    for b, pairing, m in zip(scan.degrees, scan.pairings, scan.wallis_ms):
        if pairing[0]:
            num, den, r = wallis.get(m - 2) or (0, 0, 0)
            wallis[m] = (num * (m - 1), den * (wallis_a + m), r) if num else wallis_exact(wallis_a, m)
        pairs.append(period_value(scan.sphere, pairing, wallis[m], (scan.a, b)) if pairing[0] else (0.0, 0.0))
    return [value for value, _ in pairs], [err for _, err in pairs]


def period_x2(p: int, q: int, lam_x2: int, target_x2: int, tag: SpaceTag, witness: bool) -> PeriodVerdict:
    """The `period` record of one (lambda, target) pair, from a one-target scan; its numbers rounded in field order."""
    _require_convergence(lam_x2, [target_x2], tag)
    scan = _scan(FJParam(p, q, lam_x2), tag, [target_x2], witness)
    a, sphere, wallis_a, (b,), (nonzero,), (predicate,), (pairing,), (m,), (parity,) = scan
    radial, one = wallis_exact(wallis_a, m), (1, 1, 0)
    value, err = period_value(sphere, pairing, radial, (a, b)) if pairing[0] else (0.0, 0.0)
    sphere_factor = sqrt_pi_ratio(*sphere)  # normal wherever sphere_area_exact does not refuse it
    pairing_factor = period_value(one, pairing, one, (a, b), "pairing factor")[0] if pairing[0] else 0.0
    radial_factor = period_value(one, one, radial, (a, b), "radial factor")[0]
    return PeriodVerdict(True, parity, nonzero, predicate, witness, value, err, sphere_factor,
                         pairing_factor, radial_factor, a, b, p, q, lam_x2, target_x2, tag.value)


def period_integral_G2(p: int, q: int, lam, mu, use_witness: bool = False) -> PeriodVerdict:
    """Period of the (lambda, mu) pair over the suborbit X(p, q-1).

    Factored value: sphere_area(p) * [subsphere pairing on S^{q-2}] *
    R(p-1, (q-2) + e_lambda + e_mu).  With `use_witness`, the pairing factor
    is the K-type witness value (its leading normal trace paired with the
    target zonal harmonic) instead of the plain zonal restriction.
    """
    return period_x2(p, q, doubled(lam), doubled(mu), SpaceTag.G2_SPACE, use_witness)


def period_integral_G1(p: int, q: int, lam, nu) -> PeriodVerdict:
    """Period of the (lambda, nu) pair over the suborbit X(p-1, q).

    Factored value: sphere_area(p-1) * [full-sphere pairing on S^{q-1},
    which is delta_{a,c} |f_a|^2 by orthogonality] * R(p-2, (q-1)+e_lambda+e_nu).
    """
    return period_x2(p, q, doubled(lam), doubled(nu), SpaceTag.G1_SPACE, False)


def _interlace_classes(ambient: FJParam, targets_x2) -> list[InterlaceClass]:
    """`interlace_classify` of the ambient character against each target's, in one `interlace_classify_scan`.

    The ambient character is built once; a target's character is its first
    entry t + (N-1)/2 followed by a tail that depends only on N = p + q.
    """
    ambient_x2 = inf_char_x2(ambient.total, ambient.lam_x2)
    head_x2, *tail_x2 = inf_char_x2(ambient.total - 1, 0)
    return interlace_classify_scan(ambient_x2, [head_x2 + t for t in targets_x2], tail_x2)


def interlace_class_for_pair(p: int, q: int, lam, target, subgroup: str) -> InterlaceClass:
    tag, ambient, target_x2 = _tag(subgroup), make_fj_param(p, q, lam), doubled(target)
    checked_degree(p, q, target_x2, tag)
    return _interlace_classes(ambient, [target_x2])[0]


def branching_verdicts(p: int, q: int, lam, subgroup: str, targets) -> list[BranchingVerdict]:
    """The `branch` rows of one ambient parameter and subgroup, one per target: see `branching_verdicts_x2`."""
    return branching_verdicts_x2(p, q, doubled(lam), subgroup, [doubled(t) for t in targets])


def branch_scan_x2(p: int, q: int, lam_x2: int, subgroup: str, targets_x2) -> tuple[_Scan, list[InterlaceClass]]:
    """The one scan behind `branch` and `check --suite branching`, and each target's class; like `period`, it refuses
    a divergent target (`DivergenceError`) before the ambient parameter.  The targets may be any iterable."""
    tag, targets_x2 = _tag(subgroup), list(targets_x2)
    _require_convergence(lam_x2, targets_x2, tag)
    ambient = FJParam(p, q, lam_x2)
    return _scan(ambient, tag, targets_x2, witness=tag is SpaceTag.G2_SPACE), _interlace_classes(ambient, targets_x2)


def branch_columns_x2(p: int, q: int, lam_x2: int, subgroup: str, targets_x2) -> tuple[dict, dict]:
    """`branching_verdicts_x2` by `BranchingVerdict` field: the six fields every row shares, and the seven columns."""
    tag, targets_x2 = _tag(subgroup), list(targets_x2)
    scan, interlaces = branch_scan_x2(p, q, lam_x2, subgroup, targets_x2)
    values, errs = scan_values(scan)
    shared = {"p": p, "q": q, "lambda_x2": lam_x2, "subgroup": tag.value, "converges": True,
              "admissible": tag is SpaceTag.G1_SPACE}
    return shared, {"target_x2": targets_x2, "nonzero": scan.nonzeros, "predicate": scan.predicates, "value": values,
                    "err": errs, "parity": scan.parities, "interlace": [cls._value_ for cls in interlaces]}


def verdict_rows(shared: dict, columns: dict) -> list[BranchingVerdict]:
    """The `BranchingVerdict` rows of `branch_columns_x2` fields: the columns zipped, each shared field repeated."""
    return list(map(BranchingVerdict, *[columns.get(f, repeat(shared.get(f))) for f in BranchingVerdict._fields]))


def branching_verdicts_x2(p: int, q: int, lam_x2: int, subgroup: str, targets_x2) -> list[BranchingVerdict]:
    """The `branch` rows of one ambient parameter (lambda doubled) and subgroup, one per doubled target: the closed-form
    predicate is the paper's non-vanishing criterion, cross-checked by the numeric verdict; the restriction to
    SO0(p-1, q) is admissible, the one to SO0(p, q-1) is not.  The ambient is validated even with no target, the list
    reads one Gram table per sphere rule, and every value is rounded, and refused, by `scan_values` before any row."""
    return verdict_rows(*branch_columns_x2(p, q, lam_x2, subgroup, targets_x2))


def branching_verdict(p: int, q: int, lam, subgroup: str, target) -> BranchingVerdict:
    """The `branch` row of one (ambient, subgroup, target) triple: see `branching_verdicts_x2`."""
    return branching_verdicts(p, q, lam, subgroup, [target])[0]


def valid_targets(p: int, q: int, subgroup: str, max_twice: int) -> list[Fraction]:
    """All valid target parameters with doubled value up to max_twice."""
    return valid_lambdas(p, q, max_twice, _tag(subgroup))
