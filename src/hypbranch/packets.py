"""Interlacing classes and packet combinatorics, in closed form.

Covers the desk-scale combinatorial layer: the two-element packets with their
double-coset data, pure inner forms, relevant pairs, the encoded
admissibility table, and the predicate-disjointness explorer.  The
signed-permutation groups, the coset searches and the pair search that these
closed forms replace are oracles in ``tests/coset_oracle.py``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import AssumptionError, InvalidParameterError
from .exact import doubled
from .fjrep import SpaceTag, degree_x2

__all__ = [
    "InterlaceClass",
    "RealForm",
    "interlace_classify",
    "arthur_packet",
    "pure_inner_forms",
    "relevant_pairs",
    "admissibility_table",
    "ConjectureReport",
    "conjecture_explore",
    "default_support_predicates",
]


class InterlaceClass(Enum):
    FINITE_TYPE = "FiniteType"
    INFINITE_TYPE_1 = "InfiniteType1"
    NO_PATTERN = "NoPattern"


def interlace_classify(a: list[int], b: list[int]) -> InterlaceClass:
    """Classify the interlacing pattern of two decreasing half-integer sequences, given doubled.

    Finite type:      a1 > b1 > a2 > b2 > ... through the shorter sequence.
    Infinite type 1:  b1 >= a1 > a2 > b2 > a3 > b3 > ...  (first comparison
    non-strict; the a_i > b_i > a_{i+1} alternation resumes at i = 2).
    """
    m, n = len(a), len(b)
    if n not in (m - 1, m):
        raise InvalidParameterError(f"length mismatch: need n in {{m-1, m}}, got m={m}, n={n}")
    # a_i > b_i and b_i > a_{i+1} for every i the shorter sequence reaches
    if all(map(operator.gt, a, b)) and all(map(operator.gt, b, a[1:])):
        return InterlaceClass.FINITE_TYPE
    tail_alternates = all(map(operator.gt, a[1:], b[1:])) and all(map(operator.gt, b[1:], a[2:]))
    if m >= 2 and b[0] >= a[0] > a[1] and tail_alternates:
        return InterlaceClass.INFINITE_TYPE_1
    return InterlaceClass.NO_PATTERN


def arthur_packet(p: int, q: int, lam) -> dict:
    """The two-member packet attached to (p, q, lambda) for p, q even, 4 <= p <= q and lambda > 0.

    Member "s" (identity coset) lives in the discrete spectrum of
    SO0(p,q)/SO0(p,q-1); member "as" (the e_1-transposition coset) in that of
    SO0(p,q)/SO0(p-1,q).

    The members index the double cosets (D_{p/2} x D_{q/2}) \\ D_m / D_{m-1},
    m = (p+q)/2, with D_{m-1} the stabilizer of e_1.  So D_m / D_{m-1} is the
    p + q signed basis vectors, and D_r with r >= 2 is transitive on the 2r
    signed basis vectors of its block: there are two double cosets, one per
    block, represented by the identity and the transposition e_1 <-> e_{p/2+1}.
    """
    if p % 2 or q % 2:
        raise AssumptionError("arthur_packet requires p and q even")
    if not (4 <= p <= q):
        raise AssumptionError("arthur_packet requires 4 <= p <= q")
    lam_x2 = doubled(lam)
    if lam_x2 <= 0:
        raise InvalidParameterError(f"lambda must be positive, got {Fraction(lam_x2, 2)}")
    identity = list(range(1, (p + q) // 2 + 1))
    swap = identity.copy()
    swap[0], swap[p // 2] = p // 2 + 1, 1
    members = [
        {
            "tag": "s",
            "levi": f"SO({p},{q - 2})xSO(0,2)",
            "discrete_spectrum_of": f"SO0({p},{q})/SO0({p},{q - 1})",
            "coset": "identity",
        },
        {
            "tag": "as",
            "levi": f"SO(2,0)xSO({p - 2},{q})",
            "discrete_spectrum_of": f"SO0({p},{q})/SO0({p - 1},{q})",
            "coset": "P1",
        },
    ]
    return {
        "size": 2,
        "lambda_x2": lam_x2,
        "members": members,
        "double_coset_reps": [identity, swap],
        "coset_space_size": p + q,
    }


@dataclass(frozen=True, order=True)
class RealForm:
    """Signature (p_sig, q_sig) of the real form SO0(p_sig, q_sig)."""

    p_sig: int
    q_sig: int

    def __post_init__(self):
        if self.p_sig < 0 or self.q_sig < 0:
            raise InvalidParameterError("signature entries must be >= 0")

    @property
    def total(self) -> int:
        return self.p_sig + self.q_sig


def pure_inner_forms(form: RealForm) -> list[RealForm]:
    """All signatures (p-2r, q+2r) with both entries non-negative, sorted by first entry."""
    p, q = form.p_sig, form.q_sig
    return [RealForm(p - 2 * r, q + 2 * r) for r in range(p // 2, -(q // 2) - 1, -1)]


def relevant_pairs(g_form: RealForm, codim_direction: str) -> list[tuple[RealForm, RealForm]]:
    """Pairs (subgroup form, ambient form) across the two pure-inner families.

    The subgroup base is (p-1, q) for "drop_p" and (p, q-1) for "drop_q"; a
    pair is relevant when the subgroup signature embeds with total one less.
    Each subgroup form pairs with exactly one ambient form, the one a unit
    vector away: (1, 0) for "drop_p", (0, 1) for "drop_q".  The other
    neighbour has the wrong parity to be a pure inner form of g_form.
    """
    if codim_direction == "drop_p":
        if g_form.p_sig < 1:
            raise InvalidParameterError("drop_p needs p_sig >= 1")
        dp, dq = 1, 0
    elif codim_direction == "drop_q":
        if g_form.q_sig < 1:
            raise InvalidParameterError("drop_q needs q_sig >= 1")
        dp, dq = 0, 1
    else:
        raise InvalidParameterError("codim_direction must be 'drop_p' or 'drop_q'")
    sub_base = RealForm(g_form.p_sig - dp, g_form.q_sig - dq)
    return [(s, RealForm(s.p_sig + dp, s.q_sig + dq)) for s in pure_inner_forms(sub_base)]


_ADMISSIBILITY = {
    ("s", "g1"): True,
    ("s", "g2"): False,
    ("as", "g1"): False,
    ("as", "g2"): True,
}


def admissibility_table(member: str, subgroup: str) -> bool:
    """Encoded admissibility: each packet member is admissible for exactly one subgroup."""
    key = (member.lower(), subgroup.lower())
    if key not in _ADMISSIBILITY:
        raise InvalidParameterError("member must be 's'/'as' and subgroup 'g1'/'g2'")
    return _ADMISSIBILITY[key]


# ---------------------------------------------------------------------------
# Conjecture explorer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureReport:
    support_s: tuple[Fraction, ...]
    support_as: tuple[Fraction, ...]
    disjoint: bool
    model_level: bool = True


def default_support_predicates(p: int, q: int, lam, subgroup: str):
    """Model-level support predicates for the two packet members on a subgroup.

    The "s" member follows the proven criteria (equality on g1, inequality
    with non-negative degree on g2); the "as" member mirrors them, exchanging
    the roles of the two sphere factors.  lambda and the targets are half-integers.
    """
    lam_x2 = doubled(lam)

    def equality(t) -> bool:
        return doubled(t) == lam_x2 + 1

    def inequality(sp: int, sq: int):
        # the g2 criterion for the ambient X(sp, sq): t + 1/2 <= lambda and an
        # integral, non-negative target degree, whose double is t_x2 + offset_x2
        offset_x2 = degree_x2(sp, sq, 0, SpaceTag.G2_SPACE)

        def pred(t) -> bool:
            t_x2 = doubled(t)
            return t_x2 + 1 <= lam_x2 and (t_x2 + offset_x2) % 2 == 0 and t_x2 + offset_x2 >= 0

        return pred

    sub = subgroup.lower()
    if sub == "g1":
        return equality, inequality(q, p)
    if sub == "g2":
        return inequality(p, q), equality
    raise InvalidParameterError("subgroup must be 'g1' or 'g2'")


def conjecture_explore(
    p: int,
    q: int,
    lam,
    subgroup: str,
    target_grid,
    predicate_s=None,
    predicate_as=None,
) -> ConjectureReport:
    """Evaluate both member supports over a grid of half-integers, passed on as Fractions; report disjointness."""
    d_s, d_as = default_support_predicates(p, q, lam, subgroup)
    predicate_s, predicate_as = predicate_s or d_s, predicate_as or d_as
    grid = [Fraction(doubled(t), 2) for t in target_grid]
    support_s = tuple(t for t in grid if predicate_s(t))
    support_as = tuple(t for t in grid if predicate_as(t))
    return ConjectureReport(support_s, support_as, set(support_s).isdisjoint(support_as))
