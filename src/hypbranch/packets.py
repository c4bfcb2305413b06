"""Signed-permutation Weyl groups, interlacing classes, and packet combinatorics.

Covers the desk-scale combinatorial layer: double-coset counting behind the
two-element packets, pure inner forms, relevant pairs, the encoded
admissibility table, and the predicate-disjointness explorer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

from .errors import AssumptionError, InvalidParameterError
from .fjrep import SpaceTag, degree_x2
from .numerics import HalfInt

__all__ = [
    "SignedPermutation",
    "WeylGroup",
    "InterlaceClass",
    "RealForm",
    "interlace_classify",
    "DoubleCosetResult",
    "double_cosets",
    "arthur_packet",
    "pure_inner_forms",
    "relevant_pairs",
    "admissibility_table",
    "ConjectureReport",
    "conjecture_explore",
    "default_support_predicates",
]


class SignedPermutation:
    """A signed permutation of {1..n}: e_i -> sign * e_{|images[i-1]|}."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(v) for v in images)
        if 0 in images:
            raise InvalidParameterError("signed permutation images must be nonzero")
        if sorted(abs(v) for v in images) != list(range(1, len(images) + 1)):
            raise InvalidParameterError("underlying index map must be a bijection")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(range(1, n + 1))

    def __len__(self):
        return len(self.images)

    def __eq__(self, other):
        return isinstance(other, SignedPermutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"SignedPermutation({list(self.images)})"


@dataclass(frozen=True)
class WeylGroup:
    """Type B_n or D_n signed-permutation group."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("B", "D"):
            raise InvalidParameterError("family must be 'B' or 'D'")
        if self.rank < 1:
            raise InvalidParameterError("rank must be >= 1")


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


# ---------------------------------------------------------------------------
# Double cosets behind the two-element packets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleCosetResult:
    count: int
    representatives: tuple[SignedPermutation, ...]
    coset_space_size: int
    orbits: tuple[tuple[tuple[int, int], ...], ...]


def _validate_coset_setup(left, mid: WeylGroup, right: WeylGroup):
    r1, r2 = left
    if mid.family != "D":
        raise AssumptionError("middle group must be of type D")
    if right.family != "D" or right.rank != mid.rank - 1:
        raise AssumptionError("right factor must be D_{m-1} fixing the first coordinate")
    if r1.family != "D" or r2.family != "D":
        raise AssumptionError("left factors must be type D (even orthogonal Weyl groups)")
    if r1.rank + r2.rank != mid.rank:
        raise AssumptionError("left block ranks must sum to the middle rank")
    if r1.rank < 2 or r2.rank < 2:
        raise AssumptionError("left block ranks must be >= 2 (p, q >= 4)")


def double_cosets(left: tuple[WeylGroup, WeylGroup], mid: WeylGroup, right: WeylGroup) -> DoubleCosetResult:
    """The left\\mid/right double cosets in closed form.

    The right factor is the stabilizer of e_1 in mid = D_m, so mid/right is
    the 2m signed basis vectors, and the double cosets are the orbits of the
    block-diagonal left group on them.  D_r with r >= 2 is transitive on the
    2r signed basis vectors of its block, so there are two orbits, one per
    block: the identity coset and the coset of the transposition
    e_1 <-> e_{r1+1}.
    """
    _validate_coset_setup(left, mid, right)
    m, r1 = mid.rank, left[0].rank
    swap = list(range(1, m + 1))
    swap[0], swap[r1] = r1 + 1, 1
    blocks = (range(1, r1 + 1), range(r1 + 1, m + 1))
    return DoubleCosetResult(
        count=len(blocks),
        representatives=(SignedPermutation.identity(m), SignedPermutation(swap)),
        coset_space_size=2 * m,
        orbits=tuple(tuple((i, s) for i in block for s in (-1, 1)) for block in blocks),
    )


def arthur_packet(p: int, q: int, lam) -> dict:
    """The two-member packet attached to (p, q, lambda) for p, q even, 4 <= p <= q and lambda > 0.

    Member "s" (identity coset) lives in the discrete spectrum of
    SO0(p,q)/SO0(p,q-1); member "as" (the e_1-transposition coset) in that of
    SO0(p,q)/SO0(p-1,q).
    """
    if p % 2 or q % 2:
        raise AssumptionError("arthur_packet requires p and q even")
    if not (4 <= p <= q):
        raise AssumptionError("arthur_packet requires 4 <= p <= q")
    lam = HalfInt(lam)
    if lam <= 0:
        raise InvalidParameterError(f"lambda must be positive, got {lam}")
    m = (p + q) // 2
    result = double_cosets(
        (WeylGroup("D", p // 2), WeylGroup("D", q // 2)),
        WeylGroup("D", m),
        WeylGroup("D", m - 1),
    )
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
        "size": result.count,
        "lambda_x2": lam.twice,
        "members": members,
        "double_coset_reps": [list(rep.images) for rep in result.representatives],
        "coset_space_size": result.coset_space_size,
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
    """All signatures (p-2r, q+2r) and (p+2s, q-2s), sorted by first entry."""
    forms = set()
    r = 0
    while form.p_sig - 2 * r >= 0:
        forms.add(RealForm(form.p_sig - 2 * r, form.q_sig + 2 * r))
        r += 1
    s = 0
    while form.q_sig - 2 * s >= 0:
        forms.add(RealForm(form.p_sig + 2 * s, form.q_sig - 2 * s))
        s += 1
    return sorted(forms)


def relevant_pairs(g_form: RealForm, codim_direction: str) -> list[tuple[RealForm, RealForm]]:
    """Pairs (subgroup form, ambient form) across the two pure-inner families.

    The subgroup base is (p-1, q) for "drop_p" and (p, q-1) for "drop_q"; a
    pair is relevant when the subgroup signature embeds with total one less.
    """
    if codim_direction == "drop_p":
        if g_form.p_sig < 1:
            raise InvalidParameterError("drop_p needs p_sig >= 1")
        sub_base = RealForm(g_form.p_sig - 1, g_form.q_sig)
    elif codim_direction == "drop_q":
        if g_form.q_sig < 1:
            raise InvalidParameterError("drop_q needs q_sig >= 1")
        sub_base = RealForm(g_form.p_sig, g_form.q_sig - 1)
    else:
        raise InvalidParameterError("codim_direction must be 'drop_p' or 'drop_q'")
    ambients = pure_inner_forms(g_form)
    subs = pure_inner_forms(sub_base)
    pairs = []
    for sub in subs:
        for amb in ambients:
            if sub.p_sig <= amb.p_sig and sub.q_sig <= amb.q_sig and sub.total == amb.total - 1:
                pairs.append((sub, amb))
    return sorted(pairs)


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
    support_s: tuple[HalfInt, ...]
    support_as: tuple[HalfInt, ...]
    disjoint: bool
    model_level: bool = True


def default_support_predicates(p: int, q: int, lam: HalfInt, subgroup: str):
    """Model-level support predicates for the two packet members on a subgroup.

    The "s" member follows the proven criteria (equality on g1, inequality
    with non-negative degree on g2); the "as" member mirrors them, exchanging
    the roles of the two sphere factors.
    """
    def equality(t: HalfInt) -> bool:
        return t.twice == lam.twice + 1

    def inequality(sp: int, sq: int):
        # the g2 criterion for the ambient X(sp, sq): t + 1/2 <= lambda and an
        # integral, non-negative target degree
        def pred(t: HalfInt) -> bool:
            d_x2 = degree_x2(sp, sq, t.twice, SpaceTag.G2_SPACE)
            return t.twice + 1 <= lam.twice and d_x2 % 2 == 0 and d_x2 >= 0

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
    """Evaluate both member supports over a grid and report disjointness."""
    lam = HalfInt(lam)
    if predicate_s is None or predicate_as is None:
        d_s, d_as = default_support_predicates(p, q, lam, subgroup)
        predicate_s = predicate_s or d_s
        predicate_as = predicate_as or d_as
    grid = [HalfInt(t) for t in target_grid]
    support_s = tuple(t for t in grid if predicate_s(t))
    support_as = tuple(t for t in grid if predicate_as(t))
    s_set = {t.twice for t in support_s}
    disjoint = all(t.twice not in s_set for t in support_as)
    return ConjectureReport(support_s, support_as, disjoint)
