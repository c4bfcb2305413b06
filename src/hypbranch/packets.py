"""Packet combinatorics, in closed form.

Covers the desk-scale combinatorial layer: the two-element packets with their
double-coset data, pure inner forms, relevant pairs, the encoded
admissibility table, and the predicate-disjointness explorer.  The
signed-permutation groups, the coset searches and the pair search that these
closed forms replace are oracles in ``tests/coset_oracle.py``.  The interlacing
classes live in :mod:`.interlace`, which `periods` imports without this module;
they are exported from here too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import AssumptionError, InvalidParameterError
from .exact import doubled, half_text
from .fjrep import SpaceTag, degree_x2
from .interlace import InterlaceClass, interlace_classify, interlace_classify_scan

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "InterlaceClass",
    "RealForm",
    "interlace_classify",
    "interlace_classify_scan",
    "arthur_packet",
    "arthur_packet_x2",
    "pure_inner_forms",
    "relevant_pairs",
    "admissibility_table",
    "ConjectureReport",
    "conjecture_explore",
    "conjecture_explore_x2",
]


def arthur_packet(p: int, q: int, lam) -> dict:
    """The two-member packet attached to (p, q, lambda) for a half-integer lambda: see `arthur_packet_x2`."""
    _check_packet_form(p, q)
    return arthur_packet_x2(p, q, doubled(lam))


def _check_packet_form(p: int, q: int) -> None:
    if p % 2 or q % 2:
        raise AssumptionError("arthur_packet requires p and q even")
    if not (4 <= p <= q):
        raise AssumptionError("arthur_packet requires 4 <= p <= q")


def arthur_packet_x2(p: int, q: int, lam_x2: int) -> dict:
    """The two-member packet attached to (p, q, lambda), lambda doubled, for p, q even, 4 <= p <= q and lambda > 0.

    Member "s" (identity coset) lives in the discrete spectrum of
    SO0(p,q)/SO0(p,q-1); member "as" (the e_1-transposition coset) in that of
    SO0(p,q)/SO0(p-1,q).

    The members index the double cosets (D_{p/2} x D_{q/2}) \\ D_m / D_{m-1},
    m = (p+q)/2, with D_{m-1} the stabilizer of e_1.  So D_m / D_{m-1} is the
    p + q signed basis vectors, and D_r with r >= 2 is transitive on the 2r
    signed basis vectors of its block: there are two double cosets, one per
    block, represented by the identity and the transposition e_1 <-> e_{p/2+1}.
    """
    _check_packet_form(p, q)
    if lam_x2 <= 0:
        raise InvalidParameterError(f"lambda must be positive, got {half_text(lam_x2)}")
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


class RealForm(NamedTuple("RealForm", [("p_sig", int), ("q_sig", int)])):
    """Signature (p_sig, q_sig) of the real form SO0(p_sig, q_sig): a tuple, ordered as one."""

    __slots__ = ()

    def __new__(cls, p_sig: int, q_sig: int):
        if p_sig < 0 or q_sig < 0:
            raise InvalidParameterError("signature entries must be >= 0")
        return super().__new__(cls, p_sig, q_sig)

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


class ConjectureReport(NamedTuple):
    support_s: tuple[Fraction, ...]
    support_as: tuple[Fraction, ...]
    disjoint: bool
    model_level: bool = True


def _support_predicates_x2(p: int, q: int, lam_x2: int, subgroup: str):
    """Model-level support predicates of the two packet members on a subgroup, on doubled targets t_x2 = 2t.

    The "s" member follows the proven criteria (equality on g1, inequality
    with non-negative degree on g2); the "as" member mirrors them, exchanging
    the roles of the two sphere factors.
    """

    def inequality(sp: int, sq: int):
        # the g2 criterion for the ambient X(sp, sq): t + 1/2 <= lambda and an
        # integral, non-negative target degree, whose double is t_x2 + offset_x2
        offset_x2 = degree_x2(sp, sq, 0, SpaceTag.G2_SPACE)
        return lambda t_x2: t_x2 + 1 <= lam_x2 and (t_x2 + offset_x2) % 2 == 0 and t_x2 + offset_x2 >= 0

    equality = (lam_x2 + 1).__eq__
    sub = subgroup.lower()
    if sub == "g1":
        return equality, inequality(q, p)
    if sub == "g2":
        return inequality(p, q), equality
    raise InvalidParameterError("subgroup must be 'g1' or 'g2'")


def conjecture_explore(p: int, q: int, lam, subgroup: str, target_grid) -> ConjectureReport:
    """Evaluate both member supports over a grid of half-integers; report disjointness.

    Lambda and the grid are doubled once, and `conjecture_explore_x2` reads the doubled ints; only the support
    members are built as Fractions.
    """
    from fractions import Fraction

    *supports_x2, disjoint = conjecture_explore_x2(p, q, doubled(lam), subgroup, map(doubled, target_grid))
    support_s, support_as = (tuple(Fraction(t_x2, 2) for t_x2 in support) for support in supports_x2)
    return ConjectureReport(support_s, support_as, disjoint)


def conjecture_explore_x2(p: int, q: int, lam_x2: int, subgroup: str, grid_x2) -> tuple[list[int], list[int], bool]:
    """The doubled supports of both members over an iterable of doubled targets, and whether they are disjoint.

    The subgroup is checked before the grid is read.
    """
    predicates = _support_predicates_x2(p, q, lam_x2, subgroup)
    grid_x2 = list(grid_x2)
    support_s, support_as = ([t_x2 for t_x2 in grid_x2 if support(t_x2)] for support in predicates)
    return support_s, support_as, set(support_s).isdisjoint(support_as)
