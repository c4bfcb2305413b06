"""Signed-permutation groups and the searches that ``hypbranch.packets`` states in closed form.

``SignedPermutation`` and ``WeylGroup`` are the type B/D Weyl groups as data;
the plain functions below give their group law, the action on signed basis
vectors, the group order, and ``weyl_elements`` and ``weyl_generators``
enumerate a group for the oracles and the group tests.

``double_cosets_bfs`` finds the left-group orbits on the signed destinations
of e_1 by a breadth-first search over generators; ``double_cosets_brute``
enumerates every element of the middle Weyl group and counts the components
under left and right multiplication by generators.  Neither assumes what
``hypbranch.packets.arthur_packet``'s closed form rests on: that each block's
signed basis vectors form one orbit.  ``relevant_pairs_search`` tries every
(subgroup form, ambient form) pair, where ``hypbranch.packets.relevant_pairs``
takes the one ambient form a unit vector away.  ``weyl_conjugate`` is the
orbit test that ``hypbranch.fjrep.is_self_dual`` replaces with its closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from hypbranch.errors import AssumptionError, InvalidParameterError
from hypbranch.packets import RealForm, pure_inner_forms


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


def compose(w: SignedPermutation, v: SignedPermutation) -> SignedPermutation:
    """The product w v: (w v)(e_i) = w(v(e_i))."""
    out = []
    for image in v.images:
        u = w.images[abs(image) - 1]
        out.append(u if image > 0 else -u)
    return SignedPermutation(out)


def inverse(w: SignedPermutation) -> SignedPermutation:
    out = [0] * len(w.images)
    for i, v in enumerate(w.images, start=1):
        out[abs(v) - 1] = i if v > 0 else -i
    return SignedPermutation(out)


def apply_signed_index(w: SignedPermutation, index: int, sign: int) -> tuple[int, int]:
    """Image (index, sign) of the signed basis vector sign * e_index."""
    v = w.images[index - 1]
    return abs(v), sign * (1 if v > 0 else -1)


def in_type_d(w: SignedPermutation) -> bool:
    """Whether w flips an even number of signs."""
    return sum(1 for v in w.images if v < 0) % 2 == 0


def weyl_order(group: WeylGroup) -> int:
    base = 2**group.rank
    if group.family == "D":
        base //= 2
    return base * math.factorial(group.rank)


def weyl_conjugate(seq_a, seq_b, family: str) -> bool:
    """Whether two weight sequences lie in one signed-permutation orbit.

    Type B: equality of the descending absolute values.  Type D: additionally
    the sign-flip parities must match, unless some entry is zero.
    """
    a, b = list(seq_a), list(seq_b)
    if len(a) != len(b):
        return False
    key_a = sorted((abs(v) for v in a), reverse=True)
    key_b = sorted((abs(v) for v in b), reverse=True)
    if key_a != key_b:
        return False
    if family == "B":
        return True
    if 0 in key_a:
        return True
    neg_a = sum(1 for v in a if v < 0)
    neg_b = sum(1 for v in b if v < 0)
    return neg_a % 2 == neg_b % 2


def weyl_elements(group: WeylGroup):
    """Iterate all elements; intended for rank <= 6 brute-force oracles."""
    n = group.rank
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            if group.family == "D" and signs.count(-1) % 2 == 1:
                continue
            yield SignedPermutation(s * v for s, v in zip(signs, perm))


def weyl_generators(group: WeylGroup) -> list[SignedPermutation]:
    n = group.rank
    gens = []
    for i in range(1, n):
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        gens.append(SignedPermutation(images))
    if group.family == "B":
        images = list(range(1, n + 1))
        images[-1] = -images[-1]
        gens.append(SignedPermutation(images))
    elif n >= 2:
        # sign-swap of the last two coordinates keeps the flip count even
        images = list(range(1, n + 1))
        images[-2], images[-1] = -images[-1], -images[-2]
        gens.append(SignedPermutation(images))
    return gens


def left_generators_on_blocks(r1: int, r2: int, m: int) -> list[SignedPermutation]:
    gens = []
    for offset, rank in ((0, r1), (r1, r2)):
        for i in range(1, rank):
            images = list(range(1, m + 1))
            images[offset + i - 1], images[offset + i] = images[offset + i], images[offset + i - 1]
            gens.append(SignedPermutation(images))
        images = list(range(1, m + 1))
        images[offset + rank - 2], images[offset + rank - 1] = (
            -images[offset + rank - 1],
            -images[offset + rank - 2],
        )
        gens.append(SignedPermutation(images))
    return gens


def coset_representative(dest: tuple[int, int], m: int) -> SignedPermutation:
    """A type-D element sending e_1 to sign * e_index."""
    index, sign = dest
    images = list(range(1, m + 1))
    if index == 1 and sign == 1:
        return SignedPermutation(images)
    images[0], images[index - 1] = sign * index, sign * 1
    if index == 1:
        # e_1 -> -e_1 needs a second flip to stay in type D
        images[1] = -images[1]
    return SignedPermutation(images)


def validate_coset_setup(left, mid: WeylGroup, right: WeylGroup):
    """Refuse any setup but (D_{p/2} x D_{q/2}) \\ D_m / D_{m-1} with p, q >= 4.

    Both searches assume it: the right factor fixes e_1, and each left block
    has rank at least 2.
    """
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


def double_cosets_bfs(left: tuple[WeylGroup, WeylGroup], mid: WeylGroup, right: WeylGroup) -> dict:
    """Oracle: left\\mid/right double cosets by a BFS over destinations of e_1.

    The right factor is the stabilizer D_{m-1} of e_1 in mid = D_m, so
    mid/right is the 2m signed basis vectors; the block-diagonal left group
    acts on those destinations and its orbits are the double cosets.  Returns
    the ``size``, ``double_coset_reps`` and ``coset_space_size`` entries of
    ``arthur_packet``'s report, and the ``orbits`` as sorted (index, sign) lists.
    """
    validate_coset_setup(left, mid, right)
    m = mid.rank
    r1 = left[0].rank
    gens = left_generators_on_blocks(r1, left[1].rank, m)
    destinations = [(i, s) for i in range(1, m + 1) for s in (1, -1)]
    seen: dict[tuple[int, int], int] = {}
    orbits: list[list[tuple[int, int]]] = []
    for dest in destinations:
        if dest in seen:
            continue
        orbit = [dest]
        seen[dest] = len(orbits)
        frontier = [dest]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = apply_signed_index(g, *cur)
                if nxt not in seen:
                    seen[nxt] = len(orbits)
                    orbit.append(nxt)
                    frontier.append(nxt)
        orbits.append(orbit)
    # identity coset first
    orbits.sort(key=lambda orb: (1, 1) not in orb)
    reps = [coset_representative(sorted(orb, key=lambda d: (d[0], -d[1]))[0], m) for orb in orbits]
    return {
        "size": len(orbits),
        "double_coset_reps": [list(rep.images) for rep in reps],
        "coset_space_size": len(destinations),
        "orbits": [sorted(orb) for orb in orbits],
    }


def double_cosets_brute(left: tuple[WeylGroup, WeylGroup], mid: WeylGroup, right: WeylGroup) -> int:
    """Slow oracle: component count of the full group under left/right moves."""
    validate_coset_setup(left, mid, right)
    m = mid.rank
    left_gens = left_generators_on_blocks(left[0].rank, left[1].rank, m)
    right_gens = right_generators_fixing_first(m)
    remaining = {w.images: w for w in weyl_elements(mid)}
    count = 0
    while remaining:
        _, w = remaining.popitem()
        count += 1
        frontier = [w]
        while frontier:
            cur = frontier.pop()
            neighbors = [compose(g, cur) for g in left_gens] + [compose(cur, g) for g in right_gens]
            for nxt in neighbors:
                if nxt.images in remaining:
                    del remaining[nxt.images]
                    frontier.append(nxt)
    return count


def right_generators_fixing_first(m: int) -> list[SignedPermutation]:
    """Generators of the D_{m-1} acting on coordinates 2..m."""
    gens = []
    for i in range(2, m):
        images = list(range(1, m + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        gens.append(SignedPermutation(images))
    images = list(range(1, m + 1))
    images[m - 2], images[m - 1] = -images[m - 1], -images[m - 2]
    gens.append(SignedPermutation(images))
    return gens


def relevant_pairs_search(g_form: RealForm, codim_direction: str) -> list[tuple[RealForm, RealForm]]:
    """Oracle: every (subgroup form, ambient form) pair that embeds with total one less, sorted.

    Quadratic in the signature: it tries each pure inner form of the subgroup
    base against each pure inner form of g_form.
    """
    dp, dq = {"drop_p": (1, 0), "drop_q": (0, 1)}[codim_direction]
    ambients = pure_inner_forms(g_form)
    subs = pure_inner_forms(RealForm(g_form.p_sig - dp, g_form.q_sig - dq))
    pairs = []
    for sub in subs:
        for amb in ambients:
            if sub.p_sig <= amb.p_sig and sub.q_sig <= amb.q_sig and sub.total == amb.total - 1:
                pairs.append((sub, amb))
    return sorted(pairs)
