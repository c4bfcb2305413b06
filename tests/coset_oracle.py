"""Double-coset oracles: the search that ``hypbranch.packets.double_cosets`` replaces.

``double_cosets_bfs`` finds the left-group orbits on the signed destinations
of e_1 by a breadth-first search over generators; ``double_cosets_brute``
enumerates every element of the middle Weyl group and counts the components
under left and right multiplication by generators.  Neither assumes what the
closed form rests on: that each block's signed basis vectors form one orbit.
``weyl_elements`` and ``weyl_generators`` enumerate a type B/D Weyl group for
these oracles and the group tests; the plain functions below give the group
law, the action on signed basis vectors and the group order.
``weyl_conjugate`` is the orbit test that ``hypbranch.fjrep.is_self_dual``
replaces with its closed form.
"""

from __future__ import annotations

import itertools
import math

from hypbranch.numerics import HalfInt
from hypbranch.packets import DoubleCosetResult, SignedPermutation, WeylGroup, _validate_coset_setup


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
    a = [HalfInt(v) if not isinstance(v, HalfInt) else v for v in seq_a]
    b = [HalfInt(v) if not isinstance(v, HalfInt) else v for v in seq_b]
    if len(a) != len(b):
        return False
    key_a = sorted((abs(v).twice for v in a), reverse=True)
    key_b = sorted((abs(v).twice for v in b), reverse=True)
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


def double_cosets_bfs(left: tuple[WeylGroup, WeylGroup], mid: WeylGroup, right: WeylGroup) -> DoubleCosetResult:
    """Oracle: left\\mid/right double cosets by a BFS over destinations of e_1.

    The right factor is the stabilizer of e_1 in mid = D_m, so mid/right is
    the 2m signed basis vectors; the block-diagonal left group acts on those
    destinations and its orbits are the double cosets.
    """
    _validate_coset_setup(left, mid, right)
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
    reps = tuple(coset_representative(sorted(orb, key=lambda d: (d[0], -d[1]))[0], m) for orb in orbits)
    return DoubleCosetResult(
        count=len(orbits),
        representatives=reps,
        coset_space_size=len(destinations),
        orbits=tuple(tuple(sorted(orb)) for orb in orbits),
    )


def double_cosets_brute(left: tuple[WeylGroup, WeylGroup], mid: WeylGroup, right: WeylGroup) -> int:
    """Slow oracle: component count of the full group under left/right moves."""
    _validate_coset_setup(left, mid, right)
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
