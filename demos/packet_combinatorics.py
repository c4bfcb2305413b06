"""The combinatorial layer: packets, inner forms, and predicate disjointness.

The two-element packet comes out of the double cosets of the type-D
signed-permutation group, one per block of signed basis vectors; the packet
report states their representatives and the coset space size in closed form.
The explorer then checks that the model-level supports of the two members
never overlap on a target grid.
"""

from fractions import Fraction

from hypbranch import arthur_packet, conjecture_explore, pure_inner_forms, relevant_pairs
from hypbranch.packets import RealForm

print("== double cosets behind the packet size ==")
for p, q in ((4, 4), (4, 6), (6, 6)):
    cosets = arthur_packet(p, q, 1)
    print(
        f"  (p, q) = ({p}, {q}):  orbit count = {cosets['size']}  "
        f"(coset space size = {cosets['coset_space_size']})"
    )
    # the left group D_{p/2} x D_{q/2} moves the image of e_1 through its block
    blocks = (range(1, p // 2 + 1), range(p // 2 + 1, (p + q) // 2 + 1))
    for block, rep in zip(blocks, cosets["double_coset_reps"]):
        print(f"    coset of {rep}: sends e_1 to +-e_i, i in {list(block)}")

print()
print("== the packet at (4, 4) ==")
packet = arthur_packet(4, 4, 2)
for member in packet["members"]:
    print(f"  {member['tag']:>2}: levi {member['levi']}, lives in {member['discrete_spectrum_of']}")

print()
print("== pure inner forms and relevant pairs of SO(3,3) ==")
form = RealForm(3, 3)
print(f"  inner forms: {[(f.p_sig, f.q_sig) for f in pure_inner_forms(form)]}")
for sub, amb in relevant_pairs(form, "drop_p"):
    print(f"  relevant pair: SO{(sub.p_sig, sub.q_sig)} inside SO{(amb.p_sig, amb.q_sig)}")

print()
print("== disjointness of the two member supports (model-level predicates) ==")
grid = [Fraction(t, 2) for t in range(1, 16)]
for subgroup in ("g1", "g2"):
    report = conjecture_explore(4, 4, 2, subgroup, grid)
    print(
        f"  {subgroup}: support_s = {[str(t) for t in report.support_s]}, "
        f"support_as = {[str(t) for t in report.support_as]}, disjoint = {report.disjoint}"
    )
