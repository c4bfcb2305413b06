"""Scan the branching supports of one representation on both subgroups.

For the parameter (p, q, lambda) = (4, 4, 2): restriction targets on
SO0(4,3) follow the inequality criterion mu + 1/2 <= lambda (finitely many),
while targets on SO0(3,4) are supported on the single point nu = lambda+1/2.
The numeric period, the closed-form predicate, and the interlacing class of
the infinitesimal characters all tell the same story.
"""

from hypbranch import SpaceTag, inf_char, make_fj_param
from hypbranch.periods import branching_verdicts, valid_targets

P, Q = 4, 4
LAM = 2

ambient = make_fj_param(P, Q, LAM)
print(f"ambient parameter: lambda = {LAM}, degree a = {ambient.degree}")
print(f"infinitesimal character: {[str(e) for e in inf_char(ambient)]}")
print()

for subgroup in ("g2", "g1"):
    print(f"== restriction to {subgroup} ==")
    header = f"{'target':>8} {'degree':>6} {'nonzero':>8} {'predicate':>9} {'interlace':>14} {'admissible':>10}"
    print(header)
    targets = valid_targets(P, Q, subgroup, 9)
    for target, row in zip(targets, branching_verdicts(P, Q, LAM, subgroup, targets)):
        degree = make_fj_param(P, Q, target, SpaceTag(subgroup)).degree
        print(
            f"{str(target):>8} {degree:>6} {str(row.nonzero):>8}"
            f" {str(row.predicate):>9} {row.interlace:>14}"
            f" {str(row.admissible):>10}"
        )
    print()

print("note: the target 1/2 on g2 has degree 0 while the ambient degree is 1;")
print("the plain restriction pairing vanishes by parity there, and the K-type")
print("witness (the leading normal trace of the harmonic projection of u * Z_0,")
print("paired with Z_0) is what certifies the nonzero hom.")
