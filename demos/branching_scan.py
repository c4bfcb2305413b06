"""Scan the branching supports of one representation on both subgroups.

For the parameter (p, q, lambda) = (4, 4, 2): restriction targets on
SO0(4,3) follow the inequality criterion mu + 1/2 <= lambda (finitely many),
while targets on SO0(3,4) are supported on the single point nu = lambda+1/2.
The numeric period, the closed-form predicate, and the interlacing class of
the infinitesimal characters all tell the same story.
"""

from hypbranch import inf_char, make_fj_param
from hypbranch.numerics import HalfInt
from hypbranch.periods import branching_verdicts, valid_targets

P, Q = 4, 4
LAM = HalfInt(2)

ambient = make_fj_param(P, Q, LAM)
print(f"ambient parameter: lambda = {LAM}, degree a = {ambient.degree}")
print(f"infinitesimal character: {[str(e) for e in inf_char(ambient)]}")
print()

for subgroup in ("g2", "g1"):
    print(f"== restriction to {subgroup} ==")
    header = f"{'target':>8} {'degree':>6} {'nonzero':>8} {'predicate':>9} {'interlace':>14} {'admissible':>10}"
    print(header)
    targets = valid_targets(P, Q, subgroup, 9)
    for target, res in zip(targets, branching_verdicts(P, Q, LAM, subgroup, targets)):
        print(
            f"{str(target):>8} {res.verdict.degree_pair[1]:>6} {str(res.verdict.nonzero):>8}"
            f" {str(res.hom_nonzero):>9} {res.interlace.value:>14}"
            f" {str(res.admissible_restriction):>10}"
        )
    print()

print("note: the target 1/2 on g2 has degree 0 while the ambient degree is 1;")
print("the plain restriction pairing vanishes by parity there, and the K-type")
print("witness (the leading normal trace of the harmonic projection of u * Z_0,")
print("paired with Z_0) is what certifies the nonzero hom.")
