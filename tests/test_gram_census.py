"""Census of the verdict threshold: every Gram ratio the kernel can form in the checked range, enumerated.

A kernel ratio depends only on the sphere S^{n-1}, its sphere rule (the node count N) and the two
degrees.  The rows come from elementwise numpy operations in a fixed order, and a resumed pass is bit for
bit a pass from degree 0, so only the final dot product of two unit rows can sum in another order, which
moves it by at most gamma_N = N u / (1 - N u), u = 2^-53 (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., sec. 3.1).  One full Gram per rule therefore bounds every ratio on that rule: the g1
entries on S^{q-1} and the g2 witness rows on S^{q-2} alike.
"""

import numpy as np

from hypbranch import harmonics
from hypbranch.harmonics import GRAM_RATIO_TOL, MAX_SCAN_DEGREE, zonal_gram
from hypbranch.numerics import sphere_nodes

# README's checked range, p, q <= 16: g1 verdicts read S^{q-1} and g2 witnesses S^{q-2}, so n = 3..16.  A period
# reads up to the target degree a + 2 at a = MAX_SCAN_DEGREE.
SPHERES = range(3, 17)
TOP = MAX_SCAN_DEGREE + 2
UNIT_ROUNDOFF = 2.0**-53


def census_rules():
    """(n, largest top degree T) of every sphere rule that a top degree 0..TOP selects on S^{n-1}."""
    rules = {}
    for n in SPHERES:
        for top in range(TOP + 1):
            rules[n, sphere_nodes(2 * top, n - 3)] = top  # tops only grow, so the last one is the largest
    return [(n, top) for (n, _), top in rules.items()]


def test_every_ratio_clears_the_threshold(capsys):
    rules = census_rules()
    worst_off = worst_diag = worst_gamma = 0.0
    harmonics._witness_table.cache_clear()
    for n, top in rules:
        nodes = sphere_nodes(2 * top, n - 3)
        # a g2 verdict on this rule reads reach[b] <= a from its witness table: with reach[b] = b and no lost row,
        # each verdict is the diagonal ratio of b against the off-diagonal ratios below it, which this Gram bounds
        reach, lost = harmonics._witness_table(n, nodes)
        assert reach[: top + 1] == tuple(range(top + 1)) and not lost, (n, top)
        gamma = nodes * UNIT_ROUNDOFF / (1 - nodes * UNIT_ROUNDOFF)
        gram = zonal_gram(range(top + 1), range(top + 1), n)
        diagonal = np.diag(gram)
        off = float(np.max(gram - np.diag(diagonal), initial=0.0))
        assert off + 2 * gamma < GRAM_RATIO_TOL, (n, top, off)
        assert float(np.min(diagonal)) - 2 * gamma > GRAM_RATIO_TOL, (n, top)
        worst_off = max(worst_off, off)
        worst_diag = max(worst_diag, float(np.max(np.abs(1.0 - diagonal))))
        worst_gamma = max(worst_gamma, gamma)
    with capsys.disabled():
        print(
            f"\nGram census: {len(rules)} sphere rules on S^{SPHERES[0] - 1}..S^{SPHERES[-1] - 1} to degree {TOP}:"
            f" largest off-diagonal ratio {worst_off:.3g}, largest |1 - diagonal| {worst_diag:.3g},"
            f" largest 2 gamma_N {2 * worst_gamma:.3g}, against GRAM_RATIO_TOL = {GRAM_RATIO_TOL:g}"
        )

