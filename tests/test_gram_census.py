"""Census of the verdict threshold: every Gram ratio the kernel can form in the checked range, enumerated.

A kernel ratio depends only on the sphere S^{n-1}, its sphere rule (the node count N) and the two
degrees.  The rows come from elementwise numpy operations in a fixed order, so only the final dot product
of two unit rows can sum in another order, which moves it by at most gamma_N = N u / (1 - N u), u = 2^-53
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1).  One full Gram per rule
therefore bounds every ratio on that rule: the g1 entries on S^{q-1} and the g2 witness rows on S^{q-2}
alike, each read from the rule's Gram table.
"""

import numpy as np
import pytest

from hypbranch import harmonics
from hypbranch.errors import InvalidParameterError
from hypbranch.fjrep import MAX_DEGREE, MAX_Q, MAX_TARGET_DEGREE
from hypbranch.harmonics import GRAM_RATIO_TOL, ktype_pairings_nonzero, zonal_gram, zonal_pairings_nonzero
from hypbranch.numerics import sphere_nodes

# The checked range of `fjrep.check_range`: g1 verdicts read S^{q-1} and g2 witnesses S^{q-2} for 4 <= q <= MAX_Q,
# so n = 3..MAX_Q, and a request's largest degree is at most MAX_TARGET_DEGREE.
SPHERES = range(3, MAX_Q + 1)
TOP = MAX_TARGET_DEGREE
UNIT_ROUNDOFF = 2.0**-53
VERDICTS = {"g1": zonal_pairings_nonzero, "g2": ktype_pairings_nonzero}


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
    harmonics._gram_table.cache_clear()
    for n, top in rules:
        nodes = sphere_nodes(2 * top, n - 3)
        # a g2 verdict on this rule reads above[b][0] <= a from its Gram table: with above[b] = (b,) and no lost row,
        # each verdict is the diagonal ratio of b against the off-diagonal ratios below it, which this Gram bounds
        size = nodes - (n - 3) // 2
        above = harmonics._read_table(n, nodes, range(size))  # every block formed
        lost = harmonics._gram_table(n, nodes)[1]
        assert sorted(above) == list(range(size)) and not lost, (n, top)
        assert [above[b] for b in range(top + 1)] == [(b,) for b in range(top + 1)], (n, top)
        # a g1 verdict asks whether c is in column a; the columns are a symmetric view, so each is this Gram's entry
        pairs = {(k, c) for k, column in above.items() for c in column}
        assert pairs == {(c, k) for k, c in pairs}, (n, top)
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


class _Asked(Exception):
    """Raised by the recording stub of `harmonics._read_table` in place of a table read."""


def test_the_census_holds_exactly_the_rules_the_range_admits(monkeypatch):
    # an in-range request (4 <= q <= MAX_Q, ambient degree <= MAX_DEGREE, targets <= TOP) reads the rule of its
    # largest degree: record the rule each verdict asks for at every largest degree and q
    asked = set()

    def record(n, nodes, *degrees):
        asked.add((n, nodes))
        raise _Asked

    monkeypatch.setattr(harmonics, "_read_table", record)
    for q in range(4, MAX_Q + 1):
        for top in range(TOP + 1):
            for verdicts in VERDICTS.values():
                with pytest.raises(_Asked):
                    verdicts(min(top, MAX_DEGREE), [top], q)
    assert asked == {(n, sphere_nodes(2 * top, n - 3)) for n, top in census_rules()}


@pytest.mark.parametrize("subgroup", ["g1", "g2"])
def test_each_verdict_answers_at_each_bound_and_refuses_past_it(subgroup):
    verdicts = VERDICTS[subgroup]
    harmonics._gram_table.cache_clear()
    for a, targets, q in ((MAX_DEGREE + 1, [0], 4), (0, [TOP + 1], 4), (0, [0], MAX_Q + 1)):
        with pytest.raises(InvalidParameterError, match="is past the checked range"):
            verdicts(a, targets, q)
    assert harmonics._gram_table.cache_info().currsize == 0
    assert verdicts(MAX_DEGREE, [MAX_DEGREE, TOP], MAX_Q) == [True, False]
