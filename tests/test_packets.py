import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from hypbranch import checks, fjrep, packets
from hypbranch.errors import AssumptionError, InvalidParameterError
from hypbranch.exact import doubled
from hypbranch.packets import (
    InterlaceClass,
    RealForm,
    admissibility_table,
    arthur_packet,
    arthur_packet_x2,
    conjecture_explore,
    conjecture_explore_x2,
    interlace_classify,
    interlace_classify_scan,
    pure_inner_forms,
    relevant_pairs,
)
from coset_oracle import (
    SignedPermutation,
    WeylGroup,
    apply_signed_index,
    compose,
    double_cosets_bfs,
    double_cosets_brute,
    in_type_d,
    inverse,
    relevant_pairs_search,
    validate_coset_setup,
    weyl_conjugate,
    weyl_elements,
    weyl_generators,
    weyl_order,
)


def H(twice):
    return Fraction(twice, 2)


class TestSignedPermutation:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SignedPermutation([1, 1, 3])
        with pytest.raises(InvalidParameterError):
            SignedPermutation([1, 0, 3])

    def test_compose_and_inverse(self):
        w = SignedPermutation([2, -1, 3])
        v = SignedPermutation([-3, 2, 1])
        wv = compose(w, v)
        # (w v)(e_1) = w(-e_3) = -e_3
        assert wv.images == (-3, -1, 2)
        assert compose(w, inverse(w)).images == (1, 2, 3)
        assert compose(inverse(w), w).images == (1, 2, 3)

    def test_apply_signed_index(self):
        w = SignedPermutation([2, -1, 3])
        assert apply_signed_index(w, 1, 1) == (2, 1)
        assert apply_signed_index(w, 2, -1) == (1, 1)

    def test_type_d_parity(self):
        assert in_type_d(SignedPermutation([2, -1, -3]))
        assert not in_type_d(SignedPermutation([-1, 2, 3]))


class TestWeylGroup:
    def test_orders(self):
        assert weyl_order(WeylGroup("D", 4)) == 192
        assert weyl_order(WeylGroup("B", 3)) == 48
        assert weyl_order(WeylGroup("D", 1)) == 1

    def test_enumeration_matches_order(self):
        for family, rank in (("B", 2), ("D", 2), ("B", 3), ("D", 3)):
            group = WeylGroup(family, rank)
            elements = list(weyl_elements(group))
            assert len(elements) == weyl_order(group)
            assert len(set(elements)) == weyl_order(group)
            if family == "D":
                assert all(in_type_d(w) for w in elements)

    def test_generators_lie_in_group(self):
        for family, rank in (("B", 3), ("D", 4)):
            for g in weyl_generators(WeylGroup(family, rank)):
                if family == "D":
                    assert in_type_d(g)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            WeylGroup("A", 3)
        with pytest.raises(InvalidParameterError):
            WeylGroup("B", 0)


class TestWeylConjugate:
    def test_type_b_ignores_signs(self):
        assert weyl_conjugate([2, 1], [-2, -1], "B")

    def test_type_d_parity(self):
        # three nonzero entries, all negated: odd flip count
        a = [3, 2, 1]
        assert not weyl_conjugate(a, [-v for v in a], "D")
        # even flip count
        b = [3, 2]
        assert weyl_conjugate(b, [-v for v in b], "D")

    def test_type_d_zero_entry(self):
        a = [3, 2, 0]
        assert weyl_conjugate(a, [-v for v in a], "D")


class TestInterlace:
    def test_finite_type(self):
        a = [12, 6, 4, 2]
        b = [9, 5, 3]
        assert interlace_classify(a, b) is InterlaceClass.FINITE_TYPE

    def test_infinite_type_1_boundary(self):
        a = [12, 6, 4, 2]
        b = [12, 5, 3]
        assert interlace_classify(a, b) is InterlaceClass.INFINITE_TYPE_1

    def test_no_pattern(self):
        a = [12, 6, 4, 2]
        b = [14, 13, 3]
        assert interlace_classify(a, b) is InterlaceClass.NO_PATTERN

    def test_equal_lengths_allowed(self):
        a = [10, 6, 2]
        b = [8, 4, 0]
        assert interlace_classify(a, b) is InterlaceClass.FINITE_TYPE

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            interlace_classify([6, 4], [2, 0, -2, -4])

    def test_matches_chain_loops(self):
        # every pair of decreasing sequences from -2 to 2, against the explicit loops over Fraction entries
        values = [H(t) for t in range(4, -5, -1)]
        for m in range(5):
            for a in itertools.combinations(values, m):
                for n in {max(m - 1, 0), m}:
                    for b in itertools.combinations(values, n):
                        args = ([doubled(v) for v in a], [doubled(v) for v in b])
                        assert interlace_classify(*args) is _chain_reference(a, b), (a, b)

    def test_scan_matches_per_pair_classes(self):
        # a seeded grid: a interlaced with the tail, or drawn at random (not always decreasing), and every
        # head from below a's last entry to above its first, against the reference one pair at a time
        rng = random.Random(36)
        for _ in range(400):
            m = rng.randint(1, 6)
            n = rng.choice([k for k in (m - 1, m) if k >= 1])
            if rng.random() < 0.5:
                chain = sorted(rng.sample(range(-20, 21), m + n), reverse=True)
                a, tail = chain[0::2], chain[3::2]
            else:
                a, tail = rng.sample(range(-20, 21), m), sorted(rng.sample(range(-20, 21), n - 1), reverse=True)
            heads = list(range(-22, 23))
            expected = [_chain_reference(a, [h, *tail]) for h in heads]
            assert interlace_classify_scan(a, heads, tail) == expected, (a, tail)
            assert [interlace_classify(a, [h, *tail]) for h in heads] == expected, (a, tail)
        with pytest.raises(InvalidParameterError, match="length mismatch"):
            interlace_classify_scan([6, 4], [2], [0, -2])

    def test_scan_matches_closed_form_on_valid_scans(self):
        # test-only oracle: against a valid target the character tails interlace, so the class is finite type
        # exactly when target <= lambda, and infinite type 1 otherwise
        for p in range(4, 17):
            for q in range(4, 17):
                total = p + q
                tail_head, *tail = fjrep.inf_char_x2(total - 1, 0)
                for sub in ("g1", "g2"):
                    targets_x2 = fjrep.valid_lambdas_x2(p, q, 60, fjrep.SpaceTag(sub))
                    for lam_x2 in fjrep.valid_lambdas_x2(p, q, 40):
                        classes = interlace_classify_scan(
                            fjrep.inf_char_x2(total, lam_x2), [tail_head + t for t in targets_x2], tail
                        )
                        expected = [
                            InterlaceClass.FINITE_TYPE if t <= lam_x2 else InterlaceClass.INFINITE_TYPE_1
                            for t in targets_x2
                        ]
                        assert classes == expected, (p, q, sub, lam_x2)

    def test_tags_mutually_exclusive(self):
        # finite requires a1 > b1, infinite requires b1 >= a1
        for b1 in (11, 12, 13):
            a = [12, 6, 4, 2]
            b = [b1, 5, 3]
            cls = interlace_classify(a, b)
            assert cls in InterlaceClass


def _chain_reference(a, b):
    """The interlace class by its a_i > b_i > a_{i+1} chains, as explicit loops."""

    def chain(start):
        for i in range(start, len(b)):
            if not a[i] > b[i] or (i + 1 < len(a) and not b[i] > a[i + 1]):
                return False
        return True

    if chain(0):
        return InterlaceClass.FINITE_TYPE
    if len(a) >= 2 and b[0] >= a[0] > a[1] and chain(1):
        return InterlaceClass.INFINITE_TYPE_1
    return InterlaceClass.NO_PATTERN


def _setup(p, q):
    m = (p + q) // 2
    return (
        (WeylGroup("D", p // 2), WeylGroup("D", q // 2)),
        WeylGroup("D", m),
        WeylGroup("D", m - 1),
    )


COSET_KEYS = ("size", "double_coset_reps", "coset_space_size")


class TestDoubleCosets:
    """The double-coset data of ``arthur_packet``'s report against the searches of ``coset_oracle``."""

    @pytest.mark.parametrize("pq", [(4, 4), (4, 6), (4, 8), (6, 6)])
    def test_count_is_two(self, pq):
        p, q = pq
        report = arthur_packet(p, q, 1)
        assert report["size"] == 2
        assert report["coset_space_size"] == 2 * ((p + q) // 2)

    @pytest.mark.parametrize("pq", [(4, 4), (4, 6), (4, 8), (6, 6)])
    def test_brute_oracle_agrees(self, pq):
        p, q = pq
        assert double_cosets_brute(*_setup(p, q)) == arthur_packet(p, q, 1)["size"] == 2

    @pytest.mark.parametrize("r1", range(2, 9))
    def test_closed_form_matches_bfs_oracle(self, r1):
        for r2 in range(r1, 9):
            p, q = 2 * r1, 2 * r2
            report, found = arthur_packet(p, q, 1), double_cosets_bfs(*_setup(p, q))
            assert [report[key] for key in COSET_KEYS] == [found[key] for key in COSET_KEYS], (p, q)

    def test_representatives(self):
        identity, other = (SignedPermutation(rep) for rep in arthur_packet(4, 4, 2)["double_coset_reps"])
        assert identity.images == (1, 2, 3, 4)
        dest, sign = apply_signed_index(other, 1, 1)
        assert dest > 2  # e_1 is sent into the second block
        assert in_type_d(other)

    def test_orbit_structure(self):
        # each representative sends e_1 into one block's orbit: 2 * p/2 and 2 * q/2 signed destinations
        orbits = double_cosets_bfs(*_setup(4, 6))["orbits"]
        reps = arthur_packet(4, 6, 1)["double_coset_reps"]
        assert [len(orbit) for orbit in orbits] == [4, 6]
        assert all((rep[0], 1) in orbit for rep, orbit in zip(reps, orbits))

    def test_assumption_violations(self):
        # below p = 4 a left block D_1 is not transitive on its signed basis vectors
        for p, q in ((2, 2), (2, 6), (0, 4)):
            with pytest.raises(AssumptionError):
                arthur_packet(p, q, 1)
        for lam in (0, H(-1), -3):
            with pytest.raises(InvalidParameterError):
                arthur_packet(4, 4, lam)

    def test_oracles_refuse_other_setups(self):
        for setup in (
            ((WeylGroup("D", 1), WeylGroup("D", 3)), WeylGroup("D", 4), WeylGroup("D", 3)),
            ((WeylGroup("D", 2), WeylGroup("D", 2)), WeylGroup("B", 4), WeylGroup("D", 3)),
            ((WeylGroup("D", 2), WeylGroup("D", 2)), WeylGroup("D", 4), WeylGroup("D", 2)),
        ):
            with pytest.raises(AssumptionError):
                validate_coset_setup(*setup)


class TestArthurPacket:
    def test_example(self):
        report = arthur_packet(4, 4, 2)
        assert report["size"] == 2
        tags = [m["tag"] for m in report["members"]]
        assert tags == ["s", "as"]
        assert report["members"][0]["levi"] == "SO(4,2)xSO(0,2)"
        assert report["members"][1]["levi"] == "SO(2,0)xSO(2,4)"
        assert report["members"][0]["discrete_spectrum_of"] == "SO0(4,4)/SO0(4,3)"
        assert report["members"][1]["discrete_spectrum_of"] == "SO0(4,4)/SO0(3,4)"

    def test_ordering_assumption(self):
        with pytest.raises(AssumptionError):
            arthur_packet(6, 4, 1)
        with pytest.raises(AssumptionError):
            arthur_packet(5, 5, 1)

    def test_four_six(self):
        assert arthur_packet(4, 6, 1)["size"] == 2

    def test_the_doubled_core_is_the_report(self):
        # `packet` passes its doubled flag straight to the core; the half-integer reader doubles once, after the form
        for p, q in ((4, 4), (4, 6), (6, 8)):
            for lam_x2 in (1, 2, 5, 8):
                assert arthur_packet_x2(p, q, lam_x2) == arthur_packet(p, q, H(lam_x2)) == arthur_packet(
                    p, q, lam_x2 / 2)
        with pytest.raises(AssumptionError):
            arthur_packet(5, 4, "not a number")
        with pytest.raises(InvalidParameterError, match="^lambda must be positive, got -3/2$"):
            arthur_packet_x2(4, 4, -3)


class TestPureInnerForms:
    def test_so33(self):
        forms = pure_inner_forms(RealForm(3, 3))
        assert [(f.p_sig, f.q_sig) for f in forms] == [(1, 5), (3, 3), (5, 1)]

    def test_so23_family(self):
        forms = pure_inner_forms(RealForm(2, 3))
        assert [(f.p_sig, f.q_sig) for f in forms] == [(0, 5), (2, 3), (4, 1)]

    def test_so02(self):
        forms = pure_inner_forms(RealForm(0, 2))
        assert [(f.p_sig, f.q_sig) for f in forms] == [(0, 2), (2, 0)]

    def test_total_preserved(self):
        for p, q in ((3, 3), (4, 4), (2, 7), (0, 5)):
            forms = pure_inner_forms(RealForm(p, q))
            assert all(f.total == p + q for f in forms)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            RealForm(-1, 3)


class TestRelevantPairs:
    def test_so33_drop_p(self):
        pairs = relevant_pairs(RealForm(3, 3), "drop_p")
        expected = [
            (RealForm(0, 5), RealForm(1, 5)),
            (RealForm(2, 3), RealForm(3, 3)),
            (RealForm(4, 1), RealForm(5, 1)),
        ]
        assert pairs == expected

    def test_subgroup_form_in_exactly_one_pair(self):
        for base, direction in ((RealForm(4, 5), "drop_p"), (RealForm(3, 6), "drop_q")):
            pairs = relevant_pairs(base, direction)
            sub_base = RealForm(base.p_sig - (direction == "drop_p"), base.q_sig - (direction == "drop_q"))
            assert Counter(sub for sub, _ in pairs) == Counter(pure_inner_forms(sub_base))

    @pytest.mark.parametrize("direction", ["drop_p", "drop_q"])
    def test_matches_search_oracle(self, direction):
        for p in range(40):
            for q in range(40):
                if (p if direction == "drop_p" else q) >= 1:
                    form = RealForm(p, q)
                    assert relevant_pairs(form, direction) == relevant_pairs_search(form, direction), (p, q)

    def test_large_signature_is_linear(self):
        # the pair search is quadratic in q and would take minutes at this size
        start = time.monotonic()
        pairs = relevant_pairs(RealForm(4, 100000), "drop_p")
        assert time.monotonic() - start < 5.0
        assert len(pairs) == 50002

    def test_so02(self):
        pairs = relevant_pairs(RealForm(0, 2), "drop_q")
        assert pairs == [(RealForm(0, 1), RealForm(0, 2))]

    def test_direction_validation(self):
        with pytest.raises(InvalidParameterError):
            relevant_pairs(RealForm(0, 2), "drop_p")
        with pytest.raises(InvalidParameterError):
            relevant_pairs(RealForm(2, 2), "sideways")


class TestAdmissibility:
    def test_entries(self):
        assert admissibility_table("s", "g1") is True
        assert admissibility_table("s", "g2") is False
        assert admissibility_table("as", "g1") is False
        assert admissibility_table("as", "g2") is True

    def test_one_per_row_and_column(self):
        for member in ("s", "as"):
            assert sum(admissibility_table(member, s) for s in ("g1", "g2")) == 1
        for sub in ("g1", "g2"):
            assert sum(admissibility_table(m, sub) for m in ("s", "as")) == 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            admissibility_table("w", "g1")


class TestConjectureExplore:
    def test_default_g1_example(self):
        grid = [H(t) for t in range(1, 10)]
        report = conjecture_explore(4, 4, 2, "g1", grid)
        assert [doubled(t) for t in report.support_s] == [5]
        assert [doubled(t) for t in report.support_as] == [1, 3]
        assert report.disjoint
        assert report.model_level

    def test_empty_grid(self):
        report = conjecture_explore(4, 4, 2, "g1", [])
        assert report.disjoint

    def test_adversarial_predicates(self, monkeypatch):
        grid = [H(t) for t in range(1, 6)]
        always = lambda t_x2: True
        monkeypatch.setattr(packets, "_support_predicates_x2", lambda *args: (always, always))
        report = conjecture_explore(4, 4, 2, "g1", grid)
        assert not report.disjoint

    def test_disjoint_on_lambda_grid(self):
        grid = [H(t) for t in range(1, 16)]
        for p, q in ((4, 4), (4, 6)):
            for lam_twice in (2, 3, 4, 5, 6):
                for sub in ("g1", "g2"):
                    report = conjecture_explore(p, q, H(lam_twice), sub, grid)
                    assert report.disjoint

    def test_check_suite_visits_valid_lambdas_only(self, monkeypatch):
        # `check --suite conjecture` explores the first five lambda of each signature that
        # X(p, q) admits, so no case of default_predicate_supports_disjoint is vacuous; it
        # reads them doubled, on the doubled grid 1..15
        visited = []

        def recorded(p, q, lam_x2, subgroup, grid_x2):
            visited.append((p, q, lam_x2, subgroup))
            assert list(grid_x2) == list(range(1, 16))
            return conjecture_explore_x2(p, q, lam_x2, subgroup, range(1, 16))

        monkeypatch.setattr(packets, "conjecture_explore_x2", recorded)
        assert [r.passed for r in checks.conjecture_suite()] == [True]
        assert len(visited) == 20
        for p, q, lam_x2, _ in visited:
            assert type(lam_x2) is int
            assert fjrep.checked_degree(p, q, lam_x2, fjrep.SpaceTag.G_ON_H) >= 0
        assert sorted({(p, q, lam_x2) for p, q, lam_x2, _ in visited}) == [
            *((4, 4, lam_x2) for lam_x2 in (2, 4, 6, 8, 10)),
            *((4, 6, lam_x2) for lam_x2 in (4, 6, 8, 10, 12)),
        ]

    def test_the_doubled_core_is_the_report(self):
        # the suite reads the core's doubled supports; the report holds the same supports as Fractions
        grid = [H(t) for t in range(-3, 20)]
        for p, q in ((4, 4), (4, 6), (5, 7)):
            for lam_x2 in range(1, 12):
                for sub in ("g1", "g2"):
                    report = conjecture_explore(p, q, H(lam_x2), sub, grid)
                    support_s, support_as, disjoint = conjecture_explore_x2(p, q, lam_x2, sub, iter(range(-3, 20)))
                    assert (report.support_s, report.support_as) == (tuple(map(H, support_s)),
                                                                     tuple(map(H, support_as)))
                    assert report.disjoint == disjoint
        # the subgroup is refused before the grid is read
        with pytest.raises(InvalidParameterError):
            conjecture_explore(4, 4, 2, "g3", ["not a half-integer"])

    def test_explore_doubles_its_grid_once(self, monkeypatch):
        # lambda and each of the 15 grid values are doubled once; the default predicates read the doubled ints
        calls = []
        monkeypatch.setattr(packets, "doubled", lambda value: calls.append(value) or doubled(value))
        grid = [H(t) for t in range(1, 16)]
        for p, q, lam, sub in ((4, 4, H(4), "g1"), (4, 6, H(6), "g2"), (5, 7, 3, "g2")):
            calls.clear()
            report = conjecture_explore(p, q, lam, sub, grid)
            assert len(calls) <= 16, (p, q, lam, sub)
            pred_s, pred_as = packets._support_predicates_x2(p, q, doubled(lam), sub)
            assert report.support_s == tuple(t for t in grid if pred_s(doubled(t)))
            assert report.support_as == tuple(t for t in grid if pred_as(doubled(t)))
            assert all(type(t) is Fraction for t in report.support_s + report.support_as)

    def test_default_predicates_exact_halfint(self):
        pred_s, pred_as = packets._support_predicates_x2(4, 4, 4, "g2")
        assert pred_s(3) and pred_s(1)
        assert not pred_s(5)
        assert pred_as(5) and not pred_as(3)

    def test_default_supports_match_halfint_formulas(self):
        # the reference: the criteria in Fraction arithmetic, the "as" member of
        # g1 with the roles of p and q exchanged; t = -1/2 included
        half = H(1)

        def inequality(p, q, lam, t):
            degree = t - 1 + H(p - q + 1)
            return t + half <= lam and doubled(degree) % 2 == 0 and degree >= 0

        for p in range(4, 9):
            for q in range(4, 9):
                for lam in map(H, range(1, 13)):
                    for sub in ("g1", "g2"):
                        pred_s, pred_as = packets._support_predicates_x2(p, q, doubled(lam), sub)
                        for t_x2 in range(-3, 21):
                            t = H(t_x2)
                            expected = (
                                (t == lam + half, inequality(q, p, lam, t))
                                if sub == "g1"
                                else (inequality(p, q, lam, t), t == lam + half)
                            )
                            assert (pred_s(t_x2), pred_as(t_x2)) == expected, (p, q, lam, sub, t)
