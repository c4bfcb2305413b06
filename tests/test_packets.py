import itertools

import pytest

from hypbranch.errors import AssumptionError, InvalidParameterError
from hypbranch.numerics import HalfInt
from hypbranch.packets import (
    InterlaceClass,
    RealForm,
    SignedPermutation,
    WeylGroup,
    admissibility_table,
    arthur_packet,
    conjecture_explore,
    default_support_predicates,
    double_cosets,
    interlace_classify,
    pure_inner_forms,
    relevant_pairs,
)
from coset_oracle import (
    apply_signed_index,
    compose,
    double_cosets_bfs,
    double_cosets_brute,
    in_type_d,
    inverse,
    weyl_conjugate,
    weyl_elements,
    weyl_generators,
    weyl_order,
)

H = HalfInt.from_twice


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
        assert weyl_conjugate([HalfInt(2), HalfInt(1)], [HalfInt(-2), HalfInt(-1)], "B")

    def test_type_d_parity(self):
        # three nonzero entries, all negated: odd flip count
        a = [HalfInt(3), HalfInt(2), HalfInt(1)]
        assert not weyl_conjugate(a, [-v for v in a], "D")
        # even flip count
        b = [HalfInt(3), HalfInt(2)]
        assert weyl_conjugate(b, [-v for v in b], "D")

    def test_type_d_zero_entry(self):
        a = [HalfInt(3), HalfInt(2), HalfInt(0)]
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
        # the reference: the a_i > b_i > a_{i+1} chains as explicit loops over
        # HalfInt entries, on every pair of decreasing sequences from -2 to 2
        def chain(a, b, start):
            for i in range(start, len(b)):
                if not a[i] > b[i] or (i + 1 < len(a) and not b[i] > a[i + 1]):
                    return False
            return True

        def reference(a, b):
            if chain(a, b, 0):
                return InterlaceClass.FINITE_TYPE
            if len(a) >= 2 and b[0] >= a[0] > a[1] and chain(a, b, 1):
                return InterlaceClass.INFINITE_TYPE_1
            return InterlaceClass.NO_PATTERN

        values = [H(t) for t in range(4, -5, -1)]
        for m in range(5):
            for a in itertools.combinations(values, m):
                for n in {max(m - 1, 0), m}:
                    for b in itertools.combinations(values, n):
                        doubled = ([v.twice for v in a], [v.twice for v in b])
                        assert interlace_classify(*doubled) is reference(a, b), (a, b)

    def test_tags_mutually_exclusive(self):
        # finite requires a1 > b1, infinite requires b1 >= a1
        for b1 in (11, 12, 13):
            a = [12, 6, 4, 2]
            b = [b1, 5, 3]
            cls = interlace_classify(a, b)
            assert cls in InterlaceClass


def _setup(p, q):
    m = (p + q) // 2
    return (
        (WeylGroup("D", p // 2), WeylGroup("D", q // 2)),
        WeylGroup("D", m),
        WeylGroup("D", m - 1),
    )


class TestDoubleCosets:
    @pytest.mark.parametrize("pq", [(4, 4), (4, 6), (4, 8), (6, 6)])
    def test_count_is_two(self, pq):
        p, q = pq
        res = double_cosets(*_setup(p, q))
        assert res.count == 2
        assert res.coset_space_size == 2 * ((p + q) // 2)

    @pytest.mark.parametrize("pq", [(4, 4), (4, 6), (4, 8), (6, 6)])
    def test_brute_oracle_agrees(self, pq):
        p, q = pq
        setup = _setup(p, q)
        assert double_cosets_brute(*setup) == double_cosets(*setup).count == 2

    @pytest.mark.parametrize("r1", range(2, 9))
    def test_closed_form_matches_bfs_oracle(self, r1):
        for r2 in range(2, 9):
            setup = _setup(2 * r1, 2 * r2)
            assert double_cosets(*setup) == double_cosets_bfs(*setup), (r1, r2)

    def test_representatives(self):
        res = double_cosets(*_setup(4, 4))
        identity = res.representatives[0]
        assert identity.images == (1, 2, 3, 4)
        other = res.representatives[1]
        dest, sign = apply_signed_index(other, 1, 1)
        assert dest > 2  # e_1 is sent into the second block
        assert in_type_d(other)

    def test_orbit_structure(self):
        res = double_cosets(*_setup(4, 6))
        sizes = sorted(len(orbit) for orbit in res.orbits)
        assert sizes == [4, 6]  # 2 * p/2 and 2 * q/2 signed destinations

    def test_assumption_violations(self):
        left = (WeylGroup("D", 1), WeylGroup("D", 3))
        with pytest.raises(AssumptionError):
            double_cosets(left, WeylGroup("D", 4), WeylGroup("D", 3))
        with pytest.raises(AssumptionError):
            double_cosets((WeylGroup("D", 2), WeylGroup("D", 2)), WeylGroup("B", 4), WeylGroup("D", 3))
        with pytest.raises(AssumptionError):
            double_cosets((WeylGroup("D", 2), WeylGroup("D", 2)), WeylGroup("D", 4), WeylGroup("D", 2))


class TestArthurPacket:
    def test_example(self):
        report = arthur_packet(4, 4, HalfInt(2))
        assert report["size"] == 2
        tags = [m["tag"] for m in report["members"]]
        assert tags == ["s", "as"]
        assert report["members"][0]["levi"] == "SO(4,2)xSO(0,2)"
        assert report["members"][1]["levi"] == "SO(2,0)xSO(2,4)"
        assert report["members"][0]["discrete_spectrum_of"] == "SO0(4,4)/SO0(4,3)"
        assert report["members"][1]["discrete_spectrum_of"] == "SO0(4,4)/SO0(3,4)"

    def test_ordering_assumption(self):
        with pytest.raises(AssumptionError):
            arthur_packet(6, 4, HalfInt(1))
        with pytest.raises(AssumptionError):
            arthur_packet(5, 5, HalfInt(1))

    def test_four_six(self):
        assert arthur_packet(4, 6, HalfInt(1))["size"] == 2


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

    def test_subgroup_form_in_at_most_two_pairs(self):
        for base, direction in ((RealForm(4, 5), "drop_p"), (RealForm(3, 6), "drop_q")):
            pairs = relevant_pairs(base, direction)
            from collections import Counter

            counts = Counter(sub for sub, _ in pairs)
            assert all(v <= 2 for v in counts.values())

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
        report = conjecture_explore(4, 4, HalfInt(2), "g1", grid)
        assert [t.twice for t in report.support_s] == [5]
        assert [t.twice for t in report.support_as] == [1, 3]
        assert report.disjoint
        assert report.model_level

    def test_empty_grid(self):
        report = conjecture_explore(4, 4, HalfInt(2), "g1", [])
        assert report.disjoint

    def test_adversarial_predicates(self):
        grid = [H(t) for t in range(1, 6)]
        always = lambda t: True
        report = conjecture_explore(4, 4, HalfInt(2), "g1", grid, always, always)
        assert not report.disjoint

    def test_disjoint_on_lambda_grid(self):
        grid = [H(t) for t in range(1, 16)]
        for p, q in ((4, 4), (4, 6)):
            for lam_twice in (2, 3, 4, 5, 6):
                for sub in ("g1", "g2"):
                    report = conjecture_explore(p, q, H(lam_twice), sub, grid)
                    assert report.disjoint

    def test_default_predicates_exact_halfint(self):
        pred_s, pred_as = default_support_predicates(4, 4, HalfInt(2), "g2")
        assert pred_s(H(3)) and pred_s(H(1))
        assert not pred_s(H(5))
        assert pred_as(H(5)) and not pred_as(H(3))

    def test_default_supports_match_halfint_formulas(self):
        # the reference: the criteria in HalfInt arithmetic, the "as" member of
        # g1 with the roles of p and q exchanged; t = -1/2 included
        half = H(1)

        def inequality(p, q, lam, t):
            degree = t - 1 + H(p - q + 1)
            return t + half <= lam and degree.twice % 2 == 0 and degree >= 0

        for p in range(4, 9):
            for q in range(4, 9):
                for lam in map(H, range(1, 13)):
                    for sub in ("g1", "g2"):
                        pred_s, pred_as = default_support_predicates(p, q, lam, sub)
                        for t in map(H, range(-3, 21)):
                            expected = (
                                (t == lam + half, inequality(q, p, lam, t))
                                if sub == "g1"
                                else (inequality(p, q, lam, t), t == lam + half)
                            )
                            assert (pred_s(t), pred_as(t)) == expected, (p, q, lam, sub, t)
