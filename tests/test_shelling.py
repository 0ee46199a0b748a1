"""Shelling verification, restriction sets, property (H), and witnesses."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activita.activity import activity_profile, is_nbc, nbc_sets
from activita.bitsets import mask_of, parse_subset, submasks, subset_str
from activita.complexes import (
    COMPLEX_KINDS,
    FHVector,
    SimplicialComplex,
    build_complex,
    independence_complex,
)
from activita.errors import (
    ComparablePair,
    EquivalenceMismatch,
    NotAPermutation,
)
from activita.matroid import uniform
from activita.orders import (
    build_poset,
    compare_bases,
    first_extension,
    leq_extint_ind,
    random_extension,
)
from activita.shelling import (
    ShellingReport,
    exchange_down_basis,
    verify_shelling_by_witnesses,
    h_complex_check,
    property_H_check,
    restriction_sets_bruteforce,
    shelling_witness,
    verify_shelling,
    verify_shelling_pairwise,
)

ps5 = lambda s: parse_subset(s, 5)


def aug_order(m, extension):
    cx = build_complex(m, "augmented-ea")
    return cx, [cx.facet_by_tag[i] for i in extension]


class TestVerifyShelling:
    def test_extension_shells_augmented_complex(self, m5_matroid):
        cx, order = aug_order(m5_matroid, first_extension(build_poset(m5_matroid, "extint-ind")))
        report = verify_shelling(cx, order)
        assert report.verdict
        assert report.failing_pair is None
        assert report.matches_complex_h
        assert report.property_h
        assert report.h_complex

    def test_disjoint_edges_fail(self):
        cx = SimplicialComplex(
            tuple(("z", i) for i in range(1, 5)),
            (mask_of((1, 2)) , mask_of((3, 4))),
        )
        report = verify_shelling(cx, list(cx.facets))
        assert not report.verdict
        assert report.failing_pair == (0, 1)
        assert report.restrictions == [0]  # prefix before the failure

    def test_single_facet(self):
        cx = SimplicialComplex((("z", 1), ("z", 2)), (0b11,))
        report = verify_shelling(cx, [0b11])
        assert report.verdict
        assert report.restrictions == [0]

    def test_not_a_permutation(self, m5_matroid):
        cx = build_complex(m5_matroid, "ea")
        with pytest.raises(NotAPermutation):
            verify_shelling(cx, list(cx.facets[:-1]))

    def test_pairwise_oracle_agrees(self, m5_matroid, corpus):
        # on shellings and on a known failure
        for m in (m5_matroid, corpus["u24"]):
            cx, order = aug_order(m, first_extension(build_poset(m, "extint-ind")))
            fast = verify_shelling(cx, order, check_properties=False)
            slow_ok, slow_pair = verify_shelling_pairwise(cx, order)
            assert fast.verdict == slow_ok
        cx = SimplicialComplex(
            tuple(("z", i) for i in range(1, 5)),
            (mask_of((1, 2)), mask_of((3, 4))),
        )
        assert verify_shelling_pairwise(cx, list(cx.facets)) == (False, (0, 1))

    def test_bad_order_of_good_complex_detected(self, m5_matroid):
        # reversing a shelling of the augmented complex is not a shelling:
        # the last facet of the extension order has full-size restriction
        poset = build_poset(m5_matroid, "extint-ind")
        cx, order = aug_order(m5_matroid, first_extension(poset))
        report = verify_shelling(cx, list(reversed(order)), check_properties=False)
        slow_ok, _ = verify_shelling_pairwise(cx, list(reversed(order)))
        assert report.verdict == slow_ok  # whatever the verdict, the oracles agree


class TestRestrictionSets:
    def test_bruteforce_crosscheck_small_complexes(self, m5_matroid, corpus):
        cases = []
        for m in (corpus["u13"], corpus["u24"]):
            cases.append(aug_order(m, first_extension(build_poset(m, "extint-ind"))))
        ea = build_complex(m5_matroid, "ea")
        ext = first_extension(build_poset(m5_matroid, "extint-bases"))
        cases.append((ea, [ea.facet_by_tag[b] for b in ext]))
        for cx, order in cases:
            assert len(order) <= 12
            report = verify_shelling(cx, order, check_properties=False)
            assert report.restrictions == restriction_sets_bruteforce(order)

    def test_specific_restrictions(self, m5_matroid):
        # R(F(25)) = z_25 in the plain order; R(F(2)) = y_45 z_2 in the flip order
        n = 5
        poset = build_poset(m5_matroid, "extint-ind")
        cx, order_masks = aug_order(m5_matroid, first_extension(poset))
        rep = verify_shelling(cx, order_masks, check_properties=False)
        ext = first_extension(poset)
        pos = ext.index(ps5("25"))
        assert rep.restrictions[pos] == ps5("25") << (2 * n)

        fposet = build_poset(m5_matroid, "flip-ind")
        fext = first_extension(fposet)
        cxf, forder = aug_order(m5_matroid, fext)
        frep = verify_shelling(cxf, forder, check_properties=False)
        pos = fext.index(ps5("2"))
        assert frep.restrictions[pos] == (ps5("45") << n) | (ps5("2") << (2 * n))
        # the first flip facet is the minimum basis, whose restriction is empty
        assert frep.restrictions[0] == 0


class TestPropertyH:
    def test_augmented_complexes(self, m5_matroid):
        for kind, poset_kind in [("augmented-ea", "extint-ind"), ("augmented-nbc", "nbc-extint")]:
            cx = build_complex(m5_matroid, kind)
            ext = first_extension(build_poset(m5_matroid, poset_kind))
            order = [cx.facet_by_tag[i] for i in ext]
            rep = verify_shelling(cx, order, check_properties=False)
            assert property_H_check(cx, order, rep.restrictions)

    def test_restrictions_outside_intervals_raise(self, m5_matroid):
        # restriction sets handed in past verify_shelling: the first facet's
        # claims all its vertices, so its own codim-1 faces fall outside it
        cx = build_complex(m5_matroid, "augmented-ea")
        ext = first_extension(build_poset(m5_matroid, "extint-ind"))
        order = [cx.facet_by_tag[i] for i in ext]
        rep = verify_shelling(cx, order, check_properties=False)
        corrupt = [order[0]] + rep.restrictions[1:]
        with pytest.raises(EquivalenceMismatch):
            property_H_check(cx, order, corrupt)

    def test_simplex_vacuous(self):
        cx = SimplicialComplex((("z", 1), ("z", 2), ("z", 3)), (0b111,))
        assert property_H_check(cx, [0b111], [0])


class TestHComplex:
    def test_augmented_family_is_independence_complex(self, m5_matroid):
        cx, order = aug_order(m5_matroid, first_extension(build_poset(m5_matroid, "extint-ind")))
        rep = verify_shelling(cx, order, check_properties=False)
        assert h_complex_check(rep.restrictions)
        supports = {r >> (2 * 5) for r in rep.restrictions}
        assert supports == set(m5_matroid.independent_sets)

    def test_nbc_family_matches_nbc_sets(self, m5_matroid):
        cx = build_complex(m5_matroid, "augmented-nbc")
        ext = first_extension(build_poset(m5_matroid, "nbc-extint"))
        order = [cx.facet_by_tag[i] for i in ext]
        rep = verify_shelling(cx, order, check_properties=False)
        assert h_complex_check(rep.restrictions)
        assert {r >> 5 for r in rep.restrictions} == set(nbc_sets(m5_matroid))

    def test_lex_shelling_of_u23_independence_complex(self):
        # lexicographic basis order shells it, but the restriction family
        # {∅, 3, 23} is not downward closed, so it is not an h-shelling
        m = uniform(2, 3)
        cx = independence_complex(m)
        order = [cx.facet_by_tag[b] for b in sorted(m.bases, key=lambda b: sorted(subset_str(b, 3)))]
        rep = verify_shelling(cx, order, check_properties=False)
        assert rep.verdict
        brute = restriction_sets_bruteforce(order)
        assert rep.restrictions == brute
        assert not h_complex_check(rep.restrictions)


class TestWitness:
    def test_related_paper_example(self, m5_matroid):
        w = shelling_witness(m5_matroid, ps5("3"), ps5("45"))
        assert (w.J, w.c, w.case) == (ps5("5"), 4, "related")

    def test_unrelated_paper_example(self, m5_matroid):
        w = shelling_witness(m5_matroid, ps5("23"), ps5("14"))
        assert (w.J, w.c, w.B, w.case) == (ps5("15"), 4, ps5("135"), "unrelated")

    def test_basis_pair(self, m5_matroid):
        from activita.complexes import facet_F

        w = shelling_witness(m5_matroid, ps5("345"), ps5("124"))
        fj = facet_F(m5_matroid, w.J)
        fk = facet_F(m5_matroid, ps5("124"))
        cbit = 1 << (w.c - 1)
        assert (fj.xs & fk.xs, fj.ys & fk.ys, fj.zs & fk.zs) == (
            fk.xs,
            fk.ys,
            fk.zs & ~cbit,
        )

    def test_comparable_pair_rejected(self, m5_matroid):
        with pytest.raises(ComparablePair):
            shelling_witness(m5_matroid, ps5("45"), ps5("5"))
        with pytest.raises(ComparablePair):
            shelling_witness(m5_matroid, ps5("5"), ps5("5"))

    def test_all_pairs_all_corpus(self, corpus):
        # the witness construction verifies the facet equation internally
        for m in corpus.values():
            for i in m.independent_sets:
                for k in m.independent_sets:
                    if leq_extint_ind(m, k, i):
                        continue
                    w = shelling_witness(m, i, k)
                    assert leq_extint_ind(m, w.J, k) and w.J != k

    def test_witness_preserves_nbc(self, corpus):
        for m in corpus.values():
            sets = nbc_sets(m)
            for i in sets:
                for k in sets:
                    if leq_extint_ind(m, k, i):
                        continue
                    assert is_nbc(m, shelling_witness(m, i, k).J)

    def test_internal_activity_grows(self, m5_matroid):
        # unrelated witnesses must satisfy IA(C) ⊆ IA(B)
        m = m5_matroid
        for i in m.independent_sets:
            for k in m.independent_sets:
                if leq_extint_ind(m, k, i):
                    continue
                w = shelling_witness(m, i, k)
                if w.case == "unrelated":
                    from activita.activity import related_basis

                    ia_c = activity_profile(m, related_basis(m, k)).ia
                    ia_b = activity_profile(m, w.B).ia
                    assert ia_c & ~ia_b == 0


class TestWorkedExampleFacets:
    """Every intermediate facet of the two fully-worked witness examples."""

    def test_related_case_facets(self, m5_matroid):
        from activita.complexes import facet_F

        fi = facet_F(m5_matroid, ps5("3"))
        fj = facet_F(m5_matroid, ps5("5"))
        fk = facet_F(m5_matroid, ps5("45"))
        as_str = lambda f: tuple(subset_str(v, 5) for v in (f.xs, f.ys, f.zs))
        assert as_str(fi) == ("12345", "45", "3")
        assert as_str(fj) == ("12345", "34", "5")
        assert as_str(fk) == ("12345", "3", "45")
        inter_ik = (fi.xs & fk.xs, fi.ys & fk.ys, fi.zs & fk.zs)
        inter_jk = (fj.xs & fk.xs, fj.ys & fk.ys, fj.zs & fk.zs)
        assert inter_ik == (ps5("12345"), 0, 0)
        assert inter_jk == (ps5("12345"), ps5("3"), ps5("5"))
        assert inter_jk == (fk.xs, fk.ys, fk.zs & ~ps5("4"))

    def test_unrelated_case_facets(self, m5_matroid):
        from activita.complexes import facet_F

        as_str = lambda f: tuple(subset_str(v, 5) for v in (f.xs, f.ys, f.zs))
        # basis level: A=235, B=135, C=134
        fa = facet_F(m5_matroid, ps5("235"))
        fb = facet_F(m5_matroid, ps5("135"))
        fc = facet_F(m5_matroid, ps5("134"))
        assert (fb.xs & fc.xs, fb.zs & fc.zs) == (ps5("1234"), ps5("135"))
        assert (fa.xs & fc.xs, fa.zs & fc.zs) == (ps5("1234"), ps5("35"))
        # independent-set level: I=23, J=15, K=14
        fi = facet_F(m5_matroid, ps5("23"))
        fj = facet_F(m5_matroid, ps5("15"))
        fk = facet_F(m5_matroid, ps5("14"))
        assert as_str(fi) == ("12345", "5", "23")
        assert as_str(fj) == ("12345", "3", "15")
        assert as_str(fk) == ("1234", "3", "145")
        inter_ik = (fi.xs & fk.xs, fi.ys & fk.ys, fi.zs & fk.zs)
        inter_jk = (fj.xs & fk.xs, fj.ys & fk.ys, fj.zs & fk.zs)
        assert inter_ik == (ps5("1234"), 0, 0)
        assert inter_jk == (ps5("1234"), ps5("3"), ps5("15"))
        assert inter_jk == (fk.xs, fk.ys, fk.zs & ~ps5("4"))


class TestWitnessCertification:
    def test_first_extension_certified(self, m5_matroid, corpus):
        for m in (m5_matroid, corpus["u24"]):
            order = first_extension(build_poset(m, "extint-ind"))
            assert verify_shelling_by_witnesses(m, order)


class TestRandomMatroids:
    """The shelling theorems hold on randomly generated matroids, not just
    the pinned corpus."""

    @given(
        st.lists(
            st.lists(st.integers(0, 2), min_size=5, max_size=5),
            min_size=2,
            max_size=3,
        ),
        st.integers(0, 10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_main_theorem_on_random_linear_matroids(self, matrix, seed):
        import random as _random

        from activita.matroid import linear_over_prime_field
        from activita.orders import random_extension

        m = linear_over_prime_field(3, matrix)
        cx = build_complex(m, "augmented-ea")
        poset = build_poset(m, "extint-ind")
        for offset in range(2):
            order = random_extension(poset, _random.Random(seed + offset))
            report = verify_shelling(cx, [cx.facet_by_tag[i] for i in order])
            assert report.verdict
            assert report.matches_complex_h
            assert report.property_h and report.h_complex
            n = m.n
            assert all(
                r == i << (2 * n) for i, r in zip(order, report.restrictions)
            )


class TestDownwardExchange:
    def test_exhaustive(self, corpus):
        for m in corpus.values():
            for a_basis in m.bases:
                prof = activity_profile(m, a_basis)
                for a in range(1, m.n + 1):
                    if not prof.ip >> (a - 1) & 1:
                        continue
                    d_basis = exchange_down_basis(m, a_basis, a)
                    assert d_basis != a_basis
                    assert compare_bases(m, "extint", d_basis, a_basis)
                    assert prof.ia & ~activity_profile(m, d_basis).ia == 0


# -- differential tests: the neighbour-indexed verifier against the scans ---------


def scan_restriction(order, k):
    """R_k by a scan of every earlier facet."""
    fk = order[k]
    r = 0
    for j in range(k):
        diff = fk & ~order[j]
        if diff.bit_count() == 1:
            r |= diff
    return r


def scan_property_h(order, restrictions):
    """Property (H), finding the first facet containing each ridge by a scan."""
    for k, fk in enumerate(order):
        rk = restrictions[k]
        for vbit in (1 << v for v in range(fk.bit_length()) if fk >> v & 1):
            g = fk ^ vbit
            need = rk & g
            if not need or not rk & vbit:
                continue
            i = next(i for i in range(len(order)) if g & ~order[i] == 0)
            if restrictions[i] & ~g:
                raise EquivalenceMismatch("face outside shelling intervals")
            if need & ~restrictions[i]:
                return False
    return True


def submask_h_complex(restrictions):
    family = set(restrictions)
    return all(sub in family for r in family for sub in submasks(r))


def scan_verify_shelling(cx, order, check_properties=True):
    """The O(s²) verifier: each R_k checked against every earlier facet."""
    restrictions = []
    for k in range(len(order)):
        rk = scan_restriction(order, k)
        for i in range(k):
            if rk & ~order[i] == 0:
                return ShellingReport(False, (i, k), restrictions, None, None, None, None)
        restrictions.append(rk)
    h = [0] * (cx.facet_size + 1)
    for r in restrictions:
        h[r.bit_count()] += 1
    h_tuple = tuple(h) if order else ()
    report = ShellingReport(True, None, restrictions, h_tuple, h_tuple == cx.fh.h, None, None)
    if check_properties:
        report.property_h = scan_property_h(order, restrictions)
        report.h_complex = submask_h_complex(restrictions)
    return report


def outcome(fn, *args):
    try:
        return fn(*args)
    except EquivalenceMismatch as exc:
        return type(exc)


def assert_agrees_with_scans(cx, order):
    report = verify_shelling(cx, order)
    assert report == scan_verify_shelling(cx, order)
    assert report.verdict == verify_shelling_pairwise(cx, order)[0]
    # property (H) on every order, shelling or not, with the scanned sets
    scanned = [scan_restriction(order, k) for k in range(len(order))]
    assert outcome(property_H_check, cx, order, scanned) == outcome(
        scan_property_h, order, scanned
    )
    assert h_complex_check(scanned) == submask_h_complex(scanned)
    return report.verdict


@st.composite
def shuffled_pure_complexes(draw):
    n = draw(st.integers(1, 7))
    d = draw(st.integers(0, n))
    masks = [f for f in range(1 << n) if f.bit_count() == d]
    facets = draw(st.lists(st.sampled_from(masks), min_size=1, max_size=20, unique=True))
    cx = SimplicialComplex(tuple(("z", e) for e in range(1, n + 1)), tuple(facets))
    return cx, draw(st.permutations(facets))


class TestNeighbourIndexedVerifier:
    @given(shuffled_pure_complexes())
    @settings(max_examples=300, deadline=None)
    def test_random_pure_complexes(self, case):
        cx, order = case
        assert_agrees_with_scans(cx, list(order))

    def test_shuffled_and_extension_orders_of_corpus_complexes(self, corpus):
        shell_poset = {
            "augmented-ea": "extint-ind",
            "ea": "extint-bases",
            "nbc": "nbc-extint",
            "augmented-nbc": "nbc-extint",
        }
        verdicts = []
        for m in corpus.values():
            cases = [(build_complex(m, k), shell_poset[k]) for k in COMPLEX_KINDS]
            cases.append((independence_complex(m), "extint-bases"))
            for cx, poset_kind in cases:
                poset = build_poset(m, poset_kind)
                rng = random.Random(len(cx.facets))
                for _ in range(4):
                    shuffled = list(cx.facets)
                    rng.shuffle(shuffled)
                    verdicts.append(assert_agrees_with_scans(cx, shuffled))
                    extension = random_extension(poset, rng)
                    order = [cx.facet_by_tag[t] for t in extension if t in cx.facet_by_tag]
                    verdicts.append(assert_agrees_with_scans(cx, order))
        assert True in verdicts and False in verdicts

    @given(st.lists(st.integers(0, 127), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_h_complex_check_matches_all_submasks(self, family):
        assert h_complex_check(family) == submask_h_complex(family)

    def test_face_count_disagreeing_with_the_scan_raises(self):
        # a shelling whose complex reports one face too many
        cx = SimplicialComplex((("z", 1), ("z", 2)), (0b11,))
        cx.fh = FHVector(f=(1, 2, 2), h=(1, 1, 1))
        with pytest.raises(EquivalenceMismatch):
            verify_shelling(cx, [0b11])

    def test_empty_complex(self):
        cx = SimplicialComplex((("z", 1),), ())
        assert verify_shelling(cx, []) == scan_verify_shelling(cx, [])
