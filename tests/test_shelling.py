"""Shelling verification, restriction sets, property (H), and witnesses."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import activita.suite as suite
from activita import complexes
from activita.activity import activity_profile, is_nbc, nbc_sets
from activita.bitsets import iter_bits, mask_of, parse_subset, submasks, subset_str
from activita.complexes import (
    COMPLEX_KINDS,
    FHVector,
    SimplicialComplex,
    build_complex,
    independence_complex,
)
from activita.corpus import m5
from activita.errors import (
    ComparablePair,
    EquivalenceMismatch,
    NoLinearExtension,
    NotABasis,
    NotAPermutation,
    RankOutOfRange,
)
from activita.matroid import uniform
from activita.orders import (
    Poset,
    build_poset,
    compare_bases,
    first_extension,
    leq_extint_ind,
    random_extension,
)
from activita.shelling import (
    ShellingReport,
    exchange_down_basis,
    h_complex_check,
    property_H_check,
    restriction_formula,
    restriction_sets_bruteforce,
    shelling_witness,
    verify_orders,
    verify_shelling,
    verify_shelling_pairwise,
    witness_pass,
)
from test_orders import is_extension
from test_oracles import xyz_blocks

ps5 = lambda s: parse_subset(s, 5)


def aug_order(m, extension):
    cx = build_complex(m, "augmented-ea")
    return cx, [cx.facet_by_tag[i] for i in extension]


def antichain(cx):
    """The poset on the facet tags of ``cx`` with no two tags comparable: every
    permutation of the tags is a linear extension of it."""
    return Poset(tuple(cx.tags), tuple(1 << x for x in range(len(cx.tags))))


class TestVerifyShelling:
    def test_extension_shells_augmented_complex(self, m5_matroid):
        cx, order = aug_order(m5_matroid, first_extension(build_poset(m5_matroid, "extint-ind")))
        report = verify_shelling(cx, order)
        assert report.verdict
        assert report.failing_pair is None
        assert report.matches_complex_h
        assert property_H_check(cx, order, report.restrictions)
        assert h_complex_check(report.restrictions)

    def test_disjoint_edges_fail(self):
        cx = SimplicialComplex((mask_of((1, 2)), mask_of((3, 4))))
        report = verify_shelling(cx, list(cx.facets))
        assert not report.verdict
        assert report.failing_pair == (0, 1)
        assert report.restrictions == [0]  # prefix before the failure

    def test_single_facet(self):
        cx = SimplicialComplex((0b11,))
        report = verify_shelling(cx, [0b11])
        assert report.verdict
        assert report.restrictions == [0]

    def test_no_orders_fail_every_flag(self, m5_matroid):
        cx, poset = build_complex(m5_matroid, "augmented-ea"), build_poset(m5_matroid, "extint-ind")
        formula = restriction_formula(m5_matroid, "extint-ind")
        assert verify_orders(cx, poset, [], formula) == ((False,) * 5, [])
        flags, restrictions = verify_orders(cx, poset, [first_extension(poset)], formula)
        assert flags == (True,) * 5 and len(restrictions) == 1

    def test_every_restriction_map_is_checked(self):
        # two shellings of the 4-cycle 12, 14, 23, 34 with different restriction
        # maps: ∅, 4, 3, 34 is closed under subsets, ∅, 3, 4, 14 lacks 1, and
        # property (H) fails on it too: 1 ∈ R(14), but the face 1 lies in [∅, 12];
        # the expected map is the first order's, which the second does not have
        e12, e14, e23, e34 = (mask_of(edge) for edge in ((1, 2), (1, 4), (2, 3), (3, 4)))
        cx = SimplicialComplex((e12, e14, e23, e34))
        good, bad, free = (e12, e14, e23, e34), (e12, e23, e34, e14), antichain(cx)
        expected = ((True,) * 5, [[0, 0b1000, 0b100, 0b1100]])
        good_map = dict(zip(good, expected[1][0]))
        assert verify_orders(cx, free, [good, good], good_map) == expected
        flags, restrictions = verify_orders(cx, free, [good, bad, good], good_map)
        assert flags == (True, False, False, False, True)
        assert restrictions == [[0, 0b1000, 0b100, 0b1100], [0, 0b100, 0b1000, 0b1001]]

    def test_not_a_permutation(self, m5_matroid):
        cx, other = build_complex(m5_matroid, "ea"), build_complex(m5_matroid, "augmented-ea")
        facets, foreign = list(cx.facets), other.facets[0]
        assert foreign not in facets
        # one missing; one repeated in its place; one foreign; every facet and one again
        for order in (
            facets[:-1], facets[:-1] + facets[:1], facets[:-1] + [foreign], facets + facets[:1]
        ):
            with pytest.raises(NotAPermutation):
                verify_shelling(cx, order)

    def test_verify_orders_takes_only_permutations_that_extend_the_poset(self, m5_matroid):
        cx, poset = build_complex(m5_matroid, "augmented-ea"), build_poset(m5_matroid, "extint-ind")
        order, foreign = first_extension(poset), max(cx.tags) + 1
        formula = restriction_formula(m5_matroid, "extint-ind")
        # one missing; one repeated in its place; one foreign; every tag and one again
        for wrong in (order[:-1], order[:-1] + order[:1], order[:-1] + (foreign,), order + order[:1]):
            with pytest.raises(NotAPermutation):
                verify_orders(cx, poset, [order, wrong], formula)
        a, b = poset.covers()[0]  # b covers a: a comes first in every extension
        swapped = tuple({a: b, b: a}.get(t, t) for t in order)
        with pytest.raises(NoLinearExtension):
            verify_orders(cx, poset, [order, swapped], formula)
        # the bases are facet tags of "ea", the other independent sets are not
        with pytest.raises(NotAPermutation):
            verify_orders(build_complex(m5_matroid, "ea"), poset, [order], formula)

    def test_verify_orders_takes_only_a_poset_on_the_facet_tags(self, m5_matroid):
        # "augmented-ea" tags every independent set; the bases poset has only the bases
        cx, bases = build_complex(m5_matroid, "augmented-ea"), build_poset(m5_matroid, "extint-bases")
        formula = restriction_formula(m5_matroid, "extint-bases")
        for orders in ([], [first_extension(bases)]):
            with pytest.raises(NotAPermutation, match="facet tags are not the poset's elements"):
                verify_orders(cx, bases, orders, formula)

    def test_pairwise_oracle_agrees(self, m5_matroid, corpus):
        # on shellings and on a known failure
        for m in (m5_matroid, corpus["u24"]):
            cx, order = aug_order(m, first_extension(build_poset(m, "extint-ind")))
            fast = verify_shelling(cx, order)
            slow_ok, slow_pair = verify_shelling_pairwise(cx, order)
            assert fast.verdict == slow_ok
        cx = SimplicialComplex((mask_of((1, 2)), mask_of((3, 4))))
        assert verify_shelling_pairwise(cx, list(cx.facets)) == (False, (0, 1))

    def test_bad_order_of_good_complex_detected(self, m5_matroid):
        # reversing a shelling of the augmented complex is not a shelling:
        # the last facet of the extension order has full-size restriction
        poset = build_poset(m5_matroid, "extint-ind")
        cx, order = aug_order(m5_matroid, first_extension(poset))
        report = verify_shelling(cx, list(reversed(order)))
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
            report = verify_shelling(cx, order)
            assert report.restrictions == restriction_sets_bruteforce(order)

    def test_specific_restrictions(self, m5_matroid):
        # R(F(25)) = z_25 in the plain order; R(F(2)) = y_45 z_2 in the flip order
        n = 5
        poset = build_poset(m5_matroid, "extint-ind")
        cx, order_masks = aug_order(m5_matroid, first_extension(poset))
        rep = verify_shelling(cx, order_masks)
        ext = first_extension(poset)
        pos = ext.index(ps5("25"))
        assert rep.restrictions[pos] == ps5("25") << (2 * n)

        fposet = build_poset(m5_matroid, "flip-ind")
        fext = first_extension(fposet)
        cxf, forder = aug_order(m5_matroid, fext)
        frep = verify_shelling(cxf, forder)
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
            rep = verify_shelling(cx, order)
            assert property_H_check(cx, order, rep.restrictions)

    def test_restrictions_outside_intervals_raise(self, m5_matroid):
        # restriction sets handed in past verify_shelling: the first facet's
        # claims all its vertices, so its own codim-1 faces fall outside it
        cx = build_complex(m5_matroid, "augmented-ea")
        ext = first_extension(build_poset(m5_matroid, "extint-ind"))
        order = [cx.facet_by_tag[i] for i in ext]
        rep = verify_shelling(cx, order)
        corrupt = [order[0]] + rep.restrictions[1:]
        with pytest.raises(EquivalenceMismatch):
            property_H_check(cx, order, corrupt)

    def test_simplex_vacuous(self):
        cx = SimplicialComplex((0b111,))
        assert property_H_check(cx, [0b111], [0])


class TestHComplex:
    def test_augmented_family_is_independence_complex(self, m5_matroid):
        cx, order = aug_order(m5_matroid, first_extension(build_poset(m5_matroid, "extint-ind")))
        rep = verify_shelling(cx, order)
        assert h_complex_check(rep.restrictions)
        supports = {r >> (2 * 5) for r in rep.restrictions}
        assert supports == set(m5_matroid.independent_sets)

    def test_nbc_family_matches_nbc_sets(self, m5_matroid):
        cx = build_complex(m5_matroid, "augmented-nbc")
        ext = first_extension(build_poset(m5_matroid, "nbc-extint"))
        order = [cx.facet_by_tag[i] for i in ext]
        rep = verify_shelling(cx, order)
        assert h_complex_check(rep.restrictions)
        family = {xyz_blocks(m5_matroid, r) for r in rep.restrictions}
        assert family == {(0, 0, s) for s in nbc_sets(m5_matroid)}

    def test_lex_shelling_of_u23_independence_complex(self):
        # lexicographic basis order shells it, but the restriction family
        # {∅, 3, 23} is not downward closed, so it is not an h-shelling
        m = uniform(2, 3)
        cx = independence_complex(m)
        order = [cx.facet_by_tag[b] for b in sorted(m.bases, key=lambda b: sorted(subset_str(b, 3)))]
        rep = verify_shelling(cx, order)
        assert rep.verdict
        brute = restriction_sets_bruteforce(order)
        assert rep.restrictions == brute
        assert not h_complex_check(rep.restrictions)


class TestWitness:
    def test_related_paper_example(self, m5_matroid):
        w = shelling_witness(m5_matroid, ps5("3"), ps5("45"))
        assert (w.J, w.c, w.B) == (ps5("5"), 4, None)

    def test_unrelated_paper_example(self, m5_matroid):
        w = shelling_witness(m5_matroid, ps5("23"), ps5("14"))
        assert (w.J, w.c, w.B) == (ps5("15"), 4, ps5("135"))

    def test_basis_pair(self, m5_matroid):
        from activita.complexes import facet_F

        w = shelling_witness(m5_matroid, ps5("345"), ps5("124"))
        fj = facet_F(m5_matroid, w.J)
        fk = facet_F(m5_matroid, ps5("124"))
        cbit = 1 << (w.c - 1)
        kx, ky, kz = xyz_blocks(m5_matroid, fk)
        assert xyz_blocks(m5_matroid, fj & fk) == (kx, ky, kz & ~cbit)

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
                if w.B is not None:
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
        blocks = lambda f: xyz_blocks(m5_matroid, f)
        as_str = lambda f: tuple(subset_str(v, 5) for v in blocks(f))
        assert as_str(fi) == ("12345", "45", "3")
        assert as_str(fj) == ("12345", "34", "5")
        assert as_str(fk) == ("12345", "3", "45")
        inter_ik, inter_jk, (kx, ky, kz) = blocks(fi & fk), blocks(fj & fk), blocks(fk)
        assert inter_ik == (ps5("12345"), 0, 0)
        assert inter_jk == (ps5("12345"), ps5("3"), ps5("5"))
        assert inter_jk == (kx, ky, kz & ~ps5("4"))

    def test_unrelated_case_facets(self, m5_matroid):
        from activita.complexes import facet_F

        blocks = lambda f: xyz_blocks(m5_matroid, f)
        as_str = lambda f: tuple(subset_str(v, 5) for v in blocks(f))
        # basis level: A=235, B=135, C=134
        fa = facet_F(m5_matroid, ps5("235"))
        fb = facet_F(m5_matroid, ps5("135"))
        fc = facet_F(m5_matroid, ps5("134"))
        assert blocks(fb & fc)[::2] == (ps5("1234"), ps5("135"))
        assert blocks(fa & fc)[::2] == (ps5("1234"), ps5("35"))
        # independent-set level: I=23, J=15, K=14
        fi = facet_F(m5_matroid, ps5("23"))
        fj = facet_F(m5_matroid, ps5("15"))
        fk = facet_F(m5_matroid, ps5("14"))
        assert as_str(fi) == ("12345", "5", "23")
        assert as_str(fj) == ("12345", "3", "15")
        assert as_str(fk) == ("1234", "3", "145")
        inter_ik, inter_jk, (kx, ky, kz) = blocks(fi & fk), blocks(fj & fk), blocks(fk)
        assert inter_ik == (ps5("1234"), 0, 0)
        assert inter_jk == (ps5("1234"), ps5("3"), ps5("15"))
        assert inter_jk == (kx, ky, kz & ~ps5("4"))


def shell_main_with_first_order(monkeypatch, m, first):
    """``check_shelling_main`` on ``m`` with its first sampled order replaced
    by ``first(poset)``; returns the findings by name and that order."""
    real, used = suite.linear_extensions, []

    def sample(poset, cap=200, seed=0):
        out = real(poset, cap=cap, seed=seed)
        used.append(first(poset))
        out.orders[0] = used[0]
        return out

    with monkeypatch.context() as patch:
        patch.setattr(suite, "linear_extensions", sample)
        findings = suite.run_check(suite.check_shelling_main, "m", m, 10, 0)
        return {f.check: f for f in findings}, used[0]


class TestWitnessCertification:
    def test_first_extension_certified(self, monkeypatch, m5_matroid, corpus):
        for m in (m5_matroid, corpus["u24"]):
            findings, order = shell_main_with_first_order(monkeypatch, m, first_extension)
            assert is_extension(build_poset(m, "extint-ind"), order)
            assert witness_pass(m) == ("", True)
            assert findings["witness-certifies-first-order"].ok

    def test_order_that_is_no_extension_is_not_certified(self, monkeypatch):
        # the reversed first extension of m5 still shells, but is no extension:
        # verify_orders refuses it, and that fails every finding of the check
        m = m5()
        reverse = lambda poset: first_extension(poset)[::-1]
        findings, order = shell_main_with_first_order(monkeypatch, m, reverse)
        assert not is_extension(build_poset(m, "extint-ind"), order)
        assert verify_shelling(*aug_order(m, order)).verdict
        detail = "NoLinearExtension: order places an element before one below it"
        assert {(f.ok, f.detail) for f in findings.values()} == {(False, detail)}
        assert "witness-certifies-first-order" in findings
        witnesses = {f.check: f.ok for f in suite.run_check(suite.check_witnesses, "m", m)}
        assert witnesses["witness-all-pairs"]


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
            facets = [cx.facet_by_tag[i] for i in order]
            report = verify_shelling(cx, facets)
            assert report.verdict
            assert report.matches_complex_h
            assert property_H_check(cx, facets, report.restrictions)
            assert h_complex_check(report.restrictions)
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

    def test_a_set_that_is_no_basis_raises(self, m5_matroid):
        # 2 is internally passive in the profile of the independent set 12
        assert activity_profile(m5_matroid, ps5("12")).ip & ps5("2")
        with pytest.raises(NotABasis, match="^12 is not a basis$"):
            exchange_down_basis(m5_matroid, ps5("12"), 2)

    @pytest.mark.parametrize("a", [0, 9])
    def test_an_element_outside_the_ground_set_raises(self, m5_matroid, a):
        with pytest.raises(RankOutOfRange, match=rf"^element {a} outside ground set 1\.\.5$"):
            exchange_down_basis(m5_matroid, ps5("345"), a)

    def test_an_internally_active_element_raises(self, m5_matroid):
        # IA(345) = 345, so no element of the basis is internally passive
        assert activity_profile(m5_matroid, ps5("345")).ia == ps5("345")
        with pytest.raises(RankOutOfRange, match="^element 3 is not internally passive in the basis 345$"):
            exchange_down_basis(m5_matroid, ps5("345"), 3)


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


def scan_verify_shelling(cx, order):
    """The O(s²) verifier: each R_k checked against every earlier facet."""
    restrictions = []
    for k in range(len(order)):
        rk = scan_restriction(order, k)
        for i in range(k):
            if rk & ~order[i] == 0:
                return ShellingReport(False, (i, k), restrictions, None, None)
        restrictions.append(rk)
    h = [0] * (cx.facet_size + 1)
    for r in restrictions:
        h[r.bit_count()] += 1
    h_tuple = tuple(h) if order else ()
    return ShellingReport(True, None, restrictions, h_tuple, h_tuple == cx.fh.h)


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
    cx = SimplicialComplex(tuple(facets))
    return cx, draw(st.permutations(facets))


def fold_verify_shelling(cx, orders, closed_form):
    """The flags and restriction maps of ``verify_orders`` as a fold of
    ``verify_shelling`` over the orders, one report per order: the reference."""
    maps = {}
    for order in orders:
        facets = [cx.facet_by_tag[t] for t in order]
        report = verify_shelling(cx, facets)
        if not report.verdict:
            return (False,) * 5, []
        maps.setdefault(frozenset(zip(order, report.restrictions)), (facets, report))
    shelled, reports = bool(orders), maps.values()
    flags = (
        all(closed_form[t] == r for pairs in maps for t, r in pairs),
        all(property_H_check(cx, facets, report.restrictions) for facets, report in reports),
        all(h_complex_check(report.restrictions) for _, report in reports),
        all(report.matches_complex_h for _, report in reports),
    )
    return (shelled, *(shelled and ok for ok in flags)), [r.restrictions for _, r in reports]


@st.composite
def complexes_with_posets(draw):
    """A pure complex on at most 6 vertices and a random partial order on its facets: edges
    drawn along a hidden permutation, closed transitively (no edges give the antichain)."""
    d = draw(st.integers(1, 4))
    pool = [mask_of(c) for c in combinations(range(1, 7), d)]
    facets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    s = len(facets)
    perm = draw(st.permutations(range(s)))
    edges = draw(st.lists(st.tuples(st.integers(0, s - 1), st.integers(0, s - 1)), max_size=2 * s))
    up = [1 << x for x in range(s)]
    for a, b in edges:
        if perm.index(a) < perm.index(b):
            up[a] |= 1 << b
    for a in reversed(perm):  # every edge goes forward in perm: close from the back
        for b in iter_bits(up[a] & ~(1 << a)):
            up[a] |= up[b]
    return SimplicialComplex(tuple(facets)), Poset(tuple(facets), tuple(up))


@given(complexes_with_posets(), st.integers(1, 6), st.booleans(), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_verify_orders_is_a_fold_of_verify_shelling(case, count, exact, seed):
    # the random poset and the antichain, on which every neighbour is incomparable; the
    # closed form is the first order's map, or that map off at its first tag
    cx, drawn = case
    for poset in (drawn, antichain(cx)):
        rng = random.Random(seed)
        orders = [random_extension(poset, rng) for _ in range(count)]
        first = verify_shelling(cx, [cx.facet_by_tag[t] for t in orders[0]])
        closed_form = dict(zip(orders[0], first.restrictions))
        if not exact:
            closed_form[orders[0][0]] ^= 1
        expected = fold_verify_shelling(cx, orders, closed_form)
        assert verify_orders(cx, poset, orders, closed_form) == expected


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
        cx = SimplicialComplex((0b11,))
        cx.fh = FHVector(f=(1, 2, 2), h=(1, 1, 1))
        with pytest.raises(EquivalenceMismatch):
            verify_shelling(cx, [0b11])

    def test_face_count_one_short_raises_on_a_true_shelling(self, monkeypatch):
        # the verdict rests on face_counts: a count that drops one top face
        # must not let a true shelling of m5's augmented-ea complex pass
        ext = first_extension(build_poset(m5(), "extint-ind"))
        assert verify_shelling(*aug_order(m5(), ext)).verdict
        counts = complexes.face_counts

        def one_face_short(facets):
            f = counts(facets)
            return (*f[:-1], f[-1] - 1)

        monkeypatch.setattr(complexes, "face_counts", one_face_short)
        with pytest.raises(EquivalenceMismatch, match="face count"):
            verify_shelling(*aug_order(m5(), ext))

    def test_empty_complex(self):
        cx = SimplicialComplex(())
        assert verify_shelling(cx, []) == scan_verify_shelling(cx, [])
