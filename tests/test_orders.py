"""Active orders: comparisons, Hasse diagrams, extensions, lattice, flips."""

import hashlib
import random
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import activita.orders as orders
from activita.activity import flip_involution, related_basis
from activita.bitsets import iter_bits, parse_subset, subset_label, subset_str
from activita.errors import LatticeFailure, NoLinearExtension, NotACover, NotIndependent
from activita.matroid import uniform
from activita.orders import (
    POSET_KINDS,
    Poset,
    boolean_interval,
    build_poset,
    compare_bases,
    first_extension,
    leq_extint_ind,
    leq_flip_ind,
    linear_extensions,
    meet_join_ind,
    poset_axiom_violation,
    poset_meet_join,
    random_extension,
)
from activita.suite import check_lattice, check_posets, run_check
from test_complexes import W4
from test_oracles import lattice_laws_hold, rescan_extension, small_posets

ps5 = lambda s: parse_subset(s, 5)


def is_extension(poset, order) -> bool:
    """True iff the listed elements form an order-preserving permutation."""
    if sorted(order) != sorted(poset.elements):
        return False
    placed = 0
    for e in order:
        i = poset.index[e]
        if poset.down_rows[i] & ~placed & ~(1 << i):
            return False
        placed |= 1 << i
    return True


def down_rows_bit_by_bit(up_rows) -> tuple[int, ...]:
    """The transpose of the up-rows one set bit at a time: the reference that
    ``Poset.down_rows`` must match."""
    cols = [0] * len(up_rows)
    for i, row in enumerate(up_rows):
        for j in iter_bits(row):
            cols[j] |= 1 << i
    return tuple(cols)


# cover relations of the three basis orders, straight from the Hasse figures
EXTINT_COVERS = {
    ("345", "135"), ("345", "245"), ("135", "125"), ("135", "134"),
    ("245", "235"), ("235", "125"), ("235", "234"), ("125", "124"),
    ("134", "124"), ("234", "124"),
}
EXT_COVERS = {
    ("345", "134"), ("134", "124"), ("135", "134"), ("135", "125"),
    ("235", "125"), ("125", "124"), ("235", "234"), ("345", "234"),
    ("245", "234"), ("234", "124"),
}
INT_COVERS = {
    ("345", "135"), ("345", "245"), ("245", "235"), ("135", "125"),
    ("245", "125"), ("135", "134"), ("235", "234"), ("125", "124"),
    ("134", "124"),
}

# cover relations of the order on all 24 independent sets (figure with the
# boolean blocks); "" is the empty set
IND_COVERS = {
    ("", "3"), ("", "4"), ("", "5"), ("3", "34"), ("3", "35"), ("4", "34"),
    ("4", "45"), ("5", "35"), ("5", "45"), ("34", "345"), ("35", "345"),
    ("45", "345"), ("1", "13"), ("1", "15"), ("13", "135"), ("15", "135"),
    ("2", "24"), ("2", "25"), ("24", "245"), ("25", "245"), ("23", "235"),
    ("14", "134"), ("12", "125"), ("345", "1"), ("345", "2"), ("245", "23"),
    ("135", "14"), ("135", "12"), ("235", "12"), ("235", "234"),
    ("134", "124"), ("125", "124"), ("234", "124"),
}


class TestCompareBases:
    def test_extint_examples(self, m5_matroid):
        assert compare_bases(m5_matroid, "extint", ps5("345"), ps5("135"))
        assert not compare_bases(m5_matroid, "extint", ps5("135"), ps5("345"))

    def test_incomparable(self, m5_matroid):
        assert not compare_bases(m5_matroid, "extint", ps5("134"), ps5("234"))
        assert not compare_bases(m5_matroid, "extint", ps5("234"), ps5("134"))

    @pytest.mark.parametrize("kind", ["ext", "int", "extint"])
    def test_reflexive(self, m5_matroid, kind):
        for b in m5_matroid.bases:
            assert compare_bases(m5_matroid, kind, b, b)

    def test_all_equivalent_conditions_agree(self, corpus):
        # poset-axioms compares each basis order with its equivalent forms
        for name, m in corpus.items():
            axioms = [f for f in run_check(check_posets, name, m) if f.check == "poset-axioms"]
            assert [(f.ok, f.detail) for f in axioms] == [(True, "")]

    def test_extint_refines_ext_and_int(self, corpus):
        for m in corpus.values():
            for a in m.bases:
                for b in m.bases:
                    if compare_bases(m, "ext", a, b) or compare_bases(m, "int", a, b):
                        assert compare_bases(m, "extint", a, b)


class TestIndOrder:
    def test_unrelated_incomparable_pair(self, m5_matroid):
        # 23 and 14 hang below the incomparable bases 235 and 134
        assert not leq_extint_ind(m5_matroid, ps5("23"), ps5("14"))
        assert not leq_extint_ind(m5_matroid, ps5("14"), ps5("23"))

    def test_related_requires_containment(self, m5_matroid):
        assert not leq_extint_ind(m5_matroid, ps5("3"), ps5("45"))
        assert not leq_extint_ind(m5_matroid, ps5("45"), ps5("3"))
        assert leq_extint_ind(m5_matroid, ps5("5"), ps5("45"))

    def test_not_independent(self, m5_matroid):
        with pytest.raises(NotIndependent):
            leq_extint_ind(m5_matroid, ps5("123"), ps5("45"))

    def test_agrees_with_basis_order(self, corpus):
        for m in corpus.values():
            for a in m.bases:
                for b in m.bases:
                    assert leq_extint_ind(m, a, b) == compare_bases(m, "extint", a, b)

    def test_unrelated_pairs_compare_like_their_bases(self, corpus):
        for m in corpus.values():
            for i in m.independent_sets:
                for k in m.independent_sets:
                    a, c = related_basis(m, i), related_basis(m, k)
                    if a != c:
                        assert leq_extint_ind(m, i, k) == compare_bases(m, "extint", a, c)


class TestFlipOrder:
    def test_examples(self, m5_matroid):
        assert leq_flip_ind(m5_matroid, ps5("45"), ps5("5"))
        assert leq_flip_ind(m5_matroid, ps5("345"), ps5("135"))
        for i in m5_matroid.independent_sets:
            assert leq_flip_ind(m5_matroid, i, i)

    def test_blocks_reverse(self, corpus):
        for m in corpus.values():
            for i in m.independent_sets:
                for k in m.independent_sets:
                    if related_basis(m, i) == related_basis(m, k):
                        assert leq_flip_ind(m, i, k) == leq_extint_ind(m, k, i)
                    else:
                        assert leq_flip_ind(m, i, k) == leq_extint_ind(m, i, k)


class TestBuildPoset:
    def test_m5_extint_bases_covers(self, m5_matroid):
        p = build_poset(m5_matroid, "extint-bases")
        got = {(subset_str(a, 5), subset_str(b, 5)) for a, b in p.covers()}
        assert got == EXTINT_COVERS

    def test_m5_ext_bases_covers(self, m5_matroid):
        p = build_poset(m5_matroid, "ext-bases")
        got = {(subset_str(a, 5), subset_str(b, 5)) for a, b in p.covers()}
        assert got == EXT_COVERS

    def test_m5_int_bases_covers(self, m5_matroid):
        p = build_poset(m5_matroid, "int-bases")
        got = {(subset_str(a, 5), subset_str(b, 5)) for a, b in p.covers()}
        assert got == INT_COVERS

    def test_m5_ind_poset(self, m5_matroid):
        p = build_poset(m5_matroid, "extint-ind")
        assert len(p) == 24
        got = {(subset_str(a, 5), subset_str(b, 5)) for a, b in p.covers()}
        assert got == IND_COVERS
        block = sorted(
            subset_str(e, 5)
            for e in p.elements
            if related_basis(m5_matroid, e) == ps5("245")
        )
        assert block == ["2", "24", "245", "25"]

    def test_single_element(self):
        m = uniform(1, 1)
        for kind in ("ext-bases", "int-bases", "extint-bases"):
            assert len(build_poset(m, kind)) == 1
        # the coloop is internally active, so its block also contains the empty set
        for kind in ("extint-ind", "flip-ind", "nbc-extint"):
            assert len(build_poset(m, kind)) == 2

    def test_ind_restricted_to_bases_matches(self, corpus):
        for m in corpus.values():
            ind = build_poset(m, "extint-ind")
            bas = build_poset(m, "extint-bases")
            for a in m.bases:
                for b in m.bases:
                    assert ind.leq(a, b) == bas.leq(a, b)

    def test_down_rows_match_the_bit_by_bit_transpose(self, corpus):
        posets = [build_poset(m, kind) for m in (*corpus.values(), W4) for kind in POSET_KINDS]
        rng = random.Random(0)
        for size in (0, 1, 2, 7, 64, 65, 300):
            rows = tuple(rng.getrandbits(size) for _ in range(size))
            posets.append(Poset(tuple(range(size)), rows))
        for p in posets:
            assert p.down_rows == down_rows_bit_by_bit(p.up_rows)


class TestPosetAxioms:
    @pytest.mark.parametrize(
        "rows,violation",
        [
            ((0b011, 0b000, 0b100), "not reflexive at 2"),
            ((0b011, 0b011, 0b100), "not antisymmetric on 1, 2"),
            ((0b001, 0b110, 0b110), "not antisymmetric on 2, 3"),  # away from element 0
            ((0b011, 0b110, 0b100), "not transitive from 1 through 2"),
        ],
        ids=["reflexive", "antisymmetric", "antisymmetric-off-0", "transitive"],
    )
    def test_broken_relations_fail(self, m5_matroid, monkeypatch, rows, violation):
        broken = Poset((1, 2, 4), rows)
        assert poset_axiom_violation(broken, 3) == violation
        # check_posets reports it under poset-axioms, naming the order
        import activita.suite as suite

        real = suite.build_poset
        monkeypatch.setattr(
            suite, "build_poset", lambda m, kind: broken if kind == "flip-ind" else real(m, kind)
        )
        axioms = [f for f in run_check(check_posets, "m5", m5_matroid) if f.check == "poset-axioms"]
        assert [(f.ok, f.detail) for f in axioms] == [(False, f"flip-ind: {violation}")]

    @pytest.mark.parametrize("kind", ["extint-ind", "nbc-extint", "ext-bases"])
    def test_dropped_cover_fails_the_definition_comparison(self, m5_matroid, monkeypatch, kind):
        # without one cover pair the rows are still a partial order, so only
        # the comparison with the order's definition can catch it
        import activita.suite as suite

        real = suite.build_poset
        poset = real(m5_matroid, kind)
        i, j = (poset.index[e] for e in poset.covers()[0])
        rows = list(poset.up_rows)
        rows[i] &= ~(1 << j)
        mutant = Poset(poset.elements, tuple(rows))
        assert poset_axiom_violation(mutant, 5) == ""
        monkeypatch.setattr(
            suite, "build_poset", lambda m, k: mutant if k == kind else real(m, k)
        )
        found = {f.check: f for f in run_check(check_posets, "m5", m5_matroid)}
        pair = f"{subset_label(poset.elements[i], 5)}, {subset_label(poset.elements[j], 5)}"
        assert (found["poset-axioms"].ok, found["poset-axioms"].detail) == (
            False, f"{kind}: row disagrees with its definition on {pair}"
        )
        assert found["extint-refines-ext-int"].ok

    @pytest.mark.parametrize("kind", ["extint-ind", "flip-ind"])
    def test_two_dropped_covers_name_the_lower_pair(self, m5_matroid, monkeypatch, kind):
        # both covers above one element go, so its row differs from the
        # definition in two bits, and the detail names the lower one
        import activita.suite as suite

        real = suite.build_poset
        poset = real(m5_matroid, kind)
        upper = enumerate(poset.cover_tables[1])
        i, (j, k) = next((i, js[:2]) for i, js in upper if len(js) > 1)
        rows = list(poset.up_rows)
        rows[i] &= ~(1 << j | 1 << k)
        mutant = Poset(poset.elements, tuple(rows))
        assert poset_axiom_violation(mutant, 5) == ""
        monkeypatch.setattr(
            suite, "build_poset", lambda m, kd: mutant if kd == kind else real(m, kd)
        )
        found = {f.check: f for f in run_check(check_posets, "m5", m5_matroid)}["poset-axioms"]
        pair = f"{subset_label(poset.elements[i], 5)}, {subset_label(poset.elements[min(j, k)], 5)}"
        assert found.detail == f"{kind}: row disagrees with its definition on {pair}"

    def test_broken_key_identity_fails_the_block_certificate(self, monkeypatch):
        # EA(12) = 3 loses 3, so key(12) is no longer key(125); the rows and the
        # definitions both read the new key and agree pair by pair, and the
        # order stays a partial order, so only the block certificate sees it
        import activita.orders as orders
        from dataclasses import replace

        from activita.corpus import m5
        from test_oracles import per_pair_rows

        real = orders.activity_profile

        def ea_loses_3(m, s):
            p = real(m, s)
            return replace(p, ea=p.ea & ~0b100, ep=p.ep | 0b100) if s == ps5("12") else p

        monkeypatch.setattr(orders, "activity_profile", ea_loses_3)
        m = m5()
        for kind in ("extint-ind", "flip-ind"):
            assert build_poset(m, kind).up_rows == per_pair_rows(m, kind)
        found = {f.check: f for f in run_check(check_posets, "m5", m)}
        assert (found["poset-axioms"].ok, found["poset-axioms"].detail) == (
            False, "extint-ind: key of 12 is not that of its related basis 125"
        )
        assert found["extint-refines-ext-int"].ok

    def test_dropped_basis_bit_fails_the_restriction_to_bases(self, m5_matroid, monkeypatch):
        # 345 and 124, the bottom and top bases, lie in different blocks
        import activita.suite as suite

        real = suite.build_poset
        poset = real(m5_matroid, "extint-ind")
        rows = list(poset.up_rows)
        rows[poset.index[ps5("345")]] &= ~(1 << poset.index[ps5("124")])
        mutant = Poset(poset.elements, tuple(rows))
        monkeypatch.setattr(
            suite, "build_poset", lambda m, k: mutant if k == "extint-ind" else real(m, k)
        )
        found = {f.check: f.ok for f in run_check(check_posets, "m5", m5_matroid)}
        assert found == {
            "poset-axioms": False,
            "extint-refines-ext-int": True,
            "ind-order-restricts-to-bases": False,
        }


def make_poset(elements, pairs):
    """Tiny helper: poset from explicit strict relations (plus reflexivity)."""
    idx = {e: i for i, e in enumerate(elements)}
    rows = []
    for a in elements:
        row = 1 << idx[a]
        for x, y in pairs:
            if x == a:
                row |= 1 << idx[y]
        rows.append(row)
    # transitive closure
    changed = True
    while changed:
        changed = False
        for i in range(len(elements)):
            merged = rows[i]
            for j in range(len(elements)):
                if rows[i] >> j & 1:
                    merged |= rows[j]
            if merged != rows[i]:
                rows[i] = merged
                changed = True
    return Poset(tuple(elements), tuple(rows))


def heights_by_relaxation(poset):
    """Longest chain below each element: relax h(j) = 1 + max h(i) over the
    elements i strictly below j, once per element."""
    rows = poset.up_rows
    below = [[i for i, row in enumerate(rows) if i != j and row >> j & 1] for j in range(len(rows))]
    h = [0] * len(rows)
    for _ in rows:
        h = [max((h[i] + 1 for i in b), default=0) for b in below]
    return tuple(h)


class TestHeights:
    def test_heights_are_the_longest_chains_below(self, corpus):
        for m in corpus.values():
            for kind in POSET_KINDS:
                p = build_poset(m, kind)
                assert p.heights == heights_by_relaxation(p)

    def test_chain_deeper_than_the_recursion_limit(self):
        # the up-rows list the top element first, so a walk down the covers
        # from it would nest once per element
        n = 1500
        assert sys.getrecursionlimit() < n
        chain = Poset(tuple(range(n)), tuple((1 << (i + 1)) - 1 for i in range(n)))
        assert chain.heights == tuple(range(n - 1, -1, -1))


class TestLinearExtensions:
    def test_chain(self):
        p = make_poset([1, 2, 4], [(1, 2), (2, 4)])
        sample = linear_extensions(p, cap=10)
        assert sample.exhaustive
        assert sample.orders == [(1, 2, 4)]

    def test_antichain(self):
        p = make_poset([1, 2, 4], [])
        sample = linear_extensions(p, cap=10)
        assert sample.exhaustive and len(sample.orders) == 6

    def test_m5_extint_bases_count(self, m5_matroid):
        # oracle: filter all 8! permutations of the bases through the relation
        p = build_poset(m5_matroid, "extint-bases")
        oracle = 0
        for perm in permutations(range(len(p))):
            pos = {e: i for i, e in enumerate(perm)}
            if all(
                pos[i] <= pos[j]
                for i in range(len(p))
                for j in range(len(p))
                if p.up_rows[i] >> j & 1
            ):
                oracle += 1
        sample = linear_extensions(p, cap=10**6, seed=0)
        assert sample.exhaustive
        assert len(sample.orders) == oracle == 26

    def test_sampling_is_seeded_and_valid(self, m5_matroid):
        p = build_poset(m5_matroid, "extint-ind")
        s1 = linear_extensions(p, cap=5, seed=7)
        s2 = linear_extensions(p, cap=5, seed=7)
        s3 = linear_extensions(p, cap=5, seed=8)
        assert not s1.exhaustive
        assert s1.orders == s2.orders
        assert s1.orders != s3.orders
        for order in s1.orders:
            assert is_extension(p, order)

    def test_chain_deeper_than_the_recursion_limit(self):
        n = 2000
        assert sys.getrecursionlimit() < n
        chain = Poset(tuple(range(n)), tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)))
        assert first_extension(chain) == chain.elements
        assert orders._count_extensions(chain, 1) == 1
        sample = linear_extensions(chain, cap=1)
        assert (sample.orders, sample.exhaustive) == ([chain.elements], True)

    def test_the_empty_poset_has_one_extension(self):
        empty = Poset((), ())
        assert orders._count_extensions(empty, 1) == 1
        assert first_extension(empty) == ()
        sample = linear_extensions(empty, cap=1)
        assert (sample.orders, sample.exhaustive) == ([()], True)

    def test_a_cycle_has_no_linear_extension(self):
        cycle = Poset((1, 2), (0b11, 0b11))  # 1 ≤ 2 and 2 ≤ 1
        assert orders._count_extensions(cycle, 1) == 0
        sample = linear_extensions(cycle, cap=1)
        assert (sample.orders, sample.exhaustive) == ([], True)
        with pytest.raises(NoLinearExtension, match="no linear extension of the 2 elements"):
            first_extension(cycle)
        # a random draw raises the same error, also when the cycle lies above a minimum
        for rows in ((0b11, 0b11), (0b111, 0b110, 0b110)):
            with pytest.raises(NoLinearExtension, match="no linear extension"):
                random_extension(Poset((1, 2, 4)[: len(rows)], rows), random.Random(0))

    def test_first_extension_is_extension(self, corpus):
        for m in corpus.values():
            for kind in ("extint-ind", "flip-ind", "nbc-extint"):
                p = build_poset(m, kind)
                assert is_extension(p, first_extension(p))

    def test_random_seeds_give_valid_extensions(self, m5_matroid):
        import random as _random

        from hypothesis import given, settings
        from hypothesis import strategies as st

        p = build_poset(m5_matroid, "extint-ind")

        @given(st.integers(0, 2**32 - 1))
        @settings(max_examples=50, deadline=None)
        def check(seed):
            from activita.orders import random_extension

            assert is_extension(p, random_extension(p, _random.Random(seed)))

        check()


@pytest.mark.parametrize("kind", POSET_KINDS)
def test_random_extension_draws_the_rescan_orders(corpus, kind):
    # same seed, same orders: sampled verify output depends on it
    for m in corpus.values():
        poset = build_poset(m, kind)
        for seed in range(5):
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert random_extension(poset, fast) == rescan_extension(poset, slow)
                assert fast.getstate() == slow.getstate()


def antichain(size):
    return Poset(tuple(range(size)), tuple(1 << i for i in range(size)))


@given(
    st.one_of(small_posets(12), st.sampled_from([3, 5, 6, 7, 9]).map(antichain)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_draws_consume_the_words_choice_consumes(poset, seed):
    # a draw reading other words than rng.choice would shift every later order of a sample;
    # an avail list whose length is no power of two makes choice draw again after a rejection
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(4):
        assert random_extension(poset, fast) == rescan_extension(poset, slow)
        assert fast.getstate() == slow.getstate()
    if orders._count_extensions(poset, 5040) <= 5040:  # else too many orders to list
        assert first_extension(poset) == orders._enumerate_extensions(poset)[0]


SAMPLED_ORDERS_SHA256 = "3440f22b76bb383a4b8bdcf1ceaafefee092139a3afa3927c8d68047cdd7fd0a"


def test_sampled_orders_are_pinned(corpus):
    # verify prints verdicts, not orders: this digest pins the orders every seed draws
    digest = hashlib.sha256()
    for name, m in (*corpus.items(), ("W4", W4)):
        for kind in POSET_KINDS:
            poset = build_poset(m, kind)
            digest.update(repr((name, kind, first_extension(poset), poset.heights)).encode())
            for cap in (20, 200):
                for seed in (0, 3):
                    sample = linear_extensions(poset, cap, seed)
                    digest.update(repr((cap, seed, sample.exhaustive, sample.orders)).encode())
    assert digest.hexdigest() == SAMPLED_ORDERS_SHA256


def test_draws_leave_the_cached_cover_tables_unchanged(m5_matroid):
    # each draw copies the counts and the available list it updates
    poset = build_poset(m5_matroid, "extint-ind")
    first = random_extension(poset, random.Random(0))
    rng = random.Random(1)
    for _ in range(100):
        random_extension(poset, rng)
    assert poset.cover_tables == Poset(poset.elements, poset.up_rows).cover_tables
    assert random_extension(poset, random.Random(0)) == first


class TestLattice:
    def test_related_examples(self, m5_matroid):
        assert meet_join_ind(m5_matroid, ps5("3"), ps5("45")) == (0, ps5("345"))

    def test_unrelated_example(self, m5_matroid):
        meet, join = meet_join_ind(m5_matroid, ps5("23"), ps5("14"))
        assert join == ps5("124")
        assert meet == ps5("345")

    def test_idempotent(self, m5_matroid):
        for i in m5_matroid.independent_sets:
            assert meet_join_ind(m5_matroid, i, i) == (i, i)

    def test_bounds_match_unique_bound_scan(self, corpus):
        # the row lookups against the literal definition: the unique common
        # bound that dominates every other common bound
        def unique_bound(candidates, rows):
            hits = [
                j
                for j in range(len(rows))
                if candidates >> j & 1 and candidates & ~rows[j] == 0
            ]
            assert len(hits) == 1
            return hits[0]

        for m in corpus.values():
            p = build_poset(m, "extint-ind")
            for a, x in enumerate(p.elements):
                for b, y in enumerate(p.elements):
                    glb = unique_bound(p.down_rows[a] & p.down_rows[b], p.down_rows)
                    lub = unique_bound(p.up_rows[a] & p.up_rows[b], p.up_rows)
                    assert poset_meet_join(p, x, y) == (p.elements[glb], p.elements[lub])

    def test_non_lattice_posets_raise(self):
        # bowtie: 1, 2 both below 3, 4, so neither pair has a unique bound
        bowtie = make_poset([1, 2, 3, 4], [(1, 3), (1, 4), (2, 3), (2, 4)])
        with pytest.raises(LatticeFailure, match="greatest lower"):
            poset_meet_join(bowtie, 1, 2)
        with pytest.raises(LatticeFailure, match="greatest lower"):
            poset_meet_join(bowtie, 3, 4)
        # V: 1 below 2 and 3; the meet exists, the join does not
        vee = make_poset([1, 2, 3], [(1, 2), (1, 3)])
        with pytest.raises(LatticeFailure, match="least upper"):
            poset_meet_join(vee, 2, 3)
        assert poset_meet_join(vee, 1, 2) == (1, 2)

    def test_laws_exhaustive(self, corpus):
        for name, m in corpus.items():
            assert lattice_laws_hold(m), name

    def test_wrong_closed_form_fails_lattice_laws(self, m5_matroid, monkeypatch):
        # meet and join swapped on every pair of sets related to 235 and 134,
        # two incomparable bases: the check reads that block pair at its bases
        import activita.suite as suite

        real = suite.meet_join_ind
        pair = {ps5("235"), ps5("134")}

        def swapped_on_one_block_pair(m, i, k):
            bounds = real(m, i, k)
            if {related_basis(m, i), related_basis(m, k)} == pair:
                return bounds[::-1]
            return bounds

        monkeypatch.setattr(suite, "meet_join_ind", swapped_on_one_block_pair)
        [finding] = run_check(check_lattice, "m5", m5_matroid)
        assert finding.check == "lattice-laws" and finding.ok is False
        assert finding.detail.endswith("disagrees with poset bounds on 134, 235")

    def test_non_transitive_order_fails_lattice_laws(self, m5_matroid, monkeypatch):
        import activita.suite as suite

        real = build_poset(m5_matroid, "extint-ind")
        rows = list(real.up_rows)
        # drop a <= c from a chain a < b < c
        a = real.index[0]
        b = next(iter_bits(rows[a] & ~(1 << a)))
        c = next(iter_bits(rows[b] & ~(1 << b)))
        rows[a] &= ~(1 << c)
        broken = Poset(real.elements, tuple(rows))
        monkeypatch.setattr(
            suite, "build_poset", lambda m, kind: broken if kind == "extint-ind" else real
        )
        [finding] = run_check(check_lattice, "m5", m5_matroid)
        assert finding.check == "lattice-laws" and finding.ok is False
        assert finding.detail.startswith("extint-ind: not transitive")

    def test_poset_meet_join_against_scan(self, m5_matroid):
        p = build_poset(m5_matroid, "extint-bases")
        glb, lub = poset_meet_join(p, ps5("235"), ps5("134"))
        assert (glb, lub) == (ps5("345"), ps5("124"))


class TestBooleanInterval:
    def test_cover_examples(self, m5_matroid):
        block = boolean_interval(m5_matroid, ps5("345"), ps5("135"))
        assert sorted(subset_str(e, 5) for e in block) == ["1", "13", "135", "15"]
        block = boolean_interval(m5_matroid, ps5("235"), ps5("234"))
        assert [subset_str(e, 5) for e in block] == ["234"]

    def test_not_a_cover(self, m5_matroid):
        with pytest.raises(NotACover):
            boolean_interval(m5_matroid, ps5("345"), ps5("124"))

    def test_equal_reversed_or_non_bases_are_not_covers(self, m5_matroid):
        # 345 ⋖ 135 is a cover; 34 is independent but not a basis
        for b, c in (("345", "345"), ("135", "345"), ("34", "135"), ("345", "34")):
            with pytest.raises(NotACover):
                boolean_interval(m5_matroid, ps5(b), ps5(c))

    def test_every_cover(self, corpus):
        # boolean_interval verifies the block/interval equality internally
        for m in corpus.values():
            for b, c in build_poset(m, "extint-bases").covers():
                assert boolean_interval(m, b, c)

    def test_minimum_basis_block_is_full_boolean_lattice(self, corpus):
        from activita.activity import activity_profile

        for m in corpus.values():
            bottom = min(
                m.bases,
                key=lambda b: sum(
                    compare_bases(m, "extint", c, b) for c in m.bases
                ),
            )
            prof = activity_profile(m, bottom)
            if prof.ia == bottom:
                block = [
                    i
                    for i in m.independent_sets
                    if related_basis(m, i) == bottom
                ]
                assert len(block) == 1 << m.rank


class TestFlipInvolution:
    def test_examples(self, m5_matroid):
        assert flip_involution(m5_matroid, ps5("2")) == ps5("245")
        assert flip_involution(m5_matroid, ps5("245")) == ps5("2")

    def test_involution_and_bijection(self, corpus):
        for m in corpus.values():
            image = set()
            for i in m.independent_sets:
                fl = flip_involution(m, i)
                image.add(fl)
                assert flip_involution(m, fl) == i
            assert image == set(m.independent_sets)

    def test_fixed_points(self, m5_matroid):
        from activita.activity import activity_profile

        fixed = [
            i
            for i in m5_matroid.independent_sets
            if flip_involution(m5_matroid, i) == i
        ]
        assert sorted(subset_str(f, 5) for f in fixed) == ["124", "234"]
        for f in fixed:
            assert activity_profile(m5_matroid, f).ia == 0

    def test_generating_function_identity(self, corpus):
        from activita.activity import activity_profile, related_basis

        for m in corpus.values():
            sizes = sorted(i.bit_count() for i in m.independent_sets)
            literal = []
            flipped = []
            for i in m.independent_sets:
                b = related_basis(m, i)
                y, prof = b & ~i, activity_profile(m, b)
                literal.append((prof.ia & ~y).bit_count() + prof.ip.bit_count())
                flipped.append(y.bit_count() + prof.ip.bit_count())
            assert sorted(literal) == sizes
            assert sorted(flipped) == sizes
