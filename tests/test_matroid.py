"""Constructors, rank/independence, circuits, duality, axiom checks and the
per-matroid memo."""

import pickle
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activita.bitsets import MAX_GROUND, elems_of, mask_of, parse_subset, subset_str
from activita.errors import (
    ElementInBasis,
    EmptyBases,
    ExchangeAxiomViolated,
    NoEdges,
    NotABasis,
    NotIndependent,
    NotPrime,
    RankOutOfRange,
    UnequalCardinality,
)
from activita.activity import broken_circuits, related_basis
from activita.corpus import m5
from activita.specio import parse_spec
from activita.matroid import (
    from_bases,
    graphic,
    linear_over_prime_field,
    memoized,
    relabel,
    uniform,
)
from test_oracles import W4, small_matroids, with_edge_cases

ps5 = lambda s: parse_subset(s, 5)


def brute_force_circuits(m):
    """Minimal dependent sets by scanning all subsets in size order."""
    out = []
    for s in range(1, 1 << m.n):
        if m.is_independent(s):
            continue
        minimal = True
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            if not m.is_independent(s ^ low):
                minimal = False
                break
        if minimal:
            out.append(s)
    return sorted(out)


class TestFromBases:
    def test_m5(self, m5_matroid):
        assert m5_matroid.n == 5
        assert m5_matroid.rank == 3
        assert len(m5_matroid.bases) == 8

    def test_loop_only(self):
        m = from_bases(1, [0])
        assert m.rank == 0
        assert m.loops == 1

    def test_all_pairs_is_uniform(self):
        m = from_bases(4, [mask_of(c) for c in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]])
        assert m.bases == uniform(2, 4).bases

    def test_empty_bases(self):
        with pytest.raises(EmptyBases):
            from_bases(3, [])

    def test_unequal_cardinality(self):
        with pytest.raises(UnequalCardinality):
            from_bases(2, [parse_subset("1", 2), parse_subset("12", 2)])

    def test_exchange_violation_reports_witness(self):
        with pytest.raises(ExchangeAxiomViolated) as err:
            from_bases(4, [mask_of((1, 2)), mask_of((3, 4))])
        assert len(err.value.witness) == 3

    def test_ground_set_size_limit(self):
        m = from_bases(MAX_GROUND, [1 << 63 | 1])
        assert (m.n, m.rank, m.coloops) == (64, 2, 1 << 63 | 1)
        with pytest.raises(RankOutOfRange, match="ground set size 65 outside 1..64"):
            from_bases(MAX_GROUND + 1, [1])

    def test_subset_strings_switch_to_commas_at_ten_elements(self):
        mask = mask_of((1, 3, 9))
        assert subset_str(mask, 9) == "139"
        assert subset_str(mask, 10) == "1,3,9"
        assert parse_subset("139", 9) == parse_subset("1,3,9", 10) == mask

    def test_dedup_and_sort(self):
        m = from_bases(3, [mask_of((1, 2)), mask_of((1, 2)), mask_of((2, 3)), mask_of((1, 3))])
        assert m.bases == tuple(sorted(m.bases))
        assert len(m.bases) == 3


class TestUniform:
    def test_counts(self):
        assert len(uniform(2, 4).bases) == 6
        assert uniform(0, 3).bases == (0,)
        assert len(uniform(3, 5).bases) == 10

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            uniform(4, 3)

    def test_bases_are_every_r_subset(self):
        for n in range(1, 9):
            for r in range(n + 1):
                subsets = [mask_of(c) for c in combinations(range(1, n + 1), r)]
                assert uniform(r, n).bases == tuple(sorted(subsets))


def complete(n):
    return list(combinations(range(1, n + 1), 2))


def wheel(n):
    """The hub n + 1 joined to the n-cycle 1..n."""
    return [(i, i % n + 1) for i in range(1, n + 1)] + [(n + 1, i) for i in range(1, n + 1)]


SPANNING_TREES = {  # graph: (vertices, edges, spanning trees)
    # Cayley: n^(n-2) spanning trees of the complete graph K_n
    **{f"K{n}": (n, complete(n), n ** (n - 2)) for n in range(2, 7)},
    "K3,3": (6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)], 81),  # m^(n-1)·n^(m-1)
    # the wheel W_n: L_2n - 2, with L_k the Lucas numbers (18, 47, 123, 322)
    **{f"W{n}": (n + 1, wheel(n), count) for n, count in zip(range(3, 7), (16, 45, 121, 320))},
}


class TestGraphic:
    @pytest.mark.parametrize("graph", SPANNING_TREES)
    def test_spanning_tree_counts(self, graph):
        vertices, edges, count = SPANNING_TREES[graph]
        m = graphic(vertices, edges)
        assert len(m.bases) == count
        assert m.rank == vertices - 1

    def test_triangle(self):
        m = graphic(3, [(1, 2), (2, 3), (1, 3)])
        assert len(m.bases) == 3
        assert m.circuits == (mask_of((1, 2, 3)),)

    def test_path(self):
        m = graphic(3, [(1, 2), (2, 3)])
        assert m.bases == (mask_of((1, 2)),)

    def test_no_edges(self):
        with pytest.raises(NoEdges):
            graphic(3, [])

    def test_self_loop_is_loop(self):
        m = graphic(2, [(1, 2), (2, 2)])
        assert m.loops == mask_of([2])

    def test_isolated_vertices_cost_nothing(self):
        # column rank mod p; a graph is its incidence matrix over GF(2) on its
        # edges' endpoints (Oxley, Matroid Theory, §5.1), with no row per vertex
        k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        started = time.perf_counter()
        assert graphic(10**7, k4) == graphic(4, k4)
        assert time.perf_counter() - started < 1.0


LADDER = Path(__file__).resolve().parents[1] / "specs" / "ladder"


def test_ladder_specs_and_a_cold_uniform_6_14():
    # spanning trees of K5 (Cayley: 5^3) and of the wheels W5 and W6, C(10, 5), C(12, 4)
    counts = {"K5": 125, "W5": 121, "u5-10": 252, "u4-12": 495, "W6": 320}
    assert {p.stem for p in LADDER.glob("*.json")} == set(counts)
    for name, count in counts.items():
        assert len(parse_spec((LADDER / f"{name}.json").read_bytes()).bases) == count, name
    # the exchange check by fundamental cocircuits: one pass over the 3,003
    # bases per distinct cocircuit, not one per pair of bases
    started = time.perf_counter()
    assert len(uniform(6, 14).bases) == 3003
    assert time.perf_counter() - started < 3.0


class TestLinear:
    def test_m5_point_configuration(self, m5_matroid):
        # homogenized planar points with 1,2,3 and 1,4,5 collinear
        matrix = [
            [0, 6, 5, 1, 2],
            [2, 1, 0, 1, 0],
            [1, 1, 1, 1, 1],
        ]
        m = linear_over_prime_field(7, matrix)
        assert m.bases == m5_matroid.bases

    def test_identity(self):
        m = linear_over_prime_field(3, [[1, 0], [0, 1]])
        assert m.bases == (mask_of((1, 2)),)

    def test_zero_column_is_loop(self):
        m = linear_over_prime_field(5, [[1, 0, 1], [0, 0, 1]])
        assert m.loops == mask_of([2])

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            linear_over_prime_field(4, [[1]])


class TestDual:
    def test_m5_dual(self, m5_matroid):
        dual = m5_matroid.dual
        assert dual.rank == 2
        assert sorted(subset_str(b, 5) for b in dual.bases) == sorted(
            ["12", "24", "13", "14", "34", "25", "15", "35"]
        )

    def test_involution(self, corpus):
        for m in corpus.values():
            assert m.dual.dual.bases == m.bases

    def test_self_dual(self):
        m = uniform(2, 4)
        assert m.dual.bases == m.bases

    def test_rank_zero(self):
        assert uniform(0, 3).dual.bases == uniform(3, 3).bases


class TestRankIndependence:
    def test_rank_examples(self, m5_matroid):
        assert m5_matroid.rank_of(ps5("123")) == 2
        assert m5_matroid.rank_of(0) == 0
        assert m5_matroid.rank_of(ps5("345")) == 3

    def test_independence_examples(self, m5_matroid):
        assert m5_matroid.is_independent(ps5("23"))
        assert not m5_matroid.is_independent(ps5("123"))
        assert m5_matroid.is_independent(0)

    def test_independent_sets_count(self, m5_matroid):
        assert len(m5_matroid.independent_sets) == 24


def subsets_of_some_basis(m):
    """{S ⊆ [n] : S ⊆ B for some basis B}, by a scan of all 2^n subsets."""
    return tuple(s for s in range(1 << m.n) if any(not s & ~b for b in m.bases))


@with_edge_cases  # rank 0, coloops, and loops beside parallel elements
@given(small_matroids())
@settings(max_examples=60, deadline=None)
def test_independent_sets_are_the_subsets_of_the_bases(m):
    for matroid in (m, m.dual):
        assert matroid.independent_sets == subsets_of_some_basis(matroid)


def test_independent_sets_on_eight_elements():
    for m in (W4, uniform(4, 8), from_bases(8, [0b01100101])):
        for matroid in (m, m.dual):
            assert matroid.independent_sets == subsets_of_some_basis(matroid)


class TestCircuits:
    def test_m5(self, m5_matroid):
        assert [subset_str(c, 5) for c in m5_matroid.circuits] == ["123", "145", "2345"]

    def test_uniform(self):
        assert len(uniform(2, 4).circuits) == 4
        assert uniform(3, 3).circuits == ()

    def test_against_bruteforce(self, corpus):
        for m in corpus.values():
            assert sorted(m.circuits) == brute_force_circuits(m)

    def test_no_circuit_inside_basis(self, corpus):
        for m in corpus.values():
            for c in m.circuits:
                assert all(c & ~b for b in m.bases)


class TestFundamentalCircuit:
    def test_m5_examples(self, m5_matroid):
        b = ps5("345")
        assert m5_matroid.fundamental_circuit(b, 1) == ps5("145")
        assert m5_matroid.fundamental_circuit(b, 2) == ps5("2345")

    def test_uniform(self):
        m = uniform(2, 4)
        assert m.fundamental_circuit(mask_of((3, 4)), 1) == mask_of((1, 3, 4))

    def test_errors(self, m5_matroid):
        with pytest.raises(NotABasis):
            m5_matroid.fundamental_circuit(ps5("123"), 4)
        with pytest.raises(ElementInBasis):
            m5_matroid.fundamental_circuit(ps5("345"), 3)

    def test_element_outside_the_ground_set(self, m5_matroid):
        # the message is parse_subset's; 0 used to fail on a negative shift, 6 to give 6's bit
        for e in (0, 6):
            with pytest.raises(RankOutOfRange, match=rf"^element {e} outside ground set 1\.\.5$"):
                m5_matroid.fundamental_circuit(ps5("345"), e)

    def test_unique_circuit_in_cycle(self, corpus):
        for m in corpus.values():
            for b in m.bases:
                for e in elems_of(m.full_mask & ~b):
                    fund = m.fundamental_circuit(b, e)
                    ebit = 1 << (e - 1)
                    inside = [c for c in m.circuits if c & ~(b | ebit) == 0]
                    assert inside == [fund]
                    assert fund & ebit


def test_rank_is_monotone_and_submodular(corpus):
    for m in corpus.values():
        table = [m.rank_of(s) for s in range(1 << m.n)]
        for s in range(1 << m.n):
            for t in range(1 << m.n):
                if s & ~t == 0:
                    assert table[s] <= table[t]
                assert table[s | t] + table[s & t] <= table[s] + table[t]


def test_relabel_roundtrip(m5_matroid):
    ident = relabel(m5_matroid, [1, 2, 3, 4, 5])
    assert ident.bases == m5_matroid.bases
    swapped = relabel(m5_matroid, [5, 4, 3, 2, 1])
    assert len(swapped.bases) == 8
    assert relabel(swapped, [5, 4, 3, 2, 1]).bases == m5_matroid.bases


@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_random_graphic_matroids_satisfy_axioms(edges):
    # construction verifies basis exchange; spot-check duality and rank bounds
    m = graphic(4, edges)
    assert m.dual.dual.bases == m.bases
    assert 0 <= m.rank <= min(3, m.n)
    for c in m.circuits:
        assert not m.is_independent(c)


@given(
    st.integers(0, 1023),
    st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), min_size=2, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_random_linear_matroid_activity_invariants(subset_bits, matrix):
    from activita.activity import activity_profile, crapo_decompose_subset

    m = linear_over_prime_field(5, matrix)
    s = subset_bits & m.full_mask
    prof = activity_profile(m, s)
    assert prof.ea | prof.ep == m.full_mask & ~s and not prof.ea & prof.ep
    assert prof.ia | prof.ip == s and not prof.ia & prof.ip
    dual_prof = activity_profile(m.dual, m.full_mask & ~s)
    assert prof.ia == dual_prof.ea
    b = crapo_decompose_subset(m, s)  # unique, or it raises
    b_prof = activity_profile(m, b)
    assert not s & ~b & ~b_prof.ea and not b & ~s & ~b_prof.ia


class TestMemoized:
    def test_one_dict_per_function_and_matroid(self):
        calls = []

        @memoized
        def double(m, x):
            calls.append(("double", x))
            return 2 * x

        @memoized
        def triple(m, x):
            calls.append(("triple", x))
            return 3 * x

        a, b = m5(), m5()
        assert a == b
        got = [double(a, 1), double(a, 1), triple(a, 1), double(b, 1), double(a, 2)]
        assert got == [2, 2, 3, 2, 4]
        assert calls == [("double", 1), ("triple", 1), ("double", 1), ("double", 2)]

    def test_falsy_results_are_hits(self):
        calls = []

        @memoized
        def nothing(m):
            calls.append(m)
            return ()

        m = uniform(2, 2)
        assert nothing(m) == nothing(m) == ()
        assert calls == [m]
        # a rank-0 related basis is 0, and a free matroid has no broken circuits
        assert related_basis(uniform(0, 2), 0) == 0 and broken_circuits(m) == ()

    def test_a_raising_call_keeps_nothing(self):
        calls = []

        @memoized
        def flaky(m, x):
            calls.append(x)
            if len(calls) == 1:
                raise NotIndependent("first call")
            return x

        m = m5()
        with pytest.raises(NotIndependent):
            flaky(m, 7)
        assert flaky(m, 7) == 7 and calls == [7, 7]
        for _ in range(2):
            with pytest.raises(NotIndependent):
                related_basis(m, ps5("1234"))

    def test_a_matroid_with_memoized_results_pickles(self):
        m = m5()
        related_basis(m, ps5("1"))
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m and related_basis(copy, ps5("1")) == related_basis(m, ps5("1"))
