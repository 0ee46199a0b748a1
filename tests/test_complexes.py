"""Activity complexes: facets, purity, induced subcomplexes, f/h-vectors."""

import sys
import time
from functools import cached_property
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from activita.activity import related_basis
from activita.bitsets import MAX_GROUND, parse_subset, subset_str
from activita.complexes import (
    COMPLEX_KINDS,
    SimplicialComplex,
    build_complex,
    facet_F,
    facet_G,
    independence_complex,
    induced_subcomplex,
    xyz,
)
from activita.errors import NotIndependent, NotNBC, NotPure
from activita.matroid import from_bases, uniform
from activita.tutte import BiPoly
from test_oracles import (
    W4,
    f_of,
    f_vector_by_inclusion_exclusion,
    faces_by_submask_walk,
    xyz_blocks,
)

ps5 = lambda s: parse_subset(s, 5)

# the eight basis facets of the external activity complex
M5_EA_FACETS = {
    "345": ("12345", "345"),
    "135": ("12345", "135"),
    "245": ("12345", "245"),
    "235": ("12345", "235"),
    "125": ("1245", "1235"),
    "134": ("1234", "1345"),
    "234": ("1234", "2345"),
    "124": ("124", "12345"),
}

# facets generated by the independent sets related to the basis 245
M5_245_BLOCK = {
    "245": ("12345", "", "245"),
    "25": ("12345", "4", "25"),
    "24": ("12345", "5", "24"),
    "2": ("12345", "45", "2"),
}


class TestFacetF:
    @pytest.mark.parametrize(
        "basis,xs,zs", [(b, xs, zs) for b, (xs, zs) in sorted(M5_EA_FACETS.items())]
    )
    def test_basis_facets(self, m5_matroid, basis, xs, zs):
        fx, fy, fz = xyz_blocks(m5_matroid, facet_F(m5_matroid, ps5(basis)))
        assert subset_str(fx, 5) == xs
        assert fy == 0
        assert subset_str(fz, 5) == zs

    @pytest.mark.parametrize(
        "indep,xs,ys,zs",
        [(i, xs, ys, zs) for i, (xs, ys, zs) in sorted(M5_245_BLOCK.items())],
    )
    def test_block_facets(self, m5_matroid, indep, xs, ys, zs):
        f = xyz_blocks(m5_matroid, facet_F(m5_matroid, ps5(indep)))
        assert tuple(subset_str(v, 5) for v in f) == (xs, ys, zs)

    def test_size_is_n_plus_r(self, corpus):
        for m in corpus.values():
            for i in m.independent_sets:
                assert facet_F(m, i).bit_count() == m.n + m.rank

    def test_not_independent(self, m5_matroid):
        with pytest.raises(NotIndependent):
            facet_F(m5_matroid, ps5("123"))

    def test_constructions_disagree_on_broken_structure(self):
        # bypassing validation with a non-matroid breaks the conditions that
        # make facet_F equal the rewritten related-basis facet
        from activita.matroid import Matroid
        from activita.suite import check_crapo, check_posets, run_check

        broken = Matroid(4, [0b0011, 0b1100])
        # 1 decomposes under neither basis, and that error fails every Crapo finding
        crapo = {f.check: (f.ok, f.detail) for f in run_check(check_crapo, "broken", broken)}
        error = "DecompositionNotFound: no Crapo decomposition of 1"
        assert crapo["related-basis-activities"] == (False, error)
        # I∖IA(I)∪EA(I) = B∖IA(B)∪EA(B) is one of those conditions
        axioms = {f.check: f for f in run_check(check_posets, "broken", broken)}
        assert axioms["poset-axioms"].ok is False
        assert axioms["poset-axioms"].detail == "extint-ind: key of 1 is not that of its related basis 12"

    def test_support_propositions(self, corpus):
        for m in corpus.values():
            for i in m.independent_sets:
                b = related_basis(m, i)
                (ix, _, iz), (bx, by, bz) = (xyz_blocks(m, facet_F(m, s)) for s in (i, b))
                y = b & ~i
                assert ix == bx
                assert iz == bz & ~y
                assert by == 0
                assert ix & iz == i  # recovery of the generating set


class TestFacetG:
    def test_examples(self, m5_matroid):
        blocks = lambda s: xyz_blocks(m5_matroid, facet_G(m5_matroid, s))
        assert blocks(ps5("135")) == (0, 0, ps5("135"))
        fx, fy, fz = blocks(ps5("13"))
        assert (fx, subset_str(fy, 5), subset_str(fz, 5)) == (0, "5", "13")
        fx, fy, fz = blocks(0)
        assert (fx, subset_str(fy, 5), fz) == (0, "345", 0)

    def test_not_nbc(self, m5_matroid):
        # not nbc, dependent, the full ground set, and a mask past it
        for s in (ps5("12"), ps5("123"), m5_matroid.full_mask, 1 << m5_matroid.n):
            with pytest.raises(NotNBC):
                facet_G(m5_matroid, s)
        with pytest.raises(NotNBC):  # a loop is a circuit, its broken circuit is ∅
            facet_G(from_bases(1, [0]), 0)

    def test_size_is_rank(self, corpus):
        from activita.activity import nbc_sets

        for m in corpus.values():
            for s in nbc_sets(m):
                assert facet_G(m, s).bit_count() == m.rank


class TestBuildComplex:
    def test_m5_sizes(self, m5_matroid):
        assert len(build_complex(m5_matroid, "augmented-ea").facets) == 24
        assert len(build_complex(m5_matroid, "ea").facets) == 8
        assert len(build_complex(m5_matroid, "augmented-nbc").facets) == 18
        assert len(build_complex(m5_matroid, "nbc").facets) == 4

    def test_dimensions(self, corpus):
        for m in corpus.values():
            n, r = m.n, m.rank
            assert build_complex(m, "augmented-ea").dimension == n + r - 1
            assert build_complex(m, "ea").dimension == n + r - 1
            for kind in ("nbc", "augmented-nbc"):
                cx = build_complex(m, kind)
                if cx.facets:
                    assert cx.dimension == r - 1

    def test_induced_subcomplexes(self, corpus):
        for m in corpus.values():
            aug = build_complex(m, "augmented-ea")
            xz, z = xyz(m.n, m.full_mask, 0, m.full_mask), xyz(m.n, zs=m.full_mask)
            assert sorted(induced_subcomplex(aug, xz).facets) == sorted(
                build_complex(m, "ea").facets
            )
            aug_nbc = build_complex(m, "augmented-nbc")
            assert sorted(induced_subcomplex(aug_nbc, z).facets) == sorted(
                build_complex(m, "nbc").facets
            )

    def test_purity_enforced(self):
        with pytest.raises(NotPure):
            SimplicialComplex((0b011, 0b100))

    def test_antichain_enforced(self):
        with pytest.raises(NotPure, match="facet sizes"):
            SimplicialComplex((0b01, 0b11))

    def test_loopy_matroid_has_void_nbc_complexes(self):
        m = from_bases(3, [parse_subset("23", 3)])  # element 1 is a loop
        assert build_complex(m, "nbc").facets == ()
        assert build_complex(m, "augmented-nbc").facets == ()


class TestFHVectors:
    def test_m5_independence_complex(self, m5_matroid):
        cx = independence_complex(m5_matroid)
        assert cx.fh.f == (1, 5, 10, 8)

    def test_simplex(self):
        cx = SimplicialComplex((0b111,))
        assert cx.fh.f == (1, 3, 3, 1)
        assert cx.fh.h == (1, 0, 0, 0)

    def test_m5_nbc_complex(self, m5_matroid):
        assert build_complex(m5_matroid, "nbc").fh.f == (1, 5, 8, 4)

    def test_inclusion_exclusion_agrees(self, m5_matroid):
        for cx in (
            build_complex(m5_matroid, "ea"),
            build_complex(m5_matroid, "nbc"),
            independence_complex(m5_matroid),
            independence_complex(uniform(2, 4)),
        ):
            assert f_vector_by_inclusion_exclusion(cx) == cx.fh.f

    def test_defining_polynomial_identity(self, corpus):
        # sum f_i (q-1)^(d-i) must equal sum h_i q^(d-i)
        q = BiPoly.monomial(1, 0)
        q_minus_1 = BiPoly({(1, 0): 1, (0, 0): -1})
        for m in corpus.values():
            for kind in ("augmented-ea", "ea", "nbc", "augmented-nbc"):
                fh = build_complex(m, kind).fh
                if not fh.f:
                    continue
                d = len(fh.f) - 1
                lhs = BiPoly()
                rhs = BiPoly()
                for i in range(d + 1):
                    lhs = lhs + BiPoly({(0, 0): fh.f[i]}) * q_minus_1 ** (d - i)
                    rhs = rhs + BiPoly({(0, 0): fh.h[i]}) * q ** (d - i)
                assert lhs == rhs

    def test_h_sums_to_facet_count(self, corpus):
        for m in corpus.values():
            for kind in ("augmented-ea", "ea", "nbc", "augmented-nbc"):
                cx = build_complex(m, kind)
                if cx.facets:
                    assert sum(cx.fh.h) == len(cx.facets)
                    assert cx.fh.h[0] == 1

    def test_m5_augmented_h_vector(self, m5_matroid):
        cx = build_complex(m5_matroid, "augmented-ea")
        assert cx.fh.h == (1, 5, 10, 8, 0, 0, 0, 0, 0)

    def test_faces_is_the_cached_fh_and_its_len_counts_faces(self, corpus):
        # perfbench's tracer rewraps both through vars(SimplicialComplex)[name].func
        # and adds len(faces) to its face count
        for name in ("faces", "fh"):
            assert isinstance(vars(SimplicialComplex)[name], cached_property)
        for m in corpus.values():
            for kind in COMPLEX_KINDS:
                cx = build_complex(m, kind)
                assert cx.fh is cx.faces
                assert len(cx.faces) == sum(cx.fh.f)


def assert_faces_match_walk(cx: SimplicialComplex) -> None:
    walk = faces_by_submask_walk(cx.facets)
    assert cx.fh.f == f_of(walk)
    assert len(cx.faces) == len(walk)


def pure_complex(facets) -> SimplicialComplex:
    return SimplicialComplex(tuple(sorted(facets)))


@st.composite
def pure_complexes(draw):
    """Pure complexes on at most 8 vertices, with at most 10 facets."""
    size = draw(st.integers(1, 8))
    k = draw(st.integers(0, size))
    same_size = [g for g in range(1 << size) if g.bit_count() == k]
    facets = draw(st.sets(st.sampled_from(same_size), max_size=10))
    return pure_complex(facets)


class TestFaceCounts:
    @given(pure_complexes())
    @example(pure_complex([]))
    @example(pure_complex([0]))
    @example(pure_complex([0xFF]))
    @settings(max_examples=150, deadline=None)
    def test_matches_walk_and_inclusion_exclusion(self, cx):
        assert cx.fh.f == f_vector_by_inclusion_exclusion(cx)
        assert_faces_match_walk(cx)

    @pytest.mark.parametrize("kind", COMPLEX_KINDS)
    def test_corpus_and_w4_complexes(self, corpus, kind):
        for m in (*corpus.values(), W4):
            cx = build_complex(m, kind)
            assert_faces_match_walk(cx)
            if len(cx.facets) <= 12:
                assert cx.fh.f == f_vector_by_inclusion_exclusion(cx)

    def test_independence_and_induced_complexes(self, corpus):
        for m in (*corpus.values(), W4):
            assert_faces_match_walk(independence_complex(m))
            xz = xyz(m.n, m.full_mask, 0, m.full_mask)
            assert_faces_match_walk(induced_subcomplex(build_complex(m, "augmented-ea"), xz))

    def test_large_simplex_and_ridge_pair_are_linear(self):
        # the submask walk would take 2^192 steps on these
        n = 3 * MAX_GROUND
        full = (1 << n) - 1
        start = time.perf_counter()
        simplex = pure_complex([full])
        assert simplex.fh.f == tuple(comb(n, i) for i in range(n + 1))
        # two facets sharing the ridge full∖{n}
        pair = pure_complex([full, (full >> 1) | 1 << n])
        assert pair.fh.f == tuple(2 * comb(n, i) - comb(n - 1, i) for i in range(n + 1))
        assert time.perf_counter() - start < 1.0

    def test_simplex_boundary_on_192_vertices(self):
        # every facet misses one vertex, so no facet holds the union; the
        # recursion runs one frame per vertex under the default limit
        n = 3 * MAX_GROUND
        full = (1 << n) - 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            start = time.perf_counter()
            boundary = pure_complex([full ^ 1 << v for v in range(n)])
            assert boundary.fh.f == tuple(comb(n, i) for i in range(n))
            assert time.perf_counter() - start < 1.0
        finally:
            sys.setrecursionlimit(limit)
