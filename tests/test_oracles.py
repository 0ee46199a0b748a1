"""The O(n) and O(1) lookups against the basis scans they replaced, the
column-bitset posets and their covers against the per-pair build and the
down-row scan they replaced, the ``poset-axioms`` block certificate against the
per-pair row scan it replaced, the lattice-law sweep that the ``lattice-laws``
certificate replaced, and the sweep of all I² pairs that its block-pair reading
replaced, ``meet_join_ind`` against the per-call lookups it restates, the basis
orders' rows and the ``nbc-extint`` gather against the per-pair definitions, the
grouped witness pass against the per-pair ``shelling_witness``, the witness
table against the per-pair exchange search it replaced, the per-order property
(H), h-complex, h-vector and bivariate checks against the
once-per-restriction-map checks that replaced them, the f-vector oracles:
inclusion-exclusion, the submask walk and the memoized Shannon expansion that
the ZDD count replaced, the recursive enumeration of linear extensions that the
explicit stack replaced, and the capped count and ``linear_extensions`` against
it: enumerate up to cap + 1 orders, else sample the rescan's draws, the decision
the count replaced; the closure form of external and internal activity and the
suite's zeta transform against the circuit definition, the nbc sets by
containment rows against the per-set broken-circuit filter, the exchange check
by fundamental cocircuits against the pairwise scan it replaced, the Crapo table
against the per-subset basis scan, the circuit axioms by containment rows
against the per-(B, e) circuit scan, and the cover certificate of the poset
axioms against the per-pair scan; ``bitsets.columns`` and ``bitsets.maximal``
against the per-bit transpose and the pairwise scan they replaced; ``graphic``
against the union-find that sized its forests, and ``linear_over_prime_field``
against the Gauss–Jordan elimination its column rank replaced. Invariants
besides: ``blocks`` inverts ``xyz``, the activity Tutte polynomial keeps under
relabeling and swaps q and t under duality, and the h-vectors of the augmented
complexes are f-vectors by face counts.

Random column matroids over GF(2) and GF(3) and random graphic matroids with
n <= 7, taken as drawn or dualized, then relabeled.  Zero columns and
self-loops give loops, bridges and lone nonzero columns give coloops, and an
all-zero matrix or a graph of self-loops gives rank 0.
"""

import math
import random
from itertools import combinations, zip_longest
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import activita.activity as activity
from activita.activity import (
    activity_profile,
    crapo_decompose_subset,
    crapo_decompositions,
    externally_active,
    is_nbc,
    nbc_sets,
    related_basis,
)
import activita.orders as orders
import activita.shelling as shelling
import activita.suite as suite
from activita.bitsets import (
    MAX_GROUND, columns, iter_bits, maximal, parse_subset, submasks, subset_label
)
from activita.complexes import blocks, build_complex, face_counts, independence_complex, xyz
from activita.corpus import builtin_corpus, m5
from activita.errors import (
    ActivitaError,
    EquivalenceMismatch,
    ExchangeAxiomViolated,
    LatticeFailure,
    NotABasis,
    NotIndependent,
)
from activita.matroid import Matroid, from_bases, graphic, linear_over_prime_field, relabel, uniform
from activita.orders import (
    BASIS_ORDER_KINDS,
    POSET_KINDS,
    Poset,
    build_poset,
    compare_bases,
    leq_extint_ind,
    leq_flip_ind,
    linear_extensions,
    meet_join_ind,
    poset_axiom_violation,
    poset_meet_join,
)
from activita.shelling import shelling_witness, witness_groups
from activita.suite import check_lattice, check_posets, run_check
from activita.tutte import BiPoly, bivariate_restriction_polynomial, tutte_by_activities


@st.composite
def small_matroids(draw):
    kind = draw(st.sampled_from(["gf2", "gf3", "graphic"]))
    if kind == "graphic":
        vertices = draw(st.integers(1, 4))
        ends = st.integers(1, vertices)
        edges = draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=7))
        m = graphic(vertices, edges)
    else:
        p = 2 if kind == "gf2" else 3
        n = draw(st.integers(1, 7))
        row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
        m = linear_over_prime_field(p, draw(st.lists(row, min_size=1, max_size=3)))
    if draw(st.booleans()):
        m = m.dual
    perm = draw(st.permutations(range(1, m.n + 1)))
    return relabel(m, perm)


EDGE_CASES = (
    uniform(0, 3),  # rank 0: every element a loop
    uniform(3, 3),  # every element a coloop
    from_bases(4, [0b0110, 0b1010]),  # loop 1, coloop 2, parallel 3 and 4
    graphic(3, [(1, 1), (1, 2), (2, 3), (1, 3), (3, 3)]),
)
W4 = graphic(5, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)])  # the wheel


def edge_cases(*args):
    """Add each of EDGE_CASES, followed by ``args``, as an explicit example."""

    def add(test):
        for m in EDGE_CASES:
            test = example(m, *args)(test)
        return test

    return add


with_edge_cases = edge_cases()


def crapo_outcome(decompose, m):
    """The decompositions, or the type and message of the error raised."""
    try:
        return decompose(m)
    except ActivitaError as exc:
        return type(exc), str(exc)


def per_subset_scan(m):
    """The basis scan of every subset in turn, up to the first that raises."""
    return [crapo_decompose_subset(m, s) for s in range(1 << m.n)]


@with_edge_cases
@given(small_matroids())
@settings(max_examples=60, deadline=None)
def test_nbc_sets_match_the_per_set_filter(m):
    assert nbc_sets(m) == tuple(s for s in m.independent_sets if is_nbc(m, s))


def test_nbc_sets_match_the_per_set_filter_on_corpus_and_w4():
    for m in [*builtin_corpus().values(), W4, uniform(4, 8)]:
        assert nbc_sets(m) == tuple(s for s in m.independent_sets if is_nbc(m, s))


@with_edge_cases
@given(small_matroids())
@settings(max_examples=60, deadline=None)
def test_related_basis_matches_crapo_scan(m):
    for i in m.independent_sets:
        assert crapo_decompose_subset(m, i) == related_basis(m, i)


@with_edge_cases
@given(small_matroids())
@settings(max_examples=60, deadline=None)
def test_crapo_table_matches_the_basis_scan(m):
    assert crapo_outcome(crapo_decompositions, m) == crapo_outcome(per_subset_scan, m)


def test_crapo_table_matches_the_basis_scan_on_corpus_and_w4():
    for m in [*builtin_corpus().values(), W4]:
        assert crapo_outcome(crapo_decompositions, m) == crapo_outcome(per_subset_scan, m)


@pytest.mark.parametrize("bases", [[0b0011, 0b1100], [0b0011, 0b0101, 0b1100], [0b0101, 0b1010]])
@pytest.mark.parametrize("by_circuits", [False, True], ids=["closure", "circuits"])
def test_crapo_table_matches_the_basis_scan_on_families_that_are_no_matroid(
    monkeypatch, bases, by_circuits
):
    # a family that fails exchange can leave a subset in no interval or in two,
    # and with activities by the circuit definition its intervals hold over 2^n sets
    if by_circuits:
        monkeypatch.setattr(
            activity, "externally_active", lambda m, s: circuit_activities_of(m)[s]
        )
    m = Matroid(max(bases).bit_length(), bases)
    assert crapo_outcome(crapo_decompositions, m) == crapo_outcome(per_subset_scan, m)


@with_edge_cases
@given(small_matroids())
@settings(max_examples=60, deadline=None)
def test_is_independent_matches_basis_scan(m):
    for s in range(1 << m.n):
        assert m.is_independent(s) == any(s & ~b == 0 for b in m.bases)


def forest_size(edges, edge_idxs) -> int:
    """The union-find that sized a graph's forests before ``graphic`` read the
    graph as its incidence matrix over GF(2)."""
    parent: dict[int, int] = {}  # union-find over the endpoints met so far

    def find(x: int) -> int:
        while x in parent:
            x = parent[x]
        return x

    used = 0
    for i in edge_idxs:
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            used += 1
    return used


def gauss_jordan_bases(p, matrix) -> tuple[int, ...]:
    """The bases of ``linear_over_prime_field`` by the Gauss–Jordan ``col_rank``
    that the column-by-column reduction replaced."""
    rows = [[x % p for x in row] for row in matrix]

    def col_rank(cols):
        # Gaussian elimination on the selected columns, exact arithmetic mod p.
        mat = [[row[j] for j in cols] for row in rows]
        rank = 0
        for j in range(len(cols)):
            pivot = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
            if pivot is None:
                continue
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            inv = pow(mat[rank][j], p - 2, p)
            mat[rank] = [(x * inv) % p for x in mat[rank]]
            for i in range(len(mat)):
                if i != rank and mat[i][j]:
                    f = mat[i][j]
                    mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
            rank += 1
        return rank

    n = len(rows[0])
    r = col_rank(range(n))
    return tuple(sorted(sum(1 << i for i in c) for c in combinations(range(n), r) if col_rank(c) == r))


ENDPOINTS = st.sampled_from([1, 2, 3, 4, 10**18])


@example([(1, 1)])  # rank 0: a lone self-loop
@example([(1, 2), (2, 1), (2, 2), (10**18, 10**18), (3, 10**18)])
@given(st.lists(st.tuples(ENDPOINTS, ENDPOINTS), min_size=1, max_size=9))
@settings(max_examples=100, deadline=None)
def test_graphic_bases_are_the_union_find_forests(edges):
    # self-loops, parallel edges and a vertex label far past the edge count
    r = forest_size(edges, range(len(edges)))
    forests = [c for c in combinations(range(len(edges)), r) if forest_size(edges, c) == r]
    assert graphic(10**18, edges).bases == tuple(sorted(sum(1 << i for i in c) for c in forests))


@st.composite
def prime_field_matrices(draw):
    """(p, matrix): 1–4 rows and 1–7 columns of entries in -2p..2p, some of
    whose columns are multiplied by p, so zero columns and rank 0 are common."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.integers(1, 7))
    row = st.lists(st.integers(-2 * p, 2 * p), min_size=n, max_size=n)
    matrix = draw(st.lists(row, min_size=1, max_size=4))
    zero = draw(st.sets(st.integers(0, n - 1)))
    return p, [[x * p if j in zero else x for j, x in enumerate(r)] for r in matrix]


@example((3, [[3, -6], [0, 9]]))  # rank 0
@example((7, [[0, 6, 5, 1, 2], [2, 1, 0, 1, 0], [1, 1, 1, 1, 1]]))  # m5
@given(prime_field_matrices())
@settings(max_examples=200, deadline=None)
def test_column_rank_matches_gauss_jordan(case):
    p, matrix = case
    assert linear_over_prime_field(p, matrix).bases == gauss_jordan_bases(p, matrix)


def per_pair_rows(m, kind):
    """The poset rows built with one comparison per ordered pair: each basis
    order's definition spelled out from the activity profiles, and the
    orders on independent sets by ``leq_extint_ind`` and ``leq_flip_ind``."""
    if kind.endswith("-bases"):
        elements, p = m.bases, lambda s: activity_profile(m, s)
        rel = {
            "ext-bases": lambda a, b: a & ~(b | p(b).ea) == 0,  # A ⊆ B ∪ EA(B)
            "int-bases": lambda a, b: (a & ~p(a).ia) & ~b == 0,  # A∖IA(A) ⊆ B
            "extint-bases": lambda a, b: p(a).ip & p(b).ep == 0,  # IP(A) ∩ EP(B) = ∅
        }[kind]
    else:
        elements = nbc_sets(m) if kind == "nbc-extint" else m.independent_sets
        rel = lambda a, b: (leq_flip_ind if kind == "flip-ind" else leq_extint_ind)(m, a, b)
    return tuple(sum(1 << j for j, b in enumerate(elements) if rel(a, b)) for a in elements)


def per_pair_poset_detail(m) -> str:
    """The ``poset-axioms`` detail of the six orders' axioms and of every row
    checked against its definition pair by pair: the scan that the block
    certificate replaced.  The basis orders' equivalent forms, which hold on
    every matroid, are left out."""
    for kind in POSET_KINDS:
        poset = suite.build_poset(m, kind)
        violation = poset_axiom_violation(poset, m.n)
        wrong = [
            (a, row ^ want)
            for a, row, want in zip(poset.elements, poset.up_rows, per_pair_rows(m, kind))
            if row != want
        ]
        if wrong and not violation:
            a, diff = wrong[0]
            b = poset.elements[(diff & -diff).bit_length() - 1]
            pair = f"{subset_label(a, m.n)}, {subset_label(b, m.n)}"
            violation = f"row disagrees with its definition on {pair}"
        if violation:
            return f"{kind}: {violation}"
    return ""


@edge_cases(0)
@given(small_matroids(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_block_certificate_matches_per_pair_scan(m, seed):
    def poset_axioms():
        [f] = [f for f in run_check(check_posets, "m", m) if f.check == "poset-axioms"]
        return f.ok, f.detail

    assert poset_axioms() == (True, "") and per_pair_poset_detail(m) == ""
    rng = random.Random(seed)
    kind = rng.choice(("extint-ind", "flip-ind", "nbc-extint"))
    real = build_poset(m, kind)
    if not real.elements:  # a loop leaves no nbc sets
        return
    rows, x = list(real.up_rows), rng.randrange(len(real.up_rows))
    for _ in range(2):  # flip one bit of one row, then a second bit of that row
        rows[x] ^= 1 << rng.randrange(len(rows))
        mutant = Poset(real.elements, tuple(rows))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                suite, "build_poset", lambda m, k: mutant if k == kind else build_poset(m, k)
            )
            detail = per_pair_poset_detail(m)
            assert poset_axioms() == (not detail, detail)


@pytest.mark.parametrize("kind", ["ext-bases", "int-bases", "extint-bases"])
def test_a_flipped_bit_of_a_basis_order_row_is_the_per_pair_detail(kind):
    m = m5()
    real = build_poset(m, kind)
    for x in range(len(real)):  # one bit of one row at a time, every bit in turn
        for y in range(len(real)):
            rows = list(real.up_rows)
            rows[x] ^= 1 << y
            mutant = Poset(real.elements, tuple(rows))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    suite, "build_poset", lambda m, k: mutant if k == kind else build_poset(m, k)
                )
                [f] = [f for f in run_check(check_posets, "m5", m) if f.check == "poset-axioms"]
                detail = per_pair_poset_detail(m)
            assert detail.startswith(f"{kind}: ") and (f.ok, f.detail) == (False, detail)


BASIS_FORMULA_MUTANTS = {  # one wrong basis-order rule: the sets of A and of B in A's ⊆ B's
    "ext without EA": ("ext-bases", lambda b, p: (b, b), "134, 124"),
    "int without IA": ("int-bases", lambda b, p: (b, b), "134, 124"),
    "extint with IP ⊆ B": ("extint-bases", lambda b, p: (p.ip, b), "234, 124"),
    "extint with B ⊆ B∪EA(B)": ("extint-bases", lambda b, p: (b, b | p.ea), "245, 125"),
}


@pytest.mark.parametrize("kind, other", [("extint-ind", "flip-ind"), ("flip-ind", "extint-ind")])
def test_the_other_order_on_independent_sets_fails_inside_its_blocks(kind, other):
    # a partial order with the right keys outside its blocks: only the inside form can fail it
    m = m5()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suite, "build_poset", lambda m, k: build_poset(m, other if k == kind else k))
        [f] = [f for f in run_check(check_posets, "m5", m) if f.check == "poset-axioms"]
        detail = per_pair_poset_detail(m)
    assert (f.ok, f.detail) == (False, f"{kind}: row disagrees with its definition on ∅, 3")
    assert detail == f.detail


@pytest.mark.parametrize("name", BASIS_FORMULA_MUTANTS)
def test_a_wrong_basis_order_formula_fails_against_its_equivalent_form(name):
    kind, rule, pair = BASIS_FORMULA_MUTANTS[name]
    m = m5()
    sets = [rule(b, activity_profile(m, b)) for b in m.bases]
    rows = tuple(sum(1 << y for y, (_, t) in enumerate(sets) if s & ~t == 0) for s, _ in sets)
    mutant = Poset(m.bases, rows)
    assert rows != build_poset(m, kind).up_rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suite, "build_poset", lambda m, k: mutant if k == kind else build_poset(m, k))
        [f] = [f for f in run_check(check_posets, "m5", m) if f.check == "poset-axioms"]
        detail = per_pair_poset_detail(m)
    assert (f.ok, f.detail) == (False, f"{kind}: row disagrees with its definition on {pair}")
    assert detail == f.detail


@with_edge_cases
@given(small_matroids())
@settings(max_examples=40, deadline=None)
def test_compare_bases_is_a_bit_of_the_per_pair_rows(m):
    for kind in BASIS_ORDER_KINDS:
        rows = per_pair_rows(m, f"{kind}-bases")
        for row, a in zip(rows, m.bases):
            assert [compare_bases(m, kind, a, b) for b in m.bases] == [
                row >> y & 1 == 1 for y in range(len(m.bases))
            ]


def test_compare_bases_refuses_an_unknown_kind_and_a_non_basis():
    m, basis, dependent, independent = m5(), 0b11100, 0b111, 0b1  # 345, 123 and 1
    with pytest.raises(ValueError, match="^unknown basis order 'flip'$"):
        compare_bases(m, "flip", dependent, dependent)  # the kind is checked first
    for kind in BASIS_ORDER_KINDS:
        for s, label in ((dependent, "123"), (independent, "1")):
            with pytest.raises(NotABasis, match=f"^{label}$"):
                compare_bases(m, kind, s, basis)
            with pytest.raises(NotABasis, match=f"^{label}$"):
                compare_bases(m, kind, basis, s)


def down_row_covers(up_rows):
    """Covers (i, j): no k strictly between, tested on the transposed rows."""
    down = [0] * len(up_rows)
    for i, row in enumerate(up_rows):
        for j in iter_bits(row):
            down[j] |= 1 << i
    out = []
    for i, row in enumerate(up_rows):
        strict = row & ~(1 << i)
        for j in iter_bits(strict):
            if not strict & down[j] & ~(1 << j):
                out.append((i, j))
    return tuple(sorted(out))


@with_edge_cases
@given(small_matroids())
@settings(max_examples=60, deadline=None)
def test_column_rows_and_covers_match_per_pair_build(m):
    for kind in POSET_KINDS:
        poset = build_poset(m, kind)
        assert poset.up_rows == per_pair_rows(m, kind), kind
        elems = poset.elements
        covers = tuple((elems[i], elems[j]) for i, j in down_row_covers(poset.up_rows))
        assert poset.covers() == covers, kind


def f_vector_by_inclusion_exclusion(cx) -> tuple[int, ...]:
    """f-vector by inclusion-exclusion over facet intersections.

    Exponential in the number of facets; an independent oracle for small
    complexes rather than a production path.
    """
    if not cx.facets:
        return ()
    d = cx.facet_size
    f = [0] * (d + 1)
    s = len(cx.facets)
    for pick in range(1, 1 << s):
        inter = -1  # every vertex
        for j in range(s):
            if pick >> j & 1:
                inter &= cx.facets[j]
        sign = -1 if pick.bit_count() % 2 == 0 else 1
        k = inter.bit_count()
        for i in range(min(k, d) + 1):
            f[i] += sign * comb(k, i)
    return tuple(f)


def faces_by_submask_walk(facets) -> set[int]:
    """Every submask of every facet, deduplicated in a set."""
    return {sub for g in facets for sub in submasks(g)}


def xyz_blocks(m, face: int) -> tuple[int, int, int]:
    """The x, y and z element masks of a face of an activity complex of ``m``:
    the n-bit blocks from the lowest up, shifted down and masked."""
    return tuple(face >> k * m.n & m.full_mask for k in range(3))


def test_blocks_inverts_xyz():
    rng = random.Random(0)
    for n in range(1, MAX_GROUND + 1):
        full = (1 << n) - 1
        cases = [(0, 0, 0), (full, full, full), (full, 0, full), (0, full, 0)]
        cases += [tuple(rng.getrandbits(n) for _ in range(3)) for _ in range(20)]
        for xs, ys, zs in cases:
            assert blocks(n, xyz(n, xs, ys, zs)) == (xs, ys, zs)


@edge_cases(0)
@given(small_matroids(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tutte_by_activities_under_relabel_and_dual(m, seed):
    """T is a matroid invariant, so no relabeling changes it, and T(M*; q, t) = T(M; t, q)."""
    tutte = tutte_by_activities(m)
    perm = list(range(1, m.n + 1))
    random.Random(seed).shuffle(perm)
    assert tutte_by_activities(relabel(m, perm)) == tutte
    swapped = BiPoly({(t, q): v for (q, t), v in tutte.coeffs.items()})
    assert tutte_by_activities(m.dual) == swapped


def f_of(faces: set[int]) -> tuple[int, ...]:
    if not faces:
        return ()
    f = [0] * (max(g.bit_count() for g in faces) + 1)
    for g in faces:
        f[g.bit_count()] += 1
    return tuple(f)


def face_counts_by_shannon_expansion(facets) -> tuple[int, ...]:
    """f_0..f_d of the complex generated by ``facets`` (f_0 counts the empty face).

    Shannon expansion on the lowest vertex v of the family's union: the faces
    of 𝓕 are those of {F∖v : F ∈ 𝓕} plus v joined to those of
    {F∖v : v ∈ F ∈ 𝓕}, whose counts shift up by one.  Families are memoized
    as frozensets, and one containing its own union is a simplex, counted by
    binomials.  The expansion runs on an explicit stack, so its depth is not
    bounded by Python's recursion limit.  No facets give ().
    """
    memo: dict[frozenset[int], tuple[int, ...]] = {frozenset(): ()}
    root = frozenset(facets)
    stack = [root]
    while stack:
        family = stack[-1]
        if family in memo:
            stack.pop()
            continue
        union = 0
        for g in family:
            union |= g
        if union in family:
            k = union.bit_count()
            memo[family] = tuple(comb(k, i) for i in range(k + 1))
            stack.pop()
            continue
        v = union & -union
        without = frozenset(g & ~v for g in family)
        with_v = frozenset(g ^ v for g in family if g & v)
        pending = [sub for sub in (without, with_v) if sub not in memo]
        if pending:
            stack += pending
            continue
        stack.pop()
        shifted = (0, *memo[with_v])
        memo[family] = tuple(a + b for a, b in zip_longest(memo[without], shifted, fillvalue=0))
    return memo[root]


WALK_BUDGET = 1 << 17  # submask steps the walk may take on one family


def assert_face_counts_match_oracles(facets) -> None:
    """The ZDD count against the Shannon expansion, and against the submask
    walk where that takes at most ``WALK_BUDGET`` steps."""
    f = face_counts(facets)
    assert f == face_counts_by_shannon_expansion(facets)
    if sum(1 << g.bit_count() for g in set(facets)) <= WALK_BUDGET:
        assert f == f_of(faces_by_submask_walk(facets))


@st.composite
def set_families(draw):
    """Up to 60 subsets of at most 16 vertices: any sizes, nested members, the
    empty set and repeats allowed, so not the facets of a pure complex."""
    size, count = draw(st.integers(1, 16)), draw(st.integers(0, 60))
    return draw(st.lists(st.integers(0, (1 << size) - 1), min_size=count, max_size=count))


@given(set_families())
@example([])
@example([0])
@example([0, 0b1011, 0b0011, 0b1011])  # the empty set, a nested pair, a repeat
@example([0b1, 0b10, 0b100, 0b111])  # one member holds all the others
@example([(1 << 16) - 1, 0b101])
@settings(max_examples=200, deadline=None)
def test_face_counts_of_any_family_match_oracles(facets):
    assert_face_counts_match_oracles(facets)


def columns_bit_by_bit(sets, width: int) -> list[int]:
    """The per-bit comprehension that the digit-string ``bitsets.columns`` replaced."""
    return [sum(1 << k for k, s in enumerate(sets) if s >> e & 1) for e in range(width)]


def maximal_by_pairwise_scan(family) -> list[int]:
    """The O(N²) scan that ``bitsets.maximal`` replaced in ``induced_subcomplex`` and in
    the ``nbc`` branch of ``build_complex``."""
    return [f for f in family if not any(g != f and f & ~g == 0 for g in family)]


@given(set_families(), st.integers(0, 17))
@example([], 0)
@example([], 3)  # no sets: a zero column per bit
@example([0b1, 0b10, 0b11], 1)
@example([0b111000, 0b101], 3)  # bits at or above the width are ignored
@example([0b101], 0)
@settings(max_examples=200, deadline=None)
def test_columns_match_the_bit_by_bit_transpose(sets, width):
    assert columns(sets, width) == columns_bit_by_bit(sets, width)


@given(set_families())
@example([])
@example([0])
@example([0, 0b1011, 0b0011, 0b1011])  # the empty set, a nested pair, a repeat
@example([0b1, 0b10, 0b100, 0b111])  # one member holds all the others
@settings(max_examples=200, deadline=None)
def test_maximal_matches_the_pairwise_scan(family):
    family = list(dict.fromkeys(family))  # distinct, in their order
    for width in (max(family, default=0).bit_length(), 16):
        assert maximal(family, width) == maximal_by_pairwise_scan(family)


def test_a_matroid_with_a_loop_has_no_nbc_sets_and_its_posets_pass():
    m = EDGE_CASES[2]  # loop 1: every set holds the broken circuit ∅
    assert nbc_sets(m) == () and build_poset(m, "nbc-extint").up_rows == ()
    assert build_poset(m, "extint-ind").restricted_rows([]) == []
    assert build_complex(m, "nbc").facets == build_complex(m, "augmented-nbc").facets == ()
    assert all(f.ok for f in run_check(check_posets, "loop", m))


@with_edge_cases
@given(small_matroids())
@settings(max_examples=60, deadline=None)
def test_face_counts_of_augmented_complexes_match_oracles(m):
    for kind in ("augmented-ea", "augmented-nbc"):
        assert_face_counts_match_oracles(build_complex(m, kind).facets)


@with_edge_cases
@given(small_matroids())
@settings(max_examples=60, deadline=None)
def test_h_vectors_of_the_augmented_complexes_are_f_vectors(m):
    # h(augmented-ea) is f(independence complex) then n zeros, as h_i = 0 for
    # i > r of its n + r + 1 entries; h(augmented-nbc) is f(nbc), both () with a loop
    h_ea = build_complex(m, "augmented-ea").fh.h
    assert h_ea == independence_complex(m).fh.f + (0,) * m.n
    assert build_complex(m, "augmented-nbc").fh.h == build_complex(m, "nbc").fh.f


def lattice_laws_hold(m) -> bool:
    """Idempotence, commutativity, absorption and associativity of
    ``meet_join_ind`` over all pairs of independent sets, checked directly.

    meet[a][b] and join[a][b] are index tables over ``m.independent_sets``,
    built pair by pair; associativity for all c at once is one row comparison,
    meet[meet[a][b]] == [meet[a][x] for x in meet[b]].
    """
    elems = m.independent_sets
    pos = {e: a for a, e in enumerate(elems)}
    meet, join = [], []
    for i in elems:
        bounds = [meet_join_ind(m, i, k) for k in elems]
        meet.append([pos[lo] for lo, _ in bounds])
        join.append([pos[hi] for _, hi in bounds])
    for a, (meet_a, join_a) in enumerate(zip(meet, join)):
        if meet_a[a] != a or join_a[a] != a:
            return False
        for b in range(len(elems)):
            if meet_a[b] != meet[b][a] or join_a[b] != join[b][a]:
                return False
            if meet_a[join_a[b]] != a or join_a[meet_a[b]] != a:
                return False
            if [meet_a[x] for x in meet[b]] != meet[meet_a[b]]:
                return False
            if [join_a[x] for x in join[b]] != join[join_a[b]]:
                return False
    return True


def test_lattice_laws_on_w4():
    assert run_check(check_lattice, "W4", W4)[0].ok
    assert lattice_laws_hold(W4)


@with_edge_cases
@given(small_matroids())
@settings(max_examples=40, deadline=None)
def test_lattice_certificate_and_law_sweep(m):
    assert run_check(check_lattice, "m", m)[0].ok
    assert lattice_laws_hold(m)


def per_pair_lattice_detail(m) -> str:
    """The ``lattice-laws`` detail by the sweep over all I² pairs that the block-pair
    reading replaced, or "": the poset axioms of the ``extint-ind`` order the suite
    builds, then the first pair in row order whose closed form is not that order's
    bounds, where a missing bound raises LatticeFailure."""
    ind = suite.build_poset(m, "extint-ind")
    if violation := poset_axiom_violation(ind, m.n):
        return f"extint-ind: {violation}"
    elems, down, up = ind.elements, ind.down_rows, ind.up_rows
    down_of, up_of = dict(zip(elems, down)), dict(zip(elems, up))
    for x, i in enumerate(elems):
        for y, k in enumerate(elems):
            g, j = meet_join_ind(m, i, k)
            if down_of.get(g) != down[x] & down[y] or up_of.get(j) != up[x] & up[y]:
                poset_meet_join(ind, i, k)
                pair = f"{subset_label(i, m.n)}, {subset_label(k, m.n)}"
                return f"closed-form meet/join disagrees with poset bounds on {pair}"
    return ""


def per_pair_lattice_ok(m) -> bool:
    try:
        return not per_pair_lattice_detail(m)
    except LatticeFailure:
        return False


def cross_block_cover_drops(m):
    """The ``extint-ind`` order of m with one cover between two blocks dropped, for
    each such cover in turn: each is still a partial order, and no longer the order."""
    ind = build_poset(m, "extint-ind")
    related = [related_basis(m, e) for e in ind.elements]
    for i, js in enumerate(ind.cover_tables[1]):
        for j in js:
            if related[i] != related[j]:
                rows = list(ind.up_rows)
                rows[i] &= ~(1 << j)
                yield Poset(ind.elements, tuple(rows))


def lattice_laws_on(m, ind) -> tuple[bool, str, bool]:
    """``lattice-laws`` and the per-pair sweep with ``ind`` as the suite's ``extint-ind``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            suite, "build_poset", lambda m, k: ind if k == "extint-ind" else build_poset(m, k)
        )
        [finding] = run_check(check_lattice, "m", m)
        return finding.ok, finding.detail, per_pair_lattice_ok(m)


@edge_cases(-1)
@edge_cases(0)
@given(small_matroids(), st.integers(-1, 20))
@settings(max_examples=40, deadline=None)
def test_lattice_laws_pass_exactly_when_the_per_pair_sweep_does(m, drop):
    # drop picks one of the cross-block cover drops, or -1 none
    mutants = [build_poset(m, "extint-ind"), *cross_block_cover_drops(m)]
    ok, _, swept = lattice_laws_on(m, mutants[(drop + 1) % len(mutants)])
    assert ok == swept


def test_every_cross_block_cover_drop_fails_lattice_laws():
    details = {}
    for name, m in builtin_corpus().items():
        for mutant in cross_block_cover_drops(m):
            assert poset_axiom_violation(mutant, m.n) == ""
            ok, detail, swept = lattice_laws_on(m, mutant)
            assert not ok and not swept, name
            details.setdefault(name, []).append(detail)
    assert sum(map(len, details.values())) == 68
    assert details["m5"][0] == "extint-ind: 14 leaves the block form"


def meet_join_per_call(matroid, i, k):
    """The meet and join of one pair as ``meet_join_ind`` made them before
    rows: two related-basis lookups and the two posets fetched on every call."""
    a = related_basis(matroid, i)
    c = related_basis(matroid, k)
    if a == c:
        return i & k, i | k
    ind_poset = build_poset(matroid, "extint-ind")
    if ind_poset.leq(i, k):
        return i, k
    if ind_poset.leq(k, i):
        return k, i
    meet, join = poset_meet_join(build_poset(matroid, "extint-bases"), a, c)
    return meet, activity_profile(matroid, join).ip


MEET_JOIN_CASES = {**builtin_corpus(), "W4": W4, "u48": uniform(4, 8)}
MEET_JOIN_CASES.update((f"edge{x}", m) for x, m in enumerate(EDGE_CASES))


def assert_rows_match_per_pair_rows(m):
    """The basis orders' rows and the ``nbc-extint`` gather against
    :func:`per_pair_rows`."""
    for kind in BASIS_ORDER_KINDS:
        assert build_poset(m, f"{kind}-bases").up_rows == per_pair_rows(m, f"{kind}-bases"), kind
    gathered = build_poset(m, "extint-ind").restricted_rows(nbc_sets(m))
    assert tuple(gathered) == per_pair_rows(m, "nbc-extint")


def assert_meet_join_rows_match_per_call(m):
    sets = m.independent_sets
    for i in sets:
        for k in sets:
            assert meet_join_ind(m, i, k) == meet_join_per_call(m, i, k)


@pytest.mark.parametrize("name", MEET_JOIN_CASES)
def test_basis_rows_and_nbc_gather_match_per_pair_rows(name):
    assert_rows_match_per_pair_rows(MEET_JOIN_CASES[name])


@pytest.mark.parametrize("name", MEET_JOIN_CASES)
def test_meet_join_matches_the_per_call_oracle(name):
    assert_meet_join_rows_match_per_call(MEET_JOIN_CASES[name])


@given(small_matroids())
@settings(max_examples=40, deadline=None)
def test_rows_match_the_per_pair_oracles_on_small_matroids(m):
    assert_rows_match_per_pair_rows(m)
    assert_meet_join_rows_match_per_call(m)


def test_meet_join_rejects_a_dependent_set():
    m, dependent = m5(), 0b111  # 1, 2, 3 are collinear
    for pair in ((dependent, 0), (0, dependent)):
        with pytest.raises(NotIndependent, match="^123$"):
            meet_join_ind(m, *pair)
        with pytest.raises(NotIndependent, match="^123$"):
            meet_join_per_call(m, *pair)


def test_a_failing_basis_meet_is_the_lattice_laws_detail(monkeypatch):
    # bases that are pairwise incomparable have no meet, so the first pair of
    # sets related to two different bases and incomparable raises in meet_join_ind
    real = orders.build_poset

    def antichain_of_bases(m, kind):
        poset = real(m, kind)
        if kind != "extint-bases":
            return poset
        return Poset(poset.elements, tuple(1 << x for x in range(len(poset))))

    monkeypatch.setattr(orders, "build_poset", antichain_of_bases)
    m = m5()
    with pytest.raises(LatticeFailure, match="no greatest lower bound"):
        meet_join_ind(m, 0b110, 0b1001)  # 23 and 14: related to 235 and 134
    [finding] = run_check(check_lattice, "m5", m)
    assert (finding.ok, finding.detail) == (False, "LatticeFailure: no greatest lower bound")


def test_a_missing_bound_in_the_order_is_the_lattice_laws_detail(monkeypatch):
    # the antichain on the independent sets is a partial order with no meets
    real = build_poset(m5(), "extint-ind")
    antichain = Poset(real.elements, tuple(1 << x for x in range(len(real))))
    monkeypatch.setattr(suite, "build_poset", lambda m, kind: antichain)
    [finding] = run_check(check_lattice, "m5", m5())
    assert (finding.ok, finding.detail) == (False, "LatticeFailure: no greatest lower bound")


def assert_groups_match_per_pair_witnesses(m):
    """The groups of each K partition {I : K ≰ I}, and every I in a group gets
    the group's witness from ``shelling_witness``."""
    ind = build_poset(m, "extint-ind")
    elems = ind.elements
    ks = []
    for k, groups in witness_groups(m):
        y = ind.index[k]
        covered = 0
        for group, w in groups:
            assert group and not group & covered
            covered |= group
            for x in iter_bits(group):
                assert shelling_witness(m, elems[x], k) == w
        assert covered == ((1 << len(elems)) - 1) & ~ind.up_rows[y]
        ks.append(k)
    assert tuple(ks) == elems


@with_edge_cases
@given(small_matroids())
@settings(max_examples=40, deadline=None)
def test_witness_groups_match_shelling_witness(m):
    assert_groups_match_per_pair_witnesses(m)


def test_witness_groups_match_shelling_witness_on_corpus_and_w4():
    w4 = graphic(5, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)])
    for m in [*builtin_corpus().values(), w4]:
        assert_groups_match_per_pair_witnesses(m)


def exchange_witness_search(m, a, c_basis):
    """The per-pair search that ``_witness_table`` replaced: (B, c) for the
    bases (A, C), with c over IP(C) ∩ EP(A) from the largest down and b
    ascending, the first B = C∖c∪b that satisfies the exchange witness lemma
    with A's own external activity, or None."""
    pa, pc = activity_profile(m, a), activity_profile(m, c_basis)
    bases_poset = build_poset(m, "extint-bases")
    for c in range(m.n, 0, -1):
        cbit = 1 << (c - 1)
        if not pc.ip & pa.ep & cbit:
            continue
        for b in range(1, m.n + 1):
            bbit = 1 << (b - 1)
            basis_b = (c_basis ^ cbit) | bbit
            if bbit & (c_basis | cbit) or not m.is_basis(basis_b):
                continue
            pb = activity_profile(m, basis_b)
            if (
                bases_poset.leq(basis_b, c_basis)
                and bool(pb.ea & cbit) == bool(pa.ea & cbit)
                and not (pb.ea ^ pc.ea) & m.full_mask & ~(basis_b | c_basis)
                and pb.ep & cbit
            ):
                return basis_b, c
    return None


def assert_table_matches_exchange_search(m):
    table = shelling._witness_table(m)
    assert set(table) == set(m.bases)
    for a in m.bases:
        ep = activity_profile(m, a).ep
        for c_basis in m.bases:
            if a != c_basis:
                found = next(((b, c) for c, b in table[c_basis] if ep >> c - 1 & 1), None)
                assert found == exchange_witness_search(m, a, c_basis)


@with_edge_cases
@given(small_matroids())
@settings(max_examples=60, deadline=None)
def test_witness_table_matches_exchange_search(m):
    assert_table_matches_exchange_search(m)


def test_witness_table_matches_exchange_search_on_corpus_w4_and_u48():
    w4 = graphic(5, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)])
    for m in [*builtin_corpus().values(), w4, uniform(4, 8)]:
        assert_table_matches_exchange_search(m)


SAMPLED_SHELLINGS = (  # (complex, order) of the suite's four sampled shellings
    ("augmented-ea", "extint-ind"), ("augmented-ea", "flip-ind"), ("ea", "extint-bases"),
    ("augmented-nbc", "nbc-extint"),
)


@pytest.mark.parametrize("name", [*builtin_corpus(), "W4"])
def test_shelling_properties_read_an_order_only_through_its_restriction_map(name):
    # the per-order checks that verify_orders replaced by one check per map,
    # on the suite's samples: cap 200 on the corpus, 20 on W4, seed 0
    m, cap = (W4, 20) if name == "W4" else (builtin_corpus()[name], 200)
    for kinds in SAMPLED_SHELLINGS:
        cx, poset = build_complex(m, kinds[0]), build_poset(m, kinds[1])
        sample = linear_extensions(poset, cap=cap, seed=0)
        by_map = {}
        for order in sample.orders:
            facets = [cx.facet_by_tag[t] for t in order]
            report = shelling.verify_shelling(cx, facets)
            r = report.restrictions
            verdicts = (
                shelling.property_H_check(cx, facets, r), shelling.h_complex_check(r),
                report.matches_complex_h,
                bivariate_restriction_polynomial(m, r) if kinds[1] == "flip-ind" else None,
            )
            assert report.verdict
            assert by_map.setdefault(frozenset(zip(order, r)), verdicts) == verdicts
        formula = shelling.restriction_formula(m, kinds[1])
        flags, restrictions = shelling.verify_orders(cx, poset, sample.orders, formula)
        assert flags[:2] == (True, True)  # every sample shells, with the closed form
        assert flags[2:] == tuple(all(v[x] for v in by_map.values()) for x in range(3))
        assert len(restrictions) == len(by_map)


def recursive_extensions(poset, limit=math.inf):
    """The recursive backtracking enumeration that the explicit stack replaced:
    the minimal available element first, stopping after ``limit + 1`` orders,
    with whether it got through all of them first."""
    m = len(poset.elements)
    down = poset.down_rows
    full = (1 << m) - 1
    found, prefix = [], []

    def rec(placed):
        if placed == full:
            found.append(tuple(poset.elements[i] for i in prefix))
            return len(found) <= limit
        for i in range(m):
            bit = 1 << i
            if placed & bit or down[i] & ~placed & ~bit:
                continue
            prefix.append(i)
            ok = rec(placed | bit)
            prefix.pop()
            if not ok:
                return False
        return True

    return found, rec(0)


def rescan_extension(poset, rng):
    """The sampler with its available list rebuilt by a full scan at every
    step, O(m²) per order: the reference the incremental sampler must match."""
    m = len(poset.elements)
    down = poset.down_rows
    placed = 0
    order = []
    for _ in range(m):
        avail = [
            i
            for i in range(m)
            if not placed >> i & 1 and not down[i] & ~placed & ~(1 << i)
        ]
        i = rng.choice(avail)
        order.append(poset.elements[i])
        placed |= 1 << i
    return tuple(order)


def enumerate_then_sample(poset, cap, seed):
    """The decision the capped count replaced: enumerate up to ``cap + 1``
    orders, exhaustive when there were no more, else ``cap`` seeded draws."""
    found, completed = recursive_extensions(poset, cap)
    if completed:
        return found, True
    rng = random.Random(seed)
    return [rescan_extension(poset, rng) for _ in range(cap)], False


@st.composite
def small_posets(draw, max_size=7):
    """Partial orders on at most ``max_size`` distinct masks: the transitive
    closure of random pairs, each oriented by a random ranking, so that the
    element indices need not be a linear extension."""
    m = draw(st.integers(0, max_size))
    rank = draw(st.permutations(range(m)))
    up = [1 << i for i in range(m)]
    if m:
        for i, j in draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)))):
            if rank[i] < rank[j]:
                up[i] |= 1 << j
    for _ in range(m):
        for i in range(m):
            for j in iter_bits(up[i]):
                up[i] |= up[j]
    elements = draw(st.lists(st.integers(0, 127), min_size=m, max_size=m, unique=True))
    return Poset(tuple(elements), tuple(up))


def poset_axiom_scan(poset, n):
    """The first failure of reflexivity, antisymmetry or transitivity, one step
    per comparable pair: the scan that the cover certificate replaced."""
    rows, elems = poset.up_rows, poset.elements
    for i, row in enumerate(rows):
        a = subset_label(elems[i], n)
        if not row >> i & 1:
            return f"not reflexive at {a}"
        for j in iter_bits(row & ~(1 << i)):
            if rows[j] >> i & 1:
                return f"not antisymmetric on {a}, {subset_label(elems[j], n)}"
            if rows[j] & ~row:
                return f"not transitive from {a} through {subset_label(elems[j], n)}"
    return ""


@st.composite
def relations(draw):
    """Relations on at most 7 masks: random rows; a partial order of
    ``small_posets``, as drawn, with one bit flipped, or without one diagonal
    bit; and a cycle through the elements in a random order, each element
    related to itself and the next, alone or with every pair related."""
    kind = draw(st.sampled_from(["rows", "order", "flip", "diagonal", "cycle", "closed-cycle"]))
    if kind in ("order", "flip", "diagonal"):
        poset = draw(small_posets())
        rows, m = list(poset.up_rows), len(poset)
        if m and kind != "order":
            i = draw(st.integers(0, m - 1))
            rows[i] ^= 1 << (i if kind == "diagonal" else draw(st.integers(0, m - 1)))
        return Poset(poset.elements, tuple(rows))
    m = draw(st.integers(0 if kind == "rows" else 1, 7))
    if kind == "rows":
        rows = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=m, max_size=m))
    elif kind == "cycle":
        rows, at = [0] * m, draw(st.permutations(range(m)))
        for x, i in enumerate(at):
            rows[i] = 1 << i | 1 << at[(x + 1) % m]
    else:
        rows = [(1 << m) - 1] * m
    elements = draw(st.lists(st.integers(0, 127), min_size=m, max_size=m, unique=True))
    return Poset(tuple(elements), tuple(rows))


@given(relations())
@example(Poset((), ()))
@example(Poset((1, 2, 4), (0b011, 0b110, 0b100)))  # not transitive
@settings(max_examples=150, deadline=None)
def test_cover_certificate_names_what_the_per_pair_scan_names(poset):
    assert poset_axiom_violation(poset, 7) == poset_axiom_scan(poset, 7)


@pytest.mark.parametrize("name", MEET_JOIN_CASES)
def test_cover_certificate_passes_the_six_orders(name):
    m = MEET_JOIN_CASES[name]
    for kind in POSET_KINDS:
        poset = build_poset(m, kind)
        assert poset_axiom_violation(poset, m.n) == poset_axiom_scan(poset, m.n) == ""


def test_a_certificate_the_scan_contradicts_raises(monkeypatch):
    # covers that leave out the top of a chain fail the certificate on a
    # partial order, which the scan passes: the disagreement is an error
    chain = Poset((1, 2, 4), (0b111, 0b110, 0b100))
    monkeypatch.setattr(Poset, "cover_tables", ((0, 1, 1), ((1,), (), ()), 0b001))
    with pytest.raises(EquivalenceMismatch):
        poset_axiom_violation(chain, 3)
    assert poset_axiom_scan(chain, 3) == ""


ANTICHAIN_7 = Poset(tuple(range(7)), tuple(1 << i for i in range(7)))  # 7! = 5040 orders


@given(small_posets())
@example(Poset((), ()))
@example(ANTICHAIN_7)
@settings(max_examples=150, deadline=None)
def test_explicit_stack_extensions_match_recursion(poset):
    found = orders._enumerate_extensions(poset)
    assert found == recursive_extensions(poset)[0]
    assert orders.first_extension(poset) == found[0]  # the greedy walk is the first order


@given(small_posets(), st.sampled_from([0, 1, 2, 7, 100, 5039, 5040]))
@example(Poset((), ()), 0)
@example(ANTICHAIN_7, 5039)
@example(ANTICHAIN_7, 5040)
@settings(max_examples=150, deadline=None)
def test_capped_count_is_exact_up_to_the_limit(poset, limit):
    exact, count = len(recursive_extensions(poset)[0]), orders._count_extensions(poset, limit)
    assert count == exact if exact <= limit else count > limit


@pytest.mark.parametrize("kind", POSET_KINDS)
def test_linear_extensions_match_enumerate_then_sample(kind):
    for m in builtin_corpus().values():
        poset = build_poset(m, kind)
        for cap in (1, 20, 200):
            for seed in range(3):
                sample = linear_extensions(poset, cap=cap, seed=seed)
                assert (sample.orders, sample.exhaustive) == enumerate_then_sample(poset, cap, seed)


def externally_active_by_circuits(m, s):
    """The definition, one subset at a time: e ∉ S is active iff some circuit C
    with maximum e has C∖e ⊆ S, that is C∖S = {max C}.  The oracle of the
    closure form, and the per-subset scan that the suite's transform replaced."""
    return sum({c & ~s for c in m.circuits if c & ~s == 1 << c.bit_length() - 1})


def circuit_activities_of(m):
    """EA by the circuit definition for every subset, scanned subset by subset."""
    return [externally_active_by_circuits(m, s) for s in range(1 << m.n)]


@with_edge_cases
@given(small_matroids())
@settings(max_examples=60, deadline=None)
def test_activities_by_closure_match_the_circuit_definition(m):
    # EA on every subset of m and of its dual, so IA = EA of the complement too
    for matroid in (m, m.dual):
        by_circuits = circuit_activities_of(matroid)
        assert suite._circuit_activities(matroid) == by_circuits
        assert [externally_active(matroid, s) for s in range(1 << m.n)] == by_circuits
    for s in range(1 << m.n):
        prof = activity_profile(m, s)
        assert prof.ia == externally_active_by_circuits(m.dual, m.full_mask & ~s)


def test_circuit_activities_match_the_per_subset_scan_on_corpus_and_w4():
    for m in [*builtin_corpus().values(), W4]:
        for matroid in (m, m.dual):
            assert suite._circuit_activities(matroid) == circuit_activities_of(matroid)


def circuit_axioms_by_scan(m):
    """``circuits-not-in-bases`` and ``fundamental-circuit-unique`` as the scans
    that the basis columns replaced: every (circuit, basis) pair, and for each
    basis B and e ∉ B every circuit, which must leave fund(B, e) alone in B ∪ e."""
    in_no_basis = all(c & ~b for c in m.circuits for b in m.bases)
    minimal = all(m.is_independent(c ^ 1 << x) for c in m.circuits for x in iter_bits(c))
    unique = all(
        [c for c in m.circuits if c & ~(b | 1 << x) == 0] == [m.fundamental_circuit(b, x + 1)]
        for b in m.bases for x in iter_bits(m.full_mask & ~b)
    )
    return [in_no_basis and minimal, unique]


@st.composite
def circuit_lists(draw):
    """A matroid, and its circuits as listed, with a basis, a random set or a
    listed circuit added once more, or with a circuit dropped."""
    m = draw(small_matroids())
    circuits = list(m.circuits)
    change = draw(st.sampled_from(["none", "basis", "any", "again", "drop"]))
    if change == "basis":
        circuits.append(draw(st.sampled_from(m.bases)))
    elif change == "any":
        circuits.append(draw(st.integers(1, m.full_mask)))
    elif change == "again" and circuits:
        circuits.append(draw(st.sampled_from(circuits)))
    elif change == "drop" and circuits:
        circuits.remove(draw(st.sampled_from(circuits)))
    return m, tuple(sorted(circuits))


@given(circuit_lists())
@settings(max_examples=100, deadline=None)
def test_circuit_axioms_by_columns_match_the_scans(case):
    m, circuits = case
    assert suite.check_matroid_axioms(m)[1:3] == circuit_axioms_by_scan(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matroid, "circuits", property(lambda _: circuits))
        assert suite.check_matroid_axioms(m)[1:3] == circuit_axioms_by_scan(m)


def test_circuit_axioms_by_columns_match_the_scans_on_corpus_and_w4():
    for m in [*builtin_corpus().values(), W4, *EDGE_CASES]:
        assert suite.check_matroid_axioms(m)[1:3] == circuit_axioms_by_scan(m) == [True, True]


def exchange_pairwise(bases):
    """The first (a, b, x) in the loop over ordered pairs of bases that the
    cocircuit check replaced: x ∈ a∖b with no y ∈ b∖a making a∖x∪y a basis.
    None when the family satisfies the exchange axiom."""
    basis_set = set(bases)
    for a in bases:
        for b in bases:
            for x in iter_bits(a & ~b):
                if not any((a ^ 1 << x) | 1 << y in basis_set for y in iter_bits(b & ~a)):
                    return a, b, x + 1
    return None


def assert_exchange_matches_pairwise(n, bases):
    """``from_bases`` accepts the family iff the pairwise scan does, and a
    rejection names bases a, b and an element x ∈ a∖b that the pairwise
    definition says no y ∈ b∖a exchanges for.  Returns whether it accepted."""
    bases = sorted(set(bases))
    try:
        from_bases(n, bases)
        accepted = True
    except ExchangeAxiomViolated as err:
        accepted = False
        a, b, x = parse_subset(err.witness[0], n), parse_subset(err.witness[1], n), err.witness[2]
        assert exchange_pairwise(bases) is not None
        xbit = 1 << x - 1
        assert a in bases and b in bases and a & xbit and not b & xbit
        assert not any((a ^ xbit) | 1 << y in bases for y in iter_bits(b & ~a))
    else:
        assert exchange_pairwise(bases) is None
    return accepted


def equal_size_families(n):
    """Every nonempty family of r-subsets of [n], for every r."""
    for r in range(n + 1):
        sets = [sum(1 << e for e in c) for c in combinations(range(n), r)]
        for pick in range(1, 1 << len(sets)):
            yield [s for x, s in enumerate(sets) if pick >> x & 1]


def test_exchange_check_matches_pairwise_scan_on_every_family_up_to_five_elements():
    # the accepted families are the labeled matroids: 2 + 5 + 16 + 68 + 406 (OEIS A058673)
    families = [(n, f) for n in range(1, 6) for f in equal_size_families(n)]
    assert len(families) == 2228
    assert sum(assert_exchange_matches_pairwise(n, family) for n, family in families) == 497


R_SUBSETS_OF_SIX = [[sum(1 << e for e in c) for c in combinations(range(6), r)] for r in range(7)]


@given(st.integers(0, 6).flatmap(
    lambda r: st.lists(st.sampled_from(R_SUBSETS_OF_SIX[r]), min_size=1, max_size=20)
))
@example([0b000011, 0b001100])
@example(R_SUBSETS_OF_SIX[3])  # U(3, 6)
@settings(max_examples=300, deadline=None)
def test_exchange_check_matches_pairwise_scan_on_six_elements(family):
    assert_exchange_matches_pairwise(6, family)


@with_edge_cases
@given(small_matroids())
@settings(max_examples=40, deadline=None)
def test_exchange_check_accepts_every_matroid_and_its_sub_families_as_pairwise(m):
    # a matroid's bases pass both; dropping one basis often breaks exchange
    assert exchange_pairwise(m.bases) is None
    for drop in m.bases[1:4]:  # a family of one basis is always a matroid's
        assert_exchange_matches_pairwise(m.n, [b for b in m.bases if b != drop])
