"""The O(n) and O(1) lookups against the basis scans they replaced, and the
lattice-law sweep that the ``lattice-laws`` certificate replaced.

Random column matroids over GF(2) and GF(3) and random graphic matroids with
n <= 7, taken as drawn or dualized, then relabeled.  Zero columns and
self-loops give loops, bridges and lone nonzero columns give coloops, and an
all-zero matrix or a graph of self-loops gives rank 0.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from activita.activity import (
    crapo_decompose_independent,
    crapo_decompose_subset,
    related_basis,
)
from activita.matroid import from_bases, graphic, linear_over_prime_field, relabel, uniform
from activita.orders import meet_join_ind
from activita.suite import check_lattice


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


def with_edge_cases(test):
    for m in EDGE_CASES:
        test = example(m)(test)
    return test


@with_edge_cases
@given(small_matroids())
@settings(max_examples=60, deadline=None)
def test_related_basis_matches_crapo_scan(m):
    for i in m.independent_sets:
        scan = crapo_decompose_subset(m, i)
        assert related_basis(m, i) == scan.basis
        assert crapo_decompose_independent(m, i) == scan


@with_edge_cases
@given(small_matroids())
@settings(max_examples=60, deadline=None)
def test_is_independent_matches_basis_scan(m):
    for s in range(1 << m.n):
        assert m.is_independent(s) == any(s & ~b == 0 for b in m.bases)


def lattice_laws_hold(m) -> bool:
    """Idempotence, commutativity, absorption and associativity of
    ``meet_join_ind`` over all independent sets, checked directly.

    meet[a][b] and join[a][b] are index tables over ``m.independent_sets``;
    associativity for all c at once is one row comparison,
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
    w4 = graphic(5, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)])
    assert check_lattice("W4", w4)[0].ok
    assert lattice_laws_hold(w4)


@with_edge_cases
@given(small_matroids())
@settings(max_examples=40, deadline=None)
def test_lattice_certificate_and_law_sweep(m):
    assert check_lattice("m", m)[0].ok
    assert lattice_laws_hold(m)
