"""Activity complexes on the tripled vertex set, with f- and h-vectors.

Every activity complex of a matroid on E = {1..n} lives on the vertices
x_1..x_n, y_1..y_n, z_1..z_n: vertex (flavor k, element e) is bit k·n + e − 1.
A complex stores no vertex labels, only its facet masks: :func:`xyz` builds a
face from its three element blocks and :func:`blocks` splits it back.  The
four pure complexes are:

* ``augmented-ea``: one facet per independent set I, namely
  x_{I∪EP(I)} y_Y z_{I∪EA(I)} where I = B∖Y is the Crapo decomposition;
* ``ea``: the basis facets x_{B∪EP(B)} z_{B∪EA(B)}, the subcomplex of
  ``augmented-ea`` induced on the x and z blocks;
* ``nbc``: the no-broken-circuit complex on the z block, the subcomplex of
  ``augmented-nbc`` induced on it;
* ``augmented-nbc``: one facet y_{B_I∖I} z_I per nbc set I.

A kind without x or y vertices leaves those blocks empty.

f-vectors are counted without listing faces (``face_counts``): the facet
family becomes a zero-suppressed decision diagram, closed downward and
counted by size, in O(1) dict operations per diagram node or node pair.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from functools import cached_property, reduce
from math import comb, inf
from operator import or_

from .activity import activity_profile, nbc_sets, related_basis
from .bitsets import iter_bits, maximal, subset_str
from .errors import BadArgument, NotNBC, NotPure, RankOutOfRange
from .matroid import Matroid, memoized

COMPLEX_KINDS = ("augmented-ea", "ea", "nbc", "augmented-nbc")


def xyz(n: int, xs: int = 0, ys: int = 0, zs: int = 0) -> int:
    """The face x_xs y_ys z_zs: element e of block k = 0, 1, 2 is bit k·n + e − 1."""
    return xs | ys << n | zs << 2 * n


def blocks(n: int, face: int) -> tuple[int, int, int]:
    """The element masks (xs, ys, zs) of a face: the inverse of :func:`xyz`."""
    full = (1 << n) - 1
    return face & full, face >> n & full, face >> 2 * n & full


class FHVector:
    """Face counts f_0..f_d and the h-vector obtained from them.

    ``len`` is the face count; past ``sys.maxsize``, where ``len`` overflows,
    read ``sum(f)``.
    """

    __slots__ = ("f", "h")

    def __init__(self, f: tuple[int, ...], h: tuple[int, ...]):
        self.f, self.h = f, h

    def __len__(self) -> int:
        return sum(self.f)


class SimplicialComplex:
    """A pure simplicial complex: facet masks, each under a tag (by default
    the facet itself) that ``facet_by_tag`` looks up."""

    def __init__(self, facets: tuple[int, ...], tags: tuple[int, ...] | None = None):
        self.facets = facets
        self.tags = facets if tags is None else tags
        sizes = {f.bit_count() for f in facets}
        if len(sizes) > 1:
            raise NotPure(f"facet sizes {sorted(sizes)}")
        self.facet_size = sizes.pop() if sizes else 0
        self.dimension = self.facet_size - 1
        if len(set(facets)) != len(facets):
            raise NotPure("duplicate facets")
        # distinct facets of one size form an antichain: none lies in another
        self.facet_by_tag = dict(zip(self.tags, facets))

    @cached_property
    def neighbours(self) -> dict[int, tuple[int, ...]]:
        """The facets sharing a codimension-one face with each facet, by facet.

        Built in O(s·d) from a dict of ridges (a facet minus one vertex) to
        the facets containing them.  Two facets share at most one ridge, so
        no neighbour is listed twice.
        """
        by_ridge: dict[int, list[int]] = {}
        for f in self.facets:
            for v in iter_bits(f):
                by_ridge.setdefault(f ^ 1 << v, []).append(f)
        out: dict[int, list[int]] = {f: [] for f in self.facets}
        for sharing in by_ridge.values():
            if len(sharing) > 1:
                for f in sharing:
                    out[f] += [g for g in sharing if g != f]
        return {f: tuple(gs) for f, gs in out.items()}

    @cached_property
    def faces(self) -> FHVector:
        """The f- and h-vectors, counted by ``face_counts``; ``fh`` is the same object."""
        f = face_counts(self.facets)
        return FHVector(f=f, h=_h_from_f(f))

    @cached_property
    def fh(self) -> FHVector:
        return self.faces


def face_counts(facets: Iterable[int]) -> tuple[int, ...]:
    """f_0..f_d of the complex generated by ``facets`` (f_0 counts the empty face).

    Three passes over a hash-consed zero-suppressed decision diagram (Minato
    1993; Knuth, TAOCP 4A §7.1.4), lowest vertex at the root.  Node
    (v, lo, hi) is the family lo ∪ {S ∪ v : S ∈ hi}; node 0 is ∅, node 1 is
    {∅}, a unique table gives equal families one id and no node has hi = 0.
    Build splits the facets on their lowest vertex.  Close maps each built
    node, children first, to (v, close(lo) ∪ close(hi), close(hi)), with ∪
    memoized on node pairs.  Count reads f(v, lo, hi) = f(lo) + f(hi) one
    size up, packed in w-bit digits (s facets of ≤ d vertices give every
    f_i ≤ s·2^d < 2^w).  Each pass costs O(1) dict operations per node or
    node pair.  Build lays a single facet's chain in a loop; build and union
    recurse once per vertex on a path, at most vertex count + 2 frames:
    under 200 for 3·MAX_GROUND vertices, within Python's default recursion
    limit of 1000.  No facets give ().
    """
    family = set(facets)
    if not family:
        return ()
    nodes = [(0, 0, 0), (inf, 1, 0)]  # union reads {∅} as a node past every vertex
    unique: dict[tuple[int, int, int], int] = {}
    joined: dict[tuple[int, int], int] = {}

    def node(*key: int) -> int:
        if key not in unique:
            unique[key] = len(nodes)
            nodes.append(key)
        return unique[key]

    def build(fam: list[int]) -> int:
        if len(fam) == 1:  # one facet: its chain of nodes, highest vertex first
            top, g = 1, fam[0]
            while g:
                v = 1 << g.bit_length() - 1
                top, g = node(v, 0, top), g ^ v
            return top
        union = reduce(or_, fam)
        v = union & -union
        lo = [g for g in fam if not g & v]
        return node(v, build(lo) if lo else 0, build([g ^ v for g in fam if g & v]))

    def union(a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == 0 or a == b:
            return b
        got = joined.get((a, b))
        if got is None:
            (va, la, ha), (vb, lb, hb) = nodes[a], nodes[b]
            if va < vb:
                got = node(va, union(la, b), ha)
            elif vb < va:
                got = node(vb, union(a, lb), hb)
            else:
                got = node(va, union(la, lb), union(ha, hb))
            joined[a, b] = got
        return got

    root = build(list(family))
    closed = [0, 1]
    for v, lo, hi in nodes[2 : root + 1]:
        closed.append(node(v, union(closed[lo], closed[hi]), closed[hi]))
    d = max(map(int.bit_count, family))
    w = d + len(family).bit_length()
    packed = [0, 1]
    for v, lo, hi in nodes[2:]:
        packed.append(packed[lo] + (packed[hi] << w))
    total = packed[closed[root]]
    return tuple(total >> w * i & (1 << w) - 1 for i in range(d + 1))


def _h_from_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """h_k = sum_i (-1)^(k-i) C(d-i, k-i) f_i, the binomial convolution."""
    d = len(f) - 1
    return tuple(
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    )


# -- matroid facets ---------------------------------------------------------------


@memoized
def facet_F(matroid: Matroid, indep: int) -> int:
    """Facet x_{I∪EP(I)} y_Y z_{I∪EA(I)} of the augmented external activity
    complex for an independent set I = B∖Y, memoized per matroid.

    It equals the related basis facet with z_Y rewritten as y_Y, i.e.
    x_{B∪EP(B)} y_Y z_{(B∪EA(B))∖Y}, because EA(I) = EA(B), so I∪EP(I) =
    E∖EA(I) = B∪EP(B), and Y = B∖I; the suite's ``related-basis-activities``
    finding compares EA and IP of I and B on every independent set.
    """
    y = related_basis(matroid, indep) & ~indep
    prof = activity_profile(matroid, indep)
    return xyz(matroid.n, indep | prof.ep, y, indep | prof.ea)


def facet_G(matroid: Matroid, subset: int) -> int:
    """Facet y_{B_I∖I} z_I of the augmented nbc complex for an nbc set I, found by bisection."""
    sets = nbc_sets(matroid)
    x = bisect_left(sets, subset)
    if sets[x : x + 1] != (subset,):
        raise NotNBC(subset_str(subset, matroid.n))
    return xyz(matroid.n, ys=related_basis(matroid, subset) & ~subset, zs=subset)


@memoized
def build_complex(matroid: Matroid, kind: str) -> SimplicialComplex:
    """Build one of the four activity complexes on the x, y, z vertices, its
    facets tagged by the sets that generate them; memoized per matroid and kind."""
    if kind not in COMPLEX_KINDS:
        raise BadArgument(f"unknown complex kind {kind!r}")
    if kind == "augmented-ea":
        tags = matroid.independent_sets
        facets = [facet_F(matroid, i) for i in tags]
    elif kind == "ea":
        tags = matroid.bases
        facets = [facet_F(matroid, b) for b in tags]
    elif kind == "augmented-nbc":
        tags = nbc_sets(matroid)
        facets = [facet_G(matroid, s) for s in tags]
    else:  # plain nbc complex: facets are the maximal nbc sets
        tags = tuple(maximal(nbc_sets(matroid), matroid.n))
        facets = [xyz(matroid.n, zs=s) for s in tags]
    cx = SimplicialComplex(tuple(facets), tuple(tags))
    expected_dim = matroid.rank - 1 + (matroid.n if kind.endswith("ea") else 0)
    if cx.facets and cx.dimension != expected_dim:
        raise NotPure(f"{kind} complex has dimension {cx.dimension}, expected {expected_dim}")
    return cx


def induced_subcomplex(cx: SimplicialComplex, keep: int) -> SimplicialComplex:
    """The subcomplex induced on the vertex mask ``keep``, built with :func:`xyz`:
    its facets are the maximal sets F ∩ keep over the facets F of ``cx``, by
    :func:`~activita.bitsets.maximal`.  So the z block of ``augmented-nbc`` induces
    ``nbc`` and the x and z blocks of ``augmented-ea`` induce ``ea``, facet for facet.
    """
    if keep < 0:
        raise RankOutOfRange(f"vertex mask {keep} is negative")
    restricted = sorted({f & keep for f in cx.facets})
    return SimplicialComplex(tuple(maximal(restricted, keep.bit_length())))


def independence_complex(matroid: Matroid) -> SimplicialComplex:
    """The independence complex (faces = independent sets), element e at bit
    e − 1; it is not an activity complex."""
    return SimplicialComplex(matroid.bases)
