"""Activity complexes on the tripled vertex set, with f- and h-vectors.

Every activity complex of a matroid on E = {1..n} lives on the one universe
x_1..x_n, y_1..y_n, z_1..z_n: vertex (flavor k, element e) is bit k·n + e − 1,
and a face is a bitmask, built by :func:`xyz` from its three blocks.  The
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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from math import comb, inf

from .activity import (
    activity_profile,
    crapo_decompose_independent,
    is_nbc,
    nbc_sets,
    related_basis,
)
from .bitsets import subset_str, submasks
from .errors import NotNBC, NotPure
from .matroid import Matroid, memoized

COMPLEX_KINDS = ("augmented-ea", "ea", "nbc", "augmented-nbc")


def xyz(n: int, xs: int = 0, ys: int = 0, zs: int = 0) -> int:
    """The face x_xs y_ys z_zs: element e of block k = 0, 1, 2 is bit k·n + e − 1."""
    return xs | ys << n | zs << 2 * n


@dataclass(frozen=True)
class FHVector:
    """Face counts f_0..f_d and the h-vector obtained from them."""

    f: tuple[int, ...]
    h: tuple[int, ...]


class SimplicialComplex:
    """A pure simplicial complex: labeled vertex universe plus facet masks."""

    def __init__(
        self,
        vertices: tuple[tuple[str, int], ...],
        facets: tuple[int, ...],
        tags: tuple[int, ...] | None = None,
    ):
        self.vertices = vertices
        self.facets = facets
        self.tags = tags
        sizes = {f.bit_count() for f in facets}
        if len(sizes) > 1:
            raise NotPure(f"facet sizes {sorted(sizes)}")
        self.facet_size = sizes.pop() if sizes else 0
        self.dimension = self.facet_size - 1
        if len(set(facets)) != len(facets):
            raise NotPure("duplicate facets")
        # distinct facets of one size form an antichain: none lies in another
        if tags is not None:
            self.facet_by_tag = dict(zip(tags, facets))

    def __len__(self) -> int:
        return len(self.facets)

    def supports(self, face: int) -> dict[str, int]:
        """Split a face mask into per-flavor element masks."""
        out: dict[str, int] = {}
        for idx, (flavor, elem) in enumerate(self.vertices):
            if face >> idx & 1:
                out[flavor] = out.get(flavor, 0) | 1 << (elem - 1)
        return out

    @cached_property
    def neighbours(self) -> dict[int, tuple[int, ...]]:
        """The facets sharing a codimension-one face with each facet, by facet.

        Built in O(s·d) from a dict of ridges (a facet minus one vertex) to
        the facets containing them.  Two facets share at most one ridge, so
        no neighbour is listed twice.
        """
        by_ridge: dict[int, list[int]] = {}
        for f in self.facets:
            vs = f
            while vs:
                v = vs & -vs
                vs ^= v
                by_ridge.setdefault(f ^ v, []).append(f)
        out: dict[int, list[int]] = {f: [] for f in self.facets}
        for sharing in by_ridge.values():
            if len(sharing) > 1:
                for f in sharing:
                    out[f] += [g for g in sharing if g != f]
        return {f: tuple(gs) for f, gs in out.items()}

    @cached_property
    def faces(self) -> FaceSet:
        """All faces as facets plus f-vector, counted by ``face_counts``."""
        return FaceSet(self.facets, face_counts(self.facets))

    @cached_property
    def fh(self) -> FHVector:
        f = self.faces.f
        return FHVector(f=f, h=_h_from_f(f))


class FaceSet:
    """The faces of a complex without listing them.

    ``len`` is the face count; past ``sys.maxsize``, where ``len`` overflows,
    read ``sum(f)``.  ``in`` tests whether some facet contains the face.
    Iterating walks every submask of every facet, so it is meant for small
    oracles.
    """

    __slots__ = ("facets", "f")

    def __init__(self, facets: tuple[int, ...], f: tuple[int, ...]):
        self.facets = facets
        self.f = f

    def __len__(self) -> int:
        return sum(self.f)

    def __contains__(self, face: int) -> bool:
        return any(face & ~g == 0 for g in self.facets)

    def __iter__(self) -> Iterator[int]:
        seen: set[int] = set()
        for g in self.facets:
            for sub in submasks(g):
                if sub not in seen:
                    seen.add(sub)
                    yield sub


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
        union = 0
        for g in fam:
            union |= g
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
    x_{B∪EP(B)} y_Y z_{(B∪EA(B))∖Y}, because EA(I) = EA(B), I∪EP(I) = B∪EP(B)
    and Y = B∖I; the suite's ``related-basis-activities`` finding checks
    those conditions on every independent set.
    """
    y = crapo_decompose_independent(matroid, indep).y
    prof = activity_profile(matroid, indep)
    return xyz(matroid.n, indep | prof.ep, y, indep | prof.ea)


def facet_G(matroid: Matroid, subset: int) -> int:
    """Facet y_{B_I∖I} z_I of the augmented nbc complex for an nbc set I."""
    if not (matroid.is_independent(subset) and is_nbc(matroid, subset)):
        raise NotNBC(subset_str(subset, matroid.n))
    return xyz(matroid.n, ys=related_basis(matroid, subset) & ~subset, zs=subset)


def _universe(n: int, flavors: str) -> tuple[tuple[str, int], ...]:
    return tuple((fl, e) for fl in flavors for e in range(1, n + 1))


@memoized
def build_complex(matroid: Matroid, kind: str) -> SimplicialComplex:
    """Build one of the four activity complexes on the x, y, z universe, its
    facets tagged by the sets that generate them; memoized per matroid and kind."""
    if kind not in COMPLEX_KINDS:
        raise ValueError(f"unknown complex kind {kind!r}")
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
        sets = nbc_sets(matroid)
        tags = tuple(s for s in sets if not any(t != s and s & ~t == 0 for t in sets))
        facets = [xyz(matroid.n, zs=s) for s in tags]
    cx = SimplicialComplex(_universe(matroid.n, "xyz"), tuple(facets), tags=tuple(tags))
    expected_dim = matroid.rank - 1 + (matroid.n if kind.endswith("ea") else 0)
    if cx.facets and cx.dimension != expected_dim:
        raise NotPure(f"{kind} complex has dimension {cx.dimension}, expected {expected_dim}")
    return cx


def induced_subcomplex(cx: SimplicialComplex, flavors: str) -> SimplicialComplex:
    """The subcomplex induced on the vertices of the given flavors, on the same
    universe: its facets are the maximal sets F ∩ keep over the facets F of
    ``cx``, keep being the mask of those vertices.  So the ``z`` part of
    ``augmented-nbc`` is ``nbc`` and the ``xz`` part of ``augmented-ea`` is
    ``ea``, facet for facet.
    """
    keep = sum(1 << idx for idx, (flavor, _) in enumerate(cx.vertices) if flavor in flavors)
    restricted = {f & keep for f in cx.facets}
    maximal = [f for f in restricted if not any(g != f and f & ~g == 0 for g in restricted)]
    return SimplicialComplex(cx.vertices, tuple(sorted(maximal)))


def independence_complex(matroid: Matroid) -> SimplicialComplex:
    """The independence complex (faces = independent sets) on the plain
    vertices z_1..z_n, bit e − 1; it is not an activity complex."""
    return SimplicialComplex(_universe(matroid.n, "z"), matroid.bases, tags=matroid.bases)
