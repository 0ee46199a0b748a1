"""Activity complexes on the tripled vertex set, with f- and h-vectors.

Four pure complexes are built from a matroid on vertices x_e, y_e, z_e:

* ``augmented-ea``: one facet per independent set I, namely
  x_{I∪EP(I)} y_Y z_{I∪EA(I)} where I = B∖Y is the Crapo decomposition;
* ``ea``: the basis facets x_{B∪EP(B)} z_{B∪EA(B)} on vertices E(x, z);
* ``nbc``: the no-broken-circuit complex on E(z);
* ``augmented-nbc``: one facet y_{B_I∖I} z_I per nbc set I on E(y, z).

Vertices are indexed flavor-major (all x, then y, then z, per the kind's
vertex universe) and faces are bitmasks over that universe.

f-vectors are counted without listing faces, by memoized Shannon expansion
of the facet family on its lowest vertex (``face_counts``).  The cost is
O(s) per distinct subfamily met, not Σ_F 2^|F| submask steps.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from math import comb

from .activity import (
    activity_profile,
    crapo_decompose_independent,
    is_nbc,
    nbc_sets,
    related_basis,
)
from .bitsets import subset_str, submasks
from .errors import NotNBC, NotPure
from .matroid import Matroid

COMPLEX_KINDS = ("augmented-ea", "ea", "nbc", "augmented-nbc")

_FLAVORS = {
    "augmented-ea": "xyz",
    "ea": "xz",
    "nbc": "z",
    "augmented-nbc": "yz",
}


@dataclass(frozen=True)
class Facet:
    """A facet given by its x-, y- and z-supports plus the generating set."""

    xs: int
    ys: int
    zs: int
    tag: int

    def size(self) -> int:
        return self.xs.bit_count() + self.ys.bit_count() + self.zs.bit_count()


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
        for f in facets:
            for g in facets:
                if f != g and f & ~g == 0:
                    raise NotPure("facet contained in another facet")
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

    ``len`` is the face count (read ``sum(f)`` past ``sys.maxsize``, where
    ``len`` overflows) and ``in`` a facet-containment test; iterating walks every submask of every
    facet, so it is meant for small oracles.
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


def _h_from_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """h_k = sum_i (-1)^(k-i) C(d-i, k-i) f_i, the binomial convolution."""
    d = len(f) - 1
    return tuple(
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    )


# -- matroid facets ---------------------------------------------------------------


def facet_F(matroid: Matroid, indep: int) -> Facet:
    """Facet of the augmented external activity complex for an independent set.

    x_{I∪EP(I)} y_Y z_{I∪EA(I)} with I = B∖Y, memoized per matroid.  It equals
    the related basis facet with z_Y rewritten as y_Y, i.e.
    x_{B∪EP(B)} y_Y z_{(B∪EA(B))∖Y}, because EA(I) = EA(B), I∪EP(I) = B∪EP(B)
    and Y = B∖I; the suite's ``related-basis-activities`` finding checks
    those conditions on every independent set.
    """
    cache = matroid._cache.setdefault("facets", {})
    hit = cache.get(indep)
    if hit is not None:
        return hit
    y = crapo_decompose_independent(matroid, indep).y
    prof = activity_profile(matroid, indep)
    facet = Facet(xs=indep | prof.ep, ys=y, zs=indep | prof.ea, tag=indep)
    cache[indep] = facet
    return facet


def facet_G(matroid: Matroid, subset: int) -> Facet:
    """Facet of the augmented nbc complex for an nbc set."""
    if not (matroid.is_independent(subset) and is_nbc(matroid, subset)):
        raise NotNBC(subset_str(subset, matroid.n))
    basis = related_basis(matroid, subset)
    return Facet(xs=0, ys=basis & ~subset, zs=subset, tag=subset)


def _universe(n: int, flavors: str) -> tuple[tuple[str, int], ...]:
    return tuple((fl, e) for fl in flavors for e in range(1, n + 1))


def _facet_mask(vertices: tuple[tuple[str, int], ...], facet: Facet) -> int:
    mask = 0
    parts = {"x": facet.xs, "y": facet.ys, "z": facet.zs}
    for idx, (flavor, elem) in enumerate(vertices):
        if parts[flavor] >> (elem - 1) & 1:
            mask |= 1 << idx
    return mask


def build_complex(matroid: Matroid, kind: str) -> SimplicialComplex:
    """Build one of the four activity complexes; cached per matroid."""
    key = ("complex", kind)
    hit = matroid._cache.get(key)
    if hit is not None:
        return hit
    if kind not in COMPLEX_KINDS:
        raise ValueError(f"unknown complex kind {kind!r}")
    vertices = _universe(matroid.n, _FLAVORS[kind])
    if kind == "augmented-ea":
        fobjs = [facet_F(matroid, i) for i in matroid.independent_sets]
    elif kind == "ea":
        fobjs = [facet_F(matroid, b) for b in matroid.bases]
    elif kind == "augmented-nbc":
        fobjs = [facet_G(matroid, s) for s in nbc_sets(matroid)]
    else:  # plain nbc complex: facets are the maximal nbc sets
        sets = nbc_sets(matroid)
        maximal = [
            s for s in sets if not any(t != s and s & ~t == 0 for t in sets)
        ]
        fobjs = [Facet(xs=0, ys=0, zs=s, tag=s) for s in maximal]
    cx = SimplicialComplex(
        vertices,
        tuple(_facet_mask(vertices, f) for f in fobjs),
        tags=tuple(f.tag for f in fobjs),
    )
    expected_dim = matroid.rank - 1 + (matroid.n if kind.endswith("ea") else 0)
    if cx.facets and cx.dimension != expected_dim:
        raise NotPure(f"{kind} complex has dimension {cx.dimension}, expected {expected_dim}")
    matroid._cache[key] = cx
    return cx


def induced_subcomplex(cx: SimplicialComplex, flavors: str) -> SimplicialComplex:
    """The subcomplex induced on the vertices of the given flavors.

    Faces are the restrictions of faces of ``cx``; facets are the maximal
    restrictions of the facets.
    """
    keep_mask = 0
    new_vertices = []
    remap: dict[int, int] = {}
    for idx, (flavor, elem) in enumerate(cx.vertices):
        if flavor in flavors:
            keep_mask |= 1 << idx
            remap[idx] = len(new_vertices)
            new_vertices.append((flavor, elem))
    restricted = {f & keep_mask for f in cx.facets}
    maximal = [
        f for f in restricted if not any(g != f and f & ~g == 0 for g in restricted)
    ]

    def remap_mask(mask: int) -> int:
        out = 0
        for idx in remap:
            if mask >> idx & 1:
                out |= 1 << remap[idx]
        return out

    return SimplicialComplex(
        tuple(new_vertices),
        tuple(sorted(remap_mask(f) for f in maximal)),
    )


def independence_complex(matroid: Matroid) -> SimplicialComplex:
    """The independence complex (faces = independent sets) on plain vertices."""
    vertices = _universe(matroid.n, "z")
    return SimplicialComplex(
        vertices,
        tuple(_facet_mask(vertices, Facet(0, 0, b, b)) for b in matroid.bases),
        tags=matroid.bases,
    )
