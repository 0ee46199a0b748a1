"""Matroids on small ordered ground sets, stored by their list of bases.

The ground set is {1..n} with the natural integer order; subsets are bitmasks
(see bitsets).  Bases are enumerated at construction and the basis-exchange
axiom is checked by fundamental cocircuits, so every Matroid instance is a
genuine matroid.  Rank, independence, (fundamental) circuits and duality are
derived from the bases list.  Instances are immutable after construction;
lazily cached fields are idempotent, so sharing across workers is safe.
What the other layers derive once per matroid (activity profiles, related
bases, posets, complexes, witnesses) is kept by :func:`memoized`, the only
reader and writer of a matroid's ``_cache``.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, reduce, wraps
from itertools import combinations
from operator import and_, or_
from typing import Callable, Iterable, Sequence

from .bitsets import (MAX_GROUND, columns, elems_of, in_ground, iter_bits, mask_of, submasks,
                      subset_str)
from .errors import (
    ElementInBasis,
    EmptyBases,
    ExchangeAxiomViolated,
    NoEdges,
    NotABasis,
    NotPrime,
    RankOutOfRange,
    UnequalCardinality,
)


class Matroid:
    """A matroid given by its ground-set size and canonical sorted bases list.

    Do not call the constructor directly with unchecked data; use
    :func:`from_bases` (or the other constructors, which route through it).
    """

    def __init__(self, n: int, bases: Sequence[int]):
        self.n = n
        self.bases = tuple(sorted(set(bases)))
        self.rank = self.bases[0].bit_count() if self.bases else 0
        self._basis_set = frozenset(self.bases)
        # one dict of results per memoized function, keyed by its argument
        self._cache: defaultdict = defaultdict(dict)

    # -- basic queries ---------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def is_basis(self, subset: int) -> bool:
        return subset in self._basis_set

    def is_independent(self, subset: int) -> bool:
        """True iff the subset is one of the materialized independent sets."""
        return subset in self._independent_set

    def rank_of(self, subset: int) -> int:
        """Rank of a subset: max |subset ∩ B| over bases B."""
        in_ground(subset, self.n)
        return max((subset & b).bit_count() for b in self.bases)

    @cached_property
    def _independent_set(self) -> frozenset[int]:
        return frozenset(self.independent_sets)

    @cached_property
    def independent_sets(self) -> tuple[int, ...]:
        """All independent sets, sorted by mask value: the subsets of the bases."""
        return tuple(sorted({s for b in self.bases for s in submasks(b)}))

    @cached_property
    def loops(self) -> int:
        """Mask of elements lying in no basis."""
        return self.full_mask & ~reduce(or_, self.bases, 0)

    @cached_property
    def coloops(self) -> int:
        """Mask of elements lying in every basis."""
        return reduce(and_, self.bases, self.full_mask)

    # -- circuits ----------------------------------------------------------

    @cached_property
    def circuits(self) -> tuple[int, ...]:
        """All circuits (minimal dependent sets), sorted by mask value.

        Every circuit is the fundamental circuit of (B, e) for some basis B
        and e not in B, so collecting those and deduplicating is exhaustive.
        """
        pairs = [(b, x + 1) for b in self.bases for x in iter_bits(self.full_mask & ~b)]
        return tuple(sorted({self.fundamental_circuit(b, e) for b, e in pairs}))

    def fundamental_circuit(self, basis: int, e: int) -> int:
        """The unique circuit inside basis ∪ {e}.

        An element b of the basis belongs to it iff swapping b for e gives a
        basis again (plus e itself).
        """
        if basis not in self._basis_set:
            raise NotABasis(f"{subset_str(basis, self.n)} is not a basis")
        if not 0 < e <= self.n:
            raise RankOutOfRange(f"element {e} outside ground set 1..{self.n}")
        ebit = 1 << (e - 1)
        if basis & ebit:
            raise ElementInBasis(f"element {e} already lies in the basis")
        circ = ebit
        rest = basis
        while rest:
            low = rest & -rest
            rest ^= low
            if (basis ^ low) | ebit in self._basis_set:
                circ |= low
        return circ

    # -- duality -----------------------------------------------------------

    @cached_property
    def dual(self) -> "Matroid":
        """The dual matroid (bases are complements), with the same order."""
        full = self.full_mask
        return Matroid(self.n, [full & ~b for b in self.bases])

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Matroid) and (self.n, self.bases) == (other.n, other.bases)

    def __hash__(self) -> int:
        return hash((self.n, self.bases))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.rank}, bases={len(self.bases)})"


def memoized(fn):
    """Keep ``fn(matroid, key)``, or ``fn(matroid)`` when no key is given, on
    the matroid; a call that raises keeps nothing.  A hit is tested with
    ``is None``, since results such as 0 and () are valid."""

    @wraps(fn)
    def memo(matroid: Matroid, key=None):
        results = matroid._cache[memo]  # the module-level name, so a matroid still pickles
        hit = results.get(key)
        if hit is None:
            hit = results[key] = fn(matroid) if key is None else fn(matroid, key)
        return hit

    return memo


# -- constructors -------------------------------------------------------------


def _check_exchange(n: int, bases: Sequence[int]) -> None:
    """Raise ExchangeAxiomViolated unless the family obeys basis exchange.

    For a basis a and x ∈ a let C(a, x) = x ∪ {y ∉ a : a∖x∪y is a basis}, the
    fundamental cocircuit.  Exchange asks each basis b ∌ x for a y ∈ b∖a with
    a∖x∪y a basis; as C(a, x)∖x misses a, that is for b to meet C(a, x), as a
    basis holding x does anyway.  So, for any family, it holds iff every basis
    meets every C(a, x), and the bases meeting it are the OR of the columns
    {b : e ∈ b} over e ∈ C(a, x): O(B·r·(n−r)) column ORs for B bases.
    """
    basis_set, every = set(bases), (1 << len(bases)) - 1
    holders = columns(bases, n)
    for a in bases:
        outside = [(1 << y, holders[y]) for y in iter_bits(~a & (1 << n) - 1)]
        for x in iter_bits(a):
            rest, met = a ^ 1 << x, holders[x]
            for y, column in outside:
                if rest | y in basis_set:
                    met |= column
            if met != every:  # its lowest zero bit is the first basis avoiding C(a, x)
                b = bases[(~met & met + 1).bit_length() - 1]
                raise ExchangeAxiomViolated(subset_str(a, n), subset_str(b, n), x + 1)


def _ground_size(n: int) -> int:
    """``n`` if in 1..MAX_GROUND; constructors check it before enumerating subsets."""
    if not 1 <= n <= MAX_GROUND:
        raise RankOutOfRange(f"ground set size {n} outside 1..{MAX_GROUND}")
    return n


def from_bases(n: int, bases: Iterable[int]) -> Matroid:
    """Build a matroid from an explicit bases list, verifying the axioms."""
    _ground_size(n)
    blist = sorted(set(bases))
    if not blist:
        raise EmptyBases("a matroid needs at least one basis")
    full = (1 << n) - 1
    sizes = {b.bit_count() for b in blist}
    if len(sizes) != 1:
        raise UnequalCardinality(f"bases of different sizes: {sorted(sizes)}")
    for b in blist:
        if b & ~full:
            raise RankOutOfRange(f"basis {bin(b)} not within ground set 1..{n}")
    _check_exchange(n, blist)
    return Matroid(n, blist)


def _by_rank(n: int, rank: Callable[[Sequence[int]], int]) -> Matroid:
    """The matroid on n elements whose bases are the r-subsets c of range(n) with rank(c) = r =
    rank(range(n)), index i being element i + 1; rank is min(|c|, r) or column rank mod p."""
    r = rank(range(n))
    bases = [sum(1 << i for i in c) for c in combinations(range(n), r) if rank(c) == r]
    return from_bases(n, bases)


def uniform(r: int, n: int) -> Matroid:
    """The uniform matroid U(r, n): every r-subset is a basis."""
    _ground_size(n)
    if not 0 <= r <= n:
        raise RankOutOfRange(f"rank {r} outside 0..{n}")
    return _by_rank(n, lambda c: min(len(c), r))


def graphic(vertices: int, edges: Sequence[tuple[int, int]]) -> Matroid:
    """Graphic matroid of an edge list; element i is the i-th edge.

    Bases are the spanning forests of maximum size; self-loops and parallel edges are
    allowed.  A graph is its incidence matrix over GF(2) on its edges' endpoints (Oxley,
    Matroid Theory, §5.1): isolated vertices cost nothing, and a self-loop's column is 2 ≡ 0.
    """
    if not edges:
        raise NoEdges("edge list must be nonempty")
    for u, v in edges:
        if not (1 <= u <= vertices and 1 <= v <= vertices):
            raise RankOutOfRange(f"edge ({u},{v}) references a vertex outside 1..{vertices}")
    _ground_size(len(edges))
    ends = sorted({x for edge in edges for x in edge})
    return linear_over_prime_field(2, [[(u == x) + (v == x) for u, v in edges] for x in ends])


def linear_over_prime_field(p: int, matrix: Sequence[Sequence[int]]) -> Matroid:
    """Column matroid of a matrix over GF(p), p a prime at most 13."""
    if p not in (2, 3, 5, 7, 11, 13):
        raise NotPrime(f"{p} is not a prime at most 13")
    rows = [[x % p for x in row] for row in matrix]
    if not rows or not rows[0]:
        raise EmptyBases("matrix must be nonempty")
    n = _ground_size(len(rows[0]))
    if any(len(row) != n for row in rows):
        raise UnequalCardinality("matrix rows of different lengths")
    vectors = list(zip(*rows))

    def col_rank(cols: Sequence[int]) -> int:
        # vec ← vec·piv[i] − vec[i]·piv for each kept (i, piv[i], piv) in turn; piv
        # is 0 at the i of each column kept before it, so what is cleared stays 0
        kept: list[tuple[int, int, Sequence[int]]] = []
        for j in cols:
            vec = vectors[j]
            for i, a, piv in kept:
                if b := vec[i]:
                    vec = [(x * a - b * y) % p for x, y in zip(vec, piv)]
            for i, x in enumerate(vec):
                if x:
                    kept.append((i, x, vec))
                    break
        return len(kept)

    return _by_rank(n, col_rank)


def relabel(matroid: Matroid, perm: Sequence[int]) -> Matroid:
    """Relabel ground elements; perm[i-1] is the new label of element i.

    This is how activity with respect to a different linear order is obtained:
    relabel so that the desired order becomes the natural one.
    """
    if sorted(perm) != list(range(1, matroid.n + 1)):
        raise RankOutOfRange("perm must be a permutation of 1..n")
    bases = [mask_of(perm[e - 1] for e in elems_of(b)) for b in matroid.bases]
    return from_bases(matroid.n, bases)
