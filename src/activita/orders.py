"""Las Vergnas active orders on bases and independent sets.

Three classical partial orders on the bases (external, internal, and the external/internal
order refining both), the extension of the external/internal order to all independent sets,
its block-flipped variant, linear extensions (counted over down-sets up to a cap, enumerated
or sampled), lattice operations and boolean cover intervals.

Each order has one definition here, and :func:`build_poset` materializes it once per matroid
as rows that are ANDs of column bitsets; other code reads the relation from that poset.
:func:`poset_certificate` checks its rows against equivalent forms, a row at a time, for the suite.
"""

from __future__ import annotations

import random
from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import or_

from .activity import _related_blocks, activity_profile, nbc_sets, related_basis
from .bitsets import columns, containment_rows, iter_bits, submasks, subset_label, subset_str
from .errors import EquivalenceMismatch, LatticeFailure, NoLinearExtension, NotABasis, NotACover
from .matroid import Matroid, memoized

BASIS_ORDER_KINDS = ("ext", "int", "extint")
POSET_KINDS = ("ext-bases", "int-bases", "extint-bases", "extint-ind", "flip-ind", "nbc-extint")


# -- comparisons ---------------------------------------------------------------


def compare_bases(matroid: Matroid, kind: str, a: int, b: int) -> bool:
    """Whether a <= b for bases in the external/internal/combined order: one bit
    of the rows of :func:`build_poset`, the one definition of each basis order."""
    if kind not in BASIS_ORDER_KINDS:
        raise ValueError(f"unknown basis order {kind!r}")
    for s in (a, b):
        if not matroid.is_basis(s):
            raise NotABasis(subset_str(s, matroid.n))
    return build_poset(matroid, f"{kind}-bases").leq(a, b)


def _key(matroid: Matroid, s: int) -> int:
    """key(S) = S∖IA(S)∪EA(S) = IP(S)∪EA(S): sets with different related bases
    compare by containment of their keys in both orders on independent sets."""
    p = activity_profile(matroid, s)
    return p.ip | p.ea


def leq_extint_ind(matroid: Matroid, i: int, k: int) -> bool:
    """The external/internal order extended to independent sets.

    Internally related sets compare by containment; unrelated sets compare by
    inclusion of I∖IA(I)∪EA(I) in the corresponding set for K.
    """
    if related_basis(matroid, i) == related_basis(matroid, k):
        return i & ~k == 0
    return _key(matroid, i) & ~_key(matroid, k) == 0


def leq_flip_ind(matroid: Matroid, i: int, k: int) -> bool:
    """Variant of the order on independent sets with each boolean block flipped."""
    if related_basis(matroid, i) == related_basis(matroid, k):
        return k & ~i == 0
    return _key(matroid, i) & ~_key(matroid, k) == 0


# -- materialized posets ---------------------------------------------------------


class Poset:
    """A finite poset on subset masks with a materialized comparability matrix.

    ``up_rows[i]`` is a bitmask over element indices j with elements[i] <= elements[j],
    taken as given.
    """

    def __init__(self, elements: tuple[int, ...], up_rows: tuple[int, ...]):
        self.elements = elements
        self.up_rows = up_rows
        self.index = {e: i for i, e in enumerate(elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, a: int, b: int) -> bool:
        return self.up_rows[self.index[a]] >> self.index[b] & 1 == 1

    def restricted_rows(self, elements: Sequence[int]) -> list[int]:
        """Up-rows of the sub-order on ``elements``: their down-rows' columns at their indexes."""
        cols = columns([self.down_rows[self.index[e]] for e in elements], len(self))
        return [cols[self.index[e]] for e in elements]

    @cached_property
    def down_rows(self) -> tuple[int, ...]:
        """The columns of ``up_rows``."""
        return tuple(columns(self.up_rows, len(self)))

    @cached_property
    def element_by_rows(self) -> tuple[dict[int, int], dict[int, int]]:
        """Each element keyed by its down-row, and keyed by its up-row."""
        return dict(zip(self.down_rows, self.elements)), dict(zip(self.up_rows, self.elements))

    @cached_property
    def cover_tables(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int]:
        """Each index's number of lower covers and its upper covers (its strict up-set minus
        all strictly above some element of it), and the bitset of the minimal elements."""
        strict = [row & ~(1 << i) for i, row in enumerate(self.up_rows)]
        below, upper = [0] * len(strict), []
        for row in strict:
            above, rest = 0, row
            while rest:  # what lies above a visited j adds nothing: its up-set is in strict[j]
                j = (rest & -rest).bit_length() - 1
                above |= strict[j]
                rest &= ~(above | 1 << j)
            upper.append(tuple(iter_bits(row & ~above)))
            for j in upper[-1]:
                below[j] += 1
        minimal = ((1 << len(strict)) - 1) & ~reduce(or_, strict, 0)  # in no other up-row
        return tuple(below), tuple(upper), minimal

    @cached_property
    def cover_index_pairs(self) -> tuple[tuple[int, int], ...]:
        """(i, j) with elements[j] covering elements[i], sorted."""
        return tuple((i, j) for i, js in enumerate(self.cover_tables[1]) for j in js)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover relations as (lower, upper) element pairs."""
        return tuple((self.elements[i], self.elements[j]) for i, j in self.cover_index_pairs)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Length of the longest chain below each element (for Hasse ranking), pushed up
        the upper covers along the first linear extension: O(covers) besides the tables."""
        h = [0] * len(self)
        for i in map(self.index.get, _greedy_extension(self, (0).__mul__)):
            for j in self.cover_tables[1][i]:
                h[j] = max(h[j], h[i] + 1)
        return tuple(h)


@memoized
def build_poset(matroid: Matroid, kind: str) -> Poset:
    """Materialize one of the active orders; memoized per matroid and kind.

    Basis orders are containments: ext A ⊆ B∪EA(B), int A∖IA(A) ⊆ B, extint
    IP(A) ⊆ B∪EA(B) (iff IP(A) ∩ EP(B) = ∅).  On independent sets a row is
    containment (of complements when flipped) among sets with the same related
    basis, and containment of I∖IA(I)∪EA(I) among the others.
    """
    n = matroid.n
    if kind in ("ext-bases", "int-bases", "extint-bases"):
        elements = matroid.bases
        profs = [activity_profile(matroid, b) for b in elements]
        closed = [b | p.ea for b, p in zip(elements, profs)]
        if kind == "ext-bases":
            rows = containment_rows(elements, closed, n)
        elif kind == "int-bases":
            rows = containment_rows([b & ~p.ia for b, p in zip(elements, profs)], elements, n)
        else:
            rows = containment_rows([p.ip for p in profs], closed, n)
    elif kind in ("extint-ind", "flip-ind", "nbc-extint"):
        elements = nbc_sets(matroid) if kind == "nbc-extint" else matroid.independent_sets
        bases, blocks = _related_blocks(matroid, elements)
        keys = [_key(matroid, i) for i in elements]
        sets = [matroid.full_mask & ~i for i in elements] if kind == "flip-ind" else elements
        within = containment_rows(sets, sets, n)
        across = containment_rows(keys, keys, n)
        rows = [w & blocks[b] | a & ~blocks[b] for w, a, b in zip(within, across, bases)]
    else:
        raise ValueError(f"unknown poset kind {kind!r}")
    return Poset(elements, tuple(rows))


# -- the poset-axioms certificate ------------------------------------------------


def poset_axiom_violation(poset: Poset, n: int) -> str:
    """The first failure of reflexivity, antisymmetry or transitivity, or "".  Rows are a
    partial order iff each i has up(i) ∧ down(i) = {i} and up(i) = {i} ∪ ⋃ up(u) over its
    upper covers u (so no cycle of covers, and transitivity by induction upward): O(N + covers)
    row operations.  A failure runs the per-pair scan, to name it."""
    rows, elems, down, upper = poset.up_rows, poset.elements, poset.down_rows, poset.cover_tables[1]
    if all(
        row & down[i] == 1 << i and row == reduce(or_, [rows[u] for u in upper[i]], 1 << i)
        for i, row in enumerate(rows)
    ):
        return ""
    for i, row in enumerate(rows):
        a = subset_label(elems[i], n)
        if not row >> i & 1:
            return f"not reflexive at {a}"
        for j in iter_bits(row & ~(1 << i)):
            if rows[j] >> i & 1:
                return f"not antisymmetric on {a}, {subset_label(elems[j], n)}"
            if rows[j] & ~row:
                return f"not transitive from {a} through {subset_label(elems[j], n)}"
    raise EquivalenceMismatch("the cover certificate of the poset axioms fails, the scan passes")


def _row_disagreement(elems, rows, expected, n: int) -> str:
    """The first row a, and its lowest bit b, where ``rows`` and ``expected`` differ, or ""."""
    for a, row, want in zip(elems, rows, expected):
        if row != want:
            b = elems[((row ^ want) & -(row ^ want)).bit_length() - 1]
            return f"row disagrees with its definition on {subset_label(a, n)}, {subset_label(b, n)}"
    return ""


def poset_certificate(matroid: Matroid, posets: dict[str, Poset]) -> str:
    """The detail of the suite's ``poset-axioms`` finding on the posets of
    :data:`POSET_KINDS`, keyed by kind, or "": the six orders are partial
    orders, and their rows are those of one block form.  Each order is a union
    of blocks, one per related basis (Las Vergnas, "Active orders for matroid
    bases", 2001).  Outside the block of A, I lies below the blocks of the
    bases C whose ``out`` contains A's: A∪EA(A) for ``ext-bases``, A∖IA(A) for
    ``int-bases``, and key(A) = A∖IA(A)∪EA(A) = IP(A)∪EA(A) for the other four,
    which needs key(I) = key(RB(I)) for every I.  Inside it, Crapo's deletion
    sets give I = A∖Y_I ≤ K = A∖Y_K iff Y_K ⊆ Y_I, that is I ⊆ K, and the
    reverse when flipped: ``ins`` is E∖Y_I = (E∖A)∪I, or Y_I when flipped.  A
    basis is its own related basis, with Y = ∅, so a basis order is the block
    form with singleton blocks.  A failure names the pair a per-pair scan
    names, or the first I whose key is not RB(I)'s."""
    n, full, ind = matroid.n, matroid.full_mask, posets["extint-ind"]
    key_break = next(
        (f"key of {subset_label(i, n)} is not that of its related basis {subset_label(a, n)}"
         for i, a in zip(ind.elements, _related_blocks(matroid, ind.elements)[0])
         if _key(matroid, i) != _key(matroid, a)),
        "",
    )
    for kind, poset in posets.items():
        elems = poset.elements
        related, blocks = _related_blocks(matroid, elems)
        form = {
            a: (a | p.ea if kind == "ext-bases" else a & ~p.ia if kind == "int-bases"
                else p.ip | p.ea)
            for a, p in zip(blocks, map(partial(activity_profile, matroid), blocks))
        }
        out = [form[a] for a in related]
        ins = [a & ~i if kind == "flip-ind" else full & ~a | i for i, a in zip(elems, related)]
        rows = zip(related, containment_rows(out, out, n), containment_rows(ins, ins, n))
        expected = (o & ~blocks[a] | w & blocks[a] for a, o, w in rows)
        violation = (
            poset_axiom_violation(poset, n)
            or not kind.endswith("-bases") and key_break
            or _row_disagreement(elems, poset.up_rows, expected, n)
        )
        if violation:
            return f"{kind}: {violation}"
    return ""


# -- linear extensions -----------------------------------------------------------


@dataclass
class ExtensionSample:
    """Linear extensions of a poset: all of them, or a seeded sample."""

    orders: list[tuple[int, ...]]
    exhaustive: bool


def _place(poset: Poset, placed: int, avail: int, i: int) -> tuple[int, int]:
    """The placed and available bitsets after placing the available i on the down-set ``placed``."""
    placed |= 1 << i
    for j in poset.cover_tables[1][i]:  # no element but an upper cover of i can become available
        if not poset.down_rows[j] & ~(placed | 1 << j):
            avail |= 1 << j
    return placed, avail ^ 1 << i


def _count_extensions(poset: Poset, limit: int) -> int:
    """e(∅), the number of linear extensions, or a number above ``limit`` if there are more:
    e(D) = Σ e(D ∪ i) over the minimal unplaced i, memoized per down-set D on an explicit stack
    of [D, available, untried, sum so far] lists; each sum stops once past ``limit``."""
    first = poset.cover_tables[2]
    memo, stack = {(1 << len(poset)) - 1: 1}, [[0, first, first, 0]]
    while stack:
        placed, avail, untried, total = node = stack[-1]
        if untried and total <= limit and placed not in memo:
            low = untried & -untried
            node[2] ^= low
            down_set, avail = _place(poset, placed, avail, low.bit_length() - 1)
            stack.append([down_set, avail, avail, 0])
        else:
            total = memo.setdefault(stack.pop()[0], total)
            if stack:
                stack[-1][3] += total
    return total


def _enumerate_extensions(poset: Poset) -> list[tuple[int, ...]]:
    """Every linear extension, by backtracking that places the lowest available index first,
    on an explicit stack: for each prefix, the bitsets of the placed, the available and the
    untried elements, and the index placed next, so the entries below a full prefix spell it."""
    first, size = poset.cover_tables[2], len(poset)
    found, stack = [], [(0, first, first, 0)]
    while stack:
        placed, avail, untried, _ = stack.pop()
        if len(stack) == size:
            found.append(tuple(poset.elements[entry[3]] for entry in stack))
        elif untried:
            i = (untried & -untried).bit_length() - 1
            stack.append((placed, avail, untried ^ 1 << i, i))
            placed, avail = _place(poset, placed, avail, i)
            stack.append((placed, avail, avail, 0))
    return found


def _greedy_extension(poset: Poset, bits) -> tuple[int, ...]:
    """Place ``avail[r]``, r = ``bits(n.bit_length())`` drawn again while r >= n = len(avail),
    until all are placed: ``random.Random.choice``'s draw on ``avail``, the available indexes in
    order, which gains an index once its lower covers are placed (they form a down-set)."""
    below, upper, minimal = poset.cover_tables
    below, avail, order = list(below), list(iter_bits(minimal)), []
    for _ in poset.elements:
        if not avail:  # the rows hold a cycle
            raise NoLinearExtension(f"no linear extension of the {len(poset)} elements")
        n = r = len(avail)
        while r >= n:
            r = bits(n.bit_length())
        i = avail.pop(r)
        order.append(poset.elements[i])
        for j in upper[i]:
            below[j] -= 1
            if not below[j]:
                insort(avail, j)
    return tuple(order)


def first_extension(poset: Poset) -> tuple[int, ...]:
    """The first order :func:`linear_extensions` enumerates: the lexicographically first."""
    return _greedy_extension(poset, (0).__mul__)  # bits that are always 0: the first index


def random_extension(poset: Poset, rng: random.Random) -> tuple[int, ...]:
    """One random linear extension by random topological sorting on cover tables built once per
    poset.  Its ``avail`` is the list a rescan at every step would build and each step draws what
    ``rng.choice`` on it draws, so a seed gives the rescan's orders (``tests/test_oracles.py``);
    ``rng`` is a ``random.Random`` whose ``choice`` reads ``getrandbits``, not ``random()``."""
    return _greedy_extension(poset, rng.getrandbits)


def linear_extensions(poset: Poset, cap: int = 200, seed: int = 0) -> ExtensionSample:
    """All linear extensions if there are at most ``cap``, else ``cap`` samples, as a count over
    down-sets capped at ``cap`` decides: lexicographic backtracking, or seeded random topological
    sorting (for coverage, not uniformity); both place an element only after all below it."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if _count_extensions(poset, cap) <= cap:
        return ExtensionSample(_enumerate_extensions(poset), exhaustive=True)
    rng = random.Random(seed)
    return ExtensionSample([random_extension(poset, rng) for _ in range(cap)], exhaustive=False)


# -- lattice structure ------------------------------------------------------------


def poset_meet_join(poset: Poset, a: int, b: int) -> tuple[int, int]:
    """Greatest lower bound and least upper bound in a materialized poset:
    the elements whose down-row is down(a) ∧ down(b) and whose up-row is
    up(a) ∧ up(b), unique by antisymmetry; a missing one raises LatticeFailure."""
    (by_down, by_up), x, y = poset.element_by_rows, poset.index[a], poset.index[b]
    glb = by_down.get(poset.down_rows[x] & poset.down_rows[y])
    lub = by_up.get(poset.up_rows[x] & poset.up_rows[y])
    if None in (glb, lub):
        raise LatticeFailure("no greatest lower bound" if glb is None else "no least upper bound")
    return glb, lub


def meet_join_ind(matroid: Matroid, i: int, k: int) -> tuple[int, int]:
    """Meet and join of two independent sets in the external/internal order, O(1) a call:
    related sets by intersection and union, comparable ones (one bit of an ``extint-ind``
    row) at the lower and the upper set, and sets related to incomparable bases A, C at the
    basis A ∧ C and at IP(A ∨ C), the bottom of the block of A ∨ C."""
    a, c = related_basis(matroid, i), related_basis(matroid, k)  # each raises NotIndependent
    if a == c:
        return i & k, i | k
    ind = build_poset(matroid, "extint-ind")
    x, y = ind.index[i], ind.index[k]
    if ind.up_rows[x] >> y & 1:
        return i, k
    if ind.down_rows[x] >> y & 1:
        return k, i
    meet, join = poset_meet_join(build_poset(matroid, "extint-bases"), a, c)
    return meet, activity_profile(matroid, join).ip


def boolean_interval(matroid: Matroid, b: int, c: int) -> tuple[int, ...]:
    """The interval (B, C] for a basis cover B ⋖ C, as a boolean block.

    Returns {S ∪ IP(C) : S ⊆ IA(C)} sorted by mask, after verifying both that
    C covers B, i.e. B < C with up(B) ∧ down(C) = {B, C} in the bases poset,
    and that the set equals up(B) ∧ down(C) ∖ {B} in the ``extint-ind`` rows.
    """
    bases_poset = build_poset(matroid, "extint-bases")
    x, y = bases_poset.index.get(b), bases_poset.index.get(c)
    if None in (x, y) or bases_poset.up_rows[x] & bases_poset.down_rows[y] & ~(1 << x) != 1 << y:
        raise NotACover(f"{subset_str(c, matroid.n)} does not cover {subset_str(b, matroid.n)}")
    prof = activity_profile(matroid, c)
    block = tuple(sorted(s | prof.ip for s in submasks(prof.ia)))
    ind = build_poset(matroid, "extint-ind")
    x, y = ind.index[b], ind.index[c]
    interval = ind.up_rows[x] & ind.down_rows[y] & ~(1 << x)
    if block != tuple(ind.elements[z] for z in iter_bits(interval)):
        raise EquivalenceMismatch(
            f"boolean block differs from order interval above {subset_str(b, matroid.n)}"
        )
    return block
