"""Las Vergnas active orders on bases and independent sets.

Three classical partial orders on the bases (external, internal, and the
external/internal order refining both), the extension of the external/internal
order to all independent sets, its block-flipped variant, linear-extension
enumeration and sampling, lattice operations, boolean cover intervals, and the
flip involution.

Each order has one definition here, and :func:`build_poset` materializes it
once per matroid as rows that are ANDs of column bitsets, O(m·n) big-int
operations on m elements; other code reads the relation from that poset.
:func:`poset_certificate` checks every row against the definition (by
related-basis blocks on independent sets), the equivalent forms and the
poset axioms for the suite's ``poset-axioms`` finding, once per matroid.
"""

from __future__ import annotations

import random
from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import and_

from .activity import activity_profile, nbc_sets, related_basis
from .bitsets import iter_bits, submasks, subset_label, subset_str
from .errors import (
    EquivalenceMismatch, LatticeFailure, NoLinearExtension, NotABasis, NotACover, NotIndependent
)
from .matroid import Matroid, memoized

BASIS_ORDER_KINDS = ("ext", "int", "extint")
POSET_KINDS = ("ext-bases", "int-bases", "extint-bases", "extint-ind", "flip-ind", "nbc-extint")


# -- pairwise comparisons ------------------------------------------------------


def compare_bases(matroid: Matroid, kind: str, a: int, b: int) -> bool:
    """Whether a <= b for bases in the external/internal/combined order.

    ext: A ⊆ B ∪ EA(B); int: A∖IA(A) ⊆ B; extint: IP(A) ∩ EP(B) = ∅.
    """
    if kind not in BASIS_ORDER_KINDS:
        raise ValueError(f"unknown basis order {kind!r}")
    for x in (a, b):
        if not matroid.is_basis(x):
            raise NotABasis(subset_str(x, matroid.n))
    pa = activity_profile(matroid, a)
    pb = activity_profile(matroid, b)
    if kind == "ext":
        return a & ~(b | pb.ea) == 0
    if kind == "int":
        return (a & ~pa.ia) & ~b == 0
    return pa.ip & pb.ep == 0


def _key(matroid: Matroid, s: int) -> int:
    """key(S) = S∖IA(S)∪EA(S): sets with different related bases compare by
    containment of their keys in both orders on independent sets."""
    p = activity_profile(matroid, s)
    return (s & ~p.ia) | p.ea


def _related_blocks(matroid: Matroid, elements: Sequence[int]) -> tuple[list[int], dict[int, int]]:
    """The related basis of each element, and each basis's block: the bitset
    of the elements related to it."""
    bases, blocks = [], {}
    for y, i in enumerate(elements):
        bases.append(related_basis(matroid, i))
        blocks[bases[-1]] = blocks.get(bases[-1], 0) | 1 << y
    return bases, blocks


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

    @cached_property
    def down_rows(self) -> tuple[int, ...]:
        """The columns of ``up_rows``: each row in binary, lowest bit first, read by column."""
        bits = [format(row, f"0{len(self.up_rows)}b")[::-1] for row in reversed(self.up_rows)]
        return tuple(int("".join(col), 2) for col in zip(*bits))

    @cached_property
    def down_row_index(self) -> dict[int, int]:
        """Element index keyed by its down-row."""
        return {row: i for i, row in enumerate(self.down_rows)}

    @cached_property
    def up_row_index(self) -> dict[int, int]:
        """Element index keyed by its up-row."""
        return {row: i for i, row in enumerate(self.up_rows)}

    @cached_property
    def cover_index_pairs(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction: (i, j) with elements[j] covering elements[i],
        sorted.  The covers of i are its strict up-set minus everything
        strictly above some element of it."""
        strict = [row & ~(1 << i) for i, row in enumerate(self.up_rows)]
        out = []
        for i, row in enumerate(strict):
            above = 0
            for j in iter_bits(row):
                above |= strict[j]
            out.extend((i, j) for j in iter_bits(row & ~above))
        return tuple(out)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover relations as (lower, upper) element pairs."""
        return tuple(
            (self.elements[i], self.elements[j]) for i, j in self.cover_index_pairs
        )

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Length of the longest chain below each element (for Hasse ranking),
        pushed up the strict up-rows along a linear extension: an element
        comes after every element whose up-set is larger."""
        h = [0] * len(self.elements)
        for i in sorted(range(len(h)), key=lambda i: -self.up_rows[i].bit_count()):
            for j in iter_bits(self.up_rows[i] & ~(1 << i)):
                h[j] = max(h[j], h[i] + 1)
        return tuple(h)


def _containment_rows(need: Sequence[int], have: Sequence[int], n: int) -> list[int]:
    """Row x = {y : need[x] ⊆ have[y]}: the AND over e ∈ need[x] of the
    column bitset {y : e ∈ have[y]}, once per distinct need."""
    cols = [sum(1 << y for y, h in enumerate(have) if h >> e & 1) for e in range(n)]
    full = (1 << len(have)) - 1
    rows = {a: reduce(and_, [cols[e] for e in iter_bits(a)], full) for a in set(need)}
    return [rows[a] for a in need]


@memoized
def build_poset(matroid: Matroid, kind: str) -> Poset:
    """Materialize one of the active orders; memoized per matroid and kind.

    Basis orders are containments (extint: IP(A) ∩ EP(B) = ∅ iff IP(A) ⊆
    B∪EA(B)).  On independent sets a row is containment (of complements when
    flipped) among sets with the same related basis, and containment of
    I∖IA(I)∪EA(I) among the others.
    """
    n = matroid.n
    if kind in ("ext-bases", "int-bases", "extint-bases"):
        elements = matroid.bases
        profs = [activity_profile(matroid, b) for b in elements]
        closed = [b | p.ea for b, p in zip(elements, profs)]
        if kind == "ext-bases":
            rows = _containment_rows(elements, closed, n)
        elif kind == "int-bases":
            rows = _containment_rows([b & ~p.ia for b, p in zip(elements, profs)], elements, n)
        else:
            rows = _containment_rows([p.ip for p in profs], closed, n)
    elif kind in ("extint-ind", "flip-ind", "nbc-extint"):
        elements = nbc_sets(matroid) if kind == "nbc-extint" else matroid.independent_sets
        bases, blocks = _related_blocks(matroid, elements)
        keys = [_key(matroid, i) for i in elements]
        sets = [matroid.full_mask & ~i for i in elements] if kind == "flip-ind" else elements
        within = _containment_rows(sets, sets, n)
        across = _containment_rows(keys, keys, n)
        rows = [w & blocks[b] | a & ~blocks[b] for w, a, b in zip(within, across, bases)]
    else:
        raise ValueError(f"unknown poset kind {kind!r}")
    return Poset(elements, tuple(rows))


# -- the poset-axioms certificate ------------------------------------------------


def poset_axiom_violation(poset: Poset, n: int) -> str:
    """The first failure of reflexivity, antisymmetry or transitivity, or ""."""
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


def _row_disagreement(elems, rows, expected, n: int, what: str) -> str:
    """``what`` on "a, b" for the first row a, and its lowest bit b, where
    ``rows`` and ``expected`` differ, or ""."""
    for a, row, want in zip(elems, rows, expected):
        if row != want:
            low = (row ^ want) & -(row ^ want)
            return f"{what} on {subset_label(a, n)}, {subset_label(elems[low.bit_length() - 1], n)}"
    return ""


def poset_certificate(matroid: Matroid, posets: dict[str, Poset]) -> str:
    """The detail of the suite's ``poset-axioms`` finding on the posets of
    :data:`POSET_KINDS`, keyed by kind, or "" when it passes: the six orders
    are partial orders, every row agrees with the order's definition, and the
    basis orders with their equivalent forms.  ``extint-ind`` and ``flip-ind``
    compare sets with the same related basis by containment and others by
    key(I) ⊆ key(K), key(S) = S∖IA(S)∪EA(S), so they are certified by
    related-basis blocks.  The finding requires key(I) = key(RB(I)) for every
    I (Las Vergnas, "Active orders for matroid bases", 2001), or names I.
    Then the definition's row of I in the block of A is ``rel`` inside it
    and, outside, the union of the blocks of the bases C ≠ A with key(A) ⊆
    key(C): each row is the definition's own row, at Σ|block|² calls of
    ``rel``, and a failure names the pair a per-pair scan names.
    """
    n, bases, ind = matroid.n, matroid.bases, posets["extint-ind"]
    definitions = {
        **{f"{k}-bases": partial(compare_bases, matroid, k) for k in BASIS_ORDER_KINDS},
        "extint-ind": partial(leq_extint_ind, matroid),
        "flip-ind": partial(leq_flip_ind, matroid),
        "nbc-extint": ind.leq,  # extint-ind restricted to nbc sets
    }
    related, blocks = _related_blocks(matroid, ind.elements)
    keys = [_key(matroid, b) for b in bases]
    above = {  # basis A: the union of the blocks of the bases C ≠ A with key(A) ⊆ key(C)
        a: sum(blocks[c] for c, kc in zip(bases, keys) if c != a and not ka & ~kc)
        for a, ka in zip(bases, keys)
    }
    key_break = next(
        (f"key of {subset_label(i, n)} is not that of its related basis {subset_label(a, n)}"
         for i, a in zip(ind.elements, related) if _key(matroid, i) != _key(matroid, a)),
        "",
    )
    for kind, poset in posets.items():
        elems, rel, blocked = poset.elements, definitions[kind], kind in ("extint-ind", "flip-ind")
        if blocked:  # rel inside each block, the blocks above it outside
            expected = (
                above[a] | sum(1 << y for y in iter_bits(blocks[a]) if rel(i, elems[y]))
                for i, a in zip(elems, related)
            )
        else:
            expected = (sum(1 << y for y, b in enumerate(elems) if rel(a, b)) for a in elems)
        violation = (
            poset_axiom_violation(poset, n)
            or blocked and key_break
            or _row_disagreement(
                elems, poset.up_rows, expected, n, "row disagrees with its definition"
            )
        )
        if violation:
            return f"{kind}: {violation}"
    profiles = [activity_profile(matroid, b) for b in bases]
    forms = [0] * len(bases)  # where a basis order and one of its equivalent forms differ
    for kind, sets in (
        ("ext-bases", [b | p.ea for b, p in zip(bases, profiles)]),  # A∪EA(A) ⊆ B∪EA(B)
        ("int-bases", [b & ~p.ia for b, p in zip(bases, profiles)]),  # A∖IA(A) ⊆ B∖IA(B)
        ("extint-bases", keys),  # key(A) ⊆ key(B)
        ("extint-bases", [p.ip | p.ea for p in profiles]),  # IP(A)∪EA(A) ⊆ IP(B)∪EA(B)
    ):
        wants = _containment_rows(sets, sets, n)
        forms = [f | row ^ want for f, row, want in zip(forms, posets[kind].up_rows, wants)]
    what = "equivalent forms of the basis orders disagree"
    return _row_disagreement(bases, forms, [0] * len(forms), n, what)


# -- linear extensions -----------------------------------------------------------


@dataclass
class ExtensionSample:
    """Linear extensions of a poset: all of them, or a seeded sample."""

    orders: list[tuple[int, ...]]
    exhaustive: bool


def _enumerate_extensions(poset: Poset, limit: int):
    """Backtracking enumeration, choosing the minimal available element first,
    on an explicit stack: for each placed prefix, the bitsets of the placed,
    the available and the not yet tried elements."""
    m = len(poset.elements)
    up, down = poset.up_rows, poset.down_rows
    found, prefix = [], [0] * m
    avail = sum(1 << i for i in range(m) if not down[i] & ~(1 << i))
    stack = [(0, avail, avail)]
    while stack:
        placed, avail, untried = stack.pop()
        if len(stack) == m:
            found.append(tuple(poset.elements[i] for i in prefix))
            if len(found) > limit:
                return found, False
        elif untried:
            low = untried & -untried
            stack.append((placed, avail, untried ^ low))
            prefix[len(stack) - 1] = i = low.bit_length() - 1
            placed, avail = placed | low, avail ^ low
            above = up[i] & ~placed
            while above:  # j unplaced: nothing above j is available
                j = (above & -above).bit_length() - 1
                if not down[j] & ~placed & ~(1 << j):
                    avail |= 1 << j
                above &= ~(up[j] | 1 << j)
            stack.append((placed, avail, avail))
    return found, True


def first_extension(poset: Poset) -> tuple[int, ...]:
    """The lexicographically first linear extension: the first order that
    :func:`linear_extensions` enumerates (greedy minimal element)."""
    found = _enumerate_extensions(poset, 0)[0]
    if not found:
        raise NoLinearExtension(f"no linear extension of the {len(poset)} elements")
    return found[0]


def random_extension(poset: Poset, rng: random.Random) -> tuple[int, ...]:
    """One random linear extension via random topological sorting.

    The placed elements always form a down-set, so an element is available
    once its lower covers are placed.  ``avail`` lists the available elements
    in index order and is updated as elements are placed, so one order costs
    O(covers) plus the list updates.  It is the list a rescan of the whole
    poset at every step would build, so ``rng.choice`` draws the same orders
    from a seed as that rescan, which ``tests/test_orders.py`` keeps as the
    reference.
    """
    m = len(poset.elements)
    unplaced_below = [0] * m
    upper: list[list[int]] = [[] for _ in range(m)]
    for i, j in poset.cover_index_pairs:
        unplaced_below[j] += 1
        upper[i].append(j)
    avail = [i for i in range(m) if not unplaced_below[i]]
    order = []
    for _ in range(m):
        if not avail:  # the rows hold a cycle
            raise NoLinearExtension(f"no linear extension of the {m} elements")
        i = rng.choice(avail)
        avail.remove(i)
        order.append(poset.elements[i])
        for j in upper[i]:
            unplaced_below[j] -= 1
            if not unplaced_below[j]:
                insort(avail, j)
    return tuple(order)


def linear_extensions(poset: Poset, cap: int = 200, seed: int = 0) -> ExtensionSample:
    """All linear extensions if there are at most ``cap``, else ``cap`` samples.

    Exhaustive enumeration follows lexicographic backtracking order; sampling
    uses seeded random topological sorting (uniformity is not required, only
    coverage diversity).  Both place an element only after everything below
    it, so every emitted order is a linear extension by construction.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    found, completed = _enumerate_extensions(poset, cap)
    if completed:
        return ExtensionSample(found, exhaustive=True)
    rng = random.Random(seed)
    return ExtensionSample([random_extension(poset, rng) for _ in range(cap)], exhaustive=False)


# -- lattice structure ------------------------------------------------------------


def _bound_rows(poset: Poset, x: int, y: int) -> tuple[int, int]:
    """The row indexes of the glb and lub of the elements at rows x and y."""
    glb = poset.down_row_index.get(poset.down_rows[x] & poset.down_rows[y])
    lub = poset.up_row_index.get(poset.up_rows[x] & poset.up_rows[y])
    if glb is None:
        raise LatticeFailure("no greatest lower bound")
    if lub is None:
        raise LatticeFailure("no least upper bound")
    return glb, lub


def poset_meet_join(poset: Poset, a: int, b: int) -> tuple[int, int]:
    """Greatest lower bound and least upper bound in a materialized poset.

    The glb is the element whose down-row equals the common lower bounds of a
    and b, the lub the element whose up-row equals their common upper bounds;
    rows are distinct by antisymmetry, so each lookup has at most one answer,
    and no answer raises LatticeFailure.
    """
    glb, lub = _bound_rows(poset, poset.index[a], poset.index[b])
    return poset.elements[glb], poset.elements[lub]


@memoized
def _lattice_table(matroid: Matroid) -> tuple:
    """What :func:`meet_join_ind` reads, O(I + B): the ``extint-ind`` up-rows
    and index, the row of each independent set's related basis in the
    ``extint-bases`` poset, that poset, and IP of each basis."""
    ind, bases = build_poset(matroid, "extint-ind"), build_poset(matroid, "extint-bases")
    related = [bases.index[a] for a in _related_blocks(matroid, ind.elements)[0]]
    ips = [activity_profile(matroid, b).ip for b in bases.elements]
    return ind.up_rows, ind.index, related, bases, ips


def meet_join_ind(matroid: Matroid, i: int, k: int) -> tuple[int, int]:
    """Meet and join of two independent sets in the external/internal order.

    Related sets meet and join by intersection and union.  Sets related to
    incomparable bases A, C meet at the basis A ∧ C and join at IP(A ∨ C),
    with the basis meet/join taken in the materialized bases poset; each
    call reads the matroid's lattice table once.  The suite's
    ``lattice-laws`` finding checks every answer against the bounds read
    from the independent-set poset (:func:`poset_meet_join`).
    """
    up, index, related, bases, ips = _lattice_table(matroid)
    x, y = index.get(i), index.get(k)
    if x is None or y is None:
        raise NotIndependent(subset_str(k if x is not None else i, matroid.n))
    a, c = related[x], related[y]
    if a == c:
        return i & k, i | k
    if up[x] >> y & 1:
        return i, k
    if up[y] >> x & 1:
        return k, i
    meet, join = _bound_rows(bases, a, c)
    return bases.elements[meet], ips[join]


def boolean_interval(matroid: Matroid, b: int, c: int) -> tuple[int, ...]:
    """The interval (B, C] for a basis cover B ⋖ C, as a boolean block.

    Returns {S ∪ IP(C) : S ⊆ IA(C)} sorted by mask, after verifying both that
    C covers B, i.e. B < C with up(B) ∧ down(C) = {B, C} in the bases poset,
    and that the set equals up(B) ∧ down(C) ∖ {B} in the ``extint-ind`` rows.
    """
    bases_poset = build_poset(matroid, "extint-bases")
    x, y = bases_poset.index.get(b), bases_poset.index.get(c)
    if None in (x, y) or bases_poset.up_rows[x] & bases_poset.down_rows[y] & ~(1 << x) != 1 << y:
        raise NotACover(
            f"{subset_str(c, matroid.n)} does not cover {subset_str(b, matroid.n)}"
        )
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


def flip_involution(matroid: Matroid, indep: int) -> int:
    """Flip an independent set inside its boolean block: S∪IP ↦ (IA∖S)∪IP."""
    prof = activity_profile(matroid, related_basis(matroid, indep))
    return (prof.ia & ~indep) | prof.ip
