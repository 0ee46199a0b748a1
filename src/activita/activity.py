"""External/internal activities, Crapo's decomposition, and broken circuits.

An element e outside S is externally active for S when some circuit inside
S ∪ {e} has e as its maximum: defined by circuits, computed by closure.
Internal activity is external activity of the complement in the dual matroid,
the normative route here (the exchange characterization for bases is kept as
an independent cross-check).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import containment_rows, iter_bits, max_elem, submasks, subset_label, subset_str
from .errors import (
    DecompositionNotFound,
    DecompositionNotUnique,
    NotABasis,
    NotIndependent,
)
from .matroid import Matroid, memoized


@dataclass(frozen=True)
class ActivityProfile:
    """The four activity sets of a subset S: EA ⊔ EP = E∖S and IA ⊔ IP = S."""

    ea: int
    ep: int
    ia: int
    ip: int


@dataclass(frozen=True)
class CrapoDecomposition:
    """The unique way of writing S as basis ∖ y ∪ x with y ⊆ IA, x ⊆ EA."""

    basis: int
    x: int
    y: int


def externally_active(matroid: Matroid, subset: int) -> int:
    """Mask of externally active elements for a subset, by closure.

    e ∉ S is active iff S ∩ [1, e) spans e (Björner 1992, §7.3), since a
    circuit of S ∪ e with maximum e lies in (S ∩ [1, e)) ∪ e.  One pass over
    e = 1..n keeps ``span``, a greedy basis of S ∩ [1, e), whose closure is
    that of S ∩ [1, e): each element left out depended on it.  So e ∉ S is
    active iff span ∪ e is dependent: n independence tests.
    """
    independent = matroid.is_independent
    span = active = 0
    bit, top = 1, 1 << matroid.n
    while bit < top:
        if subset & bit:
            if independent(span | bit):
                span |= bit
        elif not independent(span | bit):
            active |= bit
        bit <<= 1
    return active


@memoized
def activity_profile(matroid: Matroid, subset: int) -> ActivityProfile:
    """All four activity sets of a subset, memoized per matroid."""
    full = matroid.full_mask
    ea = externally_active(matroid, subset)
    ia = externally_active(matroid.dual, full & ~subset)
    return ActivityProfile(ea=ea, ep=full & ~subset & ~ea, ia=ia, ip=subset & ~ia)


def activity_profile_by_exchange(matroid: Matroid, basis: int) -> ActivityProfile:
    """Activity of a basis via the exchange characterization (cross-check oracle).

    e ∉ B is externally active iff no larger e' ∈ B gives a basis B∖e'∪e;
    e ∈ B is internally active iff no larger e' ∉ B gives a basis B∖e∪e'.
    Either way the exchange is B △ {e, e'} with e' on the other side of B.
    """
    if not matroid.is_basis(basis):
        raise NotABasis(f"{subset_str(basis, matroid.n)} is not a basis")
    full, active = matroid.full_mask, 0
    for e in range(1, matroid.n + 1):
        ebit = 1 << (e - 1)
        others = full & ~((ebit << 1) - 1) & (~basis if basis & ebit else basis)
        if not any(matroid.is_basis(basis ^ ebit ^ 1 << x) for x in iter_bits(others)):
            active |= ebit
    ea, ia = active & ~basis, active & basis
    return ActivityProfile(ea=ea, ep=full & ~basis & ~ea, ia=ia, ip=basis & ~ia)


def crapo_decompose_subset(matroid: Matroid, subset: int) -> CrapoDecomposition:
    """Unique (B, X ⊆ EA(B), Y ⊆ IA(B)) with subset = B∖Y ∪ X, found by scanning the
    bases for the intervals [B∖IA(B), B∪EA(B)] that hold it: O(B) a call."""
    hits = []
    for b in matroid.bases:
        prof = activity_profile(matroid, b)
        if not b & ~prof.ia & ~subset and not subset & ~(b | prof.ea):
            hits.append(b)
    if len(hits) != 1:
        label = subset_label(subset, matroid.n)
        if hits:
            raise DecompositionNotUnique(f"{len(hits)} Crapo decompositions of {label}")
        raise DecompositionNotFound(f"no Crapo decomposition of {label}")
    return CrapoDecomposition(basis=hits[0], x=subset & ~hits[0], y=hits[0] & ~subset)


def crapo_decompositions(matroid: Matroid) -> list[CrapoDecomposition]:
    """Every subset's decomposition, by marking each basis's interval on a table of all 2^n
    subsets (O(2^n) time and memory); where none or two mark one, the scan raises its error."""
    table = [-1] * (1 << matroid.n)  # -1: no basis yet, -2: two bases
    for b in matroid.bases:
        prof = activity_profile(matroid, b)
        for sub in submasks(prof.ea | prof.ia):
            table[b & ~prof.ia | sub] = b if table[b & ~prof.ia | sub] == -1 else -2
    return [
        CrapoDecomposition(b, s & ~b, b & ~s) if b >= 0 else crapo_decompose_subset(matroid, s)
        for s, b in enumerate(table)
    ]


@memoized
def related_basis(matroid: Matroid, indep: int) -> int:
    """The basis internally related to an independent set, memoized.

    It is the greedy completion of the set: scan the elements from n down to 1
    and add each one that keeps the set independent.  The result B is a basis
    containing I, and B∖I ⊆ IA(B): an element e of B∖I is internally passive
    only if B∖e∪e' is a basis for some larger e' ∉ B, but e' was rejected when
    the set held only I and elements of B above e', all inside B∖e.  By the
    uniqueness of Crapo's decomposition I = B∖Y with Y ⊆ IA(B) (Crapo 1969;
    Björner 1992) this B is the related basis: (B, 0, B∖I) is the decomposition
    :func:`crapo_decompose_subset` must agree with.  O(n) independence tests.
    """
    if not matroid.is_independent(indep):
        raise NotIndependent(subset_str(indep, matroid.n))
    basis = indep
    for e in range(matroid.n, 0, -1):
        bit = 1 << (e - 1)
        if not basis & bit and matroid.is_independent(basis | bit):
            basis |= bit
    return basis


def flip_involution(matroid: Matroid, indep: int) -> int:
    """Flip an independent set inside its boolean block: S∪IP ↦ (IA∖S)∪IP."""
    prof = activity_profile(matroid, related_basis(matroid, indep))
    return (prof.ia & ~indep) | prof.ip


@memoized
def _related_blocks(matroid: Matroid, elements: tuple[int, ...]) -> tuple[list, dict]:
    """The related basis of each element, and each basis's block: the bitset
    of the elements related to it; memoized per matroid and elements."""
    bases, blocks = [], {}
    for y, i in enumerate(elements):
        bases.append(related_basis(matroid, i))
        blocks[bases[-1]] = blocks.get(bases[-1], 0) | 1 << y
    return bases, blocks


@memoized
def broken_circuits(matroid: Matroid) -> tuple[int, ...]:
    """Circuits with their maximum element removed, deduplicated, sorted, memoized."""
    return tuple(sorted({circ ^ (1 << (max_elem(circ) - 1)) for circ in matroid.circuits}))


def is_nbc(matroid: Matroid, subset: int) -> bool:
    """True iff the subset contains no broken circuit."""
    return all(bc & ~subset for bc in broken_circuits(matroid))


@memoized
def nbc_sets(matroid: Matroid) -> tuple[int, ...]:
    """All nbc sets, sorted by mask value (always independent sets), memoized: the sets in no
    row of :func:`containment_rows` of the broken circuits against the independent sets."""
    sets, broken = matroid.independent_sets, 0
    for row in containment_rows(broken_circuits(matroid), sets, matroid.n):
        broken |= row
    return tuple(s for y, s in enumerate(sets) if not broken >> y & 1)
