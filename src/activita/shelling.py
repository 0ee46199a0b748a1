"""Shelling verification, restriction sets, property (H), and witnesses.

A facet order F_1..F_s of a pure complex is a shelling when every facet meets
the union of its predecessors in a pure codimension-one complex; concretely,
for every i < k there are j < k and a vertex e of F_k with
F_i ∩ F_k ⊆ F_j ∩ F_k = F_k ∖ e.  The restriction set R_k collects the
vertices v of F_k whose deletion leaves a face of an earlier facet; the
pairwise condition is then equivalent to R_k not being contained in any
earlier facet, i.e. to R_k being a new face at step k (the literal
quantifier form is kept as a brute-force oracle).

The verifier decides this by counting faces.  R_k is the union of F_k ∖ G
over the facets G placed before F_k that share a ridge with it, read from
``SimplicialComplex.neighbours``.  The faces new at step k lie in
[R_k, F_k] and those of all steps partition the complex, so
Σ_k 2^(d−|R_k|) equals the face count iff every R_k is new, i.e. iff the
order is a shelling.  One order of s facets of size d costs O(s·d) plus its
neighbour pairs; the O(s²) scan over earlier facets runs only when the count
differs, to name the first failing pair.  Property (H) reads the first facet
containing each ridge from the same index.

The witness construction produces, for independent sets I, K with
K not below I in the external/internal order, an earlier independent set J
and ground element c with F(I) ∩ F(K) ⊆ F(J) ∩ F(K) = F(K) ∖ z_c.
"""

from __future__ import annotations

from dataclasses import dataclass

from .activity import activity_profile, crapo_decompose_independent, related_basis
from .bitsets import iter_bits, min_elem, submasks, subset_str
from .complexes import Facet, SimplicialComplex, facet_F
from .errors import (
    ComparablePair,
    EquivalenceMismatch,
    NotAPermutation,
    WitnessNotFound,
)
from .matroid import Matroid
from .orders import build_poset


@dataclass
class ShellingReport:
    """Outcome of checking one facet order.

    When the order fails, ``restrictions`` holds the sets for the prefix
    before the first failing facet and the derived fields are None.
    """

    verdict: bool
    failing_pair: tuple[int, int] | None
    restrictions: list[int]
    h_from_restrictions: tuple[int, ...] | None
    matches_complex_h: bool | None
    property_h: bool | None
    h_complex: bool | None


@dataclass(frozen=True)
class Witness:
    """Shelling witness (J, c) for a pair I, K; case records which lemma fired."""

    J: int
    c: int
    case: str
    B: int | None = None


def verify_shelling(
    cx: SimplicialComplex,
    order: list[int] | tuple[int, ...],
    check_properties: bool = True,
) -> ShellingReport:
    """Check a facet order for the shelling property and report restrictions.

    R_k is the union of F_k ∖ G over the neighbours G of F_k placed before
    it.  The faces new at step k lie in [R_k, F_k] (a face of F_k missing a
    vertex v of R_k lies in F_k ∖ v, a face of an earlier facet) and the new
    faces of all steps partition the complex, so Σ_k 2^(d−|R_k|) is at least
    the face count, with equality iff each R_k is new, which is the pairwise
    condition R_k ⊄ F_i for all i < k.  On a shortfall the scan over earlier
    facets names the first failing pair (i, k).
    """
    if sorted(order) != sorted(cx.facets):
        raise NotAPermutation("order is not a permutation of the complex's facets")
    pos = {f: k for k, f in enumerate(order)}
    neighbours = cx.neighbours
    restrictions = []
    for k, fk in enumerate(order):
        rk = 0
        for g in neighbours[fk]:
            if pos[g] < k:
                rk |= fk & ~g
        restrictions.append(rk)
    d = cx.facet_size
    if sum(1 << (d - r.bit_count()) for r in restrictions) != sum(cx.fh.f):
        for k, rk in enumerate(restrictions):
            for i in range(k):
                if rk & ~order[i] == 0:
                    return ShellingReport(
                        verdict=False,
                        failing_pair=(i, k),
                        restrictions=restrictions[:k],
                        h_from_restrictions=None,
                        matches_complex_h=None,
                        property_h=None,
                        h_complex=None,
                    )
        raise EquivalenceMismatch("face count and pairwise scan disagree")
    h = [0] * (d + 1)
    for r in restrictions:
        h[r.bit_count()] += 1
    h_tuple = tuple(h) if order else ()
    report = ShellingReport(
        verdict=True,
        failing_pair=None,
        restrictions=restrictions,
        h_from_restrictions=h_tuple,
        matches_complex_h=h_tuple == cx.fh.h,
        property_h=None,
        h_complex=None,
    )
    if check_properties:
        report.property_h = property_H_check(cx, order, restrictions)
        report.h_complex = h_complex_check(restrictions)
    return report


def verify_shelling_pairwise(
    cx: SimplicialComplex, order: list[int] | tuple[int, ...]
) -> tuple[bool, tuple[int, int] | None]:
    """Literal quantifier form of the shelling condition (brute-force oracle)."""
    if sorted(order) != sorted(cx.facets):
        raise NotAPermutation("order is not a permutation of the complex's facets")
    for k in range(len(order)):
        fk = order[k]
        for i in range(k):
            inter_ik = order[i] & fk
            ok = False
            for j in range(k):
                inter_jk = order[j] & fk
                gone = fk & ~inter_jk
                if gone.bit_count() == 1 and inter_ik & ~inter_jk == 0:
                    ok = True
                    break
            if not ok:
                return False, (i, k)
    return True, None


def restriction_sets_bruteforce(order: list[int] | tuple[int, ...]) -> list[int]:
    """Restriction sets as the unique minimal new face added by each facet.

    Enumerates every face of each facet; exponential in facet size, intended
    as an oracle on small complexes.
    """
    out = []
    for k, fk in enumerate(order):
        new = [
            a
            for a in submasks(fk)
            if not any(a & ~order[j] == 0 for j in range(k))
        ]
        minimal = [a for a in new if not any(b != a and b & ~a == 0 for b in new)]
        if len(minimal) != 1:
            raise WitnessNotFound(
                f"minimal new face not unique at position {k} ({len(minimal)} found)"
            )
        out.append(minimal[0])
    return out


def property_H_check(
    cx: SimplicialComplex,
    order: list[int] | tuple[int, ...],
    restrictions: list[int],
) -> bool:
    """Heredity of restriction membership down to codimension-one faces.

    For every facet F, codim-1 face G of F and vertex e of G with e in R(F),
    property (H) demands e in R(G), where R(G) is the restriction of the
    (unique) shelling interval containing G.  Codimension one suffices.
    Only G = F∖v with v in R(F) needs a look: otherwise R(F) ⊆ G ⊆ F and G
    lies in the interval of F itself.  G's interval is that of the first
    facet containing G, which is F or a neighbour of F without v.
    """
    pos = {f: k for k, f in enumerate(order)}
    neighbours = cx.neighbours
    for k, fk in enumerate(order):
        rk = restrictions[k]
        for v in iter_bits(rk & fk):
            vbit = 1 << v
            g = fk ^ vbit
            need = rk & g
            if not need:
                continue
            first = k
            for h in neighbours[fk]:
                if fk & ~h == vbit and pos[h] < first:
                    first = pos[h]
            rg = restrictions[first]
            if rg & ~g:
                raise EquivalenceMismatch("face outside shelling intervals")
            if need & ~rg:
                return False
    return True


def h_complex_check(restrictions: list[int]) -> bool:
    """True iff the restriction family is closed under taking subsets.

    A family is closed under subsets iff it is closed under deleting one
    element, so this is O(|family|·d).
    """
    family = set(restrictions)
    return all(r & ~(1 << v) in family for r in family for v in iter_bits(r))


def flip_restrictions(matroid: Matroid) -> dict[int, int]:
    """Closed-form restriction set y_Y z_{IP(A)} of F(I), I = A∖Y, in the flip
    order, for every independent set I; the same for every extension order."""
    n = matroid.n
    out = {}
    for indep in matroid.independent_sets:
        dec = crapo_decompose_independent(matroid, indep)
        ip = activity_profile(matroid, dec.basis).ip
        out[indep] = (dec.y << n) | (ip << (2 * n))
    return out


# -- witness construction ----------------------------------------------------------


def _meet(f: Facet, g: Facet) -> tuple[int, int, int]:
    return f.xs & g.xs, f.ys & g.ys, f.zs & g.zs


def _star_equation_holds(
    matroid: Matroid, i: int, j: int, k: int, c: int
) -> bool:
    """F(I)∩F(K) ⊆ F(J)∩F(K) = F(K)∖z_c, computed on facet supports."""
    fi = facet_F(matroid, i)
    fj = facet_F(matroid, j)
    fk = facet_F(matroid, k)
    target = (fk.xs, fk.ys, fk.zs & ~(1 << (c - 1)))
    inter_jk = _meet(fj, fk)
    inter_ik = _meet(fi, fk)
    return inter_jk == target and all(
        a & ~b == 0 for a, b in zip(inter_ik, inter_jk)
    )


def _basis_witness(matroid: Matroid, a: int, c_basis: int) -> tuple[int, int]:
    """Find (B, c) with B = C∖c∪b satisfying the basis-exchange witness lemma.

    Searches c over IP(C) ∩ EP(A) from the largest down and b ascending; the
    first pair satisfying all the lemma's conditions wins.  Also verifies the
    facet equation F(A)∩F(C) ⊆ F(B)∩F(C) = F(C)∖z_c for the chosen pair.
    The search and both checks depend on (A, C) alone, so the pair found is
    memoized per matroid.
    """
    cache = matroid._cache.setdefault("basis_witness", {})
    hit = cache.get((a, c_basis))
    if hit is not None:
        return hit
    pa = activity_profile(matroid, a)
    pc = activity_profile(matroid, c_basis)
    bases_poset = build_poset(matroid, "extint-bases")
    full = matroid.full_mask
    candidates = pc.ip & pa.ep
    for c in range(matroid.n, 0, -1):
        cbit = 1 << (c - 1)
        if not candidates & cbit:
            continue
        for b in range(1, matroid.n + 1):
            bbit = 1 << (b - 1)
            if bbit & (c_basis | cbit):
                continue
            basis_b = (c_basis ^ cbit) | bbit
            if not matroid.is_basis(basis_b):
                continue
            pb = activity_profile(matroid, basis_b)
            if not bases_poset.leq(basis_b, c_basis):
                continue
            if bool(pb.ea & cbit) != bool(pa.ea & cbit):
                continue
            outside = full & ~(basis_b | c_basis)
            if (pb.ea ^ pc.ea) & outside:
                continue
            if not pb.ep & cbit:
                continue
            if not _star_equation_holds(matroid, a, basis_b, c_basis, c):
                raise WitnessNotFound(
                    f"facet equation fails for basis witness around "
                    f"{subset_str(c_basis, matroid.n)}"
                )
            if pc.ia & ~pb.ia:
                raise WitnessNotFound(
                    "internal activity does not grow along the witness exchange"
                )
            cache[a, c_basis] = basis_b, c
            return basis_b, c
    raise WitnessNotFound(
        f"no exchange witness for bases {subset_str(a, matroid.n)}, "
        f"{subset_str(c_basis, matroid.n)}"
    )


def shelling_witness(matroid: Matroid, i: int, k: int) -> Witness:
    """Construct and verify the shelling witness (J, c) for a pair I, K.

    Requires K not below I in the external/internal order on independent
    sets (otherwise ComparablePair).  Internally related pairs delete the
    smallest element of K∖I from K; unrelated pairs run the basis-exchange
    search between the related bases and transport the deletion set Y.
    The returned witness always satisfies J < K and the facet equation.
    """
    a = related_basis(matroid, i)
    c_basis = related_basis(matroid, k)
    ind_poset = build_poset(matroid, "extint-ind")
    if ind_poset.leq(k, i):
        raise ComparablePair(
            f"{subset_str(k, matroid.n)} <= {subset_str(i, matroid.n)}; no witness needed"
        )
    if a == c_basis:
        c = min_elem(k & ~i)
        j = k & ~(1 << (c - 1))
        witness = Witness(J=j, c=c, case="related")
    else:
        basis_b, c = _basis_witness(matroid, a, c_basis)
        y = c_basis & ~k
        if y & ~activity_profile(matroid, basis_b).ia:
            raise WitnessNotFound("deleted set is not internally active in the new basis")
        j = basis_b & ~y
        witness = Witness(J=j, c=c, case="unrelated", B=basis_b)
    if not (ind_poset.leq(witness.J, k) and witness.J != k):
        raise WitnessNotFound("constructed witness does not precede K")
    if not _star_equation_holds(matroid, i, witness.J, k, witness.c):
        raise WitnessNotFound("constructed witness violates the facet equation")
    return witness


def verify_shelling_by_witnesses(matroid: Matroid, order: tuple[int, ...]) -> bool:
    """Certify an extension order of the augmented complex constructively.

    For every pair I before K the witness (J, c) satisfies the facet equation
    with J strictly below K, hence F(J) precedes F(K) in the order; that is
    exactly the pairwise shelling condition, independently of the generic
    verifier's restriction-set bookkeeping.
    """
    pos = {e: idx for idx, e in enumerate(order)}
    for ki, k in enumerate(order):
        for i in order[:ki]:
            w = shelling_witness(matroid, i, k)
            if pos[w.J] >= ki:
                return False
    return True


def exchange_down_basis(matroid: Matroid, a_basis: int, a: int) -> int:
    """Swap an internally passive element for the largest possible replacement.

    For a ∈ IP(A), returns D = A∖a∪d with d the maximum element outside A∖a
    (other than a itself) keeping a basis; D lies strictly below A in the
    external/internal order and its internal activity contains IA(A).
    """
    abit = 1 << (a - 1)
    prof = activity_profile(matroid, a_basis)
    if not prof.ip & abit:
        raise ValueError(f"element {a} is not internally passive in the basis")
    rest = a_basis ^ abit
    for d in range(matroid.n, 0, -1):
        dbit = 1 << (d - 1)
        if dbit & (rest | abit):
            continue
        if matroid.is_basis(rest | dbit):
            return rest | dbit
    raise WitnessNotFound(f"no exchange above element {a}")
