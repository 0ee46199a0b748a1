"""Shelling verification, restriction sets, property (H), and witnesses.

A facet order F_1..F_s of a pure complex is a shelling when every facet meets
the union of its predecessors in a pure codimension-one complex; concretely,
for every i < k there are j < k and a vertex e of F_k with
F_i ∩ F_k ⊆ F_j ∩ F_k = F_k ∖ e.  The restriction set R_k collects the
vertices v of F_k whose deletion leaves a face of an earlier facet; the
pairwise condition is then equivalent to R_k not being contained in any
earlier facet, i.e. to R_k being a new face at step k (the literal
quantifier form is kept as a brute-force oracle).  :func:`verify_shelling`
decides this by counting faces.

The witness construction produces, for independent sets I, K with
K not below I in the external/internal order, an earlier independent set J
and ground element c with F(I) ∩ F(K) ⊆ F(J) ∩ F(K) = F(K) ∖ z_c.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .activity import _related_blocks, activity_profile, nbc_sets, related_basis
from .bitsets import columns, iter_bits, min_elem, submasks, subset_label, subset_str
from .complexes import SimplicialComplex, facet_F, xyz
from .errors import (ActivitaError, ComparablePair, EquivalenceMismatch, NoLinearExtension,
                     NotABasis, NotAPermutation, RankOutOfRange, WitnessNotFound)
from .matroid import Matroid, memoized
from .orders import Poset, build_poset


class ShellingReport(NamedTuple):
    """Outcome of checking one facet order.

    When the order fails, ``restrictions`` holds the sets for the prefix
    before the first failing facet and the derived fields are None.
    """

    verdict: bool
    failing_pair: tuple[int, int] | None
    restrictions: list[int]
    h_from_restrictions: tuple[int, ...] | None = None
    matches_complex_h: bool | None = None


class Witness(NamedTuple):
    """Shelling witness (J, c) for a pair I, K; B is the exchanged basis of
    unrelated sets, None for related ones."""

    J: int
    c: int
    B: int | None = None


def verify_shelling(cx: SimplicialComplex, order: list[int] | tuple[int, ...]) -> ShellingReport:
    """Check a facet order for the shelling property and report restrictions.

    R_k is the union of F_k ∖ G over the neighbours G of F_k placed before it.  The faces
    new at step k lie in [R_k, F_k] (a face of F_k missing a vertex v of R_k lies in F_k ∖ v,
    a face of an earlier facet) and the new faces of all steps partition the complex, so
    Σ_k 2^(d−|R_k|) is at least the face count, with equality iff each R_k is new, which is
    the pairwise condition R_k ⊄ F_i for all i < k.  That costs O(s·d) plus the neighbour
    pairs; only on a shortfall does an O(s²) scan name the first failing pair (i, k).
    """
    pos, neighbours = dict(zip(order, range(len(order)))), cx.neighbours
    if len(pos) != len(order) or pos.keys() != neighbours.keys():  # keyed by every facet
        raise NotAPermutation("order is not a permutation of the complex's facets")
    restrictions = []
    for k, fk in enumerate(order):
        common = -1  # R_k = F_k ∖ ∩G over the neighbours G placed before F_k
        for g in neighbours[fk]:
            if pos[g] < k:
                common &= g
        restrictions.append(fk & ~common)
    return _judge(cx, order, restrictions)


def _judge(cx: SimplicialComplex, order, restrictions: list[int]) -> ShellingReport:
    """The report of :func:`verify_shelling` on a facet order with these restriction sets."""
    d = cx.facet_size
    if sum(1 << (d - r.bit_count()) for r in restrictions) != sum(cx.fh.f):
        for k, rk in enumerate(restrictions):
            for i in range(k):
                if rk & ~order[i] == 0:
                    return ShellingReport(False, failing_pair=(i, k), restrictions=restrictions[:k])
        raise EquivalenceMismatch("face count and pairwise scan disagree")
    h = [0] * (d + 1)
    for r in restrictions:
        h[r.bit_count()] += 1
    h_tuple = tuple(h) if order else ()
    return ShellingReport(True, None, restrictions, h_tuple, h_tuple == cx.fh.h)


def verify_orders(
    cx: SimplicialComplex, poset: Poset, orders: list[tuple[int, ...]], closed_form: dict
) -> tuple[tuple[bool, ...], list[list[int]]]:
    """Shell ``cx`` along ``orders``, linear extensions of ``poset`` on its facet tags, up to
    the first that does not shell.  Returns five flags (there are orders and all shell; each map
    tag → R is ``closed_form``; property (H); an h-complex; the complex's h-vector)
    and the restriction sets once per map.  Raises NotAPermutation unless the tags are the
    poset's elements, each once per order, NoLinearExtension unless all below come first.  A
    neighbour below F precedes F in every extension and one above follows it, so a table folds
    those below once and an order is one pass ANDing in the incomparable ones placed: O(s +
    incomparable neighbour pairs).  The face count and the last four flags run once per map."""
    if cx.facet_by_tag.keys() != poset.index.keys():
        raise NotAPermutation("the complex's facet tags are not the poset's elements")
    down, at = poset.down_rows, {f: poset.index[t] for t, f in cx.facet_by_tag.items()}
    table, maps, flags, size = {}, {}, [bool(orders)] * 4, len(poset)
    for t, f in cx.facet_by_tag.items():
        x, below, others = at[f], -1, []
        for g in cx.neighbours[f]:
            if down[x] >> at[g] & 1:
                below &= g
            elif not down[at[g]] >> x & 1:
                others.append((1 << at[g], g))
        table[t] = (1 << x, down[x], f, below, tuple(others))  # others: the incomparable ones
    for order in orders:
        placed, late, varied = 0, 0, {}  # varied: R of each facet with incomparable neighbours
        for t in order:
            bit, down_row, f, common, others = table.get(t, (0, 0, 0, -1, ()))
            placed |= bit
            late |= down_row & ~placed
            if others:
                for y, g in others:
                    if placed & y:
                        common &= g
                varied[t] = f & ~common
        if len(order) != size or placed != (1 << size) - 1:
            raise NotAPermutation("order is not a permutation of the complex's facets")
        if late:
            raise NoLinearExtension("order places an element before one below it")
        if (key := frozenset(varied.items())) not in maps:
            facets = [cx.facet_by_tag[t] for t in order]
            rs = [varied.get(t, f & ~table[t][3]) for t, f in zip(order, facets)]
            report = _judge(cx, facets, rs)
            if not report.verdict:
                return (False,) * 5, []
            rs = maps[key] = report.restrictions
            flags = [ok and new for ok, new in zip(flags, (
                all(closed_form[t] == r for t, r in zip(order, rs)),
                property_H_check(cx, facets, rs), h_complex_check(rs), report.matches_complex_h,
            ))]
    return (bool(orders), *flags), list(maps.values())


def verify_shelling_pairwise(
    cx: SimplicialComplex, order: list[int] | tuple[int, ...]
) -> tuple[bool, tuple[int, int] | None]:
    """Literal quantifier form of the shelling condition (brute-force oracle)."""
    if sorted(order) != sorted(cx.facets):
        raise NotAPermutation("order is not a permutation of the complex's facets")
    for k, fk in enumerate(order):
        for i in range(k):
            # some j < k with F_j ∩ F_k = F_k ∖ e for one vertex e, and F_i ∩ F_k ⊆ F_j
            if not any(
                (fk & ~order[j]).bit_count() == 1 and not order[i] & fk & ~order[j]
                for j in range(k)
            ):
                return False, (i, k)
    return True, None


def restriction_sets_bruteforce(order: list[int] | tuple[int, ...]) -> list[int]:
    """Restriction sets as the unique minimal new face added by each facet, enumerating
    every face of each facet: exponential in facet size, an oracle for small complexes."""
    out = []
    for k, fk in enumerate(order):
        new = [a for a in submasks(fk) if all(a & ~g for g in order[:k])]  # in no earlier facet
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
    facet containing G, which is F or a neighbour of F without v.  In a
    shelling that first facet is the one facet H with R(H) ⊆ G ⊆ H, so the
    verdict reads the order only through the map F ↦ R(F).
    """
    pos = {f: k for k, f in enumerate(order)}
    for k, fk in enumerate(order):
        rk = restrictions[k]
        for v in iter_bits(rk & fk):
            vbit = 1 << v
            g = fk ^ vbit
            need = rk & g
            if not need:
                continue
            rg = restrictions[min([k] + [pos[h] for h in cx.neighbours[fk] if fk & ~h == vbit])]
            if rg & ~g:
                raise EquivalenceMismatch("face outside shelling intervals")
            if need & ~rg:
                return False
    return True


def h_complex_check(restrictions: list[int]) -> bool:
    """True iff closed under subsets, that is under deleting one element: O(|family|·d)."""
    family = set(restrictions)
    return all(r & ~(1 << v) in family for r in family for v in iter_bits(r))


def restriction_formula(matroid: Matroid, kind: str) -> dict[int, int]:
    """R(F(I)) in shellings along extensions of ``kind``, I its elements: z_I for ``extint-ind``,
    ``nbc-extint``; y_{B∖I} z_{IP(B)}, B = RB(I), for ``flip-ind`` and ``extint-bases``."""
    flip = kind in ("flip-ind", "extint-bases")
    out = {}
    for i in build_poset(matroid, kind).elements:
        b = related_basis(matroid, i) if flip else i
        out[i] = xyz(matroid.n, ys=b & ~i, zs=activity_profile(matroid, b).ip if flip else i)
    return out


# -- witness construction ----------------------------------------------------------


@memoized
def _witness_table(matroid: Matroid) -> dict[int, tuple[tuple[int, int], ...]]:
    """good(C) for every basis C: the (c, B) with c ∈ IP(C), largest first, and
    B = C∖c∪b the first exchange, b ascending, that satisfies the basis-exchange
    witness lemma; memoized per matroid, O(#bases·r·n) basis tests.  Bases A ≠ C
    take the first c of good(C) in EP(A), or have no witness: the lemma reads A
    only through c ∈ EP(A), as it asks B ≤ C, c ∉ EA(B) and EA(B) = EA(C) off
    B ∪ C.  Its conclusions F(A)∩F(C) ⊆ F(B)∩F(C) = F(C)∖z_c and IA(C) ⊆ IA(B)
    are the checks :func:`witness_groups` makes whenever it uses (B, c).

    c ∉ EA(B) follows from B ≤ C and is not tested: were c the largest of C(B, c)
    ∋ b, then b < c, so b ∈ EP(C) as c ∈ C(C, b); IP(B) ∩ EP(C) = ∅ puts b in
    IA(B), and then b is the largest of C*(B, b) ∋ c, so c < b, a contradiction.
    """
    bases_poset = build_poset(matroid, "extint-bases")
    table = {}
    for c_basis in matroid.bases:
        pc, good = activity_profile(matroid, c_basis), []
        for c in sorted(iter_bits(pc.ip), reverse=True):
            for b in iter_bits(matroid.full_mask & ~c_basis):
                basis_b = c_basis ^ 1 << c | 1 << b
                if not matroid.is_basis(basis_b) or not bases_poset.leq(basis_b, c_basis):
                    continue
                ea = activity_profile(matroid, basis_b).ea
                if not (ea ^ pc.ea) & ~(basis_b | c_basis):
                    good.append((c + 1, basis_b))
                    break
        table[c_basis] = tuple(good)
    return table


def shelling_witness(matroid: Matroid, i: int, k: int) -> Witness:
    """Construct and verify the shelling witness (J, c) for a pair I, K.

    Requires K not below I in the external/internal order on independent
    sets (otherwise ComparablePair).  Internally related pairs delete the
    smallest element of K∖I from K; unrelated pairs take the exchange (B, c)
    of the related bases from ``_witness_table`` and transport the deletion
    set Y.  The returned witness always satisfies J < K and the facet equation
    F(I)∩F(K) ⊆ F(J)∩F(K) = F(K)∖z_c; :func:`witness_groups` must agree with this per pair.
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
        witness = Witness(J=k & ~(1 << (c - 1)), c=c)
    else:
        ep = activity_profile(matroid, a).ep
        found = [(b, c) for c, b in _witness_table(matroid)[c_basis] if ep >> c - 1 & 1]
        if not found:
            pair = f"{subset_str(a, matroid.n)}, {subset_str(c_basis, matroid.n)}"
            raise WitnessNotFound(f"no exchange witness for bases {pair}")
        basis_b, c = found[0]
        y = c_basis & ~k
        if y & ~activity_profile(matroid, basis_b).ia:
            raise WitnessNotFound("deleted set is not internally active in the new basis")
        witness = Witness(J=basis_b & ~y, c=c, B=basis_b)
    if not (ind_poset.leq(witness.J, k) and witness.J != k):
        raise WitnessNotFound("constructed witness does not precede K")
    fi, fj, fk = (facet_F(matroid, s) for s in (i, witness.J, k))
    if fj & fk != fk & ~xyz(matroid.n, zs=1 << (witness.c - 1)) or fi & fk & ~fj:
        raise WitnessNotFound("constructed witness violates the facet equation")
    return witness


def _pair_error(matroid: Matroid, i: int, k: int) -> ActivitaError:
    """The error :func:`shelling_witness` raises on a failing pair, naming it."""
    pair = f"pair {subset_label(i, matroid.n)}, {subset_label(k, matroid.n)}"
    try:
        shelling_witness(matroid, i, k)
    except ActivitaError as exc:
        return WitnessNotFound(f"{pair}: {exc}")
    return EquivalenceMismatch(f"{pair}: the grouped witness check fails, shelling_witness passes")


def witness_groups(matroid: Matroid) -> Iterator[tuple[int, list[tuple[int, Witness]]]]:
    """The witnesses of all pairs I, K with K ≰ I, checked once per group of pairs.

    Yields each independent set K with its groups: a bitset over
    ``matroid.independent_sets`` and the (J, c) that :func:`shelling_witness`
    gives every I in it.  With C = RB(K) and Y = C∖K, that witness depends on
    I only through c: c = min(K∖I) and J = K∖c for I related to C, else the
    first c of good(C) in EP(RB(I)) (``_witness_table``) and J = B∖Y.  So the
    groups peel the sets I with K ≰ I by the columns {I related to C : e ∉ I}
    over e ∈ K, then {I : c ∈ EP(RB(I))} over good(C); a set left over has no
    witness.  A group checks once what :func:`shelling_witness` checks per
    pair: Y ⊆ IA(B), J ≤ K, J ≠ K and F(J)∩F(K) = F(K)∖z_c.  Given that
    equation, F(I)∩F(K) ⊆ F(J)∩F(K) iff z_c ∉ F(I)∩F(K): one AND with the
    column {I : z_c ∈ F(I)}.  At most |K| + |good(C)| groups per K, O(|I|·r)
    group steps in all besides the table; a failure raises the error of
    :func:`shelling_witness` on one failing pair, naming the pair.
    """
    ind = build_poset(matroid, "extint-ind")
    elems, table, full = ind.elements, _witness_table(matroid), (1 << len(ind)) - 1
    facets = [facet_F(matroid, i) for i in elems]
    related, blocks = _related_blocks(matroid, elems)
    in_col = columns(elems, matroid.n)
    z_col = columns([f >> 2 * matroid.n for f in facets], matroid.n)
    ep_col = columns([activity_profile(matroid, a).ep for a in related], matroid.n)
    z_bits = [xyz(matroid.n, zs=1 << e) for e in range(matroid.n)]
    for y, (k, fk, c_basis) in enumerate(zip(elems, facets, related)):
        deleted, block, rest, groups = c_basis & ~k, blocks[c_basis], full & ~ind.up_rows[y], []
        peel = [(block & ~in_col[e], Witness(k ^ 1 << e, e + 1)) for e in iter_bits(k)]
        peel += [(ep_col[c - 1], Witness(b & ~deleted, c, b)) for c, b in table[c_basis]]
        for col, w in peel:
            if rest & col:
                groups.append((rest & col, w))
            rest &= ~col
        if rest:
            raise _pair_error(matroid, elems[min_elem(rest) - 1], k)
        for group, w in groups:
            zc, x = z_bits[w.c - 1], ind.index.get(w.J)
            good = (
                x is not None and w.J != k and ind.up_rows[x] >> y & 1
                and (w.B is None or not deleted & ~activity_profile(matroid, w.B).ia)
                and facet_F(matroid, w.J) & fk == fk & ~zc
            )
            bad = group & z_col[w.c - 1] if fk & zc else 0
            if not good or bad:
                raise _pair_error(matroid, elems[min_elem(bad if good else group) - 1], k)
        yield k, groups


@memoized
def witness_pass(matroid: Matroid) -> tuple[str, bool]:
    """One pass over :func:`witness_groups`, memoized per matroid.  Returns
    the error of the first failing group, naming a pair, or "", and whether
    every group of nbc sets I, K has an nbc witness J.  With no error, each
    witness (J, c) of a pair I, K satisfies the facet equation with J < K, so
    every linear extension of the order on independent sets is a shelling.
    """
    nbc = set(nbc_sets(matroid))
    nbc_mask = sum(1 << x for x, i in enumerate(matroid.independent_sets) if i in nbc)
    error, nbc_closed = "", True
    try:
        for k, groups in witness_groups(matroid):
            if k in nbc:
                nbc_closed &= all(w.J in nbc for group, w in groups if group & nbc_mask)
    except ActivitaError as exc:
        error = str(exc)
    return error, nbc_closed


def exchange_down_basis(matroid: Matroid, a_basis: int, a: int) -> int:
    """Swap an internally passive element for the largest possible replacement.

    For a basis A (else NotABasis) and a ∈ IP(A), returns D = A∖a∪d with d the maximum
    element outside A∖a (other than a itself) keeping a basis; D lies strictly below A in
    the external/internal order and its internal activity contains IA(A).
    """
    if not matroid.is_basis(a_basis):
        raise NotABasis(f"{subset_str(a_basis, matroid.n)} is not a basis")
    if not 0 < a <= matroid.n:
        raise RankOutOfRange(f"element {a} outside ground set 1..{matroid.n}")
    abit = 1 << (a - 1)
    if not activity_profile(matroid, a_basis).ip & abit:
        label = subset_str(a_basis, matroid.n)
        raise RankOutOfRange(f"element {a} is not internally passive in the basis {label}")
    rest = a_basis ^ abit
    for d in range(matroid.n, 0, -1):
        dbit = 1 << (d - 1)
        if not dbit & (rest | abit) and matroid.is_basis(rest | dbit):
            return rest | dbit
    raise WitnessNotFound(f"no exchange above element {a}")
