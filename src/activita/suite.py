"""The theorem-verification suite run over a corpus of matroids.

FINDINGS declares each check's finding names in order.  A check takes (m, cap, seed) and
returns one verdict per name: ok, (ok, detail), or None where the name does not apply.  Only
run_check makes findings of verdicts; it fails every declared name of a check that raises an
ActivitaError, the ones the check would have skipped too.  Checks run the certificates of the
layers (orders.poset_certificate, shelling.verify_orders); shellings use every linear
extension when a count over down-sets, stopped once past cap, finds at most cap, else cap
samples, drawn from cover tables built once per poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .activity import (
    _related_blocks,
    activity_profile,
    activity_profile_by_exchange,
    crapo_decompositions,
    flip_involution,
    is_nbc,
    nbc_sets,
    related_basis,
)
from .bitsets import containment_rows, elems_of, iter_bits, subset_label
from .complexes import build_complex, independence_complex, induced_subcomplex, xyz
from .errors import ActivitaError
from .matroid import Matroid
from .orders import (
    POSET_KINDS,
    boolean_interval,
    build_poset,
    linear_extensions,
    meet_join_ind,
    poset_axiom_violation,
    poset_certificate,
    poset_meet_join,
)
from .shelling import (
    exchange_down_basis,
    flip_restrictions,
    restriction_sets_bruteforce,
    verify_orders,
    verify_shelling_pairwise,
    witness_pass,
)
from .tutte import (
    BiPoly,
    bivariate_restriction_polynomial,
    identity_report,
    tutte_by_activities,
    tutte_by_deletion_contraction,
)


@dataclass
class Finding:
    matroid: str
    check: str
    ok: bool
    detail: str = ""


Verdict = bool | tuple[bool, str] | None

FINDINGS = {
    "check_matroid_axioms": (
        "dual-involution", "circuits-not-in-bases", "fundamental-circuit-unique", "rank-monotone",
        "rank-submodular",
    ),
    "check_activity": (
        "activity-partition", "activity-duality", "activity-exchange-crosscheck",
        "nbc-iff-no-external-activity",
    ),
    "check_crapo": (
        "crapo-partition-subsets", "crapo-partition-independent", "related-basis-activities",
    ),
    "check_posets": ("poset-axioms", "extint-refines-ext-int", "ind-order-restricts-to-bases"),
    "check_boolean_intervals": ("boolean-intervals",),
    "check_lattice": ("lattice-laws",),
    "check_flip_involution": ("flip-involution",),
    "check_shelling_main": (
        "shelling-extint", "restriction-sets-z", "property-H", "h-complex",
        "h-vector-from-restrictions", "restriction-bruteforce-crosscheck",
        "witness-certifies-first-order",
    ),
    "check_shelling_flip": ("shelling-flip", "restriction-sets-flip", "bivariate-order-invariant"),
    "check_shelling_ea": ("shelling-ea",),
    "check_nbc_suite": (
        "nbc-facet-count", "nbc-induced-subcomplexes", "shelling-nbc", "restriction-sets-nbc",
        "property-H-nbc", "h-complex-nbc", "nbc-h-identity",
    ),
    "check_witnesses": ("witness-all-pairs", "witness-nbc-closure", "downward-exchange-lemma"),
    "check_tutte": (
        "tutte-oracle-agreement", "tutte-duality", "tutte-evaluations", "h-identity",
        "nbc-h-identity-report", "bivariate-identity", "bivariate-collapse",
    ),
}


def check_matroid_axioms(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    """The circuit axioms by the rows {B : S ⊆ B} of :func:`containment_rows`.  The
    B·(n−r) sets B ∪ e, e ∉ B, hold Σ_C (n−r−|C|)·|{B ⊇ C}| + Σ_{x ∈ C} |{B ⊇ C∖x}|
    circuits (C ⊆ B or C∖B = {e}); with fund(B, e) ⊆ B ∪ e listed, each holds one iff that
    count is B·(n−r)."""
    circuits, listed, outside = m.circuits, set(m.circuits), m.n - m.rank
    minors = [c ^ 1 << x for c in circuits for x in iter_bits(c)]
    held = [row.bit_count() for row in containment_rows([*circuits, *minors], m.bases, m.n)]
    minimal = all(m.is_independent(s) for s in minors)
    in_no_basis = minimal and not any(held[:len(circuits)])
    count = sum((outside - c.bit_count()) * h for c, h in zip(circuits, held))
    uniq = count + sum(held[len(circuits):]) == len(m.bases) * outside and all(
        not (f := m.fundamental_circuit(b, x + 1)) & ~(b | 1 << x) and f in listed
        for b in m.bases for x in iter_bits(m.full_mask & ~b)
    )
    mono = sub = None  # rank-* reads all 2^n subsets, so only for n <= 7
    if m.n <= 7:
        subsets = range(1 << m.n)
        table = [m.rank_of(s) for s in subsets]
        mono = all(table[s] <= table[s | 1 << e] for s in subsets for e in range(m.n))
        sub = all(table[s | t] + table[s & t] <= table[s] + table[t] for s in subsets for t in subsets)
    return [m.dual.dual.bases == m.bases, in_no_basis, uniq, mono, sub]


def _circuit_activities(m: Matroid) -> list[int]:
    """EA(S) = U(S)∖S for every S, U(T) the OR of max C over the circuits C with C∖max C ⊆ T:
    the circuit definition by a zeta transform (Björklund et al., STOC 2007), n·2^n ORs."""
    up = [0] * (1 << m.n)
    for c in m.circuits:
        up[c & ~(top := 1 << c.bit_length() - 1)] |= top
    for e in range(m.n):
        up = [u | up[s ^ 1 << e] if s >> e & 1 else u for s, u in enumerate(up)]
    return [u & ~s for s, u in enumerate(up)]


def check_activity(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    """``activity-exchange-crosscheck`` also holds the activities of every
    subset of m and of its dual to the circuit definition."""
    full, ea, dual_ea = m.full_mask, _circuit_activities(m), _circuit_activities(m.dual)
    partition = duality = by_circuits = True
    for s in range(1 << m.n):
        prof = activity_profile(m, s)
        partition &= prof.ea | prof.ep == full & ~s and not prof.ea & prof.ep
        partition &= prof.ia | prof.ip == s and not prof.ia & prof.ip
        dual_prof = activity_profile(m.dual, full & ~s)
        duality &= prof.ia == dual_prof.ea and prof.ea == dual_prof.ia
        by_circuits &= prof.ea == ea[s] and prof.ia == dual_ea[full & ~s]
    exchange = all(activity_profile(m, b) == activity_profile_by_exchange(m, b) for b in m.bases)
    exchange &= by_circuits
    nbc_ok = all(is_nbc(m, i) == (activity_profile(m, i).ea == 0) for i in m.independent_sets)
    return [partition, duality, exchange, nbc_ok]


def check_crapo(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    """Each subset has one Crapo decomposition (it raises otherwise), a basis and sets of
    its activities that give the subset back, and each independent set the same by both routes.
    Each independent set has its related basis's EA and IP; equal keys IP ∪ EA follow, and
    I ∪ EP(I) = E∖EA(I), so ``related-basis-activities`` compares these two only."""
    decs = crapo_decompositions(m)
    profiles = {b: activity_profile(m, b) for b in m.bases}
    partition = all(
        (p := profiles.get(d.basis)) and s == d.basis & ~d.y | d.x
        and not d.x & ~p.ea and not d.y & ~p.ia for s, d in enumerate(decs)
    )
    routes = all(related_basis(m, i) == decs[i].basis for i in m.independent_sets)
    related_ok = True
    for i in m.independent_sets:
        b = related_basis(m, i)
        pi, pb = activity_profile(m, i), activity_profile(m, b)
        related_ok &= pi.ea == pb.ea and pi.ip == pb.ip
    return [partition, routes, related_ok]


def check_posets(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    """``poset-axioms`` is :func:`poset_certificate` on the six orders."""
    posets = {kind: build_poset(m, kind) for kind in POSET_KINDS}
    detail = poset_certificate(m, posets)
    ind = posets["extint-ind"]
    ext, inn, both = (posets[k].up_rows for k in ("ext-bases", "int-bases", "extint-bases"))
    refines = all(not (e | i) & ~c for e, i, c in zip(ext, inn, both))
    return [(not detail, detail), refines, ind.restricted_rows(m.bases) == list(both)]


def check_boolean_intervals(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    for b, c in build_poset(m, "extint-bases").covers():
        boolean_interval(m, b, c)
    return [True]


def check_lattice(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    """``lattice-laws``: :func:`meet_join_ind` gives the lattice operations of ``extint-ind``.
    A certificate: it passes iff the rows are a partial order in block form (outside the block
    of its related basis A, each I has A's up-row and down-row) and each pair it reads has its
    closed form (g, j) with down(g) = down(i) ∧ down(k) and up(j) = up(i) ∧ up(k): then g ≤ i, k
    and every common lower bound lies below g, so g is the meet, and dually j the join.  It
    reads each block's pairs and the pairs of incomparable bases.  Given the block form, the
    sets in the blocks of incomparable bases A, C are pairwise incomparable, down(i) ∧ down(k)
    = down(A) ∧ down(C), the same for up, and meet_join_ind(i, k) takes the branch of
    meet_join_ind(A, C); comparable pairs hold by the axioms alone, as meet_join_ind reads the
    comparison from these rows.  So the pairs skipped pass exactly when those read do.  Meet
    and join of a partial order obey the lattice laws (Davey and Priestley, *Introduction to
    Lattices and Order*, ch. 2)."""
    ind = build_poset(m, "extint-ind")
    if violation := poset_axiom_violation(ind, m.n):
        return [(False, f"extint-ind: {violation}")]
    elems, down, up = ind.elements, ind.down_rows, ind.up_rows
    (by_down, by_up), (related, blocks) = ind.element_by_rows, _related_blocks(m, elems)
    for x, a in enumerate(related):  # the block form, O(I) row operations
        if (up[x] ^ up[ind.index[a]] | down[x] ^ down[ind.index[a]]) & ~blocks[a]:
            return [(False, f"extint-ind: {subset_label(elems[x], m.n)} leaves the block form")]
    bases = sum(1 << ind.index[b] for b in blocks)
    for x, a in enumerate(related):  # each block's pairs, and the pairs of incomparable bases
        incomparable = bases & ~(up[x] | down[x]) if elems[x] == a else 0
        for y in iter_bits(blocks[a] | incomparable):
            g, j = meet_join_ind(m, elems[x], elems[y])
            if by_down.get(down[x] & down[y]) != g or by_up.get(up[x] & up[y]) != j:
                poset_meet_join(ind, elems[x], elems[y])  # a missing bound raises, or it disagrees
                pair = f"{subset_label(elems[x], m.n)}, {subset_label(elems[y], m.n)}"
                return [(False, f"closed-form meet/join disagrees with poset bounds on {pair}")]
    return [True]


def check_flip_involution(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    elems = m.independent_sets
    image = set()
    ok = True
    for i in elems:
        fl = flip_involution(m, i)
        image.add(fl)
        ok &= flip_involution(m, fl) == i
        b = related_basis(m, i)
        y, prof = b & ~i, activity_profile(m, b)
        # size bookkeeping behind the generating-function identity
        ok &= i.bit_count() == (prof.ia & ~y).bit_count() + prof.ip.bit_count()
        ok &= fl.bit_count() == y.bit_count() + prof.ip.bit_count()
    # This makes the flip a bijection of the independent sets, so every flip(I)
    # is independent, and with |flip(I)| = |Y_I| + |IP(B_I)| above, the sorted
    # lists of |I| and of |Y_I| + |IP(B_I)| are equal.
    ok &= image == set(elems)
    return [ok]


def _sampled_shelling(
    m: Matroid, cap: int, seed: int, kinds: tuple[str, str],
    closed_form: dict[int, int] | None = None,
) -> tuple[list[Verdict], list[tuple[int, ...]], list[list[int]]]:
    """Shell the complex ``kinds[0]`` along sampled extensions of the poset
    ``kinds[1]``.  Returns the verdicts of the five flags of
    :func:`verify_orders`, the first with the sample size as its detail, the
    orders, and the restriction sets once per restriction map."""
    cx, poset = build_complex(m, kinds[0]), build_poset(m, kinds[1])
    sample = linear_extensions(poset, cap=cap, seed=seed)
    flags, restrictions = verify_orders(cx, poset, sample.orders, closed_form)
    detail = f"{len(sample.orders)} orders, exhaustive={sample.exhaustive}"
    return [(flags[0], detail), *flags[1:]], sample.orders, restrictions


def check_shelling_main(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    """Every (sampled) extension of the independent-set order shells the complex,
    with restriction sets z_I, property (H), an h-complex, and as h-vector the f-vector
    of the independence complex and n zeros; the brute-force crosscheck needs at most 12 facets."""
    verdicts, orders, kept = _sampled_shelling(
        m, cap, seed, ("augmented-ea", "extint-ind"),
        {i: xyz(m.n, zs=i) for i in m.independent_sets}
    )
    cx, first = build_complex(m, "augmented-ea"), orders[0] if orders else ()
    crosscheck = None if len(cx.facets) > 12 else bool(first)  # an empty sample fails it
    if crosscheck:  # the sets verify_orders keeps for the first order's map, and its verdict
        order = [cx.facet_by_tag[t] for t in first]
        same = kept[:1] == [restriction_sets_bruteforce(order)]
        crosscheck = same and verify_shelling_pairwise(cx, order)[0] == verdicts[0][0]
    # an extension of extint-ind shells if the witness pass finds no error: J < K
    shelled, error = verdicts[0][0], witness_pass(m)[0]
    h_is_f = verdicts[4] and cx.fh.h == independence_complex(m).fh.f + (0,) * m.n
    return [*verdicts[:4], h_is_f, crosscheck, (shelled and not error, error if shelled else "")]


def check_shelling_flip(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    """Extensions of the flipped order also shell the complex (checked
    empirically; the restriction sets follow the two-variable closed form)."""
    verdicts, _, kept = _sampled_shelling(
        m, cap, seed, ("augmented-ea", "flip-ind"), flip_restrictions(m)
    )
    bipolys = [bivariate_restriction_polynomial(m, r) for r in kept]
    stable = all(p == bipolys[0] for p in bipolys)
    return [*verdicts[:2], verdicts[0][0] and stable]


def check_shelling_ea(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    """Extensions of the basis order shell the external activity complex."""
    return _sampled_shelling(m, cap, seed, ("ea", "extint-bases"))[0][:1]


def check_nbc_suite(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    """The augmented nbc complex has a facet per nbc set, as many as the independent sets
    with no external activity; it induces the nbc complex, is shelled by extensions of
    ``nbc-extint``, and has as h-vector the nbc complex's f-vector."""
    cx, nbc, sets = build_complex(m, "augmented-nbc"), build_complex(m, "nbc"), nbc_sets(m)
    full = m.full_mask
    z_part = induced_subcomplex(cx, xyz(m.n, zs=full))
    xz_part = induced_subcomplex(build_complex(m, "augmented-ea"), xyz(m.n, full, 0, full))
    induced = (
        sorted(z_part.facets) == sorted(nbc.facets)
        and sorted(xz_part.facets) == sorted(build_complex(m, "ea").facets)
    )
    shelling = _sampled_shelling(
        m, cap, seed, ("augmented-nbc", "nbc-extint"), {s: xyz(m.n, zs=s) for s in sets}
    )[0]
    h_is_f = shelling[4] and cx.fh.h == nbc.fh.f
    free = sum(not activity_profile(m, i).ea for i in m.independent_sets)
    return [len(cx.facets) == len(sets) == free, induced, *shelling[:4], h_is_f]


def check_witnesses(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    """The witness construction succeeds on every pair I, K with K ≰ I (one
    check per group of :func:`witness_groups`), stays inside nbc sets when the
    pair is nbc, and the downward exchange lemma holds for every internally
    passive element of every basis.  The first two read the memoized
    :func:`witness_pass`, which runs once per matroid whichever check asks first."""
    error, nbc_closed = witness_pass(m)
    bases_poset = build_poset(m, "extint-bases")
    down_ok = True
    for a_basis in m.bases:
        prof = activity_profile(m, a_basis)
        for a in elems_of(prof.ip):
            d_basis = exchange_down_basis(m, a_basis, a)
            down_ok &= bases_poset.leq(d_basis, a_basis) and d_basis != a_basis
            down_ok &= prof.ia & ~activity_profile(m, d_basis).ia == 0
    return [(not error, error), not error and nbc_closed, down_ok]


def check_tutte(m: Matroid, cap: int = 200, seed: int = 0) -> list[Verdict]:
    report = identity_report(m)
    by_act = report.tutte
    swapped = BiPoly({(t, q): v for (q, t), v in by_act.coeffs.items()})
    evals_ok = (
        by_act.evaluate(2, 1) == len(m.independent_sets)
        and by_act.evaluate(1, 1) == len(m.bases)
        and by_act.evaluate(2, 0) == len(nbc_sets(m))
    )
    return [
        by_act == tutte_by_deletion_contraction(m), tutte_by_activities(m.dual) == swapped, evals_ok,
        report.h_matches, report.nbc_matches, report.bivariate_matches, report.collapse_matches,
    ]


ALL_CHECKS = tuple(globals()[name] for name in FINDINGS)  # the check functions, in order


def run_check(
    check: Callable[..., list[Verdict]], name: str, m: Matroid, cap: int = 200, seed: int = 0
) -> list[Finding]:
    """The findings of ``check`` on the matroid ``m``, called ``name``: its
    verdicts under the names ``FINDINGS`` declares for it, skipping None.  A
    check that raises an ActivitaError fails every declared name, with the
    error as the detail: there are no verdicts to tell which names apply."""
    names = FINDINGS[check.__name__]
    try:
        verdicts = check(m, cap, seed)
    except ActivitaError as exc:
        verdicts = [(False, f"{type(exc).__name__}: {exc}")] * len(names)
    return [
        Finding(name, finding, *(v if isinstance(v, tuple) else (v,)))
        for finding, v in zip(names, verdicts, strict=True) if v is not None
    ]


def run_suite(corpus: dict[str, Matroid], cap: int = 200, seed: int = 0) -> list[Finding]:
    """Every check, in ``ALL_CHECKS`` order, on every matroid of ``corpus``."""
    return [
        f for name, m in corpus.items() for check in ALL_CHECKS
        for f in run_check(check, name, m, cap, seed)
    ]
