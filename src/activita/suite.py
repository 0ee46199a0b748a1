"""The theorem-verification suite run over a corpus of matroids.

Every check takes (name, m, cap, seed) and returns Finding records, and
run_suite calls each the same way.  A check builds the objects, runs the
certificates of their layers (orders.poset_certificate, shelling.verify_orders)
and names the findings; shellings use every linear extension, or cap samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .activity import (
    activity_profile,
    activity_profile_by_exchange,
    crapo_decompose_independent,
    crapo_decompose_subset,
    is_nbc,
    nbc_sets,
    related_basis,
)
from .bitsets import elems_of, iter_bits, subset_label
from .complexes import build_complex, induced_subcomplex, xyz
from .errors import ActivitaError
from .matroid import Matroid
from .orders import (
    POSET_KINDS,
    boolean_interval,
    build_poset,
    flip_involution,
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
    verify_shelling,
    verify_shelling_pairwise,
    witness_pass,
)
from .tutte import (
    BiPoly,
    bivariate_restriction_polynomial,
    h_polynomial,
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


# -- matroid and activity structure ------------------------------------------------


def check_matroid_axioms(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    in_no_basis = all(c & ~b for c in m.circuits for b in m.bases)
    minimal = all(m.is_independent(c ^ 1 << x) for c in m.circuits for x in iter_bits(c))
    out = [
        Finding(name, "dual-involution", m.dual.dual.bases == m.bases),
        Finding(name, "circuits-not-in-bases", in_no_basis and minimal),
    ]
    uniq = True
    for b in m.bases:
        for e in elems_of(m.full_mask & ~b):
            fund = m.fundamental_circuit(b, e)
            inside = [c for c in m.circuits if c & ~(b | 1 << (e - 1)) == 0]
            uniq &= inside == [fund]
    out.append(Finding(name, "fundamental-circuit-unique", uniq))
    if m.n <= 7:
        subsets = range(1 << m.n)
        table = [m.rank_of(s) for s in subsets]
        mono = all(table[s] <= table[s | 1 << e] for s in subsets for e in range(m.n))
        sub = all(table[s | t] + table[s & t] <= table[s] + table[t] for s in subsets for t in subsets)
        out.append(Finding(name, "rank-monotone", mono))
        out.append(Finding(name, "rank-submodular", sub))
    return out


def check_activity(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    full = m.full_mask
    partition = duality = True
    for s in range(1 << m.n):
        prof = activity_profile(m, s)
        partition &= prof.ea | prof.ep == full & ~s and not prof.ea & prof.ep
        partition &= prof.ia | prof.ip == s and not prof.ia & prof.ip
        dual_prof = activity_profile(m.dual, full & ~s)
        duality &= prof.ia == dual_prof.ea and prof.ea == dual_prof.ia
    exchange = all(activity_profile(m, b) == activity_profile_by_exchange(m, b) for b in m.bases)
    nbc_ok = all(is_nbc(m, i) == (activity_profile(m, i).ea == 0) for i in m.independent_sets)
    return [
        Finding(name, "activity-partition", partition),
        Finding(name, "activity-duality", duality),
        Finding(name, "activity-exchange-crosscheck", exchange),
        Finding(name, "nbc-iff-no-external-activity", nbc_ok),
    ]


def check_crapo(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    out = []
    for check, decomposes in (  # each subset, and each independent set by both routes
        ("crapo-partition-subsets", lambda: all(
            crapo_decompose_subset(m, s) is not None for s in range(1 << m.n))),
        ("crapo-partition-independent", lambda: all(
            crapo_decompose_independent(m, i) == crapo_decompose_subset(m, i)
            for i in m.independent_sets)),
    ):
        try:
            out.append(Finding(name, check, decomposes()))
        except ActivitaError as exc:
            out.append(Finding(name, check, False, str(exc)))
    related_ok = True
    for i in m.independent_sets:
        b = related_basis(m, i)
        pi, pb = activity_profile(m, i), activity_profile(m, b)
        related_ok &= pi.ea == pb.ea and pi.ip == pb.ip
        related_ok &= ((i & ~pi.ia) | pi.ea) == ((b & ~pb.ia) | pb.ea)
        related_ok &= (i | pi.ep) == (b | pb.ep)
    out.append(Finding(name, "related-basis-activities", related_ok))
    return out


# -- posets, lattice, blocks -----------------------------------------------------


def check_posets(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    """``poset-axioms`` is :func:`poset_certificate` on the six orders."""
    try:
        posets = {kind: build_poset(m, kind) for kind in POSET_KINDS}
    except ActivitaError as exc:
        return [Finding(name, "poset-axioms", False, str(exc))]
    detail = poset_certificate(m, posets)
    ind = posets["extint-ind"]
    ext, inn, both = (posets[k].up_rows for k in ("ext-bases", "int-bases", "extint-bases"))
    at = [ind.index[b] for b in m.bases]
    restricted = [sum(1 << y for y, j in enumerate(at) if ind.up_rows[i] >> j & 1) for i in at]
    refines = all(not (e | i) & ~c for e, i, c in zip(ext, inn, both))
    return [
        Finding(name, "poset-axioms", not detail, detail),
        Finding(name, "extint-refines-ext-int", refines),
        Finding(name, "ind-order-restricts-to-bases", restricted == list(both)),
    ]


def check_boolean_intervals(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    try:
        for b, c in build_poset(m, "extint-bases").covers():
            boolean_interval(m, b, c)
    except ActivitaError as exc:
        return [Finding(name, "boolean-intervals", False, str(exc))]
    return [Finding(name, "boolean-intervals", True)]


def check_lattice(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    """``lattice-laws``: the closed-form meet and join of independent sets
    are the lattice operations of the ``extint-ind`` order.

    A certificate: it passes iff ``extint-ind`` is a partial order and
    :func:`meet_join_ind` equals :func:`poset_meet_join` on every ordered
    pair (its row lookups, made here).  The latter's meet of a, b is the x
    with down(x) = down(a) ∧ down(b), so x ≤ a, b by reflexivity and every
    common lower bound lies below x: x is the greatest lower bound, and
    dually the join is the least upper bound.  In a partial order these
    operations are idempotent, commutative, associative and absorptive
    (Davey and Priestley, *Introduction to Lattices and Order*, ch. 2), so
    the closed forms obey the lattice laws.
    """
    try:
        ind = build_poset(m, "extint-ind")
        violation = poset_axiom_violation(ind, m.n)
        if violation:
            return [Finding(name, "lattice-laws", False, f"extint-ind: {violation}")]
        elems, down, up = ind.elements, ind.down_rows, ind.up_rows
        glb_at, lub_at = ind.down_row_index, ind.up_row_index
        for x, i in enumerate(elems):
            for y, k in enumerate(elems):
                got = meet_join_ind(m, i, k)
                glb, lub = glb_at.get(down[x] & down[y]), lub_at.get(up[x] & up[y])
                if glb is None or lub is None:
                    poset_meet_join(ind, i, k)  # raises the LatticeFailure naming the missing bound
                if got != (elems[glb], elems[lub]):
                    detail = (
                        f"closed-form meet/join disagrees with poset bounds on "
                        f"{subset_label(i, m.n)}, {subset_label(k, m.n)}"
                    )
                    return [Finding(name, "lattice-laws", False, detail)]
    except ActivitaError as exc:
        return [Finding(name, "lattice-laws", False, str(exc))]
    return [Finding(name, "lattice-laws", True)]


def check_flip_involution(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    elems = m.independent_sets
    image = set()
    ok = True
    for i in elems:
        fl = flip_involution(m, i)
        image.add(fl)
        ok &= flip_involution(m, fl) == i
        dec = crapo_decompose_independent(m, i)
        prof = activity_profile(m, dec.basis)
        # size bookkeeping behind the generating-function identity
        ok &= i.bit_count() == ((prof.ia & ~dec.y).bit_count() + prof.ip.bit_count())
        ok &= fl.bit_count() == dec.y.bit_count() + prof.ip.bit_count()
    # This makes the flip a bijection of the independent sets, so every flip(I)
    # is independent, and with |flip(I)| = |Y_I| + |IP(B_I)| above, the sorted
    # lists of |I| and of |Y_I| + |IP(B_I)| are equal.
    ok &= image == set(elems)
    return [Finding(name, "flip-involution", ok)]


# -- shellings --------------------------------------------------------------------


def _sampled_shelling(
    name: str, m: Matroid, cap: int, seed: int, kinds: tuple[str, str],
    names: tuple[str, ...], closed_form: dict[int, int] | None = None,
) -> tuple[list[Finding], list[tuple[int, ...]], list[list[int]]]:
    """Shell the complex ``kinds[0]`` along sampled extensions of the poset
    ``kinds[1]``, naming a prefix of the flags of :func:`verify_orders`;
    property (H) and the h-complex are checked only when named.  Returns the
    findings, the orders and the restriction sets of the orders that shell."""
    cx = build_complex(m, kinds[0])
    sample = linear_extensions(build_poset(m, kinds[1]), cap=cap, seed=seed)
    flags, restrictions = verify_orders(cx, sample.orders, closed_form, len(names) > 2)
    out = [Finding(name, check, ok) for check, ok in zip(names, flags)]
    out[0].detail = f"{len(sample.orders)} orders, exhaustive={sample.exhaustive}"
    return out, sample.orders, restrictions


def check_shelling_main(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    """Every (sampled) extension of the independent-set order shells the complex,
    with restriction sets z_I, property (H), and an h-complex matching the
    independence complex."""
    out, orders, _ = _sampled_shelling(
        name, m, cap, seed, ("augmented-ea", "extint-ind"),
        ("shelling-extint", "restriction-sets-z", "property-H", "h-complex",
         "h-vector-from-restrictions"),
        {i: xyz(m.n, zs=i) for i in m.independent_sets},
    )
    cx, first = build_complex(m, "augmented-ea"), orders[0] if orders else ()
    if first and len(cx.facets) <= 12:  # an empty sample has already failed shelling-extint
        order = [cx.facet_by_tag[t] for t in first]
        report = verify_shelling(cx, order, check_properties=False)
        agree, _ = verify_shelling_pairwise(cx, order)
        ok = report.restrictions == restriction_sets_bruteforce(order) and agree == report.verdict
        out.append(Finding(name, "restriction-bruteforce-crosscheck", ok))
    # an extension of extint-ind shells if the witness pass finds no error: J < K
    ind, early, shelled = build_poset(m, "extint-ind"), 0, out[0].ok
    for x in (ind.index[k] for k in first):
        shelled, early = shelled and not early & ind.up_rows[x], early | 1 << x
    error = witness_pass(m)[0]
    detail = error if shelled else ""
    out.append(Finding(name, "witness-certifies-first-order", shelled and not error, detail))
    return out


def check_shelling_flip(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    """Extensions of the flipped order also shell the complex (checked
    empirically; the restriction sets follow the two-variable closed form)."""
    out, _, kept = _sampled_shelling(
        name, m, cap, seed, ("augmented-ea", "flip-ind"),
        ("shelling-flip", "restriction-sets-flip"), flip_restrictions(m),
    )
    bipolys = [bivariate_restriction_polynomial(m, r) for r in kept]
    stable = all(p == bipolys[0] for p in bipolys)
    out.append(Finding(name, "bivariate-order-invariant", out[0].ok and stable))
    return out


def check_shelling_ea(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    """Extensions of the basis order shell the external activity complex."""
    return _sampled_shelling(name, m, cap, seed, ("ea", "extint-bases"), ("shelling-ea",))[0]


def check_nbc_suite(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    cx, tutte, sets = build_complex(m, "augmented-nbc"), tutte_by_activities(m), nbc_sets(m)
    full = m.full_mask
    z_part = induced_subcomplex(cx, xyz(m.n, zs=full))
    xz_part = induced_subcomplex(build_complex(m, "augmented-ea"), xyz(m.n, full, 0, full))
    induced = (
        sorted(z_part.facets) == sorted(build_complex(m, "nbc").facets)
        and sorted(xz_part.facets) == sorted(build_complex(m, "ea").facets)
    )
    out = [
        Finding(name, "nbc-facet-count", len(cx.facets) == len(sets) == tutte.evaluate(2, 0)),
        Finding(name, "nbc-induced-subcomplexes", induced),
    ]
    out += _sampled_shelling(
        name, m, cap, seed, ("augmented-nbc", "nbc-extint"),
        ("shelling-nbc", "restriction-sets-nbc", "property-H-nbc", "h-complex-nbc"),
        {s: xyz(m.n, zs=s) for s in sets},
    )[0]
    q_plus_1 = BiPoly({(0, 0): 1, (1, 0): 1})
    h_ok = h_polynomial(cx.fh.h) == tutte.subst(q_plus_1, BiPoly.zero())
    out.append(Finding(name, "nbc-h-identity", h_ok))
    return out


# -- witnesses --------------------------------------------------------------------


def check_witnesses(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    """The witness construction succeeds on every pair I, K with K ≰ I (one
    check per group of :func:`witness_groups`), stays inside nbc sets when the
    pair is nbc, and the downward exchange lemma holds for every internally
    passive element of every basis.  The first two read the memoized
    :func:`witness_pass`, which runs once per matroid whichever check asks first."""
    error, nbc_closed = witness_pass(m)
    out = [
        Finding(name, "witness-all-pairs", not error, error),
        Finding(name, "witness-nbc-closure", not error and nbc_closed),
    ]
    bases_poset = build_poset(m, "extint-bases")
    down_ok = True
    for a_basis in m.bases:
        prof = activity_profile(m, a_basis)
        for a in elems_of(prof.ip):
            d_basis = exchange_down_basis(m, a_basis, a)
            down_ok &= bases_poset.leq(d_basis, a_basis) and d_basis != a_basis
            down_ok &= prof.ia & ~activity_profile(m, d_basis).ia == 0
    out.append(Finding(name, "downward-exchange-lemma", down_ok))
    return out


# -- tutte ------------------------------------------------------------------------


def check_tutte(name: str, m: Matroid, cap: int = 200, seed: int = 0) -> list[Finding]:
    by_act = tutte_by_activities(m)
    swapped = BiPoly({(t, q): v for (q, t), v in by_act.coeffs.items()})
    evals_ok = (
        by_act.evaluate(2, 1) == len(m.independent_sets)
        and by_act.evaluate(1, 1) == len(m.bases)
        and by_act.evaluate(2, 0) == len(nbc_sets(m))
    )
    report = identity_report(m)
    return [
        Finding(name, "tutte-oracle-agreement", by_act == tutte_by_deletion_contraction(m)),
        Finding(name, "tutte-duality", tutte_by_activities(m.dual) == swapped),
        Finding(name, "tutte-evaluations", evals_ok),
        Finding(name, "h-identity", report.h_matches),
        Finding(name, "nbc-h-identity-report", report.nbc_matches),
        Finding(name, "bivariate-identity", report.bivariate_matches),
        Finding(name, "bivariate-collapse", report.collapse_matches),
    ]


# -- driver -----------------------------------------------------------------------

ALL_CHECKS = (
    check_matroid_axioms,
    check_activity,
    check_crapo,
    check_posets,
    check_boolean_intervals,
    check_lattice,
    check_flip_involution,
    check_shelling_main,
    check_shelling_flip,
    check_shelling_ea,
    check_nbc_suite,
    check_witnesses,
    check_tutte,
)

def run_suite(corpus: dict[str, Matroid], cap: int = 200, seed: int = 0) -> list[Finding]:
    """Every check, in ``ALL_CHECKS`` order, on every matroid of ``corpus``.  A
    check that raises an ActivitaError gives one failing finding under its own
    name, with the error as its detail."""
    out = []
    for name, m in corpus.items():
        for check in ALL_CHECKS:
            try:
                out += check(name, m, cap, seed)
            except ActivitaError as exc:
                out.append(Finding(name, check.__name__, False, f"{type(exc).__name__}: {exc}"))
    return out
