"""The theorem-verification suite run over a corpus of matroids.

Each check function returns Finding records; run_suite drives all of them.
Checks are exhaustive where the ground set allows it (everything in the
built-in corpus) and sampled via seeded linear extensions where the number
of extensions explodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
from .complexes import build_complex, induced_subcomplex
from .errors import ActivitaError
from .matroid import Matroid
from .orders import (
    BASIS_ORDER_KINDS,
    POSET_KINDS,
    Poset,
    boolean_interval,
    build_poset,
    compare_bases,
    flip_involution,
    leq_extint_ind,
    leq_flip_ind,
    linear_extensions,
    meet_join_ind,
    poset_meet_join,
)
from .shelling import (
    exchange_down_basis,
    flip_restrictions,
    restriction_sets_bruteforce,
    verify_shelling,
    verify_shelling_by_witnesses,
    verify_shelling_pairwise,
    witness_groups,
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


def _finding(name: str, check: str, ok: bool, detail: str = "") -> Finding:
    return Finding(matroid=name, check=check, ok=ok, detail=detail)


# -- matroid and activity structure ------------------------------------------------


def check_matroid_axioms(name: str, m: Matroid) -> list[Finding]:
    out = [
        _finding(name, "dual-involution", m.dual.dual.bases == m.bases),
        _finding(name, "circuits-not-in-bases", all(c & ~b for c in m.circuits for b in m.bases)),
    ]
    uniq = True
    for b in m.bases:
        for e in elems_of(m.full_mask & ~b):
            fund = m.fundamental_circuit(b, e)
            inside = [c for c in m.circuits if c & ~(b | 1 << (e - 1)) == 0]
            uniq &= inside == [fund]
    out.append(_finding(name, "fundamental-circuit-unique", uniq))
    if m.n <= 7:
        subsets = range(1 << m.n)
        table = [m.rank_of(s) for s in subsets]
        mono = all(table[s] <= table[s | 1 << e] for s in subsets for e in range(m.n))
        sub = all(table[s | t] + table[s & t] <= table[s] + table[t] for s in subsets for t in subsets)
        out.append(_finding(name, "rank-monotone", mono))
        out.append(_finding(name, "rank-submodular", sub))
    return out


def check_activity(name: str, m: Matroid) -> list[Finding]:
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
        _finding(name, "activity-partition", partition),
        _finding(name, "activity-duality", duality),
        _finding(name, "activity-exchange-crosscheck", exchange),
        _finding(name, "nbc-iff-no-external-activity", nbc_ok),
    ]


def check_crapo(name: str, m: Matroid) -> list[Finding]:
    out = []
    try:
        seen_subset = all(crapo_decompose_subset(m, s) is not None for s in range(1 << m.n))
    except ActivitaError as exc:
        out.append(_finding(name, "crapo-partition-subsets", False, str(exc)))
    else:
        out.append(_finding(name, "crapo-partition-subsets", seen_subset))
    try:
        ok_ind = True
        for i in m.independent_sets:
            dec = crapo_decompose_independent(m, i)
            ok_ind &= dec == crapo_decompose_subset(m, i)
    except ActivitaError as exc:
        out.append(_finding(name, "crapo-partition-independent", False, str(exc)))
    else:
        out.append(_finding(name, "crapo-partition-independent", ok_ind))
    related_ok = True
    for i in m.independent_sets:
        b = related_basis(m, i)
        pi, pb = activity_profile(m, i), activity_profile(m, b)
        related_ok &= pi.ea == pb.ea and pi.ip == pb.ip
        related_ok &= ((i & ~pi.ia) | pi.ea) == ((b & ~pb.ia) | pb.ea)
        related_ok &= (i | pi.ep) == (b | pb.ep)
    out.append(_finding(name, "related-basis-activities", related_ok))
    return out


# -- posets, lattice, blocks -----------------------------------------------------


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


def _row_disagreement(poset: Poset, rel, n: int) -> str:
    """The first pair on which a row differs from ``rel``, or ""."""
    elems = poset.elements
    for a, row in zip(elems, poset.up_rows):
        diff = row ^ sum(1 << y for y, b in enumerate(elems) if rel(a, b))
        if diff:
            b = elems[(diff & -diff).bit_length() - 1]
            return f"row disagrees with its definition on {subset_label(a, n)}, {subset_label(b, n)}"
    return ""


def check_posets(name: str, m: Matroid) -> list[Finding]:
    """``poset-axioms``: the six orders are partial orders, every row agrees
    with the order's definition, and each basis order with its equivalent
    forms.  The basis posets' rows are indexed like ``m.bases``, so one pass
    over base pairs also serves ``extint-refines-ext-int``."""
    out = []
    try:
        posets = {kind: build_poset(m, kind) for kind in POSET_KINDS}
    except ActivitaError as exc:
        return [_finding(name, "poset-axioms", False, str(exc))]
    ind = posets["extint-ind"]
    definitions = {
        **{f"{k}-bases": partial(compare_bases, m, k) for k in BASIS_ORDER_KINDS},
        "extint-ind": partial(leq_extint_ind, m),
        "flip-ind": partial(leq_flip_ind, m),
        "nbc-extint": ind.leq,  # extint-ind restricted to nbc sets
    }
    detail = ""
    for kind, poset in posets.items():
        violation = poset_axiom_violation(poset, m.n) or _row_disagreement(poset, definitions[kind], m.n)
        if violation:
            detail = f"{kind}: {violation}"
            break
    ext, inn, both = (posets[k].up_rows for k in ("ext-bases", "int-bases", "extint-bases"))
    profiles = [activity_profile(m, b) for b in m.bases]
    refines = True
    for x, (a, pa) in enumerate(zip(m.bases, profiles)):
        a_int = a & ~pa.ia
        a_ext, a_both, a_act = a | pa.ea, a_int | pa.ea, pa.ip | pa.ea
        for y, (b, pb) in enumerate(zip(m.bases, profiles)):
            e, i, c = ext[x] >> y & 1 == 1, inn[x] >> y & 1 == 1, both[x] >> y & 1 == 1
            b_int = b & ~pb.ia
            # ext: A∪EA(A) ⊆ B∪EA(B); int: A∖IA(A) ⊆ B∖IA(B); extint:
            # (A∖IA(A))∪EA(A) ⊆ (B∖IA(B))∪EA(B) and IP(A)∪EA(A) ⊆ IP(B)∪EA(B)
            forms = (
                e == (a_ext & ~(b | pb.ea) == 0)
                and i == (a_int & ~b_int == 0)
                and c == (a_both & ~(b_int | pb.ea) == 0) == (a_act & ~(pb.ip | pb.ea) == 0)
            )
            if not (forms or detail):
                pair = f"{subset_label(a, m.n)}, {subset_label(b, m.n)}"
                detail = f"equivalent forms of the basis orders disagree on {pair}"
            refines &= (not e or c) and (not i or c)
    out.append(_finding(name, "poset-axioms", not detail, detail))
    out.append(_finding(name, "extint-refines-ext-int", refines))
    bases_match = all(
        ind.leq(a, b) == posets["extint-bases"].leq(a, b)
        for a in m.bases
        for b in m.bases
    )
    out.append(_finding(name, "ind-order-restricts-to-bases", bases_match))
    return out


def check_boolean_intervals(name: str, m: Matroid) -> list[Finding]:
    try:
        for b, c in build_poset(m, "extint-bases").covers():
            boolean_interval(m, b, c)
    except ActivitaError as exc:
        return [_finding(name, "boolean-intervals", False, str(exc))]
    return [_finding(name, "boolean-intervals", True)]


def check_lattice(name: str, m: Matroid) -> list[Finding]:
    """``lattice-laws``: the closed-form meet and join of independent sets
    are the lattice operations of the ``extint-ind`` order.

    A certificate: it passes iff ``extint-ind`` is a partial order and
    :func:`meet_join_ind` equals :func:`poset_meet_join` on every ordered
    pair.  The latter's meet of a, b is the x with down(x) = down(a) ∧
    down(b), so x ≤ a, b by reflexivity and every common lower bound lies
    below x: x is the greatest lower bound, and dually the join is the least
    upper bound.  In a partial order these operations are idempotent,
    commutative, associative and absorptive (Davey and Priestley,
    *Introduction to Lattices and Order*, ch. 2), so the closed forms obey
    the lattice laws.
    """
    try:
        ind = build_poset(m, "extint-ind")
        violation = poset_axiom_violation(ind, m.n)
        if violation:
            return [_finding(name, "lattice-laws", False, f"extint-ind: {violation}")]
        for i in m.independent_sets:
            for k in m.independent_sets:
                if meet_join_ind(m, i, k) != poset_meet_join(ind, i, k):
                    detail = (
                        f"closed-form meet/join disagrees with poset bounds on "
                        f"{subset_label(i, m.n)}, {subset_label(k, m.n)}"
                    )
                    return [_finding(name, "lattice-laws", False, detail)]
    except ActivitaError as exc:
        return [_finding(name, "lattice-laws", False, str(exc))]
    return [_finding(name, "lattice-laws", True)]


def check_flip_involution(name: str, m: Matroid) -> list[Finding]:
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
    return [_finding(name, "flip-involution", ok)]


# -- shellings --------------------------------------------------------------------


def _sampled_shelling(
    name: str, m: Matroid, cap: int, seed: int, kinds: tuple[str, str],
    names: tuple[str, ...], closed_form: dict[int, int] | None = None, keep: bool = False,
) -> tuple[list[Finding], list[tuple[int, ...]], list[list[int]]]:
    """Shell the complex ``kinds[0]`` along sampled extensions of the poset ``kinds[1]``.

    ``names`` names the findings of a prefix of five flags, folded over the
    orders up to the first that does not shell: the order shells; its
    restriction sets equal ``closed_form`` (element → restriction set);
    property (H); the restrictions form an h-complex; their h-vector is the
    complex's.  Each flag after the first also requires every order to shell.
    Returns the findings, the orders and, with ``keep``, their restriction sets.
    """
    cx = build_complex(m, kinds[0])
    sample = linear_extensions(build_poset(m, kinds[1]), cap=cap, seed=seed)
    properties = len(names) > 2  # property (H) and the h-complex only when named
    shelled = formula = prop_h = h_cx = h_match = True
    kept = []
    for order in sample.orders:
        facets = [cx.facet_by_tag[t] for t in order]
        report = verify_shelling(cx, facets, check_properties=properties)
        if not report.verdict:
            shelled = False
            break
        if closed_form is not None:
            formula &= report.restrictions == [closed_form[i] for i in order]
        if properties:
            prop_h &= bool(report.property_h)
            h_cx &= bool(report.h_complex)
        h_match &= bool(report.matches_complex_h)
        if keep:
            kept.append(report.restrictions)
    tag = f"{len(sample.orders)} orders, exhaustive={sample.exhaustive}"
    out = [_finding(name, names[0], shelled, tag)]
    for check, ok in zip(names[1:], (formula, prop_h, h_cx, h_match)):
        out.append(_finding(name, check, shelled and ok))
    return out, sample.orders, kept


def check_shelling_main(name: str, m: Matroid, cap: int, seed: int) -> list[Finding]:
    """Every (sampled) extension of the independent-set order shells the complex,
    with restriction sets z_I, property (H), and an h-complex matching the
    independence complex."""
    out, orders, _ = _sampled_shelling(
        name, m, cap, seed, ("augmented-ea", "extint-ind"),
        ("shelling-extint", "restriction-sets-z", "property-H", "h-complex",
         "h-vector-from-restrictions"),
        {i: i << (2 * m.n) for i in m.independent_sets},
    )
    cx = build_complex(m, "augmented-ea")
    if len(cx.facets) <= 12:
        order = [cx.facet_by_tag[t] for t in orders[0]]
        report = verify_shelling(cx, order, check_properties=False)
        agree, _ = verify_shelling_pairwise(cx, order)
        ok = report.restrictions == restriction_sets_bruteforce(order) and agree == report.verdict
        out.append(_finding(name, "restriction-bruteforce-crosscheck", ok))
    try:
        ok, detail = out[0].ok and verify_shelling_by_witnesses(m, orders[0]), ""
    except ActivitaError as exc:
        ok, detail = False, str(exc)
    out.append(_finding(name, "witness-certifies-first-order", ok, detail))
    return out


def check_shelling_flip(name: str, m: Matroid, cap: int, seed: int) -> list[Finding]:
    """Extensions of the flipped order also shell the complex (checked
    empirically; the restriction sets follow the two-variable closed form)."""
    out, _, kept = _sampled_shelling(
        name, m, cap, seed, ("augmented-ea", "flip-ind"),
        ("shelling-flip", "restriction-sets-flip"), flip_restrictions(m), keep=True,
    )
    bipolys = [bivariate_restriction_polynomial(m, r) for r in kept]
    stable = all(p == bipolys[0] for p in bipolys)
    out.append(_finding(name, "bivariate-order-invariant", out[0].ok and stable))
    return out


def check_shelling_ea(name: str, m: Matroid, cap: int, seed: int) -> list[Finding]:
    """Extensions of the basis order shell the external activity complex."""
    return _sampled_shelling(name, m, cap, seed, ("ea", "extint-bases"), ("shelling-ea",))[0]


def check_nbc_suite(name: str, m: Matroid, cap: int, seed: int) -> list[Finding]:
    cx, tutte, sets = build_complex(m, "augmented-nbc"), tutte_by_activities(m), nbc_sets(m)
    induced = (
        sorted(induced_subcomplex(cx, "z").facets) == sorted(build_complex(m, "nbc").facets)
        and sorted(induced_subcomplex(build_complex(m, "augmented-ea"), "xz").facets)
        == sorted(build_complex(m, "ea").facets)
    )
    out = [
        _finding(name, "nbc-facet-count", len(cx.facets) == len(sets) == tutte.evaluate(2, 0)),
        _finding(name, "nbc-induced-subcomplexes", induced),
    ]
    out += _sampled_shelling(
        name, m, cap, seed, ("augmented-nbc", "nbc-extint"),
        ("shelling-nbc", "restriction-sets-nbc", "property-H-nbc", "h-complex-nbc"),
        {s: s << m.n for s in sets},
    )[0]
    q_plus_1 = BiPoly({(0, 0): 1, (1, 0): 1})
    h_ok = h_polynomial(cx.fh.h) == tutte.subst(q_plus_1, BiPoly.zero())
    out.append(_finding(name, "nbc-h-identity", h_ok))
    return out


# -- witnesses --------------------------------------------------------------------


def check_witnesses(name: str, m: Matroid) -> list[Finding]:
    """The witness construction succeeds on every pair I, K with K ≰ I (one
    check per group of :func:`witness_groups`), stays inside nbc sets when the
    pair is nbc, and the downward exchange lemma holds for every internally
    passive element of every basis."""
    nbc = set(nbc_sets(m))
    nbc_mask = sum(1 << x for x, i in enumerate(m.independent_sets) if i in nbc)
    nbc_ok, detail = True, ""
    try:
        for k, groups in witness_groups(m):
            if k in nbc:
                nbc_ok &= all(w.J in nbc for group, w in groups if group & nbc_mask)
    except ActivitaError as exc:
        detail = str(exc)
    out = [
        _finding(name, "witness-all-pairs", not detail, detail),
        _finding(name, "witness-nbc-closure", not detail and nbc_ok),
    ]
    bases_poset = build_poset(m, "extint-bases")
    down_ok = True
    for a_basis in m.bases:
        prof = activity_profile(m, a_basis)
        for a in elems_of(prof.ip):
            d_basis = exchange_down_basis(m, a_basis, a)
            down_ok &= bases_poset.leq(d_basis, a_basis) and d_basis != a_basis
            down_ok &= prof.ia & ~activity_profile(m, d_basis).ia == 0
    out.append(_finding(name, "downward-exchange-lemma", down_ok))
    return out


# -- tutte ------------------------------------------------------------------------


def check_tutte(name: str, m: Matroid) -> list[Finding]:
    by_act = tutte_by_activities(m)
    swapped = BiPoly({(t, q): v for (q, t), v in by_act.coeffs.items()})
    evals_ok = (
        by_act.evaluate(2, 1) == len(m.independent_sets)
        and by_act.evaluate(1, 1) == len(m.bases)
        and by_act.evaluate(2, 0) == len(nbc_sets(m))
    )
    report = identity_report(m)
    return [
        _finding(name, "tutte-oracle-agreement", by_act == tutte_by_deletion_contraction(m)),
        _finding(name, "tutte-duality", tutte_by_activities(m.dual) == swapped),
        _finding(name, "tutte-evaluations", evals_ok),
        _finding(name, "h-identity", report.h_matches),
        _finding(name, "nbc-h-identity-report", report.nbc_matches),
        _finding(name, "bivariate-identity", report.bivariate_matches),
        _finding(name, "bivariate-collapse", report.collapse_matches),
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

_SAMPLED = {check_shelling_main, check_shelling_flip, check_shelling_ea, check_nbc_suite}


def run_suite(
    corpus: dict[str, Matroid], cap: int = 200, seed: int = 0
) -> list[Finding]:
    findings: list[Finding] = []
    for name, m in corpus.items():
        for check in ALL_CHECKS:
            if check in _SAMPLED:
                findings.extend(check(name, m, cap, seed))
            else:
                findings.extend(check(name, m))
    return findings
