"""The theorem-verification suite run over a corpus of matroids.

Each check function returns Finding records; run_suite drives all of them.
Checks are exhaustive where the ground set allows it (everything in the
built-in corpus) and sampled via seeded linear extensions where the number
of extensions explodes.
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
from .bitsets import iter_bits, subset_label, subset_str
from .complexes import build_complex, induced_subcomplex
from .errors import ActivitaError
from .matroid import Matroid
from .orders import (
    POSET_KINDS,
    Poset,
    boolean_interval,
    build_poset,
    flip_involution,
    linear_extensions,
    meet_join_ind,
    poset_meet_join,
)
from .shelling import (
    exchange_down_basis,
    flip_restrictions,
    restriction_sets_bruteforce,
    shelling_witness,
    verify_shelling,
    verify_shelling_by_witnesses,
    verify_shelling_pairwise,
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
    out = []
    out.append(
        _finding(name, "dual-involution", m.dual.dual.bases == m.bases)
    )
    out.append(
        _finding(
            name,
            "circuits-not-in-bases",
            all(all(c & ~b for b in m.bases) for c in m.circuits),
        )
    )
    uniq = True
    for b in m.bases:
        outside = m.full_mask & ~b
        for e in range(1, m.n + 1):
            if outside >> (e - 1) & 1:
                fund = m.fundamental_circuit(b, e)
                inside = [c for c in m.circuits if c & ~(b | 1 << (e - 1)) == 0]
                uniq &= inside == [fund]
    out.append(_finding(name, "fundamental-circuit-unique", uniq))
    if m.n <= 7:
        table = [m.rank_of(s) for s in range(1 << m.n)]
        mono = sub = True
        for s in range(1 << m.n):
            for e in range(m.n):
                t = s | 1 << e
                mono &= table[s] <= table[t]
        for s in range(1 << m.n):
            for t in range(1 << m.n):
                sub &= table[s | t] + table[s & t] <= table[s] + table[t]
        out.append(_finding(name, "rank-monotone", mono))
        out.append(_finding(name, "rank-submodular", sub))
    return out


def check_activity(name: str, m: Matroid) -> list[Finding]:
    out = []
    full = m.full_mask
    partition = duality = True
    for s in range(1 << m.n):
        prof = activity_profile(m, s)
        partition &= prof.ea | prof.ep == full & ~s and not prof.ea & prof.ep
        partition &= prof.ia | prof.ip == s and not prof.ia & prof.ip
        dual_prof = activity_profile(m.dual, full & ~s)
        duality &= prof.ia == dual_prof.ea and prof.ea == dual_prof.ia
    out.append(_finding(name, "activity-partition", partition))
    out.append(_finding(name, "activity-duality", duality))
    out.append(
        _finding(
            name,
            "activity-exchange-crosscheck",
            all(
                activity_profile(m, b) == activity_profile_by_exchange(m, b)
                for b in m.bases
            ),
        )
    )
    nbc_ok = all(
        is_nbc(m, i) == (activity_profile(m, i).ea == 0)
        for i in m.independent_sets
    )
    out.append(_finding(name, "nbc-iff-no-external-activity", nbc_ok))
    return out


def check_crapo(name: str, m: Matroid) -> list[Finding]:
    out = []
    try:
        seen_subset = all(
            crapo_decompose_subset(m, s) is not None for s in range(1 << m.n)
        )
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


def check_posets(name: str, m: Matroid) -> list[Finding]:
    """``poset-axioms``: the six orders are partial orders, and each basis
    order, built from one form of its definition, agrees with the others.
    The basis posets' rows are indexed like ``m.bases``, so one pass over
    base pairs also serves ``extint-refines-ext-int``."""
    out = []
    try:
        posets = {kind: build_poset(m, kind) for kind in POSET_KINDS}
    except ActivitaError as exc:
        return [_finding(name, "poset-axioms", False, str(exc))]
    detail = ""
    for kind, poset in posets.items():
        violation = poset_axiom_violation(poset, m.n)
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
    ind = posets["extint-ind"]
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
    """Lattice laws of the closed-form meet and join on independent sets.

    Every closed-form answer of :func:`meet_join_ind` must equal the bounds
    read from the materialized poset (:func:`poset_meet_join`); a mismatch
    fails the finding with the pair in its detail.  meet[a][b] and join[a][b]
    are index tables over ``m.independent_sets``; associativity for all c at
    once is one row comparison, e.g.
    meet[meet[a][b]] == [meet[a][x] for x in meet[b]].
    """
    elems = m.independent_sets
    pos = {e: a for a, e in enumerate(elems)}
    meet: list[list[int]] = []
    join: list[list[int]] = []
    try:
        ind = build_poset(m, "extint-ind")
        for i in elems:
            meet_row, join_row = [], []
            for k in elems:
                mk, jk = meet_join_ind(m, i, k)
                if poset_meet_join(ind, i, k) != (mk, jk):
                    detail = (
                        f"closed-form meet/join disagrees with poset bounds on "
                        f"{subset_label(i, m.n)}, {subset_label(k, m.n)}"
                    )
                    return [_finding(name, "lattice-laws", False, detail)]
                meet_row.append(pos[mk])
                join_row.append(pos[jk])
            meet.append(meet_row)
            join.append(join_row)
    except ActivitaError as exc:
        return [_finding(name, "lattice-laws", False, str(exc))]
    idx = range(len(elems))
    laws = all(meet[a][a] == a and join[a][a] == a for a in idx)
    laws &= all(
        meet[a][b] == meet[b][a] and join[a][b] == join[b][a]
        for a in idx
        for b in idx
    )
    for a in idx:
        meet_a, join_a = meet[a], join[a]
        for b in idx:
            laws &= meet_a[join_a[b]] == a and join_a[meet_a[b]] == a
            laws &= list(map(meet_a.__getitem__, meet[b])) == meet[meet_a[b]]
            laws &= list(map(join_a.__getitem__, join[b])) == join[join_a[b]]
    return [_finding(name, "lattice-laws", laws)]


def check_flip_involution(name: str, m: Matroid) -> list[Finding]:
    elems = m.independent_sets
    image = set()
    ok = True
    for i in elems:
        fl = flip_involution(m, i)
        image.add(fl)
        ok &= flip_involution(m, fl) == i
        ok &= m.is_independent(fl)
        dec = crapo_decompose_independent(m, i)
        prof = activity_profile(m, dec.basis)
        # size bookkeeping behind the generating-function identity
        ok &= i.bit_count() == ((prof.ia & ~dec.y).bit_count() + prof.ip.bit_count())
        ok &= fl.bit_count() == dec.y.bit_count() + prof.ip.bit_count()
    ok &= image == set(elems)
    sizes = sorted(i.bit_count() for i in elems)
    flip_sizes = sorted(
        crapo_decompose_independent(m, i).y.bit_count()
        + activity_profile(m, related_basis(m, i)).ip.bit_count()
        for i in elems
    )
    ok &= sizes == flip_sizes
    return [_finding(name, "flip-involution", ok)]


# -- shellings --------------------------------------------------------------------


def _facet_order(cx, tags: tuple[int, ...]) -> list[int]:
    return [cx.facet_by_tag[t] for t in tags]


def check_shelling_main(name: str, m: Matroid, cap: int, seed: int) -> list[Finding]:
    """Every (sampled) extension of the independent-set order shells the complex,
    with restriction sets z_I, property (H), and an h-complex matching the
    independence complex."""
    out = []
    cx = build_complex(m, "augmented-ea")
    poset = build_poset(m, "extint-ind")
    sample = linear_extensions(poset, cap=cap, seed=seed)
    n = m.n
    expected_family = {i << (2 * n) for i in m.independent_sets}
    all_ok = formula_ok = prop_h_ok = h_cx_ok = h_match_ok = True
    for order in sample.orders:
        report = verify_shelling(cx, _facet_order(cx, order))
        all_ok &= report.verdict
        if not report.verdict:
            break
        formula_ok &= all(
            r == i << (2 * n) for i, r in zip(order, report.restrictions)
        )
        formula_ok &= set(report.restrictions) == expected_family
        prop_h_ok &= bool(report.property_h)
        h_cx_ok &= bool(report.h_complex)
        h_match_ok &= bool(report.matches_complex_h)
    tag = f"{len(sample.orders)} orders, exhaustive={sample.exhaustive}"
    out.append(_finding(name, "shelling-extint", all_ok, tag))
    out.append(_finding(name, "restriction-sets-z", all_ok and formula_ok))
    out.append(_finding(name, "property-H", all_ok and prop_h_ok))
    out.append(_finding(name, "h-complex", all_ok and h_cx_ok))
    out.append(_finding(name, "h-vector-from-restrictions", all_ok and h_match_ok))
    if len(cx.facets) <= 12 and sample.orders:
        order = _facet_order(cx, sample.orders[0])
        report = verify_shelling(cx, order, check_properties=False)
        brute = restriction_sets_bruteforce(order)
        agree, _ = verify_shelling_pairwise(cx, order)
        out.append(
            _finding(
                name,
                "restriction-bruteforce-crosscheck",
                report.restrictions == brute and agree == report.verdict,
            )
        )
    if sample.orders:
        out.append(
            _finding(
                name,
                "witness-certifies-first-order",
                all_ok and verify_shelling_by_witnesses(m, sample.orders[0]),
            )
        )
    return out


def check_shelling_flip(name: str, m: Matroid, cap: int, seed: int) -> list[Finding]:
    """Extensions of the flipped order also shell the complex (checked
    empirically; the restriction sets follow the two-variable closed form)."""
    out = []
    cx = build_complex(m, "augmented-ea")
    poset = build_poset(m, "flip-ind")
    sample = linear_extensions(poset, cap=cap, seed=seed)
    expected = flip_restrictions(m)
    all_ok = formula_ok = True
    bipolys = []
    for order in sample.orders:
        report = verify_shelling(cx, _facet_order(cx, order), check_properties=False)
        all_ok &= report.verdict
        if not report.verdict:
            break
        formula_ok &= report.restrictions == [expected[i] for i in order]
        bipolys.append(bivariate_restriction_polynomial(m, report.restrictions))
    out.append(
        _finding(
            name,
            "shelling-flip",
            all_ok,
            f"{len(sample.orders)} orders, exhaustive={sample.exhaustive}",
        )
    )
    out.append(_finding(name, "restriction-sets-flip", all_ok and formula_ok))
    stable = all(p == bipolys[0] for p in bipolys) if bipolys else True
    out.append(_finding(name, "bivariate-order-invariant", all_ok and stable))
    return out


def check_shelling_ea(name: str, m: Matroid, cap: int, seed: int) -> list[Finding]:
    """Extensions of the basis order shell the external activity complex."""
    cx = build_complex(m, "ea")
    sample = linear_extensions(build_poset(m, "extint-bases"), cap=cap, seed=seed)
    ok = all(
        verify_shelling(cx, _facet_order(cx, order), check_properties=False).verdict
        for order in sample.orders
    )
    detail = f"{len(sample.orders)} orders, exhaustive={sample.exhaustive}"
    return [_finding(name, "shelling-ea", ok, detail)]


def check_nbc_suite(name: str, m: Matroid, cap: int, seed: int) -> list[Finding]:
    out = []
    cx = build_complex(m, "augmented-nbc")
    tutte = tutte_by_activities(m)
    sets = nbc_sets(m)
    out.append(
        _finding(
            name,
            "nbc-facet-count",
            len(cx.facets) == len(sets) == tutte.evaluate(2, 0),
        )
    )
    plain = build_complex(m, "nbc")
    out.append(
        _finding(
            name,
            "nbc-induced-subcomplexes",
            sorted(induced_subcomplex(cx, "z").facets) == sorted(plain.facets)
            and sorted(induced_subcomplex(build_complex(m, "augmented-ea"), "xz").facets)
            == sorted(build_complex(m, "ea").facets),
        )
    )
    poset = build_poset(m, "nbc-extint")
    sample = linear_extensions(poset, cap=cap, seed=seed)
    n = m.n
    expected_family = {s << n for s in sets}
    all_ok = formula_ok = prop_h_ok = h_cx_ok = True
    for order in sample.orders:
        report = verify_shelling(cx, _facet_order(cx, order))
        all_ok &= report.verdict
        if not report.verdict:
            break
        formula_ok &= all(r == i << n for i, r in zip(order, report.restrictions))
        formula_ok &= set(report.restrictions) == expected_family
        prop_h_ok &= bool(report.property_h)
        h_cx_ok &= bool(report.h_complex)
    out.append(
        _finding(
            name,
            "shelling-nbc",
            all_ok,
            f"{len(sample.orders)} orders, exhaustive={sample.exhaustive}",
        )
    )
    out.append(_finding(name, "restriction-sets-nbc", all_ok and formula_ok))
    out.append(_finding(name, "property-H-nbc", all_ok and prop_h_ok))
    out.append(_finding(name, "h-complex-nbc", all_ok and h_cx_ok))
    q_plus_1 = BiPoly({(0, 0): 1, (1, 0): 1})
    h_ok = h_polynomial(cx.fh.h) == tutte.subst(q_plus_1, BiPoly.zero())
    out.append(_finding(name, "nbc-h-identity", h_ok))
    return out


# -- witnesses --------------------------------------------------------------------


def check_witnesses(name: str, m: Matroid) -> list[Finding]:
    """The witness construction succeeds on every incomparable ordered pair,
    stays inside nbc sets when the pair is nbc, and the downward exchange
    lemma holds for every internally passive element of every basis."""
    out = []
    elems = m.independent_sets
    up = build_poset(m, "extint-ind").up_rows  # indexed like elems
    ok = nbc_ok = True
    detail = ""
    for x, i in enumerate(elems):
        for y, k in enumerate(elems):
            if up[y] >> x & 1:  # K <= I
                continue
            try:
                w = shelling_witness(m, i, k)
            except ActivitaError as exc:
                ok = False
                detail = (
                    f"pair {subset_str(i, m.n) or 'empty'}, "
                    f"{subset_str(k, m.n) or 'empty'}: {exc}"
                )
                break
            if is_nbc(m, i) and is_nbc(m, k):
                nbc_ok &= is_nbc(m, w.J)
        if not ok:
            break
    out.append(_finding(name, "witness-all-pairs", ok, detail))
    out.append(_finding(name, "witness-nbc-closure", ok and nbc_ok))
    bases_poset = build_poset(m, "extint-bases")
    down_ok = True
    for a_basis in m.bases:
        prof = activity_profile(m, a_basis)
        for a in range(1, m.n + 1):
            if not prof.ip >> (a - 1) & 1:
                continue
            d_basis = exchange_down_basis(m, a_basis, a)
            down_ok &= bases_poset.leq(d_basis, a_basis) and d_basis != a_basis
            down_ok &= prof.ia & ~activity_profile(m, d_basis).ia == 0
    out.append(_finding(name, "downward-exchange-lemma", down_ok))
    return out


# -- tutte ------------------------------------------------------------------------


def check_tutte(name: str, m: Matroid) -> list[Finding]:
    out = []
    by_act = tutte_by_activities(m)
    by_dc = tutte_by_deletion_contraction(m)
    out.append(_finding(name, "tutte-oracle-agreement", by_act == by_dc))
    dual_poly = tutte_by_activities(m.dual)
    swapped = BiPoly({(t, q): v for (q, t), v in by_act.coeffs.items()})
    out.append(_finding(name, "tutte-duality", dual_poly == swapped))
    evals_ok = (
        by_act.evaluate(2, 1) == len(m.independent_sets)
        and by_act.evaluate(1, 1) == len(m.bases)
        and by_act.evaluate(2, 0) == len(nbc_sets(m))
    )
    out.append(_finding(name, "tutte-evaluations", evals_ok))
    report = identity_report(m)
    out.append(_finding(name, "h-identity", report.h_matches))
    out.append(_finding(name, "nbc-h-identity-report", report.nbc_matches))
    out.append(_finding(name, "bivariate-identity", report.bivariate_matches))
    out.append(_finding(name, "bivariate-collapse", report.collapse_matches))
    return out


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
