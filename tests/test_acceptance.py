"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The sampled-shelling criteria share module-scoped sweeps so the whole
module stays well inside the one-minute budget.
"""

import time

import pytest

from activita.activity import (
    activity_profile,
    activity_profile_by_exchange,
    crapo_decompose_subset,
    flip_involution,
    nbc_sets,
    related_basis,
)
from activita.bitsets import parse_subset, subset_str
from activita.complexes import build_complex, independence_complex
from activita.corpus import m5
from activita.matroid import uniform
from activita.orders import (
    boolean_interval,
    build_poset,
    leq_extint_ind,
    linear_extensions,
)
from activita.shelling import (
    h_complex_check,
    property_H_check,
    restriction_sets_bruteforce,
    shelling_witness,
    verify_shelling,
    verify_shelling_pairwise,
)
from activita.tutte import (
    BiPoly,
    bivariate_restriction_polynomial,
    h_polynomial,
    tutte_by_activities,
    tutte_by_deletion_contraction,
)
from test_oracles import lattice_laws_hold, xyz_blocks

CAP = 200
SEED = 0

ps5 = lambda s: parse_subset(s, 5)


def _report(num, description, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _facet_order(cx, tags):
    return [cx.facet_by_tag[t] for t in tags]


@pytest.fixture(scope="module")
def main_sweep(corpus):
    """(orders, reports) per matroid for the plain extension order, timed."""
    started = time.monotonic()
    results = {}
    for name, m in corpus.items():
        cx = build_complex(m, "augmented-ea")
        sample = linear_extensions(build_poset(m, "extint-ind"), cap=CAP, seed=SEED)
        reports = [
            verify_shelling(cx, _facet_order(cx, order)) for order in sample.orders
        ]
        results[name] = (sample, reports)
    return results, time.monotonic() - started


@pytest.fixture(scope="module")
def flip_sweep(corpus):
    results = {}
    for name, m in corpus.items():
        cx = build_complex(m, "augmented-ea")
        sample = linear_extensions(build_poset(m, "flip-ind"), cap=CAP, seed=SEED)
        reports = [
            verify_shelling(cx, _facet_order(cx, order))
            for order in sample.orders
        ]
        results[name] = (sample, reports)
    return results


def test_criterion_01_m5_activity_table():
    table = {
        "345": ("", "12", "345", ""),
        "135": ("", "24", "35", "1"),
        "245": ("", "13", "45", "2"),
        "235": ("", "14", "5", "23"),
        "125": ("3", "4", "5", "12"),
        "134": ("5", "2", "3", "14"),
        "234": ("5", "1", "", "234"),
        "124": ("35", "", "", "124"),
    }
    best = float("inf")
    exact = True
    for _attempt in range(3):
        matroid = m5()
        started = time.perf_counter()
        for basis, expected in table.items():
            prof = activity_profile(matroid, ps5(basis))
            got = tuple(
                subset_str(x, 5) for x in (prof.ea, prof.ep, prof.ia, prof.ip)
            )
            exact &= got == expected
        best = min(best, time.perf_counter() - started)
    _report(
        1,
        "all 8 activity-table rows exact and fast",
        exact and best < 1e-3,
        f"{best * 1e6:.0f} us for 8 rows",
    )


def test_criterion_02_facet_tables(m5_matroid):
    ea_rows = {
        "345": ("12345", "", "345"),
        "135": ("12345", "", "135"),
        "245": ("12345", "", "245"),
        "235": ("12345", "", "235"),
        "125": ("1245", "", "1235"),
        "134": ("1234", "", "1345"),
        "234": ("1234", "", "2345"),
        "124": ("124", "", "12345"),
    }
    block_rows = {
        "245": ("12345", "", "245"),
        "25": ("12345", "4", "25"),
        "24": ("12345", "5", "24"),
        "2": ("12345", "45", "2"),
    }
    from activita.complexes import facet_F

    ok = True
    for rows in (ea_rows, block_rows):
        for tag, (xs, ys, zs) in rows.items():
            f = xyz_blocks(m5_matroid, facet_F(m5_matroid, ps5(tag)))
            ok &= tuple(subset_str(v, 5) for v in f) == (xs, ys, zs)
    _report(2, "external-activity and block facet tables verbatim", ok)


def test_criterion_03_hasse_diagrams(m5_matroid):
    expected = {
        "extint-bases": {
            ("345", "135"), ("345", "245"), ("135", "125"), ("135", "134"),
            ("245", "235"), ("235", "125"), ("235", "234"), ("125", "124"),
            ("134", "124"), ("234", "124"),
        },
        "ext-bases": {
            ("345", "134"), ("134", "124"), ("135", "134"), ("135", "125"),
            ("235", "125"), ("125", "124"), ("235", "234"), ("345", "234"),
            ("245", "234"), ("234", "124"),
        },
        "int-bases": {
            ("345", "135"), ("345", "245"), ("245", "235"), ("135", "125"),
            ("245", "125"), ("135", "134"), ("235", "234"), ("125", "124"),
            ("134", "124"),
        },
    }
    ok = True
    for kind, covers in expected.items():
        got = {
            (subset_str(a, 5), subset_str(b, 5))
            for a, b in build_poset(m5_matroid, kind).covers()
        }
        ok &= got == covers
    _report(3, "cover relations of the three basis orders exact", ok)


def test_criterion_04_main_shelling_theorem(main_sweep):
    results, elapsed = main_sweep
    ok = True
    total = 0
    for name, (sample, reports) in results.items():
        total += len(reports)
        ok &= all(r.verdict for r in reports)
    ok &= elapsed < 60.0
    _report(
        4,
        "every sampled extension of the independent-set order shells the complex",
        ok,
        f"{total} shellings over {len(results)} matroids in {elapsed:.1f}s",
    )


def test_criterion_05_restriction_formula(corpus, main_sweep):
    results, _elapsed = main_sweep
    ok = True
    for name, m in corpus.items():
        n = m.n
        expected_family = {i << (2 * n) for i in m.independent_sets}
        cx = build_complex(m, "augmented-ea")
        sample, reports = results[name]
        for order, report in zip(sample.orders, reports):
            ok &= all(
                r == i << (2 * n) for i, r in zip(order, report.restrictions)
            )
            ok &= set(report.restrictions) == expected_family
            ok &= property_H_check(cx, _facet_order(cx, order), report.restrictions)
            ok &= h_complex_check(report.restrictions)
    _report(5, "restrictions are z_I; family is the independence h-complex; (H) holds", ok)


def test_criterion_06_h_vector_identity(corpus, m5_matroid):
    t_m5 = BiPoly(
        {(3, 0): 1, (2, 0): 2, (1, 0): 1, (1, 1): 2, (0, 1): 1, (0, 2): 1}
    )
    ok = tutte_by_activities(m5_matroid) == t_m5
    ok &= tutte_by_deletion_contraction(m5_matroid) == t_m5
    cx = build_complex(m5_matroid, "augmented-ea")
    ok &= cx.fh.h == (1, 5, 10, 8, 0, 0, 0, 0, 0)
    q_plus_1 = BiPoly({(0, 0): 1, (1, 0): 1})
    for m in corpus.values():
        tutte = tutte_by_activities(m)
        lhs = h_polynomial(build_complex(m, "augmented-ea").fh.h)
        ok &= lhs == BiPoly.monomial(m.n, 0) * tutte.subst(q_plus_1, BiPoly.one())
    _report(6, "h-vector of the augmented complex equals q^n T(1+q, 1)", ok)


def test_criterion_07_flipped_order(corpus, flip_sweep):
    one = BiPoly.one()
    inv_q_plus_1_t = BiPoly({(-1, 1): 1, (0, 1): 1})
    q_plus_1 = BiPoly({(0, 0): 1, (1, 0): 1})
    ok = True
    for name, m in corpus.items():
        n, r = m.n, m.rank
        tutte = tutte_by_activities(m)
        rhs = BiPoly.monomial(0, n) * tutte.subst(inv_q_plus_1_t, one)
        h_lhs = BiPoly.monomial(n, 0) * tutte.subst(q_plus_1, one)
        sample, reports = flip_sweep[name]
        for order, report in zip(sample.orders, reports):
            ok &= report.verdict
            if not report.verdict:
                break
            for i, restr in zip(order, report.restrictions):
                b = related_basis(m, i)
                ip = activity_profile(m, b).ip
                ok &= restr == (b & ~i) << n | (ip << (2 * n))
            bivariate = bivariate_restriction_polynomial(m, report.restrictions)
            clear = BiPoly.monomial(r, 0)
            ok &= clear * bivariate == clear * rhs
            ok &= (clear * bivariate).min_q_exponent() >= 0
            ok &= bivariate.subst_t_equals_q() == h_lhs
    _report(7, "flip-order shellings: restriction and bivariate Tutte identities", ok)


def test_criterion_08_nbc_suite(corpus, m5_matroid):
    ok = len(build_complex(m5_matroid, "augmented-nbc").facets) == 18
    t_m5 = tutte_by_activities(m5_matroid)
    q_plus_1 = BiPoly({(0, 0): 1, (1, 0): 1})
    expected_m5 = BiPoly({(3, 0): 1, (2, 0): 5, (1, 0): 8, (0, 0): 4})
    ok &= h_polynomial(build_complex(m5_matroid, "augmented-nbc").fh.h) == expected_m5
    ok &= t_m5.subst(q_plus_1, BiPoly()) == expected_m5
    ok &= build_complex(m5_matroid, "nbc").fh.f == (1, 5, 8, 4)
    for name, m in corpus.items():
        cx = build_complex(m, "augmented-nbc")
        sets = nbc_sets(m)
        expected_family = {(0, 0, s) for s in sets}
        sample = linear_extensions(build_poset(m, "nbc-extint"), cap=CAP, seed=SEED)
        for order in sample.orders:
            facets = _facet_order(cx, order)
            report = verify_shelling(cx, facets)
            ok &= report.verdict
            if not report.verdict:
                break
            family = [xyz_blocks(m, r) for r in report.restrictions]
            ok &= all(r == (0, 0, i) for i, r in zip(order, family))
            ok &= set(family) == expected_family
            ok &= property_H_check(cx, facets, report.restrictions)
            ok &= h_complex_check(report.restrictions)
        ok &= h_polynomial(cx.fh.h) == tutte_by_activities(m).subst(
            q_plus_1, BiPoly()
        )
    _report(8, "augmented nbc complex: shellings, restrictions, h identity, (H)", ok)


def test_criterion_09_witness_lemmas(corpus, m5_matroid):
    w = shelling_witness(m5_matroid, ps5("3"), ps5("45"))
    ok = (w.J, w.c) == (ps5("5"), 4)
    w = shelling_witness(m5_matroid, ps5("23"), ps5("14"))
    ok &= (w.J, w.c, w.B) == (ps5("15"), 4, ps5("135"))
    pairs = 0
    for m in corpus.values():
        for i in m.independent_sets:
            for k in m.independent_sets:
                if leq_extint_ind(m, k, i):
                    continue
                pairs += 1
                # shelling_witness verifies the facet equation before returning
                witness = shelling_witness(m, i, k)
                ok &= leq_extint_ind(m, witness.J, k) and witness.J != k
    _report(9, "witness construction succeeds on every pair; worked examples exact", ok,
            f"{pairs} pairs")


def test_criterion_10_structure_propositions(corpus):
    ok = True
    for m in corpus.values():
        for s in range(1 << m.n):
            dec = crapo_decompose_subset(m, s)  # raises if not unique
            ok &= s == (dec.basis & ~dec.y) | dec.x
            ok &= dec.x == 0 or not m.is_independent(s)  # an independent set is B∖Y
        for b, c in build_poset(m, "extint-bases").covers():
            ok &= bool(boolean_interval(m, b, c))
        ok &= lattice_laws_hold(m)
        elems = m.independent_sets
        image = set()
        sizes = sorted(i.bit_count() for i in elems)
        flipped_sizes = []
        for i in elems:
            fl = flip_involution(m, i)
            image.add(fl)
            ok &= flip_involution(m, fl) == i
            b = related_basis(m, i)
            y, prof = b & ~i, activity_profile(m, b)
            ok &= i.bit_count() == (prof.ia & ~y).bit_count() + prof.ip.bit_count()
            flipped_sizes.append(y.bit_count() + prof.ip.bit_count())
        ok &= image == set(elems)
        ok &= sorted(flipped_sizes) == sizes
    _report(10, "Crapo partitions, boolean intervals, lattice laws, flip involution", ok)


def test_criterion_11_oracle_crosschecks(corpus):
    ok = True
    for m in corpus.values():
        ok &= tutte_by_activities(m) == tutte_by_deletion_contraction(m)
        for b in m.bases:
            ok &= activity_profile(m, b) == activity_profile_by_exchange(m, b)
        cx = build_complex(m, "augmented-ea")
        if len(cx.facets) <= 12:
            order = _facet_order(
                cx, linear_extensions(build_poset(m, "extint-ind"), cap=1, seed=SEED).orders[0]
            )
            report = verify_shelling(cx, order)
            ok &= report.restrictions == restriction_sets_bruteforce(order)
            slow_ok, _ = verify_shelling_pairwise(cx, order)
            ok &= slow_ok == report.verdict
    # small non-matroid complexes exercise the brute-force path too
    m23 = uniform(2, 3)
    cx = independence_complex(m23)
    order = list(cx.facets)
    report = verify_shelling(cx, order)
    ok &= report.restrictions == restriction_sets_bruteforce(order)
    _report(11, "independent oracles agree (Tutte, restrictions, activities)", ok)
