"""The verification-suite driver: finding shapes, degenerate matroids, and
mutants that each turn one finding of the matroid-axiom, activity, Crapo,
shelling, witness or Tutte checks to FAIL."""

import re
from itertools import combinations
from pathlib import Path

import pytest

import activita.activity as activity
import activita.complexes as complexes
import activita.orders as orders
import activita.shelling as shelling
import activita.suite as suite
import activita.tutte as tutte
from activita.activity import related_basis
from activita.bitsets import elems_of, parse_subset
from activita.complexes import FHVector, SimplicialComplex, blocks, xyz
from activita.corpus import builtin_corpus, m5
from activita.errors import ExchangeAxiomViolated, NoLinearExtension
from activita.matroid import Matroid, from_bases, graphic, relabel, uniform
from activita.orders import Poset
from activita.suite import run_check, run_suite
from activita.tutte import BiPoly
from test_oracles import (
    EDGE_CASES,
    W4,
    cross_block_cover_drops,
    equal_size_families,
    externally_active_by_circuits,
)


def test_full_suite_on_m5(m5_matroid):
    findings = run_suite({"m5": m5_matroid}, cap=10, seed=0)
    assert findings and all(f.ok for f in findings)
    checks = {f.check for f in findings}
    for expected in (
        "activity-partition",
        "crapo-partition-subsets",
        "poset-axioms",
        "boolean-intervals",
        "lattice-laws",
        "flip-involution",
        "shelling-extint",
        "restriction-sets-z",
        "property-H",
        "h-complex",
        "shelling-flip",
        "restriction-sets-flip",
        "shelling-ea",
        "shelling-nbc",
        "nbc-h-identity",
        "witness-all-pairs",
        "witness-certifies-first-order",
        "downward-exchange-lemma",
        "tutte-oracle-agreement",
        "h-identity",
        "bivariate-identity",
    ):
        assert expected in checks


def test_the_claims_table_of_the_readme_names_declared_findings():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## The claims of the abstract\n")[1].split("\n## ")[0]
    rows = [line for line in table.splitlines() if line.startswith("| ")][2:]
    declared = {name for names in suite.FINDINGS.values() for name in names}
    assert len(rows) == 6  # containment, H-shelling and h = f, for each of two complexes
    for row in rows:
        named = re.findall(r"`([A-Za-z-]+)`", "".join(row.split("|")[3:]))  # past complex, claim
        assert named and set(named) <= declared, row


NAMED_CASES = {**builtin_corpus(), "W4": W4, "u48": uniform(4, 8)}
NAMED_CASES.update((f"edge{x}", m) for x, m in enumerate(EDGE_CASES))


def test_finding_names_are_declared_once_in_check_order():
    names = [name for names in suite.FINDINGS.values() for name in names]
    assert len(names) == len(set(names))
    assert [check.__name__ for check in suite.ALL_CHECKS] == list(suite.FINDINGS)


@pytest.mark.parametrize("name", NAMED_CASES)
def test_each_check_emits_its_declared_names_in_order(name):
    # rank-* needs n <= 7 and the brute-force crosscheck at most 12 facets of
    # augmented-ea, one per independent set: W4 and u48 skip the first, and
    # u13, u24 and the edge cases keep the second
    m = NAMED_CASES[name]
    skipped = {"rank-monotone", "rank-submodular"} if m.n > 7 else set()
    if len(m.independent_sets) > 12:
        skipped.add("restriction-bruteforce-crosscheck")
    for check in suite.ALL_CHECKS:
        emitted = [f.check for f in run_check(check, name, m, 2, 0)]
        assert emitted == [n for n in suite.FINDINGS[check.__name__] if n not in skipped]


def test_an_empty_sample_fails_the_bruteforce_crosscheck(monkeypatch):
    # u24 has 11 facets, so the crosscheck is due, and with no order it fails
    real = suite.linear_extensions
    empty = lambda poset, cap, seed: real(poset, cap=cap, seed=seed)._replace(orders=[])
    monkeypatch.setattr(suite, "linear_extensions", empty)
    findings = {f.check: f.ok for f in run_check(MAIN, "u24", u24(), 10, 0)}
    assert not findings["shelling-extint"]
    assert not findings["restriction-bruteforce-crosscheck"]


def test_suite_on_degenerate_matroids():
    corpus = {
        "loopy": from_bases(3, [parse_subset("23", 3)]),
        "loop-coloop": from_bases(2, [parse_subset("2", 2)]),
        "u11": uniform(1, 1),
        "u02": uniform(0, 2),
        "free3": uniform(3, 3),
    }
    findings = run_suite(corpus, cap=20, seed=1)
    assert all(f.ok for f in findings), [f for f in findings if not f.ok]


def test_suite_accepts_relabeled_matroid(m5_matroid):
    # a different activity order, obtained by relabeling, satisfies everything
    twisted = relabel(m5_matroid, [2, 5, 3, 1, 4])
    findings = run_suite({"twisted": twisted}, cap=20, seed=2)
    assert all(f.ok for f in findings), [f for f in findings if not f.ok]


W4_EDGES = [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)]
WITNESS_FINDINGS = {"witness-all-pairs", "witness-nbc-closure", "downward-exchange-lemma"}


def count_witness_steps(monkeypatch) -> list[int]:
    """Count the steps taken on ``witness_groups``: one per K it yields, and
    one more that ends a pass."""
    real, steps = shelling.witness_groups, [0]

    def counted(m):
        for item in real(m):
            steps[0] += 1
            yield item
        steps[0] += 1

    monkeypatch.setattr(shelling, "witness_groups", counted)
    monkeypatch.setattr(suite, "witness_groups", counted, raising=False)
    return steps


def test_full_suite_on_wheel_w4(monkeypatch):
    # the wheel with four spokes: 8 elements, 134 independent sets
    steps = count_witness_steps(monkeypatch)
    w4 = graphic(5, W4_EDGES)
    assert len(w4.independent_sets) == 134
    findings = run_suite({"W4": w4}, cap=20)
    assert findings and all(f.ok for f in findings), [f for f in findings if not f.ok]
    # one witness pass serves the first-order certificate and the witness findings
    assert steps == [135]
    alone = run_check(suite.check_witnesses, "W4", graphic(5, W4_EDGES))
    assert steps == [270]
    in_suite = [(f.check, f.ok, f.detail) for f in findings if f.check in WITNESS_FINDINGS]
    assert [(f.check, f.ok, f.detail) for f in alone] == in_suite


def test_one_witness_pass_whichever_check_comes_first(monkeypatch):
    steps = count_witness_steps(monkeypatch)
    w4 = graphic(5, W4_EDGES)
    assert all(f.ok for f in run_check(suite.check_witnesses, "W4", w4))
    assert all(f.ok for f in run_check(suite.check_shelling_main, "W4", w4, 20, 0))
    assert steps == [135]


def test_witness_pass_runs_when_the_first_order_does_not_shell(monkeypatch):
    # shelling-extint fails, so the first order's certificate fails without
    # a look at the witnesses, but the pass still runs once for check_witnesses
    steps = count_witness_steps(monkeypatch)
    falsify("verdict")(monkeypatch)
    matroid = m5()
    main = {f.check: f.ok for f in run_check(suite.check_shelling_main, "m5", matroid, 10, 0)}
    assert not main["shelling-extint"] and not main["witness-certifies-first-order"]
    assert steps == [len(matroid.independent_sets) + 1]
    assert all(f.ok for f in run_check(suite.check_witnesses, "m5", matroid))
    assert steps == [len(matroid.independent_sets) + 1]


def falsify(field):
    """``field`` is False on every report ``shelling._judge`` makes: one per restriction map
    in ``verify_orders``, one per ``verify_shelling`` call."""

    def patch(monkeypatch):
        real = shelling._judge
        monkeypatch.setattr(shelling, "_judge", lambda *args: real(*args)._replace(**{field: False}))

    return patch


def fails(name):
    """``shelling.<name>`` returns False: the flag it stands for fails."""
    return lambda monkeypatch: monkeypatch.setattr(shelling, name, lambda *args: False)


def wrong_closed_form(monkeypatch):
    """The closed form a check hands to ``verify_orders`` is off at one tag."""
    real = suite.verify_orders

    def wrong(cx, poset, orders, closed_form):
        closed = dict(closed_form)
        closed[next(iter(closed))] ^= 1
        return real(cx, poset, orders, closed)

    monkeypatch.setattr(suite, "verify_orders", wrong)


def a_second_map_with_empty_restrictions(monkeypatch):
    """``verify_orders`` returns, after the sample's one restriction map, a second map
    whose sets are all empty, so its polynomial differs from the first's."""
    real = suite.verify_orders

    def two_maps(cx, poset, orders, closed_form):
        flags, kept = real(cx, poset, orders, closed_form)
        return flags, kept + [[0] * len(kept[0])]

    monkeypatch.setattr(suite, "verify_orders", two_maps)


def swap_a_cover_pair(monkeypatch):
    """The last sampled order has the two elements of the poset's first cover swapped, so
    the upper one comes first: that order is no linear extension, the others are."""
    real = suite.linear_extensions

    def swapped(poset, cap, seed):
        sample, (a, b) = real(poset, cap=cap, seed=seed), poset.covers()[0]
        last = tuple({a: b, b: a}.get(t, t) for t in sample.orders[-1])
        return sample._replace(orders=sample.orders[:-1] + [last])

    monkeypatch.setattr(suite, "linear_extensions", swapped)


def bruteforce_drops_the_last_set(monkeypatch):
    real = suite.restriction_sets_bruteforce
    monkeypatch.setattr(suite, "restriction_sets_bruteforce", lambda order: real(order)[:-1])


def count_an_nbc_set_twice(monkeypatch):
    real = suite.nbc_sets
    monkeypatch.setattr(suite, "nbc_sets", lambda m: real(m) + real(m)[:1])


def nbc_sets_without_the_empty_set(monkeypatch):
    """Every reader of ``nbc_sets`` sees the nbc sets without ∅: the augmented
    nbc complex loses the facet of ∅ and still has one per set it is given."""
    real = activity.nbc_sets
    for module in (complexes, orders, shelling, suite):
        monkeypatch.setattr(module, "nbc_sets", lambda m: tuple(s for s in real(m) if s))


def nbc_complex_counts_a_face_too_many(monkeypatch):
    """The plain nbc complex, facets unchanged, reports one more face of top size."""
    real = suite.build_complex

    def miscounted(m, kind):
        cx = real(m, kind)
        if kind != "nbc":
            return cx
        copy = SimplicialComplex(cx.facets, cx.tags)
        copy.fh = FHVector(cx.fh.f[:-1] + (cx.fh.f[-1] + 1,), cx.fh.h)
        return copy

    monkeypatch.setattr(suite, "build_complex", miscounted)


def independence_complex_drops_a_basis(monkeypatch):
    real = suite.independence_complex
    monkeypatch.setattr(
        suite, "independence_complex", lambda m: SimplicialComplex(real(m).facets[1:])
    )


def drop_an_induced_facet(monkeypatch):
    real = suite.induced_subcomplex

    def dropped(cx, keep):
        return SimplicialComplex(real(cx, keep).facets[1:])

    monkeypatch.setattr(suite, "induced_subcomplex", dropped)


def dual_drops_a_basis(monkeypatch):
    """The dual lists the complements of every basis but the first."""

    def dual(m):
        return Matroid(m.n, [m.full_mask & ~b for b in m.bases[1:]])

    monkeypatch.setattr(Matroid, "dual", property(dual))


def a_basis_listed_as_a_circuit(monkeypatch):
    """A set inside a basis lies inside every B ∪ e with B that basis, so the
    fundamental circuits are no longer unique there either."""
    real = vars(Matroid)["circuits"].func
    monkeypatch.setattr(Matroid, "circuits", property(lambda m: real(m) + m.bases[:1]))


def whole_b_plus_e_as_circuit(monkeypatch):
    """Answer (B, e) with all of B ∪ e: dependent and inside no basis, but not
    minimal wherever the true circuit misses an element of B."""
    monkeypatch.setattr(Matroid, "fundamental_circuit", lambda m, basis, e: basis | 1 << (e - 1))


def activities_from_whole_b_plus_e(monkeypatch):
    """B ∪ e as every circuit, and the activities read off those circuits by
    the definition, which the closure form of ``externally_active`` ignores."""
    whole_b_plus_e_as_circuit(monkeypatch)
    monkeypatch.setattr(activity, "externally_active", externally_active_by_circuits)


def circuit_of_the_next_element(monkeypatch):
    """Answer (B, e) with the circuit of the next element outside B, cyclically:
    every circuit is still listed, each under a wrong element."""
    real = Matroid.fundamental_circuit

    def shifted(m, basis, e):
        outside = elems_of(m.full_mask & ~basis)
        return real(m, basis, outside[(outside.index(e) + 1) % len(outside)])

    monkeypatch.setattr(Matroid, "fundamental_circuit", shifted)


def rank_of_the_complement(monkeypatch):
    """r(E ∖ S) is submodular but shrinks as S grows."""
    real = Matroid.rank_of
    monkeypatch.setattr(Matroid, "rank_of", lambda m, s: real(m, m.full_mask & ~s))


def nullity_for_rank(monkeypatch):
    """|S| − r(S) grows with S but is supermodular, strictly so on m5."""
    real = Matroid.rank_of
    monkeypatch.setattr(Matroid, "rank_of", lambda m, s: s.bit_count() - real(m, s))


def dependent_sets_on_the_first_basis(monkeypatch):
    """Crapo's table gives every dependent set the first basis; the
    independent sets keep theirs, so only the subsets' own verdict sees it."""
    real = suite.crapo_decompositions

    def moved(m):
        first = m.bases[0]
        return [b if m.is_independent(s) else first for s, b in enumerate(real(m))]

    monkeypatch.setattr(suite, "crapo_decompositions", moved)


def the_first_basis_holding_each_set(monkeypatch):
    """The suite takes the first basis B ⊇ I for the related basis of I: I = B∖Y
    still, but where B is another basis Y = B∖I leaves IA(B), as Crapo's
    decomposition is unique."""
    monkeypatch.setattr(
        suite, "related_basis", lambda m, i: next(b for b in m.bases if not i & ~b)
    )


def move_an_element_on_the_dual(monkeypatch):
    """Move the lowest IA element into IP, on the profiles of m5's dual only,
    told apart from m5 by its bases."""
    real, dual = suite.activity_profile, m5().dual

    def moved(m, s):
        prof = real(m, s)
        if m != dual:
            return prof
        low = prof.ia & -prof.ia
        return prof._replace(ia=prof.ia ^ low, ip=prof.ip ^ low)

    monkeypatch.setattr(suite, "activity_profile", moved)


def exchange_finds_no_internal_activity(monkeypatch):
    real = suite.activity_profile_by_exchange
    wrong = lambda m, b: real(m, b)._replace(ia=0, ip=b)
    monkeypatch.setattr(suite, "activity_profile_by_exchange", wrong)


def empty_set_is_not_nbc(monkeypatch):
    real = suite.is_nbc
    monkeypatch.setattr(suite, "is_nbc", lambda m, s: real(m, s) and s != 0)


def dual_polynomial_unswapped(monkeypatch):
    """The dual's Tutte polynomial comes back as the matroid's own: the suite
    calls ``tutte_by_activities`` once, on the dual."""
    real = suite.tutte_by_activities
    monkeypatch.setattr(suite, "tutte_by_activities", lambda m: real(m.dual))


def augmented_nbc_replaced_by_nbc(monkeypatch):
    """The identity report reads the h-vector of the plain nbc complex."""
    real = tutte.build_complex
    monkeypatch.setattr(
        tutte, "build_complex", lambda m, kind: real(m, "nbc" if kind == "augmented-nbc" else kind)
    )


def collapse_at_t_equals_one(monkeypatch):
    """Setting t = 1 instead of t = q drops the t-exponents."""
    at_one = lambda p: sum(
        (BiPoly.monomial(qe, 0, v) for (qe, _), v in p.coeffs.items()), BiPoly()
    )
    monkeypatch.setattr(BiPoly, "subst_t_equals_q", at_one)


M5_C = parse_subset("134", 5)  # the related basis of K = 14 in the paper's unrelated example


def witness_table_mutant(change, c_basis=M5_C):
    """Replace good(C) in m5's ``_witness_table``, for C = ``c_basis``, by
    ``change(good(C))``; the entries are (c, B), largest c first."""

    def patch(monkeypatch):
        real = shelling._witness_table

        def mutated(m):
            table = dict(real(m))
            table[c_basis] = tuple(change(table[c_basis]))
            return table

        monkeypatch.setattr(shelling, "_witness_table", mutated)

    return patch


def no_exchange_witness(good):
    return ()


def off_the_bases(change):
    """The suite's ``activity_profile`` gives ``change(profile)`` on every set
    that is not a basis; the bases keep their profiles."""

    def patch(monkeypatch):
        real = suite.activity_profile
        moved = lambda m, s: real(m, s) if m.is_basis(s) else change(real(m, s))
        monkeypatch.setattr(suite, "activity_profile", moved)

    return patch


def lowest_ea_moved_into_ep(prof):
    """On the non-bases only the related-basis comparison sees it."""
    low = prof.ea & -prof.ea
    return prof._replace(ea=prof.ea ^ low, ep=prof.ep ^ low)


def lowest_ea_also_in_ep(prof):
    """EA and EP meet: only the partition sees it, as EA keeps the element."""
    return prof._replace(ep=prof.ep | prof.ea & -prof.ea)


def poset_rows(kind, change):
    """Replace the up-rows of the ``kind`` order the suite builds by
    ``change(m, poset)``."""

    def patch(monkeypatch):
        real = suite.build_poset

        def mutated(m, k):
            poset = real(m, k)
            return Poset(poset.elements, tuple(change(m, poset))) if k == kind else poset

        monkeypatch.setattr(suite, "build_poset", mutated)

    return patch


def without_the_first_cover(m, poset):
    """Still a partial order, but no longer the one the definition gives."""
    i, j = (poset.index[e] for e in poset.covers()[0])
    return [row & ~(1 << j) if x == i else row for x, row in enumerate(poset.up_rows)]


def every_basis_below_every_other(m, poset):
    return [(1 << len(poset.elements)) - 1] * len(poset.elements)


def without_345_below_124(m, poset):
    """345 and 124, m5's bottom and top bases, lie in different blocks."""
    rows = list(poset.up_rows)
    rows[poset.index[parse_subset("345", 5)]] &= ~(1 << poset.index[parse_subset("124", 5)])
    return rows


def without_the_first_cross_block_cover(m, poset):
    """Still a partial order; on m5 ``lattice-laws`` names 14 as leaving the block form."""
    return next(cross_block_cover_drops(m)).up_rows


def boolean_blocks_without_their_top(monkeypatch):
    """``orders.submasks``, whose one reader is ``boolean_interval``, misses the mask."""
    real = orders.submasks
    monkeypatch.setattr(orders, "submasks", lambda mask: (s for s in real(mask) if s != mask))


def bivariate_blocks_swapped(monkeypatch):
    """The identity report's polynomial reads |Y| from the z block and |T| from the y
    block; the t = q collapse is the same either way."""
    real = tutte.bivariate_restriction_polynomial

    def swapped(m, restrictions):
        return real(m, [xyz(m.n, x, z, y) for x, y, z in (blocks(m.n, r) for r in restrictions)])

    monkeypatch.setattr(tutte, "bivariate_restriction_polynomial", swapped)


def deletion_contraction_swaps_the_variables(monkeypatch):
    real = suite.tutte_by_deletion_contraction
    swapped = lambda m: BiPoly({(t, q): v for (q, t), v in real(m).coeffs.items()})
    monkeypatch.setattr(suite, "tutte_by_deletion_contraction", swapped)


def h_vectors_read_backwards(monkeypatch):
    """The identity report reads every h-vector from its top entry down."""
    real = tutte.h_polynomial
    monkeypatch.setattr(tutte, "h_polynomial", lambda h: real(h[::-1]))


def u24():
    # 11 independent sets: the brute-force crosscheck runs on at most 12 facets
    return uniform(2, 4)


def drop_empty_nbc_set(monkeypatch):
    real = shelling.nbc_sets
    monkeypatch.setattr(shelling, "nbc_sets", lambda m: real(m)[1:])  # sorted by mask: ∅ first


def exchange_down_in_place(monkeypatch):
    monkeypatch.setattr(suite, "exchange_down_basis", lambda m, a_basis, a: a_basis)


MAIN, FLIP, NBC = suite.check_shelling_main, suite.check_shelling_flip, suite.check_nbc_suite
ACTIVITY, CRAPO, TUTTE = suite.check_activity, suite.check_crapo, suite.check_tutte
POSETS, EA, WITNESSES = suite.check_posets, suite.check_shelling_ea, suite.check_witnesses
AXIOMS = suite.check_matroid_axioms
MUTANTS = {
    # finding, or finding/what a second mutant breaks: (matroid, check, mutant,
    # the findings it fails, a sibling that still passes, None for a check of one
    # name); each runs on a fresh matroid, since a matroid keeps what it memoizes,
    # the witness pass among it, and the shared fixture must not keep a mutated one
    "dual-involution": (m5, AXIOMS, dual_drops_a_basis, {"dual-involution"}, "circuits-not-in-bases"),
    "circuits-not-in-bases": (
        m5, AXIOMS, a_basis_listed_as_a_circuit,
        {"circuits-not-in-bases", "fundamental-circuit-unique"}, "dual-involution",
    ),
    "circuits-not-in-bases/minimal": (
        m5, AXIOMS, whole_b_plus_e_as_circuit, {"circuits-not-in-bases"}, "dual-involution",
    ),
    "fundamental-circuit-unique": (
        m5, AXIOMS, circuit_of_the_next_element, {"fundamental-circuit-unique"},
        "circuits-not-in-bases",
    ),
    "rank-monotone": (m5, AXIOMS, rank_of_the_complement, {"rank-monotone"}, "rank-submodular"),
    "rank-submodular": (m5, AXIOMS, nullity_for_rank, {"rank-submodular"}, "rank-monotone"),
    "activity-partition": (
        m5, ACTIVITY, off_the_bases(lowest_ea_also_in_ep), {"activity-partition"},
        "activity-duality",
    ),
    "crapo-partition-subsets": (
        m5, CRAPO, dependent_sets_on_the_first_basis, {"crapo-partition-subsets"},
        "crapo-partition-independent",
    ),
    # A related_basis fake that returns another basis fails both findings: IP(B) lies
    # only in B's interval, so distinct bases differ in IP, and IP(I) = IP(RB(I)).
    "crapo-partition-independent": (
        m5, CRAPO, the_first_basis_holding_each_set,
        {"crapo-partition-independent", "related-basis-activities"}, "crapo-partition-subsets",
    ),
    "related-basis-activities": (
        m5, CRAPO, off_the_bases(lowest_ea_moved_into_ep), {"related-basis-activities"},
        "crapo-partition-subsets",
    ),
    "poset-axioms": (
        m5, POSETS, poset_rows("ext-bases", without_the_first_cover), {"poset-axioms"},
        "extint-refines-ext-int",
    ),
    "extint-refines-ext-int": (
        m5, POSETS, poset_rows("ext-bases", every_basis_below_every_other),
        {"poset-axioms", "extint-refines-ext-int"}, "ind-order-restricts-to-bases",
    ),
    "ind-order-restricts-to-bases": (
        m5, POSETS, poset_rows("extint-ind", without_345_below_124),
        {"poset-axioms", "ind-order-restricts-to-bases"}, "extint-refines-ext-int",
    ),
    "boolean-intervals": (
        m5, suite.check_boolean_intervals, boolean_blocks_without_their_top,
        {"boolean-intervals"}, None,
    ),
    "lattice-laws": (
        m5, suite.check_lattice, poset_rows("extint-ind", without_the_first_cross_block_cover),
        {"lattice-laws"}, None,
    ),
    # with B_I another basis ⊇ I, Y_I = B_I∖I leaves IA(B_I), and
    # |I| = |IA(B_I)∖Y_I| + |IP(B_I)| no longer holds
    "flip-involution": (
        m5, suite.check_flip_involution, the_first_basis_holding_each_set, {"flip-involution"},
        None,
    ),
    "activity-duality": (
        m5, ACTIVITY, move_an_element_on_the_dual, {"activity-duality"}, "activity-partition"
    ),
    "activity-exchange-crosscheck": (
        m5, ACTIVITY, exchange_finds_no_internal_activity, {"activity-exchange-crosscheck"},
        "activity-partition",
    ),
    "nbc-iff-no-external-activity": (
        m5, ACTIVITY, empty_set_is_not_nbc, {"nbc-iff-no-external-activity"}, "activity-duality"
    ),
    "restriction-sets-z": (m5, MAIN, wrong_closed_form, {"restriction-sets-z"}, "shelling-extint"),
    "property-H": (m5, MAIN, fails("property_H_check"), {"property-H"}, "shelling-extint"),
    "h-complex": (m5, MAIN, fails("h_complex_check"), {"h-complex"}, "shelling-extint"),
    # the h-vector match is read once per restriction map, from its report
    "h-vector-from-restrictions": (
        m5, MAIN, falsify("matches_complex_h"), {"h-vector-from-restrictions"}, "shelling-extint",
    ),
    "h-vector-from-restrictions/independence-f-vector": (
        m5, MAIN, independence_complex_drops_a_basis, {"h-vector-from-restrictions"},
        "shelling-extint",
    ),
    "witness-certifies-first-order": (
        m5, MAIN, witness_table_mutant(no_exchange_witness), {"witness-certifies-first-order"},
        "shelling-extint",
    ),
    "restriction-bruteforce-crosscheck": (
        u24, MAIN, bruteforce_drops_the_last_set, {"restriction-bruteforce-crosscheck"},
        "restriction-sets-z",
    ),
    "restriction-sets-flip": (
        m5, FLIP, wrong_closed_form, {"restriction-sets-flip"}, "shelling-flip"
    ),
    # every sample of a true shelling has one restriction map, so the mutant adds one
    "bivariate-order-invariant": (
        m5, FLIP, a_second_map_with_empty_restrictions, {"bivariate-order-invariant"},
        "shelling-flip",
    ),
    "shelling-ea": (m5, EA, wrong_closed_form, {"shelling-ea"}, None),
    "nbc-facet-count": (m5, NBC, count_an_nbc_set_twice, {"nbc-facet-count"}, "shelling-nbc"),
    # the count of independent sets with no external activity reads no nbc_sets
    "nbc-facet-count/every-reader": (
        m5, NBC, nbc_sets_without_the_empty_set,
        {"nbc-facet-count", "shelling-nbc", "restriction-sets-nbc", "property-H-nbc",
         "h-complex-nbc", "nbc-h-identity"},
        "nbc-induced-subcomplexes",
    ),
    "nbc-induced-subcomplexes": (
        m5, NBC, drop_an_induced_facet, {"nbc-induced-subcomplexes"}, "nbc-facet-count"
    ),
    "restriction-sets-nbc": (m5, NBC, wrong_closed_form, {"restriction-sets-nbc"}, "shelling-nbc"),
    "property-H-nbc": (m5, NBC, fails("property_H_check"), {"property-H-nbc"}, "shelling-nbc"),
    "h-complex-nbc": (m5, NBC, fails("h_complex_check"), {"h-complex-nbc"}, "shelling-nbc"),
    "nbc-h-identity": (
        m5, NBC, nbc_complex_counts_a_face_too_many, {"nbc-h-identity"}, "nbc-induced-subcomplexes"
    ),
    "nbc-h-identity/restrictions": (
        m5, NBC, falsify("matches_complex_h"), {"nbc-h-identity"}, "shelling-nbc"
    ),
    "tutte-oracle-agreement": (
        m5, TUTTE, deletion_contraction_swaps_the_variables, {"tutte-oracle-agreement"},
        "tutte-duality",
    ),
    # h_poly is also the t = q collapse of the bivariate polynomial
    "h-identity": (
        m5, TUTTE, h_vectors_read_backwards,
        {"h-identity", "nbc-h-identity-report", "bivariate-collapse"}, "bivariate-identity",
    ),
    "tutte-duality": (
        m5, TUTTE, dual_polynomial_unswapped, {"tutte-duality"}, "tutte-oracle-agreement"
    ),
    "tutte-evaluations": (
        m5, TUTTE, count_an_nbc_set_twice, {"tutte-evaluations"}, "tutte-oracle-agreement"
    ),
    "nbc-h-identity-report": (
        m5, TUTTE, augmented_nbc_replaced_by_nbc, {"nbc-h-identity-report"}, "h-identity"
    ),
    "bivariate-identity": (
        m5, TUTTE, bivariate_blocks_swapped, {"bivariate-identity"}, "bivariate-collapse"
    ),
    "bivariate-collapse": (
        m5, TUTTE, collapse_at_t_equals_one, {"bivariate-collapse"}, "bivariate-identity"
    ),
    "witness-all-pairs": (
        # the wrong exchanged basis: every c of good(134) takes the B of its smallest c
        m5, WITNESSES, witness_table_mutant(lambda good: [(c, good[-1][1]) for c, b in good]),
        {"witness-all-pairs", "witness-nbc-closure"}, "downward-exchange-lemma",
    ),
    "witness-nbc-closure": (
        m5, WITNESSES, drop_empty_nbc_set, {"witness-nbc-closure"}, "witness-all-pairs"
    ),
    "downward-exchange-lemma": (
        m5, WITNESSES, exchange_down_in_place, {"downward-exchange-lemma"}, "witness-all-pairs"
    ),
}


@pytest.mark.parametrize("finding", MUTANTS)
def test_shelling_mutant_fails_its_finding(monkeypatch, finding):
    matroid, check, mutant, failing, sibling = MUTANTS[finding]
    mutant(monkeypatch)
    findings = {f.check: f.ok for f in run_check(check, "m", matroid(), 10, 0)}
    assert finding.partition("/")[0] in failing
    assert {name for name, ok in findings.items() if not ok} == failing
    assert sibling is None or findings[sibling]


UNSHELLED = {  # check: the findings an order that does not shell fails
    MAIN: {"shelling-extint", "restriction-sets-z", "property-H", "h-complex",
           "h-vector-from-restrictions", "witness-certifies-first-order"},
    FLIP: {"shelling-flip", "restriction-sets-flip", "bivariate-order-invariant"},
    suite.check_shelling_ea: {"shelling-ea"},
    NBC: {"shelling-nbc", "restriction-sets-nbc", "property-H-nbc", "h-complex-nbc",
          "nbc-h-identity"},
}


@pytest.mark.parametrize("check", UNSHELLED, ids=["extint", "flip", "ea", "nbc"])
def test_an_order_that_does_not_shell_fails_every_sampled_finding(m5_matroid, monkeypatch, check):
    falsify("verdict")(monkeypatch)
    findings = {f.check: f.ok for f in run_check(check, "m5", m5_matroid, 10, 0)}
    assert {name for name, ok in findings.items() if not ok} == UNSHELLED[check]


@pytest.mark.parametrize("check", UNSHELLED, ids=["extint", "flip", "ea", "nbc"])
def test_an_order_that_is_no_linear_extension_fails_every_finding(m5_matroid, monkeypatch, check):
    # every sampled order is checked as an extension, not only the first; m5's
    # samples at cap 10 have more than one order
    swap_a_cover_pair(monkeypatch)
    findings = run_check(check, "m5", m5_matroid, 10, 0)
    detail = "NoLinearExtension: order places an element before one below it"
    assert [(f.check, f.ok, f.detail) for f in findings] == [
        (name, False, detail) for name in suite.FINDINGS[check.__name__]
    ]


def test_the_mutants_tell_every_two_names_of_a_check_apart():
    # the names and verdicts of a check are paired by position; two verdicts
    # returned in each other's places fail the mutant test of any mutant that
    # fails one of the two names and not the other
    failing = [entry[3] for entry in MUTANTS.values()] + list(UNSHELLED.values())
    for names in suite.FINDINGS.values():
        for a, b in combinations(names, 2):
            assert any((a in f) != (b in f) for f in failing), (a, b)


def test_every_finding_fails_under_some_mutant():
    failed = set().union(*(entry[3] for entry in MUTANTS.values()), *UNSHELLED.values())
    assert failed == {name for names in suite.FINDINGS.values() for name in names}


def test_wrong_witness_names_the_pair_and_the_oracle_message(monkeypatch):
    MUTANTS["witness-all-pairs"][2](monkeypatch)
    finding = {f.check: f for f in run_check(suite.check_witnesses, "m5", m5())}["witness-all-pairs"]
    assert finding.detail == "pair 1, 14: constructed witness violates the facet equation"


def test_a_failing_group_holding_the_empty_set_names_it(monkeypatch):
    # with good(135) empty, C = 135 first meets an unrelated set at K = 1, and
    # the sets left without a witness start with ∅, related to A = 345
    a_basis = related_basis(m5(), 0)
    witness_table_mutant(no_exchange_witness, parse_subset("135", 5))(monkeypatch)
    finding = {f.check: f for f in run_check(suite.check_witnesses, "m5", m5())}["witness-all-pairs"]
    assert a_basis == parse_subset("345", 5)
    assert finding.detail == "pair ∅, 1: no exchange witness for bases 345, 135"


def test_witness_error_fails_the_first_order_certificate(monkeypatch):
    # an error raised by the witness pass is a failing finding, not a crashed suite
    witness_table_mutant(no_exchange_witness)(monkeypatch)
    findings = {f.check: f for f in run_check(suite.check_shelling_main, "m5", m5(), 10, 0)}
    certificate = findings["witness-certifies-first-order"]
    assert not certificate.ok and findings["shelling-extint"].ok
    assert certificate.detail == "pair ∅, 14: no exchange witness for bases 345, 134"
    failed = {f.check for f in run_suite({"m5": m5()}, cap=10, seed=0) if not f.ok}
    assert failed == {"witness-certifies-first-order", "witness-all-pairs", "witness-nbc-closure"}


def test_a_check_that_raises_fails_every_declared_name(monkeypatch):
    # m5's 24 facets skip the crosscheck when the check returns its verdicts;
    # without verdicts run_check cannot tell, and fails it with the rest
    def no_pass(m):
        raise NoLinearExtension("no linear extension of the 24 elements")

    monkeypatch.setattr(suite, "witness_pass", no_pass)
    findings = run_check(MAIN, "m5", m5(), 10, 0)
    detail = "NoLinearExtension: no linear extension of the 24 elements"
    expected = [(name, False, detail) for name in suite.FINDINGS["check_shelling_main"]]
    assert [(f.check, f.ok, f.detail) for f in findings] == expected


def test_every_finding_passes_on_every_labeled_matroid_on_at_most_five_elements():
    # the equal-size families that from_bases accepts are the labeled matroids
    # on [n], every element order included (OEIS A058673)
    counts, corpus = [], {}
    for n in range(1, 6):
        accepted = []
        for family in equal_size_families(n):
            try:
                accepted.append(from_bases(n, family))
            except ExchangeAxiomViolated:
                pass
        counts.append(len(accepted))
        corpus.update((f"n{n}-{x}", m) for x, m in enumerate(accepted))
    assert counts == [2, 5, 16, 68, 406]
    findings = run_suite(corpus, cap=1)
    assert len(findings) == 22657
    assert [f for f in findings if not f.ok] == []


def test_a_failing_crapo_partition_names_the_set_and_the_way_it_failed(monkeypatch):
    # with activities from B ∪ e as every circuit, element 1 lies in no interval
    # [B∖IA(B), B∪EA(B)], and the error fails every Crapo finding
    activities_from_whole_b_plus_e(monkeypatch)
    findings = {f.check: (f.ok, f.detail) for f in run_check(suite.check_crapo, "m5", m5())}
    error = (False, "DecompositionNotFound: no Crapo decomposition of 1")
    assert findings == dict.fromkeys(suite.FINDINGS["check_crapo"], error)


def test_an_order_with_no_linear_extension_fails_without_raising(monkeypatch):
    # activities from B ∪ e as every circuit leave extint-ind with a cycle: no
    # linear extension, so the shelling samples are empty and the Tutte
    # identities have no order
    activities_from_whole_b_plus_e(monkeypatch)
    findings = run_suite({"m5": m5()}, cap=10, seed=0)
    # every declared name once, bar the crosscheck that m5's 24 facets skip
    declared = [name for names in suite.FINDINGS.values() for name in names]
    declared.remove("restriction-bruteforce-crosscheck")
    assert [f.check for f in findings] == declared
    found = {f.check: f for f in findings}
    assert not found["shelling-extint"].ok
    assert found["shelling-extint"].detail == "0 orders, exhaustive=True"
    assert not found["witness-certifies-first-order"].ok
    # a check that raises a library error fails each of its names, with the error
    assert not found["nbc-facet-count"].ok
    assert found["nbc-facet-count"].detail.startswith("NotPure: ")
    no_extension = "NoLinearExtension: no linear extension of the 24 elements"
    for name in suite.FINDINGS["check_tutte"]:
        assert (found[name].ok, found[name].detail) == (False, no_extension)


@pytest.mark.parametrize("mutant", [a_basis_listed_as_a_circuit, whole_b_plus_e_as_circuit])
def test_circuit_mutants_fail_the_activity_crosscheck(monkeypatch, mutant):
    # activities are computed by closure, so a wrong circuit leaves them as
    # they are, and the circuit definition that the crosscheck reads disagrees
    # (circuit_of_the_next_element lists the same circuits, and changes neither)
    mutant(monkeypatch)
    findings = {f.check: f.ok for f in run_check(ACTIVITY, "m5", m5())}
    assert not findings["activity-exchange-crosscheck"]
    assert findings["activity-partition"] and findings["activity-duality"]
