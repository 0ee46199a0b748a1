"""The verification-suite driver: finding shapes and degenerate matroids."""

from activita.bitsets import parse_subset
from activita.matroid import from_bases, graphic, relabel, uniform
from activita.suite import run_suite


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


def test_full_suite_on_wheel_w4():
    # the wheel with four spokes: 8 elements, 134 independent sets
    w4 = graphic(5, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)])
    assert len(w4.independent_sets) == 134
    findings = run_suite({"W4": w4}, cap=20)
    assert findings and all(f.ok for f in findings), [f for f in findings if not f.ok]
