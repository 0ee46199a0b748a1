"""The verification-suite driver: finding shapes, degenerate matroids, and
mutants that each turn one finding of the sampled-shelling driver to FAIL."""

import pytest

import activita.suite as suite
from activita.bitsets import parse_subset
from activita.matroid import from_bases, graphic, relabel, uniform
from activita.shelling import flip_restrictions
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


def corrupt_second_report(field, value):
    """Set one field of the second report that ``suite.verify_shelling`` returns,
    so the corruption sits on an order after the first."""

    def patch(monkeypatch):
        real = suite.verify_shelling
        reports = []

        def corrupted(cx, order, check_properties=True):
            report = real(cx, order, check_properties=check_properties)
            reports.append(report)
            if len(reports) == 2:
                setattr(report, field, value(report))
            return report

        monkeypatch.setattr(suite, "verify_shelling", corrupted)

    return patch


def wrong_flip_closed_form(monkeypatch):
    def wrong(m):
        closed = flip_restrictions(m)
        closed[next(iter(closed))] ^= 1
        return closed

    monkeypatch.setattr(suite, "flip_restrictions", wrong)


def falsify(field):
    return corrupt_second_report(field, lambda report: False)


REVERSED = corrupt_second_report("restrictions", lambda report: report.restrictions[::-1])
MAIN, FLIP, NBC = suite.check_shelling_main, suite.check_shelling_flip, suite.check_nbc_suite
MUTANTS = {
    # finding: (check, mutant, the findings it fails, a sibling that still passes)
    "restriction-sets-z": (MAIN, REVERSED, {"restriction-sets-z"}, "shelling-extint"),
    "property-H": (MAIN, falsify("property_h"), {"property-H"}, "shelling-extint"),
    "h-complex": (MAIN, falsify("h_complex"), {"h-complex"}, "shelling-extint"),
    "h-vector-from-restrictions": (
        MAIN, falsify("matches_complex_h"), {"h-vector-from-restrictions"}, "shelling-extint"
    ),
    "restriction-sets-flip": (
        FLIP, wrong_flip_closed_form, {"restriction-sets-flip"}, "shelling-flip"
    ),
    # equal restriction sets give equal polynomials, so a report whose
    # polynomial differs also fails the closed form
    "bivariate-order-invariant": (
        FLIP,
        corrupt_second_report("restrictions", lambda report: [0] * len(report.restrictions)),
        {"restriction-sets-flip", "bivariate-order-invariant"},
        "shelling-flip",
    ),
    "restriction-sets-nbc": (NBC, REVERSED, {"restriction-sets-nbc"}, "shelling-nbc"),
    "property-H-nbc": (NBC, falsify("property_h"), {"property-H-nbc"}, "shelling-nbc"),
    "h-complex-nbc": (NBC, falsify("h_complex"), {"h-complex-nbc"}, "shelling-nbc"),
}


@pytest.mark.parametrize("finding", MUTANTS)
def test_shelling_mutant_fails_its_finding(m5_matroid, monkeypatch, finding):
    check, mutant, failing, sibling = MUTANTS[finding]
    mutant(monkeypatch)
    findings = {f.check: f.ok for f in check("m5", m5_matroid, 10, 0)}
    assert finding in failing
    assert {name for name, ok in findings.items() if not ok} == failing
    assert findings[sibling]


@pytest.mark.parametrize(
    "check,failing",
    [
        (MAIN, {"shelling-extint", "restriction-sets-z", "property-H", "h-complex",
                "h-vector-from-restrictions", "witness-certifies-first-order"}),
        (FLIP, {"shelling-flip", "restriction-sets-flip", "bivariate-order-invariant"}),
        (suite.check_shelling_ea, {"shelling-ea"}),
        (NBC, {"shelling-nbc", "restriction-sets-nbc", "property-H-nbc", "h-complex-nbc"}),
    ],
    ids=["extint", "flip", "ea", "nbc"],
)
def test_an_order_that_does_not_shell_fails_every_sampled_finding(
    m5_matroid, monkeypatch, check, failing
):
    falsify("verdict")(monkeypatch)
    findings = {f.check: f.ok for f in check("m5", m5_matroid, 10, 0)}
    assert {name for name, ok in findings.items() if not ok} == failing
