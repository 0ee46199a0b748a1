"""Tutte polynomials, the deletion-contraction oracle, and the identities."""

from activita.bitsets import parse_subset
from activita.matroid import from_bases, uniform
from activita.tutte import (
    BiPoly,
    h_polynomial,
    identity_report,
    tutte_by_activities,
    tutte_by_deletion_contraction,
)


def poly(**monomials):
    """poly(q3=1, q2=2, q1t1=2, ...) convenience builder for expected values."""
    coeffs = {}
    for key, coeff in monomials.items():
        qe = te = 0
        part = key
        if "q" in part:
            rest = part.split("q", 1)[1]
            num = ""
            for ch in rest:
                if ch.isdigit() or ch == "-":
                    num += ch
                else:
                    break
            qe = int(num) if num else 1
        if "t" in part:
            rest = part.split("t", 1)[1]
            num = "".join(ch for ch in rest if ch.isdigit() or ch == "-")
            te = int(num) if num else 1
        coeffs[(qe, te)] = coeff
    return BiPoly(coeffs)


class TestBiPoly:
    def test_arithmetic(self):
        q = BiPoly.monomial(1, 0)
        t = BiPoly.monomial(0, 1)
        assert (q + t) * (q + t) == poly(q2=1, q1t1=2, t2=1)
        assert q**3 == BiPoly.monomial(3, 0)
        assert BiPoly() + q == q

    def test_laurent(self):
        inv = BiPoly.monomial(-1, 0)
        assert inv * BiPoly.monomial(1, 0) == BiPoly.one()
        assert inv.min_q_exponent() == -1

    def test_subst(self):
        p = poly(q2=1, t1=1)
        q_plus_1 = BiPoly({(0, 0): 1, (1, 0): 1})
        assert p.subst(q_plus_1, BiPoly.one()) == poly(q2=1, q1=2, **{"": 2})

    def test_t_equals_q(self):
        assert poly(q1t1=1, t2=3).subst_t_equals_q() == BiPoly({(2, 0): 4})

    def test_evaluate(self):
        assert poly(q2=1, q1t1=2).evaluate(2, 3) == 4 + 12

    def test_repr_sorted(self):
        assert repr(poly(q1=1, t1=1, q2=2)) == "2*q^2 + q + t"


class TestTutte:
    def test_m5(self, m5_matroid):
        expected = poly(q3=1, q2=2, q1=1, q1t1=2, t1=1, t2=1)
        assert tutte_by_activities(m5_matroid) == expected

    def test_u24(self):
        assert tutte_by_activities(uniform(2, 4)) == poly(q2=1, q1=2, t1=2, t2=1)

    def test_free_matroid(self):
        for r in range(4):
            if r == 0:
                continue
            assert tutte_by_activities(uniform(r, r)) == BiPoly.monomial(r, 0)

    def test_single_loop_and_coloop(self):
        loop = from_bases(1, [0])
        assert tutte_by_deletion_contraction(loop) == BiPoly.monomial(0, 1)
        coloop = uniform(1, 1)
        assert tutte_by_deletion_contraction(coloop) == BiPoly.monomial(1, 0)

    def test_oracle_agreement(self, corpus):
        for m in corpus.values():
            assert tutte_by_activities(m) == tutte_by_deletion_contraction(m)
            dual_poly = tutte_by_activities(m.dual)
            swapped = BiPoly({(t, q): v for (q, t), v in tutte_by_activities(m).coeffs.items()})
            assert dual_poly == swapped

    def test_evaluations(self, corpus):
        from activita.activity import nbc_sets

        for m in corpus.values():
            T = tutte_by_activities(m)
            assert T.evaluate(2, 1) == len(m.independent_sets)
            assert T.evaluate(1, 1) == len(m.bases)
            assert T.evaluate(2, 0) == len(nbc_sets(m))


class TestIdentityReport:
    def test_m5_exact_values(self, m5_matroid):
        rep = identity_report(m5_matroid)
        assert rep.ok
        assert rep.h_poly == poly(q8=1, q7=5, q6=10, q5=8)
        assert rep.nbc_h_poly == poly(q3=1, q2=5, q1=8, **{"": 4})
        # h-polynomial equals q^5 * T(1+q, 1) expanded by hand
        assert rep.h_poly == BiPoly.monomial(5, 0) * poly(q3=1, q2=5, q1=10, **{"": 8})
        # bivariate collapses to the h-polynomial at t = q
        assert rep.bivariate.subst_t_equals_q() == rep.h_poly

    def test_all_corpus(self, corpus):
        for name, m in corpus.items():
            rep = identity_report(m)
            assert rep.ok, name

    def test_degenerate_rank_zero(self):
        rep = identity_report(uniform(0, 2))
        assert rep.ok
        # only the empty set is independent: single facet z_E, h-poly = q^n
        assert rep.h_poly == BiPoly.monomial(2, 0)

    def test_loopy_matroid_nbc_identity(self):
        m = from_bases(3, [parse_subset("23", 3)])
        rep = identity_report(m)
        assert rep.nbc_h_poly == BiPoly()
        assert rep.nbc_matches

    def test_triangle_pendant_closed_form(self, corpus):
        # coloop times triangle: q * (q^2 + q + t)
        m = corpus["triangle-pendant"]
        assert tutte_by_activities(m) == poly(q3=1, q2=1, q1t1=1)

    def test_h_polynomial_helper(self):
        assert h_polynomial((1, 2, 1)) == poly(q2=1, q1=2, **{"": 1})
        assert h_polynomial(()) == BiPoly()
