"""Tutte polynomials via activities and deletion-contraction, plus identities.

Polynomials live in BiPoly: sparse integer Laurent polynomials in (q, t)
where the q-exponent may be negative (the bivariate restriction-set
polynomial has 1/q powers).  The identity report checks the h-polynomial
formulas tying the activity complexes to Tutte evaluations.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache, reduce
from operator import and_, or_
from typing import NamedTuple

from .activity import activity_profile
from .complexes import build_complex, xyz
from .matroid import Matroid
from .orders import build_poset, first_extension
from .shelling import verify_shelling


class BiPoly:
    """Sparse integer polynomial in (q, t); q-exponents may be negative."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def monomial(cls, qexp: int, texp: int, coeff: int = 1) -> "BiPoly":
        return cls({(qexp, texp): coeff})

    @classmethod
    def collect(cls, terms: Iterable[tuple[tuple[int, int], int]]) -> "BiPoly":
        """The sum of the terms ((q-exponent, t-exponent), coefficient)."""
        out: dict[tuple[int, int], int] = {}
        for key, v in terms:
            out[key] = out.get(key, 0) + v
        return cls(out)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        return BiPoly.collect([*self.coeffs.items(), *other.coeffs.items()])

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out: dict[tuple[int, int], int] = {}
        for (q1, t1), v1 in self.coeffs.items():
            for (q2, t2), v2 in other.coeffs.items():
                key = (q1 + q2, t1 + t2)
                out[key] = out.get(key, 0) + v1 * v2
        return BiPoly(out)

    def __pow__(self, e: int) -> "BiPoly":
        return reduce(BiPoly.__mul__, [self] * e, BiPoly.monomial(0, 0))

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

    def subst(self, qval: "BiPoly", tval: "BiPoly") -> "BiPoly":
        """Substitute polynomials for q and t; exponents must be nonnegative."""
        if any(qe < 0 or te < 0 for qe, te in self.coeffs):
            raise ValueError("cannot substitute into a Laurent exponent")
        terms = (BiPoly({(0, 0): v}) * qval**qe * tval**te for (qe, te), v in self.coeffs.items())
        return sum(terms, BiPoly())

    def evaluate(self, qval: int, tval: int) -> int:
        """Numeric evaluation; exponents must be nonnegative."""
        if any(qe < 0 or te < 0 for qe, te in self.coeffs):
            raise ValueError("cannot evaluate a Laurent exponent at an integer")
        return sum(v * qval**qe * tval**te for (qe, te), v in self.coeffs.items())

    def subst_t_equals_q(self) -> "BiPoly":
        return BiPoly.collect(((qe + te, 0), v) for (qe, te), v in self.coeffs.items())

    def min_q_exponent(self) -> int:
        return min((qe for qe, _ in self.coeffs), default=0)

    def terms(self) -> list[tuple[int, int, int]]:
        """(q-exponent, t-exponent, coefficient), highest monomials first."""
        return sorted(((qe, te, v) for (qe, te), v in self.coeffs.items()), reverse=True)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for qe, te, v in self.terms():
            factors = []
            if abs(v) != 1 or (qe == 0 and te == 0):
                factors.append(str(abs(v)))
            if qe:
                factors.append("q" if qe == 1 else f"q^{qe}")
            if te:
                factors.append("t" if te == 1 else f"t^{te}")
            term = "*".join(factors)
            parts.append(("- " if v < 0 else "+ " if parts else "") + term)
        return " ".join(parts)


def tutte_by_activities(matroid: Matroid) -> BiPoly:
    """T(q, t) = sum over bases of q^(#internally active) t^(#externally active)."""
    profiles = (activity_profile(matroid, b) for b in matroid.bases)
    return BiPoly.collect(((p.ia.bit_count(), p.ea.bit_count()), 1) for p in profiles)


def tutte_by_deletion_contraction(matroid: Matroid) -> BiPoly:
    """Independent oracle: the standard loop/coloop/delete+contract recursion."""
    q = BiPoly.monomial(1, 0)
    t = BiPoly.monomial(0, 1)

    @cache
    def rec(ground: int, bases: frozenset[int]) -> BiPoly:
        if not ground:
            return BiPoly.monomial(0, 0)
        ebit = ground & -ground
        rest = ground ^ ebit
        covered, common = reduce(or_, bases, 0), reduce(and_, bases, ground)
        if not covered & ebit:  # loop
            return t * rec(rest, bases)
        if common & ebit:  # coloop
            return q * rec(rest, frozenset(b ^ ebit for b in bases))
        deleted = frozenset(b for b in bases if not b & ebit)
        contracted = frozenset(b ^ ebit for b in bases if b & ebit)
        return rec(rest, deleted) + rec(rest, contracted)

    return rec(matroid.full_mask, frozenset(matroid.bases))


def h_polynomial(h: tuple[int, ...]) -> BiPoly:
    """The h-polynomial sum h_i q^(d-i) of an h-vector (zero for the void complex)."""
    return BiPoly({(len(h) - 1 - i, 0): coeff for i, coeff in enumerate(h)})


def bivariate_restriction_polynomial(
    matroid: Matroid, restrictions: list[int]
) -> BiPoly:
    """Two-variable enrichment of the h-polynomial from flip-order restrictions.

    Each restriction set y_Y z_T contributes q^(-|Y|) t^(n+r-|T|); the
    restrictions come from a shelling of the augmented complex, and Y and T
    are their y and z blocks.
    """
    d = matroid.n + matroid.rank
    ymask, zmask = xyz(matroid.n, ys=matroid.full_mask), xyz(matroid.n, zs=matroid.full_mask)
    return BiPoly.collect(
        ((-(r & ymask).bit_count(), d - (r & zmask).bit_count()), 1) for r in restrictions
    )


class IdentityReport(NamedTuple):
    """T(q, t) and the verdicts of the identities tying complexes to Tutte evaluations."""

    tutte: BiPoly
    h_matches: bool
    nbc_matches: bool
    bivariate_matches: bool
    collapse_matches: bool


def identity_report(matroid: Matroid) -> IdentityReport:
    """Evaluate the h-polynomial and bivariate identities for one matroid.

    (a) h-poly of the augmented complex equals q^n T(1+q, 1);
    (b) h-poly of the augmented nbc complex equals T(1+q, 0);
    (c) the bivariate polynomial of a flip-order shelling equals
        t^n T((1/q+1)t, 1) as Laurent polynomials, and q^rank times it has
        no negative q-exponent;
    (d) setting t = q in (c) recovers (a).
    """
    n, r = matroid.n, matroid.rank
    tutte = tutte_by_activities(matroid)
    one = BiPoly.monomial(0, 0)
    q_plus_1 = BiPoly({(0, 0): 1, (1, 0): 1})

    h_poly = h_polynomial(build_complex(matroid, "augmented-ea").fh.h)
    rhs_a = BiPoly.monomial(n, 0) * tutte.subst(q_plus_1, one)
    h_matches = h_poly == rhs_a

    rhs_b = tutte.subst(q_plus_1, BiPoly())
    nbc_matches = h_polynomial(build_complex(matroid, "augmented-nbc").fh.h) == rhs_b

    order = first_extension(build_poset(matroid, "flip-ind"))
    cx = build_complex(matroid, "augmented-ea")
    report = verify_shelling(cx, [cx.facet_by_tag[i] for i in order])
    bivariate = bivariate_restriction_polynomial(matroid, report.restrictions)
    inv_q_plus_1_t = BiPoly({(-1, 1): 1, (0, 1): 1})
    rhs_c = BiPoly.monomial(0, n) * tutte.subst(inv_q_plus_1_t, one)
    bivariate_matches = report.verdict and bivariate == rhs_c and bivariate.min_q_exponent() >= -r

    collapse_matches = bivariate.subst_t_equals_q() == h_poly

    return IdentityReport(tutte, h_matches, nbc_matches, bivariate_matches, collapse_matches)
