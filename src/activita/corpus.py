"""The built-in matroid corpus used by the verification suite.

The star of the show is a rank-3 matroid on five points with two collinear
triples (1,2,3 and 1,4,5); its eight bases, activities, facet tables and
Hasse diagrams are the ground truth that the test suite pins down exactly.
"""

from __future__ import annotations

from .bitsets import parse_subset
from .matroid import Matroid, from_bases, graphic, uniform

M5_BASIS_STRINGS = ("345", "135", "245", "235", "125", "134", "234", "124")


def m5() -> Matroid:
    """Five points in the plane, triples 123 and 145 collinear; rank 3, 8 bases."""
    return from_bases(5, [parse_subset(s, 5) for s in M5_BASIS_STRINGS])


def builtin_corpus() -> dict[str, Matroid]:
    base = m5()
    return {
        "m5": base,
        "m5-dual": base.dual,
        "u13": uniform(1, 3),
        "u24": uniform(2, 4),
        "u35": uniform(3, 5),
        "k4": graphic(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
        "triangle-pendant": graphic(4, [(1, 2), (2, 3), (1, 3), (3, 4)]),
    }

