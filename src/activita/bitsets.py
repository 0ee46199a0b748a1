"""Subsets of a ground set {1..n} encoded as machine-word bitmasks.

Element e occupies bit e-1, so masks compare and combine with plain integer operations.  The
string form is ascending digit concatenation for n <= 9 (e.g. "245") and comma-separated
integers otherwise; the empty set is "".  A family of sets is a 0/1 matrix, read by
:func:`columns`, :func:`containment_rows` and :func:`maximal`.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Iterable, Iterator, Sequence

from .errors import RankOutOfRange

MAX_GROUND = 64


def mask_of(elems: Iterable[int]) -> int:
    """Bitmask of a collection of elements (1-based)."""
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a mask, ascending (bit e-1 is element e)."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def elems_of(mask: int) -> tuple[int, ...]:
    """Ascending tuple of elements in a mask."""
    return tuple(i + 1 for i in iter_bits(mask))


def min_elem(mask: int) -> int:
    if not mask:
        raise ValueError("empty subset has no minimum")
    return (mask & -mask).bit_length()


def max_elem(mask: int) -> int:
    if not mask:
        raise ValueError("empty subset has no maximum")
    return mask.bit_length()


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask``, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def columns(sets: Sequence[int], width: int) -> list[int]:
    """The bitset {k : e ∈ sets[k]} for each bit e < width: the sets' binary digits by column."""
    spec, low = f"0{width}b", (1 << width) - 1
    digits = [format(s & low, spec) for s in reversed(sets)]  # highest bit first, last set on top
    return [int("".join(col), 2) for col in zip("0" * width, *digits)][::-1]  # a zero row: no sets


def containment_rows(need: Sequence[int], have: Sequence[int], width: int) -> list[int]:
    """Row x = {y : need[x] ⊆ have[y]}: the AND over e ∈ need[x] of the
    column bitset {y : e ∈ have[y]}, once per distinct need."""
    cols, full = columns(have, width), (1 << len(have)) - 1
    rows = {a: reduce(and_, [cols[e] for e in iter_bits(a)], full) for a in set(need)}
    return [rows[a] for a in need]


def maximal(family: Sequence[int], width: int) -> list[int]:
    """The sets of ``family`` (distinct, of bits below ``width``) in no other set of it."""
    rows = containment_rows(family, family, width)
    return [s for x, (s, row) in enumerate(zip(family, rows)) if row == 1 << x]


def in_ground(mask: int, n: int) -> int:
    """The mask, if a subset of 1..n; a bit past n, or a negative mask, raises."""
    if mask >> n:
        raise RankOutOfRange(f"subset {bin(mask)} outside ground set 1..{n}")
    return mask


def subset_str(mask: int, n: int) -> str:
    """Machine string form of a subset ("" for the empty set)."""
    return ("" if n <= 9 else ",").join(str(e) for e in elems_of(in_ground(mask, n)))


def subset_label(mask: int, n: int) -> str:
    """Display form: like subset_str but the empty set prints as a symbol."""
    return subset_str(mask, n) or "∅"


def parse_subset(text: str, n: int) -> int:
    """Parse the string form back into a mask; accepts "" and the empty-set symbol."""
    text = text.strip()
    if text in ("", "∅"):
        return 0
    if "," in text or n > 9:
        elems = [int(part) for part in text.split(",")]
    else:
        elems = [int(ch) for ch in text]
    for e in elems:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set 1..{n}")
    return mask_of(elems)
