"""Partitions, hooks, and the rectangle subsets indexing the decompositions.

A partition is a plain tuple of weakly decreasing positive ints; the empty
tuple is the empty partition.  Trailing zeros are never stored, and the i-th
part of a short partition reads as 0.
"""

from __future__ import annotations

import enum
from functools import lru_cache, wraps
from typing import Iterable, Iterator

Partition = tuple[int, ...]

EMPTY: Partition = ()


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize: weakly decreasing, positive, no stored zeros.

    Every part must be exactly an int; bool, float and str are refused.
    """
    lam = tuple(parts)
    for p in lam:
        if type(p) is not int:
            raise ValueError(f"partition parts must be ints, got {p!r}")
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    for i, p in enumerate(lam):
        if p < 1:
            raise ValueError(f"partition parts must be positive, got {lam}")
        if i and lam[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing, got {lam}")
    return lam


def checked_memo(check):
    """Memoize a function on the arguments check returns, checking them first.

    A cache lookup takes (True,) and (1.0,) for (1,), so the shape is
    validated before the lookup, not inside the cached body.  The public name
    keeps cache_info and cache_clear.
    """

    def decorate(fn):
        cached = lru_cache(maxsize=None)(fn)

        @wraps(fn)
        def checked(*args):
            return cached(*check(*args))

        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        return checked

    return decorate


def part(lam: Partition, i: int) -> int:
    """The i-th part (1-indexed), 0 beyond the stored length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def size(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    """The transposed diagram, walking the rows once from the last.

    Columns lam_(i+1) + 1 .. lam_i have length i (lam_(l+1) = 0), so row i
    adds lam_i - lam_(i+1) columns of length i, from the last row up.
    """
    out: list[int] = []
    below = 0
    for i in range(len(lam), 0, -1):
        out += [i] * (lam[i - 1] - below)
        below = lam[i - 1]
    return tuple(out)


def contains(outer: Partition, inner: Partition) -> bool:
    """True when inner fits inside outer row by row."""
    return len(inner) <= len(outer) and all(
        o >= i for o, i in zip(outer, inner)
    )


def in_hook(lam: Partition, M: int, N: int) -> bool:
    """True iff the diagram fits the hook: the (M+1)-th part is at most N."""
    if M < 0 or N < 0:
        raise ValueError("hook arms must be nonnegative")
    return part(lam, M + 1) <= N


def add(mu: Partition, nu: Partition) -> Partition:
    n = max(len(mu), len(nu))
    return tuple(part(mu, i) + part(nu, i) for i in range(1, n + 1))


def partitions_of(n: int, max_len: int | None = None) -> Iterator[Partition]:
    """All partitions of n, length bounded by max_len.

    Yields in lexicographically decreasing order of the part sequence.
    """
    if n < 0:
        return
    if max_len is None:
        max_len = n

    def rec(remaining: int, bound: int, slots: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if slots == 0:
            return
        for p in range(min(bound, remaining), 0, -1):
            yield from rec(remaining - p, p, slots - 1, prefix + (p,))

    yield from rec(n, n, max_len, EMPTY)


def partitions_upto(max_size: int, max_len: int | None = None) -> list[Partition]:
    """All partitions of size <= max_size, graded order (partitions_of's within a grade)."""
    return [lam for n in range(max_size + 1) for lam in partitions_of(n, max_len=max_len)]


class PartitionClass(enum.Enum):
    ALL = "all"
    EVEN_ROWS = "even_rows"
    EVEN_COLUMNS = "even_columns"


def in_class(lam: Partition, tag: PartitionClass) -> bool:
    if tag is PartitionClass.ALL:
        return True
    if tag is PartitionClass.EVEN_ROWS:
        return all(p % 2 == 0 for p in lam)
    if tag is PartitionClass.EVEN_COLUMNS:
        # columns all even <=> rows come in equal pairs
        return len(lam) % 2 == 0 and all(
            lam[i] == lam[i + 1] for i in range(0, len(lam), 2)
        )
    raise ValueError(f"unknown class {tag!r}")


class RectSubset(enum.Enum):
    BOX = "box"
    COLPAIRED = "colpaired"
    EVENROW = "evenrow"


def require_counts(**values: int) -> None:
    """Reject any value that is not an exact nonnegative int (bool included)."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def _check_rect(m: int, a: int) -> None:
    require_counts(m=m, a=a)
    if m < 1 or a < 1:
        raise ValueError(f"rectangle sides must be >= 1, got m={m}, a={a}")


def in_rect_subset(tag: RectSubset, m: int, a: int, lam: Partition) -> bool:
    """Pointwise membership check against the defining inequality chain."""
    _check_rect(m, a)
    rows = [part(lam, i) for i in range(1, a + 1)]
    if len(lam) > a or (rows and rows[0] > m):
        return False
    if tag is RectSubset.BOX:
        return True
    if tag is RectSubset.COLPAIRED:
        if a % 2 == 1:
            if rows[0] != m:
                return False
            pairs = range(1, a - 1, 2)
        else:
            pairs = range(0, a - 1, 2)
        return all(rows[i] == rows[i + 1] for i in pairs)
    if tag is RectSubset.EVENROW:
        if m % 2 == 1:
            return all(r % 2 == 1 for r in rows)  # forces every r >= 1
        return all(r % 2 == 0 for r in rows)
    raise ValueError(f"unknown subset {tag!r}")


def _inside(outer: Partition) -> list[Partition]:
    """All partitions inside a valid outer (outer and the empty one included), graded order.

    The depth-first list is lexicographically decreasing within each size,
    and the sort is stable, so sorting it by size alone gives graded order.
    """
    out: list[Partition] = []

    def rec(row: int, bound: int, prefix: Partition):
        out.append(prefix)
        if row == len(outer):
            return
        for p in range(min(bound, outer[row]), 0, -1):
            rec(row + 1, p, prefix + (p,))

    rec(0, outer[0] if outer else 0, EMPTY)
    out.sort(key=sum)
    return out


def _class_inside(outer: Partition, tag: PartitionClass) -> list[Partition]:
    """The members of the class tag inside a valid outer, graded order.

    EVEN_ROWS doubles each part of a partition inside outer's halved rows;
    EVEN_COLUMNS repeats each row of one inside (outer_2, outer_4, ...), as a
    pair of equal rows fits when its lower row does.  Both maps keep size
    order and lexicographic order, so the list comes out graded.
    """
    if tag is PartitionClass.EVEN_ROWS:
        return [tuple(2 * p for p in nu) for nu in _inside(tuple(p // 2 for p in outer if p > 1))]
    if tag is PartitionClass.EVEN_COLUMNS:
        return [sum(zip(nu, nu), EMPTY) for nu in _inside(outer[1::2])]
    raise ValueError(f"no member enumeration for the class {tag!r}")


def partitions_inside(outer: Iterable[int]) -> list[Partition]:
    """All partitions inside outer (outer and the empty one included), graded order."""
    return _inside(as_partition(outer))


def box_partitions(m: int, a: int) -> list[Partition]:
    """All partitions inside the a-by-m rectangle, graded order."""
    _check_rect(m, a)
    return _inside((m,) * a)


def enumerate_rect_subset(tag: RectSubset, m: int, a: int) -> list[Partition]:
    """The tag's subset of the a-by-m rectangle, graded order.

    Each member is built from a partition nu of a smaller box: COLPAIRED
    doubles each row of nu in the (a//2)-row box, under a full row m when a
    is odd; EVENROW is 2 nu over the box of width m//2 when m is even, and
    2 nu + 1 padded with 1s to a rows when m is odd.  Both maps keep size
    order and lexicographic order, so the list comes out graded.
    """
    _check_rect(m, a)
    if tag is RectSubset.BOX:
        return _inside((m,) * a)
    if tag is RectSubset.COLPAIRED:
        top = (m,) if a % 2 else EMPTY
        return [sum(zip(nu, nu), top) for nu in _inside((m,) * (a // 2))]
    if tag is RectSubset.EVENROW:
        half = _inside((m // 2,) * a if m > 1 else EMPTY)
        if m % 2:
            return [tuple(2 * p + 1 for p in nu) + (1,) * (a - len(nu)) for nu in half]
        return [tuple(2 * p for p in nu) for nu in half]
    raise ValueError(f"unknown subset {tag!r}")
