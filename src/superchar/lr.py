"""Littlewood-Richardson coefficients by lattice-word tableau counting.

The coefficient of S_lam in S_mu * S_nu is the number of column-strict skew
tableaux of shape lam/mu with content nu whose reverse reading word (right to
left along each row, rows top to bottom) is a lattice word: every prefix
contains at least as many i's as (i+1)'s.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .partitions import (
    Partition,
    PartitionClass,
    RectSubset,
    _check_rect,
    _class_inside,
    as_partition,
    checked_memo,
    contains,
    in_class,
    part,
    size,
)


def _int_parts(*args):
    # Each shape made a canonical partition before the memo, which would take
    # (True,) and (2.0,) for (1,) and (2,) and cannot hash a list; a class
    # tag passes through.
    return tuple(a if isinstance(a, PartitionClass) else as_partition(a) for a in args)


def _fillings(lam: Partition, inner: Partition, caps: list[int], marked: bool):
    """Backtrack over the lattice-word fillings of lam/inner; yield (filling, counts) at each.

    The cells run in reading order (rows top to bottom, each right to left).
    Letters are 1..len(caps), letter v used at most caps[v - 1] times; rows
    weakly increase left to right, columns strictly increase downwards, and
    the reading word stays a lattice word.  With marked, letter 1 stands for
    the cells of an inner shape instead: a 1 has only 1s above it and to
    its left, may repeat down a column, and is left out of the lattice
    word, which then starts at letter 2.  filling[pos] is the letter at the
    pos-th cell and counts[v] the uses of letter v; both are shared lists,
    so read them before asking for the next filling.
    """
    letters = len(caps)
    cells = [
        (i, j)
        for i in range(len(lam))
        for j in range(lam[i] - 1, part(inner, i + 1) - 1, -1)
    ]
    end = len(cells)
    index = {cell: pos for pos, cell in enumerate(cells)}
    marker = 1 if marked else -1
    # filling[pos] is 0 while empty.  Two sentinel slots stand in for a
    # missing neighbour: `letters` to the right, and above 0, or the marker
    # when the top row may be marked.
    filling = [0] * end + [letters, int(marked)]
    right = [index.get((i, j + 1), end) for i, j in cells]
    above = [index.get((i - 1, j), end + 1) for i, j in cells]
    caps = [0] + caps
    first = 1 + int(marked)  # the lattice word's first letter
    counts = [0] * (letters + 1)
    pos = 0
    while pos >= 0:
        if pos == end:
            yield filling, counts
            pos -= 1
            continue
        v = filling[pos]
        if v:
            counts[v] -= 1  # take back the letter placed here last
        # The next letter after the last one tried that keeps every rule; a
        # marker may sit below a marker, any other letter only below a
        # smaller one.
        a = filling[above[pos]]
        v = max(v + 1, a + (a != marker))
        top = filling[right[pos]]
        while v <= top and (counts[v] >= caps[v] or v > first and counts[v] >= counts[v - 1]):
            v += 1
        if v <= top:
            counts[v] += 1
            filling[pos] = v
            pos += 1
        else:
            filling[pos] = 0
            pos -= 1


@checked_memo(_int_parts)
def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of S_lam in S_mu * S_nu; 0 on any size or shape mismatch."""
    if size(lam) != size(mu) + size(nu):
        return 0
    if not contains(lam, mu):
        return 0
    if not nu:
        return 1  # lam == mu is forced by the size check
    return sum(1 for _ in _fillings(lam, mu, list(nu), False))


@checked_memo(_int_parts)
def lr_table(lam: Partition) -> Mapping[tuple[Partition, Partition], int]:
    """Every nonzero c^lam_{nu,mu} (the multiplicity of S_lam in S_nu * S_mu), by (nu, mu).

    One backtracking pass over lam's cells, with nu's cells marked: each
    marked filling is a tableau of shape lam/nu and content mu counted by
    lr_coeff(lam, nu, mu), so the table agrees with it entry by entry.  The
    mapping is the memo's own, read-only.
    """
    rows = []  # each row's cells, a slice of the filling
    start = 0
    for length in lam:
        rows.append(slice(start, start + length))
        start += length
    table: dict[tuple[Partition, Partition], int] = {}
    get = table.get
    for filling, counts in _fillings(lam, (), [size(lam)] * (len(lam) + 1), True):
        # nu's rows are the marks in each row, mu's the counts of the other letters.
        nu = tuple(filter(None, [filling[row].count(1) for row in rows]))
        key = nu, tuple(filter(None, counts[2:]))
        table[key] = get(key, 0) + 1
    return MappingProxyType(table)


@checked_memo(_int_parts)
def _class_table(lam: Partition, tag: PartitionClass) -> Mapping[Partition, int]:
    """mu -> the sum of c^lam_{nu,mu} over the nu of the class tag inside lam.

    One lattice-word pass (_fillings) over each skew shape lam/nu of the
    class: a filling of content mu is a tableau counted by lr_coeff(lam, nu,
    mu), so the sums are lr_table's entries summed over the class, and a mu
    with none is absent.  Letter v is capped at lam_v, as mu lies inside
    lam.  The mapping is the memo's own, read-only.
    """
    caps = list(lam)
    sums: dict[Partition, int] = {}
    get = sums.get
    for nu in _class_inside(lam, tag):
        for _, counts in _fillings(lam, nu, caps, False):
            mu = tuple(filter(None, counts[1:]))
            sums[mu] = get(mu, 0) + 1
    return MappingProxyType(sums)


def _check_box(m: int, a: int, *shapes: Partition) -> list[Partition]:
    """The shapes made partitions, after checking the a x m box and that each fits inside it."""
    _check_rect(m, a)
    shapes = [as_partition(shape) for shape in shapes]
    for shape in shapes:
        if len(shape) > a or shape and shape[0] > m:
            raise ValueError(f"{shape} does not fit inside the {a} x {m} rectangle")
    return shapes


def lr_rectangle(m: int, a: int, mu: Partition, nu: Partition) -> int:
    """Closed form for the rectangle coefficient: complementary pairs only.

    Returns 1 iff mu_i + nu_{a+1-i} = m for every 1 <= i <= a, that is iff
    nu is mu's rotated complement in the box, else 0.
    """
    return _rect_coeff(m, a, *_check_box(m, a, mu, nu))


def _rect_complement(m: int, a: int, mu: Partition) -> Partition:
    """mu's rotated complement in the a x m box, for mu known to fit: m - mu_{a+1-i} in row i."""
    return tuple(filter(None, (m - part(mu, i) for i in range(a, 0, -1))))


def _rect_coeff(m: int, a: int, mu: Partition, nu: Partition) -> int:
    """lr_rectangle for partitions mu, nu already known to fit inside the a x m box."""
    return int(_rect_complement(m, a, mu) == nu)


_VARIANT_SUBSET = {
    PartitionClass.ALL: RectSubset.BOX,
    PartitionClass.EVEN_COLUMNS: RectSubset.COLPAIRED,
    PartitionClass.EVEN_ROWS: RectSubset.EVENROW,
}


def _rect_sums(m: int, a: int) -> dict[tuple[Partition, PartitionClass], int]:
    """(mu, class) -> sum of LR^{(m^a)}_{kappa, mu} over the kappa of the class, for every mu.

    One pass over the box's lr_table: an entry (kappa, mu) counts when
    kappa fits the box and |kappa| + |mu| is the box's size.  A mu with no
    such entry is absent.
    """
    box = (m,) * a
    total = size(box)
    sums: dict[tuple[Partition, PartitionClass], int] = {}
    for (kappa, mu), c in lr_table(box).items():
        if size(kappa) + size(mu) == total and contains(box, kappa):
            for variant in PartitionClass:
                if in_class(kappa, variant):
                    sums[mu, variant] = sums.get((mu, variant), 0) + c
    return sums


def lr_rect_sum(m: int, a: int, mu: Partition, variant: PartitionClass) -> int:
    """Sum of rectangle coefficients over a class of complements.

    Summing LR^{(m^a)}_{kappa, mu} over kappa in the chosen class gives 1
    exactly when mu lies in the matching rectangle subset, else 0; the sum is
    read from the box's class sums (_rect_sums), membership is checked
    separately by the callers.
    """
    (mu,) = _check_box(m, a, mu)
    if not isinstance(variant, PartitionClass):
        raise ValueError(f"unknown class {variant!r}")
    return _rect_sums(m, a).get((mu, variant), 0)

