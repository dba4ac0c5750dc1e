from math import comb

import pytest

from superchar.partitions import (
    PartitionClass,
    RectSubset,
    as_partition,
    box_partitions,
    conjugate,
    contains,
    enumerate_rect_subset,
    in_class,
    in_hook,
    in_rect_subset,
    part,
    partitions_inside,
    partitions_of,
    partitions_upto,
    size,
)


def grevlex_key(lam):
    """Graded order key: by size, then largest parts first within a grade."""
    return (sum(lam), tuple(-p for p in lam))


def test_as_partition():
    assert as_partition([3, 1]) == (3, 1)
    assert as_partition([2, 2, 0, 0]) == (2, 2)
    assert as_partition([]) == ()
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, -1])


@pytest.mark.parametrize("parts", [(2.7, 1.2), (2.0,), (True,), ("3",), (2, 1.0)])
def test_as_partition_requires_exact_ints(parts):
    with pytest.raises(ValueError):
        as_partition(parts)


@pytest.mark.parametrize("m, a", [(2.0, 2), (2, 1.5), (True, 1), (1, "2")])
def test_rectangle_sides_must_be_exact_ints(m, a):
    with pytest.raises(ValueError):
        box_partitions(m, a)
    with pytest.raises(ValueError):
        enumerate_rect_subset(RectSubset.EVENROW, m, a)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


def test_conjugate_is_involution():
    for lam in partitions_upto(12):
        assert conjugate(conjugate(lam)) == lam


def test_class_conjugate_duality():
    for lam in partitions_upto(12):
        assert in_class(lam, PartitionClass.EVEN_ROWS) == in_class(
            conjugate(lam), PartitionClass.EVEN_COLUMNS
        )


def test_in_hook():
    assert not in_hook((3, 3, 3), 2, 2)
    assert in_hook((5, 1), 1, 1)
    assert in_hook((), 0, 0)
    assert in_hook((4, 4), 2, 0)


def test_part_access():
    assert part((3, 1), 1) == 3
    assert part((3, 1), 2) == 1
    assert part((3, 1), 5) == 0


def test_partitions_of_counts():
    counts = [len(list(partitions_of(n))) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_enumerate_class_examples():
    def members(tag, max_size):
        return {lam for lam in partitions_upto(max_size) if in_class(lam, tag)}

    assert members(PartitionClass.EVEN_ROWS, 4) == {(), (2,), (4,), (2, 2)}
    assert members(PartitionClass.EVEN_COLUMNS, 2) == {(), (1, 1)}
    assert members(PartitionClass.ALL, 0) == {()}


def test_box_partitions_example():
    got = box_partitions(2, 2)
    assert set(got) == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}
    assert len(got) == comb(4, 2)
    # graded order, biggest first part first within a grade
    assert got == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]


def test_partitions_upto_is_in_graded_order():
    for max_len in (None, 1, 2, 3):
        got = partitions_upto(10, max_len=max_len)
        assert got == sorted(got, key=grevlex_key)
        assert len(set(got)) == len(got)
        assert all(max_len is None or len(lam) <= max_len for lam in got)
    assert len(partitions_upto(10)) == sum(len(list(partitions_of(n))) for n in range(11))


def test_partitions_inside_matches_filtered_upto():
    for outer in partitions_upto(8):
        want = [lam for lam in partitions_upto(size(outer)) if contains(outer, lam)]
        assert partitions_inside(outer) == want, outer


def test_partitions_inside_validates_outer():
    with pytest.raises(ValueError):
        partitions_inside((1, 2))
    with pytest.raises(ValueError):
        partitions_inside((2.0,))


def test_box_partition_counts():
    for m in range(1, 7):
        for a in range(1, 7):
            assert len(box_partitions(m, a)) == comb(m + a, a)


def test_rect_subset_examples():
    assert enumerate_rect_subset(RectSubset.COLPAIRED, 2, 1) == [(2,)]
    assert enumerate_rect_subset(RectSubset.EVENROW, 1, 2) == [(1, 1)]
    assert set(enumerate_rect_subset(RectSubset.BOX, 2, 2)) == set(box_partitions(2, 2))


def brute_colpaired(m, a):
    out = []
    for lam in box_partitions(m, a):
        rows = [part(lam, i) for i in range(1, a + 1)]
        if a % 2 == 1:
            ok = rows[0] == m and all(
                rows[i] == rows[i + 1] for i in range(1, a - 1, 2)
            )
        else:
            ok = all(rows[i] == rows[i + 1] for i in range(0, a - 1, 2))
        if ok:
            out.append(lam)
    return out


def brute_evenrow(m, a):
    out = []
    for lam in box_partitions(m, a):
        rows = [part(lam, i) for i in range(1, a + 1)]
        want = 1 if m % 2 else 0
        if all(r % 2 == want for r in rows):
            out.append(lam)
    return out


def test_rect_subsets_match_bruteforce():
    for m in range(1, 5):
        for a in range(1, 5):
            assert enumerate_rect_subset(RectSubset.COLPAIRED, m, a) == brute_colpaired(m, a)
            assert enumerate_rect_subset(RectSubset.EVENROW, m, a) == brute_evenrow(m, a)


def test_rect_subsets_contained_in_box():
    for m in range(1, 5):
        for a in range(1, 5):
            box = set(box_partitions(m, a))
            for tag in (RectSubset.COLPAIRED, RectSubset.EVENROW):
                members = enumerate_rect_subset(tag, m, a)
                assert set(members) <= box
                for lam in box:
                    assert (lam in members) == in_rect_subset(tag, m, a, lam)


def filtered_rect_subset(tag, m, a):
    """The subset as a filter: the box sorted by grevlex_key, kept pointwise by in_rect_subset."""
    box = sorted(partitions_inside((m,) * a), key=grevlex_key)
    return [lam for lam in box if in_rect_subset(tag, m, a, lam)]


@pytest.mark.parametrize("tag", list(RectSubset))
def test_rect_subsets_match_the_filtered_box_in_order(tag):
    for m in range(1, 7):
        for a in range(1, 7):
            assert enumerate_rect_subset(tag, m, a) == filtered_rect_subset(tag, m, a), (m, a)


def test_box_partitions_are_in_grevlex_order():
    for m in range(1, 7):
        for a in range(1, 7):
            got = box_partitions(m, a)
            assert got == sorted(got, key=grevlex_key), (m, a)
            fits = [lam for lam in partitions_upto(m * a, max_len=a) if not lam or lam[0] <= m]
            assert got == fits, (m, a)


def test_rect_subset_rejects_bad_sides():
    with pytest.raises(ValueError):
        enumerate_rect_subset(RectSubset.BOX, 0, 1)
    with pytest.raises(ValueError):
        enumerate_rect_subset(RectSubset.BOX, 1, -1)


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (2, 2, 1))
    assert contains((3, 2), ())


# ---------------------------------------------------------------------------
# The rectangle subsets as piece removals, computed independently
# ---------------------------------------------------------------------------


def removals(a, m, piece):
    """Every shape reached from the a x m rectangle by removing pieces one at a time.

    piece is "box" (a row's last cell), "horizontal" (a row's last two
    cells) or "vertical" (the last cells of rows i and i + 1, which must
    then end in the same column).  Every step must leave a partition.
    """
    start = (m,) * a
    seen, todo = {start}, [start]
    while todo:
        rows = todo.pop()
        for i in range(a):
            if piece == "box":
                cand = rows[:i] + (rows[i] - 1,) + rows[i + 1 :]
            elif piece == "horizontal":
                cand = rows[:i] + (rows[i] - 2,) + rows[i + 1 :]
            elif i + 1 < a and rows[i] == rows[i + 1]:
                cand = rows[:i] + (rows[i] - 1, rows[i + 1] - 1) + rows[i + 2 :]
            else:
                continue
            if min(cand) >= 0 and all(x >= y for x, y in zip(cand, cand[1:])) and cand not in seen:
                seen.add(cand)
                todo.append(cand)
    return {tuple(p for p in rows if p) for rows in seen}


@pytest.mark.parametrize(
    "tag, piece",
    [
        (RectSubset.BOX, "box"),
        (RectSubset.COLPAIRED, "vertical"),
        (RectSubset.EVENROW, "horizontal"),
    ],
)
def test_rect_subsets_are_the_piece_removals(tag, piece):
    for a in range(1, 7):
        for m in range(1, 7):
            got = enumerate_rect_subset(tag, m, a)
            assert len(set(got)) == len(got), (a, m)
            assert set(got) == removals(a, m, piece), (tag, a, m)
