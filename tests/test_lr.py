import pytest

from superchar.lr import _VARIANT_SUBSET, lr_coeff, lr_rect_sum, lr_rectangle, lr_table
from superchar.partitions import (
    PartitionClass,
    add,
    box_partitions,
    conjugate,
    contains,
    in_rect_subset,
    part,
    partitions_inside,
    partitions_of,
    partitions_upto,
    size,
)
from superchar.schur import schur_expand, schur_in_table, t_table


def test_lr_coeff_requires_exact_int_parts():
    with pytest.raises(ValueError):
        lr_coeff((2.5,), (1,), (1.9,))
    with pytest.raises(ValueError):
        lr_coeff((3,), ("2",), (1,))


def test_lr_coeff_checks_types_before_the_memo():
    # (2.0,) and (True,) hash and compare equal to (2,) and (1,), so a memo
    # lookup would answer for them once the int shapes are cached.
    assert lr_coeff((2,), (1,), (1,)) == 1
    for args in [((2.0,), (True,), (1,)), ((2,), (1.0,), (1,)), ((2,), (1,), (True,))]:
        with pytest.raises(ValueError, match="must be ints"):
            lr_coeff(*args)


def test_empty_side_is_delta():
    assert lr_coeff((2, 1), (), (2, 1)) == 1
    assert lr_coeff((2, 1), (2, 1), ()) == 1
    assert lr_coeff((3,), (), (2, 1)) == 0


def test_size_mismatch_vanishes():
    assert lr_coeff((2, 2), (1,), (1,)) == 0


def test_single_box_times_column():
    assert lr_coeff((2, 1), (1,), (1, 1)) == 1
    assert lr_coeff((1, 1, 1), (1,), (1, 1)) == 1
    assert lr_coeff((3,), (1,), (1, 1)) == 0


def test_known_multiplicity_two():
    # S_(2,1) * S_(2,1) contains S_(3,2,1) with multiplicity 2
    assert lr_coeff((3, 2, 1), (2, 1), (2, 1)) == 2


def oracle_products(max_size):
    for n in range(max_size + 1):
        nvars = max(n, 1)
        table = t_table(nvars)
        for k in range(n + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(n - k):
                    product = schur_in_table(mu, table) * schur_in_table(nu, table)
                    yield mu, nu, schur_expand(product, nvars), n


def test_matches_expansion_oracle_small():
    for mu, nu, expansion, n in oracle_products(4):
        for lam in partitions_of(n):
            assert lr_coeff(lam, mu, nu) == expansion.get(lam, 0), (lam, mu, nu)


def test_symmetry_and_transpose():
    for n in range(6):
        for lam in partitions_of(n):
            for k in range(n + 1):
                for mu in partitions_of(k):
                    for nu in partitions_of(n - k):
                        c = lr_coeff(lam, mu, nu)
                        assert c == lr_coeff(lam, nu, mu)
                        assert c == lr_coeff(conjugate(lam), conjugate(mu), conjugate(nu))


def test_stacking():
    for k in range(4):
        for mu in partitions_of(k):
            for j in range(4):
                for nu in partitions_of(j):
                    assert lr_coeff(add(mu, nu), mu, nu) == 1


def recursive_lr(lam, mu, nu):
    """The one-frame-per-box recursive fill that ``lr_coeff`` used to run."""
    if size(lam) != size(mu) + size(nu) or not contains(lam, mu):
        return 0
    if not nu:
        return 1
    letters = len(nu)
    cells = [
        (i, j)
        for i in range(len(lam))
        for j in range(lam[i] - 1, part(mu, i + 1) - 1, -1)
    ]
    filling = {}
    counts = [0] * (letters + 1)

    def place(pos):
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        right = filling.get((i, j + 1))
        above = filling.get((i - 1, j)) if i and j >= part(mu, i) else None
        total = 0
        for v in range(1, letters + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            counts[v] += 1
            filling[(i, j)] = v
            total += place(pos + 1)
            del filling[(i, j)]
            counts[v] -= 1
        return total

    return place(0)


def test_iterative_fill_matches_the_recursive_fill():
    triples = 0
    for n in range(9):
        for lam in partitions_of(n):
            for k in range(n + 1):
                for mu in partitions_of(k):
                    for nu in partitions_of(n - k):
                        assert lr_coeff.__wrapped__(lam, mu, nu) == recursive_lr(lam, mu, nu), (
                            lam, mu, nu,
                        )
                        triples += 1
    assert triples == 6830


def test_lr_table_matches_lr_coeff_on_every_pair():
    # Every shape with |lam| <= 9, against lr_coeff for every (nu, mu) inside
    # lam whose sizes add up; the table holds no other pair.
    shapes = pairs = 0
    for lam in partitions_upto(9):
        inside = partitions_inside(lam)
        want = {}
        for nu in inside:
            for mu in inside:
                if size(nu) + size(mu) == size(lam):
                    c = lr_coeff.__wrapped__(lam, nu, mu)
                    if c:
                        want[nu, mu] = c
                    pairs += 1
        assert dict(lr_table(lam)) == want, lam
        shapes += 1
    assert (shapes, pairs) == (97, 3938)


def test_lr_table_checks_types_and_is_read_only():
    assert dict(lr_table((2, 1))) == {
        ((), (2, 1)): 1,
        ((1,), (2,)): 1,
        ((1,), (1, 1)): 1,
        ((2,), (1,)): 1,
        ((1, 1), (1,)): 1,
        ((2, 1), ()): 1,
    }
    for lam in [(2.0,), (True, True)]:
        with pytest.raises(ValueError, match="must be ints"):
            lr_table(lam)
    with pytest.raises(TypeError):
        lr_table((2, 1))[(), ()] = 2


def test_deep_skew_shapes_need_no_recursion():
    # Pieri's rule: a horizontal (vertical) strip of 1200 boxes, coefficient 1.
    assert lr_coeff((2400,), (1200,), (1200,)) == 1
    assert lr_coeff((1,) * 2400, (1,) * 1200, (1,) * 1200) == 1
    assert lr_coeff((2400,), (1200,), (1,) * 1200) == 0


def test_rectangle_examples():
    assert lr_rectangle(2, 2, (2, 1), (1,)) == 1
    assert lr_rectangle(2, 2, (2, 2), ()) == 1
    assert lr_rectangle(2, 2, (1, 1), (1,)) == 0


def test_rectangle_rejects_oversize():
    with pytest.raises(ValueError):
        lr_rectangle(2, 2, (3,), ())


def test_rectangle_matches_tableau_rule():
    for m in range(1, 4):
        for a in range(1, 4):
            box = box_partitions(m, a)
            shape = (m,) * a
            for mu in box:
                for nu in box:
                    assert lr_rectangle(m, a, mu, nu) == lr_coeff(shape, mu, nu)


def test_rect_sum_examples():
    assert lr_rect_sum(2, 2, (2, 1), PartitionClass.ALL) == 1
    assert lr_rect_sum(2, 2, (1, 1), PartitionClass.EVEN_COLUMNS) == 1
    assert lr_rect_sum(2, 1, (1,), PartitionClass.EVEN_ROWS) == 0


def test_rect_sum_indicates_membership():
    for m in range(1, 4):
        for a in range(1, 4):
            for mu in box_partitions(m, a):
                for variant in PartitionClass:
                    want = 1 if in_rect_subset(_VARIANT_SUBSET[variant], m, a, mu) else 0
                    assert lr_rect_sum(m, a, mu, variant) == want, (m, a, mu, variant)


@pytest.mark.parametrize(
    "args",
    [
        (0, 1, (), ()),  # an empty box
        (True, 1, (), (1,)),  # a bool side
        (1, 2.0, (), ()),
        (2, 2, (1,), (3,)),  # nu wider than the box
    ],
)
def test_rectangle_checks_the_box_first(args):
    with pytest.raises(ValueError):
        lr_rectangle(*args)


@pytest.mark.parametrize(
    "args",
    [
        (0, 1, (1,), PartitionClass.ALL),  # an empty box, once an early 0
        (-1, 2, (1,), PartitionClass.ALL),
        (True, 1, (1,), PartitionClass.ALL),
        (1, 1, (5,), "junk"),  # mu outside the box and no class
        (2, 2, (1,), "all"),  # a class value, not the class
        (2, 2, (3,), PartitionClass.ALL),  # mu wider than the box
        (2, 2, (1, 1, 1), PartitionClass.ALL),  # mu taller than the box
    ],
)
def test_rect_sum_checks_its_inputs_before_any_early_return(args):
    with pytest.raises(ValueError):
        lr_rect_sum(*args)
