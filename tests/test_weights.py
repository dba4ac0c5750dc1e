from fractions import Fraction

import pytest

from superchar.partitions import part, partitions_upto
from superchar.weights import (
    AlgebraFamily,
    FamilyKind,
    gl,
    hw_from_diagram,
    is_finite_dimensional,
    kd_labels,
    type_c,
    type_d,
)


def F(*values):
    return tuple(Fraction(v) for v in values)


def test_hw_examples():
    assert hw_from_diagram(gl(2, 1), (2, 1)) == F(2, 1, 0)
    assert hw_from_diagram(AlgebraFamily(FamilyKind.B, 2, 1), (3, 1)) == F(2, 2, 0)
    assert hw_from_diagram(type_d(2, 0, plus=False), (2, 2)) == F(2, -2)


def test_hw_rejects_out_of_hook():
    with pytest.raises(ValueError) as err:
        hw_from_diagram(gl(2, 1), (2, 2, 2))
    assert "hook" in str(err.value)
    with pytest.raises(ValueError):
        hw_from_diagram(AlgebraFamily(FamilyKind.B0, 0, 2), (3,))


def test_kd_examples():
    assert kd_labels(gl(2, 1), F(2, 1, 0)) == F(1, 1)
    assert kd_labels(AlgebraFamily(FamilyKind.B, 2, 1), F(2, 2, 0)) == F(4, 2, 0)
    assert kd_labels(AlgebraFamily(FamilyKind.B0, 0, 2), F(1, 1)) == F(0, 2)


def test_kd_type_c():
    fam = type_c(2)
    hw = hw_from_diagram(fam, (3, 1, 1))  # first column 3, first row 3
    assert hw == F(3, 2, 0)
    labels = kd_labels(fam, hw)
    assert labels == F(5, 2, 0)
    assert is_finite_dimensional(fam, labels)


def test_fd_examples():
    assert not is_finite_dimensional(gl(2, 1), F(-1, 0))
    assert not is_finite_dimensional(AlgebraFamily(FamilyKind.B, 2, 0), F(0, 1))
    assert is_finite_dimensional(AlgebraFamily(FamilyKind.B, 2, 0), F(0, 2))


def test_fd_half_integral_rejected():
    assert not is_finite_dimensional(AlgebraFamily(FamilyKind.B0, 0, 2), F(1, 1))  # c = 1/2


def all_families():
    yield gl(2, 1)
    yield gl(1, 2)
    yield gl(3, 0)
    yield AlgebraFamily(FamilyKind.B, 2, 1)
    yield AlgebraFamily(FamilyKind.B, 1, 2)
    yield AlgebraFamily(FamilyKind.B, 2, 0)
    yield AlgebraFamily(FamilyKind.B0, 0, 2)
    yield type_c(1)
    yield type_c(2)
    yield type_d(2, 1, plus=True)
    yield type_d(2, 1, plus=False)
    yield type_d(3, 0, plus=True)
    yield type_d(3, 0, plus=False)
    yield type_d(2, 2, plus=True)


def test_round_trip_finite_dimensional():
    for family in all_families():
        M, N = family.hook
        for lam in partitions_upto(8):
            if part(lam, M + 1) > N:
                continue
            labels = kd_labels(family, hw_from_diagram(family, lam))
            assert is_finite_dimensional(family, labels), (family.describe(), lam)


def test_d_conventions_coincide_iff_short_last_row():
    for r, s in ((2, 0), (2, 1), (3, 1)):
        plus = type_d(r, s, plus=True)
        minus = type_d(r, s, plus=False)
        for lam in partitions_upto(8):
            if part(lam, r + 1) > s:
                continue
            same = hw_from_diagram(plus, lam) == hw_from_diagram(minus, lam)
            assert same == (part(lam, r) <= s), (r, s, lam)


def test_family_validation():
    with pytest.raises(ValueError):
        AlgebraFamily(FamilyKind.B, 0, 2)
    with pytest.raises(ValueError):
        AlgebraFamily(FamilyKind.D_PLUS, 1, 1)
    with pytest.raises(ValueError):
        AlgebraFamily(FamilyKind.C, 1, 0)


def test_label_length_checked():
    with pytest.raises(ValueError):
        kd_labels(gl(2, 1), F(1, 0))
    with pytest.raises(ValueError):
        is_finite_dimensional(gl(2, 1), F(1,))
