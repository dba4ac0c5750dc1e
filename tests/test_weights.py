import random
from fractions import Fraction

import pytest

from superchar.partitions import as_partition, conjugate, part, partitions_upto
from superchar.weights import (
    FIXED_R,
    AlgebraFamily,
    FamilyKind,
    hw_from_diagram,
    is_finite_dimensional,
    kd_labels,
)


def gl(M, N):
    return AlgebraFamily(FamilyKind.GL, M, N)


def type_c(s):
    return AlgebraFamily(FamilyKind.C, 1, s)


def type_d(r, s, plus=True):
    return AlgebraFamily(FamilyKind.D_PLUS if plus else FamilyKind.D_MINUS, r, s)


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


@pytest.mark.parametrize(
    "kind, r, s, message",
    [
        # a string kind once fell into the D rule: kd_labels of (3, 1) gave (4, 2, 2)
        ("B", 2, 1, "family kind must be a FamilyKind, got 'B'"),
        (FamilyKind.GL, True, 1, "r must be an int, got True"),  # described as gl(True|1)
        (FamilyKind.GL, 2.5, 1, "r must be an int, got 2.5"),  # a TypeError in hw_from_diagram
        (FamilyKind.B, 2, -1, "s must be nonnegative, got -1"),
    ],
)
def test_family_refuses_untrusted_fields(kind, r, s, message):
    with pytest.raises(ValueError) as err:
        AlgebraFamily(kind, r, s)
    assert str(err.value) == message


def test_gl_refuses_the_empty_algebra():
    # It once built gl(0|0), whose labels then failed on a rank of -1.
    with pytest.raises(ValueError) as err:
        gl(0, 0)
    assert str(err.value) == "gl(0|0) is the empty algebra: the gl family needs r + s >= 1"
    assert gl(1, 0).rank == 0 and gl(0, 1).rank == 0


def test_fixed_r_is_the_only_r_of_its_families():
    for kind, r in FIXED_R.items():
        assert AlgebraFamily(kind, r, 2).hook == (r, 2)
        for other in (r - 1, r + 1):
            if other >= 0:
                with pytest.raises(ValueError):
                    AlgebraFamily(kind, other, 2)


def test_label_length_checked():
    with pytest.raises(ValueError):
        kd_labels(gl(2, 1), F(1, 0))
    with pytest.raises(ValueError):
        is_finite_dimensional(gl(2, 1), F(1,))


# The per-kind rules the two-rule module replaced, kept verbatim as the
# reference that the differential tests below compare against.
def ref_weight_length(family) -> int:
    if family.kind is FamilyKind.GL:
        return family.r + family.s
    if family.kind is FamilyKind.B0:
        return family.s
    if family.kind is FamilyKind.C:
        return family.s + 1
    return family.r + family.s


def ref_rank(family) -> int:
    if family.kind is FamilyKind.GL:
        return family.r + family.s - 1
    return ref_weight_length(family)


def ref_hook(family) -> tuple[int, int]:
    if family.kind is FamilyKind.GL:
        return (family.r, family.s)
    if family.kind is FamilyKind.B0:
        return (0, family.s)
    if family.kind is FamilyKind.C:
        return (1, family.s)
    return (family.r, family.s)


def ref_require_hook(family, lam) -> None:
    M, N = ref_hook(family)
    bad = part(lam, M + 1)
    if bad > N:
        raise ValueError(
            f"{family.describe()}: part {M + 1} of {lam} is {bad} > {N}, "
            f"outside the [{M},{N}] hook"
        )


def ref_hw_from_diagram(family, lam):
    lam = as_partition(lam)
    ref_require_hook(family, lam)
    lam_c = conjugate(lam)
    F = Fraction
    k = family.kind
    if k is FamilyKind.GL:
        M, N = family.r, family.s
        eps = [F(part(lam, j)) for j in range(1, M + 1)]
        delta = [F(max(part(lam_c, j) - M, 0)) for j in range(1, N + 1)]
        return tuple(eps + delta)
    if k is FamilyKind.B0:
        return tuple(F(part(lam_c, j)) for j in range(1, family.s + 1))
    if k is FamilyKind.C:
        s = family.s
        head = [F(part(lam, 1))]
        tail = [F(max(part(lam_c, j) - 1, 0)) for j in range(1, s + 1)]
        return tuple(head + tail)
    r, s = family.r, family.s
    delta = [F(part(lam_c, j)) for j in range(1, s + 1)]
    eps = [F(max(part(lam, j) - s, 0)) for j in range(1, r + 1)]
    if k is FamilyKind.D_MINUS:
        eps[-1] = -eps[-1]
    return tuple(delta + eps)


def ref_kd_labels(family, weight):
    L = tuple(Fraction(w) for w in weight)
    if len(L) != ref_weight_length(family):
        raise ValueError(
            f"{family.describe()} expects {ref_weight_length(family)} coordinates, got {len(L)}"
        )
    k = family.kind

    def lab(j: int) -> Fraction:
        return L[j - 1]

    if k is FamilyKind.GL:
        M, N = family.r, family.s
        out = []
        for j in range(1, M + N):
            if j == M:
                out.append(lab(M) + lab(M + 1))
            else:
                out.append(lab(j) - lab(j + 1))
        return tuple(out)
    if k is FamilyKind.B0:
        s = family.s
        out = [lab(j) - lab(j + 1) for j in range(1, s)]
        out.append(2 * lab(s))
        return tuple(out)
    if k is FamilyKind.C:
        s = family.s
        out = [lab(1) + lab(2)]
        out.extend(lab(j) - lab(j + 1) for j in range(2, s + 1))
        out.append(lab(s + 1))
        return tuple(out)
    r, s = family.r, family.s
    n = r + s
    out = []
    for j in range(1, n + 1):
        if j == s:
            out.append(lab(s) + lab(s + 1))
        elif j == n:
            if k is FamilyKind.B:
                out.append(2 * lab(n))
            else:
                out.append(lab(n - 1) + lab(n))
        else:
            out.append(lab(j) - lab(j + 1))
    return tuple(out)


def ref_is_finite_dimensional(family, labels) -> bool:
    b = tuple(Fraction(x) for x in labels)
    if len(b) != ref_rank(family):
        raise ValueError(f"{family.describe()} has rank {ref_rank(family)}, got {len(b)}")
    k = family.kind

    def dominant(skip):
        return all(
            (x.denominator == 1 and x >= 0)
            for j, x in enumerate(b, start=1)
            if j != skip
        )

    if k is FamilyKind.GL:
        return dominant(family.r if family.s else None)
    if k is FamilyKind.C:
        return dominant(1)
    if k is FamilyKind.B0:
        s = family.s
        if not dominant(s):
            return False
        c = b[s - 1] / 2
        return c.denominator == 1 and c >= 0
    r, s = family.r, family.s
    n = r + s
    if not dominant(s if s else None):
        return False
    if k is FamilyKind.B:
        if s == 0:
            return b[n - 1] % 2 == 0
        c = b[s - 1] - sum(b[s : n - 1]) - b[n - 1] / 2
        if c.denominator != 1 or c < 0:
            return False
        if c < r and any(b[j] != 0 for j in range(s + int(c), n)):
            return False
        return True
    if s == 0:
        return (b[n - 2] - b[n - 1]) % 2 == 0
    c = b[s - 1] - sum(b[s : n - 2]) - (b[n - 2] + b[n - 1]) / 2
    if c.denominator != 1 or c < 0:
        return False
    if c < r - 1 and any(b[j] != 0 for j in range(s + int(c), n)):
        return False
    if c == r - 1 and b[n - 2] != b[n - 1]:
        return False
    return True


def differential_families():
    for M in range(4):
        for N in range(4):
            if M + N:
                yield gl(M, N)
    for r in range(1, 4):
        for s in range(4):
            yield AlgebraFamily(FamilyKind.B, r, s)
    for s in range(1, 5):
        yield AlgebraFamily(FamilyKind.B0, 0, s)
        yield type_c(s)
    for r in range(2, 5):
        for s in range(4):
            yield type_d(r, s, plus=True)
            yield type_d(r, s, plus=False)


def outcome(fn, *args):
    """("value", fn's value), or ("raises", type, message) of the error it raises."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return "raises", type(exc), str(exc)


def test_shape_matches_the_per_kind_rules():
    for family in differential_families():
        assert family.weight_length == ref_weight_length(family), family
        assert family.rank == ref_rank(family), family
        assert family.hook == ref_hook(family), family


def test_every_diagram_matches_the_per_kind_rules():
    in_hook = 0
    for family in differential_families():
        for lam in partitions_upto(8):
            expected = outcome(ref_hw_from_diagram, family, lam)
            assert outcome(hw_from_diagram, family, lam) == expected, (family, lam)
            if expected[0] == "raises":
                assert expected[1] is ValueError and "hook" in expected[2]
                continue
            in_hook += 1
            labels = outcome(ref_kd_labels, family, expected[1])
            assert outcome(kd_labels, family, expected[1]) == labels, (family, lam)
            assert outcome(is_finite_dimensional, family, labels[1]) == outcome(
                ref_is_finite_dimensional, family, labels[1]
            ), (family, lam)
    assert in_hook == 3118  # 3119 with gl(0|0)'s empty diagram, before gl(0|0) was refused


def test_random_vectors_match_the_per_kind_rules():
    rng = random.Random(20261019)
    # mostly integers, so that finite-dimensional label vectors come up often
    values = [Fraction(n, d) for n in range(-3, 7) for d in (1, 1, 1, 2, 3)]
    fd_true = 0
    for family in differential_families():
        for _ in range(40):
            for length in (family.weight_length, family.weight_length + 1):
                weight = [rng.choice(values) for _ in range(length)]
                expected = outcome(ref_kd_labels, family, weight)
                assert outcome(kd_labels, family, weight) == expected, (family, weight)
            for length in (family.rank, family.rank + 1, max(family.rank - 1, 0)):
                labels = [rng.choice(values) if rng.random() < 0.5
                          else Fraction(rng.randrange(4)) for _ in range(length)]
                expected = outcome(ref_is_finite_dimensional, family, labels)
                assert outcome(is_finite_dimensional, family, labels) == expected, (
                    family, labels
                )
                fd_true += expected == ("value", True)
    assert fd_true > 100
