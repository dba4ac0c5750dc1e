"""Highest weights and Kac-Dynkin labels for hook-shaped Young diagrams.

Families covered: the general linear superalgebra gl(M|N), the odd
orthosymplectic series B(r,s) = osp(2r+1|2s) with its r = 0 degeneration
B0(s) = osp(1|2s), the type-C series C(s+1) = osp(2|2s), and the even
orthosymplectic series osp(2r|2s) with its two weight conventions D+ / D-
(differing in the sign of the last coordinate).

Weight coordinates are exact rationals because the finite-dimensionality
conditions divide labels by two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .partitions import Partition, as_partition, conjugate, part

Weight = tuple[Fraction, ...]
Labels = tuple[Fraction, ...]


class FamilyKind(enum.Enum):
    GL = "gl"
    B = "B"
    B0 = "B0"
    C = "C"
    D_PLUS = "D+"
    D_MINUS = "D-"


@dataclass(frozen=True)
class AlgebraFamily:
    kind: FamilyKind
    r: int
    s: int

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ValueError("family parameters must be nonnegative")
        if self.kind is FamilyKind.B and self.r < 1:
            raise ValueError("the B family needs r >= 1 (r = 0 is B0)")
        if self.kind is FamilyKind.B0 and self.r != 0:
            raise ValueError("B0 has no r parameter")
        if self.kind in (FamilyKind.B, FamilyKind.B0) and self.r + self.s < 1:
            raise ValueError("B-type families need r + s >= 1")
        if self.kind is FamilyKind.C and (self.r != 1 or self.s < 1):
            raise ValueError("the C family is the r = 1 case with s >= 1")
        if self.kind in (FamilyKind.D_PLUS, FamilyKind.D_MINUS) and self.r < 2:
            raise ValueError("the D families need r >= 2")

    @property
    def weight_length(self) -> int:
        if self.kind is FamilyKind.GL:
            return self.r + self.s  # here (r, s) plays the role of (M, N)
        if self.kind is FamilyKind.B0:
            return self.s
        if self.kind is FamilyKind.C:
            return self.s + 1
        return self.r + self.s

    @property
    def rank(self) -> int:
        if self.kind is FamilyKind.GL:
            return self.r + self.s - 1
        return self.weight_length

    @property
    def hook(self) -> tuple[int, int]:
        if self.kind is FamilyKind.GL:
            return (self.r, self.s)
        if self.kind is FamilyKind.B0:
            return (0, self.s)
        if self.kind is FamilyKind.C:
            return (1, self.s)
        return (self.r, self.s)

    def describe(self) -> str:
        if self.kind is FamilyKind.GL:
            return f"gl({self.r}|{self.s})"
        if self.kind is FamilyKind.B0:
            return f"B0({self.s})"
        if self.kind is FamilyKind.C:
            return f"C({self.s + 1})"
        return f"{self.kind.value}({self.r},{self.s})"


def gl(M: int, N: int) -> AlgebraFamily:
    return AlgebraFamily(FamilyKind.GL, M, N)


def type_c(s: int) -> AlgebraFamily:
    return AlgebraFamily(FamilyKind.C, 1, s)


def type_d(r: int, s: int, plus: bool = True) -> AlgebraFamily:
    kind = FamilyKind.D_PLUS if plus else FamilyKind.D_MINUS
    return AlgebraFamily(kind, r, s)


def _require_hook(family: AlgebraFamily, lam: Partition) -> None:
    M, N = family.hook
    bad = part(lam, M + 1)
    if bad > N:
        raise ValueError(
            f"{family.describe()}: part {M + 1} of {lam} is {bad} > {N}, "
            f"outside the [{M},{N}] hook"
        )


def hw_from_diagram(family: AlgebraFamily, lam) -> Weight:
    """Highest-weight coordinates attached to an in-hook diagram."""
    lam = as_partition(lam)
    _require_hook(family, lam)
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


def kd_labels(family: AlgebraFamily, weight) -> Labels:
    """Kac-Dynkin labels of a weight, one per Dynkin node."""
    L = tuple(Fraction(w) for w in weight)
    if len(L) != family.weight_length:
        raise ValueError(
            f"{family.describe()} expects {family.weight_length} coordinates, got {len(L)}"
        )
    k = family.kind

    def lab(j: int) -> Fraction:  # 1-indexed coordinate access
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


def is_finite_dimensional(family: AlgebraFamily, labels) -> bool:
    """Evaluate the family's finite-dimensionality condition on the labels.

    For B and D at s = 0 there is no odd node, so only the dominance
    conditions apply together with the parity content of the consistency
    condition (last label even for B; last two labels of equal parity for D).
    """
    b = tuple(Fraction(x) for x in labels)
    if len(b) != family.rank:
        raise ValueError(f"{family.describe()} has rank {family.rank}, got {len(b)}")
    k = family.kind

    def dominant(skip: int | None) -> bool:
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
    # D+/D- share one condition set
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
