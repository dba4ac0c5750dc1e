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

from .partitions import Partition, as_partition, conjugate, part, require_counts

Weight = tuple[Fraction, ...]
Labels = tuple[Fraction, ...]


class FamilyKind(enum.Enum):
    GL = "gl"
    B = "B"
    B0 = "B0"
    C = "C"
    D_PLUS = "D+"
    D_MINUS = "D-"


# The families whose r is fixed: B0(s) = osp(1|2s) is B at r = 0, and
# C(s+1) = osp(2|2s) is gl(1|s)'s rule plus one label at r = 1.
FIXED_R = {FamilyKind.B0: 0, FamilyKind.C: 1}

# Families that take gl(M|N)'s rule with (M, N) = (r, s); the others take the
# orthosymplectic rule, in which D+ and D- differ from B.
_GL_RULE = (FamilyKind.GL, FamilyKind.C)
_D_KINDS = (FamilyKind.D_PLUS, FamilyKind.D_MINUS)


@dataclass(frozen=True)
class AlgebraFamily:
    kind: FamilyKind
    r: int
    s: int

    def __post_init__(self):
        kind, r, s = self.kind, self.r, self.s
        if not isinstance(kind, FamilyKind):
            raise ValueError(f"family kind must be a FamilyKind, got {kind!r}")
        require_counts(r=r, s=s)
        if kind is FamilyKind.GL and r + s < 1:
            raise ValueError("gl(0|0) is the empty algebra: the gl family needs r + s >= 1")
        if kind is FamilyKind.B and r < 1:
            raise ValueError("the B family needs r >= 1 (r = 0 is B0)")
        if kind is FamilyKind.B0 and r != FIXED_R[kind]:
            raise ValueError("B0 has no r parameter")
        if kind in (FamilyKind.B, FamilyKind.B0) and r + s < 1:
            raise ValueError("B-type families need r + s >= 1")
        if kind is FamilyKind.C and (r != FIXED_R[kind] or s < 1):
            raise ValueError("the C family is the r = 1 case with s >= 1")
        if kind in _D_KINDS and r < 2:
            raise ValueError("the D families need r >= 2")

    @property
    def weight_length(self) -> int:
        return self.r + self.s

    @property
    def rank(self) -> int:
        if self.kind is FamilyKind.GL:
            return self.r + self.s - 1
        return self.weight_length

    @property
    def hook(self) -> tuple[int, int]:
        return (self.r, self.s)

    def describe(self) -> str:
        if self.kind is FamilyKind.GL:
            return f"gl({self.r}|{self.s})"
        if self.kind is FamilyKind.B0:
            return f"B0({self.s})"
        if self.kind is FamilyKind.C:
            return f"C({self.s + 1})"
        return f"{self.kind.value}({self.r},{self.s})"


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
    r, s = family.r, family.s
    if family.kind in _GL_RULE:
        eps = [F(part(lam, j)) for j in range(1, r + 1)]
        delta = [F(max(part(lam_c, j) - r, 0)) for j in range(1, s + 1)]
        return tuple(eps + delta)
    delta = [F(part(lam_c, j)) for j in range(1, s + 1)]
    eps = [F(max(part(lam, j) - s, 0)) for j in range(1, r + 1)]
    if family.kind is FamilyKind.D_MINUS:
        eps[-1] = -eps[-1]
    return tuple(delta + eps)


def kd_labels(family: AlgebraFamily, weight) -> Labels:
    """Kac-Dynkin labels of a weight, one per Dynkin node."""
    L = tuple(Fraction(w) for w in weight)
    if len(L) != family.weight_length:
        raise ValueError(
            f"{family.describe()} expects {family.weight_length} coordinates, got {len(L)}"
        )
    r, s = family.r, family.s
    n = r + s
    if family.kind in _GL_RULE:
        # C's rank is n, one past gl(1|s)'s: its last label L_n reads a zero
        # coordinate past the end.
        L += (0,)
        return tuple(
            L[j - 1] + L[j] if j == r else L[j - 1] - L[j] for j in range(1, family.rank + 1)
        )
    out = []
    for j in range(1, n + 1):
        if j == n:  # tested first: at r = 0 (B0) the last node is the odd node
            out.append(L[n - 2] + L[n - 1] if family.kind in _D_KINDS else 2 * L[n - 1])
        elif j == s:
            out.append(L[s - 1] + L[s])
        else:
            out.append(L[j - 1] - L[j])
    return tuple(out)


def is_finite_dimensional(family: AlgebraFamily, labels) -> bool:
    """Evaluate the family's finite-dimensionality condition on the labels.

    Every label but the odd node's (node r for gl and C, node s for the
    orthosymplectic families) is a nonnegative integer. For B and D at s = 0
    there is no odd node, so only the dominance conditions apply together
    with the parity content of the consistency condition (last label even
    for B; last two labels of equal parity for D).
    """
    b = tuple(Fraction(x) for x in labels)
    if len(b) != family.rank:
        raise ValueError(f"{family.describe()} has rank {family.rank}, got {len(b)}")
    r, s = family.r, family.s
    n = r + s
    gl_rule = family.kind in _GL_RULE
    odd = r if gl_rule else s  # no label has index 0, nor index r in gl(r|0)
    if not all(x.denominator == 1 and x >= 0 for j, x in enumerate(b, 1) if j != odd):
        return False
    if gl_rule:
        return True
    d = family.kind in _D_KINDS
    if s == 0:
        return (b[n - 2] - b[n - 1] if d else b[n - 1]) % 2 == 0
    if d:
        c = b[s - 1] - sum(b[s : n - 2]) - (b[n - 2] + b[n - 1]) / 2
    else:
        c = b[s - 1] - sum(b[s : n - 1]) - b[n - 1] / 2
    if c.denominator != 1 or c < 0:
        return False
    if c < (r - 1 if d else r) and any(b[j] != 0 for j in range(s + int(c), n)):
        return False
    return not d or c != r - 1 or b[n - 2] == b[n - 1]
