"""Palindromic alphabet specializations and their decomposition identities.

Each folding case pins a pair of alphabets built from inverse-closed variable
sets plus the constants +-1.  The character of a rectangle over the folded
alphabets then decomposes as a sum of bracket characters over one of the
rectangle subsets, optionally with an alternating sign, and this module
computes both sides exactly and compares them.

Case table (X | Y on the left, branches on the right; xx means x with all
inverses adjoined, likewise yy):

    B1       xx        | yy, -1      B: colpaired, square, x+{1}   D: box, square
    A2_EVEN  xx        | yy, +1      Bprime: colpaired, square, x+{-1}
                                     D: box, square, sign (-1)^(ma+|lam|)
    A2_ODD   xx, +1    | yy          B: evenrow, square, x+{1}     C: box, angle
    A2_EE    xx        | yy          D: evenrow, square            C: colpaired, angle
    D1       xx        | yy, +1, -1  D: colpaired, square
    SPO      xx, +1,-1 | yy          C: evenrow, angle
    D2       x~x~, +1  | yy, -1      B: box, square, x~+{1}   (x~ has r-1 entries)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .laurent import LaurentPoly, VarTable
from .lr import lr_coeff
from .partitions import (
    Partition,
    PartitionClass,
    RectSubset,
    as_partition,
    enumerate_rect_subset,
    in_class,
    partitions_inside,
    size,
)
from .report import VerificationReport, poly_comparison
from .schur import Alphabet, BracketType, bracket_schur, palindromic, super_schur


class FoldingTag(enum.Enum):
    B1 = "B1"
    A2_EVEN = "A2_EVEN"
    A2_ODD = "A2_ODD"
    A2_EE = "A2_EE"
    D1 = "D1"
    SPO = "SPO"
    D2 = "D2"


@dataclass(frozen=True)
class FoldingCase:
    tag: FoldingTag
    r: int
    s: int

    def __post_init__(self):
        _require_counts(r=self.r, s=self.s)
        if self.tag is FoldingTag.D2 and self.r < 1:
            raise ValueError("the D2 case needs r >= 1")

    @property
    def x_count(self) -> int:
        return self.r - 1 if self.tag is FoldingTag.D2 else self.r


def _require_counts(**values: int) -> None:
    """Reject any value that is not an exact nonnegative int (bool included)."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


@lru_cache(maxsize=None)
def _vartable(x_count: int, s: int) -> VarTable:
    names = tuple(f"x{i}" for i in range(1, x_count + 1))
    names += tuple(f"y{i}" for i in range(1, s + 1))
    return VarTable(names)


def case_table(case: FoldingCase) -> VarTable:
    return _vartable(case.x_count, case.s)


def _x_names(case: FoldingCase) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, case.x_count + 1))


def _y_names(case: FoldingCase) -> tuple[str, ...]:
    return tuple(f"y{i}" for i in range(1, case.s + 1))


def _with_consts(base: Alphabet, consts: tuple[int, ...]) -> Alphabet:
    if not consts:
        return base
    return base | Alphabet.constants(base.table, consts)


_CASE_CONSTS: dict[FoldingTag, tuple[tuple[int, ...], tuple[int, ...]]] = {
    FoldingTag.B1: ((), (-1,)),
    FoldingTag.A2_EVEN: ((), (1,)),
    FoldingTag.A2_ODD: ((1,), ()),
    FoldingTag.A2_EE: ((), ()),
    FoldingTag.D1: ((), (1, -1)),
    FoldingTag.SPO: ((1, -1), ()),
    FoldingTag.D2: ((1,), (-1,)),
}


def fold_alphabets(case: FoldingCase) -> tuple[Alphabet, Alphabet]:
    """The folded (X, Y) pair defining the case's generating series."""
    table = case_table(case)
    x_consts, y_consts = _CASE_CONSTS[case.tag]
    X = _with_consts(palindromic(table, _x_names(case)), x_consts)
    Y = _with_consts(palindromic(table, _y_names(case)), y_consts)
    return X, Y


def ambient_hook(case: FoldingCase) -> tuple[int, int]:
    r, s = case.r, case.s
    return {
        FoldingTag.B1: (2 * r, 2 * s + 1),
        FoldingTag.A2_EVEN: (2 * r, 2 * s + 1),
        FoldingTag.A2_ODD: (2 * r + 1, 2 * s),
        FoldingTag.A2_EE: (2 * r, 2 * s),
        FoldingTag.D1: (2 * r, 2 * s + 2),
        FoldingTag.SPO: (2 * r + 2, 2 * s),
        FoldingTag.D2: (2 * r, 2 * s + 2),
    }[case.tag]


@dataclass(frozen=True)
class DecompBranch:
    name: str
    subset: RectSubset
    bracket: BracketType
    x_const: int | None = None
    alternating: bool = False


_BRANCHES: dict[FoldingTag, tuple[DecompBranch, ...]] = {
    FoldingTag.B1: (
        DecompBranch("B", RectSubset.COLPAIRED, BracketType.SQUARE, x_const=1),
        DecompBranch("D", RectSubset.BOX, BracketType.SQUARE),
    ),
    FoldingTag.A2_EVEN: (
        DecompBranch("Bprime", RectSubset.COLPAIRED, BracketType.SQUARE, x_const=-1),
        DecompBranch("D", RectSubset.BOX, BracketType.SQUARE, alternating=True),
    ),
    FoldingTag.A2_ODD: (
        DecompBranch("B", RectSubset.EVENROW, BracketType.SQUARE, x_const=1),
        DecompBranch("C", RectSubset.BOX, BracketType.ANGLE),
    ),
    FoldingTag.A2_EE: (
        DecompBranch("D", RectSubset.EVENROW, BracketType.SQUARE),
        DecompBranch("C", RectSubset.COLPAIRED, BracketType.ANGLE),
    ),
    FoldingTag.D1: (DecompBranch("D", RectSubset.COLPAIRED, BracketType.SQUARE),),
    FoldingTag.SPO: (DecompBranch("C", RectSubset.EVENROW, BracketType.ANGLE),),
    FoldingTag.D2: (DecompBranch("B", RectSubset.BOX, BracketType.SQUARE, x_const=1),),
}


def branches(case: FoldingCase) -> tuple[DecompBranch, ...]:
    return _BRANCHES[case.tag]


def get_branch(case: FoldingCase, name: str) -> DecompBranch:
    for branch in branches(case):
        if branch.name == name:
            return branch
    names = [b.name for b in branches(case)]
    raise ValueError(f"case {case.tag.value} has branches {names}, not {name!r}")


def branch_alphabets(case: FoldingCase, branch: DecompBranch) -> tuple[Alphabet, Alphabet]:
    table = case_table(case)
    consts = (branch.x_const,) if branch.x_const is not None else ()
    X = _with_consts(palindromic(table, _x_names(case)), consts)
    Y = palindromic(table, _y_names(case))
    return X, Y


def require_in_hook(case: FoldingCase, a: int, m: int) -> None:
    """Reject the a-by-m rectangle if it lies outside the case's ambient hook.

    The rectangle's (M+1)-th row is m when a > M and 0 otherwise, so it is
    in the [M, N] hook iff a <= M or m <= N; no row tuple is built.
    """
    _require_counts(a=a, m=m)
    M, N = ambient_hook(case)
    if not (a <= M or m <= N):
        raise ValueError(
            f"rectangle {a} x {m} lies outside the [{M},{N}] hook of {case.tag.value}"
        )


def kr_supercharacter(case: FoldingCase, a: int, m: int) -> LaurentPoly:
    """Character of the a-by-m rectangle over the case's folded alphabets.

    An empty rectangle (a = 0 or m = 0) is the empty diagram and gives 1;
    any other rectangle must pass require_in_hook first (the identities are
    only asserted inside the ambient hook), though the underlying
    determinant is still reachable through super_schur directly and
    vanishes out there.
    """
    _require_counts(a=a, m=m)
    X, Y = fold_alphabets(case)
    if a == 0 or m == 0:
        return LaurentPoly.const(X.table, 1)
    require_in_hook(case, a, m)
    return super_schur((m,) * a, X, Y)


def decomposition_rhs(case: FoldingCase, branch: DecompBranch, a: int, m: int) -> LaurentPoly:
    """Sum of bracket characters over the branch's rectangle subset."""
    if branch not in branches(case):
        raise ValueError(f"branch {branch.name!r} does not belong to {case.tag.value}")
    _require_counts(a=a, m=m)
    X, Y = branch_alphabets(case, branch)
    if a == 0 or m == 0:
        return LaurentPoly.const(X.table, 1)
    total = LaurentPoly.zero(X.table)
    for lam in enumerate_rect_subset(branch.subset, m, a):
        term = bracket_schur(branch.bracket, lam, X, Y)
        if branch.alternating and (m * a + size(lam)) % 2:
            total = total - term
        else:
            total = total + term
    return total


def verify_decomposition(
    case: FoldingCase, branch: DecompBranch, a: int, m: int
) -> VerificationReport:
    lhs = kr_supercharacter(case, a, m)
    rhs = decomposition_rhs(case, branch, a, m)
    params = {
        "case": case.tag.value,
        "branch": branch.name,
        "r": case.r,
        "s": case.s,
        "a": a,
        "m": m,
    }
    return poly_comparison(f"fold.{case.tag.value}.{branch.name}", params, lhs, rhs)


# ---------------------------------------------------------------------------
# The eight general decomposition relations
# ---------------------------------------------------------------------------

DC_RELATIONS = (
    "plain_to_square",
    "plain_to_angle",
    "yconst_to_square_shifted",
    "yconst_to_square_signed",
    "xconst_to_angle_shifted",
    "xconst_to_angle_signed",
    "ypair_to_square",
    "xpair_to_angle",
)

XI_RELATIONS = frozenset(
    (
        "yconst_to_square_shifted",
        "yconst_to_square_signed",
        "xconst_to_angle_shifted",
        "xconst_to_angle_signed",
    )
)


def _weighted_sum(
    lam: Partition,
    weight: PartitionClass | int,
    bracket: BracketType,
    X: Alphabet,
    Y: Alphabet,
) -> LaurentPoly:
    """Sum of w(nu) c^lam_{nu,mu} bracket_mu(X|Y) over all pairs (nu, mu).

    A PartitionClass weight is membership (w = 1 on the class, 0 off it); an
    int weight is a sign base with w = weight^|nu|.  The coefficient vanishes
    unless both inner shapes fit inside lam and their sizes add up to |lam|,
    so nu and mu run over the shapes inside lam, grouped by size.
    """
    total = LaurentPoly.zero(X.table)
    n = size(lam)
    by_size: list[list[Partition]] = [[] for _ in range(n + 1)]
    for inner in partitions_inside(lam):
        by_size[size(inner)].append(inner)
    for k in range(n + 1):
        for nu in by_size[k]:
            if isinstance(weight, PartitionClass):
                w_nu = int(in_class(nu, weight))
            else:
                w_nu = weight ** k
            if not w_nu:
                continue
            for mu in by_size[n - k]:
                c = lr_coeff(lam, nu, mu)
                if c:
                    total = total + (w_nu * c) * bracket_schur(bracket, mu, X, Y)
    return total


def _dc_row(relation: str, xi: int):
    """(xp, yp, w, bracket, xs, ys) for the relation's identity

        s_lam(X + xp | Y + yp) = sum_{nu, mu} w(nu) c^lam_{nu,mu} bracket_mu(X + xs | Y + ys),

    where xp, yp, xs and ys are constants adjoined to the alphabets and w is a
    weight as in _weighted_sum.
    """
    rows, columns = PartitionClass.EVEN_ROWS, PartitionClass.EVEN_COLUMNS
    square, angle = BracketType.SQUARE, BracketType.ANGLE
    return {
        "plain_to_square": ((), (), rows, square, (), ()),
        "plain_to_angle": ((), (), columns, angle, (), ()),
        "yconst_to_square_shifted": ((), (xi,), columns, square, (-xi,), ()),
        "yconst_to_square_signed": ((), (xi,), -xi, square, (), ()),
        "xconst_to_angle_shifted": ((xi,), (), rows, angle, (), (-xi,)),
        "xconst_to_angle_signed": ((xi,), (), xi, angle, (), ()),
        "ypair_to_square": ((), (1, -1), columns, square, (), ()),
        "xpair_to_angle": ((1, -1), (), rows, angle, (), ()),
    }[relation]


def general_dc_check(
    relation: str,
    lam,
    X: Alphabet,
    Y: Alphabet,
    xi: int = 1,
) -> VerificationReport:
    """Check one of the eight alphabet-modification identities exactly."""
    lam = as_partition(lam)
    if relation not in DC_RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    if xi not in (1, -1):
        raise ValueError("xi must be +1 or -1")
    if xi != 1 and relation not in XI_RELATIONS:
        raise ValueError(f"relation {relation!r} does not depend on xi; use xi = 1")
    xp, yp, weight, bracket, xs, ys = _dc_row(relation, xi)
    lhs = super_schur(lam, _with_consts(X, xp), _with_consts(Y, yp))
    rhs = _weighted_sum(lam, weight, bracket, _with_consts(X, xs), _with_consts(Y, ys))

    params = {
        "relation": relation,
        "lam": list(lam),
        "x": X.describe(),
        "y": Y.describe(),
    }
    if relation in XI_RELATIONS:
        params["xi"] = xi
    return poly_comparison(f"dc.{relation}", params, lhs, rhs)
