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

Ambient hooks [M, N]: [2r, 2s+1] for B1 and A2_EVEN, [2r+1, 2s] for A2_ODD,
[2r, 2s] for A2_EE, [2r, 2s+2] for D1 and D2, [2r+2, 2s] for SPO.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from . import schur
from .laurent import Accumulator, LaurentPoly, VarTable
from .lr import _class_table, lr_table
from .lr import lr_coeff  # noqa: F401  (a site the benchmark tracer patches)
from .partitions import (
    Partition,
    PartitionClass,
    RectSubset,
    as_partition,
    conjugate,
    enumerate_rect_subset,
    require_counts,
    size,
)
from .report import VerificationReport, poly_comparison
from .schur import (
    Alphabet,
    BracketType,
    _const_factors,
    _degree,
    graded_parts,
    in_x,
    palindromic,
    super_schur,
)
from .schur import bracket_schur  # noqa: F401  (a site the benchmark tracer patches)


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
        if not isinstance(self.tag, FoldingTag):
            raise ValueError(f"folding tag must be a FoldingTag, not {self.tag!r}")
        require_counts(r=self.r, s=self.s)
        if self.x_count < 0:
            raise ValueError(f"the {self.tag.value} case needs r >= {least_r(self.tag)}")

    @property
    def x_count(self) -> int:
        return self.r - least_r(self.tag)


@dataclass(frozen=True)
class DecompBranch:
    name: str
    subset: RectSubset
    bracket: BracketType
    x_const: int | None = None
    alternating: bool = False


# One row per case of the module docstring's table: the X and Y constants, the
# ambient hook [M, N] at (r, s), the branches, and the least r; the x alphabet
# has r - least_r variables.
_Case = namedtuple("_Case", "x_consts y_consts hook branches least_r", defaults=(0,))
_CASES: dict[FoldingTag, _Case] = {
    FoldingTag.B1: _Case((), (-1,), lambda r, s: (2 * r, 2 * s + 1), (
        DecompBranch("B", RectSubset.COLPAIRED, BracketType.SQUARE, x_const=1),
        DecompBranch("D", RectSubset.BOX, BracketType.SQUARE),
    )),
    FoldingTag.A2_EVEN: _Case((), (1,), lambda r, s: (2 * r, 2 * s + 1), (
        DecompBranch("Bprime", RectSubset.COLPAIRED, BracketType.SQUARE, x_const=-1),
        DecompBranch("D", RectSubset.BOX, BracketType.SQUARE, alternating=True),
    )),
    FoldingTag.A2_ODD: _Case((1,), (), lambda r, s: (2 * r + 1, 2 * s), (
        DecompBranch("B", RectSubset.EVENROW, BracketType.SQUARE, x_const=1),
        DecompBranch("C", RectSubset.BOX, BracketType.ANGLE),
    )),
    FoldingTag.A2_EE: _Case((), (), lambda r, s: (2 * r, 2 * s), (
        DecompBranch("D", RectSubset.EVENROW, BracketType.SQUARE),
        DecompBranch("C", RectSubset.COLPAIRED, BracketType.ANGLE),
    )),
    FoldingTag.D1: _Case((), (1, -1), lambda r, s: (2 * r, 2 * s + 2), (
        DecompBranch("D", RectSubset.COLPAIRED, BracketType.SQUARE),
    )),
    FoldingTag.SPO: _Case((1, -1), (), lambda r, s: (2 * r + 2, 2 * s), (
        DecompBranch("C", RectSubset.EVENROW, BracketType.ANGLE),
    )),
    FoldingTag.D2: _Case((1,), (-1,), lambda r, s: (2 * r, 2 * s + 2), (
        DecompBranch("B", RectSubset.BOX, BracketType.SQUARE, x_const=1),
    ), least_r=1),
}


def least_r(tag: FoldingTag) -> int:
    """The smallest r the case allows."""
    return _CASES[tag].least_r


def ambient_hook(case: FoldingCase) -> tuple[int, int]:
    return _CASES[case.tag].hook(case.r, case.s)


def branches(case: FoldingCase) -> tuple[DecompBranch, ...]:
    return _CASES[case.tag].branches


@lru_cache(maxsize=None)
def _vartable(x_count: int, s: int) -> VarTable:
    names = tuple(f"x{i}" for i in range(1, x_count + 1))
    names += tuple(f"y{i}" for i in range(1, s + 1))
    return VarTable(names)


def _with_consts(base: Alphabet, consts: tuple[int, ...]) -> Alphabet:
    """base with the constants +-1 of consts adjoined, each sign checked once."""
    if not consts:
        return base
    for c in consts:
        if type(c) is not int or c not in (1, -1):
            raise ValueError(f"element sign must be +-1, got {c!r}")
    zero = (0,) * len(base.table)
    return Alphabet._of_checked(base.table, base.elements + tuple((c, zero) for c in consts))


def _palindromic_pair(case: FoldingCase) -> tuple[Alphabet, Alphabet]:
    """The case's palindromic x and y alphabets, to which its pairs adjoin their constants."""
    n = case.x_count
    table = _vartable(n, case.s)
    return palindromic(table, table.names[:n]), palindromic(table, table.names[n:])


def fold_alphabets(case: FoldingCase) -> tuple[Alphabet, Alphabet]:
    """The folded (X, Y) pair defining the case's generating series."""
    row = _CASES[case.tag]
    X, Y = _palindromic_pair(case)
    return _with_consts(X, row.x_consts), _with_consts(Y, row.y_consts)


def _branch_x_consts(branch: DecompBranch) -> tuple[int, ...]:
    return () if branch.x_const is None else (branch.x_const,)


def get_branch(case: FoldingCase, name: str) -> DecompBranch:
    for branch in branches(case):
        if branch.name == name:
            return branch
    names = [b.name for b in branches(case)]
    raise ValueError(f"case {case.tag.value} has branches {names}, not {name!r}")


def require_in_hook(case: FoldingCase, a: int, m: int) -> None:
    """Reject the a-by-m rectangle if it lies outside the case's ambient hook.

    The rectangle's (M+1)-th row is m when a > M and 0 otherwise, so it is
    in the [M, N] hook iff a <= M or m <= N; no row tuple is built.
    """
    require_counts(a=a, m=m)
    M, N = ambient_hook(case)
    if not (a <= M or m <= N):
        raise ValueError(
            f"rectangle {a} x {m} lies outside the [{M},{N}] hook of {case.tag.value}"
        )


def _rectangle(case: FoldingCase, a: int, m: int) -> Partition:
    """The a-by-m rectangle, () when empty, refused outside the case's hook."""
    require_counts(a=a, m=m)
    if a == 0 or m == 0:
        return ()
    require_in_hook(case, a, m)
    return (m,) * a


def kr_supercharacter(case: FoldingCase, a: int, m: int) -> LaurentPoly:
    """Character of the a-by-m rectangle over the case's folded alphabets.

    An empty rectangle (a = 0 or m = 0) is the empty diagram and gives 1;
    any other rectangle must pass require_in_hook first (the identities are
    only asserted inside the ambient hook), though the underlying
    determinant is still reachable through super_schur directly and
    vanishes out there.
    """
    X, Y = fold_alphabets(case)
    return super_schur(_rectangle(case, a, m), X, Y)


def _rhs_weighted(case: FoldingCase, branch: DecompBranch, a: int, m: int):
    """The branch's rectangle subset as (shape, sign) pairs; a and m are checked counts."""
    if branch not in branches(case):
        raise ValueError(f"branch {branch.name!r} does not belong to {case.tag.value}")
    if a == 0 or m == 0:
        return [((), 1)]
    sign = -1 if branch.alternating else 1
    return [
        (lam, sign ** (m * a + size(lam))) for lam in enumerate_rect_subset(branch.subset, m, a)
    ]


def _rhs_side(case: FoldingCase, branch: DecompBranch, a: int, m: int) -> tuple:
    """fold_theorem's right side: the branch's brackets over its rectangle subset."""
    weighted = _rhs_weighted(case, branch, a, m)
    return (_branch_x_consts(branch), (), list, branch.bracket.value, weighted)


def decomposition_rhs(case: FoldingCase, branch: DecompBranch, a: int, m: int) -> LaurentPoly:
    """Sum of bracket characters over the branch's rectangle subset, in x.

    fold_theorem's right side at the case's palindromic base pair, from
    pair_sides, turned into x once.  A rectangle outside the hook is not
    refused here.
    """
    require_counts(a=a, m=m)
    X, Y = _palindromic_pair(case)
    (rhs,) = pair_sides([_rhs_side(case, branch, a, m)], X, Y)
    return in_x(rhs, X.table)


def verify_decomposition(
    case: FoldingCase, branch: DecompBranch, a: int, m: int
) -> VerificationReport:
    """Compare kr_supercharacter with decomposition_rhs, exactly.

    fold_theorem's two sides at the case's palindromic base pair, compared
    in x by _theorem_report (which takes a tall rectangle, a > m, and a
    square one when case.x_count > s, as its dual at the swapped pair).
    """
    theorem = fold_theorem(case, branch, a, m)
    return _theorem_report(*fold_report_id(case, branch, a, m), theorem, *_palindromic_pair(case))


def fold_report_id(case: FoldingCase, branch: DecompBranch, a: int, m: int) -> tuple[str, dict]:
    """The (check_id, params) of verify_decomposition's report."""
    params = {
        "case": case.tag.value,
        "branch": branch.name,
        "r": case.r,
        "s": case.s,
        "a": a,
        "m": m,
    }
    return f"fold.{case.tag.value}.{branch.name}", params


# ---------------------------------------------------------------------------
# The eight general decomposition relations
# ---------------------------------------------------------------------------


def _dc_coeffs(lam: Partition, weight: PartitionClass | int) -> Mapping[Partition, int]:
    """mu -> sum over nu of w(nu) c^lam_{nu,mu}, taken in the integers.

    A PartitionClass weight is membership (w = 1 on the class, 0 off it); its
    sums are lr._class_table's, one skew pass per member nu of the class, so
    no other nu is searched.  An int weight is a sign base with w =
    weight^|nu|, which reads every nu: those sums come from lam's lr_table,
    as its one marked pass is about 1.5x faster than a skew pass per nu
    over |lam| <= 7.
    """
    if isinstance(weight, PartitionClass):
        return _class_table(lam, weight)
    coeffs: dict[Partition, int] = {}
    for (nu, mu), c in lr_table(lam).items():
        coeffs[mu] = coeffs.get(mu, 0) + weight ** size(nu) * c
    return coeffs


def _dc_rows(xi: int) -> dict[str, tuple]:
    """relation -> (xp, yp, w, bracket, xs, ys) for the relation's identity

        s_lam(X + xp | Y + yp) = sum_{nu, mu} w(nu) c^lam_{nu,mu} bracket_mu(X + xs | Y + ys),

    where xp, yp, xs and ys are constants adjoined to the alphabets and w is a
    weight as in _dc_coeffs.
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
    }


# xi -> _dc_rows(xi), built once.
_DC_ROWS = {xi: _dc_rows(xi) for xi in (1, -1)}

DC_RELATIONS = tuple(_DC_ROWS[1])

# The relations whose identity changes with xi = +-1.
XI_RELATIONS = frozenset(
    relation for relation, row in _DC_ROWS[-1].items() if row != _DC_ROWS[1][relation]
)


def _dc_row(relation: str, lam, xi: int) -> tuple[Partition, tuple]:
    """lam as a partition and the relation's _dc_rows row at xi, both checked."""
    lam = as_partition(lam)
    if relation not in DC_RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    if type(xi) is not int or xi not in (1, -1):
        raise ValueError(f"xi must be the int 1 or -1, not {xi!r}")
    if xi != 1 and relation not in XI_RELATIONS:
        raise ValueError(f"relation {relation!r} does not depend on xi; use xi = 1")
    return lam, _DC_ROWS[xi][relation]


def general_dc_check(
    relation: str,
    lam,
    X: Alphabet,
    Y: Alphabet,
    xi: int = 1,
) -> VerificationReport:
    """Check one of the eight alphabet-modification identities exactly.

    dc_theorem's two sides at the base pair (X|Y), compared in x by
    _theorem_report; the theorem of a tall lam, or of a square lam when X
    has more variables than Y, is evaluated as its dual at (Y|X), on
    conjugate shapes, which gives the same two values.
    """
    theorem = dc_theorem(relation, lam, xi)
    params = {
        "relation": relation,
        "lam": list(as_partition(lam)),
        "x": X.describe(),
        "y": Y.describe(),
    }
    if relation in XI_RELATIONS:
        params["xi"] = xi
    return _theorem_report(f"dc.{relation}", params, theorem, X, Y)


# ---------------------------------------------------------------------------
# Theorems, over free h_1..h_D or at a base pair
# ---------------------------------------------------------------------------
#
# Both sides of a fold or dc identity, and of each Schur invariant
# comparison, are Jacobi-Trudi determinants in the h_k of one series.  A
# theorem is the pair of sides, each (x_consts, y_consts, mapping, rule,
# weighted): the sum of w * det_lam over the (lam, w) of weighted, each by
# schur's _<rule>_entry (a bracket's rule is its BracketType value) over the
# series with x_consts adjoined to X and y_consts to Y, then mapped by
# mapping (list, or verify's _signed or _reciprocal).  Sending each free h_k
# to the h_k of a series with h_0 = 1 is a ring map (Macdonald, Symmetric
# Functions, I.2), and in_x is an injective one, so a theorem whose sides
# are equal over free h_1..h_D holds at every pair whose series is the
# map's image.  The converse fails: a theorem that is not proved free says
# nothing about a given pair.
#
# A theorem's dual (_dual_theorem) has at the swapped pair (Y|X) the sides
# the theorem has at (X|Y), on conjugate shapes; _theorem_report evaluates a
# theorem with a tall left shape through it, so its determinants are smaller,
# and one with a square left shape when X has more variables than Y, so its
# series divides by fewer.


def fold_theorem(case: FoldingCase, branch: DecompBranch, a: int, m: int) -> tuple:
    """verify_decomposition's identity as a theorem; it does not depend on r or s."""
    row = _CASES[case.tag]
    return (
        (row.x_consts, row.y_consts, list, "plain", [(_rectangle(case, a, m), 1)]),
        _rhs_side(case, branch, a, m),
    )


def dc_theorem(relation: str, lam, xi: int = 1) -> tuple:
    """general_dc_check's identity as a theorem; it does not depend on X or Y.

    The right side's weights are _dc_coeffs': a class weight (six of the
    eight relations) reads the class's memoized skew sums and builds no
    lr_table; a sign weight reads lam's lr_table.
    """
    lam, (xp, yp, weight, bracket, xs, ys) = _dc_row(relation, lam, xi)
    return (
        (xp, yp, list, "plain", [(lam, 1)]),
        (xs, ys, list, bracket.value, list(_dc_coeffs(lam, weight).items())),
    )


def theorem_sides(theorem, dets) -> list[LaurentPoly]:
    """Both sides of the theorem, each a sum of w * det_lam added into one Accumulator.

    dets(key, shapes) is the determinant of each shape under the side's key
    (x_consts, y_consts, mapping, rule), all over one table.  An empty sum
    asks for the empty shape at weight 0, so it is 0 over that table.  A
    side of one shape at weight 1 is that shape's determinant.
    """
    out = []
    for *key, weighted in theorem:
        terms = [(lam, w) for lam, w in weighted if w] or [((), 0)]
        values = dets(tuple(key), [lam for lam, _ in terms])
        if len(terms) == 1 and terms[0][1] == 1:
            out.append(values[0])
            continue
        acc = Accumulator(values[0].table)
        for value, (_, w) in zip(values, terms):
            acc.add(value, w)
        out.append(acc.value())
    return out


def pair_sides(theorem, X: Alphabet, Y: Alphabet) -> list[LaurentPoly]:
    """Both sides of the theorem at the base pair (X|Y), over h_list's table.

    Each side's determinants are one _table_dets call over one schur.h_list
    call on the pair with that side's constants adjoined; the pair's series
    is taken to be the image of the side's mapping.
    """

    def dets(key, shapes):
        x_consts, y_consts, _, rule = key
        hs = schur.h_list(_with_consts(X, x_consts), _with_consts(Y, y_consts), _degree(shapes))
        return schur._table_dets(shapes, hs, schur._entry_rule(rule))

    return theorem_sides(theorem, dets)


# Each rule's dual: s_lam(X|Y) = (-1)^|lam| s_lam'(Y|X), and the square
# bracket of lam at (X|Y) is likewise the angle bracket of lam' at (Y|X).
_DUAL = {"plain": "plain", "square": "angle", "angle": "square"}


def _dual_theorem(theorem) -> tuple:
    """The theorem's dual: each side's value at (X|Y) is its dual side's at (Y|X).

    h_list's series of (Y|X) is the reciprocal of that of (X|Y), so h_k(Y|X)
    = (-1)^k e_k(X|Y), and the e form of Jacobi-Trudi (Macdonald, Symmetric
    Functions, I.3.5) gives the duality with its sign.  A side's constants
    swap with its alphabets; only the mapping list, and the rules in _DUAL,
    have a dual.
    """
    out = []
    for x_consts, y_consts, mapping, rule, weighted in theorem:
        if mapping is not list or rule not in _DUAL:
            raise ValueError(f"no dual for the side's mapping {mapping!r} and rule {rule!r}")
        dual = [(conjugate(lam), w * (-1) ** size(lam)) for lam, w in weighted]
        out.append((y_consts, x_consts, list, _DUAL[rule], dual))
    return tuple(out)


def _variable_count(A: Alphabet) -> int:
    """The number of A's non-constant elements."""
    return sum(1 for _, exps in A.elements if any(exps))


def _theorem_report(
    check_id: str, params: dict, theorem, X: Alphabet, Y: Alphabet
) -> VerificationReport:
    """poly_comparison of the theorem's two sides at the base pair (X|Y), in x.

    A theorem whose left shape lam is tall (more rows than columns) is
    evaluated as its _dual_theorem at (Y|X), which has the same sides.  Every
    shape of a fold or dc theorem lies in lam's box, so no determinant has
    more than lam_1 rows; each side still reads one h_list series.  A square
    lam takes the dual when X has more variables (non-constant elements)
    than Y: the series divides by X's factors, so the h_k of the side with
    fewer divided variables have fewer terms.  The comparison is
    pair_report's.
    """
    ((lam, _),) = theorem[0][-1]
    rows = len(lam)
    if lam and (rows > lam[0] or rows == lam[0] and _variable_count(X) > _variable_count(Y)):
        theorem, X, Y = _dual_theorem(theorem), Y, X
    return pair_report(check_id, params, theorem, X, Y)


def pair_report(
    check_id: str, params: dict, theorem, X: Alphabet, Y: Alphabet
) -> VerificationReport:
    """poly_comparison of the theorem's two sides at (X|Y), as it stands, in x.

    Equal values over h_list's table have equal x images, so the left side
    is turned into x once, over the pair's one table, and the right side
    only when it differs there.  The sweeps check a theorem their free proof
    did not prove here, on the sides that proof compared, so a determinant
    fault that cancels on the dual (a shift, where the dual's weight sums
    agree) still shows.
    """
    lhs, rhs = pair_sides(theorem, X, Y)
    lhs_x = in_x(lhs, X.table)
    return poly_comparison(check_id, params, lhs_x, lhs_x if rhs == lhs else in_x(rhs, X.table))


def _free_batch(theorems: list):
    """Each theorem's two sides over free h_1..h_D.

    D is the largest degree any side of the batch reads.  Each side key
    (x_consts, y_consts, mapping, rule) has its shapes gathered from the
    whole batch and taken by one _table_dets call, over its series: h_0 = 1
    plus the free h_k, the constants applied by _const_factors as h_list
    applies an alphabet's, then mapped.
    """
    sides = [side for theorem in theorems for side in theorem]
    D = _degree(lam for *_, weighted in sides for lam, _ in weighted)
    free = schur._free_series(D)
    batches: dict[tuple, dict] = {}  # side key -> {shape: its determinant}
    for *key, weighted in sides:
        # The empty shape, which an empty sum reads, takes no determinant.
        batches.setdefault(tuple(key), {(): None}).update((lam, None) for lam, w in weighted if w)
    for (x_consts, y_consts, mapping, rule), batch in batches.items():
        hs = mapping(graded_parts(free, _const_factors(x_consts, y_consts), D))
        lams = list(batch)
        batch.update(zip(lams, schur._table_dets(lams, hs, schur._entry_rule(rule))))

    def dets(key, lams):
        return [batches[key][lam] for lam in lams]

    return [theorem_sides(theorem, dets) for theorem in theorems]


def proved_free_all(theorems) -> list[bool]:
    """Whether each theorem's sides are equal over free h_1..h_D, as one batch (_free_batch)."""
    return [lhs == rhs for lhs, rhs in _free_batch(list(theorems))]

