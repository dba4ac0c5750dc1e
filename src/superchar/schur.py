"""Supersymmetric complete functions, Schur determinants, bracket characters.

The complete functions h_m(X|Y) are read off the series

    sum_m h_m(X|Y) t^m  =  prod_{y in Y} (1 - y t) / prod_{x in X} (1 - x t),

with h_0 = 1 and h_m = 0 for m < 0.  Characters are then determinants in the
h_m: the plain determinant det(h_{lam_i - i + j}) gives the supersymmetric
Schur function; the square-bracket and angle-bracket variants give the
orthogonal-type and symplectic-type characters.  Everything is exact integer
arithmetic over :mod:`superchar.laurent`.

When both alphabets are inverse-paired (pairs {v, v^-1} plus constants, as
every folded alphabet is), each pair contributes (1 - v t)(1 - v^-1 t) =
1 - z t + t^2 with z = v + v^-1, so the h_m and their determinants are
polynomials in the z's with about a sixth of the terms, over
:func:`z_table`.  When each side's pairs also have one sign, on variables
that occur once in all, and some side has two pairs, they are symmetric in
each side's z's, so polynomials in the elementary symmetric e_k of them,
with fewer terms again: a side's pairs are one factor,

    prod (1 - z_i t + t^2)  =  sum_k (-1)^k e_k t^k (1 + t^2)^(r - k),

over an :func:`e_table`.  Both maps back to x are injective ring maps, the
e one unitriangular over the integers, so values equal over a table are
equal in x and ANGLE values halve exactly there.  Each character, or each
weighted sum of bracket characters (:func:`bracket_sum`), is turned back
into x once by :func:`in_x`; every character this module returns is over
the alphabets' own table.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .laurent import (
    LaurentPoly,
    VarTable,
    det,
    divide_linear,
    e_to_z,
    monomial_str,
    z_to_x,
)
from .partitions import Partition, as_partition, checked_memo

SignedMonomial = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite multiset of signed Laurent monomials.

    Each element is (sign, exponent vector); the constants +1 and -1 are the
    elements with an all-zero exponent vector.
    """

    table: VarTable
    elements: tuple[SignedMonomial, ...]

    def __post_init__(self):
        n = len(self.table)
        for sign, exps in self.elements:
            if type(sign) is not int or sign not in (1, -1):  # bool is not a sign
                raise ValueError(f"element sign must be +-1, got {sign!r}")
            if len(exps) != n:
                raise ValueError("element exponent vector does not fit the table")
        # Alphabets key every memo; hash the nested tuples once.
        object.__setattr__(self, "_hash", hash((self.table, self.elements)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def empty(cls, table: VarTable) -> "Alphabet":
        return cls(table, ())

    @classmethod
    def formal(cls, table: VarTable, names: tuple[str, ...] | None = None) -> "Alphabet":
        if names is None:
            names = table.names
        elems = []
        for name in names:
            exps = [0] * len(table)
            exps[table.index[name]] = 1
            elems.append((1, tuple(exps)))
        return cls(table, tuple(elems))

    @classmethod
    def constants(cls, table: VarTable, values: tuple[int, ...]) -> "Alphabet":
        zero = (0,) * len(table)
        return cls(table, tuple((v, zero) for v in values))

    def union(self, other: "Alphabet") -> "Alphabet":
        if self.table != other.table:
            raise ValueError("alphabets over different tables")
        return Alphabet(self.table, self.elements + other.elements)

    __or__ = union

    def inverses(self) -> "Alphabet":
        return Alphabet(
            self.table,
            tuple((s, tuple(-e for e in exps)) for s, exps in self.elements),
        )

    def negated(self) -> "Alphabet":
        return Alphabet(self.table, tuple((-s, exps) for s, exps in self.elements))

    def polys(self) -> tuple[LaurentPoly, ...]:
        return tuple(
            LaurentPoly.monomial(self.table, exps, sign) for sign, exps in self.elements
        )

    def describe(self) -> list[str]:
        out = []
        for sign, exps in self.elements:
            mono = monomial_str(self.table, exps)
            out.append(mono if sign == 1 else (f"-{mono}" if mono != "1" else "-1"))
        return out

    def __len__(self) -> int:
        return len(self.elements)


def palindromic(table: VarTable, names: tuple[str, ...]) -> Alphabet:
    """The multiset {v, v^-1 for v in names}, in v..., then inverses order."""
    base = Alphabet.formal(table, names)
    return base | base.inverses()


# ---------------------------------------------------------------------------
# Complete supersymmetric functions
# ---------------------------------------------------------------------------


def graded_parts(start, factors, degmax: int) -> list[LaurentPoly]:
    """The coefficients of t^0..t^degmax in start * prod (1 - sum u t^d)^(+-1).

    start is a polynomial, the series' constant term, or the list of the
    series' coefficients of t^0..t^degmax.  Each factor is (terms, divide),
    where terms is a tuple of (d, u) with d >= 1 and u a polynomial or an
    int, standing for 1 - sum u t^d.  Multiplying by it is parts[k] -= sum u
    * parts[k-d] with k descending (each step reads the old parts[k-d]);
    dividing by it is parts[k] += sum u * parts[k-d] with k ascending (each
    step reads the updated ones).  A zero parts[k-d] is skipped, and no
    coefficient above degmax is ever formed.
    """
    if isinstance(start, list):
        parts = list(start)
    else:
        parts = [start] + [LaurentPoly.zero(start.table)] * degmax
    for terms, divide in factors:
        low = min(d for d, _ in terms)
        for k in range(low, degmax + 1) if divide else range(degmax, low - 1, -1):
            acc = parts[k]
            for d, u in terms:
                if k >= d and not parts[k - d].is_zero:
                    step = u * parts[k - d]
                    acc = acc + step if divide else acc - step
            parts[k] = acc
    return parts


@lru_cache(maxsize=None)
def z_table(table: VarTable) -> VarTable:
    """The table of z_i = x_i + x_i^-1, one per variable of table, in its order."""
    return VarTable(f"z({name})" for name in table.names)


class ETable(VarTable):
    """A table of e_1..e_n of the z's of each block of x variables, block by block.

    Its names, ``e<k>(<block>)``, spell out the blocks, so equal e tables
    always mean the same map to x.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[str, ...], ...]):
        super().__init__(
            f"e{k}({','.join(block)})" for block in blocks for k in range(1, len(block) + 1)
        )
        self.blocks = blocks


@lru_cache(maxsize=None)
def e_table(blocks: tuple[tuple[str, ...], ...]) -> ETable:
    """The e table of the blocks, each a tuple of x variable names."""
    return ETable(blocks)


def _inverse_pairs(alphabet: Alphabet) -> list[SignedMonomial] | None:
    """One element s v per pair {s v, s v^-1} of an inverse-paired alphabet, else None.

    The alphabet qualifies when every non-constant element is one variable
    to the power +-1 and its inverse occurs with the same sign and
    multiplicity; the v returned are the ones at power +1.
    """
    count = Counter(alphabet.elements)
    pairs = []
    for sign, exps in alphabet.elements:
        if not any(exps):
            continue
        if sum(map(abs, exps)) != 1 or count[sign, exps] != count[sign, tuple(-e for e in exps)]:
            return None
        if 1 in exps:
            pairs.append((sign, exps))
    return pairs


def _e_blocks(x_pairs, y_pairs) -> list[tuple[int, tuple[int, ...]]] | None:
    """(sign, variable positions) of X's pairs and of Y's, or None off the e route.

    The e route takes pairs of one sign on each side, on distinct variables
    throughout, with at least two pairs on some side.  Then the map from the
    e's to x is injective and unitriangular over the integers, so values
    equal over the e table are equal in x, and a value halves exactly in e
    when it does in x.
    """
    blocks = []
    for pairs in (x_pairs, y_pairs):
        signs = {sign for sign, _ in pairs}
        if len(signs) > 1:
            return None
        blocks.append((signs.pop() if signs else 1, tuple(sorted(x.index(1) for _, x in pairs))))
    every = blocks[0][1] + blocks[1][1]
    if len(set(every)) != len(every) or max(len(x_pairs), len(y_pairs)) < 2:
        return None
    return blocks


def _e_factor(sign: int, e: list) -> tuple:
    """prod (1 - sign z_i t + t^2) over a block's z's, as graded_parts terms.

    e is [1, e_1, ..., e_r] of the block.  The product is
    sum_k (-sign)^k e_k t^k (1 + t^2)^(r-k), so each u_d of 1 - sum u_d t^d
    is linear in the e_k; it is given as one term (d, c e_k) per k, with
    e_0 = 1 an int.
    """
    r = len(e) - 1
    return tuple(
        (d, -((-sign) ** k) * comb(r - k, (d - k) // 2) * e[k])
        for d in range(1, 2 * r + 1)
        for k in range(d % 2, min(d, r) + 1, 2)
        if (d - k) // 2 <= r - k
    )


# (table, X's pairs, Y's pairs) -> [h_0, ..., h_D] of the pairs alone, over
# the z or e table, for the largest D asked so far: alphabets that differ only
# in their constants share it.  clear_caches() empties it.
_pair_series: dict[tuple, list[LaurentPoly]] = {}


@lru_cache(maxsize=None)
def _h_list_cached(X: Alphabet, Y: Alphabet, degmax: int) -> tuple[LaurentPoly, ...]:
    """[h_0, ..., h_degmax]: 1 divided by X's factors, then times Y's.

    In x each element u is the factor 1 - u t.  Over the z table, a pair
    {s v, s v^-1} is 1 - s z t + t^2; over the e table, all of a side's
    pairs are one _e_factor.  The pairs' series comes from _pair_series, and
    each constant c is then the factor 1 - c t.
    """
    x_pairs, y_pairs = _inverse_pairs(X), _inverse_pairs(Y)
    if x_pairs is None or y_pairs is None or not (x_pairs or y_pairs):
        factors = [(((1, x),), True) for x in X.polys()]
        factors += [(((1, y),), False) for y in Y.polys()]
        return tuple(graded_parts(LaurentPoly.const(X.table, 1), factors, degmax))
    key = (X.table, tuple(x_pairs), tuple(y_pairs))
    series = _pair_series.get(key)
    if series is None or len(series) <= degmax:
        blocks = _e_blocks(x_pairs, y_pairs)
        if blocks is None:
            table = z_table(X.table)
            factors = [
                (((1, LaurentPoly.monomial(table, exps, sign)), (2, -1)), divide)
                for pairs, divide in ((x_pairs, True), (y_pairs, False))
                for sign, exps in pairs
            ]
        else:
            names = X.table.names
            table = e_table(tuple(tuple(names[i] for i in block) for _, block in blocks if block))
            e = iter(LaurentPoly.variable(table, name) for name in table.names)
            factors = [
                (_e_factor(sign, [1] + [next(e) for _ in block]), divide)
                for (sign, block), divide in zip(blocks, (True, False))
                if block
            ]
        series = _pair_series[key] = graded_parts(LaurentPoly.const(table, 1), factors, degmax)
    consts = [
        (((1, sign),), divide)
        for alphabet, divide in ((X, True), (Y, False))
        for sign, exps in alphabet.elements
        if not any(exps)
    ]
    return tuple(graded_parts(series[: degmax + 1], consts, degmax))


def h_list(X: Alphabet, Y: Alphabet, degmax: int) -> tuple[LaurentPoly, ...]:
    """[h_0, ..., h_degmax] for the pair of alphabets, over one of three tables.

    When X and Y are both inverse-paired and hold at least one pair, the
    h_m are polynomials in the z's of the pairs.  If moreover each side's
    pairs have one sign, no variable occurs twice, and some side has at
    least two pairs, they are over the ``e_table`` of X's and Y's blocks of
    variables; otherwise over ``z_table(X.table)``.  Any other pair is over
    X.table.  :func:`in_x` turns each table's values into x.  Results are
    cached on the alphabets as given; the verification sweeps re-query
    identical pairs constantly.
    """
    if degmax < 0:
        raise ValueError("degmax must be nonnegative")
    if X.table != Y.table:
        raise ValueError("alphabets over different tables")
    return _h_list_cached(X, Y, degmax)


def in_x(value: LaurentPoly, table: VarTable) -> LaurentPoly:
    """A value over table, over z_table(table) or over an e table of its variables, in x.

    The e's go to the z's by :func:`superchar.laurent.e_to_z` and the z's to
    x by :func:`superchar.laurent.z_to_x`; both are injective ring maps.
    """
    vt = value.table
    if vt == table:
        return value
    z = z_table(table)
    if isinstance(vt, ETable):
        index = table.index
        value = e_to_z(value, z, tuple(tuple(index[v] for v in b) for b in vt.blocks))
    elif vt != z:
        raise ValueError(f"{vt!r} is not {table!r}, its z table or an e table of it")
    return z_to_x(value, table)


# ---------------------------------------------------------------------------
# Jacobi-Trudi determinants
# ---------------------------------------------------------------------------


class BracketType(enum.Enum):
    PLAIN = "plain"
    SQUARE = "square"
    ANGLE = "angle"


def _table_dets(shapes, X: Alphabet, Y: Alphabet, entry, halve: bool) -> list[LaurentPoly]:
    """det(entry(h, lam_i - i, j)) over 1 <= i, j <= len(lam), for each shape.

    h(k) is h_k(X|Y), read as 0 for k < 0, from one h_list call at the
    largest degree any shape needs; the values stay over the table h_list
    gives (z for inverse-paired alphabets).  The empty shape is 1.  With
    halve, each other determinant is halved exactly on its own, so one that
    does not halve raises.
    """
    hs = h_list(X, Y, max((lam[0] + len(lam) for lam in shapes if lam), default=0))
    table = hs[0].table
    zero = LaurentPoly.zero(table)

    def h(k: int) -> LaurentPoly:
        return hs[k] if k >= 0 else zero

    out = []
    for lam in shapes:
        if not lam:
            out.append(LaurentPoly.const(table, 1))
            continue
        n = len(lam)
        value = det(
            [[entry(h, lam[i - 1] - i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
        )
        out.append(value.exact_div(2) if halve else value)
    return out


def _jacobi_trudi(lam: Partition, X: Alphabet, Y: Alphabet, entry, halve=False) -> LaurentPoly:
    """The one-shape case of _table_dets, over X.table; 1 for the empty shape."""
    if not lam:
        return LaurentPoly.const(X.table, 1)
    return in_x(_table_dets([lam], X, Y, entry, halve)[0], X.table)


def _plain_entry(h, base: int, j: int) -> LaurentPoly:
    return h(base + j)


def _square_entry(h, base: int, j: int) -> LaurentPoly:
    return h(base + j) - h(base - j)


def _angle_entry(h, base: int, j: int) -> LaurentPoly:
    return h(base + j) + h(base - j + 2)


def _altform_angle_entry(h, base: int, j: int) -> LaurentPoly:
    # A single entry in the first column, paired sums in the others.
    return h(base + 1) if j == 1 else _angle_entry(h, base, j)


def _altform_square_entry(h, base: int, j: int) -> LaurentPoly:
    # The ANGLE rule with H_m = h_m - h_{m-2} in place of h_m.
    return _altform_angle_entry(lambda k: h(k) - h(k - 2), base, j)


# Each bracket's entry rule, and whether its determinant is halved.
_BRACKETS = {
    BracketType.PLAIN: (_plain_entry, False),
    BracketType.SQUARE: (_square_entry, False),
    BracketType.ANGLE: (_angle_entry, True),
}


def _require_tag(tag) -> None:
    if not isinstance(tag, BracketType):
        raise ValueError(f"bracket tag must be a BracketType, not {tag!r}")


def _shape_args(lam, X, Y):
    return as_partition(lam), X, Y


def _bracket_args(tag, lam, X, Y):
    _require_tag(tag)
    return tag, as_partition(lam), X, Y


@checked_memo(_shape_args)
def super_schur(lam: Partition, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """det(h_{lam_i - i + j}) over 1 <= i, j <= len(lam); 1 for the empty shape."""
    return _jacobi_trudi(lam, X, Y, _plain_entry)


@checked_memo(_bracket_args)
def bracket_schur(tag: BracketType, lam: Partition, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """The three determinant characters, selected by tag.

    SQUARE is det(h_{lam_i-i+j} - h_{lam_i-i-j}); ANGLE is half of
    det(h_{lam_i-i+j} + h_{lam_i-i-j+2}), where the halving is exact on the
    integer determinant and failure to halve aborts the computation.  The
    empty shape is 1, not halved.
    """
    if tag is BracketType.PLAIN:
        return super_schur(lam, X, Y)
    return _jacobi_trudi(lam, X, Y, *_BRACKETS[tag])


@checked_memo(_bracket_args)
def bracket_schur_altform(
    tag: BracketType, lam: Partition, X: Alphabet, Y: Alphabet
) -> LaurentPoly:
    """Block-determinant forms of the bracket characters.

    The first column is a single entry per row and the remaining columns are
    paired sums; the SQUARE case uses H_m = h_m - h_{m-2} in place of h_m and
    needs no 1/2 prefactor.
    """
    if tag is BracketType.PLAIN:
        raise ValueError("alternate forms exist for SQUARE and ANGLE only")
    if tag is BracketType.SQUARE:
        return _jacobi_trudi(lam, X, Y, _altform_square_entry)
    return _jacobi_trudi(lam, X, Y, _altform_angle_entry)


# (tag, lam, X, Y) -> bracket_lam(X|Y) over h_list's table: bracket_sum's
# memo, shared across the sums that meet a shape again.  clear_caches()
# empties it.
_table_values: dict[tuple, LaurentPoly] = {}


def table_sum(tag: BracketType, weighted, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """sum w * bracket_lam(X|Y) over the (lam, w) pairs of weighted, over h_list's table.

    The shapes not yet in the memo share one _table_dets call, and the terms
    are added over the table; :func:`in_x` turns the sum into x.
    """
    _require_tag(tag)
    weights: dict[Partition, int] = {}
    for lam, w in weighted:
        if type(w) is not int:
            raise ValueError(f"weights must be ints, got {w!r}")
        lam = as_partition(lam)
        weights[lam] = weights.get(lam, 0) + w
    terms = [(lam, w) for lam, w in weights.items() if w]
    missing = [lam for lam, _ in terms if (tag, lam, X, Y) not in _table_values]
    if missing:
        for lam, value in zip(missing, _table_dets(missing, X, Y, *_BRACKETS[tag])):
            _table_values[tag, lam, X, Y] = value
    if not terms:
        return LaurentPoly.zero(h_list(X, Y, 0)[0].table)
    total = None
    for lam, w in terms:
        value = _table_values[tag, lam, X, Y]
        if total is None:
            total = value if w == 1 else w * value
        elif w == 1:
            total = total + value
        elif w == -1:
            total = total - value
        else:
            total = total + w * value
    return total


def bracket_sum(tag: BracketType, weighted, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """sum w * bracket_lam(X|Y) over the (lam, w) pairs of weighted, over X.table.

    The table_sum, turned into x once.
    """
    return in_x(table_sum(tag, weighted, X, Y), X.table)


# ---------------------------------------------------------------------------
# Bialternant reference and Schur expansion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def t_table(n: int) -> VarTable:
    return VarTable(tuple(f"t{i}" for i in range(1, n + 1)))


@lru_cache(maxsize=None)
def _bialternant_in(table: VarTable, lam: Partition) -> LaurentPoly:
    n = len(table)
    if not n:  # the empty alternants are both 1
        return LaurentPoly.const(table, 1)
    powers = [(lam[j] if j < len(lam) else 0) + n - 1 - j for j in range(n)]
    result = det([[LaurentPoly.variable(table, t, e) for e in powers] for t in table.names])
    for i in range(n):
        for j in range(i + 1, n):
            result = divide_linear(result, table.names[i], table.names[j])
    return result


def bialternant_schur(lam: Partition, n: int) -> LaurentPoly:
    """The ratio of alternants det(t_i^{lam_j + n - j}) / det(t_i^{n - j}).

    The denominator is the Vandermonde product, and the division is exact
    polynomial division; this is the independent oracle for the determinant
    route.
    """
    lam = as_partition(lam)
    if n < len(lam):
        raise ValueError(f"need at least {len(lam)} variables for {lam}")
    return _bialternant_in(t_table(n), lam)


def schur_in_table(lam: Partition, table: VarTable) -> LaurentPoly:
    """Schur polynomial of lam in the variables, by Jacobi-Trudi; 0 if lam is too long."""
    lam = as_partition(lam)
    if len(lam) > len(table):
        return LaurentPoly.zero(table)
    return super_schur(lam, Alphabet.formal(table), Alphabet.empty(table))


def schur_expand(p: LaurentPoly, n: int) -> dict[Partition, int]:
    """Write a symmetric polynomial as an integer combination of Schur ones.

    Repeatedly subtracts c * S_lam at the dominance-greatest remaining
    partition-shaped monomial (largest degree first, lexicographic
    tie-break).  A residual with no partition-shaped monomial means the
    input was not symmetric and is rejected.
    """
    table = p.table
    if len(table) != n:
        raise ValueError("polynomial table does not have n variables")
    for exps, _ in p.terms():
        if any(e < 0 for e in exps):
            raise ValueError("schur_expand expects a polynomial, no negative exponents")
    out: dict[Partition, int] = {}
    residual = p
    while not residual.is_zero:
        candidates = [
            exps
            for exps, _ in residual.terms()
            if all(exps[k] >= exps[k + 1] for k in range(n - 1))
        ]
        if not candidates:
            raise ValueError("polynomial is not symmetric: irreducible residual")
        lead = max(candidates, key=lambda e: (sum(e), e))
        lam = tuple(e for e in lead if e)
        c = residual.coeff(lead)
        out[lam] = c
        residual = residual - c * schur_in_table(lam, table)
    return out
