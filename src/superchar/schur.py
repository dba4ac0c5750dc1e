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
1 - z t + t^2 with z = v + v^-1.  When each side's pairs also have one sign,
on variables that occur once in all, the h_m are symmetric in each side's
z's, so polynomials in the elementary symmetric e_k of them, with far
fewer terms: a side's r pairs are one factor,

    prod (1 - z_i t + t^2)  =  sum_k (-1)^k e_k t^k (1 + t^2)^(r - k),

over an :func:`e_table`; a single pair is a block of one, with e_1 = z.
When both alphabets are formal instead (each element one variable at power
1, plus constants) under the same two conditions, and some side has two
variables (e_1 of one x is that x), a side's variables are one factor

    prod (1 - s x_i t)  =  sum_k (-s)^k e_k t^k

over an e table of the x's.  Every other pair of alphabets is computed in
x.  Every map back to x is an injective ring map (the e's of distinct
variables are algebraically independent; Macdonald, Symmetric Functions,
I.2), so values equal over a table are equal in x.  Each character over an
e-of-z table is turned back into x once by :func:`in_x`; a weighted sum of
bracket characters (``folding.theorem_sides``, for every fold and dc sum)
is added over the table from one :func:`_table_dets` call, and its caller
turns it into x once.  A character over an e table of x's is a determinant
over the x view of its series, each h_m converted once per call.  Every
character this module returns is over the alphabets' own table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .laurent import (
    Accumulator,
    LaurentPoly,
    VarTable,
    _trusted,
    det,
    divide_linear,
    e_to_z,
    monomial_str,
    z_to_x,
)
from .partitions import Partition, as_partition, checked_memo, require_counts

SignedMonomial = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite multiset of signed Laurent monomials.

    Each element is (sign, exponent vector); the constants +1 and -1 are the
    elements with an all-zero exponent vector.  Each exponent vector is
    checked as :meth:`VarTable.pack` checks a polynomial's: its length, exact
    int exponents, each inside the packed field.  The alphabets built here
    from table names or from checked elements are not checked again.
    """

    table: VarTable
    elements: tuple[SignedMonomial, ...]

    def __post_init__(self):
        pack = self.table.pack
        for sign, exps in self.elements:
            if type(sign) is not int or sign not in (1, -1):  # bool is not a sign
                raise ValueError(f"element sign must be +-1, got {sign!r}")
            pack(exps)
        # Alphabets key every memo; hash the nested tuples once.
        object.__setattr__(self, "_hash", hash((self.table, self.elements)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def _of_checked(cls, table: VarTable, elements: tuple[SignedMonomial, ...]) -> "Alphabet":
        """The alphabet of elements that are valid by construction, built without the checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "table", table)
        object.__setattr__(out, "elements", elements)
        object.__setattr__(out, "_hash", hash((table, elements)))
        return out

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
        return cls._of_checked(table, tuple(elems))

    @classmethod
    def constants(cls, table: VarTable, values: tuple[int, ...]) -> "Alphabet":
        zero = (0,) * len(table)
        return cls(table, tuple((v, zero) for v in values))

    def union(self, other: "Alphabet") -> "Alphabet":
        """Both element lists in order; each was checked when its alphabet was built."""
        if self.table != other.table:
            raise ValueError("alphabets over different tables")
        return Alphabet._of_checked(self.table, self.elements + other.elements)

    __or__ = union

    def negated(self) -> "Alphabet":
        return Alphabet._of_checked(self.table, tuple((-s, exps) for s, exps in self.elements))

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
    exps = [0] * len(table)
    units, inverses = [], []
    for name in names:
        i = table.index[name]
        exps[i] = 1
        units.append((1, tuple(exps)))
        exps[i] = -1
        inverses.append((1, tuple(exps)))
        exps[i] = 0
    return Alphabet._of_checked(table, tuple(units + inverses))


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
    step reads the updated ones).  Each step is one Accumulator, a zero
    parts[k-d] is skipped, and no coefficient above degmax is ever formed.
    """
    if isinstance(start, list):
        parts = list(start)
    else:
        parts = [start] + [LaurentPoly.zero(start.table)] * degmax
    table = parts[0].table
    for terms, divide in factors:
        sign = 1 if divide else -1
        low = min(d for d, _ in terms)
        for k in range(low, degmax + 1) if divide else range(degmax, low - 1, -1):
            acc = None
            for d, u in terms:
                if k >= d and not parts[k - d].is_zero:
                    if acc is None:
                        acc = Accumulator(table, parts[k])
                    if type(u) is int:
                        acc.add(parts[k - d], sign * u)
                    else:
                        acc.add(parts[k - d], sign, u)
            if acc is not None:
                parts[k] = acc.value()
    return parts


@lru_cache(maxsize=None)
def z_table(table: VarTable) -> VarTable:
    """The table of z_i = x_i + x_i^-1, one per variable of table.

    It is in_x's step from e of z to x, and the table of power_det's
    Vandermonde in the z's.  No h_list value is over it.
    """
    return VarTable(f"z({name})" for name in table.names)


class ETable(VarTable):
    """A table of e_1..e_n of each block of x variables, block by block.

    The e's are of the blocks' z's (over_z) or of their x's.  The names,
    ``e<k>(z(<v>),...)`` or ``e<k>(<v>,...)``, spell out the blocks and what
    the e's are of, so equal e tables always mean the same map to x.
    """

    __slots__ = ("blocks", "over_z")

    def __init__(self, blocks: tuple[tuple[str, ...], ...], over_z: bool):
        wrap = "z({})".format if over_z else str
        super().__init__(
            f"e{k}({','.join(map(wrap, block))})"
            for block in blocks
            for k in range(1, len(block) + 1)
        )
        self.blocks = blocks
        self.over_z = over_z


@lru_cache(maxsize=None)
def e_table(blocks: tuple[tuple[str, ...], ...], over_z: bool) -> ETable:
    """The e table of the blocks, each a tuple of x variable names: of their z's or x's."""
    return ETable(blocks, over_z)


def _inverse_pairs(elements: tuple[SignedMonomial, ...]) -> list[SignedMonomial] | None:
    """One element s v per pair {s v, s v^-1} of an alphabet's non-constant elements, else None.

    They qualify when each is one variable to the power +-1 and its inverse
    occurs with the same sign and multiplicity; the v returned are the ones
    at power +1, in order.  One pass classifies each element and keeps the
    balance of (sign, variable) at power +1 against -1; all must be 0.
    """
    pairs, balance = [], {}
    for sign, exps in elements:
        if sum(map(abs, exps)) != 1:
            return None
        if 1 in exps:
            pairs.append((sign, exps))
            key = sign, exps.index(1)
            balance[key] = balance.get(key, 0) + 1
        else:
            key = sign, exps.index(-1)
            balance[key] = balance.get(key, 0) - 1
    return None if any(balance.values()) else pairs


def _formal(elements: tuple[SignedMonomial, ...]) -> tuple[SignedMonomial, ...] | None:
    """An alphabet's non-constant elements when each is one variable at power 1, else None."""
    if any(sum(map(abs, exps)) != 1 or 1 not in exps for _, exps in elements):
        return None
    return elements


def _e_blocks(x_vars, y_vars) -> list[tuple[int, tuple[int, ...]]] | None:
    """(sign, variable positions) of X's variables and of Y's, or None off the e route.

    The variables are the z's of the pairs, or the formal x's.  The e route
    takes one sign on each side and distinct variables throughout.  Then the
    e's of each side are algebraically independent, and the map from them to
    x is injective (unitriangular over the integers for z's), so values
    equal over the e table are equal in x.
    """
    blocks = []
    for variables in (x_vars, y_vars):
        signs = {sign for sign, _ in variables}
        if len(signs) > 1:
            return None
        positions = tuple(sorted(exps.index(1) for _, exps in variables))
        blocks.append((signs.pop() if signs else 1, positions))
    every = blocks[0][1] + blocks[1][1]
    if len(set(every)) != len(every):
        return None
    return blocks


def _e_factor(sign: int, e: list):
    """prod (1 - sign z_i t + t^2) over a block's z's, as graded_parts terms in ascending d.

    e is [1, e_1, ..., e_r] of the block.  The product is
    sum_k (-sign)^k e_k t^k (1 + t^2)^(r-k), so each u_d of 1 - sum u_d t^d
    is linear in the e_k; it is given as one term (d, c e_k) per k, with
    e_0 = 1 an int.  The terms are yielded as they are formed, so a caller
    that stops past its degree forms no more.
    """
    r = len(e) - 1
    for d in range(1, 2 * r + 1):
        for k in range(d % 2, min(d, r) + 1, 2):
            if (d - k) // 2 <= r - k:
                yield d, -((-sign) ** k) * comb(r - k, (d - k) // 2) * e[k]


def _formal_factor(sign: int, e: list):
    """prod (1 - sign x_i t) = sum_k (-sign)^k e_k t^k over a block's x's, as graded_parts terms.

    e is [1, e_1, ..., e_n] of the block; u_k is -(-sign)^k e_k.  The terms
    are yielded in ascending k, as they are formed.
    """
    for k in range(1, len(e)):
        yield k, -((-sign) ** k) * e[k]


def _route(x_elems, y_elems) -> tuple | None:
    """The e route's (over_z, blocks) from each side's non-constant elements, or None for x.

    over_z is True when both sides are inverse-paired and hold a pair: the
    variables are then the pairs' z's, one pair being a block of one.  It is
    False when both sides are formal and some side has two variables: the
    variables are then the x's.  blocks is _e_blocks of the variables.  Any
    other pair, or variables that _e_blocks refuses, give None: the h_m are
    computed in x.
    """
    x_vars, y_vars = _inverse_pairs(x_elems), _inverse_pairs(y_elems)
    over_z = x_vars is not None and y_vars is not None and bool(x_vars or y_vars)
    if not over_z:
        x_vars, y_vars = _formal(x_elems), _formal(y_elems)
        if x_vars is None or y_vars is None or max(len(x_vars), len(y_vars)) < 2:
            return None
    blocks = _e_blocks(x_vars, y_vars)
    return None if blocks is None else (over_z, blocks)


def _variable_series(table: VarTable, route, x_elems, y_elems, degmax: int) -> list:
    """[h_0, ..., h_degmax] of the non-constant elements: X's factors divided, Y's multiplied.

    A factor's terms past degmax are never read, so they are not formed.
    """
    if route is None:
        factors = [
            (((1, LaurentPoly.monomial(table, exps, sign)),), divide)
            for elems, divide in ((x_elems, True), (y_elems, False))
            for sign, exps in elems
        ]
        return graded_parts(LaurentPoly.const(table, 1), factors, degmax)
    over_z, blocks = route
    names = table.names
    etab = e_table(tuple(tuple(names[i] for i in block) for _, block in blocks if block), over_z)
    e = iter(_trusted(etab, {1 << shift: 1}, 1) for shift in etab.shifts)
    factor = _e_factor if over_z else _formal_factor
    factors = []
    for (sign, block), divide in zip(blocks, (True, False)):
        if block:
            terms = []
            for d, u in factor(sign, [1] + [next(e) for _ in block]):
                if d > degmax:  # the terms come in ascending d: none is read from here on
                    break
                terms.append((d, u))
            if terms:
                factors.append((tuple(terms), divide))
    return graded_parts(LaurentPoly.const(etab, 1), factors, degmax)


def _const_factors(x_consts, y_consts) -> list:
    """graded_parts factors for constants: divide by 1 - c t per x constant, times it per y."""
    return [(((1, c),), True) for c in x_consts] + [(((1, c),), False) for c in y_consts]


def _split(elements: tuple[SignedMonomial, ...]) -> tuple[tuple, tuple[int, ...]]:
    """An alphabet's non-constant elements and the signs of its constants, in one pass."""
    variables, consts = [], []
    for element in elements:
        if any(element[1]):
            variables.append(element)
        else:
            consts.append(element[0])
    return tuple(variables), tuple(consts)


# (table, X's non-constant elements, Y's) -> [h_0, ..., h_D] of the
# non-constant elements alone, over x or an e table, for the largest D asked so
# far: alphabets that differ only in their constants share it, and the route
# is found once for them.  clear_caches() empties it.
_pair_series: dict[tuple, list[LaurentPoly]] = {}


@lru_cache(maxsize=None)
def _h_list_cached(X: Alphabet, Y: Alphabet, degmax: int) -> tuple[LaurentPoly, ...]:
    """[h_0, ..., h_degmax]: 1 divided by X's factors, then times Y's.

    In x each element u is the factor 1 - u t.  Over an e table, all of a
    side's pairs are one _e_factor, or all of its formal variables one
    _formal_factor.  The non-constant elements' series comes from
    _pair_series, and each constant c is then the factor 1 - c t; a pair
    with no constants is that series' prefix itself.
    """
    (x_elems, x_consts), (y_elems, y_consts) = _split(X.elements), _split(Y.elements)
    key = (X.table, x_elems, y_elems)
    series = _pair_series.get(key)
    if series is None or len(series) <= degmax:
        route = _route(x_elems, y_elems)
        series = _pair_series[key] = _variable_series(X.table, route, x_elems, y_elems, degmax)
    if not (x_consts or y_consts):
        return tuple(series[: degmax + 1])
    return tuple(graded_parts(series[: degmax + 1], _const_factors(x_consts, y_consts), degmax))


def h_list(X: Alphabet, Y: Alphabet, degmax: int) -> tuple[LaurentPoly, ...]:
    """[h_0, ..., h_degmax] for the pair of alphabets, over one of three tables.

    When X and Y are both inverse-paired and hold at least one pair, each
    side's pairs have one sign, and no variable occurs twice, the h_m are
    over the ``e_table`` of the z's of X's and Y's blocks of variables (a
    single pair is a block of one).  When X and Y are formal (each element
    one variable at power 1, plus constants) with the same two conditions
    on their variables and at least two variables on some side, the h_m are
    over the ``e_table`` of the x's of the blocks.  Any other pair is over
    X.table.  :func:`in_x` turns each table's values into x.  degmax must
    be an exact nonnegative int.  Results are cached on the alphabets as
    given; the verification sweeps re-query identical pairs constantly.
    """
    if type(degmax) is not int or degmax < 0:
        require_counts(degmax=degmax)
    if X.table is not Y.table and X.table != Y.table:
        raise ValueError("alphabets over different tables")
    return _h_list_cached(X, Y, degmax)


def in_x(value: LaurentPoly, table: VarTable) -> LaurentPoly:
    """A value over table or over an e table of its variables, in x.

    The e's of z's go to the z's by :func:`superchar.laurent.e_to_z` and the
    z's to x by :func:`superchar.laurent.z_to_x`; the e's of x's go straight
    to x by ``e_to_z``.  All are injective ring maps.
    """
    vt = value.table
    if vt == table:
        return value
    index = table.index
    if not (isinstance(vt, ETable) and all(v in index for b in vt.blocks for v in b)):
        raise ValueError(f"{vt!r} is not {table!r} or an e table of it")
    blocks = tuple(tuple(index[v] for v in b) for b in vt.blocks)
    if not vt.over_z:
        return e_to_z(value, table, blocks)
    return z_to_x(e_to_z(value, z_table(table), blocks), table)


# ---------------------------------------------------------------------------
# Jacobi-Trudi determinants
# ---------------------------------------------------------------------------


class BracketType(enum.Enum):
    PLAIN = "plain"
    SQUARE = "square"
    ANGLE = "angle"


def _degree(shapes) -> int:
    """The h_list degree a batch of shapes asks for: the largest lam_1 + len(lam) - 1.

    Entry (i, j) of every rule reads h at most at lam_i - i + j <= lam_1 +
    len(lam) - 1 (at i = 1, j = len(lam)).
    """
    return max((lam[0] + len(lam) - 1 for lam in shapes if lam), default=0)


def _table_dets(shapes, hs, entry) -> list[LaurentPoly]:
    """det(E(lam_i - i, j)) over 1 <= i, j <= len(lam), for each shape.

    The entry E(base, j) is the sum c h(k) over the (c, k) of entry(base, j);
    h(k) is hs[k], read as 0 for k < 0, from one series at least as long as
    the degree the batch asks for (an h_list call, free h's or e's); the
    values stay over hs's table.  Each entry (base, j) is formed once per
    batch: a lone h(k) at coefficient 1 is hs[k] itself, any other sum one
    Accumulator.  The empty shape is 1.
    """
    table = hs[0].table
    # base -> [E(base, 1), E(base, 2), ...], as far as some shape asked.
    rows: dict[int, list[LaurentPoly]] = {}
    out = []
    for lam in shapes:
        if not lam:
            out.append(LaurentPoly.const(table, 1))
            continue
        n = len(lam)
        matrix = []
        for i, part in enumerate(lam, 1):
            base = part - i
            row = rows.setdefault(base, [])
            for j in range(len(row) + 1, n + 1):
                combination = [(c, k) for c, k in entry(base, j) if k >= 0]
                if len(combination) == 1 and combination[0][0] == 1:
                    row.append(hs[combination[0][1]])
                    continue
                acc = Accumulator(table)
                for c, k in combination:
                    acc.add(hs[k], c)
                row.append(acc.value())
            matrix.append(row[:n])
        out.append(det(matrix))
    return out


def _free_series(degree: int, names: tuple[str, ...] = ()) -> list[LaurentPoly]:
    """[1, h_1, ..., h_degree] over a table of free h1..h<degree> followed by names."""
    h_names = tuple(f"h{k}" for k in range(1, degree + 1))
    table = VarTable(h_names + tuple(names))
    return [LaurentPoly.const(table, 1)] + [LaurentPoly.variable(table, name) for name in h_names]


def _jacobi_trudi(shapes, X: Alphabet, Y: Alphabet, entry) -> list[LaurentPoly]:
    """The shapes' determinants over X.table, from one h_list call; 1 for the empty shape.

    Over an e-of-z table the determinants are taken there and each is turned
    into x.  Over an e table of x's they are taken over the x view of the
    same series, built here, so each h_m, not each character, is converted.
    """
    if not any(shapes):
        return [LaurentPoly.const(X.table, 1) for _ in shapes]
    hs = h_list(X, Y, _degree(shapes))
    table = hs[0].table
    if isinstance(table, ETable) and not table.over_z:
        return _table_dets(shapes, [in_x(h, X.table) for h in hs], entry)
    return [in_x(value, X.table) for value in _table_dets(shapes, hs, entry)]


# Each entry rule maps (base, j) to the (c, k) of its entry sum c h_k.


def _plain_entry(base: int, j: int) -> tuple:
    return ((1, base + j),)


def _square_entry(base: int, j: int) -> tuple:
    return (1, base + j), (-1, base - j)


def _angle_entry(base: int, j: int) -> tuple:
    # The paired rule's first column is h_{base+1} + h_{base+1}, and a
    # determinant is linear in its first column, so one h_{base+1} there
    # gives half the paired determinant.
    return ((1, base + 1),) if j == 1 else _paired_angle_entry(base, j)


def _paired_angle_entry(base: int, j: int) -> tuple:
    # Its determinant is twice the ANGLE character: bracket_schur_altform's reference.
    return (1, base + j), (1, base - j + 2)


def _altform_square_entry(base: int, j: int) -> tuple:
    # The ANGLE rule with H_m = h_m - h_{m-2} in place of h_m.
    return tuple(pair for c, k in _angle_entry(base, j) for pair in ((c, k), (-c, k - 2)))


def _entry_rule(rule: str):
    """_<rule>_entry, looked up at each call so that a patched rule reaches every route."""
    return globals()[f"_{rule}_entry"]


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
    return _jacobi_trudi([lam], X, Y, _plain_entry)[0]


@checked_memo(_bracket_args)
def bracket_schur(tag: BracketType, lam: Partition, X: Alphabet, Y: Alphabet) -> LaurentPoly:
    """The three determinant characters, selected by tag.

    SQUARE is det(h_{lam_i-i+j} - h_{lam_i-i-j}).  ANGLE is half of
    det(h_{lam_i-i+j} + h_{lam_i-i-j+2}), taken as the determinant with
    h_{lam_i-i+1} alone in the first column, so nothing is divided.  The
    empty shape is 1.
    """
    if tag is BracketType.PLAIN:
        return super_schur(lam, X, Y)
    return _jacobi_trudi([lam], X, Y, _entry_rule(tag.value))[0]


@checked_memo(_bracket_args)
def bracket_schur_altform(
    tag: BracketType, lam: Partition, X: Alphabet, Y: Alphabet
) -> LaurentPoly:
    """Other determinant forms of the SQUARE and ANGLE characters.

    SQUARE is the ANGLE rule with H_m = h_m - h_{m-2} in place of h_m.
    ANGLE is the paired determinant det(h_{lam_i-i+j} + h_{lam_i-i-j+2})
    halved exactly in x, so one that does not halve raises
    InexactDivisionError; the empty shape is 1, not halved.  No battery
    route calls it: check_schur_invariants compares the entry rules
    themselves, twice ANGLE against the paired determinant.
    """
    if tag is BracketType.PLAIN:
        raise ValueError("alternate forms exist for SQUARE and ANGLE only")
    if tag is BracketType.SQUARE:
        return _jacobi_trudi([lam], X, Y, _altform_square_entry)[0]
    value = _jacobi_trudi([lam], X, Y, _paired_angle_entry)[0]
    return value.exact_div(2) if lam else value


def bracket_batch(tag: BracketType, shapes, X: Alphabet, Y: Alphabet) -> list[LaurentPoly]:
    """bracket_lam(X|Y) over X.table for each lam of shapes, in order.

    The determinants come from one h_list call at the degree the batch asks
    for and one _table_dets call; they are not memoized, nor looked up in
    the per-shape memos of super_schur and bracket_schur.
    """
    _require_tag(tag)
    return _jacobi_trudi([as_partition(lam) for lam in shapes], X, Y, _entry_rule(tag.value))


# ---------------------------------------------------------------------------
# Bialternant reference and Schur expansion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def t_table(n: int) -> VarTable:
    return VarTable(tuple(f"t{i}" for i in range(1, n + 1)))


def _alternant(table: VarTable, lam: Partition, monomials: dict) -> LaurentPoly:
    """det(t_i^{lam_j + n - j}) over the n variables of table; 1 when n = 0.

    monomials maps (t, e) to t^e, filled here as entries are first met, so
    the alternants of one batch share them.
    """
    n = len(table)
    if not n:
        return LaurentPoly.const(table, 1)
    powers = [(lam[j] if j < len(lam) else 0) + n - 1 - j for j in range(n)]
    for t in table.names:
        for e in powers:
            if (t, e) not in monomials:
                monomials[t, e] = LaurentPoly.variable(table, t, e)
    return det([[monomials[t, e] for e in powers] for t in table.names])


def _by_vandermonde(numerator: LaurentPoly) -> LaurentPoly:
    """numerator / prod_{i<j} (t_i - t_j), exactly, one divide_linear per pair."""
    names = numerator.table.names
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            numerator = divide_linear(numerator, names[i], names[j])
    return numerator


@lru_cache(maxsize=None)
def _bialternant_in(table: VarTable, lam: Partition) -> LaurentPoly:
    return _by_vandermonde(_alternant(table, lam, {}))


def bialternant_schur(lam: Partition, n: int) -> LaurentPoly:
    """The ratio of alternants det(t_i^{lam_j + n - j}) / det(t_i^{n - j}).

    The denominator is the Vandermonde product, and the division is exact
    polynomial division, one ``divide_linear`` per pair of variables; this
    is the independent oracle for the determinant route.  No report path
    calls it: the battery multiplies by the Vandermonde instead.
    """
    require_counts(n=n)
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
    input was not symmetric and is rejected.  Each subtraction must leave
    the residual below the monomial it cleared, as it does when S_lam leads
    with coefficient 1; otherwise a one-line ValueError is raised, so a
    faulty S_lam cannot make the loop run forever.
    """
    table = p.table
    if len(table) != n:
        raise ValueError("polynomial table does not have n variables")
    unpack = table.unpack

    def shape(exps):
        return (sum(exps), exps) if all(exps[k] >= exps[k + 1] for k in range(n - 1)) else None

    residual = Accumulator(table, p)
    terms = residual.terms
    # Each packed key's (degree, exponents), or None when the exponents are
    # not partition-shaped; a residual term is read again on every step.
    shapes: dict[int, tuple[int, tuple[int, ...]] | None] = {}
    for key in terms:
        exps = unpack(key)
        if any(e < 0 for e in exps):
            raise ValueError("schur_expand expects a polynomial, no negative exponents")
        shapes[key] = shape(exps)
    out: dict[Partition, int] = {}
    cleared = None  # (degree, exponents) of the monomial the last step cleared
    while terms:
        lead = None
        for key in terms:
            if key not in shapes:
                shapes[key] = shape(unpack(key))
            here = shapes[key]
            if here is not None and (lead is None or here > lead):
                lead, lead_key = here, key
        if lead is None:
            raise ValueError("polynomial is not symmetric: irreducible residual")
        if cleared is not None and lead >= cleared:
            raise ValueError(f"S_{lam} left {lead[1]} in the residual: it does not lead with 1")
        lam = tuple(e for e in lead[1] if e)
        c = terms[lead_key]
        out[lam] = c
        residual.add(schur_in_table(lam, table), -c)
        cleared = lead
    return out
