"""Exact sparse multivariate Laurent polynomial arithmetic over the integers.

This is the ground ring for every character computed by the package.
Coefficients are Python ints (arbitrary precision) and all values are
immutable after construction.  There is deliberately no floating point mode
and no rational-function field here.

Monomials are stored as packed keys: over a :class:`VarTable` of n names, the
exponent vector (e_0, ..., e_{n-1}) is the single Python int

    key = sum(e_i << shift_i),   shift_i = FIELD_BITS * (n - 1 - i),

with signed, unbiased fields, so the product of two monomials is the sum of
their keys.  Every exponent satisfies |e_i| <= EXPONENT_LIMIT =
2**(FIELD_BITS - 1) - 1.  For such vectors the map is injective and int order
equals lexicographic order of the tuples: at the first position i where two
vectors differ, their keys differ by at least 2**shift_i, and the later fields
together differ by less than that, so sorted keys give sorted tuples and the
JSON form is unchanged.

Each value carries an upper bound on |exponent| over its terms: a sum takes
the larger operand bound, a product the sum of both.  A product whose bound
passes EXPONENT_LIMIT raises :class:`ExponentOverflowError` before any key is
formed, so fields never carry into one another.  Exponent tuples are the only
form seen outside this module: the public constructor validates and packs
them, and ``terms``, ``coeff``, ``map_terms`` and the serializers unpack.

The substitution z_i = x_i + x_i^-1 (:func:`z_to_x`, and :func:`z_to_x_skew`
with the factors x_i - x_i^-1) runs in two phases.  The fold phase writes
each z_i^a in a Chebyshev basis, T_k = x^k + x^-k (with T_0 = 1) or
(x - x^-1) U_k(x + x^-1) = x^(k+1) - x^-(k+1), with the rows C(a, j) or
C(a, j) - C(a, j - 1) for j <= a/2; terms cancel there, while the
polynomial has one term per basis product.  The unfold phase writes each
basis element as its x monomials, and cancels nothing.
"""

from __future__ import annotations

import json
import struct
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, Mapping

FIELD_BITS = 32  # one signed big-endian struct "i" field per exponent
EXPONENT_LIMIT = 2 ** (FIELD_BITS - 1) - 1


class ExponentOverflowError(ValueError):
    """Raised when an exponent, or the bound of a product, leaves the packed field."""


class InexactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class VarTable:
    """Ordered list of distinct variable names.

    The ordering fixes exponent-vector positions for the lifetime of a
    computation; two polynomials interoperate only over equal tables.  The
    table also owns the packed-key layout: ``shifts[i]`` is the bit offset of
    variable i's field.
    """

    __slots__ = ("names", "index", "shifts", "_struct", "_bias")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        n = len(names)
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self._struct = struct.Struct(f">{n}i")
        # 2**(FIELD_BITS - 1) in every field: adding it makes each field
        # nonnegative, and xor with it maps that to the two's complement
        # field that struct reads and writes (and back).
        self._bias = sum(1 << (shift + FIELD_BITS - 1) for shift in self.shifts)

    def pack(self, exps: tuple[int, ...]) -> int:
        """The packed key of an exponent vector, validated: the public boundary."""
        if len(exps) != len(self.names):
            raise ValueError(f"exponent vector {exps!r} does not fit {self!r}")
        for e in exps:
            if type(e) is not int:  # also rejects bool, a subclass of int
                raise ValueError(f"exponent {e!r} in {exps!r} is not an int")
            if not -EXPONENT_LIMIT <= e <= EXPONENT_LIMIT:
                raise ExponentOverflowError(
                    f"exponent {e} in {exps!r} is outside the packed field "
                    f"|e| <= {EXPONENT_LIMIT}"
                )
        return (int.from_bytes(self._struct.pack(*exps), "big") ^ self._bias) - self._bias

    def unpack(self, key: int) -> tuple[int, ...]:
        raw = ((key + self._bias) ^ self._bias).to_bytes(self._struct.size, "big")
        return self._struct.unpack(raw)

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarTable({list(self.names)!r})"


def monomial_str(table: VarTable, exps: tuple[int, ...]) -> str:
    parts = [
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(table.names, exps)
        if e != 0
    ]
    return "*".join(parts) if parts else "1"


class LaurentPoly:
    """A sparse Laurent polynomial: exponent vector -> nonzero int coefficient.

    Equality is term-set equality (an int on the right-hand side is read as
    a constant polynomial).  Instances are never mutated after construction.
    This constructor validates and packs every exponent vector; ring
    operations build their results through :func:`_trusted` instead.
    """

    __slots__ = ("table", "_terms", "_bound")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], int]):
        clean: dict[int, int] = {}
        bound = 0
        for exps, coeff in terms.items():
            key = table.pack(exps)
            _check_coeff(coeff)
            if coeff:
                clean[key] = coeff
                bound = max(bound, max(map(abs, exps), default=0))
        self.table = table
        self._terms = clean
        self._bound = bound

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "LaurentPoly":
        return _trusted(table, {}, 0)

    @classmethod
    def const(cls, table: VarTable, value: int) -> "LaurentPoly":
        _check_coeff(value)
        return _trusted(table, {0: value} if value else {}, 0)

    @classmethod
    def monomial(cls, table: VarTable, exps: Iterable[int], coeff: int = 1) -> "LaurentPoly":
        return cls(table, {tuple(exps): coeff})

    @classmethod
    def variable(cls, table: VarTable, name: str, power: int = 1) -> "LaurentPoly":
        exps = [0] * len(table)
        exps[table.index[name]] = power
        return cls.monomial(table, exps)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        unpack = self.table.unpack
        return ((unpack(key), coeff) for key, coeff in self._terms.items())

    def coeff(self, exps: Iterable[int]) -> int:
        return self._terms.get(self.table.pack(tuple(exps)), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def eval_all_ones(self) -> int:
        """Sum of coefficients, i.e. the value at every variable = 1."""
        return sum(self._terms.values())

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise ValueError("polynomials over different variable tables")

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if type(other) is int:
            other = LaurentPoly.const(self.table, other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        big, small = (self, other) if len(self._terms) >= len(other._terms) else (other, self)
        acc = Accumulator(self.table, big)
        acc.add(small)
        return acc.value()

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _trusted(self.table, {k: -c for k, c in self._terms.items()}, self._bound)

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if type(other) is int:
            other = LaurentPoly.const(self.table, other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = Accumulator(self.table, self)
        acc.add(other, -1)
        return acc.value()

    def __rsub__(self, other: int) -> "LaurentPoly":
        if type(other) is not int:
            return NotImplemented
        return LaurentPoly.const(self.table, other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if type(other) is int:
            if other == 0:
                return LaurentPoly.zero(self.table)
            return _trusted(
                self.table, {k: c * other for k, c in self._terms.items()}, self._bound
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = Accumulator(self.table)
        acc.add(self, 1, other)
        return acc.value()

    __rmul__ = __mul__

    def exact_div(self, divisor: int) -> "LaurentPoly":
        """Divide every coefficient by an integer, failing loudly on remainders."""
        out = {}
        for key, coeff in self._terms.items():
            q, r = divmod(coeff, divisor)
            if r:
                raise InexactDivisionError(
                    f"coefficient {coeff} of {monomial_str(self.table, self.table.unpack(key))} "
                    f"is not divisible by {divisor}"
                )
            out[key] = q
        return _trusted(self.table, out, self._bound)

    def map_terms(self, keep: Callable[[tuple[int, ...]], bool]) -> "LaurentPoly":
        unpack = self.table.unpack
        return _trusted(
            self.table,
            {k: c for k, c in self._terms.items() if keep(unpack(k))},
            self._bound,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.table == other.table and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.table, frozenset(self._terms.items())))

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        unpack = self.table.unpack
        return [(unpack(key), coeff) for key, coeff in sorted(self._terms.items())]

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.table.names),
            "terms": [
                {"exp": list(exps), "coeff": str(coeff)}
                for exps, coeff in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), separators=(",", ":"))``, written term by term.

        The same bytes without a dict and a list per term: exponents and
        coefficient digits need no escaping, so only the names go through
        ``json``, and each term is one %-format of its unpacked key.
        """
        unpack = self.table.unpack
        term = '{"exp":[' + ",".join(["%d"] * len(self.table)) + '],"coeff":"%d"}'
        terms = ",".join(term % (*unpack(key), coeff) for key, coeff in sorted(self._terms.items()))
        names = json.dumps(self.table.names, separators=(",", ":"))
        return f'{{"vars":{names},"terms":[{terms}]}}'

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPoly":
        table = VarTable(data["vars"])
        return cls(table, {tuple(t["exp"]): int(t["coeff"]) for t in data["terms"]})

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
            mono = monomial_str(self.table, exps)
            if mono == "1":
                text = str(coeff)
            elif coeff == 1:
                text = mono
            elif coeff == -1:
                text = f"-{mono}"
            else:
                text = f"{coeff}*{mono}"
            chunks.append(text)
        out = " + ".join(chunks)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"<LaurentPoly {self}>"


def _check_coeff(coeff: object) -> None:
    if type(coeff) is not int:  # also rejects bool, a subclass of int
        raise ValueError(f"coefficient {coeff!r} is not an int")


def _product_bound(a: int, b: int) -> int:
    """The exponent bound of a product of values bounded by a and b, checked."""
    bound = a + b
    if bound > EXPONENT_LIMIT:
        raise ExponentOverflowError(
            f"product exponent bound {bound} passes the packed field limit {EXPONENT_LIMIT}"
        )
    return bound


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    """terms without its zero coefficients: the dict itself when it has none."""
    return {k: c for k, c in terms.items() if c} if 0 in terms.values() else terms


def _trusted(table: VarTable, terms: dict[int, int], bound: int) -> LaurentPoly:
    """Wrap ring-operation output: keys packed over ``table``, no zero coefficients."""
    poly = object.__new__(LaurentPoly)
    poly.table = table
    poly._terms = terms
    poly._bound = bound
    return poly


class Accumulator:
    """A running sum of polynomials and products, added into one dict of packed terms.

    ``add(p, c, u)`` is the in-place form of ``total + c * u * p`` (of
    ``total + c * p`` without u): no product or partial sum is built.  The
    ring's ``+``, ``-`` and ``*`` are each one Accumulator.  A sum's bound is
    the larger of its operands', a product's the sum of both, and a product
    past the field raises before any of its keys is formed.
    """

    __slots__ = ("table", "terms", "bound")

    def __init__(self, table: VarTable, start: LaurentPoly | None = None):
        self.table = table
        self.terms: dict[int, int] = {}
        self.bound = 0
        if start is not None:
            self._check(start)
            self.terms.update(start._terms)
            self.bound = start._bound

    def _check(self, p: LaurentPoly) -> None:
        if p.table is not self.table and p.table != self.table:
            raise ValueError("polynomials over different variable tables")

    def add(self, p: LaurentPoly, c: int = 1, u: LaurentPoly | None = None) -> None:
        self._check(p)
        if not c:
            return
        acc = self.terms
        get = acc.get
        if u is None:
            self.bound = max(self.bound, p._bound)
            if c == 1 and not acc:
                acc.update(p._terms)
            else:
                for key, coeff in p._terms.items():
                    new = get(key, 0) + c * coeff
                    if new:
                        acc[key] = new
                    else:
                        del acc[key]
            return
        p._check(u)
        self.bound = max(self.bound, _product_bound(u._bound, p._bound))
        outer, inner = p._terms, u._terms
        if len(outer) > len(inner):
            outer, inner = inner, outer
        inner_items = inner.items()
        for k1, c1 in outer.items():
            c1 *= c
            for k2, c2 in inner_items:
                key = k1 + k2
                acc[key] = get(key, 0) + c1 * c2

    def value(self) -> LaurentPoly:
        """The sum, without its zero coefficients; the value takes over the dict, so add no more."""
        return _trusted(self.table, _nonzero(self.terms), self.bound)


def widen(p: LaurentPoly, table: VarTable) -> LaurentPoly:
    """p over table, whose names hold p's table's names as one contiguous run, in order.

    A packed key puts the last variable at shift 0, so p's keys become
    table's keys after one left shift, by FIELD_BITS times the number of
    table's names after the run; for a run that ends the table the keys are
    p's own.  p's bound still holds.  Names that are not such a run of
    table's names are refused.
    """
    names = p.table.names
    start = table.index.get(names[0], len(table)) if names else 0
    if table.names[start : start + len(names)] != names:
        raise ValueError(f"{p.table!r} is not a contiguous run of {table!r}")
    shift = FIELD_BITS * (len(table) - start - len(names))
    terms = {key << shift: c for key, c in p._terms.items()} if shift else p._terms
    return _trusted(table, terms, p._bound)


def det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Division-free determinant of a square matrix of polynomials.

    Cofactor expansion memoized on the surviving column subset, keyed by its
    bitmask; fine for the desk-scale matrices (n <= 8) this package
    produces.  Every entry must be over the first entry's table, and a 1 x 1
    matrix returns its entry.

    Each minor is one dict of packed terms, with the bound that ``*``, ``+``
    and ``-`` would give it, so a product past the field raises exactly as in
    the ring.  The one-column minors are the last row's entries themselves
    (a zero entry is 0 with bound 0); their dicts are only read.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix has no table to build 1 over")
    first = rows[0][0]
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
        for entry in row:
            first._check(entry)
    if n == 1:
        return first
    memo: dict[int, tuple[dict[int, int], int]] = {
        1 << col: (entry._terms, entry._bound) if entry._terms else ({}, 0)
        for col, entry in enumerate(rows[-1])
    }

    def minor(cols: tuple[int, ...], mask: int) -> tuple[dict[int, int], int]:
        # Called on memo misses only: each sub-minor is looked up first.
        row = rows[n - len(cols)]
        acc: dict[int, int] = {}
        get = acc.get
        bound = 0
        for pos, col in enumerate(cols):
            entry = row[col]
            if not entry._terms:
                continue
            items = entry._terms.items()
            sub = mask ^ (1 << col)
            rest, rest_bound = memo.get(sub) or minor(cols[:pos] + cols[pos + 1 :], sub)
            bound = max(bound, _product_bound(entry._bound, rest_bound))
            odd = pos % 2
            for k, c in rest.items():
                if odd:
                    c = -c
                for k2, c2 in items:
                    key = k + k2
                    acc[key] = get(key, 0) + c * c2
        memo[mask] = out = _nonzero(acc), bound
        return out

    try:
        terms, bound = minor(tuple(range(n)), (1 << n) - 1)
    finally:
        del minor  # minor's closure cell refers to minor: a cycle that would keep the memo alive
    return _trusted(first.table, terms, bound)


def _fold_row(a: int, lift: int) -> list[int]:
    """z^a (x - x^-1)^lift in the lift's Chebyshev basis: the coefficient of k = a - 2j, j <= a/2.

    With lift 0 the basis is T_0 = 1 and T_k = x^k + x^-k, and the row is
    C(a, j), since z^a = (x + x^-1)^a = sum_j C(a, j) x^(a - 2j) pairs
    x^(a - 2j) with x^-(a - 2j).  With lift 1 it is (x - x^-1) U_k(z) =
    x^(k + 1) - x^-(k + 1), and the row is the ballot numbers
    C(a, j) - C(a, j - 1), which are positive for j <= a/2.
    """
    row = [comb(a, j) for j in range(a // 2 + 1)]
    return [c - d for c, d in zip(row, [0] + row)] if lift else row


def _unfold(terms: dict[int, int], table: VarTable, lift: int) -> dict[int, int]:
    """Basis terms over ``table``, each index k of x_i written as x_i^(k + lift) +- x_i^-(k + lift).

    The sign is + for lift 0 (T_k) and - for lift 1 (the U_k times
    x_i - x_i^-1), and T_0 is the one monomial x_i^0.  Distinct indices
    give disjoint supports, so no two terms of a pass meet and none
    cancels: each pass writes every key once.  The passes run from the
    first variable, the highest field, down: the fields below a pass's own
    are still nonnegative indices, and a field an earlier pass made
    negative borrows only from the fields above it, so each pass reads its
    field from the key's bits directly.
    """
    mask = (1 << FIELD_BITS) - 1
    sign = -1 if lift else 1
    for shift in table.shifts:
        up = lift << shift  # the key of x_i^lift
        out: dict[int, int] = {}
        for key, coeff in terms.items():
            k = (key >> shift) & mask
            if k or lift:
                out[key + up] = coeff
                out[key - ((2 * k + lift) << shift)] = sign * coeff
            else:
                out[key] = coeff
        terms = out
    return terms


def _z_passes(p: LaurentPoly, table: VarTable, lift: int) -> dict[int, int]:
    """p's terms with each z_i^a replaced by z_i^a (x_i - x_i^-1)^lift, written in x_i.

    The engine of :func:`z_to_x` (lift 0) and :func:`z_to_x_skew` (lift 1),
    in two phases of one pass per variable.  The fold phase rewrites each
    z_i^a as sum_j row[j] B_(a - 2j), in the basis and row of
    :func:`_fold_row`; a key keeps the index a - 2j in x_i's field, so
    terms cancel while the polynomial is still compact.  The unfold phase
    (:func:`_unfold`) writes each basis element as its x monomials and
    cancels nothing.  p must have no negative exponent, and its table as
    many variables as ``table``, so a key of p is a key over ``table`` too.
    Every field stays nonnegative in the fold phase, so a pass reads its
    field from the key's bits; a negative exponent reads as at least half
    the field in its own pass, if no pass above has read so first.
    """
    if len(p.table) != len(table):
        raise ValueError(f"{p.table!r} and {table!r} differ in length")
    half, mask = 1 << (FIELD_BITS - 1), (1 << FIELD_BITS) - 1
    rows: dict[int, list[int]] = {}
    terms = p._terms
    for shift in table.shifts:
        two = 2 << shift  # the key of x_i^2
        acc: dict[int, int] = {}
        get = acc.get
        for key, coeff in terms.items():
            a = (key >> shift) & mask
            row = rows.get(a)
            if row is None:
                if a >= half:
                    raise ValueError("z_to_x and z_to_x_skew expect no negative exponents")
                row = rows[a] = _fold_row(a, lift)
            for b in row:
                acc[key] = get(key, 0) + coeff * b
                key -= two
        terms = _nonzero(acc)
    return _unfold(terms, table, lift)


def z_to_x(p: LaurentPoly, table: VarTable) -> LaurentPoly:
    """p with its i-th variable z_i replaced by x_i + x_i^-1, x_i the i-th of table.

    p must have no negative exponent, and its table as many variables as
    ``table``.  :func:`_z_passes` first folds each z_i^a into
    sum_{j <= a/2} C(a, j) T_(a - 2j), with T_0 = 1 and
    T_k = x_i^k + x_i^-k, then unfolds each T_k.  Each exponent a becomes
    exponents in [-a, a], so p's bound still holds.
    """
    return _trusted(table, _z_passes(p, table, 0), p._bound)


def z_to_x_skew(p: LaurentPoly, table: VarTable) -> LaurentPoly:
    """z_to_x(p, table) times prod_i (x_i - x_i^-1), in z_to_x's passes.

    :func:`_z_passes` folds each z_i^a into
    sum_{j <= a/2} (C(a, j) - C(a, j - 1)) U_(a - 2j), then unfolds each
    U_k into (x_i - x_i^-1) U_k(x_i + x_i^-1) = x_i^(k + 1) - x_i^-(k + 1),
    so no product is formed.  p must have no negative exponent, and its
    table as many variables as ``table``.  Each exponent a becomes
    exponents in [-a - 1, a + 1], so the bound is p's plus one, checked
    against the field before any key is formed.
    """
    bound = _product_bound(p._bound, 1)
    return _trusted(table, _z_passes(p, table, 1), bound)


def e_to_z(p: LaurentPoly, table: VarTable, blocks: tuple[tuple[int, ...], ...]) -> LaurentPoly:
    """p with each e variable replaced by an elementary symmetric polynomial over table.

    p's variables are e_1, ..., e_n of each block in turn, a block being
    the positions in ``table`` of its n distinct variables; e_k becomes the
    sum of the products of k of them.  A position that repeats (the map would
    not be injective) or falls outside ``table`` is refused, and so is a
    negative exponent in p.
    A key of the pass is the z key shifted above p's fields plus the e
    exponents still to expand.  Each block's e_n is a single monomial, so
    one first pass only moves each term's e_n fields to the blocks' z's;
    then one pass per other e variable expands e_k^a (the product of a sums,
    formed once per pass and a) and clears its field, from e_(n-1) down to
    e_1, so the terms multiply as late as they can.  When every block is
    one variable (e_1 = z) the move is the whole map, and when those
    variables are table's own, in order, it leaves every key as it is.  The
    z exponent of a variable is at most the sum of its block's e exponents,
    so the bound is p's times the longest block.
    """
    etab = p.table
    if sum(map(len, blocks)) != len(etab):
        raise ValueError(f"blocks {blocks!r} do not fit {etab!r}")
    positions = [i for block in blocks for i in block]
    if len(set(positions)) != len(positions) or not all(0 <= i < len(table) for i in positions):
        raise ValueError(f"blocks {blocks!r} repeat or leave the positions of {table!r}")
    bias, mask = etab._bias, (1 << FIELD_BITS) - 1
    for key in p._terms:
        if (key + bias) & bias != bias:  # some field's sign bit is set
            raise ValueError("e_to_z expects no negative exponents")
    longest = max(map(len, blocks), default=0)
    bound = p._bound * longest
    if bound > EXPONENT_LIMIT:
        raise ExponentOverflowError(f"z exponent bound {bound} passes the packed field limit")
    if longest == 1 and positions == list(range(len(table))):
        return _trusted(table, p._terms, bound)
    width = FIELD_BITS * len(etab)
    moves, passes = [], []  # (e_n's field, its z key); (e_k's field, the z keys, k) for k < n
    first = 0  # the position of the block's e_1 in p's table
    for block in blocks:
        units = [1 << (table.shifts[i] + width) for i in block]
        moves.append((etab.shifts[first + len(block) - 1], sum(units)))
        passes += [(etab.shifts[first + k - 1], units, k) for k in range(len(block) - 1, 0, -1)]
        first += len(block)
    # Distinct blocks move to disjoint z's, so no two moved terms meet.
    terms = {}
    for key, coeff in p._terms.items():
        for shift, unit in moves:
            a = (key >> shift) & mask
            key += a * unit - (a << shift)
        terms[key] = coeff
    for shift, units, k in passes:
        e_k = [sum(combo) for combo in combinations(units, k)]
        powers = [{0: 1}]
        acc: dict[int, int] = {}
        get = acc.get
        for key, coeff in terms.items():
            a = (key >> shift) & mask
            while len(powers) <= a:
                last, step = powers[-1], {}
                for k1, c1 in last.items():
                    for k2 in e_k:
                        step[k1 + k2] = step.get(k1 + k2, 0) + c1
                powers.append(step)
            key -= a << shift
            for k2, c2 in powers[a].items():
                acc[key + k2] = get(key + k2, 0) + coeff * c2
        terms = acc
    return _trusted(table, {key >> width: c for key, c in _nonzero(terms).items()}, bound)


def divide_linear(p: LaurentPoly, var_i: str, var_j: str) -> LaurentPoly:
    """Exact division of a polynomial by (var_i - var_j).

    Synthetic division treating p as univariate in var_i; raises
    :class:`InexactDivisionError` when the remainder is nonzero.  Each carry
    is the running term times var_j, formed as a shift of its keys by var_j's
    unit under the bound check the ring's product would make.
    """
    table = p.table
    i = table.index[var_i]
    shift = table.shifts[i]
    unit = 1 << shift  # the key of var_i
    unit_j = 1 << table.shifts[table.index[var_j]]
    half, mask = 1 << (FIELD_BITS - 1), (1 << FIELD_BITS) - 1
    by_deg: dict[int, dict[int, int]] = {}
    for key, coeff in p._terms.items():
        # var_i's field of the biased key, less its bias: var_i's exponent.
        k = (((key + table._bias) >> shift) & mask) - half
        if k < 0:
            raise ValueError("divide_linear expects no negative exponents in the pivot")
        by_deg.setdefault(k, {})[key - k * unit] = coeff
    if not by_deg:
        return LaurentPoly.zero(table)
    carry = LaurentPoly.zero(table)
    quot: dict[int, int] = {}
    for k in range(max(by_deg), 0, -1):
        term = _trusted(table, by_deg.get(k, {}), p._bound) + carry
        # Every term's var_i field is 0 here (by_deg strips it, the carry
        # shifts var_j's field), so the lifted levels share no key.  With
        # var_j = var_i the remainder is p itself, and a nonzero p raises.
        lift = (k - 1) * unit
        quot.update({key + lift: c for key, c in term._terms.items()})
        carry = _trusted(
            table,
            {key + unit_j: c for key, c in term._terms.items()},
            _product_bound(term._bound, 1),
        )
    remainder = _trusted(table, by_deg.get(0, {}), p._bound) + carry
    if not remainder.is_zero:
        raise InexactDivisionError(f"({var_i} - {var_j}) does not divide the polynomial")
    # p = (var_i - var_j) * quotient, so by Ostrowski's theorem the quotient's
    # Newton polytope, shifted by var_i and by var_j, lies in p's: p's bound
    # still holds.
    return _trusted(table, quot, p._bound)
