"""Exact sparse multivariate Laurent polynomial arithmetic over the integers.

This is the ground ring for every character computed by the package.
Coefficients are Python ints (arbitrary precision), exponent vectors are
dense integer tuples positioned by a shared :class:`VarTable`, and all
values are immutable after construction.  There is deliberately no
floating point mode and no rational-function field here.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, Mapping


class InexactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class VarTable:
    """Ordered list of distinct variable names.

    The ordering fixes exponent-vector positions for the lifetime of a
    computation; two polynomials interoperate only over equal tables.
    """

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

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
    """

    __slots__ = ("table", "_terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], int]):
        n = len(table)
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps!r} does not fit {table!r}")
            if coeff:
                clean[tuple(exps)] = coeff
        self.table = table
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "LaurentPoly":
        return cls(table, {})

    @classmethod
    def const(cls, table: VarTable, value: int) -> "LaurentPoly":
        return cls(table, {(0,) * len(table): int(value)})

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
        return iter(self._terms.items())

    def coeff(self, exps: Iterable[int]) -> int:
        return self._terms.get(tuple(exps), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def eval_all_ones(self) -> int:
        """Sum of coefficients, i.e. the value at every variable = 1."""
        return sum(self._terms.values())

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.table != other.table:
            raise ValueError("polynomials over different variable tables")

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(self.table, other)
        self._check(other)
        acc = dict(self._terms)
        for exps, coeff in other._terms.items():
            new = acc.get(exps, 0) + coeff
            if new:
                acc[exps] = new
            else:
                acc.pop(exps, None)
        return LaurentPoly(self.table, acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.table, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(self.table, other)
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly.const(self.table, other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.table)
            return LaurentPoly(self.table, {e: c * other for e, c in self._terms.items()})
        self._check(other)
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                new = acc.get(key, 0) + c1 * c2
                if new:
                    acc[key] = new
                else:
                    acc.pop(key, None)
        return LaurentPoly(self.table, acc)

    __rmul__ = __mul__

    def exact_div(self, divisor: int) -> "LaurentPoly":
        """Divide every coefficient by an integer, failing loudly on remainders."""
        out = {}
        for exps, coeff in self._terms.items():
            q, r = divmod(coeff, divisor)
            if r:
                raise InexactDivisionError(
                    f"coefficient {coeff} of {monomial_str(self.table, exps)} "
                    f"is not divisible by {divisor}"
                )
            out[exps] = q
        return LaurentPoly(self.table, out)

    def map_terms(self, keep: Callable[[tuple[int, ...]], bool]) -> "LaurentPoly":
        return LaurentPoly(self.table, {e: c for e, c in self._terms.items() if keep(e)})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == LaurentPoly.const(self.table, other)._terms
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.table == other.table and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.table, frozenset(self._terms.items())))

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self._terms.items())

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.table.names),
            "terms": [
                {"exp": list(exps), "coeff": str(coeff)}
                for exps, coeff in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

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


def det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Division-free determinant of a square matrix of polynomials.

    Cofactor expansion memoized on the surviving column subset; fine for the
    desk-scale matrices (n <= 8) this package produces.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix has no table to build 1 over")
    table = rows[0][0].table
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    one = LaurentPoly.const(table, 1)
    memo: dict[tuple[int, ...], LaurentPoly] = {(): one}

    def minor(cols: tuple[int, ...]) -> LaurentPoly:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = rows[n - len(cols)]
        total = LaurentPoly.zero(table)
        for pos, col in enumerate(cols):
            entry = row[col]
            if entry.is_zero:
                continue
            rest = minor(cols[:pos] + cols[pos + 1 :])
            piece = entry * rest
            total = total + piece if pos % 2 == 0 else total - piece
        memo[cols] = total
        return total

    return minor(tuple(range(n)))


def divide_linear(p: LaurentPoly, var_i: str, var_j: str) -> LaurentPoly:
    """Exact division of a polynomial by (var_i - var_j).

    Synthetic division treating p as univariate in var_i; raises
    :class:`InexactDivisionError` when the remainder is nonzero.
    """
    table = p.table
    i = table.index[var_i]
    j = table.index[var_j]
    by_deg: dict[int, dict[tuple[int, ...], int]] = {}
    for exps, coeff in p.terms():
        k = exps[i]
        if k < 0:
            raise ValueError("divide_linear expects no negative exponents in the pivot")
        stripped = exps[:i] + (0,) + exps[i + 1 :]
        by_deg.setdefault(k, {})[stripped] = coeff
    if not by_deg:
        return LaurentPoly.zero(table)
    dmax = max(by_deg)
    tj = LaurentPoly.variable(table, var_j)
    carry = LaurentPoly.zero(table)
    quot: dict[tuple[int, ...], int] = {}
    for k in range(dmax, 0, -1):
        c_k = LaurentPoly(table, by_deg.get(k, {}))
        term = c_k + carry
        for exps, coeff in term.terms():
            key = exps[:i] + (exps[i] + k - 1,) + exps[i + 1 :]
            quot[key] = quot.get(key, 0) + coeff
        carry = term * tj
    remainder = LaurentPoly(table, by_deg.get(0, {})) + carry
    if not remainder.is_zero:
        raise InexactDivisionError(f"({var_i} - {var_j}) does not divide the polynomial")
    return LaurentPoly(table, quot)

