"""The identity battery: truncated Cauchy checks, classical sums, suite engine.

Truncation semantics for the series checks: both sides are compared as
polynomials of total degree <= degmax in the auxiliary t variables.  The
character sums are cut at |lam| <= degmax, which loses nothing because the
Schur polynomial of lam is homogeneous of degree |lam| in the t's.  The
product sides are kept as their homogeneous t-degree parts 0..degmax, and each
factor (1 - u) or 1/(1 - u) updates those parts in place, so no term of higher
degree is ever formed.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import cache, partial
from itertools import chain, combinations, combinations_with_replacement

from . import folding, laurent, lr, partitions, schur
from .laurent import Accumulator, LaurentPoly, VarTable, widen
from .partitions import (
    Partition,
    PartitionClass,
    RectSubset,
    conjugate,
    in_class,
    in_hook,
    partitions_of,
    partitions_upto,
    require_counts,
    size,
)
from .report import VerificationReport, _first_failures, poly_comparison, value_comparison
from .schur import Alphabet, BracketType

# One row per Cauchy kind: (bracket, t-pair rule, dual).  The identity sums
# bracket_lam(X|Y) s_lam(t) against the alphabet product times (1 - t_i t_j)
# over the pairs of t's the rule gives: i < j, i <= j, or none for None.  A
# dual row is taken at (Y|X) under t -> -t, since <lam'>(X|Y) = (-1)^|lam|
# [lam](Y|X) (Macdonald, Symmetric Functions, I.5, the involution omega).
_CAUCHY_ROWS = {
    "cauchy_plain": (BracketType.PLAIN, None, False),
    "cauchy_square": (BracketType.SQUARE, combinations_with_replacement, False),
    "cauchy_angle": (BracketType.ANGLE, combinations, False),
    "cauchy_angle_dual": (BracketType.SQUARE, combinations_with_replacement, True),
}
CAUCHY_KINDS = tuple(_CAUCHY_ROWS)
# One row per classical sum: (shape class, 1/(1 - t_i) factors, t-pair rule),
# the product's 1/(1 - t_i t_j) taken over the pairs the rule gives.
_SUM_ROWS = {
    "schur_sum": (PartitionClass.ALL, True, combinations),
    "littlewood_even_rows": (PartitionClass.EVEN_ROWS, False, combinations_with_replacement),
    "littlewood_even_columns": (PartitionClass.EVEN_COLUMNS, False, combinations),
}
SUM_KINDS = tuple(_SUM_ROWS)


def _parts_sum(parts: list[LaurentPoly]) -> LaurentPoly:
    """The nonzero parts added into one Accumulator."""
    acc = Accumulator(parts[0].table)
    for part in parts:
        if not part.is_zero:
            acc.add(part)
    return acc.value()


def cauchy_alphabets(nx: int, ny: int, nT: int) -> tuple[Alphabet, Alphabet, VarTable]:
    """Formal X and Y alphabets over a table that also carries t1..tnT."""
    require_counts(nx=nx, ny=ny, nT=nT)
    x_names = tuple(f"x{i}" for i in range(1, nx + 1))
    y_names = tuple(f"y{i}" for i in range(1, ny + 1))
    t_names = tuple(f"t{i}" for i in range(1, nT + 1))
    table = VarTable(x_names + y_names + t_names)
    return (
        Alphabet.formal(table, x_names),
        Alphabet.formal(table, y_names),
        table,
    )


# The pieces of a Cauchy check, shared by cauchy_check and check_cauchy_sweep.


def _cauchy_t_side(nT: int, degmax: int) -> tuple[list, list[LaurentPoly]]:
    """The shapes with |lam| <= degmax and at most nT rows, and their s_lam(t1..tnT).

    The Schur polynomials come from one schur.bracket_batch over
    schur.t_table(nT).
    """
    shapes = partitions_upto(degmax, max_len=nT)
    table = schur.t_table(nT)
    none = Alphabet.empty(table)
    return shapes, schur.bracket_batch(BracketType.PLAIN, shapes, Alphabet.formal(table), none)


def _alphabet_parts(X: Alphabet, Y: Alphabet, nT: int, degmax: int) -> list[LaurentPoly]:
    """The t-degree parts of the alphabet factors, over X.table.

    For each of t1..tnT: (1 - t y) over Y and 1/(1 - t x) over X, each a
    schur.graded_parts factor of t-degree 1 (X and Y hold no t).
    """
    t_polys = [LaurentPoly.variable(X.table, f"t{i}") for i in range(1, nT + 1)]
    factors = [
        (((1, t * w),), divide)
        for t in t_polys
        for divide, alphabet in ((False, Y), (True, X))
        for w in alphabet.polys()
    ]
    return schur.graded_parts(LaurentPoly.const(X.table, 1), factors, degmax)


def _pair_products(rule, t_polys: list[LaurentPoly]) -> list[LaurentPoly]:
    """t_i t_j for each pair of t_polys that a row's t-pair rule gives; none for None."""
    return [ti * tj for ti, tj in rule(t_polys, 2)] if rule else []


def _cauchy_sides(row: tuple, nT: int, degmax: int, t_side, chars, parts) -> tuple:
    """Both sides of the row's Cauchy identity over the table of parts, to t-degree degmax.

    chars are the brackets of the shapes of t_side (a _cauchy_t_side), and
    parts the t-degree parts of prod_i H(t_i).  Each char * s_lam(t) is added
    into one Accumulator; parts is multiplied by the row's (1 - t_i t_j),
    each a schur.graded_parts factor of t-degree 2.  A dual row takes t -> -t:
    each term is signed (-1)^|lam| and each part of t-degree k (-1)^k.
    """
    _, rule, dual = row
    table = parts[0].table
    lhs = Accumulator(table)
    for lam, s_t, char in zip(*t_side, chars):
        lhs.add(widen(s_t, table), -1 if dual and size(lam) % 2 else 1, char)
    t_polys = [LaurentPoly.variable(table, f"t{i}") for i in range(1, nT + 1)]
    factors = [(((2, u),), False) for u in _pair_products(rule, t_polys)]
    rhs = schur.graded_parts(_signed(parts) if dual else parts, factors, degmax)
    return lhs.value(), _parts_sum(rhs)


def _cauchy_params(kind: str, X: Alphabet, Y: Alphabet, nT: int, degmax: int) -> dict:
    """The params of one Cauchy check's report."""
    return {
        "kind": kind,
        "x": X.describe(),
        "y": Y.describe(),
        "nT": nT,
        "degmax": degmax,
    }


def _cauchy_free_proof(bracket: BracketType, rule, nT: int, degmax: int, t_side) -> bool:
    """Whether the identity of (bracket, rule) holds over free h_1..h_degmax, to t-degree degmax.

    The identity is sum_lam bracket_lam[h] s_lam(t) = prod_i H(t_i) times
    the rule's (1 - t_i t_j), with H(t) = sum_k h_k t^k.  The table is
    h1..h<degmax> then t1..tnT.  The brackets come from schur._table_dets
    over the free series, the shapes and s_lam(t) from t_side (a
    _cauchy_t_side), the product parts from schur.graded_parts, with H(t_i)
    the factor of u_k = -h_k t_i^k at t-degree k, and both sides from
    _cauchy_sides.  t -> -t fixes the h's, so this proves a dual row too.
    """
    hs = schur._free_series(degmax, schur.t_table(nT).names)
    table = hs[0].table
    chars = schur._table_dets(t_side[0], hs, schur._entry_rule(bracket.value))
    degrees = range(1, degmax + 1)
    factors = [
        (tuple((k, -hs[k] * LaurentPoly.variable(table, t, k)) for k in degrees), False)
        for t in (schur.t_table(nT).names if degmax else ())
    ]
    parts = schur.graded_parts(LaurentPoly.const(table, 1), factors, degmax)
    lhs, rhs = _cauchy_sides((bracket, rule, False), nT, degmax, t_side, chars, parts)
    return lhs == rhs


def _monomial_h(table: VarTable, nx: int, ny: int, k: int) -> LaurentPoly:
    """h_k(X|Y) of table's first nx variables as X and its next ny as Y, formed on its own.

    h_k(X|Y) = sum_{i+j=k} (-1)^j h_i(X) e_j(Y), as a sum of monomials: a
    multiset of i x's times a set of j y's, each monomial once.
    """
    terms = {}
    for j in range(min(k, ny) + 1):
        for xs in combinations_with_replacement(range(nx), k - j):
            for ys in combinations(range(nx, nx + ny), j):
                exps = [0] * len(table)
                for v in xs + ys:
                    exps[v] += 1
                terms[tuple(exps)] = (-1) ** j
    return LaurentPoly(table, terms)


def _series_guard(nx: int, ny: int, degmax: int) -> bool:
    """Whether schur.h_list of cauchy_alphabets(nx, ny, 0) is h_0..h_degmax of the pair, in x.

    Each h_k is compared, through schur.in_x, with _monomial_h.
    """
    X, Y, table = cauchy_alphabets(nx, ny, 0)
    hs = schur.h_list(X, Y, degmax)
    return len(hs) == degmax + 1 and all(
        schur.in_x(h, table) == _monomial_h(table, nx, ny, k) for k, h in enumerate(hs)
    )


def _require_cauchy_alphabets(X: Alphabet, Y: Alphabet, nT: int) -> None:
    """Refuse a table without t1..tnT as one contiguous run, or alphabets that hold those t's.

    The character side is cut at |lam| <= degmax and the product side by
    t-degree; the two cuts agree only when X and Y are free of t1..tnT.
    """
    table = X.table
    if Y.table != table:
        raise ValueError("alphabets over different tables")
    t_names = tuple(f"t{i}" for i in range(1, nT + 1))
    start = table.index.get("t1", len(table))
    if table.names[start : start + nT] != t_names:
        raise ValueError(f"nT={nT} needs t1..t{nT} as one contiguous run of {table!r}")
    for label, alphabet in (("X", X), ("Y", Y)):
        for i, (_, exps) in enumerate(alphabet.elements):
            held = [name for name, e in zip(t_names, exps[start : start + nT]) if e]
            if held:
                text = alphabet.describe()[i]
                raise ValueError(f"{label} element {text} holds {held[0]}, a t variable at nT={nT}")


def cauchy_check(
    kind: str, X: Alphabet, Y: Alphabet, nT: int, degmax: int
) -> VerificationReport:
    """One truncated Cauchy-type identity, compared exactly.

    X.table must hold t1..tnT as one contiguous run, and no element of X or Y
    may hold one of those t's; either fault raises a one-line ValueError
    before any work.  The kind's _CAUCHY_ROWS row gives its bracket, its
    t-pair rule and whether it is taken at (Y|X) under t -> -t.  The shapes
    have size at most degmax and at most nT rows: their brackets come from
    one schur.bracket_batch and their s_lam(t1..tnT) from one over
    schur.t_table(nT).  _cauchy_sides builds both sides from these and the
    alphabet factors' graded parts, as it does over free h for
    check_cauchy_sweep, which calls this for each report it does not decide.
    """
    if kind not in CAUCHY_KINDS:
        raise ValueError(f"unknown cauchy kind {kind!r}")
    require_counts(nT=nT, degmax=degmax)
    if nT < 1:
        raise ValueError("need at least one t variable")
    _require_cauchy_alphabets(X, Y, nT)
    row = _CAUCHY_ROWS[kind]
    bracket, _, dual = row
    A, B = (Y, X) if dual else (X, Y)
    t_side = _cauchy_t_side(nT, degmax)
    chars = schur.bracket_batch(bracket, t_side[0], A, B)
    parts = _alphabet_parts(A, B, nT, degmax)
    lhs, rhs = _cauchy_sides(row, nT, degmax, t_side, chars, parts)
    # poly_comparison is looked up on this module, where the benchmark's tracer wraps it.
    return poly_comparison(f"cauchy.{kind}", _cauchy_params(kind, X, Y, nT, degmax), lhs, rhs)


def littlewood_sum_check(kind: str, nT: int, degmax: int) -> VerificationReport:
    """Classical sum of Schur polynomials against its product form.

    The left side sums s_lam(t_1..t_nT) over the kind's shapes with |lam|
    <= degmax and at most nT rows, each by the e form of Jacobi-Trudi,
    det(e_{lam'_i - i + j}) (Macdonald, Symmetric Functions, I.3.5 and
    I.5).  The determinants are one schur._table_dets batch over the e table
    of the t's, whose series is [1, e_1, ..., e_nT] and zeros above; their
    sum is turned into t once by schur.in_x.  No h_m is read and nothing is
    divided.  The right side is the product of 1/(1 - u) over the kind's
    monomials u, to t-degree degmax: the single t_i if the kind's _SUM_ROWS
    row has them, and the t_i t_j of the row's t-pair rule.
    """
    if kind not in SUM_KINDS:
        raise ValueError(f"unknown sum kind {kind!r}")
    require_counts(nT=nT, degmax=degmax)
    if nT < 1:
        raise ValueError("need at least one t variable")
    table = schur.t_table(nT)

    cls, singles, rule = _SUM_ROWS[kind]
    shapes = [conjugate(lam) for lam in partitions_upto(degmax, max_len=nT) if in_class(lam, cls)]
    etab = schur.e_table((table.names,), False)
    es = [LaurentPoly.const(etab, 1)] + [LaurentPoly.variable(etab, name) for name in etab.names]
    es += [LaurentPoly.zero(etab)] * (schur._degree(shapes) + 1 - len(es))
    dets = schur._table_dets(shapes, es, schur._entry_rule("plain"))
    lhs = schur.in_x(_parts_sum(dets), table)

    t_polys = [LaurentPoly.variable(table, name) for name in table.names]
    # Each monomial u as (its t-degree, u): a single t_i has 1, t_i t_j has 2.
    terms = [(1, t) for t in t_polys] if singles else []
    terms += [(2, u) for u in _pair_products(rule, t_polys)]
    factors = [((term,), True) for term in terms]
    rhs = _parts_sum(schur.graded_parts(LaurentPoly.const(table, 1), factors, degmax))

    params = {"kind": kind, "nT": nT, "degmax": degmax}
    return poly_comparison(f"littlewood.{kind}", params, lhs, rhs)


def _z_vandermonde(table: VarTable) -> LaurentPoly:
    """prod_{j<i} (z_i - z_j) over the z table of table, variable by variable."""
    zt = schur.z_table(table)
    z = [LaurentPoly.variable(zt, name) for name in zt.names]
    out = LaurentPoly.const(zt, 1)
    for i in range(len(z)):
        for j in range(i):
            out = out * (z[i] - z[j])
    return out


def power_det_check(m: int) -> VerificationReport:
    """det(t_i^{m-j} - t_i^{m+j}) against its closed product form.

    The product prod_i (1 - t_i^2) prod_{j<i} (t_j - t_i)(1 - t_j t_i) is
    (-1)^m prod_i t_i^m (t_i - t_i^-1) times the Vandermonde of the
    z_i = t_i + t_i^-1, since 1 - t^2 = -t (t - t^-1) and
    (t_j - t_i)(1 - t_j t_i) = t_i t_j (z_i - z_j).  The Vandermonde has
    m! terms; ``laurent.z_to_x_skew`` turns it into t times the factors
    (t_i - t_i^-1), and one Accumulator product applies the sign and the
    monomial.  Its fold phase takes the Vandermonde into the basis
    (t - t^-1) U_k(t + t^-1) = t^(k+1) - t^-(k+1) with the ballot rows
    C(a, j) - C(a, j - 1), where it ends at m! terms again (it is
    det U_(j-1)(z_i), each U_k monic of degree k in z; at m = 6 its passes
    peak at 3,312 terms); the unfold phase writes each U_k as its two t
    monomials, 2^m m! terms, and cancels nothing.  The product side is
    built before the determinant, so the two never hold their working sets
    at once.  The determinant is looked up in ``laurent`` and no h_m is
    read.
    """
    require_counts(m=m)
    if m < 1:
        raise ValueError("m must be >= 1")
    table = schur.t_table(m)
    acc = Accumulator(table)
    acc.add(
        laurent.z_to_x_skew(_z_vandermonde(table), table),
        (-1) ** m,
        LaurentPoly.monomial(table, [m] * m),
    )
    rhs = acc.value()

    def tvar(i: int, power: int) -> LaurentPoly:
        return LaurentPoly.variable(table, f"t{i}", power)

    rows = [
        [tvar(i, m - j) - tvar(i, m + j) for j in range(1, m + 1)]
        for i in range(1, m + 1)
    ]
    # Looked up on laurent at call time: the benchmark's tracer counts
    # determinants by wrapping laurent.det.
    lhs = laurent.det(rows)
    return poly_comparison("power-det", {"m": m}, lhs, rhs)


# ---------------------------------------------------------------------------
# Battery pieces reused by the suite and by the acceptance tests
# ---------------------------------------------------------------------------


def check_partition_properties(
    invol_max: int = 12, count_max: int = 6, subset_max: int = 4
) -> list[VerificationReport]:
    from math import comb

    lams = partitions_upto(invol_max)

    def failures():
        for lam in lams:
            if partitions.conjugate(partitions.conjugate(lam)) != lam:
                yield "partitions.conjugate-involution", list(lam)
        for lam in lams:
            if in_class(lam, PartitionClass.EVEN_ROWS) != in_class(
                partitions.conjugate(lam), PartitionClass.EVEN_COLUMNS
            ):
                yield "partitions.class-conjugate", list(lam)
        for m in range(1, count_max + 1):
            for a in range(1, count_max + 1):
                if len(partitions.box_partitions(m, a)) != comb(m + a, a):
                    yield "partitions.box-count", {"m": m, "a": a}
        for m in range(1, subset_max + 1):
            for a in range(1, subset_max + 1):
                box = set(partitions.box_partitions(m, a))
                for tag in (RectSubset.COLPAIRED, RectSubset.EVENROW, RectSubset.BOX):
                    where = {"m": m, "a": a, "tag": tag.value}
                    members = partitions.enumerate_rect_subset(tag, m, a)
                    for lam in members:
                        if lam not in box or not partitions.in_rect_subset(tag, m, a, lam):
                            yield "partitions.rect-subsets", where
                    for lam in box:
                        if (lam in members) != partitions.in_rect_subset(tag, m, a, lam):
                            yield "partitions.rect-subsets", where

    return _first_failures(
        [
            ("partitions.conjugate-involution", {"max_size": invol_max}),
            ("partitions.class-conjugate", {"max_size": invol_max}),
            ("partitions.box-count", {"max": count_max}),
            ("partitions.rect-subsets", {"max": subset_max}),
        ],
        failures(),
    )


def _random_alphabet(rng: random.Random, table: VarTable, count: int) -> Alphabet:
    elems = []
    for _ in range(count):
        exps = tuple(rng.randint(-2, 2) for _ in range(len(table)))
        sign = rng.choice((1, -1))
        elems.append((sign, exps))
    return Alphabet(table, tuple(elems))


# An identity proved over free h under a series map (folding's theorems)
# holds at each alphabet pair whose h_list series is guarded as the map's
# image of the other pair's.  The maps are equality, h_k -> (-1)^k h_k, and
# the reciprocal 1/H.


def _signed(hs: list[LaurentPoly]) -> list[LaurentPoly]:
    """The series h_k -> (-1)^k h_k."""
    return [-h if k % 2 else h for k, h in enumerate(hs)]


def _reciprocal(hs: list[LaurentPoly]) -> list[LaurentPoly]:
    """The coefficients of 1/H(t) to the degree of hs, with H(t) = sum_k hs[k] t^k and hs[0] = 1.

    One schur.graded_parts division by 1 - sum_k (-h_k) t^k; at degree 0
    there is no factor.
    """
    D = len(hs) - 1
    factors = [(tuple((k, -hs[k]) for k in range(1, D + 1)), True)] if D else []
    return schur.graded_parts(hs[0], factors, D)


def _degrees(shapes) -> list[int]:
    """The h_list degrees a per-shape loop reads: one per nonempty shape (the empty shape is 1)."""
    return sorted({schur._degree([lam]) for lam in shapes if lam})


def _guarded(pair: tuple, other: tuple, degrees: list[int], mapping=list) -> bool:
    """Whether pair's h_list series is mapping(other's), in x, at each of degrees.

    mapping is list for equal series, or _signed or _reciprocal.  Each
    pair's series is its h_list at the largest degree, and must have h_0 = 1
    and hold the list at each other degree as its prefix.  Over one table
    the two are compared there, since in_x is injective and commutes with
    each map; else both go to x.  No degrees means no series is read, and a
    pair guarded against itself under list is read once.
    """
    if not degrees:
        return True
    series = []
    for X, Y in (pair,) if pair == other and mapping is list else (pair, other):
        hs = schur.h_list(X, Y, degrees[-1])
        if hs[0] != 1 or any(schur.h_list(X, Y, d) != hs[: d + 1] for d in degrees):
            return False
        series.append(list(hs))
    a, b = series[0], mapping(series[-1])
    if a[0].table != b[0].table:
        a, b = ([schur.in_x(h, pair[0].table) for h in s] for s in (a, b))
    return a == b


def _stability_draws(max_lambda: int, seed: int, samples: int) -> list[tuple]:
    """The (lam, X, Y, eta) of each sample, drawn from one random.Random(seed)."""
    rng = random.Random(seed)
    table = VarTable(("u1", "u2"))
    lams = partitions_upto(max_lambda)
    draws = []
    for _ in range(samples):
        lam = rng.choice(lams)
        X = _random_alphabet(rng, table, rng.randint(0, 2))
        Y = _random_alphabet(rng, table, rng.randint(0, 2))
        eta = _random_alphabet(rng, table, 1)
        draws.append((lam, X, Y, eta))
    return draws


def _stability_failures(draws):
    """schur.stability's per-shape loop: each bracket at (X|Y) against (X+eta|Y+eta)."""
    for lam, X, Y, eta in draws:
        X2, Y2 = X | eta, Y | eta
        for tag in BracketType:
            if schur.bracket_schur(tag, lam, X, Y) != schur.bracket_schur(tag, lam, X2, Y2):
                yield "schur.stability", {
                    "lam": list(lam),
                    "tag": tag.value,
                    "x": X.describe(),
                    "y": Y.describe(),
                    "eta": eta.describe(),
                }


def check_schur_stability(
    max_lambda: int, seed: int, samples: int = 12
) -> VerificationReport:
    """Brackets are unchanged by adjoining one shared element to X and Y.

    (X+eta|Y+eta) has the series of (X|Y), so each bracket is the same
    determinant of equal series and needs no proof.  Each sample's two pairs
    are guarded once (_guarded, at the degree its shape reads).  When all
    hold the report passes; otherwise it is _stability_failures', for its
    verdict and witness.
    """
    draws = _stability_draws(max_lambda, seed, samples)
    decided = all(
        _guarded((X | eta, Y | eta), (X, Y), _degrees([lam])) for lam, X, Y, eta in draws
    )
    params = {"max_lambda": max_lambda, "seed": seed, "samples": samples}
    failures = () if decided else _stability_failures(draws)
    return _first_failures([("schur.stability", params)], failures)[0]


# The per-shape loops of check_schur_invariants' sub-checks, each a generator
# of (check_id, witness) per failing instance over the shapes lams.


def _hook_vanishing_failures(lams):
    """s_lam(X|Y) at each shape outside the (nx, ny) hook, one bracket_batch per pair.

    A pair with no shape of lams outside its hook takes its corner, the
    least shape outside it: nx + 1 rows of ny + 1 boxes.  (2, 1) does at
    max_lambda 5.
    """
    for nx, ny in ((1, 0), (0, 1), (1, 1), (2, 1)):
        X, Y, _ = cauchy_alphabets(nx, ny, 1)
        outside = [lam for lam in lams if partitions.part(lam, nx + 1) > ny]
        outside = outside or [(ny + 1,) * (nx + 1)]
        for lam, value in zip(outside, schur.bracket_batch(BracketType.PLAIN, outside, X, Y)):
            if not value.is_zero:
                yield "schur.hook-vanishing", {"lam": list(lam), "nx": nx, "ny": ny}


def _invariant_table() -> dict[str, tuple]:
    """check_id -> (series map, comparisons, pairs) of each determinant identity proved free.

    A comparison (fields, scale, left, conj, signed, right) asserts at each
    nonempty lam (every rule gives 1 at the empty shape) that scale *
    left(lam' if conj else lam) = (-1)^(|lam| signed) * right(lam), left and
    right naming entry rules as a folding theorem's sides do.  A pair
    (fields, (X, Y), (X', Y')) takes left over (X|Y) and right over (X'|Y'),
    and the series of (X|Y) is the map of that of (X'|Y').  A witness is
    lam, then the comparison's fields, then the pair's.
    """
    formal = []
    for nx in (1, 2, 3):
        table = VarTable(tuple(f"x{i}" for i in range(1, nx + 1)))
        X, none = Alphabet.formal(table), Alphabet.empty(table)
        formal.append(({"nx": nx}, (X.negated(), none), (X, none)))
    dual = []
    for nx, ny in ((1, 1), (2, 1), (2, 2)):
        X, Y, _ = cauchy_alphabets(nx, ny, 1)
        dual.append(({"nx": nx, "ny": ny}, (X, Y), (Y, X)))
    pal_table = VarTable(("x1", "x2"))
    pal = schur.palindromic(pal_table, ("x1", "x2")) | Alphabet.constants(pal_table, (1,))
    altform = [cauchy_alphabets(2, 1, 1)[:2], cauchy_alphabets(1, 2, 1)[:2]]
    altform.append((pal, Alphabet.empty(pal_table)))
    return {
        "schur.homogeneity": (_signed, [({}, 1, "plain", False, True, "plain")], formal),
        "schur.dual-plain": (_reciprocal, [({}, 1, "plain", True, True, "plain")], dual),
        "schur.dual-bracket": (_reciprocal, [({}, 1, "angle", True, True, "square")], dual),
        "schur.altform": (
            list,
            [
                ({"tag": "square"}, 1, "square", False, False, "altform_square"),
                # Twice ANGLE is the paired determinant, so no side is divided.
                ({"tag": "angle"}, 2, "angle", False, False, "paired_angle"),
            ],
            [({"x": X.describe()}, (X, Y), (X, Y)) for X, Y in altform],
        ),
    }


def _comparison_theorem(mapping, comparison: tuple, lam: Partition) -> tuple:
    """The comparison at lam as a folding theorem: its left side over the mapped series."""
    _, scale, left, conj, signed, right = comparison
    return (
        ((), (), mapping, left, [(conjugate(lam) if conj else lam, scale)]),
        ((), (), list, right, [(lam, (-1) ** (signed * size(lam)))]),
    )


def _table_failures(check_id: str, lams):
    """A table row's per-shape loop: each comparison's theorem at each pair, one shape at a time.

    The left side is taken by folding.pair_sides at the pair's left
    alphabets and the right at its right ones, each from the h_list at the
    shape's degree (which _guarded covers), and the two compared in x.
    """
    mapping, comparisons, pairs = _invariant_table()[check_id]
    for fields, left, right in pairs:
        for lam in lams:
            for comparison in comparisons if lam else ():
                theorem = _comparison_theorem(mapping, comparison, lam)
                lhs, rhs = (
                    schur.in_x(folding.pair_sides([side], *pair)[0], pair[0].table)
                    for side, pair in zip(theorem, (left, right))
                )
                if lhs != rhs:
                    yield check_id, {"lam": list(lam), **comparison[0], **fields}


def _bialternant_failures(lams):
    """s_lam(t_1..t_n) by Jacobi-Trudi against the ratio of alternants, multiplied out.

    s_lam a_delta = a_{lam+delta} (Macdonald, Symmetric Functions, I.3), with
    a_delta = prod_{i<j} (t_i - t_j) formed once per n as a product, each
    s_lam from one schur.bracket_batch per n, and each a_{lam+delta} by
    schur._alternant; nothing is divided.
    """
    for n in (1, 2, 3, 4):
        table = schur.t_table(n)
        t = [LaurentPoly.variable(table, name) for name in table.names]
        vandermonde = LaurentPoly.const(table, 1)
        for ti, tj in combinations(t, 2):
            vandermonde = vandermonde * (ti - tj)
        shapes = [lam for lam in lams if len(lam) <= n]
        chars = schur.bracket_batch(
            BracketType.PLAIN, shapes, Alphabet.formal(table), Alphabet.empty(table)
        )
        monomials: dict = {}
        for lam, char in zip(shapes, chars):
            if char * vandermonde != schur._alternant(table, lam, monomials):
                yield "schur.bialternant-agreement", {"lam": list(lam), "n": n}


# Each sub-check of check_schur_invariants and its per-shape loop, in report order.
_INVARIANT_LOOPS = {
    "schur.hook-vanishing": _hook_vanishing_failures,
    "schur.homogeneity": partial(_table_failures, "schur.homogeneity"),
    "schur.dual-plain": partial(_table_failures, "schur.dual-plain"),
    "schur.dual-bracket": partial(_table_failures, "schur.dual-bracket"),
    "schur.altform": partial(_table_failures, "schur.altform"),
    "schur.bialternant-agreement": _bialternant_failures,
}


def _invariant_decided(table: dict, lams) -> set[str]:
    """The check_ids of the table's rows proved over free h and guarded at each pair.

    Proved: each comparison's theorem at each nonempty lam of lams, every
    row's in one folding.proved_free_all batch.  Guarded: _guarded holds at
    each pair of a proved row; each (map, pairs) is guarded once.
    """
    degrees = _degrees(lams)
    keyed = [
        (check_id, _comparison_theorem(mapping, comparison, lam))
        for check_id, (mapping, comparisons, _) in table.items()
        for comparison in comparisons
        for lam in lams
        if lam
    ]
    proved = folding.proved_free_all(theorem for _, theorem in keyed)
    unproved = {check_id for (check_id, _), holds in zip(keyed, proved) if not holds}

    @cache
    def guarded(mapping, pairs) -> bool:
        return all(_guarded(left, right, degrees, mapping) for left, right in pairs)

    return {
        check_id
        for check_id, (mapping, _, pairs) in table.items()
        if check_id not in unproved
        and guarded(mapping, tuple((left, right) for _, left, right in pairs))
    }


def check_schur_invariants(max_lambda: int) -> list[VerificationReport]:
    """Hook vanishing, homogeneity, the two dualities, alternate forms, oracle.

    Homogeneity, the two dualities and the alternate forms are the rows of
    _invariant_table, each two determinants whose series are related by a
    fixed map.  A row proved over free h and guarded at each of its
    alphabet pairs (_invariant_decided) passes; every other runs its
    per-shape loop (_INVARIANT_LOOPS), the same comparisons at each pair,
    for its verdict and witness.  Hook vanishing and bialternant agreement
    are facts about particular alphabets, and always run their loops.
    """
    lams = partitions_upto(max_lambda)
    decided = _invariant_decided(_invariant_table(), lams)
    params = {"max_lambda": max_lambda}
    return _first_failures(
        [(check_id, params) for check_id in _INVARIANT_LOOPS],
        chain.from_iterable(
            loop(lams) for check_id, loop in _INVARIANT_LOOPS.items() if check_id not in decided
        ),
    )


# ---------------------------------------------------------------------------
# Products in the Schur basis of the ring of symmetric functions
# ---------------------------------------------------------------------------
#
# An element of the ring is a dict shape -> coefficient over the Schur basis.
# Multiplying s_mu by h_k is Pieri's rule (Macdonald, Symmetric Functions,
# I.5.16): the sum of s_lam over the lam with lam/mu a horizontal strip of k
# boxes.  A Jacobi-Trudi determinant in the h_k (I.3.4) then acts on an
# element entry by entry, so no polynomial in any variables is formed.


def _horizontal_strips(mu: Partition, k: int) -> list[Partition]:
    """The shapes lam with lam/mu a horizontal strip of k boxes: mu_i <= lam_i <= mu_{i-1}.

    Row by row, each row of mu grows by at most the room below the row above
    it; a new last row takes the boxes left, at most mu's last part.
    """
    grown = [((), k)]
    for i, part in enumerate(mu):
        room = mu[i - 1] - part if i else k
        grown = [
            ((*lam, part + add), left - add)
            for lam, left in grown
            for add in range(min(left, room) + 1)
        ]
    last = mu[-1] if mu else k
    return [(*lam, left) if left else lam for lam, left in grown if left <= last]


def _pieri_det(start: dict[Partition, int], rows, strips: dict) -> dict[Partition, int]:
    """start times det(rows), in the Schur basis; start itself for a 0 x 0 matrix.

    Each entry of the square matrix is a tuple of (c, k) standing for
    sum c h_k, with h_0 = 1 and h_k = 0 for k < 0.  The determinant is
    expanded by cofactors row by row: each partial product is keyed by the
    bitmask of the columns its rows took, and taking column j after the
    columns of mask costs the sign (-1)^(columns of mask right of j).  Each
    product with h_k reads each shape's _horizontal_strips from strips, a
    dict (mu, k) -> shapes filled here, which a caller may share across
    products.
    """
    layer = {0: start}
    for row in rows:
        following: dict[int, dict[Partition, int]] = {}
        for mask, value in layer.items():
            for j, entry in enumerate(row):
                if mask >> j & 1:
                    continue
                sign = -1 if bin(mask >> j).count("1") % 2 else 1
                out = following.setdefault(mask | 1 << j, {})
                for c, k in entry:
                    if k < 0:
                        continue
                    for mu, a in value.items():
                        grown = strips.get((mu, k))
                        if grown is None:
                            grown = strips[mu, k] = _horizontal_strips(mu, k)
                        for lam in grown:
                            out[lam] = out.get(lam, 0) + sign * c * a
        layer = {mask: {lam: c for lam, c in v.items() if c} for mask, v in following.items()}
    return layer.get((1 << len(rows)) - 1, {})


def _schur_product(mu: Partition, nu: Partition, strips: dict) -> dict[Partition, int]:
    """s_mu s_nu in the Schur basis: det(h_{nu_i - i + j}) applied to s_mu (see _pieri_det)."""
    n = len(nu)
    rows = [[((1, nu[i] - i + j),) for j in range(n)] for i in range(n)]
    return _pieri_det({mu: 1}, rows, strips)


def check_lr_oracle(max_size: int) -> VerificationReport:
    """Tableau counts against products formed in the Schur basis by Pieri's rule.

    For each mu, nu with |mu| + |nu| <= max_size, s_mu s_nu is formed by
    _schur_product, which shares no code with lr's lattice-word count:
    by Jacobi-Trudi s_nu = det(h_{nu_i - i + j}), and by Pieri's rule each
    h_k s_lam is the sum of s_lam' over the horizontal strips lam'/lam of k
    boxes, so its coefficients are the c^lam_{mu,nu} of the ring, the same
    as in any n >= |lam| variables.  Each is compared with both orders of
    (mu, nu) in lam's lr_table; the witness of a mismatch is (lam, mu, nu)
    and the expected coefficient.
    """

    def failures():
        by_size = [list(partitions_of(k)) for k in range(max_size + 1)]
        strips: dict = {}  # the call's (mu, k) -> horizontal strips, shared by every product
        for n in range(max_size + 1):
            tables = [(lam, lr.lr_table(lam)) for lam in by_size[n]]
            for k in range(n + 1):
                for mu in by_size[k]:
                    for nu in by_size[n - k]:
                        if (size(mu), mu) > (size(nu), nu):
                            continue  # product is symmetric; check both orders below
                        expansion = _schur_product(mu, nu, strips)
                        for lam, coeffs in tables:
                            want = expansion.get(lam, 0)
                            if coeffs.get((mu, nu), 0) != want or coeffs.get((nu, mu), 0) != want:
                                yield "lr.oracle", {
                                    "lam": list(lam),
                                    "mu": list(mu),
                                    "nu": list(nu),
                                    "expected": want,
                                }

    return _first_failures([("lr.oracle", {"max_size": max_size})], failures())[0]


def check_lr_properties(max_size: int, stack_max: int = 4) -> list[VerificationReport]:
    """LR symmetries, stacking and vanishing, each coefficient read from its shape's lr_table."""

    def failures():
        by_size = [list(partitions_of(k)) for k in range(max(max_size, stack_max) + 1)]
        conj = {lam: conjugate(lam) for shapes in by_size for lam in shapes}
        for n in range(max_size + 1):
            for lam in by_size[n]:
                coeffs = lr.lr_table(lam)
                coeffs_c = lr.lr_table(conj[lam])
                for k in range(n + 1):
                    for mu in by_size[k]:
                        for nu in by_size[n - k]:
                            c = coeffs.get((mu, nu), 0)
                            if c != coeffs.get((nu, mu), 0):
                                yield "lr.symmetry", {
                                    "lam": list(lam),
                                    "mu": list(mu),
                                    "nu": list(nu),
                                }
                            if c != coeffs_c.get((conj[mu], conj[nu]), 0):
                                yield "lr.transpose", {
                                    "lam": list(lam),
                                    "mu": list(mu),
                                    "nu": list(nu),
                                }

        for k in range(stack_max + 1):
            for mu in by_size[k]:
                for j in range(stack_max + 1):
                    for nu in by_size[j]:
                        if lr.lr_table(partitions.add(mu, nu)).get((mu, nu), 0) != 1:
                            yield "lr.stacking", {"mu": list(mu), "nu": list(nu)}

        for n in range(min(max_size, 5) + 1):
            for lam in by_size[n]:
                coeffs = lr.lr_table(lam)
                for k in range(n):
                    for mu in by_size[k]:
                        for nu in by_size[n - k - 1]:  # |mu| + |nu| = n - 1
                            if coeffs.get((mu, nu), 0) != 0:
                                yield "lr.size-vanishing", {
                                    "lam": list(lam),
                                    "mu": list(mu),
                                    "nu": list(nu),
                                }

        for n in range(min(max_size, 6) + 1):
            for lam in by_size[n]:
                coeffs = lr.lr_table(lam)
                for nu in by_size[n]:
                    want = 1 if lam == nu else 0
                    if coeffs.get(((), nu), 0) != want or coeffs.get((nu, ()), 0) != want:
                        yield "lr.empty-delta", {"lam": list(lam), "nu": list(nu)}

    return _first_failures(
        [
            ("lr.symmetry", {"max_size": max_size}),
            ("lr.transpose", {"max_size": max_size}),
            ("lr.stacking", {"max_size": stack_max}),
            ("lr.size-vanishing", {"max_size": min(max_size, 5)}),
            ("lr.empty-delta", {"max_size": min(max_size, 6)}),
        ],
        failures(),
    )


def check_lr_rectangle(max_rect: int) -> list[VerificationReport]:
    """The rectangle closed forms against the box's lr_table.

    The closed form is {(mu, comp mu): 1} (lr._rect_complement), so a pair
    of box shapes can disagree with the table only at a complement pair or
    at one of the table's entries; those are compared, and the mismatches
    yielded in box order of mu, then of nu.  The class sums of every mu come
    from one lr._rect_sums pass over the table, and each class's members
    from one enumerate_rect_subset of the box.
    """

    def failures():
        for m in range(1, max_rect + 1):
            for a in range(1, max_rect + 1):
                box = partitions.box_partitions(m, a)
                coeffs = lr.lr_table((m,) * a)
                index = {mu: i for i, mu in enumerate(box)}
                # each shape's index and its complement's, None outside the box
                complement = [index.get(lr._rect_complement(m, a, mu)) for mu in box]
                pairs = {(index[mu], index[nu]) for mu, nu in coeffs if mu in index and nu in index}
                pairs.update((i, j) for i, j in enumerate(complement) if j is not None)
                for i, j in sorted(pairs):
                    mu, nu = box[i], box[j]
                    if int(complement[i] == j) != coeffs.get((mu, nu), 0):
                        yield "lr.rectangle", {"m": m, "a": a, "mu": list(mu), "nu": list(nu)}
                sums = lr._rect_sums(m, a)
                members = {
                    variant: set(partitions.enumerate_rect_subset(subset, m, a))
                    for variant, subset in lr._VARIANT_SUBSET.items()
                }
                for mu in box:
                    for variant in PartitionClass:
                        if sums.get((mu, variant), 0) != int(mu in members[variant]):
                            yield "lr.rect-sum", {
                                "m": m,
                                "a": a,
                                "mu": list(mu),
                                "variant": variant.value,
                            }

    return _first_failures(
        [("lr.rectangle", {"max": max_rect}), ("lr.rect-sum", {"max": max_rect})],
        failures(),
    )


def check_dc_sweep(
    max_lambda: int, max_x: int, max_y: int
) -> list[VerificationReport]:
    """All eight relations over all formal alphabet sizes and small shapes.

    The (relation, xi, lam) theorems are tried over free h_1..h_D as one
    batch (folding.proved_free_all), so each determinant is taken once; one
    that is not proved there is checked by folding.pair_report at each
    alphabet pair, for its verdict and witness: the theorem the free proof
    compared, not the dual general_dc_check takes (folding._theorem_report)
    for a tall lam, or for a square lam when X has more variables than Y.
    """
    lams = partitions_upto(max_lambda)
    xis = {r: (1, -1) if r in folding.XI_RELATIONS else (1,) for r in folding.DC_RELATIONS}
    keys = [(r, xi, lam) for r in folding.DC_RELATIONS for xi in xis[r] for lam in lams]
    theorems = {(r, xi, lam): folding.dc_theorem(r, lam, xi) for r, xi, lam in keys}
    proved = dict(zip(keys, folding.proved_free_all(theorems.values())))

    def failures(relation, X, Y, xi):
        for lam in lams:
            if proved[relation, xi, lam]:
                continue
            rep = folding.pair_report(f"dc.{relation}", {}, theorems[relation, xi, lam], X, Y)
            if not rep.passed:
                yield f"dc.{relation}", {"lam": list(lam), "diff": str(rep.witness)}

    out = []
    for relation in folding.DC_RELATIONS:
        for nx in range(max_x + 1):
            for ny in range(max_y + 1):
                X, Y, _ = cauchy_alphabets(nx, ny, 1)
                for xi in xis[relation]:
                    params = {
                        "relation": relation,
                        "nx": nx,
                        "ny": ny,
                        "xi": xi,
                        "max_lambda": max_lambda,
                    }
                    out += _first_failures(
                        [(f"dc.{relation}", params)], failures(relation, X, Y, xi)
                    )
    return out


def check_cauchy_sweep(
    max_x: int, max_y: int, t_count: int, degmax: int
) -> list[VerificationReport]:
    """Every Cauchy kind at nx <= max_x, ny <= max_y and 1 <= nT <= t_count.

    The reports come in the order kind, nx, ny, nT, each the bytes
    cauchy_check gives.  A report reads its kind's _CAUCHY_ROWS row: the
    identity of each (bracket, t-pair rule, nT) is tried once over free
    h_1..h_degmax (_cauchy_free_proof), from one _cauchy_t_side per nT, and
    the series of the pair the row reads, (nx, ny), or (ny, nx) for a dual
    row, is guarded once (_series_guard).  A report whose identity is proved
    and whose pair is guarded passes, as poly_comparison passes it; any
    other is cauchy_check's report, for its verdict and witness.  Both sides
    come from _cauchy_sides on both paths.

    Why the two imply the report: sending each free h_k to h_k(X|Y) is a
    ring map that fixes the t's (Macdonald, Symmetric Functions, I.2), so a
    proved identity holds with the brackets taken in the h_k(X|Y) and the
    product prod_i H(t_i) = prod_i prod_y (1 - y t_i) / prod_x (1 - x t_i),
    which is cauchy_check's alphabet product; t -> -t fixes the h_k, so it
    holds for a dual row too.  cauchy_check takes its brackets from
    h_list's series of the pair it reads, built by the same determinants,
    and its s_lam(t) from the same _cauchy_t_side; the guard shows that
    series is the h_k of the pair.  X and Y hold no t, so widening the table
    by t1..tnT changes no value; nor does naming a dual row's Y by x's and
    its X by y's.
    """
    if t_count < 1:
        return []
    t_sides = {nT: _cauchy_t_side(nT, degmax) for nT in range(1, t_count + 1)}

    @cache
    def proved(bracket, rule, nT) -> bool:
        return _cauchy_free_proof(bracket, rule, nT, degmax, t_sides[nT])

    pairs = [(nx, ny) for nx in range(max_x + 1) for ny in range(max_y + 1)]
    guarded = cache(partial(_series_guard, degmax=degmax))  # each pair read, once
    out = []
    for kind, (bracket, rule, dual) in _CAUCHY_ROWS.items():
        for nx, ny in pairs:
            for nT in t_sides:
                X, Y, _ = cauchy_alphabets(nx, ny, nT)
                if proved(bracket, rule, nT) and guarded(*((ny, nx) if dual else (nx, ny))):
                    params = _cauchy_params(kind, X, Y, nT, degmax)
                    out.append(VerificationReport(f"cauchy.{kind}", params, True))
                else:
                    out.append(cauchy_check(kind, X, Y, nT, degmax))
    return out


def fold_cases(max_rank: int) -> list[folding.FoldingCase]:
    return [
        folding.FoldingCase(tag, r, s)
        for tag in folding.FoldingTag
        for r in range(folding.least_r(tag), max_rank + 1)
        for s in range(max_rank + 1 - r)
        if r + s >= 1
    ]


def check_fold_sweep(max_rank: int, max_am: int = 3) -> list[VerificationReport]:
    """Every case, branch and in-hook a, m <= max_am rectangle at r + s <= max_rank.

    The distinct (tag, branch, a, m) theorems are tried over free
    h_1..h_D as one batch (folding.proved_free_all), so each determinant is
    taken once, and each passes at every (r, s) when proved there; one
    that is not is checked by folding.pair_report at each (r, s), for its
    verdict and witness: verify_decomposition's report, on the theorem the
    free proof compared rather than the dual it takes (folding._theorem_report)
    for a tall rectangle, or for a square one when X has more variables than Y.
    """
    requests = [
        (case, branch, a, m)
        for case in fold_cases(max_rank)
        for branch in folding.branches(case)
        for a in range(1, max_am + 1)
        for m in range(1, max_am + 1)
        if in_hook((m,) * a, *folding.ambient_hook(case))
    ]
    # (tag, branch, a, m) -> the first request of that theorem, which does not depend on r or s.
    firsts = {}
    for case, branch, a, m in requests:
        firsts.setdefault((case.tag, branch, a, m), (case, branch, a, m))
    theorems = {key: folding.fold_theorem(*request) for key, request in firsts.items()}
    proved = dict(zip(firsts, folding.proved_free_all(theorems.values())))
    return [
        VerificationReport(*folding.fold_report_id(case, branch, a, m), True)
        if proved[case.tag, branch, a, m]
        else folding.pair_report(
            *folding.fold_report_id(case, branch, a, m),
            theorems[case.tag, branch, a, m],
            *folding._palindromic_pair(case),
        )
        for case, branch, a, m in requests
    ]


def check_fold_hook_sanity(max_rank: int, max_am: int = 4) -> VerificationReport:
    """Folded rectangle characters vanish outside the alphabet's hook.

    Only this direction holds: alphabets containing the pair {1, -1} also
    vanish at some in-hook rectangles (e.g. the symplectic-type folding at
    rank one kills the 2 x 3 rectangle), so in-hook nonvanishing is not
    asserted, and a character is built only for rectangles outside the
    alphabet's hook.  Rejection by folding.require_in_hook, the test that
    kr_supercharacter applies, is cross-checked against in_hook.
    """

    def failures():
        for case in fold_cases(max_rank):
            X, Y = folding.fold_alphabets(case)
            M, N = len(X), len(Y)
            M_api, N_api = folding.ambient_hook(case)
            rects = {(a, m): (m,) * a for a in range(1, max_am + 1) for m in range(1, max_am + 1)}
            outside = [rect for rect in rects.values() if not in_hook(rect, M, N)]
            chars = dict(zip(outside, schur.bracket_batch(BracketType.PLAIN, outside, X, Y)))
            for (a, m), rect in rects.items():
                where = {"case": case.tag.value, "r": case.r, "s": case.s, "a": a, "m": m}
                if rect in chars and not chars[rect].is_zero:
                    yield "fold.hook-sanity", where
                rejected = False
                try:
                    folding.require_in_hook(case, a, m)
                except ValueError:
                    rejected = True
                if rejected != (not in_hook(rect, M_api, N_api)):
                    yield "fold.hook-sanity", {**where, "rejection": rejected}

    params = {"max_rank": max_rank, "max_am": max_am}
    return _first_failures([("fold.hook-sanity", params)], failures())[0]


_DIMENSION_SPOTS = {
    folding.FoldingTag.B1: lambda r: 2 * r + 1,
    folding.FoldingTag.A2_EVEN: lambda r: 2 * r - 1,
    folding.FoldingTag.A2_ODD: lambda r: 2 * r + 1,
    folding.FoldingTag.A2_EE: lambda r: 2 * r,
    folding.FoldingTag.D1: lambda r: 2 * r,
    folding.FoldingTag.SPO: lambda r: 2 * r,
    folding.FoldingTag.D2: lambda r: 2 * r,
}


def check_fold_dimensions(max_r: int) -> list[VerificationReport]:
    """All-ones evaluation of each vector-level folded character at s = 0."""
    out = []
    for tag, expect in _DIMENSION_SPOTS.items():
        for r in range(1, max_r + 1):
            case = folding.FoldingCase(tag, r, 0)
            value = folding.kr_supercharacter(case, 1, 1).eval_all_ones()
            out.append(
                value_comparison(
                    "fold.dimension",
                    {"case": tag.value, "r": r},
                    expect(r),
                    value,
                )
            )
    return out


def _double_form_pairs(r: int) -> tuple[tuple, tuple]:
    """The two (X|Y) of the twisted even-orthogonal character at rank r."""
    names = tuple(f"x{i}" for i in range(1, r + 1))
    table = VarTable(names)
    pal = schur.palindromic(table, names)
    first = (pal | Alphabet.constants(table, (1, 1)), Alphabet.constants(table, (1, -1)))
    second = (pal | Alphabet.constants(table, (1,)), Alphabet.constants(table, (-1,)))
    return first, second


def _double_form_reports(r: int, max_am: int):
    """fold.double-form's per-shape loop at rank r: one poly_comparison per rectangle."""
    first, second = _double_form_pairs(r)
    for a in range(1, max_am + 1):
        for m in range(1, max_am + 1):
            rect = (m,) * a
            yield poly_comparison(
                "fold.double-form",
                {"r": r, "a": a, "m": m},
                schur.super_schur(rect, *first),
                schur.super_schur(rect, *second),
            )


def check_fold_double_form(max_r: int, max_am: int = 3) -> list[VerificationReport]:
    """Two ways to write the twisted even-orthogonal character agree.

    Both pairs have the same series: (1 - t)(1 + t) / (1 - t)^2 = (1 + t) / (1 - t)
    times the pairs' factors, and each rectangle is the same determinant of
    that series, so there is nothing to prove.  Each rank's two h_list
    series are guarded once (_guarded, at every degree a rectangle reads):
    a rank whose series agree passes at every rectangle; any other rank's
    reports are _double_form_reports', for their verdicts and witnesses.
    """
    rects = [(a, m) for a in range(1, max_am + 1) for m in range(1, max_am + 1)]
    degrees = _degrees([(m,) * a for a, m in rects])
    out = []
    for r in range(1, max_r + 1):
        if _guarded(*_double_form_pairs(r), degrees):
            params = [{"r": r, "a": a, "m": m} for a, m in rects]
            out += [VerificationReport("fold.double-form", where, True) for where in params]
        else:
            out += _double_form_reports(r, max_am)
    return out


# ---------------------------------------------------------------------------
# Suite orchestration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    degmax: int = 6
    max_lambda_size: int = 5
    max_rank: int = 3
    t_count: int = 3
    seed: int = 0

    def __post_init__(self):
        require_counts(**asdict(self))

    @classmethod
    def from_json_dict(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        allowed = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown config fields {sorted(unknown)}")
        return cls(**data)


def run_suite(config: SuiteConfig) -> list[VerificationReport]:
    """Run the whole battery and return deterministically sorted reports."""
    lam_max, rank, t_count, degmax = (
        config.max_lambda_size, config.max_rank, config.t_count, config.degmax
    )
    reports = [
        *check_partition_properties(),
        check_schur_stability(lam_max, config.seed),
        *check_schur_invariants(lam_max),
        check_lr_oracle(lam_max + 1),  # 6 at the default config
        *check_lr_properties(lam_max + 3),  # 8 at the default config
        *check_lr_rectangle(min(lam_max, 4)),  # 4 at the default config
        *check_dc_sweep(lam_max, 3, 2),
        *check_fold_sweep(rank),
        check_fold_hook_sanity(rank),
        *check_fold_dimensions(rank),
        *check_fold_double_form(rank),
        *check_cauchy_sweep(2, 2, t_count, degmax),
        *(
            littlewood_sum_check(kind, nT, degmax)
            for kind in SUM_KINDS
            for nT in range(1, t_count + 1)
        ),
        # m <= 5 at the default config
        *(power_det_check(m) for m in range(1, max(1, min(degmax, 5)) + 1)),
    ]
    reports.sort(key=VerificationReport.sort_key)
    return reports


def suite_to_json(reports: list[VerificationReport]) -> str:
    return "\n".join(report.to_json() for report in reports) + "\n"
