"""The request path's rewritten helpers against copies of the code they replaced.

Each ``ref_`` function below is the earlier implementation, kept here as
the oracle: ``partitions.conjugate`` (one generator sum per column),
``schur._inverse_pairs`` and ``_route`` (two sorted lists),
``schur.palindromic``, the factors as whole tuples, ``_variable_series`` and
``_h_list_cached`` without the degree bound or the constant-free shortcut,
``schur._table_dets`` with its entry closure, ``laurent.e_to_z`` with one
pass per e variable, and ``_z_passes``/``_unfold`` reading each field
through the bias, and ``folding._dc_coeffs`` summing every weight over
``lr.lr_table``.  Every comparison is exact: values, bounds and element
tuples.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest

from superchar import clear_caches, folding, lr, schur
from superchar.laurent import (
    FIELD_BITS,
    Accumulator,
    LaurentPoly,
    VarTable,
    _fold_row,
    _nonzero,
    _trusted,
    det,
    e_to_z,
    z_to_x,
    z_to_x_skew,
)
from superchar.partitions import (
    EMPTY,
    PartitionClass,
    _class_inside,
    conjugate,
    in_class,
    partitions_inside,
    partitions_upto,
    size,
)
from superchar.schur import Alphabet, graded_parts

# ---------------------------------------------------------------------------
# The reference copies
# ---------------------------------------------------------------------------


def ref_conjugate(lam):
    if not lam:
        return EMPTY
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def ref_dc_coeffs(lam, weight):
    coeffs = {}
    for (nu, mu), c in lr.lr_table(lam).items():
        if isinstance(weight, PartitionClass):
            w_nu = int(in_class(nu, weight))
        else:
            w_nu = weight ** size(nu)
        if w_nu:
            coeffs[mu] = coeffs.get(mu, 0) + w_nu * c
    return coeffs


def ref_inverse_pairs(elements):
    pairs, inverses = [], []
    for sign, exps in elements:
        if sum(map(abs, exps)) != 1:
            return None
        (pairs if 1 in exps else inverses).append((sign, exps))
    if len(pairs) != len(inverses):
        return None
    if sorted(pairs) != sorted((s, tuple(-e for e in exps)) for s, exps in inverses):
        return None
    return pairs


def ref_route(x_elems, y_elems):
    x_vars, y_vars = ref_inverse_pairs(x_elems), ref_inverse_pairs(y_elems)
    over_z = x_vars is not None and y_vars is not None and bool(x_vars or y_vars)
    if not over_z:
        x_vars, y_vars = schur._formal(x_elems), schur._formal(y_elems)
        if x_vars is None or y_vars is None or max(len(x_vars), len(y_vars)) < 2:
            return None
    blocks = schur._e_blocks(x_vars, y_vars)
    return None if blocks is None else (over_z, blocks)


def ref_palindromic(table, names):
    units = []
    for name in names:
        exps = [0] * len(table)
        exps[table.index[name]] = 1
        units.append(exps)
    elements = [(1, tuple(exps)) for exps in units]
    elements += [(1, tuple(-e for e in exps)) for exps in units]
    return Alphabet._of_checked(table, tuple(elements))


def ref_e_factor(sign, e):
    r = len(e) - 1
    return tuple(
        (d, -((-sign) ** k) * comb(r - k, (d - k) // 2) * e[k])
        for d in range(1, 2 * r + 1)
        for k in range(d % 2, min(d, r) + 1, 2)
        if (d - k) // 2 <= r - k
    )


def ref_formal_factor(sign, e):
    return tuple((k, -((-sign) ** k) * e[k]) for k in range(1, len(e)))


def ref_variable_series(table, route, x_elems, y_elems, degmax):
    if route is None:
        factors = [
            (((1, LaurentPoly.monomial(table, exps, sign)),), divide)
            for elems, divide in ((x_elems, True), (y_elems, False))
            for sign, exps in elems
        ]
        return graded_parts(LaurentPoly.const(table, 1), factors, degmax)
    over_z, blocks = route
    names = table.names
    etab = schur.e_table(tuple(tuple(names[i] for i in block) for _, block in blocks if block), over_z)
    e = iter(_trusted(etab, {1 << shift: 1}, 1) for shift in etab.shifts)
    factor = ref_e_factor if over_z else ref_formal_factor
    factors = [
        (factor(sign, [1] + [next(e) for _ in block]), divide)
        for (sign, block), divide in zip(blocks, (True, False))
        if block
    ]
    return graded_parts(LaurentPoly.const(etab, 1), factors, degmax)


def ref_h_list(X, Y, degmax):
    """The earlier _h_list_cached body, with no memo: the pair series at degmax, then constants."""
    x_elems, y_elems = (tuple(el for el in A.elements if any(el[1])) for A in (X, Y))
    route = ref_route(x_elems, y_elems)
    series = ref_variable_series(X.table, route, x_elems, y_elems, degmax)
    x_consts, y_consts = (tuple(s for s, exps in A.elements if not any(exps)) for A in (X, Y))
    return tuple(graded_parts(series, schur._const_factors(x_consts, y_consts), degmax))


def ref_table_dets(shapes, hs, entry):
    table = hs[0].table
    rows = {}

    def element(base, j):
        combination = [(c, k) for c, k in entry(base, j) if k >= 0]
        if len(combination) == 1 and combination[0][0] == 1:
            return hs[combination[0][1]]
        acc = Accumulator(table)
        for c, k in combination:
            acc.add(hs[k], c)
        return acc.value()

    out = []
    for lam in shapes:
        if not lam:
            out.append(LaurentPoly.const(table, 1))
            continue
        n = len(lam)
        matrix = []
        for i in range(1, n + 1):
            base = lam[i - 1] - i
            row = rows.setdefault(base, [])
            row += [element(base, j) for j in range(len(row) + 1, n + 1)]
            matrix.append(row[:n])
        out.append(det(matrix))
    return out


def ref_e_to_z(p, table, blocks):
    etab = p.table
    mask = (1 << FIELD_BITS) - 1
    bound = p._bound * max(map(len, blocks), default=0)
    width = FIELD_BITS * len(etab)
    terms = p._terms
    first = 0
    for block in blocks:
        units = [1 << (table.shifts[i] + width) for i in block]
        for k in range(len(block), 0, -1):
            shift = etab.shifts[first + k - 1]
            acc = {}
            get = acc.get
            if k == len(block):
                unit = sum(units)
                for key, coeff in terms.items():
                    a = (key >> shift) & mask
                    key += a * unit - (a << shift)
                    acc[key] = get(key, 0) + coeff
                terms = acc
                continue
            e_k = [sum(combo) for combo in combinations(units, k)]
            powers = [{0: 1}]
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
        first += len(block)
    return _trusted(table, {key >> width: c for key, c in _nonzero(terms).items()}, bound)


def ref_unfold(terms, table, lift):
    half, mask, bias = 1 << (FIELD_BITS - 1), (1 << FIELD_BITS) - 1, table._bias
    sign = -1 if lift else 1
    for shift in table.shifts:
        up = lift << shift
        out = {}
        for key, coeff in terms.items():
            k = (((key + bias) >> shift) & mask) - half
            if k or lift:
                out[key + up] = coeff
                out[key - ((2 * k + lift) << shift)] = sign * coeff
            else:
                out[key] = coeff
        terms = out
    return terms


def ref_z_passes(p, table, lift):
    half, mask, bias = 1 << (FIELD_BITS - 1), (1 << FIELD_BITS) - 1, table._bias
    rows = {}
    terms = p._terms
    for shift in table.shifts:
        two = 2 << shift
        acc = {}
        get = acc.get
        for key, coeff in terms.items():
            a = (((key + bias) >> shift) & mask) - half
            row = rows.get(a)
            if row is None:
                row = rows[a] = _fold_row(a, lift)
            for b in row:
                acc[key] = get(key, 0) + coeff * b
                key -= two
        terms = _nonzero(acc)
    return ref_unfold(terms, table, lift)


def same(got, want):
    """Equal values over one table with one bound."""
    return got.table == want.table and got == want and got._bound == want._bound


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------


def random_alphabet(rng, table):
    """Pairs of either sign, lone inverses, squares, two-variable monomials, repeats, constants.

    One alphabet in four is formal instead: variables at power 1, of one sign, and constants.
    """
    n = len(table)
    if not rng.randrange(4):
        sign = rng.choice((1, -1))
        units = [tuple(int(j == i) for j in range(n)) for i in rng.sample(range(n), rng.randint(0, n))]
        consts = [(rng.choice((1, -1)), (0,) * n) for _ in range(rng.randrange(3))]
        return Alphabet(table, tuple((sign, exps) for exps in units) + tuple(consts))
    elements = []
    for _ in range(rng.randrange(6)):
        kind = rng.randrange(6)
        sign = rng.choice((1, -1))
        exps = [0] * n
        i = rng.randrange(n)
        if kind <= 1:  # a pair, sometimes with the inverse's sign flipped
            exps[i] = 1
            elements.append((sign, tuple(exps)))
            exps[i] = -1
            elements.append((sign if kind == 0 else -sign, tuple(exps)))
        elif kind == 2:  # one variable at power +-1, alone
            exps[i] = rng.choice((1, -1))
            elements.append((sign, tuple(exps)))
        elif kind == 3:  # a square or a two-variable monomial
            exps[i] = 2
            if n > 1 and rng.randrange(2):
                exps[i], exps[(i + 1) % n] = 1, 1
            elements.append((sign, tuple(exps)))
        elif kind == 4 and elements:  # a repeat
            elements.append(rng.choice(elements))
        else:
            elements.append((sign, tuple(exps)))  # a constant
    rng.shuffle(elements)
    return Alphabet(table, tuple(elements))


TABLES = [VarTable(("a",)), VarTable(("a", "b")), VarTable(("a", "b", "c"))]


def random_pairs(count):
    rng = random.Random(20261020)
    return [
        (random_alphabet(rng, table), random_alphabet(rng, table))
        for table in TABLES
        for _ in range(count)
    ]


def random_poly(rng, table, max_exp, signed=False):
    low = -max_exp if signed else 0
    terms = {
        tuple(rng.randint(low, max_exp) for _ in range(len(table))): rng.randint(-4, 4)
        for _ in range(rng.randrange(8))
    }
    return LaurentPoly(table, terms)


# ---------------------------------------------------------------------------
# Partitions and alphabets
# ---------------------------------------------------------------------------


def test_conjugate_matches_its_reference_on_every_partition_up_to_12():
    lams = partitions_upto(12)
    assert len(lams) == 272  # p(0) + p(1) + ... + p(12)
    for lam in lams:
        assert conjugate(lam) == ref_conjugate(lam), lam


def test_class_members_are_the_partitions_inside_filtered_by_class():
    for lam in partitions_upto(12):
        for tag in (PartitionClass.EVEN_ROWS, PartitionClass.EVEN_COLUMNS):
            want = [nu for nu in partitions_inside(lam) if in_class(nu, tag)]
            assert _class_inside(lam, tag) == want, (lam, tag)


def test_dc_coeffs_match_their_lr_table_reference_up_to_size_9():
    # The class weights sum lr._class_table's skew passes, the sign weights
    # lam's lr_table; the reference sums lr_table for all four.
    lams = partitions_upto(9)
    assert len(lams) == 97
    clear_caches()
    for lam in lams:
        for weight in (PartitionClass.EVEN_ROWS, PartitionClass.EVEN_COLUMNS, 1, -1):
            assert dict(folding._dc_coeffs(lam, weight)) == ref_dc_coeffs(lam, weight), (lam, weight)
    clear_caches()


def test_inverse_pairs_and_route_match_their_references_on_random_alphabets():
    routes = set()
    for X, Y in random_pairs(400):
        for A in (X, Y):
            assert schur._inverse_pairs(A.elements) == ref_inverse_pairs(A.elements), A
        x_elems, y_elems = (tuple(el for el in A.elements if any(el[1])) for A in (X, Y))
        route = schur._route(x_elems, y_elems)
        assert route == ref_route(x_elems, y_elems), (X, Y)
        routes.add(None if route is None else route[0])
    assert routes == {None, True, False}  # the sample reaches the x route and both e routes


def test_palindromic_matches_its_reference():
    for table in TABLES:
        for k in range(len(table) + 1):
            for names in combinations(table.names, k):
                got, want = schur.palindromic(table, names), ref_palindromic(table, names)
                assert got.elements == want.elements and hash(got) == hash(want)


def test_with_consts_matches_the_checked_union():
    for table in TABLES:
        base = schur.palindromic(table, table.names[:1])
        for consts in ((), (1,), (-1,), (1, -1), (-1, -1, 1)):
            got = folding._with_consts(base, consts)
            want = base | Alphabet.constants(table, consts) if consts else base
            assert got == want and hash(got) == hash(want)
    for bad in ((0,), (2,), (True,), (1.0,)):
        with pytest.raises(ValueError, match="sign"):
            folding._with_consts(base, bad)


# ---------------------------------------------------------------------------
# The series: factors, the degree bound and the constant-free shortcut
# ---------------------------------------------------------------------------


def test_factors_yield_their_reference_terms_in_ascending_degree():
    etab = VarTable(tuple(f"e{k}" for k in range(1, 5)))
    for r in range(5):
        e = [1] + [LaurentPoly.variable(etab, f"e{k}") for k in range(1, r + 1)]
        for sign in (1, -1):
            for factor, ref in ((schur._e_factor, ref_e_factor), (schur._formal_factor, ref_formal_factor)):
                got = tuple(factor(sign, e))
                assert got == ref(sign, e)
                assert [d for d, _ in got] == sorted(d for d, _ in got)


def test_h_list_matches_its_reference_on_random_alphabets():
    for X, Y in random_pairs(60):
        for degmax in (0, 1, 3, 6):
            clear_caches()
            got = schur.h_list(X, Y, degmax)
            want = ref_h_list(X, Y, degmax)
            assert len(got) == len(want) and all(map(same, got, want)), (X, Y, degmax)
    clear_caches()


def test_h_list_at_a_lower_degree_reads_the_pair_series_prefix():
    # The pair's series is kept at the largest degree asked; a lower degree
    # (and a side with no constants) reads its prefix.
    for case in folding.FoldingCase(folding.FoldingTag.B1, 2, 1), folding.FoldingCase(
        folding.FoldingTag.SPO, 1, 1
    ):
        X, Y = folding._palindromic_pair(case)
        clear_caches()
        high = schur.h_list(X, Y, 6)
        for degmax in range(7):
            low = schur.h_list(X, Y, degmax)
            assert low == high[: degmax + 1]
            assert all(map(same, low, ref_h_list(X, Y, degmax)))
    clear_caches()


def test_table_dets_match_their_reference():
    X, Y = folding.fold_alphabets(folding.FoldingCase(folding.FoldingTag.A2_ODD, 2, 1))
    shapes = [(), (1,), (2, 1), (3, 1, 1), (2, 2), (1, 1, 1), (4,), (3, 3, 2)]
    hs = schur.h_list(X, Y, schur._degree(shapes))
    rules = [schur._entry_rule(rule) for rule in ("plain", "square", "angle", "paired_angle", "altform_square")]
    rules += [lambda base, j: ((-1, base + j),), lambda base, j: ((2, base + j), (1, base - j))]
    for entry in rules:
        for batch in (shapes, shapes[::-1], shapes[3:5]):
            got, want = schur._table_dets(batch, hs, entry), ref_table_dets(batch, hs, entry)
            assert all(map(same, got, want)), (entry, batch)
    clear_caches()


# ---------------------------------------------------------------------------
# e to z and z to x
# ---------------------------------------------------------------------------


def random_blocks(rng, n_table, sizes):
    positions = rng.sample(range(n_table), sum(sizes))
    out, start = [], 0
    for size in sizes:
        out.append(tuple(positions[start : start + size]))
        start += size
    return tuple(out)


@pytest.mark.parametrize(
    "n_table, sizes",
    [
        (1, (1,)),
        (2, (1, 1)),
        (3, (1, 1, 1)),  # one move per term; in table order, the keys themselves
        (3, (1,)),
        (4, (1, 1)),
        (3, (2, 1)),
        (3, (1, 2)),
        (3, (3,)),
        (4, (2, 2)),
        (5, (1, 3)),
    ],
)
def test_e_to_z_matches_its_reference(n_table, sizes):
    rng = random.Random(n_table * 100 + sum(sizes))
    table = VarTable(tuple(f"v{i}" for i in range(n_table)))
    etab = VarTable(tuple(f"e{i}" for i in range(sum(sizes))))
    layouts = {tuple((i,) for i in range(n_table))} if set(sizes) == {1} and len(sizes) == n_table else set()
    for _ in range(40):
        layouts.add(random_blocks(rng, n_table, sizes))
    for blocks in sorted(layouts):
        for _ in range(10):
            p = random_poly(rng, etab, 4)
            assert same(e_to_z(p, table, blocks), ref_e_to_z(p, table, blocks)), (p, blocks)


@pytest.mark.parametrize("lift", [0, 1])
def test_z_passes_match_their_reference(lift):
    rng = random.Random(7 + lift)
    convert = z_to_x_skew if lift else z_to_x
    for table in TABLES:
        ztab = VarTable(tuple(f"z({name})" for name in table.names))
        for _ in range(150):
            p = random_poly(rng, ztab, 6)
            got = convert(p, table)
            assert got._terms == ref_z_passes(p, table, lift), p
    # A negative exponent is refused in its own pass, also below a field that
    # a borrow leaves reading low.
    T = VarTable(("a", "b"))
    Z = VarTable(("z(a)", "z(b)"))
    for exps in ((0, -1), (3, -2), (-1, 0), (-2, 5)):
        with pytest.raises(ValueError, match="negative"):
            convert(LaurentPoly(Z, {exps: 1, (1, 1): 2}), T)
