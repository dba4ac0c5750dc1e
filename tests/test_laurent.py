import gc
import itertools
import json
import math
import operator
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superchar import schur, verify
from superchar.laurent import (
    EXPONENT_LIMIT,
    Accumulator,
    FIELD_BITS,
    ExponentOverflowError,
    InexactDivisionError,
    LaurentPoly,
    VarTable,
    _product_bound,
    _trusted,
    det,
    divide_linear,
    e_to_z,
    widen,
    z_to_x,
    z_to_x_skew,
)

T2 = VarTable(("a", "b"))


def var(name, power=1):
    return LaurentPoly.variable(T2, name, power)


def const(c):
    return LaurentPoly.const(T2, c)


def rand_poly(rng, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = (rng.randint(-2, 2), rng.randint(-2, 2))
        terms[exps] = terms.get(exps, 0) + rng.randint(-5, 5)
    return LaurentPoly(T2, terms)


def test_additive_inverse():
    a = var("a")
    assert (a + (-a)).is_zero
    assert a + (-a) == 0


def test_binomial_square():
    p = var("a") + var("a", -1)
    expected = LaurentPoly(T2, {(2, 0): 1, (0, 0): 2, (-2, 0): 1})
    assert p * p == expected


def test_multiplicative_identity():
    p = var("a", 2) - 3 * var("b") + 7
    assert p * const(1) == p
    assert p * 1 == p


def test_eval_all_ones():
    assert (var("a") + 1 + var("a", -1)).eval_all_ones() == 3
    assert LaurentPoly.zero(T2).eval_all_ones() == 0
    assert (var("a", 2) + 2 + var("a", -2)).eval_all_ones() == 4


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    for _ in range(1000):
        p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_mismatched_tables_rejected():
    other = VarTable(("a",))
    with pytest.raises(ValueError):
        var("a") + LaurentPoly.variable(other, "a")


def test_exact_div():
    p = 2 * var("a") + 4
    assert p.exact_div(2) == var("a") + 2
    with pytest.raises(InexactDivisionError):
        (var("a") + 1).exact_div(2)


@pytest.mark.parametrize("divisor", [2.0, True, 0])
def test_exact_div_takes_only_a_nonzero_int(divisor):
    # A float would leave float coefficients in the polynomial, and True
    # would pass as 1: like a coefficient, a divisor must be an exact int.
    with pytest.raises(ValueError) as err:
        (2 * var("a")).exact_div(divisor)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("n", [1, 2])
def test_det_rejects_an_empty_first_row_before_reading_it(n):
    # The first row's length is checked before rows[0][0] is read.
    with pytest.raises(ValueError, match="matrix is not square"):
        det([[] for _ in range(n)])


def test_divide_linear():
    a, b = var("a"), var("b")
    product = (a - b) * (a + b + 3)
    assert divide_linear(product, "a", "b") == a + b + 3
    with pytest.raises(InexactDivisionError):
        divide_linear(a * a + 1, "a", "b")


def test_det_small():
    a, b = var("a"), var("b")
    rows = [[a, b], [b, a]]
    assert det(rows) == a * a - b * b
    rows3 = [
        [const(1), const(0), const(0)],
        [a, const(1), const(0)],
        [b, a, const(1)],
    ]
    assert det(rows3) == 1


@pytest.mark.parametrize(
    "exp", [["1"], [1.5], [True], [EXPONENT_LIMIT + 1], [-EXPONENT_LIMIT - 1]]
)
def test_public_boundary_rejects_bad_exponents(exp):
    data = {"vars": ["a"], "terms": [{"exp": exp, "coeff": "2"}]}
    with pytest.raises(ValueError) as err:
        LaurentPoly.from_json_dict(data)
    assert "\n" not in str(err.value)
    with pytest.raises(ValueError):
        LaurentPoly(VarTable(("a",)), {tuple(exp): 2})


@pytest.mark.parametrize("coeff", [1.5, 2.0, 0.0, "3", True, False])
def test_public_boundary_rejects_inexact_coefficients(coeff):
    for build in (
        lambda: LaurentPoly(T2, {(1, 0): coeff}),
        lambda: LaurentPoly.monomial(T2, (1, 0), coeff),
        lambda: LaurentPoly.const(T2, coeff),
    ):
        with pytest.raises(ValueError) as err:
            build()
        assert "\n" not in str(err.value)


def test_field_edges_are_exact():
    top = var("b", EXPONENT_LIMIT - 1) * var("b")
    assert top.sorted_terms() == [((0, EXPONENT_LIMIT), 1)]
    lim = EXPONENT_LIMIT
    corners = LaurentPoly(T2, {(lim, -lim): 2, (-lim, lim): 1})
    assert corners.sorted_terms() == [((-lim, lim), 1), ((lim, -lim), 2)]
    assert corners.coeff((lim, -lim)) == 2
    data = {"vars": ["a"], "terms": [{"exp": [EXPONENT_LIMIT], "coeff": "1"}]}
    assert LaurentPoly.from_json_dict(data).to_json_dict() == data


def test_product_past_the_field_raises_instead_of_wrapping():
    with pytest.raises(ExponentOverflowError) as err:
        var("b", EXPONENT_LIMIT) * var("b")
    assert isinstance(err.value, ValueError)
    assert "\n" not in str(err.value)
    half = var("a", EXPONENT_LIMIT // 2 + 1)
    with pytest.raises(ExponentOverflowError):
        half * half


def test_json_round_trip():
    p = 3 * var("a", -2) * var("b") + 5 - var("b", 3)
    data = p.to_json_dict()
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == sorted(exps)
    assert all(isinstance(t["coeff"], str) for t in data["terms"])
    assert LaurentPoly.from_json_dict(json.loads(p.to_json())) == p



@st.composite
def json_polys(draw):
    """Polynomials over 0-3 names that JSON must escape, negative exponents, huge coefficients."""
    names = draw(
        st.lists(
            st.text(st.sampled_from('ab"\\\x00\n/éλ\u2028\U0001f600'), min_size=1, max_size=4),
            max_size=3,
            unique=True,
        )
    )
    table = VarTable(names)
    exps = st.tuples(*[st.integers(-EXPONENT_LIMIT, EXPONENT_LIMIT)] * len(names))
    coeffs = st.integers(-(2**80), 2**80) | st.sampled_from((2**64, -(2**64) - 1, 10**40))
    return LaurentPoly(table, draw(st.dictionaries(exps, coeffs, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(json_polys())
@example(LaurentPoly.zero(T2))
@example(LaurentPoly.zero(VarTable(())))
@example(LaurentPoly.const(VarTable(()), -(2**64)))
@example(LaurentPoly(VarTable(('"', "\\", "é")), {(-1, 0, 2): 2**64 + 1, (0, -3, 0): -1}))
def test_to_json_is_the_json_dumps_of_to_json_dict(p):
    assert p.to_json() == json.dumps(p.to_json_dict(), separators=(",", ":"))
    assert LaurentPoly.from_json_dict(json.loads(p.to_json())) == p



# ---------------------------------------------------------------------------
# Differential test against a dict-of-exponent-tuples reference
# ---------------------------------------------------------------------------


def ref_add(p, q, sign=1):
    acc = dict(p)
    for e, c in q.items():
        acc[e] = acc.get(e, 0) + sign * c
    return {e: c for e, c in acc.items() if c}


def ref_mul(p, q):
    acc = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def ref_det(rows, n_vars):
    """Leibniz expansion, independent of the cofactor recursion in det."""
    total = {}
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = {(0,) * n_vars: -1 if inversions % 2 else 1}
        for i, j in enumerate(perm):
            term = ref_mul(term, rows[i][j])
        total = ref_add(total, term)
    return total


def ref_json(table, ref):
    terms = [{"exp": list(e), "coeff": str(c)} for e, c in sorted(ref.items())]
    return json.dumps({"vars": list(table.names), "terms": terms}, separators=(",", ":"))


def assert_matches(poly, ref):
    assert dict(poly.terms()) == ref
    assert all(type(e) is tuple for e, _ in poly.terms())
    assert poly.sorted_terms() == sorted(ref.items())
    assert poly.to_json() == ref_json(poly.table, ref)


@st.composite
def ref_polys(draw, n_vars, factors, count, max_terms=5):
    """``count`` reference polynomials whose ``factors``-fold products stay in the field."""
    near = EXPONENT_LIMIT // factors
    exponent = st.one_of(
        st.integers(-3, 3), st.integers(near - 2, near), st.integers(-near, -near + 2)
    )
    coeff = st.integers(-6, 6)
    return [
        draw(st.dictionaries(st.tuples(*[exponent] * n_vars), coeff, max_size=max_terms))
        for _ in range(count)
    ]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ring_ops_match_tuple_reference(data):
    n_vars = data.draw(st.integers(1, 4))
    table = VarTable(tuple("abcd"[:n_vars]))
    p_ref, q_ref = data.draw(ref_polys(n_vars, factors=2, count=2))
    p, q = LaurentPoly(table, p_ref), LaurentPoly(table, q_ref)
    p_ref = {e: c for e, c in p_ref.items() if c}
    q_ref = {e: c for e, c in q_ref.items() if c}
    assert_matches(p, p_ref)
    assert_matches(p + q, ref_add(p_ref, q_ref))
    assert_matches(p - q, ref_add(p_ref, q_ref, -1))
    assert_matches(-p, {e: -c for e, c in p_ref.items()})
    assert_matches(p * q, ref_mul(p_ref, q_ref))
    scaled = {e: 3 * c for e, c in p_ref.items()}
    assert_matches(3 * p - 2, ref_add(scaled, {(0,) * n_vars: 2}, -1))

    def keep(e):
        assert type(e) is tuple
        return sum(e) % 2 == 0

    assert_matches(p.map_terms(keep), {e: c for e, c in p_ref.items() if sum(e) % 2 == 0})

    if n_vars >= 2:  # a small pivot exponent keeps the synthetic division short
        q_ref = {e: c for e, c in p_ref.items() if 0 <= e[0] <= 3}
        a, b = (LaurentPoly.variable(table, name) for name in "ab")
        assert_matches(divide_linear(LaurentPoly(table, q_ref) * (a - b), "a", "b"), q_ref)

    d = data.draw(st.integers(2, 4))
    assert_matches((p * d).exact_div(d), p_ref)
    if all(c % d == 0 for c in p_ref.values()):
        assert_matches(p.exact_div(d), {e: c // d for e, c in p_ref.items()})
    else:
        with pytest.raises(InexactDivisionError):
            p.exact_div(d)


def multiply_carry_divide_linear(p, var_i, var_j):
    """divide_linear with each carry a ring product term * var_j: the reference."""
    table = p.table
    shift = table.shifts[table.index[var_i]]
    unit = 1 << shift
    half, mask = 1 << (FIELD_BITS - 1), (1 << FIELD_BITS) - 1
    by_deg = {}
    for key, coeff in p._terms.items():
        k = (((key + table._bias) >> shift) & mask) - half
        if k < 0:
            raise ValueError("negative pivot exponent")
        by_deg.setdefault(k, {})[key - k * unit] = coeff
    if not by_deg:
        return LaurentPoly.zero(table)
    tj = LaurentPoly.variable(table, var_j)
    carry = LaurentPoly.zero(table)
    quot = {}
    for k in range(max(by_deg), 0, -1):
        term = _trusted(table, by_deg.get(k, {}), p._bound) + carry
        for key, coeff in term._terms.items():
            key += (k - 1) * unit
            quot[key] = quot.get(key, 0) + coeff
        carry = term * tj
    if not (_trusted(table, by_deg.get(0, {}), p._bound) + carry).is_zero:
        raise InexactDivisionError("remainder")
    return _trusted(table, {k: c for k, c in quot.items() if c}, p._bound)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_divide_linear_matches_the_multiply_carry_reference(data):
    # Same quotient, same bound, and the same error wherever the reference
    # raises one: exponents near the field limit make the carry's bound
    # check fire, as does a pivot exponent at the limit.
    n_vars = data.draw(st.integers(2, 3))
    table = VarTable(tuple("abc"[:n_vars]))
    limit = EXPONENT_LIMIT
    pivot, other = st.integers(0, 3), st.integers(-3, 3)
    if data.draw(st.booleans()):  # near the field limit
        pivot = st.one_of(pivot, st.integers(limit - 3, limit))
        other = st.one_of(other, st.integers(limit - 4, limit), st.integers(-limit, -limit + 4))
    exps = st.tuples(pivot, *[other] * (n_vars - 1))
    p = LaurentPoly(table, data.draw(st.dictionaries(exps, st.integers(-6, 6), max_size=5)))
    var_j = data.draw(st.sampled_from(table.names[1:]))
    if data.draw(st.booleans()):
        try:
            p = p * (LaurentPoly.variable(table, "a") - LaurentPoly.variable(table, var_j))
        except ExponentOverflowError:
            pass

    def outcome(divide):
        try:
            quotient = divide(p, "a", var_j)
        except (ExponentOverflowError, InexactDivisionError) as err:
            return type(err)
        return quotient.sorted_terms(), quotient._bound

    assert outcome(divide_linear) == outcome(multiply_carry_divide_linear)


def test_divide_linear_raises_at_a_pivot_on_the_field_limit():
    top = var("a", EXPONENT_LIMIT)
    for p in (top, top - var("b", EXPONENT_LIMIT)):
        for divide in (divide_linear, multiply_carry_divide_linear):
            with pytest.raises(ExponentOverflowError):
                divide(p, "a", "b")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_det_matches_tuple_reference(data):
    n_vars = data.draw(st.integers(1, 4))
    size = data.draw(st.sampled_from((2, 3)))
    table = VarTable(tuple("abcd"[:n_vars]))
    entries = data.draw(ref_polys(n_vars, factors=size, count=size * size, max_terms=3))
    refs = [{e: c for e, c in entry.items() if c} for entry in entries]
    rows = [[LaurentPoly(table, refs[i * size + j]) for j in range(size)] for i in range(size)]
    ref_rows = [refs[i * size : (i + 1) * size] for i in range(size)]
    assert_matches(det(rows), ref_det(ref_rows, n_vars))


# ---------------------------------------------------------------------------
# det on inversion-invariant matrices, against the general cofactor expansion
# ---------------------------------------------------------------------------


def cofactor_det(rows):
    """The general cofactor expansion of ``det``, built from public ``*``, ``+`` and ``-``.

    A 1 x 1 matrix is its entry, bound included, as ``det`` documents: a
    zero entry left by cancellation keeps the bound it came with.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    table = rows[0][0].table
    memo = {(): LaurentPoly.const(table, 1)}

    def minor(cols):
        if cols in memo:
            return memo[cols]
        row = rows[n - len(cols)]
        total = LaurentPoly.zero(table)
        for pos, col in enumerate(cols):
            if row[col].is_zero:
                continue
            piece = row[col] * minor(cols[:pos] + cols[pos + 1 :])
            total = total + piece if pos % 2 == 0 else total - piece
        memo[cols] = total
        return total

    return minor(tuple(range(n)))


def inverted(p):
    """sigma(p): every variable replaced by its inverse."""
    return LaurentPoly(p.table, {tuple(-e for e in exps): c for exps, c in p.terms()})


def assert_same_det(rows):
    got, want = det(rows), cofactor_det(rows)
    assert got == want
    assert got._bound == want._bound  # later products raise exactly when they did


@st.composite
def det_matrices(draw, invariant, hessenberg=False):
    """Square matrices of 1-3 term entries; ``hessenberg`` gives n <= 6 and
    zeros below the subdiagonal (the Jacobi-Trudi pattern of a one-column
    shape) or, transposed, above the superdiagonal."""
    n_vars = draw(st.integers(1, 3))
    size = draw(st.integers(1, 6 if hessenberg else 4))
    transposed = hessenberg and draw(st.booleans())
    table = VarTable(tuple("abc"[:n_vars]))
    exps = st.tuples(*[st.integers(-3, 3)] * n_vars)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if hessenberg and (i - j if transposed else j - i) < -1:
                row.append(LaurentPoly.zero(table))
                continue
            p = LaurentPoly(table, draw(st.dictionaries(exps, st.integers(-4, 4), max_size=3)))
            row.append(p + inverted(p) if invariant else p)
        rows.append(row)
    return rows


@settings(max_examples=80, deadline=None)
@given(det_matrices(invariant=True))
def test_det_matches_cofactor_expansion_on_invariant_matrices(rows):
    assert_same_det(rows)


@settings(max_examples=80, deadline=None)
@given(det_matrices(invariant=False))
def test_det_matches_cofactor_expansion_on_general_matrices(rows):
    assert_same_det(rows)


@settings(max_examples=60, deadline=None)
@given(det_matrices(invariant=False, hessenberg=True))
def test_det_matches_cofactor_expansion_on_hessenberg_matrices(rows):
    assert_same_det(rows)


def det_outcome(det_fn, rows):
    """The determinant's terms and bound, or the overflow it raised."""
    try:
        value = det_fn(rows)
    except ExponentOverflowError:
        return ExponentOverflowError
    return value.sorted_terms(), value._bound


@st.composite
def zero_last_row_matrices(draw):
    """n x n matrices, 2 <= n <= 5, with explicit zeros in the last row.

    Each zero is p - p for a drawn p, so it carries p's bound; exponents
    near EXPONENT_LIMIT // n make some products pass the field.
    """
    n_vars = draw(st.integers(1, 2))
    size = draw(st.integers(2, 5))
    table = VarTable(("a", "b")[:n_vars])
    near = EXPONENT_LIMIT // size
    exponent = st.one_of(st.integers(-3, 3), st.integers(near - 1, near + 1))
    entry = st.dictionaries(st.tuples(*[exponent] * n_vars), st.integers(-4, 4), max_size=3).map(
        lambda terms: LaurentPoly(table, terms)
    )
    rows = [[draw(entry) for _ in range(size)] for _ in range(size)]
    for col in draw(st.sets(st.integers(0, size - 1), min_size=1)):
        p = draw(entry)
        rows[-1][col] = p - p
    return rows


@settings(max_examples=120, deadline=None)
@given(zero_last_row_matrices())
def test_det_matches_cofactor_expansion_with_zeros_in_the_last_row(rows):
    # Values, bounds and overflow: a zero entry's one-column minor is 0
    # with bound 0, whatever bound the zero entry carries.
    assert det_outcome(det, rows) == det_outcome(cofactor_det, rows)


def test_a_zero_last_row_entry_is_a_minor_of_bound_zero():
    p = var("a", 9) - var("a", 9)
    assert p.is_zero and p._bound == 9
    got = det([[const(2), var("b", 2)], [var("a"), p]])
    assert got == -var("a") * var("b", 2) and got._bound == 3  # not 0 + 9


def count_ring_ops(monkeypatch):
    calls = []
    for name in ("__mul__", "__add__", "__sub__"):
        op = getattr(LaurentPoly, name)

        def spy(self, other, op=op, name=name):
            calls.append(name)
            return op(self, other)

        monkeypatch.setattr(LaurentPoly, name, spy)
    return calls


def test_det_makes_no_ring_operation_on_either_kind_of_matrix(monkeypatch):
    a, b = var("a"), var("b")
    p = a + var("a", -1) + 2
    q = a * b + var("a", -1) * var("b", -1) - 3
    rows = [[p, q, const(1)], [q, LaurentPoly.zero(T2), p], [const(5), p, q]]
    general = [row[:] for row in rows]
    general[2][1] = p + a  # a's coefficient 2 against a^-1's 1
    wants = [cofactor_det(rows), cofactor_det(general)]
    calls = count_ring_ops(monkeypatch)
    assert [det(rows), det(general)] == wants
    assert calls == []


@pytest.mark.parametrize("invariant", [True, False])
def test_det_raises_past_the_field_on_either_kind_of_matrix(invariant):
    big = var("a", 2**30) + var("a", -(2**30))
    other = big if invariant else big + var("a", 2**30)
    with pytest.raises(ExponentOverflowError):
        det([[big, big], [other, big]])


def test_det_leaves_no_cycle_behind():
    # The memo of minors is freed on return, by reference counting alone,
    # whether det returns or raises.
    a, b = var("a"), var("b")
    rows = [[a + b, a, b], [b, a * b, a], [a, b + 1, a]]
    want = cofactor_det(rows)
    big = var("a", 2**30) + var("a", -(2**30))
    gc.collect()
    gc.disable()
    try:
        assert det(rows) == want
        assert gc.collect() == 0
        try:
            det([[big, big], [big, big]])
        except ExponentOverflowError:
            pass
        else:
            raise AssertionError("det did not raise past the field")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_det_rejects_an_entry_over_a_foreign_table():
    a, b = var("a"), var("b")
    with pytest.raises(ValueError, match="different variable tables"):
        det([[a, LaurentPoly.zero(VarTable(["c"]))], [b, a]])


def test_one_by_one_det_is_its_entry():
    p = var("a", -2) + 3 * var("b")
    assert det([[p]]) is p


# ---------------------------------------------------------------------------
# Accumulator against a chain on plain exponent-tuple dicts
# ---------------------------------------------------------------------------

big_polys = st.dictionaries(
    st.tuples(st.sampled_from((-2, -1, 0, 1, 2, 2**30, -(2**30))), st.integers(-2, 2)),
    st.integers(-4, 4),
    max_size=4,
).map(lambda terms: LaurentPoly(T2, terms))


def dict_chain(start, steps):
    """The chain start + sum c * u * p on plain exponent-tuple dicts: (sorted terms, bound).

    No LaurentPoly operation and no Accumulator: a sum's bound is the
    larger of its operands', a product's the sum of both, and a product
    whose bound passes the field gives ExponentOverflowError.
    """

    def bound(p):
        return max((abs(e) for exps, _ in p.terms() for e in exps), default=0)

    total, total_bound = {}, 0
    if start is not None:
        total, total_bound = dict(start.terms()), bound(start)
    for p, c, u in steps:
        if u is None:
            products, step_bound = list(p.terms()), bound(p)
        else:
            step_bound = bound(p) + bound(u)
            if step_bound > EXPONENT_LIMIT:
                return ExponentOverflowError
            products = [
                (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                for e1, c1 in p.terms()
                for e2, c2 in u.terms()
            ]
        for exps, coeff in products:
            total[exps] = total.get(exps, 0) + c * coeff
        total_bound = max(total_bound, step_bound)
    return sorted((exps, coeff) for exps, coeff in total.items() if coeff), total_bound


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.none(), big_polys),
    st.lists(
        st.tuples(
            big_polys, st.sampled_from((-3, -2, -1, 1, 2, 5)), st.one_of(st.none(), big_polys)
        ),
        max_size=4,
    ),
)
@example(
    start=LaurentPoly(T2, {(1, 0): 2}),
    steps=[
        (LaurentPoly(T2, {(1, 0): 1, (0, -1): 3}), -3, None),
        (LaurentPoly(T2, {(2, 0): -1}), 2, LaurentPoly(T2, {(-1, 1): 4, (0, 0): 1})),
        (LaurentPoly(T2, {(3, 0): 1}), 5, LaurentPoly(T2, {(-3, 0): 1})),
    ],
)
def test_accumulator_matches_the_ring_sum(start, steps):
    def accumulated():
        acc = Accumulator(T2, start)
        for p, c, u in steps:
            acc.add(p, c, u)
        return acc.value()

    try:
        value = accumulated()
    except ExponentOverflowError:
        outcome = ExponentOverflowError
    else:
        outcome = value.sorted_terms(), value._bound
    assert outcome == dict_chain(start, steps)


def test_accumulator_rejects_a_foreign_table_and_skips_a_zero_weight():
    other = LaurentPoly.variable(VarTable(["c"]), "c")
    for args in [(other,), (var("a"), 1, other)]:
        with pytest.raises(ValueError, match="different variable tables"):
            Accumulator(T2).add(*args)
    with pytest.raises(ValueError, match="different variable tables"):
        Accumulator(T2, other)
    acc = Accumulator(T2, var("a"))
    acc.add(var("b", 2**30), 0, var("b", 2**30))  # c = 0 adds no term and no bound, as 0 * p
    assert acc.value() == var("a") and acc.value()._bound == 1


# ---------------------------------------------------------------------------
# +, - and * against the merge loops they ran before they wrapped Accumulator
# ---------------------------------------------------------------------------


def loop_add(self, other):
    if type(other) is int:
        other = LaurentPoly.const(self.table, other)
    elif not isinstance(other, LaurentPoly):
        return NotImplemented
    self._check(other)
    big, small = self._terms, other._terms
    if len(big) < len(small):
        big, small = small, big
    acc = dict(big)
    for key, coeff in small.items():
        new = acc.get(key, 0) + coeff
        if new:
            acc[key] = new
        else:
            del acc[key]
    return _trusted(self.table, acc, max(self._bound, other._bound))


def loop_sub(self, other):
    if type(other) is int:
        other = LaurentPoly.const(self.table, other)
    elif not isinstance(other, LaurentPoly):
        return NotImplemented
    self._check(other)
    acc = dict(self._terms)
    for key, coeff in other._terms.items():
        new = acc.get(key, 0) - coeff
        if new:
            acc[key] = new
        else:
            del acc[key]
    return _trusted(self.table, acc, max(self._bound, other._bound))


def loop_mul(self, other):
    if type(other) is int:
        if other == 0:
            return LaurentPoly.zero(self.table)
        return _trusted(self.table, {k: c * other for k, c in self._terms.items()}, self._bound)
    if not isinstance(other, LaurentPoly):
        return NotImplemented
    self._check(other)
    bound = _product_bound(self._bound, other._bound)
    outer, inner = self._terms, other._terms
    if len(outer) > len(inner):
        outer, inner = inner, outer
    inner_items = inner.items()
    acc = {}
    get = acc.get
    for k1, c1 in outer.items():
        for k2, c2 in inner_items:
            key = k1 + k2
            acc[key] = get(key, 0) + c1 * c2
    if 0 in acc.values():
        acc = {k: c for k, c in acc.items() if c}
    return _trusted(self.table, acc, bound)


# name -> (the loop, the ring operator, the dunder method)
LOOP_OPS = {
    "add": (loop_add, operator.add, LaurentPoly.__add__),
    "sub": (loop_sub, operator.sub, LaurentPoly.__sub__),
    "mul": (loop_mul, operator.mul, LaurentPoly.__mul__),
}


def op_outcome(op, p, q):
    """op(p, q) as (table, terms, bound), or the exception type it raised."""
    try:
        value = op(p, q)
    except (ExponentOverflowError, ValueError) as exc:
        return type(exc)
    assert 0 not in value._terms.values()
    return value.table, value._terms, value._bound


# Exponents near and at the field edge, so that some products overflow.
EDGE_EXPONENTS = (-2, -1, 0, 1, 2, 2**30, -(2**30), EXPONENT_LIMIT - 1, -EXPONENT_LIMIT)


@st.composite
def loop_operands(draw):
    """Two polynomials over one of several tables; the second may cancel the first."""
    n = draw(st.integers(1, 4))
    table = VarTable(tuple("abcd"[:n]))
    poly = st.dictionaries(
        st.tuples(*[st.sampled_from(EDGE_EXPONENTS)] * n), st.integers(-3, 3), max_size=6
    ).map(lambda terms: LaurentPoly(table, terms))
    p = draw(poly)
    q = draw(st.one_of(poly, st.just(-p), st.just(p), poly.map(lambda r: r - p)))
    if draw(st.booleans()):  # an equal table that is another object
        q = _trusted(VarTable(tuple(table.names)), q._terms, q._bound)
    return p, q


@settings(max_examples=200, deadline=None)
@given(loop_operands(), st.sampled_from((-2, 0, 1, 3)))
def test_ring_operators_match_their_merge_loops(operands, k):
    p, q = operands
    for name, (loop, ring, _) in LOOP_OPS.items():
        for a, b in ((p, q), (q, p), (p, k), (p, p)):
            assert op_outcome(ring, a, b) == op_outcome(loop, a, b), (name, a, b)
    # The reflected int forms: k + p and k * p are p's methods, k - p is k's constant less p.
    const = LaurentPoly.const(p.table, k)
    assert op_outcome(lambda a, b: b + a, p, k) == op_outcome(loop_add, p, k)
    assert op_outcome(lambda a, b: b * a, p, k) == op_outcome(loop_mul, p, k)
    assert op_outcome(lambda a, b: b - a, p, k) == op_outcome(loop_sub, const, p)


def test_ring_operators_refuse_foreign_tables_and_operands_as_their_loops_did():
    p, foreign = var("a") + 2, LaurentPoly.variable(VarTable(["c"]), "c")
    for name, (loop, ring, method) in LOOP_OPS.items():
        assert op_outcome(ring, p, foreign) == op_outcome(loop, p, foreign) == ValueError, name
        for other in (True, False, 1.0, 2.5, None, "2"):
            assert method(p, other) is NotImplemented and loop(p, other) is NotImplemented
            with pytest.raises(TypeError):
                ring(p, other)
            with pytest.raises(TypeError):
                ring(other, p)


# ---------------------------------------------------------------------------
# Foreign operands
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("other", [1.5, None, "2", True])
@pytest.mark.parametrize(
    "op",
    [
        lambda p, o: p + o,
        lambda p, o: o + p,
        lambda p, o: p - o,
        lambda p, o: o - p,
        lambda p, o: p * o,
        lambda p, o: o * p,
    ],
    ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
)
def test_foreign_operands_raise_type_error(op, other):
    with pytest.raises(TypeError):
        op(var("a") + 2, other)


def test_exact_int_operands_still_work():
    p = var("a") + 2
    assert p + 1 == 1 + p == var("a") + 3
    assert p - 1 == var("a") + 1 and 1 - p == -var("a") - 1
    assert p * 2 == 2 * p == 2 * var("a") + 4


# ---------------------------------------------------------------------------
# z_to_x: z_i -> x_i + x_i^-1
# ---------------------------------------------------------------------------

Z2 = VarTable(("z(a)", "z(b)"))


@st.composite
def z_polys(draw):
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return LaurentPoly(Z2, draw(st.dictionaries(exps, st.integers(-5, 5), max_size=5)))


def test_z_to_x_of_a_variable_is_the_inverse_sum():
    z = LaurentPoly.variable(Z2, "z(a)")
    assert z_to_x(z, T2) == var("a") + var("a", -1)
    assert z_to_x(z * z - 2, T2) == var("a", 2) + var("a", -2)
    assert z_to_x(LaurentPoly.const(Z2, 7), T2) == 7


@settings(max_examples=100, deadline=None)
@given(z_polys(), z_polys())
def test_z_to_x_is_a_ring_map(p, q):
    assert z_to_x(p + q, T2) == z_to_x(p, T2) + z_to_x(q, T2)
    assert z_to_x(p * q, T2) == z_to_x(p, T2) * z_to_x(q, T2)


@settings(max_examples=100, deadline=None)
@given(z_polys())
def test_z_to_x_at_ones_is_the_value_at_two(p):
    x = z_to_x(p, T2)
    assert x.eval_all_ones() == sum(c * 2 ** sum(exps) for exps, c in p.terms())
    assert x._bound == p._bound
    assert (not x.is_zero) == (not p.is_zero)  # the substitution is injective


def test_z_to_x_rejects_negative_exponents_and_foreign_lengths():
    with pytest.raises(ValueError, match="negative"):
        z_to_x(LaurentPoly.variable(Z2, "z(b)", -1), T2)
    with pytest.raises(ValueError, match="length"):
        z_to_x(LaurentPoly.variable(Z2, "z(a)"), VarTable(("a",)))


# ---------------------------------------------------------------------------
# z_to_x_skew: z_to_x times prod (x_i - x_i^-1), in z_to_x's passes
# ---------------------------------------------------------------------------


# The row-by-row passes that the fold and unfold phases replaced: each
# z_i^a is expanded straight into x_i, one row of binomials per exponent.
def reference_z_row(a):
    return [math.comb(a, j) for j in range(a + 1)]


def reference_skew_row(a):
    row = reference_z_row(a)
    return [c - d for c, d in zip(row + [0], [0] + row)]


def reference_z_passes(p, table, row_of, lift):
    terms = dict(p.terms())
    for i in range(len(table)):
        acc = {}
        for exps, coeff in terms.items():
            for j, b in enumerate(row_of(exps[i])):
                out = exps[:i] + (exps[i] + lift - 2 * j,) + exps[i + 1 :]
                acc[out] = acc.get(out, 0) + coeff * b
        terms = {e: c for e, c in acc.items() if c}
    return LaurentPoly(table, terms)


def skewed(p):
    """z_to_x_skew by ring arithmetic: z_to_x(p), then one * per factor (x_i - x_i^-1)."""
    out = z_to_x(p, T2)
    for name in T2.names:
        out = out * (var(name) - var(name, -1))
    return out


def test_z_to_x_skew_of_a_constant_is_the_skew_factors():
    z = LaurentPoly.variable(Z2, "z(a)")
    da = var("a") - var("a", -1)
    assert z_to_x_skew(LaurentPoly.const(Z2, 1), T2) == da * (var("b") - var("b", -1))
    assert z_to_x_skew(z, T2) == (var("a", 2) - var("a", -2)) * (var("b") - var("b", -1))


@settings(max_examples=200, deadline=None)
@given(z_polys())
@example(LaurentPoly.zero(Z2))
def test_z_to_x_skew_is_z_to_x_times_the_skew_factors(p):
    x = z_to_x_skew(p, T2)
    assert x == skewed(p) == reference_z_passes(p, T2, reference_skew_row, 1)
    assert x._bound == p._bound + 1
    assert all(abs(e) <= x._bound for exps, _ in x.terms() for e in exps)


def test_z_to_x_skew_rejects_what_z_to_x_rejects():
    cases = [
        (LaurentPoly.variable(Z2, "z(b)", -1), T2, "negative"),
        (LaurentPoly.variable(Z2, "z(a)"), VarTable(("a",)), "length"),
    ]
    for p, table, message in cases:
        with pytest.raises(ValueError, match=message) as plain:
            z_to_x(p, table)
        with pytest.raises(ValueError) as skew:
            z_to_x_skew(p, table)
        assert (type(skew.value), str(skew.value)) == (type(plain.value), str(plain.value))


def test_z_to_x_skew_raises_past_the_field():
    # A constant with a claimed bound: the check must come before any row is built.
    assert z_to_x_skew(_trusted(Z2, {0: 3}, EXPONENT_LIMIT - 1), T2)._bound == EXPONENT_LIMIT
    with pytest.raises(ExponentOverflowError):
        z_to_x_skew(_trusted(Z2, {0: 3}, EXPONENT_LIMIT), T2)


@st.composite
def wide_z_polys(draw):
    """z polynomials over 0-3 variables with exponents up to 7, the zero polynomial among them."""
    n = draw(st.integers(0, 3))
    ztab = VarTable(tuple(f"z(v{i})" for i in range(n)))
    exps = st.tuples(*[st.integers(0, 7)] * n)
    terms = draw(st.dictionaries(exps, st.integers(-(2**70), 2**70), max_size=8))
    return LaurentPoly(ztab, terms), VarTable(tuple(f"v{i}" for i in range(n)))


@settings(max_examples=200, deadline=None)
@given(wide_z_polys())
@example((LaurentPoly.zero(Z2), T2))
@example((LaurentPoly.zero(VarTable(())), VarTable(())))
@example((LaurentPoly.const(VarTable(()), 5), VarTable(())))
def test_chebyshev_passes_match_the_row_passes(case):
    p, table = case
    assert z_to_x(p, table) == reference_z_passes(p, table, reference_z_row, 0)
    assert z_to_x_skew(p, table) == reference_z_passes(p, table, reference_skew_row, 1)


def test_chebyshev_passes_match_the_row_passes_on_the_power_det_vandermondes():
    for m in range(1, 5):
        table = schur.t_table(m)
        v = verify._z_vandermonde(table)
        assert z_to_x_skew(v, table) == reference_z_passes(v, table, reference_skew_row, 1), m
        assert z_to_x(v, table) == reference_z_passes(v, table, reference_z_row, 0), m


def traced_peak(call):
    """The tracemalloc peak, in bytes, of one call, and its value."""
    tracemalloc.start()
    try:
        value = call()
        return tracemalloc.get_traced_memory()[1], value
    finally:
        tracemalloc.stop()


def test_power_det_5_skew_and_json_stay_small():
    # The m = 5 Vandermonde's 120 z terms become 3,840 x terms.  Measured on
    # CPython 3.11: 528 kB for z_to_x_skew and 540 kB for to_json, against
    # 1,141 kB and 3,909 kB for the row passes and a to_json through
    # to_json_dict.  Each bound is its measured peak plus 25%.
    table = schur.t_table(5)
    v = verify._z_vandermonde(table)
    peak, x = traced_peak(lambda: z_to_x_skew(v, table))
    assert len(x) == 3840
    assert peak <= 660_000, peak
    peak, _ = traced_peak(x.to_json)
    assert peak <= 675_000, peak


# ---------------------------------------------------------------------------
# e_to_z: e_k of a block -> the k-th elementary symmetric polynomial of its z's
# ---------------------------------------------------------------------------

Z3 = VarTable(("z(a)", "z(b)", "z(c)"))
E3 = VarTable(("e1(a,c)", "e2(a,c)", "e1(b)"))
E3_BLOCKS = ((0, 2), (1,))


@st.composite
def e_polys(draw):
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    return LaurentPoly(E3, draw(st.dictionaries(exps, st.integers(-5, 5), max_size=5)))


def substituted(p):
    """e_to_z by ring arithmetic: e1 -> z_a + z_c, e2 -> z_a z_c, f1 -> z_b."""
    za, zb, zc = (LaurentPoly.variable(Z3, name) for name in Z3.names)
    images = (za + zc, za * zc, zb)
    total = LaurentPoly.zero(Z3)
    for exps, coeff in p.terms():
        term = LaurentPoly.const(Z3, coeff)
        for image, e in zip(images, exps):
            for _ in range(e):
                term = term * image
        total = total + term
    return total


@settings(max_examples=100, deadline=None)
@given(e_polys(), e_polys())
def test_e_to_z_is_the_substitution_and_a_ring_map(p, q):
    z = e_to_z(p, Z3, E3_BLOCKS)
    assert z == substituted(p)
    assert e_to_z(p * q, Z3, E3_BLOCKS) == z * e_to_z(q, Z3, E3_BLOCKS)
    assert e_to_z(p - q, Z3, E3_BLOCKS) == z - e_to_z(q, Z3, E3_BLOCKS)
    assert all(e <= z._bound for exps, _ in z.terms() for e in exps)
    assert (not z.is_zero) == (not p.is_zero)  # the e's are algebraically independent


def test_e_to_z_rejects_negative_exponents_and_foreign_blocks():
    with pytest.raises(ValueError, match="negative"):
        e_to_z(LaurentPoly.variable(E3, "e2(a,c)", -1), Z3, E3_BLOCKS)
    with pytest.raises(ValueError, match="do not fit"):
        e_to_z(LaurentPoly.variable(E3, "e1(b)"), Z3, ((0, 2),))
    with pytest.raises(ExponentOverflowError):
        e_to_z(LaurentPoly.variable(E3, "e1(a,c)", EXPONENT_LIMIT), Z3, E3_BLOCKS)


@pytest.mark.parametrize("blocks", [((0, 0),), ((0, 5),), ((0, -1),), ((0,), (0,))])
def test_e_to_z_rejects_repeated_or_outside_positions(blocks):
    # ((0, 0),) would map e1 + e2 to 2*a + a^2, a map that is not injective.
    Z = VarTable(("a", "b", "c"))
    E = VarTable(("e1", "e2"))
    p = LaurentPoly.variable(E, "e1") + LaurentPoly.variable(E, "e2")
    with pytest.raises(ValueError, match="repeat or leave the positions"):
        e_to_z(p, Z, blocks)


# ---------------------------------------------------------------------------
# widen: a value over a contiguous run of a wider table's names
# ---------------------------------------------------------------------------

RUN = VarTable(("b", "c"))


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(-EXPONENT_LIMIT, EXPONENT_LIMIT)] * 2),
        st.integers(-9, 9),
        max_size=6,
    ),
    st.sampled_from([(0, 2), (2, 0), (1, 1), (0, 0)]),
)
def test_widen_is_the_zero_padded_polynomial(terms, around):
    # The run at the start, at the end, in the middle, and as the whole table.
    before, after = around
    wide = VarTable(("a0", "a1")[:before] + RUN.names + ("d0", "d1")[:after])
    p = LaurentPoly(RUN, terms)
    padded = {(0,) * before + exps + (0,) * after: c for exps, c in terms.items()}
    got = widen(p, wide)
    assert got == LaurentPoly(wide, padded)
    assert got.table is wide and got._bound == p._bound


def test_widen_refuses_names_that_are_not_a_contiguous_run():
    p = LaurentPoly.variable(RUN, "b") * LaurentPoly.variable(RUN, "c", -2)
    for names in (("c", "b"), ("b", "a", "c"), ("b",), ("a", "c"), ("c", "b", "a")):
        with pytest.raises(ValueError, match="contiguous run") as err:
            widen(p, VarTable(names))
        assert "\n" not in str(err.value)


def test_widen_keeps_the_bound():
    # (b^3 + 1) - b^3 is 1 with bound 3; the moved value keeps it, so a
    # product with it raises at the field exactly where the original does.
    p = (LaurentPoly.variable(RUN, "b", 3) + 1) - LaurentPoly.variable(RUN, "b", 3)
    wide = VarTable(("a", "b", "c", "d"))
    moved = widen(p, wide)
    assert moved == 1 and moved._bound == p._bound == 3
    edge = LaurentPoly.variable(wide, "d", EXPONENT_LIMIT - 2)
    with pytest.raises(ExponentOverflowError):
        moved * edge
    with pytest.raises(ExponentOverflowError):
        p * LaurentPoly.variable(RUN, "c", EXPONENT_LIMIT - 2)
    empty = VarTable(())
    assert widen(LaurentPoly.const(empty, 5), wide) == LaurentPoly.const(wide, 5)
