import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superchar.laurent import (
    InexactDivisionError,
    LaurentPoly,
    VarTable,
    det,
    divide_linear,
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


@settings(max_examples=60)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-3, 3))
def test_specialize_is_ring_hom(c1, c2, e):
    p = c1 * var("a") + c2 * var("b", 2)
    q = var("a", e) + c2
    target = VarTable(("a",))
    image = {"b": LaurentPoly.variable(target, "a", -1)}
    lhs = (p * q).specialize(image, target)
    rhs = p.specialize(image, target) * q.specialize(image, target)
    assert lhs == rhs


def test_specialize_examples():
    small = VarTable(("x1", "x2"))
    p = LaurentPoly.variable(small, "x1") + LaurentPoly.variable(small, "x2")
    one_var = VarTable(("x1",))
    inv = LaurentPoly.variable(one_var, "x1", -1)
    assert p.specialize({"x2": inv}, one_var) == LaurentPoly(
        one_var, {(1,): 1, (-1,): 1}
    )
    assert p.specialize({"x2": -1}, small) == LaurentPoly(
        small, {(1, 0): 1, (0, 0): -1}
    )
    xy = VarTable(("x1", "y1"))
    q = LaurentPoly(xy, {(1, 1): 1})
    assert q.specialize({"y1": 1}, xy) == LaurentPoly(xy, {(1, 0): 1})


def test_specialize_rejects_general_images():
    p = var("a")
    with pytest.raises(ValueError):
        p.specialize({"a": var("a") + var("b")})
    with pytest.raises(ValueError):
        p.specialize({"a": 2 * var("b")})


def test_mismatched_tables_rejected():
    other = VarTable(("a",))
    with pytest.raises(ValueError):
        var("a") + LaurentPoly.variable(other, "a")


def test_exact_div():
    p = 2 * var("a") + 4
    assert p.exact_div(2) == var("a") + 2
    with pytest.raises(InexactDivisionError):
        (var("a") + 1).exact_div(2)


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


def test_json_round_trip():
    p = 3 * var("a", -2) * var("b") + 5 - var("b", 3)
    data = p.to_json_dict()
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == sorted(exps)
    assert all(isinstance(t["coeff"], str) for t in data["terms"])
    assert LaurentPoly.from_json_dict(json.loads(p.to_json())) == p


def test_pow():
    p = var("a") + 1
    assert p ** 0 == 1
    assert p ** 3 == p * p * p
