import json
import random

import pytest

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

