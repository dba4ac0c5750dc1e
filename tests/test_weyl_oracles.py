"""Bracket characters against the Weyl character formula, term by term.

For a dominant lam with at most r parts, the character of the classical
group times its Weyl denominator is an alternant (Fulton & Harris, Sections
24.2 and 24.3):

    sp(2r):    ANGLE(lam; xx|0) det(x^rho - x^-rho) = det(x^(lam+rho) - x^-(lam+rho)),
               rho = (r, ..., 1);
    so(2r+1):  SQUARE(lam; xx+{1}|0), every exponent doubled, times
               det(x^2rho - x^-2rho) = det(x^2(lam+rho) - x^-2(lam+rho)),
               rho = (r - 1/2, ..., 1/2);
    O(2r):     SQUARE(lam; xx|0) det(x^rho + x^-rho) = c det(x^(lam+rho) + x^-(lam+rho)),
               rho = (r - 1, ..., 0), c = 2 when lam_r > 0 (the O(2r) module
               restricts to the mirror pair V(lam+) + V(lam-)) and 1 otherwise.

Row i of each determinant is x_j^(p_i) -+ x_j^(-p_i) over the variables x_j.
The determinants are expanded here by Leibniz's formula with ring products
only: no laurent.det and no h_m.
"""

from superchar.laurent import LaurentPoly
from superchar.partitions import part, partitions_upto
from superchar.schur import Alphabet, BracketType, bracket_schur

from oracles import doubled, leibniz, x_alphabets


def alternant(table, powers, sign):
    """det(x_j^p + sign x_j^-p) over the rows p of powers and the variables x_j."""
    rows = [
        [
            LaurentPoly.variable(table, name, p) + sign * LaurentPoly.variable(table, name, -p)
            for name in table.names
        ]
        for p in powers
    ]
    return leibniz(rows, table)


def instances():
    """(r, lam) for r <= 3 and |lam| <= 5 with at most r parts."""
    return [(r, lam) for r in (1, 2, 3) for lam in partitions_upto(5, max_len=r)]


def symplectic_holds(r, lam, tag=BracketType.ANGLE):
    table, xx, none = x_alphabets(r)
    rho = [r - i for i in range(r)]  # r, ..., 1
    shifted = [part(lam, i + 1) + rho[i] for i in range(r)]
    char = bracket_schur(tag, lam, xx, none)
    return char * alternant(table, rho, -1) == alternant(table, shifted, -1)


def odd_orthogonal_holds(r, lam, tag=BracketType.SQUARE):
    table, xx, none = x_alphabets(r)
    two_rho = [2 * (r - i) - 1 for i in range(r)]  # 2r - 1, ..., 1
    shifted = [2 * part(lam, i + 1) + two_rho[i] for i in range(r)]
    char = doubled(bracket_schur(tag, lam, xx | Alphabet.constants(table, (1,)), none))
    return char * alternant(table, two_rho, -1) == alternant(table, shifted, -1)


def even_orthogonal_holds(r, lam, tag=BracketType.SQUARE):
    table, xx, none = x_alphabets(r)
    rho = [r - 1 - i for i in range(r)]  # r - 1, ..., 0
    shifted = [part(lam, i + 1) + rho[i] for i in range(r)]
    c = 2 if part(lam, r) > 0 else 1
    char = bracket_schur(tag, lam, xx, none)
    return char * alternant(table, rho, 1) == c * alternant(table, shifted, 1)


def test_the_instances_are_the_classical_range():
    assert len(instances()) == 34


def test_angle_brackets_satisfy_the_symplectic_weyl_formula():
    assert [(r, lam) for r, lam in instances() if not symplectic_holds(r, lam)] == []


def test_square_brackets_with_one_satisfy_the_odd_orthogonal_weyl_formula():
    assert [(r, lam) for r, lam in instances() if not odd_orthogonal_holds(r, lam)] == []


def test_square_brackets_satisfy_the_even_orthogonal_weyl_formula():
    assert [(r, lam) for r, lam in instances() if not even_orthogonal_holds(r, lam)] == []


def test_the_other_bracket_fails_each_formula():
    # The oracles tell the brackets apart: with the other tag, 26 of the 34
    # instances of each family turn red, all but the empty shape, the single
    # box and (2, 1).
    swapped = [
        (symplectic_holds, BracketType.SQUARE),
        (odd_orthogonal_holds, BracketType.ANGLE),
        (even_orthogonal_holds, BracketType.ANGLE),
    ]
    for holds, tag in swapped:
        green = {lam for r, lam in instances() if holds(r, lam, tag)}
        red = [(r, lam) for r, lam in instances() if not holds(r, lam, tag)]
        assert green <= {(), (1,), (2, 1)} and len(red) == 26, holds.__name__
