"""Character values at all-ones against classical dimension formulas.

These are independent oracles: the library computes determinants of series
coefficients, while the expected values below come from Weyl-type product
formulas over positive roots, or from brute-force supertableau counting.
"""

from fractions import Fraction

from superchar.laurent import VarTable
from superchar.partitions import part, partitions_upto
from superchar.schur import Alphabet, BracketType, bracket_schur, super_schur

from oracles import count_supertableaux, x_alphabets


def weyl_dim_odd_orthogonal(lam, r):
    """dim of the so(2r+1) module with highest weight lam (l(lam) <= r)."""
    rho = [Fraction(2 * (r - i) + 1, 2) for i in range(1, r + 1)]
    l = [part(lam, i) + rho[i - 1] for i in range(1, r + 1)]
    dim = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            dim *= (l[i] ** 2 - l[j] ** 2) / (rho[i] ** 2 - rho[j] ** 2)
        dim *= l[i] / rho[i]
    assert dim.denominator == 1
    return int(dim)


def weyl_dim_symplectic(lam, r):
    """dim of the sp(2r) module with highest weight lam (l(lam) <= r)."""
    rho = [r - i + 1 for i in range(1, r + 1)]
    l = [part(lam, i) + rho[i - 1] for i in range(1, r + 1)]
    dim = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            dim *= Fraction(l[i] ** 2 - l[j] ** 2, rho[i] ** 2 - rho[j] ** 2)
        dim *= Fraction(l[i], rho[i])
    assert dim.denominator == 1
    return int(dim)


def weyl_dim_even_orthogonal(lam, r):
    """dim of one so(2r) module with highest weight lam (l(lam) <= r)."""
    rho = [r - i for i in range(1, r + 1)]
    l = [part(lam, i) + rho[i - 1] for i in range(1, r + 1)]
    dim = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            dim *= Fraction(l[i] ** 2 - l[j] ** 2, rho[i] ** 2 - rho[j] ** 2)
    assert dim.denominator == 1
    return int(dim)


def test_square_bracket_gives_odd_orthogonal_dimensions():
    for r in (1, 2, 3):
        table, pal, none = x_alphabets(r)
        X = pal | Alphabet.constants(table, (1,))
        for lam in partitions_upto(4, max_len=r):
            value = bracket_schur(BracketType.SQUARE, lam, X, none).eval_all_ones()
            assert value == weyl_dim_odd_orthogonal(lam, r), (r, lam)


def test_angle_bracket_gives_symplectic_dimensions():
    for r in (1, 2, 3):
        table, pal, none = x_alphabets(r)
        for lam in partitions_upto(4, max_len=r):
            value = bracket_schur(BracketType.ANGLE, lam, pal, none).eval_all_ones()
            assert value == weyl_dim_symplectic(lam, r), (r, lam)


def test_square_bracket_gives_even_orthogonal_dimensions():
    # a full last row pairs the two mirror-image modules, doubling the count
    for r in (2, 3):
        table, pal, none = x_alphabets(r)
        for lam in partitions_upto(4, max_len=r):
            value = bracket_schur(BracketType.SQUARE, lam, pal, none).eval_all_ones()
            expected = weyl_dim_even_orthogonal(lam, r)
            if part(lam, r) > 0:
                expected *= 2
            assert value == expected, (r, lam)


def test_two_alphabet_character_counts_supertableaux():
    # with the second alphabet negated, all-ones evaluation is a dimension
    for M, N in ((1, 1), (2, 1), (1, 2), (2, 2)):
        names = tuple(f"x{i}" for i in range(1, M + 1)) + tuple(
            f"y{i}" for i in range(1, N + 1)
        )
        table = VarTable(names)
        X = Alphabet.formal(table, names[:M])
        Y = Alphabet.formal(table, names[M:]).negated()
        for lam in partitions_upto(4):
            value = super_schur(lam, X, Y).eval_all_ones()
            assert value == count_supertableaux(lam, M, N), (M, N, lam)


def test_supertableau_count_respects_hook():
    assert count_supertableaux((2, 1), 1, 1) == 2
    assert count_supertableaux((2, 2), 1, 1) == 0  # outside the [1,1] hook
    assert count_supertableaux((2, 2), 1, 2) > 0
