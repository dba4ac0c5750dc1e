"""The references the tests compare the library with, each written once.

A helper module, not a test file, like ``faults.py``: the supertableau sum
and its counts, a determinant by permutation expansion, the products of
Schur polynomials the LR and expansion tests read, and the small alphabet
helpers more than one test file needs.  A reference that one test file
alone uses stays in that file.  The supertableau sum's self-test is
``test_folding.py::test_the_tableau_sum_counts_supertableaux``.
"""

from itertools import combinations, permutations

from superchar.laurent import LaurentPoly, VarTable
from superchar.partitions import partitions_of
from superchar.schur import Alphabet, palindromic, schur_in_table, t_table


def tableau_schur(lam, X, Y):
    """s_lam(X|Y) as the signed sum over supertableaux on the letters X then Y.

    An X letter weakly increases along a row and strictly down a column; a Y
    letter strictly along a row and weakly down a column.  Each letter is
    weighted by its element, a Y letter by -y, the sign of h_list's
    prod (1 - y t) (Berele and Regev, 1987; Macdonald, Symmetric Functions,
    I.5, Example 23).  No series, determinant or e table is read, and the
    constants +-1 are letters like any other.
    """
    letters = [(sign, exps, False) for sign, exps in X.elements]
    letters += [(-sign, exps, True) for sign, exps in Y.elements]
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    filled, terms = {}, {}

    def fill(pos, sign, exps):
        if pos == len(cells):
            terms[exps] = terms.get(exps, 0) + sign
            return
        i, j = cells[pos]
        left, above = filled.get((i, j - 1), -1), filled.get((i - 1, j), -1)
        for k in range(max(left, above, 0), len(letters)):
            letter_sign, letter_exps, odd = letters[k]
            if k == left and odd or k == above and not odd:
                continue
            filled[i, j] = k
            fill(pos + 1, sign * letter_sign, tuple(map(sum, zip(exps, letter_exps))))
        filled.pop((i, j), None)

    fill(0, 1, (0,) * len(X.table))
    return LaurentPoly(X.table, terms)


def count_supertableaux(shape, M, N):
    """The number of (M|N) supertableaux of shape: tableau_schur at M letters 1 and N letters -1.

    A Y letter is weighted by minus its element, so every letter weighs +1.
    At N = 0 this is the number of semistandard tableaux with entries <= M.
    """
    table = VarTable(())
    X, Y = Alphabet.constants(table, (1,) * M), Alphabet.constants(table, (-1,) * N)
    return tableau_schur(shape, X, Y).eval_all_ones()


def leibniz(rows, table):
    """det(rows) by permutation expansion, with ring products only: no laurent.det."""
    total = LaurentPoly.zero(table)
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = LaurentPoly.const(table, -1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def inverses(alphabet):
    """The alphabet of each element's inverse, in order, with its sign kept."""
    return Alphabet(
        alphabet.table, tuple((s, tuple(-e for e in exps)) for s, exps in alphabet.elements)
    )


def doubled(p):
    """p with every exponent doubled, so that half-integral weights become integral."""
    return LaurentPoly(p.table, {tuple(2 * e for e in exps): c for exps, c in p.terms()})


def x_alphabets(r):
    """The table x1..xr, its palindromic alphabet xx and the empty alphabet."""
    table = VarTable(tuple(f"x{i}" for i in range(1, r + 1)))
    return table, palindromic(table, table.names), Alphabet.empty(table)


def oracle_products(max_size):
    """(mu, nu, S_mu * S_nu, nvars) over every ordered pair with |mu| + |nu| <= max_size.

    Each product is formed by schur_in_table in t_1..t_nvars, nvars =
    max(|mu| + |nu|, 1).
    """
    for n in range(max_size + 1):
        nvars = max(n, 1)
        table = t_table(nvars)
        for k in range(n + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(n - k):
                    yield mu, nu, schur_in_table(mu, table) * schur_in_table(nu, table), nvars
