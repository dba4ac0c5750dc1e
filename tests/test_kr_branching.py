"""The fold subsets against the classical branching of Kirillov-Reshetikhin modules.

At s = 0 a folded a-row rectangle of width m is a sum of bracket characters
over a subset of the rectangle's shapes (``enumerate_rect_subset``).  The
paper reads that subset as the branching of the KR module W^(a)_m to the
classical algebra.  This file computes the branching independently, by the
fermionic formula (Kirillov and Reshetikhin, 1987; Hatayama, Kuniba,
Okado, Takagi and Yamada, "Remarks on fermionic formula", 1999), with
``fractions`` and ``math.comb`` only.

For a dominant lam write m w_a - lam = sum_b n_b alpha_b with integers
n_b >= 0.  Then

    M(W^(a)_m, lam) = sum prod_{b,i} C(p^(b)_i + m^(b)_i, m^(b)_i)

over the m^(b)_i >= 0 with sum_i i m^(b)_i = n_b (one partition of n_b per
node), with p^(b)_i >= 0 wherever m^(b)_i > 0, and

    p^(b)_i = delta_ab min(i, m) - sum_{c,k} (alpha_b|alpha_c) min(t_c i, t_b k) m^(c)_k,

long roots of norm 2 and t_b = 2 / (alpha_b|alpha_b).  In e coordinates
alpha_i = e_i - e_(i+1) for i < r, and alpha_r is e_r for B_r ((e|e) = 1),
2 e_r for C_r ((e|e) = 1/2) and e_(r-1) + e_r for D_r ((e|e) = 1).  For a < r
(a <= r - 2 for D_r) m w_a is the a-row rectangle of width m, so the
candidates lam are the partitions with at most r parts, lam_1 <= m and
|lam| <= a m.  At B_r's spin node the r-row rectangle of width m is 2m w_r,
the highest weight of W^(r)_2m.  The D_r node r - 1, whose KR modules are
not read off a fermionic sum here, is checked as a product of Weyl
alternants at the end of the file.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import comb

import pytest

from superchar.laurent import LaurentPoly
from superchar.partitions import RectSubset, enumerate_rect_subset
from superchar.schur import BracketType, bracket_schur

from oracles import doubled, x_alphabets


def simple_roots(kind, r):
    """The simple roots as e-coordinate vectors, and (e|e)."""
    roots = [[int(j == i) - int(j == i + 1) for j in range(r)] for i in range(r - 1)]
    last = [0] * r
    if kind == "B":
        last[r - 1] = 1
    elif kind == "C":
        last[r - 1] = 2
    else:
        last[r - 2] = last[r - 1] = 1
    return roots + [last], Fraction(1, 2) if kind == "C" else Fraction(1)


def root_coordinates(roots, v):
    """The n with sum_b n_b roots[b] = v, by exact elimination (the roots are a basis)."""
    r = len(roots)
    rows = [[Fraction(roots[b][j]) for b in range(r)] + [Fraction(v[j])] for j in range(r)]
    for col in range(r):
        pivot = next(i for i in range(col, r) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(r):
            if i != col and rows[i][col]:
                f = rows[i][col] / rows[col][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [rows[b][r] / rows[b][b] for b in range(r)]


def partitions_of(n, largest=None):
    """Every partition of n with parts at most largest, as a list of parts."""
    if n == 0:
        yield []
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions_of(n - first, first):
            yield [first] + rest


def shapes_in_box(rows, width):
    """Every partition with at most rows parts, each at most width, as a tuple."""
    yield ()
    if rows:
        for first in range(1, width + 1):
            for rest in shapes_in_box(rows - 1, first):
                yield (first,) + rest


def configurations(ns):
    """Every choice of one partition of n_b per node, as multiplicity dicts {i: m_i}."""
    if not ns:
        yield []
        return
    for head in partitions_of(ns[0]):
        counts = {}
        for i in head:
            counts[i] = counts.get(i, 0) + 1
        for rest in configurations(ns[1:]):
            yield [counts] + rest


@cache
def branching(kind, r, a, m, level=None):
    """{lam: M(W^(a)_level, lam)} over the lam with a nonzero multiplicity.

    The highest weight is the a-row rectangle of width m, and level defaults
    to m.  At B_r's spin node a = r that rectangle is 2m w_r, at level 2m.
    """
    level = level or m
    roots, norm = simple_roots(kind, r)
    gram = [[sum(x * y for x, y in zip(u, w)) * norm for w in roots] for u in roots]
    t = [2 / gram[b][b] for b in range(r)]
    out = {}
    for lam in shapes_in_box(r, m):
        if sum(lam) > a * m:
            continue
        v = [m * (j < a) - (lam[j] if j < len(lam) else 0) for j in range(r)]
        ns = root_coordinates(roots, v)
        if any(n < 0 or n.denominator != 1 for n in ns):
            continue
        total = 0
        for config in configurations([int(n) for n in ns]):
            term = 1
            for b, counts in enumerate(config):
                for i, mult in counts.items():
                    p = (min(i, level) if b == a - 1 else 0) - sum(
                        gram[b][c] * min(t[c] * i, t[b] * k) * mk
                        for c, other in enumerate(config)
                        for k, mk in other.items()
                    )
                    assert p.denominator == 1, (kind, r, a, level, lam, config)
                    if p < 0:
                        term = 0
                        break
                    term *= comb(int(p) + mult, mult)
                if not term:
                    break
            total += term
        if total:
            out[lam] = total
    return out


TAGS = {"B": RectSubset.COLPAIRED, "C": RectSubset.EVENROW, "D": RectSubset.COLPAIRED}
OTHER = {"B": RectSubset.EVENROW, "C": RectSubset.COLPAIRED, "D": RectSubset.EVENROW}
RANKS = {"B": (3, 4), "C": (3, 4), "D": (4, 5)}
CASES = [
    (kind, r, a, m)
    for kind, ranks in RANKS.items()
    for r in ranks
    for a in range(1, r - 1 if kind == "D" else r)
    for m in (1, 2)
]

# The fast cases at m = 3, about 0.4 s in all.  B_4 at a = 2, 3 and D_5 at
# a = 2, 3 match too, but take 0.4-6 s each.
M3_CASES = [
    ("B", 3, 1, 3), ("B", 3, 2, 3), ("B", 4, 1, 3),
    ("C", 3, 1, 3), ("C", 3, 2, 3), ("C", 4, 1, 3), ("C", 4, 2, 3), ("C", 4, 3, 3),
    ("D", 4, 1, 3), ("D", 4, 2, 3), ("D", 5, 1, 3),
]


@pytest.mark.parametrize("kind,r,a,m", CASES + M3_CASES)
def test_the_fold_subset_is_the_kr_branching(kind, r, a, m):
    want = {lam: 1 for lam in enumerate_rect_subset(TAGS[kind], m, a)}
    assert branching(kind, r, a, m) == want


def test_the_other_subset_differs_except_at_a_single_box():
    """The contrast: the other tag's subset fails the branching in 24 of the 30 cases.

    At a = m = 1 both subsets are {(1)}, so those six cannot tell the tags apart.
    """
    same = [
        (kind, r, a, m)
        for kind, r, a, m in CASES
        if branching(kind, r, a, m) == {lam: 1 for lam in enumerate_rect_subset(OTHER[kind], m, a)}
    ]
    assert same == [case for case in CASES if case[2] == case[3] == 1]
    assert (len(CASES), len(same)) == (30, 6)


def test_the_other_subset_differs_at_width_three():
    # No m = 3 case is a single box, so the other tag's subset fails each.
    assert all(
        branching(kind, r, a, m) != {lam: 1 for lam in enumerate_rect_subset(OTHER[kind], m, a)}
        for kind, r, a, m in M3_CASES
    )


SPIN_CASES = [(r, m) for r in (3, 4) for m in (1, 2)]


@pytest.mark.parametrize("r,m", SPIN_CASES)
def test_the_b_spin_node_branching_at_even_level_is_the_colpaired_rectangle(r, m):
    # 2m w_r = m(e_1 + ... + e_r) is the r-row rectangle of width m, at level 2m.
    want = {lam: 1 for lam in enumerate_rect_subset(RectSubset.COLPAIRED, m, r)}
    assert branching("B", r, r, m, 2 * m) == want


def test_the_b_spin_node_branching_is_not_the_evenrow_rectangle():
    assert all(
        branching("B", r, r, m, 2 * m)
        != {lam: 1 for lam in enumerate_rect_subset(RectSubset.EVENROW, m, r)}
        for r, m in SPIN_CASES
    )


# D_r at node r - 1.  The folded (r-1)-row rectangle of width m is predicted
# to be W^(r-1)_m (x) W^(r)_m classically, and both spin nodes are minuscule,
# so that is V(m w_(r-1)) (x) V(m w_r).  Checked without division, with every
# exponent doubled so that the spin weights are integral:
#
#     sum_{mu in COLPAIRED(m^(r-1))} SQUARE_mu(xx|0) A_rho^2 = A_(m w_(r-1) + rho) A_(m w_r + rho),
#
# A_v = sum_{w in W(D_r)} sgn(w) e^(w v) over the permutations and the even
# sign changes, rho = (r - 1, ..., 0).  Each mu has at most r - 1 rows, so
# its O(2r) character SQUARE_mu(xx|0) is irreducible for SO(2r).

D_RANK = 4


def d_alternant(table, twice_v):
    """A_v over W(D_r) in the doubled exponents twice_v, one monomial per group element."""
    r = len(twice_v)
    terms = {}
    for perm in permutations(range(r)):
        inversions = sum(i > j for i, j in combinations(perm, 2))
        for signs in product((1, -1), repeat=r):
            if signs.count(-1) % 2 == 0:
                exps = tuple(s * twice_v[p] for s, p in zip(signs, perm))
                terms[exps] = terms.get(exps, 0) + (-1) ** inversions
    return LaurentPoly(table, terms)


def spin_weight(m, last_sign):
    """Twice m w_(r-1) (last_sign -1) or m w_r (last_sign 1), plus twice rho."""
    r = D_RANK
    return tuple(m + 2 * (r - 1 - i) for i in range(r - 1)) + (last_sign * m,)


def d_node_sides(tag, m, right_signs):
    """(left, right) of the node r - 1 identity with tag's subset and the spin pair right_signs."""
    r = D_RANK
    table, xx, none = x_alphabets(r)
    a_rho = d_alternant(table, tuple(2 * (r - 1 - i) for i in range(r)))
    chars = LaurentPoly.zero(table)
    for mu in enumerate_rect_subset(tag, m, r - 1):
        chars = chars + doubled(bracket_schur(BracketType.SQUARE, mu, xx, none))
    left = chars * a_rho * a_rho
    first, second = (d_alternant(table, spin_weight(m, sign)) for sign in right_signs)
    return left, first * second


@pytest.mark.parametrize("m", [1, 2])
def test_the_d_node_before_last_rectangle_is_the_product_of_the_spin_nodes(m):
    left, right = d_node_sides(RectSubset.COLPAIRED, m, (-1, 1))
    assert left == right


@pytest.mark.parametrize("m", [1, 2])
def test_the_d_node_before_last_identity_fails_with_another_subset_or_spin_pair(m):
    wrong = [
        d_node_sides(RectSubset.BOX, m, (-1, 1)),
        d_node_sides(RectSubset.EVENROW, m, (-1, 1)),
        d_node_sides(RectSubset.COLPAIRED, m, (1, 1)),
    ]
    assert all(left != right for left, right in wrong)
