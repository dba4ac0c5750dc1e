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
|lam| <= a m.
"""

from fractions import Fraction
from functools import cache
from math import comb

import pytest

from superchar.partitions import RectSubset, enumerate_rect_subset


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
def branching(kind, r, a, m):
    """{lam: M(W^(a)_m, lam)} over the lam with a nonzero multiplicity."""
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
                    p = (min(i, m) if b == a - 1 else 0) - sum(
                        gram[b][c] * min(t[c] * i, t[b] * k) * mk
                        for c, other in enumerate(config)
                        for k, mk in other.items()
                    )
                    assert p.denominator == 1, (kind, r, a, m, lam, config)
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


@pytest.mark.parametrize("kind,r,a,m", CASES)
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
