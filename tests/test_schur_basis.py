"""Every fold and dc free proof, cross-checked in the Schur basis.

folding._free_batch evaluates theorems' two sides over free h_1..h_D, with
laurent.det, schur._table_dets and schur.graded_parts, and those same
engines build the alphabet sides that its other tests compare it with.  Here
each side is evaluated in the Schur basis of the ring of symmetric functions
(Macdonald, Symmetric Functions, I.3-I.5) by code that shares none of them:

- each bracket determinant over pure h, by verify._pieri_det (Pieri's rule
  under a cofactor expansion) from the entry rules written out below, ANGLE's
  as the paired determinant halved;
- then each constant of the side, as a ring map: an X constant c sends s_mu
  to sum c^|mu/nu| s_nu over the horizontal strips mu/nu, a Y constant c to
  sum (-c)^|mu/nu| s_nu over the vertical strips.

Each side is re-expanded into free h by Jacobi-Trudi, as a dict from the
sorted h indices of a monomial to its coefficient, and compared with
_free_batch of the theorem alone term for term; the two sides must also agree
in the Schur basis exactly when proved_free_all says they agree.
"""

from functools import cache
from itertools import permutations, product

import pytest

from superchar.folding import (
    DC_RELATIONS,
    XI_RELATIONS,
    FoldingCase,
    FoldingTag,
    _free_batch,
    branches,
    dc_theorem,
    fold_theorem,
    proved_free_all,
)
from superchar.partitions import partitions_upto, size
from superchar.verify import _pieri_det

# Each bracket's entry (i, j) as (c, k) pairs of sum c h_k, at base = lam_i - i,
# keyed by the bracket's rule name.
ENTRIES = {
    "plain": lambda base, j: ((1, base + j),),
    "square": lambda base, j: ((1, base + j), (-1, base - j)),
    "angle": lambda base, j: ((1, base + j), (1, base - j + 2)),
}
OTHER_BRACKET = {"square": "angle", "angle": "square"}


def bracket(rule, lam):
    """bracket_lam over pure h in the Schur basis; an ANGLE one is halved exactly."""
    n = len(lam)
    rows = [[ENTRIES[rule](lam[i] - i - 1, j) for j in range(1, n + 1)] for i in range(n)]
    value = _pieri_det({(): 1}, rows, {})
    if rule != "angle" or not lam:
        return value
    assert not any(c % 2 for c in value.values()), lam
    return {mu: c // 2 for mu, c in value.items()}


def removals(mu, vertical):
    """(nu, |mu/nu|) for each nu with mu/nu a horizontal strip, or a vertical one."""
    if vertical:
        ranges = [(part - 1, part) for part in mu]
    else:
        ranges = [range(below, part + 1) for part, below in zip(mu, (*mu[1:], 0))]
    for nu in product(*ranges):
        if all(a >= b for a, b in zip(nu, nu[1:])):
            yield tuple(part for part in nu if part), size(mu) - sum(nu)


def with_constant(value, c, vertical):
    """The image of a Schur-basis element when c joins X, or joins Y with vertical."""
    out = {}
    for mu, a in value.items():
        for nu, k in removals(mu, vertical):
            out[nu] = out.get(nu, 0) + a * (-c if vertical else c) ** k
    return {nu: a for nu, a in out.items() if a}


def side_in_schur_basis(side):
    """sum w * bracket_lam of the side, its constants applied."""
    x_consts, y_consts, mapping, rule, weighted = side
    assert mapping is list  # every fold and dc side is over the series itself
    total = {}
    for lam, w in weighted:
        value = bracket(rule, lam) if w else {}
        for mu, c in value.items():
            total[mu] = total.get(mu, 0) + w * c
    for c in x_consts:
        total = with_constant(total, c, False)
    for c in y_consts:
        total = with_constant(total, c, True)
    return {mu: a for mu, a in total.items() if a}


@cache
def jacobi_trudi(nu):
    """s_nu = det(h_{nu_i - i + j}) over free h, by the sum over permutations."""
    out = {}
    for perm in permutations(range(len(nu))):
        ks = [part - i + perm[i] for i, part in enumerate(nu)]
        if ks and min(ks) < 0:
            continue
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        mono = tuple(sorted(k for k in ks if k))
        out[mono] = out.get(mono, 0) + (-1) ** inversions
    return {mono: c for mono, c in out.items() if c}


def in_free_h(value):
    """A Schur-basis element over free h: sorted h indices of a monomial -> coefficient."""
    out = {}
    for nu, a in value.items():
        for mono, c in jacobi_trudi(nu).items():
            out[mono] = out.get(mono, 0) + a * c
    return {mono: c for mono, c in out.items() if c}


def as_monomials(poly):
    """A polynomial over _free_batch's table h1..hD as in_free_h words it."""
    return {
        tuple(k for k, e in enumerate(exps, 1) for _ in range(e)): c for exps, c in poly.terms()
    }


def schur_basis_sides(theorem):
    """Both sides in the Schur basis."""
    return [side_in_schur_basis(side) for side in theorem]


def theorems():
    """The 176 fold theorems with a, m <= 4 and the 360 dc theorems with |lam| <= 6."""
    out = []
    for tag in FoldingTag:
        case = FoldingCase(tag, 2, 2)  # every a, m <= 4 rectangle is in its hook
        for branch in branches(case):
            for a in range(1, 5):
                for m in range(1, 5):
                    out.append(((tag.value, branch.name, a, m), fold_theorem(case, branch, a, m)))
    for relation in DC_RELATIONS:
        for xi in (1, -1) if relation in XI_RELATIONS else (1,):
            for lam in partitions_upto(6):
                out.append(((relation, xi, lam), dc_theorem(relation, lam, xi)))
    return out


def test_every_free_proof_holds_in_the_schur_basis():
    checked = theorems()
    assert len(checked) == 176 + 360
    for name, theorem in checked:
        sides = schur_basis_sides(theorem)
        assert sides[0] == sides[1], name
        free = _free_batch([theorem])[0]
        assert [in_free_h(side) for side in sides] == [as_monomials(s) for s in free], name


def wrong_bracket(theorem):
    lhs, (x_consts, y_consts, mapping, rule, weighted) = theorem
    return lhs, (x_consts, y_consts, mapping, OTHER_BRACKET[rule], weighted)


def flipped_x_const(theorem):
    lhs, (x_consts, y_consts, mapping, rule, weighted) = theorem
    return lhs, (tuple(-c for c in x_consts), y_consts, mapping, rule, weighted)


@pytest.mark.parametrize(
    "mutate, applies, fails",
    [
        # every right side has a SQUARE or ANGLE bracket
        (wrong_bracket, lambda theorem: True, 477),
        # the two that still hold are the empty shape's, 1 = 1
        (flipped_x_const, lambda theorem: bool(theorem[1][0]), 122),
    ],
    ids=["bracket", "x-const"],
)
def test_a_mutated_theorem_fails_in_the_schur_basis_as_it_fails_free(mutate, applies, fails):
    failed = 0
    for name, theorem in theorems():
        if not applies(theorem):
            continue
        mutant = mutate(theorem)
        sides = schur_basis_sides(mutant)
        free = _free_batch([mutant])[0]
        assert [in_free_h(side) for side in sides] == [as_monomials(s) for s in free], name
        proved = sides[0] == sides[1]
        assert proved == proved_free_all([mutant])[0], name
        failed += not proved
    assert failed == fails


def test_the_schur_basis_constants_match_the_series_constants():
    # c joining X multiplies the series by 1/(1 - c t), joining Y by (1 - c t):
    # on h_k = s_(k) these give sum_j c^j h_{k-j} and h_k - c h_{k-1}.
    def row(j):
        return (j,) if j else ()

    for c in (1, -1):
        for k in range(1, 6):
            want = {row(j): c ** (k - j) for j in range(k + 1)}
            assert with_constant({(k,): 1}, c, False) == want
            assert with_constant({(k,): 1}, c, True) == {(k,): 1, row(k - 1): -c}
