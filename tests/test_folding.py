import hashlib
import json
from dataclasses import replace

import pytest

from superchar import clear_caches, folding, laurent, lr, schur, verify
from superchar.folding import (
    DC_RELATIONS,
    FoldingCase,
    FoldingTag,
    _free_batch,
    ambient_hook,
    branches,
    dc_theorem,
    decomposition_rhs,
    fold_alphabets,
    fold_theorem,
    general_dc_check,
    get_branch,
    kr_supercharacter,
    pair_sides,
    proved_free_all,
    require_in_hook,
    verify_decomposition,
)
from superchar.laurent import Accumulator, LaurentPoly, VarTable, det
from superchar.lr import lr_coeff
from superchar.report import _first_failures, poly_comparison
from superchar.partitions import (
    PartitionClass,
    RectSubset,
    contains,
    enumerate_rect_subset,
    in_class,
    in_hook,
    partitions_inside,
    partitions_of,
    partitions_upto,
    size,
)
from superchar.schur import (
    Alphabet,
    BracketType,
    ETable,
    bracket_schur,
    graded_parts,
    in_x,
    super_schur,
)
from superchar.verify import cauchy_alphabets, fold_cases

from faults import (
    U1_IN_E_FACTOR,
    U1_IN_FORMAL_FACTOR,
    det_plus,
    entry_plus_h,
    h1_plus_one,
    inject,
)


def branch_alphabets(case, branch):
    """The case's palindromic pair with the branch's x constant adjoined to X."""
    X, Y = folding._palindromic_pair(case)
    return folding._with_consts(X, folding._branch_x_consts(branch)), Y


def one_var_poly(terms):
    return LaurentPoly(VarTable(("x1",)), terms)


def test_fold_alphabets_examples():
    X, Y = fold_alphabets(FoldingCase(FoldingTag.B1, 1, 0))
    assert X.describe() == ["x1", "x1^-1"]
    assert Y.describe() == ["-1"]

    X, Y = fold_alphabets(FoldingCase(FoldingTag.A2_ODD, 1, 0))
    assert X.describe() == ["x1", "x1^-1", "1"]
    assert Y.describe() == []

    X, Y = fold_alphabets(FoldingCase(FoldingTag.D1, 2, 0))
    assert sorted(X.describe()) == ["x1", "x1^-1", "x2", "x2^-1"]
    assert sorted(Y.describe()) == ["-1", "1"]

    X, Y = fold_alphabets(FoldingCase(FoldingTag.D2, 2, 1))
    assert len(X) == 3 and len(Y) == 3  # one x pair plus a constant on each side


# The module docstring's case table written out: X constants, Y constants,
# the ambient hook at (r, s), and each branch as (name, subset, bracket,
# x_const, alternating).  D2's x~ has r - 1 variables.
DOCSTRING_CASES = {
    "B1": ((), (-1,), lambda r, s: (2 * r, 2 * s + 1),
           [("B", "colpaired", "square", 1, False), ("D", "box", "square", None, False)]),
    "A2_EVEN": ((), (1,), lambda r, s: (2 * r, 2 * s + 1),
                [("Bprime", "colpaired", "square", -1, False), ("D", "box", "square", None, True)]),
    "A2_ODD": ((1,), (), lambda r, s: (2 * r + 1, 2 * s),
               [("B", "evenrow", "square", 1, False), ("C", "box", "angle", None, False)]),
    "A2_EE": ((), (), lambda r, s: (2 * r, 2 * s),
              [("D", "evenrow", "square", None, False), ("C", "colpaired", "angle", None, False)]),
    "D1": ((), (1, -1), lambda r, s: (2 * r, 2 * s + 2),
           [("D", "colpaired", "square", None, False)]),
    "SPO": ((1, -1), (), lambda r, s: (2 * r + 2, 2 * s),
            [("C", "evenrow", "angle", None, False)]),
    "D2": ((1,), (-1,), lambda r, s: (2 * r, 2 * s + 2),
           [("B", "box", "square", 1, False)]),
}


def palindrome_names(letter, count):
    names = [f"{letter}{i}" for i in range(1, count + 1)]
    return names + [f"{name}^-1" for name in names]


def test_case_table_matches_the_docstring():
    cases = fold_cases(3)
    assert {case.tag.value for case in cases} == set(DOCSTRING_CASES)
    for case in cases:
        x_consts, y_consts, hook, rows = DOCSTRING_CASES[case.tag.value]
        xs = palindrome_names("x", case.r - 1 if case.tag is FoldingTag.D2 else case.r)
        ys = palindrome_names("y", case.s)
        X, Y = fold_alphabets(case)
        assert X.describe() == xs + [str(c) for c in x_consts], case
        assert Y.describe() == ys + [str(c) for c in y_consts], case
        assert ambient_hook(case) == hook(case.r, case.s), case
        got = [
            (b.name, b.subset.value, b.bracket.value, b.x_const, b.alternating)
            for b in branches(case)
        ]
        assert got == rows, case
        for b in branches(case):
            X, Y = branch_alphabets(case, b)
            assert X.describe() == xs + ([] if b.x_const is None else [str(b.x_const)]), case
            assert Y.describe() == ys, case


def test_a_fold_request_builds_each_palindromic_base_once(monkeypatch):
    # The fold pair and the branch pair share their constant-free bases.
    calls = []
    real = folding.palindromic

    def spy(table, names):
        calls.append(names)
        return real(table, names)

    monkeypatch.setattr(folding, "palindromic", spy)
    for case in fold_cases(2):
        if not in_hook((1,), *ambient_hook(case)):
            continue
        for branch in branches(case):
            clear_caches()
            calls.clear()
            assert verify_decomposition(case, branch, 1, 1).passed
            assert len(calls) == 2, (case, branch.name)
    clear_caches()


def test_dc_relation_table_is_pinned():
    assert DC_RELATIONS == (
        "plain_to_square",
        "plain_to_angle",
        "yconst_to_square_shifted",
        "yconst_to_square_signed",
        "xconst_to_angle_shifted",
        "xconst_to_angle_signed",
        "ypair_to_square",
        "xpair_to_angle",
    )
    assert folding.XI_RELATIONS == {
        "yconst_to_square_shifted",
        "yconst_to_square_signed",
        "xconst_to_angle_shifted",
        "xconst_to_angle_signed",
    }


def test_case_validation():
    with pytest.raises(ValueError):
        FoldingCase(FoldingTag.D2, 0, 1)
    with pytest.raises(ValueError):
        FoldingCase(FoldingTag.B1, -1, 0)
    for tag in ("B1", None, BracketType.SQUARE):
        with pytest.raises(ValueError, match="FoldingTag") as err:
            FoldingCase(tag, 1, 0)
        assert "\n" not in str(err.value)


@pytest.mark.parametrize("r, s", [(1.5, 0), (True, 0), (1, 1.0), (1, "0"), (1, False)])
def test_case_parameters_must_be_exact_ints(r, s):
    with pytest.raises(ValueError):
        FoldingCase(FoldingTag.B1, r, s)


@pytest.mark.parametrize("a, m", [(1.0, 1), (1, 2.5), (True, 1), (1, "1"), (0.0, 1)])
def test_rectangle_parameters_must_be_exact_ints(a, m):
    case = FoldingCase(FoldingTag.B1, 1, 0)
    with pytest.raises(ValueError):
        kr_supercharacter(case, a, m)
    with pytest.raises(ValueError):
        require_in_hook(case, a, m)
    with pytest.raises(ValueError):
        decomposition_rhs(case, get_branch(case, "D"), a, m)


def test_kr_vector_example():
    case = FoldingCase(FoldingTag.B1, 1, 0)
    value = kr_supercharacter(case, 1, 1)
    assert value == one_var_poly({(1,): 1, (0,): 1, (-1,): 1})
    assert value.eval_all_ones() == 3

    case = FoldingCase(FoldingTag.A2_EE, 1, 0)
    value = kr_supercharacter(case, 1, 1)
    assert value == one_var_poly({(1,): 1, (-1,): 1})
    assert value.eval_all_ones() == 2


def test_kr_empty_rectangle(monkeypatch):
    def refuse(case, a, m):
        raise AssertionError(f"hook consulted for {a} x {m}")

    monkeypatch.setattr(folding, "require_in_hook", refuse)
    for tag in FoldingTag:
        case = FoldingCase(tag, 1, 1)
        assert kr_supercharacter(case, 1, 0) == 1
        assert kr_supercharacter(case, 0, 3) == 1


def test_kr_rejects_out_of_hook():
    case = FoldingCase(FoldingTag.A2_EE, 1, 0)  # hook [2, 0]
    with pytest.raises(ValueError) as through_kr:
        kr_supercharacter(case, 3, 1)
    with pytest.raises(ValueError) as direct:
        require_in_hook(case, 3, 1)
    assert str(through_kr.value) == str(direct.value)
    assert str(direct.value) == "rectangle 3 x 1 lies outside the [2,0] hook of A2_EE"
    require_in_hook(case, 2, 5)  # inside the hook: no error


def test_rhs_type_b_column_pair_example():
    case = FoldingCase(FoldingTag.B1, 1, 0)
    branch = get_branch(case, "B")
    value = decomposition_rhs(case, branch, 1, 2)
    assert value == one_var_poly({(2,): 1, (1,): 1, (0,): 1, (-1,): 1, (-2,): 1})


def test_rhs_alternating_example():
    case = FoldingCase(FoldingTag.A2_EVEN, 1, 0)
    branch = get_branch(case, "D")
    # sum over the two shapes in the 1 x 1 box with signs (-1)^(1+|lam|)
    value = decomposition_rhs(case, branch, 1, 1)
    assert value == one_var_poly({(1,): 1, (-1,): 1, (0,): -1})
    assert value == kr_supercharacter(case, 1, 1)


def test_rhs_rejects_foreign_branch():
    b1 = FoldingCase(FoldingTag.B1, 1, 0)
    other = get_branch(FoldingCase(FoldingTag.SPO, 1, 0), "C")
    with pytest.raises(ValueError):
        decomposition_rhs(b1, other, 1, 1)
    with pytest.raises(ValueError):
        get_branch(b1, "C")


def test_rhs_empty_rectangle():
    case = FoldingCase(FoldingTag.D1, 1, 0)
    branch = get_branch(case, "D")
    assert decomposition_rhs(case, branch, 0, 2) == 1


def test_verify_decomposition_examples():
    rep = verify_decomposition(
        FoldingCase(FoldingTag.B1, 1, 0), get_branch(FoldingCase(FoldingTag.B1, 1, 0), "B"), 1, 2
    )
    assert rep.passed

    case = FoldingCase(FoldingTag.A2_EE, 2, 1)
    rep = verify_decomposition(case, get_branch(case, "D"), 2, 2)
    assert rep.passed

    case = FoldingCase(FoldingTag.D2, 2, 0)
    rep = verify_decomposition(case, get_branch(case, "B"), 1, 1)
    assert rep.passed


def test_branch_alphabets_keep_y_palindrome():
    case = FoldingCase(FoldingTag.B1, 1, 1)
    X, Y = branch_alphabets(case, get_branch(case, "B"))
    assert len(X) == 3  # x1, 1, x1^-1
    assert len(Y) == 2  # y1, y1^-1


def test_decomposition_sweep_small():
    for tag in FoldingTag:
        for r, s in ((1, 0), (0, 1), (1, 1)):
            try:
                case = FoldingCase(tag, r, s)
            except ValueError:
                continue
            M, N = ambient_hook(case)
            for branch in branches(case):
                for a in (1, 2):
                    for m in (1, 2):
                        if not in_hook((m,) * a, M, N):
                            continue
                        rep = verify_decomposition(case, branch, a, m)
                        assert rep.passed, (tag, r, s, branch.name, a, m)


def test_dimension_values_at_ones():
    # vector-level characters at s = 0, evaluated at all variables = 1
    expected = {
        FoldingTag.B1: lambda r: 2 * r + 1,
        FoldingTag.A2_EVEN: lambda r: 2 * r - 1,
        FoldingTag.A2_ODD: lambda r: 2 * r + 1,
        FoldingTag.A2_EE: lambda r: 2 * r,
        FoldingTag.D1: lambda r: 2 * r,
        FoldingTag.SPO: lambda r: 2 * r,
        FoldingTag.D2: lambda r: 2 * r,
    }
    for tag, fn in expected.items():
        for r in (1, 2, 3):
            case = FoldingCase(tag, r, 0)
            assert kr_supercharacter(case, 1, 1).eval_all_ones() == fn(r), (tag, r)


def test_d2_vector_summand_dimension():
    # the width-1 column summand of the D2 type-B decomposition is the odd
    # orthogonal vector representation: 2(r-1) + 1 dimensions
    for r in (2, 3, 4):
        case = FoldingCase(FoldingTag.D2, r, 0)
        branch = get_branch(case, "B")
        X, Y = branch_alphabets(case, branch)
        from superchar.schur import BracketType, bracket_schur

        vector = bracket_schur(BracketType.SQUARE, (1,), X, Y)
        assert vector.eval_all_ones() == 2 * (r - 1) + 1
        total = kr_supercharacter(case, 1, 1).eval_all_ones()
        assert total == vector.eval_all_ones() + 1  # plus the trivial summand


def test_dc_single_box_pair_example():
    X, Y, _ = cauchy_alphabets(2, 2, 1)
    rep = general_dc_check("ypair_to_square", (1,), X, Y)
    assert rep.passed


def test_dc_empty_shape():
    X, Y, _ = cauchy_alphabets(1, 1, 1)
    for relation in DC_RELATIONS:
        assert general_dc_check(relation, (), X, Y).passed


def inverses(alphabet):
    """The alphabet of each element's inverse, in order, with its sign kept."""
    return Alphabet(
        alphabet.table, tuple((s, tuple(-e for e in exps)) for s, exps in alphabet.elements)
    )


def test_dc_square_signed_workhorse():
    table = VarTable(("x1",))
    X = Alphabet.formal(table) | inverses(Alphabet.formal(table))
    Y = Alphabet.empty(table)
    rep = general_dc_check("yconst_to_square_signed", (2,), X, Y, xi=-1)
    assert rep.passed


def test_dc_rejects_bad_arguments():
    X, Y, _ = cauchy_alphabets(1, 1, 1)
    with pytest.raises(ValueError):
        general_dc_check("nonsense", (1,), X, Y)
    with pytest.raises(ValueError):
        general_dc_check("plain_to_square", (1,), X, Y, xi=2)
    # xi must be the int 1 or -1: True, 1.0 and -1.0 compare equal to it but
    # would write other report bytes.
    for xi in (True, 1.0, -1.0):
        relation = "yconst_to_square_signed"
        with pytest.raises(ValueError, match="xi must be") as err:
            general_dc_check(relation, (1,), X, Y, xi)
        assert "\n" not in str(err.value)
        with pytest.raises(ValueError, match="xi must be"):
            dc_theorem(relation, (1,), xi)


def weighted_sum(lam, weight, bracket, X, Y):
    """A dc relation's right side in x: sum of w(nu) c^lam_{nu,mu} bracket_mu(X|Y).

    One side of weights and no constants, through pair_sides.
    """
    weighted = list(folding._dc_coeffs(lam, weight).items())
    (side,) = pair_sides([((), (), list, bracket.value, weighted)], X, Y)
    return in_x(side, X.table)


def double_loop_weighted_sum(lam, weight, bracket, X, Y):
    """weighted_sum as the plain double loop over all partitions of each size."""
    total = LaurentPoly.zero(X.table)
    n = size(lam)
    for k in range(n + 1):
        for nu in partitions_of(k):
            if not contains(lam, nu):
                continue
            if isinstance(weight, PartitionClass):
                w_nu = int(in_class(nu, weight))
            else:
                w_nu = weight**k
            if not w_nu:
                continue
            for mu in partitions_of(n - k):
                if contains(lam, mu):
                    c = lr_coeff(lam, nu, mu)
                    total = total + (w_nu * c) * bracket_schur(bracket, mu, X, Y)
    return total


def test_weighted_sum_matches_the_double_loop():
    X, Y, _ = cauchy_alphabets(2, 1, 1)
    weights = (PartitionClass.EVEN_ROWS, PartitionClass.EVEN_COLUMNS, 1, -1)
    for lam in partitions_upto(6):
        for weight in weights:
            for bracket in (BracketType.SQUARE, BracketType.ANGLE):
                want = double_loop_weighted_sum(lam, weight, bracket, X, Y)
                got = weighted_sum(lam, weight, bracket, X, Y)
                assert got == want, (lam, weight, bracket)


def test_folded_character_vanishes_outside_alphabet_hook():
    for tag in FoldingTag:
        case = FoldingCase(tag, 1, 0)
        X, Y = fold_alphabets(case)
        M, N = len(X), len(Y)
        for a in range(1, 5):
            for m in range(1, 5):
                rect = (m,) * a
                if not in_hook(rect, M, N):
                    assert super_schur(rect, X, Y).is_zero, (tag, a, m)


def test_in_hook_zero_exists_for_plus_minus_pair():
    # an alphabet containing both constants +1 and -1 can kill in-hook shapes:
    # the rank-one symplectic folding vanishes on the 2 x 3 rectangle even
    # though that rectangle sits inside the four-element hook
    case = FoldingCase(FoldingTag.SPO, 1, 0)
    X, Y = fold_alphabets(case)
    assert in_hook((3, 3), len(X), len(Y))
    assert super_schur((3, 3), X, Y).is_zero


def test_folded_rectangles_satisfy_the_t_system():
    # T_{a,m}^2 = T_{a,m+1} T_{a,m-1} + T_{a+1,m} T_{a-1,m} with T_{a,m} the
    # folded character of the m^a rectangle and T_{0,m} = T_{a,0} = 1.  By
    # Desnanot-Jacobi it holds for any h-sequence, so it checks the ring
    # kernel and the Jacobi-Trudi builder, not the folding constants.
    clear_caches()  # build every T here, through det
    instances = failures = 0
    for case in fold_cases(3):
        X, Y = fold_alphabets(case)

        def T(a, m):
            return super_schur((m,) * a, X, Y) if a and m else LaurentPoly.const(X.table, 1)

        for a in range(1, 3):
            for m in range(1, 3):
                instances += 1
                lhs = T(a, m) * T(a, m)
                rhs = T(a, m + 1) * T(a, m - 1) + T(a + 1, m) * T(a - 1, m)
                failures += lhs != rhs
    assert (instances, failures) == (240, 0)


def q_system_holds(rows, rank, m):
    """Whether the C-type Q-system's two end-node identities hold at m, as a pair.

    They are (i) R_r(m) = Q_{floor(m/2)} Q_{ceil(m/2)} and (ii) Q_m^2 =
    Q_{m+1} Q_{m-1} + R_{r-1}(2m), with r = rows, over the SPO alphabet of
    the given rank at s = 0.  R_a(m) is the folded a x m rectangle, the
    EVENROW/ANGLE subset sum of the fold theorem, and Q_k the angle bracket
    of the rows x k rectangle, the sp(2 rank) irreducible; Q_0 = 1.
    """
    case = FoldingCase(FoldingTag.SPO, rank, 0)
    X, Y = folding._palindromic_pair(case)

    def R(a, m):
        return kr_supercharacter(case, a, m)

    def Q(k):
        if not k:
            return LaurentPoly.const(X.table, 1)
        return in_x(bracket_schur(BracketType.ANGLE, (k,) * rows, X, Y), X.table)

    first = R(rows, m) == Q(m // 2) * Q((m + 1) // 2)
    second = Q(m) * Q(m) == Q(m + 1) * Q(m - 1) + R(rows - 1, 2 * m)
    return first, second


def test_the_spo_end_nodes_satisfy_the_c_type_q_system():
    # The Q-system of C_r^(1) at nodes r and r - 1 (Kirillov-Reshetikhin
    # 1987; Hernandez 2006 for KR characters), with W^(r)_k the r x k angle
    # rectangle and the folded r x m rectangle the product of Q's (i).
    # Unlike the T-system these are rank-specific: the r-row rectangles over
    # the alphabet of a higher rank fail both.
    for rows, top in ((2, 3), (3, 2)):
        for m in range(1, top + 1):
            assert q_system_holds(rows, rows, m) == (True, True), (rows, m)
    for rows, rank in ((2, 3), (2, 4), (3, 4)):
        assert q_system_holds(rows, rank, 1) == (True, False), (rows, rank)
        assert q_system_holds(rows, rank, 2) == (False, False), (rows, rank)


# ---------------------------------------------------------------------------
# Folded characters against a reference computed in x
# ---------------------------------------------------------------------------

X_ENTRY = {
    BracketType.PLAIN: schur._plain_entry,
    BracketType.SQUARE: schur._square_entry,
    BracketType.ANGLE: schur._paired_angle_entry,  # halved below
}


def x_bracket(tag, lam, X, Y):
    """The bracket character in x: h_m from one linear factor 1 - u t per
    element, then the Jacobi-Trudi determinant with the library's entry rules,
    ANGLE's as the paired determinant halved."""
    if not lam:
        return LaurentPoly.const(X.table, 1)
    n = len(lam)
    factors = [(((1, x),), True) for x in X.polys()] + [(((1, y),), False) for y in Y.polys()]
    hs = graded_parts(LaurentPoly.const(X.table, 1), factors, lam[0] + n)
    zero = LaurentPoly.zero(X.table)

    def h(k):
        return hs[k] if k >= 0 else zero

    def element(base, j):
        return sum((c * h(k) for c, k in X_ENTRY[tag](base, j)), zero)

    value = det([[element(lam[i - 1] - i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])
    return value.exact_div(2) if tag is BracketType.ANGLE else value


def assert_same(got, want, label):
    assert got == want, label
    # The z route tracks its own exponent bound, which must still hold in x.
    assert all(abs(e) <= got._bound for exps, _ in got.terms() for e in exps), label


def test_folded_characters_match_the_x_reference():
    """kr_supercharacter and every branch's decomposition_rhs, r + s <= 2 and a, m <= 3."""
    clear_caches()
    for case in fold_cases(2):
        M, N = ambient_hook(case)
        for a in range(1, 4):
            for m in range(1, 4):
                if not in_hook((m,) * a, M, N):
                    continue
                label = (case, a, m)
                X, Y = fold_alphabets(case)
                want = x_bracket(BracketType.PLAIN, (m,) * a, X, Y)
                assert_same(kr_supercharacter(case, a, m), want, label)
                for branch in branches(case):
                    X, Y = branch_alphabets(case, branch)
                    want = LaurentPoly.zero(X.table)
                    for lam in enumerate_rect_subset(branch.subset, m, a):
                        term = x_bracket(branch.bracket, lam, X, Y)
                        negate = branch.alternating and (m * a + size(lam)) % 2
                        want = want - term if negate else want + term
                    assert_same(decomposition_rhs(case, branch, a, m), want, label + (branch.name,))


# ---------------------------------------------------------------------------
# The one-pass right-hand sides against the per-shape x sums they replace
# ---------------------------------------------------------------------------


def per_shape_rhs(case, branch, a, m):
    """decomposition_rhs as x-valued bracket_schur terms added one shape at a time."""
    X, Y = branch_alphabets(case, branch)
    total = LaurentPoly.zero(X.table)
    for lam in enumerate_rect_subset(branch.subset, m, a):
        term = bracket_schur(branch.bracket, lam, X, Y)
        negate = branch.alternating and (m * a + size(lam)) % 2
        total = total - term if negate else total + term
    return total


def per_shape_weighted_sum(lam, weight, bracket, X, Y):
    """weighted_sum adding w(nu) c^lam_{nu,mu} bracket_mu(X|Y) in x, one (nu, mu) at a time."""
    total = LaurentPoly.zero(X.table)
    n = size(lam)
    inside = list(partitions_inside(lam))
    for nu in inside:
        if isinstance(weight, PartitionClass):
            w_nu = int(in_class(nu, weight))
        else:
            w_nu = weight ** size(nu)
        for mu in inside:
            if w_nu and size(nu) + size(mu) == n:
                c = lr_coeff(lam, nu, mu)
                if c:
                    total = total + (w_nu * c) * bracket_schur(bracket, mu, X, Y)
    return total


def test_one_pass_rhs_matches_the_per_shape_sums():
    """Every fold request with r + s <= 2 and a, m <= 3, cold and then warm."""
    for case in fold_cases(2):
        M, N = ambient_hook(case)
        for branch in branches(case):
            for a in range(1, 4):
                for m in range(1, 4):
                    if not in_hook((m,) * a, M, N):
                        continue
                    clear_caches()
                    cold = decomposition_rhs(case, branch, a, m)
                    warm = decomposition_rhs(case, branch, a, m)
                    want = per_shape_rhs(case, branch, a, m)
                    label = (case, branch.name, a, m)
                    assert cold == want, label
                    assert warm == want, label


def test_one_pass_weighted_sums_match_the_per_shape_sums():
    """Every dc relation's right-hand side, |lam| <= 4, nx <= 2, ny <= 1, both xi."""
    clear_caches()
    for xi in (1, -1):
        for relation, (_, _, weight, bracket, xs, ys) in folding._dc_rows(xi).items():
            if xi == -1 and relation not in folding.XI_RELATIONS:
                continue
            for nx in range(3):
                for ny in range(2):
                    X, Y, _ = cauchy_alphabets(nx, ny, 1)
                    X, Y = folding._with_consts(X, xs), folding._with_consts(Y, ys)
                    for lam in partitions_upto(4):
                        got = weighted_sum(lam, weight, bracket, X, Y)
                        want = per_shape_weighted_sum(lam, weight, bracket, X, Y)
                        assert got == want, (relation, xi, nx, ny, lam)


# ---------------------------------------------------------------------------
# verify_decomposition over the e table against the z route
# ---------------------------------------------------------------------------


def fold_requests(max_rank, max_am):
    return [
        (case, branch, a, m)
        for case in fold_cases(max_rank)
        for branch in branches(case)
        for a in range(1, max_am + 1)
        for m in range(1, max_am + 1)
        if in_hook((m,) * a, *ambient_hook(case))
    ]


def on_e_table(case):
    return isinstance(schur.h_list(*fold_alphabets(case), 0)[0].table, ETable)


def report_json(request):
    """verify_decomposition's report as JSON."""
    return verify_decomposition(*request).to_json()


def explicit_report(case, branch, a, m):
    """The report with both table sides turned into x by in_x, whatever they are."""
    report = verify_decomposition(case, branch, a, m)
    X, Y = fold_alphabets(case)
    (lhs,) = pair_sides([((), (), list, "plain", [((m,) * a, 1)])], X, Y)
    lhs = in_x(lhs, X.table)
    rhs = decomposition_rhs(case, branch, a, m)
    return poly_comparison(report.check_id, report.params, lhs, rhs).to_json()


def test_e_route_reports_match_the_z_route(all_in_x):
    """Every fold request with r + s <= 2 and a, m <= 3, cold and warm, against x.

    The reference was once the z table's recurrence; it is now the x one.
    """
    requests = fold_requests(2, 3)
    cold, warm = [], []
    for request in requests:
        clear_caches()
        cold.append(report_json(request))
        warm.append(report_json(request))
    assert any(on_e_table(case) for case, *_ in requests)
    all_in_x()
    assert not any(on_e_table(case) for case, *_ in requests)
    want = [explicit_report(*request) for request in requests]
    assert cold == want
    assert warm == want


def test_a_corrupted_series_fails_alike_on_both_routes(monkeypatch, all_in_x):
    # h_1 + 1 is a different series on each side of a decomposition, so it
    # fails many of them, with the same witness on the e and the x route.
    requests = [req for req in fold_requests(3, 3) if req[0].r + req[0].s == 3]
    with inject(monkeypatch, h1_plus_one()):
        got = [report_json(req) for req in requests]
        failing = [req for req, rep in zip(requests, got) if not json.loads(rep)["pass"]]
        assert any(on_e_table(case) for case, *_ in failing)
        all_in_x()
        assert got == [report_json(req) for req in requests]


def test_a_corrupted_e_factor_fails_the_dimensions_only(monkeypatch):
    # Both sides of a decomposition share the pairs' block factor, and the
    # identities hold for any series of it, so a corrupted factor leaves the
    # decomposition reports green; the all-ones dimensions see it.
    requests = [req for req in fold_requests(3, 3) if on_e_table(req[0])]
    e_cases = [case for case in fold_cases(3) if case.s == 0 and on_e_table(case)]
    with inject(monkeypatch, U1_IN_E_FACTOR):
        failing = [rep.params for rep in verify.check_fold_dimensions(3) if not rep.passed]
        assert failing == [{"case": case.tag.value, "r": case.r} for case in e_cases]
        for request in requests:
            got = report_json(request)
            assert json.loads(got)["pass"] and got == explicit_report(*request), request


# ---------------------------------------------------------------------------
# The typical rectangles: the series route against Berele and Regev's product
# ---------------------------------------------------------------------------


def typical_rectangle_product(X, Y, m):
    """prod_{x in X, y in Y} (x - y) * (prod_{x in X} x)^(m - |Y|), by products in x alone."""
    out = LaurentPoly.const(X.table, 1)
    ys = Y.polys()
    for x in X.polys():
        for y in ys:
            out = out * (x - y)
        for _ in range(m - len(Y)):
            out = out * x
    return out


def typical_rectangle_failures():
    """The cases of fold_cases(3) but D2 whose (m^M) character is not the product, m = max(N, 1).

    For |X| = M, |Y| = N and m >= N, s_(m^M)(X|Y) is the product (Berele
    and Regev, 1987), in the sign convention of h_list's series.  Each
    case's ambient hook is [M, N] but D2's, whose [2r, 2s+2] is not.
    """
    cases = [case for case in fold_cases(3) if case.tag is not FoldingTag.D2]
    assert len(cases) == 54
    failing = []
    for case in cases:
        X, Y = fold_alphabets(case)
        M, N = len(X), len(Y)
        assert (M, N) == ambient_hook(case)
        m = max(N, 1)
        if kr_supercharacter(case, M, m) != typical_rectangle_product(X, Y, m):
            failing.append(case)
    return failing


def test_typical_rectangles_are_the_product_over_the_series_route():
    # The left side reads h_list's series (the e-of-z route, with each
    # side's constants) and a determinant at the hook's corner; the right
    # side is formed in x, so the guard sees a fault of the series route
    # that the decompositions, which hold for any series, do not.
    clear_caches()
    assert typical_rectangle_failures() == []


def test_a_corrupted_e_factor_turns_typical_rectangles_red(monkeypatch):
    with inject(monkeypatch, U1_IN_E_FACTOR):
        assert len(typical_rectangle_failures()) == 33


# ---------------------------------------------------------------------------
# The characters at the folded alphabets against a supertableau sum
# ---------------------------------------------------------------------------


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


def tableau_failures(max_size):
    """(count, failing) over the (case, lam) of fold_cases(3) with 1 <= |lam| <= max_size.

    failing lists the pairs where super_schur is not tableau_schur.
    """
    lams = [lam for lam in partitions_upto(max_size) if lam]
    failing, pairs = [], 0
    for case in fold_cases(3):
        X, Y = fold_alphabets(case)
        for lam in lams:
            pairs += 1
            if super_schur(lam, X, Y) != tableau_schur(lam, X, Y):
                failing.append((case, lam))
    return pairs, failing


def test_the_tableau_sum_counts_supertableaux():
    # With Y negated every letter weighs +1 at all ones, so the value is the
    # number of (1|1) supertableaux: two of shape (2, 1), none of (2, 2).
    table = VarTable(("x1", "y1"))
    X, Y = Alphabet.formal(table, ("x1",)), Alphabet.formal(table, ("y1",)).negated()
    assert tableau_schur((2, 1), X, Y).eval_all_ones() == 2
    assert tableau_schur((2, 2), X, Y).is_zero


def test_folded_characters_are_the_supertableau_sums():
    # Every character at the folded alphabets, D2 and s > 0 included, against
    # a sum that reads no series: a fault in h_list's series shows here even
    # where the decompositions, which hold for any series, do not see it.
    clear_caches()
    pairs, failing = tableau_failures(3)
    assert pairs == 360 and failing == []


def test_a_corrupted_e_factor_turns_folded_characters_red(monkeypatch):
    # Every case with a variable reads _e_factor; D2 at r = 1, s = 0 has none.
    with inject(monkeypatch, U1_IN_E_FACTOR):
        pairs, failing = tableau_failures(2)
    assert pairs == 180 and len(failing) == 159
    green = set(fold_cases(3)) - {case for case, _ in failing}
    assert green == {FoldingCase(FoldingTag.D2, 1, 0)}


# ---------------------------------------------------------------------------
# The dc relations over the e table of the formal x's against the x route
# ---------------------------------------------------------------------------


def dc_requests(max_lambda, max_x, max_y):
    """(relation, lam, X, Y, xi) of a dc sweep, as check_dc_sweep runs it."""
    return [
        (relation, lam, *cauchy_alphabets(nx, ny, 1)[:2], xi)
        for relation in DC_RELATIONS
        for nx in range(max_x + 1)
        for ny in range(max_y + 1)
        for xi in ((1, -1) if relation in folding.XI_RELATIONS else (1,))
        for lam in partitions_upto(max_lambda)
    ]


def on_formal_e_table(X, Y):
    table = schur.h_list(X, Y, 0)[0].table
    return isinstance(table, ETable) and not table.over_z


def dc_outcomes(monkeypatch, requests):
    """Each request's report JSON and the two x sides it handed poly_comparison."""
    sides = []
    real = folding.poly_comparison

    def capture(check_id, params, lhs, rhs):
        sides.append((lhs, rhs))
        return real(check_id, params, lhs, rhs)

    monkeypatch.setattr(folding, "poly_comparison", capture)
    try:
        return [(general_dc_check(*req).to_json(), sides.pop()) for req in requests]
    finally:
        monkeypatch.setattr(folding, "poly_comparison", real)


def test_dc_reports_match_the_x_route(monkeypatch, x_route):
    """The battery's dc sweep, |lam| <= 5, nx <= 3, ny <= 2, both xi: cold, then warm."""
    requests = dc_requests(5, 3, 2)
    clear_caches()
    cold = dc_outcomes(monkeypatch, requests)
    warm = dc_outcomes(monkeypatch, requests)
    assert any(on_formal_e_table(X, Y) for _, _, X, Y, _ in requests)
    x_route()
    assert not any(on_formal_e_table(X, Y) for _, _, X, Y, _ in requests)
    want = dc_outcomes(monkeypatch, requests)
    assert all(lhs.table == X.table for (_, (lhs, _)), (_, _, X, _, _) in zip(want, requests))
    assert cold == want
    assert warm == want


def test_a_corrupted_series_fails_the_dc_relations_alike_on_both_routes(monkeypatch, x_route):
    # h_1 + 1 is a different series for each side's constants, so it fails
    # the relations whose sides differ in them, with the same witness on
    # the formal e and the x route.
    requests = dc_requests(4, 3, 2)
    with inject(monkeypatch, h1_plus_one()):
        got = [general_dc_check(*req).to_json() for req in requests]
        failing = [req for req, rep in zip(requests, got) if not json.loads(rep)["pass"]]
        assert any(on_formal_e_table(X, Y) for _, _, X, Y, _ in failing)
        x_route()
        assert got == [general_dc_check(*req).to_json() for req in requests]


def test_a_corrupted_formal_factor_leaves_the_dc_relations_green(monkeypatch):
    # Both sides of a dc relation share the variables' factor, and the
    # relations hold for any series of it, so a corrupted factor leaves the
    # dc reports green; the x-valued characters (here the single box) see it.
    requests = [req for req in dc_requests(4, 3, 2) if on_formal_e_table(*req[2:4])]
    X, Y, _ = cauchy_alphabets(2, 1, 1)
    with inject(monkeypatch, U1_IN_FORMAL_FACTOR):
        assert all(general_dc_check(*req).passed for req in requests)
        assert super_schur((1,), X, Y) != sum(X.polys(), LaurentPoly.zero(X.table)) - Y.polys()[0]


# ---------------------------------------------------------------------------
# Theorems over free h_1..h_D
# ---------------------------------------------------------------------------


def dc_theorems(max_lambda):
    """(relation, lam, xi) of every theorem a dc sweep meets."""
    return [
        (relation, lam, xi)
        for relation in DC_RELATIONS
        for xi in ((1, -1) if relation in folding.XI_RELATIONS else (1,))
        for lam in partitions_upto(max_lambda)
    ]


def fold_theorems(max_rank, max_am):
    """(tag, branch, a, m) -> the first fold request of a fold sweep that states it."""
    out = {}
    for case, branch, a, m in fold_requests(max_rank, max_am):
        out.setdefault((case.tag, branch, a, m), (case, branch, a, m))
    return out


def dc_failures(relation, X, Y, xi, max_lambda):
    """(check_id, witness) of each shape whose general_dc_check fails, as check_dc_sweep words it."""
    for lam in partitions_upto(max_lambda):
        report = general_dc_check(relation, lam, X, Y, xi)
        if not report.passed:
            yield f"dc.{relation}", {"lam": list(lam), "diff": str(report.witness)}


def per_alphabet_dc_sweep(max_lambda, max_x, max_y):
    """check_dc_sweep as it ran before the free proofs: general_dc_check at every pair."""
    out = []
    for relation in DC_RELATIONS:
        for nx in range(max_x + 1):
            for ny in range(max_y + 1):
                X, Y, _ = cauchy_alphabets(nx, ny, 1)
                for xi in (1, -1) if relation in folding.XI_RELATIONS else (1,):
                    params = {"relation": relation, "nx": nx, "ny": ny, "xi": xi,
                              "max_lambda": max_lambda}
                    failures = dc_failures(relation, X, Y, xi, max_lambda)
                    out += _first_failures([(f"dc.{relation}", params)], failures)
    return out


def per_alphabet_fold_sweep(max_rank, max_am):
    """check_fold_sweep as it ran before the free proofs: verify_decomposition at every (r, s)."""
    return [verify_decomposition(*request) for request in fold_requests(max_rank, max_am)]


def test_every_default_sweep_theorem_is_proved_free():
    """The default suite's sweeps: every theorem proved free, every alphabet passing alike."""
    assert len(dc_theorems(5)) == 228
    assert all(proved_free_all([dc_theorem(*theorem)])[0] for theorem in dc_theorems(5))
    fold = fold_theorems(3, 3)
    assert len(fold) == 99
    assert all(proved_free_all([fold_theorem(*request)])[0] for request in fold.values())

    clear_caches()
    want = per_alphabet_dc_sweep(5, 3, 2) + per_alphabet_fold_sweep(3, 3)
    assert all(report.passed for report in want)
    got = verify.check_dc_sweep(5, 3, 2) + verify.check_fold_sweep(3, 3)
    assert verify.suite_to_json(got) == verify.suite_to_json(want)


def specialized(value, X, Y):
    """A polynomial in free h_1..h_D with each h_k sent to h_k(X|Y), in x."""
    hs = [in_x(h, X.table) for h in schur.h_list(X, Y, len(value.table))]
    acc = Accumulator(X.table)
    for exps, c in value.terms():
        term = LaurentPoly.const(X.table, c)
        for k, e in enumerate(exps, 1):
            for _ in range(e):
                term = term * hs[k]
        acc.add(term)
    return acc.value()


def test_free_sides_specialize_to_the_fold_characters():
    """Sent to the base pair's h_k, the free sides are kr_supercharacter and decomposition_rhs."""
    count = 0
    for case, branch, a, m in fold_requests(2, 3):
        X, Y = folding._palindromic_pair(case)
        lhs, rhs = _free_batch([fold_theorem(case, branch, a, m)])[0]
        assert specialized(lhs, X, Y) == kr_supercharacter(case, a, m), (case, branch, a, m)
        assert specialized(rhs, X, Y) == decomposition_rhs(case, branch, a, m), (case, branch, a, m)
        count += 1
    assert count > 200


def test_free_sides_specialize_to_the_dc_sides():
    """Sent to the base pair's h_k, the free sides are general_dc_check's two sides in x."""
    for relation, lam, xi in dc_theorems(4):
        xp, yp, weight, bracket, xs, ys = folding._DC_ROWS[xi][relation]
        lhs, rhs = _free_batch([dc_theorem(relation, lam, xi)])[0]
        for nx, ny in ((1, 1), (2, 1), (0, 2)):
            X, Y, _ = cauchy_alphabets(nx, ny, 1)
            with_consts = folding._with_consts
            want_lhs = super_schur(lam, with_consts(X, xp), with_consts(Y, yp))
            want_rhs = weighted_sum(lam, weight, bracket, with_consts(X, xs), with_consts(Y, ys))
            assert specialized(lhs, X, Y) == want_lhs, (relation, xi, lam, nx, ny)
            assert specialized(rhs, X, Y) == want_rhs, (relation, xi, lam, nx, ny)


def test_pair_sides_match_the_per_shape_x_references():
    """Every fold pool request and every dc theorem at the dc sweep's pairs, side by side.

    The fold pool is r + s <= 3 and in-hook a, m <= 4; the dc theorems are
    |lam| <= 5 at nx <= 3, ny <= 2, both xi.  Each side of the evaluator
    must be over h_list's table at the base pair with the side's constants
    adjoined, and through in_x it must equal its per-shape reference in x:
    kr_supercharacter and per_shape_rhs for a fold theorem, super_schur and
    per_shape_weighted_sum for a dc theorem.
    """
    with_consts = folding._with_consts

    def check(theorem, X, Y, want, label):
        got = pair_sides(theorem, X, Y)
        for (x_consts, y_consts, *_), side, value in zip(theorem, got, want, strict=True):
            series = schur.h_list(with_consts(X, x_consts), with_consts(Y, y_consts), 0)
            assert side.table == series[0].table, label
            assert in_x(side, X.table) == value, label

    fold = fold_requests(3, 4)
    assert len(fold) == 1412
    for case, branch, a, m in fold:
        want = [kr_supercharacter(case, a, m), per_shape_rhs(case, branch, a, m)]
        theorem = fold_theorem(case, branch, a, m)
        check(theorem, *folding._palindromic_pair(case), want, (case, branch.name, a, m))
    dc = dc_requests(5, 3, 2)
    assert len(dc) == 2736
    for relation, lam, X, Y, xi in dc:
        xp, yp, weight, bracket, xs, ys = folding._DC_ROWS[xi][relation]
        want = [
            super_schur(lam, with_consts(X, xp), with_consts(Y, yp)),
            per_shape_weighted_sum(lam, weight, bracket, with_consts(X, xs), with_consts(Y, ys)),
        ]
        check(dc_theorem(relation, lam, xi), X, Y, want, (relation, lam, X, Y, xi))


def test_the_dual_theorem_has_the_same_sides_at_the_swapped_pair(monkeypatch):
    """Every tall theorem of the fold pool and of the dc relations, |lam| <= 6, side by side.

    The fold pool's tall rectangles are a > m (r + s <= 3, a, m <= 4); the
    dc theorems take each tall lam, both xi, at four (nx, ny) pairs.  The
    dual at (Y|X), whose determinants are all smaller, must give both sides
    of the theorem at (X|Y) in x, and the report must hand poly_comparison
    that left side.
    """
    seen = []
    real = folding.poly_comparison

    def capture(check_id, params, lhs, rhs):
        seen.append(lhs)
        return real(check_id, params, lhs, rhs)

    def check(theorem, X, Y, report, args):
        ((left, _),) = theorem[0][-1]
        dual = folding._dual_theorem(theorem)
        assert all(len(lam) < len(left) for *_, weighted in dual for lam, _ in weighted), args
        want = [in_x(side, X.table) for side in pair_sides(theorem, X, Y)]
        assert [in_x(side, X.table) for side in pair_sides(dual, Y, X)] == want, args
        seen.clear()
        assert report(*args).passed and seen == want[:1], args

    monkeypatch.setattr(folding, "poly_comparison", capture)
    fold = [request for request in fold_requests(3, 4) if request[2] > request[3]]
    assert len(fold) == 537
    for case, branch, a, m in fold:
        theorem = fold_theorem(case, branch, a, m)
        X, Y = folding._palindromic_pair(case)
        check(theorem, X, Y, verify_decomposition, (case, branch, a, m))
    dc = [(relation, lam, xi) for relation, lam, xi in dc_theorems(6) if lam and len(lam) > lam[0]]
    assert len(dc) == 12 * 12  # 12 tall shapes, 12 (relation, xi)
    for nx, ny in ((0, 2), (2, 1), (3, 0), (3, 2)):
        X, Y, _ = cauchy_alphabets(nx, ny, 1)
        for relation, lam, xi in dc:
            check(dc_theorem(relation, lam, xi), X, Y, general_dc_check, (relation, lam, X, Y, xi))


def test_every_default_sweep_theorem_stays_proved_free_as_its_dual():
    theorems = [dc_theorem(*theorem) for theorem in dc_theorems(5)]
    theorems += [fold_theorem(*request) for request in fold_theorems(3, 3).values()]
    assert all(proved_free_all(folding._dual_theorem(theorem) for theorem in theorems))


def test_the_dual_theorem_refuses_a_side_it_cannot_map():
    side = ((), (), list, "plain", [((2, 1), 1)])
    assert folding._dual_theorem((side,)) == (((), (), list, "plain", [((2, 1), -1)]),)
    with pytest.raises(ValueError, match="no dual"):
        folding._dual_theorem((((), (), verify._reciprocal, "plain", [((1,), 1)]),))
    with pytest.raises(ValueError, match="no dual"):
        folding._dual_theorem((((), (), list, "paired_angle", [((1,), 1)]),))


@pytest.mark.parametrize("rule", ["square", "angle"])
def test_a_tall_request_reads_the_dual_rule(monkeypatch, rule):
    """A corrupted entry rule turns red the wide requests of its bracket and the tall of the other.

    At a = 3, m = 2 the A2_ODD case's B branch (square) and C branch
    (angle) are evaluated on their duals, so they read the other rule; at
    a = 2, m = 3 they read their own.
    """
    case = FoldingCase(FoldingTag.A2_ODD, 2, 0)
    with inject(monkeypatch, entry_plus_h(f"_{rule}_entry", lambda base, j: base + j)):
        for name in ("B", "C"):
            own = get_branch(case, name).bracket.value == rule
            assert verify_decomposition(case, get_branch(case, name), 2, 3).passed != own, name
            assert verify_decomposition(case, get_branch(case, name), 3, 2).passed == own, name


@pytest.mark.parametrize("rule", ["square", "angle"])
def test_a_square_request_takes_the_dual_when_x_has_more_variables(monkeypatch, rule):
    """A square rectangle's orientation is chosen by the variables of each alphabet.

    The A2_ODD 2x2 request at (r, s) = (2, 0) has four x variables and no
    y, so it is evaluated on its dual and a corrupted entry rule turns red
    the other bracket's branch.  At (0, 2) X has fewer variables, and at
    (1, 1) the tie keeps the forward theorem: each branch reads its own rule.
    """
    with inject(monkeypatch, entry_plus_h(f"_{rule}_entry", lambda base, j: base + j)):
        for (r, s), dual in (((2, 0), True), ((0, 2), False), ((1, 1), False)):
            case = FoldingCase(FoldingTag.A2_ODD, r, s)
            for name in ("B", "C"):
                own = get_branch(case, name).bracket.value == rule
                passed = verify_decomposition(case, get_branch(case, name), 2, 2).passed
                assert passed == (own == dual), (r, s, name)


def mutate_branch(monkeypatch, tag, branch, mutant):
    """Put mutant in place of branch in the tag's row of the case table."""
    row = folding._CASES[tag]
    swapped = tuple(mutant if b == branch else b for b in row.branches)
    monkeypatch.setitem(folding._CASES, tag, row._replace(branches=swapped))


def free_outcomes(monkeypatch, mutate):
    """(tag, branch, a, m) -> the free proof of each default-sweep theorem, branch mutated.

    Branches that mutate gives None for are left out.
    """
    out = {}
    for (tag, branch, a, m), (case, *_) in fold_theorems(3, 3).items():
        mutant = mutate(branch)
        if mutant is None:
            continue
        with monkeypatch.context() as patch:
            mutate_branch(patch, tag, branch, mutant)
            out[tag, branch, a, m] = proved_free_all([fold_theorem(case, mutant, a, m)])[0]
    return out


OTHER_BRACKET = {BracketType.SQUARE: BracketType.ANGLE, BracketType.ANGLE: BracketType.SQUARE}
SUBSETS = list(RectSubset)


def other_subset(branch, k):
    return replace(branch, subset=SUBSETS[(SUBSETS.index(branch.subset) + k) % len(SUBSETS)])


def same_shapes(branch, k, a, m):
    """Whether other_subset(branch, k) holds the branch's shapes of the a x m rectangle."""
    mutant = other_subset(branch, k)
    return enumerate_rect_subset(mutant.subset, m, a) == enumerate_rect_subset(branch.subset, m, a)


BRANCH_MUTATIONS = [
    # a flipped x constant fails every theorem of the four branches with one
    (
        lambda b: b.x_const and replace(b, x_const=-b.x_const),
        lambda b, a, m: False,
    ),
    # the other bracket fails all but the 1 x 1 box
    (lambda b: replace(b, bracket=OTHER_BRACKET[b.bracket]), lambda b, a, m: a * m == 1),
    # another rectangle subset fails wherever it holds other shapes
    *(
        (lambda b, k=k: other_subset(b, k), lambda b, a, m, k=k: same_shapes(b, k, a, m))
        for k in (1, 2)
    ),
    # the sizes of COLPAIRED and EVENROW shapes have the parity of m a, so
    # a flipped alternating sign fails the BOX branches alone
    (
        lambda b: replace(b, alternating=not b.alternating),
        lambda b, a, m: b.subset is not RectSubset.BOX,
    ),
]


@pytest.mark.parametrize(
    "mutate, still_proved",
    BRANCH_MUTATIONS,
    ids=["x-const", "bracket", "subset-1", "subset-2", "alternating"],
)
def test_a_mutated_branch_fails_the_free_check(monkeypatch, mutate, still_proved):
    outcomes = free_outcomes(monkeypatch, lambda b: mutate(b) or None)
    assert sum(not proved for proved in outcomes.values()) >= 36
    for (tag, branch, a, m), proved in outcomes.items():
        assert proved == still_proved(branch, a, m), (tag, branch.name, a, m)


SWAPPED_CLASS = {
    PartitionClass.EVEN_ROWS: PartitionClass.EVEN_COLUMNS,
    PartitionClass.EVEN_COLUMNS: PartitionClass.EVEN_ROWS,
}


def swap_classes(row):
    """The row with EVEN_ROWS and EVEN_COLUMNS swapped in its weight, or None for a sign weight."""
    xp, yp, weight, *rest = row
    return (xp, yp, SWAPPED_CLASS[weight], *rest) if weight in SWAPPED_CLASS else None


def negate_sign(row):
    """The row with its sign weight negated, or None for a class weight."""
    xp, yp, weight, *rest = row
    return None if isinstance(weight, PartitionClass) else (xp, yp, -weight, *rest)


RELATION_MUTATIONS = [
    # () and (1) have no nonempty nu in either class, and the self-conjugate
    # (2, 1) has a conjugation-symmetric sum, so the swap leaves them proved
    (swap_classes, {(), (1,), (2, 1)}),
    # nu = () is all of lam = ()'s sum, and w(()) = 1 whatever the sign
    (negate_sign, {()}),
]


@pytest.mark.parametrize(
    "mutate, still_proved", RELATION_MUTATIONS, ids=["swapped-classes", "negated-sign"]
)
def test_a_mutated_relation_fails_the_free_check(monkeypatch, mutate, still_proved):
    count = 0
    for relation, lam, xi in dc_theorems(5):
        mutant = mutate(folding._DC_ROWS[xi][relation])
        if mutant is None:
            continue
        with monkeypatch.context() as patch:
            patch.setitem(folding._DC_ROWS[xi], relation, mutant)
            assert proved_free_all([dc_theorem(relation, lam, xi)])[0] == (lam in still_proved), (
                relation, xi, lam
            )
        count += 1
    assert count >= 76


def test_a_mutated_fold_sweep_falls_back_to_the_per_alphabet_reports(monkeypatch):
    """Unproved theorems give the per-alphabet reports, witnesses included."""
    b1, ee = FoldingCase(FoldingTag.B1, 1, 0), FoldingCase(FoldingTag.A2_EE, 1, 0)
    b1_b, ee_c = get_branch(b1, "B"), get_branch(ee, "C")
    mutate_branch(monkeypatch, FoldingTag.B1, b1_b, replace(b1_b, x_const=-1))
    mutate_branch(monkeypatch, FoldingTag.A2_EE, ee_c, replace(ee_c, bracket=BracketType.SQUARE))
    clear_caches()
    try:
        want = per_alphabet_fold_sweep(2, 3)
        got = verify.check_fold_sweep(2, 3)
    finally:
        monkeypatch.undo()
        clear_caches()
    failing = {(r.params["case"], r.params["branch"]) for r in want if not r.passed}
    assert failing == {("B1", "B"), ("A2_EE", "C")}
    assert verify.suite_to_json(got) == verify.suite_to_json(want)


def test_a_mutated_dc_sweep_falls_back_to_the_per_alphabet_reports(monkeypatch):
    """Unproved theorems give the per-alphabet reports, witnesses included."""
    for relation, mutate in (("plain_to_square", swap_classes),
                             ("xconst_to_angle_signed", negate_sign)):
        for xi in (1, -1) if relation in folding.XI_RELATIONS else (1,):
            rows = folding._DC_ROWS[xi]
            monkeypatch.setitem(rows, relation, mutate(rows[relation]))
    clear_caches()
    try:
        want = per_alphabet_dc_sweep(4, 2, 1)
        got = verify.check_dc_sweep(4, 2, 1)
    finally:
        monkeypatch.undo()
        clear_caches()
    failing = {r.params["relation"] for r in want if not r.passed}
    assert failing == {"plain_to_square", "xconst_to_angle_signed"}
    assert verify.suite_to_json(got) == verify.suite_to_json(want)


def double_a_skew_filling(monkeypatch):
    """lr._fillings yields the first filling of every unmarked pass over lam/(2, 2) twice."""
    real = lr._fillings

    def doubled(lam, nu, caps, marked):
        for k, filling in enumerate(real(lam, nu, caps, marked)):
            yield filling
            if k == 0 and not marked and nu == (2, 2):
                yield filling

    monkeypatch.setattr(lr, "_fillings", doubled)


def test_a_doubled_skew_filling_turns_the_class_weighted_dc_relations_red(monkeypatch):
    """One extra filling of lam/(2, 2) breaks each class-weighted theorem on a lam over (2, 2).

    The class weights' sums are lr._class_table's skew passes, so the
    request route fails exactly those theorems, the sweep's free proof
    proves none of them, and its pair_report fallback gives the
    per-alphabet reports, witnesses included.  The sign weights read the
    marked pass of lr_table and stay green.
    """
    theorems = dc_theorems(5)
    X, Y, _ = cauchy_alphabets(2, 1, 1)
    double_a_skew_filling(monkeypatch)
    clear_caches()
    try:
        requests = {(r, lam, xi): general_dc_check(r, lam, X, Y, xi).passed for r, lam, xi in theorems}
        proved = proved_free_all(dc_theorem(r, lam, xi) for r, lam, xi in theorems)
        want = per_alphabet_dc_sweep(5, 2, 1)
        got = verify.check_dc_sweep(5, 2, 1)
    finally:
        monkeypatch.undo()
        clear_caches()
    by_class = {r for r, row in folding._DC_ROWS[1].items() if isinstance(row[2], PartitionClass)}
    corrupted = {(r, lam, xi) for r, lam, xi in theorems if r in by_class and contains(lam, (2, 2))}
    assert len(by_class) == 6 and len(corrupted) == 8 * 3  # lam = (2, 2), (3, 2), (2, 2, 1)
    assert {key for key, passed in requests.items() if not passed} == corrupted
    assert {key for key, p in zip(theorems, proved) if not p} == corrupted
    assert {r.params["relation"] for r in want if not r.passed} == by_class
    assert verify.suite_to_json(got) == verify.suite_to_json(want)


def mutated_theorems(monkeypatch):
    """Every default-sweep theorem under each BRANCH_MUTATIONS and RELATION_MUTATIONS mutation."""
    out = []
    for mutate, _ in BRANCH_MUTATIONS:
        for (tag, branch, a, m), (case, *_) in fold_theorems(3, 3).items():
            mutant = mutate(branch)
            if mutant:
                with monkeypatch.context() as patch:
                    mutate_branch(patch, tag, branch, mutant)
                    out.append(fold_theorem(case, mutant, a, m))
    for mutate, _ in RELATION_MUTATIONS:
        for relation, lam, xi in dc_theorems(5):
            mutant = mutate(folding._DC_ROWS[xi][relation])
            if mutant is not None:
                with monkeypatch.context() as patch:
                    patch.setitem(folding._DC_ROWS[xi], relation, mutant)
                    out.append(dc_theorem(relation, lam, xi))
    return out


def invariant_theorems():
    """Each verify._invariant_table row's theorems at |lam| <= 5, then one false one per row.

    The false one is the row's first comparison at (2, 1) with its right
    side negated.
    """
    true, false = [], []
    for mapping, comparisons, _ in verify._invariant_table().values():
        for comparison in comparisons:
            for lam in partitions_upto(5)[1:]:
                true.append(verify._comparison_theorem(mapping, comparison, lam))
        lhs, (*key, [(lam, w)]) = verify._comparison_theorem(mapping, comparisons[0], (2, 1))
        false.append((lhs, (*key, [(lam, -w)])))
    return true + false


@pytest.mark.parametrize("fault", [None, det_plus(1, size=2)], ids=["healthy", "two-row-det"])
def test_the_batch_proves_each_theorem_as_the_batch_of_one_does(monkeypatch, fault):
    """proved_free_all of the batch against each theorem's batch of one, in three orders.

    The theorems are the default sweeps' and their mutants, with the Schur
    invariant table's mixed in among them, sharing side keys (constants,
    mapping, rule) with the dc theorems.  An unproved theorem put first
    must not change any later verdict, nor may a faulty two-row determinant
    that the batch stores once for many theorems.
    """
    theorems = [dc_theorem(*theorem) for theorem in dc_theorems(5)]
    theorems += [fold_theorem(*request) for request in fold_theorems(3, 3).values()]
    theorems += mutated_theorems(monkeypatch)
    invariant = invariant_theorems()
    assert len(theorems) == 987 and len(invariant) == 5 * 18 + 4
    fold_dc, table = ({side[:4] for t in family for side in t} for family in (theorems, invariant))
    assert {((), (), list, rule) for rule in ("plain", "square", "angle")} <= fold_dc & table
    theorems[400:400] = invariant
    with inject(monkeypatch, fault):
        alone = [proved_free_all([theorem])[0] for theorem in theorems]
        assert proved_free_all(theorems) == alone
        assert proved_free_all(theorems[::-1]) == alone[::-1]
        first = theorems[alone.index(False)]
        assert proved_free_all([first] + theorems) == [False] + alone
    # the invariant table adds its 4 false theorems, and 31 under the fault
    assert alone.count(False) == (694 + 31 if fault else 551 + 4)


# Under det + shift every determinant gains shift, so each evaluated side
# gains shift times its weight sum over its nonempty shapes, and the shift
# cancels wherever the two sums agree.  The sweeps' free proof is fooled
# wherever the forward theorem's sums agree, and each theorem it does not
# prove is checked on the forward theorem (folding.pair_report), so both
# sweeps read byte for byte as they did before tall requests took their
# dual: the sha256 of suite_to_json for (dc, fold), per shift, with 72 of
# 72 dc and 264 of 448 fold reports red.
DET_SHIFT_SWEEP_SHA256 = {
    1: ("10665c5a82f7cfd0f5d3722a9b0742af60e369cddcdfa32d9bdfa462c0a30e09",
        "3ee9093fd4008e8654971b1a0e08233cf9f111eed86400993661d617fe8b91ba"),
    2: ("4e2d8d838da5a409053796feb00285d7c1a30ea2305abdff3f2ba06737fcb2e8",
        "ff902fa7883d3a5d664db64fa695755cb4aa8719c3d102bb0077735bc6a6ff2a"),
}

# The dc sweep's reports are verdict by verdict those of the request route
# (general_dc_check at every pair), but a square lam at nx > ny is evaluated
# on its dual there, so 12 of its witnesses differ: the sha256 of the request
# route's dc suite_to_json, per shift.
DET_SHIFT_REQUEST_DC_SHA256 = {
    1: "85836291cb57aac7ec5c84ddbc7af09281a9663447ad11cbdfeb180c4613f7ef",
    2: "732b0b78554d2eff3362ff3d8929de38121ced298e6b05f2ff42b18f91bb2335",
}

# The fold reports, as (check_id, r, s, a, m), on which the request route
# (verify_decomposition, which takes the dual of a tall rectangle, and of a
# square one when X has more variables than Y, r > s) differs from the sweep
# under det + shift.  Red on the request route alone: those fold.A2_EVEN.D
# rectangles, whose dual weights w (-1)^|lam| no longer sum alike.  Red in
# the sweep alone: those non-alternating BOX reports, whose forward sums
# differ but whose dual's agree.
DET_SHIFT_PER_ALPHABET_RED = [
    ("fold.A2_EVEN.D", *params) for params in (
        (0, 1, 3, 1), (0, 1, 3, 2), (0, 2, 3, 1), (0, 2, 3, 2), (1, 0, 2, 2),
        (1, 0, 3, 1), (1, 1, 3, 1), (1, 1, 3, 2), (2, 0, 2, 2), (2, 0, 3, 1),
        (2, 0, 3, 2), (2, 0, 3, 3),
    )
]
DET_SHIFT_SWEEP_RED = [
    ("fold.B1.D", *params) for params in (
        (0, 1, 3, 1), (0, 1, 3, 2), (0, 2, 3, 1), (0, 2, 3, 2), (1, 0, 2, 2),
        (1, 0, 3, 1), (1, 1, 3, 1), (1, 1, 3, 2), (2, 0, 2, 2), (2, 0, 3, 1),
        (2, 0, 3, 2), (2, 0, 3, 3),
    )
] + [
    ("fold.A2_ODD.C", r, s, 3, m)
    for r, s in ((0, 1), (0, 2), (1, 0), (1, 1), (2, 0)) for m in (1, 2)
] + [
    ("fold.A2_ODD.C", *params)
    for params in ((1, 0, 2, 2), (1, 0, 3, 3), (2, 0, 2, 2), (2, 0, 3, 3))
] + [
    ("fold.D2.B", r, s, 3, m) for r, s in ((1, 0), (1, 1), (2, 0)) for m in (1, 2)
] + [
    ("fold.D2.B", *params) for params in ((2, 0, 2, 2), (2, 0, 3, 3))
]


@pytest.mark.parametrize("shift", [1, 2])
def test_a_det_fault_turns_the_sweeps_red(monkeypatch, shift):
    """The power_det tests' det + 1 fault, at both det sites, and det + 2.

    Under either shift each sweep reads as it did before tall requests took
    their dual (DET_SHIFT_SWEEP_SHA256), many of its reports red: no
    character on their path is divided.  The dc requests give the sweep's
    verdicts (DET_SHIFT_REQUEST_DC_SHA256 pins their witnesses); the fold
    requests differ on DET_SHIFT_PER_ALPHABET_RED and DET_SHIFT_SWEEP_RED
    alone.
    """
    with inject(monkeypatch, det_plus(shift, laurent), det_plus(shift, schur)):
        dc, fold = verify.check_dc_sweep(4, 2, 1), verify.check_fold_sweep(2, 3)
        digests = tuple(
            hashlib.sha256(verify.suite_to_json(reports).encode()).hexdigest()
            for reports in (dc, fold)
        )
        assert digests == DET_SHIFT_SWEEP_SHA256[shift]
        requests = per_alphabet_dc_sweep(4, 2, 1)
        assert [(r.check_id, r.params, r.passed) for r in requests] == [
            (r.check_id, r.params, r.passed) for r in dc
        ]
        request_digest = hashlib.sha256(verify.suite_to_json(requests).encode()).hexdigest()
        assert request_digest == DET_SHIFT_REQUEST_DC_SHA256[shift]
        red_alone = {True: [], False: []}  # red on the request route alone, in the sweep alone
        for got, want in zip(fold, per_alphabet_fold_sweep(2, 3), strict=True):
            # A report red on both routes may differ in its witness: under
            # the fault the dual's sides are not the forward sides.
            assert (got.check_id, got.params) == (want.check_id, want.params)
            if got.passed != want.passed:
                red_alone[got.passed].append(
                    (got.check_id, *(got.params[k] for k in ("r", "s", "a", "m")))
                )
        assert sorted(red_alone[True]) == DET_SHIFT_PER_ALPHABET_RED
        assert sorted(red_alone[False]) == sorted(DET_SHIFT_SWEEP_RED)
        assert [sum(not r.passed for r in reports) for reports in (dc, fold)] == [72, 264]
        for reports in (dc, fold):
            assert sum(not r.passed for r in reports) >= len(reports) // 2
