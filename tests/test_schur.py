import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superchar import clear_caches, schur, verify
from superchar.laurent import (
    EXPONENT_LIMIT,
    ExponentOverflowError,
    LaurentPoly,
    VarTable,
    det,
    e_to_z,
)
from superchar.partitions import PartitionClass, conjugate, in_class, part, partitions_upto, size
from superchar.schur import (
    Alphabet,
    BracketType,
    bialternant_schur,
    bracket_schur,
    bracket_schur_altform,
    ETable,
    e_table,
    h_list,
    in_x,
    palindromic,
    schur_expand,
    schur_in_table,
    super_schur,
    t_table,
    z_table,
)
from superchar.folding import pair_sides, theorem_sides
from superchar.verify import cauchy_alphabets

from faults import U1_IN_FORMAL_FACTOR, inject


def formal_pair(nx, ny):
    names = tuple(f"x{i}" for i in range(1, nx + 1)) + tuple(
        f"y{i}" for i in range(1, ny + 1)
    )
    table = VarTable(names)
    X = Alphabet.formal(table, names[:nx])
    Y = Alphabet.formal(table, names[nx:])
    return X, Y, table


def brute_h(X, Y, m):
    """Independent oracle: h_m(X|Y) = sum_j (-1)^j e_j(Y) h_{m-j}(X)."""
    table = X.table
    total = LaurentPoly.zero(table)
    ys = Y.polys()
    xs = X.polys()
    for j in range(min(m, len(ys)) + 1):
        e_j = LaurentPoly.zero(table)
        for combo in combinations(range(len(ys)), j):
            term = LaurentPoly.const(table, 1)
            for i in combo:
                term = term * ys[i]
            e_j = e_j + term
        h_rest = LaurentPoly.zero(table)
        for combo in combinations_with_replacement(range(len(xs)), m - j):
            term = LaurentPoly.const(table, 1)
            for i in combo:
                term = term * xs[i]
            h_rest = h_rest + term
        piece = e_j * h_rest
        total = total + (piece if j % 2 == 0 else -piece)
    return total


def test_h_list_single_variable():
    X, Y, table = formal_pair(1, 0)
    hs = h_list(X, Y, 4)
    assert hs[0] == 1
    for m in range(1, 5):
        assert hs[m] == LaurentPoly.variable(table, "x1", m)


def test_h_list_single_dual_variable():
    X, Y, table = formal_pair(0, 1)
    hs = h_list(X, Y, 3)
    assert hs[0] == 1
    assert hs[1] == -LaurentPoly.variable(table, "y1")
    assert hs[2].is_zero and hs[3].is_zero


def inverses(alphabet):
    """The alphabet of each element's inverse, in order, with its sign kept."""
    return Alphabet(
        alphabet.table, tuple((s, tuple(-e for e in exps)) for s, exps in alphabet.elements)
    )


def test_palindromic_matches_formal_union_inverses():
    table = VarTable(("x1", "x2", "y1", "y2"))
    for k in range(len(table) + 1):
        for names in permutations(table.names, k):
            formal = Alphabet.formal(table, names)
            want = formal | inverses(formal)
            got = palindromic(table, names)
            assert got.elements == want.elements, names
            assert got == want and hash(got) == hash(want)


def test_alphabets_over_different_tables_raise():
    A = palindromic(VarTable(("x1",)), ("x1",))
    B = palindromic(VarTable(("x1", "y1")), ("y1",))
    with pytest.raises(ValueError):
        A | B
    with pytest.raises(ValueError):
        h_list(A, B, 2)
    with pytest.raises(ValueError):
        schur.bracket_batch(BracketType.PLAIN, [(1,)], A, B)


def test_h_list_folded_example():
    table = VarTable(("x1",))
    X = palindromic(table, ("x1",))
    Y = Alphabet.constants(table, (-1,))
    hs = h_list(X, Y, 2)
    etab = e_table((("x1",),), True)  # one pair is a block of one, e_1 = z
    assert all(h.table == etab for h in hs)
    assert hs[1] == LaurentPoly.variable(etab, "e1(z(x1))") + 1
    x = LaurentPoly.variable(table, "x1")
    assert in_x(hs[1], table) == x + 1 + LaurentPoly.variable(table, "x1", -1)
    for m in range(3):
        assert in_x(hs[m], table) == brute_h(X, Y, m)


def test_h_list_matches_bruteforce():
    X, Y, _ = formal_pair(2, 2)
    hs = h_list(X, Y, 4)
    for m in range(5):
        assert in_x(hs[m], X.table) == brute_h(X, Y, m)


@st.composite
def signed_alphabet_pairs(draw, max_vars=3):
    """Two alphabets over 1-max_vars variables: signed monomials with exponents
    in {-1, 0, 1}, so the +-1 constants and inverses both occur."""
    n = draw(st.integers(1, max_vars))
    table = VarTable(tuple(f"v{i}" for i in range(1, n + 1)))
    element = st.tuples(
        st.sampled_from((1, -1)),
        st.tuples(*[st.integers(-1, 1)] * n),
    )
    X = Alphabet(table, tuple(draw(st.lists(element, max_size=3))))
    Y = Alphabet(table, tuple(draw(st.lists(element, max_size=3))))
    if draw(st.booleans()):  # inverse-paired, as the folded alphabets are
        X, Y = (inverse_closed(A) for A in (X, Y))
    return X, Y


def inverse_closed(alphabet):
    """The constants and single variables of alphabet, each variable with its inverse."""
    kept = [(s, e) for s, e in alphabet.elements if sum(map(abs, e)) <= 1]
    mirrored = [(s, tuple(-x for x in e)) for s, e in kept if any(e)]
    return Alphabet(alphabet.table, tuple(kept + mirrored))


def inverse_paired(alphabet):
    """Every non-constant element is one variable to the power +-1, and its
    inverse occurs with the same sign and multiplicity."""
    count = Counter(alphabet.elements)
    return all(
        sum(map(abs, exps)) == 1 and count[sign, exps] == count[sign, tuple(-e for e in exps)]
        for sign, exps in alphabet.elements
        if any(exps)
    )


@settings(max_examples=80, deadline=None)
@given(signed_alphabet_pairs(), st.integers(0, 6))
def test_h_list_matches_bruteforce_random(pair, degmax):
    X, Y = pair
    table = X.table
    hs = h_list(X, Y, degmax)
    assert len(hs) == degmax + 1
    assert all(h.table == hs[0].table for h in hs)
    assert hs[0].table != z_table(table)  # no h_list value is over the z's themselves
    assert hs[0].table == table or isinstance(hs[0].table, ETable)
    assert (hs[0].table != table) == (paired_e(X, Y) or formal_e(X, Y))
    for m in range(degmax + 1):
        assert in_x(hs[m], table) == brute_h(X, Y, m)


def paired_e(X, Y):
    """Both sides inverse-paired with a pair in all, one sign a side, no pair's variable twice."""
    sides = [[(s, e) for s, e in A.elements if 1 in e] for A in (X, Y)]
    variables = [e for side in sides for _, e in side]
    return (
        inverse_paired(X)
        and inverse_paired(Y)
        and bool(variables)
        and all(len({s for s, _ in side}) <= 1 for side in sides)
        and len(set(variables)) == len(variables)
    )


def formal_e(X, Y):
    """Both sides formal, one sign a side, no variable twice, two on some side."""
    sides = [[(s, e) for s, e in A.elements if any(e)] for A in (X, Y)]
    variables = [e for side in sides for _, e in side]
    return (
        all(sorted(e) == [0] * (len(e) - 1) + [1] for e in variables)
        and all(len({s for s, _ in side}) <= 1 for side in sides)
        and len(set(variables)) == len(variables)
        and max(map(len, sides)) >= 2
    )


def test_super_schur_empty_and_single_box():
    X, Y, _ = formal_pair(2, 1)
    assert super_schur((), X, Y) == 1
    expected = in_x(h_list(X, Y, 1)[1], X.table)
    assert super_schur((1,), X, Y) == expected


@pytest.mark.parametrize("lam", [(1.5,), (2, 0.5), ("1",), (2, 1.2)])
def test_characters_require_exact_int_parts(lam):
    X, Y, table = formal_pair(1, 0)
    with pytest.raises(ValueError):
        super_schur(lam, X, Y)
    with pytest.raises(ValueError):
        bracket_schur(BracketType.SQUARE, lam, X, Y)
    with pytest.raises(ValueError):
        schur_in_table(lam, table)


@pytest.mark.parametrize("lam", [(True,), (1.0,)])
def test_characters_validate_before_the_memo(lam):
    # (True,) and (1.0,) hash and compare equal to (1,), so a memo lookup
    # would return the cached (1,) value; they must be refused all the same.
    X, Y, _ = formal_pair(1, 1)
    altforms = (BracketType.SQUARE, BracketType.ANGLE)
    super_schur((1,), X, Y)
    for tag in BracketType:
        bracket_schur(tag, (1,), X, Y)
    for tag in altforms:
        bracket_schur_altform(tag, (1,), X, Y)
    with pytest.raises(ValueError):
        super_schur(lam, X, Y)
    for tag in BracketType:
        with pytest.raises(ValueError):
            bracket_schur(tag, lam, X, Y)
    for tag in altforms:
        with pytest.raises(ValueError):
            bracket_schur_altform(tag, lam, X, Y)


def x_sum(tag, weighted, X, Y):
    """sum w * bracket_lam(X|Y) over the (lam, w) of weighted, as one pair_sides side, in x."""
    (side,) = pair_sides([((), (), list, tag.value, weighted)], X, Y)
    return in_x(side, X.table)


def test_bracket_sum_matches_the_per_shape_sum():
    """A weighted bracket sum from pair_sides, in x, on each route, against per-shape adds."""
    table = VarTable(("x1", "y1"))
    pairs = [
        formal_pair(2, 1)[:2],  # the x route
        (palindromic(table, ("x1",)), palindromic(table, ("y1",))),  # the z route
        (palindromic(TABLE_3, ("x1", "x2")), palindromic(TABLE_3, ("y1",))),  # the e route
    ]
    weighted = [((2, 1), 3), ((1,), -1), ((), 2), ((1,), 1), ((2,), 0), ((1, 1), -2)]
    for X, Y in pairs:
        for tag in BracketType:
            want = LaurentPoly.zero(X.table)
            for lam, w in weighted:
                want = want + w * bracket_schur(tag, lam, X, Y)
            got = x_sum(tag, weighted, X, Y)
            assert got == want and got.table == X.table, tag
            assert x_sum(tag, [], X, Y) == LaurentPoly.zero(X.table)
            cancel = x_sum(tag, [((2,), 1), ((2,), -1)], X, Y)
            assert cancel.is_zero and cancel.table == X.table


def test_super_schur_hook_vanishing_example():
    X, Y, _ = formal_pair(1, 0)
    assert super_schur((1, 1), X, Y).is_zero


def test_bracket_single_box():
    X, Y, _ = formal_pair(2, 1)
    h1 = in_x(h_list(X, Y, 1)[1], X.table)
    assert bracket_schur(BracketType.SQUARE, (1,), X, Y) == h1
    assert bracket_schur(BracketType.ANGLE, (1,), X, Y) == h1
    assert bracket_schur(BracketType.PLAIN, (2,), X, Y) == super_schur((2,), X, Y)


def test_bracket_square_column_pair():
    table = VarTable(("x1", "x2"))
    X = palindromic(table, ("x1", "x2"))
    Y = Alphabet.empty(table)
    value = bracket_schur(BracketType.SQUARE, (1, 1), X, Y)
    hs = h_list(X, Y, 2)
    for m in range(3):
        assert in_x(hs[m], table) == brute_h(X, Y, m)
    assert value == in_x(hs[1] * hs[1] - hs[2], table)
    # e_2 of a 4-element alphabet has 6 monomials
    assert value.eval_all_ones() == 6


def test_altform_agreement():
    pairs = [formal_pair(2, 1)[:2], formal_pair(1, 2)[:2]]
    table = VarTable(("x1",))
    pairs.append(
        (palindromic(table, ("x1",)) | Alphabet.constants(table, (1,)), Alphabet.empty(table))
    )
    for X, Y in pairs:
        for lam in partitions_upto(4):
            for tag in (BracketType.SQUARE, BracketType.ANGLE):
                assert bracket_schur(tag, lam, X, Y) == bracket_schur_altform(
                    tag, lam, X, Y
                ), (lam, tag)


@settings(max_examples=30, deadline=None)
@given(signed_alphabet_pairs(max_vars=2), st.sampled_from(partitions_upto(5)))
def test_altform_matches_bracket_random(pair, lam):
    X, Y = pair
    for tag in (BracketType.SQUARE, BracketType.ANGLE):
        assert bracket_schur(tag, lam, X, Y) == bracket_schur_altform(tag, lam, X, Y), tag


def test_altform_rejects_plain():
    X, Y, _ = formal_pair(1, 1)
    with pytest.raises(ValueError):
        bracket_schur_altform(BracketType.PLAIN, (1,), X, Y)


@pytest.mark.parametrize("tag", ["plain", "square", "angle", None])
@pytest.mark.parametrize("fn", [bracket_schur, bracket_schur_altform])
def test_bracket_rejects_tags_that_are_not_bracket_types(fn, tag):
    # Over X = {x1}, ANGLE of (2,) is x1^2 and SQUARE is -1 + x1^2; a tag
    # that is not a BracketType must be rejected, not computed as ANGLE.
    X, Y, _ = formal_pair(1, 0)
    for lam in ((2,), ()):
        with pytest.raises(ValueError, match="BracketType"):
            fn(tag, lam, X, Y)


def test_stability_under_shared_element():
    rng = random.Random(99)
    table = VarTable(("u1", "u2"))
    for _ in range(15):
        lam = rng.choice(partitions_upto(5))
        def rand_alpha(count):
            elems = tuple(
                (rng.choice((1, -1)), (rng.randint(-2, 2), rng.randint(-2, 2)))
                for _ in range(count)
            )
            return Alphabet(table, elems)
        X = rand_alpha(rng.randint(0, 2))
        Y = rand_alpha(rng.randint(0, 2))
        eta = rand_alpha(1)
        for tag in BracketType:
            assert bracket_schur(tag, lam, X, Y) == bracket_schur(
                tag, lam, X | eta, Y | eta
            )


def test_hook_vanishing_sweep():
    # Each pair's shapes reach its corner's size (nx + 1)(ny + 1): the least
    # shape outside its hook, nx + 1 rows of ny + 1 boxes.  At size 5 the
    # (2, 1) hook holds every shape.
    for nx, ny in ((1, 0), (1, 1), (2, 1)):
        X, Y, _ = formal_pair(nx, ny)
        lams = partitions_upto(max(5, (nx + 1) * (ny + 1)))
        outside = [lam for lam in lams if part(lam, nx + 1) > ny]
        assert (ny + 1,) * (nx + 1) in outside
        for lam in outside:
            assert super_schur(lam, X, Y).is_zero, (lam, nx, ny)


def test_sign_homogeneity():
    X, _, table = formal_pair(2, 0)
    none = Alphabet.empty(table)
    for lam in partitions_upto(5):
        sign = -1 if size(lam) % 2 else 1
        assert super_schur(lam, X.negated(), none) == sign * super_schur(lam, X, none)


def test_conjugate_dualities():
    X, Y, _ = formal_pair(2, 2)
    for lam in partitions_upto(4):
        sign = -1 if size(lam) % 2 else 1
        assert super_schur(conjugate(lam), X, Y) == sign * super_schur(lam, Y, X)
        assert bracket_schur(BracketType.ANGLE, conjugate(lam), X, Y) == sign * bracket_schur(
            BracketType.SQUARE, lam, Y, X
        )


def count_ssyt(shape, n):
    """Brute-force count of semistandard tableaux with entries <= n."""
    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]

    def fill(pos, tableau):
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        lo = 1
        if j > 0:
            lo = max(lo, tableau[(i, j - 1)])
        if i > 0:
            lo = max(lo, tableau[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, n + 1):
            tableau[(i, j)] = v
            total += fill(pos + 1, tableau)
            del tableau[(i, j)]
        return total

    return fill(0, {})


def test_bialternant_examples():
    table = t_table(2)
    assert bialternant_schur((1,), 2) == LaurentPoly.variable(
        table, "t1"
    ) + LaurentPoly.variable(table, "t2")
    assert bialternant_schur((), 3) == 1
    assert bialternant_schur((), 0) == 1
    assert bialternant_schur((2, 1), 3).eval_all_ones() == 8
    assert count_ssyt((2, 1), 3) == 8


def test_bialternant_counts_tableaux():
    for n in (2, 3):
        for lam in partitions_upto(4, max_len=n):
            assert bialternant_schur(lam, n).eval_all_ones() == count_ssyt(lam, n)


def reference_alternant(lam, n):
    """det(t_i^{lam_j + n - j}) by permutation expansion, one term per permutation."""
    exps = [(lam[j] if j < len(lam) else 0) + n - 1 - j for j in range(n)]
    terms = {}

    def expand(remaining, sign, powers):
        if not remaining:
            terms[tuple(powers)] = terms.get(tuple(powers), 0) + sign
            return
        for pos, col in enumerate(remaining):
            expand(
                remaining[:pos] + remaining[pos + 1 :],
                sign if pos % 2 == 0 else -sign,
                powers + [exps[col]],
            )

    expand(tuple(range(n)), 1, [])
    return LaurentPoly(t_table(n), terms)


def test_alternant_numerator_matches_permutation_expansion():
    # The division by the Vandermonde a_delta is exact, so the numerator the
    # determinant route formed is the quotient times a_delta.
    for n in range(1, 6):
        vandermonde = reference_alternant((), n)
        for lam in partitions_upto(6, max_len=n):
            assert bialternant_schur(lam, n) * vandermonde == reference_alternant(lam, n)


def test_bialternant_rejects_short_tables():
    with pytest.raises(ValueError):
        bialternant_schur((1, 1, 1), 2)
    for n in (-1, 1.5, True):
        with pytest.raises(ValueError):
            bialternant_schur((), n)


# Each classical sum kind with the class of its shapes.
SUM_CLASSES = dict(
    zip(
        verify.SUM_KINDS,
        (PartitionClass.ALL, PartitionClass.EVEN_ROWS, PartitionClass.EVEN_COLUMNS),
    )
)


def test_bialternant_sum_matches_the_per_shape_sum(monkeypatch):
    # The left side each classical sum hands poly_comparison, one e-form
    # Jacobi-Trudi batch turned into t once, against the sum of the
    # per-shape ratios of alternants, over the benchmark's range of sums.
    seen = []
    real = verify.poly_comparison

    def capture(check_id, params, lhs, rhs):
        seen.append(lhs)
        return real(check_id, params, lhs, rhs)

    monkeypatch.setattr(verify, "poly_comparison", capture)
    for n in range(1, 6):
        for degmax in range(11):
            shapes = partitions_upto(degmax, max_len=n)
            for kind, cls in SUM_CLASSES.items():
                seen.clear()
                assert verify.littlewood_sum_check(kind, n, degmax).passed
                expected = sum(
                    (bialternant_schur(lam, n) for lam in shapes if in_class(lam, cls)),
                    LaurentPoly.zero(t_table(n)),
                )
                (lhs,) = seen
                assert lhs == expected, (kind, n, degmax)


def test_a_determinant_fault_turns_every_classical_sum_red(monkeypatch):
    # Every sum's left side is one schur._table_dets batch, so each value
    # off by one must show in every sum, the empty shape's alone included.
    real = schur._table_dets

    def shifted(shapes, hs, entry):
        return [value + 1 for value in real(shapes, hs, entry)]

    monkeypatch.setattr(schur, "_table_dets", shifted)
    for n in range(1, 6):
        for degmax in range(11):
            for kind in verify.SUM_KINDS:
                assert not verify.littlewood_sum_check(kind, n, degmax).passed, (kind, n, degmax)


def test_a_swapped_sum_row_turns_only_its_kind_red(monkeypatch):
    # The even-rows row with the even-columns pair rule (i < j) loses its
    # 1/(1 - t_i^2) factors, so from degree 2 on its product lacks the t_1^2
    # that s_(2) holds.  Each kind reads its own row, so the others stay green.
    cls, singles, _ = verify._SUM_ROWS["littlewood_even_rows"]
    monkeypatch.setitem(verify._SUM_ROWS, "littlewood_even_rows", (cls, singles, combinations))
    for n in range(1, 6):
        for degmax in range(11):
            for kind in verify.SUM_KINDS:
                red = kind == "littlewood_even_rows" and degmax >= 2
                assert verify.littlewood_sum_check(kind, n, degmax).passed != red, (kind, n, degmax)


def test_jacobi_trudi_matches_bialternant():
    # n <= 6 with |lam| <= 6 is the range of the LR oracle in the battery,
    # which takes its Schur polynomials from schur_in_table.
    for n, max_size in ((1, 8), (2, 8), (3, 8), (4, 8), (5, 6), (6, 6)):
        table = t_table(n)
        T = Alphabet.formal(table)
        none = Alphabet.empty(table)
        for lam in partitions_upto(max_size, max_len=n):
            reference = bialternant_schur(lam, n)
            assert super_schur(lam, T, none) == reference
            assert schur_in_table(lam, table) == reference


def supertableau_sum(lam, X, Y):
    """Sum over (k|l)-semistandard supertableaux of shape lam; no determinant, no h_m.

    Letters 0..k-1 are the even ones, weighted x_i; rows weakly increase and
    columns strictly increase in them.  Letters k..k+l-1 are the odd ones,
    weighted -y_j (h_1 = sum x - sum y); rows strictly increase and columns
    weakly increase in them.  Even letters come before odd ones.
    """
    k = len(X)
    letters = list(X.elements) + [(-sign, exps) for sign, exps in Y.elements]
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    filling = {}
    terms = Counter()

    def fits(c, i, j):
        left, up = filling.get((i, j - 1)), filling.get((i - 1, j))
        if c < k:
            return (left is None or left <= c) and (up is None or up < c)
        return (left is None or left < c) and (up is None or up <= c)

    def fill(n, sign, exps):
        if n == len(cells):
            terms[exps] += sign
            return
        i, j = cells[n]
        for c in range(len(letters)):
            if fits(c, i, j):
                filling[i, j] = c
                s, e = letters[c]
                fill(n + 1, sign * s, tuple(a + b for a, b in zip(exps, e)))
                del filling[i, j]

    fill(0, 1, (0,) * len(X.table))
    return LaurentPoly(X.table, terms)


def test_super_schur_matches_the_supertableau_sum():
    for nx in range(5):
        for ny in range(5 - nx):
            if nx + ny < 1:
                continue
            X, Y, _ = cauchy_alphabets(nx, ny, 1)
            for lam in partitions_upto(5):
                assert super_schur(lam, X, Y) == supertableau_sum(lam, X, Y), (nx, ny, lam)


def test_schur_expand_pieri():
    table = t_table(2)
    s1 = schur_in_table((1,), table)
    assert schur_expand(s1 * s1, 2) == {(2,): 1, (1, 1): 1}
    assert schur_expand(LaurentPoly.zero(table), 2) == {}
    table3 = t_table(3)
    p = schur_in_table((2, 1), table3) * schur_in_table((1,), table3)
    assert schur_expand(p, 3) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}


def test_schur_expand_rejects_asymmetric():
    table = t_table(2)
    with pytest.raises(ValueError):
        schur_expand(LaurentPoly.variable(table, "t1"), 2)


def test_schur_expand_rejects_laurent():
    table = t_table(2)
    with pytest.raises(ValueError):
        schur_expand(LaurentPoly.variable(table, "t1", -1), 2)


def test_schur_expand_stops_on_a_schur_polynomial_that_does_not_lead_with_one(monkeypatch):
    # With u_1 of the formal-variable factor off by one e_1, S_(1)(t1, t2) is
    # 2 t1 + 2 t2: subtracting c S_lam never clears the leading monomial, so
    # the expansion must raise, not hang.
    with inject(monkeypatch, U1_IN_FORMAL_FACTOR):
        s1 = schur_in_table((1,), t_table(2))
        assert s1.eval_all_ones() == 4
        with pytest.raises(ValueError, match="does not lead with 1"):
            schur_expand(s1 * s1, 2)


def test_alphabet_validation():
    table = VarTable(("x1",))
    with pytest.raises(ValueError):
        Alphabet(table, ((2, (1,)),))
    with pytest.raises(ValueError):
        Alphabet(table, ((1, (1, 0)),))
    with pytest.raises(ValueError):
        Alphabet.constants(table, (3,))
    for sign in (True, 1.0, -1.0):
        with pytest.raises(ValueError):
            Alphabet(table, ((sign, (1,)),))
        with pytest.raises(ValueError):
            Alphabet.constants(table, (sign,))


@pytest.mark.parametrize(
    "exponent, error",
    [
        (True, ValueError),
        (False, ValueError),
        (1.0, ValueError),
        (0.0, ValueError),
        (EXPONENT_LIMIT + 1, ExponentOverflowError),
        (-EXPONENT_LIMIT - 1, ExponentOverflowError),
    ],
)
def test_alphabet_exponents_are_checked_as_the_ring_checks_them(exponent, error):
    table = VarTable(("x1", "x2"))
    for elements in (
        ((1, (exponent, 0)), (1, (0, 1))),  # formal but for the bad exponent: the e route
        ((1, (exponent, 0)),),  # one element: the x route
        ((1, (exponent, 0)), (1, (-1, 0)), (-1, (0, 0))),  # paired but for it: the z's
    ):
        with pytest.raises(error) as caught:
            Alphabet(table, elements)
        with pytest.raises(error) as packed:
            table.pack((exponent, 0))
        assert str(caught.value) == str(packed.value) and "\n" not in str(caught.value)
    for e in (EXPONENT_LIMIT, -EXPONENT_LIMIT):  # the field's edges are exponents
        assert Alphabet(table, ((1, (e, 0)),)).elements == ((1, (e, 0)),)


def test_equal_alphabets_hash_alike():
    # Alphabets cache their hash; equal ones built separately must agree.
    table = VarTable(("x1", "x2"))
    A = palindromic(table, ("x1",)) | Alphabet.constants(table, (1,))
    B = Alphabet(VarTable(["x1", "x2"]), tuple((s, tuple(list(e))) for s, e in A.elements))
    assert A is not B and A == B and hash(A) == hash(B)
    assert len({A, B}) == 1
    C = palindromic(table, ("x1",)) | Alphabet.constants(table, (-1,))
    assert A != C


def test_union_is_the_validated_alphabet_of_both_element_lists():
    table = VarTable(("x1", "x2"))
    pairs = palindromic(table, ("x1",))
    parts = [
        Alphabet.empty(table),
        pairs,
        Alphabet.formal(table, ("x2",)).negated(),
        Alphabet.constants(table, (1, -1)),
        Alphabet(table, ((-1, (2, -3)),)),
    ]
    for A in parts:
        for B in parts:
            got = A | B
            want = Alphabet(table, A.elements + B.elements)
            assert got == want and hash(got) == hash(want) and got.elements == want.elements
    with pytest.raises(ValueError, match="different tables"):
        pairs | Alphabet.empty(VarTable(("x1",)))


def test_h_list_rejects_bad_degmax():
    X, Y, _ = formal_pair(1, 0)
    for degmax in (-1, True, False, 2.0, "3", None):
        with pytest.raises(ValueError, match="degmax"):
            h_list(X, Y, degmax)
    assert len(h_list(X, Y, 1)) == 2


# ---------------------------------------------------------------------------
# The e table: e_1..e_r of the z's of each side's pairs
# ---------------------------------------------------------------------------

TABLE_3 = VarTable(("x1", "x2", "y1"))


def signed_pairs(table, names, sign):
    """The pairs {sign v, sign v^-1} for v in names."""
    pairs = palindromic(table, names)
    return pairs if sign == 1 else pairs.negated()


def test_h_list_takes_the_e_table_only_where_it_is_exact():
    T = TABLE_3
    one = Alphabet.constants(T, (1,))
    xx, yy = palindromic(T, ("x1", "x2")), palindromic(T, ("y1",))
    e_route = {
        "two x pairs": (xx, Alphabet.empty(T), (("x1", "x2"),)),
        "two x pairs and a y pair": (xx | one, yy, (("x1", "x2"), ("y1",))),
        "negative pairs": (signed_pairs(T, ("x1", "x2"), -1), yy, (("x1", "x2"), ("y1",))),
        "two y pairs": (one, palindromic(T, ("y1", "x1")), (("x1", "y1"),)),
        "one pair a side": (palindromic(T, ("x1",)), yy, (("x1",), ("y1",))),
        "one pair and a constant": (one, yy, (("y1",),)),
    }
    x_route = {
        "a repeated pair": (xx | palindromic(T, ("x1",)), yy),
        "a shared variable": (xx, palindromic(T, ("x2", "y1"))),
        "mixed signs": (palindromic(T, ("x1",)) | signed_pairs(T, ("x2",), -1), yy),
    }
    for label, (X, Y, blocks) in e_route.items():
        hs = h_list(X, Y, 4)
        assert isinstance(hs[0].table, ETable) and hs[0].table == e_table(blocks, True), label
        for m in range(5):
            assert in_x(hs[m], T) == brute_h(X, Y, m), (label, m)
    for label, (X, Y) in x_route.items():
        hs = h_list(X, Y, 4)
        assert hs[0].table == T, label
        for m in range(5):
            assert hs[m] == brute_h(X, Y, m), (label, m)


def test_alphabets_that_differ_in_constants_share_the_pair_series():
    T = TABLE_3
    xx, yy = palindromic(T, ("x1", "x2")), palindromic(T, ("y1",))
    plus, minus = Alphabet.constants(T, (1,)), Alphabet.constants(T, (-1,))
    clear_caches()
    for X, Y, degmax in [(xx, yy | minus, 2), (xx | plus, yy, 5), (xx, yy, 4), (xx | minus, yy, 6)]:
        hs = h_list(X, Y, degmax)
        assert [in_x(h, T) for h in hs] == [brute_h(X, Y, m) for m in range(degmax + 1)]
    assert len(schur._pair_series) == 1
    assert len(next(iter(schur._pair_series.values()))) == 7
    clear_caches()


def test_e_factor_is_the_product_of_the_pair_factors():
    """prod (1 - s z_i t + t^2) against _e_factor, both sides in z, r <= 4."""
    for r in range(1, 5):
        table = VarTable(tuple(f"x{i}" for i in range(1, r + 1)))
        etab, ztab = e_table((table.names,), True), z_table(table)
        e = [1] + [LaurentPoly.variable(etab, name) for name in etab.names]
        for sign in (1, -1):
            want = [LaurentPoly.const(ztab, 1)]  # coefficients of t^0, t^1, ...
            for name in ztab.names:
                factor = {0: 1, 1: -sign * LaurentPoly.variable(ztab, name), 2: 1}
                want = [
                    sum((factor[j] * want[d - j] for j in factor if 0 <= d - j < len(want)),
                        LaurentPoly.zero(ztab))
                    for d in range(len(want) + 2)
                ]
            got = [LaurentPoly.const(ztab, 1)] + [LaurentPoly.zero(ztab)] * (2 * r)
            for d, u in schur._e_factor(sign, e):
                got[d] = got[d] - (u if isinstance(u, int) else e_to_z(u, ztab, (tuple(range(r)),)))
            assert got == want, (r, sign)


def test_in_x_rejects_a_foreign_table():
    value = LaurentPoly.variable(VarTable(("w",)), "w")
    with pytest.raises(ValueError, match="or an e table of it"):
        in_x(value, VarTable(("x1",)))
    # The z table is only in_x's step from e of z to x: no value arrives over it.
    for table in (TABLE_3, VarTable(("x1", "x2", "y2"))):
        with pytest.raises(ValueError, match="or an e table of it"):
            in_x(LaurentPoly.variable(z_table(TABLE_3), "z(x1)"), table)


def halved(shapes, values):
    """Each nonempty shape's value halved exactly; the empty shape's 1 is kept."""
    return [value.exact_div(2) if lam else value for lam, value in zip(shapes, values)]


def test_angle_values_halve_exactly_in_e(all_in_x):
    """Every paired ANGLE determinant of size <= 6 over e-table alphabets, halved
    there, against bracket_schur on the x route."""
    T = VarTable(("x1", "x2", "x3", "y1", "y2"))
    pairs = []
    for sign in (1, -1):
        for xs in (("x1", "x2"), ("x1", "x2", "x3")):
            X = signed_pairs(T, xs, sign)
            for Y in (Alphabet.empty(T), Alphabet.constants(T, (-1,)), palindromic(T, ("y1", "y2"))):
                pairs.append((X | Alphabet.constants(T, (sign,)), Y))
    shapes = [lam for lam in partitions_upto(6) if len(lam) <= 4]
    clear_caches()
    in_e = []
    for X, Y in pairs:
        hs = h_list(X, Y, schur._degree(shapes))
        values = halved(shapes, schur._table_dets(shapes, hs, schur._paired_angle_entry))
        assert all(isinstance(v.table, ETable) for v in values)
        in_e.append([in_x(v, T) for v in values])
    all_in_x()
    for (X, Y), values in zip(pairs, in_e):
        assert all(v.table == T for v in values)
        assert values == [bracket_schur(BracketType.ANGLE, lam, X, Y) for lam in shapes]
        assert h_list(X, Y, 0)[0].table == T


# ---------------------------------------------------------------------------
# The e table of formal x's: e_1..e_n of each side's variables
# ---------------------------------------------------------------------------


def formal(*names):
    return Alphabet.formal(TABLE_3, names)


def test_h_list_takes_the_formal_e_table_only_where_it_is_exact():
    T = TABLE_3
    one, minus = Alphabet.constants(T, (1,)), Alphabet.constants(T, (-1,))
    e_route = {
        "two x's": (formal("x1", "x2"), Alphabet.empty(T), (("x1", "x2"),)),
        "two x's, a y and constants": (
            formal("x1", "x2") | one, formal("y1") | minus | minus, (("x1", "x2"), ("y1",))
        ),
        "negated sides": (
            formal("x1", "x2").negated() | one, formal("y1").negated(), (("x1", "x2"), ("y1",))
        ),
        "two y's": (one, formal("y1", "x1"), (("x1", "y1"),)),
    }
    x_route = {
        "one variable a side": (formal("x1"), formal("y1") | one),
        "a repeated variable": (formal("x1", "x2", "x1"), formal("y1")),
        "a shared variable": (formal("x1", "x2"), formal("x2", "y1")),
        "mixed signs": (formal("x1") | formal("x2").negated(), formal("y1")),
        "an inverse": (formal("x1", "x2"), inverses(formal("y1"))),
        "a square": (formal("x1", "x2"), Alphabet(T, ((1, (0, 0, 2)),))),
    }
    for label, (X, Y, blocks) in e_route.items():
        hs = h_list(X, Y, 5)
        assert hs[0].table == e_table(blocks, False), label
        assert not hs[0].table.over_z and hs[0].table != e_table(blocks, True), label
        for m in range(6):
            assert in_x(hs[m], T) == brute_h(X, Y, m), (label, m)
    for label, (X, Y) in x_route.items():
        hs = h_list(X, Y, 5)
        assert hs[0].table == T, label
        for m in range(6):
            assert hs[m] == brute_h(X, Y, m), (label, m)


def per_pair_x_series(X, Y, degmax):
    """h_list's x route as it used to run: every element a polynomial factor, in element order."""
    factors = [(((1, x),), True) for x in X.polys()]
    factors += [(((1, y),), False) for y in Y.polys()]
    return schur.graded_parts(LaurentPoly.const(X.table, 1), factors, degmax)


def test_x_route_shares_one_variables_series_per_alphabet_pair(x_route):
    """The x route builds each pair's non-constant series once, then the constants as ints."""
    T = TABLE_3
    consts = [(), (1,), (-1,), (1, -1)]
    bases = [
        (formal("x1", "x2"), formal("y1")),
        (formal("x1"), formal("y1")),
        (Alphabet.empty(T), Alphabet.empty(T)),
        (formal("x1", "x2", "x1"), formal("y1")),
        (formal("x1", "x2"), formal("x2", "y1")),
        (formal("x1") | formal("x2").negated(), formal("y1")),
        (formal("x1", "x2"), inverses(formal("y1"))),
        (formal("x1", "x2"), Alphabet(T, ((1, (0, 0, 2)),))),
    ]
    x_route()
    for X0, Y0 in bases:
        for xc in consts:
            for yc in consts:
                X = X0 | Alphabet.constants(T, xc)
                Y = Y0 | Alphabet.constants(T, yc)
                got = h_list(X, Y, 5)
                assert got[0].table == T
                want = per_pair_x_series(X, Y, 5)
                assert terms_and_bounds(got) == terms_and_bounds(want), (X, Y)
    assert len(schur._pair_series) == len(bases)
    clear_caches()
    assert not schur._pair_series


def test_formal_factor_is_the_product_of_the_variable_factors():
    """prod (1 - s x_i t) against _formal_factor, both sides in x, n <= 4."""
    for n in range(1, 5):
        table = VarTable(tuple(f"x{i}" for i in range(1, n + 1)))
        etab = e_table((table.names,), False)
        e = [1] + [LaurentPoly.variable(etab, name) for name in etab.names]
        for sign in (1, -1):
            want = [LaurentPoly.const(table, 1)] + [LaurentPoly.zero(table)] * n
            for name in table.names:
                x = sign * LaurentPoly.variable(table, name)
                want = [want[0]] + [want[d] - x * want[d - 1] for d in range(1, n + 1)]
            got = [LaurentPoly.const(table, 1)] + [LaurentPoly.zero(table)] * n
            for d, u in schur._formal_factor(sign, e):
                got[d] = got[d] - in_x(u, table)
            assert got == want, (n, sign)


def test_x_characters_convert_each_h_once_per_call(monkeypatch):
    X, Y = formal("x1", "x2"), formal("y1")
    shapes = [(1,), (2, 1), (3,), (1, 1, 1)]
    real = schur.in_x
    converted = []

    def spy(value, table):
        converted.append(value)
        return real(value, table)

    clear_caches()
    monkeypatch.setattr(schur, "in_x", spy)
    values = schur.bracket_batch(BracketType.PLAIN, shapes, X, Y)
    # h_0..h_D for D = 3, the largest lam_1 + len(lam) - 1: each h_m, not each character.
    hs = h_list(X, Y, 3)
    assert len(converted) == 4 and all(got is h for got, h in zip(converted, hs))
    # Nothing is kept across calls: the next call converts its own view.
    assert super_schur((2, 1), X, Y) == values[1]
    assert len(converted) == 4 + 4 and converted[4:] == converted[:4]
    monkeypatch.undo()

    def plain(lam):
        hs = h_list(X, Y, schur._degree([lam]))
        return in_x(schur._table_dets([lam], hs, schur._entry_rule("plain"))[0], TABLE_3)

    assert [value.table for value in values] == [TABLE_3] * 4
    assert values == [plain(lam) for lam in shapes]
    clear_caches()


def test_in_x_rejects_a_foreign_e_table_of_x():
    foreign = e_table((("x1", "w"),), False)
    with pytest.raises(ValueError, match="or an e table of it"):
        in_x(LaurentPoly.variable(foreign, "e1(x1,w)"), TABLE_3)
    # The e's of x's are not the e's of z's: the names tell them apart.
    assert e_table((("x1", "x2"),), False).names == ("e1(x1,x2)", "e2(x1,x2)")
    assert e_table((("x1", "x2"),), True).names == ("e1(z(x1),z(x2))", "e2(z(x1),z(x2))")
    with pytest.raises(ValueError, match="or an e table of it"):
        in_x(LaurentPoly.variable(e_table((("x1", "x2"),), False), "e1(x1,x2)"),
             VarTable(("x1", "y1")))


def test_angle_values_halve_exactly_in_formal_e(x_route):
    """Every paired ANGLE determinant of size <= 6 over formal e-table alphabets,
    halved there, against bracket_schur on the x route."""
    T = VarTable(("x1", "x2", "x3", "y1", "y2"))
    pairs = []
    for sign in (1, -1):
        for xs in (("x1", "x2"), ("x1", "x2", "x3")):
            X = Alphabet.formal(T, xs)
            X = X if sign == 1 else X.negated()
            for Y in (
                Alphabet.empty(T),
                Alphabet.constants(T, (-1,)),
                Alphabet.formal(T, ("y1", "y2")),
                Alphabet.formal(T, ("y1",)).negated(),
            ):
                pairs.append((X | Alphabet.constants(T, (sign,)), Y))
    shapes = partitions_upto(6)
    clear_caches()
    in_e = []
    for X, Y in pairs:
        hs = h_list(X, Y, schur._degree(shapes))
        values = halved(shapes, schur._table_dets(shapes, hs, schur._paired_angle_entry))
        assert all(isinstance(v.table, ETable) and not v.table.over_z for v in values)
        in_e.append([in_x(v, T) for v in values])
    x_route()
    for (X, Y), values in zip(pairs, in_e):
        assert h_list(X, Y, 0)[0].table == T
        assert values == [bracket_schur(BracketType.ANGLE, lam, X, Y) for lam in shapes]


# ---------------------------------------------------------------------------
# The one-dict recurrence, entries and sums, against the ring's add chains
# ---------------------------------------------------------------------------

BIG = 2**30  # a product of two values at this exponent passes the packed field


def ring_graded_parts(start, factors, degmax):
    """The recurrence graded_parts used to run: one ``acc + u * part`` per term."""
    if isinstance(start, list):
        parts = list(start)
    else:
        parts = [start] + [LaurentPoly.zero(start.table)] * degmax
    for terms, divide in factors:
        low = min(d for d, _ in terms)
        for k in range(low, degmax + 1) if divide else range(degmax, low - 1, -1):
            acc = parts[k]
            for d, u in terms:
                if k >= d and not parts[k - d].is_zero:
                    step = u * parts[k - d]
                    acc = acc + step if divide else acc - step
            parts[k] = acc
    return parts


def terms_and_bounds(values):
    return [(v.sorted_terms(), v._bound) for v in values]


def outcome(build):
    """Every value's terms and bound, or the overflow the build raised."""
    try:
        values = build()
    except ExponentOverflowError:
        return ExponentOverflowError
    return terms_and_bounds(values)


@st.composite
def graded_inputs(draw):
    table = VarTable(("a", "b"))
    exps = st.tuples(st.sampled_from((-1, 0, 1, 2, BIG)), st.integers(-1, 1))
    poly = st.dictionaries(exps, st.integers(-3, 3), max_size=3).map(
        lambda terms: LaurentPoly(table, terms)
    )
    degmax = draw(st.integers(0, 5))
    start = draw(st.one_of(poly, st.lists(poly, min_size=degmax + 1, max_size=degmax + 1)))
    weight = st.one_of(poly, st.integers(-3, 3))
    terms = st.lists(st.tuples(st.integers(1, 3), weight), min_size=1, max_size=3).map(tuple)
    factors = draw(st.lists(st.tuples(terms, st.booleans()), max_size=3))
    return start, factors, degmax


@settings(max_examples=100, deadline=None)
@given(graded_inputs())
def test_graded_parts_matches_the_add_chain_recurrence(inputs):
    start, factors, degmax = inputs
    assert outcome(lambda: schur.graded_parts(start, factors, degmax)) == outcome(
        lambda: ring_graded_parts(start, factors, degmax)
    )


def _ring_altform_square(h, base, j):
    def H(k):
        return h(k) - h(k - 2)

    return H(base + 1) if j == 1 else H(base + j) + H(base - j + 2)


def route_pairs():
    """An alphabet pair on the e table of x's, one on the z table and one on the e table of z's."""
    table = VarTable(("x1", "y1"))
    return [
        formal_pair(2, 1)[:2],
        (palindromic(table, ("x1",)), palindromic(table, ("y1",))),
        (palindromic(TABLE_3, ("x1", "x2")), palindromic(TABLE_3, ("y1",))),
    ]


def test_the_single_first_column_angle_rule_is_half_the_paired_rule():
    """det with h_{b+1} in the first column against the paired det, over free h, |lam| <= 6.

    The paired rule's first column is h_{b+1} + h_{b+1}, and a determinant
    is linear in its first column.
    """
    shapes = partitions_upto(6)[1:]
    hs = schur._free_series(schur._degree(shapes))
    single = schur._table_dets(shapes, hs, schur._angle_entry)
    paired = schur._table_dets(shapes, hs, schur._paired_angle_entry)
    assert [2 * value for value in single] == paired


def test_bracket_angle_is_the_halved_paired_det_on_every_route():
    """Both ANGLE forms against the paired det halved over h_list's own table."""
    mixed = Alphabet.formal(TABLE_3, ("x1",)) | Alphabet.formal(TABLE_3, ("x2",)).negated()
    pairs = route_pairs() + [(mixed, Alphabet.formal(TABLE_3, ("y1",)))]
    shapes = partitions_upto(5, max_len=4)
    routes = set()
    clear_caches()
    for X, Y in pairs:
        hs = h_list(X, Y, schur._degree(shapes))
        table = hs[0].table
        routes.add(table.over_z if isinstance(table, ETable) else "x")
        want = halved(shapes, schur._table_dets(shapes, hs, schur._paired_angle_entry))
        want = [in_x(value, X.table) for value in want]
        assert [bracket_schur(BracketType.ANGLE, lam, X, Y) for lam in shapes] == want
        assert [bracket_schur_altform(BracketType.ANGLE, lam, X, Y) for lam in shapes] == want
    assert routes == {"x", True, False}  # x, e of z's and e of x's
    clear_caches()


# name -> (the library's rule, the rule as the ring sum it used to return)
ENTRY_RULES = {
    "plain": (schur._plain_entry, lambda h, base, j: h(base + j)),
    "square": (schur._square_entry, lambda h, base, j: h(base + j) - h(base - j)),
    "angle": (
        schur._angle_entry,
        lambda h, base, j: h(base + 1) if j == 1 else h(base + j) + h(base - j + 2),
    ),
    # bracket_schur_altform's ANGLE reference, before it is halved
    "altform_angle": (
        schur._paired_angle_entry,
        lambda h, base, j: h(base + j) + h(base - j + 2),
    ),
    "altform_square": (schur._altform_square_entry, _ring_altform_square),
}


def per_entry_dets(shapes, hs, ring_entry):
    """_table_dets as it used to run: each entry of each shape formed on its own by the ring."""
    table = hs[0].table
    zero = LaurentPoly.zero(table)

    def h(k):
        return hs[k] if k >= 0 else zero

    out = []
    for lam in shapes:
        if not lam:
            out.append(LaurentPoly.const(table, 1))
            continue
        n = len(lam)
        value = det(
            [[ring_entry(h, lam[i - 1] - i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
        )
        out.append(value)
    return out


@pytest.mark.parametrize("rule", ENTRY_RULES)
def test_entries_formed_once_per_batch_match_the_per_entry_dets(rule):
    entry, ring_entry = ENTRY_RULES[rule]
    shapes = partitions_upto(5, max_len=4)
    for X, Y in route_pairs():
        hs = h_list(X, Y, schur._degree(shapes))
        formed = Counter()

        def counted(base, j):
            formed[base, j] += 1
            return entry(base, j)

        got = schur._table_dets(shapes, hs, counted)
        assert set(formed.values()) == {1}
        want = per_entry_dets(shapes, hs, ring_entry)
        assert terms_and_bounds(got) == terms_and_bounds(want)


class ReadSpy(list):
    """A list that records every index read."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, k):
        self.read.add(k)
        return super().__getitem__(k)


@pytest.mark.parametrize("rule", ENTRY_RULES)
def test_no_entry_rule_reads_h_past_lam1_plus_len_minus_one(rule):
    entry, _ = ENTRY_RULES[rule]
    X, Y = route_pairs()[1]
    for lam in partitions_upto(6, max_len=4)[1:]:
        degree = lam[0] + len(lam) - 1
        assert schur._degree([lam]) == degree
        hs = ReadSpy(h_list(X, Y, degree))
        schur._table_dets([lam], hs, entry)
        assert max(hs.read) == degree, lam  # at entry (1, len(lam))


def test_table_sum_adds_into_one_dict_like_the_add_chain():
    """theorem_sides over one h_list series against the ring's add chain of its shapes."""
    weighted = [((2, 1), 3), ((1,), -1), ((), 2), ((1,), 1), ((2,), 0), ((1, 1), -2), ((3,), 1)]
    merged = Counter()
    for lam, w in weighted:
        merged[lam] += w
    for X, Y in route_pairs():
        for tag in BracketType:
            clear_caches()
            hs = h_list(X, Y, schur._degree(lam for lam, _ in weighted))

            def dets(key, shapes):
                return schur._table_dets(shapes, hs, schur._entry_rule(key[3]))

            key = ((), (), list, tag.value)
            (got,) = theorem_sides([(*key, weighted)], dets)
            chain = LaurentPoly.zero(got.table)
            for lam, w in merged.items():
                if w:
                    chain = chain + w * dets(key, [lam])[0]
            assert terms_and_bounds([got]) == terms_and_bounds([chain]), tag
