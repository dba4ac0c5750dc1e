"""The LR checks and schur_expand against the code they replaced.

The battery's three LR checks read every coefficient from one lr_table per
shape, and lr_rect_sum reads the box's table once.  The functions named ref_*
below are the earlier forms, verbatim but for their names, lr.lr_coeff in
ref_lr_rect_sum, which the patch below must reach, and the subset membership,
read by partitions.in_rect_subset at lr._VARIANT_SUBSET: the checks
asked lr.lr_coeff once per coefficient, lr_rect_sum asked it once per kappa,
and schur_expand unpacked and re-tested the whole residual on every step.

For the checks, lr.lr_coeff is patched to read the same table as lr.lr_table,
so the two forms see the same coefficients, healthy or corrupted, and must
give the same reports: ids, params, pass and first-failure witnesses.

check_lr_oracle now forms each product in the Schur basis by Pieri's rule;
ref_check_lr_oracle is its form through schur_expand of explicit products,
and the Pieri products are compared with those products one by one below.

check_lr_rectangle now compares the closed form, a map from each shape to
its rotated complement, with the box table's entries alone, and takes the
class sums from one pass over the table; ref_check_lr_rectangle_pairs is its
all-pairs form, which asked lr._rect_coeff at every pair of box shapes.
"""

import json
from functools import cache
from types import MappingProxyType

import pytest

from superchar import clear_caches, lr, partitions, schur, verify
from superchar.laurent import LaurentPoly
from superchar.partitions import (
    Partition,
    PartitionClass,
    as_partition,
    box_partitions,
    conjugate,
    in_class,
    part,
    partitions_of,
    size,
)
from superchar.report import VerificationReport, _first_failures
from superchar.schur import schur_in_table, t_table


def ref_check_lr_oracle(max_size: int) -> VerificationReport:
    """Tableau counts against the Schur-expansion of explicit products.

    A product that schur_expand cannot expand (a Schur polynomial that is not
    symmetric or does not lead with coefficient 1) fails the report, with
    (mu, nu) and the error as its witness.
    """

    def failures():
        for n in range(max_size + 1):
            nvars = max(n, 1)
            table = schur.t_table(nvars)
            for k in range(n + 1):
                for mu in partitions_of(k):
                    for nu in partitions_of(n - k):
                        if (size(mu), mu) > (size(nu), nu):
                            continue  # product is symmetric; check both orders below
                        product = schur.schur_in_table(mu, table) * schur.schur_in_table(
                            nu, table
                        )
                        try:
                            expansion = schur.schur_expand(product, nvars)
                        except ValueError as err:
                            yield "lr.oracle", {"mu": list(mu), "nu": list(nu), "error": str(err)}
                            continue
                        for lam in partitions_of(n):
                            want = expansion.get(lam, 0)
                            if lr.lr_coeff(lam, mu, nu) != want or lr.lr_coeff(lam, nu, mu) != want:
                                yield "lr.oracle", {
                                    "lam": list(lam),
                                    "mu": list(mu),
                                    "nu": list(nu),
                                    "expected": want,
                                }

    return _first_failures([("lr.oracle", {"max_size": max_size})], failures())[0]


def ref_check_lr_properties(max_size: int, stack_max: int = 4) -> list[VerificationReport]:
    def failures():
        for n in range(max_size + 1):
            for lam in partitions_of(n):
                lam_c = conjugate(lam)
                for k in range(n + 1):
                    for mu in partitions_of(k):
                        for nu in partitions_of(n - k):
                            c = lr.lr_coeff(lam, mu, nu)
                            if c != lr.lr_coeff(lam, nu, mu):
                                yield "lr.symmetry", {
                                    "lam": list(lam),
                                    "mu": list(mu),
                                    "nu": list(nu),
                                }
                            if c != lr.lr_coeff(lam_c, conjugate(mu), conjugate(nu)):
                                yield "lr.transpose", {
                                    "lam": list(lam),
                                    "mu": list(mu),
                                    "nu": list(nu),
                                }

        for k in range(stack_max + 1):
            for mu in partitions_of(k):
                for j in range(stack_max + 1):
                    for nu in partitions_of(j):
                        if lr.lr_coeff(partitions.add(mu, nu), mu, nu) != 1:
                            yield "lr.stacking", {"mu": list(mu), "nu": list(nu)}

        for n in range(min(max_size, 5) + 1):
            for lam in partitions_of(n):
                for k in range(n):
                    for mu in partitions_of(k):
                        for nu in partitions_of(max(n - k - 1, 0)):
                            if size(mu) + size(nu) != n and lr.lr_coeff(lam, mu, nu) != 0:
                                yield "lr.size-vanishing", {
                                    "lam": list(lam),
                                    "mu": list(mu),
                                    "nu": list(nu),
                                }

        for n in range(min(max_size, 6) + 1):
            for lam in partitions_of(n):
                for nu in partitions_of(n):
                    want = 1 if lam == nu else 0
                    if lr.lr_coeff(lam, (), nu) != want or lr.lr_coeff(lam, nu, ()) != want:
                        yield "lr.empty-delta", {"lam": list(lam), "nu": list(nu)}

    return _first_failures(
        [
            ("lr.symmetry", {"max_size": max_size}),
            ("lr.transpose", {"max_size": max_size}),
            ("lr.stacking", {"max_size": stack_max}),
            ("lr.size-vanishing", {"max_size": min(max_size, 5)}),
            ("lr.empty-delta", {"max_size": min(max_size, 6)}),
        ],
        failures(),
    )


def ref_check_lr_rectangle(max_rect: int) -> list[VerificationReport]:
    def failures():
        for m in range(1, max_rect + 1):
            for a in range(1, max_rect + 1):
                box = partitions.box_partitions(m, a)
                box_shape = (m,) * a
                for mu in box:
                    for nu in box:
                        if lr.lr_rectangle(m, a, mu, nu) != lr.lr_coeff(box_shape, mu, nu):
                            yield "lr.rectangle", {
                                "m": m,
                                "a": a,
                                "mu": list(mu),
                                "nu": list(nu),
                            }
                for mu in box:
                    for variant in PartitionClass:
                        got = lr.lr_rect_sum(m, a, mu, variant)
                        member = partitions.in_rect_subset(lr._VARIANT_SUBSET[variant], m, a, mu)
                        want = 1 if member else 0
                        if got != want:
                            yield "lr.rect-sum", {
                                "m": m,
                                "a": a,
                                "mu": list(mu),
                                "variant": variant.value,
                            }

    return _first_failures(
        [("lr.rectangle", {"max": max_rect}), ("lr.rect-sum", {"max": max_rect})],
        failures(),
    )


def ref_check_lr_rectangle_pairs(max_rect: int) -> list[VerificationReport]:
    """check_lr_rectangle's earlier form: lr._rect_coeff at every (mu, nu) of each box."""

    def failures():
        for m in range(1, max_rect + 1):
            for a in range(1, max_rect + 1):
                box = partitions.box_partitions(m, a)
                coeffs = lr.lr_table((m,) * a)
                for mu in box:
                    for nu in box:
                        if lr._rect_coeff(m, a, mu, nu) != coeffs.get((mu, nu), 0):
                            yield "lr.rectangle", {
                                "m": m,
                                "a": a,
                                "mu": list(mu),
                                "nu": list(nu),
                            }
                for mu in box:
                    for variant in PartitionClass:
                        got = lr.lr_rect_sum(m, a, mu, variant)
                        member = partitions.in_rect_subset(lr._VARIANT_SUBSET[variant], m, a, mu)
                        want = 1 if member else 0
                        if got != want:
                            yield "lr.rect-sum", {
                                "m": m,
                                "a": a,
                                "mu": list(mu),
                                "variant": variant.value,
                            }

    return _first_failures(
        [("lr.rectangle", {"max": max_rect}), ("lr.rect-sum", {"max": max_rect})],
        failures(),
    )


def ref_lr_rect_sum(m: int, a: int, mu: Partition, variant: PartitionClass) -> int:
    """Sum of rectangle coefficients over a class of complements.

    Summing LR^{(m^a)}_{kappa, mu} over kappa in the chosen class gives 1
    exactly when mu lies in the matching rectangle subset, else 0; the sum is
    computed directly, membership is checked separately by the callers.
    """
    mu = as_partition(mu)
    box = (m,) * a
    want = size(box) - size(mu)
    if want < 0:
        return 0
    total = 0
    for kappa in box_partitions(m, a):
        if size(kappa) == want and in_class(kappa, variant):
            total += lr.lr_coeff(box, kappa, mu)
    return total


def ref_schur_expand(p: LaurentPoly, n: int) -> dict[Partition, int]:
    """Write a symmetric polynomial as an integer combination of Schur ones.

    Repeatedly subtracts c * S_lam at the dominance-greatest remaining
    partition-shaped monomial (largest degree first, lexicographic
    tie-break).  A residual with no partition-shaped monomial means the
    input was not symmetric and is rejected.  Each subtraction must leave
    the residual below the monomial it cleared, as it does when S_lam leads
    with coefficient 1; otherwise a one-line ValueError is raised, so a
    faulty S_lam cannot make the loop run forever.
    """
    table = p.table
    if len(table) != n:
        raise ValueError("polynomial table does not have n variables")
    for exps, _ in p.terms():
        if any(e < 0 for e in exps):
            raise ValueError("schur_expand expects a polynomial, no negative exponents")
    out: dict[Partition, int] = {}
    residual = p
    cleared = None  # (degree, exponents) of the monomial the last step cleared
    while not residual.is_zero:
        candidates = [
            exps
            for exps, _ in residual.terms()
            if all(exps[k] >= exps[k + 1] for k in range(n - 1))
        ]
        if not candidates:
            raise ValueError("polynomial is not symmetric: irreducible residual")
        lead = max(candidates, key=lambda e: (sum(e), e))
        if cleared is not None and (sum(lead), lead) >= cleared:
            raise ValueError(f"S_{lam} left {lead} in the residual: it does not lead with 1")
        lam = tuple(e for e in lead if e)
        c = residual.coeff(lead)
        out[lam] = c
        residual = residual - c * schur_in_table(lam, table)
        cleared = (sum(lead), lead)
    return out


def _pair(coeffs):
    # the first stored pair of two different, nonempty shapes
    return min((nu, mu) for nu, mu in coeffs if nu and mu and nu != mu)


def _shift_one(lam, coeffs):
    # one coefficient one too large
    coeffs[_pair(coeffs)] += 1


def _swap_shape(lam, coeffs):
    # every pair stored as (mu, nu); by symmetry no report may change
    swapped = {(mu, nu): c for (nu, mu), c in coeffs.items()}
    coeffs.clear()
    coeffs.update(swapped)


def _swap_one(lam, coeffs):
    # one pair written under its mirror, which it overwrites, leaving its own key empty
    nu, mu = _pair(coeffs)
    coeffs[mu, nu] = coeffs.pop((nu, mu))


def _wrong_size(lam, coeffs):
    # a key whose sizes add up to |lam| - 1
    coeffs[(), (size(lam) - 1,)] = 1


def _drop_delta(lam, coeffs):
    # S_lam missing from S_() * S_lam
    del coeffs[(), lam]


FAULTS = {
    "shift-one": _shift_one,
    "swap-shape": _swap_shape,
    "swap-one": _swap_one,
    "wrong-size": _wrong_size,
    "drop-delta": _drop_delta,
}


def _rows(reports):
    if isinstance(reports, VerificationReport):
        reports = [reports]
    return [(r.check_id, r.params, r.passed, r.witness) for r in reports]


@pytest.fixture
def shared_table(monkeypatch):
    """Point lr.lr_table and lr.lr_coeff at one table, with an optional fault on one shape."""

    def install(fault=None, target=None):
        real = lr.lr_table

        @cache
        def table(lam):
            coeffs = dict(real(lam))
            if lam == target:
                fault(lam, coeffs)
            return MappingProxyType(coeffs)

        monkeypatch.setattr(lr, "lr_table", table)
        monkeypatch.setattr(lr, "lr_coeff", lambda lam, mu, nu: table(lam).get((mu, nu), 0))

    yield install
    monkeypatch.undo()


def both_forms(monkeypatch, oracle, props, stack, rect):
    new = [
        _rows(verify.check_lr_oracle(oracle)),
        _rows(verify.check_lr_properties(props, stack)),
        _rows(verify.check_lr_rectangle(rect)),
    ]
    with monkeypatch.context() as m:
        m.setattr(lr, "lr_rect_sum", ref_lr_rect_sum)
        old = [
            _rows(ref_check_lr_oracle(oracle)),
            _rows(ref_check_lr_properties(props, stack)),
            _rows(ref_check_lr_rectangle(rect)),
        ]
    return new, old


def test_the_checks_match_their_references_on_the_healthy_library(monkeypatch, shared_table):
    shared_table()
    new, old = both_forms(monkeypatch, 6, 8, 4, 4)
    assert new == old
    assert all(passed for rows in new for _, _, passed, _ in rows)
    assert sum(map(len, new)) == 8


def test_the_checks_match_their_references_on_a_faulty_table(monkeypatch, shared_table):
    # Each fault on each shape; (2, 2) is a box, and (3, 1) is not its own conjugate.
    failed = set()
    for name, fault in FAULTS.items():
        for target in [(2, 1), (2, 2), (3, 1)]:
            shared_table(fault, target)
            new, old = both_forms(monkeypatch, 4, 5, 3, 3)
            assert new == old, (name, target)
            here = {check_id for rows in new for check_id, _, passed, _ in rows if not passed}
            # by symmetry a swapped shape changes no report; every other fault fails one
            assert bool(here) == (name != "swap-shape"), (name, target, here)
            failed |= here
            monkeypatch.undo()
    assert len(failed) == 8  # every LR report failed somewhere


def test_rect_sum_matches_its_reference():
    for m in range(1, 5):
        for a in range(1, 5):
            for mu in box_partitions(m, a):
                for variant in PartitionClass:
                    assert lr.lr_rect_sum(m, a, mu, variant) == ref_lr_rect_sum(
                        m, a, mu, variant
                    ), (m, a, mu, variant)


def oracle_products(max_size):
    for n in range(max_size + 1):
        nvars = max(n, 1)
        table = t_table(nvars)
        for k in range(n + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(n - k):
                    if (size(mu), mu) <= (size(nu), nu):
                        yield schur_in_table(mu, table) * schur_in_table(nu, table), nvars


def _expand(fn, p, n):
    try:
        return fn(p, n)
    except ValueError as err:
        return str(err)


def test_schur_expand_matches_its_reference_on_the_oracle_products():
    products = list(oracle_products(6))
    assert len(products) == 73
    for p, n in products:
        assert schur.schur_expand(p, n) == ref_schur_expand(p, n)


def test_schur_expand_matches_its_reference_on_the_error_paths():
    table = t_table(2)
    t1 = LaurentPoly.variable(table, "t1")
    s21 = schur_in_table((2, 1), t_table(3))
    cases = [
        (t1, 2),  # not symmetric
        (LaurentPoly.variable(table, "t1", -1), 2),  # a Laurent monomial
        (t1 * t1 + t1 * LaurentPoly.variable(table, "t2", 2), 2),  # asymmetric, then no lead
        (t1, 3),  # the wrong number of variables
        (s21 * s21 + LaurentPoly.variable(t_table(3), "t3", 7), 3),  # a stray monomial
    ]
    for p, n in cases:
        got = _expand(schur.schur_expand, p, n)
        assert isinstance(got, str), (p, n)
        assert got == _expand(ref_schur_expand, p, n)


def test_schur_expand_matches_its_reference_when_schur_does_not_lead_with_one(monkeypatch):
    real = schur._formal_factor

    def corrupted(sign, e):
        (d, u), *rest = real(sign, e)
        return ((d, u + e[1]), *rest)

    monkeypatch.setattr(schur, "_formal_factor", corrupted)
    clear_caches()
    try:
        products = list(oracle_products(3))
        messages = [_expand(schur.schur_expand, p, n) for p, n in products]
        assert any("does not lead with 1" in str(m) for m in messages)
        assert messages == [_expand(ref_schur_expand, p, n) for p, n in products]
    finally:
        monkeypatch.undo()
        clear_caches()


def test_horizontal_strips_are_the_interlacing_shapes():
    for n in range(7):
        for mu in partitions_of(n):
            for k in range(5):
                want = [
                    lam
                    for lam in partitions_of(n + k)
                    if all(
                        partitions.part(mu, i) <= partitions.part(lam, i)
                        and (i == 1 or partitions.part(lam, i) <= partitions.part(mu, i - 1))
                        for i in range(1, len(lam) + len(mu) + 1)
                    )
                ]
                assert sorted(verify._horizontal_strips(mu, k)) == sorted(want), (mu, k)


def test_the_pieri_products_match_schur_expand_of_the_explicit_products():
    # Every (mu, nu) with |mu| + |nu| <= 6, both orders, in |mu| + |nu| variables.
    checked = 0
    for n in range(7):
        table = t_table(max(n, 1))
        for k in range(n + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(n - k):
                    product = schur_in_table(mu, table) * schur_in_table(nu, table)
                    want = schur.schur_expand(product, len(table))
                    assert verify._schur_product(mu, nu, {}) == want, (mu, nu)
                    checked += 1
    assert checked == 139


def test_a_raised_lr_coefficient_turns_the_pieri_oracle_red(monkeypatch):
    real = lr.lr_table

    def raised(lam):
        coeffs = dict(real(lam))
        if lam == (3, 2, 1):
            coeffs[(2, 1), (2, 1)] += 1
        return coeffs

    assert real((3, 2, 1))[(2, 1), (2, 1)] == 2
    monkeypatch.setattr(lr, "lr_table", raised)
    report = verify.check_lr_oracle(6)
    assert not report.passed
    assert report.witness == {"lam": [3, 2, 1], "mu": [2, 1], "nu": [2, 1], "expected": 2}


def rect_both_forms(monkeypatch):
    """check_lr_rectangle(4) and its all-pairs form (class sums by ref_lr_rect_sum), as JSON."""
    new = verify.suite_to_json(verify.check_lr_rectangle(4))
    with monkeypatch.context() as m:
        m.setattr(lr, "lr_rect_sum", ref_lr_rect_sum)
        old = verify.suite_to_json(ref_check_lr_rectangle_pairs(4))
    return new, old


def test_the_rectangle_check_matches_its_all_pairs_form_on_a_faulty_box_table(
    monkeypatch, shared_table
):
    # Each table fault on four boxes; the check reads only the table's
    # entries and the complement pairs, the reference every pair of the box.
    failed = set()
    for name, fault in FAULTS.items():
        for target in [(2, 2), (3, 3), (2, 2, 2), (4, 4, 4)]:
            shared_table(fault, target)
            new, old = rect_both_forms(monkeypatch)
            assert new == old, (name, target)
            failed |= {r["id"] for r in map(json.loads, new.splitlines()) if not r["pass"]}
            monkeypatch.undo()
    assert failed == {"lr.rectangle", "lr.rect-sum"}


def _complement_fault(result):
    # (2, 1)'s complement in the 2 x 3 box, (2, 1) itself, replaced by result.
    real = lr._rect_complement
    return lambda m, a, mu: result if (m, a, mu) == (3, 2, (2, 1)) else real(m, a, mu)


@pytest.mark.parametrize(
    "complement, witness",
    [
        (lr._rect_complement, None),  # healthy
        # a box shape before (2, 1) in graded order: two mismatches, (3,) first
        (_complement_fault((3,)), {"m": 3, "a": 2, "mu": [2, 1], "nu": [3]}),
        # no complement, as when 1 -> 0 at the pair ((2, 1), (2, 1))
        (_complement_fault(None), {"m": 3, "a": 2, "mu": [2, 1], "nu": [2, 1]}),
        # every shape its own complement: mismatches in every box, first at ((), ())
        (lambda m, a, mu: mu, {"m": 1, "a": 1, "mu": [], "nu": []}),
    ],
    ids=["healthy", "earlier-shape", "none", "itself"],
)
def test_the_rectangle_check_matches_its_all_pairs_form_under_a_wrong_complement(
    monkeypatch, complement, witness
):
    monkeypatch.setattr(lr, "_rect_complement", complement)
    new, old = rect_both_forms(monkeypatch)
    assert new == old
    rectangle, rect_sum = verify.check_lr_rectangle(4)
    assert rectangle.witness == witness and rect_sum.passed


def test_a_flipped_rectangle_coefficient_turns_the_rectangle_check_red(monkeypatch):
    # check_lr_rectangle reads the unchecked lr._rect_complement on
    # box_partitions' shapes; (2, 1) left without its complement flips the
    # complementary pair ((2, 1), (2, 1)) from 1 to 0, and that pair must be
    # the lr.rectangle report's first witness, as in the all-pairs form.
    flipped = (3, 2, (2, 1), (2, 1))  # m, a, mu, nu
    assert lr._rect_coeff(*flipped) == lr.lr_rectangle(*flipped) == 1
    monkeypatch.setattr(lr, "_rect_complement", _complement_fault(None))
    assert lr._rect_coeff(*flipped) == 0
    rectangle, rect_sum = verify.check_lr_rectangle(4)
    assert (rectangle.check_id, rectangle.passed) == ("lr.rectangle", False)
    assert rectangle.witness == {"m": 3, "a": 2, "mu": [2, 1], "nu": [2, 1]}
    assert rectangle.witness == ref_check_lr_rectangle_pairs(4)[0].witness
    assert rect_sum.passed


def test_the_unchecked_rectangle_coefficient_matches_the_closed_form_it_replaces():
    # lr_rectangle's earlier body: mu_i + nu_{a+1-i} = m for every i, read by part().
    for m in range(1, 5):
        for a in range(1, 5):
            box = box_partitions(m, a)
            for mu in box:
                for nu in box:
                    ok = all(part(mu, i) + part(nu, a + 1 - i) == m for i in range(1, a + 1))
                    assert lr._rect_coeff(m, a, mu, nu) == int(ok), (m, a, mu, nu)
                    assert lr.lr_rectangle(m, a, list(mu), nu) == int(ok), (m, a, mu, nu)
