import ast
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from functools import cache, partial
from itertools import chain, combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superchar
from superchar import folding, laurent, lr, partitions, schur, verify
from superchar.laurent import Accumulator, LaurentPoly, VarTable
from superchar.partitions import in_hook
from superchar.report import VerificationReport, _first_failures, poly_comparison
from superchar.schur import Alphabet
from superchar.verify import (
    CAUCHY_KINDS,
    SuiteConfig,
    _parts_sum,
    cauchy_alphabets,
    cauchy_check,
    check_fold_dimensions,
    check_fold_double_form,
    check_fold_hook_sanity,
    check_lr_oracle,
    check_lr_properties,
    check_partition_properties,
    check_schur_invariants,
    check_schur_stability,
    littlewood_sum_check,
    power_det_check,
    run_suite,
    suite_to_json,
)

SMALL = SuiteConfig(degmax=3, max_lambda_size=2, max_rank=1, t_count=2, seed=1)


def test_report_invariant():
    with pytest.raises(ValueError):
        VerificationReport("x", {}, True, witness="oops")
    with pytest.raises(ValueError):
        VerificationReport("x", {}, False)
    with pytest.raises(ValueError):  # a failure under an id nobody reports
        _first_failures([("x", {})], iter([("y", "oops")]))


def test_report_json_and_sort_key_are_the_json_dumps_bytes():
    # The module's shared encoders give what json.dumps gives with the same arguments.
    t = LaurentPoly.variable(VarTable(('"é\\',)), '"é\\', -3)
    reports = [
        VerificationReport("x", {}, True),
        VerificationReport("a.b", {"z": [1, (2, 3)], "λ": "é"}, True),
        VerificationReport("x", {"m": 2}, False, witness=t * (2**70)),
        VerificationReport("x", {"m": 2}, False, witness={"expected": "1", "actual": "\x00"}),
    ]
    for r in reports:
        assert r.to_json() == json.dumps(r.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert r.sort_key() == (r.check_id, json.dumps(r.params, sort_keys=True, default=str))
    # A parameter JSON cannot hold is keyed by its str.
    unusual = VerificationReport("x", {"k": range(3)}, True)
    assert unusual.sort_key() == ("x", '{"k": "range(0, 3)"}')


def test_cauchy_single_row_example():
    X, Y, _ = cauchy_alphabets(1, 0, 1)
    assert cauchy_check("cauchy_plain", X, Y, 1, 3).passed


def test_cauchy_square_empty_alphabets():
    X, Y, _ = cauchy_alphabets(0, 0, 2)
    assert cauchy_check("cauchy_square", X, Y, 2, 4).passed


def test_cauchy_angle_dual_example():
    X, Y, _ = cauchy_alphabets(1, 1, 2)
    assert cauchy_check("cauchy_angle_dual", X, Y, 2, 4).passed


def test_cauchy_all_kinds_small():
    X, Y, _ = cauchy_alphabets(1, 1, 2)
    for kind in ("cauchy_plain", "cauchy_square", "cauchy_angle", "cauchy_angle_dual"):
        assert cauchy_check(kind, X, Y, 2, 4).passed, kind


def test_cauchy_degmax_zero_trivial():
    X, Y, _ = cauchy_alphabets(2, 1, 2)
    for kind in ("cauchy_plain", "cauchy_square", "cauchy_angle", "cauchy_angle_dual"):
        assert cauchy_check(kind, X, Y, 2, 0).passed


def test_cauchy_truncation_prefix_soundness():
    X, Y, _ = cauchy_alphabets(1, 1, 2)
    results = [cauchy_check("cauchy_plain", X, Y, 2, d).passed for d in range(7)]
    assert all(results)


def _reference_graded_product(table, nT, factors, degmax):
    """Each 1/(1-u) expanded as a geometric sum, everything multiplied out,
    and the t-degree filter applied once, at the end."""
    positions = [table.index[f"t{i}"] for i in range(1, nT + 1)]

    def t_degree(exps):
        return sum(exps[i] for i in positions)

    one = LaurentPoly.const(table, 1)
    out = one
    for u, divide in factors:
        if divide:
            ((exps, _),) = u.terms()
            series = power = one
            for _ in range(degmax // t_degree(exps)):
                power = power * u
                series = series + power
            out = out * series
        else:
            out = out * (one - u)
    return out.map_terms(lambda exps: t_degree(exps) <= degmax)


@st.composite
def graded_factor_lists(draw):
    """Signed monomials of t-degree 1-2 over 1-2 t variables and 0-2 others
    (negative exponents allowed), each as (t-degree, u, divide) with a
    multiply-or-divide flag."""
    nT = draw(st.integers(1, 2))
    others = draw(st.integers(0, 2))
    table = VarTable(
        tuple(f"v{i}" for i in range(1, others + 1)) + tuple(f"t{i}" for i in range(1, nT + 1))
    )

    def factor():
        d = draw(st.integers(1, 2))
        t_exps = [d]
        if nT == 2:
            first = draw(st.integers(-2, 3))
            t_exps = [first, d - first]
        exps = [draw(st.integers(-2, 2)) for _ in range(others)] + t_exps
        u = LaurentPoly.monomial(table, exps, draw(st.sampled_from((1, -1))))
        return d, u, draw(st.booleans())

    factors = [factor() for _ in range(draw(st.integers(0, 5)))]
    return table, nT, factors, draw(st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(graded_factor_lists())
def test_graded_product_matches_geometric_reference(case):
    """schur.graded_parts, each factor at its stated t-degree, summed by _parts_sum."""
    table, nT, factors, degmax = case
    plain = [(u, divide) for _, u, divide in factors]
    expected = _reference_graded_product(table, nT, plain, degmax)
    graded = [(((d, u),), divide) for d, u, divide in factors]
    parts = schur.graded_parts(LaurentPoly.const(table, 1), graded, degmax)
    assert _parts_sum(parts) == expected


def test_product_factor_of_degree_below_one_raises():
    X, Y, table = cauchy_alphabets(1, 0, 1)
    t1_inverse = Alphabet(table, ((1, (0, -1)),))  # the table is (x1, t1)
    for kind in CAUCHY_KINDS:
        # cauchy_check refuses an alphabet that holds a t before it builds a factor.
        with pytest.raises(ValueError, match="holds t1") as err:
            cauchy_check(kind, X | t1_inverse, Y, 1, 3)
        assert "\n" not in str(err.value)


def test_graded_recurrence_never_multiplies_by_zero(monkeypatch):
    # h_m(0|Y) vanishes above |Y|, and the even-columns product has no odd
    # t-degree parts: the recurrence skips those zero parts.  Each step of
    # the recurrence is one Accumulator, started from parts[k], and every
    # add to it multiplies a part by u.
    real = Accumulator.add
    calls, zero_operands = [], []

    def spy(self, p, c=1, u=None):
        calls.append(1)
        if p.is_zero or not c or (u is not None and u.is_zero):
            zero_operands.append((p, c, u))
        return real(self, p, c, u)

    X, Y, _ = cauchy_alphabets(0, 2, 1)
    table = schur.t_table(3)
    t = [LaurentPoly.variable(table, name) for name in table.names]
    even_columns = [(((2, t[i] * t[j]),), True) for i, j in combinations(range(3), 2)]
    superchar.clear_caches()
    monkeypatch.setattr(Accumulator, "add", spy)
    hs = schur.h_list(X, Y, 5)
    product = _parts_sum(schur.graded_parts(LaurentPoly.const(table, 1), even_columns, 6))
    monkeypatch.undo()
    assert calls and not zero_operands
    assert all(h.is_zero for h in hs[3:])
    assert all(sum(exps) % 2 == 0 for exps, _ in product.terms())


def per_shape_cauchy_lhs(kind, X, Y, nT, degmax):
    """The Cauchy character sum, one memoized character and one add per shape."""
    table = X.table
    T = Alphabet.formal(table, tuple(f"t{i}" for i in range(1, nT + 1)))
    none = Alphabet.empty(table)
    lhs = LaurentPoly.zero(table)
    for lam in partitions.partitions_upto(degmax, max_len=nT):
        if kind == "cauchy_plain":
            factor = schur.super_schur(lam, X, Y)
        elif kind == "cauchy_square":
            factor = schur.bracket_schur(schur.BracketType.SQUARE, lam, X, Y)
        elif kind == "cauchy_angle":
            factor = schur.bracket_schur(schur.BracketType.ANGLE, lam, X, Y)
        else:
            factor = schur.bracket_schur(schur.BracketType.ANGLE, partitions.conjugate(lam), X, Y)
        lhs = lhs + factor * schur.super_schur(lam, T, none)
    return lhs


def test_batched_cauchy_lhs_matches_the_per_shape_loop(monkeypatch):
    seen = []
    real = verify.poly_comparison

    def capture(check_id, params, lhs, rhs):
        seen.append(lhs)
        return real(check_id, params, lhs, rhs)

    monkeypatch.setattr(verify, "poly_comparison", capture)
    for kind in CAUCHY_KINDS:
        for nx in range(3):
            for ny in range(3):
                for nT in range(1, 4):
                    X, Y, _ = cauchy_alphabets(nx, ny, nT)
                    seen.clear()
                    superchar.clear_caches()
                    assert cauchy_check(kind, X, Y, nT, 6).passed
                    superchar.clear_caches()
                    assert seen == [per_shape_cauchy_lhs(kind, X, Y, nT, 6)], (kind, nx, ny, nT)


def test_cauchy_check_refuses_t_variables_it_cannot_use(monkeypatch):
    # Past the table's t's the check raised a bare KeyError; with t1 in X the
    # character side (cut at |lam| <= degmax) and the product side (cut by
    # t-degree) were cut differently, and a true identity read as failed.
    X, Y, _ = cauchy_alphabets(1, 1, 1)
    table = VarTable(("x1", "t1", "t2"))
    with_t1 = Alphabet.formal(table, ("x1", "t1"))
    none = Alphabet.empty(table)
    split = VarTable(("t1", "x1", "t2"))
    cases = [
        ((X, Y, 2), "t1..t2 as one contiguous run"),
        ((with_t1, none, 1), "X element t1 holds t1"),
        ((none, with_t1, 2), "Y element t1 holds t1"),
        ((Alphabet.formal(split, ("x1",)), Alphabet.empty(split), 2), "contiguous run"),
        ((X, none, 1), "different tables"),
    ]

    def no_work(*args):
        raise AssertionError("cauchy_check did work before refusing its input")

    monkeypatch.setattr(schur, "bracket_batch", no_work)
    for kind in CAUCHY_KINDS:
        for (A, B, nT), message in cases:
            with pytest.raises(ValueError, match=message) as err:
                cauchy_check(kind, A, B, nT, 3)
            assert "\n" not in str(err.value)
    monkeypatch.undo()
    # A t past nT is an ordinary variable of the alphabet.
    assert cauchy_check("cauchy_square", Alphabet.formal(table, ("x1", "t2")), none, 1, 4).passed


def per_check_args(t_count, degmax):
    """The arguments of one cauchy_check per suite Cauchy report, in the sweep's order."""
    return [
        (kind, *cauchy_alphabets(nx, ny, nT)[:2], nT, degmax)
        for kind in CAUCHY_KINDS
        for nx in range(3)
        for ny in range(3)
        for nT in range(1, t_count + 1)
    ]


def per_check_cauchy(t_count, degmax):
    """The suite's Cauchy reports as one cauchy_check each, in the sweep's order."""
    return [cauchy_check(*args) for args in per_check_args(t_count, degmax)]


def corrupted_formal_factor(real):
    def corrupted(sign, e):
        (d, u), *rest = real(sign, e)
        return ((d, u + e[1]), *rest)  # one coefficient of u_1 off by one

    return corrupted


def corrupted_h_list(real):
    def corrupted(X, Y, degmax):
        hs = list(real(X, Y, degmax))
        if len(hs) > 1:
            hs[1] = hs[1] + 1
        return tuple(hs)

    return corrupted


@pytest.mark.parametrize(
    "fault, red_at_3_6",
    [
        (None, 0),
        (("_formal_factor", corrupted_formal_factor), 89),
        (("h_list", corrupted_h_list), 108),
    ],
)
def test_cauchy_sweep_is_byte_equal_to_the_per_check_reports(monkeypatch, fault, red_at_3_6):
    # The sweep shares the t-side, the characters and the plain product; each
    # report must still be the bytes cauchy_check gives, witnesses included,
    # on the healthy library and under a corrupted series, which the Cauchy
    # reports are the battery's guard of.  A report the sweep hands to
    # cauchy_check is that call's result, so a spy checks that the call
    # carries the per-check arguments, in order; only the reports the sweep
    # decides itself are compared with a cauchy_check of their own.
    if fault is not None:
        attr, corrupt = fault
        monkeypatch.setattr(schur, attr, corrupt(getattr(schur, attr)))
    calls = []

    def spy(*args):
        calls.append((args, cauchy_check(*args)))
        return calls[-1][1]

    monkeypatch.setattr(verify, "cauchy_check", spy)
    try:
        for t_count, degmax in ((3, 6), (4, 7)):
            args = per_check_args(t_count, degmax)
            superchar.clear_caches()
            calls.clear()
            got = verify.check_cauchy_sweep(2, 2, t_count, degmax)
            assert len(got) == len(args), (t_count, degmax)
            handed = []  # the indices of the reports that are calls' results, in order
            for i, report in enumerate(got):
                if len(handed) < len(calls) and report is calls[len(handed)][1]:
                    handed.append(i)
            assert [call for call, _ in calls] == [args[i] for i in handed], (t_count, degmax)
            superchar.clear_caches()
            want = [r if i in handed else cauchy_check(*args[i]) for i, r in enumerate(got)]
            # Equal reports (id, params, verdict, witness over the same table)
            # serialize to equal bytes; at (4, 7) under a fault the witnesses
            # hold some 24 MB of JSON, so only (3, 6) is serialized here.
            assert got == want, (t_count, degmax)
            if (t_count, degmax) == (3, 6):
                assert [r.to_json() for r in got] == [r.to_json() for r in want]
                assert sum(not r.passed for r in got) == red_at_3_6
    finally:
        monkeypatch.undo()
        superchar.clear_caches()


def test_cauchy_sweep_matches_the_per_check_reports_at_small_degrees():
    for t_count, degmax in ((2, 1), (1, 0)):
        superchar.clear_caches()
        want = [r.to_json() for r in per_check_cauchy(t_count, degmax)]
        got = [r.to_json() for r in verify.check_cauchy_sweep(2, 2, t_count, degmax)]
        assert got == want, (t_count, degmax)
    assert verify.check_cauchy_sweep(2, 2, 0, 6) == []


def test_a_healthy_cauchy_sweep_decides_every_report_without_the_fallback(monkeypatch):
    # Every (kind, nT) identity is proved over free h and every pair's series
    # guard holds, so no report is built from alphabet characters.
    def forbidden(*args):
        raise AssertionError("the sweep fell back to cauchy_check")

    real_batch = schur.bracket_batch

    def t_side_only(tag, shapes, X, Y):
        assert X.table.names[0].startswith("t"), "a bracket_batch over an alphabet pair"
        return real_batch(tag, shapes, X, Y)

    superchar.clear_caches()
    monkeypatch.setattr(verify, "cauchy_check", forbidden)
    monkeypatch.setattr(schur, "bracket_batch", t_side_only)
    try:
        reports = verify.check_cauchy_sweep(2, 2, 3, 6)
    finally:
        monkeypatch.undo()
        superchar.clear_caches()
    assert len(reports) == 108 and all(r.passed for r in reports)
    assert [r.to_json() for r in reports] == [r.to_json() for r in per_check_cauchy(3, 6)]


def test_cauchy_sweep_with_swapped_brackets_is_red_and_byte_equal(monkeypatch):
    # SQUARE <-> ANGLE in the square and angle rows: their identities fail at
    # every nT, so their free proofs fail and their reports fall back.  The
    # dual row keeps SQUARE, and stays green.
    rows = verify._CAUCHY_ROWS
    for kind, bracket in (("cauchy_square", "ANGLE"), ("cauchy_angle", "SQUARE")):
        monkeypatch.setitem(rows, kind, (schur.BracketType[bracket], *rows[kind][1:]))
    try:
        superchar.clear_caches()
        want = [r.to_json() for r in per_check_cauchy(3, 6)]
        superchar.clear_caches()
        got = verify.check_cauchy_sweep(2, 2, 3, 6)
    finally:
        monkeypatch.undo()
        superchar.clear_caches()
    assert [r.to_json() for r in got] == want
    assert sum(not r.passed for r in got) == 2 * 27
    assert {r.params["kind"] for r in got if not r.passed} == {"cauchy_square", "cauchy_angle"}


def test_the_sweep_decides_the_dual_kind_by_its_own_row(monkeypatch):
    # With the dual row alone set to ANGLE, cauchy_check sums angle brackets
    # at (Y|X), which fail the square kind's product.  The sweep proves the
    # dual's own (bracket, pair rule), one more proof per nT, so it fails
    # too and the dual reports fall back to the per-check bytes.
    dual = verify._CAUCHY_ROWS["cauchy_angle_dual"]
    monkeypatch.setitem(
        verify._CAUCHY_ROWS, "cauchy_angle_dual", (schur.BracketType.ANGLE, *dual[1:])
    )
    real_proof, proofs = verify._cauchy_free_proof, []

    def proof(bracket, rule, *args):
        proofs.append((bracket, rule))
        return real_proof(bracket, rule, *args)

    monkeypatch.setattr(verify, "_cauchy_free_proof", proof)
    try:
        superchar.clear_caches()
        want = [r.to_json() for r in per_check_cauchy(3, 6)]
        superchar.clear_caches()
        got = verify.check_cauchy_sweep(2, 2, 3, 6)
    finally:
        monkeypatch.undo()
        superchar.clear_caches()
    assert [r.to_json() for r in got] == want
    assert sum(not r.passed for r in got) == 27
    assert {r.params["kind"] for r in got if not r.passed} == {"cauchy_angle_dual"}
    assert len(proofs) == 12 and proofs[-3:] == [(schur.BracketType.ANGLE, dual[1])] * 3


def test_a_corrupted_series_guard_falls_back_to_green_per_check_reports(monkeypatch):
    # With the guard's independent sum wrong, every pair falls back: the
    # reports stay the green per-check bytes.
    real = verify._monomial_h
    fallbacks = []
    real_check = verify.cauchy_check

    def corrupted(table, nx, ny, k):
        value = real(table, nx, ny, k)
        return value + 1 if k == 2 else value

    def counted(*args):
        fallbacks.append(args)
        return real_check(*args)

    superchar.clear_caches()
    monkeypatch.setattr(verify, "_monomial_h", corrupted)
    monkeypatch.setattr(verify, "cauchy_check", counted)
    try:
        got = [r.to_json() for r in verify.check_cauchy_sweep(2, 2, 3, 6)]
    finally:
        monkeypatch.undo()
        superchar.clear_caches()
    assert len(fallbacks) == 108
    assert got == [r.to_json() for r in per_check_cauchy(3, 6)]
    assert all('"pass":true' in line for line in got)


def off_by_one(real):
    def entry(base, j):
        return (*real(base, j), (1, 0))  # each entry plus h_0 = 1

    return entry


@pytest.mark.parametrize(
    "rule, red_kinds",
    [
        ("_angle_entry", {"cauchy_angle"}),
        ("_square_entry", {"cauchy_square", "cauchy_angle_dual"}),
    ],
)
def test_the_dual_kind_reads_the_square_rule(monkeypatch, rule, red_kinds):
    # The dual kind is the square kind at (Y|X) under t -> -t, so a fault in
    # the ANGLE rule leaves it green and one in the SQUARE rule turns it red.
    # _entry_rule looks each rule up at call time, so the fault reaches the
    # free proofs and the per-check characters alike.
    monkeypatch.setattr(schur, rule, off_by_one(getattr(schur, rule)))
    try:
        superchar.clear_caches()
        want = per_check_cauchy(3, 6)
        superchar.clear_caches()
        got = verify.check_cauchy_sweep(2, 2, 3, 6)
    finally:
        monkeypatch.undo()
        superchar.clear_caches()
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    assert {r.params["kind"] for r in got if not r.passed} == red_kinds


def test_no_cauchy_determinant_has_more_rows_than_t_variables(monkeypatch):
    # The dual kind's characters are taken at the shapes themselves, which
    # have at most nT rows, not at their conjugates (up to degmax rows); the
    # sweep proves each (bracket, pair rule) once per nT, and the dual row's
    # is the square kind's.
    rows, proofs = [], []
    real_det, real_proof = schur.det, verify._cauchy_free_proof

    def det(matrix):
        rows.append(len(matrix))
        return real_det(matrix)

    def proof(bracket, rule, *args):
        proofs.append((bracket, rule))
        return real_proof(bracket, rule, *args)

    monkeypatch.setattr(schur, "det", det)
    monkeypatch.setattr(verify, "_cauchy_free_proof", proof)
    superchar.clear_caches()
    try:
        assert cauchy_check("cauchy_angle_dual", *cauchy_alphabets(2, 2, 3)[:2], 3, 8).passed
        assert max(rows) == 3
        rows.clear()
        superchar.clear_caches()
        assert all(r.passed for r in verify.check_cauchy_sweep(2, 2, 3, 6))
    finally:
        monkeypatch.undo()
        superchar.clear_caches()
    assert max(rows) == 3
    rows = [verify._CAUCHY_ROWS[kind][:2] for kind in CAUCHY_KINDS[:3]]
    assert proofs == [row for row in rows for _ in range(3)]


@pytest.mark.parametrize(
    "corrupt, falls_back",
    [
        # Only the forward kinds read (2, 1): the dual report that would read
        # it, at (1, 2), is past max_y.
        ((2, 1), [(kind, 2, 1) for kind in CAUCHY_KINDS[:3]]),
        # Only the dual at (2, 1) reads (1, 2), which is past max_y itself.
        ((1, 2), [("cauchy_angle_dual", 2, 1)]),
        ((1, 0), [*((kind, 1, 0) for kind in CAUCHY_KINDS[:3]), ("cauchy_angle_dual", 0, 1)]),
    ],
)
def test_the_dual_kind_reads_the_guard_of_the_swapped_pair(monkeypatch, corrupt, falls_back):
    # cauchy_check reads the dual kind's series at (Y|X), so the sweep decides
    # a dual report at (nx, ny) by the guard of (ny, nx), and takes that
    # guard even where (ny, nx) is past the sweep's bounds.
    args = [
        (kind, *cauchy_alphabets(nx, ny, nT)[:2], nT, 5)
        for kind in CAUCHY_KINDS
        for nx in range(3)
        for ny in range(2)
        for nT in (1, 2)
    ]
    superchar.clear_caches()
    want = [cauchy_check(*a).to_json() for a in args]
    superchar.clear_caches()
    assert [r.to_json() for r in verify.check_cauchy_sweep(2, 1, 2, 5)] == want

    real = verify._monomial_h
    real_check = verify.cauchy_check
    fallbacks = []

    def corrupted(table, nx, ny, k):
        value = real(table, nx, ny, k)
        return value + 1 if (nx, ny) == corrupt and k == 2 else value

    def spy(kind, X, Y, nT, degmax):
        fallbacks.append((kind, len(X), len(Y), nT))
        return real_check(kind, X, Y, nT, degmax)

    superchar.clear_caches()
    monkeypatch.setattr(verify, "_monomial_h", corrupted)
    monkeypatch.setattr(verify, "cauchy_check", spy)
    try:
        got = [r.to_json() for r in verify.check_cauchy_sweep(2, 1, 2, 5)]
    finally:
        monkeypatch.undo()
        superchar.clear_caches()
    assert fallbacks == [(*report, nT) for report in falls_back for nT in (1, 2)]
    assert got == want


def invariants_per_shape(max_lambda):
    """check_schur_invariants as its six per-shape loops, every one run."""
    lams = partitions.partitions_upto(max_lambda)
    params = {"max_lambda": max_lambda}
    loops = verify._INVARIANT_LOOPS
    return _first_failures(
        [(check_id, params) for check_id in loops],
        chain.from_iterable(loop(lams) for loop in loops.values()),
    )


def stability_per_shape(seed):
    """check_schur_stability(5, seed) as its per-shape loop."""
    params = {"max_lambda": 5, "seed": seed, "samples": 12}
    draws = verify._stability_draws(5, seed, 12)
    return _first_failures([("schur.stability", params)], verify._stability_failures(draws))[0]


def double_form_per_shape(max_r):
    """check_fold_double_form(max_r) as its per-shape loop at each rank."""
    return [report for r in range(1, max_r + 1) for report in verify._double_form_reports(r, 3)]


# (the check, its per-shape route, the arguments each is run at)
PER_SHAPE_ROUTES = [
    (check_schur_invariants, invariants_per_shape, range(6)),
    (
        lambda seed: [check_schur_stability(5, seed)],
        lambda seed: [stability_per_shape(seed)],
        range(8),
    ),
    (check_fold_double_form, double_form_per_shape, range(4)),
]


def one_pair_h1(real):
    # h_1 + 1 at one pair of each check: the reversed dual pair (y1|x1,x2),
    # the second double-form pair at rank 2, and the shifted pair of seed 3's
    # first stability sample whose shape reads h_1.
    reversed_dual = cauchy_alphabets(2, 1, 1)[1::-1]
    double_form = verify._double_form_pairs(2)[1]
    _, X, Y, eta = next(draw for draw in verify._stability_draws(5, 3, 12) if len(draw[0]) > 1)
    pairs = {reversed_dual, double_form, (X | eta, Y | eta)}

    def corrupted(X, Y, degmax):
        hs = list(real(X, Y, degmax))
        if (X, Y) in pairs and len(hs) > 1:
            hs[1] = hs[1] + 1
        return tuple(hs)

    return corrupted


def one_degmax_h1(real):
    # h_1 + 1 at every pair, but only in the lists of degree 3.
    def corrupted(X, Y, degmax):
        hs = list(real(X, Y, degmax))
        if degmax == 3:
            hs[1] = hs[1] + 1
        return tuple(hs)

    return corrupted


def short_altform_square(real):
    # The SQUARE alternate form without its last H_m correction.
    return lambda base, j: real(base, j)[:-1]


def shifted_jacobi_trudi(c):
    # Every Jacobi-Trudi determinant (schur._table_dets) off by c; the
    # bialternant oracle's alternants keep the true det.
    def corrupt(real):
        real_det = schur.det

        def corrupted(shapes, hs, entry):
            schur.det = lambda rows: real_det(rows) + c
            try:
                return real(shapes, hs, entry)
            finally:
                schur.det = real_det

        return corrupted

    return corrupt


@pytest.mark.parametrize(
    "fault, outcome",
    [
        (None, "green"),
        (("h_list", one_pair_h1), "red"),
        (("h_list", one_degmax_h1), "red"),
        (("_altform_square_entry", short_altform_square), "red"),
        (("_table_dets", shifted_jacobi_trudi(2)), "red"),
        (("_table_dets", shifted_jacobi_trudi(1)), "red"),
    ],
    ids=["healthy", "h1-one-pair", "h1-one-degmax", "altform-square", "det+2", "det+1"],
)
def test_invariant_stability_and_double_form_checks_match_their_per_shape_loops(
    monkeypatch, fault, outcome
):
    # Each check's reports must be the bytes of its per-shape loops, healthy
    # and under each fault.  No route divides: a det off by 1, which leaves
    # every paired ANGLE determinant odd, turns reports red like any other.
    if fault is not None:
        attr, corrupt = fault
        monkeypatch.setattr(schur, attr, corrupt(getattr(schur, attr)))
    red = 0
    try:
        for check, per_shape, args in PER_SHAPE_ROUTES:
            for arg in args:
                outcomes = []
                for route in (check, per_shape):
                    superchar.clear_caches()
                    outcomes.append(suite_to_json(route(arg)))
                assert outcomes[0] == outcomes[1], (check, arg)
                red += outcomes[0].count('"pass":false')
    finally:
        monkeypatch.undo()
        superchar.clear_caches()
    assert bool(red) == (outcome == "red")


# One false identity per row of verify._invariant_table, each keeping every
# pair's left series the map of its right one.  Homogeneity's map becomes
# equality, so each pair's left alphabet becomes its right one: the sign
# then claims PLAIN_lam = -PLAIN_lam at odd |lam|.
TABLE_MUTATIONS = {
    "schur.homogeneity": lambda mapping, comparisons, pairs: (
        list, comparisons, [(fields, right, right) for fields, _, right in pairs]
    ),
    "schur.dual-plain": lambda mapping, comparisons, pairs: (
        mapping, [(f, k, left, False, signed, right) for f, k, left, _, signed, right in comparisons],
        pairs,
    ),
    "schur.dual-bracket": lambda mapping, comparisons, pairs: (
        mapping, [(f, k, left, conj, not s, right) for f, k, left, conj, s, right in comparisons],
        pairs,
    ),
    "schur.altform": lambda mapping, comparisons, pairs: (
        mapping, [(f, 1, *rest) for f, _, *rest in comparisons], pairs
    ),
}


@pytest.mark.parametrize("check_id", list(TABLE_MUTATIONS))
def test_a_false_table_row_turns_exactly_its_sub_check_red(monkeypatch, check_id):
    # The decided route proves, guards and falls back from the same table the
    # per-shape loops read, so a false row is red, alone, on both routes.
    real = verify._invariant_table

    def mutated():
        table = real()
        table[check_id] = TABLE_MUTATIONS[check_id](*table[check_id])
        return table

    monkeypatch.setattr(verify, "_invariant_table", mutated)
    routes = []
    try:
        for route in (check_schur_invariants, invariants_per_shape):
            superchar.clear_caches()
            routes.append(route(5))
    finally:
        monkeypatch.undo()
        superchar.clear_caches()
    assert suite_to_json(routes[0]) == suite_to_json(routes[1])
    assert [r.check_id for r in routes[0] if not r.passed] == [check_id]


def ref_holds(comparison, lam, left, right):
    """Whether comparison holds at lam; left and right map (entry rule, shape) to a value."""
    _, scale, rule_l, conj, signed, rule_r = comparison
    rule_l, rule_r = (getattr(schur, f"_{name}_entry") for name in (rule_l, rule_r))
    lhs = left(rule_l, partitions.conjugate(lam) if conj else lam)
    return scale * lhs == (-1) ** (signed * partitions.size(lam)) * right(rule_r, lam)


def ref_at(pair):
    """(rule, lam) -> lam's determinant over the pair, from the h_list at lam's own degree."""
    return lambda rule, lam: schur._jacobi_trudi([lam], *pair, rule)[0]


def ref_table_failures(check_id, lams):
    """A table row's earlier per-shape loop: each comparison at each pair, through ref_at."""
    _, comparisons, pairs = verify._invariant_table()[check_id]
    for fields, left, right in pairs:
        for lam in lams:
            for comparison in comparisons if lam else ():
                if not ref_holds(comparison, lam, ref_at(left), ref_at(right)):
                    yield check_id, {"lam": list(lam), **comparison[0], **fields}


def ref_invariant_decided(table, lams):
    """The earlier decided route: one call-local cache of (map, rule) batches over free h."""
    hs = schur._free_series(schur._degree(lams))
    degrees = verify._degrees(lams)

    @cache
    def dets(mapping, rule):
        return dict(zip(lams, schur._table_dets(lams, mapping(hs), rule)))

    @cache
    def guarded(mapping, pairs):
        return all(verify._guarded(left, right, degrees, mapping) for left, right in pairs)

    def proved(mapping, comparisons):
        left, right = (lambda rule, lam, m=m: dets(m, rule)[lam] for m in (mapping, list))
        return all(ref_holds(c, lam, left, right) for c in comparisons for lam in lams if lam)

    return {
        check_id
        for check_id, (mapping, comparisons, pairs) in table.items()
        if proved(mapping, comparisons)
        and guarded(mapping, tuple((left, right) for _, left, right in pairs))
    }


def mutated_row(check_id):
    # The table with TABLE_MUTATIONS' false identity in check_id's row.
    def apply(monkeypatch):
        real = verify._invariant_table

        def mutated():
            table = real()
            table[check_id] = TABLE_MUTATIONS[check_id](*table[check_id])
            return table

        monkeypatch.setattr(verify, "_invariant_table", mutated)

    return apply


def schur_fault(attr, corrupt):
    return lambda monkeypatch: monkeypatch.setattr(schur, attr, corrupt(getattr(schur, attr)))


INVARIANT_SETTINGS = {
    "healthy": lambda monkeypatch: None,
    **{f"mutated-{check_id}": mutated_row(check_id) for check_id in TABLE_MUTATIONS},
    "altform-square": schur_fault("_altform_square_entry", short_altform_square),
    "det+1": schur_fault("_table_dets", shifted_jacobi_trudi(1)),
    "h1-one-pair": schur_fault("h_list", one_pair_h1),
}


@pytest.mark.parametrize("setting", list(INVARIANT_SETTINGS))
def test_the_table_theorems_match_the_comparison_routes(monkeypatch, setting):
    # The invariant table's rows as theorems of the one free prover, and its
    # per-shape loop through pair_sides, against the earlier routes: a
    # call-local (map, rule) cache with _holds, and a loop through _at.
    # Each decided set, each row's failures and each check_schur_invariants
    # report must be the references'.
    INVARIANT_SETTINGS[setting](monkeypatch)
    routes = [
        (decide, {check_id: partial(loop, check_id) for check_id in TABLE_MUTATIONS})
        for decide, loop in (
            (verify._invariant_decided, verify._table_failures),
            (ref_invariant_decided, ref_table_failures),
        )
    ]
    lams = partitions.partitions_upto(5)
    outcomes = []
    try:
        for decide, loops in routes:
            superchar.clear_caches()
            decided = decide(verify._invariant_table(), lams)
            failures = [list(loop(lams)) for loop in loops.values()]
            with monkeypatch.context() as m:
                m.setattr(verify, "_invariant_decided", decide)
                for check_id, loop in loops.items():
                    m.setitem(verify._INVARIANT_LOOPS, check_id, loop)
                superchar.clear_caches()
                reports = suite_to_json(check_schur_invariants(5))
            outcomes.append((decided, failures, reports))
    finally:
        monkeypatch.undo()
        superchar.clear_caches()
    assert outcomes[0] == outcomes[1]
    decided, failures, _ = outcomes[0]
    assert (decided == set(TABLE_MUTATIONS)) == (setting == "healthy")
    assert any(failures) == (setting != "healthy")


def test_hook_vanishing_takes_a_shape_at_every_pair(monkeypatch):
    # No shape of size <= 5 lies outside the (2, 1) hook, so that pair takes
    # its corner (2, 2, 2); h_1 + 1 at that pair alone turns the check red.
    batches = []
    real_batch = schur.bracket_batch

    def spy(tag, shapes, X, Y):
        batches.append(list(shapes))
        return real_batch(tag, shapes, X, Y)

    monkeypatch.setattr(schur, "bracket_batch", spy)
    assert list(verify._hook_vanishing_failures(partitions.partitions_upto(5))) == []
    assert all(batches) and batches[3] == [(2, 2, 2)]

    pair = cauchy_alphabets(2, 1, 1)[:2]
    real_h_list = schur.h_list

    def corrupted(X, Y, degmax):
        hs = list(real_h_list(X, Y, degmax))
        if (X, Y) == pair and len(hs) > 1:
            hs[1] = hs[1] + 1
        return tuple(hs)

    monkeypatch.setattr(schur, "h_list", corrupted)
    superchar.clear_caches()
    try:
        (report,) = [r for r in check_schur_invariants(5) if r.check_id == "schur.hook-vanishing"]
        assert not report.passed
        assert report.witness == {"lam": [2, 2, 2], "nx": 2, "ny": 1}
    finally:
        monkeypatch.undo()
        superchar.clear_caches()


def ref_bialternant_failures(lams):
    """schur.bialternant-agreement's earlier loop: each alternant divided by the Vandermonde."""
    for n in (1, 2, 3, 4):
        table = schur.t_table(n)
        T = Alphabet.formal(table)
        none = Alphabet.empty(table)
        for lam in lams:
            if len(lam) > n:
                continue
            (char,) = schur.bracket_batch(schur.BracketType.PLAIN, [lam], T, none)
            if char != schur.bialternant_schur(lam, n):
                yield "schur.bialternant-agreement", {"lam": list(lam), "n": n}


def at_one_shape(real, change):
    # real changed by change(value) at lam = (2, 1) over t1, t2, t3 only.
    def corrupted(*args):
        value = real(*args)
        return change(value) if (2, 1) in args and value.table == schur.t_table(3) else value

    return corrupted


def in_batch_at_one_shape(real, change):
    # A batch function like schur.bracket_batch, changed as at_one_shape changes real.
    def corrupted(tag, shapes, X, Y):
        values = real(tag, shapes, X, Y)
        if X.table != schur.t_table(3):
            return values
        return [change(v) if tuple(lam) == (2, 1) else v for lam, v in zip(shapes, values)]

    return corrupted


@pytest.mark.parametrize(
    "fault",
    [
        None,
        (in_batch_at_one_shape, "bracket_batch", lambda value: value + 1),
        # twice the alternant is still divisible by the Vandermonde
        (at_one_shape, "_alternant", lambda value: 2 * value),
    ],
    ids=["healthy", "bracket_batch+1", "alternant*2"],
)
def test_bialternant_agreement_by_multiplication_matches_the_division_route(monkeypatch, fault):
    outcomes = []
    for loop in (verify._bialternant_failures, ref_bialternant_failures):
        superchar.clear_caches()
        with monkeypatch.context() as m:
            if fault is not None:
                corrupt, name, change = fault
                m.setattr(schur, name, corrupt(getattr(schur, name), change))
            m.setitem(verify._INVARIANT_LOOPS, "schur.bialternant-agreement", loop)
            outcomes.append(check_schur_invariants(5))
    superchar.clear_caches()
    assert suite_to_json(outcomes[0]) == suite_to_json(outcomes[1])
    red = [(r.check_id, r.witness) for r in outcomes[0] if not r.passed]
    if fault is None:
        assert red == []
    else:
        assert red == [("schur.bialternant-agreement", {"lam": [2, 1], "n": 3})]


def test_failing_poly_comparison_witnesses_the_difference():
    table = VarTable(("x1", "y1"))
    x, y = (LaurentPoly.variable(table, name) for name in table.names)
    lhs, rhs = x * x + y, x * y + y + 3
    rep = poly_comparison("c", {"n": 1}, lhs, rhs)
    assert not rep.passed and rep.witness == lhs - rhs
    assert poly_comparison("c", {"n": 1}, lhs, x * x + y).passed
    assert poly_comparison("c", {"n": 1}, lhs, lhs).passed


def test_littlewood_examples():
    assert littlewood_sum_check("schur_sum", 1, 3).passed
    assert littlewood_sum_check("littlewood_even_rows", 2, 4).passed
    assert littlewood_sum_check("littlewood_even_columns", 2, 4).passed


def test_power_det_small():
    table = schur.t_table(1)
    rep = power_det_check(1)
    assert rep.passed
    t1 = LaurentPoly.variable(table, "t1")
    # m = 1 reduces to 1 - t1^2 on both sides
    one = LaurentPoly.const(table, 1)
    assert (one - t1 * t1) == (one - t1 * t1)
    for m in (2, 3):
        assert power_det_check(m).passed


def variable_by_variable(table, m):
    """The product side as it was multiplied before the z form: (1 - t_i^2),
    then (t_j - t_i)(1 - t_j t_i) for each j < i, variable by variable."""
    one = LaurentPoly.const(table, 1)

    def tvar(i, power):
        return LaurentPoly.variable(table, f"t{i}", power)

    rhs = one
    for i in range(1, m + 1):
        rhs = rhs * (one - tvar(i, 2))
        for j in range(1, i):
            rhs = rhs * ((tvar(j, 1) - tvar(i, 1)) * (one - tvar(j, 1) * tvar(i, 1)))
    return rhs


def every_square_first(table, m):
    """The product side with every (1 - t_i^2) first, then each pair."""
    one = LaurentPoly.const(table, 1)
    t = [None] + [LaurentPoly.variable(table, name) for name in table.names]
    old = one
    for i in range(1, m + 1):
        old = old * (one - t[i] * t[i])
    for i, j in combinations(range(1, m + 1), 2):
        old = old * (t[i] - t[j]) * (one - t[i] * t[j])
    return old


def test_power_det_product_matches_the_old_order(monkeypatch):
    # The product side is the same polynomial, with the same terms, as the
    # two orders it was multiplied in before.
    seen = []
    real = verify.poly_comparison

    def capture(check_id, params, lhs, rhs):
        seen.append(rhs)
        return real(check_id, params, lhs, rhs)

    monkeypatch.setattr(verify, "poly_comparison", capture)
    for m in range(1, 6):
        table = schur.t_table(m)
        seen.clear()
        assert power_det_check(m).passed
        assert seen == [variable_by_variable(table, m)], m
        assert seen == [every_square_first(table, m)], m


def corrupt_skew_unfold(monkeypatch):
    # x^(k+1) + x^-(k+1) in place of (x - x^-1) U_k(x + x^-1) = x^(k+1) - x^-(k+1):
    # each U index unfolded as the T index one above it.  At m = 1 the
    # Vandermonde is 1 = U_0, whose fold row cannot go wrong, so the fault
    # is in the unfold phase.
    real = laurent._unfold

    def unfold(terms, table, lift):
        up = sum(lift << shift for shift in table.shifts)
        return real({key + up: c for key, c in terms.items()}, table, 0)

    monkeypatch.setattr(laurent, "_unfold", unfold)


def corrupt_vandermonde_factor(monkeypatch):
    # The Vandermonde with its factor (z_m - z_1) swapped for (z_m + z_1).
    real = verify._z_vandermonde

    def vandermonde(table):
        v = real(table)
        first, last = v.table.names[0], v.table.names[-1]
        z1, zm = (LaurentPoly.variable(v.table, name) for name in (first, last))
        return laurent.divide_linear(v, last, first) * (zm + z1)

    monkeypatch.setattr(verify, "_z_vandermonde", vandermonde)


def corrupt_det(monkeypatch):
    real = laurent.det
    monkeypatch.setattr(laurent, "det", lambda rows: real(rows) + 1)


@pytest.mark.parametrize(
    "fault, first_m",
    [(corrupt_skew_unfold, 1), (corrupt_vandermonde_factor, 2), (corrupt_det, 1)],
)
def test_power_det_fails_under_a_fault(monkeypatch, fault, first_m):
    # m = 1 has no Vandermonde factor to corrupt.
    fault(monkeypatch)
    for m in range(first_m, 6):
        assert not power_det_check(m).passed, m


def test_power_det_rejects_zero():
    with pytest.raises(ValueError):
        power_det_check(0)



X1, Y1, _ = cauchy_alphabets(1, 1, 2)
COUNT_ENTRY_POINTS = {
    "cauchy_alphabets.nx": lambda v: cauchy_alphabets(v, 0, 1),
    "cauchy_alphabets.ny": lambda v: cauchy_alphabets(1, v, 1),
    "cauchy_alphabets.nT": lambda v: cauchy_alphabets(1, 0, v),
    "cauchy_check.nT": lambda v: cauchy_check("cauchy_plain", X1, Y1, v, 2),
    "cauchy_check.degmax": lambda v: cauchy_check("cauchy_plain", X1, Y1, 2, v),
    "littlewood_sum_check.nT": lambda v: littlewood_sum_check("schur_sum", v, 2),
    "littlewood_sum_check.degmax": lambda v: littlewood_sum_check("schur_sum", 2, v),
    "power_det_check.m": power_det_check,
    "SuiteConfig.degmax": lambda v: SuiteConfig(degmax=v),
    "SuiteConfig.seed": lambda v: SuiteConfig(seed=v),
    "box_partitions.m": lambda v: partitions.box_partitions(v, 2),
    "in_rect_subset.a": lambda v: partitions.in_rect_subset(partitions.RectSubset.BOX, 2, v, ()),
}


@pytest.mark.parametrize("value", [True, 2.0, -1])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_counts_must_be_exact_nonnegative_ints(entry, value):
    with pytest.raises(ValueError) as err:
        COUNT_ENTRY_POINTS[entry](value)
    assert "\n" not in str(err.value)

def test_unknown_kinds_rejected():
    X, Y, _ = cauchy_alphabets(1, 0, 1)
    with pytest.raises(ValueError):
        cauchy_check("nope", X, Y, 1, 2)
    with pytest.raises(ValueError):
        littlewood_sum_check("nope", 1, 2)


def test_battery_pieces_pass():
    assert all(r.passed for r in check_partition_properties(8, 4, 3))
    assert check_schur_stability(3, seed=5, samples=6).passed
    assert all(r.passed for r in check_schur_invariants(3))
    assert check_lr_oracle(3).passed
    assert all(r.passed for r in check_fold_dimensions(2))
    assert all(r.passed for r in check_fold_double_form(2, 2))
    assert check_fold_hook_sanity(1, 3).passed


def test_witness_is_first_failing_instance(monkeypatch):
    monkeypatch.setattr(partitions, "box_partitions", lambda m, a: [])
    by_id = {r.check_id: r for r in check_partition_properties(8, 4, 3)}
    assert not by_id["partitions.box-count"].passed
    assert by_id["partitions.box-count"].witness == {"m": 1, "a": 1}
    monkeypatch.undo()

    class Shifted:
        # A shape's table with every coefficient, stored or not, one too large.
        def __init__(self, coeffs):
            self.coeffs = coeffs

        def get(self, key, default=0):
            return self.coeffs.get(key, default) + 1

    real = lr.lr_table
    monkeypatch.setattr(lr, "lr_table", lambda lam: Shifted(real(lam)))
    by_id = {r.check_id: r for r in check_lr_properties(3, 2)}
    assert by_id["lr.stacking"].witness == {"mu": [], "nu": []}
    assert by_id["lr.empty-delta"].witness == {"lam": [], "nu": []}
    # a shift by one keeps the symmetries, so those checks still pass
    assert by_id["lr.symmetry"].passed and by_id["lr.transpose"].passed


def test_hook_sanity_builds_only_out_of_hook_rectangles(monkeypatch):
    superchar.clear_caches()
    real = schur.bracket_batch
    built, batches = [], []

    def spy(tag, rects, X, Y):
        batches.append(tag)
        built.extend((rect, len(X), len(Y)) for rect in rects)
        return real(tag, rects, X, Y)

    def forbidden(case, a, m):
        raise AssertionError("check_fold_hook_sanity called kr_supercharacter")

    monkeypatch.setattr(schur, "bracket_batch", spy)
    monkeypatch.setattr(folding, "kr_supercharacter", forbidden)
    assert check_fold_hook_sanity(3).passed
    assert built
    # One plain batch per folding case.
    assert batches == [schur.BracketType.PLAIN] * len(verify.fold_cases(3))
    inside = [entry for entry in built if in_hook(*entry)]
    assert not inside, inside[:3]


def test_hook_sanity_reports_a_missing_rejection(monkeypatch):
    monkeypatch.setattr(folding, "require_in_hook", lambda case, a, m: None)
    rep = check_fold_hook_sanity(3)
    assert not rep.passed
    # B1 at r = 0, s = 1 has the ambient hook [0, 3]: 1 x 4 is the first
    # rectangle outside it.
    assert rep.witness == {"case": "B1", "r": 0, "s": 1, "a": 1, "m": 4, "rejection": False}


def test_hook_sanity_reports_a_nonvanishing_character(monkeypatch):
    def ones(tag, rects, X, Y):
        return [LaurentPoly.const(X.table, 1)] * len(rects)

    monkeypatch.setattr(schur, "bracket_batch", ones)
    rep = check_fold_hook_sanity(3)
    assert not rep.passed
    # B1 at r = 0, s = 1 folds to |X| = 0, |Y| = 3: 1 x 4 is the first
    # rectangle outside that hook.
    assert rep.witness == {"case": "B1", "r": 0, "s": 1, "a": 1, "m": 4}


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(degmax=-1)
    with pytest.raises(ValueError):
        SuiteConfig.from_json_dict({"degmax": 2, "bogus": 1})
    with pytest.raises(ValueError):
        SuiteConfig(degmax=True)
    with pytest.raises(ValueError):
        SuiteConfig(degmax="6")
    cfg = SuiteConfig.from_json_dict({"degmax": 2})
    assert cfg.degmax == 2 and cfg.t_count == 3


def test_run_suite_small_all_pass():
    reports = run_suite(SMALL)
    assert reports
    failing = [r for r in reports if not r.passed]
    assert not failing, [r.to_json() for r in failing[:3]]
    keys = [r.sort_key() for r in reports]
    assert keys == sorted(keys)


def test_run_suite_default_all_pass():
    reports = run_suite(SuiteConfig())
    failing = [r for r in reports if not r.passed]
    assert not failing, [r.to_json() for r in failing[:3]]
    # The byte-identity gate; a change that moves it re-pins perfbench/pinned.json too.
    assert len(reports) == 1169
    assert hashlib.sha256(suite_to_json(reports).encode()).hexdigest() == (
        "602a0ce87d95b7c6ff789c03b853276285305402fc1cba5704a32c1f59dbc8ea"
    )


def test_a_healthy_default_suite_divides_no_character(monkeypatch):
    # ANGLE is the determinant with one h in its first column, so nothing on
    # the report path is halved; bracket_schur_altform's reference, the one
    # halving left, runs on no battery route.
    calls = []
    real = LaurentPoly.exact_div

    def spy(self, divisor):
        calls.append(divisor)
        return real(self, divisor)

    monkeypatch.setattr(LaurentPoly, "exact_div", spy)
    superchar.clear_caches()
    try:
        reports = run_suite(SuiteConfig())
    finally:
        monkeypatch.undo()
        superchar.clear_caches()
    assert len(reports) == 1169 and all(r.passed for r in reports)
    assert calls == []


def test_run_suite_at_rank_five_is_pinned():
    # The rank-5 fold sweep's byte-identity gate, beside the default one.
    reports = run_suite(SuiteConfig(max_rank=5))
    assert len(reports) == 2272
    assert hashlib.sha256(suite_to_json(reports).encode()).hexdigest() == (
        "32834803715eba152516adad0e56f6337b62a80a765518e331f60bd062b4924d"
    )


def test_run_suite_degmax_zero_trivial():
    reports = run_suite(SuiteConfig(degmax=0, max_lambda_size=0, max_rank=1, t_count=1))
    assert all(r.passed for r in reports)


def test_concurrent_cache_access():
    from concurrent.futures import ThreadPoolExecutor

    import superchar
    from superchar.schur import BracketType, bracket_schur

    superchar.clear_caches()
    X, Y, _ = cauchy_alphabets(2, 1, 1)

    def work(_):
        return bracket_schur(BracketType.SQUARE, (2, 1), X, Y)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(32)))
    assert all(r == results[0] for r in results)


def test_run_suite_deterministic_across_cache_state():
    superchar.clear_caches()
    cold = suite_to_json(run_suite(SMALL))
    warm = suite_to_json(run_suite(SMALL))
    assert cold == warm


def test_every_public_name_resolves_on_the_package():
    names = superchar.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(superchar, name)] == []


# Top-level definitions that no library code names, each with why it stays.
UNNAMED_DEFINITIONS = {
    "partitions_inside": "a public helper that README documents",
    "_square_entry": "schur._entry_rule looks it up by name, from the rule 'square'",
}


def test_every_library_definition_is_reached_by_name():
    """Each top-level function and class of src/superchar is named in the library.

    A Name, an Attribute or an imported name anywhere in the package counts,
    and so does a name in superchar.__all__.  What is left must be exactly
    the allowlist, so code that no library path reaches is deleted.
    """
    package = Path(superchar.__file__).parent
    defined, named = set(), set(superchar.__all__)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    assert sorted(defined - named) == sorted(UNNAMED_DEFINITIONS)


# lru_caches that hold variable tables, not polynomials: clear_caches keeps them.
TABLE_CACHES = {"folding._vartable", "schur.e_table", "schur.t_table", "schur.z_table"}


def lru_caches():
    """Every lru_cache defined in a superchar module, by module.name."""
    out = {}
    for info in pkgutil.iter_modules(superchar.__path__):
        module = importlib.import_module(f"superchar.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                out[f"{info.name}.{name}"] = obj
    return out


def test_clear_caches_empties_every_polynomial_cache():
    caches = lru_caches()
    assert TABLE_CACHES <= set(caches)
    memos = set(caches) - TABLE_CACHES
    superchar.clear_caches()
    run_suite(SMALL)
    # One dc request runs the request path (pair_sides, then h_list with the
    # constants adjoined) before the caches are cleared.
    X, Y, _ = cauchy_alphabets(1, 1, 1)
    assert folding.general_dc_check("plain_to_square", (1,), X, Y).passed
    # The LR checks read lr_table, so one single query fills lr_coeff's memo.
    assert lr.lr_coeff((2, 1), (2,), (1,)) == 1
    # The suite proves the bracket comparisons over free h, so one query
    # each fills the bracket and alternate-form memos.
    square = schur.BracketType.SQUARE
    assert schur.bracket_schur(square, (2, 1), X, Y) == schur.bracket_schur_altform(
        square, (2, 1), X, Y
    )
    # Bialternant agreement multiplies by the Vandermonde, so one query fills
    # the quotient memo.
    assert schur.bialternant_schur((1,), 2).eval_all_ones() == 2
    # Every memo cache is now filled, so the emptiness below is not vacuous.
    assert {name for name in memos if caches[name].cache_info().currsize} == memos
    superchar.clear_caches()
    assert {name for name in memos if caches[name].cache_info().currsize} == set()


# Run in a fresh interpreter, so no earlier test has filled a memo: prints the
# size of every module-level dict, list and set of superchar at import, after
# a default run_suite plus one fold and one dc request, and after clear_caches().
CONTAINER_SCAN = """
import importlib, json, pkgutil
import superchar
from superchar import folding
from superchar.verify import SuiteConfig, cauchy_alphabets, run_suite

modules = [superchar] + [
    importlib.import_module(f"superchar.{info.name}")
    for info in pkgutil.iter_modules(superchar.__path__)
]


def sizes():
    return {
        f"{module.__name__}.{name}": len(obj)
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, (dict, list, set))
    }


at_import = sizes()
run_suite(SuiteConfig())
case = folding.FoldingCase(folding.FoldingTag.A2_ODD, 1, 0)
assert folding.verify_decomposition(case, folding.get_branch(case, "C"), 2, 2).passed
X, Y, _ = cauchy_alphabets(2, 1, 1)
assert folding.general_dc_check("yconst_to_square_shifted", (2, 1), X, Y).passed
after_run = sizes()
superchar.clear_caches()
print(json.dumps([at_import, after_run, sizes()]))
"""


def test_clear_caches_empties_every_module_container_that_grows():
    src = os.path.dirname(os.path.dirname(superchar.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", CONTAINER_SCAN], env=env, capture_output=True, text=True, check=True
    )
    at_import, after_run, cleared = json.loads(run.stdout)
    grown = {name for name, n in after_run.items() if n > at_import.get(name, 0)}
    assert "superchar.schur._pair_series" in grown
    assert {name: cleared[name] for name in grown if cleared[name]} == {}


def test_clear_caches_leaves_no_table_value_behind(monkeypatch):
    case = folding.FoldingCase(folding.FoldingTag.A2_ODD, 1, 0)
    branch = folding.get_branch(case, "C")
    X, Y, _ = cauchy_alphabets(2, 1, 1)  # on the e table of x's
    superchar.clear_caches()
    warm = folding.decomposition_rhs(case, branch, 2, 2)
    assert folding.verify_decomposition(case, branch, 2, 2).passed
    assert folding.general_dc_check("yconst_to_square_shifted", (2, 1), X, Y).passed
    warm_char = schur.super_schur((2, 1), X, Y)
    memos = {
        name: fn
        for name, fn in lru_caches().items()
        if name.split(".")[0] in ("folding", "schur", "lr") and name not in TABLE_CACHES
    }
    assert memos["schur.super_schur"].cache_info().currsize
    assert schur._pair_series
    superchar.clear_caches()
    assert {name for name, fn in memos.items() if fn.cache_info().currsize} == set()
    assert not schur._pair_series

    # A stale table or x value would hide a fault injected after a warm run.
    real = schur.h_list

    def corrupted(X, Y, degmax):
        hs = list(real(X, Y, degmax))
        if len(hs) > 1:
            hs[1] = hs[1] + 1
        return tuple(hs)

    monkeypatch.setattr(schur, "h_list", corrupted)
    try:
        assert folding.decomposition_rhs(case, branch, 2, 2) != warm
        assert not folding.verify_decomposition(case, branch, 2, 2).passed
        assert schur.super_schur((2, 1), X, Y) != warm_char
        # The two sides' alphabets differ in constants, so h_1 + 1 breaks it.
        assert not folding.general_dc_check("yconst_to_square_shifted", (2, 1), X, Y).passed
    finally:
        monkeypatch.undo()
        superchar.clear_caches()


def test_corrupted_series_is_detected(monkeypatch):
    superchar.clear_caches()
    real = schur.h_list

    def corrupted(X, Y, degmax):
        hs = list(real(X, Y, degmax))
        if len(hs) > 1:
            hs[1] = hs[1] + 1  # inject a wrong constant term
        return tuple(hs)

    monkeypatch.setattr(schur, "h_list", corrupted)
    try:
        reports = run_suite(SuiteConfig(degmax=2, max_lambda_size=1, max_rank=1, t_count=1))
        failing = [r for r in reports if not r.passed]
        assert failing
        assert all(r.witness is not None for r in failing)
    finally:
        monkeypatch.undo()
        superchar.clear_caches()


def test_suite_json_is_valid_json_lines():
    reports = run_suite(SuiteConfig(degmax=1, max_lambda_size=1, max_rank=1, t_count=1))
    payload = suite_to_json(reports)
    for line in payload.strip().splitlines():
        record = json.loads(line)
        assert set(record) >= {"id", "params", "pass"}
