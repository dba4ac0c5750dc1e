"""Acceptance battery: every criterion at its stated bound, exact equality.

Each test prints one `CRITERION <n> <name>: PASS|FAIL` line (run pytest with
-s or read test_output.txt to see them all).
"""

import time

from superchar import clear_caches, folding
from superchar.folding import (
    FoldingCase,
    FoldingTag,
    get_branch,
    kr_supercharacter,
)
from superchar.schur import Alphabet, BracketType, bracket_schur
from superchar.verify import (
    CAUCHY_KINDS,
    SUM_KINDS,
    SuiteConfig,
    cauchy_alphabets,
    cauchy_check,
    check_dc_sweep,
    check_fold_double_form,
    check_fold_sweep,
    check_lr_oracle,
    check_lr_properties,
    check_lr_rectangle,
    check_schur_invariants,
    check_schur_stability,
    littlewood_sum_check,
    power_det_check,
    run_suite,
    suite_to_json,
)


def report(number, name, failures, started):
    elapsed = time.time() - started
    status = "PASS" if not failures else f"FAIL {failures[:3]}"
    print(f"CRITERION {number} {name}: {status} ({elapsed:.1f}s)")
    assert not failures, f"criterion {number} ({name}): {failures[:10]}"


def failing(reports):
    return [r.to_json() for r in reports if not r.passed]


def test_criterion_1_relation_suite():
    started = time.time()
    reports = check_dc_sweep(max_lambda=5, max_x=3, max_y=2)
    report(1, "eight-relation suite", failing(reports), started)


def test_criterion_2_cauchy_battery():
    started = time.time()
    bad = []
    for kind in CAUCHY_KINDS:
        for nx in range(3):
            for ny in range(3):
                for nT in (1, 2, 3):
                    X, Y, _ = cauchy_alphabets(nx, ny, nT)
                    rep = cauchy_check(kind, X, Y, nT, 6)
                    if not rep.passed:
                        bad.append((kind, nx, ny, nT))
    for d in range(6):
        X, Y, _ = cauchy_alphabets(1, 1, 2)
        if not cauchy_check("cauchy_plain", X, Y, 2, d).passed:
            bad.append(("cauchy_plain", "degmax", d))
    for kind in SUM_KINDS:
        for nT in (1, 2, 3):
            if not littlewood_sum_check(kind, nT, 6).passed:
                bad.append((kind, nT))
    report(2, "cauchy and sum battery", bad, started)


def test_criterion_3_power_det():
    started = time.time()
    bad = [m for m in range(1, 6) if not power_det_check(m).passed]
    report(3, "determinant identity", bad, started)


def test_criterion_4_lr_correctness():
    started = time.time()
    reports = [check_lr_oracle(6)]
    reports += check_lr_properties(8)
    reports += check_lr_rectangle(4)
    report(4, "LR coefficients", failing(reports), started)


def test_criterion_5_folding_decompositions():
    started = time.time()
    reports = check_fold_sweep(max_rank=3, max_am=3)
    assert len(reports) > 100  # every case/branch pair is exercised
    report(5, "folding decompositions", failing(reports), started)


def test_criterion_6_dimension_spots():
    started = time.time()
    spots = [
        (FoldingTag.B1, lambda r: r, lambda r: 2 * r + 1),
        (FoldingTag.A2_ODD, lambda r: r, lambda r: 2 * r + 1),
        (FoldingTag.A2_EE, lambda r: r, lambda r: 2 * r),
        (FoldingTag.D1, lambda r: r, lambda r: 2 * r),
        (FoldingTag.SPO, lambda r: r, lambda r: 2 * r),
        # the B_r vector plus the trivial summand: the D2_{r+1} KR module W^(1)_1
        (FoldingTag.D2, lambda r: r + 1, lambda r: 2 * r + 2),
    ]
    bad = []
    for tag, param, expect in spots:
        for r in (1, 2, 3):
            case = FoldingCase(tag, param(r), 0)
            value = kr_supercharacter(case, 1, 1).eval_all_ones()
            if value != expect(r):
                bad.append(f"{tag.value} r={r}: expected {expect(r)}, computed {value}")
            if tag is FoldingTag.D2:
                X, Y = folding._palindromic_pair(case)
                X = X | Alphabet.constants(X.table, (get_branch(case, "B").x_const,))
                vector = bracket_schur(BracketType.SQUARE, (1,), X, Y).eval_all_ones()
                if vector != 2 * r + 1:
                    bad.append(f"D2 r={r}: vector summand expected {2 * r + 1}, computed {vector}")
    report(6, "dimension spot checks", bad, started)


def test_criterion_7_double_form_agreement():
    started = time.time()
    reports = check_fold_double_form(max_r=3, max_am=3)
    report(7, "double-form agreement", failing(reports), started)


def test_criterion_8_schur_invariants():
    started = time.time()
    reports = [check_schur_stability(max_lambda=5, seed=0, samples=30)]
    reports += check_schur_invariants(max_lambda=5)
    report(8, "schur layer invariants", failing(reports), started)


def test_criterion_9_suite_determinism():
    started = time.time()
    config = dict(degmax=4, max_lambda_size=3, max_rank=2, t_count=2, seed=0)
    clear_caches()
    cold = suite_to_json(run_suite(SuiteConfig(**config)))
    warm = suite_to_json(run_suite(SuiteConfig(**config)))
    bad = [] if cold == warm else ["cold and warm cache outputs differ"]
    report(9, "suite determinism", bad, started)
