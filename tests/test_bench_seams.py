"""The seams the benchmark relies on must stay where it looks for them.

``perfbench/tracing.py`` replaces module attributes through
``owner.__dict__[attr]``, so a renamed or deleted seam would break only the
traced benchmark.  These tests import the tracer and check every site.  The
request builders in ``perfbench/workloads.py`` read the case and relation
tables, so the pools are built and one request of each kind is prepared.

The benchmark's correctness gate is checked by corrupting ``schur.h_list``:
it expects the classical sums and ``power_det`` to pass regardless, and every
other identity to fail.  The last test pins which checks read the h-series.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import superchar
from superchar import folding, laurent, lr, schur, verify
from superchar.laurent import LaurentPoly
from superchar.partitions import _class_inside, conjugate, enumerate_rect_subset, partitions_upto

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def import_perfbench(name):
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = saved


@pytest.fixture(scope="module")
def tracing():
    return import_perfbench("tracing")


def test_request_pools_build_and_prepare():
    workloads = import_perfbench("workloads")
    fold, identity = workloads.fold_pool(), workloads.identity_pool()
    assert (len(fold), len(identity)) == (1412, 6867)
    firsts = {}
    for req in fold + identity:
        firsts.setdefault(req[0], req)
    assert sorted(firsts) == ["cauchy", "dc", "fold", "power_det", "sum"]
    for req in firsts.values():
        module, name, args = workloads.prepare(req)
        assert callable(getattr(module, name)), req


def test_function_sites_exist(tracing):
    for name, sites in tracing.FUNCTION_SITES.items():
        for owner, attr in sites:
            assert attr in owner.__dict__, (name, owner.__name__, attr)


def test_method_sites_exist(tracing):
    for name, methods in tracing.METHOD_SITES.items():
        for method in methods:
            assert method in LaurentPoly.__dict__, (name, method)


def test_memo_caches_keep_their_api(tracing):
    for fn in tracing.MEMO_CACHES:
        assert hasattr(fn, "cache_info") and hasattr(fn, "cache_clear"), fn


@pytest.fixture
def h_list_calls(monkeypatch):
    """A counter of schur.h_list calls, with every memo cache cold."""
    calls = []
    real = schur.h_list

    def spy(X, Y, degmax):
        calls.append(degmax)
        return real(X, Y, degmax)

    superchar.clear_caches()
    monkeypatch.setattr(schur, "h_list", spy)
    yield calls
    monkeypatch.undo()
    superchar.clear_caches()


def test_h_series_control_reaches_exactly_the_series_checks(h_list_calls):
    for kind in verify.SUM_KINDS:
        assert verify.littlewood_sum_check(kind, 2, 4).passed
    assert verify.power_det_check(3).passed
    assert h_list_calls == [], "the classical sums and power_det must not read h_m"

    X, Y, _ = verify.cauchy_alphabets(1, 1, 2)
    case = folding.FoldingCase(folding.FoldingTag.B1, 1, 0)
    checks = [
        lambda: verify.cauchy_check("cauchy_square", X, Y, 2, 3),
        lambda: folding.general_dc_check("plain_to_square", (2, 1), X, Y),
        lambda: folding.verify_decomposition(case, folding.get_branch(case, "D"), 1, 2),
    ]
    for check in checks:
        superchar.clear_caches()
        h_list_calls.clear()
        assert check().passed
        assert h_list_calls, "every series identity must read h_m"


def counter(monkeypatch, owner, attr):
    """Replace owner.attr by a wrapper that counts its calls; return the count list."""
    calls = []
    real = getattr(owner, attr)

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def test_power_det_reaches_laurent_det(monkeypatch):
    # The traced laurent.det span wraps laurent.det; power_det_check must look
    # it up there at call time to be counted.
    calls = counter(monkeypatch, laurent, "det")
    assert verify.power_det_check(3).passed
    assert len(calls) == 1


def test_fold_request_reaches_schur_det_once_per_shape(monkeypatch):
    # The Jacobi-Trudi determinants reach det through schur's module global,
    # which the traced laurent.det span wraps too: one call for the
    # rectangle and one per nonempty shape of the branch's subset.
    case = folding.FoldingCase(folding.FoldingTag.A2_ODD, 2, 0)
    for branch in folding.branches(case):
        shapes = enumerate_rect_subset(branch.subset, 2, 3)
        superchar.clear_caches()
        calls = counter(monkeypatch, schur, "det")
        assert folding.verify_decomposition(case, branch, 3, 2).passed
        assert len(calls) == 1 + sum(1 for lam in shapes if lam), branch.name
        monkeypatch.undo()
    superchar.clear_caches()


def test_fold_requests_hand_poly_comparison_the_pinned_x_lhs(monkeypatch):
    # The benchmark digests the left-hand side that verify_decomposition
    # hands poly_comparison (looked up on folding): it must be the case's
    # character over its own x table, whatever table the sides are built on.
    workloads = import_perfbench("workloads")
    pins = json.loads((Path(PERFBENCH) / "pinned.json").read_text())["fold"]
    pool = workloads.fold_pool()
    costliest = sorted(pool, key=lambda req: -pins[workloads.request_key(req)][1])[:6]
    assert all(req[2:4] == (3, 0) and req[5:] == (4, 4) for req in costliest)
    small = [req for req in pool if req[2] + req[3] <= 2 and max(req[5:]) <= 3]
    seen = []
    real = folding.poly_comparison

    def capture(check_id, params, lhs, rhs):
        seen.append(lhs)
        return real(check_id, params, lhs, rhs)

    monkeypatch.setattr(folding, "poly_comparison", capture)
    superchar.clear_caches()
    for req in costliest + small:
        module, name, args = workloads.prepare(req)
        seen.clear()
        assert getattr(module, name)(*args).passed, req
        (lhs,) = seen
        assert lhs.table == folding.fold_alphabets(args[0])[0].table, req
        assert workloads.lhs_digest(lhs) == pins[workloads.request_key(req)][0], req
    superchar.clear_caches()


def test_classical_requests_hand_poly_comparison_the_pinned_lhs(monkeypatch):
    # The classical sums and power_det hand poly_comparison (looked up on
    # verify) their left side over the t table, which the benchmark digests:
    # the e-form Jacobi-Trudi sums and the determinant must give the pinned
    # values.
    workloads = import_perfbench("workloads")
    pins = json.loads((Path(PERFBENCH) / "pinned.json").read_text())["identity"]
    pool = workloads.identity_pool()
    requests = [req for req in pool if req[0] == "sum" and req[2] <= 4]
    requests += [("sum", "schur_sum", 5, 10)]
    requests += [req for req in pool if req[0] == "power_det" and req[1] <= 5]
    assert len(requests) == 3 * 4 * 11 + 1 + 5
    seen = []
    real = verify.poly_comparison

    def capture(check_id, params, lhs, rhs):
        seen.append(lhs)
        return real(check_id, params, lhs, rhs)

    monkeypatch.setattr(verify, "poly_comparison", capture)
    superchar.clear_caches()
    for req in requests:
        module, name, args = workloads.prepare(req)
        seen.clear()
        assert getattr(module, name)(*args).passed, req
        (lhs,) = seen
        assert workloads.lhs_digest(lhs) == pins[workloads.request_key(req)][0], req
    superchar.clear_caches()


def test_dc_requests_hand_poly_comparison_the_pinned_x_lhs(monkeypatch):
    # general_dc_check hands poly_comparison (looked up on folding) the left
    # side in x, which the benchmark digests, whatever table the sides are
    # built on; a corrupted series at the h_list seam must still change it.
    workloads = import_perfbench("workloads")
    pins = json.loads((Path(PERFBENCH) / "pinned.json").read_text())["identity"]
    pool = [req for req in workloads.identity_pool() if req[0] == "dc"]
    costliest = sorted(pool, key=lambda req: -pins[workloads.request_key(req)][1])[:6]
    small = [req for req in pool if sum(req[2]) <= 3]
    requests = costliest + small
    on_e = []
    seen = []
    real = folding.poly_comparison

    def capture(check_id, params, lhs, rhs):
        seen.append(lhs)
        return real(check_id, params, lhs, rhs)

    def run(req):
        module, name, args = workloads.prepare(req)
        seen.clear()
        report = getattr(module, name)(*args)
        (lhs,) = seen
        assert lhs.table == args[2].table, req
        return report, workloads.lhs_digest(lhs)

    monkeypatch.setattr(folding, "poly_comparison", capture)
    superchar.clear_caches()
    for req in requests:
        X, Y = workloads.prepare(req)[2][2:4]
        table = schur.h_list(X, Y, 0)[0].table
        on_e.append(isinstance(table, schur.ETable) and not table.over_z)
        report, digest = run(req)
        assert report.passed and digest == pins[workloads.request_key(req)][0], req
    assert all(on_e[:6]) and any(on_e[6:]) and not all(on_e[6:])

    real_h_list = schur.h_list

    def corrupted(X, Y, degmax):
        hs = list(real_h_list(X, Y, degmax))
        if len(hs) > 1:
            hs[1] = hs[1] + 1
        return tuple(hs)

    monkeypatch.setattr(schur, "h_list", corrupted)
    superchar.clear_caches()
    try:
        checked = 0
        for req, e_route in zip(requests, on_e):
            _, digest = run(req)
            # the left shape general_dc_check evaluates: lam', at (Y|X), when lam is tall
            lam = req[2]
            if lam and len(lam) > lam[0]:
                lam = conjugate(lam)
            reads_h1 = any(lam[i] - i + j == 1 for i in range(len(lam)) for j in range(len(lam)))
            if e_route and reads_h1:
                assert digest != pins[workloads.request_key(req)][0], req
                checked += 1
        # Measured: 195 of the 678 e-route requests read h_1 on the shape
        # evaluated (lam' for a tall lam); 390 read it on lam itself.
        assert checked == 195
    finally:
        monkeypatch.undo()
        superchar.clear_caches()


def test_an_e_to_z_fault_turns_the_x_reports_and_the_pinned_digests_red(monkeypatch):
    # laurent.e_to_z turns every e-table value into x.  With one term dropped
    # from each e_k that its passes expand, the battery's reports that compare
    # in x turn red (the Cauchy and classical-sum reports, the dimensions and
    # the bialternant agreement), and so do the pinned digests of the x left
    # sides.  The dc and fold verdicts compare over the e table and stay green.
    workloads = import_perfbench("workloads")
    pins = json.loads((Path(PERFBENCH) / "pinned.json").read_text())
    real = laurent.combinations
    monkeypatch.setattr(laurent, "combinations", lambda units, k: list(real(units, k))[:-1])
    seen = []

    def capture_on(module):
        real_comparison = module.poly_comparison

        def capture(check_id, params, lhs, rhs):
            seen.append(lhs)
            return real_comparison(check_id, params, lhs, rhs)

        monkeypatch.setattr(module, "poly_comparison", capture)

    def outcomes(requests, pool):
        passed = red = 0
        for req in requests:
            superchar.clear_caches()
            module, name, args = workloads.prepare(req)
            seen.clear()
            passed += getattr(module, name)(*args).passed
            red += workloads.lhs_digest(seen[0]) != pins[pool][workloads.request_key(req)][0]
        return len(requests), passed, red

    superchar.clear_caches()
    try:
        reports = verify.run_suite(verify.SuiteConfig())
        red = {}
        for report in reports:
            if not report.passed:
                red[report.check_id] = red.get(report.check_id, 0) + 1
        assert red == {
            "cauchy.cauchy_plain": 21,
            "cauchy.cauchy_square": 23,
            "cauchy.cauchy_angle": 22,
            "cauchy.cauchy_angle_dual": 23,
            "littlewood.schur_sum": 2,
            "littlewood.littlewood_even_rows": 2,
            "littlewood.littlewood_even_columns": 1,
            "fold.dimension": 13,
            "schur.bialternant-agreement": 1,
        }
        dc_and_fold = [
            r
            for r in reports
            if r.check_id.startswith(("dc.", "fold.")) and r.check_id != "fold.dimension"
        ]
        assert len(dc_and_fold) == 1007 and all(r.passed for r in dc_and_fold)

        capture_on(folding)
        capture_on(verify)
        fold = workloads.fold_pool()
        fold = [req for req in fold if req[2] + req[3] <= 2 and max(req[5:]) <= 3]
        identity = workloads.identity_pool()
        sums = [req for req in identity if req[0] == "sum" and req[2] <= 4]
        dc = [req for req in identity if req[0] == "dc" and sum(req[2]) <= 3]
        # (requests, verdicts green, digests red)
        assert outcomes(fold, "fold") == (448, 448, 164)
        assert outcomes(sums, "identity") == (132, 57, 75)
        assert outcomes(dc, "identity") == (1008, 1008, 554)
    finally:
        monkeypatch.undo()
        superchar.clear_caches()


def test_the_lr_checks_run_one_search_per_shape(monkeypatch):
    # The traced battery reads lr.lr_coeff's span and memo; the three LR
    # checks must read lr_table instead, which searches each shape once: the
    # 67 partitions of 0..8 and the boxes 3 x 3, 3 x 4, 4 x 3 and 4 x 4.
    def forbidden(*args):
        raise AssertionError("an LR check called lr.lr_coeff")

    superchar.clear_caches()
    monkeypatch.setattr(lr, "lr_coeff", forbidden)
    searches = counter(monkeypatch, lr, "_fillings")
    try:
        assert verify.check_lr_oracle(6).passed
        assert all(r.passed for r in verify.check_lr_properties(8))
        assert all(r.passed for r in verify.check_lr_rectangle(4))
        assert len(searches) == lr.lr_table.cache_info().currsize == 71
    finally:
        monkeypatch.undo()
        superchar.clear_caches()


@pytest.mark.parametrize("by_class", [True, False], ids=["class-weighted", "sign-weighted"])
def test_a_cold_dc_request_builds_only_the_coefficients_its_weight_reads(by_class):
    # A class weight's sums come from the class's own skew passes
    # (lr._class_table), so its cold request builds no lr_table; a sign
    # weight reads every nu, from exactly one lr_table and no class memo.
    X, Y, _ = verify.cauchy_alphabets(2, 1, 1)
    rows = [
        (relation, xi)
        for xi, table in folding._DC_ROWS.items()
        for relation, row in table.items()
        if (xi == 1 or relation in folding.XI_RELATIONS)
        and isinstance(row[2], superchar.PartitionClass) == by_class
    ]
    assert len(rows) == (8 if by_class else 4)
    for relation, xi in rows:
        superchar.clear_caches()
        assert folding.general_dc_check(relation, (3, 2, 1), X, Y, xi).passed, (relation, xi)
        built = lr.lr_table.cache_info().currsize, lr._class_table.cache_info().currsize
        assert built == ((0, 1) if by_class else (1, 0)), (relation, xi)
    superchar.clear_caches()


def test_a_cold_dc_sweep_builds_each_class_sum_once(monkeypatch):
    # The sweep states 8 class-weighted theorems per shape, two per class:
    # the 19 shapes of size <= 5 fill the class memo once per (lam, class),
    # 38 entries, each from one skew pass per class member inside lam, and
    # read it 114 more times.  Only the 4 sign rows read lr_table.
    lams = partitions_upto(5)
    classes = (superchar.PartitionClass.EVEN_ROWS, superchar.PartitionClass.EVEN_COLUMNS)
    members = sum(len(_class_inside(lam, tag)) for lam in lams for tag in classes)
    superchar.clear_caches()
    passes = counter(monkeypatch, lr, "_fillings")
    try:
        reports = verify.check_dc_sweep(5, 3, 2)
        assert reports and all(r.passed for r in reports)
        memo = lr._class_table.cache_info()
        assert memo.currsize == memo.misses == 2 * len(lams) == 38
        assert memo.hits == 8 * len(lams) - 38
        assert lr.lr_table.cache_info().currsize == len(lams)
        assert len(passes) == members + len(lams)
    finally:
        monkeypatch.undo()
        superchar.clear_caches()


def test_the_cauchy_sweep_reads_one_t_side_per_nT(monkeypatch):
    # A healthy cold default sweep decides every report by its free proof
    # and its pair's series guard, so its only schur.bracket_batch calls are
    # the t-sides, one per nT.  The alphabet characters made 4 * 9 more, and
    # one cauchy_check per report two each, 216 in all.
    superchar.clear_caches()
    batches = counter(monkeypatch, schur, "bracket_batch")
    try:
        config = verify.SuiteConfig()
        reports = verify.check_cauchy_sweep(2, 2, config.t_count, config.degmax)
        assert len(reports) == 108 and all(r.passed for r in reports)
        assert len(batches) == config.t_count == 3
    finally:
        monkeypatch.undo()
        superchar.clear_caches()


@pytest.mark.parametrize(
    "attr, check",
    [
        ("divide_linear", lambda: verify.check_schur_invariants(5)),
        ("super_schur", lambda: verify.check_fold_double_form(3)),
        ("bracket_schur", lambda: [verify.check_schur_stability(5, 0)]),
        pytest.param(
            "super_schur", lambda: verify.check_schur_invariants(5), id="super_schur-invariants"
        ),
        pytest.param(
            "super_schur", lambda: [verify.check_fold_hook_sanity(3)], id="super_schur-hook-sanity"
        ),
        pytest.param(
            "divide_linear",
            lambda: verify.run_suite(verify.SuiteConfig()),
            id="divide_linear-suite",
        ),
        pytest.param(
            "divide_linear",
            lambda: [verify.littlewood_sum_check(kind, 5, 10) for kind in verify.SUM_KINDS],
            id="divide_linear-sums",
        ),
    ],
)
def test_the_free_proofs_leave_the_per_shape_characters_unbuilt(monkeypatch, attr, check):
    # A healthy check proves its determinant identities over free h and
    # guards each alphabet pair's series, so it builds none of the per-shape
    # characters it once compared: the double-form rectangles (54 at the
    # default config) and the stability brackets (72).  Bialternant agreement
    # multiplies each Jacobi-Trudi character by the Vandermonde, so the
    # invariants divide nothing (the quotients took 168 divide_linear calls).
    # The classical sums take the e form of Jacobi-Trudi, so they and the
    # whole cold default suite divide nothing either (the summed alternants
    # took one divide_linear per pair of t's).
    # The characters the invariants and the hook sanity do build (hook
    # vanishing, bialternant agreement, the out-of-hook rectangles) come in
    # one schur.bracket_batch per alphabet pair, not one super_schur per shape.
    superchar.clear_caches()
    calls = counter(monkeypatch, schur, attr)
    try:
        reports = check()
        assert reports and all(r.passed for r in reports)
        assert calls == []
    finally:
        monkeypatch.undo()
        superchar.clear_caches()


def test_the_sweeps_take_each_side_key_batch_once(monkeypatch):
    # The dc and fold sweeps each prove their theorems as one batch, which
    # gathers every side's shapes by side key (constants, series map, entry
    # rule) and takes each key's determinants by one schur._table_dets call:
    # 13 keys for the dc sweep and 11 for the fold sweep.  Taking each side's
    # missing shapes as it came made 352 _table_dets calls.
    superchar.clear_caches()
    dets = counter(monkeypatch, schur, "det")
    batches = counter(monkeypatch, schur, "_table_dets")
    try:
        reports = verify.check_dc_sweep(5, 3, 2) + verify.check_fold_sweep(3)
        assert reports and all(r.passed for r in reports)
        assert len(dets) <= 366 and len(batches) <= 24
    finally:
        monkeypatch.undo()
        superchar.clear_caches()


def test_the_invariants_share_their_determinant_batches_and_series_guards(monkeypatch):
    # check_schur_invariants proves the table's comparisons as one batch of
    # theorems, which takes each (series map, entry rule) key once across
    # the rows: 8 batches of 18 determinants at max_lambda 5, where one per
    # comparison side would be 10 (352 schur.det calls).  The two dualities
    # share one series guard, where one guard per row reads 264
    # schur.h_list, and each altform pair, guarded against itself, is read
    # once, where reading it as both sides made 228.  Hook vanishing and
    # bialternant agreement take one batch per alphabet pair, where one
    # super_schur per shape made 128 schur._table_dets and 210 h_list calls.
    superchar.clear_caches()
    dets = counter(monkeypatch, schur, "det")
    h_lists = counter(monkeypatch, schur, "h_list")
    batches = counter(monkeypatch, schur, "_table_dets")
    try:
        reports = verify.check_schur_invariants(5)
        assert reports and all(r.passed for r in reports)
        assert len(dets) <= 316 and len(h_lists) <= 98 and len(batches) <= 16
    finally:
        monkeypatch.undo()
        superchar.clear_caches()
