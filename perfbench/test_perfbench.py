"""Self-tests of the benchmark: metric names, and the correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The fault injection patches ``schur.h_list`` to add 1 to h_1, the seam that
``tests/test_verify.py::test_corrupted_series_is_detected`` uses, and checks
that every workload's gate reports the damage.
"""

from __future__ import annotations

import gc
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import superchar  # noqa: E402
from superchar import schur, verify  # noqa: E402

import metrics  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import LhsCapture, Patches  # noqa: E402

PINNED = json.loads((HERE / "pinned.json").read_text())

# Cheap requests of every kind, each pinned.  The classical sums and
# power_det never call h_list, so the injected fault must leave them passing.
TINY_FOLD = [("fold", "B1", 1, 0, "D", 1, 1), ("fold", "A2_ODD", 1, 0, "C", 2, 2)]
TINY_IDENTITY = [
    ("cauchy", "cauchy_square", 1, 0, 1, 7),
    ("dc", "xconst_to_angle_signed", [2, 1], 1, 1, -1),
    ("sum", "littlewood_even_rows", 2, 4),
    ("power_det", 3),
]
USES_H_LIST = {"fold", "cauchy", "dc"}
PINS = {**PINNED["fold"], **PINNED["identity"]}


def corrupt_h1(X, Y, degmax, _real=schur.h_list):
    hs = list(_real(X, Y, degmax))
    if len(hs) > 1:
        hs[1] = hs[1] + 1
    return tuple(hs)


@pytest.fixture
def corrupted(monkeypatch):
    superchar.clear_caches()
    monkeypatch.setattr(schur, "h_list", corrupt_h1)
    yield
    monkeypatch.undo()
    superchar.clear_caches()


def gate(requests, pins=None) -> worker.Tally:
    if pins is None:
        pins = {key: PINS[key][0] for key in map(workloads.request_key, requests)}
    patches = Patches()
    capture = LhsCapture()
    capture.install(patches)
    tally = worker.Tally()
    try:
        worker.run_requests(requests, pins, capture, tally)
    finally:
        patches.undo()
    return tally


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == metrics.WORKLOADS
    for key, ours in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        theirs = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert theirs == ours


def test_every_pool_request_is_pinned():
    assert set(map(workloads.request_key, workloads.fold_pool())) == set(PINNED["fold"])
    assert set(map(workloads.request_key, workloads.identity_pool())) == set(PINNED["identity"])


@pytest.mark.parametrize("workload", ["fold_requests", "identity_requests"])
def test_plan_is_seeded(workload):
    assert workloads.plan(workload, 3, PINNED) == workloads.plan(workload, 3, PINNED)
    assert workloads.plan(workload, 3, PINNED) != workloads.plan(workload, 4, PINNED)


@pytest.mark.parametrize("seed", range(5))
def test_every_fold_round_has_a_rank3_4x4_rectangle(seed):
    rnd = workloads.plan("fold_requests", seed, PINNED)
    assert any(r[2] + r[3] == 3 and r[5] == r[6] == 4 for r, _ in rnd)


@pytest.mark.parametrize("workload", ["fold_requests", "identity_requests"])
def test_round_weights_add_up_to_the_pool(workload):
    pool = workloads.SAMPLING[workload]["pool"]
    for seed in range(3):
        rnd = workloads.plan(workload, seed, PINNED)
        assert sum(w for _, w in rnd) == len(PINNED[pool])


def test_weighted_quantile():
    assert metrics.weighted_quantile([3.0, 1.0, 2.0], [1, 1, 1], 0.5) == 2.0
    assert metrics.weighted_quantile([5.0], [7], 0.9) == 5.0
    # 1 stands for three requests, 10 for one: their masses centre at 1.5
    # and 3.5 of 4, and quantiles between those interpolate.
    assert metrics.weighted_quantile([1.0, 10.0], [3, 1], 0.25) == 1.0
    assert metrics.weighted_quantile([1.0, 10.0], [3, 1], 0.5) == pytest.approx(3.25)
    assert metrics.weighted_quantile([1.0, 2.0], [1, 1], 0.5) == pytest.approx(1.5)


def test_gate_passes_clean_requests():
    tally = gate(TINY_FOLD + TINY_IDENTITY)
    assert (tally.attempted, tally.failed) == (len(TINY_FOLD + TINY_IDENTITY), 0)


@pytest.mark.usefixtures("corrupted")
@pytest.mark.parametrize("req", TINY_FOLD + TINY_IDENTITY, ids=lambda r: r[0])
def test_gate_catches_corrupted_series(req):
    tally = gate([req])
    assert (tally.attempted, tally.failed) == (1, int(req[0] in USES_H_LIST))


def test_gate_catches_digest_mismatch_on_a_passing_report():
    req = TINY_IDENTITY[0]
    key = workloads.request_key(req)
    tally = gate([req], {key: "0" * 32})
    assert (tally.attempted, tally.failed, tally.failing_reports) == (1, 1, 0)


@pytest.mark.usefixtures("corrupted")
def test_battery_gate_catches_corrupted_series():
    config = verify.SuiteConfig(degmax=2, max_lambda_size=1, max_rank=1, t_count=1)
    tally = worker.Tally()
    worker.run_battery(config, PINNED["battery"]["0"], tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.failing_reports > 0


def test_battery_gate_catches_digest_mismatch():
    # A small passing suite against the default suite's digest: the report
    # count and the digest both differ, and either one is a failure.
    config = verify.SuiteConfig(degmax=1, max_lambda_size=1, max_rank=1, t_count=1)
    tally = worker.Tally()
    worker.run_battery(config, PINNED["battery"]["0"], tally)
    assert (tally.attempted, tally.failed, tally.failing_reports) == (1, 1, 0)


def test_probe_scales_by_reference_over_local_kernel_time():
    p = probe.ContentionProbe()
    ref = probe.REFERENCE_S
    for at, cost in ((0.0, ref), (1.0, 2 * ref), (1.5, 2 * ref), (3.0, ref)):
        p.at.append(at)
        p.cost.append(cost)
        p.own.append(0.001)
    # Two samples inside the call (their 2 ms come off), both at half speed.
    assert p.corrected([(0.9, 2.0)]) == pytest.approx([(1.1 - 0.002) / 2])
    # No sample within the window: the mean over the run stands in.
    assert p.corrected([(2.3, 2.4)]) == pytest.approx([0.1 * ref / (1.5 * ref)])


def test_probe_keeps_the_collector_out_of_samples():
    p = probe.ContentionProbe()
    assert gc.isenabled()
    seen = []
    real = probe.kernel
    try:
        probe.kernel = lambda: seen.append(gc.isenabled())
        p._sample(signal.SIGALRM, None)
    finally:
        probe.kernel = real
    assert seen == [False, False]
    assert gc.isenabled()


def test_probe_samples_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    p = probe.ContentionProbe()
    p.start()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    p.stop()
    assert len(p.cost) >= 5
    assert signal.getsignal(signal.SIGALRM) is before


def test_run_exits_nonzero_on_corrupted_checkout(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "traces"))
    schur_py = tmp_path / "src" / "superchar" / "schur.py"
    schur_py.write_text(
        schur_py.read_text()
        + "\n\n_real_h_list = h_list\n\n\ndef h_list(X, Y, degmax):\n"
        "    hs = list(_real_h_list(X, Y, degmax))\n"
        "    if len(hs) > 1:\n        hs[1] = hs[1] + 1\n    return tuple(hs)\n"
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identity_requests",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == set(metrics.END_TO_END)


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_refuses_disk_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("SUPERCHAR_CACHE_DIR", str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "battery",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "SUPERCHAR_CACHE_DIR" in proc.stderr
