"""One workload in one fresh interpreter; prints one JSON result line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Everything before the first timed call (interpreter start, import,
generating and preparing the seeded requests) is set-up, except reading the
pinned digests, which is the benchmark's own work; ``--t0`` carries the
parent's monotonic clock at spawn time so set-up includes interpreter
start.  With ``--setup-only`` the worker stops there.

The load is fixed by the seed alone: one cold suite (battery) or one round
of requests, whatever the speed of the code.  Untraced (``--trace 0``) the
worker runs it closed-loop, one request at a time, with the contention
probe running (``probe.py``); the latencies it reports are
contention-corrected, and the uncorrected ones ride along for reference.
Traced (``--trace 1``) it runs the load twice, first untraced and then with
spans recorded, and reports the per-layer numbers and the difference in
wall time as tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import superchar  # noqa: E402
from superchar import verify  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from probe import ContentionProbe  # noqa: E402
from tracing import LhsCapture, Patches, Tracer, cache_entries  # noqa: E402

TRACE_DIR = HERE / "traces"


class Tally:
    """Attempted and failed operations, reports seen and peak cache size."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []
        self.reports = 0
        self.failing_reports = 0
        self.cache_peak = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(what)

    def saw(self, reports) -> None:
        self.reports += len(reports)
        self.failing_reports += sum(not r.passed for r in reports)
        self.cache_peak = max(self.cache_peak, cache_entries())


def run_battery(config, want: str, tally: Tally) -> tuple[float, float]:
    """One cold suite as ``superchar suite`` runs it; returns its start and end."""
    superchar.clear_caches()
    t0 = time.perf_counter()
    try:
        reports = verify.run_suite(config)
        payload = verify.suite_to_json(reports)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        tally.record(False, f"suite raised {exc!r}")
        return t0, time.perf_counter()
    span = t0, time.perf_counter()
    tally.saw(reports)
    failing = [r.check_id for r in reports if not r.passed]
    if failing:
        tally.record(False, f"{len(failing)} failing reports, first {failing[0]}")
    elif len(reports) != metrics.BATTERY_REPORTS:
        tally.record(False, f"{len(reports)} reports, want {metrics.BATTERY_REPORTS}")
    elif workloads.digest(payload) != want:
        tally.record(False, "suite JSON digest differs from the pinned one")
    else:
        tally.record(True, "")
    return span


def run_requests(requests: list[tuple], pins: dict[str, str], capture: LhsCapture,
                 tally: Tally, tracer: Tracer | None = None) -> list[tuple[float, float]]:
    """Cold requests one at a time; returns each request's (start, end).

    ``pins`` maps each request's key to its pinned character digest.
    """
    spans = []
    for req in requests:
        key = workloads.request_key(req)
        prepared = workloads.prepare(req)
        superchar.clear_caches()
        capture.lhs = None
        if tracer is not None:
            tracer.request_id = len(spans)
        t0 = time.perf_counter()
        try:
            report = workloads.call(prepared)
        except Exception as exc:  # counted as a failed request
            spans.append((t0, time.perf_counter()))
            tally.record(False, f"{key} raised {exc!r}")
            continue
        spans.append((t0, time.perf_counter()))
        tally.saw([report])
        if not report.passed:
            tally.record(False, f"{key} did not pass")
        elif capture.lhs is None or workloads.lhs_digest(capture.lhs) != pins[key]:
            tally.record(False, f"{key} character digest differs from the pinned one")
        else:
            tally.record(True, "")
    return spans


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float,
                  tally: Tally) -> dict[str, float]:
    """Every per-layer metric from the traced pass's spans and counters."""
    totals = tracer.totals()
    counts = tracer.counts
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for name in metrics.PER_LAYER:
        if name == "laurent.add.self_s":
            value = sum(totals.get(n, zero)["self_s"] for n in ("laurent.add", "laurent.sub"))
        elif name == "laurent.mul.term_pairs" or name.endswith((".hits", ".misses")):
            value = counts.get(name, 0)
        elif name == "schur.cache_entries":
            value = tally.cache_peak
        elif name == "verify.reports":
            value = tally.reports
        elif name == "verify.failures":
            value = tally.failing_reports
        elif name == "trace.overhead_s":
            value = traced_s - untraced_s
        elif name == "trace.spans":
            value = len(tracer)
        else:
            span, _, field = name.rpartition(".")
            value = totals.get(span, zero)[field]
        out[name] = value
    return out


def summary(durations: list[float], weights: list[int]) -> dict[str, float]:
    """Latency quantiles and throughput over the pool the weights describe."""
    return {
        "latency_p50_ms": 1000 * metrics.weighted_quantile(durations, weights, 0.5),
        "latency_p90_ms": 1000 * metrics.weighted_quantile(durations, weights, 0.9),
        "throughput_per_s": sum(weights) / sum(w * d for w, d in zip(weights, durations)),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=metrics.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # Reading the pinned file is the benchmark's own work, so set-up leaves it
    # out; only the digests this run compares against outlive the parse.
    read_start = time.monotonic()
    pinned = json.loads((HERE / "pinned.json").read_text())
    read_s = time.monotonic() - read_start
    battery = args.workload == "battery"
    if battery:
        suite_seed = args.seed % len(pinned["battery"])
        config = verify.SuiteConfig(seed=suite_seed)
        want = pinned["battery"][str(suite_seed)]
        load = [json.dumps(["battery", suite_seed])]
        weights = [1]
    else:
        planned = workloads.plan(args.workload, args.seed, pinned)
        requests = [req for req, _ in planned]
        weights = [weight for _, weight in planned]
        load = [workloads.request_key(req) for req in requests]
        pool = pinned[workloads.SAMPLING[args.workload]["pool"]]
        pins = {key: pool[key][0] for key in load}
        del pool
    del pinned
    setup_s = time.monotonic() - args.t0 - read_s
    result = {"setup_s": setup_s, "load_digest": workloads.digest("\n".join(load))}
    if args.setup_only:
        print(json.dumps(result))
        return

    patches = Patches()
    capture = LhsCapture()
    if not battery:
        capture.install(patches)

    def timed_pass(tally: Tally, tracer: Tracer | None = None) -> list[tuple[float, float]]:
        """(start, end) of every timed call: the requests, or the one suite."""
        if battery:
            return [run_battery(config, want, tally)]
        return run_requests(requests, pins, capture, tally, tracer)

    tally = Tally()
    if args.trace:
        # The same load twice, untraced and then traced, so the traced
        # counts repeat exactly for a seed.
        untraced = [t1 - t0 for t0, t1 in timed_pass(tally)]
        traced_tally = Tally()
        tracer = Tracer()
        tracer.install(patches)
        try:
            traced = [t1 - t0 for t0, t1 in timed_pass(traced_tally, tracer)]
        finally:
            patches.undo()
        result["layers"] = layer_metrics(tracer, sum(untraced), sum(traced), traced_tally)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(trace_file)
        result["trace_file"] = str(trace_file.relative_to(HERE.parent))
        tally.attempted += traced_tally.attempted
        tally.failed += traced_tally.failed
        tally.examples += traced_tally.examples
        result.update(summary(untraced, weights), samples=len(untraced))
    else:
        probe = ContentionProbe()
        probe.start()
        try:
            spans = timed_pass(tally)
        finally:
            probe.stop()
        patches.undo()
        result.update(summary(probe.corrected(spans), weights), samples=len(spans))
        result["uncorrected"] = summary([t1 - t0 for t0, t1 in spans], weights)
        result["uncorrected"].update(
            probe_samples=len(probe.cost),
            probe_min_s=min(probe.cost, default=0.0),
            probe_mean_s=statistics.fmean(probe.cost) if probe.cost else 0.0,
        )

    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=tally.attempted,
        failed=tally.failed,
        failure_examples=tally.examples[:5],
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
