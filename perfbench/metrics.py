"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root lists the same metrics; the
self-test keeps the two in step.
"""

from __future__ import annotations

WORKLOADS = ("battery", "fold_requests", "identity_requests")

# The default suite config gives this many reports at the pinned commit.
BATTERY_REPORTS = 1169

# Untraced run, every workload.  On battery one request is one whole cold
# suite, so the latency figures there are the suite's wall time.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
}

# The 14 check functions the battery calls, in battery order.
VERIFY_CHECKS = (
    "check_partition_properties",
    "check_schur_stability",
    "check_schur_invariants",
    "check_lr_oracle",
    "check_lr_properties",
    "check_lr_rectangle",
    "check_dc_sweep",
    "check_fold_sweep",
    "check_fold_hook_sanity",
    "check_fold_dimensions",
    "check_fold_double_form",
    "cauchy_check",
    "littlewood_sum_check",
    "power_det_check",
)

# Traced run, every workload.
PER_LAYER = {
    "laurent.mul.calls": ("count", "lower"),
    "laurent.mul.term_pairs": ("count", "lower"),
    "laurent.mul.self_s": ("s", "lower"),
    "laurent.det.calls": ("count", "lower"),
    "laurent.det.self_s": ("s", "lower"),
    "laurent.add.calls": ("count", "lower"),
    "laurent.add.self_s": ("s", "lower"),
    "laurent.map_terms.calls": ("count", "lower"),
    "laurent.map_terms.self_s": ("s", "lower"),
    "laurent.divide_linear.calls": ("count", "lower"),
    "laurent.divide_linear.self_s": ("s", "lower"),
    "schur.h_list.calls": ("count", "lower"),
    "schur.h_list.misses": ("count", "lower"),
    "schur.h_list.self_s": ("s", "lower"),
    "schur.super_schur.hits": ("count", "higher"),
    "schur.super_schur.misses": ("count", "lower"),
    "schur.super_schur.self_s": ("s", "lower"),
    "schur.bracket_schur.hits": ("count", "higher"),
    "schur.bracket_schur.misses": ("count", "lower"),
    "schur.bracket_schur.self_s": ("s", "lower"),
    "schur.schur_in_table.self_s": ("s", "lower"),
    "schur.schur_expand.self_s": ("s", "lower"),
    "schur.cache_entries": ("count", "lower"),
    "lr.lr_coeff.hits": ("count", "higher"),
    "lr.lr_coeff.misses": ("count", "lower"),
    "lr.lr_coeff.self_s": ("s", "lower"),
    "folding.kr_supercharacter.self_s": ("s", "lower"),
    "folding.decomposition_rhs.self_s": ("s", "lower"),
    "folding.general_dc_check.self_s": ("s", "lower"),
    **{f"verify.{name}.s": ("s", "lower") for name in VERIFY_CHECKS},
    "verify.reports": ("count", "higher"),
    "verify.failures": ("count", "lower"),
    "report.poly_comparison.self_s": ("s", "lower"),
    "report.suite_to_json.s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def weighted_quantile(values: list[float], weights: list[float], q: float) -> float:
    """The q-quantile of the distribution giving each value its weight.

    Each value sits at the middle of its share of the cumulative weight, and
    the quantile interpolates between neighbours; with equal weights and an
    odd count the 0.5-quantile is the median.
    """
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    target = q * total
    below = 0.0
    prev_mid, prev_value = None, None
    for value, weight in pairs:
        mid = below + weight / 2
        if mid >= target:
            if prev_mid is None:
                return value
            return prev_value + (target - prev_mid) / (mid - prev_mid) * (value - prev_value)
        below += weight
        prev_mid, prev_value = mid, value
    return pairs[-1][0]
