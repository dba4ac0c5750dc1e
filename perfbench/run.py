"""Benchmark entry point: one workload, one JSON result line.

    python3 perfbench/run.py --workload battery|fold_requests|identity_requests|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the library is
imported from the checkout's ``src``.  Each workload runs in fresh
interpreters started here (set-up probes, then the measured worker), with a
fixed hash seed.  Lines before the last describe the environment, the load
and every metric by name and unit; the last line is the JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0 only
when every operation passed its correctness gate.

The load is fixed by ``--seed`` alone (one cold suite, or one round of
requests), so that runs of faster or slower code apply the same load;
``--seconds`` is accepted and ignored.  On the reference host a run takes
about 25-45 s of wall time.

``--workload all`` runs the three workloads one after another and names
the metrics per workload (``battery_s``, ``fold_req_p50_ms``, ...).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

SETUP_PROBES = 8  # extra set-up-only interpreters; set-up is their median with the worker's
RUN_LIMIT_S = 175.0  # a run must end within 180 s
HASH_SEED = "0"

# Per-workload names for --workload all, from the untraced figures.
NAMED = {
    "battery": {"battery_s": ("latency_p50_ms", 1e-3, "s")},
    "fold_requests": {
        "fold_req_p50_ms": ("latency_p50_ms", 1, "ms"),
        "fold_req_p90_ms": ("latency_p90_ms", 1, "ms"),
        "fold_req_per_s": ("throughput_per_s", 1, "1/s"),
    },
    "identity_requests": {
        "identity_req_p50_ms": ("latency_p50_ms", 1, "ms"),
        "identity_req_p90_ms": ("latency_p90_ms", 1, "ms"),
        "identity_req_per_s": ("throughput_per_s", 1, "1/s"),
    },
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "hash_seed": HASH_SEED,
    }


def worker(args, workload: str, deadline: float, setup_only: bool = False) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"{workload} worker exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, workload: str, deadline: float) -> dict:
    setups = [worker(args, workload, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = worker(args, workload, deadline)
    result["setup_s"] = statistics.median(setups + [result["setup_s"]])
    print(f"load workload={workload} seed={args.seed} digest={result['load_digest']} "
          f"timed_requests={result['samples']} attempted={result['attempted']}")
    for example in result["failure_examples"]:
        print(f"FAILED {example}")
    if "uncorrected" in result:
        print("uncorrected " + " ".join(f"{k}={v!r}" for k, v in result["uncorrected"].items()))
    if "trace_file" in result:
        print(f"spans written to {result['trace_file']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="superchar benchmark")
    parser.add_argument("--workload", choices=metrics.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="accepted and ignored: the seed fixes the load")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("SUPERCHAR_CACHE_DIR"):
        print("error: SUPERCHAR_CACHE_DIR is set; a run would read cached disk state "
              "and not be cold", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "superchar" / "__init__.py").is_file():
        print(f"error: no superchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = metrics.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        results = {w: run_workload(args, w, deadline) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        values = {
            "setup_s": (max(r["setup_s"] for r in results.values()), "s"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in results.values()), "MB"),
            "failed_ops_ratio": (failed / attempted, "ratio"),
        }
        for w, named in NAMED.items():
            for name, (source, scale, unit) in named.items():
                values[name] = (results[w][source] * scale, unit)
    elif args.trace:
        (result,) = results.values()
        values = {name: (result["layers"][name], unit)
                  for name, (unit, _) in metrics.PER_LAYER.items()}
    else:
        (result,) = results.values()
        values = {name: (result[name], unit)
                  for name, (unit, _) in metrics.END_TO_END.items()}
    if args.workload != "all":
        print(f"metric failed_ops_ratio {failed / attempted!r} ratio")
    for name, (value, unit) in values.items():
        print(f"metric {name} {value!r} {unit}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
