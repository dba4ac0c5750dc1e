"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload fold_requests --seeds 1-10 [--json out.json]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of that median: the spread that must stay within the
metric's bound in ``BENCHMARK.json``; the same for the uncorrected wall-clock
timings, for comparison.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--json", help="also write the runs and spreads here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        runs.append({name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()})
        for line in lines:
            if line.startswith("uncorrected "):
                for item in line.split()[1:]:
                    key, _, value = item.partition("=")
                    runs[-1][f"uncorrected.{key}"] = float(value)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()
                                         if not k.startswith("uncorrected.")), flush=True)
    spreads = {}
    for key in ("latency_p50_ms", "latency_p90_ms", "throughput_per_s"):
        values = [run[f"uncorrected.{key}"] for run in runs if f"uncorrected.{key}" in run]
        if len(values) == len(runs):
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spreads[f"uncorrected.{key}"] = {"median": median, "spread": (q3 - q1) / median}
            print(f"(uncorrected {key}: median {median:.6g} spread {(q3 - q1) / median:.4f})")
    for metric in spec["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spreads[metric["name"]] = {"median": median, "spread": (q3 - q1) / median,
                                   "bound": metric["bound"]}
        flag = "" if (q3 - q1) / median < metric["bound"] / 3 else "  <-- above bound/3"
        print(f"{metric['name']:18} median {median:.6g} spread {(q3 - q1) / median:.4f} "
              f"bound {metric['bound']}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "runs": runs, "spreads": spreads},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
