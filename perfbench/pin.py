"""Recompute the pinned outputs that the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/pin.py

Writes ``perfbench/pinned.json``: for every request of the ``fold_requests``
and ``identity_requests`` pools, the digest of its serialized character and
its cold time in seconds when pinned (median of three contention-corrected
runs, see ``probe.py``), which orders the pool for sampling; for each
battery suite seed, the sha256 of the suite JSON.  Pin only from a commit whose outputs are trusted:
the gate treats these values as the truth.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import superchar  # noqa: E402
from superchar import verify  # noqa: E402

import workloads  # noqa: E402
from probe import ContentionProbe  # noqa: E402
from tracing import LhsCapture, Patches  # noqa: E402

PINNED = HERE / "pinned.json"
BATTERY_SEEDS = 8
REPEATS = 3


def pin_pool(pool: list[tuple]) -> dict[str, list]:
    """Digest and median contention-corrected cold time of every request."""
    patches = Patches()
    capture = LhsCapture()
    capture.install(patches)
    probe = ContentionProbe()
    spans: dict[str, list[tuple[float, float]]] = {}
    digests: dict[str, str] = {}
    probe.start()
    try:
        for i, req in enumerate(pool):
            key = workloads.request_key(req)
            prepared = workloads.prepare(req)
            for _ in range(REPEATS):
                superchar.clear_caches()
                t0 = time.perf_counter()
                rep = workloads.call(prepared)
                spans.setdefault(key, []).append((t0, time.perf_counter()))
                digest = workloads.lhs_digest(capture.lhs)
                if not rep.passed or digests.setdefault(key, digest) != digest:
                    raise SystemExit(f"refusing to pin a failing or unstable request {req!r}")
            if i % 200 == 0:
                print(f"{i}/{len(pool)}", file=sys.stderr, flush=True)
    finally:
        probe.stop()
        patches.undo()
    return {
        key: [digests[key], round(statistics.median(probe.corrected(s)), 5)]
        for key, s in spans.items()
    }


def pin_battery() -> dict[str, str]:
    out = {}
    for seed in range(BATTERY_SEEDS):
        superchar.clear_caches()
        reports = verify.run_suite(verify.SuiteConfig(seed=seed))
        if not all(r.passed for r in reports):
            raise SystemExit(f"refusing to pin a failing suite at seed {seed}")
        out[str(seed)] = workloads.digest(verify.suite_to_json(reports))
        print(f"battery seed {seed}: {len(reports)} reports", file=sys.stderr, flush=True)
    return out


def main() -> None:
    pinned = {
        "fold": pin_pool(workloads.fold_pool()),
        "identity": pin_pool(workloads.identity_pool()),
        "battery": pin_battery(),
    }
    PINNED.write_text(json.dumps(pinned, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
