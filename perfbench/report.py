"""Print the end-to-end metrics of every workload.

Usage: python3 perfbench/report.py

Runs each workload's untraced closed loop (as run.py --trace 0 does) for
BENCHMARK.json's run_seconds, at benchmark seed SEED, and prints wall_s,
setup_s, peak_rss_mb and fail_ratio with their units and sample counts.
Exits 1 if any run failed its checks.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, measure
from workloads import WORKLOADS

SEED = 1


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    failed = 0
    for workload in WORKLOADS.values():
        result = measure(workload, SEED, seconds)
        failed += result.failed
        print(result.summary(workload.name), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
