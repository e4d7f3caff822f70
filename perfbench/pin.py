"""Write pinned.json: the digests every workload's CLI invocation emits at the
CLI's default seed, at the reference and smoke sizes, and the facts of the
machine that produced them.

Usage: python3 perfbench/pin.py

Run it only on purpose, when a change is meant to alter emitted numbers; the
benchmark fails any run at the default seed whose digests differ.  The
digests depend on scipy.special.ndtri, hence the recorded versions.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

from run import SRC, spawn, work_dir
from workloads import DIGEST_FIELDS, PINNED_FILE, WORKLOADS


def cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        # the CLI's default worker count (--threads unset): os.cpu_count()
        "cli_workers": os.cpu_count(),
    }


def main() -> int:
    digests: dict = {"reference": {}, "smoke": {}}
    with work_dir() as work:
        for size, pinned in digests.items():
            for workload in WORKLOADS.values():
                run_dir = Path(tempfile.mkdtemp(dir=work))
                out = run_dir / "out"
                child = spawn([*workload.args(size), "--output", str(out)], run_dir)
                if child.exit_code != 0:
                    print(f"{workload.name} ({size}) exited {child.exit_code}", file=sys.stderr)
                    return 1
                manifest = json.loads((out / "manifest.json").read_text())
                pinned[workload.name] = {f: manifest[f] for f in DIGEST_FIELDS if f in manifest}
                shutil.rmtree(run_dir)
    PINNED_FILE.write_text(json.dumps({"machine": machine_facts(), "digests": digests}, indent=2) + "\n")
    print(f"wrote {PINNED_FILE} from the sources in {SRC}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
