"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --parent-rev REV \\
        --pairs 10 --first-seed 2101 --out BENCH_21.json [--workload W ...]

DIR is a checkout (src/ and perfbench/) of each side, such as a git-archive
copy.  Before the first pair, src/ and perfbench/ of both checkouts are
compiled to bytecode with the running interpreter, so that neither side's
runs compile modules that the other side's runs read from __pycache__.
Pair i runs `perfbench/run.py --workload W --seed S --seconds T
--trace 0` at seed S = first_seed + i - 1 for every workload in turn, each
workload on both sides in a row: odd pairs parent first, even pairs change
first.  T defaults to BENCHMARK.json's run_seconds.  The output file has the
keys what, parent, command, protocol, machine and runs, and is rewritten
after every run, so a stopped series keeps the runs it made; a finished one
also gets a summary (see summarise).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _side(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, q3 = _quartiles(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (max(values) - min(values)) / median if median else None}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric of BENCHMARK.json: each side's
    median, quartiles and spread ((max - min) / median) over its correct
    runs; the median per-pair ratio change / parent; the pairs the change
    won (ties count for neither); whether the change's median is worse than
    the parent's by no more than the metric's bound (a fraction); and
    whether the medians differ by more than the parent's quartile distance.
    A gain is claimable when the change is better, won at least nine tenths
    of the pairs and the medians differ by more than that distance."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        results = {side: [(r["pair"], r.get("result") or {}) for r in runs
                          if r["workload"] == workload and r["side"] == side] for side in SIDES}
        block: dict = {key: {side: sum(res.get(key, 0) for _, res in results[side])
                             for side in SIDES} for key in ("attempted", "failed")}
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            by_pair = {side: {pair: res["metrics"][name]["value"] for pair, res in results[side]
                              if res.get("correct") and name in res["metrics"]}
                       for side in SIDES}
            both = [(a, by_pair["change"][pair]) for pair, a in by_pair["parent"].items()
                    if pair in by_pair["change"]]
            if not both:
                continue
            parent, change = (_side(list(by_pair[side].values())) for side in SIDES)
            gap = change["median"] - parent["median"]
            won = sum(sign * (b - a) < 0 for a, b in both)
            beyond_iqr = abs(gap) > parent["q3"] - parent["q1"]
            block[name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent": parent, "change": change,
                "relative_change": gap / parent["median"] if parent["median"] else None,
                "median_pair_ratio": statistics.median(b / a for a, b in both if a),
                "pairs": len(both), "pairs_won": won,
                "within_bound": sign * gap <= metric["bound"] * abs(parent["median"]),
                "beyond_parent_iqr": beyond_iqr,
                "claimable_gain": sign * gap < 0 and won >= 0.9 * len(both) and beyond_iqr,
            }
        summary[workload] = block
    return summary


def _machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": versions[0], "scipy": versions[1]}


def compile_bytecode(checkouts: list[Path]) -> None:
    """Write __pycache__ for every module under src/ and perfbench/ of each
    checkout, with this interpreter (python -m compileall -q)."""
    for checkout in checkouts:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(checkout / "src"),
                        str(checkout / "perfbench")], check=True)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py --trace 0 run: its last stdout line, parsed, or
    a failed result naming the exit code."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(checkout / "src")})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
            "error": f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-rev", required=True, help="the parent's commit, as recorded")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names, dest="workloads")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads = args.workloads or names
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    last = args.first_seed + args.pairs - 1
    record = {
        "what": "perfbench/run.py JSON result lines for the parent commit and this change",
        "parent": args.parent_rev,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0, run by tools/bench_pairs.py from a checkout of the parent "
                   "('parent') and of this change ('change')",
        "protocol": f"Pairs 1-{args.pairs}, seeds {args.first_seed}-{last} (pair i uses seed "
                    f"{args.first_seed - 1}+i), workloads {', '.join(workloads)} in turn within "
                    "each pair, each workload run on both sides in a row: odd pairs parent then "
                    "change, even pairs change then parent. Before the first pair, src/ and "
                    "perfbench/ of both checkouts were compiled to bytecode with the running "
                    "interpreter (python -m compileall -q). Every run made is recorded.",
        "machine": _machine(),
        "runs": [],
    }
    compile_bytecode(list(checkouts.values()))
    for pair in range(1, args.pairs + 1):
        seed = args.first_seed + pair - 1
        for workload in workloads:
            for side in SIDES if pair % 2 else SIDES[::-1]:
                result = _run(checkouts[side], workload, seed, args.seconds)
                record["runs"].append({"side": side, "pair": pair, "workload": workload,
                                       "seed": seed, "trace": 0, "result": result})
                args.out.write_text(json.dumps(record, indent=1) + "\n")
                wall = result["metrics"].get("wall_s", {}).get("value", float("nan"))
                print(f"pair {pair} {workload} {side}: correct={result['correct']} "
                      f"wall_s={wall:.3f}", file=sys.stderr, flush=True)
    record["summary"] = summarise(record["runs"], bench["end_to_end"])
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
