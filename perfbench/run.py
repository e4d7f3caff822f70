"""End-to-end benchmark of the sqrtwiener CLI, with a traced layer replay.

Run from anywhere inside a checkout (the program is taken from its src/):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 first starts a warm-up and SETUP_PROBES children that only import
the CLI, then runs the workload's CLI invocation in child processes, one after the
other (a closed loop with one client), until about S seconds have been
spent in children.  The first invocation uses the CLI's default seed, whose
digests are pinned; the others use seeds drawn from N.  Every invocation's
outputs are checked outside its timed interval, and the medians of wall_s,
setup_s and peak_rss_mb over the invocations that passed are reported
(setup_s also counts the probes).

--trace 1 runs the invocation once untraced in a child and once in-process
with a span around each layer call (replay.py), and reports the per-layer
metrics.  It makes one pass; S does not apply.

The lines before the last summarise the run; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, check_outputs, load_pinned

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
WORK_ROOT = ROOT / ".perfbench-work"

# A child is killed after this long, so a benchmark run ends inside 180 s.
CHILD_TIMEOUT_S = 150.0
# Import-only children started by every run, after one warm-up start-up;
# setup_s is the median over them and the invocations' start-ups.
SETUP_PROBES = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Child:
    """One finished launcher child.  Times are seconds from spawning it."""

    exit_code: int
    wall_s: float           # until it exited
    setup_s: float | None   # until import sqrtwiener.cli returned
    main_s: float | None    # time inside the CLI's main()
    peak_rss_mb: float
    cpu_s: float            # user + sys


@dataclass
class Invocation:
    """One CLI run: the child's measurements and the problems its checks found."""

    seed: int | None
    child: Child
    problems: list[str]
    manifest: dict | None


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)  # name -> (value, unit, samples)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in self.metrics.items()},
        })

    def summary(self, title: str) -> str:
        lines = [title, *self.notes]
        for name, (value, unit, n) in self.metrics.items():
            lines.append(f"  {name:<30} {value:>14.6g} {unit:<6} (n={n})")
        ratio = self.failed / self.attempted if self.attempted else float("nan")
        lines.append(f"  {'fail_ratio':<30} {ratio:>14.6g} {'ratio':<6} "
                     f"({self.failed} of n={self.attempted} failed)")
        return "\n".join(lines)


def cli_seed(bench_seed: int, index: int) -> int | None:
    """CLI --seed of the index-th run: the default (pinned) seed first, then
    seeds drawn from the benchmark seed; the same arguments give the same seed."""
    if index == 0:
        return None
    return random.Random(f"{bench_seed}/{index}").randrange(2, 2**32)


@contextmanager
def work_dir():
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list[str], run_dir: Path) -> Child:
    """Run the launcher with CLI args in a child and measure it.

    Peak RSS and CPU come from wait4 on this child, which covers it and the
    descendants it reaped (its process pool) and nothing else the benchmark
    ran.  Peak RSS is the largest of those processes, not their sum.
    """
    env = {k: v for k, v in os.environ.items() if k != "SQRTWIENER_OUTPUT"}
    env["PYTHONPATH"] = str(SRC)
    stamp = run_dir / "import.stamp"
    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), str(stamp), *args],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env,
            start_new_session=True,  # the watchdog kills the pool with it
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stamps = [float(line) for line in stamp.read_text().split()] if stamp.is_file() else []
    return Child(
        exit_code=proc.returncode,
        wall_s=end - start,
        setup_s=stamps[0] - start if stamps else None,
        main_s=stamps[1] - stamps[0] if len(stamps) > 1 else None,
        peak_rss_mb=usage.ru_maxrss / 1024,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )


def probe_setup(work: Path) -> float | None:
    """Start a child that only imports the CLI; return its setup time."""
    run_dir = Path(tempfile.mkdtemp(dir=work))
    try:
        child = spawn([], run_dir)
        return child.setup_s if child.exit_code == 0 else None
    finally:
        shutil.rmtree(run_dir)


def invoke(workload: Workload, size: str, seed: int | None, work: Path, pinned: dict) -> Invocation:
    """Run the workload's CLI invocation once into a fresh output directory,
    check its outputs after the timed interval, and remove them."""
    run_dir = Path(tempfile.mkdtemp(dir=work))
    try:
        out = run_dir / "out"
        args = [*workload.args(size), "--output", str(out)]
        if seed is not None:
            args += ["--seed", str(seed)]
        child = spawn(args, run_dir)
        if child.exit_code == 0:
            problems, manifest = check_outputs(workload, size, seed, out, pinned)
        else:
            stderr = (run_dir / "stderr.txt").read_text(errors="replace").strip()
            problems, manifest = [f"exit code {child.exit_code}: {stderr[-500:]}"], None
        return Invocation(seed, child, problems, manifest)
    finally:
        shutil.rmtree(run_dir)


def _record_failures(result: Result, label: str, problems: list[str]) -> None:
    result.attempted += 1
    if problems:
        result.failed += 1
        for p in problems:
            print(f"{label}: {p}", file=sys.stderr)


def measure(workload: Workload, bench_seed: int, seconds: float, size: str = "reference") -> Result:
    """The untraced closed loop: end-to-end metrics over the runs that pass."""
    pinned = load_pinned()
    result = Result()
    with work_dir() as work:
        probe_setup(work)  # warm-up: the first start-up reads files the others find cached
        start = time.monotonic()
        setups = [s for s in (probe_setup(work) for _ in range(SETUP_PROBES)) if s is not None]
        spent = time.monotonic() - start
        runs: list[Invocation] = []
        # start another run while at least half of a typical one fits in the budget
        while not runs or spent + statistics.median(r.child.wall_s for r in runs) / 2 < seconds:
            inv = invoke(workload, size, cli_seed(bench_seed, len(runs)), work, pinned)
            runs.append(inv)
            spent += inv.child.wall_s
            _record_failures(result, f"{workload.name} seed {inv.seed or 'default'}", inv.problems)
        setups += [r.child.setup_s for r in runs if r.child.setup_s is not None]

    passed = [r for r in runs if not r.problems]
    samples = {
        "wall_s": [r.child.wall_s for r in passed],
        "setup_s": setups,
        "peak_rss_mb": [r.child.peak_rss_mb for r in passed],
    }
    for name, values in samples.items():
        if values:
            result.metrics[name] = (statistics.median(values), END_TO_END_UNITS[name], len(values))
    seeds = ", ".join("default" if r.seed is None else str(r.seed) for r in runs)
    result.notes.append(f"  cli seeds: {seeds}")
    return result


def trace(workload: Workload, bench_seed: int, size: str = "reference") -> Result:
    """One untraced child run and one traced in-process pass at the same seed."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import replay  # imports sqrtwiener; only the traced run needs it in-process

    pinned = load_pinned()
    result = Result()
    seed = cli_seed(bench_seed, 1)
    label = f"{workload.name} seed {seed}"
    with work_dir() as work:
        untraced = invoke(workload, size, seed, work, pinned)
        _record_failures(result, f"{label} (untraced)", untraced.problems)
        if untraced.problems:
            return result

        out = work / "traced"
        args = [*workload.args(size), "--output", str(out), "--seed", str(seed)]
        tracer, code = replay.traced_cli(args, work / "traced_stdout.txt")
        if code == 0:
            problems, manifest = check_outputs(workload, size, seed, out, pinned)
            if manifest and manifest["increment_digest"] != untraced.manifest["increment_digest"]:
                problems.append("traced run's increment_digest differs from the untraced run's")
        else:
            problems = [f"traced run exit code {code}"]
        if not problems:
            metrics, problems = replay.layer_metrics(tracer, work, untraced.manifest)
        _record_failures(result, f"{label} (traced)", problems)
        if problems:
            return result  # a trace that does not reproduce the run reports no layers

    metrics["cli.cpu_s"] = (untraced.child.cpu_s, "s")
    # both sides time the CLI's main() alone, without start-up and exit
    metrics["cli.trace_overhead_s"] = (tracer.root_s - untraced.child.main_s, "s")
    result.metrics = {name: (value, unit, 1) for name, (value, unit) in metrics.items()}
    digest = untraced.manifest["increment_digest"]
    if any(s.name in replay.DRAWS for s in tracer.spans):
        result.notes.append(f"  cli seed: {seed}; the per-path replay reproduced "
                            f"increment_digest {digest}")
    else:
        result.notes.append(f"  cli seed: {seed}; nothing is drawn, so nothing was replayed; "
                            f"the traced run's increment_digest equals the untraced run's, {digest}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqrtwiener" / "cli.py").is_file():
        print(f"error: no sqrtwiener sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = trace(workload, args.seed)
    else:
        result = measure(workload, args.seed, args.seconds)
    mode = "traced layer replay" if args.trace else "end to end"
    print(result.summary(f"{workload.name} ({mode}), benchmark seed {args.seed}"))
    print(result.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
