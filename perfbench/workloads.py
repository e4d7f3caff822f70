"""The benchmark's workloads: the CLI invocation each one makes, a smoke-size
variant of it, and the checks its outputs must pass.

Checks return a list of problems; an empty list means the outputs are
correct.  Some acceptance-suite windows of the Monte Carlo statistics are
about 3 sigma wide (criterion 3's Brownian mean window is 2.9 sigma at
20000 paths), so at an arbitrary seed they would fail now and then with
nothing wrong.  They are applied to the run at the CLI's default seed, at
the reference size, whose sample is pinned bit for bit by the digests in
``pinned.json``.  Other reference-size runs get those statistics checked
within 6 sigma, and windows that do not depend on the sample apply to every
run.
"""

from __future__ import annotations

import gzip
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PINNED_FILE = Path(__file__).resolve().parent / "pinned.json"

# Manifest fields that carry a digest of the emitted numbers.
DIGEST_FIELDS = ("increment_digest", "wiener_digest")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]        # subcommand and flags at the reference size
    smoke_argv: tuple[str, ...]  # the same code paths, sized to run in seconds
    report_file: str | None = None
    # (report, reference size, default seed) -> problems
    check_report: Callable[[dict, bool, bool], list[str]] | None = None
    # The CLI gzips the ensemble only above 1e6 rows, so the rows of
    # whichever file it wrote are counted.
    count_csv_rows: bool = False

    def args(self, size: str) -> tuple[str, ...]:
        return self.argv if size == "reference" else self.smoke_argv


def _within(problems: list[str], label: str, value: float, lo: float, hi: float) -> None:
    if not lo <= value <= hi:
        problems.append(f"{label} = {value!r} outside [{lo!r}, {hi!r}]")


# Standard errors of the Brownian temporal mean and variance at the
# reference size, from the published table (table1_report.json, "published").
BROWNIAN_MEAN_SIGMA = 0.004
BROWNIAN_VARIANCE_SIGMA = 0.0011


def check_table1(report: dict, reference: bool, default_seed: bool) -> list[str]:
    """Criterion 3: the paper-reported rows against the reference table.

    Every value must be finite.  At the reference size the square-root
    windows (over 100 sigma from the sample's mean) apply at any seed; the
    Brownian windows (about 3 and 5 sigma) at the default seed only, and
    windows of 6 published standard errors at the other seeds.
    """
    problems: list[str] = []
    rows = report["measured_paper_reported"]
    for row in ("brownian", "square_root"):
        for key, value in rows[row].items():
            if isinstance(value, list) and not all(math.isfinite(v) for v in value):
                problems.append(f"{row} {key} = {value!r} is not finite")
    if problems or not reference:
        return problems
    bro, sq = rows["brownian"], rows["square_root"]
    if default_seed:
        _within(problems, "brownian mean", bro["mean"][0], -0.012, 0.012)
        _within(problems, "brownian variance", bro["pseudo_variance"][0], 1 / 6 - 0.005, 1 / 6 + 0.005)
    else:
        mean_hw, var_hw = 6 * BROWNIAN_MEAN_SIGMA, 6 * BROWNIAN_VARIANCE_SIGMA
        _within(problems, "brownian mean", bro["mean"][0], -mean_hw, mean_hw)
        _within(problems, "brownian variance", bro["pseudo_variance"][0], 1 / 6 - var_hw, 1 / 6 + var_hw)
    _within(problems, "square-root mean re", sq["mean"][0], 0.45, 0.55)
    _within(problems, "square-root mean im", sq["mean"][1], 0.45, 0.55)
    _within(problems, "square-root variance re", sq["pseudo_variance"][0], -0.01, 0.01)
    _within(problems, "square-root variance im", sq["pseudo_variance"][1], -0.3, -0.2)
    return problems


def check_kernels(report: dict, reference: bool, default_seed: bool) -> list[str]:
    """Criterion 5: function-level Wick identity (any seed); Gaussian fits
    with R^2 > 0.99 and a shifted rotated center (pinned sample)."""
    problems: list[str] = []
    _within(problems, "max_abs_wick_minus_heat", report["max_abs_wick_minus_heat"], 0.0, 1e-10)
    if not (reference and default_seed):
        return problems
    fits = report["histogram_fits"]
    for label in ("wiener_terminal", "sqrt_wick_rotated"):
        if "r_squared" not in fits[label]:
            problems.append(f"{label} fit failed: {fits[label].get('error')}")
            return problems
        if not fits[label]["r_squared"] > 0.99:
            problems.append(f"{label} fit R^2 = {fits[label]['r_squared']!r} <= 0.99")
    _within(problems, "wiener_terminal center", fits["wiener_terminal"]["center"], -0.05, 0.05)
    rot = fits["sqrt_wick_rotated"]
    if not abs(rot["center"]) > 5 * rot["sigma"]:
        problems.append(f"rotated center {rot['center']!r} within 5 sigma ({rot['sigma']!r}) of 0")
    return problems


def check_fpsolve(report: dict, reference: bool, default_seed: bool) -> list[str]:
    """Criterion 6; no Monte Carlo, so every window applies at every seed."""
    problems: list[str] = []
    _within(problems, "heat-mode L-inf error", report["heat_mode_validation"]["l_inf_error"], 0.0, 1e-6)
    _within(problems, "self-convergence ratio", report["self_convergence"]["ratio"], 3.5, 4.5)
    _within(problems, "per-step mass drift", report["max_per_step_mass_drift"], 0.0, 1e-8)
    return problems


# Why each workload is here is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1-reference",
            ("table1",),
            ("table1", "--paths", "400", "--steps", "100"),
            "table1_report.json",
            check_table1,
        ),
        Workload(
            "kernels-reference",
            ("kernels", "--t", "1.0"),
            ("kernels", "--t", "1.0", "--paths", "400", "--steps", "100"),
            "kernels_report.json",
            check_kernels,
        ),
        Workload(
            "simulate-export",
            ("simulate", "--paths", "1200", "--mu0", "0.7"),
            ("simulate", "--paths", "12", "--steps", "100", "--mu0", "0.7"),
            count_csv_rows=True,
        ),
        Workload(
            "fpsolve-fine",
            ("fpsolve", "--grid-points", "16384", "--fp-dt", "0.0005", "--beta", "0.5"),
            ("fpsolve", "--grid-points", "1024", "--fp-dt", "0.002", "--fp-time", "0.1",
             "--beta", "0.5"),
            "fp_report.json",
            check_fpsolve,
        ),
    )
}


def load_pinned() -> dict:
    return json.loads(PINNED_FILE.read_text())


def count_data_rows(path: Path) -> int:
    """Rows of an ensemble CSV (plain or gzipped), without comments and header."""
    opener = gzip.open if path.suffix == ".gz" else open
    rows = 0
    with opener(path, "rt", newline="") as fh:
        for line in fh:
            if not line.startswith("#"):
                rows += 1
    return rows - 1


def check_outputs(
    workload: Workload,
    size: str,
    seed: int | None,
    out: Path,
    pinned: dict,
) -> tuple[list[str], dict | None]:
    """Check one finished run's output directory; returns (problems, manifest).

    ``seed`` is the --seed given to the CLI, None for its default seed, where
    the digests in ``pinned`` apply and the statistical windows are checked.
    """
    try:
        return _check_outputs(workload, size, seed, out, pinned)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"an output lacks a field the checks read: {exc!r}"], None


def _check_outputs(workload, size, seed, out, pinned):
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return ["no manifest.json written"], None
    manifest = json.loads(manifest_path.read_text())
    problems = []
    if manifest["command"] != workload.args(size)[0]:
        problems.append(f"manifest command {manifest['command']!r}")
    if seed is not None and manifest["config"]["seed"] != seed:
        problems.append(f"manifest seed {manifest['config']['seed']} != requested {seed}")
    missing = [name for name in manifest.get("outputs", []) if not (out / name).is_file()]
    if missing or not manifest.get("outputs"):
        problems.append(f"outputs listed in the manifest are missing: {missing}")
        return problems, manifest

    if seed is None:
        expected = pinned["digests"][size][workload.name]
        for field in DIGEST_FIELDS:
            if field in expected and manifest.get(field) != expected[field]:
                problems.append(
                    f"{field} {manifest.get(field)} != pinned {expected[field]} "
                    f"(pinned on {pinned['machine']})"
                )

    if workload.check_report:
        report = json.loads((out / workload.report_file).read_text())
        problems += workload.check_report(report, size == "reference", seed is None)
    if workload.count_csv_rows:
        cfg = manifest["config"]
        n_paths = cfg["n_paths"] if cfg["csv_max_paths"] is None else min(
            cfg["n_paths"], cfg["csv_max_paths"])
        expected_rows = n_paths * cfg["n_steps"]
        csv_name = next(name for name in manifest["outputs"] if name.startswith("ensemble.csv"))
        rows = count_data_rows(out / csv_name)
        if rows != expected_rows:
            problems.append(f"{csv_name} holds {rows} data rows, expected {expected_rows}")
    return problems, manifest
