"""Smoke-size tests of the benchmark: every workload end to end with its
checks, the traced replay of every workload, and the failure paths.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, check_fpsolve, check_kernels, check_table1  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_its_checks(name):
    result = run.measure(WORKLOADS[name], bench_seed=7, seconds=0, size="smoke")
    assert (result.attempted, result.failed) == (1, 0)
    assert set(result.metrics) == {m["name"] for m in DECLARED["end_to_end"]}
    assert result.metrics["setup_s"][2] == run.SETUP_PROBES + 1  # the probes and the run
    assert all(value > 0 for value, _, _ in result.metrics.values())
    assert json.loads(result.to_json())["correct"] is True


# layer metrics that must be nonzero when the workload runs its layer
EXERCISED = {
    "table1-reference": ["stats.table1_statistics_s", "stats.pooled_pseudo_variance_s",
                         "process.digest_mb", "paths.make_rng_s", "process.step_s"],
    "kernels-reference": ["stats.histogram_s", "stats.gaussian_fit_s", "kernels.curves_s",
                          "kernels.square_samples_s", "paths.phi_half_s"],
    "simulate-export": ["process.csv_s", "process.csv_mb", "process.cumsum_s"],
    "fpsolve-fine": ["kernels.fp_evolve_s", "kernels.cn_step_s", "kernels.grid_integral_s"],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_replay_reports_every_layer(name):
    result = run.trace(WORKLOADS[name], bench_seed=7, size="smoke")
    assert json.loads(result.to_json())["correct"] is True
    assert set(result.metrics) == {m["name"] for m in DECLARED["per_layer"]}
    metrics = {k: value for k, (value, _, _) in result.metrics.items()}
    assert all(metrics[k] > 0 for k in EXERCISED[name])
    assert metrics["cli.cpu_s"] > 0 and metrics["cli.self_s"] > 0
    streams_per_path = {"table1-reference": 2.0, "kernels-reference": 2.0,
                        "simulate-export": 1.0, "fpsolve-fine": 0.0}
    assert metrics["paths.streams_per_path"] == streams_per_path[name]
    if name == "simulate-export":
        assert metrics["process.csv_rows"] == 12 * 100
    if name == "fpsolve-fine":
        # 50 single-step calls in the main loop, 3 convergence runs, 1 heat-mode run
        assert metrics["kernels.fp_evolve_calls"] == 54
        assert metrics["kernels.cn_steps"] == 50 + 125 + 250 + 500 + 500


def test_wrong_pinned_digest_fails_the_run(monkeypatch):
    pinned = workloads.load_pinned()
    pinned["digests"]["smoke"]["simulate-export"]["increment_digest"] = "sha256:" + "0" * 64
    monkeypatch.setattr(run, "load_pinned", lambda: pinned)
    result = run.measure(WORKLOADS["simulate-export"], bench_seed=7, seconds=0, size="smoke")
    assert (result.attempted, result.failed) == (1, 1)
    assert "wall_s" not in result.metrics  # wall time counts only runs that pass
    assert json.loads(result.to_json())["correct"] is False


def test_peak_rss_is_read_per_child(tmp_path):
    # RUSAGE_CHILDREN would report the larger, earlier child for both
    big = run.spawn(["table1", "--paths", "20000", "--steps", "100", "--output",
                     str(tmp_path / "big")], tmp_path)
    small = run.spawn(["fpsolve", "--grid-points", "1024", "--fp-time", "0.01",
                       "--output", str(tmp_path / "small")], tmp_path)
    assert big.exit_code == small.exit_code == 0
    assert small.peak_rss_mb < big.peak_rss_mb - 50


def test_windows_reject_out_of_range_reports():
    table1 = {"measured_paper_reported": {
        "brownian": {"mean": [0.001, 0.0], "pseudo_variance": [0.167, 0.0]},
        "square_root": {"mean": [0.524, 0.524], "pseudo_variance": [0.0, -0.275]},
    }}
    assert check_table1(table1, True, True) == []
    table1["measured_paper_reported"]["brownian"]["mean"][0] = 0.013
    assert len(check_table1(table1, True, True)) == 1
    assert check_table1(table1, True, False) == []  # 3-sigma windows need the pinned sample
    table1["measured_paper_reported"]["brownian"]["mean"][0] = 0.025
    assert len(check_table1(table1, True, False)) == 1  # beyond 6 sigma at any seed
    assert check_table1(table1, False, False) == []  # windows are for the reference size
    table1["measured_paper_reported"]["square_root"]["mean"][1] = float("nan")
    assert len(check_table1(table1, False, False)) == 1  # finite at every size and seed

    fits = {"wiener_terminal": {"r_squared": 0.9997, "center": 0.01, "sigma": 1.0},
            "sqrt_wick_rotated": {"r_squared": 0.98, "center": 40.0, "sigma": 2.0}}
    kernels = {"max_abs_wick_minus_heat": 3e-15, "histogram_fits": fits}
    assert len(check_kernels(kernels, True, True)) == 1
    assert check_kernels(kernels, True, False) == []

    fp = {"heat_mode_validation": {"l_inf_error": 8.2e-7}, "self_convergence": {"ratio": 4.01},
          "max_per_step_mass_drift": 1.86e-9}
    assert check_fpsolve(fp, False, False) == []
    fp["max_per_step_mass_drift"] = 1.19e-8  # measured at --grid-points 8192 --fp-time 1.0
    assert len(check_fpsolve(fp, False, False)) == 1


def test_gzipped_rows_are_counted(tmp_path):
    path = tmp_path / "ensemble.csv.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("# artifact_version=1\npath_index,step_index,re,im\n0,0,1,0\n0,1,0,1\n")
    assert workloads.count_data_rows(path) == 2


def test_cli_seeds_come_from_the_benchmark_seed():
    assert run.cli_seed(3, 0) is None  # the pinned default seed
    assert run.cli_seed(3, 1) == run.cli_seed(3, 1) != run.cli_seed(4, 1)
    assert run.cli_seed(3, 1) != run.cli_seed(3, 2)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fpsolve-fine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
