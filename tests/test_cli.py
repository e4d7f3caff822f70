"""CLI contract: config precedence, exit codes, manifests, determinism."""

import contextlib
import dataclasses
import gzip
import hashlib
import io
import json
import os
import platform
import tempfile
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as hs

import sqrtwiener

from sqrtwiener.cli import (
    COMPRESS_ROW_THRESHOLD,
    ENV_OUTPUT,
    PUBLISHED_REFERENCE,
    ConfigError,
    RunConfig,
    ensemble_csv_name,
    main,
)
from sqrtwiener.paths import DRAW_THREADS, RNG_NAME


def run(*argv):
    return main(list(argv))


def test_defaults_are_the_reference_protocol():
    cfg = RunConfig()
    assert cfg.n_paths == 20000
    assert cfg.n_steps == 1000
    assert cfg.dt == 0.001
    assert cfg.mu0 == 0.5
    assert cfg.beta == 0.0


def test_config_validation_names_fields():
    with pytest.raises(ConfigError, match="n_steps"):
        RunConfig(n_steps=0).validate()
    with pytest.raises(ConfigError, match="n_paths"):
        RunConfig(n_paths=0).validate()
    with pytest.raises(ConfigError, match="dt"):
        RunConfig(dt=-1.0).validate()
    with pytest.raises(ConfigError, match="mu0"):
        RunConfig(mu0=0.0).validate()


def test_simulate_writes_files_and_stable_digest(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("simulate", "--paths", "20", "--steps", "16", "--seed", "3",
               "--output", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifact_version"] == "1"
    assert manifest["config"]["n_paths"] == 20
    digest1 = manifest["increment_digest"]
    csv_text = (out / "ensemble.csv").read_text()
    assert digest1.split(":", 1)[1] in csv_text  # CSV references its manifest
    assert csv_text.count("\n") == 4 + 320  # 3 comments + header + rows

    out2 = tmp_path / "run2"
    assert run("simulate", "--paths", "20", "--steps", "16", "--seed", "3",
               "--output", str(out2)) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["increment_digest"] == digest1
    assert manifest2["config_digest"] != ""


def test_simulate_runtime_soft_bound(tmp_path):
    # measured ~0.1 s for 100 x 50 on the build machine; pinned loosely
    start = time.monotonic()
    assert run("simulate", "--paths", "100", "--steps", "50",
               "--output", str(tmp_path / "fast")) == 0
    assert time.monotonic() - start < 1.0


def test_invalid_steps_exits_1(tmp_path, capsys):
    code = run("simulate", "--steps", "0", "--paths", "5",
               "--output", str(tmp_path / "x"))
    assert code == 1
    assert "n_steps" in capsys.readouterr().err


def test_unknown_flag_exits_1(tmp_path, capsys):
    assert run("simulate", "--nonsense", "1") == 1


def test_unwritable_output_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = run("simulate", "--paths", "2", "--steps", "2",
               "--output", str(blocker / "sub"))
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_paths": 30, "n_steps": 12, "seed": 77}))
    out = tmp_path / "out"
    assert run("simulate", "--config", str(cfg), "--paths", "10",
               "--output", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_paths"] == 10      # flag wins
    assert manifest["config"]["n_steps"] == 12      # file beats default
    assert manifest["config"]["seed"] == 77


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths": 30}))
    assert run("simulate", "--config", str(cfg), "--output", str(tmp_path / "o")) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_threads_is_refused_as_a_config_key_and_a_flag(tmp_path, capsys):
    # draws run in this process only; an old config or command line that
    # asks for worker processes fails instead of being ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_paths": 3, "n_steps": 4, "threads": 2}))
    out = tmp_path / "o"
    assert run("simulate", "--config", str(cfg), "--output", str(out)) == 1
    assert "unknown config keys: ['threads']" in capsys.readouterr().err
    assert run("simulate", "--paths", "3", "--steps", "4", "--threads", "2",
               "--output", str(out)) == 1
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


# config_digest of the defaults and of a file setting every field: a change to
# which fields enter the digest, or to how they are serialised, fails here
_DEFAULT_CONFIG_DIGEST = "sha256:1dafe4d543cb3ca2b96fb969b6d7477d8473560a84465133984267564ad4c484"
_EVERY_FIELD_CONFIG_DIGEST = (
    "sha256:d6cfc76663db6cc631da511b295867f706db6938b9c2af0cbcda18b50fa513c9"
)


def test_config_digests_are_pinned(tmp_path, monkeypatch):
    assert RunConfig().digest() == _DEFAULT_CONFIG_DIGEST
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({
        "n_paths": 3, "n_steps": 4, "dt": 0.002, "mu0": 0.7, "beta": 0.0, "seed": 123,
        "output_dir": "o", "compress": False, "csv_max_paths": 2,
    }))
    assert run("simulate", "--config", "cfg.json") == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config_digest"] == _EVERY_FIELD_CONFIG_DIGEST


def test_config_file_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("5")
    assert run("simulate", "--config", str(cfg), "--output", str(tmp_path / "o")) == 1
    assert "JSON object" in capsys.readouterr().err


def test_rng_label_is_not_configurable(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rng_name": "pcg32"}))
    assert run("simulate", "--config", str(cfg), "--output", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "unknown config key" in err and "rng_name" in err

    out = tmp_path / "ok"
    assert run("simulate", "--paths", "2", "--steps", "4", "--output", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["rng"] == RNG_NAME


@pytest.mark.parametrize("field, value", [
    ("n_paths", 2.5),
    ("n_paths", True),
    ("n_paths", "20"),
    ("seed", 1.0),
    ("csv_max_paths", False),
    ("compress", 1),
    ("dt", "0.001"),
    ("beta", float("nan")),
    ("dt", 10**400),
    ("mu0", None),
    ("output_dir", 5),
])
def test_config_value_types_checked(tmp_path, capsys, monkeypatch, field, value):
    monkeypatch.chdir(tmp_path)
    cfg = {"n_paths": 3, "n_steps": 4, "output_dir": "o", field: value}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run("simulate", "--config", "cfg.json") == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_env_var_default_output(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(ENV_OUTPUT, str(target))
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--paths", "3", "--steps", "4") == 0
    assert (target / "manifest.json").exists()


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_empty_output_directory_is_refused_before_any_draw(tmp_path, capsys, monkeypatch,
                                                           source):
    # Path("") is the working directory: a run there would delete what the
    # manifest of an earlier run in it listed
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_OUTPUT, raising=False)
    (tmp_path / "manifest.json").write_text(json.dumps({"outputs": ["earlier.csv"]}))
    (tmp_path / "earlier.csv").write_text("kept\n")
    argv = ["simulate", "--paths", "2", "--steps", "3"]
    if source == "flag":
        argv += ["--output", ""]
    elif source == "config":
        (tmp_path / "cfg.json").write_text(json.dumps({"output_dir": ""}))
        argv += ["--config", "cfg.json"]
    else:
        monkeypatch.setenv(ENV_OUTPUT, "")
    cli = sqrtwiener.cli
    with mock.patch.object(cli, "integrate_sqrt", wraps=cli.integrate_sqrt) as draw:
        assert run(*argv) == 1
    draw.assert_not_called()
    assert (ENV_OUTPUT if source == "env" else "output_dir") in capsys.readouterr().err
    names = {p.name for p in tmp_path.iterdir()} - {"cfg.json"}
    assert names == {"manifest.json", "earlier.csv"}
    assert (tmp_path / "earlier.csv").read_text() == "kept\n"


def test_csv_downsampling(tmp_path):
    out = tmp_path / "ds"
    assert run("simulate", "--paths", "9", "--steps", "6", "--csv-paths", "2",
               "--output", str(out)) == 0
    text = (out / "ensemble.csv").read_text()
    assert text.count("\n") == 4 + 12  # only 2 paths written


def test_compression_rule():
    assert COMPRESS_ROW_THRESHOLD == 1_000_000
    assert ensemble_csv_name(COMPRESS_ROW_THRESHOLD, True) == "ensemble.csv"
    assert ensemble_csv_name(COMPRESS_ROW_THRESHOLD + 1, True) == "ensemble.csv.gz"
    assert ensemble_csv_name(COMPRESS_ROW_THRESHOLD + 1, False) == "ensemble.csv"


def test_gzip_paths_write_readable_archives(tmp_path):
    from sqrtwiener import SqrtParams, TimeGrid, integrate_sqrt
    from sqrtwiener.process import ensemble_to_csv

    ens = integrate_sqrt(TimeGrid(0.001, 4), 2, SqrtParams(), 1)
    gz = tmp_path / "e.csv.gz"
    ensemble_to_csv(ens, gz)
    with gzip.open(gz, "rt") as fh:
        assert fh.readline().startswith("path_index")


def test_gzip_header_names_the_final_file(tmp_path):
    from sqrtwiener.process import write_csv

    path = tmp_path / "ensemble.csv.gz"
    write_csv(path, [], "a", ["1\n2\n"])
    raw = path.read_bytes()
    assert raw[3] & 0x08  # FNAME flag
    assert raw[4:8] == bytes(4)  # no write time, so reruns give equal bytes
    assert raw[8] == 4  # XFL: deflated with the fastest level
    assert raw[10:raw.index(b"\0", 10)] == b"ensemble.csv"
    assert gzip.decompress(raw) == b"a\n1\n2\n"
    write_csv(path, [], "a", ["1\n2\n"])
    assert path.read_bytes() == raw


def test_gzipped_csv_decompresses_to_the_plain_bytes(tmp_path):
    from sqrtwiener.process import column_blocks, write_csv

    rng = np.random.default_rng(11)
    columns = [np.arange(3000), rng.standard_normal(3000), rng.standard_normal(3000)]
    for name in ("t.csv", "t.csv.gz"):
        write_csv(tmp_path / name, ["c=1"], "i,a,b",
                  column_blocks(columns, "%d,%.17g,%.17g\n"))
    plain = (tmp_path / "t.csv").read_bytes()
    assert gzip.decompress((tmp_path / "t.csv.gz").read_bytes()) == plain
    assert plain.count(b"\n") == 2 + 3000


# SHA-256 of simulate's ensemble.csv, comment lines included, recorded while
# every row was still formatted with "%d,%d,%.17g,%.17g\n": however the rows
# are formatted, these bytes stay.  mu0 = -0.7 prints -0 real parts, and
# 1500 steps cross a 1024-row text block.
_SIMULATE_SMALL = ("simulate", "--paths", "3", "--steps", "40", "--seed", "5")
ENSEMBLE_CSV_SHA256 = {
    "drifted": ((), "b000930c65ffce308067df2ed123237de0d332e4c2c4420eb05e89c54e93d47f"),
    "beta": (("--beta", "0.3"),
             "62b267bdd4a48414aa67ab96cdf7fa71eb07473b3784ed0e46a0d5cd40c63dd1"),
    "scalar": (("--mu0", "0.7"),
               "e0dadabea0dc02973d8d99b106946ce870bd4429b29e7f38e83bacea356ac71c"),
    "negative-scale": (("--mu0", "-0.7"),
                       "72b729a2b79741685343ff00c860ab3a0074c33211cadd2b55b3031a3b0324ca"),
    "long-paths": (("--paths", "2", "--steps", "1500"),
                   "8f6dfef9f499eb69e6c81d0d75ab2a45d7d80b9b5e8f02441f7c78accb4c7a3f"),
    "csv-paths": (("--paths", "5", "--csv-paths", "2"),
                  "cd1b67eb7b3b98346b93a87f48d2ebcbbd8544ffba1d59e43ce1b1fa6cf7b510"),
}


@pytest.mark.parametrize("label", list(ENSEMBLE_CSV_SHA256))
def test_ensemble_csv_bytes_are_pinned(tmp_path, monkeypatch, label):
    flags, sha = ENSEMBLE_CSV_SHA256[label]
    out = tmp_path / "plain"
    assert run(*_SIMULATE_SMALL, *flags, "--output", str(out)) == 0
    plain = (out / "ensemble.csv").read_bytes()
    assert hashlib.sha256(plain).hexdigest() == sha
    if label == "negative-scale":
        assert b",-0," in plain
    # the same run above the compression threshold gzips the same bytes
    monkeypatch.setattr("sqrtwiener.cli.COMPRESS_ROW_THRESHOLD", 0)
    out = tmp_path / "gzipped"
    assert run(*_SIMULATE_SMALL, *flags, "--output", str(out)) == 0
    assert gzip.decompress((out / "ensemble.csv.gz").read_bytes()) == plain


def test_failed_write_keeps_the_earlier_file_and_no_temporary(tmp_path):
    from sqrtwiener.cli import _write_json
    from sqrtwiener.process import write_csv

    def failing_blocks():
        yield "3\n4\n"
        raise RuntimeError("writer failed mid-write")

    for name in ("t.csv", "t.csv.gz"):
        path = tmp_path / name
        write_csv(path, ["run 1"], "a", ["1\n2\n"])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="mid-write"):
            write_csv(path, ["run 2"], "a", failing_blocks())
        assert path.read_bytes() == before

    path = tmp_path / "r.json"
    _write_json(path, {"run": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        _write_json(path, {"run": 2, "unserializable": object()})
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["r.json", "t.csv", "t.csv.gz"]


@pytest.mark.parametrize("command", ["simulate", "table1", "kernels", "fpsolve"])
def test_manifest_records_peak_rss_and_versions(tmp_path, command):
    out = tmp_path / "run"
    sizes = ("--grid-points", "256") if command == "fpsolve" else ("--paths", "40", "--steps", "16")
    argv = (command, *sizes, "--output", str(out))
    assert run(*argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["peak_rss_mb"] > 0
    assert manifest["versions"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sqrtwiener": sqrtwiener.__version__,
    }
    reports = [n for n in manifest["outputs"] if n.endswith("_report.json")]
    for name in reports:
        assert json.loads((out / name).read_text())["manifest"] == manifest
    csvs = [n for n in manifest["outputs"] if n.endswith(".csv")]
    first = {n: (out / n).read_bytes() for n in csvs}
    assert run(*argv) == 0
    rerun = json.loads((out / "manifest.json").read_text())
    assert rerun["config_digest"] == manifest["config_digest"]
    assert {n: (out / n).read_bytes() for n in csvs} == first  # headers and bodies



@pytest.mark.parametrize("command", ["simulate", "table1", "kernels"])
def test_runs_that_draw_leave_no_thread(tmp_path, command):
    before = threading.active_count()
    assert run(command, "--paths", "40", "--steps", "16", "--output", str(tmp_path)) == 0
    assert threading.active_count() == before


@pytest.mark.parametrize("command, module, name, exc, code", [
    ("table1", "stats", "table1_statistics", MemoryError, 1),
    ("table1", "process", "array_digest", OSError, 2),
    ("kernels", "stats", "build_histogram", MemoryError, 1),
    ("kernels", "kernels", "square_samples", ValueError, 1),
], ids=["table1-reduction", "table1-hash", "kernels-histogram", "kernels-reduction"])
def test_a_run_that_fails_while_hashing_leaves_no_thread(tmp_path, monkeypatch, capsys,
                                                        command, module, name, exc, code):
    # the ensemble is hashed on a helper thread while it is reduced; a
    # reduction or a hash that raises still ends in a refusal with the
    # helper joined
    def failing(*args, **kwargs):
        raise exc("refused")

    monkeypatch.setattr(getattr(sqrtwiener, module), name, failing)
    before = threading.active_count()
    assert run(command, "--paths", "40", "--steps", "16", "--output", str(tmp_path / "o")) == code
    assert "refused" in capsys.readouterr().err
    assert threading.active_count() == before
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "table1", "kernels", "fpsolve"])
def test_manifest_records_draw_threads_for_runs_that_draw(tmp_path, command):
    sizes = ("--grid-points", "256") if command == "fpsolve" else ("--paths", "40", "--steps", "16")
    assert run(command, *sizes, "--output", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    if command == "fpsolve":  # draws nothing
        assert "draw_threads" not in manifest
    else:
        assert manifest["draw_threads"] == DRAW_THREADS == 2
    assert "draw_threads" not in manifest["config"]  # nor in config_digest


def test_peak_rss_units_and_missing_resource_module(monkeypatch):
    import sys
    import types

    from sqrtwiener.cli import _peak_rss_mb

    usage = types.SimpleNamespace(ru_maxrss=3 * 2**20)
    fake = types.SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage)
    monkeypatch.setitem(sys.modules, "resource", fake)
    monkeypatch.setattr(sys, "platform", "linux")
    assert _peak_rss_mb() == 3 * 1024  # KiB
    monkeypatch.setattr(sys, "platform", "darwin")
    assert _peak_rss_mb() == 3  # bytes
    monkeypatch.setitem(sys.modules, "resource", None)  # import raises ImportError
    assert _peak_rss_mb() is None


def test_temporaries_of_a_killed_run_removed(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps({"outputs": ["table1.csv", "manifest.json"]}))
    left = [".table1.csv.4242.tmp", ".manifest.json.7.tmp", ".ensemble.csv.99.tmp"]
    kept = [".notes.txt.5.tmp", ".ensemble.csv.tmp", "ensemble.csv.12.tmp", ".ensemble.csv.x.tmp"]
    for name in left + kept:
        (out / name).write_text("partial")
    assert run("simulate", "--paths", "5", "--steps", "8", "--output", str(out)) == 0
    assert sorted(os.listdir(out)) == sorted(["ensemble.csv", "manifest.json"] + kept)


def test_table1_outputs(tmp_path):
    out = tmp_path / "t1"
    assert run("table1", "--paths", "400", "--steps", "80", "--seed", "2",
               "--output", str(out)) == 0
    lines = [l for l in (out / "table1.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0].startswith("row,estimator_tag,mean_re")
    tags = {tuple(l.split(",")[:2]) for l in lines[1:]}
    assert ("brownian", "path-temporal") in tags
    assert ("brownian", "paper-reported") in tags
    assert ("brownian", "increment-normalized") in tags
    assert ("square_root", "paper-reported") in tags
    assert ("square_root", "increment-normalized") in tags

    report = json.loads((out / "table1_report.json").read_text())
    assert report["published"] == PUBLISHED_REFERENCE
    assert report["published"]["square_root"]["variance_im"][0] == -0.2491
    assert "manifest" in report and report["manifest"]["command"] == "table1"
    # variance sign contract even at reduced size
    assert report["measured_paper_reported"]["square_root"]["pseudo_variance"][1] < 0


def test_table1_seed_stability(tmp_path):
    vals = []
    for seed in ("2", "3"):
        out = tmp_path / f"s{seed}"
        assert run("table1", "--paths", "300", "--steps", "60", "--seed", seed,
                   "--output", str(out)) == 0
        rep = json.loads((out / "table1_report.json").read_text())
        vals.append(rep["measured_paper_reported"]["square_root"]["mean"][0])
    # seed change moves the estimate within statistical scatter, not wildly
    assert vals[0] != vals[1]
    assert abs(vals[0] - vals[1]) < 0.05


def test_kernels_outputs(tmp_path):
    out = tmp_path / "k"
    assert run("kernels", "--paths", "300", "--steps", "100", "--seed", "4",
               "--output", str(out)) == 0
    report = json.loads((out / "kernels_report.json").read_text())
    assert report["max_abs_wick_minus_heat"] <= 1e-10
    assert report["max_abs_rotated_samples_minus_heat"] <= 1e-10
    assert report["rotated_curve_fit"]["r_squared"] > 0.99
    assert "sqrt_wick_rotated" in report["histogram_fits"]
    assert report["sqrt_histogram_center_shifted_from_zero"] is True
    assert (out / "kernel_curves.csv").exists()
    assert (out / "hist_wiener_terminal.csv").exists()
    assert (out / "hist_sqrt_wick.csv").exists()
    assert report["manifest"]["empirical_interpretation"] == "squared-terminal-values"


# SHA-256 of the kernels output files at --paths 400 --steps 100 (comment
# lines included), recorded when each sample was still a per-sample object;
# the (rho, theta) array pair must reproduce every byte.
KERNELS_400_SHA256 = {
    "kernel_curves.csv": "40145ee5751bde77ad404e82393c2569df927a8488870f56d027a2480fcb832c",
    "hist_wiener_terminal.csv": "9447e4d947e56accf0794b49229c5c2c2bdc3a8c1552583d7210dbfb65bea3df",
    "hist_sqrt_wick.csv": "a09975a88de690481421650fa60f1de2116b1af37f8bb89a1d71b8f5265ba3da",
}


def test_kernels_output_bodies_are_pinned(tmp_path):
    out = tmp_path / "k"
    assert run("kernels", "--paths", "400", "--steps", "100", "--output", str(out)) == 0
    for name, sha in KERNELS_400_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha, name
    report = json.loads((out / "kernels_report.json").read_text())
    assert report["max_abs_rotated_samples_minus_heat"] == 0.0


def test_kernels_manifest_records_x_range_and_bins(tmp_path):
    argv = ("kernels", "--paths", "300", "--steps", "50", "--seed", "4")
    runs = {"sturges": (), "flags": ("--bins", "7", "--x-points", "64", "--x-min", "-3")}
    manifests = {}
    for label, flags in runs.items():
        out = tmp_path / label
        assert run(*argv, *flags, "--output", str(out)) == 0
        manifests[label] = json.loads((out / "manifest.json").read_text())
        for name in manifests[label]["outputs"]:
            if name.endswith(".csv"):
                comments = [l for l in (out / name).read_text().splitlines() if l.startswith("#")]
                assert len(comments) == 3  # artifact version and the two digests only
    sturges, flags = manifests["sturges"], manifests["flags"]
    assert (sturges["x_min"], sturges["x_max"], sturges["x_points"]) == (-5.0, 5.0, 1001)
    assert sturges["histogram_bins"] == {"wiener_terminal": 10, "sqrt_wick_rotated": 10}
    assert (flags["x_min"], flags["x_max"], flags["x_points"]) == (-3.0, 5.0, 64)
    assert flags["histogram_bins"] == {"wiener_terminal": 7, "sqrt_wick_rotated": 7}
    assert flags["config_digest"] == sturges["config_digest"]


def test_kernels_rejects_bad_t(tmp_path, capsys):
    assert run("kernels", "--t", "0", "--output", str(tmp_path / "k")) == 1


def _refused(tmp_path, capsys, argv, field):
    """argv exits 1 naming field, with no traceback and no output made."""
    out = tmp_path / "refused"
    assert run(*argv, "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (("--t", "inf"), "--t"),
    (("--t", "1e308"), "t = 1e+308"),
    (("--t", "1e-300"), "t = 1e-300"),
    (("--x-min", "0", "--x-max", "1e-300", "--x-points", "8"), "x_max = 1e-300"),
    (("--x-min=-1e308", "--x-max=1e308"), "x_min = -1e+308"),
], ids=["t-inf", "t-huge", "t-tiny", "x-range-tiny", "x-range-huge"])
def test_kernels_refuses_curves_out_of_float_range(tmp_path, capsys, argv, field):
    _refused(tmp_path, capsys, ("kernels", "--paths", "40", "--steps", "16") + argv, field)


_FLOAT_FLAGS = [("simulate", "dt"), ("simulate", "mu0"), ("simulate", "beta"),
                ("kernels", "t"), ("kernels", "x-min"), ("kernels", "x-max"),
                ("fpsolve", "fp-dt"), ("fpsolve", "fp-time"), ("fpsolve", "sigma0")]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "abc"])
@pytest.mark.parametrize("command, flag", _FLOAT_FLAGS)
def test_float_flags_refuse_anything_but_a_finite_real(tmp_path, capsys, command, flag, value):
    _refused(tmp_path, capsys, (command, f"--{flag}={value}"), f"--{flag}")


@pytest.mark.parametrize(
    "argv", [("--sigma0", "1e200"), ("--fp-time", "1e300"), ("--fp-dt", "1e-310")], ids=" ".join
)
def test_fpsolve_refuses_a_domain_out_of_float_range(tmp_path, capsys, argv):
    _refused(tmp_path, capsys, ("fpsolve",) + argv, f"{argv[0][2:]} = {float(argv[1])}")


@pytest.mark.parametrize("argv, field", [
    (("--fp-dt", "1e-300"), "fp-time = 0.5 and fp-dt = 1e-300"),
    (("--fp-time", "1.0", "--fp-dt", "9.9e-7"), "fp-time = 1.0 and fp-dt = 9.9e-07"),
], ids=["tiny-dt", "just-above-cap"])
def test_fpsolve_refuses_too_many_steps_before_evolving(tmp_path, capsys, monkeypatch, argv, field):
    monkeypatch.setattr("sqrtwiener.kernels.fp_evolve", _no_evolution)
    _refused(tmp_path, capsys, ("fpsolve",) + argv, field)


def test_fpsolve_refuses_mass_leaking_through_the_boundary(tmp_path, capsys):
    # the one recorded mass-drift defect: beside x_min the evolved profile
    # reaches 3.4e-7 of its peak, and the per-step drift exceeds 1e-8
    _refused(tmp_path, capsys,
             ("fpsolve", "--grid-points", "8192", "--fp-time", "1.0", "--fp-dt", "0.0005"),
             "grid-points = 8192, fp-time = 1.0 and fp-dt = 0.0005")


@pytest.mark.parametrize("beta", ["1e10", "1e308"])
def test_fpsolve_refuses_an_initial_packet_that_vanishes(tmp_path, capsys, monkeypatch, beta):
    # |drift| * fp-time widens the domain to about +-3.5e9 at beta = 1e10, a
    # grid spacing of 1.1e8 against sigma0 = 0.3: the packet is 0 at every
    # point, which is said before anything is evolved, and alone: the
    # overflow of the packet's exponent raises no numpy warning
    monkeypatch.setattr("sqrtwiener.kernels.fp_evolve", _no_evolution)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _refused(tmp_path, capsys, ("fpsolve", "--beta", beta, "--grid-points", "64"),
                 f"beta = {float(beta)}, sigma0 = 0.3, fp-time = 0.5 and grid-points = 64: "
                 "the initial packet is 0 at every grid point")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv, field", [
    (("simulate", "--paths", "2", "--steps", "3", "--mu0", "1e-105"),
     "dt = 0.001, mu0 = 1e-105 and beta = 0.0"),
    (("table1", "--paths", "50", "--steps", "10", "--mu0", "1e-105"),
     "dt = 0.001, mu0 = 1e-105 and beta = 0.0"),
    (("table1", "--paths", "50", "--steps", "10", "--beta", "1e308", "--dt", "10"),
     "dt = 10.0, mu0 = 0.5 and beta = 1e+308"),
    (("kernels", "--paths", "50", "--steps", "10", "--dt", "1e300"),
     "dt = 1e+300, mu0 = 0.5 and beta = 0.0"),
    (("kernels", "--paths", "50", "--steps", "10", "--mu0", "1e-105"),
     "dt = 0.001, mu0 = 1e-105 and beta = 0.0"),
], ids=["simulate-mu0", "table1-mu0", "table1-beta-dt", "kernels-dt", "kernels-mu0"])
def test_runs_whose_numbers_leave_float_range_are_refused(tmp_path, capsys, argv, field):
    # finite flags whose increments, statistics or terminal samples are inf
    # or nan: the run emits nothing rather than a file of nan, and says so
    # alone, with no numpy warning about the arithmetic beside it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _refused(tmp_path, capsys, argv, field)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _no_evolution(*args, **kwargs):
    raise AssertionError("evolved a profile for a run that must be refused")


def _no_draws(*args, **kwargs):
    raise AssertionError("drew an ensemble for a run that must be refused")


def test_table1_refuses_a_single_increment_before_drawing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sqrtwiener.cli.wiener_ensemble", _no_draws)
    _refused(tmp_path, capsys, ("table1", "--paths", "1", "--steps", "1"),
             "n_paths = 1 x n_steps = 1")


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_kernels_rejects_bad_bins_before_drawing(tmp_path, capsys, monkeypatch, bins):
    monkeypatch.setattr("sqrtwiener.cli.wiener_ensemble", _no_draws)
    monkeypatch.setattr("sqrtwiener.cli.integrate_sqrt", _no_draws)
    out = tmp_path / "k"
    assert run("kernels", "--bins", bins, "--output", str(out)) == 1
    assert "bins" in capsys.readouterr().err
    assert not out.exists()


def test_fpsolve_outputs(tmp_path):
    out = tmp_path / "fp"
    assert run("fpsolve", "--fp-dt", "0.002", "--output", str(out)) == 0
    report = json.loads((out / "fp_report.json").read_text())
    assert report["heat_mode_validation"]["l_inf_error"] <= 1e-6
    assert report["max_per_step_mass_drift"] <= 1e-8
    assert report["self_convergence"]["ratio"] == pytest.approx(4.0, abs=0.5)
    profiles = [n for n in os.listdir(out) if n.startswith("fp_profile_t")]
    assert len(profiles) == 3
    # the run itself against gaussian_packet at fp-time: 1.2e-3 at this
    # size, against a modulus peak of 1.1; kept out of the manifest, so out
    # of the CSV comment lines and config_digest
    closed = report["closed_form_error"]
    assert 0 < closed["l_inf_error"] <= 2e-3
    assert 0 < closed["l2_error"] <= 2e-3
    assert "closed_form_error" not in json.dumps(report["manifest"])
    assert "closed_form_error" not in (out / "fp_profile_t0.5000.csv").read_text()


def test_fpsolve_stability_violation_names_bound(tmp_path, capsys):
    code = run("fpsolve", "--fp-dt", "0.5", "--fp-time", "1.0",
               "--output", str(tmp_path / "fp"))
    assert code == 1
    assert "advective stability" in capsys.readouterr().err
    assert not (tmp_path / "fp").exists()  # refused before the output is made


@pytest.mark.parametrize("argv, name", [
    (["--fp-time", "0.00001", "--grid-points", "256"], "fp_profile_t0.0000.csv"),
    (["--fp-time", "0.0001", "--fp-dt", "0.00005"], "fp_profile_t0.0001.csv"),
], ids=["initial-and-final", "midpoint-and-final"])
def test_fpsolve_refuses_profiles_that_share_a_name(tmp_path, capsys, argv, name):
    with mock.patch("sqrtwiener.kernels.fp_evolve") as fp_evolve:
        code = run("fpsolve", *argv, "--output", str(tmp_path / "fp"))
    assert code == 1
    err = capsys.readouterr().err
    assert "fp-time" in err and "fp-dt" in err and name in err
    assert not (tmp_path / "fp").exists()
    fp_evolve.assert_not_called()


def test_fpsolve_requires_mu0_half(tmp_path, capsys):
    assert run("fpsolve", "--mu0", "2.0", "--output", str(tmp_path / "fp")) == 1
    assert "mu0" in capsys.readouterr().err
    assert not (tmp_path / "fp").exists()


def test_fpsolve_final_profile_golden_digest(tmp_path):
    # frozen from the solve_banded solver (band rebuilt every call); the
    # memoized gttrf/gttrs solver must reproduce it bit for bit
    out = tmp_path / "fp"
    assert run("fpsolve", "--grid-points", "1024", "--fp-dt", "0.002", "--fp-time", "0.1",
               "--beta", "0.5", "--output", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["increment_digest"] == (
        "sha256:5e84cc4f2849ecf056dfedb09cdea5092586f41cc17875a77083246fd1acbb33"
    )


# SHA-256 of each profile CSV, comment lines included, and the report's mass
# figures at the golden-digest run, frozen before fpsolve stepped in reused
# buffers: a midpoint profile that a later step overwrites changes its hash
FP_PROFILE_SHA256 = {
    "fp_profile_t0.0000.csv": "18f477663c253146f3067939188eb50bfeb0961d3765e1dd6480d2b08d369bf2",
    "fp_profile_t0.0500.csv": "ebb003e3841ae47b5b8a19cdd789d30adc17f4ca078723793e8f3abd68322e29",
    "fp_profile_t0.1000.csv": "7584d8ea0cf86630e5c84594283fc8b6494b440bf20f2e19190d41997794d1ed",
}


def test_fpsolve_output_bytes_and_masses_are_pinned(tmp_path):
    out = tmp_path / "fp"
    assert run("fpsolve", "--grid-points", "1024", "--fp-dt", "0.002", "--fp-time", "0.1",
               "--beta", "0.5", "--output", str(out)) == 0
    profiles = sorted(p.name for p in out.glob("fp_profile_t*.csv"))
    assert profiles == sorted(FP_PROFILE_SHA256)
    for name, sha in FP_PROFILE_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha, name
    report = json.loads((out / "fp_report.json").read_text())
    assert report["mass_initial"] == [1.0, 0.0]
    assert report["mass_final"] == [1.0000000000000098, 1.4863110742169283e-14]
    assert report["max_per_step_mass_drift"] == 5.593023969348752e-16


def test_fpsolve_steps_one_profile_it_allocates_once(tmp_path, monkeypatch):
    # every step of the run advances the same out array, which each call
    # returns; the two report studies pass none
    calls, evolve = [], sqrtwiener.kernels.fp_evolve

    def traced(initial, p, dt, n_steps, out=None):
        result = evolve(initial, p, dt, n_steps, out=out)
        calls.append((n_steps, out, result.values))
        return result

    monkeypatch.setattr("sqrtwiener.kernels.fp_evolve", traced)
    assert run("fpsolve", "--grid-points", "1024", "--fp-dt", "0.002", "--fp-time", "0.1",
               "--beta", "0.5", "--output", str(tmp_path / "fp")) == 0
    steps, studies = calls[:50], calls[50:]
    profile = steps[0][1]
    assert isinstance(profile, np.ndarray) and profile.shape == (1024,)
    assert all(n == 1 and out is profile and values is profile for n, out, values in steps)
    assert len(studies) == 4 and all(out is None for _, out, _ in studies)


def test_memory_error_exits_1_naming_the_size(tmp_path, capsys):
    # the ensemble array is allocated at once in this process; the output
    # directory is made only after the draws succeed
    for command in ("simulate", "table1"):
        out = tmp_path / command
        code = run(command, "--paths", "1000000000000", "--output", str(out))
        err = capsys.readouterr().err
        assert code == 1, command
        assert "n_paths = 1000000000000" in err and "n_steps = 1000" in err
        assert "Traceback" not in err
        assert not out.exists(), command


@pytest.mark.parametrize("argv, flag", [
    (("fpsolve", "--paths", "2"), "--paths"),
    (("fpsolve", "--steps", "2"), "--steps"),
    (("fpsolve", "--dt", "0.1"), "--dt"),
    (("fpsolve", "--no-compress"), "--no-compress"),
    (("table1", "--paths", "40", "--steps", "16", "--no-compress"), "--no-compress"),
    (("kernels", "--paths", "40", "--steps", "16", "--no-compress"), "--no-compress"),
], ids=["fpsolve-paths", "fpsolve-steps", "fpsolve-dt", "fpsolve-no-compress",
        "table1-no-compress", "kernels-no-compress"])
def test_subcommands_refuse_flags_of_fields_they_do_not_read(tmp_path, capsys, monkeypatch,
                                                              argv, flag):
    # fpsolve draws nothing, and only simulate writes an ensemble CSV: such a
    # flag would change the manifest and config_digest, not the numbers
    monkeypatch.setattr("sqrtwiener.cli.wiener_ensemble", _no_draws)
    monkeypatch.setattr("sqrtwiener.cli.integrate_sqrt", _no_draws)
    monkeypatch.setattr("sqrtwiener.kernels.fp_evolve", _no_evolution)
    _refused(tmp_path, capsys, argv, flag)


@pytest.mark.parametrize("command, doc", [
    ("fpsolve", {"n_paths": 5}),
    ("table1", {"compress": False}),
], ids=["fpsolve-n_paths", "table1-compress"])
def test_config_fields_a_subcommand_does_not_read_are_refused(tmp_path, capsys, monkeypatch,
                                                               command, doc):
    monkeypatch.setattr("sqrtwiener.cli.wiener_ensemble", _no_draws)
    monkeypatch.setattr("sqrtwiener.cli.integrate_sqrt", _no_draws)
    monkeypatch.setattr("sqrtwiener.kernels.fp_evolve", _no_evolution)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    _refused(tmp_path, capsys, (command, "--config", str(cfg)),
             f"{command} does not read {next(iter(doc))}")


def test_config_fields_a_subcommand_does_not_read_may_hold_their_defaults(tmp_path):
    # fpsolve reads no n_paths, and takes seed for its manifest
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_paths": 20000, "seed": 5}))
    out = tmp_path / "fp"
    assert run("fpsolve", "--grid-points", "256", "--config", str(cfg), "--output", str(out)) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["seed"] == 5 and config["n_paths"] == 20000


@pytest.mark.parametrize("argv, key, value", [
    (("simulate", "--paths", "3", "--steps", "4", "--beta", "-1e-3"), ("config", "beta"), -1e-3),
    (("simulate", "--paths", "3", "--steps", "4", "--mu0", "-5e-1"), ("config", "mu0"), -0.5),
    (("kernels", "--paths", "40", "--steps", "16", "--x-min", "-2e0"), ("x_min",), -2.0),
], ids=["beta", "mu0", "x-min"])
def test_negative_reals_in_exponent_notation_are_flag_values(tmp_path, argv, key, value):
    out = tmp_path / "run"
    assert run(*argv, "--output", str(out)) == 0
    recorded = json.loads((out / "manifest.json").read_text())
    for k in key:
        recorded = recorded[k]
    assert recorded == value


@pytest.mark.parametrize("command", ["table1", "kernels"])
def test_one_ensemble_alive_at_a_time(tmp_path, command):
    # both ensembles alive at once would trace 1.5 x the complex increments
    # (8 MB of real dw beside 16 MB of complex increments); one at a time
    # traces the complex ensemble and its row blocks.  scipy.special, the
    # one compiled SciPy module both runs load, is imported first, so the
    # peak counts arrays, not module objects.
    import scipy.special  # noqa: F401

    complex_bytes = 2000 * 500 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        code = run(command, "--paths", "2000", "--steps", "500", "--output", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.25 * complex_bytes


@pytest.mark.parametrize("argv, flag", [
    (("kernels", "--x-points", "1000000000000", "--paths", "10", "--steps", "10"), "x-points"),
    (("fpsolve", "--grid-points", "1000000000000"), "grid-points"),
    (("kernels", "--bins", "1000000000000", "--paths", "10", "--steps", "10"), "bins"),
], ids=lambda v: v[0] if isinstance(v, tuple) else None)
def test_memory_error_names_the_grid_flag(tmp_path, capsys, argv, flag):
    # a 7.28 TiB linspace of points or of bin edges (the histograms' come
    # after both draws): the message names the flag, not the ensemble
    out = tmp_path / "huge"
    code = run(*argv, "--output", str(out))
    err = capsys.readouterr().err
    assert code == 1
    assert f"not enough memory for {flag} = 1000000000000" in err
    assert "n_paths" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (("simulate", "--paths", "2", "--steps", str(10**30)), "n_steps = " + str(10**30)),
    (("simulate", "--paths", str(2**62), "--steps", "2"), f"n_paths = {2**62}"),
    (("table1", "--paths", str(10**23), "--steps", "2"), f"n_paths = {10**23}"),
    (("kernels", "--paths", str(10**23), "--steps", "2"), f"n_paths = {10**23}"),
    (("kernels", "--x-points", str(10**23)), f"x-points = {10**23}"),
    (("kernels", "--bins", str(10**23)), f"bins = {10**23}"),
    (("fpsolve", "--grid-points", str(10**23)), f"grid-points = {10**23}"),
], ids=["simulate-steps", "simulate-paths", "table1-paths", "kernels-paths",
        "kernels-x-points", "kernels-bins", "fpsolve-grid-points"])
def test_sizes_beyond_numpy_arrays_are_refused_naming_the_field(
        tmp_path, capsys, monkeypatch, argv, field):
    # numpy's own refusals of these sizes name no field; they are refused
    # before any draw or evolution
    monkeypatch.setattr("sqrtwiener.cli.wiener_ensemble", _no_draws)
    monkeypatch.setattr("sqrtwiener.cli.integrate_sqrt", _no_draws)
    monkeypatch.setattr("sqrtwiener.kernels.fp_evolve", _no_evolution)
    out = tmp_path / "huge"
    code = run(*argv, "--output", str(out))
    err = capsys.readouterr().err
    assert code == 1
    assert field in err and "numpy can allocate" in err
    assert "Traceback" not in err
    assert not out.exists()


_SMALL_RUNS = [
    ("simulate", "--paths", "12", "--steps", "16"),
    ("table1", "--paths", "40", "--steps", "16"),
    ("kernels", "--paths", "40", "--steps", "16"),
    ("fpsolve", "--grid-points", "1024", "--fp-dt", "0.002", "--fp-time", "0.1"),
]


@pytest.mark.parametrize("argv", _SMALL_RUNS, ids=lambda argv: argv[0])
def test_output_directory_holds_exactly_its_manifest_outputs(tmp_path, argv):
    out = tmp_path / "fresh"
    assert run(*argv, "--output", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(os.listdir(out)) == sorted(manifest["outputs"])


@pytest.mark.parametrize("argv", _SMALL_RUNS, ids=lambda argv: argv[0])
def test_subcommands_compute_and_main_writes_what_they_return(tmp_path, capsys, argv):
    # a subcommand touches no file and prints nothing; main's one writer
    # writes exactly the files and reports it returned, in their order
    cli = sqrtwiener.cli
    out = tmp_path / "o"
    args = cli._build_parser().parse_args([*argv, "--output", str(out)])
    config = cli.build_config(args)
    with np.errstate(all="ignore"):
        computed = args.run(config, args)
    assert not out.exists()
    assert capsys.readouterr().out == ""
    assert run(*argv, "--output", str(out)) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert [*computed.files, *computed.reports] == outputs[:-1]
    assert outputs[-1] == "manifest.json"
    assert capsys.readouterr().out.splitlines() == computed.stdout


def test_a_run_that_fails_while_writing_leaves_only_its_own_files(tmp_path, capsys):
    # the earlier run's files go before the first write, so a write that
    # fails leaves no manifest or report of t = 1 beside curves of t = 2
    argv = ("kernels", "--paths", "40", "--steps", "16")
    out = tmp_path / "o"
    assert run(*argv, "--t", "1.0", "--output", str(out)) == 0
    blocker = out / "hist_wiener_terminal.csv"
    blocker.unlink()
    blocker.mkdir()
    (blocker / "inside").write_text("a directory the CSV cannot replace")
    assert run(*argv, "--t", "2.0", "--output", str(out)) == 2
    assert "i/o error" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["hist_wiener_terminal.csv", "kernel_curves.csv"]
    assert run(*argv, "--t", "2.0", "--output", str(tmp_path / "fresh")) == 0
    fresh = (tmp_path / "fresh" / "kernel_curves.csv").read_bytes()
    assert (out / "kernel_curves.csv").read_bytes() == fresh


def test_stale_outputs_of_an_earlier_run_removed(tmp_path):
    out = tmp_path / "run"
    assert run("table1", "--paths", "20", "--steps", "16", "--output", str(out)) == 0
    assert (out / "table1.csv").exists()
    (out / "notes.txt").write_text("not listed by any manifest")
    assert run("simulate", "--paths", "5", "--steps", "8", "--output", str(out)) == 0
    assert sorted(os.listdir(out)) == ["ensemble.csv", "manifest.json", "notes.txt"]


def test_stale_output_removal_deletes_only_bare_names_inside(tmp_path):
    out = tmp_path / "run"
    (out / "sub").mkdir(parents=True)
    outside = tmp_path / "outside.csv"
    for f in (outside, out / "sub" / "inner.csv"):
        f.write_text("keep")
    listed = ["../outside.csv", str(outside), "sub/inner.csv", "sub", "..", "", 7, None]
    (out / "manifest.json").write_text(json.dumps({"outputs": listed}))
    assert run("simulate", "--paths", "5", "--steps", "8", "--output", str(out)) == 0
    assert outside.exists() and (out / "sub" / "inner.csv").exists()


@pytest.mark.parametrize("old_manifest", [
    "{not json", '["old.csv"]', '{"outputs": "old.csv"}', '{"files": ["old.csv"]}', b"\xff\xfe",
])
def test_unreadable_old_manifest_deletes_nothing(tmp_path, old_manifest):
    out = tmp_path / "run"
    out.mkdir()
    (out / "old.csv").write_text("keep")
    if isinstance(old_manifest, bytes):
        (out / "manifest.json").write_bytes(old_manifest)
    else:
        (out / "manifest.json").write_text(old_manifest)
    assert run("simulate", "--paths", "5", "--steps", "8", "--output", str(out)) == 0
    assert (out / "old.csv").exists()


# Any JSON value, except positive integers: a valid size beyond the small
# ones below only makes a run long.
_ANY_JSON = hs.recursive(
    hs.none() | hs.booleans() | hs.integers(max_value=0) | hs.floats() | hs.text(max_size=6),
    lambda inner: hs.lists(inner, max_size=3) | hs.dictionaries(hs.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)
_SMALL_VALID = {
    "n_paths": hs.integers(1, 20),
    "n_steps": hs.integers(1, 16),
    "dt": hs.floats(1e-4, 0.1),
    "mu0": hs.sampled_from([0.5, 0.7, -1.3]) | hs.floats(-2.0, 2.0).filter(bool),
    "beta": hs.just(0.0) | hs.floats(-1.0, 1.0),
    "seed": hs.integers(0, 2**64 - 1),
    "compress": hs.booleans(),
    "csv_max_paths": hs.none() | hs.integers(1, 30),
    # relative names only (and no other string), so every run stays in its
    # working directory
    "output_dir": hs.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8),
}


@hs.composite
def _config_documents(draw):
    if draw(hs.integers(0, 9)) == 0:
        return draw(_ANY_JSON.filter(lambda doc: not isinstance(doc, dict)))
    doc = {}
    for name in [f.name for f in dataclasses.fields(RunConfig)]:
        # n_paths is always set: the 20000-path default makes long runs
        if name != "n_paths" and draw(hs.booleans()):
            continue
        any_value = _ANY_JSON
        if name == "output_dir":
            any_value = _ANY_JSON.filter(lambda v: not isinstance(v, str))
        # valid four times in five, so some runs succeed
        doc[name] = draw(_SMALL_VALID[name] if draw(hs.integers(0, 4)) else any_value)
    if draw(hs.integers(0, 9)) == 0:
        doc[draw(hs.text(min_size=1, max_size=6))] = draw(_ANY_JSON)
    return doc


@settings(max_examples=50, deadline=None)
@given(command=hs.sampled_from(["simulate", "table1", "kernels"]), doc=_config_documents())
def test_any_json_config_exits_0_or_1_and_the_manifest_holds_what_ran(command, doc):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work, mock.patch.dict(os.environ) as env:
        env.pop(ENV_OUTPUT, None)
        os.chdir(work)
        try:
            with open("config.json", "w") as fh:
                json.dump(doc, fh)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", "config.json"])
            assert code in (0, 1)
            assert "Traceback" not in err.getvalue()
            if code == 0:
                merged = {**dataclasses.asdict(RunConfig()), **doc}
                merged["output_dir"] = doc.get("output_dir") or "sqrtwiener-out"
                with open(os.path.join(merged["output_dir"], "manifest.json")) as fh:
                    assert json.load(fh)["config"] == merged
        finally:
            os.chdir(cwd)
