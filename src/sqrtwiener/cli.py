"""Command-line front end: reproducible simulation runs with manifests.

Subcommands
-----------
simulate   integrate the square-root ensemble, write increments CSV + manifest
table1     Wiener + square-root ensembles (each reduced and dropped before
           the next is drawn), tagged summary statistics CSV and a
           comparison report against the published reference values
kernels    analytic heat / oscillatory / Wick-rotated curves, plus empirical
           Wick-rotated histograms with Gaussian fits
fpsolve    Crank-Nicolson evolution of the complex advection-diffusion
           equation: profiles, conservation and self-convergence report

Configuration precedence is flags > JSON config file > defaults; the
effective configuration is echoed into every manifest.  The defaults
reproduce the reference Monte Carlo protocol (20000 paths of 1000 steps at
dt = 0.001, mu0 = 1/2, beta = 0); a subcommand's own flags and defaults
live in its argparse subparser only.  Exit codes: 0 success, 1 configuration
error, library ValueError, arithmetic out of float range (also emitted
numbers that are not all finite; the message names dt, mu0 and beta) or
not enough memory (the message names the sizes that failed: n_paths x
n_steps, x-points or grid-points), 2 I/O error.  Every file is written to a
temporary file (process.replaced_atomically) and renamed into place, and a
run makes its output directory only after its draws or its evolution
succeeded.  A run writes its manifest last, after deleting the files that
the directory's previous manifest listed and the new one does not, and the
temporary files a killed run left for any name either manifest lists; the
manifest records the library versions and this process's peak RSS.

The only environment variable honored is SQRTWIENER_OUTPUT, an optional
default output directory used when neither --output nor the config file set
one.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import kernels as kn
from . import stats as st
from .paths import RNG_NAME, TimeGrid, cumulative_terminal, row_blocks, wiener_ensemble
from .process import (
    SqrtParams,
    array_digest,
    column_blocks,
    ensemble_digest,
    ensemble_to_csv,
    integrate_sqrt,
    replaced_atomically,
    temporary_target,
    write_csv,
)

__all__ = ["ConfigError", "RunConfig", "main", "PUBLISHED_REFERENCE"]

ARTIFACT_VERSION = "1"
ENV_OUTPUT = "SQRTWIENER_OUTPUT"
DEFAULT_OUTPUT = "sqrtwiener-out"

# Gzip ensemble CSVs above this many data rows unless --no-compress is given.
COMPRESS_ROW_THRESHOLD = 1_000_000

# Reference values of the published summary table for the default protocol,
# embedded so comparison reports never need network access.
PUBLISHED_REFERENCE = {
    "source": "published reference table for the 20000 x 1000 protocol",
    "protocol": "20000 paths x 1000 steps, dt = 0.001, mu0 = 1/2, beta = 0",
    "brownian": {
        "mean": [-0.001, 0.004],
        "variance": [0.1667, 0.0011],
        "diffusion": [0.2041, 0.0013],
    },
    "square_root": {
        "mean_re": [0.4986, 0.0025],
        "mean_im": [0.5016, 0.0025],
        "variance_re": [0.0, 4e-07],
        "variance_im": [-0.2491, 0.0013],
        "diffusion_im": [-0.249, 0.001],
    },
}


class ConfigError(Exception):
    """Invalid configuration (maps to exit code 1)."""


@contextlib.contextmanager
def _memory_for(sizes: str):
    """Turn a MemoryError inside the block into a ConfigError naming the
    sizes the block allocates by."""
    try:
        yield
    except MemoryError as exc:
        raise ConfigError(f"not enough memory for {sizes}: {exc}") from exc


def _finite_real(v) -> bool:
    try:
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        return False


def _finite_float(text: str) -> float:
    """argparse type of every real flag: refuses inf, nan and non-numbers."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not _finite_real(value):
        raise argparse.ArgumentTypeError(f"must be a finite real number, got {text!r}")
    return value


# Values each RunConfig annotation accepts (None too, where the annotation is
# optional): bool is not an integer, and reals must be finite.
_ACCEPTS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite real number", _finite_real),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


@dataclass
class RunConfig:
    """Effective run configuration; defaults are the reference protocol."""

    n_paths: int = 20000
    n_steps: int = 1000
    dt: float = 0.001
    mu0: float = 0.5
    beta: float = 0.0
    seed: int = 1
    output_dir: str | None = None
    compress: bool = True
    csv_max_paths: int | None = None

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            what, accepts = _ACCEPTS[kind]
            if not (value is None and optional or accepts(value)):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.mu0 == 0:
            raise ConfigError("mu0 must be nonzero")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.csv_max_paths is not None and self.csv_max_paths < 1:
            raise ConfigError(f"csv-paths must be >= 1, got {self.csv_max_paths}")

    # float() below: a real given as an integer too large for int64 is valid
    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(float(self.dt), self.n_steps)

    @property
    def params(self) -> SqrtParams:
        return SqrtParams(float(self.mu0), float(self.beta))

    def digest(self) -> str:
        """Hash of the fields that determine emitted numbers: all but
        output_dir, so a rerun elsewhere gives the same bytes."""
        payload = dataclasses.asdict(self)
        payload.pop("output_dir")
        blob = json.dumps(payload, sort_keys=True).encode()
        return "sha256:" + hashlib.sha256(blob).hexdigest()


_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)}


def build_config(args: argparse.Namespace) -> RunConfig:
    merged = dataclasses.asdict(RunConfig())
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    # each flag's argparse dest is the RunConfig field it sets
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if merged["output_dir"] is None:
        merged["output_dir"] = os.environ.get(ENV_OUTPUT, DEFAULT_OUTPUT)
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# manifests and file helpers
# ---------------------------------------------------------------------------

def make_manifest(command: str, config: RunConfig, increment_digest: str, **extra) -> dict:
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": dataclasses.asdict(config),
        "config_digest": config.digest(),
        "increment_digest": increment_digest,
        "rng": RNG_NAME,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "sqrtwiener": __version__,
        },
    }
    manifest.update(extra)
    return manifest


def manifest_header_lines(manifest: dict) -> list[str]:
    """Comment lines embedded in every CSV so outputs reference their run
    (stable across reruns: no timestamps)."""
    return [
        f"artifact_version={manifest['artifact_version']}",
        f"config_digest={manifest['config_digest']}",
        f"increment_digest={manifest['increment_digest']}",
    ]


def _prepare_output(config: RunConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with replaced_atomically(path) as tmp, open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _peak_rss_mb() -> float | None:
    """This process's peak RSS in MiB (every draw runs in it), or None
    where the platform has no resource module."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024  # bytes on macOS, else KiB


def _write_manifest(out: Path, manifest: dict, reports: dict[str, dict] | None = None) -> None:
    """Record this process's peak RSS so far in manifest, write each report
    (reports embed the manifest), then write manifest.json, first deleting
    the files the old manifest in out listed that this one does not, and
    the temporary files a killed run left for any name either manifest
    lists.  Only bare file names inside out are deleted, and an unreadable
    old manifest deletes nothing that this run's manifest does not name."""
    manifest["peak_rss_mb"] = _peak_rss_mb()
    for name, report in (reports or {}).items():
        _write_json(out / name, report)
    try:
        old = json.loads((out / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, LookupError, TypeError):
        old = []
    old = [n for n in (old if isinstance(old, list) else [])
           if isinstance(n, str) and n == os.path.basename(n)]
    for name in old:
        if name not in manifest["outputs"] and (out / name).is_file():
            (out / name).unlink()
    listed = set(old) | set(manifest["outputs"])
    for path in out.iterdir():
        if temporary_target(path.name) in listed and path.is_file():
            path.unlink()
    _write_json(out / "manifest.json", manifest)


def _require_finite(what: str, values: np.ndarray) -> None:
    """Raise FloatingPointError, which main reports naming dt, mu0 and beta,
    unless all values (1-D or 2-D, read a row block at a time) are finite."""
    values = values.reshape(len(values), -1)
    if not all(np.isfinite(values[rows]).all() for rows in row_blocks(*values.shape)):
        raise FloatingPointError(f"the {what} are not all finite")


def _stat_row(row: str, s: st.SummaryStats) -> list:
    parts = (s.mean.value, s.mean.stderr, s.pseudo_variance.value, s.diffusion.value)
    return [row, s.estimator_tag] + [x for z in parts for x in (z.real, z.imag)]


def _summary_json(s: st.SummaryStats) -> dict:
    return {
        "estimator_tag": s.estimator_tag,
        "mean": [s.mean.value.real, s.mean.value.imag],
        "mean_stderr": [s.mean.stderr.real, s.mean.stderr.imag],
        "pseudo_variance": [s.pseudo_variance.value.real, s.pseudo_variance.value.imag],
        "pseudo_variance_stderr": [
            s.pseudo_variance.stderr.real,
            s.pseudo_variance.stderr.imag,
        ],
        "diffusion": [s.diffusion.value.real, s.diffusion.value.imag],
        "diffusion_stderr": [s.diffusion.stderr.real, s.diffusion.stderr.imag],
        "n": s.mean.n,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def ensemble_csv_name(rows: int, compress: bool) -> str:
    """Large ensemble CSVs are gzipped unless compression is disabled."""
    if compress and rows > COMPRESS_ROW_THRESHOLD:
        return "ensemble.csv.gz"
    return "ensemble.csv"


def cmd_simulate(config: RunConfig, args: argparse.Namespace) -> int:
    ens = integrate_sqrt(config.grid, config.n_paths, config.params, config.seed)
    _require_finite("square-root increments", ens.increments)
    digest = ensemble_digest(ens)
    manifest = make_manifest("simulate", config, digest)
    out = _prepare_output(config)

    rows = config.n_paths * config.n_steps
    if config.csv_max_paths is not None:
        rows = min(config.csv_max_paths, config.n_paths) * config.n_steps
    name = ensemble_csv_name(rows, config.compress)
    csv_path = out / name
    ensemble_to_csv(
        ens, csv_path, max_paths=config.csv_max_paths,
        header_lines=manifest_header_lines(manifest),
    )
    manifest["outputs"] = [name, "manifest.json"]
    _write_manifest(out, manifest)
    print(f"simulate: {config.n_paths} paths x {config.n_steps} steps -> {csv_path}")
    print(f"increment_digest {digest}")
    return 0


def cmd_table1(config: RunConfig, args: argparse.Namespace) -> int:
    if config.n_paths * config.n_steps < 2:
        raise ConfigError(
            "table1 needs at least 2 increments, got "
            f"n_paths = {config.n_paths} x n_steps = {config.n_steps}"
        )
    # each ensemble is reduced, digested and dropped before the next is drawn
    ens = wiener_ensemble(config.grid, config.n_paths, config.seed)
    brownian, wiener_digest = st.table1_statistics(ens, config.params), ensemble_digest(ens)
    del ens
    ens = integrate_sqrt(config.grid, config.n_paths, config.params, config.seed)
    table = st.Table1Stats(brownian, st.table1_statistics(ens, config.params))
    digest = ensemble_digest(ens)
    del ens
    reported = [z for s in table.brownian + table.square_root
                for c in (s.mean, s.pseudo_variance, s.diffusion) for z in (c.value, c.stderr)]
    _require_finite("table1 statistics", np.array(reported))

    manifest = make_manifest("table1", config, digest, wiener_digest=wiener_digest)
    comments = manifest_header_lines(manifest)
    out = _prepare_output(config)

    csv_path = out / "table1.csv"
    rows = [_stat_row("brownian", s) for s in table.brownian]
    rows += [_stat_row("square_root", s) for s in table.square_root]
    write_csv(
        csv_path, comments,
        "row,estimator_tag,mean_re,mean_im,stderr_re,stderr_im,var_re,var_im,D_re,D_im",
        "%s,%s" + ",%.17g" * 8 + "\n", rows,
    )

    bro = table.by_tag("brownian", st.TAG_PAPER_REPORTED)
    sq = table.by_tag("square_root", st.TAG_PAPER_REPORTED)
    report = {
        "manifest": manifest,
        "published": PUBLISHED_REFERENCE,
        "measured_paper_reported": {
            "brownian": _summary_json(bro),
            "square_root": _summary_json(sq),
        },
        "all_estimators": {
            "brownian": [_summary_json(s) for s in table.brownian],
            "square_root": [_summary_json(s) for s in table.square_root],
        },
        "differences_vs_published": {
            "brownian_mean": bro.mean.value.real - PUBLISHED_REFERENCE["brownian"]["mean"][0],
            "brownian_variance": bro.pseudo_variance.value.real
            - PUBLISHED_REFERENCE["brownian"]["variance"][0],
            "brownian_diffusion": bro.diffusion.value.real
            - PUBLISHED_REFERENCE["brownian"]["diffusion"][0],
            "square_root_mean_re": sq.mean.value.real
            - PUBLISHED_REFERENCE["square_root"]["mean_re"][0],
            "square_root_mean_im": sq.mean.value.imag
            - PUBLISHED_REFERENCE["square_root"]["mean_im"][0],
            "square_root_variance_im": sq.pseudo_variance.value.imag
            - PUBLISHED_REFERENCE["square_root"]["variance_im"][0],
        },
        "notes": (
            "the square-root mean estimator carries the modulus term of the "
            "increment bracket, so its components sit near 0.524 rather than "
            "the published 0.4986/0.5016; the discrepancy is reported, not tuned away"
        ),
    }
    manifest["outputs"] = ["table1.csv", "table1_report.json", "manifest.json"]
    _write_manifest(out, manifest, {"table1_report.json": report})
    print(f"table1: wrote {csv_path}")
    print(
        "brownian temporal variance "
        f"{bro.pseudo_variance.value.real:.5f} (published 0.1667), "
        f"square-root variance {sq.pseudo_variance.value.imag:+.5f}i (published -0.2491i)"
    )
    return 0


def cmd_kernels(config: RunConfig, args: argparse.Namespace) -> int:
    t, x_min, x_max, x_points, bins = args.t, args.x_min, args.x_max, args.x_points, args.bins
    if x_points < 8 or not x_max > x_min:
        raise ConfigError("x range must be non-empty with at least 8 points")
    if bins is not None and bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    # analytic side first, so that a t or x range it refuses makes no output
    where = f"t = {t}, x_min = {x_min}, x_max = {x_max}"
    with _memory_for(f"x-points = {x_points}"), np.errstate(all="ignore"):
        x = np.linspace(x_min, x_max, x_points)
        dx = x[1] - x[0]
        osc = kn.schrodinger_kernel(x, t)
        heat = kn.heat_kernel(x, t)
        wick = kn.wick_rotate_kernel(x, t)
        rotated_samples = kn.wick_rotate_samples(kn.schrodinger_samples(x, t))
        max_wick_err = float(np.abs(wick - heat).max())
        l2_wick_err = float(np.sqrt((np.abs(wick - heat) ** 2).sum() * dx))
        max_sample_err = float(np.abs(rotated_samples - heat).max())
    if not all(np.isfinite(a).all() for a in
               (osc, heat, wick, rotated_samples, max_wick_err, l2_wick_err, max_sample_err)):
        raise ConfigError(f"{where} give kernel curves out of float range")
    try:
        curve_fit_res = st.fit_gaussian_curve(x, rotated_samples)
    except st.FitError as exc:
        raise ConfigError(f"{where}: the rotated curve cannot be fitted: {exc}") from exc

    # empirical side: Wiener terminal values, and Wick-rotated squared
    # square-root terminal values (interpretation recorded in the manifest);
    # the Wiener ensemble is dropped before the square-root one is drawn
    w_term = cumulative_terminal(wiener_ensemble(config.grid, config.n_paths, config.seed).dw)
    sqrt_ens = integrate_sqrt(config.grid, config.n_paths, config.params, config.seed)
    wick_emp = kn.wick_rotate_samples(kn.square_samples(sqrt_ens.terminal_values))
    _require_finite("Wiener terminal values", w_term)
    _require_finite("Wick-rotated squared terminal values", wick_emp)

    with _memory_for(f"bins = {bins}"):
        hist_w = st.build_histogram(w_term, bins, normalization="density")
        hist_s = st.build_histogram(wick_emp, bins, normalization="density")
    fits = {}
    for label, hist in (("wiener_terminal", hist_w), ("sqrt_wick_rotated", hist_s)):
        try:
            g = st.gaussian_fit(hist)
            fits[label] = {
                "amplitude": g.amplitude,
                "center": g.center,
                "sigma": g.sigma,
                "r_squared": g.r_squared,
            }
        except st.FitError as exc:
            fits[label] = {"error": str(exc)}

    digest = ensemble_digest(sqrt_ens)
    manifest = make_manifest(
        "kernels", config, digest,
        empirical_interpretation="squared-terminal-values",
        kernel_t=t,
        x_min=x_min,
        x_max=x_max,
        x_points=x_points,
        histogram_bins={"wiener_terminal": len(hist_w.counts),
                        "sqrt_wick_rotated": len(hist_s.counts)},
    )
    comments = manifest_header_lines(manifest)
    out = _prepare_output(config)

    write_csv(
        out / "kernel_curves.csv", comments, "x,re,im,modulus,heat,wick", "%.17g," * 5 + "%.17g\n",
        column_blocks([x, osc.real, osc.imag, np.abs(osc), heat, wick]),
    )
    for name, h in (("hist_wiener_terminal.csv", hist_w), ("hist_sqrt_wick.csv", hist_s)):
        columns = [h.bin_edges[:-1], h.bin_edges[1:], h.counts, h.density()]
        write_csv(
            out / name, comments, "bin_lo,bin_hi,count,density", "%.17g,%.17g,%d,%.17g\n",
            column_blocks(columns),
        )

    center_shift = fits.get("sqrt_wick_rotated", {}).get("center")
    report = {
        "manifest": manifest,
        "t": t,
        "max_abs_wick_minus_heat": max_wick_err,
        "l2_wick_minus_heat": l2_wick_err,
        "max_abs_rotated_samples_minus_heat": max_sample_err,
        "rotated_curve_fit": {
            "center": curve_fit_res.center,
            "sigma": curve_fit_res.sigma,
            "r_squared": curve_fit_res.r_squared,
        },
        "histogram_fits": fits,
        "sqrt_histogram_center_shifted_from_zero": (
            center_shift is not None and abs(center_shift) > 0
        ),
    }
    manifest["outputs"] = [
        "kernel_curves.csv",
        "hist_wiener_terminal.csv",
        "hist_sqrt_wick.csv",
        "kernels_report.json",
        "manifest.json",
    ]
    _write_manifest(out, manifest, {"kernels_report.json": report})
    print(
        f"kernels: max|wick-heat| = {max_wick_err:.3e}, "
        f"fits R^2 = {[f.get('r_squared') for f in fits.values()]}"
    )
    return 0


def _fp_convergence_study(p: kn.FPParams) -> dict:
    """Nested-grid self-convergence of the pure-diffusion evolution."""
    diff_only = kn.FPParams(drift=0.0, diffusion=p.diffusion)
    sigma0, horizon, half = 0.3, 0.5, 15.0
    levels = [(1025, 125), (2049, 250), (4097, 500)]
    profiles = []
    for n, n_steps in levels:
        x = np.linspace(-half, half, n)
        init = kn.GridFunction(-half, half, kn.gaussian_packet(x, 0.0, sigma0, diff_only))
        profiles.append(kn.fp_evolve(init, diff_only, horizon / n_steps, n_steps).values)
    e01 = float(np.abs(profiles[0] - profiles[1][::2]).max())
    e12 = float(np.abs(profiles[1] - profiles[2][::2]).max())
    return {
        "levels": levels,
        "errors": [e01, e12],
        "ratio": e01 / e12 if e12 else float("inf"),
    }


def _fp_heat_validation() -> dict:
    """Real-diffusion mode against the analytic widened Gaussian."""
    p = kn.FPParams(drift=0.0, diffusion=1.0)
    t0, horizon = 0.25, 0.25
    x = np.linspace(-12.0, 12.0, 4097)
    init = kn.GridFunction(-12.0, 12.0, kn.fp_analytic_solution(x, t0, p))
    final = kn.fp_evolve(init, p, horizon / 500, 500)
    err = np.abs(final.values - kn.fp_analytic_solution(x, t0 + horizon, p))
    return {
        "l_inf_error": float(err.max()),
        "l2_error": float(np.sqrt((err**2).sum() * final.dx)),
    }


# Most Crank-Nicolson steps fpsolve takes, far above its 500 at the defaults
_FP_MAX_STEPS = 10**6


def cmd_fpsolve(config: RunConfig, args: argparse.Namespace) -> int:
    grid_points, fp_dt, fp_time, sigma0 = args.grid_points, args.fp_dt, args.fp_time, args.sigma0
    if grid_points < 64:
        raise ConfigError(f"grid-points must be >= 64, got {grid_points}")
    if not fp_dt > 0 or not fp_time > 0 or not sigma0 > 0:
        raise ConfigError("fp-dt, fp-time and sigma0 must all be positive")
    # one fp_evolve call per step; this also refuses a step count out of float range
    if not fp_time / fp_dt <= _FP_MAX_STEPS:
        raise ConfigError(
            f"fp-time = {fp_time} and fp-dt = {fp_dt} give {fp_time / fp_dt:.3g} steps, "
            f"more than the {_FP_MAX_STEPS} allowed"
        )
    p = kn.fp_params_from_process(config.params)

    # domain sized so the packet modulus decays below the pinned boundaries
    try:
        s2 = sigma0**2 + 2 * p.diffusion * fp_time
        width = float(np.sqrt(abs(s2) ** 2 / s2.real))
        half = 10.0 * width + abs(p.drift) * fp_time + 5.0 * sigma0
    except ArithmeticError:
        half = math.inf
    if not math.isfinite(2 * half):
        raise ConfigError(f"sigma0 = {sigma0} and fp-time = {fp_time} overflow the domain size")
    x = np.linspace(-half, half, grid_points)
    init = kn.GridFunction(-half, half, kn.gaussian_packet(x, 0.0, sigma0, p))

    n_steps = max(1, round(fp_time / fp_dt))
    dt_eff = fp_time / n_steps
    # stepwise evolution to trace per-step mass conservation
    masses = [kn.grid_integral(init)]
    profiles = {0.0: init}
    current = init
    try:
        for k in range(n_steps):
            current = kn.fp_evolve(current, p, dt_eff, 1)
            masses.append(kn.grid_integral(current))
            if k + 1 == n_steps // 2:
                profiles[n_steps // 2 * dt_eff] = current
    except ValueError as exc:
        raise ConfigError(
            f"grid-points = {grid_points}, fp-time = {fp_time} and fp-dt = {fp_dt}: {exc}"
        ) from exc
    profiles[fp_time] = current

    mass_arr = np.array(masses)
    per_step_drift = float(np.abs(np.diff(mass_arr)).max())

    digest = array_digest(current.values)
    manifest = make_manifest("fpsolve", config, digest, fp_time=fp_time, fp_dt=dt_eff,
                             grid_points=grid_points, sigma0=sigma0,
                             drift=[p.drift.real, p.drift.imag],
                             diffusion=[p.diffusion.real, p.diffusion.imag])
    comments = manifest_header_lines(manifest)
    out = _prepare_output(config)
    names = []
    for t_prof, g in sorted(profiles.items()):
        name = f"fp_profile_t{t_prof:.4f}.csv"
        columns = [g.xs(), g.values.real, g.values.imag, np.abs(g.values)]
        write_csv(
            out / name, comments, "x,re,im,modulus", "%.17g,%.17g,%.17g,%.17g\n",
            column_blocks(columns),
        )
        names.append(name)

    mod0 = np.abs(init.values)
    mod1 = np.abs(current.values)
    closed_err = np.abs(current.values - kn.gaussian_packet(x, fp_time, sigma0, p))
    report = {
        "manifest": manifest,
        "mass_initial": [mass_arr[0].real, mass_arr[0].imag],
        "mass_final": [mass_arr[-1].real, mass_arr[-1].imag],
        "max_per_step_mass_drift": per_step_drift,
        "modulus_center_initial": float(x[np.argmax(mod0)]),
        "modulus_center_final": float(x[np.argmax(mod1)]),
        "closed_form_error": {
            "l_inf_error": float(closed_err.max()),
            "l2_error": float(np.sqrt((closed_err**2).sum() * current.dx)),
        },
        "heat_mode_validation": _fp_heat_validation(),
        "self_convergence": _fp_convergence_study(p),
    }
    manifest["outputs"] = names + ["fp_report.json", "manifest.json"]
    _write_manifest(out, manifest, {"fp_report.json": report})
    print(
        f"fpsolve: mass drift {per_step_drift:.3e}/step, "
        f"heat-mode Linf {report['heat_mode_validation']['l_inf_error']:.3e}, "
        f"convergence ratio {report['self_convergence']['ratio']:.2f}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--paths", dest="n_paths", metavar="PATHS", type=int, default=None,
                        help="number of paths")
    common.add_argument("--steps", dest="n_steps", metavar="STEPS", type=int, default=None,
                        help="steps per path")
    common.add_argument("--dt", type=_finite_float, default=None, help="time step")
    common.add_argument("--mu0", type=_finite_float, default=None, help="scale factor")
    common.add_argument("--beta", type=_finite_float, default=None, help="drift constant")
    common.add_argument("--seed", type=int, default=None, help="master seed (uint64)")
    common.add_argument("--output", dest="output_dir", metavar="OUTPUT", type=str, default=None,
                        help="output directory")
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--no-compress", dest="compress", action="store_const",
                        const=False, default=None, help="disable gzip of large CSVs")

    parser = _Parser(prog="sqrtwiener",
                     description="complex square-root-of-Wiener process toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", parents=[common], help="integrate the ensemble")
    p_sim.add_argument("--csv-paths", dest="csv_max_paths", metavar="CSV_PATHS", type=int,
                       default=None, help="down-sample the CSV to this many paths")
    p_sim.set_defaults(run=cmd_simulate)

    p_t = sub.add_parser("table1", parents=[common], help="summary statistics reproduction")
    p_t.set_defaults(run=cmd_table1)

    p_k = sub.add_parser("kernels", parents=[common], help="kernel curves and histograms")
    p_k.add_argument("--t", type=_finite_float, default=1.0, help="kernel time")
    p_k.add_argument("--x-min", type=_finite_float, default=-5.0)
    p_k.add_argument("--x-max", type=_finite_float, default=5.0)
    p_k.add_argument("--x-points", type=int, default=1001)
    p_k.add_argument("--bins", type=int, default=None, help="histogram bins (default Sturges)")
    p_k.set_defaults(run=cmd_kernels)

    p_f = sub.add_parser("fpsolve", parents=[common], help="evolve the complex diffusion PDE")
    p_f.add_argument("--grid-points", type=int, default=2048)
    p_f.add_argument("--fp-dt", type=_finite_float, default=0.001)
    p_f.add_argument("--fp-time", type=_finite_float, default=0.5)
    p_f.add_argument("--sigma0", type=_finite_float, default=0.3)
    p_f.set_defaults(run=cmd_fpsolve)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = build_config(args)
        # fpsolve allocates by its grid alone; kernels names x-points itself
        if args.command == "fpsolve":
            sizes = f"grid-points = {args.grid_points}"
        else:
            sizes = f"n_paths = {config.n_paths} x n_steps = {config.n_steps}"
        try:
            with _memory_for(sizes):
                return args.run(config, args)
        except ArithmeticError as exc:
            raise ConfigError(
                f"dt = {config.dt}, mu0 = {config.mu0} and beta = {config.beta} "
                f"put the arithmetic out of float range: {exc}"
            ) from exc
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
