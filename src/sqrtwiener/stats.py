"""Ensemble estimators for complex-valued processes, and histogram fitting.

Complex second moments use the *pseudo-variance* convention throughout,

    pvar(Z) = (1/(n-1)) * sum (z_k - mean)^2        (squares, no conjugation),

which is the only convention under which the process's purely imaginary
variance makes sense.  On real data it coincides with the ordinary sample
variance.

Every emitted summary carries an estimator tag, because the reference
results mix conventions between their two rows:

  "path-temporal"          Brownian row: per-path time average / time variance
                           of W(t) over the grid, then ensemble-averaged, with
                           the diffusion reported as sqrt(variance)/2.
  "paper-reported"         the convention under which the published numbers
                           are reproduced.  Brownian row: identical to
                           path-temporal.  Square-root row: pooled increment
                           mean / mu0, and *half* the mu0-normalized pooled
                           pseudo-variance for both the variance and diffusion
                           columns (the published table carries sigma^2 / 2 in
                           both).
  "increment-normalized"   per-unit-time increment estimators: mean(d)/dt and
                           pvar(d)/dt for the Brownian row with
                           D = var(dW)/(2 dt); mean/mu0, pvar/mu0^2 and
                           D = pvar/(2 mu0^2) for the square-root row.

Mean standard errors are analytic (componentwise std / sqrt(n)); standard
errors of variance-like quantities use batch means (100 equal batches).
Pooled reductions accumulate per-path partial sums with exact (fsum)
cross-path summation, and batch boundaries are taken in a canonical path
order, so all reported numbers are bit-identical under any permutation of
the ensemble's path order.

Every reduction over a whole ensemble walks it in the row blocks of
paths.row_blocks, converting one block at a time to complex128, so its
temporaries are set by one block, not by the ensemble; the batch-means
stderr gathers each batch into one reused complex128 buffer and reduces it
there in place.  The results are bit-identical to whole-array reductions:
each element gets the same arithmetic, each row's numpy sum and cumsum do
not depend on how many rows the array holds, and the fsum across rows is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import WienerEnsemble, cumulative_paths, row_blocks
from .process import ComplexPathEnsemble, SqrtParams

__all__ = [
    "TAG_PATH_TEMPORAL",
    "TAG_PAPER_REPORTED",
    "TAG_INCREMENT_NORMALIZED",
    "ESTIMATOR_TAGS",
    "ComplexStat",
    "SummaryStats",
    "Table1Stats",
    "FitError",
    "GaussianFit",
    "Histogram",
    "complex_mean",
    "complex_pseudo_variance",
    "pooled_complex_mean",
    "pooled_pseudo_variance",
    "table1_statistics",
    "build_histogram",
    "sturges_bins",
    "gaussian_fit",
    "fit_gaussian_curve",
]

TAG_PATH_TEMPORAL = "path-temporal"
TAG_PAPER_REPORTED = "paper-reported"
TAG_INCREMENT_NORMALIZED = "increment-normalized"
ESTIMATOR_TAGS = frozenset(
    {TAG_PATH_TEMPORAL, TAG_PAPER_REPORTED, TAG_INCREMENT_NORMALIZED}
)

_N_BATCHES = 100


@dataclass(frozen=True)
class ComplexStat:
    """An estimate with componentwise standard errors.

    stderr is undefined for n = 1 and reported as 0.
    """

    value: complex
    stderr: complex
    n: int

    def __post_init__(self) -> None:
        if self.stderr.real < 0 or self.stderr.imag < 0:
            raise ValueError("stderr components must be non-negative")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class SummaryStats:
    mean: ComplexStat
    pseudo_variance: ComplexStat
    diffusion: ComplexStat
    estimator_tag: str

    def __post_init__(self) -> None:
        if self.estimator_tag not in ESTIMATOR_TAGS:
            raise ValueError(
                f"unknown estimator tag {self.estimator_tag!r}; "
                f"must be one of {sorted(ESTIMATOR_TAGS)}"
            )


@dataclass(frozen=True)
class Table1Stats:
    """Tagged summaries for the Brownian and square-root rows, each row as
    table1_statistics returns it for its own ensemble."""

    brownian: tuple[SummaryStats, ...]
    square_root: tuple[SummaryStats, ...]

    def by_tag(self, row: str, tag: str) -> SummaryStats:
        for s in getattr(self, row):
            if s.estimator_tag == tag:
                return s
        raise KeyError(f"no {tag!r} summary for row {row!r}")


class FitError(RuntimeError):
    """Raised when a Gaussian least-squares fit is degenerate or fails."""


# ---------------------------------------------------------------------------
# exact reductions: per-row numpy partials + fsum across rows, so the result
# does not depend on row order
# ---------------------------------------------------------------------------

def _exact_totals(rows: np.ndarray, parts) -> list[float]:
    """Exact total over all rows of each array parts(z) returns, where z
    runs over the row blocks of rows converted to complex128."""
    per_row = []
    for block in row_blocks(*rows.shape):
        z = np.asarray(rows[block], dtype=np.complex128)
        per_row.append([np.sum(p, axis=1) for p in parts(z)])
    return [math.fsum(np.concatenate(sums)) for sums in zip(*per_row)]


def _componentwise_stderr(vals: np.ndarray) -> complex:
    """Componentwise standard error std(ddof=1) / sqrt(n) of a complex array."""
    n = vals.size
    return complex(vals.real.std(ddof=1) / math.sqrt(n), vals.imag.std(ddof=1) / math.sqrt(n))


def _exact_mean_std(x: np.ndarray) -> tuple[float, float]:
    """Order-independent mean and ddof=1 std of a 1-D real array."""
    n = x.size
    mean = math.fsum(x) / n
    if n < 2:
        return mean, 0.0
    d = x - mean
    var = math.fsum(d * d) / (n - 1)
    return mean, math.sqrt(max(var, 0.0))


def _square(x: float) -> float:
    """x**2, or inf where a Python float raises OverflowError instead."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def pooled_complex_mean(rows: np.ndarray) -> ComplexStat:
    """Mean of all entries of a (paths, steps) real or complex array, with
    componentwise stderr; bit-identical under row permutation."""
    rows = np.atleast_2d(np.asarray(rows))
    n = rows.size
    if n == 0:
        raise ValueError("mean of an empty array is undefined")
    re_sum, im_sum, re_sq, im_sq = _exact_totals(
        rows, lambda z: (z.real, z.imag, z.real**2, z.imag**2)
    )
    mean = complex(re_sum / n, im_sum / n)
    if n < 2:
        return ComplexStat(mean, 0j, n)
    re_var = (re_sq - n * _square(mean.real)) / (n - 1)
    im_var = (im_sq - n * _square(mean.imag)) / (n - 1)
    stderr = complex(
        math.sqrt(max(re_var, 0.0) / n), math.sqrt(max(im_var, 0.0) / n)
    )
    return ComplexStat(mean, stderr, n)


def _canonical_path_order(rows: np.ndarray) -> np.ndarray:
    """Deterministic path order independent of storage order (sorts on the
    leading increments; ties would need bit-identical rows)."""
    first = rows[:, 0]
    second = rows[:, min(1, rows.shape[1] - 1)]
    if np.iscomplexobj(rows):
        return np.lexsort((second.imag, second.real, first.imag, first.real))
    return np.lexsort((second, first))


def _pv_of(flat: np.ndarray, out: np.ndarray | None = None) -> complex:
    """Pseudo-variance of a 1-D array; the squared deviations go to out,
    which may be flat itself, or to a new array."""
    d = np.subtract(flat, flat.mean(), out=out)
    np.multiply(d, d, out=d)
    return complex(d.sum()) / (flat.size - 1)


def _batch_pv_stderr(rows: np.ndarray) -> complex:
    """Batch-means stderr of the pooled pseudo-variance: whole-path batches
    in canonical order, each gathered into one reused complex128 buffer and
    reduced there in place."""
    m = rows.shape[0]
    n_batches = min(_N_BATCHES, m)
    if n_batches < 2 or rows.size < 2 * n_batches:
        return 0j
    order = _canonical_path_order(rows)
    bounds = np.linspace(0, m, n_batches + 1).astype(int)
    # complex128 before _pv_of: numpy's complex sum adds in another order
    # than its real sum
    buf = np.empty((np.diff(bounds).max(), rows.shape[1]), dtype=np.complex128)
    vals = np.empty(n_batches, dtype=np.complex128)
    for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        batch = buf[:b - a]
        batch[...] = rows[order[a:b]]
        flat = batch.ravel()
        vals[k] = _pv_of(flat, out=flat)
    return _componentwise_stderr(vals)


def pooled_pseudo_variance(rows: np.ndarray, mean: complex | None = None) -> ComplexStat:
    """Pseudo-variance of all entries of a (paths, steps) real or complex
    array; value is bit-identical under row permutation, stderr by batch
    means over whole-path batches in canonical order.  mean, when given, is
    pooled_complex_mean(rows).value, which is then not taken again."""
    rows = np.atleast_2d(np.asarray(rows))
    n = rows.size
    if n < 2:
        raise ValueError("pseudo-variance requires at least 2 samples")
    if mean is None:
        re_sum, im_sum = _exact_totals(rows, lambda z: (z.real, z.imag))
        mean = complex(re_sum / n, im_sum / n)

    def squares(z):
        d = z - mean
        sq = d * d
        return sq.real, sq.imag

    pv = complex(*_exact_totals(rows, squares)) / (n - 1)
    return ComplexStat(pv, _batch_pv_stderr(rows), n)


# ---------------------------------------------------------------------------
# sample-sequence estimators
# ---------------------------------------------------------------------------

def complex_mean(samples) -> ComplexStat:
    """Arithmetic mean with componentwise stderr = std / sqrt(n)."""
    z = np.asarray(samples, dtype=np.complex128).ravel()
    if z.size == 0:
        raise ValueError("mean of an empty sample sequence is undefined")
    n = z.size
    mean = complex(z.mean())
    if n == 1:
        return ComplexStat(mean, 0j, 1)
    return ComplexStat(mean, _componentwise_stderr(z), n)


def complex_pseudo_variance(samples) -> ComplexStat:
    """Pseudo-variance (1/(n-1)) sum (z - mean)^2, squaring without
    conjugation; equals the ordinary sample variance on real data.

    stderr by batch means over up to 100 equal sample blocks in the given
    order (blocks of at least 2 samples; 0 when too few).
    """
    z = np.asarray(samples, dtype=np.complex128).ravel()
    n = z.size
    if n < 2:
        raise ValueError("pseudo-variance requires at least 2 samples")
    pv = _pv_of(z)
    n_batches = min(_N_BATCHES, n // 2)
    if n_batches < 2:
        return ComplexStat(pv, 0j, n)
    bounds = np.linspace(0, n, n_batches + 1).astype(int)
    vals = np.array([_pv_of(z[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])
    return ComplexStat(pv, _componentwise_stderr(vals), n)


# ---------------------------------------------------------------------------
# reference-table reproduction
# ---------------------------------------------------------------------------

def table1_statistics(
    ensemble: WienerEnsemble | ComplexPathEnsemble, params: SqrtParams
) -> tuple[SummaryStats, ...]:
    """Tagged summaries of one row of the reference table: the Brownian row
    of a WienerEnsemble, the square-root row of a ComplexPathEnsemble.
    Each row reads only its own ensemble, so a caller can reduce one
    ensemble and drop it before drawing the next.

    Brownian row ("path-temporal", duplicated under "paper-reported",
    then "increment-normalized"): for each path, the time average and time
    variance of W(t) over the positive grid points, ensemble-averaged;
    diffusion sqrt(variance)/2.  The increment view carries
    D = var(dW)/(2 dt).  params is not read.

    Square-root row ("paper-reported", then "increment-normalized"): pooled
    statistics of the complex increments, divided by mu0 (mean) and mu0^2
    (pseudo-variance).  Under "paper-reported" the variance column carries
    half the normalized pseudo-variance, matching the published table where
    the variance and diffusion entries coincide.
    """
    if isinstance(ensemble, WienerEnsemble):
        return _brownian_row(ensemble)
    if isinstance(ensemble, ComplexPathEnsemble):
        return _square_root_row(ensemble, params)
    raise TypeError(
        f"expected a WienerEnsemble or ComplexPathEnsemble, got {type(ensemble).__name__}"
    )


def _brownian_row(wiener: WienerEnsemble) -> tuple[SummaryStats, ...]:
    m = wiener.n_paths
    dt = wiener.grid.dt

    # per-path temporal statistics over t_1 .. t_N
    t_means, t_vars = [], []
    for block in row_blocks(*wiener.dw.shape):
        w_vals = cumulative_paths(wiener.dw[block])[:, 1:]
        t_means.append(w_vals.mean(axis=1))
        t_vars.append(w_vals.var(axis=1))
    mean_val, mean_std = _exact_mean_std(np.concatenate(t_means))
    var_val, var_std = _exact_mean_std(np.concatenate(t_vars))
    mean_stat = ComplexStat(complex(mean_val), complex(mean_std / math.sqrt(m)), m)
    var_stat = ComplexStat(complex(var_val), complex(var_std / math.sqrt(m)), m)
    d_paper = math.sqrt(var_val) / 2
    d_paper_err = var_stat.stderr.real / (4 * math.sqrt(var_val)) if var_val > 0 else 0.0
    d_stat = ComplexStat(complex(d_paper), complex(d_paper_err), m)
    temporal = SummaryStats(mean_stat, var_stat, d_stat, TAG_PATH_TEMPORAL)
    paper_brownian = SummaryStats(mean_stat, var_stat, d_stat, TAG_PAPER_REPORTED)

    dw_mean = pooled_complex_mean(wiener.dw)
    dw_pv = pooled_pseudo_variance(wiener.dw, dw_mean.value)
    inc_brownian = SummaryStats(
        mean=ComplexStat(dw_mean.value / dt, dw_mean.stderr / dt, dw_mean.n),
        pseudo_variance=ComplexStat(dw_pv.value / dt, _abs_c(dw_pv.stderr / dt), dw_pv.n),
        diffusion=ComplexStat(
            dw_pv.value / (2 * dt), _abs_c(dw_pv.stderr / (2 * dt)), dw_pv.n
        ),
        estimator_tag=TAG_INCREMENT_NORMALIZED,
    )
    return temporal, paper_brownian, inc_brownian


def _square_root_row(sqrt_ens: ComplexPathEnsemble, params: SqrtParams) -> tuple[SummaryStats, ...]:
    mu0 = params.mu0
    z_mean = pooled_complex_mean(sqrt_ens.increments)
    z_pv = pooled_pseudo_variance(sqrt_ens.increments, z_mean.value)
    mean_n = ComplexStat(z_mean.value / mu0, _abs_c(z_mean.stderr / mu0), z_mean.n)
    pv_n = ComplexStat(z_pv.value / mu0**2, _abs_c(z_pv.stderr / mu0**2), z_pv.n)
    half = ComplexStat(pv_n.value / 2, _abs_c(pv_n.stderr / 2), pv_n.n)
    return (SummaryStats(mean_n, half, half, TAG_PAPER_REPORTED),
            SummaryStats(mean_n, pv_n, half, TAG_INCREMENT_NORMALIZED))


def _abs_c(z: complex) -> complex:
    return complex(abs(z.real), abs(z.imag))


# ---------------------------------------------------------------------------
# histograms and Gaussian fits
# ---------------------------------------------------------------------------

def sturges_bins(n_samples: int) -> int:
    return int(np.ceil(np.log2(max(n_samples, 1)))) + 1


@dataclass(frozen=True)
class Histogram:
    """Uniform-bin histogram; bins are half-open with the last bin closed.

    counts are raw occupation numbers; heights() returns counts or the
    density representation depending on the normalization label.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    normalization: str = "counts"

    def __post_init__(self) -> None:
        if self.normalization not in ("counts", "density"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if len(self.counts) != len(self.bin_edges) - 1:
            raise ValueError("counts must have one entry fewer than bin_edges")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[1:] + self.bin_edges[:-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    def density(self) -> np.ndarray:
        total = self.counts.sum()
        if total == 0:
            raise ValueError("cannot normalize an empty histogram")
        return self.counts / (total * self.widths)

    def heights(self) -> np.ndarray:
        return self.density() if self.normalization == "density" else self.counts


def build_histogram(samples, n_bins: int | None = None, normalization: str = "counts") -> Histogram:
    """Histogram samples into uniform bins spanning [min, max].

    n_bins = None applies Sturges' rule.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("samples must be non-empty")
    if n_bins is None:
        n_bins = sturges_bins(x.size)
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    counts, edges = np.histogram(x, bins=n_bins)
    return Histogram(edges, counts, normalization)


@dataclass(frozen=True)
class GaussianFit:
    amplitude: float
    center: float
    sigma: float
    r_squared: float


_FIT_TOL = 1.5e-8  # curve_fit's default xtol and ftol
_FIT_STEPS = 10000  # trial steps, as curve_fit's maxfev here


def _gauss_residual(x, y, p):
    """y minus A*exp(-(x-c)^2/(2 s^2)) at p = (A, c, s), and its Jacobian."""
    d = x - p[1]
    e = np.exp(-d * d / (2 * p[2] * p[2]))
    g = p[0] * e
    return y - g, np.stack([e, g * d / p[2] ** 2, g * d * d / p[2] ** 3], axis=1)


def fit_gaussian_curve(x, y) -> GaussianFit:
    """Least-squares Gaussian fit of (x, y) pairs with goodness-of-fit R^2.

    Levenberg-Marquardt damped by diag(J^T J).  It stops once an accepted
    step cuts the squared residual, or any step moves p, by at most a
    relative _FIT_TOL, and gives up after _FIT_STEPS trial steps."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 4:
        raise FitError(f"Gaussian fit needs at least 4 points, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise FitError("Gaussian fit needs finite data")
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0:
        raise FitError("degenerate data: all values equal, nothing to fit")
    w = np.clip(y, 0, None)
    tot = w.sum()
    c0 = float((x * w).sum() / tot) if tot > 0 else float(x.mean())
    s0 = float(np.sqrt(((x - c0) ** 2 * w).sum() / tot)) if tot > 0 else float(x.std())
    s0 = max(s0, float(np.diff(x).min()) / 2 if x.size > 1 else 1.0)
    p = np.array([float(y.max()), c0, s0])
    damping = 1e-3
    # a trial out of float range is rejected below, not warned about
    with np.errstate(all="ignore"):
        resid, jac = _gauss_residual(x, y, p)
        cost = float(resid @ resid)
        for _ in range(_FIT_STEPS):
            normal, grad = jac.T @ jac, jac.T @ resid
            if not (np.isfinite(normal).all() and np.isfinite(grad).all()):
                raise FitError("Gaussian fit met a non-finite Jacobian")
            try:
                step = np.linalg.solve(normal + damping * np.diag(np.diag(normal)), grad)
            except np.linalg.LinAlgError:
                # singular only with a zero column of J, which no damping mends
                raise FitError("Gaussian fit met a singular normal matrix") from None
            trial = p + step
            trial_resid, trial_jac = _gauss_residual(x, y, trial)
            trial_cost = float(trial_resid @ trial_resid)
            done = np.linalg.norm(step) <= _FIT_TOL * np.linalg.norm(p)
            if trial_cost < cost:
                done = done or cost - trial_cost <= _FIT_TOL * cost
                p, resid, jac, cost = trial, trial_resid, trial_jac, trial_cost
                damping /= 10
            else:
                damping *= 10
            if done:
                break
        else:
            raise FitError(f"Gaussian fit did not converge in {_FIT_STEPS} steps")
    return GaussianFit(float(p[0]), float(p[1]), abs(float(p[2])), 1.0 - cost / ss_tot)


def gaussian_fit(h: Histogram) -> GaussianFit:
    """Fit A*exp(-(x-c)^2/(2 s^2)) to the histogram's bin-center/density
    pairs.  Degenerate histograms (fewer than 4 non-empty bins, e.g. all
    mass in one bin) raise FitError.
    """
    if int(np.count_nonzero(h.counts)) < 4:
        raise FitError(
            f"Gaussian fit needs >= 4 non-empty bins, got {int(np.count_nonzero(h.counts))}"
        )
    return fit_gaussian_curve(h.centers, h.density())
