"""Estimator conventions: complex mean, pseudo-variance, the tagged summary
table, histograms and Gaussian fits.

Frozen oracle values used below (dt = 0.001, mu0 = 1/2, beta = 0):

* pure coin-toss stream: exact two-point computation gives mean (1+i)/2 and
  pseudo-variance 0 - ((1+i)/2)^2 = -i/2.
* pooled increment mean / mu0 -> b*(1+i)/(2 mu0) with bracket mean
  b = 1/2 + sqrt(2 dt/pi) - dt = 0.5242313...; a 200k-path brute-force run
  gave 0.52433 + 0.52414i.
* pooled pseudo-variance / mu0^2 -> -i b^2/(2 mu0^2) = -0.5496370i
  (the dt -> 0 limit is the structural -i/2); the same oracle run gave
  -0.5496380i.  Halving gives the reported-convention -0.2748i.
* Brownian temporal variance -> 1/2 - 1/3 = 1/6, confirmed by a 100k-path
  brute-force run (0.166892 +- 0.000473).
"""

import hashlib
import math
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtwiener import (
    ComplexStat,
    FitError,
    SeedSpec,
    SqrtParams,
    SummaryStats,
    Table1Stats,
    TimeGrid,
    build_histogram,
    complex_mean,
    complex_pseudo_variance,
    fit_gaussian_curve,
    gaussian_fit,
    integrate_sqrt,
    make_rng,
    phi_half,
    pooled_complex_mean,
    pooled_pseudo_variance,
    sample_wiener,
    schrodinger_samples,
    square_samples,
    sturges_bins,
    table1_statistics,
    wick_rotate_samples,
    wiener_ensemble,
)
from sqrtwiener import stats
from sqrtwiener.paths import cumulative_terminal, row_blocks
from sqrtwiener.stats import TAG_INCREMENT_NORMALIZED, TAG_PAPER_REPORTED, TAG_PATH_TEMPORAL

DT = 0.001
BRACKET_MEAN = 0.5 + np.sqrt(2 * DT / np.pi) - DT  # E[1/2 + |dw| - dt]


@pytest.fixture(scope="module")
def protocol_ensembles():
    grid = TimeGrid(DT, 1000)
    wiener = wiener_ensemble(grid, 20000, master_seed=1)
    sqrt_ens = integrate_sqrt(grid, 20000, SqrtParams(), master_seed=1)
    return wiener, sqrt_ens


def test_complex_mean_basic():
    s = complex_mean([1.0, 1j])
    assert s.value == (0.5 + 0.5j)
    assert s.n == 2


def test_complex_mean_single_sample():
    s = complex_mean([2.0 - 1j])
    assert s.value == 2.0 - 1j
    assert s.stderr == 0j  # undefined for n = 1, reported as 0
    assert s.n == 1


def test_complex_mean_empty_rejected():
    with pytest.raises(ValueError):
        complex_mean([])
    with pytest.raises(ValueError):
        pooled_complex_mean(np.zeros((0, 4)))


def test_phi_stream_mean_two_point_oracle():
    grid = TimeGrid(DT, 1000)
    rng = make_rng(SeedSpec(31, 0))
    phis = np.concatenate(
        [phi_half(sample_wiener(grid, rng)) for _ in range(1000)]
    )
    s = complex_mean(phis)
    assert abs(s.value.real - 0.5) < 3 * s.stderr.real
    assert abs(s.value.imag - 0.5) < 3 * s.stderr.imag
    # exact per-component std of the two-point distribution is 1/2
    assert s.stderr.real == pytest.approx(0.5 / np.sqrt(1e6), rel=0.01)


def test_pseudo_variance_real_pair():
    s = complex_pseudo_variance([1.0, -1.0])
    assert s.value == pytest.approx(2.0 + 0j)


def test_pseudo_variance_hand_computed_complex_pair():
    # z = [1, i]: mean (1+i)/2, (z - mean)^2 sums to -i
    s = complex_pseudo_variance([1.0, 1j])
    assert s.value == pytest.approx(-1j, abs=1e-15)


def test_pseudo_variance_needs_two_samples():
    with pytest.raises(ValueError):
        complex_pseudo_variance([1.0])


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=200
    )
)
@settings(max_examples=150, deadline=None)
def test_pseudo_variance_matches_ordinary_variance_on_reals(values):
    x = np.array(values)
    pv = complex_pseudo_variance(x).value
    assert pv.imag == pytest.approx(0.0, abs=1e-9)
    assert pv.real == pytest.approx(np.var(x, ddof=1), rel=1e-12, abs=1e-12)


def test_phi_stream_pseudo_variance_structure():
    # E[phi^2] = E[sgn] = 0, so pvar -> -(E[phi])^2 = -i/2
    grid = TimeGrid(DT, 1000)
    rng = make_rng(SeedSpec(32, 0))
    phis = np.concatenate([phi_half(sample_wiener(grid, rng)) for _ in range(1000)])
    s = complex_pseudo_variance(phis)
    tol_re = max(3 * s.stderr.real, 1e-3)
    tol_im = max(3 * s.stderr.imag, 1e-3)
    assert abs(s.value.real - 0.0) < tol_re
    assert abs(s.value.imag - (-0.5)) < tol_im


@pytest.mark.parametrize("rows", [
    [[1.35e154, 1.35e154]],
    [[1.35e154 + 1.4e154j, 1.35e154 + 1.4e154j], [1.35e154 + 1.4e154j, 1.35e154 + 1.4e154j]],
], ids=["real", "complex"])
def test_a_pooled_mean_beyond_the_root_of_max_float_has_a_non_finite_stderr(rows):
    # each component's mean is finite, but its square is not a float
    rows = np.array(rows)
    with np.errstate(over="ignore"):
        stat = pooled_complex_mean(rows)
        pooled_pseudo_variance(rows)  # also returns a value
    assert stat.value == rows[0, 0]
    assert not math.isfinite(stat.stderr.real)
    assert np.isrealobj(rows) or not math.isfinite(stat.stderr.imag)


def test_pooled_stats_match_flat_estimators():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(40, 30)) + 1j * rng.normal(size=(40, 30))
    pm = pooled_complex_mean(rows)
    fm = complex_mean(rows.ravel())
    assert pm.value == pytest.approx(fm.value, rel=1e-12)
    ppv = pooled_pseudo_variance(rows)
    fpv = complex_pseudo_variance(rows.ravel())
    assert ppv.value == pytest.approx(fpv.value, rel=1e-10)


def test_pooled_stats_row_permutation_bit_exact():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(64, 16)) + 1j * rng.normal(size=(64, 16))
    perm = rng.permutation(64)
    a_m, b_m = pooled_complex_mean(rows), pooled_complex_mean(rows[perm])
    assert a_m.value == b_m.value and a_m.stderr == b_m.stderr
    a_v, b_v = pooled_pseudo_variance(rows), pooled_pseudo_variance(rows[perm])
    assert a_v.value == b_v.value and a_v.stderr == b_v.stderr


def _bits(stat: ComplexStat) -> bytes:
    return np.array([stat.value, stat.stderr]).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n_cols=st.integers(300, 2000),
    full_blocks=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
)
def test_pseudo_variance_given_the_pooled_mean_has_the_bits_of_its_own(
        n_cols, full_blocks, seed, real):
    per_block = next(row_blocks(10**6, n_cols)).stop
    rng = np.random.default_rng(seed)
    # a last block that only part fills
    n_rows = full_blocks * per_block + int(rng.integers(1, per_block))
    rows = rng.normal(0.3, 2.0, (n_rows, n_cols))
    if not real:
        rows = rows + 1j * rng.normal(-0.7, 0.5, (n_rows, n_cols))
    assert n_rows % per_block
    totals = mock.Mock(wraps=stats._exact_totals)
    with mock.patch.object(stats, "_exact_totals", totals):
        mean = pooled_complex_mean(rows).value
        passes = totals.call_count
        given_mean = pooled_pseudo_variance(rows, mean)
        # the mean is not taken again: one pass, the squared deviations
        assert totals.call_count == passes + 1
    assert _bits(given_mean) == _bits(pooled_pseudo_variance(rows))


def test_summary_tag_policy():
    cs = ComplexStat(0j, 0j, 2)
    with pytest.raises(ValueError):
        SummaryStats(cs, cs, cs, "untagged")
    with pytest.raises(ValueError):
        ComplexStat(0j, complex(-1e-3, 0), 2)


def test_increment_pseudo_variance_normalization(protocol_ensembles):
    # frozen oracle: pooled pvar / mu0^2 = -i b^2 / (2 mu0^2) = -0.5496370i
    _, sqrt_ens = protocol_ensembles
    pv = pooled_pseudo_variance(sqrt_ens.increments).value / 0.5**2
    expected_im = -(BRACKET_MEAN**2) / (2 * 0.5**2)
    assert expected_im == pytest.approx(-0.5496370, abs=1e-6)
    assert pv.imag == pytest.approx(expected_im, abs=0.003)
    assert pv.real == pytest.approx(0.0, abs=5e-4)


def _table(wiener, sqrt_ens, params):
    """Both rows, each reduced from its own ensemble as table1 does."""
    return Table1Stats(table1_statistics(wiener, params), table1_statistics(sqrt_ens, params))


def test_table1_brownian_row(protocol_ensembles):
    wiener, sqrt_ens = protocol_ensembles
    table = _table(wiener, sqrt_ens, SqrtParams())
    bro = table.by_tag("brownian", TAG_PAPER_REPORTED)
    # temporal mean ~ 0 with stderr ~ sqrt(1/3)/sqrt(M) ~ 0.004
    assert abs(bro.mean.value.real) < 3 * bro.mean.stderr.real
    assert bro.mean.stderr.real == pytest.approx(0.00408, rel=0.1)
    # temporal variance ~ 1/6, brute-force confirmed
    assert bro.pseudo_variance.value.real == pytest.approx(1 / 6, abs=0.005)
    assert bro.diffusion.value.real == pytest.approx(np.sqrt(1 / 6) / 2, abs=0.01)
    # the temporal estimator itself is also emitted under its own tag
    tmp = table.by_tag("brownian", TAG_PATH_TEMPORAL)
    assert tmp.mean.value == bro.mean.value
    inc = table.by_tag("brownian", TAG_INCREMENT_NORMALIZED)
    assert inc.diffusion.value.real == pytest.approx(0.5, rel=0.02)


def test_table1_square_root_row(protocol_ensembles):
    wiener, sqrt_ens = protocol_ensembles
    table = _table(wiener, sqrt_ens, SqrtParams())
    sq = table.by_tag("square_root", TAG_PAPER_REPORTED)
    # mean components carry the modulus term: b / (2 mu0) = 0.5242...
    expected = BRACKET_MEAN / (2 * 0.5)
    assert sq.mean.value.real == pytest.approx(expected, abs=0.002)
    assert sq.mean.value.imag == pytest.approx(expected, abs=0.002)
    # reported-convention variance: half the normalized pseudo-variance
    assert sq.pseudo_variance.value.imag == pytest.approx(-0.27482, abs=0.002)
    assert sq.pseudo_variance.value.real == pytest.approx(0.0, abs=5e-4)
    assert sq.diffusion.value == sq.pseudo_variance.value
    inc = table.by_tag("square_root", TAG_INCREMENT_NORMALIZED)
    assert inc.pseudo_variance.value.imag == pytest.approx(2 * sq.pseudo_variance.value.imag, rel=1e-12)


def test_table1_path_permutation_bit_exact(protocol_ensembles):
    from sqrtwiener import ComplexPathEnsemble, WienerEnsemble

    wiener, sqrt_ens = protocol_ensembles
    # permuting 2000-path slices keeps runtime small while exercising the
    # canonical reductions
    w_small = WienerEnsemble(wiener.grid, wiener.dw[:2000])
    s_small = ComplexPathEnsemble(sqrt_ens.grid, sqrt_ens.increments[:2000])
    perm = np.random.default_rng(9).permutation(2000)
    w_perm = WienerEnsemble(wiener.grid, wiener.dw[:2000][perm])
    s_perm = ComplexPathEnsemble(sqrt_ens.grid, sqrt_ens.increments[:2000][perm])
    t1 = _table(w_small, s_small, SqrtParams())
    t2 = _table(w_perm, s_perm, SqrtParams())
    for row in ("brownian", "square_root"):
        for a, b in zip(getattr(t1, row), getattr(t2, row)):
            assert a.estimator_tag == b.estimator_tag
            for field in ("mean", "pseudo_variance", "diffusion"):
                sa, sb = getattr(a, field), getattr(b, field)
                assert sa.value == sb.value
                assert sa.stderr == sb.stderr


def _table1_hex_digest(table) -> str:
    parts = [
        part
        for s in table.brownian + table.square_root
        for stat in (s.mean, s.pseudo_variance, s.diffusion)
        for z in (stat.value, stat.stderr)
        for part in (z.real.hex(), z.imag.hex())
    ]
    return hashlib.sha256(",".join(parts).encode()).hexdigest()


TABLE1_GOLDEN = {
    (0.5, 0.0): "92aaf75c34d7988d1b5657a7a099cd494284c9b5667a0f77363a3fd5772afa19",
    (0.7, 0.0): "aa23c2294c451cba24396a95e075f6fb3a23279cc2d090bfaa96c9ba87c0f557",
}


@pytest.mark.parametrize("case", list(TABLE1_GOLDEN), ids=str)
def test_table1_statistics_golden(case):
    # 601 paths x 256 steps: more rows than one reduction block, and a row
    # count that no block size divides; pins every value and stderr bit
    grid, params = TimeGrid(DT, 256), SqrtParams(*case)
    wiener = wiener_ensemble(grid, 601, master_seed=11)
    sqrt_ens = integrate_sqrt(grid, 601, params, master_seed=11)
    table = _table(wiener, sqrt_ens, params)
    assert _table1_hex_digest(table) == TABLE1_GOLDEN[case]


def _reference_batch_pv_stderr(rows):
    """Batch-means stderr as first written: each batch gathered, converted
    to a new complex128 array and reduced out of place."""
    m = rows.shape[0]
    n_batches = min(100, m)
    if n_batches < 2 or rows.size < 2 * n_batches:
        return 0j

    def pv(flat):
        d = flat - flat.mean()
        return complex((d * d).sum()) / (flat.size - 1)

    order = stats._canonical_path_order(rows)
    bounds = np.linspace(0, m, n_batches + 1).astype(int)
    vals = np.array([
        pv(np.asarray(rows[order[a:b]], dtype=np.complex128).ravel())
        for a, b in zip(bounds[:-1], bounds[1:])
    ])
    return complex(
        vals.real.std(ddof=1) / math.sqrt(n_batches),
        vals.imag.std(ddof=1) / math.sqrt(n_batches),
    )


@pytest.mark.parametrize("m", [1234, 601, 57, 3], ids=lambda m: f"{m}-paths")
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_batch_pv_stderr_in_place_is_bit_exact(m, real):
    # 1234 and 601 paths give batches of unequal size, fewer than 100 paths
    # give one path per batch
    grid = TimeGrid(DT, 64)
    if real:
        rows = wiener_ensemble(grid, m, master_seed=21).dw
    else:
        rows = integrate_sqrt(grid, m, SqrtParams(0.5, 0.7), master_seed=21).increments
    before = rows.tobytes()
    got = stats._batch_pv_stderr(rows)
    want = _reference_batch_pv_stderr(rows)
    assert got != 0
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    assert rows.tobytes() == before


@pytest.fixture(scope="module")
def wide_ensembles():
    # 4000 paths x 500 steps: 16 MB of real dw and 32 MB of complex increments
    grid = TimeGrid(DT, 500)
    wiener = wiener_ensemble(grid, 4000, master_seed=3)
    return wiener, integrate_sqrt(grid, 4000, SqrtParams(), master_seed=3)


def _traced(fn, *args):
    """fn(*args) and the peak of the memory it allocated (numpy reports its
    buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize(
    "fn", [pooled_complex_mean, pooled_pseudo_variance, cumulative_terminal],
    ids=lambda fn: fn.__name__,
)
def test_ensemble_passes_trace_under_a_quarter_of_their_input(wide_ensembles, fn, real):
    wiener, sqrt_ens = wide_ensembles
    rows = wiener.dw if real else sqrt_ens.increments
    assert len(list(row_blocks(*rows.shape))) > 1
    _, peak = _traced(fn, rows)
    assert peak < rows.nbytes / 4


def test_table1_statistics_traces_under_a_quarter_of_its_input(wide_ensembles):
    wiener, _ = wide_ensembles
    for ensemble in wide_ensembles:
        _, peak = _traced(table1_statistics, ensemble, SqrtParams())
        assert peak < wiener.dw.nbytes / 4


def test_cumulative_terminal_holds_no_block(wide_ensembles):
    out = cumulative_terminal(wide_ensembles[0].dw)
    assert out.base is None or out.base.size == out.size


def test_table1_statistics_row_follows_the_ensemble(wide_ensembles):
    wiener, sqrt_ens = wide_ensembles
    tags = [s.estimator_tag for s in table1_statistics(wiener, SqrtParams())]
    assert tags == [TAG_PATH_TEMPORAL, TAG_PAPER_REPORTED, TAG_INCREMENT_NORMALIZED]
    tags = [s.estimator_tag for s in table1_statistics(sqrt_ens, SqrtParams())]
    assert tags == [TAG_PAPER_REPORTED, TAG_INCREMENT_NORMALIZED]
    with pytest.raises(TypeError):
        table1_statistics(wiener.dw, SqrtParams())


def test_histogram_basic():
    h = build_histogram([0.0, 1.0, 2.0, 3.0], n_bins=2)
    np.testing.assert_array_equal(h.counts, [2, 2])
    assert len(h.bin_edges) == 3


def test_histogram_density_normalization():
    rng = np.random.default_rng(3)
    h = build_histogram(rng.normal(size=5000), n_bins=40, normalization="density")
    assert (h.heights() * h.widths).sum() == pytest.approx(1.0, abs=1e-9)


def test_histogram_validation():
    with pytest.raises(ValueError):
        build_histogram([])
    with pytest.raises(ValueError):
        build_histogram([1.0], n_bins=0)
    with pytest.raises(ValueError):
        build_histogram([1.0], normalization="probability")


def test_sturges_default():
    h = build_histogram(np.arange(20000.0))
    assert len(h.counts) == sturges_bins(20000) == 16


def test_gaussian_fit_self_consistency():
    rng = np.random.default_rng(12)
    h = build_histogram(rng.normal(size=10**6), n_bins=60, normalization="density")
    fit = gaussian_fit(h)
    assert fit.center == pytest.approx(0.0, abs=0.01)
    assert fit.sigma == pytest.approx(1.0, abs=0.01)
    assert fit.r_squared > 0.999


def test_gaussian_fit_rejects_degenerate():
    h = build_histogram(np.full(100, 3.3), n_bins=5)
    with pytest.raises(FitError):
        gaussian_fit(h)


def test_fit_gaussian_curve_needs_points():
    with pytest.raises(FitError):
        fit_gaussian_curve([0, 1, 2], [1, 2, 1])


def _gauss(x, amplitude, center, sigma):
    return amplitude * np.exp(-((x - center) ** 2) / (2 * sigma * sigma))


def _curve_fit(x, y):
    """scipy's curve_fit from fit_gaussian_curve's start (y.max(), weighted
    centre and width).  The tests may load scipy.optimize; the package
    never does."""
    from scipy.optimize import OptimizeWarning, curve_fit

    w = np.clip(y, 0, None)
    c0 = (x * w).sum() / w.sum()
    s0 = max(np.sqrt(((x - c0) ** 2 * w).sum() / w.sum()), np.diff(x).min() / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, _ = curve_fit(_gauss, x, y, p0=[y.max(), c0, s0], maxfev=10000)
    return popt


def _histogram_points(samples):
    h = build_histogram(samples, normalization="density")
    return h.centers, h.density()


def _far_peak():
    # a peak far from the weighted start, which undamped Gauss-Newton steps
    # never reach; the fit takes 14 trial steps
    x = np.linspace(0, 50, 60)
    return x, _gauss(x, 2.0, 40.0, 1.0) + 0.05 * np.cos(x)


@pytest.fixture(scope="module")
def fit_cases():
    # the acceptance histograms at a small seeded protocol and the analytic
    # Wick-rotated curve
    grid = TimeGrid(0.01, 100)
    terminal = cumulative_terminal(wiener_ensemble(grid, 4000, master_seed=3).dw)
    sqrt_ens = integrate_sqrt(grid, 4000, SqrtParams(), master_seed=3)
    x = np.linspace(-6, 6, 400)
    return {
        "wiener-terminal": _histogram_points(terminal),
        "sqrt-wick-rotated": _histogram_points(
            wick_rotate_samples(square_samples(sqrt_ens.terminal_values))),
        "rotated-curve": (x, wick_rotate_samples(schrodinger_samples(x, 1.0))),
        "far-peak": _far_peak(),
    }


@pytest.mark.parametrize("case", ["wiener-terminal", "sqrt-wick-rotated", "rotated-curve",
                                  "far-peak"])
def test_fit_gaussian_curve_matches_curve_fit(fit_cases, case):
    # curve_fit stops at its xtol, a little short of the minimum this fit
    # reaches: the two agreed to 4e-8 of each parameter's scale or better
    x, y = fit_cases[case]
    fit = fit_gaussian_curve(x, y)
    amplitude, center, sigma = _curve_fit(x, y)
    assert fit.amplitude == pytest.approx(amplitude, rel=1e-6)
    assert fit.sigma == pytest.approx(abs(sigma), rel=1e-6)
    # a centre at 0 is compared on the scale of the width
    assert fit.center == pytest.approx(center, abs=1e-6 * abs(sigma))
    curve_fit_ss = ((y - _gauss(x, amplitude, center, sigma)) ** 2).sum()
    assert fit.r_squared >= 1.0 - curve_fit_ss / ((y - y.mean()) ** 2).sum() - 1e-12


def _bounded(fn, seconds=10):
    """fn()'s exception, or None, from a thread given seconds to finish."""
    raised = []

    def target():
        try:
            fn()
        except BaseException as exc:
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "the fit is still running"
    return raised[0] if raised else None


@pytest.mark.parametrize("x, y, message", [
    ([0, 1, 2, 3], [0, 1, np.nan, 1], "finite data"),
    ([0, 1, 2, 3], [0, 1, np.inf, 1], "finite data"),
    # the start's amplitude y.max() = 0 zeroes two columns of J
    ([0, 1, 2, 3], [-1, -2, 0, -3], "singular normal matrix"),
    # a width near 1e-160 puts s^3 below the smallest double
    ([0, 1e-160, 2e-160, 3e-160], [0, 1, 2, 1], "non-finite Jacobian"),
], ids=["nan", "inf", "singular", "jacobian-overflow"])
def test_fit_gaussian_curve_refuses_unfittable_data_without_hanging(x, y, message):
    error = _bounded(lambda: fit_gaussian_curve(x, y))
    assert isinstance(error, FitError) and message in str(error)


def test_fit_gaussian_curve_that_does_not_converge_in_its_steps_raises(monkeypatch):
    x, y = _far_peak()
    monkeypatch.setattr(stats, "_FIT_STEPS", 2)
    with pytest.raises(FitError, match="did not converge in 2 steps"):
        fit_gaussian_curve(x, y)


def test_brownian_path_means_are_normal(protocol_ensembles):
    # per-path temporal means of the Brownian ensemble fit a Gaussian
    wiener, _ = protocol_ensembles
    means = wiener.values()[:, 1:].mean(axis=1)
    h = build_histogram(means, normalization="density")
    fit = gaussian_fit(h)
    assert fit.r_squared > 0.99
    assert fit.center == pytest.approx(0.0, abs=0.02)
