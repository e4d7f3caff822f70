"""Kernel identities, the Wick rotation at function and sample level, and
the Crank-Nicolson evolution of the complex diffusion equation.

Frozen oracle values:

* Fresnel normalization of the oscillatory kernel over [-40, 40] at t = 1:
  a 30-digit quadrature gives I = 0.993539104528 + 0.027459521637j, i.e.
  |I - 1| = 0.0282094 -- the truncated oscillatory tails contribute ~0.028,
  so the window integral is 1 only to that accuracy.
* rotated kernel at (x, t) = (1, 1): equals the heat kernel value
  (4 pi)^(-1/2) exp(-1/4) = 0.2196956.
"""

import re
from unittest import mock

import numpy as np
import pytest
import scipy
from scipy.linalg import get_lapack_funcs, solve_banded

from sqrtwiener import kernels
from sqrtwiener import (
    FPParams,
    GridFunction,
    SqrtParams,
    fp_analytic_solution,
    fp_evolve,
    fp_params_from_process,
    gaussian_packet,
    grid_integral,
    heat_kernel,
    schrodinger_kernel,
    schrodinger_samples,
    square_samples,
    wick_rotate_kernel,
    wick_rotate_samples,
)

FRESNEL_40 = 0.993539104528 + 0.027459521637j  # mpmath, 30 digits


def _simpson(f, a, b, n):
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return (x[1] - x[0]) / 3.0 * np.sum(w * f(x))


def test_oscillatory_kernel_at_origin():
    val = schrodinger_kernel(0.0, 1.0)
    assert complex(val) == pytest.approx(0.19947114 - 0.19947114j, abs=1e-7)


def test_oscillatory_kernel_constant_modulus():
    x = np.linspace(-30, 30, 2001)
    mods = np.abs(schrodinger_kernel(x, 2.0))
    assert np.abs(mods - (8 * np.pi) ** -0.5).max() < 1e-15


def test_kernel_domain_errors():
    for fn in (schrodinger_kernel, heat_kernel, wick_rotate_kernel):
        with pytest.raises(ValueError):
            fn(0.0, 0.0)
        with pytest.raises(ValueError):
            fn(0.0, -1.0)


def test_fresnel_normalization_window():
    # Richardson-style consistency between two Simpson refinements, then
    # compare against the frozen high-precision oracle
    i_coarse = _simpson(lambda x: schrodinger_kernel(x, 1.0), -40, 40, 2**15)
    i_fine = _simpson(lambda x: schrodinger_kernel(x, 1.0), -40, 40, 2**16)
    assert abs(i_fine - i_coarse) < 1e-6
    assert abs(i_fine - FRESNEL_40) < 1e-6
    assert abs(i_fine - 1) == pytest.approx(0.0282094, abs=5e-4)


def test_heat_kernel_values():
    assert heat_kernel(0.0, 1.0) == pytest.approx((4 * np.pi) ** -0.5, abs=1e-12)
    x = np.linspace(-10, 10, 101)
    np.testing.assert_allclose(heat_kernel(x, 0.7), heat_kernel(-x, 0.7), atol=0)


def test_heat_kernel_normalized():
    val = _simpson(lambda x: heat_kernel(x, 1.0), -40, 40, 2**14)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_wick_equals_heat_pointwise():
    assert wick_rotate_kernel(0.0, 1.0) == pytest.approx((4 * np.pi) ** -0.5, abs=1e-12)
    rng = np.random.default_rng(4)
    x = rng.uniform(-5, 5, 10000)
    t = rng.uniform(0.5, 2.0, 10000)
    err = max(abs(wick_rotate_kernel(xi, ti) - heat_kernel(xi, ti)) for xi, ti in zip(x, t))
    assert err <= 1e-10


def test_wick_imaginary_residual_vanishes():
    x = np.linspace(-5, 5, 1001)
    theta = (x * x / 4 - np.pi / 4).astype(complex)
    bracket = np.cos(1j * theta) + 1j * np.sin(1j * theta)
    assert np.abs(bracket.imag).max() <= 1e-12


def test_sample_rotation_basics():
    assert wick_rotate_samples((np.array([1.0]), np.array([0.0])))[0] == 1.0
    out = wick_rotate_samples((np.array([2.0, 0.5]), np.array([1.0, -1.0])))
    np.testing.assert_allclose(out, [2 * np.exp(-1), 0.5 * np.exp(1)], rtol=1e-15)
    assert np.all(out > 0)
    with pytest.raises(ValueError, match="rho must be non-negative"):
        wick_rotate_samples((np.array([1.0, -0.1]), np.array([0.0, 0.0])))


def test_sample_and_kernel_rotations_commute():
    # rotating polar samples of the oscillatory kernel reproduces the
    # rotated-kernel curve (and hence the heat kernel) pointwise
    x = np.linspace(-6, 6, 501)
    rotated = wick_rotate_samples(schrodinger_samples(x, 1.0))
    np.testing.assert_allclose(rotated, wick_rotate_kernel(x, 1.0), atol=1e-10)
    np.testing.assert_allclose(rotated, heat_kernel(x, 1.0), atol=1e-10)
    assert wick_rotate_kernel(1.0, 1.0) == pytest.approx(0.2196956, abs=1e-6)


def test_sample_phases_are_unwrapped():
    # far enough out the quadratic phase exceeds 2 pi; the producer must not
    # wrap it, otherwise the rotation is corrupted
    rho, theta = schrodinger_samples(np.array([8.0]), 1.0)
    assert rho[0] == pytest.approx((4 * np.pi) ** -0.5)
    assert theta[0] == pytest.approx(16.0)
    assert theta[0] > 2 * np.pi


def test_square_samples_quadrant():
    z = np.array([1 + 1j, 2 + 0j, 3j])
    rho, theta = square_samples(z)
    assert rho[0] == pytest.approx(2.0)
    assert theta[0] == pytest.approx(np.pi / 2)
    assert theta[1] == 0.0
    assert theta[2] == pytest.approx(np.pi)


def test_fp_params_from_process():
    p = fp_params_from_process(SqrtParams())
    assert p.drift == pytest.approx((1 + 1j) / 2)
    assert p.diffusion == -0.25j
    p1 = fp_params_from_process(SqrtParams(beta=1.0))
    assert p1.drift == pytest.approx((1 + 1j) / 2 - (1 - 1j) / 2)
    with pytest.raises(ValueError):
        fp_params_from_process(SqrtParams(mu0=2.0))
    with pytest.raises(ValueError):
        FPParams(drift=0.0, diffusion=0.0)


def test_fp_analytic_reduces_to_heat():
    x = np.linspace(-8, 8, 201)
    p = FPParams(drift=0.0, diffusion=1.0)
    np.testing.assert_allclose(fp_analytic_solution(x, 0.8, p).real, heat_kernel(x, 0.8), atol=1e-14)


def test_fp_analytic_translation():
    x = np.linspace(-8, 8, 201)
    moving = FPParams(drift=1.5, diffusion=1.0)
    frozen = FPParams(drift=0.0, diffusion=1.0)
    np.testing.assert_allclose(
        fp_analytic_solution(x, 0.6, moving),
        fp_analytic_solution(x - 1.5 * 0.6, 0.6, frozen),
        atol=1e-14,
    )


def test_fp_analytic_satisfies_pde():
    # finite-difference residual of d psi/dt + mu d psi/dx - D d2 psi/dx2
    rng = np.random.default_rng(11)
    p = FPParams(drift=0.3 - 0.2j, diffusion=0.8 + 0.1j)
    h = 1e-5
    for _ in range(100):
        x = rng.uniform(-2, 2)
        t = rng.uniform(0.5, 1.5)
        psi_t = (fp_analytic_solution(x, t + h, p) - fp_analytic_solution(x, t - h, p)) / (2 * h)
        psi_x = (fp_analytic_solution(x + h, t, p) - fp_analytic_solution(x - h, t, p)) / (2 * h)
        psi_xx = (
            fp_analytic_solution(x + h, t, p)
            - 2 * fp_analytic_solution(x, t, p)
            + fp_analytic_solution(x - h, t, p)
        ) / (h * h)
        resid = psi_t + p.drift * psi_x - p.diffusion * psi_xx
        scale = abs(fp_analytic_solution(x, t, p)) + 1.0
        assert abs(resid) / scale < 1e-5


def test_gaussian_packet_initial_profile():
    x = np.linspace(-3, 3, 301)
    p = FPParams(drift=0.0, diffusion=-0.25j)
    init = gaussian_packet(x, 0.0, 0.5, p)
    expected = (2 * np.pi * 0.25) ** -0.5 * np.exp(-(x**2) / (2 * 0.25))
    np.testing.assert_allclose(init.real, expected, atol=1e-14)
    assert np.abs(init.imag).max() == 0.0


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(1.0, -1.0, np.zeros(8, complex))
    with pytest.raises(ValueError):
        GridFunction(-1.0, 1.0, np.zeros(2, complex))


def test_evolve_heat_mode_matches_analytic():
    p = FPParams(drift=0.0, diffusion=1.0)
    x = np.linspace(-12, 12, 4097)
    init = GridFunction(-12, 12, fp_analytic_solution(x, 0.25, p))
    final = fp_evolve(init, p, 0.25 / 500, 500)
    exact = fp_analytic_solution(x, 0.5, p)
    assert np.abs(final.values - exact).max() <= 1e-6


def test_evolve_complex_mode_matches_packet_modulus():
    p = FPParams(drift=0.0, diffusion=-0.25j)
    x = np.linspace(-15, 15, 2049)
    init = GridFunction(-15, 15, gaussian_packet(x, 0.0, 0.3, p))
    final = fp_evolve(init, p, 0.5 / 250, 250)
    exact = gaussian_packet(x, 0.5, 0.3, p)
    assert np.abs(np.abs(final.values) - np.abs(exact)).max() <= 1e-3


def test_evolve_conserves_mass_per_step():
    p = FPParams(drift=0.0, diffusion=-0.25j)
    x = np.linspace(-15, 15, 1025)
    g = GridFunction(-15, 15, gaussian_packet(x, 0.0, 0.3, p))
    masses = [grid_integral(g)]
    for _ in range(50):
        g = fp_evolve(g, p, 0.002, 1)
        masses.append(grid_integral(g))
    drift = np.abs(np.diff(np.array(masses))).max()
    assert drift <= 1e-8


def test_evolve_second_order_self_convergence():
    p = FPParams(drift=0.0, diffusion=-0.25j)
    profiles = []
    for n, steps in ((1025, 125), (2049, 250)):
        x = np.linspace(-15, 15, n)
        init = GridFunction(-15, 15, gaussian_packet(x, 0.0, 0.3, p))
        profiles.append(fp_evolve(init, p, 0.5 / steps, steps).values)
    err = np.abs(profiles[0] - profiles[1][::2]).max()
    # measured 1.375e-3 at this resolution pair; fails if order degrades
    assert err < 3e-3


def test_evolve_rejects_violated_stability_bound():
    p = FPParams(drift=4.0, diffusion=1.0)
    x = np.linspace(-12, 12, 257)
    init = GridFunction(-12, 12, gaussian_packet(x, 0.0, 0.5, p))
    with pytest.raises(ValueError, match="advective stability"):
        fp_evolve(init, p, 0.5, 10)


def test_evolve_rejects_narrow_domain():
    p = FPParams(drift=0.0, diffusion=1.0)
    x = np.linspace(-2, 2, 257)
    init = GridFunction(-2, 2, gaussian_packet(x, 0.0, 1.0, p))
    with pytest.raises(ValueError, match="boundary"):
        fp_evolve(init, p, 1e-4, 5)
    # no peak to compare with: refused as a vanished profile, not a leak
    with pytest.raises(ValueError, match="the evolved profile is 0 at every grid point"):
        fp_evolve(GridFunction(-2, 2, np.zeros(257, complex)), p, 1e-4, 5)


def test_evolve_refuses_a_profile_that_reaches_the_boundary():
    # the initial profile is 5e-32 of its peak at the boundary; near t = 0.49
    # the spreading packet passes 1e-7 of its peak beside it.  The boundary
    # points are pinned to 0 after every step, so only the points beside them
    # show the leak, also to a loop of single-step calls
    p = FPParams(drift=0.0, diffusion=1.0)
    x = np.linspace(-6, 6, 513)
    init = GridFunction(-6, 6, gaussian_packet(x, 0.0, 0.5, p))
    g = init
    for _ in range(90):
        g = fp_evolve(g, p, 0.005, 1)
    with pytest.raises(ValueError, match="next to the boundary"):
        for _ in range(10):
            g = fp_evolve(g, p, 0.005, 1)
    with pytest.raises(ValueError, match="next to the boundary"):
        fp_evolve(init, p, 0.005, 100)


def test_evolve_drifted_complex_full_coefficients():
    # full process coefficients: runs stably and tracks the analytic packet
    p = fp_params_from_process(SqrtParams())
    x = np.linspace(-15, 25, 4097)
    init = GridFunction(-15, 25, gaussian_packet(x, 0.0, 0.3, p))
    final = fp_evolve(init, p, 0.001, 500)
    exact = gaussian_packet(x, 0.5, 0.3, p)
    assert np.abs(final.values - exact).max() < 2e-3
    # complex drift and diffusion couple: the modulus center displaces
    center = x[np.argmax(np.abs(final.values))]
    assert center != 0.0


def _fp_evolve_banded(initial, p, dt, n_steps):
    """Reference Crank-Nicolson solver: the band of I - dt/2 L built and
    solved with scipy.linalg.solve_banded (LAPACK gtsv, the same pivoting
    elimination as gttrf/gttrs) on every call."""
    dx = initial.dx
    n = initial.n_points
    adv = p.drift / (2 * dx)
    dif = p.diffusion / (dx * dx)
    lo, di, up = dif + adv, -2 * dif, dif - adv
    ab = np.zeros((3, n), dtype=np.complex128)
    ab[0, 2:] = -0.5 * dt * up
    ab[1, :] = 1.0 - 0.5 * dt * di
    ab[2, :-2] = -0.5 * dt * lo
    ab[1, 0] = ab[1, -1] = 1.0
    ab[0, 1] = 0.0
    ab[2, -2] = 0.0
    psi = initial.values.astype(np.complex128, copy=True)
    for _ in range(n_steps):
        rhs = psi.copy()
        rhs[1:-1] += 0.5 * dt * (lo * psi[:-2] + di * psi[1:-1] + up * psi[2:])
        rhs[0] = rhs[-1] = 0.0
        psi = solve_banded((1, 1), ab, rhs)
    return GridFunction(initial.x_min, initial.x_max, psi)


def _packet(p, n, half=15.0, sigma0=0.3):
    x = np.linspace(-half, half, n)
    return GridFunction(-half, half, gaussian_packet(x, 0.0, sigma0, p))


def test_evolve_equals_banded_reference_heat_mode():
    p = FPParams(drift=0.0, diffusion=1.0)
    x = np.linspace(-12, 12, 4097)
    init = GridFunction(-12, 12, fp_analytic_solution(x, 0.25, p))
    got = fp_evolve(init, p, 0.25 / 500, 500).values
    assert np.array_equal(got, _fp_evolve_banded(init, p, 0.25 / 500, 500).values)


@pytest.mark.parametrize("n, steps", [(1025, 125), (2049, 250), (4097, 500)])
def test_evolve_equals_banded_reference_convergence_levels(n, steps):
    p = FPParams(drift=0.0, diffusion=-0.25j)
    init = _packet(p, n)
    got = fp_evolve(init, p, 0.5 / steps, steps).values
    assert np.array_equal(got, _fp_evolve_banded(init, p, 0.5 / steps, steps).values)


def test_evolve_single_steps_factor_once_and_equal_the_reference():
    kernels._cn_operator.cache_clear()
    p = fp_params_from_process(SqrtParams(0.5, 0.5))
    g = ref = _packet(p, 1024, half=20.0)
    for _ in range(40):
        g = fp_evolve(g, p, 0.002, 1)
        ref = _fp_evolve_banded(ref, p, 0.002, 1)
        assert np.array_equal(g.values, ref.values)
    info = kernels._cn_operator.cache_info()
    assert (info.misses, info.hits) == (1, 39)


def test_lapack_gives_the_bits_of_scipy_linalgs_gttrf_and_gttrs():
    # a subdiagonal ten times the diagonal makes gttrf swap rows
    gttrf, gttrs = kernels._lapack()
    ref_gttrf, ref_gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.complex128)
    rng = np.random.default_rng(28)
    n = 257
    dl, d, du, b = (scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
                    for size, scale in ((n - 1, 10.0), (n, 1.0), (n - 1, 1.0), (n, 1.0)))
    factors, ref_factors = gttrf(dl, d, du), ref_gttrf(dl, d, du)
    assert factors[-1] == ref_factors[-1] == 0
    assert all(np.array_equal(a, r) for a, r in zip(factors[:-1], ref_factors[:-1]))
    assert (factors[4] != np.arange(1, n + 1)).any()  # pivoted
    (x, info), (ref_x, ref_info) = gttrs(*factors[:-1], b), ref_gttrs(*ref_factors[:-1], b)
    assert info == ref_info == 0
    assert np.array_equal(x, ref_x)


def test_lapack_without_a_flapack_file_names_the_folder(tmp_path, monkeypatch):
    kernels._lapack.cache_clear()
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    try:
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "scipy" / "linalg"))):
            kernels._lapack()
    finally:
        kernels._lapack.cache_clear()


@pytest.mark.parametrize("change", ["dt", "dx", "drift", "diffusion"])
def test_evolve_cache_key_holds_every_operator_input(change):
    # one call that differs in a single input of the matrix, between two
    # calls that share a factorization, must not reuse it
    p = fp_params_from_process(SqrtParams(0.5, 0.5))
    q = {"drift": FPParams(drift=0.3 - 0.2j, diffusion=p.diffusion),
         "diffusion": FPParams(drift=p.drift, diffusion=-0.3j)}.get(change, p)
    g = _packet(p, 1024, half=20.0)
    other = _packet(p, 1024, half=21.0) if change == "dx" else g
    dt_other = 0.001 if change == "dt" else 0.002
    for init, params, dt in ((g, p, 0.002), (other, q, dt_other), (g, p, 0.002)):
        got = fp_evolve(init, params, dt, 3).values
        assert np.array_equal(got, _fp_evolve_banded(init, params, dt, 3).values)


# out= contract: fp_evolve steps one profile in place, in an array its
# caller may own, with bits that do not depend on which array it is.  The
# tests named for a workspace check the caller's out.

def test_workspace_single_steps_equal_fresh_calls_and_one_multi_step_call():
    p = fp_params_from_process(SqrtParams(0.5, 0.5))
    init = _packet(p, 1024, half=20.0)
    out = np.empty(1024, np.complex128)
    shared = fresh = init
    for _ in range(40):
        shared = fp_evolve(shared, p, 0.002, 1, out=out)
        assert shared.values is out
        fresh = fp_evolve(fresh, p, 0.002, 1)
        assert np.array_equal(shared.values, fresh.values)
        mass = grid_integral(shared)
        assert mass == complex(np.trapezoid(fresh.values, dx=fresh.dx))
        assert np.array_equal(shared.values, fresh.values)  # the mass wrote no profile
    assert np.array_equal(shared.values, fp_evolve(init, p, 0.002, 40).values)
    expected = shared.values.copy()
    assert fp_evolve(init, p, 0.002, 40, out=out).values is out
    assert np.array_equal(out, expected)


# source is the array initial.values is: its own array, a profile an
# earlier call returned in its caller's out (profile-0) or in a new array
# (profile-1), or a view of profile-0; out is always another array
@pytest.mark.parametrize("n_steps", [1, 2, 5])
@pytest.mark.parametrize("source", ["own-array", "profile-0", "profile-1", "view-of-profile-0"])
def test_workspace_never_writes_the_initial_profile(source, n_steps):
    p = fp_params_from_process(SqrtParams(0.5, 0.5))
    packet = _packet(p, 1024, half=20.0)
    if source == "own-array":
        values = packet.values.copy()
    elif source == "profile-1":
        values = fp_evolve(packet, p, 0.002, 1).values
    else:
        values = fp_evolve(packet, p, 0.002, 1, out=np.empty(1024, np.complex128)).values
        if source.startswith("view"):
            values = values[:]
    before = values.copy()
    expected = fp_evolve(GridFunction(packet.x_min, packet.x_max, before), p, 0.002,
                         n_steps).values
    init = GridFunction(packet.x_min, packet.x_max, values)
    out = np.empty(1024, np.complex128)
    got = fp_evolve(init, p, 0.002, n_steps, out=out)
    assert np.array_equal(init.values, before)
    assert np.array_equal(got.values, expected)
    assert got.values is out
    assert not np.shares_memory(got.values, init.values)


@pytest.mark.parametrize("n_steps", [1, 2, 5])
@pytest.mark.parametrize("source", ["out", "view-of-out"])
def test_out_that_holds_the_initial_profile_steps_it_in_place(source, n_steps):
    p = fp_params_from_process(SqrtParams(0.5, 0.5))
    packet = _packet(p, 1024, half=20.0)
    expected = fp_evolve(packet, p, 0.002, n_steps).values
    out = packet.values.copy()
    init = GridFunction(packet.x_min, packet.x_max, out if source == "out" else out[:])
    got = fp_evolve(init, p, 0.002, n_steps, out=out)
    assert got.values is out
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_grid_integral_has_the_bits_of_trapezoid(dtype):
    # signed zeros, subnormals, huge, tiny and non-finite values, and sums
    # that are 0 in a part: the mass has the bits of np.trapezoid
    rng = np.random.default_rng(7)
    for trial in range(200):
        values = rng.standard_normal(1001) * 10.0 ** rng.integers(-330, 300, 1001)
        if dtype is np.complex128:
            values = values + 1j * rng.standard_normal(1001) * 10.0 ** rng.integers(-330, 300)
        values[rng.integers(0, 1001, 40)] = 0.0
        values[rng.integers(0, 1001, 40)] = -0.0
        kind = trial % 8
        if kind == 0:
            values[:] = -0.0
        elif kind == 1:
            values[:] = values.real * (-1.0) ** trial  # a part that sums to +-0
        elif kind == 2:
            values[rng.integers(0, 1001)] = rng.choice([np.inf, -np.inf, np.nan])
        elif kind == 3 and dtype is np.complex128:
            values[rng.integers(0, 1001)] = complex(1.0, rng.choice([np.inf, np.nan]))
        elif kind == 4:
            values[:] = values[::-1] - values  # odd: each part sums to about 0
        g = GridFunction(-1.0, float(rng.random() * 10.0 ** rng.integers(-3, 4)), values)
        with np.errstate(all="ignore"):
            expected = complex(np.trapezoid(values, dx=g.dx))
            mass = grid_integral(g)
        assert np.array_equal([mass], [expected], equal_nan=True)
        assert np.signbit([mass.real, mass.imag]).tolist() == np.signbit(
            [expected.real, expected.imag]).tolist()


def _nan_inside(p):
    g = _packet(p, 1024, half=20.0)
    values = g.values.copy()
    values[512] = np.nan
    return GridFunction(g.x_min, g.x_max, values)


@pytest.mark.parametrize("case, match", [
    ("advective", "advective stability"),
    ("edge", "boundary amplitude"),
    ("near-boundary", "next to the boundary"),
    ("zero", "the evolved profile is 0 at every grid point"),
    ("non-finite", "left the finite range"),
])
def test_workspace_keeps_every_refusal(case, match):
    heat = FPParams(drift=0.0, diffusion=1.0)
    p = fp_params_from_process(SqrtParams(0.5, 0.5))
    x = np.linspace(-6, 6, 513)
    init, params, dt, n_steps = {
        "advective": (_packet(p, 513, half=6.0), FPParams(drift=40.0, diffusion=1.0), 0.5, 1),
        "edge": (GridFunction(-2, 2, gaussian_packet(np.linspace(-2, 2, 513), 0.0, 1.0, heat)),
                 heat, 1e-4, 1),
        "near-boundary": (GridFunction(-6, 6, gaussian_packet(x, 0.0, 0.5, heat)),
                          heat, 0.005, 100),
        "zero": (GridFunction(-6, 6, np.zeros(513, complex)), heat, 0.005, 1),
        "non-finite": (_nan_inside(p), p, 0.002, 1),
    }[case]
    n = init.n_points
    with pytest.raises(ValueError, match=match):
        fp_evolve(init, params, dt, n_steps, out=np.empty(n, np.complex128))
    # the same refusal from one-step calls sharing out
    out, g = np.empty(n, np.complex128), init
    with pytest.raises(ValueError, match=match):
        for _ in range(n_steps):
            g = fp_evolve(g, params, dt, 1, out=out)


def _out_refused(out):
    p = fp_params_from_process(SqrtParams(0.5, 0.5))
    g = _packet(p, 1024, half=20.0)
    before = out.copy()
    with mock.patch.object(kernels, "_GTTRS") as solve, pytest.raises(
            ValueError, match="out must be a writeable, C-contiguous complex128 array of 1024"):
        fp_evolve(g, p, 0.002, 1, out=out)
    solve.assert_not_called()
    assert np.array_equal(out, before, equal_nan=True)


def test_workspace_of_another_grid_size_is_refused():
    for n in (1023, 1025):
        _out_refused(np.zeros(n, np.complex128))


@pytest.mark.parametrize("kind", ["float64", "strided", "read-only"])
def test_out_that_cannot_hold_the_profile_in_place_is_refused(kind):
    out = {
        "float64": np.zeros(1024),
        "strided": np.zeros(2048, np.complex128)[::2],
        "read-only": np.zeros(1024, np.complex128),
    }[kind]
    out.flags.writeable = kind != "read-only"
    _out_refused(out)


def test_evolve_factors_are_read_only():
    p = FPParams(drift=0.0, diffusion=1.0)
    _, factors = kernels._cn_operator(64, 0.1, 0.001, p.drift, p.diffusion)
    for a in factors:
        with pytest.raises(ValueError):
            a[0] = 0
