"""Analytic heat/oscillatory kernels, the Wick rotation, and a
Crank-Nicolson solver for the complex advection-diffusion equation.

The oscillatory (free-propagator) kernel is taken on the principal branch,

    psi(x, t) = (4 pi i t)^(-1/2) exp(i x^2 / (4 t))
              = (4 pi t)^(-1/2) [cos(theta') + i sin(theta')],
    theta'    = x^2/(4 t) - pi/4,

so its modulus is (4 pi t)^(-1/2) independent of x.  The Wick rotation
t -> -i t maps it to the heat kernel (4 pi t)^(-1/2) exp(-x^2/(4 t)).
Evaluated on the expanded form this reads

    K = (4 pi t)^(-1/2) [cos(i theta') + i sin(i theta')] * exp(-pi/4),

where the bracket is cosh(theta') - sinh(theta') = exp(-theta') (real up to
rounding) and the exp(-pi/4) factor compensates the branch phase carried
inside theta'; the identity K == heat kernel is exact.

At sample level the rotation acts on (modulus, phase) pairs as
rho * e^{i theta} -> rho * e^{-theta}.  Samples cross module boundaries as a
pair of float arrays (rho, theta), and the rotation refuses any negative
rho.  Producers must supply *unwrapped* phases with the constant -pi/4
branch offset excluded (the offset belongs to the rotation factor, not the
sample): wrapping into (-pi, pi] would corrupt the map, since theta enters
an exponential, not a phase.

The evolution equation solved by fp_evolve is

    d psi / dt = -mu * d psi / dx + D * d^2 psi / dx^2

with complex mu, D.  Its drift parameter is oriented so that solutions
translate toward +mu t, matching the sign of the measured increment mean of
the square-root process (mu = (1+i)/2 - beta (1-i)/2, D = -i/4).  Note that
for complex D the *modulus* center of a packet is not Re(mu) t: the
imaginary parts of mu and D couple, so run reports carry the measured
displacement rather than a nominal one.

The Crank-Nicolson matrix depends only on (grid size, dx, dt, mu, D): it is
factored once per such configuration (LAPACK gttrf) and the read-only
factors are memoized, so a caller that steps one call at a time pays one
tridiagonal solve (gttrs) per step and no refactorization.  The steps
advance one profile in place: a new array per fp_evolve call, or the
caller's out=, which a caller that steps one call at a time passes to every
call so the profile is allocated once per run.  The first factorization of
a process loads SciPy's compiled LAPACK wrapper, scipy/linalg/_flapack,
from its file (_lapack) without importing scipy.linalg, so fp_evolve loads
none of scipy.linalg, scipy.special and scipy.optimize, and a process that
evolves nothing, such as simulate or table1, never loads the wrapper.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
from numpy.linalg import LinAlgError

from .process import SqrtParams

__all__ = [
    "FPParams",
    "GridFunction",
    "schrodinger_kernel",
    "heat_kernel",
    "wick_rotate_kernel",
    "wick_rotate_samples",
    "schrodinger_samples",
    "square_samples",
    "fp_params_from_process",
    "fp_analytic_solution",
    "gaussian_packet",
    "fp_evolve",
    "grid_integral",
]

_QUARTER_PI = np.pi / 4


def _check_t(t: float) -> None:
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")


def schrodinger_kernel(x, t: float):
    """Free-propagator kernel (4 pi i t)^(-1/2) exp(i x^2/(4t)), principal
    branch; |result| = (4 pi t)^(-1/2) for all x."""
    _check_t(t)
    x = np.asarray(x, dtype=float)
    theta = x * x / (4 * t) - _QUARTER_PI
    return (4 * np.pi * t) ** -0.5 * (np.cos(theta) + 1j * np.sin(theta))


def heat_kernel(x, t: float):
    """(4 pi t)^(-1/2) exp(-x^2/(4t))."""
    _check_t(t)
    x = np.asarray(x, dtype=float)
    return (4 * np.pi * t) ** -0.5 * np.exp(-x * x / (4 * t))


def wick_rotate_kernel(x, t: float):
    """The rotated oscillatory kernel, evaluated literally on the expanded
    cos/sin form with complex arguments; equals heat_kernel(x, t) up to
    rounding, with vanishing imaginary residual."""
    _check_t(t)
    x = np.asarray(x, dtype=float)
    theta = (x * x / (4 * t) - _QUARTER_PI).astype(complex)
    bracket = np.cos(1j * theta) + 1j * np.sin(1j * theta)
    out = (4 * np.pi * t) ** -0.5 * bracket * np.exp(-_QUARTER_PI)
    return out.real if out.ndim else float(out.real)


def wick_rotate_samples(samples: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Sample-level Wick rotation rho e^{i theta} -> rho e^{-theta} of a
    (rho, theta) pair of arrays; refuses any negative modulus.

    Outputs are real and non-negative by construction.
    """
    rho, theta = samples
    if (rho < 0).any():
        raise ValueError(f"rho must be non-negative, got {rho.min()}")
    return rho * np.exp(-theta)


def schrodinger_samples(x, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Polar samples (rho, theta) of the oscillatory kernel on a grid of
    positions.

    The recorded phase is the bare quadratic phase x^2/(4t), unwrapped by
    construction; the constant -pi/4 branch offset is excluded (it is
    absorbed by the rotation factor), so rotating these samples reproduces
    heat_kernel exactly.
    """
    _check_t(t)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.full(x.shape, (4 * np.pi * t) ** -0.5), x * x / (4 * t)


def square_samples(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar samples (rho, theta) of the squared process values psi = z^2.

    rho = |z|^2 and theta = 2*arg(z), which is unwrapped as long as each z
    stays in one half-plane (square-root paths accumulate in the first
    quadrant, so their phase lives in [0, pi/2] and the doubled phase in
    [0, pi]).
    """
    z = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    return np.abs(z) ** 2, 2.0 * np.angle(z)


@dataclass(frozen=True)
class FPParams:
    """Drift and diffusion of the complex advection-diffusion equation."""

    drift: complex
    diffusion: complex

    def __post_init__(self) -> None:
        if self.diffusion == 0:
            raise ValueError("diffusion must be nonzero")
        for v in (self.drift, self.diffusion):
            if not np.isfinite(v):
                raise ValueError("drift and diffusion must be finite")


def fp_params_from_process(params: SqrtParams) -> FPParams:
    """Evolution coefficients of the square-root process:
    mu = (1+i)/2 - beta (1-i)/2 and D = -i/4 (derived at mu0 = 1/2)."""
    if params.mu0 != 0.5:
        raise ValueError(
            f"evolution coefficients are derived at mu0 = 1/2, got {params.mu0}"
        )
    drift = (1 + 1j) / 2 - params.beta * (1 - 1j) / 2
    return FPParams(drift=drift, diffusion=-0.25j)


def fp_analytic_solution(x, t: float, p: FPParams):
    """Fundamental solution (4 pi D t)^(-1/2) exp(-(x - mu t)^2 / (4 D t)),
    principal branch; satisfies d psi/dt = -mu d psi/dx + D d^2 psi/dx^2."""
    _check_t(t)
    x = np.asarray(x, dtype=float)
    mu, dd = p.drift, p.diffusion
    return (4 * np.pi * dd * t) ** -0.5 * np.exp(-((x - mu * t) ** 2) / (4 * dd * t))


def gaussian_packet(x, t: float, sigma0: float, p: FPParams):
    """Closed-form evolution of a unit-mass Gaussian of width sigma0:

        (2 pi s2)^(-1/2) exp(-(x - mu t)^2 / (2 s2)),  s2 = sigma0^2 + 2 D t.

    t = 0 gives the initial profile; this is the analytic reference for
    fp_evolve runs started from a localized packet (a pure fundamental
    solution with complex D has constant modulus and never leaves the
    boundary regime).
    """
    if sigma0 <= 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    x = np.asarray(x, dtype=float)
    s2 = sigma0 * sigma0 + 2 * p.diffusion * t
    return (2 * np.pi * s2) ** -0.5 * np.exp(-((x - p.drift * t) ** 2) / (2 * s2))


@dataclass(frozen=True)
class GridFunction:
    """Complex values on a uniform grid over [x_min, x_max]."""

    x_min: float
    x_max: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if len(self.values) < 3:
            raise ValueError("grid needs at least 3 points")

    @property
    def n_points(self) -> int:
        return len(self.values)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


def grid_integral(g: GridFunction) -> complex:
    """Trapezoid integral of the grid function (the conserved 'mass')."""
    return complex(np.trapezoid(g.values, dx=g.dx))


# Largest amplitude, against the peak modulus, that fp_evolve accepts at the
# boundary points of its initial profile, and next to them after every step:
# the boundaries are pinned to 0, so the amplitude beside them is what flows
# out through the ends, and the run's mass drifts with it.
_BOUNDARY_TOL = 1e-8
_NEAR_BOUNDARY_TOL = 1e-7


@cache
def _lapack():
    """LAPACK's tridiagonal LU factorization and solve (zgttrf, zgttrs),
    complex double precision, loaded by the first factorization of a process
    and kept.  They come from SciPy's compiled wrapper module _flapack, loaded
    from its file in scipy/linalg without running scipy/linalg/__init__.py
    and without entering sys.modules: they are the objects that
    scipy.linalg.get_lapack_funcs returns, but after import sqrtwiener.cli
    the load adds about 2.6 MiB to a process's peak RSS where importing
    scipy.linalg adds about 20 MiB.  Raises ImportError naming the folder
    when it holds no _flapack file."""
    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    finder = importlib.machinery.FileFinder(folder, (
        importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no compiled LAPACK wrapper _flapack in {folder}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.zgttrf, flapack.zgttrs


def _GTTRS(*args, **kwargs):
    """gttrs, looked up by name at every solve so that a test can patch it."""
    return _lapack()[1](*args, **kwargs)


# a few configurations: each entry holds about 68 bytes per grid point
@lru_cache(maxsize=4)
def _cn_operator(n: int, dx: float, dt: float, drift: complex, diffusion: complex):
    """The stencil (lo, di, up) of L on n points and the LU factors of the
    Crank-Nicolson matrix I - dt/2 L, whose first and last rows are those of
    the identity (pinned boundaries).  The factors are read-only: every
    caller with the same (n, dx, dt, drift, diffusion) shares them."""
    adv = drift / (2 * dx)
    dif = diffusion / (dx * dx)
    lo = dif + adv     # psi[j-1] coefficient of L
    di = -2 * dif      # psi[j]
    up = dif - adv     # psi[j+1]

    sub = np.full(n - 1, -0.5 * dt * lo, dtype=np.complex128)
    diag = np.full(n, 1.0 - 0.5 * dt * di, dtype=np.complex128)
    sup = np.full(n - 1, -0.5 * dt * up, dtype=np.complex128)
    diag[0] = diag[-1] = 1.0
    sup[0] = sub[-1] = 0.0
    gttrf = _lapack()[0]
    *factors, info = gttrf(sub, diag, sup, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info > 0:
        raise LinAlgError("singular Crank-Nicolson matrix")
    for a in factors:
        a.setflags(write=False)
    return (lo, di, up), tuple(factors)


def fp_evolve(initial: GridFunction, p: FPParams, dt: float, n_steps: int,
              out: np.ndarray | None = None) -> GridFunction:
    """Advance d psi/dt = -mu d psi/dx + D d^2 psi/dx^2 by n_steps implicit
    time-centered (Crank-Nicolson) steps with boundary values pinned to 0.

    Configuration is validated on every call, before stepping: the advective
    number |mu| dt / dx must not exceed 1/2, and the initial profile must be
    negligible at the boundary (|edge| <= 1e-8 * max|psi|), otherwise the
    pinned boundaries are wrong, mass leaks, and the run is refused.  After
    every step the points next to the boundaries must stay negligible too
    (<= 1e-7 * max|psi|), or the evolution is refused as it goes; so is a
    profile that is 0 at every grid point after a step.  The tridiagonal
    matrix is factored once (LAPACK gttrf) per (grid size, dx, dt, mu, D)
    and memoized, so a run of single-step calls factors once; each step is
    then one gttrs solve.  A profile that leaves the finite range raises
    ValueError.

    The steps advance one profile in place, in out when it is given (a
    writeable, C-contiguous complex128 array of the grid's size) and in a
    new array otherwise; the returned values are that array.  initial.values
    is copied into out first, unless it is out itself, so out=initial.values
    steps a profile in place and any other out leaves initial.values
    unwritten.  A caller that steps one call at a time passes the same out to
    every call, so the profile is allocated once per run; copy any profile
    that must outlive the next call.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    n = initial.n_points
    if out is not None and not (
        isinstance(out, np.ndarray) and out.dtype == np.complex128 and out.shape == (n,)
        and out.flags.c_contiguous and out.flags.writeable
    ):
        raise ValueError(f"out must be a writeable, C-contiguous complex128 array of {n} points")
    dx = initial.dx
    advective = abs(p.drift) * dt / dx
    if advective > 0.5:
        raise ValueError(
            f"advective stability bound violated: |drift|*dt/dx = {advective:.4g} > 0.5"
        )
    v = initial.values
    # an evolved profile is pinned to 0 at the boundary, so only a nonzero
    # edge needs the peak; a zero profile is refused after the first step
    edge = max(abs(v[0]), abs(v[-1]))
    if edge and edge > _BOUNDARY_TOL * np.abs(v).max():
        raise ValueError(
            "domain too narrow: boundary amplitude "
            f"{edge:.3g} exceeds {_BOUNDARY_TOL:g} * peak ({np.abs(v).max():.3g})"
        )

    # (I - dt/2 L) psi_next = (I + dt/2 L) psi, with the operations of
    #   rhs = psi.copy()
    #   rhs[1:-1] += 0.5 * dt * (lo * psi[:-2] + di * psi[1:-1] + up * psi[2:])
    # in the same order, so the bits do not depend on the buffers; the
    # stencil sum and each of its terms go to a pair allocated once per call,
    # then psi itself becomes the right-hand side that gttrs solves in place
    (lo, di, up), factors = _cn_operator(n, dx, dt, p.drift, p.diffusion)
    half_dt = 0.5 * dt
    psi = np.empty(n, np.complex128) if out is None else out
    if v is not psi:
        np.copyto(psi, v)
    stencil, term = np.empty((2, n - 2), np.complex128)
    for _ in range(n_steps):
        np.multiply(lo, psi[:-2], out=stencil)
        np.multiply(di, psi[1:-1], out=term)
        np.add(stencil, term, out=stencil)
        np.multiply(up, psi[2:], out=term)
        np.add(stencil, term, out=stencil)
        np.multiply(half_dt, stencil, out=stencil)
        psi[1:-1] += stencil
        psi[0] = psi[-1] = 0.0
        _GTTRS(*factors, psi, overwrite_b=1)
        near, peak = max(abs(psi[1]), abs(psi[-2])), np.abs(psi).max()
        if peak == 0:
            raise ValueError("the evolved profile is 0 at every grid point")
        if near > _NEAR_BOUNDARY_TOL * peak:
            raise ValueError(
                f"domain too narrow: an evolved amplitude next to the boundary, "
                f"{near:.3g}, exceeds {_NEAR_BOUNDARY_TOL:g} * peak ({peak:.3g}), "
                "so mass leaks through the pinned ends"
            )
    # a finite peak modulus has finite parts everywhere
    if not np.isfinite(peak) and not np.isfinite(psi).all():
        raise ValueError("Crank-Nicolson evolution left the finite range")
    return GridFunction(initial.x_min, initial.x_max, psi)
