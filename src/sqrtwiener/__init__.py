"""Complex-valued square-root-of-Wiener processes.

Simulation of the stochastic process whose square recovers a Wiener
increment, the Clifford (Pauli) embedding that makes the squared identity
exact, ensemble statistics under explicitly tagged estimator conventions,
heat/oscillatory kernels related by Wick rotation, and a Crank-Nicolson
solver for the associated complex advection-diffusion equation.
"""

from .clifford import (
    anticommutator,
    embed_sqrt_increment,
    embedding_scalar,
    pauli,
)
from .kernels import (
    FPParams,
    GridFunction,
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
from .paths import (
    RNG_NAME,
    SeedSpec,
    TimeGrid,
    WienerEnsemble,
    WienerIncrements,
    abs_of,
    make_rng,
    phi_from_bernoulli,
    phi_half,
    sample_wiener,
    sign_of,
    wiener_ensemble,
)
from .process import (
    ComplexPathEnsemble,
    SqrtParams,
    ensemble_digest,
    ensemble_to_csv,
    integrate_sqrt,
    sqrt_step_drifted,
    sqrt_step_scalar,
)
from .stats import (
    ESTIMATOR_TAGS,
    ComplexStat,
    FitError,
    GaussianFit,
    Histogram,
    SummaryStats,
    Table1Stats,
    build_histogram,
    complex_mean,
    complex_pseudo_variance,
    fit_gaussian_curve,
    gaussian_fit,
    pooled_complex_mean,
    pooled_pseudo_variance,
    sturges_bins,
    table1_statistics,
)

__version__ = "0.1.0"
