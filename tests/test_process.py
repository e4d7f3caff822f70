"""Square-root process steps, the integrator, ensembles and digests."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtwiener import (
    ComplexPathEnsemble,
    SeedSpec,
    SqrtParams,
    TimeGrid,
    WienerIncrements,
    ensemble_digest,
    ensemble_to_csv,
    integrate_sqrt,
    make_rng,
    phi_half,
    sample_wiener,
    sqrt_step_drifted,
    sqrt_step_scalar,
)
from sqrtwiener.paths import cumulative_paths, row_blocks, wiener_ensemble
from sqrtwiener.process import array_digest

DT = 0.001
GRID = TimeGrid(DT, 1000)


def test_params_validation():
    with pytest.raises(ValueError):
        SqrtParams(mu0=0.0)
    with pytest.raises(ValueError):
        SqrtParams(beta=np.inf)
    p = SqrtParams()
    assert p.mu0 == 0.5 and p.beta == 0.0


def test_scalar_step_positive_increment():
    out = sqrt_step_scalar(0.04, DT, SqrtParams(mu0=0.5), 1.0 + 0j)
    assert out == pytest.approx(0.539 + 0j, abs=1e-15)


def test_scalar_step_negative_increment():
    out = sqrt_step_scalar(-0.04, DT, SqrtParams(mu0=0.5), 1j)
    assert out == pytest.approx(0.539j, abs=1e-15)


def test_drifted_step_examples():
    out = sqrt_step_drifted(0.04, DT, SqrtParams(0.5, beta=0.0), 1.0 + 0j)
    assert out == pytest.approx(0.539 + 0j, abs=1e-15)
    out = sqrt_step_drifted(-0.04, DT, SqrtParams(0.5, beta=1.0), 1j)
    assert out == pytest.approx(0.538j, abs=1e-15)


def test_drifted_step_zero_increment():
    # degenerate single-step case: bracket reduces to 1/2 - dt
    out = sqrt_step_drifted(0.0, DT, SqrtParams(), 1.0 + 0j)
    assert out == (0.5 - DT) + 0j


def test_drifted_requires_half():
    with pytest.raises(ValueError, match="sqrt_step_scalar"):
        sqrt_step_drifted(0.04, DT, SqrtParams(mu0=1.5), 1.0 + 0j)


def test_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        sqrt_step_scalar(0.1, 0.0, SqrtParams(), 1.0 + 0j)


def test_drifted_reduces_to_scalar_at_beta_zero():
    w = sample_wiener(GRID, make_rng(SeedSpec(3, 0)))
    phi = phi_half(w)
    p = SqrtParams(0.5, 0.0)
    a = sqrt_step_scalar(w.dw, DT, p, phi)
    b = sqrt_step_drifted(w.dw, DT, p, phi)
    np.testing.assert_array_equal(a, b)


def test_scalar_square_residual_symbolic():
    # the square of the scalar bracket minus (mu0^2 sgn + dw) contains only
    # the Ito-vanishing combination and O(dt) terms
    dw, dt, mu0 = sympy.symbols("dw dt mu0", positive=True)
    bracket = mu0 + dw / (2 * mu0) - dt / (8 * mu0**3)
    residual = sympy.expand(bracket**2 - mu0**2 - dw)
    expected = (
        dw**2 / (4 * mu0**2)
        - dt / (4 * mu0**2)
        - dw * dt / (8 * mu0**4)
        + dt**2 / (64 * mu0**6)
    )
    assert sympy.simplify(residual - expected) == 0
    # numeric agreement at 3 random points
    rng = np.random.default_rng(8)
    for _ in range(3):
        vals = {dw: rng.uniform(0, 0.1), dt: rng.uniform(0, 0.01), mu0: rng.uniform(0.3, 2)}
        num = sqrt_step_scalar(
            float(vals[dw]), float(vals[dt]), SqrtParams(float(vals[mu0])), 1.0 + 0j
        )
        assert complex(num) ** 2 - float(vals[mu0]) ** 2 - float(vals[dw]) == pytest.approx(
            float(expected.subs(vals)), rel=1e-10
        )


def test_scalar_square_residual_bounded_by_dt():
    p = SqrtParams(0.5)
    worst = 0.0
    for seed in range(20):
        w = sample_wiener(GRID, make_rng(SeedSpec(seed, 0)))
        phi = phi_half(w)
        step = sqrt_step_scalar(w.dw, DT, p, phi)
        sgn = np.where(w.dw >= 0, 1.0, -1.0)
        resid = np.abs(step**2 - (p.mu0**2 * sgn + w.dw))
        worst = max(worst, resid.max())
    fitted_c = worst / DT
    print(f"fitted scalar-square bound: C = {fitted_c:.2f} (residual <= C*dt)")
    assert worst <= fitted_c * DT  # definitionally tight
    assert fitted_c < 100  # sanity scale: (z^2-1) at |z| <~ 5, mu0 = 1/2


def test_integrate_deterministic_and_consistent():
    p = SqrtParams()
    e1 = integrate_sqrt(GRID, 8, p, master_seed=9)
    e2 = integrate_sqrt(GRID, 8, p, master_seed=9)
    assert e1.increments.tobytes() == e2.increments.tobytes()
    assert ensemble_digest(e1) == ensemble_digest(e2)

    # row p reuses the Wiener stream of path p
    w0 = sample_wiener(GRID, make_rng(SeedSpec(9, 0)))
    expected = sqrt_step_drifted(w0.dw, DT, p, phi_half(w0))
    np.testing.assert_array_equal(e1.increments[0], expected)


def test_values_cumulative_invariants():
    ens = integrate_sqrt(GRID, 4, SqrtParams(), master_seed=2)
    assert np.all(ens.values[:, 0] == 0)
    np.testing.assert_allclose(
        np.diff(ens.values, axis=1), ens.increments, rtol=0, atol=1e-12
    )
    np.testing.assert_array_equal(ens.terminal_values, ens.values[:, -1])
    zero = np.zeros((4, 1), complex)
    np.testing.assert_array_equal(
        ens.values, np.concatenate([zero, np.cumsum(ens.increments, axis=1)], axis=1)
    )


def test_terminal_values_equal_last_cumulative_column():
    ens = integrate_sqrt(TimeGrid(DT, 256), 601, SqrtParams(), master_seed=12)
    np.testing.assert_array_equal(ens.terminal_values, cumulative_paths(ens.increments)[:, -1])


def test_ensemble_stores_only_its_increments():
    names = [f.name for f in dataclasses.fields(ComplexPathEnsemble)]
    assert names == ["grid", "increments"]


def test_array_digest_of_strided_view_hashes_its_copy():
    arr = integrate_sqrt(TimeGrid(DT, 16), 5, SqrtParams(), master_seed=3).increments
    for view in (arr[:, ::3], arr.T, arr[::2, -1], arr.real):
        assert not view.flags.c_contiguous
        expected = "sha256:" + hashlib.sha256(view.copy().tobytes()).hexdigest()
        assert array_digest(view) == expected


def test_increment_phase_matches_increment_sign():
    ens = integrate_sqrt(GRID, 6, SqrtParams(), master_seed=4)
    for p_idx in range(6):
        w = sample_wiener(GRID, make_rng(SeedSpec(4, p_idx)))
        inc = ens.increments[p_idx]
        pos = w.dw >= 0
        # positive-sign steps are exactly real, negative-sign steps exactly
        # imaginary, with positive magnitude either way
        assert np.all(inc.imag[pos] == 0) and np.all(inc.real[pos] > 0)
        assert np.all(inc.real[~pos] == 0) and np.all(inc.imag[~pos] > 0)


def test_integrate_rejects_bad_config():
    with pytest.raises(ValueError):
        integrate_sqrt(GRID, 0, SqrtParams(), 1)
    with pytest.raises(ValueError):
        integrate_sqrt(GRID, 2, SqrtParams(mu0=1.5, beta=0.5), 1)


def test_integrate_other_scale_uses_scalar_step():
    p = SqrtParams(mu0=1.5)
    ens = integrate_sqrt(TimeGrid(DT, 32), 2, p, master_seed=6)
    w = sample_wiener(TimeGrid(DT, 32), make_rng(SeedSpec(6, 1)))
    np.testing.assert_array_equal(
        ens.increments[1], sqrt_step_scalar(w.dw, DT, p, phi_half(w))
    )


def test_ensemble_shape_validation():
    with pytest.raises(ValueError):
        ComplexPathEnsemble(GRID, np.zeros((2, 3), complex))


def test_csv_roundtrip_and_summary(tmp_path):
    grid = TimeGrid(DT, 8)
    ens = integrate_sqrt(grid, 3, SqrtParams(), master_seed=14)
    path = tmp_path / "ens.csv"
    rows = ensemble_to_csv(ens, path, header_lines=["probe=1"])
    assert rows == 24
    lines = path.read_text().splitlines()
    assert lines[0] == "# probe=1"
    assert lines[1] == "path_index,step_index,re,im"
    first = lines[2].split(",")
    assert int(first[0]) == 0 and int(first[1]) == 0
    assert complex(float(first[2]), float(first[3])) == ens.increments[0, 0]

    gz = tmp_path / "ens.csv.gz"
    ensemble_to_csv(ens, gz, max_paths=2)
    import gzip

    with gzip.open(gz, "rt") as fh:
        assert sum(1 for _ in fh) == 1 + 16  # header + 2 paths * 8 steps


# Digests of the square-root ensembles, computed before the per-path loops
# were merged; every bracket and scale must keep them.  300 rows of 64 steps
# span more than one step block.
GOLDEN_GRID = TimeGrid(DT, 64)
GOLDEN_DIGESTS = {
    (0.5, 0.0): "1e437ec3e8cbe21b4dba3032a6bfeef6b6d0aea11aecce1cd8cd02288c8ff2ca",
    (0.5, 0.7): "b19563fb069b91599ce967365f8750f7efed08684b747b56003f4ca143098e37",
    (0.7, 0.0): "c1767f1ffb78ddb49202fa107c1a3d5ac7db85cde541bddcf6c89cdadceb9121",
    (-1.3, 0.0): "3223071f6ba59b8f254bcdadc4155e7a48e016eb64320647f799038ca606097b",
}


@pytest.mark.parametrize("case", list(GOLDEN_DIGESTS), ids=str)
def test_golden_sqrt_digests(case):
    ens = integrate_sqrt(GOLDEN_GRID, 300, SqrtParams(*case), 7)
    assert ensemble_digest(ens) == "sha256:" + GOLDEN_DIGESTS[case]


def _reference_step(dw, dt, params, phi):
    """The step formulas as written before the steps took out=, with new
    temporaries for every term: the bits each form of the steps must give."""
    if params.mu0 == 0.5:
        sgn = np.where(dw >= 0, 1.0, -1.0)
        return (0.5 + np.abs(dw) + (-1.0 + params.beta * sgn) * dt) * phi
    mu0 = params.mu0
    return (mu0 + np.abs(dw) / (2 * mu0) - dt / (8 * mu0**3)) * phi


# signed zeros, subnormals and large moduli besides arbitrary finite draws
_EDGE_INCREMENTS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7e308]


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_INCREMENTS),
        min_size=1, max_size=64,
    ),
    case=st.sampled_from(list(GOLDEN_DIGESTS)),
)
def test_steps_and_phase_into_out_give_the_same_bits(values, case):
    params = SqrtParams(*case)
    step = sqrt_step_drifted if params.mu0 == 0.5 else sqrt_step_scalar
    dw = np.array(values)
    w = WienerIncrements(TimeGrid(DT, len(dw)), dw)

    phi = phi_half(w)
    phase = np.full(dw.shape, np.nan + 0j)  # what an earlier block left behind
    assert phi_half(w, out=phase) is phase
    assert phase.tobytes() == phi.tobytes() == np.where(dw >= 0, 1.0 + 0.0j, 1.0j).tobytes()

    inc = step(dw, DT, params, phi)
    out = np.full(dw.shape, np.nan + 0j)
    assert step(dw, DT, params, phi, out=out) is out
    assert out.tobytes() == inc.tobytes() == _reference_step(dw, DT, params, phi).tobytes()


@pytest.mark.parametrize("case", list(GOLDEN_DIGESTS), ids=str)
def test_integrate_sqrt_last_block_partial(case):
    # 1000 steps: 16 rows a block, so 19 rows end on a block of 3
    params = SqrtParams(*case)
    step = sqrt_step_drifted if params.mu0 == 0.5 else sqrt_step_scalar
    blocks = list(row_blocks(19, GRID.n_steps))
    assert len(blocks) == 2 and blocks[-1].stop - blocks[-1].start == 3
    ens = integrate_sqrt(GRID, 19, params, master_seed=4)
    for p in range(19):
        w = sample_wiener(GRID, make_rng(SeedSpec(4, p)))
        expected = _reference_step(w.dw, DT, params, phi_half(w))
        assert ens.increments[p].tobytes() == expected.tobytes(), p
    assert ens.terminal_values.tobytes() == cumulative_paths(ens.increments)[:, -1].tobytes()


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated (numpy reports its
    buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_integrate_sqrt_holds_no_whole_drawn_dw():
    # 4000 paths x 500 steps: 32 MB of complex increments; a whole drawn dw
    # would add 16 MB beside them, one drawn row block adds 128 kB
    ens, peak = _traced_peak(integrate_sqrt, TimeGrid(DT, 500), 4000, SqrtParams(), 3)
    dw_bytes = 4000 * 500 * 8
    assert peak < ens.increments.nbytes + dw_bytes / 4


def test_wiener_ensemble_transforms_in_place():
    ens, peak = _traced_peak(wiener_ensemble, TimeGrid(DT, 500), 4000, 3)
    assert peak < ens.dw.nbytes + ens.dw.nbytes / 4
