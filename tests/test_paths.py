"""Generator determinism, golden streams, and the element-wise identities of
the sign / modulus / unit-phase sequences."""

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtwiener import (
    SeedSpec,
    SqrtParams,
    TimeGrid,
    WienerIncrements,
    abs_of,
    integrate_sqrt,
    make_rng,
    phi_from_bernoulli,
    phi_half,
    sample_wiener,
    sign_of,
    wiener_ensemble,
)
from sqrtwiener import paths

DT = 0.001

# first uniforms of the (master_seed=42, path_index=0) stream, frozen from a
# one-off run of the keyed Philox generator
GOLDEN_U42_0 = [
    0.8201981478608876,
    0.18924562408645496,
    0.8676608148821462,
    0.3945814702827203,
    0.36812845090913937,
    0.4344462539595917,
]


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(-1e-3, 10)
    with pytest.raises(ValueError):
        TimeGrid(1e-3, 0)


def test_seed_spec_range():
    SeedSpec(2**64 - 1, 0)
    with pytest.raises(ValueError):
        SeedSpec(2**64, 0)
    with pytest.raises(ValueError):
        SeedSpec(1, -1)


def test_same_seed_identical_streams():
    a = make_rng(SeedSpec(42, 0)).random(64)
    b = make_rng(SeedSpec(42, 0)).random(64)
    assert a.tobytes() == b.tobytes()


def test_golden_uniform_stream():
    u = make_rng(SeedSpec(42, 0)).random(6)
    assert u.tolist() == GOLDEN_U42_0


def test_distinct_streams_differ():
    u0 = make_rng(SeedSpec(42, 0)).random(16)
    u1 = make_rng(SeedSpec(42, 1)).random(16)
    u2 = make_rng(SeedSpec(43, 0)).random(16)
    assert np.all(u0 != u1)
    assert np.all(u0 != u2)


def test_golden_increment_csv():
    grid = TimeGrid(DT, 32)
    w = sample_wiener(grid, make_rng(SeedSpec(42, 0)))
    path = Path(__file__).parent / "data" / "golden_increments_seed42_path0.csv"
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    golden = np.array([float(r["dw"]) for r in rows])
    assert len(golden) == 32
    np.testing.assert_array_equal(w.dw, golden)


def test_wiener_increments_shape_checked():
    with pytest.raises(ValueError):
        WienerIncrements(TimeGrid(DT, 4), np.zeros(3))


def test_cumulative_starts_at_zero():
    grid = TimeGrid(DT, 100)
    w = sample_wiener(grid, make_rng(SeedSpec(5, 0)))
    path = paths.cumulative_paths(w.dw)
    assert path[0] == 0.0
    assert len(path) == 101
    np.testing.assert_allclose(np.diff(path), w.dw, atol=1e-18)


def test_cumulative_terminal_is_the_last_cumulative_column():
    # 601 rows x 256 steps: several row blocks, the last one partial
    dw = wiener_ensemble(TimeGrid(DT, 256), 601, master_seed=12).dw
    assert len(list(paths.row_blocks(*dw.shape))) > 1
    np.testing.assert_array_equal(
        paths.cumulative_terminal(dw), paths.cumulative_paths(dw)[:, -1]
    )


def test_sign_of_basic():
    grid = TimeGrid(DT, 3)
    w = WienerIncrements(grid, np.array([0.3, -0.2, 0.1]))
    np.testing.assert_array_equal(sign_of(w), [1.0, -1.0, 1.0])


def test_sign_zero_tie_break_positive():
    w = WienerIncrements(TimeGrid(DT, 1), np.array([0.0]))
    assert sign_of(w)[0] == 1.0


def test_abs_of_basic():
    w = WienerIncrements(TimeGrid(DT, 2), np.array([0.3, -0.2]))
    np.testing.assert_array_equal(abs_of(w), [0.3, 0.2])
    assert np.all(abs_of(w) >= 0)


@pytest.mark.parametrize("seed", [0, 1, 17, 2**63])
def test_reconstruction_bit_exact(seed):
    grid = TimeGrid(DT, 512)
    w = sample_wiener(grid, make_rng(SeedSpec(seed, 3)))
    rebuilt = abs_of(w) * sign_of(w)
    assert rebuilt.tobytes() == w.dw.tobytes()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_reconstruction_for_arbitrary_increments(values):
    # sign * modulus rebuilds any finite increment sequence except that
    # -0.0 maps to +0.0 under the documented tie-break
    grid = TimeGrid(DT, len(values))
    w = WienerIncrements(grid, np.array(values))
    rebuilt = abs_of(w) * sign_of(w)
    np.testing.assert_array_equal(rebuilt, np.abs(w.dw) * np.where(w.dw >= 0, 1, -1))
    assert np.all(rebuilt == w.dw)


def test_phi_from_bernoulli_exact_outcomes():
    phi = phi_from_bernoulli(np.array([1.0, -1.0]))
    assert phi[0] == 1 + 0j
    assert phi[1] == 0 + 1j


def test_phi_from_bernoulli_rejects_other_values():
    with pytest.raises(ValueError):
        phi_from_bernoulli(np.array([1.0, 0.5]))


@given(st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=256))
@settings(max_examples=200, deadline=None)
def test_phi_squared_equals_bernoulli_exactly(signs):
    b = np.array(signs)
    phi = phi_from_bernoulli(b)
    assert np.all((phi == 1) | (phi == 1j))
    np.testing.assert_array_equal(phi * phi, b.astype(complex))


def test_phi_half_values_and_square():
    grid = TimeGrid(DT, 2)
    w = WienerIncrements(grid, np.array([0.5, -0.5]))
    phi = phi_half(w)
    assert phi[0] == 1 + 0j
    assert phi[1] == 0 + 1j
    np.testing.assert_array_equal(phi * phi, sign_of(w).astype(complex))


def test_phi_half_matches_closed_form():
    # phi = (1-i)/2 * sgn + (1+i)/2, evaluated exactly
    grid = TimeGrid(DT, 200)
    w = sample_wiener(grid, make_rng(SeedSpec(77, 0)))
    sgn = sign_of(w)
    closed = (1 - 1j) / 2 * sgn + (1 + 1j) / 2
    np.testing.assert_array_equal(phi_half(w), closed)


def test_phi_half_square_over_seeded_paths():
    grid = TimeGrid(DT, 1000)
    for seed in range(5):
        w = sample_wiener(grid, make_rng(SeedSpec(seed, 0)))
        phi = phi_half(w)
        assert np.all((phi == 1) | (phi == 1j))
        np.testing.assert_array_equal(phi * phi, sign_of(w).astype(complex))


def test_half_normal_modulus_mean():
    # E|dw| = sqrt(2 dt / pi); brute-force check at 1e6 draws
    grid = TimeGrid(DT, 1000)
    rng = make_rng(SeedSpec(7, 0))
    total, n = 0.0, 0
    for _ in range(1000):
        total += np.abs(sample_wiener(grid, rng).dw).sum()
        n += grid.n_steps
    assert total / n == pytest.approx(np.sqrt(2 * DT / np.pi), abs=1e-4)


def test_ensemble_normal_law_at_protocol_size():
    # mean within 3 sigma of 0, variance within 2% of dt, terminal variance ~ T
    grid = TimeGrid(DT, 1000)
    ens = wiener_ensemble(grid, 20000, master_seed=11)
    n = ens.dw.size
    assert abs(ens.dw.mean()) < 3 * np.sqrt(DT) / np.sqrt(n)
    assert ens.dw.var() == pytest.approx(DT, rel=0.02)
    terminal = ens.values()[:, -1]
    assert terminal.var() == pytest.approx(1.0, abs=0.02)


def test_wiener_ensemble_matches_per_path_streams():
    grid = TimeGrid(DT, 64)
    ens = wiener_ensemble(grid, 5, master_seed=42)
    for p in range(5):
        w = sample_wiener(grid, make_rng(SeedSpec(42, p)))
        assert ens.dw[p].tobytes() == w.dw.tobytes()


def test_wiener_ensemble_worker_count_is_invisible():
    grid = TimeGrid(DT, 32)
    one = wiener_ensemble(grid, 9, master_seed=3, workers=1)
    two = wiener_ensemble(grid, 9, master_seed=3, workers=2)
    assert one.dw.tobytes() == two.dw.tobytes()


@pytest.fixture
def pools_started(monkeypatch):
    """The max_workers of every process pool draw_blocks starts, run
    serially in this process instead."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(paths, "ProcessPoolExecutor", RecordingPool)
    return started


def test_worker_count_capped_by_rows_and_cpus(monkeypatch, pools_started):
    started = pools_started
    monkeypatch.setattr(paths.os, "cpu_count", lambda: 3)
    grid = TimeGrid(DT, 16)
    serial = wiener_ensemble(grid, 50, master_seed=3, workers=1)
    assert started == []
    capped = wiener_ensemble(grid, 50, master_seed=3, workers=10_000)
    assert started == [3]
    assert capped.dw.tobytes() == serial.dw.tobytes()
    wiener_ensemble(grid, 2, master_seed=3, workers=10_000)
    assert started == [3, 2]
    monkeypatch.setattr(paths.os, "cpu_count", lambda: None)
    wiener_ensemble(grid, 50, master_seed=3, workers=10_000)
    assert started == [3, 2]


def test_cli_draws_serially_unless_threads_given(tmp_path, monkeypatch, pools_started):
    from sqrtwiener.cli import RunConfig, main

    monkeypatch.setattr(paths.os, "cpu_count", lambda: 4)
    assert RunConfig().workers == 1
    argv = ["simulate", "--paths", "50", "--steps", "16"]
    assert main(argv + ["--output", str(tmp_path / "serial")]) == 0
    assert pools_started == []
    assert main(argv + ["--threads", "2", "--output", str(tmp_path / "pool")]) == 0
    assert pools_started == [2]


def test_wiener_ensemble_rejects_empty():
    with pytest.raises(ValueError):
        wiener_ensemble(TimeGrid(DT, 4), 0, master_seed=1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "n_rows, n_steps",
    [(37, 1000), (3, paths._BLOCK_ELEMENTS + 5), (1, 64)],
    ids=["partial-last-block", "one-row-blocks", "single-row"],
)
def test_draw_blocks_equal_the_per_path_streams(monkeypatch, pools_started, n_rows, n_steps, workers):
    monkeypatch.setattr(paths.os, "cpu_count", lambda: 2)
    grid = TimeGrid(DT, n_steps)
    dw = wiener_ensemble(grid, n_rows, 9, workers=workers).dw
    for p in range(n_rows):
        assert dw[p].tobytes() == sample_wiener(grid, make_rng(SeedSpec(9, p))).dw.tobytes()
    # 37 rows of 1000 steps: blocks of 16, 16 and 5 rows; above the block
    # budget every block is one row
    blocks = [rows for rows, _ in paths.draw_blocks(grid, n_rows, 9, workers=workers)]
    assert blocks == list(paths.row_blocks(*dw.shape))
    assert len(blocks) == {37: 3, 3: 3, 1: 1}[n_rows]
    assert pools_started == ([2, 2] if workers == 2 and n_rows > 1 else [])


@pytest.mark.parametrize("n_rows, seed", [(0, 1), (-2, 1), (5, -1), (5, 2**64)])
def test_draw_arguments_are_checked_before_any_draw(monkeypatch, pools_started, n_rows, seed):
    monkeypatch.setattr(paths.os, "cpu_count", lambda: 2)
    keyed = []
    monkeypatch.setattr(paths, "make_rng", keyed.append)
    grid = TimeGrid(DT, 16)
    with pytest.raises(ValueError):
        paths.draw_blocks(grid, n_rows, seed, workers=2)  # not iterated
    with pytest.raises(ValueError):
        wiener_ensemble(grid, n_rows, seed, workers=2)
    with pytest.raises(ValueError):
        integrate_sqrt(grid, n_rows, SqrtParams(), seed, workers=2)
    assert keyed == [] and pools_started == []
