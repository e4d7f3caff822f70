"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with `pytest tests/test_acceptance.py
-v -s` to see them).

Every tolerance is pinned here, not configurable.  Criteria:

1. algebraic exactness (phase squares, sign reconstruction, Pauli algebra,
   embedded square to 1e-10 over 100 seeded 1000-step paths), < 10 s
2. scalar-square shift artifact bounded by a fitted C * dt, < 5 s
3. reference-table reproduction at the 20000 x 1000 protocol, < 60 s
4. two-point structure of the coin-toss stream at 1e6 draws, < 5 s
5. Wick identity (function level to 1e-10, empirical level as Gaussian fits
   with R^2 > 0.99 and a shifted center), < 30 s
6. PDE verification: heat mode to 1e-6, second-order self-convergence,
   per-step mass conservation to 1e-8, < 60 s
7. bit-identical digests across reruns and worker counts
"""

import json
import time

import numpy as np
import pytest

import sqrtwiener as sw
from sqrtwiener.cli import main as cli_main
from sqrtwiener.stats import TAG_PAPER_REPORTED

DT = 0.001
PROTOCOL_GRID = sw.TimeGrid(DT, 1000)
I2 = np.eye(2, dtype=complex)


class _Timer:
    def __init__(self, criterion: str, budget: float):
        self.criterion, self.budget = criterion, budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.criterion} PASS ({elapsed:.1f}s / budget {self.budget:.0f}s)")
            assert elapsed < self.budget, f"criterion {self.criterion} exceeded runtime budget"
        else:
            print(f"\nACCEPTANCE {self.criterion} FAIL ({elapsed:.1f}s)")
        return False


def test_criterion_1_algebraic_exactness():
    with _Timer("1 (algebraic exactness)", 10.0):
        # Pauli anticommutation {s_a, s_b} = 2 delta_ab I, exact
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                ac = sw.anticommutator(sw.pauli(a), sw.pauli(b))
                expected = 2 * I2 if a == b else np.zeros((2, 2), complex)
                assert np.array_equal(ac, expected)

        mu0 = 0.5
        for seed in range(100):
            w = sw.sample_wiener(PROTOCOL_GRID, sw.make_rng(sw.SeedSpec(seed, 0)))
            sgn = sw.sign_of(w)
            mod = sw.abs_of(w)
            phi = sw.phi_half(w)

            # phi^2 = B and (phi_half)^2 = sgn(dW), exactly
            assert np.array_equal(sw.phi_from_bernoulli(sgn) ** 2, sgn.astype(complex))
            assert np.array_equal(phi * phi, sgn.astype(complex))
            # |dW| * sgn(dW) = dW, bit-exact
            assert (mod * sgn).tobytes() == w.dw.tobytes()

            # embedded square = dw * I to 1e-10 per step over the full path
            amp = sw.embedding_scalar(w.dw, mu0)
            mats = sw.embed_sqrt_increment(amp, mu0, phi)
            squares = np.einsum("kij,kjl->kil", mats, mats)
            err = np.abs(squares - w.dw[:, None, None] * I2).max()
            assert err <= 1e-10, f"seed {seed}: embedded square error {err:.2e}"


def test_criterion_2_scalar_shift_artifact():
    with _Timer("2 (scalar-square shift bounded by C*dt)", 5.0):
        params = sw.SqrtParams()

        def max_residual(dt: float, seeds: range) -> float:
            grid = sw.TimeGrid(dt, 1000)
            worst = 0.0
            for seed in seeds:
                w = sw.sample_wiener(grid, sw.make_rng(sw.SeedSpec(seed, 0)))
                phi = sw.phi_half(w)
                step = sw.sqrt_step_scalar(w.dw, dt, params, phi)
                sgn = np.where(w.dw >= 0, 1.0, -1.0)
                resid = np.abs(step**2 - (params.mu0**2 * sgn + w.dw))
                worst = max(worst, resid.max())
            return worst

        fitted_c = max_residual(DT, range(50)) / DT
        print(f"\n  fitted C = {fitted_c:.2f}: |(scalar dX)^2 - dW - mu0^2 sgn(dW)| <= C*dt")
        # the bound, with margin, holds on fresh seeds and at a finer step
        assert max_residual(DT, range(100, 150)) <= 1.5 * fitted_c * DT
        assert max_residual(DT / 2, range(200, 250)) <= 1.5 * fitted_c * (DT / 2)
        assert fitted_c < 100.0


def test_criterion_3_reference_table_reproduction():
    with _Timer("3 (reference table at the 20000 x 1000 protocol)", 60.0):
        params = sw.SqrtParams(mu0=0.5, beta=0.0)
        wiener = sw.wiener_ensemble(PROTOCOL_GRID, 20000, master_seed=2026)
        brownian = sw.table1_statistics(wiener, params)
        del wiener
        sqrt_ens = sw.integrate_sqrt(PROTOCOL_GRID, 20000, params, master_seed=2026)
        table = sw.Table1Stats(brownian, sw.table1_statistics(sqrt_ens, params))

        bro = table.by_tag("brownian", TAG_PAPER_REPORTED)
        assert abs(bro.mean.value.real - 0.0) <= 0.012
        assert abs(bro.pseudo_variance.value.real - 1 / 6) <= 0.005
        print(f"\n  brownian temporal mean {bro.mean.value.real:+.5f} (|.| <= 0.012)")
        print(f"  brownian temporal variance {bro.pseudo_variance.value.real:.5f} (1/6 +- 0.005)")

        sq = table.by_tag("square_root", TAG_PAPER_REPORTED)
        assert abs(sq.mean.value.real - 0.5) <= 0.05
        assert abs(sq.mean.value.imag - 0.5) <= 0.05
        pv = sq.pseudo_variance.value
        assert abs(pv.real) <= 0.01
        assert pv.imag < 0 and 0.2 <= abs(pv.imag) <= 0.3
        print(f"  square-root mean {sq.mean.value.real:.4f}+{sq.mean.value.imag:.4f}i (0.5 +- 0.05 each)")
        print(f"  square-root variance {pv.real:+.5f}{pv.imag:+.5f}i (re +-0.01, im in -[0.2,0.3])")


def test_criterion_4_coin_toss_structure():
    with _Timer("4 (coin-toss mean and pseudo-variance at 1e6 draws)", 5.0):
        # exact two-point oracle: mean (1+i)/2, pseudo-variance -i/2
        grid = sw.TimeGrid(DT, 1000)
        rng = sw.make_rng(sw.SeedSpec(404, 0))
        phis = np.concatenate([sw.phi_half(sw.sample_wiener(grid, rng)) for _ in range(1000)])
        assert phis.size == 10**6

        mean = sw.complex_mean(phis)
        assert abs(mean.value.real - 0.5) <= 3 * mean.stderr.real
        assert abs(mean.value.imag - 0.5) <= 3 * mean.stderr.imag

        pv = sw.complex_pseudo_variance(phis)
        assert abs(pv.value.real - 0.0) <= 3 * pv.stderr.real
        assert abs(pv.value.imag - (-0.5)) <= 3 * pv.stderr.imag
        print(f"\n  mean {mean.value:.4f} vs (1+i)/2, pvar {pv.value:.4f} vs -i/2")


def test_criterion_5_wick_identity():
    with _Timer("5 (Wick identity, function and empirical level)", 30.0):
        rng = np.random.default_rng(55)
        x = rng.uniform(-5, 5, 10000)
        t = rng.uniform(0.5, 2.0, 10000)
        worst = max(
            abs(sw.wick_rotate_kernel(xi, ti) - sw.heat_kernel(xi, ti))
            for xi, ti in zip(x, t)
        )
        assert worst <= 1e-10
        print(f"\n  max |rotated - heat| over 1e4 random points: {worst:.2e}")

        params = sw.SqrtParams()
        wiener = sw.wiener_ensemble(PROTOCOL_GRID, 20000, master_seed=77)
        sqrt_ens = sw.integrate_sqrt(PROTOCOL_GRID, 20000, params, master_seed=77)

        heat_fit = sw.gaussian_fit(
            sw.build_histogram(wiener.values()[:, -1], normalization="density")
        )
        assert heat_fit.r_squared > 0.99
        assert abs(heat_fit.center) < 0.05

        rotated = sw.wick_rotate_samples(sw.square_samples(sqrt_ens.terminal_values))
        assert np.all(rotated > 0)
        sq_fit = sw.gaussian_fit(sw.build_histogram(rotated, normalization="density"))
        assert sq_fit.r_squared > 0.99
        # the rotated square-root histogram is centered far from zero
        assert abs(sq_fit.center) > 5 * sq_fit.sigma
        print(f"  heat-side fit R^2 {heat_fit.r_squared:.4f}; rotated-side R^2 "
              f"{sq_fit.r_squared:.4f}, center {sq_fit.center:.0f} ({sq_fit.center / sq_fit.sigma:.1f} sigma)")


def test_criterion_6_pde_verification():
    with _Timer("6 (complex diffusion equation verification)", 60.0):
        # heat mode against the analytic solution
        heat_p = sw.FPParams(drift=0.0, diffusion=1.0)
        x = np.linspace(-12, 12, 4097)
        init = sw.GridFunction(-12, 12, sw.fp_analytic_solution(x, 0.25, heat_p))
        final = sw.fp_evolve(init, heat_p, 0.25 / 500, 500)
        heat_err = np.abs(final.values - sw.fp_analytic_solution(x, 0.5, heat_p)).max()
        assert heat_err <= 1e-6

        # complex-coefficient mode: second-order self-convergence
        p = sw.FPParams(drift=0.0, diffusion=-0.25j)
        profiles = []
        for n, steps in ((1025, 125), (2049, 250), (4097, 500)):
            xs = np.linspace(-15, 15, n)
            g0 = sw.GridFunction(-15, 15, sw.gaussian_packet(xs, 0.0, 0.3, p))
            profiles.append(sw.fp_evolve(g0, p, 0.5 / steps, steps).values)
        e01 = np.abs(profiles[0] - profiles[1][::2]).max()
        e12 = np.abs(profiles[1] - profiles[2][::2]).max()
        ratio = e01 / e12
        assert ratio == pytest.approx(4.0, abs=0.5)

        # per-step mass conservation at complex D
        xs = np.linspace(-15, 15, 2049)
        g = sw.GridFunction(-15, 15, sw.gaussian_packet(xs, 0.0, 0.3, p))
        masses = [sw.grid_integral(g)]
        for _ in range(100):
            g = sw.fp_evolve(g, p, 0.002, 1)
            masses.append(sw.grid_integral(g))
        drift = np.abs(np.diff(np.array(masses))).max()
        assert drift <= 1e-8
        print(f"\n  heat-mode Linf {heat_err:.2e}; refinement ratio {ratio:.2f}; "
              f"mass drift {drift:.1e}/step")


def test_distribution_shapes_qualitative():
    # trailing acceptance note: the distributions of per-path means and
    # per-path pseudo-variances of the square-root increments are unimodal
    # and approximately normal; qualitative only, no curve digitization
    with _Timer("appendix (per-path mean/variance distribution shapes)", 30.0):
        ens = sw.integrate_sqrt(PROTOCOL_GRID, 20000, sw.SqrtParams(), master_seed=808)
        z = ens.increments
        path_means = z.mean(axis=1)
        centered = z - path_means[:, None]
        path_pvars = (centered * centered).sum(axis=1) / (z.shape[1] - 1)

        components = {
            "mean.re": path_means.real,
            "mean.im": path_means.imag,
            "pvar.re": path_pvars.real,
            "pvar.im": path_pvars.imag,
        }
        for label, series in components.items():
            hist = sw.build_histogram(series, normalization="density")
            fit = sw.gaussian_fit(hist)
            assert fit.r_squared > 0.9, f"{label}: R^2 {fit.r_squared:.3f}"
            # unimodal: the occupancy peak is a single interior bin
            peak = int(np.argmax(hist.counts))
            assert 0 < peak < len(hist.counts) - 1, f"{label}: boundary peak"
        print("\n  per-path mean/pvar component histograms: unimodal, near-normal")


def test_criterion_7_determinism(tmp_path):
    with _Timer("7 (digest determinism across runs and workers)", 30.0):
        digests, csvs = [], []
        for name, threads in (("a", "1"), ("b", "2"), ("c", "1")):
            out = tmp_path / name
            code = cli_main([
                "simulate", "--paths", "200", "--steps", "100", "--seed", "99",
                "--threads", threads, "--output", str(out),
            ])
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            digests.append(manifest["increment_digest"])
            csvs.append((out / "ensemble.csv").read_bytes())
        assert digests[0] == digests[1] == digests[2]
        assert csvs[0] == csvs[1] == csvs[2]
        print(f"\n  increment digest stable: {digests[0][:23]}...")
