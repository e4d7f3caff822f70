"""Pauli algebra exactness and the anticommuting embedding theorem."""

import numpy as np
import pytest

from sqrtwiener import (
    SeedSpec,
    TimeGrid,
    anticommutator,
    embed_sqrt_increment,
    embedding_scalar,
    make_rng,
    pauli,
    phi_half,
    sample_wiener,
    sign_of,
)

I2 = np.eye(2, dtype=complex)


def test_pauli_standard_convention():
    np.testing.assert_array_equal(pauli(3), np.diag([1.0 + 0j, -1.0 + 0j]))
    np.testing.assert_array_equal(pauli(1), np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_array_equal(pauli(2), np.array([[0, -1j], [1j, 0]]))


@pytest.mark.parametrize("idx", [1, 2, 3])
def test_pauli_squares_to_identity_exactly(idx):
    s = pauli(idx)
    np.testing.assert_array_equal(s @ s, I2)


@pytest.mark.parametrize("idx", [0, 4, -1])
def test_pauli_index_out_of_range(idx):
    with pytest.raises(ValueError):
        pauli(idx)


def test_anticommutation_relations_all_pairs():
    # {sigma_a, sigma_b} = 2 delta_ab I, exactly
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            ac = anticommutator(pauli(a), pauli(b))
            expected = 2 * I2 if a == b else np.zeros((2, 2), dtype=complex)
            np.testing.assert_array_equal(ac, expected)


def test_anticommutator_with_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(anticommutator(I2, x), 2 * x, atol=1e-15)


def test_matrix_arithmetic_assoc_distrib():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        np.testing.assert_allclose((a @ b) @ c, a @ (b @ c), atol=1e-12)
        np.testing.assert_allclose(a @ (b + c), a @ b + a @ c, atol=1e-12)


def test_pair_requires_distinct_indices():
    with pytest.raises(ValueError, match="must differ"):
        embed_sqrt_increment(0.5, 0.5, 1.0 + 0j, i_idx=2, k_idx=2)
    for i, k in ((0, 1), (1, 4)):
        with pytest.raises(ValueError, match="Pauli index"):
            embed_sqrt_increment(0.5, 0.5, 1.0 + 0j, i_idx=i, k_idx=k)


def test_embed_symmetric_cancellation_case():
    # amplitude mu0 at dw = 0, dt = 0: the square collapses to the zero matrix
    m = embed_sqrt_increment(0.5, 0.5, 1.0 + 0j)
    np.testing.assert_allclose(m @ m, np.zeros((2, 2)), atol=1e-16)


def test_embed_square_recovers_increment():
    # frozen example: dw=0.04, mu0=0.5; exact amplitude sqrt(0.29) gives
    # square = dw * I to machine accuracy
    a = embedding_scalar(0.04, 0.5)
    assert a == pytest.approx(np.sqrt(0.29), abs=0)
    m = embed_sqrt_increment(a, 0.5, 1.0 + 0j)
    np.testing.assert_allclose(m @ m, 0.04 * I2, atol=1e-12)


def test_embed_square_negative_increment():
    a = embedding_scalar(-0.03, 0.5)
    m = embed_sqrt_increment(a, 0.5, 1j)
    np.testing.assert_allclose(m @ m, -0.03 * I2, atol=1e-12)


def test_embed_validates_phi_and_mu0():
    with pytest.raises(ValueError):
        embed_sqrt_increment(0.5, 0.5, 0.5 + 0.5j)
    with pytest.raises(ValueError):
        embed_sqrt_increment(0.5, 0.0, 1.0 + 0j)
    with pytest.raises(ValueError):
        embedding_scalar(0.1, 0.0)


def test_embedding_theorem_full_paths():
    # For every step of seeded 1000-step paths: embedded square = dw * I to
    # 1e-10 while the scalar square is exactly mu0^2 sgn + dw -- the
    # embedding removes the shift term and nothing else.
    grid = TimeGrid(0.001, 1000)
    mu0 = 0.5
    for seed in range(3):
        w = sample_wiener(grid, make_rng(SeedSpec(seed, 0)))
        phi = phi_half(w)
        sgn = sign_of(w)
        amp = embedding_scalar(w.dw, mu0)

        mats = embed_sqrt_increment(amp, mu0, phi)
        squares = np.einsum("kij,kjl->kil", mats, mats)
        target = w.dw[:, None, None] * I2
        assert np.abs(squares - target).max() < 1e-10

        scalar_sq = (amp * phi) ** 2
        np.testing.assert_allclose(scalar_sq, mu0**2 * sgn + w.dw, atol=1e-12)


def test_embedding_pair_independent():
    # any distinct Pauli pair gives the same squared result; phi follows the
    # sign of the increment
    for dw, phi in ((0.02, 1.0 + 0j), (-0.02, 1j)):
        a = embedding_scalar(dw, 0.5)
        for i, k in ((1, 2), (1, 3), (2, 3), (3, 1)):
            m = embed_sqrt_increment(a, 0.5, phi, i_idx=i, k_idx=k)
            np.testing.assert_allclose(m @ m, dw * I2, atol=1e-12)

