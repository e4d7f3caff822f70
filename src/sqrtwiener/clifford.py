"""Minimal 2x2 complex matrix algebra: Pauli matrices and the anticommuting
embedding of one process step.

The embedding maps a one-step amplitude a and unit phase phi in {1, i} to

    M = sigma_i * (a * phi) + i * sigma_k * (mu0 * phi),   i != k,

whose square collapses to (a^2 - mu0^2) * phi^2 * I because the cross terms
carry {sigma_i, sigma_k} = 0.  With the exact amplitude a = sqrt(mu0^2 + |dw|)
the square is dw * I: the driving increment is recovered with no shift term,
unlike the plain scalar square which keeps mu0^2 * sign(dw).  Any two
distinct Pauli matrices anticommute, so every choice of (i, k) gives the same
square.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pauli",
    "anticommutator",
    "embedding_scalar",
    "embed_sqrt_increment",
]

_PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(index: int) -> np.ndarray:
    """Standard Pauli matrix sigma_1, sigma_2 or sigma_3."""
    if index not in _PAULI:
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {index}")
    return _PAULI[index].copy()


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{a, b} = a b + b a."""
    return a @ b + b @ a


def embedding_scalar(dw, mu0: float):
    """Exact one-step amplitude a = sqrt(mu0^2 + |dw|).

    Squaring gives a^2 = mu0^2 + |dw| exactly (to rounding), so the embedded
    matrix squares to dw * I and the plain scalar square is
    mu0^2 * sign(dw) + dw.  The Euler step bracket used for simulation is the
    O(dt) truncation of this amplitude under the substitution |dw|^2 -> dt.
    """
    if mu0 == 0:
        raise ValueError("mu0 must be nonzero")
    return np.sqrt(mu0 * mu0 + np.abs(dw))


def embed_sqrt_increment(
    scalar_part,
    mu0: float,
    phi,
    i_idx: int = 1,
    k_idx: int = 2,
) -> np.ndarray:
    """Embed one step (or a vector of steps) into the matrix algebra.

    Returns sigma_i * scalar_part * phi + i * sigma_k * mu0 * phi.  Scalar
    inputs give a (2, 2) matrix; arrays of shape (n,) give (n, 2, 2).

    phi entries must be exactly 1 or i, mu0 nonzero and the Pauli indices
    distinct, otherwise the squared identity has no meaning.
    """
    if mu0 == 0:
        raise ValueError("mu0 must be nonzero")
    phi = np.asarray(phi)
    if not np.all((phi == 1) | (phi == 1j)):
        raise ValueError("phi entries must be exactly 1 or i")
    if i_idx == k_idx:
        raise ValueError(
            f"Pauli indices must differ (got {i_idx} twice); equal indices "
            "do not anticommute and the cross terms would not cancel"
        )
    left, right = pauli(i_idx), pauli(k_idx)
    a = np.asarray(np.asarray(scalar_part) * phi)
    b = np.asarray(mu0 * phi)
    return a[..., None, None] * left + 1j * b[..., None, None] * right
