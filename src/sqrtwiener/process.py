"""Euler-Maruyama integration of the complex square-root process.

Scalar step at scale mu0 != 0:

    dX = (mu0 + |dw|/(2 mu0) - dt/(8 mu0^3)) * phi

Drifted step, derived at mu0 = 1/2 with drift constant beta:

    dX = (1/2 + |dw| + (-1 + beta*sign(dw)) * dt) * phi

with phi in {1, i} tied to sign(dw) (see paths.phi_half).  At beta = 0 the two
coincide exactly.  The full bracket, including its O(dt) terms, is applied
every step; squaring a scalar step therefore reproduces mu0^2*sign(dw) + dw
only up to O(dt) residuals, while the Clifford-embedded form with the exact
amplitude (clifford module) removes the shift identically.

integrate_sqrt draws its increments through paths.draw_blocks, the one loop
that keys a Philox stream per row, and brackets each row block straight into
its output as it is drawn, so no whole drawn dw is held; the bracket is
element-wise, so the bits do not depend on the blocks.  The steps and
paths.phi_half take an optional out=: each block's phase goes into one
buffer allocated per call, and its amplitude is built in the real part of
the block's own rows of the output and multiplied by the phase in place.
So the bracket allocates nothing per block, and its cost does not depend on
whether the allocator kept the pages of the block before.
Ensembles store only their increments; cumulative values are computed on
read.  Every CSV goes through write_csv, every digest through array_digest,
and every output file is written as .NAME.PID.tmp (spelled here only) and
renamed into place.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .paths import (
    TimeGrid,
    WienerEnsemble,
    block_scratch,
    cumulative_paths,
    cumulative_terminal,
    draw_blocks,
    phi_half,
    serial_only,
)

__all__ = [
    "SqrtParams",
    "ComplexPathEnsemble",
    "sqrt_step_scalar",
    "sqrt_step_drifted",
    "integrate_sqrt",
    "array_digest",
    "ensemble_digest",
    "replaced_atomically",
    "temporary_target",
    "write_csv",
    "column_blocks",
    "ensemble_to_csv",
]


@dataclass(frozen=True)
class SqrtParams:
    """Scale factor mu0 (nonzero) and drift constant beta.

    Defaults are the values under which the drifted step and the reference
    Monte Carlo protocol are stated: mu0 = 1/2, beta = 0.
    """

    mu0: float = 0.5
    beta: float = 0.0

    def __post_init__(self) -> None:
        if self.mu0 == 0 or not np.isfinite(self.mu0):
            raise ValueError(f"mu0 must be nonzero and finite, got {self.mu0}")
        if not np.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")


def _amplitude_buffer(dw, phi, out):
    """out, or a new complex128 array of dw and phi broadcast together: a
    step builds its float amplitude in out.real and then multiplies by phi
    in place (_times_phase), so with out given it allocates nothing."""
    if out is None:
        return np.empty(np.broadcast_shapes(np.shape(dw), np.shape(phi)), np.complex128)
    return out


def _times_phase(amplitude: np.ndarray, phi, new: bool):
    """The amplitude held in amplitude.real, times phi, in amplitude.

    With the imaginary part +0 this is the complex product numpy forms for a
    float array times a complex one, so the bits are the same.  A new result
    of shape () is returned as a numpy scalar, as that arithmetic returns it."""
    amplitude.imag = 0.0
    np.multiply(amplitude, phi, out=amplitude)
    return amplitude[()] if new else amplitude


def sqrt_step_scalar(dw, dt: float, params: SqrtParams, phi, out=None):
    """Undrifted square-root increment(s) at scale mu0.

    phi must be the coin-toss phase of the same dw (1 where dw >= 0, i
    otherwise); integrate_sqrt guarantees this pairing.  out, a complex128
    array of the broadcast shape, receives the increments when given.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    mu0 = params.mu0
    product = _amplitude_buffer(dw, phi, out)
    amplitude = product.real
    np.abs(dw, out=amplitude)
    amplitude /= 2 * mu0
    amplitude += mu0
    amplitude -= dt / (8 * mu0**3)
    return _times_phase(product, phi, out is None)


def sqrt_step_drifted(dw, dt: float, params: SqrtParams, phi, out=None):
    """Drifted square-root increment(s); only derived at mu0 = 1/2.

    Reduces exactly to sqrt_step_scalar at beta = 0.  out as for
    sqrt_step_scalar.
    """
    if params.mu0 != 0.5:
        raise ValueError(
            f"the drifted step is only derived at mu0 = 1/2 (got mu0 = {params.mu0}); "
            "use sqrt_step_scalar for other scales"
        )
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    product = _amplitude_buffer(dw, phi, out)
    amplitude, term = product.real, product.imag
    np.abs(dw, out=amplitude)
    amplitude += 0.5
    # (-1 + beta*sign(dw))*dt takes two values (beta*(+-1.0) is exact), one
    # when beta = 0
    up, down = (-1.0 + params.beta) * dt, (-1.0 - params.beta) * dt
    if up == down:
        amplitude += up
    else:
        np.copyto(term, down)
        np.copyto(term, up, where=np.asarray(dw) >= 0)
        amplitude += term
    return _times_phase(product, phi, out is None)


@dataclass(frozen=True)
class ComplexPathEnsemble:
    """n_paths complex paths, stored as their per-step increments only.

    values, the cumulative paths, is computed on each read: values[:, 0] is
    0 and values[:, k+1] - values[:, k] recovers increments[:, k] up to one
    rounding of the running sum (~1 ulp of the cumulative value); all
    statistics are computed from the increments.  terminal_values, the last
    column of values, is summed one row block at a time and never builds
    values.
    """

    grid: TimeGrid
    increments: np.ndarray  # (n_paths, n_steps) complex128

    def __post_init__(self) -> None:
        _, n = self.increments.shape
        if n != self.grid.n_steps:
            raise ValueError(
                f"increments have {n} steps, grid has {self.grid.n_steps}"
            )

    @classmethod
    def from_increments(cls, grid: TimeGrid, increments: np.ndarray) -> "ComplexPathEnsemble":
        return cls(grid, increments)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def values(self) -> np.ndarray:
        """Cumulative paths, shape (n_paths, n_steps + 1), starting at 0."""
        return cumulative_paths(self.increments)

    @property
    def terminal_values(self) -> np.ndarray:
        """values[:, -1], bit for bit, at the memory of one row block."""
        return cumulative_terminal(self.increments)


def integrate_sqrt(
    grid: TimeGrid,
    n_paths: int,
    params: SqrtParams,
    master_seed: int,
    workers: int = 1,
) -> ComplexPathEnsemble:
    """Integrate the square-root process over an ensemble of paths.

    Path p consumes the Wiener stream of SeedSpec(master_seed, p) -- the same
    stream wiener_ensemble(grid, n_paths, master_seed) row p is built from, so
    paired Wiener/square-root ensembles share their driving noise.  The result
    is a pure function of (grid, n_paths, params, master_seed).  workers
    must be 1 (paths.serial_only).
    """
    serial_only(workers)
    if params.beta != 0.0 and params.mu0 != 0.5:
        raise ValueError(
            "beta != 0 requires mu0 = 1/2 (the drifted step is only derived there)"
        )
    step = sqrt_step_drifted if params.mu0 == 0.5 else sqrt_step_scalar
    blocks = draw_blocks(grid, n_paths, master_seed)
    inc = np.empty((n_paths, grid.n_steps), dtype=np.complex128)
    phase = block_scratch(n_paths, grid.n_steps, np.complex128)
    for rows, dw in blocks:
        phi = phi_half(WienerEnsemble(grid, dw), out=phase[: len(dw)])
        step(dw, grid.dt, params, phi, out=inc[rows])
    return ComplexPathEnsemble(grid, inc)


def array_digest(arr: np.ndarray) -> str:
    """SHA-256 digest of an array's C-order bytes, as 'sha256:<hex>'."""
    return "sha256:" + hashlib.sha256(np.ascontiguousarray(arr)).hexdigest()


def ensemble_digest(ensemble) -> str:
    """SHA-256 digest of the raw increment stream (C-order bytes).

    Accepts a ComplexPathEnsemble or a WienerEnsemble; equal configurations
    give equal digests, which is the regression-pinning contract.
    """
    arr = getattr(ensemble, "increments", None)
    return array_digest(ensemble.dw if arr is None else arr)


# the temporary name .NAME.PID.tmp replaced_atomically gives NAME
_TEMPORARY = re.compile(r"\.(.+)\.\d+\.tmp")


def temporary_target(file_name: str) -> str | None:
    """NAME if file_name is the temporary name of NAME in any process."""
    match = _TEMPORARY.fullmatch(file_name)
    return match.group(1) if match else None


@contextmanager
def replaced_atomically(path) -> Iterator[str]:
    """Yield a temporary path beside path.  When the body returns, the
    temporary file replaces path in one os.replace; when it raises, the
    temporary file is deleted and path keeps its earlier contents."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(
    path,
    comments: Sequence[str],
    header: str,
    row_template: str,
    blocks: Iterable[Sequence],
) -> int:
    """Write '# ' comment lines, a header line, then rows.

    Each block is a flat sequence of values, row after row, formatted with
    one %-operation of row_template repeated once per row.  The file is
    gzipped when path ends with '.gz', deflated at level 1, the fastest:
    level 9 took most of a large export's time for a file only about 10%
    smaller, and the decompressed bytes are the same at every level.  The
    file replaces path only once it is complete.  Returns the number of rows
    written.
    """
    width = row_template.count("%")
    rows = 0
    with replaced_atomically(path) as tmp, open(tmp, "wb") as raw:
        binary = raw
        if str(path).endswith(".gz"):
            # the gzip header names the final file, not the temporary one, and
            # records no write time, so equal rows give equal bytes
            binary = gzip.GzipFile(
                os.path.basename(path), "wb", compresslevel=1, fileobj=raw, mtime=0
            )
        with io.TextIOWrapper(binary, newline="") as fh:
            fh.writelines(f"# {line}\n" for line in comments)
            fh.write(header + "\n")
            for block in blocks:
                n = len(block) // width
                fh.write(row_template * n % tuple(block))
                rows += n
    return rows


# Most rows a column_blocks block holds: bounds the values and formatted text
# held at once, whatever the length of the columns.
_CSV_BLOCK_ROWS = 1024


def column_blocks(columns: Sequence[np.ndarray]) -> Iterable[list]:
    """write_csv blocks of equal-length numeric columns, read row by row."""
    table = np.column_stack(columns)
    return (
        table[lo:lo + _CSV_BLOCK_ROWS].ravel().tolist()
        for lo in range(0, len(table), _CSV_BLOCK_ROWS)
    )


def ensemble_to_csv(
    ensemble: ComplexPathEnsemble,
    path,
    max_paths: int | None = None,
    header_lines: Sequence[str] = (),
) -> int:
    """Write increments as CSV rows (path_index, step_index, re, im).

    max_paths down-samples to the first paths only.  header_lines are emitted
    as leading '#' comments (used to reference the run manifest).  The writer
    transparently gzips when path ends with '.gz'.  Returns rows written.
    """
    m = ensemble.n_paths if max_paths is None else min(max_paths, ensemble.n_paths)
    n = ensemble.grid.n_steps
    steps, inc = np.arange(n), ensemble.increments
    blocks = (
        block
        for p in range(m)
        for block in column_blocks([np.full(n, p), steps, inc[p].real, inc[p].imag])
    )
    return write_csv(
        path, header_lines, "path_index,step_index,re,im", "%d,%d,%.17g,%.17g\n", blocks
    )

