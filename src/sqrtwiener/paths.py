"""Driving randomness and the elementary per-step processes.

Everything downstream is built from a seeded stream of Wiener increments
dW ~ N(0, dt) and three sequences derived from it element-wise:

    sign        s[k]   = +1 if dw[k] >= 0 else -1   (so s[k]^2 = 1)
    modulus     |dw[k]|                              (|dw| * s == dw, bitwise)
    unit phase  phi[k] in {1, i}: 1 where s[k] = +1, i where s[k] = -1

The tie-break sign(0) := +1 is fixed so that runs are bit-reproducible; the
event has probability zero for continuous draws anyway.

Reproducibility contract: every path owns a counter-based Philox stream
keyed directly by (master_seed, path_index), and every increment consumes
exactly one uniform draw mapped through the inverse normal CDF
(scipy.special.ndtri, imported by the first draw of a process).  Streams are
therefore independent across paths and bit-stable across platforms, path
order and the thread that maps them.  draw_blocks is the one loop that keys
and draws these streams.  The calling thread keys each row with one make_rng
call, re-keying one generator, and fills 1 MiB of uniforms at a time; a
Helper thread maps each such hand-off to normals in place (_to_normal, which
sample_wiener shares) while the caller fills the next, with at most two
hand-offs in flight.  wiener_ensemble copies the blocks into its
increments, and integrate_sqrt in process brackets them into its own, so no
whole drawn dw is held beside an output.  Helper is the one way the package
runs work on another thread: the draw's maps, and process's digests.

Every pass over a whole ensemble walks it in the row blocks of row_blocks,
so its temporaries are set by one block, not by n_paths x n_steps.
"""

from __future__ import annotations

import contextvars
import queue
import threading
from contextlib import closing
from dataclasses import dataclass
from functools import cache
from typing import Iterator

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "RNG_NAME",
    "DRAW_THREADS",
    "Helper",
    "TimeGrid",
    "SeedSpec",
    "WienerIncrements",
    "WienerEnsemble",
    "make_rng",
    "row_blocks",
    "block_scratch",
    "cumulative_paths",
    "cumulative_terminal",
    "sample_wiener",
    "sign_of",
    "abs_of",
    "phi_from_bernoulli",
    "phi_half",
    "draw_blocks",
    "wiener_ensemble",
]

# Generator algorithm label recorded in run manifests.  Philox (4x64) is
# counter-based, so a (master_seed, path_index) key pins the whole stream.
RNG_NAME = "philox4x64-invnorm"

_UINT64_MAX = 2**64 - 1

# Uniform draws are clipped away from 0 before the inverse CDF so the normal
# draw stays finite (random() can return exactly 0.0 with probability 2^-53).
_U_FLOOR = 2.0**-53


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [0, n_steps*dt]."""

    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible path stream.

    The generator state is a pure function of (master_seed, path_index):
    identical inputs give bit-identical increment streams.
    """

    master_seed: int
    path_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.master_seed) <= _UINT64_MAX:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if not 0 <= int(self.path_index) <= _UINT64_MAX:
            raise ValueError("path_index must fit in an unsigned 64-bit integer")


# Elements per row block of a pass over an ensemble (a block holds at least
# one row): bounds the temporaries of the pass by one block, and keeps
# integrate_sqrt's bracket in cache.
_BLOCK_ELEMENTS = 1 << 14


# A draw hands the helper thread about this many uniforms at a time (1 MiB
# of float64, 8 row blocks at 1000 steps), with at most _IN_FLIGHT hand-offs
# handed over and not yet read back.  Handing off single row blocks gains
# nothing: the helper keeps losing the GIL to the caller's per-row keying.
_HANDOFF_ELEMENTS = 1 << 17
_IN_FLIGHT = 2

# Threads a draw runs on: the calling thread and one helper.
DRAW_THREADS = 2


class Helper:
    """One daemon thread, started under the caller's context (so under its
    np.errstate), that runs the calls put(fn, *args) in order.

    get() returns the oldest pending call's result or raises its exception,
    which also ends the thread.  get() with no call pending, and put() once
    the thread has ended, raise ValueError rather than wait.  close() ends
    the thread and joins it.  Only the thread that made it calls these.
    """

    def __init__(self) -> None:
        self._todo, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._pending, self._ended = 0, False
        self._thread = threading.Thread(target=contextvars.copy_context().run,
                                        args=(self._serve,), daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        for fn, args in iter(self._todo.get, None):
            try:
                self._done.put((True, fn(*args)))
            except BaseException as exc:  # raised again by get
                return self._done.put((False, exc))
            del fn, args  # the reader may drop the result before the next call comes

    def put(self, fn, *args) -> None:
        if self._ended:
            raise ValueError("the helper thread has ended")
        self._todo.put((fn, args))
        self._pending += 1

    def get(self):
        if not self._pending:
            raise ValueError("no call is pending")
        self._pending -= 1
        ok, value = self._done.get()
        if not ok:
            self._pending, self._ended = 0, True
            raise value
        return value

    def close(self) -> None:
        self._todo.put(None)
        self._thread.join()
        self._pending, self._ended = 0, True


def _rows_per_block(n_cols: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(1, n_cols))


def row_blocks(n_rows: int, n_cols: int) -> Iterator[slice]:
    """Slices of consecutive rows of an (n_rows, n_cols) array, about
    _BLOCK_ELEMENTS elements each, made as they are read."""
    step = _rows_per_block(n_cols)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def block_scratch(n_rows: int, n_cols: int, dtype) -> np.ndarray:
    """An uninitialised buffer that holds any row block of row_blocks(n_rows,
    n_cols): a pass that writes each block's temporaries into views of it
    allocates once, whatever the state of the heap."""
    return np.empty((min(n_rows, _rows_per_block(n_cols)), n_cols), dtype)


def cumulative_paths(increments: np.ndarray) -> np.ndarray:
    """Running sums along the last axis in step order, after a leading 0."""
    out = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,), increments.dtype)
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return out


def cumulative_terminal(increments: np.ndarray) -> np.ndarray:
    """cumulative_paths(increments)[:, -1] of a 2-D array, bit for bit,
    with only one row block's running sums alive at a time."""
    out = np.empty(increments.shape[0], increments.dtype)
    # the running sums do not depend on cumulative_paths' leading 0
    for block in row_blocks(*increments.shape):
        out[block] = np.cumsum(increments[block], axis=-1)[:, -1]
    return out


def make_rng(seed: SeedSpec, rng: Generator | None = None) -> Generator:
    """Counter-based generator for one path; streams for distinct
    (master_seed, path_index) pairs are independent by construction.

    Given a Philox-backed rng, re-keys it in place and returns it: its state
    becomes that of a freshly keyed generator (counter 0, empty output
    buffer), so it draws the same bits at a fraction of the cost of
    building a new generator, which first gathers OS entropy only for the
    key to override it.  draw_blocks keys every row through here, once per
    row, so the benchmark's count of make_rng calls stays the count of
    streams.
    """
    if rng is None:
        key = np.array([seed.master_seed, seed.path_index], dtype=np.uint64)
        return Generator(Philox(key=key))
    # plain lists: the state setter reads them faster than uint64 arrays
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [seed.master_seed, seed.path_index]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


@dataclass(frozen=True)
class WienerIncrements:
    """One path of Wiener increments dw[k] ~ N(0, dt) on a time grid."""

    grid: TimeGrid
    dw: np.ndarray

    def __post_init__(self) -> None:
        if self.dw.shape != (self.grid.n_steps,):
            raise ValueError(
                f"dw has shape {self.dw.shape}, expected ({self.grid.n_steps},)"
            )


@cache
def _ndtri():
    """scipy.special.ndtri, imported by the first draw of a process and
    kept: importing scipy.special adds about 26 MiB to a process's peak RSS,
    and fpsolve draws nothing."""
    from scipy.special import ndtri

    return ndtri


def _to_normal(u: np.ndarray, dt: float) -> np.ndarray:
    """Map uniform draws u to N(0, dt) increments in place; returns u."""
    np.maximum(u, _U_FLOOR, out=u)
    _ndtri()(u, out=u)
    u *= np.sqrt(dt)
    return u


def sample_wiener(grid: TimeGrid, rng: Generator) -> WienerIncrements:
    """Draw n_steps increments, each centered normal with variance dt.

    One uniform draw per increment (inverse-CDF transform, no rejection
    loop), so the raw stream position after k increments is always k.
    """
    return WienerIncrements(grid, _to_normal(rng.random(grid.n_steps), grid.dt))


def sign_of(w: WienerIncrements | WienerEnsemble) -> np.ndarray:
    """Element-wise sign sequence, +1.0 where dw >= 0 and -1.0 otherwise."""
    return np.where(w.dw >= 0, 1.0, -1.0)


def abs_of(w: WienerIncrements) -> np.ndarray:
    """Element-wise modulus |dw|."""
    return np.abs(w.dw)


def phi_from_bernoulli(b: np.ndarray) -> np.ndarray:
    """Map a +-1 Bernoulli sequence b to the two-outcome phase process

        phi = (1 + b)/2 + i (1 - b)/2

    so b = +1 gives exactly 1+0i and b = -1 gives exactly 0+1i, and
    phi**2 == b holds exactly in floating point.
    """
    b = np.asarray(b)
    if not np.all((b == 1) | (b == -1)):
        raise ValueError("Bernoulli sequence must contain only +1 and -1")
    return (1 + b) / 2 + 1j * (1 - b) / 2


def phi_half(w: WienerIncrements | WienerEnsemble, out: np.ndarray | None = None) -> np.ndarray:
    """Coin-toss phase sequence of the increments: 1 where dw >= 0, i where
    dw < 0, element-wise over a path or an ensemble.  Satisfies
    phi**2 == sign_of(w) exactly.  out, a complex128 array of dw's shape,
    receives the phase when given."""
    if out is None:
        out = np.empty(w.dw.shape, np.complex128)
    # 1+0j or 0+1j, without a branch per element
    np.greater_equal(w.dw, 0, out=out.real)
    np.subtract(1.0, out.real, out=out.imag)
    return out


@dataclass(frozen=True)
class WienerEnsemble:
    """n_paths independent Wiener paths; row p is the stream of
    SeedSpec(master_seed, path_index=p)."""

    grid: TimeGrid
    dw: np.ndarray  # shape (n_paths, n_steps)

    def __post_init__(self) -> None:
        if self.dw.ndim != 2 or self.dw.shape[1] != self.grid.n_steps:
            raise ValueError(
                f"dw has shape {self.dw.shape}, expected (n_paths, {self.grid.n_steps})"
            )

    @property
    def n_paths(self) -> int:
        return self.dw.shape[0]

    def values(self) -> np.ndarray:
        """Cumulative paths, shape (n_paths, n_steps + 1), starting at 0."""
        return cumulative_paths(self.dw)


def _uniforms(rng: Generator, n_steps: int, master_seed: int, rows: slice) -> np.ndarray:
    """The uniforms of the streams SeedSpec(master_seed, p), p in rows, one
    row each, drawn by rng re-keyed per row."""
    u = np.empty((rows.stop - rows.start, n_steps))
    for p, row in zip(range(rows.start, rows.stop), u):
        make_rng(SeedSpec(master_seed, p), rng).random(out=row)
    return u


def _pipelined(grid: TimeGrid, n_rows: int, master_seed: int) -> Iterator[tuple[slice, np.ndarray]]:
    step = _rows_per_block(grid.n_steps)
    per_handoff = step * max(1, _HANDOFF_ELEMENTS // (step * grid.n_steps))
    lag = (_IN_FLIGHT - 1) * per_handoff  # rows handed over before the first is read
    rng = Generator(Philox(0))  # its seed is overwritten by every row's key
    with closing(Helper()) as helper:
        for lo in range(0, n_rows + lag, per_handoff):
            if lo < n_rows:
                rows = slice(lo, min(lo + per_handoff, n_rows))
                helper.put(_to_normal, _uniforms(rng, grid.n_steps, master_seed, rows), grid.dt)
            if lo >= lag:  # read back the hand-off whose first row is lo - lag
                dw = helper.get()
                for block in row_blocks(*dw.shape):
                    yield slice(lo - lag + block.start, lo - lag + block.stop), dw[block]
                del dw  # a reader that drops its last block frees it before the next fill


def draw_blocks(
    grid: TimeGrid, n_rows: int, master_seed: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, dw) for each row block of row_blocks over (n_rows, n_steps):
    dw holds the increments of the streams SeedSpec(master_seed, p) for p in
    rows, row p - rows.start being stream p.

    This is the one loop that keys a stream per row.  The arguments are
    checked here, before any block is drawn.  The helper thread starts when
    the first block is read, under the caller's context as it is then, and
    is joined when the blocks end, the iterator is closed or either thread
    raises; an exception raised on the helper is raised to the reader.
    Each yielded dw is a view of its own hand-off's array, valid after the
    reader moves on; a reader that drops it before reading the next holds
    no hand-off beyond the two in flight.
    """
    if n_rows < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_rows}")
    SeedSpec(master_seed)  # range check
    return _pipelined(grid, n_rows, master_seed)


def serial_only(workers: int) -> None:
    """Refuse any worker count but 1.  The keyword remains only because the
    benchmark's replay passes workers=1; ROADMAP item 1(b) deletes it."""
    if workers != 1:
        raise ValueError(f"workers must be 1 (draws are serial), got {workers!r}")


def wiener_ensemble(
    grid: TimeGrid, n_paths: int, master_seed: int, workers: int = 1
) -> WienerEnsemble:
    """n_paths independent Wiener paths, row p copied from stream p's block."""
    serial_only(workers)
    blocks = draw_blocks(grid, n_paths, master_seed)
    dw = np.empty((n_paths, grid.n_steps))
    with closing(blocks):
        for rows, block in blocks:
            dw[rows] = block
            del block  # holds its hand-off while the next one is filled
    return WienerEnsemble(grid, dw)
