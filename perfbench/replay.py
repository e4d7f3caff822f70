"""Traced in-process replay of one CLI invocation, and the per-layer metrics.

The layers are the package modules paths, process, stats and kernels (cli
on top; clifford is called by no subcommand).  The traced pass runs
``sqrtwiener.cli.main`` in this process with a span around every call of the
public layer functions listed in CLI_LAYERS, so the calls, their order and
their arguments are exactly the subcommand's, at its default worker count.
The spans are kept in memory.  After the pass:

* each draw call of the pass (wiener_ensemble, integrate_sqrt) is made again
  with workers=1, counting the keyed Philox streams, for the pool speed-up;
* the per-path loop inside those draws is replayed here, call by call
  (make_rng, sample_wiener, phi_half, sqrt_step_*), and its ensembles must
  reproduce the run's digests, or the trace is invalid;
* an ensemble written as .csv.gz is written again as plain .csv, which
  splits CSV formatting from gzip.

A layer that did not run on a workload reports 0.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sqrtwiener.cli
from sqrtwiener import kernels, paths, process, stats
from sqrtwiener.paths import SeedSpec, WienerEnsemble, make_rng, phi_half, sample_wiener
from sqrtwiener.process import ComplexPathEnsemble, ensemble_digest, sqrt_step_drifted, sqrt_step_scalar

MiB = 2**20


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; a span's parent is the span open when it began."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        s = Span(name, 0.0, parent=self._open[-1] if self._open else -1)
        self.spans.append(s)
        self._open.append(index)
        try:
            s.start = time.perf_counter()
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller, inside the currently open span."""
        self.spans.append(Span(name, start, end, self._open[-1] if self._open else -1))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def totals(self) -> dict[str, float]:
        """Seconds per span name, not counting a span nested in another of
        the same name (gaussian_fit calls fit_gaussian_curve)."""
        out: dict[str, float] = {}
        for s in self.spans:
            if not self._inside(s, s.name):
                out[s.name] = out.get(s.name, 0.0) + s.seconds
        return out

    def _inside(self, s: Span, name: str) -> bool:
        p = s.parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    @property
    def root_s(self) -> float:
        return self.spans[0].seconds

    def self_seconds(self, index: int) -> float:
        """A span's duration minus the part its direct children cover."""
        children = sum(s.seconds for s in self.spans if s.parent == index)
        return self.spans[index].seconds - children


def _draw_info(args: dict, result) -> dict:
    arrays = (result.dw,) if isinstance(result, WienerEnsemble) else (result.increments, result.values)
    return {"args": args, "bytes": sum(a.nbytes for a in arrays)}


def _digest_info(args: dict, result) -> dict:
    ens = args["ensemble"]
    arr = getattr(ens, "increments", None)
    return {"bytes": (ens.dw if arr is None else arr).nbytes}


def _csv_info(args: dict, result) -> dict:
    return {"args": args, "rows": result}


# Public layer functions the subcommands call, the span each call records,
# and what the span keeps of the call (arguments kept are small, except the
# ensemble of a CSV write, which the replay writes again).
CLI_LAYERS = [
    (paths, "wiener_ensemble", "paths.wiener_ensemble", _draw_info),
    (process, "integrate_sqrt", "process.integrate_sqrt", _draw_info),
    (process, "ensemble_digest", "process.digest", _digest_info),
    (process, "ensemble_to_csv", "process.csv_write", _csv_info),
    (stats, "table1_statistics", "stats.table1_statistics", None),
    (stats, "pooled_complex_mean", "stats.pooled_complex_mean", None),
    (stats, "pooled_pseudo_variance", "stats.pooled_pseudo_variance", None),
    (stats, "build_histogram", "stats.histogram", None),
    (stats, "gaussian_fit", "stats.gaussian_fit", None),
    (stats, "fit_gaussian_curve", "stats.gaussian_fit", None),
    (kernels, "schrodinger_kernel", "kernels.curves", None),
    (kernels, "heat_kernel", "kernels.curves", None),
    (kernels, "wick_rotate_kernel", "kernels.curves", None),
    (kernels, "schrodinger_samples", "kernels.curves", None),
    (kernels, "wick_rotate_samples", "kernels.curves", None),
    (kernels, "square_samples", "kernels.square_samples", None),
    (kernels, "fp_evolve", "kernels.fp_evolve", lambda args, result: {"n_steps": args["n_steps"]}),
    (kernels, "grid_integral", "kernels.grid_integral", None),
]

DRAWS = ("paths.wiener_ensemble", "process.integrate_sqrt")


def _spanned(tracer: Tracer, fn, name: str, note):
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
        if note is not None:
            s.info = note(signature.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


@contextlib.contextmanager
def patched(replacements):
    """Bind each (module, name) to a replacement in every sqrtwiener module
    that imported the original, and restore them all afterwards."""
    undo = []
    try:
        for module, name, make in replacements:
            original = getattr(module, name)
            replacement = make(original)
            for mod in list(sys.modules.values()):
                if mod.__name__.startswith("sqrtwiener") and getattr(mod, name, None) is original:
                    setattr(mod, name, replacement)
                    undo.append((mod, name, original))
        yield
    finally:
        for mod, name, original in reversed(undo):
            setattr(mod, name, original)


def traced_cli(argv: list[str], stdout_file: Path) -> tuple[Tracer, int]:
    """Run the CLI in this process with a span around each layer call."""
    tracer = Tracer()
    replacements = [
        (module, attr, lambda fn, name=name, note=note: _spanned(tracer, fn, name, note))
        for module, attr, name, note in CLI_LAYERS
    ]
    with patched(replacements), open(stdout_file, "w") as fh, contextlib.redirect_stdout(fh):
        with tracer.span("cli"):
            code = sqrtwiener.cli.main(argv)
    return tracer, code


def _replay_wiener(tracer: Tracer, grid, n_paths: int, master_seed: int, **_) -> WienerEnsemble:
    dw = np.empty((n_paths, grid.n_steps))
    clock = time.perf_counter
    for p in range(n_paths):
        t0 = clock()
        rng = make_rng(SeedSpec(master_seed, p))
        t1 = clock()
        w = sample_wiener(grid, rng)
        t2 = clock()
        dw[p] = w.dw
        tracer.record("paths.make_rng", t0, t1)
        tracer.record("paths.sample_wiener", t1, t2)
    return WienerEnsemble(grid, dw)


def _replay_sqrt(tracer: Tracer, grid, n_paths: int, params, master_seed: int, **_) -> ComplexPathEnsemble:
    # the step integrate_sqrt takes: the drifted form is only derived at mu0 = 1/2
    step = sqrt_step_drifted if params.mu0 == 0.5 else sqrt_step_scalar
    inc = np.empty((n_paths, grid.n_steps), dtype=np.complex128)
    clock = time.perf_counter
    for p in range(n_paths):
        t0 = clock()
        rng = make_rng(SeedSpec(master_seed, p))
        t1 = clock()
        w = sample_wiener(grid, rng)
        t2 = clock()
        phi = phi_half(w)
        t3 = clock()
        inc[p] = step(w.dw, grid.dt, params, phi)
        t4 = clock()
        tracer.record("paths.make_rng", t0, t1)
        tracer.record("paths.sample_wiener", t1, t2)
        tracer.record("paths.phi_half", t2, t3)
        tracer.record("process.step", t3, t4)
    with tracer.span("process.cumsum"):
        return ComplexPathEnsemble.from_increments(grid, inc)


REPLAYS = {"paths.wiener_ensemble": _replay_wiener, "process.integrate_sqrt": _replay_sqrt}
FUNCTIONS = {"paths.wiener_ensemble": paths.wiener_ensemble,
             "process.integrate_sqrt": process.integrate_sqrt}


def _counting(counter: list[int]):
    def make(fn):
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)
        return wrapper
    return make


def _replay_draws(tracer: Tracer, manifest: dict) -> tuple[dict, list[str]]:
    """Serial and per-path replays of the pass's draw calls, with digest checks."""
    problems: list[str] = []
    streams = [0]
    serial_s = {name: 0.0 for name in DRAWS}
    n_paths = 0
    for call in [s for s in tracer.spans if s.name in DRAWS]:
        args = dict(call.info["args"], workers=1)
        n_paths = max(n_paths, args["n_paths"])
        with patched([(paths, "make_rng", _counting(streams))]):
            start = time.perf_counter()
            ens = FUNCTIONS[call.name](**args)
            serial_s[call.name] += time.perf_counter() - start
        serial_digest = ensemble_digest(ens)
        del ens

        with tracer.span("replay." + call.name):
            ens = REPLAYS[call.name](tracer, **args)
        digest = ensemble_digest(ens)
        del ens
        if digest != serial_digest:
            problems.append(f"per-path replay of {call.name} gives {digest}, "
                            f"the library at workers=1 gives {serial_digest}")
        if call.name == "process.integrate_sqrt" and digest != manifest["increment_digest"]:
            problems.append(f"per-path replay gives {digest}, the CLI's manifest "
                            f"has increment_digest {manifest['increment_digest']}")
        if call.name == "paths.wiener_ensemble" and manifest.get("wiener_digest", digest) != digest:
            problems.append(f"per-path replay gives {digest}, the CLI's manifest "
                            f"has wiener_digest {manifest['wiener_digest']}")

    metrics = {
        "paths.streams_drawn": (streams[0], "count"),
        "paths.streams_per_path": (streams[0] / n_paths if n_paths else 0.0, "ratio"),
        "paths.wiener_ensemble_serial_s": (serial_s["paths.wiener_ensemble"], "s"),
        "process.integrate_sqrt_serial_s": (serial_s["process.integrate_sqrt"], "s"),
    }
    return metrics, problems


def _replay_csv(tracer: Tracer, scratch: Path) -> dict:
    """Split the CLI's gzipped CSV write into formatting and compression."""
    csv_s = gz_s = csv_bytes = gz_bytes = rows = 0
    for call in tracer.named("process.csv_write"):
        args = call.info.pop("args")  # drops the ensemble once written again
        rows += call.info["rows"]
        target = Path(args["path"])
        if target.suffix != ".gz":
            csv_s += call.seconds
            csv_bytes += target.stat().st_size
            continue
        gz_s += call.seconds
        gz_bytes += target.stat().st_size
        plain = scratch / "replay_ensemble.csv"
        start = time.perf_counter()
        process.ensemble_to_csv(args["ensemble"], plain, args.get("max_paths"),
                                args.get("header_lines", ()))
        csv_s += time.perf_counter() - start
        csv_bytes += plain.stat().st_size
        plain.unlink()
    return {
        "process.csv_s": (csv_s, "s"),
        "process.csv_gz_s": (gz_s, "s"),
        "process.gzip_s": (gz_s - csv_s if gz_s else 0.0, "s"),
        "process.csv_rows": (rows, "count"),
        "process.csv_mb": (csv_bytes / MiB, "MiB"),
        "process.csv_gz_mb": (gz_bytes / MiB, "MiB"),
    }


def _cn_metrics(tracer: Tracer) -> dict:
    calls = tracer.named("kernels.fp_evolve")
    per_step = [s.seconds / s.info["n_steps"] for s in calls]
    return {
        "kernels.fp_evolve_calls": (len(calls), "count"),
        "kernels.cn_steps": (sum(s.info["n_steps"] for s in calls), "count"),
        "kernels.cn_step_s": (float(np.median(per_step)) if per_step else 0.0, "s"),
        "kernels.cn_step_p99_s": (float(np.percentile(per_step, 99)) if per_step else 0.0, "s"),
    }


# Spans whose total time is the metric <span name>_s.
TIMED = (
    "paths.wiener_ensemble", "process.integrate_sqrt", "process.digest",
    "stats.table1_statistics", "stats.pooled_complex_mean", "stats.pooled_pseudo_variance",
    "stats.histogram", "stats.gaussian_fit", "kernels.curves", "kernels.square_samples",
    "kernels.fp_evolve", "kernels.grid_integral",
    # per-path replay
    "paths.make_rng", "paths.sample_wiener", "paths.phi_half", "process.step", "process.cumsum",
)


def layer_metrics(tracer: Tracer, scratch: Path, manifest: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced pass, as {name: (value, unit)}, and the
    problems found while replaying it (any problem invalidates the trace).

    ``manifest`` is the untraced CLI run's, at the same workload and seed.
    """
    draws = [s for s in tracer.spans if s.name in DRAWS]
    metrics = {
        "process.digest_mb": (sum(s.info["bytes"] for s in tracer.named("process.digest")) / MiB,
                              "MiB"),
        # the subcommands hold every ensemble they draw until they return
        "process.ensemble_mb": (sum(s.info["bytes"] for s in draws) / MiB, "MiB"),
        "cli.self_s": (tracer.self_seconds(0), "s"),
        "cli.workers": (max((s.info["args"].get("workers", 1) for s in draws), default=1), "count"),
    }
    metrics.update(_cn_metrics(tracer))
    metrics.update(_replay_csv(tracer, scratch))
    draw_metrics, problems = _replay_draws(tracer, manifest)
    metrics.update(draw_metrics)

    totals = tracer.totals()
    metrics.update({name + "_s": (totals.get(name, 0.0), "s") for name in TIMED})
    pooled = totals.get("paths.wiener_ensemble", 0.0) + totals.get("process.integrate_sqrt", 0.0)
    serial = metrics["paths.wiener_ensemble_serial_s"][0] + metrics["process.integrate_sqrt_serial_s"][0]
    metrics["process.pool_speedup"] = (serial / pooled if pooled else 0.0, "ratio")
    return metrics, problems
