"""Span tracing around the public functions of every `bisphere` layer.

`Tracer` swaps each public function of the layer modules for a timing
wrapper in every `bisphere` namespace that holds it, so calls between
modules are seen too, and restores the originals on exit. Spans stay in
memory as per-name totals; `layer_metrics` turns one round's totals into
the benchmark's per-layer metrics.

Run as a script it wraps one CLI invocation:

    python3 bench/spans.py SPANS.json -- capacitance --r1 1 --r2 2 --eps 0.05

which runs `bisphere.cli` in-process under the tracer and writes the totals
to SPANS.json. Spans inside the process pool of `--jobs N` are not
collected.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("geometry", "specfun", "capacitance", "spectra", "fields", "scattering", "cli")

# the CLI commands of the cli_session workload, one metric each
CLI_LABELS = (
    "capacitance",
    "capacitance_deep",
    "resonances",
    "resonances_grid",
    "blowup",
    "field",
    "scattering",
    "sweep",
)

# (metric, unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = (
    ("geometry.frame_from_pair.ms", "ms"),
    ("geometry.to_bispherical.ms", "ms"),
    ("specfun.digamma_series_tail.ms", "ms"),
    ("specfun.digamma_series_tail.calls", "count"),
    ("import.bisphere_cli.ms", "ms"),
    ("import.scipy_special.ms", "ms"),
    ("capacitance.capacitance_exact.ms", "ms"),
    ("capacitance.capacitance_exact.terms", "count"),
    ("capacitance.sigma_terms.ms", "ms"),
    ("capacitance.capacitance_asymptotic_rescaled.ms", "ms"),
    ("spectra.eigen.ms", "ms"),
    ("spectra.resonant_frequencies.ms", "ms"),
    ("spectra.resonance_asymptotic.ms", "ms"),
    ("scattering.response_curve.ms", "ms"),
    ("scattering.response_curve.us_per_omega", "us"),
    ("fields.potential_series.ms", "ms"),
    ("fields.potential_series.terms", "count"),
    ("fields.max_gap_gradient.ms", "ms"),
    ("fields.blowup_study.ms", "ms"),
    ("fields.blowup_study.other_ms", "ms"),
    ("fields.eval_potential.ms", "ms"),
    ("fields.eval_grad_mode.ms", "ms"),
    ("fields.kernel_terms", "count"),
    *((f"cli.{label}.ms", "ms") for label in CLI_LABELS),
    ("oracle.check_s", "s"),
    ("trace.overhead_pct", "%"),
)

# golden-section refinement in max_gap_gradient: two starting probes plus at
# most 60 iterations, each probe one axis pass per potential
_GOLDEN_PROBES = 62
# surface sweep of one blow-up cell: two spheres, two potentials, 400 angles
_SURFACE_POINTS = 2 * 2 * 400

# spans whose time blowup_study.other_ms leaves out
_BLOWUP_PARTS = (
    "capacitance.capacitance_exact",
    "fields.potential_series",
    "fields.max_gap_gradient",
)


class Tracer:
    """Per-name call totals of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        mods = {n: m for n, m in sys.modules.items() if n.startswith("bisphere")}
        for layer in LAYERS:
            mod = mods.get(f"bisphere.{layer}")
            if mod is None:
                continue
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for holder in mods.values():
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, attr, wrapped)
                            self._patched.append((holder, attr, fn))
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]  # name, time of the blow-up parts inside it
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
            tracer._record(name, dt, frame[1], args, kwargs, result)
            return result

        return wrapper

    def _inside(self, name: str) -> list | None:
        for frame in reversed(self._stack):
            if frame[0] == name:
                return frame
        return None

    def _record(self, name, dt, parts, args, kwargs, result) -> None:
        t = self.totals
        t[f"{name}.ms"] += dt * 1e3
        t[f"{name}.calls"] += 1
        blowup = self._inside("fields.blowup_study")
        if name in _BLOWUP_PARTS and blowup is not None:
            blowup[1] += dt
        if name == "fields.blowup_study":
            t["fields.blowup_study.other_ms"] += (dt - parts) * 1e3
        elif name == "capacitance.capacitance_exact":
            t[f"{name}.terms"] += result.n_terms
        elif name == "fields.potential_series":
            t[f"{name}.terms"] += result.n_max
            if blowup is not None:
                t["fields.kernel_terms"] += (result.n_max + 1) * _SURFACE_POINTS
        elif name == "fields.max_gap_gradient":
            ps = args[2] if len(args) > 2 else kwargs["ps"]
            samples = args[3] if len(args) > 3 else kwargs.get("samples", 400)
            per_pass = ps.n_max + 1
            t["fields.kernel_terms"] += per_pass * 2 * (samples + 2 * _GOLDEN_PROBES)
        elif name in ("fields.eval_potential", "fields.eval_grad_potential"):
            t["fields.kernel_terms"] += args[0].n_max + 1
        elif name in ("fields.eval_grad_mode", "fields.eval_mode"):
            t["fields.kernel_terms"] += 2 * (args[2].n_max + 1)
        elif name == "scattering.response_curve":
            t["scattering.response_curve.omegas"] += len(args[3])


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one round from its span totals.

    A layer the round never entered reads 0.
    """
    out = {}
    for name, _ in PER_LAYER:
        out[name] = float(totals.get(name, 0.0))
    omegas = totals.get("scattering.response_curve.omegas", 0.0)
    out["scattering.response_curve.us_per_omega"] = (
        1e3 * totals.get("scattering.response_curve.ms", 0.0) / omegas if omegas else 0.0
    )
    return out


def _main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: spans.py SPANS.json -- <bisphere cli arguments>")
    import bisphere.cli as cli

    tracer = Tracer()
    try:
        with tracer:
            return cli.run(cli_args)
    finally:
        Path(spans_path).write_text(json.dumps(dict(tracer.totals)))


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
