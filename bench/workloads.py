"""The four workloads: seeded inputs and one round of timed operations each.

A workload's `setup(seed, smoke)` builds its inputs (and, for the in-process
workloads, imports `bisphere` and warms its lazy imports); `run_round`
performs every operation once and returns one `Op` per operation. The
outputs go to `checks.py` after the timed phase. Inputs come from
`random.Random(seed)` and never move the settings that set the cost of a
round: the deepest gap of each workload, the pairs and the grid sizes are
fixed, and the seed only jitters interior gaps, points and frequency grids.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the material of the README examples: density and bulk-modulus contrast 1e-3
MATERIAL = dict(rho=1.0, rho_b=1e-3, kappa=1.0, kappa_b=1e-3)


@dataclass
class Op:
    label: str
    seconds: float
    ok: bool
    deep: bool = False
    output: object = None
    error: str = ""


@dataclass
class Inputs:
    items: list
    extra: dict = field(default_factory=dict)


def _jitter(rng: random.Random, value: float, decades: float) -> float:
    return value * 10.0 ** rng.uniform(-decades, decades)


def _timed(label, fn, *, deep=False) -> Op:
    """Time fn(); an exception marks the operation failed (checks.py judges it)."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # noqa: BLE001 - every failure is counted and checked
        return Op(label, time.perf_counter() - t0, False, deep, None, type(exc).__name__)
    return Op(label, time.perf_counter() - t0, True, deep, out)


def _warm_bisphere():
    """Import bisphere and bisphere.cli and run the mpmath branch once."""
    import bisphere
    import bisphere.cli  # noqa: F401

    bisphere.frame_from_pair(bisphere.ResonatorPair(1.0, 1.0, 1e-10))
    return bisphere


# --------------------------------------------------------------------------
# spectra_ladder


class SpectraLadder:
    """Capacitance, spectra and response cells along a gap ladder."""

    name = "spectra_ladder"
    pairs = ((1.0, 1.0), (1.0, 2.0), (0.5, 3.0))
    deep_eps = 1e-10
    # cells that need more terms than the series cap allows (TruncationCapError)
    failing = ((1.0, 2.0, 1e-13), (1.0, 2.0, 1e-14))
    n_omega = 200  # per resonance

    def setup(self, seed: int, smoke: bool) -> Inputs:
        rng = random.Random(seed)
        ks = (3, 30) if smoke else range(3, 31)  # eps = 10^(-k/3)
        pairs = self.pairs[:2] if smoke else self.pairs
        items = []
        for r1, r2 in pairs:
            for k in ks:
                eps = 10.0 ** (-k / 3.0)
                if k == 30:
                    eps = self.deep_eps
                elif k != 3:
                    eps = _jitter(rng, eps, 0.05)
                items.append((r1, r2, eps, rng.random()))
        items.extend((r1, r2, eps, 0.5) for r1, r2, eps in self.failing)
        return Inputs(items, {"n_omega": 40 if smoke else self.n_omega})

    def prepare(self):
        return _warm_bisphere()

    def run_round(self, bs, inputs: Inputs) -> list[Op]:
        import numpy as np

        mat = bs.Material(**MATERIAL)
        n = inputs.extra["n_omega"]

        def cell(r1, r2, eps, phase):
            pair = bs.ResonatorPair(r1, r2, eps)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                frame = bs.frame_from_pair(pair)
                cm = bs.capacitance_exact(frame, tol=1e-12)
                ct = bs.rescale(cm, pair)
                sp = bs.eigen(ct)
                fr = bs.resonant_frequencies(sp, mat)
                st = bs.sigma_terms(frame, pair)
                asym = bs.capacitance_asymptotic_rescaled(pair)
                ra = bs.resonance_asymptotic(pair, mat)
                offs = 0.1 * (2.0 * (np.arange(n) + phase) / n - 1.0)
                grid = np.concatenate([fr.omega1 * (1 + offs), fr.omega2 * (1 + offs)])
                rows = bs.response_curve(cm, pair, mat, grid, [0.0, 0.0, 1.0])
            return dict(
                c=(cm.c11, cm.c12, cm.c21, cm.c22),
                n_terms=cm.n_terms,
                tail_bound=cm.tail_bound,
                lam=(sp.lambda1, sp.lambda2),
                d=(sp.d1, sp.d2),
                omega=(fr.omega1, fr.omega2),
                sigma=(st.sigma1, st.sigma2),
                asym=(asym.ct11, asym.ct12, asym.ct21, asym.ct22),
                omega_asym=(ra.omega1, ra.omega2),
                rows=rows,
                warnings=len(caught),
            )

        return [
            _timed(
                "cell",
                lambda it=it: cell(*it),
                deep=it[2] == self.deep_eps,
            )
            for it in inputs.items
        ]


# --------------------------------------------------------------------------
# gap_blowup


class GapBlowup:
    """blowup_study over a shallow and a deep gap grid for two pairs."""

    name = "gap_blowup"
    pairs = ((1.0, 1.0), (1.0, 2.0))
    grids = ((1e-4, 1e-1), (1e-5, 1e-2))  # (deepest gap, widest gap); 4 points
    samples = 400
    tol = 1e-8

    def setup(self, seed: int, smoke: bool) -> Inputs:
        rng = random.Random(seed)
        pairs = self.pairs[:1] if smoke else self.pairs
        grids = self.grids[:1] if smoke else self.grids
        items = []
        for r1, r2 in pairs:
            for lo, hi in grids:
                mid = [_jitter(rng, lo * 10.0**k, 0.1) for k in (1, 2)]
                items.append(((r1, r2), [lo, *mid, hi], lo == grids[-1][0]))
        return Inputs(items, {"samples": 100 if smoke else self.samples})

    def prepare(self):
        return _warm_bisphere()

    def run_round(self, bs, inputs: Inputs) -> list[Op]:
        mat = bs.Material(**MATERIAL)
        samples = inputs.extra["samples"]

        def study(pair, grid):
            st = bs.blowup_study(pair, mat, grid, samples=samples, tol=self.tol, jobs=1)
            return dict(
                eps=[r.epsilon for r in st.rows],
                g1=[r.max_grad_u1 for r in st.rows],
                g2=[r.max_grad_u2 for r in st.rows],
                loc=[r.location.xi for r in st.rows],
                slope=(st.slope_u1, st.slope_u2),
            )

        return [
            _timed("study", lambda p=pair, g=grid: study(p, g), deep=deep)
            for pair, grid, deep in inputs.items
        ]


# --------------------------------------------------------------------------
# field_points


def gap_ends(r1: float, r2: float, eps: float) -> tuple[float, float]:
    """x3 of the two gap-facing poles, in the frame centred between the limit points."""
    dist = r1 + r2 + eps
    top = eps * (eps + 2.0 * r1) / (2.0 * dist)  # c2 - r2
    return top - eps, top


class FieldPoints:
    """Point-by-point potentials and mode gradients, as `bisphere field` does."""

    name = "field_points"
    pair = (1.0, 2.0)
    gaps = (1e-1, 1e-2, 1e-3)
    per_gap = 8  # half near the gap, half in the far exterior

    def setup(self, seed: int, smoke: bool) -> Inputs:
        rng = random.Random(seed)
        r1, r2 = self.pair
        per_gap = 2 if smoke else self.per_gap
        items = []
        for eps in self.gaps:
            lo, hi = gap_ends(r1, r2, eps)
            alpha = math.sqrt(eps * r1 * r2 / (r1 + r2))  # width of the gap region
            for i in range(per_gap):
                if i < per_gap // 2:
                    rho = alpha * rng.uniform(0.05, 1.5)
                    x3 = lo + (hi - lo) * rng.uniform(0.05, 0.95)
                else:
                    rho = rng.uniform(0.0, 4.0)
                    x3 = math.copysign(rng.uniform(5.0, 8.0), rng.random() - 0.5)
                phi = rng.uniform(0.0, 2.0 * math.pi)
                items.append((eps, (rho * math.cos(phi), rho * math.sin(phi), x3)))
        return Inputs(items)

    def prepare(self):
        return _warm_bisphere()

    def run_round(self, bs, inputs: Inputs) -> list[Op]:
        r1, r2 = self.pair
        built = {}
        for eps in self.gaps:
            pair = bs.ResonatorPair(r1, r2, eps)
            frame = bs.frame_from_pair(pair)
            ps = bs.potential_series(frame, tol=1e-10)
            sp = bs.eigen(bs.rescale(bs.capacitance_exact(frame, tol=1e-10), pair))
            built[eps] = (frame, ps, sp)

        def point(eps, x):
            frame, ps, sp = built[eps]
            p = bs.to_bispherical(frame, x)
            v1 = bs.eval_potential(ps, 1, p)
            v2 = bs.eval_potential(ps, 2, p)
            g1 = bs.eval_grad_mode(1, sp, ps, p)
            g2 = bs.eval_grad_mode(2, sp, ps, p)
            return dict(v=(v1, v2), g1=tuple(g1), g2=tuple(g2), d=(sp.d1, sp.d2))

        return [
            _timed("point", lambda e=eps, x=x: point(e, x), deep=eps == self.gaps[-1])
            for eps, x in inputs.items
        ]


# --------------------------------------------------------------------------
# cli_session


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class CliSession:
    """The README's commands, each a cold `python3 -m bisphere.cli` process."""

    name = "cli_session"
    deep_label = "capacitance_deep"

    def setup(self, seed: int, smoke: bool) -> Inputs:
        rng = random.Random(seed)
        f = repr
        mat = ["--rho-b", "1e-3", "--kappa-b", "1e-3"]
        eps_field = 0.05
        lo, hi = gap_ends(1.0, 2.0, eps_field)
        points = []
        for _ in range(3):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            rho = rng.uniform(0.05, 0.3)
            x3 = lo + (hi - lo) * rng.uniform(0.1, 0.9)
            # the = form: argparse reads a leading "-0.1,..." as an option
            points.append(f"--point={f(rho * math.cos(phi))},{f(rho * math.sin(phi))},{f(x3)}")
        w_lo = _jitter(rng, 0.02, 0.02)
        w_hi = _jitter(rng, 0.1, 0.02)
        cmds = [
            ("capacitance", ["capacitance", "--r1", "1", "--r2", "2",
                             "--eps", f(_jitter(rng, 0.05, 0.05))]),
            ("capacitance_deep", ["capacitance", "--r1", "1", "--r2", "2", "--eps", "1e-10"]),
            ("resonances", ["resonances", "--r1", "1", "--r2", "2",
                            "--eps", f(_jitter(rng, 1e-6, 0.05)), *mat]),
            ("resonances_grid", ["resonances", "--r1", "1", "--r2", "1",
                                 "--delta-grid", "1e-6:1e-2:5", "--beta", "0.5"]),
            ("blowup", ["blowup", "--r1", "1", "--r2", "2",
                        "--eps-grid", "1e-4:1e-1:4", "--samples", "200"]),
            ("field", ["field", "--r1", "1", "--r2", "2", "--eps", f(eps_field), *points]),
            ("scattering", ["scattering", "--r1", "1", "--r2", "2", "--eps", "0.05", *mat,
                            "--omega-grid", f"{f(w_lo)}:{f(w_hi)}:40"]),
            ("sweep", ["sweep", "--quantity", "capacitance", "--r1", "1", "--r2", "2",
                       "--eps-grid", "1e-5:1e-1:9", "--jobs", "2"]),
        ]
        if smoke:
            cmds = [c for c in cmds if c[0] in ("capacitance_deep", "field")]
        return Inputs(cmds)

    def prepare(self):
        return None

    def run_round(self, _bs, inputs: Inputs, traced_dir: Path | None = None) -> list[Op]:
        ops = []
        for k, (label, argv) in enumerate(inputs.items):
            if traced_dir is None:
                cmd = [sys.executable, "-m", "bisphere.cli", *argv]
                spans = None
            else:
                spans = traced_dir / f"spans-{os.getpid()}-{k}.json"
                cmd = [sys.executable, str(Path(__file__).with_name("spans.py")),
                       str(spans), "--", *argv]
            t0 = time.perf_counter()
            proc = subprocess.run(
                cmd, cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=150
            )
            dt = time.perf_counter() - t0
            out = dict(stdout=proc.stdout, argv=argv)
            if spans is not None and spans.exists():
                out["spans"] = json.loads(spans.read_text())
                spans.unlink()
            ok = proc.returncode == 0
            ops.append(Op(label, dt, ok, label == self.deep_label, out,
                          "" if ok else f"exit {proc.returncode}: {proc.stderr.strip()}"))
        return ops


WORKLOADS = {w.name: w for w in (SpectraLadder(), GapBlowup(), FieldPoints(), CliSession())}
