"""Golden outputs: what the library and the CLI return, pinned bit for bit.

Run from the repository root to (re)write tests/golden/:

    PYTHONPATH=src python3 tests/make_golden.py

`tests/test_golden.py` recomputes everything here and compares it with
the stored files. The goldens hold

- manifest.json: float.hex values of capacitance_exact, sigma_terms,
  capacitance_asymptotic_rescaled, eigen, resonance_asymptotic,
  potential_field (V and gradients, batched and single points), the
  surface-sweep maxima and response_curve, for the radii (1, 1), (1, 2)
  and (0.5, 3) over gaps 3 ... 1e-300, with each error or warning a
  case raises in place of its values;
- cli.json: the stdout, the files written, the warnings and the exit code
  of the README's command-line block and of the benchmark's cli_session
  argument lists at seeds 1-3, each run in-process through `cli.run`;
- env.json: the numpy version and its runtime SIMD features, since numpy's
  SIMD exp and log may round differently on another CPU.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import bisphere as bs
from bisphere import cli
from bisphere.fields import _surface_grad_max

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

RADII = ((1.0, 1.0), (1.0, 2.0), (0.5, 3.0))
GAPS = (3.0, 0.3, 1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14,
        1e-20, 1e-50, 1e-100, 1e-200, 1e-300)
RESPONSE_GAPS = (1e-1, 1e-4, 1e-8)
MATERIAL = dict(rho=1.0, rho_b=1e-3, kappa=1.0, kappa_b=1e-3)
# field points: xi at these fractions of the strip from sphere 1, and these theta
XI_FRACTIONS = (0.0, 0.3, 0.5, 1.0)
THETAS = (math.pi, 3.0, 1.0, 1e-3)
PHI = 0.7
SWEEP_SAMPLES = 400
CLI_SEEDS = (1, 2, 3)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _case(fn) -> list[str]:
    """fn()'s floats as float.hex, then each warning it issued; or the error it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = _hex(fn())
        except Exception as exc:  # noqa: BLE001 - the error is the golden value
            out = [f"error {type(exc).__name__}: {exc}"]
    return out + [f"warning {w.category.__name__}: {w.message}" for w in caught]


def _quiet(fn):
    """fn() with its warnings dropped, or None where it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn()
        except Exception:  # noqa: BLE001 - a missing input leaves its cases out
            return None


def _cell(r1: float, r2: float, eps: float) -> dict[str, list[str]]:
    mat = bs.Material(**MATERIAL)
    pair = bs.ResonatorPair(r1, r2, eps)
    frame = bs.frame_from_pair(pair)
    ps = bs.potential_series(frame, tol=1e-10)
    out = {}

    def cap():
        c = bs.capacitance_exact(frame, tol=1e-12)
        return c.c11, c.c12, c.c21, c.c22, c.tail_bound, c.n_terms

    def asym():
        a = bs.capacitance_asymptotic_rescaled(pair)
        return a.ct11, a.ct12, a.ct21, a.ct22

    out["capacitance_exact"] = _case(cap)
    out["sigma_terms"] = _case(lambda: vars(bs.sigma_terms(frame, pair)).values())
    out["capacitance_asymptotic_rescaled"] = _case(asym)
    out["resonance_asymptotic"] = _case(
        lambda: vars(bs.resonance_asymptotic(pair, mat)).values()
    )
    out["resonance_asymptotic_log_eps"] = _case(
        lambda: vars(bs.resonance_asymptotic((r1, r2), mat, log_eps=math.log(eps))).values()
    )

    cm = _quiet(lambda: bs.capacitance_exact(frame, tol=1e-12))
    sp = None
    if cm is not None:
        sp = _quiet(lambda: bs.eigen(bs.rescale(cm, pair)))
        out["eigen"] = _case(lambda: vars(bs.eigen(bs.rescale(cm, pair))).values())

    s = frame.xi1 + frame.xi2
    xi = np.array([-frame.xi1 + f * s for f in XI_FRACTIONS for _ in THETAS])
    theta = np.array([t for _ in XI_FRACTIONS for t in THETAS])
    phi = np.full(xi.size, PHI)

    def field():
        f = bs.potential_field(ps, xi, theta, phi)
        return np.concatenate([f.v.ravel(), f.grad.ravel()])

    out["potential_field"] = _case(field)
    out["potential_field_value_only"] = _case(lambda: bs.potential_field(ps, xi, theta).v.ravel())
    one = bs.BisphericalPoint(-frame.xi1 + 0.3 * s, 3.0, PHI)
    out["eval_potential"] = _case(lambda: [bs.eval_potential(ps, j, one) for j in (1, 2)])
    if sp is not None:
        out["eval_grad_mode"] = _case(
            lambda: np.concatenate([bs.eval_grad_mode(n, sp, ps, one) for n in (1, 2)])
        )

    # the sweep's mode ratios: the exact ones where the series exists, else asymptotic
    ratio_sp = sp or _quiet(lambda: bs.eigen(bs.capacitance_asymptotic_rescaled(pair)))
    if ratio_sp is not None:
        def sweep():
            best = _surface_grad_max(ps, [ratio_sp.d1, ratio_sp.d2], SWEEP_SAMPLES)
            return [v for g, p in best for v in (g, p.xi, p.theta)]

        out["surface_sweep_max"] = _case(sweep)

    if sp is not None and eps in RESPONSE_GAPS:
        def response():
            fr = bs.resonant_frequencies(sp, mat)
            offs = np.linspace(-0.1, 0.1, 20)
            grid = np.concatenate([fr.omega1 * (1 + offs), fr.omega2 * (1 + offs)])
            rows = bs.response_curve(cm, pair, mat, grid, [0.0, 0.0, 1.0])
            return [v for row in rows for v in row]

        out["response_curve"] = _case(response)
    return out


def manifest() -> dict[str, list[str]]:
    """Every library case, keyed "<quantity> r1=<r1> r2=<r2> eps=<eps>"."""
    out = {}
    for r1, r2 in RADII:
        for eps in GAPS:
            for name, entry in _cell(r1, r2, eps).items():
                out[f"{name} r1={r1!r} r2={r2!r} eps={eps!r}"] = entry
    return out


def readme_commands() -> list[list[str]]:
    """The argument lists of the README's "Command line" block, `bisphere` dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.strip()]


def cli_session_commands() -> list[list[str]]:
    """The benchmark's cli_session argument lists at CLI_SEEDS."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    session = WORKLOADS["cli_session"]
    return [argv for seed in CLI_SEEDS for _, argv in session.setup(seed, False).items]


def run_cli(argv: list[str]) -> dict:
    """One in-process `cli.run`, in a scratch directory for any --out file."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("always")
                code = cli.run(argv)
            files = {p.name: p.read_text(encoding="utf-8") for p in sorted(Path(tmp).iterdir())}
        finally:
            os.chdir(cwd)
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue(),
        "files": files,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def environment() -> dict:
    """numpy's version and the SIMD features it found on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "simd": sorted(name for name, on in __cpu_features__.items() if on),
    }


def _write(name: str, obj) -> None:
    text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    (GOLDEN / name).write_text(text, encoding="utf-8")


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    _write("env.json", environment())
    _write("manifest.json", manifest())
    runs = {
        "readme": [run_cli(argv) for argv in readme_commands()],
        "cli_session": [run_cli(argv) for argv in cli_session_commands()],
    }
    _write("cli.json", runs)


if __name__ == "__main__":
    main()
