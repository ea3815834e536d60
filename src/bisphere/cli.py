"""Command line driver: single evaluations, tables, blow-up and response curves.

Each table has one command: `sweep --quantity capacitance` tabulates the
capacitance over a gap grid, and `resonances --delta-grid` the resonant
frequencies over a contrast grid.

Each command takes only the flags it reads (_COMMANDS), and its config
file only the same keys: any other flag or key exits 2 and is named.

Output is deterministic: identical configs produce byte-identical files.
CSV carries a #-prefixed header block (tool version, config hash, column
units) and no timestamps; JSON mirrors the same schema with sorted keys.
Exit codes: 0 success, 2 invalid configuration (a flag or config key the
command does not read, a config-file value of the wrong type, a
non-finite or non-positive physical input, an interior material in
regime mode), 3 numerical failure (truncation cap, pole guard, regime
underflow, overflow). With --error-json every failure, argparse's own
included, is one JSON object on stdout.

Every cell of a sweep or blow-up study runs in the calling process;
`--jobs` is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .capacitance import _asymptotic, _sigma, _tails, capacitance_exact, rescale
from .errors import (
    ConfigError,
    PoleProximityError,
    RegimeUnderflowError,
    TruncationCapError,
)
from . import __version__
from .fields import blowup_study, potential_field, potential_series
from .geometry import (
    REGION_INSIDE_D1,
    REGION_INSIDE_D2,
    ResonatorPair,
    classify,
    epsilon_from_regime,
    frame_from_pair,
    log_epsilon_from_regime,
    to_bispherical,
)
from .scattering import response_curve
from .spectra import (
    Material,
    eigen,
    resonance_asymptotic,
    resonant_frequencies,
)

_NUMERICAL_ERRORS = (
    TruncationCapError,
    PoleProximityError,
    RegimeUnderflowError,
    OverflowError,
)

_TOL_DEFAULT = 1e-10


@dataclass
class RunConfig:
    r1: float | None = None
    r2: float | None = None
    eps: float | None = None
    delta: float | None = None
    beta: float | None = None
    c0: float | None = None
    rho: float = 1.0
    rho_b: float = 1e-3
    kappa: float = 1.0
    kappa_b: float = 1e-3
    tol: float | None = None
    out: str | None = None
    format: str = "csv"
    jobs: int = 1  # accepted for compatibility; has no effect
    samples: int = 400
    eps_grid: str | None = None
    delta_grid: str | None = None
    omega_grid: str | None = None
    direction: str = "0,0,1"
    points: list[str] = field(default_factory=list)
    quantity: str | None = None
    error_json: bool = False


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
_CONFIG_TYPES = {f.name: f.type for f in fields(RunConfig)}

# what a config-file value of each RunConfig field type must be
_VALUE_KINDS = {
    "float": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list[str]": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    ),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, val in data.items():
        kind, _, optional = _CONFIG_TYPES[key].partition(" | ")
        what, ok = _VALUE_KINDS[kind]
        if not (ok(val) or (val is None and optional)):
            raise ConfigError(f"config key {key!r} must be {what}, got {val!r}")
    return data


# the interior material that regime mode sets from the contrast (_material)
_REGIME_MATERIAL = {"rho_b": "rho", "kappa_b": "kappa"}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The config file's keys, then the flags; both only the command's own."""
    cfg = RunConfig()
    # the parser sets the dest of each of the command's flags, given or not
    keys = set(vars(args)) - {"command", "config"}
    given = set()
    if args.config:
        for key, val in _load_config(args.config).items():
            if key not in keys:
                raise ConfigError(f"config key {key!r} is not a flag of {args.command}")
            setattr(cfg, key, val)
            given.add(key)
    for key in keys:
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
            given.add(key)
    if cfg.beta is not None or cfg.delta_grid is not None:
        for key, outer in _REGIME_MATERIAL.items():
            if key in given:
                flag = "--" + key.replace("_", "-")
                raise ConfigError(
                    f"{flag} is not taken in regime mode (--beta or --delta-grid), where "
                    f"{key} = delta * {outer}"
                )
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {cfg.jobs}")
    if cfg.tol is not None and not 0.0 < cfg.tol < math.inf:
        raise ConfigError(f"tol must be positive and finite, got {cfg.tol}")
    return cfg


def _require_radii(cfg: RunConfig) -> tuple[float, float]:
    if cfg.r1 is None or cfg.r2 is None:
        raise ConfigError("both --r1 and --r2 are required")
    return float(cfg.r1), float(cfg.r2)


def _resolve_epsilon(cfg: RunConfig) -> float:
    """Exactly one of a literal gap or a regime triple must be given."""
    if cfg.eps is not None:
        if any(v is not None for v in (cfg.delta, cfg.beta, cfg.c0)):
            raise ConfigError("give either --eps or the regime (--delta --beta --c0), not both")
        if not cfg.eps > 0.0:
            raise ConfigError(f"eps must be positive, got {cfg.eps}")
        return float(cfg.eps)
    if cfg.beta is not None:
        if cfg.delta is None:
            raise ConfigError("regime mode needs --delta together with --beta")
        return epsilon_from_regime(cfg.delta, cfg.beta, cfg.c0 if cfg.c0 is not None else 1.0)
    raise ConfigError("geometry needs --eps or a regime (--delta --beta [--c0])")


def _material(cfg: RunConfig) -> Material:
    """Material from the density/bulk-modulus flags.

    In regime mode the contrast delta overrides both interior
    parameters proportionally, which keeps the interior wave speed
    equal to the unscaled one.
    """
    delta = cfg.delta
    if delta is not None and cfg.beta is not None:
        if not 0.0 < delta < 1.0:
            raise ConfigError(f"contrast delta must be in (0, 1), got {delta}")
        return Material(
            rho=cfg.rho, rho_b=delta * cfg.rho, kappa=cfg.kappa, kappa_b=delta * cfg.kappa
        )
    return Material(rho=cfg.rho, rho_b=cfg.rho_b, kappa=cfg.kappa, kappa_b=cfg.kappa_b)


def _parse_grid(text: str, *, log_scale: bool, name: str) -> list[float]:
    try:
        if ":" in text:
            lo_s, hi_s, n_s = text.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
            if n < 1:
                raise ValueError("grid needs at least one point")
            if n == 1:
                return [lo]
            if log_scale:
                if not (lo > 0.0 and hi > 0.0):
                    raise ValueError("log grid endpoints must be positive")
                vals = np.geomspace(lo, hi, n)
            else:
                vals = np.linspace(lo, hi, n)
            return [float(v) for v in vals]
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {name} grid {text!r}: {exc}") from exc
    if not vals:
        raise ConfigError(f"--{name}-grid {text!r} holds no values")
    return vals


def _parse_vec3(text: str, name: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{name} must be three comma-separated numbers, got {text!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad {name} {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in (x, y, z)):
        raise ConfigError(f"{name} {text} is not finite")
    return x, y, z


def _config_hash(cfg: RunConfig) -> str:
    payload = asdict(cfg)
    for key in ("out", "jobs", "error_json"):
        payload.pop(key, None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fmt(v) -> str:
    if isinstance(v, float):
        # repr of the builtin float: shortest round-trip form, and numpy
        # scalars are unwrapped so they don't print as np.float64(...)
        return repr(float(v))
    return str(v)


def _json_value(v):
    """v, or None for a non-finite float, which JSON has no number for."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _emit(cfg, columns, rows, units, comments=(), summary=None) -> None:
    h = _config_hash(cfg)
    if cfg.format == "csv":
        lines = [
            f"# artifact-version: {__version__}",
            f"# config-hash: {h}",
            "# units: " + " ".join(f"{c}={units.get(c, '1')}" for c in columns),
            ",".join(columns),
        ]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        lines.extend(f"# {c}" for c in comments)
        text = "\n".join(lines) + "\n"
    else:
        obj = {
            "version": __version__,
            "config_hash": h,
            "units": units,
            "columns": columns,
            "rows": [[_json_value(v) for v in row] for row in rows],
        }
        if summary is not None:
            obj["summary"] = {k: _json_value(v) for k, v in summary.items()}
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cap_row(r1: float, r2: float, eps: float, tol: float) -> list[float]:
    pair = ResonatorPair(r1, r2, eps)
    frame = frame_from_pair(pair)
    cmat = capacitance_exact(frame, tol=tol)
    ct = rescale(cmat, pair)
    # one frame and one pair of digamma tails for the sigma and asymptotic columns
    tails = _tails(frame)
    st = _sigma(frame, pair, tails)
    try:
        asym = _asymptotic(frame, pair, tails)
        a_vals = [asym.ct11, asym.ct12, asym.ct21, asym.ct22]
    except ValueError:
        a_vals = [math.nan] * 4
    e_vals = [ct.ct11, ct.ct12, ct.ct21, ct.ct22]
    rel = [
        abs(a - e) / abs(e) if not math.isnan(a) else math.nan
        for a, e in zip(a_vals, e_vals)
    ]
    return (
        [r1, r2, eps, cmat.c11, cmat.c12, cmat.c21, cmat.c22]
        + e_vals
        + [st.sigma1, st.sigma2]
        + a_vals
        + rel
        + [float(cmat.n_terms)]
    )


_CAP_COLUMNS = [
    "r1", "r2", "eps",
    "c11", "c12", "c21", "c22",
    "ct11", "ct12", "ct21", "ct22",
    "sigma1", "sigma2",
    "asym_ct11", "asym_ct12", "asym_ct21", "asym_ct22",
    "relerr_ct11", "relerr_ct12", "relerr_ct21", "relerr_ct22",
    "n_terms",
]

_CAP_UNITS = {
    "r1": "length", "r2": "length", "eps": "length",
    "c11": "length", "c12": "length", "c21": "length", "c22": "length",
    "ct11": "1/length^2", "ct12": "1/length^2",
    "ct21": "1/length^2", "ct22": "1/length^2",
    "sigma1": "1/length^2", "sigma2": "1/length^2",
    "asym_ct11": "1/length^2", "asym_ct12": "1/length^2",
    "asym_ct21": "1/length^2", "asym_ct22": "1/length^2",
}


def cmd_capacitance(cfg: RunConfig) -> None:
    r1, r2 = _require_radii(cfg)
    eps = _resolve_epsilon(cfg)
    tol = cfg.tol if cfg.tol is not None else _TOL_DEFAULT
    row = _cap_row(r1, r2, eps, tol)
    _emit(cfg, _CAP_COLUMNS, [row], _CAP_UNITS)


def _resonance_row(r1: float, r2: float, cfg: RunConfig, tol: float) -> list[float]:
    """One regime-sweep row, at the contrast cfg.delta, with a regime row's material.

    The exact route needs the gap to be representable as a float AND an
    n-series count (roughly 1/sqrt(eps) terms) within the capacitance cap;
    regime gaps shrink like exp(-1/delta^(1-beta)), so past a modest
    contrast the exact columns go NaN and only the closed form remains.
    That is the point of the sweep: the closed form keeps working where
    the exact route is refused.
    """
    m = _material(cfg)
    log_eps = log_epsilon_from_regime(cfg.delta, cfg.beta, 1.0 if cfg.c0 is None else cfg.c0)
    asym = resonance_asymptotic((r1, r2), m, log_eps=log_eps)
    eps, o1e, o2e = math.nan, math.nan, math.nan
    if log_eps > math.log(2.3e-308):
        try:
            pair = ResonatorPair(r1, r2, math.exp(log_eps))
            frame = frame_from_pair(pair)
            sp = eigen(rescale(capacitance_exact(frame, tol=tol), pair))
            ex = resonant_frequencies(sp, m)
            eps, o1e, o2e = pair.epsilon, ex.omega1, ex.omega2
        except TruncationCapError:
            pass
    ratio1 = asym.omega1 / o1e if not math.isnan(o1e) else math.nan
    ratio2 = asym.omega2 / o2e if not math.isnan(o2e) else math.nan
    return [cfg.delta, eps, log_eps, o1e, o2e, asym.omega1, asym.omega2, ratio1, ratio2]


_RES_COLUMNS = [
    "delta", "eps", "log_eps",
    "omega1_exact", "omega2_exact",
    "omega1_asym", "omega2_asym",
    "ratio_asym_exact_1", "ratio_asym_exact_2",
]

_RES_UNITS = {
    "eps": "length", "omega1_exact": "1/time", "omega2_exact": "1/time",
    "omega1_asym": "1/time", "omega2_asym": "1/time",
}


def cmd_resonances(cfg: RunConfig) -> None:
    r1, r2 = _require_radii(cfg)
    if cfg.delta_grid is not None:
        # the regime table, one _resonance_row per contrast
        if cfg.beta is None:
            raise ConfigError("a delta sweep needs the regime exponent --beta")
        if cfg.eps is not None or cfg.delta is not None:
            raise ConfigError("--delta-grid takes the place of --eps and --delta; give neither")
        deltas = _parse_grid(cfg.delta_grid, log_scale=True, name="delta")
        tol = cfg.tol if cfg.tol is not None else 1e-12
        rows = [_resonance_row(r1, r2, replace(cfg, delta=d), tol) for d in deltas]
        _emit(cfg, _RES_COLUMNS, rows, _RES_UNITS)
        return

    eps = _resolve_epsilon(cfg)
    m = _material(cfg)
    pair = ResonatorPair(r1, r2, eps)
    frame = frame_from_pair(pair)
    tol = cfg.tol if cfg.tol is not None else _TOL_DEFAULT
    sp = eigen(rescale(capacitance_exact(frame, tol=tol), pair))
    ex = resonant_frequencies(sp, m)
    asym = resonance_asymptotic(pair, m)
    rows = [[
        m.delta, eps, math.log(eps),
        ex.omega1, ex.omega2, asym.omega1, asym.omega2,
        asym.omega1 / ex.omega1, asym.omega2 / ex.omega2,
    ]]
    _emit(cfg, _RES_COLUMNS, rows, _RES_UNITS)


def cmd_blowup(cfg: RunConfig) -> None:
    r1, r2 = _require_radii(cfg)
    if cfg.eps_grid is None:
        raise ConfigError("blowup needs --eps-grid lo:hi:n (log-spaced) or a comma list")
    grid = _parse_grid(cfg.eps_grid, log_scale=True, name="eps")
    tol = cfg.tol if cfg.tol is not None else _TOL_DEFAULT
    try:
        study = blowup_study(
            (r1, r2), material=None, eps_grid=grid, samples=cfg.samples, tol=tol
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    columns = [
        "eps", "max_grad_u1", "max_grad_u2", "loc_xi",
        "u1_times_eps", "u1_times_eps_logeps", "u2_times_eps", "u2_times_eps_logeps",
    ]
    units = {
        "eps": "length",
        "max_grad_u1": "1/length", "max_grad_u2": "1/length",
        "u1_times_eps_logeps": "1", "u2_times_eps": "1",
    }
    rows = [
        [row.epsilon, row.max_grad_u1, row.max_grad_u2, row.location.xi, a, b, c, d]
        for row, a, b, c, d in zip(
            study.rows,
            study.comp_u1_eps, study.comp_u1_eps_log,
            study.comp_u2_eps, study.comp_u2_eps_log,
        )
    ]
    comments = [
        f"fitted-slope-u1: {study.slope_u1!r}",
        f"fitted-slope-u2: {study.slope_u2!r}",
    ]
    summary = {"slope_u1": study.slope_u1, "slope_u2": study.slope_u2}
    _emit(cfg, columns, rows, units, comments=comments, summary=summary)


def cmd_field(cfg: RunConfig) -> None:
    r1, r2 = _require_radii(cfg)
    eps = _resolve_epsilon(cfg)
    if not cfg.points:
        raise ConfigError("field needs at least one --point x,y,z")
    pair = ResonatorPair(r1, r2, eps)
    frame = frame_from_pair(pair)
    tol = cfg.tol if cfg.tol is not None else _TOL_DEFAULT
    ps = potential_series(frame, tol=tol)
    sp = eigen(rescale(capacitance_exact(frame, tol=tol), pair))
    xyzs, bis = [], []
    for text in cfg.points:
        xyz = np.array(_parse_vec3(text, "point"))
        region = classify(frame, xyz)
        if region in (REGION_INSIDE_D1, REGION_INSIDE_D2):
            which = 1 if region == REGION_INSIDE_D1 else 2
            raise ConfigError(
                f"point {text} lies inside resonator {which}; "
                "fields are only defined in the exterior"
            )
        xyzs.append(xyz)
        bis.append(to_bispherical(frame, xyz))
    f = potential_field(
        ps, [p.xi for p in bis], [p.theta for p in bis], [p.phi for p in bis]
    )
    u1, u2 = f.mode(sp.d1), f.mode(sp.d2)
    g1, g2 = f.mode_grad(sp.d1), f.mode_grad(sp.d2)
    rows = [
        [*xyz, f.v[0, i], f.v[1, i], u1[i], u2[i], *g1[:, i], *g2[:, i]]
        for i, xyz in enumerate(xyzs)
    ]
    columns = [
        "x1", "x2", "x3", "v1", "v2", "u1", "u2",
        "grad_u1_x", "grad_u1_y", "grad_u1_z",
        "grad_u2_x", "grad_u2_y", "grad_u2_z",
    ]
    units = {c: "1/length" for c in columns if c.startswith("grad")}
    units.update({"x1": "length", "x2": "length", "x3": "length"})
    _emit(cfg, columns, rows, units)


def cmd_scattering(cfg: RunConfig) -> None:
    r1, r2 = _require_radii(cfg)
    eps = _resolve_epsilon(cfg)
    if cfg.omega_grid is None:
        raise ConfigError("scattering needs --omega-grid lo:hi:n or a comma list")
    omegas = _parse_grid(cfg.omega_grid, log_scale=False, name="omega")
    direction = _parse_vec3(cfg.direction, "direction")
    m = _material(cfg)
    pair = ResonatorPair(r1, r2, eps)
    frame = frame_from_pair(pair)
    tol = cfg.tol if cfg.tol is not None else _TOL_DEFAULT
    cmat = capacitance_exact(frame, tol=tol)
    freqs = resonant_frequencies(eigen(rescale(cmat, pair)), m)
    rows = [list(r) for r in response_curve(cmat, pair, m, omegas, direction)]
    columns = ["omega", "abs_a", "abs_b"]
    units = {"omega": "1/time", "abs_a": "1", "abs_b": "1"}
    comments = [f"omega1: {freqs.omega1!r}", f"omega2: {freqs.omega2!r}"]
    summary = {"omega1": freqs.omega1, "omega2": freqs.omega2}
    _emit(cfg, columns, rows, units, comments=comments, summary=summary)


def cmd_sweep(cfg: RunConfig) -> None:
    r1, r2 = _require_radii(cfg)
    if cfg.quantity == "capacitance":
        if cfg.eps_grid is None:
            raise ConfigError("a capacitance sweep needs --eps-grid")
        grid = _parse_grid(cfg.eps_grid, log_scale=True, name="eps")
        tol = cfg.tol if cfg.tol is not None else _TOL_DEFAULT
        rows = [_cap_row(r1, r2, e, tol) for e in grid]
        _emit(cfg, _CAP_COLUMNS, rows, _CAP_UNITS)
    else:
        raise ConfigError(
            "sweep needs --quantity capacitance; the resonance table over a "
            "contrast grid is `resonances --delta-grid`"
        )


# every flag of some command; argparse derives each dest (rho_b, error_json)
_FLAGS = {
    "--config": dict(help="JSON file keyed by this command's flags; flags override"),
    "--out": dict(help="output file (default stdout)"),
    "--format": dict(choices=("csv", "json"), help="output format"),
    "--jobs": dict(type=int, help="accepted for compatibility; has no effect"),
    "--error-json": dict(
        action="store_const", const=True, help="report failures as JSON on stdout"
    ),
    "--r1": dict(type=float, help="radius of sphere 1"),
    "--r2": dict(type=float, help="radius of sphere 2"),
    "--eps": dict(type=float, help="gap width between the spheres"),
    "--delta": dict(type=float, help="contrast (regime mode)"),
    "--beta": dict(type=float, help="regime exponent in (0, 1)"),
    "--c0": dict(type=float, help="regime gap scale (default 1)"),
    "--tol": dict(type=float, help="series tolerance"),
    "--rho": dict(type=float, help="background density"),
    "--rho-b": dict(type=float, help="interior density"),
    "--kappa": dict(type=float, help="background bulk modulus"),
    "--kappa-b": dict(type=float, help="interior bulk modulus"),
    "--delta-grid": dict(help="lo:hi:n log grid or comma list"),
    "--eps-grid": dict(help="lo:hi:n log grid or comma list"),
    "--samples": dict(type=int, help="surface samples per sphere (>= 100)"),
    "--point": dict(
        dest="points", action="append", metavar="X,Y,Z",
        help="Cartesian evaluation point; repeatable",
    ),
    "--omega-grid": dict(help="lo:hi:n linear grid or comma list"),
    "--direction": dict(help="incident direction x,y,z (default 0,0,1)"),
    "--quantity": dict(choices=("capacitance",)),
}

_SHARED = ("--config", "--out", "--format", "--jobs", "--error-json")
_GEOMETRY = ("--r1", "--r2", "--eps", "--delta", "--beta", "--c0", "--tol")
_MATERIAL = ("--rho", "--rho-b", "--kappa", "--kappa-b")

# each command's function, help line and flags besides _SHARED
_COMMANDS = {
    "capacitance": (cmd_capacitance, "capacitance matrix and asymptotics", _GEOMETRY),
    "resonances": (
        cmd_resonances, "resonant frequencies, exact and asymptotic",
        (*_GEOMETRY, *_MATERIAL, "--delta-grid"),
    ),
    "blowup": (
        cmd_blowup, "gap-gradient blow-up study",
        ("--r1", "--r2", "--tol", "--eps-grid", "--samples"),
    ),
    "field": (
        cmd_field, "potentials, modes and gradients at points", (*_GEOMETRY, "--point")
    ),
    "scattering": (
        cmd_scattering, "modal response curve |a|, |b| vs omega",
        (*_GEOMETRY, *_MATERIAL, "--omega-grid", "--direction"),
    ),
    "sweep": (
        cmd_sweep,
        "tabulate the capacitance over a gap grid (the resonance table "
        "over a contrast grid is `resonances --delta-grid`)",
        ("--r1", "--r2", "--tol", "--quantity", "--eps-grid"),
    ),
}


class _JsonErrorParser(argparse.ArgumentParser):
    """A parser whose errors raise ConfigError, for _report_error to print as JSON."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser(parser_class: type = argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The parser of every command; its subcommands' parsers are of the same class."""
    top = parser_class(
        prog="bisphere",
        description="Close-to-touching spherical resonator pair: capacitance, "
        "resonances, fields, gap blow-up and scattering response.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        # no abbreviations: sweep's --eps must not read as its --eps-grid
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in (*_SHARED, *flags):
            p.add_argument(flag, **_FLAGS[flag])
    return top


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # with --error-json argparse's own errors (an unknown flag, a bad value)
    # are reported as JSON too; without it argparse prints usage and exits
    as_json = "--error-json" in argv
    parser = _build_parser(_JsonErrorParser if as_json else argparse.ArgumentParser)
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        _report_error(exc, True)
        return 2
    error_json = bool(args.error_json)
    try:
        cfg = _merge_config(args)
        error_json = cfg.error_json
        _COMMANDS[args.command][0](cfg)
        return 0
    except (ConfigError, ValueError) as exc:
        _report_error(exc, error_json)
        return 2
    except _NUMERICAL_ERRORS as exc:
        _report_error(exc, error_json)
        return 3


def _report_error(exc: Exception, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(
            json.dumps(
                {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
            )
            + "\n"
        )
    else:
        sys.stderr.write(f"error: {exc}\n")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
