"""Correctness checks, run after the timed phase against `refs.py`.

Every tolerance is the program's own stated error bound (the certified
`tail_bound` of the capacitance series, the `tol` of the potential series,
whose gradient tail is stated relative to 1/alpha) plus a floating-point
budget fixed in advance from the length of the sums involved. Limit
properties (asymptotic rates, the gap blow-up) use the rates the package
documents. Each check fills a `Report`; no failure message means pass.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import refs

U = 2.0**-53  # unit roundoff of a double
MAT_DELTA = 1e-3  # contrast of the workloads' material; v_b = 1
RATE_MIN = 0.45  # least decay exponent accepted for an O(sqrt(eps)) remainder
# longer than any potential series the workloads build (n_max ~ 3e4 at eps = 1e-5)
FIELD_TERMS = 1e6


def gamma(n: float) -> float:
    """Relative rounding budget of an n-term double-precision series.

    Pairwise summation contributes log2(n) roundings, each term and the
    frame scalars a few more; a factor 4 covers the constants.
    """
    return 4.0 * (math.log2(max(n, 1.0)) + 8.0) * U


def _vols(r1, r2):
    return 4.0 * math.pi * r1**3 / 3.0, 4.0 * math.pi * r2**3 / 3.0


class Report:
    def __init__(self) -> None:
        self.failures: list[str] = []
        self.count = 0

    def expect(self, ok: bool, message: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(message)

    def close(self, what, got, want, tol) -> None:
        self.expect(
            abs(got - want) <= tol,
            f"{what}: got {got!r}, reference {want!r}, |diff| {abs(got - want):.3e} > {tol:.3e}",
        )


# ---------------------------------------------------------------- capacitance


def _cap_error(r1, r2, eps, tol_abs, n_terms):
    """Bound on |C_ij - C_ij(ref)| for a series truncated at tol_abs."""
    c = refs.capacitance(r1, r2, eps)
    cmax = max(abs(float(v)) for v in c)
    return tol_abs + gamma(n_terms) * cmax


def check_capacitance(rep, where, r1, r2, eps, c, tol_abs, n_terms):
    """c = (c11, c12, c21, c22) against the image sums."""
    c11, c12, c22 = (float(v) for v in refs.capacitance(r1, r2, eps))
    err = _cap_error(r1, r2, eps, tol_abs, n_terms)
    for name, got, want in zip(("c11", "c12", "c21", "c22"), c, (c11, c12, c12, c22)):
        rep.close(f"{where} {name}", got, want, err)
    return err


def _lambda_error(r1, r2, eps, cap_err):
    """Weyl bound: C~ = V^-1 C is similar to V^-1/2 C V^-1/2."""
    ct = refs.rescaled_matrix(r1, r2, eps)
    return 2.0 * cap_err / min(_vols(r1, r2)) + 8.0 * U * float(np.linalg.norm(ct))


def check_spectrum(rep, where, r1, r2, eps, lam, d, cap_err):
    """Eigenvalues against numpy.linalg.eigvals of the reference matrix."""
    ct = refs.rescaled_matrix(r1, r2, eps)
    want = sorted(float(v.real) for v in np.linalg.eigvals(ct))
    lerr = _lambda_error(r1, r2, eps, cap_err)
    for n in range(2):
        rep.close(f"{where} lambda{n + 1}", lam[n], want[n], lerr)
    for n, ((_, d_ref), derr) in enumerate(zip(refs.eigenpairs(r1, r2, eps),
                                              d_errors(r1, r2, eps, cap_err))):
        rep.close(f"{where} d{n + 1}", d[n], d_ref, derr)
    return lerr


def d_errors(r1, r2, eps, cap_err):
    """Bounds on |d_n - d_n(ref)|: d_n = (lambda_n - ct22) / ct21 to first order."""
    ct = refs.rescaled_matrix(r1, r2, eps)
    lerr = _lambda_error(r1, r2, eps, cap_err)
    dct = cap_err / _vols(r1, r2)[1]
    return [(lerr + dct * (1.0 + abs(d_ref))) / abs(ct[1, 0]) + 8.0 * U * abs(d_ref)
            for _, d_ref in refs.eigenpairs(r1, r2, eps)]


def ref_omegas(r1, r2, eps, delta=MAT_DELTA):
    return tuple(math.sqrt(delta * lam) for lam, _ in refs.eigenpairs(r1, r2, eps))


def _slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# -------------------------------------------------------------- spectra_ladder


def _peak_on(rep, where, grid, values, target):
    """The largest value sits on a grid neighbour of target."""
    peak = float(grid[int(np.argmax(values))])
    lo, hi = sorted((peak, target))
    between = int(np.count_nonzero((grid > lo) & (grid < hi)))
    rep.expect(between == 0, f"{where}: peak at {peak!r}, resonance at {target!r}, "
               f"{between} grid points between")


def check_spectra_ladder(inputs, ops) -> Report:
    rep = Report()
    by_pair: dict = {}
    for (r1, r2, eps, _), op in zip(inputs.items, ops):
        where = f"({r1:g},{r2:g}) eps={eps:.3g}"
        if not op.ok:
            rep.expect(op.error == "TruncationCapError" and eps <= 1e-13,
                       f"{where}: unexpected failure {op.error}")
            continue
        rep.expect(eps > 1e-13, f"{where}: expected TruncationCapError, cell succeeded")
        o = op.output
        err = check_capacitance(rep, where, r1, r2, eps, o["c"], o["tail_bound"], o["n_terms"])
        rep.expect(o["tail_bound"] <= 1e-12, f"{where}: tail bound {o['tail_bound']:.2e} > tol")
        lerr = check_spectrum(rep, where, r1, r2, eps, o["lam"], o["d"], err)
        for n, w in enumerate(ref_omegas(r1, r2, eps)):
            lam = o["lam"][n]
            rep.close(f"{where} omega{n + 1}", o["omega"][n], w,
                      w * (lerr / (2.0 * lam) + 4.0 * U))
        by_pair.setdefault((r1, r2), []).append((eps, o))

        # response curve: |a| peaks on omega1, |b| on omega2, b = 0 for equal spheres
        rows = np.array(o["rows"])
        grid, abs_a, abs_b = rows[:, 0], rows[:, 1], rows[:, 2]
        w1, w2 = ref_omegas(r1, r2, eps)
        _peak_on(rep, f"{where} |a|", grid, abs_a, w1)
        if r1 == r2:
            vol = sum(_vols(r1, r2))
            allowed = MAT_DELTA / vol * 2.0 * err / np.abs(grid**2 - w2**2)
            rep.expect(bool(np.all(abs_b <= allowed)),
                       f"{where}: |b| up to {abs_b.max():.3e} for equal spheres")
        else:
            _peak_on(rep, f"{where} |b|", grid, abs_b, w2)

    # limit properties over the gaps eps <= 1e-3 of each pair
    for (r1, r2), cells in by_pair.items():
        where = f"({r1:g},{r2:g})"
        deep = [(e, o) for e, o in cells if e <= 1e-3]
        if len(deep) < 3:
            continue
        eps = [e for e, _ in deep]
        ref_ct = [refs.rescaled_matrix(r1, r2, e) for e in eps]
        for k, name in enumerate(("ct11", "ct12", "ct21", "ct22")):
            i, j = divmod(k, 2)
            diff = [abs(o["asym"][k] - ct[i, j]) for (_, o), ct in zip(deep, ref_ct)]
            rate = _slope(eps, diff)
            rep.expect(rate >= RATE_MIN, f"{where} exact - asymptotic {name}: rate {rate:.3f}")
        for i in range(2):
            diff = [abs(o["sigma"][i] - ct[i].sum()) for (_, o), ct in zip(deep, ref_ct)]
            rate = _slope(eps, diff)
            rep.expect(rate >= RATE_MIN, f"{where} sigma{i + 1} - row sum: rate {rate:.3f}")
        if r1 == r2:
            target = 3.0 * math.log(2.0) / r1**2
            diff = [abs(o["lam"][0] - target) for _, o in deep]
            rate = _slope(eps, diff)
            rep.expect(rate >= RATE_MIN, f"{where} lambda1 -> 3 log 2: rate {rate:.3f}")
    return rep


# ----------------------------------------------------------------- gap_blowup


def _mode_grad(r1, r2, eps, d, x):
    _, g1 = refs.potential(r1, r2, eps, 1, x)
    _, g2 = refs.potential(r1, r2, eps, 2, x)
    return d * g1 + g2, (abs(d) * float(np.linalg.norm(g1)) + float(np.linalg.norm(g2)))


def check_blowup_rows(rep, where, r1, r2, eps, g1, g2, slope_u2, tol, loc=None):
    """Jump law, fitted slope, and the deepest maximum against Kelvin images."""
    rep.expect(-1.1 <= slope_u2 <= -0.9, f"{where}: slope_u2 {slope_u2:.4f} not in [-1.1, -0.9]")
    for k, e in enumerate(eps):
        (_, d1), (_, d2) = refs.eigenpairs(r1, r2, e)
        for n, (g, d) in enumerate(((g1[k], d1), (g2[k], d2))):
            jump = abs(1.0 - d)
            rep.close(f"{where} eps={e:.3g} max|grad u{n + 1}|*eps", g * e, jump,
                      math.sqrt(e) * max(1.0, jump))
    if loc is not None:
        k = int(np.argmin(eps))
        e = eps[k]
        d2 = refs.eigenpairs(r1, r2, e)[1][1]
        grad, scale = _mode_grad(r1, r2, e, d2, refs.axis_point(r1, r2, e, loc[k]))
        alpha = float(refs.geometry(r1, r2, e)[0])
        rep.close(f"{where} eps={e:.3g} max|grad u2| vs Kelvin images", g2[k],
                  float(np.linalg.norm(grad)), (abs(d2) + 1.0) * tol / alpha + gamma(FIELD_TERMS) * scale)


def check_gap_blowup(inputs, ops, tol) -> Report:
    rep = Report()
    for ((r1, r2), grid, _), op in zip(inputs.items, ops):
        where = f"({r1:g},{r2:g}) grid {min(grid):.0e}..{max(grid):.0e}"
        if not op.ok:
            rep.expect(False, f"{where}: failed {op.error}")
            continue
        o = op.output
        rep.expect(sorted(o["eps"]) == sorted(grid), f"{where}: rows do not match the grid")
        check_blowup_rows(rep, where, r1, r2, o["eps"], o["g1"], o["g2"], o["slope"][1],
                          tol, o["loc"])
    return rep


# --------------------------------------------------------------- field_points


def check_point(rep, where, r1, r2, eps, x, v, grads, d, tol, d_err):
    """V_1, V_2 and grad u_1, grad u_2 at x against Kelvin images."""
    alpha = float(refs.geometry(r1, r2, eps)[0])
    v1, gv1 = refs.potential(r1, r2, eps, 1, x)
    v2, gv2 = refs.potential(r1, r2, eps, 2, x)
    rep.close(f"{where} V1", v[0], v1, tol + gamma(FIELD_TERMS) * abs(v1))
    rep.close(f"{where} V2", v[1], v2, tol + gamma(FIELD_TERMS) * abs(v2))
    for n, g in enumerate(grads):
        want = d[n] * gv1 + gv2
        n1, n2 = float(np.linalg.norm(gv1)), float(np.linalg.norm(gv2))
        bound = ((abs(d[n]) + 1.0) * tol / alpha + d_err[n] * n1
                 + gamma(FIELD_TERMS) * (abs(d[n]) * n1 + n2))
        diff = float(np.linalg.norm(np.asarray(g) - want))
        rep.expect(diff <= bound, f"{where} grad u{n + 1}: |diff| {diff:.3e} > {bound:.3e}")


def check_field_points(inputs, ops, pair) -> Report:
    rep = Report()
    r1, r2 = pair
    for (eps, x), op in zip(inputs.items, ops):
        where = f"eps={eps:g} x=({x[0]:.4g},{x[1]:.4g},{x[2]:.4g})"
        if not op.ok:
            rep.expect(False, f"{where}: failed {op.error}")
            continue
        o = op.output
        cap_err = _cap_error(r1, r2, eps, 1e-10, 1e8)
        d_err = d_errors(r1, r2, eps, cap_err)
        for n, (_, d_ref) in enumerate(refs.eigenpairs(r1, r2, eps)):
            rep.close(f"{where} d{n + 1}", o["d"][n], d_ref, d_err[n])
        # the program's own d_n, checked above, so no d_n error enters
        check_point(rep, where, r1, r2, eps, x, o["v"], (o["g1"], o["g2"]), o["d"],
                    1e-10, (0.0, 0.0))
    return rep


# ---------------------------------------------------------------- cli_session


def parse_csv(text: str):
    """(rows as dicts of floats, trailing '# key: value' comments)."""
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    comments = {}
    for ln in text.splitlines():
        if ln.startswith("# ") and ": " in ln:
            key, _, val = ln[2:].partition(": ")
            comments[key] = val
    rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO("\n".join(body)))]
    return rows, comments


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_cli(inputs, ops) -> Report:
    rep = Report()
    cli_tol = 1e-10  # the CLI's default series tolerance
    for op in ops:
        where = f"cli {op.label}"
        if not op.ok:
            rep.expect(False, f"{where}: {op.error}")
            continue
        argv = op.output["argv"]
        rows, comments = parse_csv(op.output["stdout"])
        rep.expect(len(rows) > 0, f"{where}: no rows")
        r1, r2 = float(_flag(argv, "--r1")), float(_flag(argv, "--r2"))
        if argv[0] in ("capacitance", "sweep"):
            for row in rows:
                c = (row["c11"], row["c12"], row["c21"], row["c22"])
                check_capacitance(rep, f"{where} eps={row['eps']:.3g}", r1, r2, row["eps"], c,
                                  cli_tol, row["n_terms"])
            if argv[0] == "sweep":
                want = np.geomspace(1e-5, 1e-1, 9)
                rep.expect(len(rows) == 9 and np.allclose([r["eps"] for r in rows], want,
                                                          rtol=1e-15),
                           f"{where}: rows do not follow the grid")
        elif argv[0] == "resonances":
            for row in rows:
                eps = row["eps"]
                ok_asym = math.isfinite(row["omega1_asym"]) and math.isfinite(row["omega2_asym"])
                rep.expect(ok_asym, f"{where}: asymptotic columns not finite")
                if "--delta-grid" in argv:
                    delta = row["delta"]
                    want = -(delta ** (0.5 - 1.0))
                    rep.close(f"{where} log_eps", row["log_eps"], want, 4 * U * abs(want))
                    if math.isnan(eps):
                        rep.expect(want < math.log(1e-12),
                                   f"{where}: exact columns NaN at log_eps {want:.3g}")
                        continue
                    series_tol = 1e-12
                else:
                    delta = MAT_DELTA
                    series_tol = cli_tol
                err = _cap_error(r1, r2, eps, series_tol, 1e8)
                lerr = _lambda_error(r1, r2, eps, err)
                lams = [lam for lam, _ in refs.eigenpairs(r1, r2, eps)]
                for n, w in enumerate(ref_omegas(r1, r2, eps, delta)):
                    rep.close(f"{where} eps={eps:.3g} omega{n + 1}_exact",
                              row[f"omega{n + 1}_exact"], w,
                              w * (lerr / (2.0 * lams[n]) + 4.0 * U))
        elif argv[0] == "blowup":
            eps = [r["eps"] for r in rows]
            check_blowup_rows(rep, where, r1, r2, eps,
                              [r["max_grad_u1"] for r in rows], [r["max_grad_u2"] for r in rows],
                              float(comments["fitted-slope-u2"]), 1e-8)
        elif argv[0] == "field":
            eps = float(_flag(argv, "--eps"))
            d = [dn for _, dn in refs.eigenpairs(r1, r2, eps)]
            d_err = d_errors(r1, r2, eps, _cap_error(r1, r2, eps, cli_tol, 1e8))
            for row in rows:
                x = (row["x1"], row["x2"], row["x3"])
                grads = [[row[f"grad_u{n}_{c}"] for c in "xyz"] for n in (1, 2)]
                check_point(rep, f"{where} x={x}", r1, r2, eps, x, (row["v1"], row["v2"]),
                            grads, d, cli_tol, d_err)
        elif argv[0] == "scattering":
            _check_scattering(rep, where, r1, r2, float(_flag(argv, "--eps")), rows,
                              comments, cli_tol)
    return rep


def _check_scattering(rep, where, r1, r2, eps, rows, comments, tol):
    """|a| and |b| against the modal amplitudes built from the references."""
    c11, c12, c22 = (float(v) for v in refs.capacitance(r1, r2, eps))
    v1, v2 = _vols(r1, r2)
    pref = MAT_DELTA / (v1 + v2)
    w1, w2 = ref_omegas(r1, r2, eps)
    err = _cap_error(r1, r2, eps, tol, 1e8)
    lerr = _lambda_error(r1, r2, eps, err)
    lams = [lam for lam, _ in refs.eigenpairs(r1, r2, eps)]
    dw1, dw2 = MAT_DELTA * lerr, MAT_DELTA * lerr  # bounds on |d omega_n^2|
    rep.close(f"{where} omega1", float(comments["omega1"]), w1, w1 * (lerr / (2 * lams[0]) + 4 * U))
    rep.close(f"{where} omega2", float(comments["omega2"]), w2, w2 * (lerr / (2 * lams[1]) + 4 * U))
    i1, i2 = -(c11 + c12), -(c12 + c22)
    b_num = i1 - (v1 / v2) * i2
    for row in rows:
        w2_ = row["omega"] ** 2
        den1, den2 = w2_ - w1**2, w2_ - w2**2
        a = pref * abs(i1 + i2) / abs(den1)
        b = pref * abs(b_num) / abs(den2)
        a_err = pref * (4.0 * err / abs(den1) + abs(i1 + i2) * dw1 / abs(den1) ** 2) + 8 * U * a
        b_err = pref * (2.0 * err * (1.0 + v1 / v2) / abs(den2)
                        + abs(b_num) * dw2 / abs(den2) ** 2) + 8 * U * b
        rep.close(f"{where} omega={row['omega']:.4g} |a|", row["abs_a"], a, a_err)
        rep.close(f"{where} omega={row['omega']:.4g} |b|", row["abs_b"], b, b_err)
