"""End-to-end acceptance sweep.

Each test checks one advertised guarantee of the package, prints a
single PASS/FAIL line with the measured figure of merit, and enforces
both the accuracy target and a wall-clock budget. Run with -s to watch
the lines appear as the checks complete.
"""

import math
import time

import numpy as np

from bisphere import (
    Material,
    ResonatorPair,
    blowup_study,
    capacitance_asymptotic_rescaled,
    capacitance_exact,
    eigen,
    eval_grad_mode,
    eval_potential,
    frame_from_pair,
    h_decomposition,
    log_epsilon_from_regime,
    modal_coefficients,
    potential_field,
    potential_series,
    rescale,
    resonance_asymptotic,
    resonant_frequencies,
    response_curve,
    to_bispherical,
)
from bisphere.oracle import (
    fd_check_gradient,
    fd_check_laplacian,
    flux_quadrature,
    image_charge_capacitance,
)

Z_HAT = np.array([0.0, 0.0, 1.0])


def _finish(name: str, ok: bool, detail: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    line = f"{name}: {status} ({detail}) [{elapsed:.1f}s / {budget:.0f}s budget]"
    print(line)
    assert ok, line
    assert in_budget, f"{name}: {elapsed:.1f}s exceeded the {budget:.0f}s budget"


def _boundary_distance(frame, x) -> float:
    """Distance from the point x to the nearer sphere surface, negative inside a sphere."""
    x1, x2, x3 = x
    d1 = math.hypot(x1, x2, x3 - frame.c1) - frame.r1
    d2 = math.hypot(x1, x2, x3 - frame.c2) - frame.r2
    return min(d1, d2)


def test_criterion_1_capacitance_against_both_oracles():
    t0 = time.perf_counter()
    worst_img = 0.0
    worst_flux = 0.0
    for r1 in (0.5, 1.0, 2.0):
        for r2 in (0.5, 1.0, 2.0):
            for eps in (1.0, 0.1, 0.01, 0.001):
                pair = ResonatorPair(r1, r2, eps)
                frame = frame_from_pair(pair)
                cm = capacitance_exact(frame, tol=1e-12)
                img = image_charge_capacitance(pair, n_reflections=2000)
                for nm in ("c11", "c12", "c21", "c22"):
                    rel = abs(getattr(cm, nm) / getattr(img, nm) - 1.0)
                    worst_img = max(worst_img, rel)
                ps = potential_series(frame, tol=1e-10)
                for j in (1, 2):
                    for i in (1, 2):
                        q = flux_quadrature(ps, j, i, tol=1e-8)
                        rel = abs(q / getattr(cm, f"c{i}{j}") - 1.0)
                        worst_flux = max(worst_flux, rel)
    ok = worst_img < 1e-8 and worst_flux < 1e-6
    _finish(
        "criterion 1 capacitance vs image charges and flux quadrature",
        ok,
        f"36 cells, image rel {worst_img:.2e} < 1e-8, flux rel {worst_flux:.2e} < 1e-6",
        t0,
        30.0,
    )


def test_criterion_2_symmetric_small_eigenvalue_constant():
    t0 = time.perf_counter()
    pair = ResonatorPair(1.0, 1.0, 1e-6)
    sp = eigen(rescale(capacitance_exact(frame_from_pair(pair)), pair))
    target = 3.0 * math.log(2.0)
    rel = abs(sp.lambda1 / target - 1.0)
    _finish(
        "criterion 2 symmetric lambda1 approaches 3 log 2",
        rel < 0.01,
        f"lambda1 = {sp.lambda1:.6f}, rel dev {rel:.2e} < 1e-2 at eps = 1e-6",
        t0,
        1.0,
    )


def test_criterion_3_rescaled_asymptotics_decay_rate():
    t0 = time.perf_counter()
    eps_grid = np.geomspace(1e-8, 1e-2, 7)
    names = ("ct11", "ct12", "ct21", "ct22")
    errs = {nm: [] for nm in names}
    for eps in eps_grid:
        pair = ResonatorPair(1.0, 2.0, float(eps))
        exact = rescale(capacitance_exact(frame_from_pair(pair), tol=1e-12), pair)
        asym = capacitance_asymptotic_rescaled(pair)
        for nm in names:
            errs[nm].append(abs(getattr(asym, nm) - getattr(exact, nm)))
    log_eps = np.log(eps_grid)
    slopes = {
        nm: float(np.polyfit(log_eps, np.log(errs[nm]), 1)[0]) for nm in names
    }
    worst = min(slopes.values())
    _finish(
        "criterion 3 asymptotic rescaled coefficients converge",
        worst >= 0.45,
        "decay exponents "
        + ", ".join(f"{nm} {slopes[nm]:.3f}" for nm in names)
        + f", min {worst:.3f} >= 0.45",
        t0,
        30.0,
    )


def test_criterion_4_regime_frequency_scaling():
    t0 = time.perf_counter()
    beta = 0.5
    deltas = np.geomspace(1e-6, 1e-2, 5)
    om1, om2 = [], []
    for d in deltas:
        m = Material(rho=1.0, rho_b=float(d), kappa=1.0, kappa_b=float(d))
        le = log_epsilon_from_regime(float(d), beta, 1.0)
        fr = resonance_asymptotic((1.0, 1.0), m, log_eps=le)
        om1.append(fr.omega1)
        om2.append(fr.omega2)
    log_d = np.log(deltas)
    s1 = float(np.polyfit(log_d, np.log(om1), 1)[0])
    s2 = float(np.polyfit(log_d, np.log(om2), 1)[0])
    ok = abs(s1 - 0.5) <= 0.05 and abs(s2 - beta / 2.0) <= 0.05
    _finish(
        "criterion 4 regime scaling exponents of the resonances",
        ok,
        f"omega1 exponent {s1:.3f} = 0.50 +- 0.05, "
        f"omega2 exponent {s2:.3f} = {beta / 2.0:.2f} +- 0.05",
        t0,
        10.0,
    )


def test_criterion_5_boundary_conditions_to_tolerance():
    t0 = time.perf_counter()
    th = np.linspace(0.0, math.pi, 200)
    theta = np.concatenate([th, th])
    worst = 0.0
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        frame = frame_from_pair(ResonatorPair(1.0, 2.0, eps))
        ps = potential_series(frame, tol=1e-10)
        xi = np.concatenate([np.full(200, -frame.xi1), np.full(200, frame.xi2)])
        v1 = potential_field(ps, xi, theta).v[0]
        dev = max(
            float(np.max(np.abs(v1[:200] - 1.0))),
            float(np.max(np.abs(v1[200:]))),
        )
        worst = max(worst, dev)
    _finish(
        "criterion 5 V1 boundary traces at the series tolerance",
        worst <= 1e-10,
        f"worst |trace - target| {worst:.2e} <= 1e-10 over eps down to 1e-8",
        t0,
        30.0,
    )


def test_criterion_6_gradient_blowup_rates():
    t0 = time.perf_counter()
    mat = Material(rho=1.0, rho_b=1e-3, kappa=1.0, kappa_b=1e-3)
    grid = np.geomspace(1e-6, 1e-2, 9)
    sym = blowup_study((1.0, 1.0), mat, grid, samples=400, tol=1e-8)
    asym = blowup_study((1.0, 2.0), mat, grid, samples=400, tol=1e-8)
    sym_u1 = [r.max_grad_u1 for r in sym.rows]
    ratio_sym = max(sym_u1) / min(sym_u1)
    comp_asym = [r.max_grad_u1 * r.epsilon * abs(math.log(r.epsilon)) for r in asym.rows]
    ratio_asym = max(comp_asym) / min(comp_asym)
    ok = (
        -1.1 <= sym.slope_u2 <= -0.9
        and -1.1 <= asym.slope_u2 <= -0.9
        and ratio_sym < 2.0
        and ratio_asym < 2.0
    )
    _finish(
        "criterion 6 gap gradient blow-up rates",
        ok,
        f"mode-2 slopes {sym.slope_u2:.3f} (1,1) and {asym.slope_u2:.3f} (1,2) "
        f"in [-1.1,-0.9]; mode-1 ranges: symmetric x{ratio_sym:.3f}, "
        f"asymmetric (x eps |log eps|) x{ratio_asym:.3f}, both < 2",
        t0,
        120.0,
    )


def test_criterion_7_mode_decomposition_structure():
    t0 = time.perf_counter()
    pair_s = ResonatorPair(1.0, 1.0, 1e-5)
    frame_s = frame_from_pair(pair_s)
    ct_s = rescale(capacitance_exact(frame_s, tol=1e-12), pair_s)
    sp_s = eigen(ct_s)
    a2_sym = abs(h_decomposition(ct_s, sp_s, 2).a_reg)
    b1_sym = abs(h_decomposition(ct_s, sp_s, 1).b_sing)

    vals_a, vals_b = [], []
    for eps in (1e-4, 1e-5, 1e-6, 1e-7):
        pair = ResonatorPair(1.0, 2.0, eps)
        frame = frame_from_pair(pair)
        ct = rescale(capacitance_exact(frame, tol=1e-12), pair)
        md = h_decomposition(ct, eigen(ct), 2)
        scale = abs(math.log(eps))
        vals_a.append(abs(md.a_reg) / scale)
        vals_b.append(abs(md.b_sing) / scale)
    ratio_a = max(vals_a) / min(vals_a)
    ratio_b = max(vals_b) / min(vals_b)
    ok = a2_sym < 1e-10 and b1_sym < 1e-10 and ratio_a < 2.0 and ratio_b < 2.0
    _finish(
        "criterion 7 singular/regular mode weights",
        ok,
        f"symmetric |A2| {a2_sym:.1e}, |B1| {b1_sym:.1e} < 1e-10; asymmetric "
        f"A2/|log eps| range x{ratio_a:.3f}, B2/|log eps| range x{ratio_b:.3f} "
        "< 2 over three decades",
        t0,
        10.0,
    )


def test_criterion_8_response_peaks_at_resonances():
    t0 = time.perf_counter()
    pair = ResonatorPair(1.0, 2.0, 0.05)
    cm = capacitance_exact(frame_from_pair(pair), tol=1e-12)
    mat = Material(rho=1.0, rho_b=1e-3, kappa=1.0, kappa_b=1e-3)
    freqs = resonant_frequencies(eigen(rescale(cm, pair)), mat)

    grid1 = np.linspace(0.99 * freqs.omega1, 1.01 * freqs.omega1, 400)
    peak_a = max(response_curve(cm, pair, mat, grid1, Z_HAT), key=lambda r: r[1])[0]
    grid2 = np.linspace(0.99 * freqs.omega2, 1.01 * freqs.omega2, 400)
    peak_b = max(response_curve(cm, pair, mat, grid2, Z_HAT), key=lambda r: r[2])[0]
    dev_a = abs(peak_a / freqs.omega1 - 1.0)
    dev_b = abs(peak_b / freqs.omega2 - 1.0)

    pair_s = ResonatorPair(1.0, 1.0, 0.05)
    cm_s = capacitance_exact(frame_from_pair(pair_s))
    b_num = abs(modal_coefficients(cm_s, pair_s, mat, 0.15).b_numerator)

    ok = dev_a < 0.01 and dev_b < 0.01 and b_num < 1e-12
    _finish(
        "criterion 8 scattering peaks sit on the resonances",
        ok,
        f"|a| peak off omega1 by {dev_a:.2e}, |b| peak off omega2 by "
        f"{dev_b:.2e} (< 1e-2); symmetric |b| numerator {b_num:.1e} < 1e-12",
        t0,
        10.0,
    )


def test_criterion_9_analytic_gradients_and_fd_laplacian():
    t0 = time.perf_counter()
    pair = ResonatorPair(1.0, 2.0, 0.05)
    frame = frame_from_pair(pair)
    ps = potential_series(frame, tol=1e-10)
    sp = eigen(rescale(capacitance_exact(frame, tol=1e-12), pair))
    rng = np.random.default_rng(20260816)
    h = 1e-3

    pts = []
    while len(pts) < 50:
        x = rng.uniform(-4.0, 4.0, size=3)
        if _boundary_distance(frame, x) > 0.05:
            pts.append(x)

    def v_field(j):
        def f(y):
            return eval_potential(ps, j, to_bispherical(frame, y))

        return f

    def u_field(n):
        d_n = (sp.d1, sp.d2)[n - 1]

        def f(y):
            b = to_bispherical(frame, y)
            return potential_field(ps, [b.xi], [b.theta]).mode(d_n)[0]

        return f

    worst = 0.0
    for x in pts:
        b = to_bispherical(frame, x)
        for j in (1, 2):
            ana = potential_field(ps, [b.xi], [b.theta], [b.phi]).grad[j - 1][:, 0]
            num = fd_check_gradient(v_field(j), x, h, clearance=0.05)
            worst = max(worst, float(np.linalg.norm(ana - num) / np.linalg.norm(num)))
        for n in (1, 2):
            ana = eval_grad_mode(n, sp, ps, b)
            num = fd_check_gradient(u_field(n), x, h, clearance=0.05)
            worst = max(worst, float(np.linalg.norm(ana - num) / np.linalg.norm(num)))

    # FD Laplacian of the harmonic V1 must vanish at 2nd order in h.
    # Probed near sphere 1 where the 4th derivatives are O(1): there the
    # h^2 truncation term dominates the u*f/h^2 rounding floor and the
    # halving ratios are clean. At far points both are ~1e-11 and the
    # ratio is noise.
    x0 = np.array([1.2, 0.0, -0.3])
    assert _boundary_distance(frame, x0) > 0.4
    lap = [abs(fd_check_laplacian(v_field(1), x0, hh)) for hh in (8e-3, 4e-3, 2e-3)]
    r10 = lap[0] / lap[1]
    r21 = lap[1] / lap[2]
    ok = worst < 1e-6 and 3.0 < r10 < 5.5 and 3.0 < r21 < 5.5
    _finish(
        "criterion 9 analytic gradients vs finite differences",
        ok,
        f"worst rel dev {worst:.2e} < 1e-6 at 50 points; FD Laplacian decay "
        f"ratios {r10:.2f}, {r21:.2f} bracket the h^2 value 4",
        t0,
        30.0,
    )
