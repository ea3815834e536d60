import math
import re
import warnings

import numpy as np
import pytest

from bisphere import (
    Material,
    PoleProximityError,
    ResonatorPair,
    capacitance_exact,
    eigen,
    frame_from_pair,
    modal_coefficients,
    potential_field,
    rescale,
    resonant_frequencies,
    response_curve,
    to_bispherical,
)
from bisphere.oracle import image_charge_capacitance

Z = np.array([0.0, 0.0, 1.0])


def test_plane_wave_validation(water_air):
    pair = ResonatorPair(1.0, 2.0, 0.05)
    cmat = capacitance_exact(frame_from_pair(pair))
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="frequency must be positive and finite"):
            modal_coefficients(cmat, pair, water_air, bad)
    with pytest.raises(ValueError, match="direction"):
        response_curve(cmat, pair, water_air, [1.0], [0.0, 0.0, 0.0])


def test_response_curve_refuses_a_non_finite_direction(water_air):
    pair = ResonatorPair(1.0, 2.0, 0.05)
    cmat = capacitance_exact(frame_from_pair(pair))
    for bad in ([math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="direction"):
            response_curve(cmat, pair, water_air, [0.1, 0.2], bad)


def test_symmetric_pair_cannot_excite_anti_phase_mode(water_air):
    # equal spheres see the same incident value, so the anti-phase
    # numerator cancels exactly, not just to rounding
    pair = ResonatorPair(1.0, 1.0, 0.05)
    cmat = capacitance_exact(frame_from_pair(pair))
    mc = modal_coefficients(cmat, pair, water_air, 0.15)
    assert mc.b_numerator == 0.0
    assert mc.b == 0.0
    assert mc.a != 0.0


def test_modal_coefficients_against_image_charge_assembly(pair_12, cap_12, water_air):
    # independent route: image-charge capacitance, coefficients assembled
    # longhand in the test
    oracle_c = image_charge_capacitance(pair_12, n_reflections=500)
    m = water_air
    omega = 0.15
    mc = modal_coefficients(cap_12, pair_12, m, omega)

    u0 = 1.0 + 0.0j  # the unit plane wave at the origin
    i1 = -u0 * (oracle_c.c11 + oracle_c.c12)
    i2 = -u0 * (oracle_c.c21 + oracle_c.c22)
    vol1 = 4.0 * math.pi / 3.0
    vol2 = 32.0 * math.pi / 3.0
    pref = m.delta * m.v_b**2 / (vol1 + vol2)
    a_want = pref * (i1 + i2) / (omega**2 - mc.omega1**2)
    b_want = -pref * (i1 - (vol1 / vol2) * i2) / (omega**2 - mc.omega2**2)
    assert mc.a == pytest.approx(a_want, rel=1e-9)
    assert mc.b == pytest.approx(b_want, rel=1e-9)


def test_amplitude_scales_with_contrast(pair_12, cap_12):
    # far above both resonances the response is linear in the contrast
    # (up to the contrast's own shift of the pole, about delta/omega^2)
    omega = 0.2
    mats = [Material(rho=1.0, rho_b=d, kappa=1.0, kappa_b=d) for d in (1e-4, 2e-4)]
    amps = [modal_coefficients(cap_12, pair_12, m, omega).a for m in mats]
    assert abs(amps[1] / amps[0]) == pytest.approx(2.0, rel=5e-3)


def test_wavelength_comparable_to_pair_warns(pair_12, cap_12, water_air):
    with pytest.warns(UserWarning, match="subwavelength"):
        modal_coefficients(cap_12, pair_12, water_air, 0.5)


def test_pole_growth_rate(pair_12, cap_12, water_air):
    # |a| grows like 1/|omega^2 - omega_1^2| approaching the first pole
    probe = modal_coefficients(cap_12, pair_12, water_air, 0.15)
    om1 = probe.omega1
    vals = []
    for d in (1e-3, 5e-4):
        mc = modal_coefficients(cap_12, pair_12, water_air, om1 * (1.0 + d))
        vals.append(abs(mc.a) * abs(2.0 * d + d * d))
    assert vals[0] == pytest.approx(vals[1], rel=1e-6)


def test_pole_guard_raises(pair_12, cap_12, water_air):
    probe = modal_coefficients(cap_12, pair_12, water_air, 0.15)
    with pytest.raises(PoleProximityError):
        modal_coefficients(cap_12, pair_12, water_air, probe.omega1)
    with pytest.raises(PoleProximityError):
        modal_coefficients(cap_12, pair_12, water_air, probe.omega2)
    with pytest.raises(PoleProximityError):
        response_curve(cap_12, pair_12, water_air, [probe.omega1], Z)
    # one guard, 1e-12 relative in omega^2, for both: just outside it both
    # return, with the same bits
    near = probe.omega1 * (1.0 + 1e-11)
    mc = modal_coefficients(cap_12, pair_12, water_air, near)
    assert response_curve(cap_12, pair_12, water_air, [near], Z) == [
        (near, abs(mc.a), abs(mc.b))
    ]


def test_label_swap_covariance(water_air):
    # relabeling the spheres keeps a and flips b by the volume ratio
    pa = ResonatorPair(1.0, 2.0, 0.05)
    pb = ResonatorPair(2.0, 1.0, 0.05)
    ca = capacitance_exact(frame_from_pair(pa), tol=1e-13)
    cb = capacitance_exact(frame_from_pair(pb), tol=1e-13)
    ma = modal_coefficients(ca, pa, water_air, 0.15)
    mb = modal_coefficients(cb, pb, water_air, 0.15)
    assert ma.omega1 == pytest.approx(mb.omega1, rel=1e-12)
    assert ma.omega2 == pytest.approx(mb.omega2, rel=1e-12)
    assert mb.a == pytest.approx(ma.a, rel=1e-11)
    assert mb.b == pytest.approx(-(pa.volume2 / pa.volume1) * ma.b, rel=1e-11)


def test_scattered_correction_decays_like_monopole(
    pair_12, frame_12, cap_12, series_12, spectral_12, water_air
):
    # u = u_in - u_in(0) (V_1 + V_2) + a u_1 + b u_2 with u_n = d_n V_1 + V_2,
    # V_1 and V_2 at both radii from one potential_field call
    omega = 0.15
    mc = modal_coefficients(cap_12, pair_12, water_air, omega)
    ray = np.array([0.5, 0.2, 0.84])
    ray /= np.linalg.norm(ray)
    xs = [radius * ray for radius in (30.0, 60.0)]
    points = [to_bispherical(frame_12, x) for x in xs]
    f = potential_field(series_12, [p.xi for p in points], [p.theta for p in points])
    u_in = np.exp(1j * omega / water_air.v * (np.array(xs) @ Z))
    u0 = 1.0 + 0.0j
    u1, u2 = f.mode(spectral_12.d1), f.mode(spectral_12.d2)
    u = u_in - u0 * (f.v[0] + f.v[1]) + mc.a * u1 + mc.b * u2
    mags = np.abs(u - u_in)
    assert mags[0] / mags[1] == pytest.approx(2.0, rel=0.3)


def test_response_curve_peaks_at_first_resonance(pair_12, cap_12, water_air):
    probe = modal_coefficients(cap_12, pair_12, water_air, 0.15)
    om1 = probe.omega1
    # even count: an odd symmetric grid would land its midpoint on the pole
    grid = np.linspace(0.9 * om1, 1.1 * om1, 200)
    rows = response_curve(cap_12, pair_12, water_air, grid, Z)
    assert len(rows) == len(grid)
    peak = max(rows, key=lambda r: r[1])
    assert peak[0] == pytest.approx(om1, rel=5e-3)


def test_response_curve_warns_outside_subwavelength_regime(water_air):
    # v = 1 for this material, so k r2 = 2 omega runs from 0.8 to 1.2
    pair = ResonatorPair(1.0, 2.0, 0.05)
    cmat = capacitance_exact(frame_from_pair(pair))
    grid = np.linspace(0.4, 0.6, 3)
    with pytest.warns(UserWarning, match="k \\* max radius") as caught:
        rows = response_curve(cmat, pair, water_air, grid, Z)
    assert len(rows) == 3
    # one warning per call, naming how many omegas and the largest k r2
    assert len(caught) == 1
    assert "at 3 omega, up to 1.2;" in str(caught[0].message)


def _loop_rows(cmat, pair, material, grid, direction):
    """response_curve as its direction check, then a plain loop of modal_coefficients."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,) or not np.isfinite(d).all() or not d.any():
        raise ValueError(
            f"direction must be three finite components, not all zero, got {direction!r}"
        )
    rows = []
    for omega in grid:
        mc = modal_coefficients(cmat, pair, material, float(omega))
        rows.append((float(omega), abs(mc.a), abs(mc.b)))
    return rows


def _recorded(fn, *args):
    """fn's rows, or the type and text of what it raised, and its warnings in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except (ValueError, OverflowError, PoleProximityError) as exc:
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


def _one_warning(loop_warnings):
    """What response_curve warns where the loop of modal_coefficients warned loop_warnings.

    The loop warns once per omega beyond k * max radius = 0.5, each naming
    its own value; response_curve warns once, with their count and maximum.
    """
    if not loop_warnings:
        return []
    assert all(cat is UserWarning and "at 1 omega" in msg for cat, msg in loop_warnings)
    top = max((re.search(r"up to (\S+);", msg).group(1) for _, msg in loop_warnings), key=float)
    return [(
        UserWarning,
        f"k * max radius > 0.5 at {len(loop_warnings)} omega, up to {top}; "
        "the subwavelength expansion degrades well before this",
    )]


def _assert_matches_loop(cmat, pair, material, grid, direction):
    """response_curve's rows and error equal the loop's, rows bit for bit; its warning sums the loop's."""
    got = _recorded(response_curve, cmat, pair, material, grid, direction)
    rows, loop_warnings = _recorded(_loop_rows, cmat, pair, material, grid, direction)
    assert got == (rows, _one_warning(loop_warnings))
    return got, loop_warnings


@pytest.mark.parametrize("eps", [0.1, 1e-5, 1e-10])
@pytest.mark.parametrize("radii", [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0)])
def test_response_curve_rows_equal_a_per_omega_loop(radii, eps, water_air):
    pair = ResonatorPair(*radii, eps)
    cmat = capacitance_exact(frame_from_pair(pair), tol=1e-12)
    freqs = resonant_frequencies(eigen(rescale(cmat, pair)), water_air)
    # 196 points within +-10 % of each resonance and 4 right next to it,
    # still outside the pole guard of 1e-12 relative in omega^2
    offs = np.concatenate([np.linspace(-0.1, 0.1, 196), [-1e-9, -1e-11, 1e-11, 1e-9]])
    grid = np.concatenate([freqs.omega1 * (1.0 + offs), freqs.omega2 * (1.0 + offs)])
    got, _ = _assert_matches_loop(cmat, pair, water_air, grid, Z)
    assert len(got[0]) == 400


def test_response_curve_warnings_and_errors_follow_the_grid_order(water_air):
    # v = 1 for this material, so k r2 = 2 omega for the (1, 2) pair
    pair = ResonatorPair(1.0, 2.0, 0.05)
    cmat = capacitance_exact(frame_from_pair(pair))
    freqs = resonant_frequencies(eigen(rescale(cmat, pair)), water_air)
    om1, om2 = freqs.omega1, freqs.omega2
    # n_warn counts the loop's warnings, one per omega beyond k r2 = 0.5
    # up to the first that raises; response_curve issues one for them all
    cases = [
        # crosses k r2 = 0.5 both ways: warnings for 0.3, 0.26 and 0.4 only
        ([0.2, 0.3, 0.24, 0.26, 0.1, 0.4], Z, 3),
        # a resonance on the grid raises after the warnings of the omegas before it
        ([0.3, 0.1, om1, 0.4], Z, 1),
        ([0.26, om2, 0.3], Z, 1),
        # a frequency that is not positive
        ([0.3, 0.1, 0.0, 0.4], Z, 1),
        ([0.3, -0.2], Z, 1),
        ([0.0, 0.3], Z, 0),
        # a frequency that is not finite raises before its own k r2 counts
        ([0.3, 0.1, math.inf, 0.4], Z, 1),
        ([0.3, 0.35, math.nan], Z, 2),
        ([math.inf, 0.3], Z, 0),
        # an omega whose square overflows raises after its own warning,
        # unless an earlier omega raises first
        ([0.3, 0.1, 1e200, om1], Z, 2),
        ([0.1, om1, 1e200], Z, 0),
        # a zero direction
        ([0.1, 0.3], [0.0, 0.0, 0.0], 0),
    ]
    for grid, direction, n_warn in cases:
        got, loop_warnings = _assert_matches_loop(cmat, pair, water_air, grid, direction)
        assert len(loop_warnings) == n_warn
        assert len(got[1]) == min(n_warn, 1)
    # with v = 0.1 the resonance itself lies beyond k r2 = 0.5: it warns, then raises
    slow = Material(rho=1.0, rho_b=1e-3, kappa=1e-2, kappa_b=1e-3)
    om1_slow = resonant_frequencies(eigen(rescale(cmat, pair)), slow).omega1
    assert 2.0 * om1_slow / slow.v > 0.5
    got, _ = _assert_matches_loop(cmat, pair, slow, [0.01, om1_slow, 0.2], Z)
    assert got[0][0] is PoleProximityError and len(got[1]) == 1
    with pytest.raises(PoleProximityError):
        response_curve(cmat, pair, water_air, [0.1, om1], Z)
    with pytest.raises(ValueError, match="direction"):
        response_curve(cmat, pair, water_air, [0.1], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="frequency"):
        response_curve(cmat, pair, water_air, [0.1, -0.1], Z)
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        response_curve(cmat, pair, water_air, [0.1, math.inf], Z)


def test_overflowing_omega_squared_is_named(pair_12, cap_12, water_air):
    # 1e200**2 overflows a double; the error names that omega and the cause
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(OverflowError, match=r"omega = 1e\+200: omega\^2 overflows"):
            modal_coefficients(cap_12, pair_12, water_air, 1e200)
        with pytest.raises(OverflowError, match=r"omega = 1e\+200: omega\^2 overflows"):
            response_curve(cap_12, pair_12, water_air, [0.05, 1e200, 2e200], Z)
