import math

import mpmath
import pytest

from bisphere import (
    Material,
    ResonatorPair,
    capacitance_exact,
    eigen,
    frame_from_pair,
    rescale,
    resonance_asymptotic,
    resonant_frequencies,
)


def test_material_derived_quantities(water_air):
    assert water_air.delta == pytest.approx(1e-3, rel=1e-15)
    assert water_air.v == pytest.approx(1.0, rel=1e-15)
    assert water_air.v_b == pytest.approx(1.0, rel=1e-15)
    assert water_air.tau == pytest.approx(1.0, rel=1e-15)


def test_material_validation():
    with pytest.raises(ValueError):
        Material(rho=0.0, rho_b=1e-3, kappa=1.0, kappa_b=1e-3)
    with pytest.raises(ValueError):
        Material(rho=1.0, rho_b=-1e-3, kappa=1.0, kappa_b=1e-3)
    base = dict(rho=1.0, rho_b=1e-3, kappa=1.0, kappa_b=1e-3)
    for name in base:
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                Material(**{**base, name: bad})


def test_eigen_trace_and_determinant(cap_12, pair_12, spectral_12):
    ct = rescale(cap_12, pair_12)
    tr = ct.ct11 + ct.ct22
    det = ct.ct11 * ct.ct22 - ct.ct12 * ct.ct21
    sp = spectral_12
    assert sp.lambda1 + sp.lambda2 == pytest.approx(tr, rel=1e-12)
    assert sp.lambda1 * sp.lambda2 == pytest.approx(det, rel=1e-10)
    assert 0.0 < sp.lambda1 < sp.lambda2


def test_eigen_against_quadratic_oracle(cap_12, pair_12, spectral_12):
    # independent quadratic-formula evaluation at 40 digits
    ct = rescale(cap_12, pair_12)
    with mpmath.workdps(40):
        a11, a12 = mpmath.mpf(ct.ct11), mpmath.mpf(ct.ct12)
        a21, a22 = mpmath.mpf(ct.ct21), mpmath.mpf(ct.ct22)
        tr = a11 + a22
        disc = mpmath.sqrt((a11 - a22) ** 2 + 4 * a12 * a21)
        lam2 = (tr + disc) / 2
        lam1 = (tr - disc) / 2
        d1 = (lam1 - a22) / a21
        d2 = (lam2 - a22) / a21
    assert spectral_12.lambda1 == pytest.approx(float(lam1), rel=1e-12)
    assert spectral_12.lambda2 == pytest.approx(float(lam2), rel=1e-12)
    assert spectral_12.d1 == pytest.approx(float(d1), rel=1e-12)
    assert spectral_12.d2 == pytest.approx(float(d2), rel=1e-12)


def test_eigen_symmetric_exact_branch():
    pair = ResonatorPair(1.0, 1.0, 0.01)
    ct = rescale(capacitance_exact(frame_from_pair(pair)), pair)
    sp = eigen(ct)
    # identical spheres: eigenpairs come out exactly, not via the quadratic
    assert sp.lambda1 == ct.ct11 + ct.ct12
    assert sp.lambda2 == ct.ct11 - ct.ct12
    assert sp.d1 == 1.0
    assert sp.d2 == -1.0


def test_mode_ratio_limit_for_unequal_spheres():
    # the anti-phase mode weights boundary values like the inverse volumes:
    # d2 -> -(r2/r1)^3 as the gap closes
    pair = ResonatorPair(1.0, 2.0, 1e-5)
    sp = eigen(rescale(capacitance_exact(frame_from_pair(pair), tol=1e-13), pair))
    assert sp.d2 == pytest.approx(-8.0, rel=0.15)
    assert sp.d1 == pytest.approx(1.0, rel=0.15)


def test_frequencies_are_scaled_eigenvalue_roots(spectral_12, water_air):
    res = resonant_frequencies(spectral_12, water_air)
    m = water_air
    assert res.omega1 == pytest.approx(
        math.sqrt(m.delta) * m.v_b * math.sqrt(spectral_12.lambda1), rel=1e-14
    )
    assert res.omega2 == pytest.approx(
        math.sqrt(m.delta) * m.v_b * math.sqrt(spectral_12.lambda2), rel=1e-14
    )
    assert 0.0 < res.omega1 < res.omega2


def test_material_rescaling_leaves_frequencies_fixed(spectral_12, water_air):
    # scaling (rho, rho_b, kappa, kappa_b) by a common factor changes
    # neither the contrast nor the interior sound speed
    scaled = Material(rho=7.0, rho_b=7e-3, kappa=7.0, kappa_b=7e-3)
    a = resonant_frequencies(spectral_12, water_air)
    b = resonant_frequencies(spectral_12, scaled)
    assert a.omega1 == pytest.approx(b.omega1, rel=1e-14)
    assert a.omega2 == pytest.approx(b.omega2, rel=1e-14)


def test_closed_form_tracks_exact_frequencies_symmetric(water_air):
    eps = 1e-6
    pair = ResonatorPair(1.0, 1.0, eps)
    sp = eigen(rescale(capacitance_exact(frame_from_pair(pair), tol=1e-13), pair))
    exact = resonant_frequencies(sp, water_air)
    asym = resonance_asymptotic(pair, water_air)
    assert asym.omega1 == pytest.approx(exact.omega1, rel=1e-2)
    assert asym.omega2 == pytest.approx(exact.omega2, rel=1e-2)


def test_closed_form_converges_to_exact():
    # for unequal radii the anti-phase closed form keeps only the log term,
    # so its relative error decays like 1/|log eps|; the in-phase form is
    # tighter because the weighted-sigma eigenvalue carries its constant
    m = Material(rho=1.0, rho_b=1e-4, kappa=1.0, kappa_b=1e-4)
    errs1, errs2 = [], []
    for eps in (1e-4, 1e-7):
        pair = ResonatorPair(1.0, 2.0, eps)
        sp = eigen(rescale(capacitance_exact(frame_from_pair(pair), tol=1e-13), pair))
        exact = resonant_frequencies(sp, m)
        close = resonance_asymptotic(pair, m)
        errs1.append(abs(close.omega1 / exact.omega1 - 1.0))
        errs2.append(abs(close.omega2 / exact.omega2 - 1.0))
    assert errs1[1] < errs1[0] and errs1[1] < 1e-2
    assert errs2[1] < errs2[0] and errs2[1] < 0.1


def test_closed_form_accepts_log_gap(water_air):
    # the log-gap entry point must agree with the plain-gap one where both run
    # the log form drops O(eps) frame corrections, so agreement is to O(eps)
    # in the bracket, not bitwise
    pair = ResonatorPair(1.0, 2.0, 1e-6)
    a = resonance_asymptotic(pair, water_air)
    b = resonance_asymptotic((1.0, 2.0), water_air, log_eps=math.log(1e-6))
    assert a.omega1 == pytest.approx(b.omega1, rel=1e-6)
    assert a.omega2 == pytest.approx(b.omega2, rel=1e-6)
    # and it keeps working where the gap itself underflows
    deep = resonance_asymptotic((1.0, 2.0), water_air, log_eps=-1e5)
    assert deep.omega2 > 0.0


def test_closed_form_requires_some_gap(water_air):
    with pytest.raises(ValueError):
        resonance_asymptotic((1.0, 2.0), water_air)
