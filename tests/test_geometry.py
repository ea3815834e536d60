import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisphere import (
    BisphericalPoint,
    RegimeUnderflowError,
    ResonatorPair,
    classify,
    epsilon_from_regime,
    frame_from_pair,
    log_epsilon_from_regime,
    to_bispherical,
)
from bisphere.geometry import (
    REGION_BOUNDARY,
    REGION_EXTERIOR,
    REGION_INSIDE_D1,
    REGION_INSIDE_D2,
)
from bisphere.oracle import to_cartesian

# frozen with mpmath at 50 digits
FRAME_12_005 = {
    "alpha": 0.2597988932401033,
    "xi1": 0.25696170809918806,
    "xi2": 0.12953687537152,
    "c1": -1.0331967213114754,
    "c2": 2.0168032786885246,
}

radii = st.floats(min_value=0.1, max_value=10.0)
gaps = st.floats(min_value=1e-6, max_value=10.0)


def test_frame_matches_high_precision_literals(frame_12):
    for name, want in FRAME_12_005.items():
        assert getattr(frame_12, name) == pytest.approx(want, rel=1e-13), name


def test_symmetric_frame_literals(frame_sym):
    # alpha frozen with mpmath; c2 = sqrt(1 + alpha^2) = 1.05 exactly here
    assert frame_sym.alpha == pytest.approx(0.32015621187164245, rel=1e-14)
    assert frame_sym.xi1 == frame_sym.xi2
    assert frame_sym.c2 == pytest.approx(1.05, rel=1e-14)
    assert frame_sym.c1 == pytest.approx(-1.05, rel=1e-14)


def test_pair_validation():
    with pytest.raises(ValueError):
        ResonatorPair(-1.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        ResonatorPair(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        ResonatorPair(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        ResonatorPair(1.0, 2.0, -0.05)
    # a non-finite radius or gap is refused by name, not by a later check
    for bad in (math.inf, math.nan):
        for args in ((bad, 2.0, 0.1), (1.0, bad, 0.1)):
            with pytest.raises(ValueError, match="radii must be positive and finite"):
                ResonatorPair(*args)
        with pytest.raises(ValueError, match="gap must be positive and finite"):
            ResonatorPair(1.0, 2.0, bad)


def test_volumes():
    pair = ResonatorPair(1.0, 2.0, 0.05)
    assert pair.volume1 == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert pair.volume2 == pytest.approx(32.0 * math.pi / 3.0, rel=1e-15)


@settings(max_examples=80, deadline=None)
@given(r1=radii, r2=radii, eps=gaps)
def test_frame_identities(r1, r2, eps):
    fr = frame_from_pair(ResonatorPair(r1, r2, eps))
    # the defining property of the frame: both spheres are coordinate spheres
    assert r1 * math.sinh(fr.xi1) == pytest.approx(fr.alpha, rel=1e-12)
    assert r2 * math.sinh(fr.xi2) == pytest.approx(fr.alpha, rel=1e-12)
    # centers at -+ r cosh(xi)
    assert fr.c1 == pytest.approx(-r1 * math.cosh(fr.xi1), rel=1e-12)
    assert fr.c2 == pytest.approx(r2 * math.cosh(fr.xi2), rel=1e-12)
    # center distance reproduces the gap
    assert fr.c2 - fr.c1 == pytest.approx(r1 + r2 + eps, rel=1e-12)


def test_sphere_level_sets(frame_12):
    # xi = xi2 must trace sphere 2, xi = -xi1 sphere 1, for every theta
    for theta in np.linspace(0.0, math.pi, 17):
        x1, x2, x3 = to_cartesian(frame_12, BisphericalPoint(frame_12.xi2, theta, 0.3))
        rho2 = math.hypot(math.hypot(x1, x2), x3 - frame_12.c2)
        assert rho2 == pytest.approx(frame_12.r2, rel=1e-12)
        x1, x2, x3 = to_cartesian(frame_12, BisphericalPoint(-frame_12.xi1, theta, 1.2))
        rho1 = math.hypot(math.hypot(x1, x2), x3 - frame_12.c1)
        assert rho1 == pytest.approx(frame_12.r1, rel=1e-12)


def test_round_trip_random_points(frame_12, rng):
    n_ok = 0
    for _ in range(1000):
        x = rng.uniform(-3.0, 3.0, size=3)
        # keep away from the two limit points where theta degenerates
        if min(
            np.linalg.norm(x - [0, 0, -frame_12.alpha]),
            np.linalg.norm(x - [0, 0, frame_12.alpha]),
        ) < 1e-3:
            continue
        b = to_bispherical(frame_12, x)
        back = to_cartesian(frame_12, b)
        assert np.allclose(back, x, rtol=1e-12, atol=1e-12)
        n_ok += 1
    assert n_ok > 900


def test_gap_axis_parametrization(frame_12):
    # theta = pi is the segment between the near poles: x3 = alpha tanh(xi/2)
    for xi in np.linspace(-frame_12.xi1, frame_12.xi2, 11):
        x1, x2, x3 = to_cartesian(frame_12, BisphericalPoint(xi, math.pi, 0.0))
        assert abs(x1) < 1e-15 and abs(x2) < 1e-15
        assert x3 == pytest.approx(frame_12.alpha * math.tanh(xi / 2.0), abs=1e-15)


def test_origin_maps_to_gap_center(frame_12):
    b = to_bispherical(frame_12, (0.0, 0.0, 0.0))
    assert b.xi == pytest.approx(0.0, abs=1e-15)
    assert b.theta == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize("x3", [6.0, 60.0, 600.0, 1e4, 1e6, 1e8, -6.0, -600.0, -1e8])
def test_far_xi_against_mpmath(frame_12, x3):
    # far from the spheres R1 ~ R2, where log R1^2 - log R2^2 would cancel
    x = (0.0, 1e-3, x3)
    b = to_bispherical(frame_12, x)
    with mpmath.workdps(40):
        al = mpmath.mpf(frame_12.alpha)
        x1, x2, z = (mpmath.mpf(c) for c in x)
        want = mpmath.log((x1**2 + x2**2 + (z + al) ** 2) / (x1**2 + x2**2 + (z - al) ** 2)) / 2
        assert abs(b.xi - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("big", [1e200, 1e300])
def test_huge_points_have_finite_coordinates(frame_12, big):
    for x in ((big, 0.0, 0.0), (0.0, 0.0, -big), (big, -big, big)):
        b = to_bispherical(frame_12, x)
        assert all(math.isfinite(c) for c in (b.xi, b.theta, b.phi))
        # xi ~ 2 alpha x3 / |x|^2 and theta ~ 2 alpha rho / |x|^2
        r2 = (x[0] / big) ** 2 + (x[1] / big) ** 2 + (x[2] / big) ** 2
        assert b.xi == pytest.approx(2.0 * frame_12.alpha * x[2] / big / r2 / big, rel=1e-12)
        rho = math.hypot(x[0], x[1]) / big
        assert b.theta == pytest.approx(2.0 * frame_12.alpha * rho / r2 / big, rel=1e-12)
    assert classify(frame_12, (0.0, 0.0, big)) == REGION_EXTERIOR


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_to_bispherical_rejects_non_finite_points(frame_12, bad):
    with pytest.raises(ValueError, match="not finite"):
        to_bispherical(frame_12, (0.0, bad, 1.0))


def test_to_cartesian_rejects_degenerate_point(frame_12):
    with pytest.raises(ValueError):
        to_cartesian(frame_12, BisphericalPoint(0.0, 0.0, 0.0))


def test_classify_regions(frame_12):
    assert classify(frame_12, (0.0, 0.0, frame_12.c1)) == REGION_INSIDE_D1
    assert classify(frame_12, (0.0, 0.0, frame_12.c2)) == REGION_INSIDE_D2
    assert classify(frame_12, (2.5, 0.5, -1.0)) == REGION_EXTERIOR
    on_surface = (0.0, frame_12.r2, frame_12.c2)
    assert classify(frame_12, on_surface) == REGION_BOUNDARY


def test_classify_accepts_plain_triples(frame_12):
    assert classify(frame_12, (0.0, 0.0, frame_12.c1)) == REGION_INSIDE_D1
    assert classify(frame_12, np.array([2.5, 0.5, -1.0])) == REGION_EXTERIOR


def test_tiny_gap_frame_keeps_full_precision():
    # a tiny gap must not cost the frame its digits
    fr = frame_from_pair(ResonatorPair(1.0, 1.0, 1e-12))
    # alpha = sqrt(eps (r + eps/4)) for equal spheres
    assert fr.alpha == pytest.approx(1e-6, rel=1e-10)
    assert fr.xi1 == pytest.approx(1e-6, rel=1e-6)


def _frame_50_digits(r1, r2, eps):
    with mpmath.workdps(50):
        r1, r2, eps = mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(eps)
        alpha = mpmath.sqrt(
            eps * (2 * r1 + eps) * (2 * r2 + eps) * (2 * r1 + 2 * r2 + eps)
        ) / (2 * (r1 + r2 + eps))
        return (
            alpha,
            mpmath.asinh(alpha / r1),
            mpmath.asinh(alpha / r2),
            -mpmath.sqrt(r1 * r1 + alpha * alpha),
            mpmath.sqrt(r2 * r2 + alpha * alpha),
        )


@pytest.mark.parametrize(
    "r1,r2", [(1, 2), (1, 1), (0.5, 3), (1, 1e3), (7.3, 0.2), (0.1, 10), (1e-3, 1)]
)
def test_frame_matches_50_digit_evaluation_at_tiny_gaps(r1, r2):
    for k in range(8, 308):
        eps = 10.0**-k
        fr = frame_from_pair(ResonatorPair(r1, r2, eps))
        got = (fr.alpha, fr.xi1, fr.xi2, fr.c1, fr.c2)
        for name, g, want in zip(("alpha", "xi1", "xi2", "c1", "c2"), got,
                                 _frame_50_digits(r1, r2, eps)):
            assert g == pytest.approx(float(want), rel=1e-14), (name, eps)


@pytest.mark.parametrize("eps", [1e78, 1e80])
def test_frame_beyond_the_double_range_raises(eps):
    # the product under alpha's root overflows from eps ~ 1e78 for radii (1, 2),
    # which would leave alpha, xi and the centres inf
    with pytest.raises(ValueError, match=re.escape(f"gap eps = {eps:g}")):
        frame_from_pair(ResonatorPair(1.0, 2.0, eps))


def test_huge_finite_frame_is_unchanged():
    fr = frame_from_pair(ResonatorPair(1.0, 2.0, 1e70))
    got = (fr.alpha, fr.xi1, fr.xi2, fr.c1, fr.c2)
    for name, g, want in zip(("alpha", "xi1", "xi2", "c1", "c2"), got,
                             _frame_50_digits(1.0, 2.0, 1e70)):
        assert g == pytest.approx(float(want), rel=1e-14), name


def test_regime_gap_monotone_and_consistent():
    eps_a = epsilon_from_regime(1e-2, 0.5, 1.0)
    eps_b = epsilon_from_regime(2e-2, 0.5, 1.0)
    assert 0.0 < eps_a < eps_b < 1.0
    assert math.log(eps_a) == pytest.approx(
        log_epsilon_from_regime(1e-2, 0.5, 1.0), rel=1e-15
    )
    # delta = 1e-2, beta = 0.5: eps = exp(-1/sqrt(delta)) = exp(-10)
    assert eps_a == pytest.approx(math.exp(-10.0), rel=1e-14)


def test_regime_gap_underflow_raises():
    with pytest.raises(RegimeUnderflowError):
        epsilon_from_regime(1e-8, 0.5, 1.0)
    # the log form stays finite exactly there
    assert log_epsilon_from_regime(1e-8, 0.5, 1.0) == pytest.approx(-1e4)


def test_regime_parameter_validation():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            epsilon_from_regime(1e-3, bad, 1.0)
    with pytest.raises(ValueError):
        epsilon_from_regime(-1e-3, 0.5, 1.0)
    with pytest.raises(ValueError):
        epsilon_from_regime(1e-3, 0.5, -2.0)
    with pytest.raises(ValueError, match="finite"):
        log_epsilon_from_regime(0.1, 0.5, math.inf)
