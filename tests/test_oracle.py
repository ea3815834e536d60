import math

import numpy as np
import pytest

from bisphere import (
    ResonatorPair,
    capacitance_exact,
    frame_from_pair,
    potential_series,
)
from bisphere.oracle import (
    QuadratureConvergenceError,
    fd_check_gradient,
    fd_check_laplacian,
    flux_quadrature,
    image_charge_capacitance,
    image_charge_system,
)


def test_image_system_structure():
    pair = ResonatorPair(1.0, 2.0, 0.5)
    sys = image_charge_system(pair, 1, n_reflections=100)
    z0, q0, home0 = sys.charges[0]
    # seed: charge r1 at the centre of sphere 1 gives unit surface potential
    assert (z0, q0, home0) == (0.0, 1.0, 1)
    # reflections alternate between the spheres
    homes = [c[2] for c in sys.charges]
    assert homes[:6] == [1, 2, 1, 2, 1, 2]
    # magnitudes decay geometrically
    mags = [abs(c[1]) for c in sys.charges]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_image_system_validation():
    pair = ResonatorPair(1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        image_charge_system(pair, 3)
    with pytest.raises(ValueError):
        image_charge_system(pair, 1, n_reflections=0)


def test_image_isolated_sphere_limit():
    c = image_charge_capacitance(ResonatorPair(1.0, 2.0, 1e4))
    assert c.c11 == pytest.approx(4.0 * math.pi, rel=1e-3)
    assert c.c22 == pytest.approx(8.0 * math.pi, rel=1e-3)


def test_image_symmetric_pair():
    c = image_charge_capacitance(ResonatorPair(1.5, 1.5, 0.05))
    assert c.c11 == pytest.approx(c.c22, rel=1e-12)
    assert c.c12 == pytest.approx(c.c21, rel=1e-12)


def test_image_refinement_converges():
    pair = ResonatorPair(1.0, 1.0, 0.001)
    ref = image_charge_capacitance(pair, n_reflections=1200)
    err = []
    for n in (100, 400):
        with pytest.warns(UserWarning, match="image-charge tail"):
            c = image_charge_capacitance(pair, n_reflections=n)
        err.append(abs(c.c11 - ref.c11))
    assert err[1] < err[0]


def test_image_matches_series_cheap_cell():
    pair = ResonatorPair(1.0, 1.0, 0.1)
    series = capacitance_exact(frame_from_pair(pair), tol=1e-13)
    oracle = image_charge_capacitance(pair, n_reflections=400)
    for name in ("c11", "c12", "c21", "c22"):
        assert getattr(series, name) == pytest.approx(
            getattr(oracle, name), rel=1e-11
        ), name


def test_flux_quadrature_recovers_capacitance(series_12, cap_12):
    # the quadrature integrates the series' normal derivative over each
    # sphere; agreeing with the closed-form sums checks the coefficients
    # through Gauss' law instead of the summation identity
    want = {
        (1, 1): cap_12.c11,
        (1, 2): cap_12.c21,
        (2, 1): cap_12.c12,
        (2, 2): cap_12.c22,
    }
    for (j, i), ref in want.items():
        got = flux_quadrature(series_12, j, i, tol=1e-9)
        assert got == pytest.approx(ref, rel=1e-8), (j, i)


def test_flux_quadrature_budget_raises(series_12):
    with pytest.raises(QuadratureConvergenceError):
        flux_quadrature(series_12, 1, 1, tol=1e-16, max_nodes=512)


def test_fd_gradient_on_known_harmonic():
    x0 = np.array([0.3, -0.2, 0.5])

    def f(x):
        return 1.0 / np.linalg.norm(x - x0)

    p = np.array([1.7, 0.4, -0.9])
    r = p - x0
    want = -r / np.linalg.norm(r) ** 3
    got = fd_check_gradient(f, p, 1e-2)
    assert np.allclose(got, want, rtol=1e-8)


def test_fd_gradient_clearance_guard():
    with pytest.raises(ValueError):
        fd_check_gradient(lambda x: 0.0, np.zeros(3), 1e-2, clearance=1e-3)
    with pytest.raises(ValueError):
        fd_check_gradient(lambda x: 0.0, np.zeros(3), -1e-2)


def test_fd_laplacian_exact_on_quadratic():
    def f(x):
        return float(x @ x)

    got = fd_check_laplacian(f, np.array([0.4, 1.0, -2.0]), 1e-3)
    assert got == pytest.approx(6.0, rel=1e-10)


def test_fd_laplacian_second_order_on_harmonic():
    x0 = np.array([0.1, 0.0, 0.25])

    def f(x):
        return 1.0 / np.linalg.norm(x - x0)

    p = np.array([1.2, -0.6, 0.8])
    res = [abs(fd_check_laplacian(f, p, h)) for h in (2e-2, 1e-2)]
    # halving h should cut the defect by about four
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.3)
