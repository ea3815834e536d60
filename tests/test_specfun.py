import math

import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from bisphere import (
    GAMMA_EULER,
    digamma,
    digamma_series_tail,
)


def test_digamma_special_values():
    assert digamma(1.0) == pytest.approx(-GAMMA_EULER, rel=1e-14)
    assert digamma(0.5) == pytest.approx(-GAMMA_EULER - 2.0 * math.log(2.0), rel=1e-14)
    # frozen with mpmath at 50 digits
    assert digamma(0.3) == pytest.approx(-3.502524222200133, rel=1e-13)
    assert digamma(4.7) == pytest.approx(1.4374238096317817, rel=1e-13)


@settings(max_examples=100, deadline=None)
@given(z=st.floats(min_value=0.05, max_value=20.0))
def test_digamma_recurrence(z):
    assert digamma(z + 1.0) == pytest.approx(digamma(z) + 1.0 / z, rel=1e-11)


def test_digamma_against_scipy():
    for z in (0.1, 0.37, 1.0, 2.5, 7.3, 40.0, 123.4):
        assert digamma(z) == pytest.approx(float(scipy.special.digamma(z)), rel=1e-12)


def test_digamma_series_tail_half():
    # sum_{n>=1} z/(n(n-z)) at z = 1/2 collapses to 2 log 2
    assert digamma_series_tail(0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_digamma_series_tail_reflection_identity():
    # the tail sum equals -gamma - psi(1 - z) for z in (0, 1)
    for z in (0.05, 0.2, 0.5, 0.62, 0.9, 0.99):
        want = -GAMMA_EULER - digamma(1.0 - z)
        assert digamma_series_tail(z) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_digamma_series_tail_rejects_out_of_domain():
    for z in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError):
            digamma_series_tail(z)


@pytest.mark.parametrize(
    "z",
    [1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 1 / 3, 0.5, 0.62, 0.9, 0.99,
     0.999, 1 - 1e-6, 1 - 1e-10, 1 - 1e-14],
)
def test_digamma_series_tail_against_mpmath(z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        zm = mpmath.mpf(z)
        if z < 1e-6:
            # -gamma - psi(1 - z) cancels to z zeta(2); sum the series itself
            want = mpmath.nsum(lambda n: zm / (n * (n - zm)), [1, mpmath.inf])
        else:
            want = -mpmath.euler - mpmath.digamma(1 - zm)
        want = float(want)
    assert digamma_series_tail(z) == pytest.approx(want, rel=1e-15, abs=0.0)
