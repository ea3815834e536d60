import math

import mpmath
import pytest

from bisphere import (
    GAMMA_EULER,
    digamma_series_tail,
)


def test_digamma_series_tail_half():
    # sum_{n>=1} z/(n(n-z)) at z = 1/2 collapses to 2 log 2
    assert digamma_series_tail(1.0, 1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)


def test_digamma_series_tail_reflection_identity():
    # the tail sum equals -gamma - psi(1 - z) for z = p / (p + q) in (0, 1)
    for p, q in ((0.05, 0.95), (0.2, 0.8), (1.0, 1.0), (0.62, 0.38), (9.0, 1.0), (99.0, 1.0)):
        with mpmath.workdps(50):
            psi = float(mpmath.digamma(mpmath.mpf(q) / (mpmath.mpf(p) + mpmath.mpf(q))))
        assert digamma_series_tail(p, q) == pytest.approx(-GAMMA_EULER - psi, rel=1e-12)


def test_digamma_series_tail_rejects_out_of_domain():
    for p, q in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            digamma_series_tail(p, q)


@pytest.mark.parametrize(
    "z",
    [1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 1 / 3, 0.5, 0.62, 0.9, 0.99,
     0.999, 1 - 1e-6, 1 - 1e-10, 1 - 1e-14],
)
def test_digamma_series_tail_against_mpmath(z):
    # a caller that holds z alone passes 1 - z, formed in floats, as q
    p, q = z, 1.0 - z
    with mpmath.workdps(50):
        pm, qm = mpmath.mpf(p), mpmath.mpf(q)
        want = float(-mpmath.euler - mpmath.digamma(qm / (pm + qm)))
    assert digamma_series_tail(p, q) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("ratio", [10.0**k for k in range(-14, 15)])
def test_digamma_series_tail_complement_against_mpmath(ratio):
    # z = p / (p + q) from p / q = 1e-14 ... 1e14: 1 - z is q / (p + q),
    # never a difference, so z -> 1 keeps the digits of the n = 1 term
    p, q = 0.75 * ratio, 0.75
    with mpmath.workdps(50):
        pm, qm = mpmath.mpf(p), mpmath.mpf(q)
        want = float(-mpmath.euler - mpmath.digamma(qm / (pm + qm)))
    assert digamma_series_tail(p, q) == pytest.approx(want, rel=1e-15, abs=0.0)
