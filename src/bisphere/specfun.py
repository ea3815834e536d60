"""Special functions used by the series and the gap asymptotics.

Legendre polynomials, the digamma function, and the partial-fraction
tail sum(z / (n(n - z))) that links the digamma function to the
capacitance asymptotics.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

# Euler-Mascheroni constant, correct to double precision
GAMMA_EULER = 0.5772156649015329

# digamma asymptotic series in w = 1/z^2 (Bernoulli terms), valid z >= 10
_DIGAMMA_ASYMP = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0)

# digamma_series_tail: the first _TAIL_HEAD terms are summed directly, the
# rest as sum_{j>=2} z^(j-1) zeta(j, _TAIL_HEAD + 1) for j < _TAIL_ORDERS;
# each order shrinks by a factor z/(_TAIL_HEAD + 1), so the first omitted
# one is below (z/65)^28 of the j = 2 term
_TAIL_HEAD = 64
_TAIL_ORDERS = 30
_HEAD_N = np.arange(1.0, _TAIL_HEAD + 1.0)
_TAIL_POWERS = np.arange(1.0, _TAIL_ORDERS - 1.0)  # j - 1 for j = 2 ... 29
_TAIL_ZETA = _hurwitz_zeta(_TAIL_POWERS + 1.0, _TAIL_HEAD + 1.0)


def legendre_p(n: int, x: float) -> float:
    """P_n(x) by the three-term recurrence; requires |x| <= 1."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if abs(x) > 1.0:
        raise ValueError(f"argument must lie in [-1, 1], got {x}")
    if n == 0:
        return 1.0
    p_prev = 1.0
    p = x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


def digamma(z: float) -> float:
    """Digamma function for real z > 0.

    Upward recurrence psi(z) = psi(z+1) - 1/z until z >= 10, then the
    standard asymptotic series. Absolute accuracy is well below 1e-12 on
    (0, 10].
    """
    if not z > 0.0:
        raise ValueError(f"digamma requires z > 0, got {z}")
    acc = 0.0
    while z < 10.0:
        acc -= 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    series = 0.0
    for coef in reversed(_DIGAMMA_ASYMP):
        series = w * (coef + series)
    return acc + math.log(z) - 0.5 / z - series


def digamma_series_tail(z: float) -> float:
    """sum_{n>=1} z / (n (n - z)) for 0 < z < 1, to a few ulps relative.

    This is -gamma - psi(1 - z), but the direct difference cancels for
    small z. The first 64 terms are summed exactly rounded (math.fsum);
    the remainder is re-expanded as sum_{j>=2} z^(j-1) zeta(j, 65), a
    Hurwitz-zeta series whose terms fall by a factor z/65 each, so the
    quadratic decay of the terms never forces a long direct sum.
    """
    if not 0.0 < z < 1.0:
        raise ValueError(f"tail sum requires z in (0, 1), got {z}")
    head = z / (_HEAD_N * (_HEAD_N - z))
    tail = np.power(z, _TAIL_POWERS) * _TAIL_ZETA
    return math.fsum(head.tolist() + tail.tolist())
