"""Bispherical frame for two separated spheres and coordinate transforms.

Two spheres with radii r1, r2 and surface-to-surface gap eps sit on the
x3 axis. They are the level sets xi = -xi1 and xi = +xi2 of a
bispherical coordinate system (xi, theta, phi) whose limit points are
(0, 0, -alpha) and (0, 0, +alpha). The exterior of both spheres is the
strip -xi1 < xi < xi2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RegimeUnderflowError

REGION_INSIDE_D1 = "inside_D1"
REGION_INSIDE_D2 = "inside_D2"
REGION_EXTERIOR = "exterior"
REGION_BOUNDARY = "boundary"

_TWO_PI = 2.0 * math.pi

# ln of the smallest positive normal double
_MIN_NORMAL_LOG = math.log(2.2250738585072014e-308)


@dataclass(frozen=True)
class ResonatorPair:
    """Radii and surface gap of the two spheres (gap > 0, not touching), all finite."""

    r1: float
    r2: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r1 < math.inf and 0.0 < self.r2 < math.inf):
            raise ValueError(
                f"radii must be positive and finite, got r1={self.r1}, r2={self.r2}"
            )
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"gap must be positive and finite, got epsilon={self.epsilon}")

    @property
    def volume1(self) -> float:
        return 4.0 * math.pi * self.r1**3 / 3.0

    @property
    def volume2(self) -> float:
        return 4.0 * math.pi * self.r2**3 / 3.0


@dataclass(frozen=True)
class BisphericalFrame:
    """Derived frame scalars; sphere i satisfies r_i * sinh(xi_i) = alpha.

    c1 < -alpha < alpha < c2 are the center x3 coordinates. The original
    radii and gap are kept so downstream code never has to reconstruct
    the gap from the centers (which would cancel catastrophically).
    """

    alpha: float
    xi1: float
    xi2: float
    c1: float
    c2: float
    r1: float
    r2: float
    epsilon: float


@dataclass(frozen=True)
class BisphericalPoint:
    xi: float
    theta: float
    phi: float


def frame_from_pair(pair: ResonatorPair) -> BisphericalFrame:
    """Build the bispherical frame with limit points at (0, 0, +-alpha).

    alpha = sqrt(eps(2 r1 + eps)(2 r2 + eps)(2 r1 + 2 r2 + eps)) / (2(r1 + r2 + eps))
    xi_i = asinh(alpha / r_i), centers at c_i = (-1)^i sqrt(r_i^2 + alpha^2).

    Every factor under the root is formed without cancellation, so these
    double-precision formulas stay within a few ulps of a 50-digit
    evaluation for gaps down to 1e-307. Above eps ~ 1e78 (for unit radii)
    the product under the root overflows, and a frame quantity that is
    not finite raises ValueError.
    """
    r1, r2, eps = pair.r1, pair.r2, pair.epsilon
    alpha = math.sqrt(
        eps * (2.0 * r1 + eps) * (2.0 * r2 + eps) * (2.0 * r1 + 2.0 * r2 + eps)
    ) / (2.0 * (r1 + r2 + eps))
    xi1 = math.asinh(alpha / r1)
    xi2 = math.asinh(alpha / r2)
    c1 = -math.hypot(r1, alpha)
    c2 = math.hypot(r2, alpha)
    if not all(map(math.isfinite, (alpha, xi1, xi2, c1, c2))):
        raise ValueError(
            f"the frame of radii ({r1:g}, {r2:g}) and gap eps = {eps:g} passes the double range"
        )
    return BisphericalFrame(
        alpha=alpha, xi1=xi1, xi2=xi2, c1=c1, c2=c2, r1=r1, r2=r2, epsilon=eps
    )


def to_bispherical(frame: BisphericalFrame, p) -> BisphericalPoint:
    """Invert the coordinate map in closed form; p is any (x1, x2, x3) triple.

    With R1, R2 the distances to the limit points (0, 0, -alpha) and
    (0, 0, +alpha), R1^2 - R2^2 = 4 alpha x3, so
    xi = log(R1 / R2) = sign(x3) log1p(4 alpha |x3| / R^2) / 2 with R the
    distance to the nearer limit point. The argument of log1p is
    positive, so xi keeps its digits far from the spheres, where R1 ~ R2
    and the difference of two logarithms would cancel. And
    (cos(theta), sin(theta)) = (rho^2 + x3^2 - alpha^2, 2 alpha rho) / (R1 R2),
    taken with atan2, which keeps theta's digits near the axis where an
    acos of the cosine would lose half of them. Both are ratios of
    lengths, so the lengths are first divided by the power of two nearest
    above the largest of |x1|, |x2|, |x3| and alpha, which keeps every
    square finite. Non-finite coordinates and the limit points, which
    have no preimage, are rejected.
    """
    x1, x2, x3 = map(float, p)
    if not all(math.isfinite(c) for c in (x1, x2, x3)):
        raise ValueError(f"point ({x1}, {x2}, {x3}) is not finite")
    scale = math.ldexp(1.0, -math.frexp(max(abs(x1), abs(x2), abs(x3), frame.alpha))[1])
    y1, y2, y3, al = x1 * scale, x2 * scale, x3 * scale, frame.alpha * scale
    rho2 = y1 * y1 + y2 * y2
    near = rho2 + (abs(y3) - al) ** 2
    if near == 0.0:
        raise ValueError("limit points (0, 0, +-alpha) have no bispherical image")
    xi = math.copysign(0.5 * math.log1p(4.0 * al * abs(y3) / near), y3)
    theta = math.atan2(2.0 * al * math.sqrt(rho2), rho2 + y3 * y3 - al * al)
    phi = math.atan2(x2, x1) % _TWO_PI
    return BisphericalPoint(xi=xi, theta=theta, phi=phi)


def classify(frame: BisphericalFrame, p) -> str:
    """Locate a Cartesian point, any (x1, x2, x3) triple, relative to the two spheres.

    Returns one of REGION_INSIDE_D1, REGION_INSIDE_D2, REGION_EXTERIOR,
    REGION_BOUNDARY; boundary means within 1e-12 r_i of sphere i.
    """
    x1, x2, x3 = map(float, p)
    for center, radius, inside in (
        (frame.c1, frame.r1, REGION_INSIDE_D1),
        (frame.c2, frame.r2, REGION_INSIDE_D2),
    ):
        dist = math.hypot(x1, x2, x3 - center)
        if abs(dist - radius) <= 1e-12 * radius:
            return REGION_BOUNDARY
        if dist < radius:
            return inside
    return REGION_EXTERIOR


def log_epsilon_from_regime(delta: float, beta: float, c0: float) -> float:
    """Natural log of the regime gap c0 * exp(-1/delta^(1-beta)).

    This is the quantity to use once the gap itself underflows; it stays
    finite for any positive contrast.
    """
    _check_regime(delta, beta, c0)
    return math.log(c0) - delta ** (beta - 1.0)


def epsilon_from_regime(delta: float, beta: float, c0: float) -> float:
    """Gap size c0 * exp(-1/delta^(1-beta)) for a given contrast delta.

    Raises RegimeUnderflowError instead of silently returning 0.0 when
    the value drops below the smallest normal double; callers that only
    need asymptotics should switch to log_epsilon_from_regime.
    """
    log_eps = log_epsilon_from_regime(delta, beta, c0)
    if log_eps < _MIN_NORMAL_LOG:
        raise RegimeUnderflowError(
            f"epsilon = exp({log_eps:.1f}) underflows double precision; "
            "use log_epsilon_from_regime for asymptotic work"
        )
    return math.exp(log_eps)


def _check_regime(delta: float, beta: float, c0: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"contrast delta must lie in (0, 1), got {delta}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"regime exponent beta must lie in (0, 1), got {beta}")
    if not 0.0 < c0 < math.inf:
        raise ValueError(f"regime scale c0 must be positive and finite, got {c0}")
