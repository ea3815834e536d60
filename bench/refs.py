"""Independent references for the benchmark's correctness checks.

Nothing here imports or mirrors `bisphere`; every quantity is rebuilt from
the geometry (two spheres of radii r1, r2 with surface gap eps on the x3
axis) in mpmath:

* the limit points +-alpha are the common inverse points of both spheres,
  found from c_i^2 = r_i^2 + alpha^2 and c2 - c1 = r1 + r2 + eps;
* the capacitance coefficients are image sums over k of 1/(2 sinh(X + k s))
  (the double series summed over the degree in closed form), with a head of
  direct terms and an Euler-Maclaurin tail whose integral is
  -log(tanh(Y/2)) / (2 s);
* the potentials V_j and their gradients are Kelvin image charges on the
  axis, reflected back and forth until the last image is negligible.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np

_DPS = 40
# head terms summed directly before the Euler-Maclaurin tail; with K terms
# the j-th Bernoulli correction is below (2 pi K)^(-2j) of the sum, so K = 32
# and four corrections leave a remainder far below double precision
_EM_HEAD = 32
_EM_ORDER = 4
# Kelvin chains stop once an image is this small relative to the seed charge
_IMAGE_REL_STOP = mpmath.mpf("1e-24")
_IMAGE_MAX = 200_000


@lru_cache(maxsize=None)
def geometry(r1: float, r2: float, eps: float):
    """(alpha, xi1, xi2, c1, c2) as mpf at _DPS digits."""
    with mpmath.workdps(_DPS):
        r1m, r2m, em = mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(eps)
        dist = r1m + r2m + em
        # c2 - r2 = eps (eps + 2 r1) / (2 dist): the gap side of sphere 2,
        # free of the cancellation in c2 - r2 for a thin gap
        c2_minus_r2 = em * (em + 2 * r1m) / (2 * dist)
        c2 = c2_minus_r2 + r2m
        c1 = c2 - dist
        alpha = mpmath.sqrt(c2_minus_r2 * (c2 + r2m))
        xi1 = mpmath.asinh(alpha / r1m)
        xi2 = mpmath.asinh(alpha / r2m)
        return alpha, xi1, xi2, c1, c2


def _image_sum(x, s):
    """sum_{k>=0} 1 / (2 sinh(x + k s)) at the working precision."""
    head = mpmath.fsum(1 / (2 * mpmath.sinh(x + k * s)) for k in range(_EM_HEAD))
    y = x + _EM_HEAD * s
    g = lambda t: 1 / (2 * mpmath.sinh(t))  # noqa: E731
    integral = -mpmath.log(mpmath.tanh(y / 2)) / (2 * s)
    taylor = mpmath.taylor(g, y, 2 * _EM_ORDER)
    corr = g(y) / 2
    for j in range(1, _EM_ORDER + 1):
        m = 2 * j - 1
        deriv = taylor[m] * mpmath.factorial(m) * s**m
        corr -= mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * deriv
    return head + integral + corr


@lru_cache(maxsize=None)
def capacitance(r1: float, r2: float, eps: float):
    """(C11, C12, C22) in the 4-pi convention, as mpf."""
    alpha, xi1, xi2, _, _ = geometry(r1, r2, eps)
    with mpmath.workdps(_DPS):
        s = xi1 + xi2
        pref = 8 * mpmath.pi * alpha
        return (
            pref * _image_sum(xi1, s),
            -pref * _image_sum(s, s),
            pref * _image_sum(xi2, s),
        )


def rescaled_matrix(r1: float, r2: float, eps: float) -> np.ndarray:
    """C_ij / vol_i as a float 2x2 array."""
    c11, c12, c22 = capacitance(r1, r2, eps)
    v1 = 4.0 * math.pi * r1**3 / 3.0
    v2 = 4.0 * math.pi * r2**3 / 3.0
    return np.array(
        [[float(c11) / v1, float(c12) / v1], [float(c12) / v2, float(c22) / v2]]
    )


@lru_cache(maxsize=None)
def eigenpairs(r1: float, r2: float, eps: float):
    """((lambda1, d1), (lambda2, d2)) with eigenvector (d_n, 1), high precision."""
    c11, c12, c22 = capacitance(r1, r2, eps)
    with mpmath.workdps(_DPS):
        v1 = 4 * mpmath.pi * mpmath.mpf(r1) ** 3 / 3
        v2 = 4 * mpmath.pi * mpmath.mpf(r2) ** 3 / 3
        a = mpmath.matrix([[c11 / v1, c12 / v1], [c12 / v2, c22 / v2]])
        vals, vecs = mpmath.eig(a)
        pairs = sorted(
            (vals[k].real, vecs[0, k].real / vecs[1, k].real) for k in range(2)
        )
        return tuple((float(lam), float(d)) for lam, d in pairs)


@lru_cache(maxsize=None)
def _kelvin_chain(r1: float, r2: float, eps: float, j: int):
    """Axis charges (z, q) giving V_j = 1 on sphere j and 0 on the other."""
    _, _, _, c1, c2 = geometry(r1, r2, eps)
    centers = {1: c1, 2: c2}
    with mpmath.workdps(_DPS):
        radii = {1: mpmath.mpf(r1), 2: mpmath.mpf(r2)}
        home = j
        q = radii[j]
        z = centers[j]
        stop = _IMAGE_REL_STOP * q
        chain = [(z, q)]
        for _ in range(_IMAGE_MAX):
            other = 3 - home
            off = z - centers[other]
            q = -q * radii[other] / abs(off)
            z = centers[other] + radii[other] ** 2 / off
            home = other
            chain.append((z, q))
            if abs(q) < stop:
                return tuple(chain)
    raise RuntimeError(f"Kelvin chain did not settle for eps={eps:g}")


def potential(r1: float, r2: float, eps: float, j: int, x) -> tuple[float, np.ndarray]:
    """(V_j, grad V_j) at the Cartesian point x from the Kelvin images."""
    chain = _kelvin_chain(r1, r2, eps, j)
    with mpmath.workdps(_DPS):
        x1, x2, x3 = (mpmath.mpf(float(v)) for v in x)
        rho2 = x1 * x1 + x2 * x2
        val = mpmath.mpf(0)
        g1 = g2 = g3 = mpmath.mpf(0)
        for z, q in chain:
            dz = x3 - z
            r2_ = rho2 + dz * dz
            inv = 1 / mpmath.sqrt(r2_)
            val += q * inv
            w = q * inv / r2_
            g1 -= w * x1
            g2 -= w * x2
            g3 -= w * dz
        return float(val), np.array([float(g1), float(g2), float(g3)])


def axis_point(r1: float, r2: float, eps: float, xi: float) -> np.ndarray:
    """Cartesian point of the gap axis (theta = pi) at bispherical xi."""
    alpha = geometry(r1, r2, eps)[0]
    with mpmath.workdps(_DPS):
        return np.array([0.0, 0.0, float(alpha * mpmath.tanh(mpmath.mpf(xi) / 2))])
