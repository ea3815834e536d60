"""Independent verifiers: forward map, image charges, Legendre and n-series, flux, FD.

The closed-form forward map to_cartesian checks its inverse,
`geometry.to_bispherical`. The image-charge iteration is classical
electrostatics on the axis and shares no math with the series modules.
The bispherical n-series of the capacitance sums term by term what
`capacitance` sums over images with an Euler-Maclaurin tail. The
Legendre series sums the potentials degree by degree, the form the
image-sum kernel of `fields` resums, and shares no code with it. Miller's recurrence gives the
kernel's Euler-Maclaurin tail term by term, where `fields` uses a closed
form. The flux quadrature integrates the
normal derivative of the public field evaluator over a sphere, which
checks the capacitance series through a completely different identity;
the finite difference helpers certify analytic gradients and
harmonicity.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .capacitance import CapacitanceMatrix
from .fields import PotentialSeries, potential_field
from .geometry import BisphericalFrame, BisphericalPoint, ResonatorPair

_FOUR_PI = 4.0 * math.pi
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)  # B_2 ... B_8


def to_cartesian(frame: BisphericalFrame, p: BisphericalPoint) -> tuple[float, float, float]:
    """Map (xi, theta, phi) to the Cartesian (x1, x2, x3).

    x3 = alpha sinh(xi) / (cosh(xi) - cos(theta)), the transverse radius is
    alpha sin(theta) / (cosh(xi) - cos(theta)). The point xi = 0, theta = 0
    is the point at infinity and is rejected. The denominator is formed
    as 2*(sinh(xi/2)^2 + sin(theta/2)^2), which is the same quantity
    without the cancellation the direct difference suffers when both
    angles are small.
    """
    d = 2.0 * (math.sinh(0.5 * p.xi) ** 2 + math.sin(0.5 * p.theta) ** 2)
    if d == 0.0:
        raise ValueError("xi=0, theta=0 is the point at infinity")
    rho = frame.alpha * math.sin(p.theta) / d
    return rho * math.cos(p.phi), rho * math.sin(p.phi), frame.alpha * math.sinh(p.xi) / d


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature failed to converge within the node budget."""


@dataclass(frozen=True)
class ImageChargeSystem:
    """Axis charges realizing unit potential on sphere j, zero on the other.

    Each entry is (x3 position, magnitude in the q/|x| potential
    convention, sphere index the charge sits inside). Successive
    magnitudes decay geometrically for any positive gap.
    """

    charges: list[tuple[float, float, int]]


def image_charge_system(
    pair: ResonatorPair, j: int, n_reflections: int = 200
) -> ImageChargeSystem:
    """Kelvin-image iteration for column j of the capacitance problem.

    Sphere 1 is centred at the origin, sphere 2 at L = r1 + r2 + eps on
    the x3 axis (the capacitance matrix does not care where the pair
    sits). The seed charge r_j at the centre of sphere j gives unit
    potential there; alternating reflections restore the zero condition
    on the other sphere. Reflection of charge q at z in the sphere
    (centre z_c, radius R) is q' = -q R / |z - z_c| placed at
    z_c + R^2 / (z - z_c). Stops early once the last magnitude falls
    below 1e-14 of the accumulated total.
    """
    if j not in (1, 2):
        raise ValueError(f"column index must be 1 or 2, got {j}")
    if n_reflections < 1:
        raise ValueError(f"need at least one reflection, got {n_reflections}")
    centers = {1: 0.0, 2: pair.r1 + pair.r2 + pair.epsilon}
    radii = {1: pair.r1, 2: pair.r2}

    home = j
    q = radii[j]
    z = centers[j]
    charges = [(z, q, home)]
    total = abs(q)
    for _ in range(n_reflections):
        other = 3 - home
        zc, rad = centers[other], radii[other]
        dist = z - zc
        q = -q * rad / abs(dist)
        z = zc + rad * rad / dist
        home = other
        charges.append((z, q, home))
        total += abs(q)
        if abs(q) < 1e-14 * total:
            break
    return ImageChargeSystem(charges=charges)


def image_charge_capacitance(
    pair: ResonatorPair, n_reflections: int = 200, *, warn_tol: float = 1e-12
) -> CapacitanceMatrix:
    """Capacitance matrix from two independent image-charge columns.

    C entry (i, j) is 4 pi times the total image charge inside sphere i
    for the column-j potential problem. Warns when the last reflection
    is still above warn_tol relative to the accumulated charge, which
    happens when the gap is too small for the requested reflection
    budget.
    """
    cols = {}
    worst_tail = 0.0
    for j in (1, 2):
        sys = image_charge_system(pair, j, n_reflections)
        on_1 = math.fsum(q for _, q, sph in sys.charges if sph == 1)
        on_2 = math.fsum(q for _, q, sph in sys.charges if sph == 2)
        tail = abs(sys.charges[-1][1])
        scale = abs(on_1) + abs(on_2)
        worst_tail = max(worst_tail, tail / scale)
        cols[j] = (on_1, on_2)
    if worst_tail > warn_tol:
        warnings.warn(
            f"image-charge tail {worst_tail:.2e} above {warn_tol:.0e}; "
            "increase n_reflections for this gap",
            stacklevel=2,
        )
    return CapacitanceMatrix(
        c11=_FOUR_PI * cols[1][0],
        c12=_FOUR_PI * cols[2][0],
        c21=_FOUR_PI * cols[1][1],
        c22=_FOUR_PI * cols[2][1],
        n_terms=n_reflections,
        tail_bound=worst_tail,
    )


def n_series_capacitance(frame: BisphericalFrame, n_terms: int) -> CapacitanceMatrix:
    """C11, C12 and C22 from the first n_terms terms of the bispherical n-series.

    One numpy pass over x = 2n + 1 of e^{-x xi} / (1 - e^{-x s}), xi =
    xi1, xi2 and s = xi1 + xi2, added pairwise. tail_bound is the
    certified geometric tail of the terms left out: each is below
    8 pi alpha e^{-x a} / (1 - e^{-s}), a = min(xi1, xi2).
    """
    xi1, xi2 = frame.xi1, frame.xi2
    s = xi1 + xi2
    x = 2.0 * np.arange(n_terms) + 1.0
    inv = 1.0 / -np.expm1(-x * s)
    pref = 8.0 * math.pi * frame.alpha
    c11, c22, c12 = (pref * float(np.sum(np.exp(-x * rate) * inv)) for rate in (xi1, xi2, s))
    a = min(xi1, xi2)
    tail = pref * math.exp(-(2 * n_terms + 1) * a) / (-math.expm1(-s) * -math.expm1(-2.0 * a))
    return CapacitanceMatrix(
        c11=c11, c12=-c12, c21=-c12, c22=c22, n_terms=n_terms, tail_bound=tail
    )


def legendre_strip_sums(frame: BisphericalFrame, n_max: int, xi, theta, j: int):
    """(S, dS/dxi, dS/dtheta) of V_j = sqrt(2 d) S by the Legendre series to degree n_max.

    S sums T_n P_n(cos theta) with T_n = (e^{-(n+1/2) p} - e^{-(n+1/2) q})
    / (1 - e^{-(2n+1) s}), s = xi1 + xi2, (p, q) = (2 xi1 + xi, 2 s - xi)
    for j = 1 and (2 xi2 - xi, 2 s + xi) for j = 2, d = cosh xi - cos theta.
    P_n and dP_n/dtheta advance by their three-term recurrences; the terms
    of each point add pairwise. The truncation error is the caller's: the
    terms fall like e^{-(n+1/2) min(xi1, xi2)}.
    """
    xi = np.asarray(xi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    s = frame.xi1 + frame.xi2
    if j == 1:
        p, q, sgn = 2.0 * frame.xi1 + xi, 2.0 * s - xi, -1.0
    else:
        p, q, sgn = 2.0 * frame.xi2 - xi, 2.0 * s + xi, 1.0
    x, msin = np.cos(theta), -np.sin(theta)
    leg = np.zeros((n_max + 2, xi.size))
    dleg = np.zeros((n_max + 2, xi.size))
    leg[0], leg[1], dleg[1] = 1.0, x, msin
    for n in range(1, n_max + 1):
        leg[n + 1] = ((2 * n + 1) * x * leg[n] - n * leg[n - 1]) / (n + 1)
        dleg[n + 1] = ((2 * n + 1) * (msin * leg[n] + x * dleg[n]) - n * dleg[n - 1]) / (n + 1)
    m = np.arange(n_max + 1) + 0.5
    denom = -np.expm1(-2.0 * m * s)
    # point-major layout, so each sum runs along a contiguous row (pairwise)
    ea = np.exp(-np.outer(p, m))
    eb = np.exp(-np.outer(q, m))
    t = (ea - eb) / denom
    dt = sgn * m * (ea + eb) / denom
    leg, dleg = leg[:-1].T, dleg[:-1].T
    return (t * leg).sum(axis=1), (dt * leg).sum(axis=1), (t * dleg).sum(axis=1)


def miller_em_tails(w, theta, h: float) -> np.ndarray:
    """Euler-Maclaurin tails of G, dG/dw and sin(theta) G^3 by Miller's recurrence, stacked.

    G(w) = (2 (cosh w - cos theta))^(-1/2). The tails of f = G and
    f = sin(theta) G^3 are f(w) / 2 - sum_j B_2j / (2j)! h^(2j-1) f^(2j-1)(w),
    j = 1 ... 4; the tail of dG/dw is the same for f = dG/dw plus its
    integral over [w, oo) divided by h, -G(w) / h. The scaled Taylor
    coefficients h^m f^(m)(w) / m! of the powers -1/2 and -3/2 of
    F(w + h t) / F(w) = 1 + sum_m phi_m t^m, F = 2 (cosh w - cos theta),
    phi_m = h^m / m! times 2 cosh(w) / F (m even) or 2 sinh(w) / F (m odd),
    follow J. C. P. Miller's recurrence term by term. This is the image-sum
    kernel's tail before `fields` wrote it in closed form.
    """
    w = np.asarray(w, dtype=float)
    theta = np.asarray(theta, dtype=float)
    # F = dd / e with e = e^{-w}; dd neither cancels nor overflows
    e, em1 = np.exp(-w), np.expm1(-w)
    dd = em1 * em1 + 4.0 * e * np.square(np.sin(0.5 * theta))
    even, odd = (1.0 + e * e) / dd, -em1 * (1.0 + e) / dd
    top = 2 * len(_BERNOULLI)
    phi = [None] + [h**m / math.factorial(m) * (odd if m % 2 else even) for m in range(1, top + 1)]
    g = np.sqrt(e / dd)
    coeffs = []
    for power, base, orders in ((-0.5, g, top), (-1.5, (np.sin(theta) * e / dd) * g, top - 1)):
        y = [np.ones_like(w)]
        for m in range(1, orders + 1):
            total = 0.0
            for k in range(1, m + 1):
                total = total + ((power + 1.0) * k - m) * phi[k] * y[m - k]
            y.append(total / m)
        coeffs.append([base * c for c in y])

    def tail(c):
        out = 0.5 * c[0]
        for j, b in enumerate(_BERNOULLI, start=1):
            out = out - (b / (2 * j)) * c[2 * j - 1]
        return out

    c, c3 = coeffs
    tail_d = tail([(m + 1) * c[m + 1] / h for m in range(top)]) - c[0] / h
    return np.stack([tail(c), tail_d, tail(c3)])


@functools.lru_cache(maxsize=None)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order, read-only."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def flux_quadrature(
    ps: PotentialSeries,
    j: int,
    i: int,
    *,
    tol: float = 1e-8,
    max_nodes: int = 16384,
) -> float:
    """C_ij recomputed as -flux of grad V_j out of sphere i.

    The Cartesian gradient on the boundary circle xi = xi_i (phi = 0) is
    projected on the geometric outward normal (x - c_i) / r_i, so the
    check covers the gradient's direction as well as its size. With the
    surface element alpha^2 sin(theta) / d^2 dtheta dphi,
    d = cosh(xi_i) - cos(theta), the flux reduces to a 1D theta
    integral. Gauss-Legendre order doubles until two estimates agree to
    0.1 tol relative.
    """
    if j not in (1, 2):
        raise ValueError(f"potential index must be 1 or 2, got {j}")
    if i not in (1, 2):
        raise ValueError(f"sphere index must be 1 or 2, got {i}")
    frame = ps.frame
    al = frame.alpha
    if i == 2:
        xi0, center, radius = frame.xi2, frame.c2, frame.r2
    else:
        xi0, center, radius = -frame.xi1, frame.c1, frame.r1

    prev = None
    nodes = 256
    while nodes <= max_nodes:
        t, w = _gauss_legendre(nodes)
        theta = (t + 1.0) * (math.pi / 2.0)
        grad = potential_field(
            ps, np.full_like(theta, xi0), theta, np.zeros_like(theta)
        ).grad[j - 1]
        # half-angle form of d: no cancellation for thin gaps, where xi0
        # and the near-pole nodes are both small
        d = 2.0 * (math.sinh(0.5 * xi0) ** 2 + np.square(np.sin(0.5 * theta)))
        x1 = al * np.sin(theta) / d
        x3 = al * math.sinh(xi0) / d
        dn = (grad[0] * x1 + grad[2] * (x3 - center)) / radius
        est = (math.pi / 2.0) * float(w @ (dn * np.sin(theta) / (d * d)))
        if prev is not None and abs(est - prev) <= 0.1 * tol * max(abs(est), 1e-300):
            return -2.0 * math.pi * al * al * est
        prev = est
        nodes *= 2
    raise QuadratureConvergenceError(
        f"boundary flux did not converge by {max_nodes} nodes"
    )


def fd_check_gradient(f, p, h: float, *, clearance: float | None = None) -> np.ndarray:
    """4th-order central-difference gradient of a scalar field at p.

    f takes a length-3 Cartesian array; the stencil reaches 2h along
    each axis, so when a boundary clearance is supplied it must exceed
    4h (factor-two safety on the reach).
    """
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h}")
    if clearance is not None and clearance < 4.0 * h:
        raise ValueError(
            f"stencil reach 2h = {2 * h:g} too close to the boundary "
            f"(clearance {clearance:g} < 4h)"
        )
    p = np.asarray(p, dtype=float)
    grad = np.empty(3)
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        grad[ax] = (
            -f(p + 2.0 * e) + 8.0 * f(p + e) - 8.0 * f(p - e) + f(p - 2.0 * e)
        ) / (12.0 * h)
    return grad


def fd_check_laplacian(f, p, h: float, *, clearance: float | None = None) -> float:
    """7-point second-order Laplacian estimate; vanishes on harmonics."""
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h}")
    if clearance is not None and clearance < 4.0 * h:
        raise ValueError(
            f"stencil reach h = {h:g} too close to the boundary "
            f"(clearance {clearance:g} < 4h)"
        )
    p = np.asarray(p, dtype=float)
    center = f(p)
    acc = 0.0
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        acc += f(p + e) - 2.0 * center + f(p - e)
    return acc / (h * h)
