"""Capacitance potentials, eigenmodes, gradients and gap blow-up studies.

The two unit-boundary-data potentials have the bispherical series

    V_j = sqrt(2 d) sum_n T_n^j P_n(cos theta),   d = cosh xi - cos theta,

    j = 1:  T_n = (e^{-(n+1/2)(2 xi1 + xi)} - e^{-(n+1/2)(2 s - xi)}) / (1 - e^{-(2n+1) s})
    j = 2:  T_n = (e^{-(n+1/2)(2 xi2 - xi)} - e^{-(n+1/2)(2 s + xi)}) / (1 - e^{-(2n+1) s})

with s = xi1 + xi2, on the closed exterior strip -xi1 <= xi <= xi2. It
needs O(1/s) degrees, which grows without bound as the gap closes, so it
is summed in its image form instead: expanding 1/(1 - e^{-(2n+1) s}) as a
geometric series in k and summing over n with the Legendre generating
function (DLMF 18.12.11) gives

    V_j = sqrt(2 d) sum_{k>=0} [G(p + 2 k s) - G(q + 2 k s)],
    G(w) = (2 (cosh w - cos theta))^{-1/2},

with (p, q) = (2 xi1 + xi, 2 s - xi) for V_1 and (2 xi2 - xi, 2 s + xi)
for V_2. The first _HEAD terms are summed directly and the rest by
Euler-Maclaurin (DLMF 2.10.1): the integral over [p, q] shifted by
2 _HEAD s, by Gauss-Legendre, and _EM_ORDER Bernoulli corrections from
scaled Taylor coefficients of G. The cost is the same at every gap.
Gradients are exact derivatives of the same sums: dG/dw = -sinh(w) G^3
and dG/dtheta = -sin(theta) G^3. Mode n is u_n = d_n V_1 + V_2 with the
eigenvector ratio d_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacitance import RescaledCapacitance, SigmaTerms
from .geometry import BisphericalFrame, BisphericalPoint
from .spectra import SpectralPair

_SQRT2 = math.sqrt(2.0)
_HEAD = 32  # image terms summed directly
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)  # B_2 ... B_8
_EM_ORDER = len(_BERNOULLI)
_B_NEXT = 5.0 / 66.0  # B_10, of the first omitted correction
# 4-point Gauss-Legendre rule on [-1, 1]: (node t, weight) for nodes -t and t
_GAUSS = ((0.8611363115940526, 0.34785484513745357), (0.33998104358485626, 0.6521451548625464))


@dataclass(frozen=True)
class PotentialSeries:
    """The image-sum kernel for one geometry.

    n_max is the number of image terms summed directly (the head K);
    tail_bound estimates the Euler-Maclaurin remainder of V_j, and of
    alpha * grad V_j, uniformly on the closed exterior strip. It is at
    most tol.
    """

    frame: BisphericalFrame
    n_max: int
    tol: float
    tail_bound: float


@dataclass(frozen=True)
class PotentialField:
    """V_1, V_2 and their Cartesian gradients at a batch of strip points.

    v[j - 1] holds V_j, shape (2, N); grad[j - 1] holds the (x1, x2, x3)
    components of grad V_j, shape (2, 3, N), or grad is None when no
    azimuths were given. Mode n is u_n = d_n V_1 + V_2 with the
    eigenvector ratio d_n.
    """

    v: np.ndarray
    grad: np.ndarray | None

    def mode(self, d_n: float) -> np.ndarray:
        return d_n * self.v[0] + self.v[1]

    def mode_grad(self, d_n: float) -> np.ndarray:
        return d_n * self.grad[0] + self.grad[1]

    def mode_grad_norm(self, d_n: float) -> np.ndarray:
        return np.linalg.norm(self.mode_grad(d_n), axis=0)


@dataclass(frozen=True)
class ModeDecomposition:
    """Weights of the regular/singular split u_n = a_reg h1 + b_sing h2.

    h1 is the harmonic function with value 1 on both spheres (equal to
    V1 + V2), h2 the harmonic function with unit opposite fluxes
    (-1)^i through the two boundaries. residual is the worst relative
    defect of the 2x2 flux system at the returned weights.
    """

    a_reg: float
    b_sing: float
    residual: float


@dataclass(frozen=True)
class GradientStudyRow:
    """Gradient maxima of both modes at one gap size.

    location is where the mode-2 maximum sits on the sphere surfaces:
    a gap pole (theta = pi), of the smaller sphere when the radii differ.
    """

    epsilon: float
    max_grad_u1: float
    max_grad_u2: float
    location: BisphericalPoint


@dataclass(frozen=True)
class BlowupStudy:
    """Rows plus fitted log-log slopes and compensated products."""

    rows: list[GradientStudyRow]
    slope_u1: float
    slope_u2: float
    comp_u1_eps: list[float]
    comp_u1_eps_log: list[float]
    comp_u2_eps: list[float]
    comp_u2_eps_log: list[float]


def potential_series(frame: BisphericalFrame, tol: float = 1e-10) -> PotentialSeries:
    """The image-sum kernel for frame; tol must not be below its remainder estimate.

    The estimate is the first omitted Bernoulli correction,
    2 |B_10| / 10 * (2 s / w)^9 at the nearest tail start
    w = min(xi1, xi2) + 2 K s. G's poles sit on the imaginary axis, so its
    scaled Taylor coefficients (2 s)^m G^(m)(w) / m! fall like (2 s / w)^m,
    and sqrt(2 d) G <= 1 on the strip; 2 s / w < 1/K at every gap.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    s = frame.xi1 + frame.xi2
    ratio = 2.0 * s / (min(frame.xi1, frame.xi2) + 2.0 * _HEAD * s)
    order = 2 * _EM_ORDER + 1
    bound = 2.0 * _B_NEXT / (order + 1) * ratio**order
    if bound > tol:
        raise ValueError(f"tolerance {tol:g} is below the field kernel's remainder {bound:.1e}")
    return PotentialSeries(frame=frame, n_max=_HEAD, tol=tol, tail_bound=bound)


def _parts(w: np.ndarray, sh2: np.ndarray):
    """e = e^{-w}, e - 1 and D, with 2 (cosh w - cos theta) = D / e.

    D = (1 - e)^2 + 4 e sin^2(theta / 2) neither cancels for small w and
    theta nor overflows for large w.
    """
    e = np.exp(-w)
    em1 = np.expm1(-w)
    return e, em1, em1 * em1 + 4.0 * e * sh2


def _kernel(w: np.ndarray, sh2: np.ndarray, st: np.ndarray):
    """G, dG/dw = -sinh(w) G^3 and -dG/dtheta = sin(theta) G^3 at w.

    Each derivative scales G by one ratio, so G^3, which overflows once
    w and theta are both below ~1e-103, is never formed.
    """
    e, em1, dd = _parts(w, sh2)
    g = np.sqrt(e / dd)
    return g, (0.5 * em1 * (1.0 + e) / dd) * g, (st * e / dd) * g


def _taylor(w: np.ndarray, sh2: np.ndarray, st: np.ndarray, h: float):
    """Scaled Taylor coefficients h^m f^(m)(w) / m! of f = G and f = sin(theta) G^3.

    Orders 0 ... 2 _EM_ORDER for G and 0 ... 2 _EM_ORDER - 1 for the other.
    F(w + h t) / F(w) = 1 + sum_m phi_m t^m for F = 2 (cosh w - cos theta),
    with phi_m = h^m / m! times 2 cosh(w) / F (m even) or 2 sinh(w) / F
    (m odd); its powers -1/2 and -3/2 follow J. C. P. Miller's recurrence.
    Only ratios enter, so nothing overflows however small h is.
    """
    e, em1, dd = _parts(w, sh2)
    even, odd = (1.0 + e * e) / dd, -em1 * (1.0 + e) / dd
    top = 2 * _EM_ORDER
    phi = [None] + [h**m / math.factorial(m) * (odd if m % 2 else even) for m in range(1, top + 1)]
    g = np.sqrt(e / dd)
    out = []
    for power, base, orders in ((-0.5, g, top), (-1.5, (st * e / dd) * g, top - 1)):
        y = [np.ones_like(w)]
        for m in range(1, orders + 1):
            y.append(sum(((power + 1.0) * k - m) * phi[k] * y[m - k] for k in range(1, m + 1)) / m)
        out.append([base * c for c in y])
    return out


def _em_tail(c: list) -> np.ndarray:
    """f(K) / 2 - sum_j B_2j / (2j)! f^(2j-1)(K) from scaled Taylor coefficients."""
    out = 0.5 * c[0]
    for j, b in enumerate(_BERNOULLI, start=1):
        out = out - (b / (2 * j)) * c[2 * j - 1]
    return out


def _image_sums(frame: BisphericalFrame, xi: np.ndarray, theta: np.ndarray):
    """(S, dS/dxi, dS/dtheta), each of shape (2, N), with V_j = sqrt(2 d) S[j - 1].

    Every operation acts elementwise on the points, in an order fixed by
    the loops, so a point's sums do not depend on the batch it comes in.
    """
    s = frame.xi1 + frame.xi2
    h = 2.0 * s
    sh2, st = np.square(np.sin(0.5 * theta)), np.sin(theta)
    # image arguments, rows p_1, q_1, p_2, q_2; S_j sums G(p_j) - G(q_j)
    w = np.stack([2.0 * frame.xi1 + xi, 2.0 * s - xi, 2.0 * frame.xi2 - xi, 2.0 * s + xi])
    val, dxi, mdth = np.zeros((3, 2, xi.size))  # mdth = -dS/dtheta
    for k in range(_HEAD):
        g, dg, g3 = _kernel(w + k * h, sh2, st)
        val += g[0::2] - g[1::2]
        dxi += dg[0::2] + dg[1::2]
        mdth += g3[0::2] - g3[1::2]
    # Euler-Maclaurin tail from k = _HEAD: integrals over [p, q] + K h
    w = w + _HEAD * h
    mid, half = 0.5 * (w[0::2] + w[1::2]), 0.5 * (w[1::2] - w[0::2])
    int_g = int_g3 = 0.0
    for t, weight in _GAUSS:
        for node in (mid - t * half, mid + t * half):
            g, _, g3 = _kernel(node, sh2, st)
            int_g, int_g3 = int_g + weight * g, int_g3 + weight * g3
    c, c3 = _taylor(w, sh2, st, h)
    # the tail of dG/dw: integral -G / h, Taylor coefficients (m + 1) c_{m+1} / h
    tail_d = _em_tail([(m + 1) * c[m + 1] / h for m in range(len(c) - 1)]) - c[0] / h
    tail, tail_3 = _em_tail(c), _em_tail(c3)
    val += half / h * int_g + (tail[0::2] - tail[1::2])
    dxi += tail_d[0::2] + tail_d[1::2]
    mdth += half / h * int_g3 + (tail_3[0::2] - tail_3[1::2])
    # dp/dxi = +1 for V_1 and -1 for V_2, and dq/dxi = -dp/dxi
    dxi[1] = -dxi[1]
    return val, dxi, -mdth


def _check_strip(frame: BisphericalFrame, xi: np.ndarray) -> None:
    slack = 1e-12 * max(1.0, frame.xi1, frame.xi2)
    if np.any(xi > frame.xi2 + slack):
        raise ValueError("point lies inside resonator 2 (xi > xi2)")
    if np.any(xi < -frame.xi1 - slack):
        raise ValueError("point lies inside resonator 1 (xi < -xi1)")


def _metric_d(xi, theta):
    """cosh(xi) - cos(theta), formed without cancellation.

    The direct difference loses most of its digits when xi and theta
    are both small (far-field points, or the theta=0 pole of a
    boundary whose xi_i shrinks with the gap); the half-angle form
    2*(sinh(xi/2)^2 + sin(theta/2)^2) is exact to roundoff everywhere.
    """
    return 2.0 * (np.square(np.sinh(0.5 * xi)) + np.square(np.sin(0.5 * theta)))


def potential_field(ps: PotentialSeries, xi, theta, phi=None) -> PotentialField:
    """V_1, V_2 and, when the azimuths phi are given, their Cartesian gradients.

    The one evaluator of the potentials; xi, theta and phi are
    equal-length arrays of points of the closed exterior strip, where a
    boundary value is the one-sided exterior limit. Interior points
    raise ValueError. Every point goes through the same image sums with
    their Euler-Maclaurin tail, at a cost independent of the gap, and
    its result does not depend on the other points of the batch.
    """
    frame = ps.frame
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    _check_strip(frame, xi)
    s_val, s_xi, s_th = _image_sums(frame, xi, theta)
    # V_j = sqrt(2 d) S_j with d = cosh(xi) - cos(theta)
    sqd = np.sqrt(_metric_d(xi, theta))
    v = _SQRT2 * sqd * s_val
    if phi is None:
        return PotentialField(v=v, grad=None)
    sh, st = np.sinh(xi), np.sin(theta)
    f_xi = _SQRT2 * (0.5 * sh / sqd * s_val + sqd * s_xi)
    f_th = _SQRT2 * (0.5 * st / sqd * s_val + sqd * s_th)
    # 1 - cosh(xi) cos(theta) in half-angle form, which keeps its digits
    # where xi and theta are both small (far points near the x3 axis)
    w = 2.0 * (np.cosh(xi) * np.square(np.sin(0.5 * theta)) - np.square(np.sinh(0.5 * xi)))
    radial = f_xi * (-st * sh) - f_th * w
    axial = f_xi * w + f_th * (-sh * st)
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    inv_alpha = 1.0 / frame.alpha
    grad = np.stack(
        [inv_alpha * radial * np.cos(phi), inv_alpha * radial * np.sin(phi),
         inv_alpha * axial],
        axis=1,
    )
    return PotentialField(v=v, grad=grad)


def _potential_row(j: int) -> int:
    if j not in (1, 2):
        raise ValueError(f"potential index must be 1 or 2, got {j}")
    return j - 1


def eval_potential(ps: PotentialSeries, j: int, p: BisphericalPoint) -> float:
    """V_j at a point of the closed exterior strip; interior points error."""
    row = _potential_row(j)
    return float(potential_field(ps, [p.xi], [p.theta]).v[row, 0])


def eval_mode(n: int, sp: SpectralPair, ps: PotentialSeries, p: BisphericalPoint) -> float:
    """Eigenmode u_n = d_n V_1 + V_2 at a point of the closed strip."""
    d_n = _mode_ratio(n, sp)
    return float(potential_field(ps, [p.xi], [p.theta]).mode(d_n)[0])


def eval_grad_potential(
    ps: PotentialSeries, j: int, p: BisphericalPoint
) -> np.ndarray:
    """Cartesian gradient of V_j, analytic term-by-term differentiation.

    Valid on the closed exterior strip, where the boundary value is the
    one-sided exterior limit; interior points are rejected.
    """
    row = _potential_row(j)
    return potential_field(ps, [p.xi], [p.theta], [p.phi]).grad[row, :, 0]


def eval_grad_mode(
    n: int, sp: SpectralPair, ps: PotentialSeries, p: BisphericalPoint
) -> np.ndarray:
    """Cartesian gradient of u_n, analytic term-by-term differentiation.

    Valid on the closed exterior strip, where the boundary value is the
    one-sided exterior limit; interior points are rejected.
    """
    d_n = _mode_ratio(n, sp)
    return potential_field(ps, [p.xi], [p.theta], [p.phi]).mode_grad(d_n)[:, 0]


def _mode_ratio(n: int, sp: SpectralPair) -> float:
    if n == 1:
        return sp.d1
    if n == 2:
        return sp.d2
    raise ValueError(f"mode index must be 1 or 2, got {n}")


def h_decomposition(
    ct: RescaledCapacitance, sp: SpectralPair, st: SigmaTerms, n: int
) -> ModeDecomposition:
    """Solve for the regular/singular weights of mode n.

    Differentiating u_n = a_reg h1 + b_sing h2 and integrating the
    normal derivative over each boundary gives, after dividing row i by
    the volume of sphere i,

        a_reg s1 + b_sing / vol1 = (d_n - 1) ct11 + s1
        a_reg s2 - b_sing / vol2 = lambda_n

    with exact flux row sums s_i = ct_i1 + ct_i2. The singular profile
    h2 is normalized by its boundary fluxes: +1 out of sphere 1 and -1
    out of sphere 2 before any volume rescaling. The row sums equal the
    digamma sigma terms only to O(sqrt(eps)), so the sigma values are
    used as a positivity guard, not as system coefficients; solving with
    the exact sums is what makes the symmetric structural zeros
    (a_reg = 0 for mode 2, b_sing = 0 for mode 1) hold to rounding.
    """
    if st.sigma1 + st.sigma2 <= 0.0:
        raise ValueError("sigma terms must be positive; system would be singular")
    d_n = _mode_ratio(n, sp)
    lam = sp.lambda1 if n == 1 else sp.lambda2
    s1 = ct.ct11 + ct.ct12
    s2 = ct.ct21 + ct.ct22
    rhs1 = (d_n - 1.0) * ct.ct11 + s1
    rhs2 = lam
    det = s1 * (-1.0 / ct.vol2) - s2 * (1.0 / ct.vol1)
    if det == 0.0:
        raise ValueError("flux system is singular")
    a_reg = (rhs1 * (-1.0 / ct.vol2) - rhs2 * (1.0 / ct.vol1)) / det
    b_sing = (s1 * rhs2 - s2 * rhs1) / det
    r1 = a_reg * s1 + b_sing / ct.vol1 - rhs1
    r2 = a_reg * s2 - b_sing / ct.vol2 - rhs2
    scale = max(abs(rhs1), abs(rhs2), 1e-300)
    return ModeDecomposition(
        a_reg=a_reg, b_sing=b_sing, residual=max(abs(r1), abs(r2)) / scale
    )


def _surface_grad_max(
    ps: PotentialSeries, ratios: list[float], n_theta: int = 400
) -> list[tuple[float, BisphericalPoint]]:
    """Max |grad u| over both sphere surfaces and where it sits, per mode ratio.

    |grad u|^2 is subharmonic in the exterior (sum of squares of
    harmonic functions), so the supremum over the whole exterior is
    attained on the spheres; sampling the surfaces therefore bounds the
    global maximum, not just a slice. Each mode is constant on each
    sphere, making the exterior-side gradient purely normal there, so
    only the xi-derivative of the series enters. Each sphere gets
    n_theta angles, log-clustered toward the gap, where the blow-up
    concentrates, and ending on the gap pole theta = pi. A tie between
    the spheres goes to sphere 1.
    """
    frame = ps.frame
    s = frame.xi1 + frame.xi2
    u_min = max(s * 1e-2, 1e-9)
    u = np.geomspace(u_min, math.pi, n_theta - 1)
    theta = np.append(math.pi - u, math.pi)
    best = [(-math.inf, None)] * len(ratios)
    for xi0 in (-frame.xi1, frame.xi2):
        f = potential_field(ps, np.full_like(theta, xi0), theta, np.zeros_like(theta))
        for k, d_n in enumerate(ratios):
            g = f.mode_grad_norm(d_n)
            i = int(np.argmax(g))
            if g[i] > best[k][0]:
                best[k] = (float(g[i]), BisphericalPoint(xi0, float(theta[i]), 0.0))
    return best


def _blowup_cell(r1: float, r2: float, eps: float, samples: int, tol: float):
    from .capacitance import capacitance_exact, rescale
    from .geometry import ResonatorPair, frame_from_pair
    from .spectra import eigen

    pair = ResonatorPair(r1, r2, eps)
    frame = frame_from_pair(pair)
    sp = eigen(rescale(capacitance_exact(frame, tol=1e-12), pair))
    ps = potential_series(frame, tol=tol)
    (g1, _), (g2, where) = _surface_grad_max(ps, [sp.d1, sp.d2], samples)
    return GradientStudyRow(
        epsilon=frame.epsilon, max_grad_u1=g1, max_grad_u2=g2, location=where
    )


def blowup_study(
    pair_family,
    material,
    eps_grid,
    *,
    samples: int = 400,
    tol: float = 1e-8,
    jobs: int = 1,
) -> BlowupStudy:
    """Gradient maxima across a gap sweep with fitted decay exponents.

    pair_family is a (r1, r2) tuple; each grid point builds the pair at
    that gap. The grid must span at least three decades so the log-log
    fit means something. Per gap, each mode's maximum is read off a
    sweep of samples (>= 100) angles over each sphere surface;
    |grad u|^2 is subharmonic outside the resonators, so its supremum
    over the whole exterior, gap included, sits on the spheres. That
    matters for the mode whose boundary values coincide: its gap field
    stays bounded and the true maximum sits on the outer parts of the
    spheres, not in the gap. The anti-phase mode 2 peaks at a gap pole.
    Returns the per-gap rows, the fitted slopes of log max|grad u_n|
    against log eps, and the compensated products max * eps and
    max * eps * |log eps| for both modes.

    material is accepted for interface uniformity but never read: the
    leading-order eigenmodes are purely electrostatic, so the gap
    gradients and their blow-up rates are material independent. Only
    the frequencies the modes ring at involve the contrast.
    """
    r1, r2 = pair_family
    eps_values = sorted(float(e) for e in eps_grid)
    if len(eps_values) < 3:
        raise ValueError("need at least three gap values for a fit")
    span = math.log10(eps_values[-1]) - math.log10(eps_values[0])
    if span < 3.0 - 1e-9:
        raise ValueError("gap grid must span at least three decades")
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            rows = list(
                ex.map(
                    _blowup_cell,
                    [r1] * len(eps_values),
                    [r2] * len(eps_values),
                    eps_values,
                    [samples] * len(eps_values),
                    [tol] * len(eps_values),
                )
            )
    else:
        rows = [_blowup_cell(r1, r2, e, samples, tol) for e in eps_values]

    log_eps = np.log(eps_values)
    slope1 = float(np.polyfit(log_eps, np.log([r.max_grad_u1 for r in rows]), 1)[0])
    slope2 = float(np.polyfit(log_eps, np.log([r.max_grad_u2 for r in rows]), 1)[0])
    return BlowupStudy(
        rows=rows,
        slope_u1=slope1,
        slope_u2=slope2,
        comp_u1_eps=[r.max_grad_u1 * r.epsilon for r in rows],
        comp_u1_eps_log=[
            r.max_grad_u1 * r.epsilon * abs(math.log(r.epsilon)) for r in rows
        ],
        comp_u2_eps=[r.max_grad_u2 * r.epsilon for r in rows],
        comp_u2_eps_log=[
            r.max_grad_u2 * r.epsilon * abs(math.log(r.epsilon)) for r in rows
        ],
    )
