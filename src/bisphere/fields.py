"""Capacitance potentials, eigenmodes, gradients and gap blow-up studies.

The two unit-boundary-data potentials have the bispherical series

    V_j = sqrt(2) sqrt(cosh xi - cos theta)
          * sum_n (A_n^j e^{(n+1/2) xi} + B_n^j e^{-(n+1/2) xi}) P_n(cos theta)

with A_n^1 = 1/(1 - E_n), B_n^1 = -e^{(2n+1) xi2}/(1 - E_n),
A_n^2 = -e^{(2n+1) xi1}/(1 - E_n), B_n^2 = 1/(1 - E_n) and
E_n = e^{(2n+1)(xi1 + xi2)}. The coefficients overflow on their own, so
every term is evaluated in the combined, strictly-negative-exponent form

    j = 1:  (e^{-(n+1/2)(2 xi1 + xi)} - e^{-(n+1/2)(2 s - xi)}) / (1 - e^{-(2n+1) s})
    j = 2:  (e^{-(n+1/2)(2 xi2 - xi)} - e^{-(n+1/2)(2 s + xi)}) / (1 - e^{-(2n+1) s})

which stays bounded on the whole closed exterior strip -xi1 <= xi <= xi2.
Mode n is u_n = d_n V_1 + V_2 with the eigenvector ratio d_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacitance import DEFAULT_TERM_CAP, RescaledCapacitance, SigmaTerms
from .errors import TruncationCapError
from .geometry import BisphericalFrame, BisphericalPoint
from .spectra import SpectralPair

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PotentialSeries:
    """Truncation of the potential series for one geometry.

    n_max certifies the value tail below tol uniformly on the closed
    exterior strip, and the gradient tail below tol relative to the
    natural 1/alpha gradient scale.
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


def _tail_bounds(frame: BisphericalFrame, n_max: int) -> tuple[float, float]:
    """Certified value and (alpha-scaled) gradient tails beyond n_max.

    Uses |T_n| <= e^{-m a} / (1 - e^{-s}) with m = n + 1/2 and
    a = min(xi1, xi2), |P_n| <= 1, |dP_n/dtheta| <= n(n+1)/2 <= 2 m^2,
    and closed forms for sum m^k e^{-m a}.
    """
    a = min(frame.xi1, frame.xi2)
    s = frame.xi1 + frame.xi2
    xi_big = max(frame.xi1, frame.xi2)
    dmax = math.cosh(xi_big) + 1.0
    abar = -math.expm1(-a)
    m0 = n_max + 1.5
    e0 = math.exp(-m0 * a)
    sum_1 = e0 / abar
    sum_m = e0 * (m0 / abar + 1.0 / abar**2)
    sum_m2 = e0 * (m0 * m0 / abar + 2.0 * m0 / abar**2 + 2.0 / abar**3)
    denom = -math.expm1(-s)
    val = _SQRT2 * math.sqrt(dmax) / denom * sum_1
    # alpha * |grad tail|: sqrt-d prefactors and unit frame vectors folded
    # into one conservative constant
    c0 = 3.0 * _SQRT2 * math.sqrt(dmax) * math.cosh(xi_big)
    grad = c0 / denom * (sum_1 + 2.0 * sum_m + 2.0 * sum_m2)
    return val, grad


def potential_series(
    frame: BisphericalFrame, tol: float = 1e-10, cap: int = DEFAULT_TERM_CAP
) -> PotentialSeries:
    """Choose the truncation degree and tabulate the log-scale weights."""
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    a = min(frame.xi1, frame.xi2)
    n_max = 8
    for _ in range(200):
        val, grad = _tail_bounds(frame, n_max)
        worst = max(val, grad)
        if worst <= tol:
            break
        n_max += int(math.ceil(math.log(worst / tol) / a)) + 1
        if n_max > cap:
            raise TruncationCapError(
                f"potential series needs ~{n_max} terms for tol={tol:g}, cap is {cap}"
            )
    else:
        raise TruncationCapError("potential series truncation search did not settle")

    return PotentialSeries(frame=frame, n_max=n_max, tol=tol, tail_bound=val)


def _exponents(frame: BisphericalFrame, xi: np.ndarray):
    """Combined-term exponent bases (p, q) and the d/dxi sign of V_1 and V_2."""
    s = frame.xi1 + frame.xi2
    return (
        (2.0 * frame.xi1 + xi, 2.0 * s - xi, -1.0),
        (2.0 * frame.xi2 - xi, 2.0 * s + xi, 1.0),
    )


def _strip_series(
    frame: BisphericalFrame,
    n_max: int,
    xi: np.ndarray,
    theta: np.ndarray,
    want_dxi: bool,
    want_dth: bool,
    chunk: int = 512,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """General-point series sums (S, dS/dxi, dS/dtheta); row j - 1 is V_j.

    P_n(cos theta) and dP_n/dtheta advance by simultaneous three-term
    recurrences (the theta derivative has no 1/sin(theta) factor, so the
    axis is not a special case), once for both potentials; the
    exponential factors are applied in vectorized blocks. Points on a
    common xi (a sphere surface) share their exponential factors, which
    are formed once per distinct xi. The derivative recurrences only run
    when asked for.

    Each block runs in row slices small enough to stay in cache. A
    slice's row sum is carried into the first row of the next, which
    keeps numpy's sequential row summation over the whole block; a
    single point sums pairwise, so it takes the block in one slice.

    Chunk partial sums are combined with Kahan compensation: near the
    pole theta=0 the unscaled sum reaches ~1/(2*xi1) while the target
    accuracy is absolute, so naive accumulation over the ~n_max/chunk
    partials would cost ~n_max/chunk * eps_mach * sum and visibly
    exceeds 1e-10 once gaps shrink past 1e-7.
    """
    s = frame.xi1 + frame.xi2
    x = np.cos(theta)
    msin = -np.sin(theta)  # d(cos theta)/dtheta
    npts = xi.shape[0]
    xi_u, spread = np.unique(xi, return_inverse=True)
    if xi_u.size == npts:
        xi_u, spread = xi, None
    bases = _exponents(frame, xi_u)
    out = np.zeros((3, 2, npts))  # S, dS/dxi, dS/dtheta
    comp = np.zeros((3, 2, npts))

    def kadd(k: int, j: int, val: np.ndarray) -> None:
        acc, c = out[k, j], comp[k, j]
        y = val - c
        tot = acc + y
        c[:] = (tot - acc) - y
        acc[:] = tot

    p_prev = np.zeros(npts)
    p_cur = np.ones(npts)
    d_prev = np.zeros(npts)
    d_cur = np.zeros(npts)
    rows = min(chunk, n_max + 1)
    p_blk = np.empty((rows, npts))
    d_blk = np.empty((rows, npts)) if want_dth else None
    sub = rows if npts == 1 else max(1, 16384 // max(npts, 1))
    for n0 in range(0, n_max + 1, chunk):
        nb = min(n0 + chunk, n_max + 1) - n0
        for k in range(nb):
            n = n0 + k
            p_blk[k] = p_cur
            if want_dth:
                d_blk[k] = d_cur
                if n == 0:
                    d_prev, d_cur = d_cur, msin.copy()
                else:
                    d_prev, d_cur = (
                        d_cur,
                        ((2 * n + 1) * (msin * p_cur + x * d_cur) - n * d_prev)
                        / (n + 1),
                    )
            if n == 0:
                p_prev, p_cur = p_cur, x.copy()
            else:
                p_prev, p_cur = (
                    p_cur,
                    ((2 * n + 1) * x * p_cur - n * p_prev) / (n + 1),
                )
        n = np.arange(n0, n0 + nb, dtype=float)
        m = n + 0.5
        denom = -np.expm1(-(2.0 * n + 1.0) * s)[:, None]
        for j, (p, q, sgn) in enumerate(bases):
            sums = [None, None, None]
            for r0 in range(0, nb, sub):
                r = slice(r0, min(r0 + sub, nb))
                ea = np.exp(-m[r, None] * p[None, :])
                eb = np.exp(-m[r, None] * q[None, :])
                t = (ea - eb) / denom[r]
                if want_dxi:
                    dt = (sgn * m[r])[:, None] * (ea + eb) / denom[r]
                    if spread is not None:
                        dt = dt[:, spread]
                    sums[1] = _row_sum(sums[1], dt * p_blk[r])
                if spread is not None:
                    t = t[:, spread]
                sums[0] = _row_sum(sums[0], t * p_blk[r])
                if want_dth:
                    sums[2] = _row_sum(sums[2], t * d_blk[r])
            for k, val in enumerate(sums):
                if val is not None:
                    kadd(k, j, val)
    return out[0], out[1], out[2]


def _row_sum(acc: np.ndarray | None, w: np.ndarray) -> np.ndarray:
    """Continue a sequential row sum with the rows of w (w is consumed)."""
    if acc is not None:
        w[0] += acc
    return w.sum(axis=0)


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

    The one evaluator of the potential series; xi, theta and phi are
    equal-length arrays of points of the closed exterior strip, where a
    boundary value is the one-sided exterior limit. Interior points
    raise ValueError. Every point, the gap axis theta = pi included,
    goes through the one Legendre strip recurrence. When every point
    lies on the same sphere, V_j is constant along it and the gradient
    is purely normal: only d/dxi is summed and the theta derivative is
    exactly zero.
    """
    frame = ps.frame
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    _check_strip(frame, xi)
    want_grad = phi is not None
    on_surface = bool(np.all(xi == -frame.xi1) or np.all(xi == frame.xi2))
    s_val, s_xi, s_th = _strip_series(
        frame, ps.n_max, xi, theta,
        want_dxi=want_grad, want_dth=want_grad and not on_surface,
    )
    # V_j = sqrt(2 d) S_j with d = cosh(xi) - cos(theta)
    sqd = np.sqrt(_metric_d(xi, theta))
    v = _SQRT2 * sqd * s_val
    if not want_grad:
        return PotentialField(v=v, grad=None)
    ch, sh = np.cosh(xi), np.sinh(xi)
    ct, st = np.cos(theta), np.sin(theta)
    f_xi = _SQRT2 * (0.5 * sh / sqd * s_val + sqd * s_xi)
    if on_surface:
        # purely normal gradient; 1 - cosh(xi) cos(theta) in half-angle
        # form, which keeps its digits at the far pole of a thin-gap sphere
        f_th = 0.0
        w = 2.0 * (ch * np.square(np.sin(0.5 * theta)) - np.square(np.sinh(0.5 * xi)))
    else:
        f_th = _SQRT2 * (0.5 * st / sqd * s_val + sqd * s_th)
        w = 1.0 - ch * ct
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
