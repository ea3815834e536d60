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
2 _HEAD s, by Gauss-Legendre, and _EM_ORDER Bernoulli corrections in
closed form. The scaled Taylor coefficients of G are fixed polynomials
in two bounded ratios X and Y, so each correction sum is one pass of
fixed rational weights over the 25 monomials X^i Y^j with 2i + j <= 8
(_em_sums). The kernel and its tail live in `specfun`, since the
capacitance sums are the same image sums at theta = 0. The cost is the
same at every gap.
How many head images go through one numpy call, and whether stacked
terms are added with one accumulate or in a loop, is decided in
`specfun` by the batch size (_head_spans, _in_order). The last head
block also carries the tail start and the eight Gauss nodes when it has
room (specfun._image_pass), so for up to 58 points one kernel pass
serves them all. Every sum
adds its terms one at a time in a fixed order, so a point's values are
the same bits in any batch.
Gradients are exact derivatives of the same sums: dG/dw = -sinh(w) G^3
and dG/dtheta = -sin(theta) G^3. A call without azimuths asks the kernel
and its tail for the G row alone, so it pays for no derivative sum and
none can overflow. Mode n is u_n = d_n V_1 + V_2 with the eigenvector
ratio d_n.

The blow-up study reads its maxima off the sphere surfaces, where V_j is
known, the gradient is normal and two of the four image rows coincide.
There each xi-derivative is a one-sided sum of dG/dw over the images
from one of four start points: the same head and tail, asked for the
dG/dw row alone, with no value sum, theta-derivative or Gauss node
(_surface_grad).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacitance import RescaledCapacitance, capacitance_exact, rescale
from .geometry import BisphericalFrame, BisphericalPoint, ResonatorPair, frame_from_pair
from .specfun import _HEAD, _em_remainder, _image_pass, _in_order
from .spectra import SpectralPair, eigen

_SQRT2 = math.sqrt(2.0)
# 4-point Gauss-Legendre rule on [-1, 1]: (node t, weight) for nodes -t and t
_GAUSS = ((0.8611363115940526, 0.34785484513745357), (0.33998104358485626, 0.6521451548625464))
_GAUSS_NODES = np.array([sign * t for t, _ in _GAUSS for sign in (-1.0, 1.0)])[:, None, None]
_GAUSS_WEIGHTS = np.array([weight for _, weight in _GAUSS])[:, None, None, None]
# the image rows p_1, p_2, q_1, q_2 are these constants plus these multiples of xi
_XI_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])[:, None]
# S_j adds G(p) - G(q); its xi-derivative dG/dw(p) + dG/dw(q), since dq/dxi = -dp/dxi
_PAIR_SIGNS = np.array([-1.0, 1.0, -1.0])[:, None, None]
# dS/dxi of V_2 (dp/dxi = -1) and dS/dtheta change sign at the end
_GRAD_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])[:, :, None]


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
    At tiny gaps the profile is flat to rounding near the pole, and the
    maximum can be a neighbouring sample (theta = pi - 1.7e-8 for radii
    (1, 2) at eps = 1e-12); the two gap poles differ by about eps
    relative, so below eps ~ 1e-16 they tie to rounding and either
    sphere may hold the maximum.
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

    Each tail leaves out its first omitted Bernoulli correction. Relative
    to G at the tail start, it is estimated by that of the theta = 0
    kernel G0 (specfun._em_remainder) at the nearest start
    w = min(xi1, xi2) + K h, h = 2 s: the branch points of G sit at
    +-i theta (mod 2 pi i), no nearer to a real w than the pole of G0 at 0.
    Two tails enter each V_j, and sqrt(2 d) G <= min(1, 2 e^{-K h / 2})
    at the tail starts.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    h = 2.0 * (frame.xi1 + frame.xi2)
    w = min(frame.xi1, frame.xi2) + _HEAD * h
    bound = 2.0 * _em_remainder(h, w) * min(1.0, 2.0 * math.exp(-0.5 * _HEAD * h))
    if bound > tol:
        raise ValueError(f"tolerance {tol:g} is below the field kernel's remainder {bound:.1e}")
    return PotentialSeries(frame=frame, n_max=_HEAD, tol=tol, tail_bound=bound)


def _add_images(total: float | np.ndarray, f: np.ndarray) -> np.ndarray:
    """total plus f(p) - f(q) (f(p) + f(q) for dG/dw) of each stacked image in turn.

    f is the kernel's (images, rows, 4, N), with rows G, dG/dw and
    sin(theta) G^3 or G alone at p_1, p_2, q_1 and q_2, and is
    overwritten: the pairs are combined in place, which keeps a large
    batch's peak memory down, the images are added in turn by _in_order,
    and the sum, shape (rows, 2, N), is a view into f.
    """
    f[:, 0::2, :2] -= f[:, 0::2, 2:]
    f[:, 1:2, :2] += f[:, 1:2, 2:]  # dG/dw, absent from G alone
    terms = f[:, :, :2]
    terms[0] += total
    return _in_order(np.add, terms)


def _image_sums(
    frame: BisphericalFrame, xi: np.ndarray, sh2: np.ndarray, st: np.ndarray, grad: bool
) -> np.ndarray:
    """S, dS/dxi and dS/dtheta stacked, shape (3, 2, N), with V_j = sqrt(2 d) S[0, j - 1].

    sh2 and st are sin^2(theta / 2) and sin(theta) at the points. With
    grad False only S is summed, shape (1, 2, N): the kernel and its
    tail form the G row alone, so a value-only call pays for no
    derivative and none can overflow; S has the same bits either way.
    The head images, the tail and the eight Gauss nodes go through
    specfun._image_pass, the nodes as two extra pseudo-images of four
    rows each, so for up to 58 points one kernel pass serves them all.
    Every operation acts elementwise on the points and every sum adds
    its terms one at a time in a fixed order, so a point's sums do not
    depend on the batch it comes in.
    """
    h = 2.0 * (frame.xi1 + frame.xi2)
    rows = slice(None) if grad else slice(0, 1)
    # image arguments, rows p_1, p_2, q_1, q_2; S_j sums G(p_j) - G(q_j). With
    # the p rows together, each image's terms are contiguous pairs of rows
    w = np.array((2.0 * frame.xi1, 2.0 * frame.xi2, h, h))[:, None] + _XI_SIGNS * xi
    # the Gauss nodes mid + t half of the Euler-Maclaurin integrals over
    # [p, q] + K h, node by node (-t_1, +t_1, -t_2, +t_2) and V_1, V_2 within
    # a node, which read as two images of four rows
    start = w + _HEAD * h
    mid, half = 0.5 * (start[:2] + start[2:]), 0.5 * (start[2:] - start[:2])
    nodes = _GAUSS_NODES * half
    nodes += mid
    # S, dS/dxi with V_1's sign dp/dxi = +1, and -dS/dtheta; all three rows,
    # or G alone. The head images added in turn, then the Euler-Maclaurin
    # tail from k = _HEAD: the closed-form corrections, and the integrals
    # by Gauss-Legendre, which need no dG/dw
    sums, tails, g = _image_pass(
        w, sh2, st, h, rows, nodes.reshape(len(_GAUSS), *w.shape), _add_images, 0.0
    )
    g = g[:, ::2] * _GAUSS_WEIGHTS
    sums[0::2] += half / h * (g[0, :, :2] + g[0, :, 2:] + g[1, :, :2] + g[1, :, 2:])
    sums += tails[:, :2] + _PAIR_SIGNS[rows] * tails[:, 2:]
    if grad:
        # dq/dxi = -dp/dxi, and dp/dxi = -1 for V_2
        sums *= _GRAD_SIGNS
    return sums


def _check_strip(frame: BisphericalFrame, xi: np.ndarray) -> None:
    slack = 1e-12 * max(1.0, frame.xi1, frame.xi2)
    if xi.max(initial=-math.inf) > frame.xi2 + slack:
        raise ValueError("point lies inside resonator 2 (xi > xi2)")
    if xi.min(initial=math.inf) < -frame.xi1 - slack:
        raise ValueError("point lies inside resonator 1 (xi < -xi1)")


def _as_points(xi, theta, phi):
    """xi, theta and phi (unless None) as finite float arrays of one shape."""
    out = []
    for name, a in (("xi", xi), ("theta", theta), ("phi", phi)):
        if a is not None:
            a = np.asarray(a, dtype=float)
            if a.ndim == 0:
                a = a.reshape(1)
            if out and a.shape != out[0].shape:
                raise ValueError(f"{name} has shape {a.shape}, xi has {out[0].shape}")
        out.append(a)
    # one check of the inputs' sum, which a non-finite value makes non-finite;
    # a finite sum may overflow too, so only then is each array searched
    given = [a for a in out if a is not None]
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(given[1:], given[0]).sum()
    if not math.isfinite(total):
        for name, a in zip(("xi", "theta", "phi"), out):
            if a is not None and not np.isfinite(a).all():
                raise ValueError(f"{name} holds a non-finite value")
    return out


def potential_field(ps: PotentialSeries, xi, theta, phi=None) -> PotentialField:
    """V_1, V_2 and, when the azimuths phi are given, their Cartesian gradients.

    The one evaluator of the potentials; xi, theta and phi are
    equal-length arrays of points of the closed exterior strip, where a
    boundary value is the one-sided exterior limit. Interior points,
    non-finite values, arrays of different lengths and a gradient at the
    point at infinity, xi = theta = 0, raise ValueError, and a gradient
    beyond the double range (gaps below eps ~ 1e-305) OverflowError. Every point goes through the same image sums with
    their Euler-Maclaurin tail, at a cost independent of the gap, and its
    result does not depend on the other points of the batch.
    """
    frame = ps.frame
    xi, theta, phi = _as_points(xi, theta, phi)
    _check_strip(frame, xi)
    # V_j = sqrt(2 d) S_j with d = cosh(xi) - cos(theta) = 2 (sinh(xi/2)^2 + sin(theta/2)^2):
    # the half-angle form does not cancel when xi and theta are both small
    # (far points, or the theta = 0 pole of a sphere at a narrow gap). Its
    # squares underflow beyond |x| ~ 1e150 alpha, where the root is a hypot
    a, b = np.sinh(0.5 * xi), np.sin(0.5 * theta)
    a2, sh2 = np.square(a), np.square(b)
    sqd = np.sqrt(2.0 * (a2 + sh2))
    if sqd.min(initial=math.inf) < 1e-150:
        far = sqd < 1e-150
        sqd[far] = _SQRT2 * np.hypot(a[far], b[far])
    # sinh(xi) and sin(theta), the factors of the two derivatives of sqrt(2 d)
    trig = np.empty((2, xi.size))
    st = np.sin(theta, out=trig[1])
    if phi is None:
        sums = _image_sums(frame, xi, sh2, st, False)
        return PotentialField(v=_SQRT2 * sqd * sums[0], grad=None)
    # below eps ~ 1e-305 the derivative rows overflow; that is reported once,
    # after the assembly, as OverflowError rather than as RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sums = _image_sums(frame, xi, sh2, st, True)
        # alpha (dV_j/dxi, dV_j/dtheta)
        np.sinh(xi, out=trig[0])
        f = _SQRT2 * ((0.5 * trig / sqd)[:, None] * sums[0] + sqd * sums[1:])
        # 1 - cosh(xi) cos(theta) in half-angle form, which keeps its digits
        # where xi and theta are both small (far points near the x3 axis)
        w = 2.0 * (np.cosh(xi) * sh2 - a2)
        fm, fw = f * (-st * trig[0]), f * w
        inv_alpha = 1.0 / frame.alpha
        radial = inv_alpha * (fm[0] - fw[1])
        grad = np.empty((2, 3, xi.size))
        np.multiply(radial, np.cos(phi), out=grad[:, 0])
        np.multiply(radial, np.sin(phi), out=grad[:, 1])
        np.multiply(inv_alpha, np.add(fw[0], fm[1], out=grad[:, 2]), out=grad[:, 2])
    if not np.isfinite(grad).all():
        _raise_non_finite(frame, sqd, grad)
    # the value row never overflows
    return PotentialField(v=_SQRT2 * sqd * sums[0], grad=grad)


def _raise_non_finite(frame: BisphericalFrame, sqd: np.ndarray, grad: np.ndarray) -> None:
    """Raises for the points of a non-finite gradient, named by its cause.

    sqd is 0 only at the point at infinity, xi = theta = 0 (or both
    within a subnormal of it), where sinh(xi) / sqd has no limit
    (ValueError). Anywhere else a non-finite component comes from a sum
    past the double range (OverflowError).
    """
    bad = ~np.isfinite(grad).all(axis=(0, 1))
    at_infinity = np.count_nonzero(bad & (sqd == 0.0))
    if at_infinity:
        raise ValueError(
            f"xi = theta = 0 is the point at infinity, where the gradient is undefined "
            f"({at_infinity} of {bad.size} points)"
        )
    raise OverflowError(
        f"the gradient passes the double range at {np.count_nonzero(bad)} of {bad.size} "
        f"points for the gap eps = {frame.epsilon:g}"
    )


def eval_potential(ps: PotentialSeries, j: int, p: BisphericalPoint) -> float:
    """V_j at a point of the closed exterior strip; interior points error."""
    if j not in (1, 2):
        raise ValueError(f"potential index must be 1 or 2, got {j}")
    return float(potential_field(ps, [p.xi], [p.theta]).v[j - 1, 0])


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


def h_decomposition(ct: RescaledCapacitance, sp: SpectralPair, n: int) -> ModeDecomposition:
    """Solve for the regular/singular weights of mode n.

    Differentiating u_n = a_reg h1 + b_sing h2 and integrating the
    normal derivative over each boundary gives, after dividing row i by
    the volume of sphere i,

        a_reg s1 + b_sing / vol1 = (d_n - 1) ct11 + s1
        a_reg s2 - b_sing / vol2 = lambda_n

    with exact flux row sums s_i = ct_i1 + ct_i2. The singular profile
    h2 is normalized by its boundary fluxes: +1 out of sphere 1 and -1
    out of sphere 2 before any volume rescaling. The row sums equal the
    digamma sigma terms only to O(sqrt(eps)); solving with the exact
    sums is what makes the symmetric structural zeros (a_reg = 0 for
    mode 2, b_sing = 0 for mode 1) hold to rounding.
    """
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


def _one_sided(acc: tuple, block: np.ndarray) -> tuple:
    """(dG/dw(w), the running sum T) after the head block of dG/dw rows, added in turn."""
    first, t = acc
    terms = block[:, 0]
    terms[0] += t
    # terms[0] of the first block is dG/dw(w), left as it was since t was 0
    return (terms[0] if first is None else first), _in_order(np.add, terms)


def _surface_grad(
    ps: PotentialSeries, ratios: list[float], n_theta: int = 400
) -> tuple[np.ndarray, np.ndarray]:
    """The sweep angles theta and |grad u| on both spheres, shape (2, len(ratios), n_theta).

    Row i of the result is sphere i + 1, at xi0 = -xi1 or xi2. The
    n_theta angles are log-clustered toward the gap, where the blow-up
    concentrates, and end on the gap pole theta = pi.

    V_j is delta_ij on sphere i, so the exterior-side gradient of each
    mode is normal there, of size (d / alpha) |d_n dV_1/dxi + dV_2/dxi|
    with d = cosh(xi0) - cos(theta), and only the xi-derivatives of the
    image sums S_j enter:

        dV_j/dxi = delta_ij sinh(xi0) / (2 d) + sqrt(2 d) dS_j/dxi.

    Two of the four image rows coincide on a sphere: on sphere 2, q_1 =
    p_1 = 2 xi1 + xi2 and q_2 = p_2 + h; on sphere 1, q_2 = p_2 = xi1 +
    2 xi2 and q_1 = p_1 + h. So each dS_j/dxi is +-2 T(w), less dG/dw(w)
    for the sphere's own potential, with the one-sided sums
    T(w) = sum_{k>=0} dG/dw(w + k h) from w = xi1, xi1 + 2 xi2, xi2 and
    xi2 + 2 xi1: the _HEAD head images and the Euler-Maclaurin tail,
    which holds the integral, of specfun._image_pass, asked for the
    dG/dw row alone. The four
    start points broadcast against the angles, so the exponentials run
    once per image, and no value sum, theta-derivative or Gauss node is
    needed. No squared norm is formed, so a gradient is finite wherever
    it is representable.
    """
    frame = ps.frame
    xi1, xi2 = frame.xi1, frame.xi2
    s = xi1 + xi2
    h = 2.0 * s
    u_min = max(s * 1e-2, 1e-9)
    u = np.geomspace(u_min, math.pi, n_theta - 1)
    theta = np.append(math.pi - u, math.pi)
    sh2, st = np.square(np.sin(0.5 * theta)), np.sin(theta)
    w = np.array([xi1, xi1 + 2.0 * xi2, xi2, xi2 + 2.0 * xi1])[:, None]
    # T(w): the head terms dG/dw(w + k h), k < _HEAD, added in turn, then the tail
    (first, t), tails, _ = _image_pass(
        w, sh2, st, h, slice(1, 2), np.empty((0, *w.shape)), _one_sided, (None, 0.0)
    )
    t = t + tails[0]
    # (xi0, dS_1/dxi, dS_2/dxi) on sphere 1, then on sphere 2
    spheres = (
        (-xi1, 2.0 * t[0] - first[0], -2.0 * t[1]),
        (xi2, 2.0 * t[3], first[2] - 2.0 * t[2]),
    )
    g = np.empty((2, len(ratios), theta.size))
    for i, (xi0, ds1, ds2) in enumerate(spheres):
        # d in half-angle form, which does not cancel near the theta = 0 pole
        d = 2.0 * (math.sinh(0.5 * xi0) ** 2 + sh2)
        root = np.sqrt(2.0 * d)
        f = [root * ds1, root * ds2]
        f[i] += math.sinh(xi0) / (2.0 * d)
        to_cartesian = d / frame.alpha
        for k, d_n in enumerate(ratios):
            g[i, k] = to_cartesian * np.abs(d_n * f[0] + f[1])
    return theta, g


def _surface_grad_max(
    ps: PotentialSeries, ratios: list[float], n_theta: int = 400
) -> list[tuple[float, BisphericalPoint]]:
    """Max |grad u| over both sphere surfaces and where it sits, per mode ratio.

    |grad u|^2 is subharmonic in the exterior (sum of squares of
    harmonic functions), so the supremum over the whole exterior is
    attained on the spheres; sampling the surfaces therefore bounds the
    global maximum, not just a slice. The samples are those of
    _surface_grad, the normal derivatives of the image sums. A tie
    between the spheres goes to sphere 1.
    """
    frame = ps.frame
    theta, g = _surface_grad(ps, ratios, n_theta)
    best = [(-math.inf, None)] * len(ratios)
    for i, xi0 in enumerate((-frame.xi1, frame.xi2)):
        for k in range(len(ratios)):
            m = int(np.argmax(g[i, k]))
            if g[i, k, m] > best[k][0]:
                best[k] = (float(g[i, k, m]), BisphericalPoint(xi0, float(theta[m]), 0.0))
    return best


def _blowup_cell(r1: float, r2: float, eps: float, samples: int, tol: float):
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
    spheres, not in the gap. The anti-phase mode 2 peaks at or next to a
    gap pole (see GradientStudyRow). The sweep sums only the normal
    derivatives of the image sums and forms no squared norm
    (_surface_grad), so every maximum a double holds comes out finite.
    Returns the per-gap rows, the fitted slopes of log max|grad u_n|
    against log eps, and the compensated products max * eps and
    max * eps * |log eps| for both modes.

    material is accepted for interface uniformity but never read: the
    leading-order eigenmodes are purely electrostatic, so the gap
    gradients and their blow-up rates are material independent. Only
    the frequencies the modes ring at involve the contrast. Likewise
    jobs is accepted but has no effect: every gap runs in the calling
    process.
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
