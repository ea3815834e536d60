import math
import warnings

import mpmath
import numpy as np
import pytest

from bisphere import (
    BisphericalPoint,
    Material,
    ResonatorPair,
    blowup_study,
    capacitance_asymptotic_rescaled,
    capacitance_exact,
    eigen,
    eval_grad_mode,
    eval_potential,
    frame_from_pair,
    h_decomposition,
    potential_series,
    rescale,
    to_bispherical,
)
from bisphere.fields import (
    _GAUSS,
    _HEAD,
    _PAIR_SIGNS,
    _add_images,
    _image_sums,
    _in_order,
    _surface_grad,
    _surface_grad_max,
    potential_field,
)
from bisphere.oracle import (
    fd_check_gradient,
    flux_quadrature,
    legendre_strip_sums,
    miller_em_tails,
)
from bisphere.specfun import (
    _IMAGES,
    _MONOMIALS,
    _ROWS,
    _STACK,
    _TAIL_WEIGHTS,
    _em_sums,
    _head_spans,
    _image_pass,
    _kernel,
    _parts,
)


def _image_sums_at(frame, xi, theta, grad=True):
    """_image_sums with the half-angle terms that potential_field forms for it."""
    return _image_sums(frame, xi, np.square(np.sin(0.5 * theta)), np.sin(theta), grad)


def _tails_at(w, sh2, st, h, rows=slice(None)):
    """The Euler-Maclaurin tails of specfun._image_pass from w, at the tail start w + _HEAD h."""
    return _image_pass(w, sh2, st, h, rows, np.empty((0, *w.shape)), lambda t, _: t, None)[1]


def _tails_reference(w, sh2, st, h, rows=slice(None)):
    """The tails at the tail start w, _em_sums times G or sin(theta) G^3 of a kernel call of their own.

    The tail as it was formed before it shared the kernel pass of
    specfun._image_pass, kept as the reference for that pass.
    """
    tails = _em_sums(_parts(w, sh2, st), h, rows)
    for r, row in enumerate(_ROWS[rows]):
        factor = slice(2, 3) if row == 2 else slice(0, 1)
        tails[r] *= _kernel(w, sh2, st, factor)[0]
    return tails


def _thetas(n=200):
    # open interval: theta = 0 and pi are the axis poles, handled separately
    return np.linspace(1e-4, math.pi - 1e-4, n)


def test_potential_series_metadata(series_12):
    assert series_12.n_max > 0
    assert series_12.tail_bound <= series_12.tol


@pytest.mark.parametrize("eps", [0.05, 1e-3])
def test_image_kernel_matches_legendre_series(eps):
    frame = frame_from_pair(ResonatorPair(1.0, 2.0, eps))
    # Legendre terms fall like e^{-(n + 1/2) min(xi1, xi2)}; 70 e-folds leave
    # even the n^2-weighted theta-derivative tail far below the bounds
    n_max = math.ceil(70.0 / min(frame.xi1, frame.xi2))
    rng = np.random.default_rng(7)
    cases = []
    for npts in (1, 7, 300):
        cases.append((rng.uniform(-frame.xi1, frame.xi2, npts),
                      rng.uniform(0.0, math.pi, npts)))
    theta = rng.uniform(0.0, math.pi, 300)
    cases.append((np.full(300, frame.xi2), theta))  # one sphere surface
    cases.append((np.where(theta < 1.5, -frame.xi1, frame.xi2), theta))  # both
    for xi, th in cases:
        val, dxi, dth = _image_sums_at(frame, xi, th)
        d = 2.0 * (np.sinh(0.5 * xi) ** 2 + np.sin(0.5 * th) ** 2)
        root = np.sqrt(2.0 * d)  # V_j = root * S_j
        for j in (1, 2):
            s, s_xi, s_th = legendre_strip_sums(frame, n_max, xi, th, j)
            ds = val[j - 1] - s
            assert np.max(root * np.abs(ds)) <= 1e-12
            # alpha |grad V| = d |(dV/dxi, dV/dtheta)|
            f_xi = root * (dxi[j - 1] - s_xi) + np.sinh(xi) / root * ds
            f_th = root * (dth[j - 1] - s_th) + np.sin(th) / root * ds
            assert np.max(d * np.hypot(f_xi, f_th)) <= 1e-11


def _image_sums_loop(frame, xi, theta):
    """_image_sums as plain loops, one image and one Gauss node at a time, with Miller's tail."""
    s = frame.xi1 + frame.xi2
    h = 2.0 * s
    sh2, st = np.square(np.sin(0.5 * theta)), np.sin(theta)
    w = np.stack([2.0 * frame.xi1 + xi, 2.0 * s - xi, 2.0 * frame.xi2 - xi, 2.0 * s + xi])
    val, dxi, mdth = np.zeros((3, 2, xi.size))
    for k in range(_HEAD):
        g, dg, g3 = _kernel(w + k * h, sh2, st)
        val += g[0::2] - g[1::2]
        dxi += dg[0::2] + dg[1::2]
        mdth += g3[0::2] - g3[1::2]
    w = w + _HEAD * h
    mid, half = 0.5 * (w[0::2] + w[1::2]), 0.5 * (w[1::2] - w[0::2])
    int_g = int_g3 = 0.0
    for t, weight in _GAUSS:
        for node in (mid - t * half, mid + t * half):
            g, _, g3 = _kernel(node, sh2, st)
            int_g, int_g3 = int_g + weight * g, int_g3 + weight * g3
    tail, tail_d, tail_3 = miller_em_tails(w, theta, h)
    val += half / h * int_g + (tail[0::2] - tail[1::2])
    dxi += tail_d[0::2] + tail_d[1::2]
    mdth += half / h * int_g3 + (tail_3[0::2] - tail_3[1::2])
    dxi[1] = -dxi[1]
    return val, dxi, -mdth


@pytest.mark.parametrize("eps", [0.05, 1e-6, 1e-300])
def test_image_sums_equal_a_plain_loop_at_every_batch_size(eps):
    # a point's sums must be the same bits in every batch: the sizes straddle
    # every change in the number of head images per stacked call and the
    # switch from stacked to looped sums at 64 points. Against Miller's
    # recurrence for the tail, the closed form moved V by <= 4.4e-16 and
    # alpha |grad V| by <= 7.6e-16 of itself (radii (1,2), (1,1), (0.5,3),
    # eps 30 ... 1e-300), so the plain loop must agree to 1e-15
    frame = frame_from_pair(ResonatorPair(1.0, 2.0, eps))
    rng = np.random.default_rng(11)
    n = 1100
    xi = rng.uniform(-frame.xi1, frame.xi2, n)
    theta = rng.uniform(0.0, math.pi, n)
    xi[:300] = np.where(rng.random(300) < 0.5, -frame.xi1, frame.xi2)  # on a sphere
    theta[:60] = rng.choice([0.0, math.pi, 1e-9, math.pi - 1e-9], 60)  # poles, axis
    order = rng.permutation(n)
    xi, theta = xi[order], theta[order]
    got = np.stack(_image_sums_at(frame, xi, theta))
    assert np.all(np.isfinite(got))
    for size in (1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 66, 255, 256, 257, 800, 1024, 1025):
        np.testing.assert_array_equal(np.stack(_image_sums_at(frame, xi[:size], theta[:size])),
                                      got[..., :size])
    for i in range(n):
        np.testing.assert_array_equal(np.stack(_image_sums_at(frame, xi[i:i + 1], theta[i:i + 1])),
                                      got[..., i:i + 1])
    want = np.stack(_image_sums_loop(frame, xi, theta))
    d = 2.0 * (np.sinh(0.5 * xi) ** 2 + np.sin(0.5 * theta) ** 2)
    root = np.sqrt(2.0 * d)  # V_j = root * S_j
    ds = got - want
    assert np.max(root * np.abs(ds[0])) <= 1e-15
    # alpha |grad V| = d |(dV/dxi, dV/dtheta)|
    rows = ((1, np.sinh(xi)), (2, np.sin(theta)))
    f_xi, f_th = (root * ds[k] + c / root * ds[0] for k, c in rows)
    w_xi, w_th = (root * want[k] + c / root * want[0] for k, c in rows)
    assert np.all(np.hypot(f_xi, f_th) <= 1e-15 * np.hypot(w_xi, w_th))


@pytest.mark.parametrize("eps", [0.05, 1e-6, 1e-300, 1e-310])
def test_value_only_image_sums_are_the_value_row_of_the_full_sums(eps):
    # the sums without the derivative rows keep the bits of S, in the stacked
    # and the looped batch; below eps ~ 1e-300 the full call's derivative
    # rows overflow, the value-only call warns of nothing
    frame = frame_from_pair(ResonatorPair(1.0, 2.0, eps))
    rng = np.random.default_rng(5)
    n = 1100
    xi = rng.uniform(-frame.xi1, frame.xi2, n)
    theta = rng.uniform(0.0, math.pi, n)
    xi[:300] = np.where(rng.random(300) < 0.5, -frame.xi1, frame.xi2)
    theta[:60] = rng.choice([0.0, math.pi, 1e-200, 5e-324], 60)
    for size in (1, 64, 65, 400, n):
        with np.errstate(over="ignore", invalid="ignore"):
            full = _image_sums_at(frame, xi[:size], theta[:size])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _image_sums_at(frame, xi[:size], theta[:size], grad=False)
        assert got.shape == (1, 2, size)
        assert np.array_equal(got, full[:1])


def _image_sums_three_pass(frame, xi, theta, grad=True):
    """The image sums as three kernel passes: head blocks, tail start, then Gauss nodes.

    _image_sums as it was before the last head block, the tail start and
    the Gauss nodes came to share one _parts and _rows pass, kept as the
    reference for that pass (specfun._image_pass): here the tail forms its
    own G and sin(theta) G^3 factors, and the eight nodes go through one
    _kernel call as a (4, 2, N) stack.
    """
    s = frame.xi1 + frame.xi2
    h = 2.0 * s
    sh2, st = np.square(np.sin(0.5 * theta)), np.sin(theta)
    w = np.stack([2.0 * frame.xi1 + xi, 2.0 * frame.xi2 - xi, 2.0 * s - xi, 2.0 * s + xi])
    rows, nodes = (slice(None), slice(None, None, 2)) if grad else (slice(0, 1), slice(0, 1))
    sums = 0.0
    # the head blocks of up to _STACK // N images each
    depth = max(_STACK // w.shape[-1], 1)
    for k0 in range(0, _HEAD, depth):
        shifts = (np.arange(_HEAD) * h)[k0:k0 + depth, None, None]
        sums = _add_images(sums, _kernel(w + shifts, sh2, st, rows))
    w = w + _HEAD * h
    tails = _tails_reference(w, sh2, st, h, rows)
    mid, half = 0.5 * (w[:2] + w[2:]), 0.5 * (w[2:] - w[:2])
    g = _kernel(mid + _THREE_PASS_NODES * half, sh2, st, nodes)
    g *= _THREE_PASS_WEIGHTS
    sums[0::2] += half / h * _in_order(np.add, g)
    sums += tails[:, :2] + _PAIR_SIGNS[rows] * tails[:, 2:]
    if grad:
        sums[1, 1] = -sums[1, 1]
        sums[2] = -sums[2]
    return sums


_THREE_PASS_NODES = np.array([sign * t for t, _ in _GAUSS for sign in (-1.0, 1.0)])[:, None, None]
_THREE_PASS_WEIGHTS = np.repeat([weight for _, weight in _GAUSS], 2)[:, None, None, None]


@pytest.mark.parametrize("eps", [0.05, 1e-6, 1e-300])
def test_image_sums_equal_the_three_pass_reference(eps):
    # one _parts and _rows pass for the last head block, the tail start and
    # the Gauss nodes keeps every bit of the three passes, with and without
    # the derivative rows, at batch sizes on both sides of each block
    # boundary: up to 58 points all 35 images are one block, from 59 to 64
    # the head is one and the tail start and Gauss nodes another, above 64
    # the head takes two or more, and from 1025 each head image is a block
    frame = frame_from_pair(ResonatorPair(1.0, 2.0, eps))
    rng = np.random.default_rng(23)
    n = 2049
    xi = rng.uniform(-frame.xi1, frame.xi2, n)
    theta = rng.uniform(0.0, math.pi, n)
    xi[:300] = np.where(rng.random(300) < 0.5, -frame.xi1, frame.xi2)
    theta[:60] = rng.choice([0.0, math.pi, 1e-9, math.pi - 1e-9], 60)
    order = rng.permutation(n)
    xi, theta = xi[order], theta[order]
    for size in (1, 57, 58, 59, 64, 65, 400, 1025, 2049):
        for grad in (True, False):
            got = _image_sums_at(frame, xi[:size], theta[:size], grad)
            want = _image_sums_three_pass(frame, xi[:size], theta[:size], grad)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("size", [1, 58, 59, 65, 400, 1025])
def test_value_image_sums_equal_the_three_pass_reference_below_subnormal_starts(size):
    # radii (1000, 2000) at eps = 1e-310 put the tail start of p_1 near
    # sphere 1 at ~4e-155, so with tiny angles D is subnormal there and the
    # kernel rows carry the scale of _parts; the value row keeps its bits,
    # and takes no warning
    frame = frame_from_pair(ResonatorPair(1000.0, 2000.0, 1e-310))
    rng = np.random.default_rng(29)
    xi = np.where(rng.random(size) < 0.7, -frame.xi1, rng.uniform(-frame.xi1, frame.xi2, size))
    theta = rng.choice([0.0, 5e-324, 1e-300, 1e-200, 1e-160, 0.5, math.pi], size)
    start = 2.0 * frame.xi1 + xi + _HEAD * 2.0 * (frame.xi1 + frame.xi2)
    assert start.min() < 1e-154
    assert _parts(start, np.square(np.sin(0.5 * theta)), np.sin(theta))[3] is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _image_sums_at(frame, xi, theta, grad=False)
    np.testing.assert_array_equal(got, _image_sums_three_pass(frame, xi, theta, grad=False))


def _tail_weights_from_millers_recurrence():
    """The tail weights of specfun._TAIL_WEIGHTS rebuilt from exact Fractions.

    A polynomial is a dict {(i, j, k): c} for c X^i Y^j h^k. phi_m is
    X h^(m-2) / m! for even m and Y h^(m-1) / m! for odd m, and Miller's
    recurrence y_m = sum_k ((p + 1) k - m) phi_k y_(m-k) / m gives the
    scaled Taylor coefficients of F^p, p = -1/2 and -3/2. Returns one
    {(i, j): (c_0, c_1, ...)} per tail, with c_n the coefficient of h^(2n).
    """
    from fractions import Fraction

    bernoulli = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30))
    top = 2 * len(bernoulli)

    def add(a, b, scale):
        out = dict(a)
        for key, c in b.items():
            out[key] = out.get(key, 0) + scale * c
        return out

    def mul(a, b):
        out = {}
        for (i1, j1, k1), c1 in a.items():
            for (i2, j2, k2), c2 in b.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                out[key] = out.get(key, 0) + c1 * c2
        return out

    phi = [None] + [
        {(0, 1, m - 1) if m % 2 else (1, 0, m - 2): Fraction(1, math.factorial(m))}
        for m in range(1, top + 1)
    ]

    def taylor(power, orders):
        y = [{(0, 0, 0): Fraction(1)}]
        for m in range(1, orders + 1):
            acc = {}
            for k in range(1, m + 1):
                acc = add(acc, mul(phi[k], y[m - k]), Fraction((power + 1) * k - m) / m)
            y.append(acc)
        return y

    def em(c):
        out = add({}, c[0], Fraction(1, 2))
        for j, b in enumerate(bernoulli, start=1):
            out = add(out, c[2 * j - 1], -b / (2 * j))
        return out

    c = taylor(Fraction(-1, 2), top)
    # h times the dG/dw tail: c_1 / 2 - c_0 - sum_j B_2j c_2j
    tail_d = add(add({}, c[1], Fraction(1, 2)), c[0], -1)
    for j, b in enumerate(bernoulli, start=1):
        tail_d = add(tail_d, c[2 * j], -b)
    tables = []
    for poly in (em(c), tail_d, em(taylor(Fraction(-3, 2), top - 1))):
        table = {}
        for (i, j, k), coef in poly.items():
            if coef:
                assert k % 2 == 0
                row = table.setdefault((i, j), [])
                row.extend([Fraction(0)] * (k // 2 + 1 - len(row)))
                row[k // 2] = coef
        tables.append(table)
    return tables


def test_tail_weights_are_the_exact_rationals():
    # the literals in fields are the recurrence's rationals rounded once
    want = _tail_weights_from_millers_recurrence()
    assert len(_MONOMIALS) == 25
    for table, exact in zip(_TAIL_WEIGHTS, want):
        assert set(table) == set(exact)
        assert set(table) <= set(_MONOMIALS)
        for mono, coefs in exact.items():
            assert list(table[mono]) == [float(c) for c in coefs], mono


@pytest.mark.parametrize("n", [1, 64, 400])
def test_kernel_and_tails_broadcast_start_points_bit_for_bit(n):
    # start points of shape (R, 1) against n angles give the bits of the
    # same start points repeated per angle, in the small-batch and the
    # large-batch branch of the tails
    theta = np.append(np.linspace(0.0, math.pi, n - 1), 1e-200)[-n:]
    sh2, st = np.square(np.sin(0.5 * theta)), np.sin(theta)
    w = np.array([1e-150, 3e-3, 0.7, 4.0])[:, None]
    h = 3e-152  # the tail start w + _HEAD h is at least _HEAD h
    full = np.repeat(w, n, axis=1)
    shifts = (np.arange(_HEAD) * h)[:, None, None]
    assert np.array_equal(_kernel(w + shifts, sh2, st), _kernel(full + shifts, sh2, st))
    assert np.array_equal(_tails_at(w, sh2, st, h), _tails_at(full, sh2, st, h))


@pytest.mark.parametrize("n", [5, 64, 65, 200])
@pytest.mark.parametrize("tiny", [False, True], ids=["normal", "subnormal"])
def test_kernel_and_tails_rows_are_slices_of_the_full_call(tiny, n):
    # each row asked for alone or in a pair has the bits of the same row of
    # all three, in the stacked (n <= 64) and the looped tail; with tiny
    # start points and angles D is subnormal and the rows carry the scale
    theta = np.linspace(0.0, math.pi, n)
    if tiny:
        theta[: n // 2 + 1] = np.geomspace(5e-324, 1e-155, n // 2 + 1)
        w, h = np.array([1e-170, 3e-165, 1e-160, 0.2])[:, None], 3e-172
    else:
        w, h = np.array([1e-3, 3e-2, 0.7, 4.0])[:, None], 3e-5
    sh2, st = np.square(np.sin(0.5 * theta)), np.sin(theta)
    heads = w + (np.arange(_HEAD) * h)[:, None, None]
    # the derivative rows overflow to inf where w and theta are both tiny
    with np.errstate(over="ignore"):
        kernel, tails = _kernel(heads, sh2, st), _tails_at(w, sh2, st, h)
        # G, dG/dw, sin(theta) G^3 alone, then each pair
        for rows in (slice(0, 1), slice(1, 2), slice(2, 3), slice(0, 2), slice(0, 3, 2),
                     slice(1, 3)):
            assert np.array_equal(_kernel(heads, sh2, st, rows), kernel[:, rows])
            assert np.array_equal(_tails_at(w, sh2, st, h, rows), tails[rows])
    assert (_parts(heads, sh2, st)[3] is not None) == tiny
    assert (_parts(w, sh2, st)[3] is not None) == tiny


_EXTRA_SHIFTS = np.array([_HEAD + 0.25, _HEAD + 0.75])[:, None, None]


@pytest.mark.parametrize("n", [1, 57, 62, 63, 64, 65, 400, 1025, 2049])
@pytest.mark.parametrize("tiny", [False, True], ids=["normal", "subnormal"])
def test_head_blocks_concatenate_to_one_kernel_call(tiny, n):
    # the head blocks of one _image_pass over a batch of n points, up to
    # _STACK // n images each (one image a block above _STACK points), are
    # the one _kernel call over all _HEAD images to the bit, and its tails
    # and extra rows the tails and the kernel at their own arguments,
    # whether the last block holds them (n <= 58 with two extra images,
    # n <= 62 with none, 65 and 400) or they come alone (63, 64 and from
    # 1025); for start points per point (as in _image_sums) and shared by
    # the angles (as in _surface_grad). With tiny start points and angles
    # D is subnormal and the rows carry the scale
    theta = np.linspace(0.0, math.pi, n)
    if tiny:
        theta[: n // 2 + 1] = np.geomspace(5e-324, 1e-155, n // 2 + 1)
        w, h = np.array([1e-170, 3e-165, 1e-160, 0.2])[:, None], 3e-172
    else:
        w, h = np.array([1e-3, 3e-2, 0.7, 4.0])[:, None], 3e-5
    sh2, st = np.square(np.sin(0.5 * theta)), np.sin(theta)
    shifts = (np.arange(_HEAD) * h)[:, None, None]

    def collect(blocks, block):
        return [*blocks, block]

    # the derivative rows overflow to inf where w and theta are both tiny
    with np.errstate(over="ignore"):
        for starts in (w, np.repeat(w, n, axis=1)):
            # no extra argument, or two pseudo-images past the tail start
            for extra in (np.empty((0, *starts.shape)), starts + _EXTRA_SHIFTS * h):
                for rows in (slice(None), slice(0, 1), slice(1, 2)):
                    blocks, tails, got = _image_pass(starts, sh2, st, h, rows, extra, collect, [])
                    spans = _head_spans(n, 1 + len(extra))
                    assert len(blocks) == sum(ks.stop > ks.start for ks in spans)
                    want = _kernel(starts + shifts, sh2, st, rows)
                    assert np.array_equal(np.concatenate(blocks), want)
                    want = _tails_reference(starts + _IMAGES[_HEAD] * h, sh2, st, h, rows)
                    assert np.array_equal(tails, want)
                    assert np.array_equal(got, _kernel(extra, sh2, st, rows))


@pytest.mark.parametrize("eps", [1e-1, 1e-6])
@pytest.mark.parametrize("theta", [1e-3, 1.0, math.pi])
def test_em_tails_against_mpmath_taylor(eps, theta):
    # the three tails from 40-digit Taylor coefficients of G at the tail starts
    frame = frame_from_pair(ResonatorPair(1.0, 2.0, eps))
    s = frame.xi1 + frame.xi2
    h = 2.0 * s
    xi = np.array([-frame.xi1, 0.3 * frame.xi2, frame.xi2])
    w = np.stack([2.0 * frame.xi1 + xi, 2.0 * s - xi, 2.0 * frame.xi2 - xi, 2.0 * s + xi])
    th = np.full(xi.size, theta)
    got = _tails_at(w, np.square(np.sin(0.5 * th)), np.sin(th), h)
    w = w + _HEAD * h
    worst = 0.0
    with mpmath.workdps(40):
        bernoulli = [mpmath.bernoulli(2 * j) for j in range(1, 5)]
        ct, st_, hh = mpmath.cos(theta), mpmath.sin(theta), mpmath.mpf(h)
        for idx, w0 in np.ndenumerate(w):
            # chop=False: mpmath.taylor rounds tiny coefficients to 0 by default
            w0 = mpmath.mpf(float(w0))
            c = mpmath.taylor(lambda v: (2 * (mpmath.cosh(v) - ct)) ** -0.5, w0, 9, chop=False)
            c3 = mpmath.taylor(lambda v: st_ * (2 * (mpmath.cosh(v) - ct)) ** -1.5, w0, 8,
                               chop=False)
            # c_m = f^(m)(w) / m!, so B_2j / (2j)! h^(2j-1) f^(2j-1) = B_2j / (2j) h^(2j-1) c_(2j-1)
            tail = c[0] / 2 - sum(b / (2 * j) * hh ** (2 * j - 1) * c[2 * j - 1]
                                  for j, b in enumerate(bernoulli, start=1))
            tail_3 = c3[0] / 2 - sum(b / (2 * j) * hh ** (2 * j - 1) * c3[2 * j - 1]
                                     for j, b in enumerate(bernoulli, start=1))
            # f = dG/dw has f^(2j-1) / (2j)! = c_(2j) and the integral -G(w) / h
            tail_d = c[1] / 2 - c[0] / hh - sum(b * hh ** (2 * j - 1) * c[2 * j]
                                                for j, b in enumerate(bernoulli, start=1))
            for row, want in enumerate((tail, tail_d, tail_3)):
                err = abs(got[row][idx] - float(want))
                worst = max(worst, err / abs(float(want)))
    assert worst <= 2e-15


def test_boundary_traces(frame_12, series_12):
    for theta in _thetas():
        on1 = BisphericalPoint(-frame_12.xi1, theta, 0.0)
        on2 = BisphericalPoint(frame_12.xi2, theta, 0.0)
        assert eval_potential(series_12, 1, on1) == pytest.approx(1.0, abs=1e-10)
        assert eval_potential(series_12, 1, on2) == pytest.approx(0.0, abs=1e-10)
        assert eval_potential(series_12, 2, on1) == pytest.approx(0.0, abs=1e-10)
        assert eval_potential(series_12, 2, on2) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("eps", [1e-12, 1e-30, 1e-100, 1e-300])
def test_boundary_traces_at_tiny_gaps(eps):
    frame = frame_from_pair(ResonatorPair(1.0, 2.0, eps))
    ps = potential_series(frame, tol=1e-10)
    theta = np.append(np.geomspace(1e-200, math.pi, 400), math.pi)
    for xi0, want in ((-frame.xi1, (1.0, 0.0)), (frame.xi2, (0.0, 1.0))):
        v = potential_field(ps, np.full_like(theta, xi0), theta).v
        for j in (0, 1):
            assert np.max(np.abs(v[j] - want[j])) <= ps.tol


@pytest.mark.parametrize("eps", [1e-310, 1e-315, 1e-320])
def test_boundary_traces_at_underflowing_gaps(eps):
    # below eps ~ 1e-308 the image arguments near the theta = 0 pole are so
    # small that D = (1 - e)^2 + 4 e sin^2(theta/2) underflows unless rescaled
    frame = frame_from_pair(ResonatorPair(1.0, 2.0, eps))
    ps = potential_series(frame, tol=1e-10)
    theta = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-170, math.pi, 200)])
    # the derivative sums, which overflow at these gaps, are not formed for V
    # alone, so no warning fires
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = potential_field(ps, [frame.xi2], [1e-200]).v
        assert v[1, 0] == pytest.approx(1.0, abs=4e-15)
        assert abs(v[0, 0]) <= 4e-15
        for xi0, want in ((-frame.xi1, (1.0, 0.0)), (frame.xi2, (0.0, 1.0))):
            v = potential_field(ps, np.full_like(theta, xi0), theta).v
            for j in (0, 1):
                assert np.max(np.abs(v[j] - want[j])) <= 4e-15


def test_gradient_beyond_the_double_range_raises_overflow_error():
    # below eps ~ 1e-305 the gradient near the gap passes the double range;
    # at these points every component was +-inf or NaN, with four
    # RuntimeWarnings. V stays finite, and a value-only call warns of nothing
    def points(frame):
        return [frame.xi2, 0.0, -frame.xi1, 0.0], [1e-200, 1e-160, math.pi / 2, 0.5]

    phi = [0.3] * 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frame = frame_from_pair(ResonatorPair(1.0, 2.0, 1e-310))
        ps = potential_series(frame, tol=1e-10)
        assert np.all(np.isfinite(potential_field(ps, *points(frame)).v))
        with pytest.raises(OverflowError, match=r"at 4 of 4 points for the gap eps = 1e-310"):
            potential_field(ps, *points(frame), phi)
        frame = frame_from_pair(ResonatorPair(1.0, 2.0, 1e-305))
        f = potential_field(potential_series(frame, tol=1e-10), *points(frame), phi)
        assert np.all(np.isfinite(f.v)) and np.all(np.isfinite(f.grad))


def test_interior_point_rejected(frame_12, series_12):
    inside = BisphericalPoint(frame_12.xi2 + 0.05, 1.0, 0.0)
    with pytest.raises(ValueError, match="inside resonator 2"):
        eval_potential(series_12, 1, inside)
    inside1 = BisphericalPoint(-frame_12.xi1 - 0.05, 1.0, 0.0)
    with pytest.raises(ValueError, match="inside resonator 1"):
        eval_potential(series_12, 1, inside1)


def test_potential_field_rejects_bad_inputs(frame_12, series_12):
    xi, theta, phi = [0.0, 0.05], [1.0, 2.0], [0.0, 1.0]
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="xi holds a non-finite"):
            potential_field(series_12, [0.0, bad], theta)
        with pytest.raises(ValueError, match="theta holds a non-finite"):
            potential_field(series_12, xi, [bad, 1.0])
        with pytest.raises(ValueError, match="phi holds a non-finite"):
            potential_field(series_12, xi, theta, [0.0, bad])
    with pytest.raises(ValueError, match="theta has shape"):
        potential_field(series_12, xi, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="theta has shape"):
        potential_field(series_12, xi, [1.0])
    # one azimuth is not reused for every point
    with pytest.raises(ValueError, match="phi has shape"):
        potential_field(series_12, xi, theta, [0.0])
    assert potential_field(series_12, xi, theta, phi).grad.shape == (2, 3, 2)
    # finite inputs whose sum overflows are valid, and warn of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = potential_field(series_12, xi, theta, [1e308, 1e308])
        assert np.all(np.isfinite(f.grad))


def test_gradient_at_the_point_at_infinity_raises_value_error(series_12):
    # xi = theta = 0 is the point at infinity: V is 0 there, and the gradient
    # has no limit (sinh(xi) / sqrt(2 d) is 0 / 0), at any gap
    for eps, ps in ((0.05, series_12),
                    (1e-310, potential_series(frame_from_pair(ResonatorPair(1.0, 2.0, 1e-310))))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(potential_field(ps, [0.0, 0.0], [0.0, 1.0]).v[:, 0], [0.0, 0.0])
            with pytest.raises(ValueError, match=r"point at infinity.*\(1 of 2 points\)"):
                potential_field(ps, [0.0, 0.0], [0.0, 1.0], [0.3, 0.3])


def test_potential_field_of_no_points_is_empty(series_12):
    f = potential_field(series_12, [], [], [])
    assert f.v.shape == (2, 0) and f.grad.shape == (2, 3, 0)
    assert potential_field(series_12, [], []).v.shape == (2, 0)


def test_far_field_charge(frame_12, series_12, cap_12):
    # |x| V_j -> (C_1j + C_2j) / (4 pi); the dipole term decays one order
    # faster, so the relative defect at radius R shrinks like 1/R
    for j, qcol in ((1, cap_12.c11 + cap_12.c21), (2, cap_12.c12 + cap_12.c22)):
        want = qcol / (4.0 * math.pi)
        defects = []
        for radius in (100.0, 400.0):
            x = np.array([0.6, -0.3, 0.74])
            x *= radius / np.linalg.norm(x)
            b = to_bispherical(frame_12, x)
            got = eval_potential(series_12, j, b) * radius
            defects.append(abs(got / want - 1.0))
            assert got == pytest.approx(want, rel=8.0 / radius)
        assert defects[1] < 0.5 * defects[0]


def test_potential_sum_between_zero_and_one(frame_12, series_12, rng):
    # V1 + V2 is harmonic, equals 1 on both spheres and 0 at infinity
    n_checked = 0
    for _ in range(200):
        x = rng.uniform(-4.0, 4.0, size=3)
        b = to_bispherical(frame_12, x)
        if not (-frame_12.xi1 + 1e-6 < b.xi < frame_12.xi2 - 1e-6):
            continue
        tot = eval_potential(series_12, 1, b) + eval_potential(series_12, 2, b)
        assert 0.0 < tot < 1.0
        n_checked += 1
    assert n_checked > 100


def test_reflection_symmetry_equal_spheres(frame_sym, series_sym):
    # swapping the spheres mirrors xi, so V1(xi) = V2(-xi) when r1 = r2
    for theta in np.linspace(0.2, math.pi, 9):
        for xi in np.linspace(-frame_sym.xi1, frame_sym.xi2, 7):
            a = eval_potential(series_sym, 1, BisphericalPoint(xi, theta, 0.0))
            b = eval_potential(series_sym, 2, BisphericalPoint(-xi, theta, 0.0))
            assert a == pytest.approx(b, rel=1e-11, abs=1e-12)


def test_mode_boundary_values(frame_12, series_12, spectral_12):
    for theta in np.linspace(0.3, math.pi, 7):
        on1 = BisphericalPoint(-frame_12.xi1, theta, 0.0)
        on2 = BisphericalPoint(frame_12.xi2, theta, 0.0)
        f1 = potential_field(series_12, [on1.xi], [on1.theta])
        f2 = potential_field(series_12, [on2.xi], [on2.theta])
        assert f1.mode(spectral_12.d2)[0] == pytest.approx(spectral_12.d2, rel=1e-9)
        assert f2.mode(spectral_12.d2)[0] == pytest.approx(1.0, rel=1e-9)
        assert f1.mode(spectral_12.d1)[0] == pytest.approx(spectral_12.d1, rel=1e-9)


def test_gradient_matches_finite_differences(frame_12, series_12, spectral_12, rng):
    def field(n):
        d_n = (spectral_12.d1, spectral_12.d2)[n - 1]

        def f(x):
            b = to_bispherical(frame_12, x)
            return potential_field(series_12, [b.xi], [b.theta]).mode(d_n)[0]

        return f

    checked = 0
    for _ in range(60):
        x = rng.uniform(-3.0, 3.0, size=3)
        b = to_bispherical(frame_12, x)
        if not (-frame_12.xi1 + 0.03 < b.xi < frame_12.xi2 - 0.03):
            continue
        for n in (1, 2):
            ana = eval_grad_mode(n, spectral_12, series_12, b)
            num = fd_check_gradient(field(n), x, 1e-3)
            assert np.allclose(ana, num, rtol=1e-6, atol=1e-9)
        checked += 1
        if checked >= 12:
            break
    assert checked >= 12


def test_potential_gradient_matches_fd_and_mode_combination(
    frame_12, series_12, spectral_12
):
    for x in ([2.5, 0.5, -1.0], [-1.4, 0.2, -0.7], [0.1, 2.2, 0.9]):
        b = to_bispherical(frame_12, x)

        for j in (1, 2):
            def f(y, j=j):
                return eval_potential(series_12, j, to_bispherical(frame_12, y))

            ana = potential_field(series_12, [b.xi], [b.theta], [b.phi]).grad[j - 1][:, 0]
            num = fd_check_gradient(f, np.asarray(x), 1e-3)
            assert np.allclose(ana, num, rtol=1e-6, atol=1e-9)

        # modes are the combinations d_n grad V1 + grad V2
        g1, g2 = potential_field(series_12, [b.xi], [b.theta], [b.phi]).grad[:, :, 0]
        for n, d_n in ((1, spectral_12.d1), (2, spectral_12.d2)):
            gm = eval_grad_mode(n, spectral_12, series_12, b)
            assert np.allclose(gm, d_n * g1 + g2, rtol=1e-12, atol=1e-14)


def test_potential_gradient_rejects_interior_points(frame_12, series_12):
    with pytest.raises(ValueError, match="inside resonator"):
        b = to_bispherical(frame_12, (0.0, 0.0, -1.0))
        potential_field(series_12, [b.xi], [b.theta], [b.phi])


def _kelvin_images(r1, r2, eps, j):
    """Kelvin image charges (q, z) on the x3 axis for V_j, as 40-digit mpf.

    V_j is 1 on sphere j and 0 on the other. The seed r_j at the centre
    of sphere j holds sphere j at 1; each image is reflected in the
    other sphere, q' = -q r / |z - c| at z' = c + r^2 / (z - c), until a
    charge falls below 1e-24 of the seed. Centres sit at -/+ sqrt(r^2 +
    alpha^2), midway between the limit points as in the frame. Call it
    inside mpmath.workdps(40).
    """
    r1, r2, eps = mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(eps)
    d = r1 + r2 + eps
    alpha2 = ((d * d - r1 * r1 - r2 * r2) ** 2 - 4 * r1 * r1 * r2 * r2) / (4 * d * d)
    spheres = [(-mpmath.sqrt(r1**2 + alpha2), r1), (mpmath.sqrt(r2**2 + alpha2), r2)]
    k = j - 1
    c, q = spheres[k]
    floor = q * mpmath.mpf(10) ** -24
    images = []
    while abs(q) > floor:
        images.append((q, c))
        k = 1 - k
        c_k, r_k = spheres[k]
        w = c - c_k
        q, c = -q * r_k / abs(w), c_k + r_k * r_k / w
    return images


def _kelvin_axis_grad_v(r1, r2, eps, j, x3s):
    """d V_j / d x3 at gap-axis points, from Kelvin images at 40 digits."""
    with mpmath.workdps(40):
        images = _kelvin_images(r1, r2, eps, j)
        grads = []
        for x3 in x3s:
            # d/dx3 of q / |x3 - z| is -q (x3 - z) / |x3 - z|^3
            g = mpmath.mpf(0)
            for q, z in images:
                w = x3 - z
                g -= q / (w * abs(w))
            grads.append(float(g))
        return grads


def _kelvin_grad_v(r1, r2, eps, j, x):
    """grad V_j at the Cartesian point x, from Kelvin images at 40 digits."""
    with mpmath.workdps(40):
        x1, x2, x3 = (mpmath.mpf(c) for c in x)
        g = [mpmath.mpf(0)] * 3
        for q, z in _kelvin_images(r1, r2, eps, j):
            r3 = mpmath.sqrt(x1 * x1 + x2 * x2 + (x3 - z) ** 2) ** 3
            g = [g[0] - q * x1 / r3, g[1] - q * x2 / r3, g[2] - q * (x3 - z) / r3]
        return np.array([float(c) for c in g])


@pytest.mark.parametrize("eps", [1e-5, 1e-6])
def test_gap_axis_gradient_meets_its_bound_against_kelvin_images(eps):
    # single gap-axis points at a narrow gap: the gradient tail is
    # certified below tol / alpha, so the whole error must be too
    pair = ResonatorPair(1.0, 2.0, eps)
    frame = frame_from_pair(pair)
    tol = 1e-10
    ps = potential_series(frame, tol=tol)
    fracs = (0.0, 0.1, 0.37, 0.5, 0.81, 1.0)
    xis = [(1.0 - f) * -frame.xi1 + f * frame.xi2 for f in fracs]
    with mpmath.workdps(40):
        x3s = [frame.alpha * mpmath.tanh(mpmath.mpf(xi) / 2) for xi in xis]
    want = _kelvin_axis_grad_v(1.0, 2.0, eps, 1, x3s)
    for f, xi, w in zip(fracs, xis, want):
        got = potential_field(ps, [xi], [math.pi], [0.0]).grad[0][:, 0]
        err = frame.alpha * math.hypot(got[0], got[1], got[2] - w)
        assert err <= tol, f"gap fraction {f}: alpha * error {err:.2e}"


def test_far_gradient_near_the_axis_against_kelvin_images():
    # far points near the x3 axis have small xi and theta, where
    # 1 - cosh(xi) cos(theta) cancels unless formed in half-angle form,
    # theta loses digits unless taken from its sine as well as its cosine,
    # and xi as a difference of two logarithms (1e-12 of the gradient at
    # x3 = 600, 2e-11 at 1e5) unless taken from a log1p
    pair = ResonatorPair(1.0, 2.0, 0.05)
    frame = frame_from_pair(pair)
    tol = 1e-10
    ps = potential_series(frame, tol=tol)
    for x in ((0.01, 0.0, 6.0), (0.01, 0.0, -6.0), (0.0, 1e-3, 60.0), (1e-3, 0.0, -600.0),
              (0.0, 1e-3, 600.0), (0.0, 1e-3, 1e5)):
        b = to_bispherical(frame, x)
        for j in (1, 2):
            want = _kelvin_grad_v(1.0, 2.0, 0.05, j, x)
            got = potential_field(ps, [b.xi], [b.theta], [b.phi]).grad[j - 1][:, 0]
            err = frame.alpha * np.linalg.norm(got - want)
            assert err <= tol, f"x = {x}, V_{j}: alpha * error {err:.2e}"
            assert np.linalg.norm(got - want) <= 3e-15 * np.linalg.norm(want)


def test_gradient_has_no_azimuthal_component(frame_12, series_12, spectral_12):
    # the fields are axisymmetric; e_phi projection must vanish
    for x in ([0.7, 1.1, 0.4], [-1.2, 0.5, -0.9], [0.3, -2.0, 1.4]):
        b = to_bispherical(frame_12, x)
        g = eval_grad_mode(2, spectral_12, series_12, b)
        phi = math.atan2(x[1], x[0])
        e_phi = np.array([-math.sin(phi), math.cos(phi), 0.0])
        assert abs(g @ e_phi) < 1e-10 * (1.0 + np.linalg.norm(g))


def test_symmetric_in_phase_mode_is_flat_at_gap_center(frame_sym, series_sym, spectral_sym):
    # equal boundary data shields the gap: the in-phase gradient vanishes
    # at the center by symmetry
    g = eval_grad_mode(1, spectral_sym, series_sym, BisphericalPoint(0.0, math.pi, 0.0))
    assert np.linalg.norm(g) < 1e-8


def test_anti_phase_gap_gradient_magnitude(frame_sym, series_sym, spectral_sym, pair_sym):
    # across a short gap the anti-phase mode drops from d2 to 1 over eps
    g = eval_grad_mode(2, spectral_sym, series_sym, BisphericalPoint(0.0, math.pi, 0.0))
    quotient = (1.0 - spectral_sym.d2) / pair_sym.epsilon
    assert np.linalg.norm(g) == pytest.approx(abs(quotient), rel=0.3)
    # and it points along the axis
    assert abs(g[0]) < 1e-10 and abs(g[1]) < 1e-10


def test_h_decomposition_symmetric_structure(pair_sym, frame_sym):
    ct = rescale(capacitance_exact(frame_sym, tol=1e-13), pair_sym)
    sp = eigen(ct)
    dec1 = h_decomposition(ct, sp, 1)
    dec2 = h_decomposition(ct, sp, 2)
    # in-phase mode is exactly the regular profile, anti-phase exactly the
    # singular one
    assert dec1.a_reg == pytest.approx(1.0, rel=1e-12)
    assert abs(dec1.b_sing) < 1e-10
    assert abs(dec2.a_reg) < 1e-10
    assert dec2.b_sing != 0.0
    assert dec1.residual < 1e-12 and dec2.residual < 1e-12


def _mode_minus_combination(frame, series, sp, dec, h2_fn, n, points):
    out = []
    for b in points:
        u = potential_field(series, [b.xi], [b.theta]).mode((sp.d1, sp.d2)[n - 1])[0]
        h1 = eval_potential(series, 1, b) + eval_potential(series, 2, b)
        out.append(u - dec.a_reg * h1 - dec.b_sing * h2_fn(b))
    return np.array(out)


def test_h_decomposition_reconstructs_modes_pointwise(
    pair_12, frame_12, series_12, spectral_12, cap_12, rng
):
    ct = rescale(cap_12, pair_12)
    dec1 = h_decomposition(ct, spectral_12, 1)
    dec2 = h_decomposition(ct, spectral_12, 2)

    # recover the singular profile from mode 2, then check mode 1 against it
    def h2_from_mode2(b):
        u = potential_field(series_12, [b.xi], [b.theta]).mode(spectral_12.d2)[0]
        h1 = eval_potential(series_12, 1, b) + eval_potential(series_12, 2, b)
        return (u - dec2.a_reg * h1) / dec2.b_sing

    points = []
    while len(points) < 100:
        x = rng.uniform(-3.5, 3.5, size=3)
        b = to_bispherical(frame_12, x)
        if -frame_12.xi1 + 1e-9 < b.xi < frame_12.xi2 - 1e-9:
            points.append(b)

    resid = _mode_minus_combination(
        frame_12, series_12, spectral_12, dec1, h2_from_mode2, 1, points
    )
    scale = max(1.0, abs(spectral_12.d1))
    assert np.max(np.abs(resid)) < 1e-8 * scale


def test_h_decomposition_flux_normalization(
    pair_12, frame_12, series_12, spectral_12, cap_12
):
    # the singular profile carries flux +1 out of sphere 1 and -1 out of
    # sphere 2; recover it by linearity from the mode fluxes
    ct = rescale(cap_12, pair_12)
    dec2 = h_decomposition(ct, spectral_12, 2)
    for i, want in ((1, 1.0), (2, -1.0)):
        flux_v1 = flux_quadrature(series_12, 1, i, tol=1e-9)
        flux_v2 = flux_quadrature(series_12, 2, i, tol=1e-9)
        flux_u2 = spectral_12.d2 * flux_v1 + flux_v2
        flux_h1 = flux_v1 + flux_v2
        got = (flux_u2 - dec2.a_reg * flux_h1) / dec2.b_sing
        assert got == pytest.approx(want, abs=1e-4)


def test_h_decomposition_rejects_bad_mode_index(pair_12, frame_12, cap_12, spectral_12):
    ct = rescale(cap_12, pair_12)
    with pytest.raises(ValueError):
        h_decomposition(ct, spectral_12, 3)


def test_max_gap_gradient_anti_phase_plateau():
    # small gap so the axis profile is flat to O(xi1^2); at eps = 0.1 the
    # endpoints already sit a few percent above the center
    eps = 1e-3
    pair = ResonatorPair(1.0, 1.0, eps)
    frame = frame_from_pair(pair)
    sp = eigen(rescale(capacitance_exact(frame, tol=1e-13), pair))
    ps = potential_series(frame, tol=1e-10)
    _, (g_max, where) = _surface_grad_max(ps, [sp.d1, sp.d2], 200)
    # the maximizer is a gap pole, an end of the gap segment
    assert where.theta == math.pi
    assert where.xi in (-frame.xi1, frame.xi2)
    # center value within a tenth of a percent of the maximum
    g_center = np.linalg.norm(
        eval_grad_mode(2, sp, ps, BisphericalPoint(0.0, math.pi, 0.0))
    )
    assert g_center >= 0.999 * g_max
    assert g_max >= g_center * (1.0 - 1e-12)


def test_max_gap_gradient_profile_is_even_for_equal_spheres(
    frame_sym, series_sym, spectral_sym
):
    for xi in (0.05, 0.12, 0.2):
        gp = np.linalg.norm(
            eval_grad_mode(2, spectral_sym, series_sym, BisphericalPoint(xi, math.pi, 0.0))
        )
        gm = np.linalg.norm(
            eval_grad_mode(2, spectral_sym, series_sym, BisphericalPoint(-xi, math.pi, 0.0))
        )
        assert gp == pytest.approx(gm, rel=1e-9)


def test_max_gap_gradient_needs_enough_samples(water_air):
    with pytest.raises(ValueError, match="samples"):
        blowup_study((1.0, 2.0), water_air, [1e-4, 1e-3, 1e-2, 1e-1], samples=10)


def test_surface_sweep_consistent_with_axis_endpoint(
    frame_sym, series_sym, spectral_sym
):
    # theta = pi on a sphere surface is the gap endpoint of the axis, so the
    # surface maximum of the anti-phase mode cannot fall below it
    g_end = np.linalg.norm(
        eval_grad_mode(
            2, spectral_sym, series_sym, BisphericalPoint(frame_sym.xi2, math.pi, 0.0)
        )
    )
    sweep = _surface_grad_max(series_sym, [spectral_sym.d1, spectral_sym.d2])
    maxima = [g for g, _ in sweep]
    assert maxima[1] >= g_end * (1.0 - 1e-9)
    assert maxima[1] == pytest.approx(g_end, rel=0.05)
    # the in-phase surface maximum is order one, nowhere near the 1/eps scale
    assert maxima[0] < 0.05 * maxima[1]


def test_blowup_study_at_tiny_gaps(water_air):
    # the jump law max|grad u_n| * eps = |1 - d_n| + O(sqrt eps) of the
    # benchmark's blow-up check, and the 1/eps rate of the anti-phase mode
    study = blowup_study((1.0, 2.0), water_air, [1e-12, 1e-11, 1e-10, 1e-9], samples=100)
    assert -1.1 <= study.slope_u2 <= -0.9
    for row in study.rows:
        pair = ResonatorPair(1.0, 2.0, row.epsilon)
        sp = eigen(rescale(capacitance_exact(frame_from_pair(pair), tol=1e-12), pair))
        for g, d_n in ((row.max_grad_u1, sp.d1), (row.max_grad_u2, sp.d2)):
            jump = abs(1.0 - d_n)
            assert abs(g * row.epsilon - jump) <= math.sqrt(row.epsilon) * max(1.0, jump)


# |grad u_n| of the surface sweep against the norm of the full evaluator's
# Cartesian gradient, in ulps of |d_n| |grad V_1| + |grad V_2|, the size of
# the two terms it adds: 23 measured worst, over these pairs and gaps
_SWEEP_ULPS = 64


@pytest.mark.parametrize("radii", [(1.0, 2.0), (1.0, 1.0), (0.5, 3.0), (3.0, 0.2)])
def test_surface_sweep_matches_the_full_evaluator(radii):
    # potential_field sums values, both derivatives and the Gauss-node
    # integrals of all four image rows; on a sphere the sweep needs only
    # the one-sided normal-derivative sums, and both must give one gradient
    bound = _SWEEP_ULPS * np.finfo(float).eps
    for eps in 10.0 ** -np.arange(1, 13):
        pair = ResonatorPair(*radii, eps)
        frame = frame_from_pair(pair)
        sp = eigen(rescale(capacitance_exact(frame, tol=1e-10), pair))
        ps = potential_series(frame, tol=1e-8)
        ratios = [sp.d1, sp.d2]
        theta, g = _surface_grad(ps, ratios)
        sweep = _surface_grad_max(ps, ratios)
        fields = [
            potential_field(ps, np.full_like(theta, xi0), theta, np.zeros_like(theta))
            for xi0 in (-frame.xi1, frame.xi2)
        ]
        sizes = np.array([np.linalg.norm(f.grad, axis=1) for f in fields])
        for k, d_n in enumerate(ratios):
            # the evaluator's |grad u_n| on both spheres, and the scale of the bound
            want = np.array([np.linalg.norm(f.mode_grad(d_n), axis=0) for f in fields])
            scale = abs(d_n) * sizes[:, 0] + sizes[:, 1]
            assert np.all(np.abs(g[:, k] - want) <= bound * scale)
            # the maxima agree, and the sweep's maximizer is one of the
            # evaluator's to within the bound: near the gap pole the profile
            # can be flat to rounding, and either side may pick a neighbour
            g_max, where = sweep[k]
            i = 0 if where.xi == -frame.xi1 else 1
            m = int(np.argmax(theta == where.theta))
            assert theta[m] == where.theta and g_max == g[i, k, m]
            top = np.unravel_index(np.argmax(want), want.shape)
            assert abs(g_max - want[top]) <= bound * scale[top]
            assert want[i, m] >= want[top] - bound * (scale[top] + scale[i, m])


# max|grad u_n| eps = |1 - d_n| + O(sqrt eps) at the deep gaps, to within
# this many ulps of |d_n| + 1, the size of the two cancelling jumps
# |grad V_j| eps ~ 1, beyond the sqrt(eps) term: at most 2.0 measured
_RATE_ULPS = 8


@pytest.mark.parametrize("eps", [1e-30, 1e-100, 1e-200, 1e-300])
@pytest.mark.parametrize("radii", [(1.0, 2.0), (0.5, 3.0), (3.0, 0.2)])
def test_surface_sweep_follows_the_jump_law_at_deep_gaps(radii, eps):
    # The jump law at gaps where the capacitance series is out of reach:
    # d_n comes from the asymptotic rescaled matrix, which matches the exact
    # one to O(sqrt eps). The anti-phase maxima ~ 9 / eps exceed the
    # 1.3e154 where a squared norm overflows. Equal spheres are left out:
    # their in-phase jump is 0, so the rounding of d_1 and of the sums,
    # times |grad V_j| ~ 1 / eps, dominates.
    pair = ResonatorPair(*radii, eps)
    sp = eigen(capacitance_asymptotic_rescaled(pair))
    ps = potential_series(frame_from_pair(pair), tol=1e-8)
    sweep = _surface_grad_max(ps, [sp.d1, sp.d2])
    for (g, where), d_n in zip(sweep, (sp.d1, sp.d2)):
        jump = abs(1.0 - d_n)
        assert math.isfinite(g)
        slack = math.sqrt(eps) * jump + _RATE_ULPS * np.finfo(float).eps * (abs(d_n) + 1.0)
        assert abs(g * eps - jump) <= slack
        # the blow-up sits at the gap, where the two gap poles tie to rounding
        assert where.theta > 3.14


def test_blowup_study_grid_validation(water_air):
    with pytest.raises(ValueError):
        blowup_study((1.0, 1.0), water_air, [1e-3, 1e-2], samples=100)
    with pytest.raises(ValueError):
        # three points but under three decades of span
        blowup_study((1.0, 1.0), water_air, [1e-3, 3e-3, 1e-2], samples=100)


def test_blowup_study_parallel_matches_serial(water_air):
    grid = [1e-4, 1e-3, 1e-2, 1e-1]
    a = blowup_study((1.0, 2.0), water_air, grid, samples=120, tol=1e-7, jobs=1)
    b = blowup_study((1.0, 2.0), water_air, grid, samples=120, tol=1e-7, jobs=2)
    assert a.slope_u1 == b.slope_u1
    assert a.slope_u2 == b.slope_u2
    for ra, rb in zip(a.rows, b.rows):
        assert ra.max_grad_u1 == rb.max_grad_u1
        assert ra.max_grad_u2 == rb.max_grad_u2
