"""Special functions used by the series and the gap asymptotics.

The partial-fraction tail sum(z / (n(n - z))) = -gamma - psi(1 - z), the
package's one digamma, which takes z and 1 - z as p / (p + q) and
q / (p + q) so that the capacitance asymptotics and the sigma terms keep
their digits at any radius ratio; and the image kernel
G(w) = (2 (cosh w - cos theta))^{-1/2} with its Euler-Maclaurin tail,
which `fields` sums at every theta and `capacitance` at theta = 0. The
kernel and the tail form G, dG/dw and sin(theta) G^3 as rows, and each
caller asks for the rows it reads.

The batch policy of those sums lives here too. A batch of N points
sends up to _STACK // N head images through one kernel call
(_head_spans); a small batch (at most _SMALL points) adds stacked terms
with one accumulate and a large one, whose arrays would outgrow the
cache, in a loop (_in_order, _em_sums). Either way every sum adds its
terms one at a time in a fixed order, so a point's values are the same
bits in any batch. The kernel is _parts, then _rows. One pass over the
images (_image_pass) sends the last head block, the tail start and any
extra arguments of the caller through one _parts and _rows call, and
the tail takes its G factors from the rows at the start.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

# Euler-Mascheroni constant, correct to double precision
GAMMA_EULER = 0.5772156649015329

# digamma_series_tail: the first _TAIL_HEAD terms are summed directly, the
# rest as sum_{j>=2} z^(j-1) zeta(j, _TAIL_HEAD + 1) for j <= _TAIL_ORDERS;
# each order shrinks by a factor z/(_TAIL_HEAD + 1), so the first omitted
# one is below (z/17)^14 of the j = 2 term
_TAIL_HEAD = 16
_TAIL_ORDERS = 15
_TAIL_ZETA = tuple(_hurwitz_zeta(np.arange(2.0, _TAIL_ORDERS + 1.0), _TAIL_HEAD + 1.0).tolist())


def digamma_series_tail(p: float, q: float) -> float:
    """sum_{n>=1} z / (n (n - z)) with z = p / (p + q), to a few ulps relative.

    This is -gamma - psi(1 - z) for p and q positive and finite. z and
    1 - z = q / (p + q) each take one division, so 1 - z is never formed
    by a subtraction: the n = 1 term z / (1 - z) keeps its digits as
    z -> 1, and every term keeps its digits as z -> 0. The first 16 terms
    are summed directly, the remainder is re-expanded as the Hurwitz-zeta
    series sum_{j>=2} z^(j-1) zeta(j, 17), whose orders fall by a factor
    z/17 each, and all of it is added exactly rounded (math.fsum).
    """
    total = p + q
    if not (p > 0.0 and q > 0.0 and total < math.inf):
        raise ValueError(f"tail sum needs p and q positive with a finite sum, got {p}, {q}")
    z = p / total
    terms = [z / (n * (n - z)) for n in range(2, _TAIL_HEAD + 1)]
    terms.append(z / (q / total))
    rest = 0.0
    for zeta in reversed(_TAIL_ZETA):
        rest = rest * z + zeta
    terms.append(z * rest)
    return math.fsum(terms)


# --------------------------------------------------------------------------
# image kernel and its Euler-Maclaurin tail

_HEAD = 32  # image terms summed directly
# head images x points per stacked numpy call; of 1024, 2048 and 4096,
# 2048 gave the fastest potential_field from 8 to 800 points and was
# within 5 % of the best at 1 and 1600 points
_STACK = 2048
_IMAGES = np.arange(_HEAD + 1.0)[:, None, None]  # k of the images w + k h, and of the tail start
_ROWS = range(3)  # G, dG/dw and sin(theta) G^3, the rows of _kernel and of the tails
_EM_ORDER = 4  # Bernoulli corrections in the tail, B_2 ... B_8
_B_NEXT = 5.0 / 66.0  # B_10, of the first omitted correction
_SMALL = _STACK // _HEAD  # a batch of at most this many points stacks everything
# the tails' monomials X^i Y^j, 2 i + j <= 2 _EM_ORDER, by degree 2 i + j
_MONOMIALS = tuple((i, n - 2 * i) for n in range(2 * _EM_ORDER + 1) for i in range(n // 2 + 1))
_MONO_I = np.array([i for i, _ in _MONOMIALS])
_MONO_J = np.array([j for _, j in _MONOMIALS])
# Tail weights W_m(h) = c_0 + c_1 h^2 + c_2 h^4 + ... of the monomials m = (i, j)
# (absent ones weigh 0) in the tails of G, h dG/dw and sin(theta) G^3: exact
# rationals, which a test rebuilds from Miller's recurrence
_TAIL_WEIGHTS = (
    {  # G
        (0, 0): (1 / 2,),
        (0, 1): (1 / 24, -1 / 1440, 1 / 60480, -1 / 2419200),
        (0, 3): (-1 / 384, 5 / 8064, -13 / 92160),
        (1, 1): (1 / 320, -1 / 2688, 1 / 25600),
        (0, 5): (1 / 1024, -7 / 8192),
        (1, 3): (-5 / 2304, 49 / 36864),
        (2, 1): (5 / 5376, -1 / 3072),
        (0, 7): (-143 / 163840,),
        (1, 5): (231 / 81920,),
        (2, 3): (-21 / 8192,),
        (3, 1): (7 / 12288,),
    },
    {  # h dG/dw
        (0, 0): (-1.0,),
        (0, 1): (-1 / 4,),
        (0, 2): (-1 / 16, 1 / 240, -1 / 2520, 1 / 25200),
        (1, 0): (1 / 24, -1 / 1440, 1 / 60480, -1 / 2419200),
        (0, 4): (7 / 768, -5 / 1152, 7 / 3840),
        (1, 2): (-1 / 64, 25 / 5376, -3 / 2560),
        (2, 0): (1 / 320, -1 / 2688, 1 / 25600),
        (0, 6): (-11 / 2048, 77 / 10240),
        (1, 4): (15 / 1024, -63 / 4096),
        (2, 2): (-5 / 512, 7 / 1024),
        (3, 0): (5 / 5376, -1 / 3072),
        (0, 8): (429 / 65536,),
        (1, 6): (-1001 / 40960,),
        (2, 4): (231 / 8192,),
        (3, 2): (-21 / 2048,),
        (4, 0): (7 / 12288,),
    },
    {  # sin(theta) G^3
        (0, 0): (1 / 2,),
        (0, 1): (1 / 8, -1 / 480, 1 / 20160, -1 / 806400),
        (0, 3): (-7 / 384, 5 / 1152, -91 / 92160),
        (1, 1): (1 / 64, -5 / 2688, 1 / 5120),
        (0, 5): (11 / 1024, -77 / 8192),
        (1, 3): (-5 / 256, 49 / 4096),
        (2, 1): (5 / 768, -7 / 3072),
        (0, 7): (-429 / 32768,),
        (1, 5): (3003 / 81920,),
        (2, 3): (-231 / 8192,),
        (3, 1): (21 / 4096,),
    },
)
# the same weights as coefficient arrays: _WEIGHT_COEFFS[p, k, t] is c_p of
# monomial k in tail t
_WEIGHT_COEFFS = np.array([
    [[(table.get(mono, ()) + (0.0,) * _EM_ORDER)[p] for table in _TAIL_WEIGHTS]
     for mono in _MONOMIALS]
    for p in range(_EM_ORDER)
])[..., None, None]
# for each monomial, the tails that weigh it
_MONO_TAILS = tuple(
    tuple(t for t, table in enumerate(_TAIL_WEIGHTS) if mono in table) for mono in _MONOMIALS
)
_TINY = float(np.finfo(float).tiny)  # the smallest normal double
_UNDERFLOW_SCALE = 2.0 ** 600  # keeps D normal down to the smallest subnormal w and theta
# |G0^(9)(w)| / G0(w) = 2^-9 coth(w/2) Q(csch^2(w/2)), Q(t) = sum_j _REMAINDER_Q[j] t^j,
# from csch^(m+1) = csch P_(m+1)(coth), P_(m+1)(c) = -c P_m(c) - (c^2 - 1) P_m'(c)
_REMAINDER_Q = (1.0, 4920.0, 115920.0, 423360.0, 362880.0)


def _parts(w: np.ndarray, sh2: np.ndarray, st: np.ndarray):
    """e = e^{-w}, e - 1, D and a scale c, with 2 (cosh w - cos theta) = D / (c^2 e).

    D = (1 - e)^2 + 4 e sin^2(theta / 2) neither cancels for small w and
    theta nor overflows for large w. Where it is subnormal (w and theta
    below ~1e-154), e - 1 and D are formed again times c = _UNDERFLOW_SCALE
    and c^2, with sin^2(theta / 2) = (sin(theta) / 2)^2, whose digits
    survive there; c is 1 elsewhere, and None when no element needed it.
    """
    # formed in place where the values allow, which keeps a large batch's
    # temporaries, and the pages they take, down
    nw = -w
    e = np.exp(nw)
    em1 = np.expm1(nw, out=nw)
    dd = 4.0 * e * sh2
    dd += em1 * em1
    if dd.min(initial=_TINY) >= _TINY:
        return e, em1, dd, None
    tiny = dd < _TINY
    scale = np.where(tiny, _UNDERFLOW_SCALE, 1.0)
    em1 = em1 * scale
    return e, em1, em1 * em1 + 4.0 * e * np.where(tiny, np.square(0.5 * st * scale), sh2), scale


def _rows(parts: tuple, st: np.ndarray, ids) -> np.ndarray:
    """The kernel rows ids (increasing, of 0 = G, 1 = dG/dw and 2 = sin(theta) G^3) from _parts.

    For parts of shape (..., R, N) the result has shape (..., len(ids), R, N).
    Each derivative scales G by one ratio, so G^3, which overflows once w
    and theta are both below ~1e-103, is never formed. On the subnormal
    path of _parts row r carries r + 1 factors of its scale.
    """
    e, em1, dd, scale = parts
    out = np.empty((*dd.shape[:-2], len(ids), *dd.shape[-2:]))
    g = np.divide(e, dd, out=out[..., 0, :, :] if ids[0] == 0 else None)
    np.sqrt(g, out=g)
    for r, row in enumerate(ids):
        if row:  # the derivatives, G times one ratio
            if row == 1:
                ratio = 0.5 * em1
                ratio *= 1.0 + e
                ratio = ratio / dd
            else:
                ratio = st * e
                ratio /= dd
            np.multiply(ratio, g, out=out[..., r, :, :])
    if scale is not None:
        for r, row in enumerate(ids):
            for _ in range(row + 1):
                out[..., r, :, :] *= scale
    return out


def _kernel(
    w: np.ndarray, sh2: np.ndarray, st: np.ndarray, rows: slice = slice(None)
) -> np.ndarray:
    """G, dG/dw = -sinh(w) G^3 and -dG/dtheta = sin(theta) G^3 at w, as rows 0, 1 and 2.

    _parts, then _rows. Only the rows in the slice rows are formed, and
    the result is the whole result's [..., rows, :, :] to the bit. For
    w, sh2 and st broadcasting to shape (..., R, N) the whole result has
    shape (..., 3, R, N); w may be (..., R, 1) against angles of shape
    (N,), which takes the exponentials once per image, not per point.
    """
    return _rows(_parts(w, sh2, st), st, _ROWS[rows])


@functools.lru_cache(maxsize=64)
def _head_spans(n: int, extra: int) -> tuple[slice, ...]:
    """The head images k < _HEAD in blocks of consecutive k, as slices of _IMAGES.

    A block holds up to _STACK // n images for a batch of n points, so a
    small batch sends the whole head through one kernel call and does not
    pay a round of numpy calls per image, while a large one, whose stack
    would outgrow the cache, takes one image a call. extra more images
    ride in the last block when it has room for them; otherwise an empty
    block is added at the end to take them, so no block grows past its
    share of _STACK.
    """
    depth = max(_STACK // max(n, 1), 1)
    spans = [slice(k0, min(k0 + depth, _HEAD)) for k0 in range(0, _HEAD, depth)]
    if spans[-1].stop - spans[-1].start + extra > depth:
        spans.append(slice(_HEAD, _HEAD))
    return tuple(spans)


def _in_order(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """a[k] = op(a[k - 1], a[k]) for k = 1, 2, ... in turn; returns a[-1].

    A small batch (at most _SMALL points on the last axis) takes one
    op.accumulate, a large one a loop, whose contiguous rows run faster
    than the accumulate's strided walk down axis 0. Either way every row
    is one operation on the row before, so a point's values do not
    depend on its batch; np.sum would not do, since it may switch to
    pairwise summation (it does when the summed axis ends up innermost,
    as for a single point).
    """
    if a.shape[-1] <= _SMALL:
        op.accumulate(a, axis=0, out=a)
    else:
        for k in range(1, len(a)):
            op(a[k - 1], a[k], out=a[k])
    return a[-1]


def _image_pass(w, sh2, st, h: float, rows: slice, extra: np.ndarray, add, total):
    """Folds add over the kernel rows of the head images w + k h, k < _HEAD; with the tail.

    Returns (total, tails, rows at extra): total after add(total, block)
    for each head block of _head_spans in turn; the Euler-Maclaurin tails
    of G, dG/dw and sin(theta) G^3 at the tail start w + _HEAD h, the sum
    over k >= _HEAD less the integral from there divided by h, stacked;
    and _kernel at the arguments extra, of shape (E, *w.shape). w has two
    axes (start points, then points or 1) and the angles give the N
    points; only the rows in the slice rows are formed. The last head
    block also holds the tail start and extra, so one _parts and _rows
    pass serves them all; when the head leaves it no room, it holds these
    alone and add is not called on it. Each tail is its monomial sum
    (_em_sums) times G, for G and dG/dw, or sin(theta) G^3: the kernel
    rows at the tail start, or G formed there when rows lacks it. On the
    subnormal path of _parts these factors carry 1 and 3 factors of its
    scale, a power of two, so the tails carry 1, 1 and 3. Every value is
    elementwise, so the blocks are the one _kernel call over all _HEAD
    images, and the rest the kernel and tail at their own arguments, bit
    for bit.
    """
    *spans, last = _head_spans(np.size(sh2), 1 + len(extra))
    for ks in spans:
        total = add(total, _kernel(w + _IMAGES[ks] * h, sh2, st, rows))
    k = last.stop - last.start
    args = np.empty((k + 1 + len(extra), *w.shape))
    np.add(w, _IMAGES[last.start:] * h, out=args[:k + 1])
    args[k + 1:] = extra
    parts = _parts(args, sh2, st)
    # each array is let go once read, and the tail sums' temporaries before
    # the rows are formed, which keeps a large batch's peak memory, and the
    # fresh pages a call touches, down
    del args
    start = tuple(None if a is None else a[k] for a in parts)
    tails = _em_sums(start, h, rows)
    ids = _ROWS[rows]
    f = _rows(parts, st, ids)
    del parts
    # the factors: G for the first m tails, of G and dG/dw, and sin(theta) G^3
    # for its own, the last
    m = len(ids) - (ids[-1] == 2)
    if m:
        tails[:m] *= f[k, 0] if ids[0] == 0 else _rows(start, st, (0,))[0]
    if ids[-1] == 2:
        tails[-1] *= f[k, -1]
    if k:
        total = add(total, f[:k])
    return total, tails, f[k + 1:]


def _em_sums(parts: tuple, h: float, rows: slice) -> np.ndarray:
    """The Euler-Maclaurin tails of _image_pass in the slice rows, before their factors.

    parts is _parts at the tail start w. Each tail is f(w) / 2 -
    sum_j B_2j / (2j)! h^(2j-1) f^(2j-1)(w), the sum over k >= 0 of
    f(w + k h) less the integral over [w, oo) divided by h, from scaled
    Taylor coefficients of f; for dG/dw the integral, -G(w) / h, is part
    of it. With F = 2 (cosh w - cos theta), F(w + h t) / F(w) =
    1 + E (cosh ht - 1) + O sinh ht, E = 2 cosh(w) / F and
    O = 2 sinh(w) / F, so every scaled coefficient of F^(-1/2) and
    F^(-3/2) is a fixed polynomial in X = h^2 E and Y = h O, and each
    tail is G (for G and dG/dw) or sin(theta) G^3 times
    sum_m W_m(h) X^i Y^j over the monomials m = (i, j) of _MONOMIALS;
    this is that sum. As w >= K h, X <= h^2 + 2 / K^2 and Y <= h + 2 / K,
    so no power overflows however small w and theta are (E and O
    themselves grow like 1 / w^2 and 1 / w). The monomials are added one
    at a time in their fixed order: a small batch stacks them all, a
    large one loops over them and skips those of weight 0 in a tail,
    which would leave its sum as it is. On the subnormal path of _parts
    X and Y take its scale through h and the dG/dw weights carry 1 / h.
    The result is the whole result's [rows] to the bit, of shape
    (3, *joint shape) for all rows.
    """
    e, em1, dd, scale = parts
    hs = h if scale is None else h * scale
    x = hs * ((1.0 + e * e) / dd) * hs
    y = hs * (-em1 * (1.0 + e) / dd)
    xp, yp = _powers(x, _EM_ORDER), _powers(y, 2 * _EM_ORDER)
    ids = _ROWS[rows]
    weights = _tail_weights(h)[:, rows]
    if x.shape[-1] <= _SMALL:
        return _in_order(np.add, weights * (xp[_MONO_I] * yp[_MONO_J])[:, None])
    tails = np.zeros((len(ids), *x.shape))
    mono = np.empty_like(x)
    for k, (i, j) in enumerate(_MONOMIALS):
        weighed = [r for r, row in enumerate(ids) if row in _MONO_TAILS[k]]
        if weighed:
            np.multiply(xp[i], yp[j], out=mono)
            for r in weighed:
                tails[r] += weights[k, r, 0, 0] * mono
    return tails


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """x^0, x^1, ..., x^top stacked, each power one product from the last."""
    out = np.empty((top + 1, *x.shape))
    out[0] = 1.0
    out[1:] = x
    _in_order(np.multiply, out)
    return out


@functools.lru_cache(maxsize=64)
def _tail_weights(h: float) -> np.ndarray:
    """W_m(h) of the three tails, shape (len(_MONOMIALS), 3, 1, 1); the dG/dw ones carry 1/h."""
    h2 = h * h
    out = _WEIGHT_COEFFS[-1].copy()
    for coeffs in _WEIGHT_COEFFS[-2::-1]:
        out *= h2
        out += coeffs
    out[:, 1] /= h
    out.flags.writeable = False
    return out


def _em_remainder(h: float, w: float) -> float:
    """|B_10| / 10! h^9 |G0^(9)(w)| / G0(w), with G0(w) = 1 / (2 sinh(w / 2)).

    The first Bernoulli correction that _em_sums leaves out of the sum of
    G0(w + k h) over k >= 0, relative to its first term. G0 = sum_n
    e^{-(n + 1/2) w} is completely monotone, so the remainder lies between
    0 and this correction (DLMF 2.10(i)). With a = h / 2 it is |B_10| / 10!
    a coth(w / 2) sum_j Q_j (a csch(w / 2))^(2j) a^(8 - 2j): positive terms
    that cannot cancel, bounded by powers of 1/K where w >= K h is small.
    """
    a = 0.5 * h
    em = -math.expm1(-w)
    a_coth = a * (1.0 + math.exp(-w)) / em
    t = (2.0 * a * math.exp(-0.5 * w) / em) ** 2
    acc = 0.0
    for j in reversed(range(len(_REMAINDER_Q))):
        acc = acc * t + _REMAINDER_Q[j] * a ** (8 - 2 * j)
    return _B_NEXT / math.factorial(10) * a_coth * acc
