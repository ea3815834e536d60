"""Capacitance matrix of the sphere pair: exact sums and asymptotics.

Conventions follow the boundary-charge definition with the 4*pi factor
kept inside, so an isolated sphere of radius r has capacitance 4*pi*r.
The exact coefficients are the bispherical series

    C11 = 8 pi alpha sum_n exp((2n+1) xi2) / (exp((2n+1)(xi1+xi2)) - 1)
    C12 = C21 = -8 pi alpha sum_n 1 / (exp((2n+1)(xi1+xi2)) - 1)

over n >= 0, with C22 obtained by swapping xi1 and xi2. They need
O(1/sqrt(eps)) terms, so they are summed over images instead: expanding
1 / (1 - e^{-(2n+1) s}) in k gives, with s = xi1 + xi2 and h = 2 s,
C11 = 8 pi alpha sum_{k>=0} G0(2 xi1 + k h) and C12 = -8 pi alpha
sum_{k>=1} G0(k h), where G0(w) = 1 / (2 sinh(w/2)) is the image kernel
of `specfun` at theta = 0, summed with the Euler-Maclaurin tail that
`fields` uses too, at a cost that does not depend on the gap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TruncationCapError
from .geometry import BisphericalFrame, ResonatorPair, frame_from_pair
from .specfun import _HEAD, GAMMA_EULER, _em_remainder, _image_pass, digamma_series_tail

DEFAULT_TERM_CAP = 100_000_000


@dataclass(frozen=True)
class CapacitanceMatrix:
    """Capacitance coefficients plus truncation metadata.

    c12 and c21 are the same float when produced by the series route;
    the image-charge oracle yields two independently iterated values
    that agree only to rounding, so equality is not enforced here.
    """

    c11: float
    c12: float
    c21: float
    c22: float
    n_terms: int
    tail_bound: float

    def __post_init__(self) -> None:
        if not (self.c11 > 0.0 and self.c22 > 0.0):
            raise ValueError("diagonal capacitance coefficients must be positive")
        if not (self.c12 < 0.0 and self.c21 < 0.0):
            raise ValueError("off-diagonal capacitance coefficients must be negative")
        if not (self.c11 + self.c12 > 0.0 and self.c22 + self.c21 > 0.0):
            raise ValueError("capacitance matrix must be diagonally dominant")


@dataclass(frozen=True)
class RescaledCapacitance:
    """C_ij divided by the volume of sphere i.

    The volumes are kept so that flux-normalised quantities (the
    singular-part weight of the mode decomposition) can be recovered
    without re-deriving the geometry.
    """

    ct11: float
    ct12: float
    ct21: float
    ct22: float
    vol1: float
    vol2: float


@dataclass(frozen=True)
class SigmaTerms:
    """Digamma-series correction terms sigma_i, positive and O(1) as eps -> 0."""

    sigma1: float
    sigma2: float


def _series_terms(alpha: float, xi1: float, xi2: float, tol: float, cap: int) -> int:
    """Terms (at least one) that the n-series' certified geometric tail needs for tol.

    Every term left out of every series is below the n-th term of a
    geometric series with ratio exp(-2a), a = min(xi1, xi2), and the
    1/(1 - e^{-s}) factor bounds the denominators. Above cap, raises
    TruncationCapError.
    """
    a = min(xi1, xi2)
    pref = 8.0 * math.pi * alpha
    tail0 = pref * math.exp(-a) / (-math.expm1(-(xi1 + xi2)) * -math.expm1(-2.0 * a))
    n_needed = 1
    if tail0 > tol:
        n_needed = int(math.ceil(math.log(tail0 / tol) / (2.0 * a))) + 1
    if n_needed > cap:
        raise TruncationCapError(
            f"capacitance series needs ~{n_needed} terms for tol={tol:g}, "
            f"cap is {cap}"
        )
    return n_needed


def _image_sums(xi1: float, xi2: float) -> list[float]:
    """S11, S22 and S12: the sums over k >= 0 of G0(w + k h), w = 2 xi1, 2 xi2 and h.

    _HEAD terms from the kernel, then the integral of G0 from the tail
    start W, -log tanh(W / 4) = log1p(2 q / (1 - q)) with q = e^{-W/2},
    divided by h, and the Bernoulli corrections; added exactly rounded.
    The kernel and its tail form the G row alone: the derivative rows
    would overflow for w below ~1e-154.
    """
    h = 2.0 * (xi1 + xi2)
    w = np.array([[2.0 * xi1], [2.0 * xi2], [h]])
    start = w + _HEAD * h
    # one kernel pass: the head images come in one block, which add keeps
    empty = np.empty((0, *w.shape))
    head, tails, _ = _image_pass(
        w, 0.0, 0.0, h, _HEAD, slice(0, 1), empty, lambda _, block: block, None
    )
    head, tails = head[:, 0, :, 0], tails[0, :, 0]
    sums = []
    for terms, t, tail in zip(head.T.tolist(), start[:, 0].tolist(), tails.tolist()):
        integral = math.log1p(2.0 * math.exp(-0.5 * t) / -math.expm1(-0.5 * t))
        sums.append(math.fsum([*terms, integral / h, tail]))
    return sums


def capacitance_exact(
    frame: BisphericalFrame, tol: float = 1e-12, cap: int = DEFAULT_TERM_CAP
) -> CapacitanceMatrix:
    """Exact capacitance matrix; a tol below its certified remainder raises ValueError.

    n_terms counts the n-series terms that tol implies (above cap,
    TruncationCapError); the image sums do not depend on it. tail_bound,
    8 pi alpha times the first omitted Bernoulli correction at the nearest
    tail start, bounds the remainder of every entry (specfun._em_remainder).
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    xi1, xi2 = frame.xi1, frame.xi2
    n_terms = _series_terms(frame.alpha, xi1, xi2, tol, cap)
    pref = 8.0 * math.pi * frame.alpha
    h = 2.0 * (xi1 + xi2)
    w = 2.0 * min(xi1, xi2) + _HEAD * h
    g0 = math.exp(-0.5 * w) / -math.expm1(-w)
    tail_bound = pref * g0 * _em_remainder(h, w)
    if tail_bound > tol:
        raise ValueError(
            f"tolerance {tol:g} is below the capacitance sums' remainder {tail_bound:.1e}"
        )
    s11, s22, s12 = _image_sums(xi1, xi2)
    c12 = -pref * s12
    return CapacitanceMatrix(
        c11=pref * s11,
        c12=c12,
        c21=c12,
        c22=pref * s22,
        n_terms=n_terms,
        tail_bound=tail_bound,
    )


def rescale(c: CapacitanceMatrix, pair: ResonatorPair) -> RescaledCapacitance:
    """Divide row i of C by the volume of sphere i."""
    v1, v2 = pair.volume1, pair.volume2
    return RescaledCapacitance(
        ct11=c.c11 / v1,
        ct12=c.c12 / v1,
        ct21=c.c21 / v2,
        ct22=c.c22 / v2,
        vol1=v1,
        vol2=v2,
    )


def _tails(frame: BisphericalFrame) -> tuple[float, float]:
    """The digamma tails of rows 1 and 2: digamma_series_tail(xi2, xi1) and (xi1, xi2)."""
    return (
        digamma_series_tail(frame.xi2, frame.xi1),
        digamma_series_tail(frame.xi1, frame.xi2),
    )


def _sigma(frame: BisphericalFrame, pair: ResonatorPair, tails) -> SigmaTerms:
    """sigma_terms from the tails of _tails."""
    t1, t2 = tails
    factor = 3.0 * frame.alpha / (frame.xi1 + frame.xi2)
    return SigmaTerms(sigma1=factor / pair.r1**3 * t1, sigma2=factor / pair.r2**3 * t2)


def _asymptotic(
    frame: BisphericalFrame, pair: ResonatorPair, tails=None
) -> RescaledCapacitance:
    """capacitance_asymptotic_rescaled at a built frame, from the tails of _tails.

    The gap is checked first, and the tails are formed only when not
    given. The warning points at the line that called this helper's
    caller.
    """
    s = frame.xi1 + frame.xi2
    if s >= 2.0:
        raise ValueError(
            f"asymptotic form needs xi1 + xi2 < 2, got {s:.3f}; the gap is too large"
        )
    if s > 0.7:
        warnings.warn(
            f"gap eps={pair.epsilon:g} gives xi1+xi2={s:.2f}; the leading-order "
            "capacitance formulas are crude this far from touching",
            stacklevel=3,
        )
    t1, t2 = _tails(frame) if tails is None else tails
    f1 = 3.0 * frame.alpha / (pair.r1**3 * s)
    f2 = 3.0 * frame.alpha / (pair.r2**3 * s)
    off = math.log(2.0 / s) + GAMMA_EULER  # log(2/s) - psi(1)
    return RescaledCapacitance(
        ct11=f1 * (off + t1),
        ct12=-f1 * off,
        ct21=-f2 * off,
        ct22=f2 * (off + t2),
        vol1=pair.volume1,
        vol2=pair.volume2,
    )


def sigma_terms(frame: BisphericalFrame, pair: ResonatorPair) -> SigmaTerms:
    """Correction terms sigma_i = 3 alpha / (r_i^3 s) * sum z_i/(n(n-z_i)).

    Here s = xi1 + xi2 and z_i = 1 - xi_i / s = xi_j / s, which the tail
    takes as the pair (xi_j, xi_i), so 1 - z_i is never a difference. The
    rescaled row sum ct11 + ct12 equals sigma1 up to O(sqrt(eps)), which
    is what makes these the O(1) part of the small eigenvalue near
    touching.
    """
    return _sigma(frame, pair, _tails(frame))


def capacitance_asymptotic_rescaled(pair: ResonatorPair) -> RescaledCapacitance:
    """Leading-order rescaled coefficients for a small gap.

    ct11 = f1 (log(2/s) - psi(xi1/s)) with f1 = 3 alpha / (r1^3 s), and
    the off-diagonal uses psi(1) = -gamma. With psi(xi1/s) = -gamma -
    digamma_series_tail(xi2, xi1) this is ct11 = f1 (log(2/s) + gamma)
    + sigma1 and ct12 = -f1 (log(2/s) + gamma), so each row sums to its
    sigma term by construction. The remainder against the exact
    coefficients is O(sqrt(eps)); a warning is emitted once the gap is
    clearly outside the asymptotic regime and the evaluation refuses to
    run for s >= 2 where log(2/s) changes sign.
    """
    return _asymptotic(frame_from_pair(pair), pair)
