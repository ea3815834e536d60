"""Capacitance matrix of the sphere pair: exact series and asymptotics.

Conventions follow the boundary-charge definition with the 4*pi factor
kept inside, so an isolated sphere of radius r has capacitance 4*pi*r.
The exact coefficients are

    C11 = 8 pi alpha sum_n exp((2n+1) xi2) / (exp((2n+1)(xi1+xi2)) - 1)
    C12 = C21 = -8 pi alpha sum_n 1 / (exp((2n+1)(xi1+xi2)) - 1)

summed over n >= 0, with C22 obtained by swapping xi1 and xi2. All
series are evaluated in the overflow-safe form with only negative
exponents, truncated with a certified geometric tail bound.

A term costs multiplications, not exponentials. With x = 2n + 1 = x0 + 2j,
exp(-x xi) = exp(-x0 xi) exp(-2j xi), so the factors exp(-2j xi1),
exp(-2j xi2), exp(-2j s) and expm1(-2j s) are tabulated once per call
for j < _CHUNK, and each chunk of _CHUNK terms rescales them by one
scalar exp(-x0 xi).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TruncationCapError
from .geometry import BisphericalFrame, ResonatorPair, frame_from_pair
from .specfun import GAMMA_EULER, digamma, digamma_series_tail

# terms per chunk; a call holds seven float arrays of this length (896 KiB)
_CHUNK = 1 << 14
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


def _series_sums(
    alpha: float, xi1: float, xi2: float, tol: float, cap: int
) -> tuple[float, float, float, int, float]:
    """Shared series evaluation; returns (S11, S22, S12, n_terms, tail_bound).

    Terms are exp(-x xi_i) / (1 - exp(-x s)) with x = 2n + 1, so no
    intermediate can overflow. The terms of a chunk starting at x0 are
    exp(-x0 xi_i) * exp(-2j xi_i) * r_j with j = 0, 1, ..., where
    1/r_j = 1 - exp(-(x0 + 2j) s) = -(ea + em_j (1 + ea)), ea = expm1(-x0 s)
    and em_j = expm1(-2j s): expm1(a + b) = expm1(a) + expm1(b)(1 + expm1(a))
    adds two negative numbers, so it never cancels, and one formula serves
    every chunk. The exp(-2j xi) and expm1(-2j s) tables are built once per
    call; a chunk costs one reciprocal and three multiply-and-sums over
    them, and one scalar exp(-x0 xi) per series. Table entries that
    underflow belong to terms that underflow too. Chunks are summed
    pairwise by numpy (multiply, then sum; not a BLAS dot, whose threads
    cost more than the sum on a short vector) and the chunk totals are
    combined with math.fsum.
    """
    s = xi1 + xi2
    pref = 8.0 * math.pi * alpha
    a = min(xi1, xi2)
    denom0 = -math.expm1(-s)

    def tail(n_next: int) -> float:
        # every remaining term of every series is below the n-th term of a
        # geometric series with ratio exp(-2a); the 1/(1-e^{-s}) factor
        # bounds the denominators
        top = math.exp(-(2 * n_next + 1) * a)
        return pref * top / (denom0 * -math.expm1(-2.0 * a))

    # smallest n >= 1 with certified tail below tol: a sum of no terms
    # would be no capacitance at all, however loose tol is
    n_needed = 1
    if tail(0) > tol:
        n_needed = int(math.ceil((math.log(tail(0) / tol)) / (2.0 * a))) + 1
    if n_needed > cap:
        raise TruncationCapError(
            f"capacitance series needs ~{n_needed} terms for tol={tol:g}, "
            f"cap is {cap}"
        )

    j2 = -2.0 * np.arange(min(_CHUNK, n_needed), dtype=float)
    rates = (xi1, xi2, s)
    tables = [np.exp(j2 * rate) for rate in rates]
    em = np.expm1(j2 * s)
    r = np.empty_like(j2)
    prod = np.empty_like(j2)
    sums: tuple[list[float], ...] = ([], [], [])
    for start in range(0, n_needed, _CHUNK):
        m = min(_CHUNK, n_needed - start)
        x0 = 2.0 * start + 1.0
        ea = math.expm1(-x0 * s)
        rm = r[:m]
        np.multiply(em[:m], -(1.0 + ea), out=rm)
        rm -= ea
        np.divide(1.0, rm, out=rm)
        for rate, table, total in zip(rates, tables, sums):
            np.multiply(table[:m], rm, out=prod[:m])
            total.append(math.exp(-x0 * rate) * float(prod[:m].sum()))
    s11, s22, s12 = (math.fsum(total) for total in sums)
    return s11, s22, s12, n_needed, tail(n_needed)


def capacitance_exact(
    frame: BisphericalFrame, tol: float = 1e-12, cap: int = DEFAULT_TERM_CAP
) -> CapacitanceMatrix:
    """Exact capacitance matrix to absolute truncation tolerance tol."""
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    s11, s22, s12, n_terms, tail_bound = _series_sums(
        frame.alpha, frame.xi1, frame.xi2, tol, cap
    )
    pref = 8.0 * math.pi * frame.alpha
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


def sigma_terms(frame: BisphericalFrame, pair: ResonatorPair) -> SigmaTerms:
    """Correction terms sigma_i = 3 alpha / (r_i^3 s) * sum z_i/(n(n-z_i)).

    Here s = xi1 + xi2 and z_i = 1 - xi_i / s. The rescaled row sum
    ct11 + ct12 equals sigma1 up to O(sqrt(eps)), which is what makes
    these the O(1) part of the small eigenvalue near touching.
    """
    s = frame.xi1 + frame.xi2
    z1 = 1.0 - frame.xi1 / s
    z2 = 1.0 - frame.xi2 / s
    factor = 3.0 * frame.alpha / s
    return SigmaTerms(
        sigma1=factor / pair.r1**3 * digamma_series_tail(z1),
        sigma2=factor / pair.r2**3 * digamma_series_tail(z2),
    )


def capacitance_asymptotic_rescaled(pair: ResonatorPair) -> RescaledCapacitance:
    """Leading-order rescaled coefficients for a small gap.

    ct11 = 3 alpha / (r1^3 s) * (log(2/s) - psi(xi1/s)), the off-diagonal
    uses psi(1) = -gamma. The remainder is O(sqrt(eps)); a warning is
    emitted once the gap is clearly outside the asymptotic regime and the
    evaluation refuses to run for s >= 2 where log(2/s) changes sign.
    """
    frame = frame_from_pair(pair)
    s = frame.xi1 + frame.xi2
    if s >= 2.0:
        raise ValueError(
            f"asymptotic form needs xi1 + xi2 < 2, got {s:.3f}; the gap is too large"
        )
    if s > 0.7:
        warnings.warn(
            f"gap eps={pair.epsilon:g} gives xi1+xi2={s:.2f}; the leading-order "
            "capacitance formulas are crude this far from touching",
            stacklevel=2,
        )
    log2s = math.log(2.0 / s)
    f1 = 3.0 * frame.alpha / (pair.r1**3 * s)
    f2 = 3.0 * frame.alpha / (pair.r2**3 * s)
    off = log2s + GAMMA_EULER  # log(2/s) - psi(1)
    return RescaledCapacitance(
        ct11=f1 * (log2s - digamma(frame.xi1 / s)),
        ct12=-f1 * off,
        ct21=-f2 * off,
        ct22=f2 * (log2s - digamma(frame.xi2 / s)),
        vol1=pair.volume1,
        vol2=pair.volume2,
    )
