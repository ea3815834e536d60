"""Eigenvalues of the rescaled capacitance matrix and resonant frequencies.

The two subwavelength resonances satisfy omega_n = sqrt(delta v_b^2
lambda_n) at leading order in the density contrast delta, where
lambda_1 <= lambda_2 are the eigenvalues of the volume-rescaled
capacitance matrix. The small eigenvalue stays O(1) as the gap closes
while the large one grows like |log eps|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .capacitance import RescaledCapacitance, sigma_terms
from .geometry import ResonatorPair, frame_from_pair
from .specfun import GAMMA_EULER, digamma_series_tail

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class Material:
    """Densities and bulk moduli of the background and the resonator fill.

    delta = rho_b / rho is the contrast driving the subwavelength
    resonance; v and v_b are the wave speeds. A contrast outside (0, 1)
    is allowed but warned about since the asymptotics assume delta -> 0.
    """

    rho: float
    rho_b: float
    kappa: float
    kappa_b: float

    def __post_init__(self) -> None:
        for name in ("rho", "rho_b", "kappa", "kappa_b"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {getattr(self, name)}"
                )
        if not self.delta < 1.0:
            warnings.warn(
                f"density contrast delta={self.delta:g} is not small; the "
                "leading-order resonance formulas assume delta << 1",
                stacklevel=2,
            )

    @property
    def v(self) -> float:
        return math.sqrt(self.kappa / self.rho)

    @property
    def v_b(self) -> float:
        return math.sqrt(self.kappa_b / self.rho_b)

    @property
    def delta(self) -> float:
        return self.rho_b / self.rho

    @property
    def tau(self) -> float:
        return self.v_b / self.v


@dataclass(frozen=True)
class SpectralPair:
    """Eigenvalues lambda1 <= lambda2 and eigenvector ratios d_n.

    The eigenvector for lambda_n is (d_n, 1) with
    d_n = (lambda_n - ct22) / ct21; for identical spheres d1 = 1 and
    d2 = -1 exactly.
    """

    lambda1: float
    lambda2: float
    d1: float
    d2: float


@dataclass(frozen=True)
class ResonantFrequencies:
    omega1: float
    omega2: float


def eigen(ct: RescaledCapacitance) -> SpectralPair:
    """Closed-form eigen-decomposition of the 2x2 rescaled matrix.

    The larger root is computed from the quadratic formula and the
    smaller one from the determinant, because lambda1 is a near
    cancellation of two |log eps|-sized terms. The symmetric case takes
    an exact branch so that downstream structural zeros hold to rounding.
    """
    a, b, c, d = ct.ct11, ct.ct12, ct.ct21, ct.ct22
    if not (b < 0.0 and c < 0.0):
        raise ValueError("off-diagonal rescaled coefficients must be negative")
    if a == d and b == c:
        lam1, lam2 = a + b, a - b
        d1, d2 = 1.0, -1.0
    else:
        tr = a + d
        disc = (a - d) ** 2 + 4.0 * b * c
        if disc < 0.0:
            raise ValueError(
                "negative eigenvalue discriminant; rescaled matrix is inconsistent"
            )
        lam2 = 0.5 * (tr + math.sqrt(disc))
        det = a * d - b * c
        lam1 = det / lam2
        d1 = (lam1 - d) / c
        d2 = (lam2 - d) / c
    if not lam1 > 0.0:
        raise ValueError(f"smallest eigenvalue must be positive, got {lam1}")
    return SpectralPair(lambda1=lam1, lambda2=lam2, d1=d1, d2=d2)


def resonant_frequencies(sp: SpectralPair, m: Material) -> ResonantFrequencies:
    """omega_n = sqrt(delta v_b^2 lambda_n), the leading-order real parts."""
    if not (sp.lambda1 > 0.0 and sp.lambda2 > 0.0):
        raise ValueError("eigenvalues must be positive to take square roots")
    scale = m.delta * m.v_b**2
    return ResonantFrequencies(
        omega1=math.sqrt(scale * sp.lambda1),
        omega2=math.sqrt(scale * sp.lambda2),
    )


def resonance_asymptotic(
    pair,
    m: Material,
    *,
    log_eps: float | None = None,
) -> ResonantFrequencies:
    """Closed-form leading-order frequencies for a small gap.

    pair is a ResonatorPair, whose epsilon is the gap, or a bare
    (r1, r2) tuple with log_eps, the natural log of the gap, for regimes
    where the gap underflows double precision; log_eps, when given,
    overrides pair.epsilon.

    omega2 comes from the explicit blow-up formula
        omega2^2 = delta (3 v_b^2 / 2)(1/r1^3 + 1/r2^3)
                   (r1 r2/(r1+r2)) log(2 r1 r2 / ((r1+r2) eps)),
    with the identical-sphere special case keeping its extra additive
    constant 2 gamma + 2 log 2 inside the logarithm. omega1 comes from
    the gap-stable eigenvalue
        lambda1 = (r1^3 sigma1 + r2^3 sigma2) / (r1^3 + r2^3),
    whose touching limit, for a bare pair, takes the tails at
    z_i = r_i / (r1 + r2) as digamma_series_tail(r_i, r_j).
    """
    if isinstance(pair, ResonatorPair):
        r1, r2 = pair.r1, pair.r2
    else:
        r1, r2 = pair
        if not (r1 > 0.0 and r2 > 0.0):
            raise ValueError("radii must be positive")
        if log_eps is None:
            raise ValueError("a bare (r1, r2) pair needs log_eps")

    # lambda1 from the sigma terms; with the pair's own gap use the true
    # frame, otherwise the touching-limit values z_i -> r_i/(r1+r2) and
    # alpha/s -> r1 r2/(r1+r2)
    if log_eps is None:
        st = sigma_terms(frame_from_pair(pair), pair)
        lam1 = (r1**3 * st.sigma1 + r2**3 * st.sigma2) / (r1**3 + r2**3)
        log_eps = math.log(pair.epsilon)
    else:
        alpha_over_s = r1 * r2 / (r1 + r2)
        t1 = digamma_series_tail(r1, r2)
        t2 = digamma_series_tail(r2, r1)
        lam1 = 3.0 * alpha_over_s * (t1 + t2) / (r1**3 + r2**3)

    if r1 == r2:
        r = r1
        bracket = math.log(r) - log_eps + 2.0 * GAMMA_EULER + 2.0 * _LOG2
        omega2_sq = m.delta * 1.5 * m.v_b**2 / r**2 * bracket
    else:
        bracket = math.log(2.0 * r1 * r2 / (r1 + r2)) - log_eps
        omega2_sq = (
            m.delta
            * 1.5
            * m.v_b**2
            * (1.0 / r1**3 + 1.0 / r2**3)
            * (r1 * r2 / (r1 + r2))
            * bracket
        )
    if bracket <= 0.0:
        raise ValueError(
            "the gap is so large that the asymptotic log factor is non-positive"
        )
    if bracket < 2.3:
        warnings.warn(
            "gap is large for the close-to-touching asymptotics; the log factor "
            f"is only {bracket:.2f}",
            stacklevel=2,
        )
    return ResonantFrequencies(
        omega1=math.sqrt(m.delta * m.v_b**2 * lam1),
        omega2=math.sqrt(omega2_sq),
    )
