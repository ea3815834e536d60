"""Leading-order scattering of an incident wave by the resonator pair.

Near the subwavelength resonances the scattered field is a rank-two
modal expansion: with I_i = -u_in(0) (C_i1 + C_i2),

    u = u_in - u_in(0) (V_1 + V_2) + a u_1 + b u_2

    a =  delta v_b^2 / (|D| (omega^2 - omega_1^2)) * (I_1 + I_2)
    b = -delta v_b^2 / (|D| (omega^2 - omega_2^2)) * (I_1 - (|D_1|/|D_2|) I_2)

where |D| = |D_1| + |D_2|. For equal spheres the numerator of b vanishes
identically: the antisymmetric mode cannot be excited at leading order
by a wave that is constant across the pair, which is the screening
effect probed by the tests.

This module gives the amplitudes a and b. The field u is the caller's
sum: V_1 and V_2 at a point come from one `fields.potential_field` call,
and u_n = d_n V_1 + V_2 with the eigenvector ratios d_n of
`spectra.eigen`.

The amplitudes have one implementation, _amplitudes, over a grid of
frequencies: modal_coefficients is its grid of one omega and
response_curve takes the moduli of its rows. Each call checks the grid
in order, raises at its first bad omega, and issues at most one
warning for the omegas up to it that lie outside the subwavelength
regime.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .capacitance import CapacitanceMatrix, rescale
from .errors import PoleProximityError
from .geometry import ResonatorPair
from .spectra import Material, eigen, resonant_frequencies

# omega^2 within this much of omega_n^2 (relative) is a resonance: a and b raise there
_POLE_GUARD = 1e-12


@dataclass(frozen=True)
class IncidentWave:
    """Plane wave exp(i k direction.x) of unit amplitude, k = omega / material.v.

    The amplitudes need only omega: at leading order the wave enters
    through u_in(0) = 1.
    """

    omega: float
    direction: np.ndarray

    @classmethod
    def plane_wave(cls, omega: float, direction, material: Material) -> "IncidentWave":
        _check_frequency(omega)
        d = np.asarray(direction, dtype=float)
        if d.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        return cls(omega=omega, direction=d / norm)


@dataclass(frozen=True)
class ModalCoefficients:
    """Excitation amplitudes of the two modes at one driving frequency."""

    a: complex
    b: complex
    b_numerator: complex
    omega1: float
    omega2: float


def _check_frequency(omega: float) -> None:
    if not 0.0 < omega < math.inf:
        raise ValueError(f"frequency must be positive and finite, got {omega}")


def _square(omega: float) -> float:
    """omega**2 (Python's **, libm pow); an overflow names the omega."""
    try:
        return omega**2
    except OverflowError:
        raise OverflowError(
            f"omega = {omega:g}: omega^2 overflows a double"
        ) from None


def _amplitudes(
    cmat: CapacitanceMatrix, pair: ResonatorPair, material: Material, omegas: np.ndarray
):
    """a = num_a / den1 and b = num_b / den2 over a grid of frequencies.

    Returns (omega1, omega2, num_a, num_b, b_num, den1, den2) for a plane
    wave of unit amplitude, u_in(0) = 1; b_num is b's I-part. The
    spectrum and the numerators are formed once, and the denominators
    omega^2 - omega_n^2 as arrays over the grid. The grid stops at its
    first omega that is not positive and finite (ValueError), whose
    square overflows (OverflowError) or whose square lies within
    _POLE_GUARD (relative) of omega_n^2 (PoleProximityError). Before it
    raises or returns, one UserWarning names how many omegas up to the
    stop have k * max radius > 0.5, and the largest such value.
    """
    freqs = resonant_frequencies(eigen(rescale(cmat, pair)), material)
    om1, om2 = freqs.omega1, freqs.omega2
    omega = omegas.tolist()
    # Python's ** (libm pow), the square these amplitudes have always
    # used; omegas * omegas need not carry the same last bit
    try:
        w2 = np.array([w**2 for w in omega])
    except OverflowError:
        with np.errstate(over="ignore"):
            w2 = np.square(omegas)  # inf where omega^2 overflows, a stop below
    den1 = w2 - om1**2
    den2 = w2 - om2**2
    stops = (
        ~(omegas > 0.0)
        | ~np.isfinite(w2)
        | (np.abs(den1) < _POLE_GUARD * om1**2)
        | (np.abs(den2) < _POLE_GUARD * om2**2)
    )
    end = int(np.argmax(stops)) if stops.any() else len(omega)
    krad = omegas[: end + 1] / material.v * max(pair.r1, pair.r2)
    # an infinite omega is refused before its k * max radius counts
    over = krad[(krad > 0.5) & (krad < math.inf)]
    if over.size:
        warnings.warn(
            f"k * max radius > 0.5 at {over.size} omega, up to {over.max():.3g}; "
            "the subwavelength expansion degrades well before this",
            stacklevel=3,
        )
    if end < len(omega):
        _check_frequency(omega[end])
        _square(omega[end])
        if abs(den1[end]) < _POLE_GUARD * om1**2:
            raise PoleProximityError(
                f"omega within guard band of the first resonance ({om1:.6g})"
            )
        raise PoleProximityError(
            f"omega within guard band of the second resonance ({om2:.6g})"
        )
    u0 = 1.0 + 0.0j
    i1 = -u0 * (cmat.c11 + cmat.c12)
    i2 = -u0 * (cmat.c21 + cmat.c22)
    vol1, vol2 = pair.volume1, pair.volume2
    pref = material.delta * material.v_b**2 / (vol1 + vol2)
    b_num = i1 - (vol1 / vol2) * i2
    return om1, om2, pref * (i1 + i2), -pref * b_num, b_num, den1, den2


def modal_coefficients(
    cmat: CapacitanceMatrix,
    pair: ResonatorPair,
    material: Material,
    wave: IncidentWave,
) -> ModalCoefficients:
    """Modal amplitudes a, b for one incident plane wave.

    Raises PoleProximityError when omega^2 sits within 1e-12 (relative,
    _POLE_GUARD) of either omega_n^2; the leading-order amplitudes have a
    genuine pole there and the expansion stops being meaningful. Warns
    when k * max radius > 0.5.
    """
    om1, om2, num_a, num_b, b_num, den1, den2 = _amplitudes(
        cmat, pair, material, np.array([wave.omega], dtype=float)
    )
    return ModalCoefficients(
        a=num_a / float(den1[0]),
        b=num_b / float(den2[0]),
        b_numerator=b_num,
        omega1=om1,
        omega2=om2,
    )


def response_curve(
    cmat: CapacitanceMatrix,
    pair: ResonatorPair,
    material: Material,
    omega_grid,
    direction,
) -> list[tuple[float, float, float]]:
    """(omega, |a|, |b|) rows over a frequency grid, in one pass over the grid.

    Each row equals abs() of modal_coefficients' a and b for a plane
    wave at that omega, bit for bit, and a grid raises where the first
    of its omegas would raise in modal_coefficients. The direction and
    the first omega are checked first. One call issues at most one
    warning, for the omegas up to the first that raises whose
    k * max radius exceeds 0.5.
    """
    omegas = np.fromiter(omega_grid, dtype=float)
    if omegas.size == 0:
        return []
    IncidentWave.plane_wave(float(omegas[0]), direction, material)
    _, _, num_a, num_b, _, den1, den2 = _amplitudes(cmat, pair, material, omegas)
    # abs(num / den) for a complex num and a float den is
    # hypot(num.real / den, num.imag / den), bit for bit; np.abs of the
    # complex quotient is not
    abs_a = np.hypot(num_a.real / den1, num_a.imag / den1)
    abs_b = np.hypot(num_b.real / den2, num_b.imag / den2)
    return list(zip(omegas.tolist(), abs_a.tolist(), abs_b.tolist()))
