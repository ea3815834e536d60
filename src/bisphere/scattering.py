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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .capacitance import CapacitanceMatrix, rescale
from .errors import PoleProximityError
from .fields import PotentialSeries, potential_field
from .geometry import BisphericalPoint, ResonatorPair, to_bispherical
from .spectra import Material, SpectralPair, eigen, resonant_frequencies

# omega^2 within this much of omega_n^2 (relative) is a resonance: a and b raise there
_POLE_GUARD = 1e-12


@dataclass(frozen=True)
class IncidentWave:
    """Plane wave amplitude * exp(i k direction.x) in the background medium."""

    omega: float
    direction: np.ndarray
    amplitude: complex
    k: float

    @classmethod
    def plane_wave(
        cls,
        omega: float,
        direction,
        material: Material,
        amplitude: complex = 1.0,
    ) -> "IncidentWave":
        _check_frequency(omega)
        d = np.asarray(direction, dtype=float)
        if d.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        return cls(
            omega=omega,
            direction=d / norm,
            amplitude=complex(amplitude),
            k=omega / material.v,
        )

    def value(self, x) -> complex:
        x = np.asarray(x, dtype=float)
        return self.amplitude * complex(
            np.exp(1j * self.k * float(self.direction @ x))
        )


@dataclass(frozen=True)
class ModalCoefficients:
    """Excitation amplitudes of the two modes at one driving frequency."""

    a: complex
    b: complex
    b_numerator: complex
    omega1: float
    omega2: float


def _check_frequency(omega: float) -> None:
    if not omega > 0.0:
        raise ValueError(f"frequency must be positive, got {omega}")


def _square(omega: float) -> float:
    """omega**2 (Python's **, libm pow); an overflow names the omega."""
    try:
        return omega**2
    except OverflowError:
        raise OverflowError(
            f"omega = {omega:g}: omega^2 overflows a double"
        ) from None


def _frequencies(
    cmat: CapacitanceMatrix, pair: ResonatorPair, material: Material
) -> tuple[float, float]:
    freqs = resonant_frequencies(eigen(rescale(cmat, pair)), material)
    return freqs.omega1, freqs.omega2


def _warn_outside_regime(krad: float, stacklevel: int) -> None:
    warnings.warn(
        f"k * max radius = {krad:.3g}; the subwavelength expansion "
        "degrades well before this",
        stacklevel=stacklevel + 1,
    )


def _check_poles(den1: float, den2: float, om1: float, om2: float) -> None:
    if abs(den1) < _POLE_GUARD * om1**2:
        raise PoleProximityError(
            f"omega within guard band of the first resonance ({om1:.6g})"
        )
    if abs(den2) < _POLE_GUARD * om2**2:
        raise PoleProximityError(
            f"omega within guard band of the second resonance ({om2:.6g})"
        )


def _numerators(
    cmat: CapacitanceMatrix, pair: ResonatorPair, material: Material, u0: complex
) -> tuple[complex, complex, complex]:
    """Numerators of a and b, a = num_a / den1 and b = num_b / den2, and b's I-part."""
    i1 = -u0 * (cmat.c11 + cmat.c12)
    i2 = -u0 * (cmat.c21 + cmat.c22)
    vol1, vol2 = pair.volume1, pair.volume2
    vol = vol1 + vol2
    pref = material.delta * material.v_b**2 / vol
    b_num = i1 - (vol1 / vol2) * i2
    return pref * (i1 + i2), -pref * b_num, b_num


def modal_coefficients(
    cmat: CapacitanceMatrix,
    pair: ResonatorPair,
    material: Material,
    wave: IncidentWave,
) -> ModalCoefficients:
    """Modal amplitudes a, b for one incident wave.

    Raises PoleProximityError when omega^2 sits within 1e-12 (relative,
    _POLE_GUARD) of either omega_n^2; the leading-order amplitudes have a
    genuine pole there and the expansion stops being meaningful.
    """
    om1, om2 = _frequencies(cmat, pair, material)
    krad = wave.k * max(pair.r1, pair.r2)
    if krad > 0.5:
        _warn_outside_regime(krad, stacklevel=2)
    w2 = _square(wave.omega)
    den1 = w2 - om1**2
    den2 = w2 - om2**2
    _check_poles(den1, den2, om1, om2)
    num_a, num_b, b_num = _numerators(cmat, pair, material, wave.value(np.zeros(3)))
    return ModalCoefficients(
        a=num_a / den1,
        b=num_b / den2,
        b_numerator=b_num,
        omega1=om1,
        omega2=om2,
    )


def eval_scattered(
    mc: ModalCoefficients,
    ps: PotentialSeries,
    sp: SpectralPair,
    wave: IncidentWave,
    x,
) -> complex:
    """Total field u at an exterior Cartesian point.

    u_in is evaluated with its true phase; the correction terms are the
    static potentials, which is the leading-order picture.
    """
    x = np.asarray(x, dtype=float)
    p = to_bispherical(ps.frame, x)
    v1, v2 = (float(v) for v in potential_field(ps, [p.xi], [p.theta]).v[:, 0])
    u1 = sp.d1 * v1 + v2
    u2 = sp.d2 * v1 + v2
    u0 = wave.value(np.zeros(3))
    return wave.value(x) - u0 * (v1 + v2) + mc.a * u1 + mc.b * u2


def response_curve(
    cmat: CapacitanceMatrix,
    pair: ResonatorPair,
    material: Material,
    omega_grid,
    direction,
) -> list[tuple[float, float, float]]:
    """(omega, |a|, |b|) rows over a frequency grid, in one pass over the grid.

    Each row equals abs() of modal_coefficients' a and b for a plane
    wave of unit amplitude at that omega, bit for bit. The spectrum and
    the numerators of a and b are formed once; only the denominators
    omega^2 - omega_n^2 vary, and they are evaluated as arrays over the
    whole grid. Validation keeps the order of a loop over the grid: the
    first omega and the direction are checked first, each omega with
    k * max radius > 0.5 then warns once, in grid order, and the first
    omega that is not positive (ValueError) or lies within 1e-12
    (relative, in omega^2) of a resonance (PoleProximityError) raises
    after the warnings of every omega up to it. That is
    modal_coefficients' guard, so a row exists exactly where
    modal_coefficients returns.
    """
    omegas = np.fromiter(omega_grid, dtype=float)
    if omegas.size == 0:
        return []
    wave = IncidentWave.plane_wave(float(omegas[0]), direction, material)
    om1, om2 = _frequencies(cmat, pair, material)
    omega = omegas.tolist()
    krad = omegas / material.v * max(pair.r1, pair.r2)
    # Python's ** (libm pow), not omegas * omegas, so that den1 and den2
    # carry the bits of modal_coefficients' _square(wave.omega)
    try:
        w2 = np.array([w**2 for w in omega])
    except OverflowError:
        for w in omega:
            _square(w)  # raises for the first omega whose square overflows
        raise
    den1 = w2 - om1**2
    den2 = w2 - om2**2
    stops = (
        ~(omegas > 0.0)
        | (np.abs(den1) < _POLE_GUARD * om1**2)
        | (np.abs(den2) < _POLE_GUARD * om2**2)
    )
    end = int(np.argmax(stops)) if stops.any() else len(omega)
    for i in np.flatnonzero(krad[: end + 1] > 0.5):
        _warn_outside_regime(float(krad[i]), stacklevel=1)
    if end < len(omega):
        _check_frequency(omega[end])
        _check_poles(float(den1[end]), float(den2[end]), om1, om2)
    num_a, num_b, _ = _numerators(cmat, pair, material, wave.value(np.zeros(3)))
    # abs(num / den) for a complex num and a float den is
    # hypot(num.real / den, num.imag / den), bit for bit; np.abs of the
    # complex quotient is not
    abs_a = np.hypot(num_a.real / den1, num_a.imag / den1)
    abs_b = np.hypot(num_b.real / den2, num_b.imag / den2)
    return list(zip(omega, abs_a.tolist(), abs_b.tolist()))
