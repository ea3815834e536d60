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


@dataclass(frozen=True)
class IncidentWave:
    """Plane wave amplitude * exp(i k direction.x) in the background medium."""

    omega: float
    direction: np.ndarray
    amplitude: complex
    k: float
    k_b: float

    @classmethod
    def plane_wave(
        cls,
        omega: float,
        direction,
        material: Material,
        amplitude: complex = 1.0,
    ) -> "IncidentWave":
        if not omega > 0.0:
            raise ValueError(f"frequency must be positive, got {omega}")
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
            k_b=omega / material.v_b,
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
    denom1: float
    denom2: float
    b_numerator: complex
    omega1: float
    omega2: float


def modal_coefficients(
    cmat: CapacitanceMatrix,
    pair: ResonatorPair,
    material: Material,
    wave: IncidentWave,
    *,
    pole_guard: float = 1e-9,
) -> ModalCoefficients:
    """Modal amplitudes a, b for one incident wave.

    Raises PoleProximityError when omega^2 sits within pole_guard
    (relative) of either resonance; the leading-order amplitudes have a
    genuine pole there and the expansion stops being meaningful.
    """
    ct = rescale(cmat, pair)
    sp = eigen(ct)
    freqs = resonant_frequencies(sp, material)
    om1, om2 = freqs.omega1, freqs.omega2

    krad = wave.k * max(pair.r1, pair.r2)
    if krad > 0.5:
        warnings.warn(
            f"k * max radius = {krad:.3g}; the subwavelength expansion "
            "degrades well before this",
            stacklevel=2,
        )

    w2 = wave.omega**2
    den1 = w2 - om1**2
    den2 = w2 - om2**2
    if abs(den1) < pole_guard * om1**2:
        raise PoleProximityError(
            f"omega within guard band of the first resonance ({om1:.6g})"
        )
    if abs(den2) < pole_guard * om2**2:
        raise PoleProximityError(
            f"omega within guard band of the second resonance ({om2:.6g})"
        )

    u0 = wave.value(np.zeros(3))
    i1 = -u0 * (cmat.c11 + cmat.c12)
    i2 = -u0 * (cmat.c21 + cmat.c22)
    vol1, vol2 = pair.volume1, pair.volume2
    vol = vol1 + vol2
    pref = material.delta * material.v_b**2 / vol
    b_num = i1 - (vol1 / vol2) * i2
    return ModalCoefficients(
        a=pref * (i1 + i2) / den1,
        b=-pref * b_num / den2,
        denom1=den1,
        denom2=den2,
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
    *,
    amplitude: complex = 1.0,
    pole_guard: float = 1e-12,
) -> list[tuple[float, float, float]]:
    """(omega, |a|, |b|) rows over a frequency grid.

    Grid points must stay outside the (very tight) default pole guard;
    a grid that lands exactly on a resonance is a caller bug and raises.
    """
    rows = []
    for omega in omega_grid:
        wave = IncidentWave.plane_wave(float(omega), direction, material, amplitude)
        mc = modal_coefficients(cmat, pair, material, wave, pole_guard=pole_guard)
        rows.append((float(omega), abs(mc.a), abs(mc.b)))
    return rows
