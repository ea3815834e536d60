"""Subwavelength resonance of two close-to-touching spherical resonators.

Exact bispherical-series capacitance, leading-order resonant frequencies
and eigenmodes, gap-gradient blow-up rates, and low-frequency scattering
amplitudes, all cross-checked against independent brute-force oracles.
Points enter as bispherical points or as plain (x1, x2, x3) triples.
The oracles, the forward map `to_cartesian` among them, live in
`bisphere.oracle`, which the package namespace does not import.
"""

__version__ = "0.1.0"

from .capacitance import (
    CapacitanceMatrix,
    RescaledCapacitance,
    SigmaTerms,
    capacitance_asymptotic_rescaled,
    capacitance_exact,
    rescale,
    sigma_terms,
)
from .errors import (
    ConfigError,
    PoleProximityError,
    RegimeUnderflowError,
    TruncationCapError,
)
from .fields import (
    BlowupStudy,
    GradientStudyRow,
    ModeDecomposition,
    PotentialField,
    PotentialSeries,
    blowup_study,
    eval_grad_mode,
    eval_potential,
    h_decomposition,
    potential_field,
    potential_series,
)
from .geometry import (
    BisphericalFrame,
    BisphericalPoint,
    ResonatorPair,
    classify,
    epsilon_from_regime,
    frame_from_pair,
    log_epsilon_from_regime,
    to_bispherical,
)
from .scattering import (
    IncidentWave,
    ModalCoefficients,
    modal_coefficients,
    response_curve,
)
from .specfun import (
    GAMMA_EULER,
    digamma_series_tail,
)
from .spectra import (
    Material,
    ResonantFrequencies,
    SpectralPair,
    eigen,
    resonance_asymptotic,
    resonant_frequencies,
)

__all__ = [
    "BisphericalFrame",
    "BisphericalPoint",
    "BlowupStudy",
    "CapacitanceMatrix",
    "ConfigError",
    "GAMMA_EULER",
    "GradientStudyRow",
    "IncidentWave",
    "Material",
    "ModalCoefficients",
    "ModeDecomposition",
    "PoleProximityError",
    "PotentialField",
    "PotentialSeries",
    "RegimeUnderflowError",
    "RescaledCapacitance",
    "ResonantFrequencies",
    "ResonatorPair",
    "SigmaTerms",
    "SpectralPair",
    "TruncationCapError",
    "blowup_study",
    "capacitance_asymptotic_rescaled",
    "capacitance_exact",
    "classify",
    "digamma_series_tail",
    "eigen",
    "epsilon_from_regime",
    "eval_grad_mode",
    "eval_potential",
    "frame_from_pair",
    "h_decomposition",
    "log_epsilon_from_regime",
    "modal_coefficients",
    "potential_field",
    "potential_series",
    "rescale",
    "resonance_asymptotic",
    "resonant_frequencies",
    "response_curve",
    "sigma_terms",
    "to_bispherical",
]
