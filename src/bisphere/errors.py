"""Shared exception types for numerical failure modes."""


class TruncationCapError(RuntimeError):
    """The bispherical n-series would need more terms than the cap to meet tol.

    capacitance_exact sums over images instead, but still refuses such gaps.
    """


class PoleProximityError(RuntimeError):
    """A requested frequency sits inside the guard band of a resonance pole."""


class RegimeUnderflowError(OverflowError):
    """The gap implied by a contrast regime underflows double precision."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""
