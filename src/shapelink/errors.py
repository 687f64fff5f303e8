"""Exception types shared across the toolkit.

Plain ``ValueError`` is used for ordinary argument validation; the classes
here mark failure modes a caller may want to catch and handle separately.
"""


class ShapelinkError(Exception):
    """Base class for toolkit-specific errors."""


class ConfigurationError(ShapelinkError):
    """A configuration is structurally valid but physically inconsistent
    (e.g. split-step count overflow)."""


class EstimationFailure(ShapelinkError):
    """A blind estimator could not produce a usable estimate
    (e.g. no 4th-power spectral peak above threshold)."""


class AlignmentError(ShapelinkError):
    """Two frames that must be sample-aligned are not."""


class ModelDomainError(ShapelinkError):
    """An analytical model was evaluated outside its domain of validity
    (e.g. the closed-form NLI estimate at zero dispersion)."""


class DegenerateInputError(ShapelinkError, ValueError):
    """Input is degenerate for the requested quantity
    (e.g. PAPR of an all-zero dimension)."""
