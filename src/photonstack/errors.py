"""Exception types shared across the package."""


class PhotonStackError(Exception):
    """Base class for all package errors."""


class ConfigError(PhotonStackError):
    """Invalid configuration, geometry, or argument values."""


class DegenerateBasisError(PhotonStackError):
    """The two outgoing wave solutions are numerically linearly dependent."""


class DivergentSourceError(PhotonStackError):
    """A source integral over a semi-infinite layer does not converge."""


class MissingTemperatureError(PhotonStackError):
    """A lossy layer participates as a source but has no temperature."""


class InterfacePointError(ConfigError):
    """A force density within 1 pm of an interface, or probes out of order."""


class ConvergenceError(PhotonStackError):
    """The self-consistent temperature solver did not converge."""
