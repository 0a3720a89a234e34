"""Domain errors raised by the library.

Each error name is part of the public contract: the CLI prints the class
name verbatim so shell scripts can branch on it.
"""


class AoiError(Exception):
    """Base class for all domain errors in this package."""


class DivergentAge(AoiError):
    """Simulation exhausted its event budget before reaching the requested
    number of deliveries, which signals a vanishing success probability."""


class TruncationNotReached(AoiError):
    """The expected cycle arrival count diverges (a zero geometric success
    probability), or a cycle or its service outgrows the renewal lattice."""


class ZeroSuccessProbability(AoiError):
    """No arrival can ever complete service under the given laws."""
