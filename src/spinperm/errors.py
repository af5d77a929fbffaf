"""Exception types shared across the package."""


class SpinpermError(Exception):
    """Base class for all package errors."""


class ParseError(SpinpermError):
    """Malformed matrix input (ragged rows, bad literal, empty source)."""


class SizeGuardError(SpinpermError):
    """Requested size exceeds the desk-scale guard for this operation."""


class ZeroPivotError(SpinpermError):
    """A reduction round would divide by a vanishing weight: a fixed-order
    elimination pivot, or kernel leads ``factor_round`` cannot split off."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class LevelMismatchError(SpinpermError):
    """Level vector fed to a step expecting a different Hamming level."""


class RangeError(SpinpermError):
    """An index outside its supported range: a level code above 31 bits or a
    graph round."""


class NonFiniteError(SpinpermError):
    """A permanent or determinant has no finite double-precision value."""


class ZeroPermanentError(SpinpermError):
    """Spectral construction or row reduction met a zero permanent/determinant."""


class SpectralMismatchError(SpinpermError):
    """A spectral claim failed verification at the requested tolerance."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class BlockStructureError(SpinpermError):
    """Power of the operator leaks amplitude across Hamming levels."""


class ConsistencyError(SpinpermError):
    """An internal identity that should hold by construction failed."""
