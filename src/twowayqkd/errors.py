"""Exception types shared across the package."""


class UnphysicalStateError(ValueError):
    """A covariance matrix (or derived quantity) does not describe a physical state."""


class UnphysicalAttackError(UnphysicalStateError):
    """Attack parameters (omega, g, g') do not describe a physical two-mode state."""


class DegenerateSpectrumError(ArithmeticError):
    """The symplectic eigenvalue computation lost its pair structure numerically."""
