"""Exception types shared across the package."""


class ApparitionError(Exception):
    """Base class for all package-specific errors."""


class DenominatorDivisible(ApparitionError):
    """p divides the denominator of the parameter; p must be excluded."""


class ExcludedParameter(ApparitionError):
    """The parameter t is one of the degenerate values 0, +-1, +-2."""


class NotUnitDeterminant(ApparitionError):
    """The element does not have determinant 1."""


class BoundViolation(ApparitionError):
    """The claimed order bound does not annihilate the element."""


class NotCubic(ApparitionError):
    """t**2 - 4 is not -3 times a rational square."""


class NotCircular(ApparitionError):
    """t**2 - 4 is not minus a rational square."""


class BadPrime(ApparitionError):
    """The prime is inadmissible for this computation (e.g. divides Q)."""


class PrimeTooLarge(ApparitionError):
    """Brute-force enumeration over F_p is capped; p exceeds the cap."""


class TorsionTimesPower(ApparitionError):
    """The sequence is a torsion element times a power of D (has a zero)."""
