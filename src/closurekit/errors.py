"""Exception hierarchy shared by all closurekit modules."""


class ClosureKitError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(ClosureKitError, ZeroDivisionError):
    """Inverse or division by zero in a field."""


class NonPrimeModulus(ClosureKitError):
    """GF(p) was requested for a composite or invalid modulus."""


class RingMismatch(ClosureKitError):
    """Polynomials from different rings were combined."""


class LengthMismatch(ClosureKitError):
    """Exponent vectors of different lengths were compared."""


class ZeroDivisorPolynomial(ClosureKitError):
    """The zero polynomial appeared in a divisor list."""


class UnknownVariable(ClosureKitError):
    """A variable name is not declared in the ambient ring."""


class ZeroPolynomial(ClosureKitError):
    """An operation that needs a nonzero polynomial received zero."""


class UnitIdeal(ClosureKitError):
    """A quotient ring presentation needs a proper defining ideal."""


class NotAMember(ClosureKitError):
    """Lift requested for an element outside the target ideal."""


class UnsupportedCharacteristic(ClosureKitError):
    """Radical computation over GF(p) with p below the degree bound."""


class StrategyFailed(ClosureKitError):
    """The radical could not produce a certified answer."""


class EmptyIdeal(ClosureKitError):
    """The test ideal is zero in the quotient ring."""


class NotNonZeroDivisor(ClosureKitError):
    """The chosen denominator has a nonzero annihilator."""


class LiftFailed(ClosureKitError):
    """A product of endomorphism numerators failed to lift; the
    presentation would not close under multiplication."""


class IterationLimitExceeded(ClosureKitError):
    """The normalization loop hit its iteration cap."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace or [])


class VerificationFailed(ClosureKitError):
    """An independent certification check on a result failed."""


class ParseError(ClosureKitError):
    """Syntax or semantic error in an input document."""

    def __init__(self, message, line, column, expected=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = expected

    def location(self):
        return f"{self.line}:{self.column}"
