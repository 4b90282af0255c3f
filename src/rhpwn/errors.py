"""Exception types shared across the package."""


class RhpwnError(Exception):
    """Base class for all package-specific errors."""


class TagMismatchError(RhpwnError):
    """Operands belong to different algebras (RHPWN vs w-infinity)."""


class IndexRangeError(RhpwnError, IndexError):
    """Generator or table index outside its defined range."""


class UnsupportedGeneratorError(RhpwnError):
    """The truncated action is undefined for this generator."""


class UnsupportedOrderError(RhpwnError):
    """Jet order beyond the implemented cap (2 per vector)."""


class PrescriptionError(RhpwnError):
    """The commutator prescription is inapplicable (kN - Kn = 0)."""


class OutOfScopeError(RhpwnError):
    """Parameter outside the regime the operation is defined for."""


class DomainError(RhpwnError, ValueError):
    """Numeric argument outside the admissible domain (branch cut, bound, ...)."""


class SchemaError(RhpwnError, ValueError):
    """Malformed JSON payload; carries a JSON-pointer location."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class EmptyIntervalError(RhpwnError, ValueError):
    """A step-function piece [a, b) with a >= b; `interval` is its text."""

    def __init__(self, interval: str):
        self.interval = interval
        super().__init__(f"empty or reversed interval {interval}")
