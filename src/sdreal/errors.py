"""Exception types shared across the package."""


class DomainError(ValueError):
    """Raised when an argument leaves the domain an operation is defined on,
    e.g. a point outside [-1,1] or coefficients whose function escapes it."""


class ParseError(ValueError):
    """Syntax error in the DSL; carries its 1-based character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ResourceLimitError(RuntimeError):
    """An internal work bound was exceeded (e.g. node budget during
    integration of an adversarial tree)."""
