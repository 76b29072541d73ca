"""Exception types shared across the package."""


class DriftCompError(Exception):
    """Base class for all package errors."""


class DimensionError(DriftCompError, ValueError):
    """Vector or matrix dimensions are inconsistent."""


class DegenerateInputError(DriftCompError, ValueError):
    """Input is structurally valid but numerically degenerate (e.g. zero norm)."""


class SingularGramError(DriftCompError, ValueError):
    """Gram matrix is numerically singular and strict mode forbids a ridge fallback."""


class DivergenceError(DriftCompError, RuntimeError):
    """An iterative optimization produced a non-finite value."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


class ConfigError(DriftCompError, ValueError):
    """Run configuration is malformed or out of range."""


class SummaryFormatError(DriftCompError, ValueError):
    """A run summary file is not JSON, lacks a field or has another format version."""


class DumpFormatError(DriftCompError, ValueError):
    """A feature dump file violates the binary format.

    `code` is a stable machine-readable category, `offset` the byte position
    at which the problem was detected (or None when not applicable).
    """

    def __init__(self, code: str, message: str, offset=None):
        self.code = code
        self.offset = offset
        super().__init__(message)
