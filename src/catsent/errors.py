"""Exception hierarchy shared across the package."""


class CatsentError(Exception):
    """Base class for all package errors."""


class DimensionError(CatsentError):
    """Array shapes incompatible for the requested operation."""


class NumericDomainError(CatsentError):
    """NaN/Inf input or non-finite intermediate value."""


class SchemaError(CatsentError):
    """Sample does not validate against the category/polarity schema."""


class ConfigurationError(CatsentError):
    """Invalid or inconsistent configuration."""


class DataError(CatsentError):
    """Dataset content violates an operation precondition."""


class DivergenceError(CatsentError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


class EmptySpanError(DataError):
    """Attention requested over an empty span (a sentence or category name
    without a token)."""
