"""Exception types shared across the library."""


class DwcrossError(Exception):
    """Base class for all library errors."""


class DomainError(DwcrossError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonConvergenceError(DwcrossError):
    """An iterative search exhausted its budget without converging.

    row is the index of the row that failed when many independent rows
    were solved together (see rootfind.scan_brackets), else None.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class ModelMismatchError(DwcrossError, ValueError):
    """Operation applied to a model variant it does not support."""


class ConfigError(DwcrossError, ValueError):
    """Invalid configuration input (parse failure or violated invariant)."""
