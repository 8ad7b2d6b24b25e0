"""Exception types shared across the package."""


class GameError(Exception):
    """Base class for all input and model errors."""


class SchemaError(GameError):
    """Document is structurally malformed: bad JSON, wrong types, missing keys."""


class ValidationError(GameError):
    """Document is well-formed but violates a model invariant."""


class ResourceLimit(GameError):
    """A configured cap on materialized states or candidates was exceeded."""

    def __init__(self, message: str, *, checked: int | None = None):
        super().__init__(message)
        self.checked = checked
