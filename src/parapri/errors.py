"""Exception types shared across the package."""


class ParapriError(Exception):
    """Base class for every error this package raises deliberately. An
    error read from a text may name its byte ``offset`` and its ``line``."""

    def __init__(self, message, *, offset=None, line=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.offset = offset
        self.line = line


class ParseError(ParapriError):
    """Malformed input text: formula, theory file, or program file."""


class ValidationError(ParapriError):
    """Well-formed input that violates a semantic requirement."""


class CycleError(ValidationError):
    """The strict priority order is not acyclic."""


class NotStratifiedError(ValidationError):
    """A logic program has a cycle through negation."""

    def __init__(self, message, cycle=()):
        super().__init__(message)
        self.cycle = tuple(cycle)


class UniverseError(ValidationError):
    """An atom or interpretation does not fit the declared vocabulary."""


class CapExceededError(ParapriError):
    """A brute-force bound would be exceeded; refuse rather than truncate."""


class InternalError(ParapriError):
    """An invariant that holds by construction was observed to fail."""
