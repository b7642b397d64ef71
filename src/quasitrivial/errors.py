"""Shared exception types."""


class CapacityError(ValueError):
    """A request exceeds a documented size limit."""


class ParseError(ValueError):
    """Malformed input text; carries a 1-based line/column location."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class DecompositionError(ValueError):
    """The operation is not associative and quasitrivial; `reason` names the
    failed precondition ('not associative' or 'not quasitrivial')."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class ConsistencyError(RuntimeError):
    """Two routes that must agree by theorem produced different results.

    Raised only when an internal cross-check fails; indicates a bug (or a
    tampered constant), never a bad input.
    """
