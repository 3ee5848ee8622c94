"""Shared exception types.

Everything raised on purpose by this package derives from RowsyncError, so
callers can catch one base class.  The subclasses also inherit the stdlib
type a caller would naively expect (ValueError or RuntimeError).
"""


class RowsyncError(Exception):
    """Base class for errors raised by this package."""


class DomainError(RowsyncError, ValueError):
    """An argument lies outside an operation's domain."""


class InvalidWordError(DomainError):
    """A word refers to a letter outside the automaton's alphabet."""


class CapacityError(RowsyncError, RuntimeError):
    """A configured size or budget limit would be exceeded.

    The message names the limiting parameter so callers know which knob to
    turn (or which cheaper routine to call instead).
    """


class ParseError(RowsyncError, ValueError):
    """Malformed automaton text.  Carries the offending line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
