"""Exceptions shared across the toolkit."""


class EngineError(Exception):
    """Base class for failures inside the reasoning engine."""


class SignatureError(EngineError):
    """Ill-formed signature or use of an undeclared/ill-sorted symbol."""


class SortError(EngineError):
    """Substitution or renaming violates arity/sort constraints."""


class NonLinearError(EngineError):
    """An eliminable symbol occurs non-linearly."""


class NonGroundableError(EngineError):
    """A clause variable is not bound by any extension-symbol occurrence."""


class CaseExplosionError(EngineError):
    """Sign case splitting exceeded the configured conjunct bound."""


class ParseError(Exception):
    """Syntax or resolution error in an input file."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "%d:%d: %s" % (line, column, message)
        super().__init__(message)
