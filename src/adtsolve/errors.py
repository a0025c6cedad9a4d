"""Exception types shared across the package."""

from __future__ import annotations


class AdtSolveError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AdtSolveError):
    """An unreadable or ill-formed input script; a syntax error carries its
    1-based position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class TypeCheckError(InputError):
    """Ill-typed expression in an input script."""

    def __init__(self, expr: str, expected: str, found: str, line: int = 0, col: int = 0):
        super().__init__(f"type error in {expr}: expected {expected}, found {found}", line, col)
        self.expr = expr
        self.expected = expected
        self.found = found


class UnknownSymbolError(AdtSolveError):
    """Reference to a sort, constructor, selector, or variable that is not declared."""

    def __init__(self, symbol: str, detail: str = ""):
        super().__init__(f"unknown symbol {symbol!r}" + (f": {detail}" if detail else ""))
        self.symbol = symbol


class InvalidSignatureError(AdtSolveError):
    """Signature failed validation; carries the full issue list."""

    def __init__(self, issues):
        super().__init__("; ".join(str(i) for i in issues))
        self.issues = list(issues)


class UnboundVariableError(AdtSolveError):
    """Evaluation hit a variable the model does not assign."""


class ModeMismatchError(AdtSolveError):
    """A size atom was handed to the depth-mode reduction."""


class ResourceLimitError(AdtSolveError):
    """A configured resource cap (fuel, nodes, enumeration bound) was exceeded."""


class SpawnError(AdtSolveError):
    """External solver process could not be started."""


class ProtocolError(AdtSolveError):
    """External solver produced output we cannot interpret; carries the raw text."""

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


class BackendUnsupportedError(AdtSolveError):
    """The configured external backend cannot perform the requested operation."""


class UntranslatableError(AdtSolveError):
    """A reduced-vocabulary formula has no counterpart in the ADT language."""

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


class InternalError(AdtSolveError):
    """Invariant violation that indicates a bug, never a user input problem."""
