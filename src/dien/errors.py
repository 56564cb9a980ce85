"""Exception types shared across the package.

Every error raised by the library derives from DienError so callers (and the
CLI) can separate our failures from genuine bugs.  Validation-style problems
subclass ValueError, runtime-state problems subclass RuntimeError.
"""


class DienError(Exception):
    """Base class for all library errors."""


class ShapeError(DienError, ValueError):
    """Operands with incompatible dimensions."""


class VocabularyError(DienError, ValueError):
    """Id outside a vocabulary, or a vocabulary too small to sample from."""


class DomainError(DienError, ValueError):
    """Scalar argument outside its mathematical domain (e.g. a history
    length below 1, a finite-difference step that is not positive)."""


class ConfigError(DienError, ValueError):
    """Inconsistent or invalid configuration (unknown variant, width
    mismatch, bad probability, duplicate entries)."""


class ParseError(DienError, ValueError):
    """Malformed corpus file; carries line/column context in the message."""


class DegenerateError(DienError, ValueError):
    """Input that makes the requested quantity undefined (single-class AUC,
    empty attention window, fewer than two points for a projection)."""


class NumericError(DienError, ArithmeticError):
    """Non-finite value produced where a finite one is required."""


class UsageError(DienError, RuntimeError):
    """API misuse: an empty batch, a gradient check past its parameter
    budget, and similar."""


class DivergenceError(DienError, RuntimeError):
    """Training produced a non-finite loss; message reports step and config."""
