"""Exception types shared across the library.

``GradedError`` covers mathematical failures (invalid morphisms, singular
substitutions, cocycle problems); syntax problems in expression text or
input files raise ``ExprSyntaxError`` instead.  The CLI maps the former to
exit code 1 and the latter to exit code 2.  A message quotes a text from
the input through ``_quoted``, which cuts it to 40 characters.
"""

from __future__ import annotations


def _quoted(text: str, quote=repr) -> str:
    """``text`` quoted for a message, cut to 40 characters."""
    return quote(text) if len(text) <= 40 else f"{quote(text[:40])}... ({len(text)} characters)"


class GradedError(ValueError):
    """A mathematically invalid operation or object."""


class SignatureMismatchError(GradedError):
    """Operands or morphisms built over incompatible signatures."""


class NotInvertibleError(GradedError):
    """Division by a superfunction whose even part vanishes."""


class NormSizeError(GradedError):
    """A norm whose predicted size passes ``algebra.MAX_NORM_MONOMIALS``."""


class MorphismValidationError(GradedError):
    """A coordinate image violates its weight or parity constraint."""

    def __init__(self, variable: str, reason: str, expected=None, found=None):
        self.variable = variable
        self.reason = reason
        self.expected = expected
        self.found = found
        msg = f"invalid image for {variable!r}: {reason}"
        if expected is not None or found is not None:
            msg += f" (expected {expected}, found {found})"
        super().__init__(msg)


class CoveringError(GradedError):
    """A covering construction or lift cannot be carried out."""


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries a 1-based position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (position {position})")
