"""Errors, kinds and the integer rule the CLI needs before any computation starts.

This module imports nothing, so the front end can parse arguments, load the
config, serve a cache hit and map errors to exit codes without loading the
algebra stack.  ``vey`` re-exports ``VEY_KINDS`` and ``manifold``
``UnsupportedInputError``.  Only the CLI checks the caps of ``cache.Config``,
after its cache lookup; the library refuses no job for its size, except a
model whose word basis outgrows ``minimal_model.WORD_BUDGET``.  Every q,
degree, cap or count from outside passes ``check_int``.
"""

KINDS = ("W", "WO", "I")
VEY_KINDS = ("W", "WO")  # the complexes with a Vey basis


class ResourceBudgetError(RuntimeError):
    """Raised when a requested computation exceeds the configured budget; its
    estimate is the size, or the text of a lower bound where that is too large
    to compute."""

    def __init__(self, message: str, estimate: int | str):
        super().__init__(message)
        self.estimate = estimate


class UnsupportedInputError(ValueError):
    """Raised for descriptors outside the supported rule table."""


def check_int(name: str, value, least: int | None = None, error: type = ValueError) -> int:
    """`value`, once it is an int (not a bool or float) of at least `least`, or raises `error`."""
    if type(value) is not int:
        raise error(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        bound = "positive" if least == 1 else f"at least {least}"
        raise error(f"{name} must be {bound}")
    return value
