"""Errors and limits the CLI needs before any computation starts.

This module imports nothing, so the front end can parse arguments, load the
config, serve a cache hit and map errors to exit codes without loading the
algebra stack.  The modules these names belong to re-export them:
``complexes`` (``DEFAULT_Q_CAP``, ``KINDS``, ``ResourceBudgetError``),
``minimal_model`` (``ModelBudgetError``) and ``manifold``
(``UnsupportedInputError``).  Only the CLI checks the caps, after its cache
lookup; the library refuses no job for its size, except a model whose word
basis outgrows its budget (``ModelBudgetError``).
"""

DEFAULT_Q_CAP = 10

KINDS = ("W", "WO", "I")


class ResourceBudgetError(RuntimeError):
    """Raised when a requested computation exceeds the configured budget."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


class ModelBudgetError(ResourceBudgetError):
    """A model budget refusal; its estimate is the attempted dimension."""

    def __init__(self, message: str, attempted_dimension: int):
        super().__init__(message, estimate=attempted_dimension)
        self.attempted_dimension = attempted_dimension


class UnsupportedInputError(ValueError):
    """Raised for descriptors outside the supported rule table."""
