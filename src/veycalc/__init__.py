"""veycalc: exact secondary characteristic classes of foliations.

Truncated Weil complexes W_q / WO_q / I_q, their exact rational cohomology,
the combinatorial Vey basis with classification and counts, bigraded minimal
models of the truncated polynomial algebras, and per-manifold inventories of
the characteristic classes they support.
"""

import importlib

__version__ = "0.1.0"

# Public names are resolved on first use (PEP 562), so importing the package,
# or only the CLI and the cache, loads none of the algebra modules.
_HOMES = {
    "errors": ("ResourceBudgetError", "UnsupportedInputError"),
    "gca": ("AlgebraSignature", "Element", "Monomial", "SignatureMismatch"),
    "complexes": ("CohomologyResult", "GradedComplex", "build_complex", "cohomology"),
    "vey": (
        "extended_basis",
        "extended_count",
        "kappa",
        "v_count",
        "validate_vey",
        "variable_set",
        "vey_basis",
        "vey_groups",
    ),
    "minimal_model": (
        "ModelStage",
        "build_model",
        "loop_poincare",
        "rank_table",
    ),
    "manifold": (
        "ManifoldDescriptor",
        "fiber_integrate_degree",
        "preset",
        "report",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

