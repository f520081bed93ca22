"""The public API: every name in ``veycalc.__all__`` resolves, however it is
reached, and the errors that moved to ``veycalc.errors`` keep their identity."""

import pytest

import veycalc
from veycalc import complexes, errors, manifold, minimal_model

PUBLIC = {
    "AlgebraSignature", "Element", "Monomial", "SignatureMismatch",
    "CohomologyResult", "GradedComplex", "ResourceBudgetError", "build_complex",
    "cohomology", "ValidationReport", "VeyClass", "extended_basis",
    "extended_count", "kappa", "v_count", "validate_vey", "variable_set",
    "vey_basis", "ModelBudgetError", "ModelStage", "PoincareSeries", "RankTable",
    "build_model", "loop_poincare", "rank_table", "ClassRecord",
    "ManifoldDescriptor", "UnsupportedInputError", "brace_degree",
    "fiber_integrate_degree", "hurewicz_ok", "preset", "report", "__version__",
}


def test_all_is_the_public_api():
    assert len(veycalc.__all__) == len(PUBLIC)
    assert set(veycalc.__all__) == PUBLIC


@pytest.mark.parametrize("name", veycalc.__all__)
def test_public_name_resolves(name):
    value = getattr(veycalc, name)
    assert value is not None
    assert name in dir(veycalc)
    namespace: dict = {}
    exec("from veycalc import *", namespace)
    assert namespace[name] is value


def test_public_name_is_the_defining_object():
    assert veycalc.build_complex is complexes.build_complex
    assert veycalc.report is manifold.report
    assert veycalc.RankTable is minimal_model.RankTable


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(veycalc, "no_such_name")


@pytest.mark.parametrize(
    "old_home, name",
    [
        (complexes, "ResourceBudgetError"),
        (complexes, "DEFAULT_Q_CAP"),
        (complexes, "KINDS"),
        (minimal_model, "ModelBudgetError"),
        (manifold, "UnsupportedInputError"),
    ],
)
def test_moved_name_keeps_its_identity(old_home, name):
    assert getattr(old_home, name) is getattr(errors, name)
    if name in veycalc.__all__:
        assert getattr(veycalc, name) is getattr(errors, name)
