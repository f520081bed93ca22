"""The public API: every name in ``veycalc.__all__`` resolves, however it is
reached, the errors that moved to ``veycalc.errors`` keep their identity, the
value classes keep their repr, equality and validation, a signature and a
config are write-protected tuples, and the signatures that lost an input are
pinned."""

import copy
import inspect
import pickle

import pytest

import veycalc
from veycalc import complexes, errors, gca, manifold, minimal_model, vey
from veycalc.cache import Config, ConfigError
from veycalc.gca import AlgebraSignature, Element, Monomial
from veycalc.manifold import ManifoldDescriptor

PUBLIC = {
    "AlgebraSignature", "Element", "Monomial", "SignatureMismatch",
    "CohomologyResult", "GradedComplex", "ResourceBudgetError", "build_complex",
    "cohomology", "extended_basis",
    "extended_count", "kappa", "v_count", "validate_vey", "variable_set",
    "vey_basis", "vey_groups", "ModelStage", "build_model", "loop_poincare",
    "rank_table", "ManifoldDescriptor", "UnsupportedInputError", "fiber_integrate_degree",
    "preset", "report", "__version__",
}
# Helpers that no program path used, deleted from the library, and the
# wrappers that only restated a document: report returns the records,
# validate_vey the validation document, extended_basis (degree, Monomial) pairs;
# ModelBudgetError, a second type for one refusal: ResourceBudgetError is the one;
# VeyClass, whose flags vey_groups lists once per group: a Vey class is its Monomial;
# the record vocabulary, whose one statement is docs/schemas/manifold_report.json;
# GradedComplex.top_degree, a second spelling of gca.top_degree
DELETED = [
    (veycalc, "brace_degree"), (veycalc, "hurewicz_ok"),
    (manifold, "brace_degree"), (manifold, "hurewicz_ok"),
    (Element, "zero"), (Element, "one"), (Element, "y"), (Element, "c"),
    (Element, "from_json_obj"), (Element, "to_json_obj"), (gca, "unit_monomial"),
    (veycalc, "ClassRecord"), (manifold, "ClassRecord"),
    (veycalc, "ValidationReport"), (vey, "ValidationReport"),
    (vey, "DegreeCheck"), (vey, "ExtendedClass"),
    (veycalc, "ModelBudgetError"), (errors, "ModelBudgetError"),
    (minimal_model, "ModelBudgetError"),
    (veycalc, "VeyClass"), (vey, "VeyClass"),
    (manifold, "TARGETS"), (manifold, "METHODS"), (manifold, "SURVIVAL"),
    (complexes.GradedComplex, "top_degree"),
]


@pytest.mark.parametrize("owner,name", DELETED)
def test_deleted_helper_is_gone(owner, name):
    with pytest.raises(AttributeError):
        getattr(owner, name)


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
    assert veycalc.rank_table is minimal_model.rank_table


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(veycalc, "no_such_name")


@pytest.mark.parametrize(
    "old_home, name",
    [
        (manifold, "UnsupportedInputError"),
        (vey, "VEY_KINDS"),
    ],
)
def test_moved_name_keeps_its_identity(old_home, name):
    assert getattr(old_home, name) is getattr(errors, name)
    if name in veycalc.__all__:
        assert getattr(veycalc, name) is getattr(errors, name)


# The reprs of the value classes, recorded when they were dataclasses;
# Element.monomial's error message embeds the first two.
REPRS = [
    (lambda: AlgebraSignature(2, "W"), "AlgebraSignature(q=2, kind='W')"),
    (lambda: Monomial((1,), (0, 0)), "Monomial(y_part=(1,), c_part=(0, 0))"),
    (lambda: complexes.GradedComplex(2, "W"), "GradedComplex(q=2, kind='W')"),
    (lambda: Config(cache_dir="cache"), "Config(q_cap=10, model_degree_cap=12, cache_dir='cache')"),
]


@pytest.mark.parametrize("make, text", REPRS,
                         ids=["AlgebraSignature", "Monomial", "GradedComplex", "Config"])
def test_value_class_repr_is_pinned(make, text):
    assert repr(make()) == text


def test_equal_values_are_equal_and_hash_alike():
    pairs = [
        (AlgebraSignature(3, "W"), AlgebraSignature(3, "W")),
        (Monomial((1,), (0, 0)), Monomial((1,), (0, 0))),
        (complexes.GradedComplex(3, "W"), AlgebraSignature(3, "W")),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
    assert AlgebraSignature(3, "W") != AlgebraSignature(3, "WO")


def test_invalid_monomial_message_is_unchanged():
    with pytest.raises(ValueError) as exc:
        Element.monomial(AlgebraSignature(2, "W"), Monomial((3,), (0, 0)))
    assert str(exc.value) == (
        "monomial Monomial(y_part=(3,), c_part=(0, 0)) invalid for signature "
        "AlgebraSignature(q=2, kind='W')"
    )


# Inputs that every program caller set to one value are constants or derived
# values: closed is compact, orientable is True, the word budget is
# minimal_model.WORD_BUDGET, and loop_poincare takes the plain rank dict that
# rank_table returns.
SIGNATURES = [
    (ManifoldDescriptor, ["q", "compact", "parallelizable", "cospherical_degrees",
                          "trivialized_over_cycles", "label"]),
    (minimal_model.build_model, ["q", "degree_cap"]),
    (minimal_model.loop_poincare, ["ranks", "loops", "cap"]),
    (errors.ResourceBudgetError, ["message", "estimate"]),
    (complexes.GradedComplex, ["q", "kind", "kinds"]),
    (Config, ["q_cap", "model_degree_cap", "cache_dir"]),
    (minimal_model.ModelStage, ["q", "degree_cap", "algebra", "images", "quasi_iso_check"]),
]


@pytest.mark.parametrize("obj, params", SIGNATURES,
                         ids=["ManifoldDescriptor", "build_model", "loop_poincare",
                              "ResourceBudgetError", "GradedComplex", "Config", "ModelStage"])
def test_signature_is_pinned(obj, params):
    assert list(inspect.signature(obj).parameters) == params


def test_removed_inputs_are_refused():
    with pytest.raises(TypeError):
        ManifoldDescriptor(2, True, True, orientable=True)
    with pytest.raises(TypeError):
        minimal_model.build_model(2, 6, word_budget=10)
    # the rank table and the loop series are plain values, with no wrapper
    for name in ("RankTable", "PoincareSeries"):
        with pytest.raises(AttributeError):
            getattr(minimal_model, name)
        with pytest.raises(AttributeError):
            getattr(veycalc, name)
    assert not hasattr(minimal_model.ModelStage, "generator_ranks")
    m = minimal_model.build_model(2, 6)
    assert minimal_model.loop_poincare(minimal_model.rank_table(m), 0, 4) == [1, 0, 1, 0, 2]
    assert minimal_model.WORD_BUDGET == 50_000


def test_value_classes_still_validate():
    with pytest.raises(ConfigError):
        Config(q_cap=0)
    with pytest.raises(errors.UnsupportedInputError, match="dimension q must be positive"):
        ManifoldDescriptor(0, True, True)


# A signature, a config and a manifold descriptor are NamedTuples whose
# constructors validate: the tuple gives equality, hashing, repr and write
# protection.
VALUES = [
    lambda: AlgebraSignature(2, "W"),
    lambda: complexes.GradedComplex(2, "W"),
    lambda: Config(cache_dir="cache"),
    lambda: ManifoldDescriptor(3, True, True, ((1, 2),)),
]
VALUE_IDS = ["AlgebraSignature", "GradedComplex", "Config", "ManifoldDescriptor"]


def test_signature_and_config_are_tuples():
    for cls in (AlgebraSignature, Config, ManifoldDescriptor):
        assert issubclass(cls, tuple)
        assert not {"__init__", "__eq__", "__hash__", "__repr__"} & set(vars(cls))
    q, kind = AlgebraSignature(2, "WO")
    assert (q, kind) == (2, "WO") and AlgebraSignature(2, "W") == (2, "W")


@pytest.mark.parametrize("make", VALUES, ids=VALUE_IDS)
def test_fields_are_write_protected(make):
    value = make()
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 3)
    assert value == make()


@pytest.mark.parametrize("kind", errors.KINDS)
def test_a_signature_key_is_found_after_an_assignment(kind):
    for sig in (AlgebraSignature(2, kind), complexes.GradedComplex(2, kind)):
        table = {sig: kind}
        with pytest.raises(AttributeError):
            sig.q = 3
        with pytest.raises(AttributeError):
            sig.kind = "W"
        assert sig in table
        assert table[AlgebraSignature(2, kind)] == kind


@pytest.mark.parametrize("make", VALUES, ids=VALUE_IDS)
def test_round_trips_go_through_the_constructor(make):
    value = make()
    trips = [copy.copy, copy.deepcopy] + [
        lambda v, p=p: pickle.loads(pickle.dumps(v, p))
        for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for trip in trips:
        back = trip(value)
        assert back == value and type(back) is type(value)
    # _replace and _make run the constructor's checks (ConfigError and
    # UnsupportedInputError are ValueErrors)
    with pytest.raises(ValueError, match="must be positive"):
        value._replace(**{value._fields[0]: 0})
    with pytest.raises(ValueError, match="must be positive"):
        type(value)._make((0, *value[1:]))
    # a value built past the constructor is checked again by a round trip
    invalid = tuple.__new__(type(value), (0, *value[1:]))
    for trip in trips:
        with pytest.raises(ValueError, match="must be positive"):
            trip(invalid)
