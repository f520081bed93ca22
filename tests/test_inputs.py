"""Every integer from outside passes one rule, `errors.check_int`: a q, degree,
cap or count that is not an int (a bool or a float included) is refused by
name, and so is one below its least value, each with a ValueError."""

import functools
import re

import pytest

from veycalc import vey
from veycalc.cache import Config, ConfigError
from veycalc.errors import UnsupportedInputError
from veycalc.gca import AlgebraSignature
from veycalc.manifold import ManifoldDescriptor, fiber_integrate_degree
from veycalc.minimal_model import FreeAlgebra, build_model, loop_poincare

Q = "q must be positive"

# (entry point, the name it refuses by, a call with the value, its error, the
# least value it takes, or None for a degree, and its message one below that)
ENTRIES = [
    ("AlgebraSignature-W", "q", lambda v: AlgebraSignature(v, "W"), ValueError, 1, Q),
    ("AlgebraSignature-WO", "q", lambda v: AlgebraSignature(v, "WO"), ValueError, 1, Q),
    ("AlgebraSignature-I", "q", lambda v: AlgebraSignature(v, "I"), ValueError, 1, Q),
    ("vey_basis", "q", lambda v: vey.vey_basis(v, "W"), ValueError, 1, Q),
    ("vey_basis-degree", "degree", lambda v: vey.vey_basis(3, "W", v), ValueError, None, None),
    ("vey_groups", "q", lambda v: vey.vey_groups(v, "W"), ValueError, 1, Q),
    ("vey_groups-degree", "degree", lambda v: vey.vey_groups(3, "W", v), ValueError, None, None),
    ("variable_set", "q", vey.variable_set, ValueError, 1, Q),
    ("v_count", "q", vey.v_count, ValueError, 1, Q),
    ("kappa", "q", vey.kappa, ValueError, 1, Q),
    ("extended_basis", "q", vey.extended_basis, ValueError, 1, Q),
    ("extended_count", "q", lambda v: vey.extended_count(v, 7), ValueError, 1, Q),
    ("extended_count-degree", "degree", lambda v: vey.extended_count(3, v), ValueError,
     None, None),
    ("build_model", "q", lambda v: build_model(v, 4), ValueError, 1, Q),
    ("build_model-degree_cap", "degree cap", lambda v: build_model(2, v), ValueError,
     2, "degree cap must be at least 2"),
    ("loop_poincare-loops", "loops", lambda v: loop_poincare({2: 1}, v, 4), ValueError,
     0, "loops must be at least 0"),
    ("loop_poincare-cap", "cap", lambda v: loop_poincare({2: 1}, 0, v), ValueError,
     0, "cap must be at least 0"),
    ("loop_poincare-degree", "degree", lambda v: loop_poincare({v: 1}, 0, 4), ValueError,
     1, "degree must be positive"),
    ("loop_poincare-count", "count", lambda v: loop_poincare({2: v}, 0, 4), ValueError,
     0, "count must be at least 0"),
    ("FreeAlgebra.add_generator", "generator degree",
     lambda v: FreeAlgebra().add_generator("g", v, {}), ValueError,
     1, "generator degree must be positive"),
    ("fiber_integrate_degree", "degree", lambda v: fiber_integrate_degree(v, 2), ValueError,
     None, None),
    ("fiber_integrate_degree-q", "q", lambda v: fiber_integrate_degree(7, v), ValueError, 1, Q),
    ("ManifoldDescriptor", "dimension q", lambda v: ManifoldDescriptor(v, True, True),
     UnsupportedInputError, 1, "dimension q must be positive"),
    ("ManifoldDescriptor-degree", "co-spherical degree",
     lambda v: ManifoldDescriptor(4, True, True, ((v, 1),)),
     UnsupportedInputError, 1, "co-spherical degree 0 must lie strictly between 0 and 4"),
    ("ManifoldDescriptor-count", "co-spherical count",
     lambda v: ManifoldDescriptor(4, True, True, ((1, v),)),
     UnsupportedInputError, 1, "co-spherical count must be positive"),
    ("Config-q_cap", "q_cap", lambda v: Config(q_cap=v), ConfigError, 1, "q_cap must be positive"),
    ("Config-model_degree_cap", "model_degree_cap", lambda v: Config(model_degree_cap=v),
     ConfigError, 1, "model_degree_cap must be positive"),
]

# (id, name, call, the refused value, error): True would reach a document as
# `true` (or, as a degree, list the degree-1 classes), and a float or a str
# ended in a bare TypeError or, as extended_count's degree, counted 0 classes
NON_INT = [
    (f"{entry}-{value!r}", name, functools.partial(call, value), value, error)
    for entry, name, call, error, _, _ in ENTRIES
    for value in (True, 2.0, "2")
] + [
    # build_model's own cases, once refused as "q and degree cap must be integers"
    (f"build_model-{q!r}-{cap!r}", name, functools.partial(build_model, q, cap), bad, ValueError)
    for name, q, cap, bad in [("q", True, 4, True), ("degree cap", 2, True, True),
                              ("q", 2.0, 6, 2.0), ("degree cap", 2, 6.0, 6.0),
                              ("q", "2", 6, "2")]
]


@pytest.mark.parametrize("name, call, value, error", [row[1:] for row in NON_INT],
                         ids=[row[0] for row in NON_INT])
def test_non_integer_is_refused_by_name(name, call, value, error):
    assert issubclass(error, ValueError)
    with pytest.raises(error, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
        call()


LEAST = [row for row in ENTRIES if row[4] is not None]


@pytest.mark.parametrize("call, error, least, message", [row[2:] for row in LEAST],
                         ids=[row[0] for row in LEAST])
def test_least_value_is_taken_and_the_one_below_refused(call, error, least, message):
    call(least)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(least - 1)
