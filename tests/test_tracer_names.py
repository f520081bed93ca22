"""Every function the benchmark tracer wraps must exist in the package.

`perfbench/tracer.py` replaces each name in its TRACED table with a timing
wrapper and resolves it with no fallback, so a deleted or renamed function
would crash the traced benchmark run.  The table is read from the file's
source; nothing under perfbench/ is imported or executed.
"""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"veycalc.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                assert hasattr(obj, part), f"veycalc.{layer}.{name} is gone"
                obj = getattr(obj, part)
            assert callable(obj), f"veycalc.{layer}.{name} is not callable"
