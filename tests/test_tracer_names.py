"""Every function the benchmark tracer wraps must exist in the package.

`perfbench/tracer.py` replaces each name in its TRACED table with a timing
wrapper and resolves it with no fallback, so a deleted or renamed function
would crash the traced benchmark run.  The table is read from the file's
source here; the benchmark's own selftest, run in a subprocess, reaches the
probes that read each traced call's arguments and result.
"""

import ast
import importlib
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_benchmark_selftest_passes():
    # the tracer's probes (r.generators, len(a[0].degrees), ...) run only in a traced run
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
