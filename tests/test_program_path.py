"""The program path: each def in veycalc that no benchmark job enters is listed, with why.

The program path is the code that the jobs of `perfbench/references.json` run.
Here every reference job runs under `sys.setprofile`, first as a miss and then
as a hit against a temporary cache, followed by the refusal and entry paths
that no reference reaches: a q over the cap, q = 10^26, an over-cap
`--max-degree`, a usage error and `--version`.  They all run through
`cli.run` in one fresh interpreter, this file run as a script, so that, as in
a benchmark job, no lru_cache is warm and the package's lazy imports happen.
The references file is only read.

The defs are the AST `FunctionDef`s of `src/veycalc`, lambdas and
comprehensions left out (3.12 inlines comprehensions), each keyed by its first
line, a decorated one by its first decorator, which is the `co_firstlineno` of
its code object.  A def that no job enters must be in NEVER_ENTERED with a
one-line reason; a listed def that a job enters, or that no longer exists, is
a stale entry.  A reason that starts with "tracer pin" names a def that
`perfbench/tracer.py` wraps in its TRACED table, read here with `ast`, and
every wrapped def that no job enters carries that reason.
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from veycalc import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(cli.__file__).resolve().parent
JOBS = sorted(json.loads((ROOT / "perfbench" / "references.json").read_text()))
TRACER = ROOT / "perfbench" / "tracer.py"
# (argv, exit code): the refusals and entry paths that no reference job reaches
EXTRA = [
    ("cohomology --complex W --q 11", 3),
    (f"cohomology --complex W --q {10**26}", 3),
    ("model --q 1 --max-degree 99", 3),
    ("cohomology --complex X --q 2", 2),
    ("--version", 0),
]

_PIN = "tracer pin: perfbench/tracer.py wraps it"
_ALGEBRA = "reference algebra: the property suites' independent check of gca.d_terms"
_ORACLE = "elimination oracle: tests/elimination.py reads the complex's bases and d"
_DENSE = "dense linear algebra: serves only the tracer-pinned linalg functions"
NEVER_ENTERED = {
    "__init__.__dir__": "entry point: dir(veycalc); tests/test_api.py covers it",
    "cli.main": "entry point: runs only in a fresh process; tests/test_cli.py covers it",
    "complexes.GradedComplex.bases": _ORACLE,
    "complexes.GradedComplex.basis": _ORACLE,
    "complexes.GradedComplex.diff": _ORACLE,
    "complexes.GradedComplex.index": _ORACLE,
    "complexes.GradedComplex.diff_matrix": _PIN,
    "complexes.build_complex": _PIN,
    "complexes.critical_class": "public API: the class of a cocycle, read by is_coboundary",
    "complexes.is_coboundary": _PIN,
    "complexes.is_cocycle": _PIN,
    "gca.Element.__add__": _ALGEBRA,
    "gca.Element.__eq__": _ALGEBRA,
    "gca.Element.__init__": _ALGEBRA,
    "gca.Element.__mul__": _PIN,
    "gca.Element.__neg__": _ALGEBRA,
    "gca.Element.__repr__": _ALGEBRA,
    "gca.Element.__sub__": _ALGEBRA,
    "gca.Element._check": _ALGEBRA,
    "gca.Element.degree": _ALGEBRA,
    "gca.Element.is_homogeneous": _ALGEBRA,
    "gca.Element.is_zero": _ALGEBRA,
    "gca.Element.scale": _ALGEBRA,
    "gca.Element.sorted_terms": _ALGEBRA,
    "gca.Monomial.degree": _ALGEBRA,
    "gca.Monomial.is_valid": _ALGEBRA,
    "gca.Monomial.partition": _ALGEBRA,
    "gca.Monomial.sort_key": _ALGEBRA,
    "gca.Monomial.weight": _ALGEBRA,
    "gca._exact": _ALGEBRA,
    "gca._partition": _ALGEBRA,
    "gca.basis_dimension_series": _PIN,
    "gca.differential": _PIN,
    "linalg._columns": _DENSE,
    "linalg.dense": _DENSE,
    "linalg.sparse": _DENSE,
    "linalg.independent_complement": _PIN,
    "linalg.nullspace": _PIN,
    "linalg.rank": _PIN,
    "linalg.rref": _PIN,
    "linalg.solve": _PIN,
    "vey.extended_count": _PIN,
    "vey.v_count": _PIN,
}


def _defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> "module.Class.name" for every FunctionDef in src/veycalc."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[str(path), line] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef)
                      else prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return out


def _traced() -> set[str]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return {f"{layer}.{name}" for layer, names in ast.literal_eval(node.value).items()
                    for name in names}
    raise AssertionError(f"no TRACED table in {TRACER}")


def _entered(cache_dir: str) -> list[tuple[str, int]]:
    """(file, first line) of each code object that the jobs enter."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    # each job twice, a miss and then a hit
    runs = [(job.split() + ["--cache-dir", cache_dir], 0) for job in JOBS for _ in range(2)]
    runs += [(argv.split(), code) for argv, code in EXTRA]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            codes = [cli.run(argv) for argv, _ in runs]
        finally:
            sys.setprofile(outer)
    assert codes == [code for _, code in runs]
    return sorted({(c.co_filename, c.co_firstlineno) for c in seen})


@pytest.fixture(scope="module")
def program_path(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    # run from the root, where the --config perfbench/... paths of the model jobs resolve
    child = subprocess.run([sys.executable, __file__, str(tmp_path_factory.mktemp("cache"))],
                           cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]
    entered = {tuple(key) for key in json.loads(child.stdout)}
    defs = _defs()
    assert len(set(defs.values())) == len(defs), "two defs share a name"
    # the names never entered, and the names of all defs
    return {name for key, name in defs.items() if key not in entered}, set(defs.values())


def test_every_def_that_no_job_enters_is_listed(program_path):
    never, _ = program_path
    assert sorted(never - NEVER_ENTERED.keys()) == []


def test_no_listed_def_is_entered_or_gone(program_path):
    never, defs = program_path
    assert sorted(NEVER_ENTERED.keys() - defs) == [], "listed but gone"
    assert sorted(NEVER_ENTERED.keys() - never) == [], "listed but entered"


def test_a_tracer_pin_is_what_the_tracer_wraps(program_path):
    never, _ = program_path
    pins = {name for name, reason in NEVER_ENTERED.items() if reason.startswith("tracer pin")}
    assert sorted(pins - _traced()) == [], "no longer traced"
    assert sorted((never & _traced()) - pins) == [], "traced but not marked a tracer pin"


if __name__ == "__main__":
    print(json.dumps(_entered(sys.argv[1])))
