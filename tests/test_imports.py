"""Each CLI job loads only the package modules its subcommand runs.

Every case runs in a fresh interpreter, so modules imported by other tests
do not count.  A new top-level import of an algebra module in the package,
the CLI or the cache makes one of these sets grow.  So does `dataclasses` or
`inspect`, which no job needs: importing them costs about 12 ms per run.
`fractions` (about 3 ms, with `decimal` and `numbers`) is loaded only past a
pivot other than +-1, which none of these jobs meets.  No job loads
`hashlib`, whose `_hashlib` loads OpenSSL's libcrypto, not even `--version`:
cache entries and the config digest are `zlib` CRC-32s.  Every source also
parses at the Python floor that `pyproject.toml` declares.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import veycalc
import veycalc.cli

SRC = str(pathlib.Path(veycalc.__file__).resolve().parents[1])
# Loaded by every job: the package, the front end, the cache and the errors.
FRONT = {"veycalc", "veycalc.cli", "veycalc.cache", "veycalc.errors"}

CHILD = """
import contextlib, io, json, sys
import veycalc.cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = veycalc.cli.run(argv)
    assert code == 0, code
# the package's modules, and the standard modules a job loads only if it must
watched = ("veycalc", "dataclasses", "inspect", "fractions", "hashlib", "_hashlib")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in watched)))
"""


def _loaded(argv: list[str]) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        env=env,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    return set(json.loads(out))


def test_importing_the_cli_loads_no_algebra_module():
    assert _loaded([]) == FRONT


def test_errors_module_imports_nothing():
    # gca, vey and the front end import errors at module level, so an import
    # there would reach every job
    tree = ast.parse(pathlib.Path(SRC, "veycalc", "errors.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_sources_parse_at_the_declared_python_floor():
    # ast.parse with feature_version refuses the syntax of later versions
    # (except*, type statements and the like) that the floor cannot run
    root = pathlib.Path(__file__).resolve().parents[1]
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text())
    sources = sorted((root / "src" / "veycalc").glob("*.py"))
    assert floor and sources
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(floor[1])))


# (job, algebra modules it loads beyond FRONT), computed on an empty cache;
# cached jobs do not
JOBS = [
    ("kappa --q 3", {"vey"}),
    ("cohomology --complex W --q 2", {"gca", "complexes"}),
    ("model --q 2 --max-degree 6", {"gca", "linalg", "minimal_model"}),
    ("vey --complex WO --q 3", {"vey", "gca"}),
    ("vey --complex WO --q 3 --degree 7", {"vey", "gca"}),
    # the JSON row writer
    ("vey --complex W --q 3 --format json", {"vey", "gca"}),
    ("validate --complex W --q 2", {"vey", "gca", "complexes"}),
    ("manifold --dim 6 --compact", {"manifold", "vey", "gca"}),
    ("manifold --preset Rq:2", {"manifold", "minimal_model", "linalg", "gca"}),
    # the braced path
    ("manifold --dim 6 --compact --parallelizable", {"manifold", "vey", "gca"}),
    ("--version", set()),
]

# (job, format, modules a cache hit of it loads beyond FRONT); a cohomology
# table labels its representatives with `gca.Monomial.label`
HITS = [
    ("cohomology --complex W --q 2", "json", set()),
    ("cohomology --complex W --q 2", "table", {"gca"}),
    ("validate --complex WO --q 2", "json", set()),
    ("validate --complex WO --q 2", "table", set()),
    ("model --q 2 --max-degree 6", "json", set()),
    ("model --q 2 --max-degree 6", "table", set()),
    ("manifold --preset T2", "json", set()),
    ("manifold --preset T2", "table", set()),
    ("manifold --preset Rq:2", "json", set()),
    ("manifold --preset Rq:2", "table", set()),
    ("manifold --dim 6 --compact --parallelizable", "json", set()),
    ("manifold --dim 6 --compact --parallelizable", "table", set()),
]


@pytest.mark.parametrize("job, modules", JOBS, ids=[job for job, _ in JOBS])
def test_job_loads_only_what_it_runs(tmp_path, job, modules):
    loaded = _loaded([*job.split(), "--cache-dir", str(tmp_path)])
    assert loaded == FRONT | {f"veycalc.{m}" for m in modules}


@pytest.mark.parametrize(
    "job, fmt, modules", HITS, ids=[f"{job}-{fmt}" for job, fmt, _ in HITS]
)
def test_cache_hit_loads_only_what_it_renders(tmp_path, job, fmt, modules):
    argv = [*job.split(), "--format", fmt, "--cache-dir", str(tmp_path)]
    assert veycalc.cli.run(argv) == 0  # fills the cache
    assert len(list(tmp_path.glob("*.json"))) == 1
    loaded = _loaded(argv)
    assert loaded == FRONT | {f"veycalc.{m}" for m in modules}
