"""Every job of the benchmark prints its reference bytes.

`perfbench/references.json` maps each benchmark job to the sha256 and byte
count of its stdout.  All of them run here in-process against no cache, from
the repository root, where the `--config perfbench/...` paths of the model
jobs resolve; the file is only read.  The `model` JSON references also
reproduce from `build_model(q, cap).to_json_obj()` alone, with no CLI call.
One job per subcommand also runs in fresh interpreters under two hash seeds.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from veycalc import cli
from veycalc.cache import canonical_json
from veycalc.minimal_model import build_model

ROOT = pathlib.Path(__file__).resolve().parents[1]
JOBS = json.loads((ROOT / "perfbench" / "references.json").read_text())
SRC = str(pathlib.Path(cli.__file__).resolve().parents[1])
# one per subcommand, in both formats, the model one with a --config file
SEEDED_JOBS = [
    "cohomology --complex W --q 3 --format json",
    "vey --complex WO --q 3 --format json",
    "validate --complex W --q 4 --format json",
    "model --q 4 --max-degree 14 --config perfbench/model_cap18.json --format json",
    "manifold --dim 6 --compact --parallelizable --cospherical 1:2 --format table",
    "kappa --q 7",
]
MODEL_JOBS = sorted(j for j in JOBS if j.startswith("model ") and j.endswith("--format json"))


def test_every_job_is_covered():
    assert len(JOBS) == 229


@pytest.mark.parametrize("job", sorted(JOBS))
def test_output_matches_reference(capsys, monkeypatch, job):
    monkeypatch.chdir(ROOT)
    assert cli.run(job.split() + ["--no-cache"]) == 0
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (
        JOBS[job]["sha256"],
        JOBS[job]["bytes"],
    )


@pytest.mark.parametrize("seed", ["1", "2"])
@pytest.mark.parametrize("job", SEEDED_JOBS)
def test_output_does_not_depend_on_the_hash_seed(job, seed):
    # str hashes, and so the order of any set of strings, change with the seed;
    # a fresh interpreter is the only place a seed takes effect
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "veycalc.cli", *job.split(), "--no-cache"],
                         cwd=ROOT, env=env, capture_output=True, check=True, timeout=60).stdout
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (
        JOBS[job]["sha256"],
        JOBS[job]["bytes"],
    )


def test_every_model_json_job_is_covered():
    assert len(MODEL_JOBS) == 19


@pytest.mark.parametrize("job", MODEL_JOBS)
def test_model_reference_reproduces_from_the_library(job):
    argv = job.split()
    q, cap = (int(argv[argv.index(flag) + 1]) for flag in ("--q", "--max-degree"))
    out = (canonical_json(build_model(q, cap).to_json_obj()) + "\n").encode()
    assert hashlib.sha256(out).hexdigest() == JOBS[job]["sha256"]
