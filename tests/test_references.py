"""Every job of the benchmark prints its reference bytes.

`perfbench/references.json` maps each benchmark job to the sha256 and byte
count of its stdout.  All of them run here in-process against no cache, from
the repository root, where the `--config perfbench/...` paths of the model
jobs resolve; the file is only read.  The `model` JSON references also
reproduce from `build_model(q, cap).to_json_obj()` alone, with no CLI call.
"""

import hashlib
import json
import pathlib

import pytest

from veycalc import cli
from veycalc.cache import canonical_json
from veycalc.minimal_model import build_model

ROOT = pathlib.Path(__file__).resolve().parents[1]
JOBS = json.loads((ROOT / "perfbench" / "references.json").read_text())
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


def test_every_model_json_job_is_covered():
    assert len(MODEL_JOBS) == 19


@pytest.mark.parametrize("job", MODEL_JOBS)
def test_model_reference_reproduces_from_the_library(job):
    argv = job.split()
    q, cap = (int(argv[argv.index(flag) + 1]) for flag in ("--q", "--max-degree"))
    out = (canonical_json(build_model(q, cap).to_json_obj()) + "\n").encode()
    assert hashlib.sha256(out).hexdigest() == JOBS[job]["sha256"]
